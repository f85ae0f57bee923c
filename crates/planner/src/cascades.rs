//! Bushy join ordering: one dense dynamic program over relation-subset
//! masks (DPsub).
//!
//! Selinger and IDP search left-deep trees only, and star and clique
//! queries leave money on the table there: joining two small dimension
//! tables first and probing the fact table with the tiny cross product can
//! beat every left-deep order. Here a subset of the query's sorted relation
//! list is a bitmask, every per-subset fact lives in a 2ⁿ-slot table indexed
//! by it (see `Search`), and subsets are planned level by level, by size:
//!
//! * **Splits** — the submasks holding a subset's lowest relation enumerate
//!   each unordered split once. A split is a candidate when both halves are
//!   planned and it is edge-connected, or is the seed chain's, or the
//!   subset's estimated rows stay under [`CascadesConfig::cross_rows_cap`]:
//!   chain queries stay polynomial in `getPlanCost` calls (only contiguous
//!   intervals are ever planned) while star schemas still get their tiny
//!   dimension×dimension products.
//! * **Costing** — every candidate goes once through the same
//!   [`PlanCoster::join_cost`] seam as Selinger (`getPlanCost`, §VI-C), so
//!   resource planning, the plan-cost cache and planning budgets compose
//!   unchanged; a level goes in [`PlanCoster::join_cost_many`] batches
//!   that close between subsets once they hold `BATCH_CANDIDATES`.
//! * **Winners** — lowest total cost, then least intermediate data
//!   (Σ `out_gb`), then the seed split, then the first enumerated. The
//!   learned §VI model floors at one second, so many sub-plans tie exactly.
//!
//! A **seed** left-deep chain over a connected order is costed into the
//! tables before the search. Its splits bypass the cap, so a complete plan
//! always exists; and when the `stop` probe (the optimizer's planning
//! budget, polled at every subset) fires, the tables still hold one — the
//! finished levels' plans under the rest of the chain — which is returned
//! with `cut_short` set, the optimizer's mildest degradation rung.
//!
//! The finished plan is read off the tables: every planned subset's top
//! split holds its costed join, so nothing is costed after the search.

use crate::cardinality::{CardinalityEstimator, JoinIo, SubsetSizes};
use crate::coster::{
    cost_batch, JoinDecision, PlanCoster, PlannedJoin, PlannedQuery, BATCH_CANDIDATES,
};
use crate::plan::PlanTree;
use raqo_catalog::{Catalog, JoinGraph, QuerySpec, TableId};
use raqo_telemetry::{Counter, Telemetry};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Hard cap: the tables hold 2ⁿ slots and the search takes 3ⁿ submask
/// steps — 64 K slots and ≈ 43 M steps at 16.
pub const CASCADES_MAX_RELATIONS: usize = 16;

/// Default bound on the exhaustive search: a clique costs (3ⁿ − 2ⁿ⁺¹ + 1)/2
/// candidates, a quarter of a million at 12. Queries above the bound report
/// [`CascadesError::TooManyRelations`] so the optimizer can bridge to IDP
/// exactly as it does for Selinger.
pub const DEFAULT_CASCADES_THRESHOLD: usize = 12;

/// Default cross-product admission cap, in estimated output rows: admits
/// dimension×dimension products on star schemas (the bushy win), rejects
/// every fact-sized cross product, which keeps chain queries polynomial.
pub const DEFAULT_CROSS_ROWS_CAP: f64 = 1e8;

/// Tuning knobs for [`CascadesPlanner`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CascadesConfig {
    /// Queries with more relations fail with
    /// [`CascadesError::TooManyRelations`]; at most [`CASCADES_MAX_RELATIONS`].
    pub max_relations: usize,
    /// Admit a cross-product split only when the subset's estimated output
    /// is at most this many rows. Non-positive rejects all cross products
    /// (the seed chain still bypasses the cap).
    pub cross_rows_cap: f64,
}

impl Default for CascadesConfig {
    fn default() -> Self {
        CascadesConfig {
            max_relations: DEFAULT_CASCADES_THRESHOLD,
            cross_rows_cap: DEFAULT_CROSS_ROWS_CAP,
        }
    }
}

/// Why the search could not produce a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CascadesError {
    /// Query exceeds [`CascadesConfig::max_relations`]; callers bridge to
    /// IDP or the randomized planner, as with Selinger.
    TooManyRelations { n: usize, max: usize },
    /// No feasible plan (empty query, or the coster rejected every
    /// candidate of every complete tree).
    Infeasible,
}

impl fmt::Display for CascadesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CascadesError::TooManyRelations { n, max } => {
                write!(f, "query has {n} relations, above the bushy search bound of {max}")
            }
            CascadesError::Infeasible => write!(f, "no feasible plan"),
        }
    }
}

impl std::error::Error for CascadesError {}

/// A finished search: the winning plan plus search-size accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct CascadesOutcome {
    pub planned: PlannedQuery,
    /// True when the `stop` probe fired before the search completed: the
    /// plan is the finished levels' under the seed chain, maybe not optimal.
    pub cut_short: bool,
    /// Subsets a plan was found for (single relations included).
    pub groups: usize,
    /// Candidate splits costed, each once.
    pub expressions: usize,
    /// Subsets of two or more relations visited.
    pub tasks: u64,
}

/// A costed join: what the tables hold and a finished plan reports.
type Costed = (JoinIo, JoinDecision);

/// One run. Subsets are `usize` masks over `rels` and index every table.
struct Search<'a> {
    rels: &'a [TableId],
    coster: &'a mut dyn PlanCoster,
    cross_rows_cap: f64,
    stop: Option<&'a dyn Fn() -> bool>,
    /// Relations adjacent to any member of the subset.
    nbr: Vec<usize>,
    /// `(cost, Σ out_gb of the joins)` of the subset's best plan so far;
    /// infinite cost = not planned.
    best: Vec<(f64, f64)>,
    /// One half of that plan's top split (the other is the rest of the
    /// subset) and the join of the two.
    top: Vec<(usize, Option<Costed>)>,
    /// Estimated `(rows, GB)` of the subset, one item per relation: one
    /// size serves its candidates' output and every join it enters.
    sizes: SubsetSizes,
    /// `prefix[k]`: the first k relations of the seed order, as far as the
    /// seed chain was costed.
    prefix: Vec<usize>,
    /// Candidates gathered for the next batch, as (subset, one half).
    cands: Vec<(usize, usize)>,
    expressions: usize,
    tasks: u64,
}

impl Search<'_> {
    /// `(cost, volume)` of joining the best plans of `s` and of the rest of `mask`.
    fn totals(&self, mask: usize, s: usize, (io, decision): &Costed) -> (f64, f64) {
        let (l, r) = (self.best[s], self.best[mask ^ s]);
        (l.0 + r.0 + decision.cost, l.1 + r.1 + io.out_gb)
    }

    /// Cost the seed left-deep chain — the lowest relation, then greedily
    /// the lowest one joined to the prefix (the lowest left, on a
    /// disconnected query) — into the tables, so they hold a complete plan
    /// whenever the search stops. Ends at the first infeasible join.
    fn seed_chain(&mut self) {
        let full = self.best.len() - 1;
        let mut last = 1;
        self.prefix.extend([0, last]);
        while last != full {
            let open = full & !last;
            let joined = self.nbr[last] & open;
            let next = if joined != 0 { joined } else { open };
            let s = last;
            last |= next & next.wrapping_neg();
            self.prefix.push(last);
            self.cands.push((last, s));
            // A fired budget does not end the chain, only an infeasible
            // join does: the seed is what a cut search answers with.
            self.flush();
            if self.best[last].0.is_infinite() {
                break;
            }
        }
    }

    /// Gather the candidate splits of a `k`-relation subset.
    fn visit(&mut self, mask: usize, k: usize) {
        let low = mask & mask.wrapping_neg();
        let rest = mask ^ low;
        let mut seed_s = 0;
        if self.prefix.get(k) == Some(&mask) {
            // The seed split is the incumbent the others must beat: bring
            // it up to date with what its prefix's best plan has become.
            let p = self.prefix[k - 1];
            seed_s = if p & low != 0 { p } else { mask ^ p };
            if let Some(join) = self.top[mask].1 {
                self.best[mask] = self.totals(mask, p, &join);
            }
        }
        // Every split once: the half holding the lowest relation is `s`.
        let mut sub = rest;
        while sub != 0 {
            sub = (sub - 1) & rest;
            let s = low | sub;
            let t = mask ^ s;
            if s == seed_s || self.best[s].0.is_infinite() || self.best[t].0.is_infinite() {
                continue;
            }
            // No edge crosses a cross product: its rows are the halves' product.
            if self.nbr[s] & t != 0
                || self.sizes.get(s as u64).0 * self.sizes.get(t as u64).0 <= self.cross_rows_cap
            {
                self.cands.push((mask, s));
            }
        }
    }

    /// Cost the gathered candidates and fold them into the tables. False
    /// when the budget fired meanwhile: the coster then reports infeasible,
    /// and the search may not build on that.
    fn flush(&mut self) -> bool {
        let cands = std::mem::take(&mut self.cands);
        let ios: Vec<JoinIo> = cands
            .iter()
            .map(|&(mask, s)| self.sizes.join_io(s as u64, (mask ^ s) as u64))
            .collect();
        let decisions = cost_batch(&mut *self.coster, &ios);
        let poisoned = !ios.is_empty() && self.stop.is_some_and(|stop| stop());
        for ((&(mask, s), io), decision) in cands.iter().zip(ios).zip(decisions) {
            let Some(decision) = decision else { continue };
            let join = (io, decision);
            // Strictly cheaper, or as cheap and moving less data.
            let totals = self.totals(mask, s, &join);
            if totals < self.best[mask] {
                self.best[mask] = totals;
                self.top[mask] = (s, Some(join));
            }
        }
        self.expressions += cands.len();
        self.cands = cands;
        self.cands.clear();
        !poisoned
    }

    /// Plan every subset, level by level. False when cut short.
    fn run(&mut self, tel: &Telemetry) -> bool {
        for k in 2..=self.rels.len() {
            let _level_span = tel.span_labeled("cascades.level", k);
            let mut mask = (1usize << k) - 1; // Gosper's hack steps through the level
            while mask < self.best.len() {
                // A level's subsets never read each other: a batch may end at any.
                if self.stop.is_some_and(|stop| stop())
                    || (self.cands.len() >= BATCH_CANDIDATES && !self.flush())
                {
                    return false;
                }
                self.tasks += 1;
                self.visit(mask, k);
                let c = mask & mask.wrapping_neg();
                let r = mask + c;
                mask = (((r ^ mask) >> 2) / c) | r;
            }
            if !self.flush() {
                return false;
            }
        }
        true
    }

    /// The tree the tables hold for a planned `mask` and its relations in
    /// leaf order; its joins are pushed onto `joins` in execution order
    /// (left subtree, right subtree, then the join), each under a
    /// `final_cost.join.<mask>` span. The larger half goes left (`join_io`
    /// is side-symmetric, so cost is unchanged): linear trees come out
    /// left-deep, the Selinger convention explain and parity checks rely on.
    fn assemble(
        &self,
        mask: usize,
        tel: &Telemetry,
        joins: &mut Vec<PlannedJoin>,
    ) -> (PlanTree, Vec<TableId>) {
        if mask & (mask - 1) == 0 {
            let t = self.rels[mask.trailing_zeros() as usize];
            return (PlanTree::leaf(t), vec![t]);
        }
        let (s, join) = self.top[mask];
        let (io, decision) = join.expect("a planned subset holds its top join");
        let t = mask ^ s;
        let (l, r) = if s.count_ones() < t.count_ones() { (t, s) } else { (s, t) };
        let (ltree, left) = self.assemble(l, tel, joins);
        let (rtree, right) = self.assemble(r, tel, joins);
        let _span = tel.span_labeled("final_cost.join", mask);
        let all = [left.as_slice(), &right].concat();
        joins.push(PlannedJoin { left, right, io, decision });
        (PlanTree::join(ltree, rtree), all)
    }
}

/// The planner. Stateless — all state lives in the per-run `Search`.
pub struct CascadesPlanner;

impl CascadesPlanner {
    /// Plan with default wiring: no telemetry or budget probe.
    pub fn plan(
        catalog: &Catalog,
        graph: &JoinGraph,
        query: &QuerySpec,
        coster: &mut dyn PlanCoster,
        config: &CascadesConfig,
    ) -> Result<CascadesOutcome, CascadesError> {
        let tel = Telemetry::disabled();
        Self::plan_traced(catalog, graph, query, coster, &tel, config, None)
    }

    /// Full-wiring entry point: telemetry (a `cascades.level.<k>` span per
    /// subset size, a `cascades.final_cost` span around reading the plan
    /// off the tables, three counters), and a `stop` probe for
    /// budget/deadline cut-off.
    pub fn plan_traced(
        catalog: &Catalog,
        graph: &JoinGraph,
        query: &QuerySpec,
        coster: &mut dyn PlanCoster,
        tel: &Telemetry,
        config: &CascadesConfig,
        stop: Option<&dyn Fn() -> bool>,
    ) -> Result<CascadesOutcome, CascadesError> {
        let mut rels: Vec<TableId> = query.relations.clone();
        rels.sort_unstable();
        rels.dedup();
        let n = rels.len();
        let max = config.max_relations.min(CASCADES_MAX_RELATIONS);
        if n == 0 {
            return Err(CascadesError::Infeasible);
        }
        if n > max {
            return Err(CascadesError::TooManyRelations { n, max });
        }
        let est = CardinalityEstimator::new(catalog, graph);
        let view = est.local_view(rels.iter().map(std::slice::from_ref));
        let slots = 1usize << n;
        let adj = view.adjacency();
        let mut nbr = vec![0usize; slots];
        for mask in 1..slots {
            nbr[mask] = nbr[mask & (mask - 1)] | adj[mask.trailing_zeros() as usize] as usize;
        }
        let mut search = Search {
            rels: &rels,
            coster,
            cross_rows_cap: config.cross_rows_cap,
            stop,
            nbr,
            best: (0..slots)
                .map(|m| (if m.is_power_of_two() { 0.0 } else { f64::INFINITY }, 0.0))
                .collect(),
            top: vec![(0, None); slots],
            sizes: SubsetSizes::new(view),
            prefix: Vec::with_capacity(n + 1),
            cands: Vec::new(),
            expressions: 0,
            tasks: 0,
        };
        // Before any search work, so a cut at any subset can still answer.
        search.seed_chain();
        let cut_short = !search.run(tel);

        let groups = search.best.iter().filter(|b| b.0.is_finite()).count();
        tel.add(Counter::CascadesGroups, groups as u64);
        tel.add(Counter::CascadesExpressions, search.expressions as u64);
        tel.add(Counter::CascadesTasks, search.tasks);

        // Cut or not, the tables hold the best plan found for every subset
        // (the seed chain at worst) unless the coster left none feasible.
        if search.best[slots - 1].0.is_infinite() {
            return Err(CascadesError::Infeasible);
        }
        let _final_span = tel.span("cascades.final_cost");
        let mut joins = Vec::with_capacity(n - 1);
        let (tree, _) = search.assemble(slots - 1, tel, &mut joins);
        let planned = PlannedQuery::new(tree, joins);
        let (expressions, tasks) = (search.expressions, search.tasks);
        Ok(CascadesOutcome { planned, cut_short, groups, expressions, tasks })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coster::{cost_tree, FixedResourceCoster};
    use crate::oracle::brute_force;
    use crate::selinger::SelingerPlanner;
    use raqo_catalog::{Catalog, QuerySpec, RandomSchema, TableStats};
    use raqo_cost::SimOracleCost;
    use std::cell::Cell;

    fn fixed(model: &SimOracleCost) -> FixedResourceCoster<'_, SimOracleCost> {
        FixedResourceCoster::new(model, 40.0, 8.0)
    }

    #[test]
    fn chain_cost_matches_selinger_exactly() {
        for seed in [1u64, 7, 21, 42, 99] {
            for n in 2..=10 {
                let s = RandomSchema::chain(n, seed);
                let model = SimOracleCost::hive();
                let q = QuerySpec::new("q", s.catalog.table_ids().collect());
                let selinger = SelingerPlanner::plan(
                    &s.catalog,
                    &s.graph,
                    &q,
                    &mut fixed(&model),
                )
                .unwrap();
                let cascades = CascadesPlanner::plan(
                    &s.catalog,
                    &s.graph,
                    &q,
                    &mut fixed(&model),
                    &CascadesConfig::default(),
                )
                .unwrap();
                // Bushy trees can beat the best left-deep plan even on
                // chains (e.g. (a⋈b)⋈(c⋈d) halves the build side), so the
                // memo search is only required to be *exactly* equal when
                // its optimum is itself left-deep — which is guaranteed for
                // n ≤ 3, where no bushy shape exists.
                if cascades.planned.tree.is_left_deep() {
                    assert_eq!(
                        cascades.planned.cost, selinger.cost,
                        "chain n={n} seed={seed}: left-deep cascades optimum \
                         must equal selinger exactly"
                    );
                } else {
                    assert!(
                        cascades.planned.cost < selinger.cost,
                        "chain n={n} seed={seed}: a bushy cascades plan must \
                         only be kept when strictly cheaper ({} vs {})",
                        cascades.planned.cost,
                        selinger.cost
                    );
                }
                if n <= 3 {
                    assert!(
                        cascades.planned.tree.is_left_deep(),
                        "chain n={n} seed={seed}: no bushy shape exists below 4 relations"
                    );
                }
            }
        }
    }

    #[test]
    fn small_queries_match_brute_force_optimum() {
        // With the cross cap lifted the memo must find the global bushy
        // optimum over all partitions, cross products included.
        let config = CascadesConfig { cross_rows_cap: f64::INFINITY, ..Default::default() };
        let model = SimOracleCost::hive();
        for seed in [3u64, 11] {
            for n in 2..=5 {
                for schema in [
                    RandomSchema::chain(n, seed),
                    RandomSchema::star(n, seed),
                    RandomSchema::clique(n, seed),
                ] {
                    let q = QuerySpec::new("q", schema.catalog.table_ids().collect());
                    let est = CardinalityEstimator::new(&schema.catalog, &schema.graph);
                    let want = brute_force(&q.relations, &est, &mut fixed(&model)).unwrap();
                    let got = CascadesPlanner::plan(
                        &schema.catalog,
                        &schema.graph,
                        &q,
                        &mut fixed(&model),
                        &config,
                    )
                    .unwrap();
                    assert!(
                        (got.planned.cost - want).abs() <= 1e-9 * want.max(1.0),
                        "n={n} seed={seed}: cascades {} != brute force {want}",
                        got.planned.cost
                    );
                }
            }
        }
    }

    #[test]
    fn never_worse_than_selinger_on_star_and_clique() {
        let model = SimOracleCost::hive();
        for seed in [1u64, 5, 13] {
            for n in 3..=7 {
                for schema in
                    [RandomSchema::star(n, seed), RandomSchema::clique(n, seed)]
                {
                    let q = QuerySpec::new("q", schema.catalog.table_ids().collect());
                    let selinger = SelingerPlanner::plan(
                        &schema.catalog,
                        &schema.graph,
                        &q,
                        &mut fixed(&model),
                    )
                    .unwrap();
                    let cascades = CascadesPlanner::plan(
                        &schema.catalog,
                        &schema.graph,
                        &q,
                        &mut fixed(&model),
                        &CascadesConfig::default(),
                    )
                    .unwrap();
                    assert!(
                        cascades.planned.cost <= selinger.cost * (1.0 + 1e-12),
                        "n={n} seed={seed}: cascades {} worse than selinger {}",
                        cascades.planned.cost,
                        selinger.cost
                    );
                }
            }
        }
    }

    /// The crafted star catalog of the smoke gate: a wide fact table and
    /// small dimensions, where probing the fact with dim×dim cross
    /// products halves the number of fact-sized joins.
    pub(crate) fn fact_dim_star(dims: usize) -> (Catalog, JoinGraph) {
        let mut catalog = Catalog::new();
        let fact = catalog.add_stats_only("fact", TableStats::new(2_000_000.0, 400.0));
        let mut graph = JoinGraph::new();
        for i in 0..dims {
            let rows = 200.0 + 100.0 * i as f64;
            let d = catalog.add_stats_only(format!("dim{i}"), TableStats::new(rows, 60.0));
            graph.add_edge(fact, d, 1.0 / rows);
        }
        (catalog, graph)
    }

    #[test]
    fn bushy_beats_left_deep_on_fact_dim_star() {
        let (catalog, graph) = fact_dim_star(8);
        let model = SimOracleCost::hive();
        let q = QuerySpec::new("q", catalog.table_ids().collect());
        let selinger =
            SelingerPlanner::plan(&catalog, &graph, &q, &mut fixed(&model)).unwrap();
        let cascades = CascadesPlanner::plan(
            &catalog,
            &graph,
            &q,
            &mut fixed(&model),
            &CascadesConfig::default(),
        )
        .unwrap();
        assert!(
            cascades.planned.cost < selinger.cost,
            "bushy {} must beat left-deep {}",
            cascades.planned.cost,
            selinger.cost
        );
        assert!(
            !cascades.planned.tree.is_left_deep(),
            "winning plan should be bushy: {:?}",
            cascades.planned.tree
        );
    }

    /// A level of a 12-relation clique holds up to C(12, 6)·31 = 28 644
    /// splits; the bushy DP closes a batch between subsets once it holds
    /// [`BATCH_CANDIDATES`], so it ends at most one subset's 2¹¹ − 1
    /// splits past that, and the plan and the joins costed are those of a
    /// coster that prices every join on its own.
    #[test]
    fn batched_costing_matches_sequential() {
        struct Batches<'a> {
            inner: FixedResourceCoster<'a, SimOracleCost>,
            widest: usize,
        }
        impl PlanCoster for Batches<'_> {
            fn join_cost(&mut self, io: &JoinIo) -> Option<JoinDecision> {
                self.inner.join_cost(io)
            }
            fn join_cost_many(
                &mut self,
                ios: &[JoinIo],
                _parallelism: raqo_resource::Parallelism,
            ) -> Vec<Option<JoinDecision>> {
                self.widest = self.widest.max(ios.len());
                ios.iter().map(|io| self.inner.join_cost(io)).collect()
            }
        }
        let schema = RandomSchema::clique(12, 12);
        let q = QuerySpec::new("clique12", schema.catalog.table_ids().collect());
        let model = SimOracleCost::hive();
        let config = CascadesConfig::default();
        let (catalog, graph) = (&schema.catalog, &schema.graph);
        let mut sequential = fixed(&model);
        let want = CascadesPlanner::plan(catalog, graph, &q, &mut sequential, &config).unwrap();
        let mut batched = Batches { inner: fixed(&model), widest: 0 };
        let got = CascadesPlanner::plan(catalog, graph, &q, &mut batched, &config).unwrap();
        let widest = batched.widest;
        assert!((BATCH_CANDIDATES..BATCH_CANDIDATES + (1 << 11)).contains(&widest), "{widest}");
        assert_eq!(got.planned, want.planned);
        assert_eq!(batched.inner.calls, sequential.calls);
    }

    #[test]
    fn chain_groups_stay_polynomial() {
        // Chains admit no cross products under the default cap, so groups
        // are exactly the contiguous intervals: at most n(n+1)/2 of them.
        for seed in [2u64, 17] {
            for n in 3..=10 {
                let s = RandomSchema::chain(n, seed);
                let model = SimOracleCost::hive();
                let q = QuerySpec::new("q", s.catalog.table_ids().collect());
                let out = CascadesPlanner::plan(
                    &s.catalog,
                    &s.graph,
                    &q,
                    &mut fixed(&model),
                    &CascadesConfig::default(),
                )
                .unwrap();
                let bound = n * (n + 1) / 2;
                assert!(
                    out.groups <= bound,
                    "chain n={n} seed={seed}: {} groups > interval bound {bound}",
                    out.groups
                );
                // Each interval splits in ≤ 2(L-1) oriented ways → O(n³).
                assert!(
                    out.expressions <= n * n * n,
                    "chain n={n}: {} expressions not polynomial",
                    out.expressions
                );
            }
        }
    }

    #[test]
    fn stop_probe_cuts_search_short_with_seed_plan() {
        /// Counts every `getPlanCost` call, single or batched, in one cell
        /// the stop probe can read.
        struct Counting<'a> {
            inner: FixedResourceCoster<'a, SimOracleCost>,
            calls: &'a Cell<u64>,
        }
        impl PlanCoster for Counting<'_> {
            fn join_cost(&mut self, io: &JoinIo) -> Option<JoinDecision> {
                self.calls.set(self.calls.get() + 1);
                self.inner.join_cost(io)
            }
        }
        let s = RandomSchema::chain(8, 4);
        let model = SimOracleCost::hive();
        let q = QuerySpec::new("q", s.catalog.table_ids().collect());
        let calls = Cell::new(0);
        // Calls made when the probe last fired: the seed chain polls it
        // after each of its joins, the search once before cutting.
        let fired = Cell::new(None);
        let stop = || {
            fired.set(Some(calls.get()));
            true
        };
        let mut coster = Counting { inner: fixed(&model), calls: &calls };
        let out = CascadesPlanner::plan_traced(
            &s.catalog,
            &s.graph,
            &q,
            &mut coster,
            &Telemetry::disabled(),
            &CascadesConfig::default(),
            Some(&stop),
        )
        .unwrap();
        assert!(out.cut_short);
        assert_eq!(out.tasks, 0, "stop fired before the first task");
        // The seed chain's seven joins were costed before the search, and
        // nothing after the cut: the plan is read off the tables.
        assert_eq!(fired.get(), Some(7));
        assert_eq!(calls.get(), 7);
        // The fallback is still a complete, costed plan.
        assert_eq!(out.planned.joins.len(), 7);
        assert!(out.planned.cost > 0.0);
        assert!(out.planned.tree.is_left_deep());
    }

    proptest::proptest! {
        /// The plan read off the tables is the plan a fresh walk of its
        /// tree costs: the same joins in the same order — sides in leaf
        /// order, the decision a fresh coster makes for each join's
        /// `JoinIo` — and the same cost to the bit. The walk takes each
        /// join's statistics over its relation sets in ascending order, as
        /// the DP does; `cost_tree` folds them in leaf order, which moves
        /// the floats by an ulp or so and nothing else.
        fn assembled_bushy_plan_bit_matches_a_fresh_walk(
            shape in 0usize..3,
            n in 2usize..9,
            seed in 0u64..1000,
        ) {
            let schema = match shape {
                0 => RandomSchema::chain(n, seed),
                1 => RandomSchema::star(n, seed),
                _ => RandomSchema::clique(n, seed),
            };
            let (catalog, graph) = (&schema.catalog, &schema.graph);
            let model = SimOracleCost::hive();
            let q = QuerySpec::new("q", catalog.table_ids().collect());
            let config = CascadesConfig::default();
            let out = CascadesPlanner::plan(catalog, graph, &q, &mut fixed(&model), &config);
            let planned = out.unwrap().planned;
            let est = CardinalityEstimator::new(catalog, graph);
            let tel = Telemetry::disabled();
            let walked = cost_tree(&planned.tree, &est, &mut fixed(&model), &tel).unwrap();

            let ascending = |sides: &[&[TableId]]| {
                let mut set = sides.concat();
                set.sort_unstable();
                set
            };
            let mut coster = fixed(&model);
            let mut cost = 0.0;
            proptest::prop_assert_eq!(planned.joins.len(), walked.joins.len());
            for (got, walk) in planned.joins.iter().zip(&walked.joins) {
                let (l, r) = (ascending(&[&walk.left]), ascending(&[&walk.right]));
                let out = est.set_size(&ascending(&[&l, &r]), &[]);
                let io = JoinIo::of(est.set_gb(&l), est.set_gb(&r), out);
                let want = PlannedJoin {
                    left: walk.left.clone(),
                    right: walk.right.clone(),
                    io,
                    decision: coster.join_cost(&io).unwrap(),
                };
                proptest::prop_assert_eq!(got, &want);
                proptest::prop_assert_eq!(got.decision.join, walk.decision.join);
                cost += want.decision.cost;
            }
            proptest::prop_assert_eq!(&planned.tree, &walked.tree);
            proptest::prop_assert_eq!(planned.cost.to_bits(), cost.to_bits());
            proptest::prop_assert!((planned.cost - walked.cost).abs() <= 1e-9 * walked.cost);
        }
    }

    #[test]
    fn too_many_relations_reports_bound() {
        let s = RandomSchema::chain(14, 1);
        let model = SimOracleCost::hive();
        let q = QuerySpec::new("q", s.catalog.table_ids().collect());
        let err = CascadesPlanner::plan(
            &s.catalog,
            &s.graph,
            &q,
            &mut fixed(&model),
            &CascadesConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, CascadesError::TooManyRelations { n: 14, max: 12 });
    }

    #[test]
    fn hard_cap_clamps_whatever_the_config_asks() {
        let s = RandomSchema::chain(17, 1);
        let model = SimOracleCost::hive();
        let q = QuerySpec::new("q", s.catalog.table_ids().collect());
        let err = CascadesPlanner::plan(
            &s.catalog,
            &s.graph,
            &q,
            &mut fixed(&model),
            &CascadesConfig { max_relations: 64, ..Default::default() },
        )
        .unwrap_err();
        assert_eq!(err, CascadesError::TooManyRelations { n: 17, max: 16 });
    }

    #[test]
    fn single_relation_plans_as_leaf() {
        let s = RandomSchema::chain(3, 1);
        let model = SimOracleCost::hive();
        let q = QuerySpec::new("one", vec![s.catalog.table_ids().nth(1).unwrap()]);
        let out = CascadesPlanner::plan(
            &s.catalog,
            &s.graph,
            &q,
            &mut fixed(&model),
            &CascadesConfig::default(),
        )
        .unwrap();
        assert_eq!(out.planned.cost, 0.0);
        assert!(out.planned.joins.is_empty());
    }

    #[test]
    fn extracted_tree_recosts_to_reported_cost() {
        let (catalog, graph) = fact_dim_star(8);
        let model = SimOracleCost::hive();
        let q = QuerySpec::new("q", catalog.table_ids().collect());
        let out = CascadesPlanner::plan(
            &catalog,
            &graph,
            &q,
            &mut fixed(&model),
            &CascadesConfig::default(),
        )
        .unwrap();
        let est = CardinalityEstimator::new(&catalog, &graph);
        let tel = Telemetry::disabled();
        let recosted = cost_tree(&out.planned.tree, &est, &mut fixed(&model), &tel).unwrap();
        assert_eq!(recosted.cost, out.planned.cost);
    }

    /// A bushy winner, a clique's and a chain's, each planned over all its
    /// relations.
    fn assembled_shapes() -> Vec<(Catalog, JoinGraph)> {
        let clique = RandomSchema::clique(7, 5);
        let chain = RandomSchema::chain(8, 3);
        vec![fact_dim_star(8), (clique.catalog, clique.graph), (chain.catalog, chain.graph)]
    }

    /// The `(left, right)` relation lists of every join node of `tree`,
    /// left subtree, right subtree, then the node.
    fn post_order(tree: &PlanTree, out: &mut Vec<(Vec<TableId>, Vec<TableId>)>) {
        if let PlanTree::Join(l, r) = tree {
            post_order(l, out);
            post_order(r, out);
            out.push((l.relations(), r.relations()));
        }
    }

    /// The plan read off the tables lists its joins in the tree's
    /// execution order, each side the relations of that subtree in leaf
    /// order, and the larger half of every split on the left.
    #[test]
    fn assembled_joins_follow_the_tree_with_the_larger_half_left() {
        let model = SimOracleCost::hive();
        for (catalog, graph) in &assembled_shapes() {
            let q = QuerySpec::new("q", catalog.table_ids().collect());
            let config = CascadesConfig::default();
            let planned =
                CascadesPlanner::plan(catalog, graph, &q, &mut fixed(&model), &config)
                    .unwrap()
                    .planned;
            let mut nodes = Vec::new();
            post_order(&planned.tree, &mut nodes);
            let sides: Vec<_> =
                planned.joins.iter().map(|j| (j.left.clone(), j.right.clone())).collect();
            assert_eq!(sides, nodes);
            for (left, right) in &nodes {
                assert!(left.len() >= right.len(), "{left:?} ⋈ {right:?}");
            }
            assert_eq!(planned.tree.is_left_deep(), nodes.iter().all(|(_, r)| r.len() == 1));
        }
    }

    /// With telemetry on, reading the plan off the tables opens one
    /// `final_cost.join.<mask>` span per join under `cascades.final_cost`,
    /// in join order, `<mask>` the join's output set over the sorted
    /// relations: the spans EXPLAIN ANALYZE attributes time by.
    #[test]
    fn final_cost_opens_one_span_per_join_keyed_by_its_relation_set() {
        use crate::coster::relation_set_mask;
        let model = SimOracleCost::hive();
        for (catalog, graph) in &assembled_shapes() {
            let q = QuerySpec::new("q", catalog.table_ids().collect());
            let tel = Telemetry::enabled();
            let out = CascadesPlanner::plan_traced(
                catalog,
                graph,
                &q,
                &mut fixed(&model),
                &tel,
                &CascadesConfig::default(),
                None,
            )
            .unwrap();
            let spans = tel.spans();
            let final_id = spans
                .iter()
                .find(|s| s.name == "cascades.final_cost")
                .expect("a traced run opens the final-cost span")
                .id;
            let got: Vec<&str> = spans
                .iter()
                .filter(|s| s.parent == Some(final_id))
                .map(|s| s.name.as_str())
                .collect();
            let mut rels = q.relations.clone();
            rels.sort_unstable();
            let want: Vec<String> = out
                .planned
                .joins
                .iter()
                .map(|j| {
                    let set = [j.left.as_slice(), &j.right].concat();
                    format!("final_cost.join.{}", relation_set_mask(&rels, &set).unwrap())
                })
                .collect();
            assert_eq!(got, want);
            let joins = spans.iter().filter(|s| s.name.starts_with("final_cost.join.")).count();
            assert_eq!(joins, out.planned.joins.len(), "no join span outside the final cost");
        }
    }

    /// Tracing records the search; it does not steer it. Telemetry on or
    /// off, the same plan to the bit after the same amount of work.
    #[test]
    fn tracing_leaves_plan_and_search_unchanged() {
        let model = SimOracleCost::hive();
        for (catalog, graph) in &assembled_shapes() {
            let q = QuerySpec::new("q", catalog.table_ids().collect());
            let config = CascadesConfig::default();
            let plain =
                CascadesPlanner::plan(catalog, graph, &q, &mut fixed(&model), &config).unwrap();
            let tel = Telemetry::enabled();
            let traced = CascadesPlanner::plan_traced(
                catalog,
                graph,
                &q,
                &mut fixed(&model),
                &tel,
                &config,
                None,
            )
            .unwrap();
            assert_eq!(traced, plain);
            assert_eq!(traced.planned.cost.to_bits(), plain.planned.cost.to_bits());
            let snap = tel.snapshot().expect("enabled");
            assert_eq!(snap.get(Counter::CascadesGroups), plain.groups as u64);
            assert_eq!(snap.get(Counter::CascadesExpressions), plain.expressions as u64);
            assert_eq!(snap.get(Counter::CascadesTasks), plain.tasks);
        }
    }
}
