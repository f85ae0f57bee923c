//! The System-R (Selinger) bottom-up join-ordering optimizer.
//!
//! §VII-A: "For System R style optimization, we implemented the Selinger
//! algorithm for left deep trees". Classic dynamic programming over
//! relation subsets: the best plan for a set S is the best plan for S∖{t}
//! extended by joining table t, minimized over t. Cross products are
//! avoided when the query graph allows (the standard Selinger heuristic);
//! if no cross-product-free left-deep plan exists the search is rerun with
//! cross products admitted.
//!
//! Subsets are u64 bitmasks indexing two dense tables of 2ⁿ slots — the
//! best plan per subset, and its size ([`SubsetSizes`], the one the bushy
//! DP reads too) — so the DP stops at [`MAX_RELATIONS`] = 20 relations
//! (16 MiB per table); above it [`SelingerError::TooManyRelations`] tells
//! callers to bridge with the iterative-DP planner
//! ([`crate::idp::IdpPlanner`]) or fall back to the randomized planner.
//!
//! The table is filled level by level, by subset size: a subset only reads
//! subsets one relation smaller, so the candidate extensions of a level are
//! independent. They are costed `BATCH_CANDIDATES` at a time through
//! [`PlanCoster::join_cost_many`] (which costers may fan out over
//! [`Parallelism`] worker threads) and folded into the table in generation
//! order — masks ascending, item ascending — with keep-first tie-breaks.

use crate::cardinality::{bits, CardinalityEstimator, JoinIo, SubsetSizes};
use crate::coster::{cost_batch, cost_tree, PlanCoster, PlannedQuery, BATCH_CANDIDATES};
use crate::plan::PlanTree;
use raqo_catalog::{Catalog, JoinGraph, QuerySpec, TableId};
use raqo_resource::Parallelism;
use raqo_telemetry::{Counter, Telemetry};
use std::fmt;

/// The DP's relation bound: the dense tables hold 2ⁿ slots each. Far beyond
/// anything the paper runs through Selinger (TPC-H "All" is 8); larger
/// queries go through the IDP bridge ([`crate::idp::IdpPlanner`]), whose
/// blocks are clamped to it.
pub const MAX_RELATIONS: usize = 20;

/// Why Selinger planning failed. `TooManyRelations` is recoverable —
/// callers (e.g. the RAQO optimizer) bridge with the IDP planner or fall
/// back to the randomized planner, neither of which has a relation bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelingerError {
    /// The query exceeds the exhaustive-DP bound `max` ([`MAX_RELATIONS`]).
    TooManyRelations { n: usize, max: usize },
    /// No complete plan exists: the query is empty, or every join order
    /// contains a join the coster rejects.
    Infeasible,
}

impl fmt::Display for SelingerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelingerError::TooManyRelations { n, max } => write!(
                f,
                "Selinger DP supports up to {max} relations, query has {n}"
            ),
            SelingerError::Infeasible => {
                write!(f, "every complete plan has an infeasible join")
            }
        }
    }
}

impl std::error::Error for SelingerError {}

/// One DP unit: a (sub-)plan tree and the base relations it covers. For a
/// plain query every item is a single-leaf tree; the IDP bridge feeds
/// compound items (already-merged subtrees) through the same DP, which is
/// what lets every sub-plan cost keep flowing through `getPlanCost`'s
/// embedded resource planning unchanged.
#[derive(Debug, Clone)]
pub struct DpItem {
    pub tree: PlanTree,
    /// Base relations of `tree`, in tree-leaf order.
    pub rels: Vec<TableId>,
}

impl DpItem {
    pub fn leaf(t: TableId) -> Self {
        DpItem { tree: PlanTree::leaf(t), rels: vec![t] }
    }
}

/// Best plan for one subset: scalar cost plus the local index of the
/// last-joined item, for order reconstruction; [`Entry::EMPTY`] until a
/// plan is found. 16 bytes, like the subset's size beside it.
#[derive(Clone, Copy)]
struct Entry {
    cost: f64,
    last: u8,
}

impl Entry {
    const EMPTY: Entry = Entry { cost: f64::NAN, last: u8::MAX };

    fn is_filled(self) -> bool {
        self.last != Entry::EMPTY.last
    }
}

/// The Selinger planner.
pub struct SelingerPlanner;

impl SelingerPlanner {
    /// Find the cheapest left-deep join order for `query`, costing every
    /// candidate sub-plan through `coster` (which is where RAQO's resource
    /// planning hooks in). No thread parallelism or telemetry.
    pub fn plan(
        catalog: &Catalog,
        graph: &JoinGraph,
        query: &QuerySpec,
        coster: &mut dyn PlanCoster,
    ) -> Result<PlannedQuery, SelingerError> {
        let tel = Telemetry::disabled();
        Self::plan_traced(catalog, graph, query, coster, Parallelism::Off, &tel)
    }

    /// [`SelingerPlanner::plan`] with every lever: `parallelism` is handed
    /// to [`PlanCoster::join_cost_many`] with each batch, and `tel` records
    /// a span around the fill, one per level and one around the final
    /// re-cost, and counts the levels. The plan is the same under every
    /// setting as long as the coster is deterministic in the join's IO
    /// characteristics.
    pub fn plan_traced(
        catalog: &Catalog,
        graph: &JoinGraph,
        query: &QuerySpec,
        coster: &mut dyn PlanCoster,
        parallelism: Parallelism,
        tel: &Telemetry,
    ) -> Result<PlannedQuery, SelingerError> {
        let rels = &query.relations;
        let n = rels.len();
        if n > MAX_RELATIONS {
            return Err(SelingerError::TooManyRelations { n, max: MAX_RELATIONS });
        }
        if n == 0 {
            return Err(SelingerError::Infeasible);
        }
        let est = CardinalityEstimator::new(catalog, graph);
        let items: Vec<DpItem> = rels.iter().copied().map(DpItem::leaf).collect();
        Self::plan_items(&items, &est, coster, parallelism, tel)
            .ok_or(SelingerError::Infeasible)
    }

    /// Run the DP over arbitrary items (leaves for a plain query, compound
    /// subtrees inside an IDP round). First pass avoids cross products;
    /// falls back to admitting them if no cross-product-free plan exists.
    pub(crate) fn plan_items(
        items: &[DpItem],
        est: &CardinalityEstimator<'_>,
        coster: &mut dyn PlanCoster,
        parallelism: Parallelism,
        tel: &Telemetry,
    ) -> Option<PlannedQuery> {
        let n = items.len();
        // The dense table and the `1u64 << i` masks need this bound.
        assert!(
            (1..=MAX_RELATIONS).contains(&n),
            "plan_items requires 1..={MAX_RELATIONS} items, got {n}"
        );
        if n == 1 {
            return cost_tree(&items[0].tree, est, coster, tel);
        }
        let view = est.local_view(items.iter().map(|item| item.rels.as_slice()));
        let adjacency = view.adjacency();
        // Both passes size the same subsets: one table serves them.
        let mut sizes = SubsetSizes::new(view);
        [false, true].into_iter().find_map(|allow_cross| {
            let order = {
                let _dp_span = tel.span("selinger.dp");
                // Cross products admitted: every item joins every subset.
                let adj = if allow_cross { vec![u64::MAX; n] } else { adjacency.clone() };
                Dp::new(items, &mut sizes, adj, coster, parallelism, tel).solve()?
            };
            // Re-cost the final tree so the returned decisions are exactly
            // the winning plan's (the DP only kept scalar costs). For
            // single-leaf items this fold builds precisely
            // `PlanTree::left_deep`.
            let _final_span = tel.span("selinger.final_cost");
            let mut tree = items[order[0]].tree.clone();
            for &i in &order[1..] {
                tree = PlanTree::join(tree, items[i].tree.clone());
            }
            cost_tree(&tree, est, coster, tel)
        })
    }
}

/// One DP run over `items`: the level fill, and under it the candidate
/// generator — which (subset `rest`, item `i`) extensions are admissible,
/// and what each one's [`JoinIo`] and cost is. Two things make a
/// candidate cheap:
///
/// * one **adjacency mask** per item, so "does `rest` join item `i`" is
///   `adj[i] & rest != 0`, tested before anything is materialized;
/// * the run's [`SubsetSizes`]: `rest`, item `i` and `rest | i` are each
///   sized once per run, however many candidates read them, so a candidate
///   is three table reads. Its sides are the ascending folds of `rest` and
///   of the item, and its output the ascending fold of `rest | i` — the
///   bushy DP's sizes, bit for bit.
struct Dp<'a> {
    items: &'a [DpItem],
    sizes: &'a mut SubsetSizes,
    coster: &'a mut dyn PlanCoster,
    parallelism: Parallelism,
    tel: &'a Telemetry,
    /// `adj[i]` has bit j set when a join edge links a relation of item i
    /// to a relation of item j; all ones when cross products are admitted.
    adj: Vec<u64>,
    /// The table, indexed by subset mask.
    dp: Vec<Entry>,
}

impl<'a> Dp<'a> {
    fn new(
        items: &'a [DpItem],
        sizes: &'a mut SubsetSizes,
        adj: Vec<u64>,
        coster: &'a mut dyn PlanCoster,
        parallelism: Parallelism,
        tel: &'a Telemetry,
    ) -> Self {
        let n = items.len();
        let mut dp = vec![Entry::EMPTY; 1 << n];
        for i in 0..n {
            dp[1 << i] = Entry { cost: 0.0, last: i as u8 };
        }
        Dp { items, sizes, coster, parallelism, tel, adj, dp }
    }

    /// Cost `cands` and fold them into the table in order, keeping the
    /// first of equally cheap plans. Leaves `cands` empty.
    fn flush(&mut self, cands: &mut Vec<(u64, usize)>) {
        let ios: Vec<JoinIo> =
            cands.iter().map(|&(rest, i)| self.sizes.join_io(rest, 1 << i)).collect();
        let results = cost_batch(&mut *self.coster, &ios, self.parallelism);
        for (&(rest, i), decision) in cands.iter().zip(results) {
            let Some(decision) = decision else { continue };
            let cost = self.dp[rest as usize].cost + decision.cost;
            let slot = &mut self.dp[(rest | 1u64 << i) as usize];
            if !(slot.is_filled() && slot.cost <= cost) {
                *slot = Entry { cost, last: i as u8 };
            }
        }
        cands.clear();
    }

    /// Fill the table level by level — masks of k bits in increasing order
    /// (Gosper's hack), `i` ascending within a mask — and reconstruct the
    /// winning join order by peeling `last` back-pointers off the full mask.
    fn solve(mut self) -> Option<Vec<usize>> {
        let n = self.items.len();
        let limit: u64 = 1u64 << n;
        let tel = self.tel;
        let mut cands: Vec<(u64, usize)> = Vec::new();
        for k in 2..=n as u32 {
            let _level_span = tel.span_labeled("selinger.level", k as usize);
            tel.inc(Counter::SelingerLevels);
            let mut mask: u64 = (1u64 << k) - 1;
            while mask < limit {
                for i in bits(mask) {
                    let rest = mask & !(1u64 << i);
                    if self.dp[rest as usize].is_filled() && self.adj[i] & rest != 0 {
                        cands.push((rest, i));
                        // The level's subsets never read each other, so a
                        // batch may end anywhere in it.
                        if cands.len() == BATCH_CANDIDATES {
                            self.flush(&mut cands);
                        }
                    }
                }
                // Gosper's hack: next mask with the same popcount; n ≤ 20
                // keeps every intermediate far below the u64 width.
                let c = mask & mask.wrapping_neg();
                let r = mask + c;
                mask = (((r ^ mask) >> 2) / c) | r;
            }
            self.flush(&mut cands);
        }

        let mut mask = limit - 1;
        if !self.dp[mask as usize].is_filled() {
            return None;
        }
        let mut order_rev = Vec::with_capacity(n);
        while mask.count_ones() > 1 {
            // Every entry's predecessor (`mask` minus its `last` bit) was
            // filled a level before the entry could be.
            let last = self.dp[mask as usize].last as usize;
            order_rev.push(last);
            mask &= !(1u64 << last);
        }
        order_rev.push(mask.trailing_zeros() as usize);
        order_rev.reverse();
        Some(order_rev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coster::{FixedResourceCoster, JoinDecision};
    use crate::oracle::left_deep;
    use raqo_catalog::tpch::{table, TpchSchema};
    use raqo_catalog::{RandomSchema, RandomSchemaConfig};
    use raqo_cost::SimOracleCost;

    fn plan_par(
        schema: &TpchSchema,
        query: &QuerySpec,
        coster: &mut dyn PlanCoster,
        parallelism: Parallelism,
    ) -> Result<PlannedQuery, SelingerError> {
        let tel = Telemetry::disabled();
        let (catalog, graph) = (&schema.catalog, &schema.graph);
        SelingerPlanner::plan_traced(catalog, graph, query, coster, parallelism, &tel)
    }

    /// Exhaustive left-deep search (no cross-product pruning) for
    /// cross-checking DP optimality on small queries.
    fn exhaustive_best(
        schema: &TpchSchema,
        query: &QuerySpec,
        model: &SimOracleCost,
        nc: f64,
        cs: f64,
    ) -> Option<f64> {
        fn permutations(items: &[TableId]) -> Vec<Vec<TableId>> {
            if items.len() <= 1 {
                return vec![items.to_vec()];
            }
            let mut out = Vec::new();
            for (i, &head) in items.iter().enumerate() {
                let mut rest = items.to_vec();
                rest.remove(i);
                for mut tail in permutations(&rest) {
                    tail.insert(0, head);
                    out.push(tail);
                }
            }
            out
        }
        let est = CardinalityEstimator::new(&schema.catalog, &schema.graph);
        let mut best: Option<f64> = None;
        for perm in permutations(&query.relations) {
            let mut coster = FixedResourceCoster::new(model, nc, cs);
            let tree = PlanTree::left_deep(&perm);
            if let Some(p) = cost_tree(&tree, &est, &mut coster, &Telemetry::disabled()) {
                best = Some(best.map_or(p.cost, |b: f64| b.min(p.cost)));
            }
        }
        best
    }

    #[test]
    fn matches_exhaustive_search_on_q3() {
        let schema = TpchSchema::new(1.0);
        let model = SimOracleCost::hive();
        let query = QuerySpec::tpch_q3();
        let mut coster = FixedResourceCoster::new(&model, 10.0, 4.0);
        let dp = SelingerPlanner::plan(&schema.catalog, &schema.graph, &query, &mut coster)
            .expect("plan exists");
        let brute = exhaustive_best(&schema, &query, &model, 10.0, 4.0).unwrap();
        assert!(
            (dp.cost - brute).abs() < 1e-6,
            "dp={} brute={brute}",
            dp.cost
        );
    }

    #[test]
    fn matches_exhaustive_search_on_q2() {
        let schema = TpchSchema::new(1.0);
        let model = SimOracleCost::hive();
        let query = QuerySpec::tpch_q2();
        let mut coster = FixedResourceCoster::new(&model, 20.0, 6.0);
        let dp = SelingerPlanner::plan(&schema.catalog, &schema.graph, &query, &mut coster)
            .expect("plan exists");
        let brute = exhaustive_best(&schema, &query, &model, 20.0, 6.0).unwrap();
        assert!((dp.cost - brute).abs() < 1e-6, "dp={} brute={brute}", dp.cost);
    }

    #[test]
    fn plans_all_eight_tpch_tables() {
        let schema = TpchSchema::new(1.0);
        let model = SimOracleCost::hive();
        let query = QuerySpec::tpch_all(&schema);
        let mut coster = FixedResourceCoster::new(&model, 10.0, 6.0);
        let planned =
            SelingerPlanner::plan(&schema.catalog, &schema.graph, &query, &mut coster)
                .expect("plan exists");
        assert_eq!(planned.joins.len(), 7);
        assert!(planned.tree.is_left_deep());
        assert!(crate::plan::covers_exactly(&planned.tree, &query.relations));
        // The coster was consulted for many candidate sub-plans, far more
        // than the 7 joins of the final plan.
        assert!(coster.calls > 100, "only {} calls", coster.calls);
    }

    #[test]
    fn single_relation_query() {
        let schema = TpchSchema::new(1.0);
        let model = SimOracleCost::hive();
        let query = QuerySpec::new("single", vec![table::ORDERS]);
        let mut coster = FixedResourceCoster::new(&model, 10.0, 4.0);
        let planned =
            SelingerPlanner::plan(&schema.catalog, &schema.graph, &query, &mut coster).unwrap();
        assert_eq!(planned.cost, 0.0);
    }

    #[test]
    fn respects_infeasible_joins() {
        // A coster that rejects every join forces `Infeasible`.
        struct Never;
        impl PlanCoster for Never {
            fn join_cost(&mut self, _io: &JoinIo) -> Option<JoinDecision> {
                None
            }
        }
        let schema = TpchSchema::new(1.0);
        let query = QuerySpec::tpch_q3();
        assert_eq!(
            SelingerPlanner::plan(&schema.catalog, &schema.graph, &query, &mut Never),
            Err(SelingerError::Infeasible)
        );
    }

    #[test]
    fn too_many_relations_is_a_typed_error() {
        let schema = TpchSchema::new(1.0);
        let model = SimOracleCost::hive();
        let rels: Vec<TableId> = (0..(MAX_RELATIONS as u32 + 1)).map(TableId).collect();
        let query = QuerySpec::new("huge", rels);
        let mut coster = FixedResourceCoster::new(&model, 10.0, 4.0);
        let err = SelingerPlanner::plan(&schema.catalog, &schema.graph, &query, &mut coster)
            .unwrap_err();
        assert_eq!(
            err,
            SelingerError::TooManyRelations { n: MAX_RELATIONS + 1, max: MAX_RELATIONS }
        );
        // The error explains itself (it is surfaced to CLI users).
        assert!(err.to_string().contains("21"));
        assert!(err.to_string().contains("20"));
    }

    #[test]
    fn falls_back_to_cross_products_when_required() {
        // Two tables with no join edge: only a cross-product plan exists.
        let mut catalog = Catalog::new();
        let a = catalog.add_stats_only("a", raqo_catalog::TableStats::new(1000.0, 100.0));
        let b = catalog.add_stats_only("b", raqo_catalog::TableStats::new(1000.0, 100.0));
        let graph = JoinGraph::new();
        let model = SimOracleCost::hive();
        let mut coster = FixedResourceCoster::new(&model, 10.0, 4.0);
        let query = QuerySpec::new("cross", vec![a, b]);
        let planned =
            SelingerPlanner::plan(&catalog, &graph, &query, &mut coster).expect("cross plan");
        assert_eq!(planned.joins.len(), 1);
    }

    #[test]
    fn prefers_cheap_join_orders() {
        // On Q3 the optimizer should join customer with orders first
        // (small intermediates) rather than starting from lineitem ⋈
        // customer (a cross product).
        let schema = TpchSchema::new(1.0);
        let model = SimOracleCost::hive();
        let query = QuerySpec::tpch_q3();
        let mut coster = FixedResourceCoster::new(&model, 10.0, 4.0);
        let planned =
            SelingerPlanner::plan(&schema.catalog, &schema.graph, &query, &mut coster).unwrap();
        for j in &planned.joins {
            // No join in the winning plan is a cross product.
            assert!(schema.graph.connects(&j.left, &j.right));
        }
    }

    #[test]
    fn works_on_random_schemas() {
        let schema = RandomSchemaConfig::with_tables(12, 77).generate();
        let model = SimOracleCost::hive();
        for k in [2, 5, 8] {
            let query =
                QuerySpec::random_connected(&schema.catalog, &schema.graph, k, k as u64);
            let mut coster = FixedResourceCoster::new(&model, 10.0, 6.0);
            let planned =
                SelingerPlanner::plan(&schema.catalog, &schema.graph, &query, &mut coster)
                    .unwrap_or_else(|e| panic!("no plan for k={k}: {e}"));
            assert_eq!(planned.joins.len(), k - 1);
        }
    }

    /// Costs are deterministic, so planning twice gives identical results.
    #[test]
    fn deterministic() {
        let schema = TpchSchema::new(1.0);
        let model = SimOracleCost::hive();
        let query = QuerySpec::tpch_all(&schema);
        let mut c1 = FixedResourceCoster::new(&model, 10.0, 6.0);
        let mut c2 = FixedResourceCoster::new(&model, 10.0, 6.0);
        let p1 = SelingerPlanner::plan(&schema.catalog, &schema.graph, &query, &mut c1).unwrap();
        let p2 = SelingerPlanner::plan(&schema.catalog, &schema.graph, &query, &mut c2).unwrap();
        assert_eq!(p1.cost, p2.cost);
        assert_eq!(p1.tree, p2.tree);
    }

    /// The level fill produces bit-identical plans to the one-candidate-at-
    /// a-time oracle for every `Parallelism` mode, costing the same
    /// candidates.
    #[test]
    fn parallel_levels_match_sequential_for_every_mode() {
        let schema = TpchSchema::new(1.0);
        let model = SimOracleCost::hive();
        let est = CardinalityEstimator::new(&schema.catalog, &schema.graph);
        for query in [QuerySpec::tpch_q3(), QuerySpec::tpch_all(&schema)] {
            let mut seq_coster = FixedResourceCoster::new(&model, 10.0, 6.0);
            let seq = left_deep(&query.relations, &schema.graph, &est, &mut seq_coster).unwrap();
            for par in [
                Parallelism::Off,
                Parallelism::Threads(2),
                Parallelism::Threads(5),
                Parallelism::Auto,
            ] {
                let mut coster = FixedResourceCoster::new(&model, 10.0, 6.0);
                let got = plan_par(&schema, &query, &mut coster, par).unwrap();
                assert_eq!(seq.tree, got.tree, "{par:?}");
                assert_eq!(seq.cost.to_bits(), got.cost.to_bits(), "{par:?}");
                assert_eq!(seq.joins, got.joins, "{par:?}");
                // Same candidates costed: the batch seam must not skip or
                // duplicate work.
                assert_eq!(seq_coster.calls, coster.calls, "{par:?}");
            }
        }
    }

    /// A level of a 14-relation clique holds up to C(14, 7)·7 = 24 024
    /// candidates; the coster never sees more than [`BATCH_CANDIDATES`] of
    /// them at once, and the plan is the oracle's.
    #[test]
    fn level_batches_never_exceed_batch_candidates() {
        struct Widest<'a> {
            inner: FixedResourceCoster<'a, SimOracleCost>,
            widest: usize,
        }
        impl PlanCoster for Widest<'_> {
            fn join_cost(&mut self, io: &JoinIo) -> Option<JoinDecision> {
                self.inner.join_cost(io)
            }
            fn join_cost_many(
                &mut self,
                ios: &[JoinIo],
                _parallelism: Parallelism,
            ) -> Vec<Option<JoinDecision>> {
                self.widest = self.widest.max(ios.len());
                ios.iter().map(|io| self.inner.join_cost(io)).collect()
            }
        }
        let schema = RandomSchema::clique(14, 14);
        let query = QuerySpec::new("clique14", schema.catalog.table_ids().collect());
        let model = SimOracleCost::hive();
        let mut coster = Widest { inner: FixedResourceCoster::new(&model, 10.0, 6.0), widest: 0 };
        let got =
            SelingerPlanner::plan(&schema.catalog, &schema.graph, &query, &mut coster).unwrap();
        assert_eq!(coster.widest, BATCH_CANDIDATES);

        let est = CardinalityEstimator::new(&schema.catalog, &schema.graph);
        let mut oracle_coster = FixedResourceCoster::new(&model, 10.0, 6.0);
        let want = left_deep(&query.relations, &schema.graph, &est, &mut oracle_coster).unwrap();
        assert_eq!(want.tree, got.tree);
        assert_eq!(want.cost.to_bits(), got.cost.to_bits());
        assert_eq!(want.joins, got.joins);
        assert_eq!(oracle_coster.calls, coster.inner.calls);
    }

    /// A 20-relation run holds two 2²⁰-slot tables, plans and sizes, of 16
    /// bytes a slot: 32 MiB together.
    #[test]
    fn the_tables_of_a_run_at_the_bound_fit_in_32_mib() {
        let slot = std::mem::size_of::<Entry>() + std::mem::size_of::<(f64, f64)>();
        assert_eq!(slot << MAX_RELATIONS, 32 << 20);
    }
}
