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
//! Subsets are u64 bitmasks, so the DP's hard cap is [`MAX_RELATIONS`]
//! (= 64) relations; the *practical* bound is the configurable
//! `dp_threshold` ([`DEFAULT_DP_THRESHOLD`] = 20 by default), above which
//! [`SelingerError::TooManyRelations`] tells callers to bridge with the
//! iterative-DP planner ([`crate::idp::IdpPlanner`]) or fall back to the
//! randomized planner. Two fill strategies back the same DP:
//!
//! * **Dense** — the classic `Vec` table indexed by mask, used up to
//!   20 relations where 2²⁰ slots are cheap. Bit-for-bit the pre-widening
//!   behaviour.
//! * **Streamed** ([`DpFill::Streamed`]) — the table is stratified by
//!   subset size and only levels k−1 and k are materialized (sparse maps
//!   keyed by mask), so memory follows the number of *feasible* subsets
//!   per level (O(n²) for chains, C(n, k) worst case) instead of 2ⁿ slots.
//!   Candidates are folded in (mask ascending, table ascending) order —
//!   the dense loop's visit order — so winners and tie-breaks are
//!   identical.
//!
//! Two performance levers, both off by default and bit-identical to the
//! plain DP when engaged (see [`SelingerPlanner::plan_with`]):
//!
//! * **Parallel levels** — the DP is stratified by subset size, so all
//!   candidate extensions of one level are independent. With a
//!   [`Parallelism`] other than `Off` each level's uncached candidates are
//!   costed in one [`PlanCoster::join_cost_many`] batch (which costers may
//!   fan out over threads), then folded into the table in the exact order
//!   the sequential loop would have visited them — same keep-first
//!   tie-breaks, same winner.
//! * **Memoization** — a [`CostMemo`] caches (left-bitset, right-bitset,
//!   context) → decision across runs, so a Fig. 15(b) cluster sweep re-costs
//!   only joins it has never seen under the current cluster conditions.

use crate::cardinality::{CardinalityEstimator, JoinIo};
use crate::coster::{cost_tree, cost_tree_traced, JoinDecision, PlanCoster, PlannedQuery};
use crate::memo::{cost_tree_memo_traced, CostMemo};
use crate::plan::PlanTree;
use raqo_catalog::{Catalog, JoinGraph, QuerySpec, TableId};
use raqo_resource::Parallelism;
use raqo_telemetry::{Counter, Telemetry};
use std::collections::HashMap;
use std::fmt;

/// Hard cap of the bitset DP: u64 subset masks hold at most 64 relations.
/// Exhaustive DP anywhere near this is computationally infeasible — the cap
/// exists so mask arithmetic is well-defined for any threshold a caller
/// configures; the *practical* bound is [`DEFAULT_DP_THRESHOLD`].
pub const MAX_RELATIONS: usize = 64;

/// Default exhaustive-DP bound. 2^20 subsets is already far beyond anything
/// the paper runs through Selinger (TPC-H "All" is 8); queries above it
/// should go through the IDP bridge ([`crate::idp::IdpPlanner`]) rather
/// than exhaustive DP.
pub const DEFAULT_DP_THRESHOLD: usize = 20;

/// Largest relation count the dense (full 2ⁿ table) fill is used for under
/// [`DpFill::Auto`]; larger DPs stream levels instead. 2²⁰ `Option<Entry>`
/// slots ≈ 16 MB — the dense table stops being cheap right about here.
const DENSE_FILL_MAX: usize = 20;

/// log₂ of the most subset sizes a DP run keeps at once ([`Dp::rest_gb`]).
const SIZE_SLOT_BITS: usize = 12;

/// Why Selinger planning failed. `TooManyRelations` is recoverable —
/// callers (e.g. the RAQO optimizer) bridge with the IDP planner or fall
/// back to the randomized planner, neither of which has a relation bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelingerError {
    /// The query exceeds the configured exhaustive-DP bound (`max` is the
    /// live `dp_threshold`, not a compile-time constant).
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

/// Which fill strategy backs the DP table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum DpFill {
    /// Dense table up to 20 relations, streamed levels beyond.
    #[default]
    Auto,
    /// Force the dense 2ⁿ table (falls back to streaming above 20
    /// relations, where a dense table would not fit in memory).
    Dense,
    /// Force level streaming — mainly for parity testing against the
    /// dense fill on small queries.
    Streamed,
}

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

/// Best plan for one dense-DP subset: scalar cost plus the local index of
/// the last-joined item, for order reconstruction.
#[derive(Clone, Copy)]
struct Entry {
    cost: f64,
    last: usize,
}

/// Best plan for one streamed-DP subset. Streaming drops level k−2 before
/// level k+1 is built, so back-pointer reconstruction is impossible; each
/// entry carries its full join order instead (one byte per item — the
/// per-level maps hold only feasible subsets, so this stays far below the
/// dense table's 2ⁿ slots).
#[derive(Clone)]
struct StreamEntry {
    cost: f64,
    /// Local item indices in join order. `u8` is enough: indices are
    /// < [`MAX_RELATIONS`] = 64.
    order: Vec<u8>,
}

/// The Selinger planner.
pub struct SelingerPlanner;

impl SelingerPlanner {
    /// Find the cheapest left-deep join order for `query`, costing every
    /// candidate sub-plan through `coster` (which is where RAQO's resource
    /// planning hooks in). Sequential, unmemoized — equivalent to
    /// [`SelingerPlanner::plan_with`] under `Parallelism::Off` and no memo.
    pub fn plan(
        catalog: &Catalog,
        graph: &JoinGraph,
        query: &QuerySpec,
        coster: &mut dyn PlanCoster,
    ) -> Result<PlannedQuery, SelingerError> {
        Self::plan_with(catalog, graph, query, coster, Parallelism::Off, None)
    }

    /// [`SelingerPlanner::plan`] with the performance levers exposed.
    ///
    /// `parallelism` other than `Off` batches each DP level through
    /// [`PlanCoster::join_cost_many`]; a `memo` replays previously costed
    /// (left, right) sub-plans under the memo's current context. Both
    /// produce bit-identical plans to the sequential unmemoized run as long
    /// as the coster is deterministic in the join's IO characteristics.
    pub fn plan_with(
        catalog: &Catalog,
        graph: &JoinGraph,
        query: &QuerySpec,
        coster: &mut dyn PlanCoster,
        parallelism: Parallelism,
        memo: Option<&mut CostMemo>,
    ) -> Result<PlannedQuery, SelingerError> {
        Self::plan_traced(catalog, graph, query, coster, parallelism, memo, &Telemetry::disabled())
    }

    /// [`SelingerPlanner::plan_with`] with telemetry: the DP fill and the
    /// final re-cost are wrapped in spans (per-level spans in the batched
    /// fill), and filled levels are counted. With the disabled handle
    /// (what [`SelingerPlanner::plan_with`] passes) every telemetry site
    /// is a no-op.
    #[allow(clippy::too_many_arguments)]
    pub fn plan_traced(
        catalog: &Catalog,
        graph: &JoinGraph,
        query: &QuerySpec,
        coster: &mut dyn PlanCoster,
        parallelism: Parallelism,
        memo: Option<&mut CostMemo>,
        tel: &Telemetry,
    ) -> Result<PlannedQuery, SelingerError> {
        Self::plan_opts(
            catalog,
            graph,
            query,
            coster,
            parallelism,
            memo,
            tel,
            DEFAULT_DP_THRESHOLD,
            DpFill::Auto,
        )
    }

    /// Fully parameterized planning: `dp_threshold` is the live relation
    /// bound (clamped to [`MAX_RELATIONS`]) reported in
    /// [`SelingerError::TooManyRelations`]; `fill` picks the DP fill
    /// strategy (see [`DpFill`]).
    #[allow(clippy::too_many_arguments)]
    pub fn plan_opts(
        catalog: &Catalog,
        graph: &JoinGraph,
        query: &QuerySpec,
        coster: &mut dyn PlanCoster,
        parallelism: Parallelism,
        mut memo: Option<&mut CostMemo>,
        tel: &Telemetry,
        dp_threshold: usize,
        fill: DpFill,
    ) -> Result<PlannedQuery, SelingerError> {
        let rels = &query.relations;
        let n = rels.len();
        let max = dp_threshold.clamp(1, MAX_RELATIONS);
        if n > max {
            return Err(SelingerError::TooManyRelations { n, max });
        }
        if n == 0 {
            return Err(SelingerError::Infeasible);
        }
        if let Some(m) = memo.as_deref_mut() {
            m.ensure_relations(rels);
        }
        let est = CardinalityEstimator::new(catalog, graph);
        if n == 1 {
            return cost_tree(&PlanTree::leaf(rels[0]), &est, coster)
                .ok_or(SelingerError::Infeasible);
        }

        let items: Vec<DpItem> = rels.iter().copied().map(DpItem::leaf).collect();
        Self::plan_items(&items, graph, &est, coster, parallelism, memo, tel, fill)
            .ok_or(SelingerError::Infeasible)
    }

    /// Run the DP over arbitrary items (leaves for a plain query, compound
    /// subtrees inside an IDP round). First pass avoids cross products;
    /// falls back to admitting them if no cross-product-free plan exists.
    #[allow(clippy::too_many_arguments)]
    pub fn plan_items(
        items: &[DpItem],
        graph: &JoinGraph,
        est: &CardinalityEstimator<'_>,
        coster: &mut dyn PlanCoster,
        parallelism: Parallelism,
        mut memo: Option<&mut CostMemo>,
        tel: &Telemetry,
        fill: DpFill,
    ) -> Option<PlannedQuery> {
        let n = items.len();
        assert!(
            (1..=MAX_RELATIONS).contains(&n),
            "plan_items requires 1..={MAX_RELATIONS} items, got {n}"
        );
        if n == 1 {
            return match memo {
                Some(m) => cost_tree_memo_traced(&items[0].tree, est, coster, m, tel),
                None => cost_tree_traced(&items[0].tree, est, coster, tel),
            };
        }
        Self::plan_inner(
            items,
            graph,
            est,
            coster,
            false,
            parallelism,
            memo.as_deref_mut(),
            tel,
            fill,
        )
        .or_else(|| {
            Self::plan_inner(items, graph, est, coster, true, parallelism, memo, tel, fill)
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn plan_inner(
        items: &[DpItem],
        graph: &JoinGraph,
        est: &CardinalityEstimator<'_>,
        coster: &mut dyn PlanCoster,
        allow_cross: bool,
        parallelism: Parallelism,
        mut memo: Option<&mut CostMemo>,
        tel: &Telemetry,
        fill: DpFill,
    ) -> Option<PlannedQuery> {
        let n = items.len();
        // `plan_opts` enforces the dp_threshold (≤ MAX_RELATIONS = 64)
        // bound, so `1u64 << i` for any item index i < n cannot overflow
        // the u64 masks; keep the invariant checked here because the shift
        // silently wraps (release) or panics (debug) if it is ever
        // violated.
        debug_assert!(
            (1..=MAX_RELATIONS).contains(&n),
            "plan_inner requires 1..={MAX_RELATIONS} items, got {n}"
        );
        // The dense table allocates 2ⁿ slots, so it is only used while that
        // is cheap; larger DPs always stream, whatever `fill` says.
        let dense = n <= DENSE_FILL_MAX && fill != DpFill::Streamed;

        let order: Vec<usize> = {
            let _dp_span = tel.span("selinger.dp");
            let memo = memo.as_deref_mut();
            let mut dp = Dp::new(items, graph, est, coster, allow_cross, parallelism, memo, tel);
            if dense {
                dp.solve_dense()?
            } else {
                dp.solve_streamed()?
            }
        };

        // Re-cost the final tree so the returned decisions are exactly the
        // winning plan's (the DP only kept scalar costs). For single-leaf
        // items this fold builds precisely `PlanTree::left_deep`.
        let _final_span = tel.span("selinger.final_cost");
        let mut tree = items[order[0]].tree.clone();
        for &i in &order[1..] {
            tree = PlanTree::join(tree, items[i].tree.clone());
        }
        match memo {
            Some(m) => cost_tree_memo_traced(&tree, est, coster, m, tel),
            None => cost_tree_traced(&tree, est, coster, tel),
        }
    }
}

/// Indices of the set bits of `mask`, ascending.
pub(crate) fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

/// One adjacency mask per item (an item is the relation slice the iterator
/// yields): bit j of `adj[i]` is set when a join edge links a relation of
/// item i to a relation of item j. `tables` is the catalog's table count.
pub(crate) fn adjacency_masks<'a>(
    items: impl ExactSizeIterator<Item = &'a [TableId]>,
    tables: usize,
    graph: &JoinGraph,
) -> Vec<u64> {
    let n = items.len();
    // Items owning each table, as a mask (one item, unless a query lists a
    // relation twice).
    let mut owners = vec![0u64; tables];
    for (i, rels) in items.enumerate() {
        for t in rels {
            owners[t.index()] |= 1u64 << i;
        }
    }
    let mut adj = vec![0u64; n];
    for e in graph.edges() {
        let (a, b) = (owners[e.a.index()], owners[e.b.index()]);
        bits(a).for_each(|i| adj[i] |= b);
        bits(b).for_each(|i| adj[i] |= a);
    }
    adj
}

/// What [`Dp::probe`] found for one candidate.
enum Probe {
    /// The memo holds the pair: its join cost, `None` = infeasible.
    Known(Option<f64>),
    /// Not memoized (or no memo): the join's IO, to cost and then
    /// [`Dp::record`].
    Unknown(JoinIo),
}

/// One DP run over `items`: the three fills, and under them the one
/// candidate generator they share — which (subset `rest`, item `i`)
/// extensions are admissible, and what each one's [`JoinIo`] and cost is.
/// Three things make a candidate cheap:
///
/// * one **adjacency mask** per item, so "does `rest` join item `i`" is
///   `adj[i] & rest != 0`, tested before anything is materialized;
/// * the **size of every subset** used as a left side: `rest`'s relations
///   are always laid out in ascending item order, so `set_gb` of them is a
///   pure function of the mask, computed once and not once per partner;
/// * the **relation list** of the last subset asked for, rebuilt only when
///   the mask changes.
struct Dp<'a> {
    items: &'a [DpItem],
    est: &'a CardinalityEstimator<'a>,
    coster: &'a mut dyn PlanCoster,
    parallelism: Parallelism,
    memo: Option<&'a mut CostMemo>,
    tel: &'a Telemetry,
    /// `adj[i]` has bit j set when a join edge links a relation of item i
    /// to a relation of item j; all ones when cross products are admitted.
    adj: Vec<u64>,
    /// `set_gb(items[i].rels)`.
    item_gb: Vec<f64>,
    /// `(rest, set_gb of its relations)` in slot `rest mod len`, allocated
    /// once per run so a fill neither hashes nor grows anything. Subsets of
    /// up to [`SIZE_SLOT_BITS`] items map one to one; wider ones share slots
    /// and a miss recomputes, which costs time and never bits.
    rest_gb: Vec<(u64, f64)>,
    /// Relations of the subset `loaded`, items ascending.
    tables: Vec<TableId>,
    loaded: u64,
}

impl<'a> Dp<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        items: &'a [DpItem],
        graph: &JoinGraph,
        est: &'a CardinalityEstimator<'a>,
        coster: &'a mut dyn PlanCoster,
        allow_cross: bool,
        parallelism: Parallelism,
        memo: Option<&'a mut CostMemo>,
        tel: &'a Telemetry,
    ) -> Self {
        let n = items.len();
        let adj = if allow_cross {
            vec![u64::MAX; n]
        } else {
            adjacency_masks(items.iter().map(|item| item.rels.as_slice()), est.catalog.len(), graph)
        };
        let item_gb = items.iter().map(|item| est.set_gb(&item.rels)).collect();
        Dp {
            items,
            est,
            coster,
            parallelism,
            memo,
            tel,
            adj,
            item_gb,
            rest_gb: vec![(0, 0.0); 1 << n.min(SIZE_SLOT_BITS)],
            tables: Vec::with_capacity(n),
            loaded: 0,
        }
    }

    /// May item `i` extend subset `rest` — is the join edge-connected, or
    /// are cross products admitted?
    #[inline]
    fn admits(&self, rest: u64, i: usize) -> bool {
        self.adj[i] & rest != 0
    }

    /// Make `self.tables` the relations of `rest`.
    fn load(&mut self, rest: u64) {
        if self.loaded != rest {
            self.tables.clear();
            for j in bits(rest) {
                self.tables.extend_from_slice(&self.items[j].rels);
            }
            self.loaded = rest;
        }
    }

    /// Look the candidate up in the memo, or work out its IO.
    fn probe(&mut self, rest: u64, i: usize) -> Probe {
        self.load(rest);
        let item = &self.items[i].rels;
        if let Some(outcome) = self.memo.as_deref_mut().and_then(|m| m.get(&self.tables, item)) {
            return Probe::Known(outcome.map(|(_, d)| d.cost));
        }
        let slot = rest as usize & (self.rest_gb.len() - 1);
        if self.rest_gb[slot].0 != rest {
            self.rest_gb[slot] = (rest, self.est.set_gb(&self.tables));
        }
        let rest_gb = self.rest_gb[slot].1;
        Probe::Unknown(self.est.join_io_sized(&self.tables, rest_gb, item, self.item_gb[i]))
    }

    fn record(&mut self, rest: u64, i: usize, io: JoinIo, outcome: Option<JoinDecision>) {
        if self.memo.is_some() {
            self.load(rest);
        }
        if let Some(m) = self.memo.as_deref_mut() {
            m.record(&self.tables, &self.items[i].rels, outcome.map(|d| (io, d)));
        }
    }

    /// Join cost of each of one level's candidates, in order (`None` =
    /// infeasible): memo hits are answered in place, everything else goes
    /// to the coster as one [`PlanCoster::join_cost_many`] batch.
    fn cost_level(&mut self, cands: &[(u64, usize)]) -> Vec<Option<f64>> {
        let mut costs: Vec<Option<f64>> = vec![None; cands.len()];
        let mut ios: Vec<JoinIo> = Vec::new();
        // Candidate index of each pending io, parallel to `ios`.
        let mut pending: Vec<usize> = Vec::new();
        for (idx, &(rest, i)) in cands.iter().enumerate() {
            match self.probe(rest, i) {
                Probe::Known(cost) => costs[idx] = cost,
                Probe::Unknown(io) => {
                    ios.push(io);
                    pending.push(idx);
                }
            }
        }
        if !ios.is_empty() {
            let results = self.coster.join_cost_many(&ios, self.parallelism);
            debug_assert_eq!(results.len(), ios.len());
            for ((outcome, &io), &idx) in results.into_iter().zip(&ios).zip(&pending) {
                let (rest, i) = cands[idx];
                self.record(rest, i, io, outcome);
                costs[idx] = outcome.map(|d| d.cost);
            }
        }
        costs
    }

    /// Dense-table DP: allocate all 2ⁿ slots, fill, and reconstruct the
    /// winning join order by peeling `last` back-pointers off the full
    /// mask. Only reached for n ≤ [`DENSE_FILL_MAX`].
    fn solve_dense(&mut self) -> Option<Vec<usize>> {
        let n = self.items.len();
        debug_assert!(
            (2..=DENSE_FILL_MAX).contains(&n),
            "dense fill requires 2..={DENSE_FILL_MAX} items (2ⁿ table slots), got {n}"
        );
        let full: u64 = (1u64 << n) - 1;

        let mut dp: Vec<Option<Entry>> = vec![None; (full as usize) + 1];
        for i in 0..n {
            dp[1usize << i] = Some(Entry { cost: 0.0, last: i });
        }

        // Batching pays when the coster can fan out over threads, or when
        // it asks for wide `join_cost_many` batches outright (a batched
        // cost kernel fuses a whole level's candidates even single-
        // threaded) — and a level holds more than a handful of candidates.
        if (self.parallelism != Parallelism::Off && self.parallelism.workers() > 1
            || self.coster.prefers_batch())
            && n >= 3
        {
            self.fill_levels_batched(&mut dp);
        } else {
            // The mask-ascending loop interleaves levels, so it gets
            // one span; it still fills the same n-1 levels.
            self.tel.add(Counter::SelingerLevels, n.saturating_sub(1) as u64);
            self.fill_sequential(&mut dp);
        }

        dp[full as usize]?;

        // Reconstruct the join order by peeling off `last` items.
        let mut order_rev = Vec::with_capacity(n);
        let mut mask = full;
        while mask.count_ones() > 1 {
            // Infallible: `dp[full]` was checked above, and every entry's
            // predecessor mask (`mask` minus its `last` bit) was filled
            // before the entry itself could be — the DP builds strictly
            // bottom-up over subset sizes.
            let e = dp[mask as usize].expect("reachable by construction");
            debug_assert!(e.last < n, "back-pointer {} out of mask width {n}", e.last);
            order_rev.push(e.last);
            mask &= !(1u64 << e.last);
        }
        order_rev.push(mask.trailing_zeros() as usize);
        order_rev.reverse();
        Some(order_rev)
    }

    /// The classic mask-ascending DP loop: every admissible (rest, i)
    /// extension is costed on the spot — from the memo when it holds the
    /// pair, through [`PlanCoster::join_cost`] otherwise.
    fn fill_sequential(&mut self, dp: &mut [Option<Entry>]) {
        let n = self.items.len();
        debug_assert!(n <= DENSE_FILL_MAX, "sequential fill is dense-only, got {n} items");
        let full: u64 = (1u64 << n) - 1;

        for mask in 1..=full {
            if mask.count_ones() < 2 {
                continue;
            }
            for i in bits(mask) {
                let rest = mask & !(1u64 << i);
                let Some(prev) = dp[rest as usize] else { continue };
                if !self.admits(rest, i) {
                    continue;
                }
                let decision = match self.probe(rest, i) {
                    Probe::Known(cost) => cost,
                    Probe::Unknown(io) => {
                        let outcome = self.coster.join_cost(&io);
                        self.record(rest, i, io, outcome);
                        outcome.map(|d| d.cost)
                    }
                };
                let Some(decision_cost) = decision else { continue };
                let cost = prev.cost + decision_cost;
                match dp[mask as usize] {
                    Some(e) if e.cost <= cost => {}
                    _ => dp[mask as usize] = Some(Entry { cost, last: i }),
                }
            }
        }
    }

    /// Level-synchronous DP fill: the table is stratified by subset size
    /// (dp[mask] only reads entries with one fewer bit), so every candidate
    /// extension of level k is independent. Uncached candidates are costed
    /// in one [`PlanCoster::join_cost_many`] batch per level, then folded
    /// into the table in generation order — masks ascending (Gosper's
    /// hack yields them in increasing numeric order), `i` ascending within
    /// a mask — which is the exact visit order of the sequential loop
    /// restricted to that level, so tie-breaking is identical.
    fn fill_levels_batched(&mut self, dp: &mut [Option<Entry>]) {
        let n = self.items.len();
        debug_assert!(n <= DENSE_FILL_MAX, "batched fill is dense-only, got {n} items");
        let limit: u64 = 1u64 << n;
        let tel = self.tel;

        for k in 2..=n as u32 {
            let _level_span = tel.span_labeled("selinger.level", k as usize);
            tel.inc(Counter::SelingerLevels);
            let mut cands: Vec<(u64, usize)> = Vec::new();
            let mut mask: u64 = (1u64 << k) - 1;
            while mask < limit {
                for i in bits(mask) {
                    let rest = mask & !(1u64 << i);
                    if dp[rest as usize].is_some() && self.admits(rest, i) {
                        cands.push((rest, i));
                    }
                }
                // Gosper's hack: next mask with the same popcount. Cannot
                // wrap: this fill is dense-only (n ≤ 20), so intermediate
                // values stay below 2²¹ — far under the u64 mask width.
                let c = mask & mask.wrapping_neg();
                let r = mask + c;
                mask = (((r ^ mask) >> 2) / c) | r;
            }

            let costs = self.cost_level(&cands);
            for (&(rest, i), decision) in cands.iter().zip(costs) {
                let Some(decision_cost) = decision else { continue };
                let prev = dp[rest as usize].expect("candidates extend filled subsets");
                let cost = prev.cost + decision_cost;
                let slot = &mut dp[(rest | 1u64 << i) as usize];
                match *slot {
                    Some(e) if e.cost <= cost => {}
                    _ => *slot = Some(Entry { cost, last: i }),
                }
            }
        }
    }

    /// Streamed DP fill: only levels k−1 and k are materialized, as sparse
    /// maps keyed by mask. Candidates are generated by extending each
    /// feasible level-(k−1) entry with each absent item (so work scales
    /// with feasible subsets, not 2ⁿ), then sorted into (mask ascending,
    /// item ascending) order — the dense loop's visit order — before the
    /// keep-first fold, so winners and tie-breaks are bit-identical to the
    /// dense fill. Each entry carries its full join order (streaming
    /// discards the back-pointer chain), which is also the return value.
    fn solve_streamed(&mut self) -> Option<Vec<usize>> {
        let n = self.items.len();
        // u64 masks: item indices must stay below the mask width or the
        // shifts below would wrap.
        debug_assert!(
            (2..=MAX_RELATIONS).contains(&n),
            "streamed fill requires 2..={MAX_RELATIONS} items, got {n}"
        );
        // n = 64 would overflow `(1u64 << n) - 1`; shift the all-ones mask
        // down instead.
        let full: u64 = u64::MAX >> (64 - n as u32);
        let tel = self.tel;

        let mut prev: HashMap<u64, StreamEntry> = (0..n)
            .map(|i| (1u64 << i, StreamEntry { cost: 0.0, order: vec![i as u8] }))
            .collect();

        for k in 2..=n {
            let _level_span = tel.span_labeled("selinger.level", k);
            tel.inc(Counter::SelingerLevels);

            // Generate (feasible-predecessor, absent-item) extensions. The
            // map iterates in arbitrary order; sorting restores the dense
            // loop's deterministic visit order.
            let mut cands: Vec<(u64, usize)> = Vec::new();
            for &rest in prev.keys() {
                cands.extend(
                    bits(full & !rest).filter(|&i| self.admits(rest, i)).map(|i| (rest, i)),
                );
            }
            cands.sort_unstable_by_key(|&(rest, i)| (rest | 1u64 << i, i));

            // Keep-first fold in sorted order — identical tie-breaks to the
            // dense loops.
            let costs = self.cost_level(&cands);
            let mut cur: HashMap<u64, StreamEntry> = HashMap::new();
            for (&(rest, i), decision) in cands.iter().zip(costs) {
                let Some(decision_cost) = decision else { continue };
                let pe = &prev[&rest];
                let cost = pe.cost + decision_cost;
                let mask = rest | 1u64 << i;
                match cur.get(&mask) {
                    Some(e) if e.cost <= cost => {}
                    _ => {
                        let mut order = pe.order.clone();
                        order.push(i as u8);
                        cur.insert(mask, StreamEntry { cost, order });
                    }
                }
            }
            // Level k−1 is dropped here: only the last two levels ever live.
            prev = cur;
        }

        let winner = prev.remove(&full)?;
        debug_assert_eq!(winner.order.len(), n);
        Some(winner.order.into_iter().map(usize::from).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cardinality::JoinIo;
    use crate::coster::{FixedResourceCoster, JoinDecision};
    use raqo_catalog::tpch::{table, TpchSchema};
    use raqo_catalog::RandomSchemaConfig;
    use raqo_cost::SimOracleCost;

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
            if let Some(p) = cost_tree(&tree, &est, &mut coster) {
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
        let rels: Vec<TableId> = (0..(DEFAULT_DP_THRESHOLD as u32 + 1)).map(TableId).collect();
        let query = QuerySpec::new("huge", rels);
        let mut coster = FixedResourceCoster::new(&model, 10.0, 4.0);
        let err = SelingerPlanner::plan(&schema.catalog, &schema.graph, &query, &mut coster)
            .unwrap_err();
        assert_eq!(
            err,
            SelingerError::TooManyRelations {
                n: DEFAULT_DP_THRESHOLD + 1,
                max: DEFAULT_DP_THRESHOLD
            }
        );
        // The error explains itself (it is surfaced to CLI users) and
        // reports the live threshold, not a stale compile-time bound.
        assert!(err.to_string().contains("21"));
        assert!(err.to_string().contains("20"));
    }

    #[test]
    fn too_many_relations_reports_the_live_threshold() {
        let model = SimOracleCost::hive();
        let schema = RandomSchemaConfig::with_tables(40, 3).generate();
        let query = QuerySpec::new("r33", (0..33u32).map(TableId).collect::<Vec<_>>());
        let mut coster = FixedResourceCoster::new(&model, 10.0, 4.0);
        let err = SelingerPlanner::plan_opts(
            &schema.catalog,
            &schema.graph,
            &query,
            &mut coster,
            Parallelism::Off,
            None,
            &Telemetry::disabled(),
            32,
            DpFill::Auto,
        )
        .unwrap_err();
        assert_eq!(err, SelingerError::TooManyRelations { n: 33, max: 32 });
        assert!(err.to_string().contains("32"), "{err}");
        // Thresholds above the hard cap clamp to the mask width: a
        // 65-relation query is rejected with max = 64 even for a huge
        // configured threshold.
        let err = SelingerPlanner::plan_opts(
            &schema.catalog,
            &schema.graph,
            &QuerySpec::new("r65", (0..65u32).map(TableId).collect::<Vec<_>>()),
            &mut coster,
            Parallelism::Off,
            None,
            &Telemetry::disabled(),
            usize::MAX,
            DpFill::Auto,
        )
        .unwrap_err();
        assert_eq!(err, SelingerError::TooManyRelations { n: 65, max: MAX_RELATIONS });
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

    /// The parallel level-batched DP must produce bit-identical plans to
    /// the sequential loop for every `Parallelism` mode.
    #[test]
    fn parallel_levels_match_sequential_for_every_mode() {
        let schema = TpchSchema::new(1.0);
        let model = SimOracleCost::hive();
        for query in [QuerySpec::tpch_q3(), QuerySpec::tpch_all(&schema)] {
            let mut seq_coster = FixedResourceCoster::new(&model, 10.0, 6.0);
            let seq = SelingerPlanner::plan(
                &schema.catalog,
                &schema.graph,
                &query,
                &mut seq_coster,
            )
            .unwrap();
            for par in [
                Parallelism::Off,
                Parallelism::Threads(2),
                Parallelism::Threads(5),
                Parallelism::Auto,
            ] {
                let mut coster = FixedResourceCoster::new(&model, 10.0, 6.0);
                let got = SelingerPlanner::plan_with(
                    &schema.catalog,
                    &schema.graph,
                    &query,
                    &mut coster,
                    par,
                    None,
                )
                .unwrap();
                assert_eq!(seq.tree, got.tree, "{par:?}");
                assert_eq!(seq.cost.to_bits(), got.cost.to_bits(), "{par:?}");
                assert_eq!(seq.joins, got.joins, "{par:?}");
                // Same candidates costed: the batch seam must not skip or
                // duplicate work.
                assert_eq!(seq_coster.calls, coster.calls, "{par:?}");
            }
        }
    }

    /// The streamed (two-level) fill is bit-identical to the dense table —
    /// same winners, same tie-breaks, same final costs — for every
    /// parallelism mode.
    #[test]
    fn streamed_fill_matches_dense_bit_for_bit() {
        let schema = TpchSchema::new(1.0);
        let model = SimOracleCost::hive();
        for query in [QuerySpec::tpch_q3(), QuerySpec::tpch_q2(), QuerySpec::tpch_all(&schema)] {
            let mut dense_coster = FixedResourceCoster::new(&model, 10.0, 6.0);
            let dense = SelingerPlanner::plan(
                &schema.catalog,
                &schema.graph,
                &query,
                &mut dense_coster,
            )
            .unwrap();
            for par in [Parallelism::Off, Parallelism::Auto] {
                let mut coster = FixedResourceCoster::new(&model, 10.0, 6.0);
                let streamed = SelingerPlanner::plan_opts(
                    &schema.catalog,
                    &schema.graph,
                    &query,
                    &mut coster,
                    par,
                    None,
                    &Telemetry::disabled(),
                    DEFAULT_DP_THRESHOLD,
                    DpFill::Streamed,
                )
                .unwrap();
                assert_eq!(dense.tree, streamed.tree, "{} {par:?}", query.name);
                assert_eq!(
                    dense.cost.to_bits(),
                    streamed.cost.to_bits(),
                    "{} {par:?}",
                    query.name
                );
                assert_eq!(dense.joins, streamed.joins, "{} {par:?}", query.name);
            }
        }
    }

    /// Memoized planning is bit-identical to plain planning, and a second
    /// run under the same context answers every candidate from the memo —
    /// for the streamed fill too.
    #[test]
    fn streamed_fill_composes_with_memo() {
        let schema = TpchSchema::new(1.0);
        let model = SimOracleCost::hive();
        let query = QuerySpec::tpch_all(&schema);
        let mut plain_coster = FixedResourceCoster::new(&model, 10.0, 6.0);
        let plain =
            SelingerPlanner::plan(&schema.catalog, &schema.graph, &query, &mut plain_coster)
                .unwrap();

        let mut memo = CostMemo::new(&query.relations);
        let mut coster = FixedResourceCoster::new(&model, 10.0, 6.0);
        let run = |memo: &mut CostMemo, coster: &mut dyn PlanCoster| {
            SelingerPlanner::plan_opts(
                &schema.catalog,
                &schema.graph,
                &query,
                coster,
                Parallelism::Off,
                Some(memo),
                &Telemetry::disabled(),
                DEFAULT_DP_THRESHOLD,
                DpFill::Streamed,
            )
            .unwrap()
        };
        let first = run(&mut memo, &mut coster);
        assert_eq!(plain.tree, first.tree);
        assert!((plain.cost - first.cost).abs() <= 1e-9 * plain.cost.abs());
        let calls_after_first = coster.calls;
        let second = run(&mut memo, &mut coster);
        assert_eq!(first, second);
        assert_eq!(
            coster.calls, calls_after_first,
            "second streamed run must be answered entirely from the memo"
        );
        assert!(memo.hits() > 0);
    }

    /// Memoized planning is bit-identical to plain planning, and a second
    /// run under the same context answers every candidate from the memo.
    #[test]
    fn memoized_matches_plain_and_replays() {
        let schema = TpchSchema::new(1.0);
        let model = SimOracleCost::hive();
        let query = QuerySpec::tpch_all(&schema);
        let mut plain_coster = FixedResourceCoster::new(&model, 10.0, 6.0);
        let plain =
            SelingerPlanner::plan(&schema.catalog, &schema.graph, &query, &mut plain_coster)
                .unwrap();

        for par in [Parallelism::Off, Parallelism::Auto] {
            let mut memo = CostMemo::new(&query.relations);
            let mut coster = FixedResourceCoster::new(&model, 10.0, 6.0);
            let first = SelingerPlanner::plan_with(
                &schema.catalog,
                &schema.graph,
                &query,
                &mut coster,
                par,
                Some(&mut memo),
            )
            .unwrap();
            assert_eq!(plain.tree, first.tree, "{par:?}");
            // The memo replays each join's DP-time IO, whose floats were
            // accumulated over bit-ordered (not tree-ordered) relation
            // lists; costs agree to fp noise, the tree exactly.
            assert!(
                (plain.cost - first.cost).abs() <= 1e-9 * plain.cost.abs(),
                "{par:?}: plain={} memoized={}",
                plain.cost,
                first.cost
            );
            for (p, m) in plain.joins.iter().zip(&first.joins) {
                assert_eq!(p.decision.join, m.decision.join, "{par:?}");
            }

            let calls_after_first = coster.calls;
            let second = SelingerPlanner::plan_with(
                &schema.catalog,
                &schema.graph,
                &query,
                &mut coster,
                par,
                Some(&mut memo),
            )
            .unwrap();
            assert_eq!(first, second, "{par:?}");
            assert_eq!(
                coster.calls, calls_after_first,
                "second {par:?} run must be answered entirely from the memo"
            );
            assert!(memo.hits() > 0, "{par:?}");
        }
    }

    /// Subsets of more than [`SIZE_SLOT_BITS`] items share size slots; a
    /// shared slot recomputes, it never answers for the other subset.
    #[test]
    fn shared_size_slots_never_answer_for_another_subset() {
        let schema = raqo_catalog::RandomSchema::chain(SIZE_SLOT_BITS + 2, 7);
        let est = CardinalityEstimator::new(&schema.catalog, &schema.graph);
        let items: Vec<DpItem> = schema.catalog.table_ids().map(DpItem::leaf).collect();
        let model = SimOracleCost::hive();
        let mut coster = FixedResourceCoster::new(&model, 10.0, 6.0);
        let tel = Telemetry::disabled();
        let par = Parallelism::Off;
        let mut dp = Dp::new(&items, &schema.graph, &est, &mut coster, true, par, None, &tel);
        // Equal in their low SIZE_SLOT_BITS bits: one slot for both.
        let (a, b) = (0b11 | 1 << SIZE_SLOT_BITS, 0b11 | 1 << (SIZE_SLOT_BITS + 1));
        for rest in [a, b, a, a, b] {
            let Probe::Unknown(io) = dp.probe(rest, 2) else { panic!("there is no memo") };
            let tables: Vec<TableId> = bits(rest).map(|j| items[j].rels[0]).collect();
            assert_eq!(io, est.join_io(&tables, &items[2].rels), "rest {rest:#b}");
        }
    }
}
