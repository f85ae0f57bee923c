//! Sub-plan cost memoization for every planner.
//!
//! `getPlanCost` (the [`PlanCoster::join_cost`] seam) is by far the hottest
//! call in joint planning: in RAQO mode every invocation runs a full
//! resource-planning search. The randomized planner re-costs the *whole*
//! mutated tree each round, yet a mutation changes at most a couple of join
//! nodes — every other join in the tree is re-submitted with an identical
//! (left relation set, right relation set) pair and, because both the
//! cardinality estimator and a deterministic coster are pure functions of
//! those sets, gets an identical answer.
//!
//! [`CostMemo`] exploits that: it keys each join decision on the canonical
//! relation-bitsets of its inputs (relative to the query's relation list)
//! and replays the stored [`JoinIo`] + [`JoinDecision`] on a hit —
//! infeasible joins are memoized too, so repeated dead-end mutants cost
//! nothing. [`crate::coster::cost_tree`] consults it when given one; the
//! Selinger and bushy DPs look their candidates up and record them, and the
//! optimizer keeps one memo across runs.
//!
//! Correctness requires the coster to be deterministic in the join's IO
//! characteristics (true for fixed-resource costing and for RAQO costing
//! with brute-force/hill-climb planning; a resource cache in
//! nearest-neighbour mode can in principle return different configurations
//! as it warms, which is why memoization is opt-in via
//! [`crate::RandomizedConfig::memoize`]). Queries with more than
//! [`CostMemo::MAX_RELATIONS`] relations silently bypass the memo.

use crate::cardinality::{CardinalityEstimator, JoinIo};
use crate::coster::{JoinDecision, PlanCoster};
use raqo_catalog::TableId;
use std::collections::HashMap;

/// Memo of join decisions keyed on (left bitset, right bitset, context) of
/// the join inputs. `None` records an infeasible join.
///
/// The *context* tag (default 0) lets one memo outlive a single planner run
/// without ever replaying a decision under conditions it was not costed for:
/// the optimizer folds the cluster fingerprint, objective, and resource
/// strategy into it, so a Fig. 15(b) cluster sweep keeps per-cluster entries
/// side by side and re-planning under previously seen conditions is free.
#[derive(Debug)]
pub struct CostMemo {
    /// Dense index of each relation (bit position), grown on demand by
    /// [`CostMemo::ensure_relations`].
    index: HashMap<TableId, u32>,
    /// (left, right, context) → io + decision, or `None` for "coster said
    /// infeasible".
    entries: HashMap<(u128, u128, u64), Option<(JoinIo, JoinDecision)>>,
    /// Tag mixed into every key; see [`CostMemo::set_context`].
    context: u64,
    /// Contexts in recency order, least recent first; bounds the memo: a
    /// long cluster sweep touches thousands of distinct contexts, and one
    /// partition of entries per context would otherwise grow without
    /// bound. When the list exceeds [`CostMemo::max_contexts`], the least
    /// recently used context's entries are evicted wholesale.
    lru: Vec<u64>,
    max_contexts: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Default for CostMemo {
    fn default() -> Self {
        CostMemo {
            index: HashMap::new(),
            entries: HashMap::new(),
            context: 0,
            // The default context is live from the start so it ages out
            // like any other once a sweep rotates past the cap.
            lru: vec![0],
            max_contexts: Self::DEFAULT_MAX_CONTEXTS,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }
}

impl CostMemo {
    /// Bitset width: queries with more relations bypass the memo.
    pub const MAX_RELATIONS: usize = 128;

    /// Default bound on concurrently retained contexts. Generous for the
    /// Fig. 15(b) pattern (re-visiting a handful of recent cluster
    /// conditions) while keeping thousand-condition sweeps bounded.
    pub const DEFAULT_MAX_CONTEXTS: usize = 32;

    /// Build a memo for one planner run over `relations` (the query's
    /// relation list; duplicates collapse onto one bit, which is safe
    /// because identical tables are interchangeable in cost).
    pub fn new(relations: &[TableId]) -> Self {
        let mut index = HashMap::with_capacity(relations.len());
        if relations.len() <= Self::MAX_RELATIONS {
            for &t in relations {
                let next = index.len() as u32;
                index.entry(t).or_insert(next);
            }
        }
        CostMemo { index, ..Default::default() }
    }

    /// Is the memo active? (False for >[`Self::MAX_RELATIONS`]-relation
    /// queries and for relations outside the indexed set.)
    pub fn enabled(&self) -> bool {
        !self.index.is_empty()
    }

    /// Extend the relation index with any not-yet-indexed relations, as far
    /// as the bitset width allows. Lets one memo serve successive planner
    /// runs (the cluster-sweep reuse mode): relations beyond the capacity
    /// simply bypass the memo via `CostMemo::key_of` returning `None`.
    pub fn ensure_relations(&mut self, relations: &[TableId]) {
        for &t in relations {
            if self.index.len() >= Self::MAX_RELATIONS {
                break;
            }
            let next = self.index.len() as u32;
            self.index.entry(t).or_insert(next);
        }
    }

    /// Set the context tag mixed into every memo key from now on. Callers
    /// must change the context whenever anything a cached decision depends
    /// on changes — cluster conditions, objective, resource strategy —
    /// otherwise stale decisions would be replayed. Entries recorded under
    /// the most recent [`CostMemo::max_contexts`] contexts stay in the
    /// memo and become live again when their context is restored; older
    /// contexts are evicted LRU-wise (counted by [`CostMemo::evictions`]).
    pub fn set_context(&mut self, context: u64) {
        self.context = context;
        if self.lru.last() == Some(&context) {
            return;
        }
        self.lru.retain(|&c| c != context);
        self.lru.push(context);
        self.evict_overflow();
    }

    /// Drop least-recent contexts until the window fits. Each victim
    /// context bumps [`CostMemo::evictions`] exactly once, however many
    /// entries it held: per-entry counts depend on how writes interleave
    /// when several callers rotate contexts on a shared memo, while the
    /// number of rotated-out contexts is a pure function of the rotation
    /// sequence, so the counter stays deterministic.
    fn evict_overflow(&mut self) {
        while self.lru.len() > self.max_contexts {
            let victim = self.lru.remove(0);
            self.entries.retain(|k, _| k.2 != victim);
            self.evictions += 1;
        }
    }

    /// The current context tag.
    pub fn context(&self) -> u64 {
        self.context
    }

    /// The bound on concurrently retained contexts.
    pub fn max_contexts(&self) -> usize {
        self.max_contexts
    }

    /// Change the context bound (minimum 1: the current context always
    /// stays live). Shrinking evicts the overflow immediately.
    pub fn set_max_contexts(&mut self, max_contexts: usize) {
        self.max_contexts = max_contexts.max(1);
        // Re-touch the current context so it is most recent, then let the
        // normal overflow sweep trim the rest.
        let current = self.context;
        self.lru.retain(|&c| c != current);
        self.lru.push(current);
        self.evict_overflow();
    }

    /// Contexts evicted by the LRU so far. Counted once per evicted
    /// context (not per entry), so the value is stable when concurrent
    /// callers share a memo behind a lock and interleave context
    /// rotations with inserts.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Contexts currently retained (live partitions of the memo).
    pub fn live_contexts(&self) -> usize {
        self.lru.len()
    }

    /// Entries currently held across all live contexts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Memo hits so far (each one is a skipped `getPlanCost` call).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Memo misses so far (joins that went to the coster).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Canonical bitset of a relation set; `None` when the memo is disabled
    /// or a relation is unknown.
    fn key_of(&self, rels: &[TableId]) -> Option<u128> {
        if self.index.is_empty() {
            return None;
        }
        let mut key = 0u128;
        for t in rels {
            key |= 1u128 << *self.index.get(t)?;
        }
        Some(key)
    }

    /// Cost one join through the memo, falling back to `est` + `coster` on
    /// a miss. Returns the join's IO and decision, or `None` if infeasible.
    pub fn join_cost(
        &mut self,
        lrels: &[TableId],
        rrels: &[TableId],
        est: &CardinalityEstimator<'_>,
        coster: &mut dyn PlanCoster,
    ) -> Option<(JoinIo, JoinDecision)> {
        let Some((l, r)) = self.key_of(lrels).zip(self.key_of(rrels)) else {
            // Memo bypass: behave exactly like the unmemoized path.
            let io = est.join_io(lrels, rrels);
            return coster.join_cost(&io).map(|d| (io, d));
        };
        let key = (l, r, self.context);
        if let Some(cached) = self.entries.get(&key) {
            self.hits += 1;
            return *cached;
        }
        self.misses += 1;
        let io = est.join_io(lrels, rrels);
        let outcome = coster.join_cost(&io).map(|d| (io, d));
        self.entries.insert(key, outcome);
        outcome
    }

    /// Look up a recorded decision without costing on a miss. Outer `None`
    /// means "not recorded (or memo bypassed for these relations)" — the
    /// caller costs the join itself and should [`CostMemo::record`] the
    /// outcome; inner `None` is a recorded infeasible join. Counts a hit or
    /// a miss when the memo is enabled for these relations.
    pub fn get(
        &mut self,
        lrels: &[TableId],
        rrels: &[TableId],
    ) -> Option<Option<(JoinIo, JoinDecision)>> {
        let (l, r) = self.key_of(lrels).zip(self.key_of(rrels))?;
        match self.entries.get(&(l, r, self.context)) {
            Some(cached) => {
                self.hits += 1;
                Some(*cached)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Record an externally costed outcome for a (left, right) pair under
    /// the current context (the batch-costing path pairs this with
    /// [`CostMemo::get`]). No-op when the memo is bypassed for these
    /// relations.
    pub fn record(
        &mut self,
        lrels: &[TableId],
        rrels: &[TableId],
        outcome: Option<(JoinIo, JoinDecision)>,
    ) {
        if let Some((l, r)) = self.key_of(lrels).zip(self.key_of(rrels)) {
            self.entries.insert((l, r, self.context), outcome);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cardinality::CardinalityEstimator;
    use crate::coster::{cost_tree, FixedResourceCoster, PlannedQuery};
    use crate::plan::PlanTree;
    use raqo_catalog::tpch::{table, TpchSchema};
    use raqo_cost::SimOracleCost;
    use raqo_telemetry::Telemetry;

    fn walk(
        tree: &PlanTree,
        est: &CardinalityEstimator<'_>,
        coster: &mut dyn PlanCoster,
        memo: &mut CostMemo,
    ) -> Option<PlannedQuery> {
        cost_tree(tree, est, coster, Some(memo), &Telemetry::disabled())
    }

    #[test]
    fn memoized_tree_cost_matches_unmemoized() {
        let schema = TpchSchema::new(1.0);
        let model = SimOracleCost::hive();
        let est = CardinalityEstimator::new(&schema.catalog, &schema.graph);
        let rels = [table::CUSTOMER, table::ORDERS, table::LINEITEM];
        let tree = PlanTree::left_deep(&rels);

        let mut plain_coster = FixedResourceCoster::new(&model, 10.0, 4.0);
        let tel = Telemetry::disabled();
        let plain = cost_tree(&tree, &est, &mut plain_coster, None, &tel).unwrap();

        let mut memo = CostMemo::new(&rels);
        let mut memo_coster = FixedResourceCoster::new(&model, 10.0, 4.0);
        let memoized = walk(&tree, &est, &mut memo_coster, &mut memo).unwrap();
        assert_eq!(plain, memoized);
        assert_eq!(memo.hits(), 0);
        assert_eq!(memo.misses(), 2);
    }

    #[test]
    fn repeat_costing_hits_memo_and_skips_coster() {
        let schema = TpchSchema::new(1.0);
        let model = SimOracleCost::hive();
        let est = CardinalityEstimator::new(&schema.catalog, &schema.graph);
        let rels = [table::CUSTOMER, table::ORDERS, table::LINEITEM];
        let tree = PlanTree::left_deep(&rels);

        let mut memo = CostMemo::new(&rels);
        let mut coster = FixedResourceCoster::new(&model, 10.0, 4.0);
        let first = walk(&tree, &est, &mut coster, &mut memo).unwrap();
        let calls_after_first = coster.calls;
        let second = walk(&tree, &est, &mut coster, &mut memo).unwrap();
        assert_eq!(first, second);
        assert_eq!(coster.calls, calls_after_first, "second pass must not re-cost");
        assert_eq!(memo.hits(), 2);
    }

    #[test]
    fn shared_subtrees_across_different_trees_hit() {
        let schema = TpchSchema::new(1.0);
        let model = SimOracleCost::hive();
        let est = CardinalityEstimator::new(&schema.catalog, &schema.graph);
        let rels = [table::CUSTOMER, table::ORDERS, table::LINEITEM, table::SUPPLIER];
        let mut memo = CostMemo::new(&rels);
        let mut coster = FixedResourceCoster::new(&model, 10.0, 4.0);

        // Both trees share the bottom join customer ⋈ orders.
        let t1 = PlanTree::left_deep(&[table::CUSTOMER, table::ORDERS, table::LINEITEM]);
        let t2 = PlanTree::left_deep(&[table::CUSTOMER, table::ORDERS, table::SUPPLIER]);
        walk(&t1, &est, &mut coster, &mut memo).unwrap();
        let calls_after_t1 = coster.calls;
        walk(&t2, &est, &mut coster, &mut memo).unwrap();
        // Only the top join of t2 needed the coster.
        assert_eq!(coster.calls, calls_after_t1 + 1);
        assert_eq!(memo.hits(), 1);
    }

    #[test]
    fn infeasible_joins_are_memoized() {
        struct CountingNever(u64);
        impl PlanCoster for CountingNever {
            fn join_cost(&mut self, _io: &JoinIo) -> Option<JoinDecision> {
                self.0 += 1;
                None
            }
        }
        let schema = TpchSchema::new(1.0);
        let est = CardinalityEstimator::new(&schema.catalog, &schema.graph);
        let rels = [table::CUSTOMER, table::ORDERS];
        let tree = PlanTree::left_deep(&rels);
        let mut memo = CostMemo::new(&rels);
        let mut never = CountingNever(0);
        assert!(walk(&tree, &est, &mut never, &mut memo).is_none());
        assert!(walk(&tree, &est, &mut never, &mut memo).is_none());
        assert_eq!(never.0, 1, "infeasibility must be cached");
        assert_eq!(memo.hits(), 1);
    }

    #[test]
    fn context_change_isolates_entries_and_restoring_revives_them() {
        let schema = TpchSchema::new(1.0);
        let model = SimOracleCost::hive();
        let est = CardinalityEstimator::new(&schema.catalog, &schema.graph);
        let rels = [table::CUSTOMER, table::ORDERS, table::LINEITEM];
        let tree = PlanTree::left_deep(&rels);
        let mut memo = CostMemo::new(&rels);

        let mut coster = FixedResourceCoster::new(&model, 10.0, 4.0);
        walk(&tree, &est, &mut coster, &mut memo).unwrap();
        assert_eq!((memo.hits(), memo.misses()), (0, 2));

        // A new context must not replay context-0 decisions.
        memo.set_context(7);
        walk(&tree, &est, &mut coster, &mut memo).unwrap();
        assert_eq!((memo.hits(), memo.misses()), (0, 4));

        // Restoring an old context makes its entries live again.
        memo.set_context(0);
        let calls_before = coster.calls;
        walk(&tree, &est, &mut coster, &mut memo).unwrap();
        assert_eq!(coster.calls, calls_before);
        assert_eq!((memo.hits(), memo.misses()), (2, 4));
    }

    #[test]
    fn context_lru_evicts_oldest_partition() {
        let schema = TpchSchema::new(1.0);
        let model = SimOracleCost::hive();
        let est = CardinalityEstimator::new(&schema.catalog, &schema.graph);
        let rels = [table::CUSTOMER, table::ORDERS, table::LINEITEM];
        let tree = PlanTree::left_deep(&rels);
        let mut memo = CostMemo::new(&rels);
        memo.set_max_contexts(2);
        let mut coster = FixedResourceCoster::new(&model, 10.0, 4.0);

        // Fill contexts 0 and 1 (2 entries each), then touch context 2:
        // context 0 is the LRU victim.
        walk(&tree, &est, &mut coster, &mut memo).unwrap();
        memo.set_context(1);
        walk(&tree, &est, &mut coster, &mut memo).unwrap();
        assert_eq!(memo.len(), 4);
        assert_eq!(memo.evictions(), 0);
        memo.set_context(2);
        assert_eq!(memo.evictions(), 1, "context 0 evicted, counted once");
        assert_eq!(memo.len(), 2);
        assert_eq!(memo.live_contexts(), 2);

        // A context still within the window replays for free (the
        // Fig. 15(b) revive-on-restore behavior is preserved)...
        memo.set_context(1);
        let calls_before = coster.calls;
        walk(&tree, &est, &mut coster, &mut memo).unwrap();
        assert_eq!(coster.calls, calls_before, "context 1 survived the LRU window");
        // ...while returning to the evicted context re-costs from scratch.
        memo.set_context(0);
        let calls_before = coster.calls;
        walk(&tree, &est, &mut coster, &mut memo).unwrap();
        assert_eq!(coster.calls, calls_before + 2);
    }

    #[test]
    fn revisiting_a_context_refreshes_recency() {
        let rels = [table::CUSTOMER, table::ORDERS];
        let mut memo = CostMemo::new(&rels);
        memo.set_max_contexts(2);
        memo.set_context(1);
        memo.set_context(0); // refresh the default context: now 1 is LRU
        memo.set_context(2); // evicts context 1, not 0
        assert_eq!(memo.live_contexts(), 2);
        // Rotating through many contexts stays bounded.
        for c in 10..1000 {
            memo.set_context(c);
        }
        assert_eq!(memo.live_contexts(), 2);
    }

    #[test]
    fn shrinking_max_contexts_evicts_immediately() {
        let schema = TpchSchema::new(1.0);
        let model = SimOracleCost::hive();
        let est = CardinalityEstimator::new(&schema.catalog, &schema.graph);
        let rels = [table::CUSTOMER, table::ORDERS];
        let tree = PlanTree::left_deep(&rels);
        let mut memo = CostMemo::new(&rels);
        let mut coster = FixedResourceCoster::new(&model, 10.0, 4.0);
        for c in 0..4 {
            memo.set_context(c);
            walk(&tree, &est, &mut coster, &mut memo).unwrap();
        }
        assert_eq!(memo.len(), 4);
        memo.set_max_contexts(1);
        assert_eq!(memo.live_contexts(), 1);
        assert_eq!(memo.context(), 3, "current context survives the shrink");
        assert_eq!(memo.len(), 1);
        assert_eq!(memo.evictions(), 3, "three contexts rotated out");
    }

    #[test]
    fn eviction_accounting_is_stable_under_concurrent_callers() {
        // Several threads share one memo behind a lock (the service
        // pattern), each rotating through its own context ids while
        // inserting entries. Per-entry eviction counts would depend on
        // how the rotations interleave — a victim context holds however
        // many entries happened to land in it before it aged out. Counted
        // once per evicted context the total is a pure function of the
        // rotation sequence: distinct contexts touched minus those still
        // live, whatever the interleaving.
        use std::sync::{Arc, Mutex};
        let schema = TpchSchema::new(1.0);
        let model = SimOracleCost::hive();
        let rels = [table::CUSTOMER, table::ORDERS, table::LINEITEM];
        let tree = PlanTree::left_deep(&rels);
        let memo = Arc::new(Mutex::new(CostMemo::new(&rels)));
        const WINDOW: usize = 2;
        memo.lock().unwrap().set_max_contexts(WINDOW);

        const THREADS: u64 = 4;
        const ROUNDS: u64 = 16;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let memo = Arc::clone(&memo);
                let est = CardinalityEstimator::new(&schema.catalog, &schema.graph);
                let model = &model;
                let tree = &tree;
                scope.spawn(move || {
                    let mut coster = FixedResourceCoster::new(model, 10.0, 4.0);
                    for i in 0..ROUNDS {
                        let mut m = memo.lock().unwrap();
                        m.set_context(1 + t * ROUNDS + i);
                        walk(tree, &est, &mut coster, &mut m).unwrap();
                    }
                });
            }
        });

        let m = memo.lock().unwrap();
        // Distinct contexts pushed: the default 0 plus THREADS*ROUNDS
        // thread-owned ids; WINDOW of them are still live.
        let touched = 1 + THREADS * ROUNDS;
        assert_eq!(m.live_contexts(), WINDOW);
        assert_eq!(m.evictions(), touched - WINDOW as u64);
    }

    #[test]
    fn ensure_relations_extends_an_existing_memo() {
        let schema = TpchSchema::new(1.0);
        let model = SimOracleCost::hive();
        let est = CardinalityEstimator::new(&schema.catalog, &schema.graph);
        let mut memo = CostMemo::new(&[table::CUSTOMER, table::ORDERS]);
        let mut coster = FixedResourceCoster::new(&model, 10.0, 4.0);

        // SUPPLIER is unknown → this tree's top join bypasses the memo.
        let tree = PlanTree::left_deep(&[table::CUSTOMER, table::ORDERS, table::SUPPLIER]);
        walk(&tree, &est, &mut coster, &mut memo).unwrap();
        assert_eq!((memo.hits(), memo.misses()), (0, 1));

        // After extending the index the same join is memoized normally.
        memo.ensure_relations(&[table::SUPPLIER]);
        walk(&tree, &est, &mut coster, &mut memo).unwrap();
        walk(&tree, &est, &mut coster, &mut memo).unwrap();
        assert_eq!((memo.hits(), memo.misses()), (3, 2));
    }

    #[test]
    fn get_and_record_round_trip() {
        let schema = TpchSchema::new(1.0);
        let model = SimOracleCost::hive();
        let est = CardinalityEstimator::new(&schema.catalog, &schema.graph);
        let rels = [table::CUSTOMER, table::ORDERS];
        let mut memo = CostMemo::new(&rels);

        let l = [table::CUSTOMER];
        let r = [table::ORDERS];
        assert_eq!(memo.get(&l, &r), None);
        assert_eq!((memo.hits(), memo.misses()), (0, 1));

        let io = est.join_io(&l, &r);
        let mut coster = FixedResourceCoster::new(&model, 10.0, 4.0);
        let decision = coster.join_cost(&io).unwrap();
        memo.record(&l, &r, Some((io, decision)));
        assert_eq!(memo.get(&l, &r), Some(Some((io, decision))));
        assert_eq!((memo.hits(), memo.misses()), (1, 1));

        // Recorded infeasibility replays as the inner None.
        memo.record(&r, &l, None);
        assert_eq!(memo.get(&r, &l), Some(None));

        // Unknown relations bypass get/record without touching counters.
        let (h, m) = (memo.hits(), memo.misses());
        assert_eq!(memo.get(&l, &[table::SUPPLIER]), None);
        memo.record(&l, &[table::SUPPLIER], None);
        assert_eq!(memo.get(&l, &[table::SUPPLIER]), None);
        assert_eq!((memo.hits(), memo.misses()), (h, m));
    }

    #[test]
    fn oversized_queries_bypass_memo() {
        let rels: Vec<TableId> = (0..200).map(TableId).collect();
        let memo = CostMemo::new(&rels);
        assert!(!memo.enabled());
        // Bypass still costs correctly through the fallback path.
        let schema = TpchSchema::new(1.0);
        let model = SimOracleCost::hive();
        let est = CardinalityEstimator::new(&schema.catalog, &schema.graph);
        let tree = PlanTree::left_deep(&[table::CUSTOMER, table::ORDERS]);
        let mut memo = CostMemo::new(&rels);
        let mut coster = FixedResourceCoster::new(&model, 10.0, 4.0);
        let got = walk(&tree, &est, &mut coster, &mut memo).unwrap();
        let mut coster2 = FixedResourceCoster::new(&model, 10.0, 4.0);
        let tel = Telemetry::disabled();
        assert_eq!(got, cost_tree(&tree, &est, &mut coster2, None, &tel).unwrap());
        assert_eq!(memo.hits() + memo.misses(), 0);
    }
}
