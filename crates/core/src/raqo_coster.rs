//! The RAQO coster: resource planning inside `getPlanCost` (§VI-C).
//!
//! > "Due to the fact that we compute the resource configurations locally
//! > for each operator, we only need to invoke the resource planner when
//! > computing the costs of a sub-plan. Thus, we extended the getPlanCost
//! > method of our cost model to first perform the resource planning (or
//! > lookup in the cache) and then return the sub-plan cost."
//!
//! For every candidate join the planner proposes, [`RaqoCoster`] searches
//! the resource space once per operator implementation, picks the
//! implementation whose *best* resource configuration is cheapest, and
//! returns the joint decision. Search strategies mirror §VI-B: exhaustive
//! [`ResourceStrategy::BruteForce`], Algorithm-1
//! [`ResourceStrategy::HillClimb`], and hill climbing behind the
//! resource-plan cache keyed on the operator's data characteristics.

use crate::shared::Shared;
use raqo_cost::objective::CostVector;
use raqo_cost::OperatorCost;
use raqo_faults::Action;
use raqo_planner::{JoinDecision, JoinIo, PlanCoster};
use raqo_resource::{
    brute_force_rows, hill_climb, BudgetTracker, CacheLookup, ClusterConditions, PairGuard,
    Parallelism, PlanningOutcome, ResourceConfig, ShardedCacheBank,
};
use raqo_sim::engine::JoinImpl;
use raqo_telemetry::{Counter, Hist, MetricsSnapshot, Telemetry};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// How to search the per-operator resource space (§VI-B).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ResourceStrategy {
    /// Exhaustive grid search.
    BruteForce,
    /// Algorithm 1 from the minimum allocation.
    HillClimb,
    /// Hill climbing behind the resource-plan cache with the given lookup
    /// policy; the cache key is the operator's smaller-input size in GB.
    HillClimbCached(CacheLookup),
}

/// What the per-operator resource planning minimizes. §IV: "the optimizer
/// can essentially tune the execution time and the monetary cost".
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Objective {
    /// Minimize estimated execution time.
    Time,
    /// Minimize estimated monetary cost (TB·s).
    Money,
    /// Minimize `w·time + (1−w)·money`.
    Weighted { time_weight: f64 },
    /// Minimize time among configurations whose estimated monetary cost
    /// stays within the budget — the `c ⇒ (p, r)` use-case.
    TimeUnderBudget { money_budget_tb_sec: f64 },
}

impl Objective {
    /// A stable `(tag, parameter)` identity, for keys that must tell
    /// objectives apart: the cache bank's operator id.
    pub(crate) fn tag(&self) -> (u64, f64) {
        match *self {
            Objective::Time => (0, 0.0),
            Objective::Money => (1, 0.0),
            Objective::Weighted { time_weight } => (2, time_weight),
            Objective::TimeUnderBudget { money_budget_tb_sec } => (3, money_budget_tb_sec),
        }
    }

    /// Scalarize an estimated time under a resource configuration;
    /// `INFINITY` = rejected. Three-dimensional configurations price their
    /// cores at the serverless memory-equivalent rate.
    #[inline]
    fn score(&self, time_sec: f64, r: &ResourceConfig) -> f64 {
        match self {
            Objective::Time => time_sec,
            Objective::Money => money_of(time_sec, r),
            Objective::Weighted { time_weight } => {
                time_weight * time_sec + (1.0 - time_weight) * money_of(time_sec, r)
            }
            Objective::TimeUnderBudget { money_budget_tb_sec } => {
                if money_of(time_sec, r) <= *money_budget_tb_sec {
                    time_sec
                } else {
                    f64::INFINITY
                }
            }
        }
    }

    /// A lower bound on the score of every point of a grid-row slice, from
    /// a lower bound on its model times; `first` is the slice's first
    /// point, the least on every coordinate. Every score is nondecreasing
    /// in time and, with the time and every coordinate nonnegative, in the
    /// coordinates too (the same floating-point operations on smaller
    /// operands), so the time bound is clamped at 0 and money is taken at
    /// `first`. A score that can fall as time grows — a weight outside
    /// `[0, 1]` — or a negative coordinate bounds nothing (`−∞`), and
    /// neither does a time bound of `−∞` or NaN: such a slice is priced in
    /// grid order, as if unbounded. `+∞`, a wholly infeasible slice, stays
    /// `+∞` (see [`Objective::score_row`]).
    fn score_bound(&self, time_bound: f64, first: &ResourceConfig) -> f64 {
        if time_bound.is_nan() || time_bound.is_infinite() {
            return time_bound;
        }
        let t = time_bound.max(0.0);
        let priced = || first.as_slice().iter().all(|&v| v >= 0.0);
        match *self {
            Objective::Time | Objective::TimeUnderBudget { .. } => t,
            Objective::Money if priced() => self.score(t, first),
            Objective::Weighted { time_weight }
                if (0.0..=1.0).contains(&time_weight) && priced() =>
            {
                self.score(t, first)
            }
            Objective::Money | Objective::Weighted { .. } => f64::NEG_INFINITY,
        }
    }

    /// [`Objective::score`] over one grid-row slice of raw model outputs, in
    /// place, with the sanitization boundary fused in: point `k` is `base`
    /// with its last coordinate replaced by `coords[k]`. A NaN or negative
    /// output is a model bug and becomes `INFINITY`; the number of those is
    /// returned. `+∞` (the legitimate infeasibility signal) stays `+∞` even
    /// under objectives with a zero weight (0·∞ is NaN).
    fn score_row(&self, base: &ResourceConfig, coords: &[f64], times: &mut [f64]) -> u64 {
        let mut bad = 0;
        if let Objective::Time = self {
            for t in times.iter_mut() {
                let ok = *t >= 0.0;
                bad += u64::from(!ok);
                *t = if ok { *t } else { f64::INFINITY };
            }
            return bad;
        }
        for (&x, t) in coords.iter().zip(times.iter_mut()) {
            *t = if t.is_finite() && *t >= 0.0 {
                self.score(*t, &base.with_last(x))
            } else {
                bad += u64::from(*t != f64::INFINITY);
                f64::INFINITY
            };
        }
        bad
    }
}

/// Monetary cost of holding configuration `r` for `time_sec`: plain
/// memory-seconds in the 2-D space, memory + core-equivalents in 3-D.
fn money_of(time_sec: f64, r: &ResourceConfig) -> f64 {
    if r.dims() >= 3 {
        raqo_sim::money::monetary_cost_with_cores(
            time_sec,
            r.containers(),
            r.container_size_gb(),
            r.get(2),
        )
    } else {
        raqo_sim::money::monetary_cost_tb_sec(time_sec, r.containers(), r.container_size_gb())
    }
}

/// Counters behind Figs. 12–14.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RaqoStats {
    /// Resource configurations explored (cost-model evaluations inside the
    /// resource planner) — the paper's "#Resource-Iterations".
    pub resource_iterations: u64,
    /// `getPlanCost` invocations (candidate sub-plans costed).
    pub plan_cost_calls: u64,
    /// Resource-planning invocations answered by the cache.
    pub cache_hits: u64,
}

impl RaqoStats {
    /// Rebuild the planner counters from two metrics-registry snapshots
    /// bracketing a run. Every site that bumps a [`RaqoStats`] field also
    /// bumps the corresponding registry counter, so for any telemetry-
    /// enabled run `stats == RaqoStats::from_registry_delta(before, after)`
    /// — the stats are a view over the registry, and the two can never
    /// diverge.
    pub fn from_registry_delta(before: &MetricsSnapshot, after: &MetricsSnapshot) -> RaqoStats {
        RaqoStats {
            resource_iterations: after.delta(before, Counter::ResourceIterations),
            plan_cost_calls: after.delta(before, Counter::PlanCostCalls),
            cache_hits: after.delta(before, Counter::CacheHitsExact)
                + after.delta(before, Counter::CacheHitsNearest)
                + after.delta(before, Counter::CacheHitsWeighted),
        }
    }
}

/// Stable cache identifiers per operator implementation.
fn impl_cache_id(join: JoinImpl) -> u32 {
    match join {
        JoinImpl::SortMerge => 0,
        JoinImpl::BroadcastHash => 1,
    }
}

/// Cache-bank model key: the tenant/workload namespace in the high bits,
/// the implementation id in the low bit. Namespace 0 yields exactly the
/// historical ids 0/1, so single-tenant runs are bit-identical to builds
/// without namespaces.
fn model_key(namespace: u32, join: JoinImpl) -> u32 {
    (namespace << 1) | impl_cache_id(join)
}

/// Operator id inside the cache bank. Only joins are planned ("a single
/// join operator for now", §VI-B; scans pipeline into them), so the id
/// carries what else a cached configuration depends on: the objective it
/// minimised. A `Money` question must never be answered with a `Time`
/// configuration. `Time` keeps the historical id 0; every other objective
/// gets a non-zero 32-bit FNV-1a of its tag and parameter. The id is
/// persisted with the cache, so checkpoints segregate the same way.
fn operator_key(objective: Objective) -> u32 {
    if objective == Objective::Time {
        return 0;
    }
    let (tag, param) = objective.tag();
    let mut h: u32 = 0x811c_9dc5;
    for b in tag.to_le_bytes().into_iter().chain(param.to_bits().to_le_bytes()) {
        h = (h ^ b as u32).wrapping_mul(0x0100_0193);
    }
    h.max(1)
}

/// The resource-planning coster.
pub struct RaqoCoster<'a, M: OperatorCost> {
    pub model: Shared<'a, M>,
    pub cluster: ClusterConditions,
    pub strategy: ResourceStrategy,
    pub objective: Objective,
    pub stats: RaqoStats,
    /// Span/metrics sink. [`Telemetry::disabled`] (the default) keeps every
    /// instrumentation site a branch on `None` — no clocks, locks, or
    /// allocation on the hot path.
    pub telemetry: Telemetry,
    /// Planning-budget tracker charged one unit per cost-model evaluation.
    /// The default unlimited tracker makes `charge` a single branch, so
    /// budget-free runs are bit-identical to builds without budgets; the
    /// optimizer installs a fresh limited tracker per `optimize` call.
    pub budget: Arc<BudgetTracker>,
    /// The resource-plan cache: a private one-shard bank by default, or a
    /// bank shared with other costers (see
    /// [`RaqoCoster::share_sharded_cache`]).
    cache: ShardedCacheBank,
    /// Tenant/workload namespace folded into the cache-bank model key (see
    /// [`model_key`]); 0 is the historical single-tenant id space.
    cache_namespace: u32,
}

impl<'a, M: OperatorCost> RaqoCoster<'a, M> {
    pub fn new(
        model: impl Into<Shared<'a, M>>,
        cluster: ClusterConditions,
        strategy: ResourceStrategy,
        objective: Objective,
    ) -> Self {
        RaqoCoster {
            model: model.into(),
            cluster,
            strategy,
            objective,
            stats: RaqoStats::default(),
            telemetry: Telemetry::disabled(),
            budget: Arc::new(BudgetTracker::unlimited()),
            cache: ShardedCacheBank::with_shards(1),
            cache_namespace: 0,
        }
    }

    /// Builder form of setting [`RaqoCoster::telemetry`].
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Switch the tenant/workload cache namespace (see `model_key`; the
    /// planning service sets this per request). Namespace 0 — the default
    /// — is the historical single-tenant id space.
    pub fn set_cache_namespace(&mut self, namespace: u32) {
        self.cache_namespace = namespace;
    }

    /// Clear the resource-plan cache (the evaluation clears it between
    /// queries unless across-query caching is under test, §VII).
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }

    /// Adopt `bank` as this coster's resource-plan cache: one warmed by
    /// earlier queries (the Fig. 15(b) across-query caching mode) or shared
    /// with concurrent costers (the planning service's mode, where each
    /// (namespace, implementation) pair locks only its own shard).
    pub fn share_sharded_cache(&mut self, bank: ShardedCacheBank) {
        self.cache = bank;
    }

    /// A handle onto this coster's resource-plan cache. Clones share state,
    /// so handing it to another coster shares the cache.
    pub fn sharded_cache(&self) -> ShardedCacheBank {
        self.cache.clone()
    }

    /// Reset counters (the cache is kept).
    pub fn reset_stats(&mut self) {
        self.stats = RaqoStats::default();
    }

    /// Update the cluster conditions (adaptive RAQO: "If the cluster
    /// conditions change until or during the execution of the query, the
    /// dataflow/runtime can further adjust the query/resource plan by
    /// consulting the optimizer", §IV). Cached configurations from other
    /// conditions are clamped on use.
    pub fn set_cluster(&mut self, cluster: ClusterConditions) {
        self.cluster = cluster;
    }

    /// Cost `ios` one after another, handing each decision to `emit`. Under
    /// [`ResourceStrategy::HillClimbCached`] one [`PairGuard`] serves the
    /// whole batch: the shards of the SMJ and BHJ caches are locked once,
    /// and let go only around each hill climb. The counters are taken out
    /// for the batch, so the searches can borrow the rest of the coster.
    fn cost_in_order(&mut self, ios: &[JoinIo], mut emit: impl FnMut(Option<JoinDecision>)) {
        let mut stats = std::mem::take(&mut self.stats);
        let mut cache = self.cache_guard();
        for io in ios {
            emit(self.cost_join(io, &mut stats, &mut cache));
        }
        drop(cache);
        self.stats = stats;
    }

    /// A guard over this coster's SMJ and BHJ caches, pair
    /// `impl_cache_id(join)` each. It locks nothing until a cached lookup.
    fn cache_guard(&self) -> PairGuard<'_> {
        let operator = operator_key(self.objective);
        let pair = |join| (model_key(self.cache_namespace, join), operator);
        self.cache.lock_pair(pair(JoinImpl::SortMerge), pair(JoinImpl::BroadcastHash))
    }

    /// Resource-plan one operator implementation for one join. Returns the
    /// chosen configuration and its *time* estimate, or `None` when the
    /// implementation is infeasible everywhere reachable. `cache` is
    /// `cache_guard`'s.
    fn plan_operator(
        &self,
        join: JoinImpl,
        io: &JoinIo,
        stats: &mut RaqoStats,
        cache: &mut PairGuard<'_>,
    ) -> Option<(ResourceConfig, f64)> {
        // The scalarized cost surface for the search.
        let model = &*self.model;
        let objective = self.objective;
        let build = io.build_gb;
        let probe = io.probe_gb;
        let tel = &self.telemetry;
        let _rp_span = tel.span(match self.strategy {
            ResourceStrategy::BruteForce => "resource_planning.brute_force",
            ResourceStrategy::HillClimb => "resource_planning.hill_climb",
            ResourceStrategy::HillClimbCached(_) => "resource_planning.cached",
        });
        let budget = &*self.budget;
        // Every model evaluation is (a) charged against the planning budget
        // — an exhausted budget short-circuits to +∞ so the planners drain
        // fast — and (b) sanitized at this boundary: a NaN, −∞, or negative
        // prediction is a model bug, mapped to "infeasible" and counted
        // instead of being allowed to poison comparisons downstream. (+∞
        // stays the legitimate OOM/infeasibility signal and is not counted.)
        // Returns the score and, when that is finite, the raw time.
        let evaluate = |r: &ResourceConfig| -> (f64, f64) {
            if !budget.charge(1) {
                return (f64::INFINITY, f64::NAN);
            }
            let raw = match raqo_faults::site("cost.model.scalar") {
                Action::Nan => Some(f64::NAN),
                Action::Fail => None,
                Action::Proceed => model.join_cost_at(join, build, probe, r),
            };
            match raw {
                Some(t) if t.is_finite() && t >= 0.0 => (objective.score(t, r), t),
                // The scalar API signals OOM with `None`, so *any* non-finite
                // or negative `Some` is a model bug worth counting.
                Some(_) => {
                    tel.inc(Counter::CostSanitizationsScalar);
                    (f64::INFINITY, f64::NAN)
                }
                None => (f64::INFINITY, f64::NAN),
            }
        };
        let cost_fn = |r: &ResourceConfig| evaluate(r).0;

        // The raw time under the winner, when the search already has it.
        let mut known_time = None;
        let outcome: PlanningOutcome = match self.strategy {
            // Every slice is charged to the budget in grid order as the
            // scan bounds it — a refused slice bounds at +∞ and is never
            // priced — so budgets run out where an exhaustive scan's would.
            // Slices that can still win go through the fused kernel, then
            // one pass sanitizes and scalarizes the raw times in place.
            ResourceStrategy::BruteForce => {
                let bound = |_start: u64, base: &ResourceConfig, coords: &[f64]| {
                    if !budget.charge(coords.len() as u64) {
                        return f64::INFINITY;
                    }
                    let time = model.join_cost_row_bound(join, build, probe, base, coords);
                    objective.score_bound(time, base)
                };
                let row_fn =
                    |_start: u64, base: &ResourceConfig, coords: &[f64], out: &mut [f64]| {
                        tel.inc(Counter::BatchChunks);
                        match raqo_faults::site("cost.model.batch") {
                            Action::Fail => {
                                out.fill(f64::INFINITY);
                                return;
                            }
                            Action::Nan => out.fill(f64::NAN),
                            Action::Proceed => {
                                model.join_cost_row_at(join, build, probe, base, coords, out)
                            }
                        }
                        let bad = objective.score_row(base, coords, out);
                        if bad > 0 {
                            // Counting also flags the current trace.
                            tel.add(Counter::CostSanitizationsBatch, bad);
                        }
                    };
                brute_force_rows(&self.cluster, row_fn, bound)
            }
            ResourceStrategy::HillClimb => {
                tel.inc(Counter::HillClimbClimbs);
                let start = self.feasible_start(join, io)?;
                hill_climb(&self.cluster, start, cost_fn)
            }
            ResourceStrategy::HillClimbCached(lookup) => {
                let (lookup_span, hit_counter) = match lookup {
                    CacheLookup::Exact => ("cache.lookup.exact", Counter::CacheHitsExact),
                    CacheLookup::NearestNeighbor { .. } => {
                        ("cache.lookup.nearest", Counter::CacheHitsNearest)
                    }
                    CacheLookup::WeightedAverage { .. } => {
                        ("cache.lookup.weighted", Counter::CacheHitsWeighted)
                    }
                };
                let pair = impl_cache_id(join) as usize;
                let cached = {
                    let _lookup = tel.span(lookup_span);
                    cache.lookup(pair, io.build_gb, lookup)
                };
                if let Some(cached) = cached {
                    // Cached configurations may come from interpolation or
                    // (after re-optimization) other cluster conditions:
                    // clamp and snap to the grid before use.
                    let snapped = snap_to_grid(&self.cluster, &cached);
                    stats.cache_hits += 1;
                    tel.inc(hit_counter);
                    let (c, time) = evaluate(&snapped);
                    known_time = Some(time);
                    PlanningOutcome { config: snapped, cost: c, iterations: 1 }
                } else {
                    tel.inc(Counter::CacheMisses);
                    tel.inc(Counter::HillClimbClimbs);
                    // No search runs under a shard lock.
                    cache.release();
                    let start = self.feasible_start(join, io)?;
                    let out = hill_climb(&self.cluster, start, cost_fn);
                    if out.cost.is_finite() {
                        cache.insert(pair, io.build_gb, out.config);
                    }
                    out
                }
            }
        };
        stats.resource_iterations += outcome.iterations;
        tel.add(Counter::ResourceIterations, outcome.iterations);
        tel.observe(Hist::ResourceIterationsPerCall, outcome.iterations);
        if !outcome.cost.is_finite() {
            return None;
        }
        // Recover the raw time estimate under the chosen configuration,
        // re-applying the sanitization boundary: the winner's time feeds
        // the emitted plan directly. A cache hit evaluated it already.
        let r = outcome.config;
        if let Some(time) = known_time {
            return Some((r, time));
        }
        let time = model.join_cost_at(join, build, probe, &r)?;
        if !(time.is_finite() && time >= 0.0) {
            tel.inc(Counter::CostSanitizationsScalar);
            return None;
        }
        Some((r, time))
    }

    /// Smallest in-bounds starting configuration where `join` is feasible.
    /// Hill climbing needs this: a BHJ is infeasible (infinite cost) at the
    /// minimum allocation whenever the build side does not fit in the
    /// smallest container, and Algorithm 1 cannot cross an infinite
    /// plateau. §VIII anticipates exactly this pruning: "a broadcast join
    /// requires one relation to fit in memory".
    fn feasible_start(&self, join: JoinImpl, io: &JoinIo) -> Option<ResourceConfig> {
        let mut start = self.cluster.min;
        if join == JoinImpl::SortMerge {
            return Some(start);
        }
        let cs = self.cluster.axis(1).find(|&cs| {
            self.model.join_cost(join, io.build_gb, io.probe_gb, start.containers(), cs).is_some()
        })?;
        start.set(1, cs);
        Some(start)
    }

    /// One full `getPlanCost` evaluation (both implementations, best wins).
    fn cost_join(
        &self,
        io: &JoinIo,
        stats: &mut RaqoStats,
        cache: &mut PairGuard<'_>,
    ) -> Option<JoinDecision> {
        // Budget gate: once either limit has tripped, every remaining
        // `getPlanCost` call fails immediately and the planners drain in
        // bounded time — the optimizer's ladder takes over from there. The
        // deadline is also re-checked here so a run that stalls between
        // evaluations (not just inside them) is still caught.
        if self.budget.exhausted().is_some() || !self.budget.check_deadline() {
            return None;
        }
        if matches!(raqo_faults::site("core.plan_cost"), Action::Fail) {
            return None;
        }
        let _span = self.telemetry.span("plan_cost");
        let sw = self.telemetry.stopwatch();
        stats.plan_cost_calls += 1;
        self.telemetry.inc(Counter::PlanCostCalls);
        let mut best: Option<JoinDecision> = None;
        for join in JoinImpl::ALL {
            let Some((r, time)) = self.plan_operator(join, io, stats, cache) else { continue };
            let (nc, cs) = (r.containers(), r.container_size_gb());
            let cost = self.objective.score(time, &r);
            if !cost.is_finite() {
                continue;
            }
            let decision = JoinDecision {
                join,
                cost,
                objectives: CostVector { time_sec: time, money_tb_sec: money_of(time, &r) },
                resources: Some((nc, cs)),
                cores: (r.dims() >= 3).then(|| r.get(2)),
            };
            match &best {
                Some(b) if b.cost <= decision.cost => {}
                _ => best = Some(decision),
            }
        }
        self.telemetry.observe_elapsed_us(Hist::PlanCostLatencyUs, &sw);
        best
    }
}

/// Clamp into bounds and round onto the discrete grid.
fn snap_to_grid(cluster: &ClusterConditions, r: &ResourceConfig) -> ResourceConfig {
    let mut out = cluster.clamp(r);
    let steps = cluster.discrete_steps();
    for i in 0..out.dims() {
        let offset = out.get(i) - cluster.min.get(i);
        let snapped = cluster.min.get(i) + (offset / steps.get(i)).round() * steps.get(i);
        out.set(i, snapped.clamp(cluster.min.get(i), cluster.max.get(i)));
    }
    out
}

impl<M: OperatorCost> PlanCoster for RaqoCoster<'_, M> {
    /// A batch of one: the same path as [`PlanCoster::join_cost_many`].
    fn join_cost(&mut self, io: &JoinIo) -> Option<JoinDecision> {
        let mut decision = None;
        self.cost_in_order(std::slice::from_ref(io), |d| decision = d);
        decision
    }

    /// A DP level's batch of candidates, costed in call order under one
    /// cache guard, so `HillClimbCached` warms its cache exactly as
    /// [`PlanCoster::join_cost`] one join at a time would.
    fn join_cost_many(&mut self, ios: &[JoinIo], _: Parallelism) -> Vec<Option<JoinDecision>> {
        let mut decisions = Vec::with_capacity(ios.len());
        self.cost_in_order(ios, |d| decisions.push(d));
        decisions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raqo_cost::{JoinCostModel, SimOracleCost};
    use raqo_planner::JoinIo;

    fn io(build: f64, probe: f64) -> JoinIo {
        JoinIo { build_gb: build, probe_gb: probe, out_gb: build + probe, out_rows: 1e6 }
    }

    fn coster(strategy: ResourceStrategy) -> RaqoCoster<'static, SimOracleCost> {
        static MODEL: std::sync::OnceLock<SimOracleCost> = std::sync::OnceLock::new();
        let model = MODEL.get_or_init(SimOracleCost::hive);
        RaqoCoster::new(model, ClusterConditions::paper_default(), strategy, Objective::Time)
    }

    /// The coster's per-point search surface rebuilt from public parts: the
    /// model's time, infeasible where it is absent, NaN or negative, and
    /// scalarized under `objective` — the reference the searches must match.
    fn scorer<'m>(
        model: &'m impl OperatorCost,
        join: JoinImpl,
        io: JoinIo,
        objective: Objective,
    ) -> impl Fn(&ResourceConfig) -> f64 + 'm {
        move |r| match model.join_cost_at(join, io.build_gb, io.probe_gb, r) {
            Some(t) if t.is_finite() && t >= 0.0 => objective.score(t, r),
            _ => f64::INFINITY,
        }
    }

    /// `plan_operator` for one join, outside a batch: the configuration
    /// and time it plans, counted in `c.stats`.
    fn plan_one<M: OperatorCost>(
        c: &mut RaqoCoster<'_, M>,
        join: JoinImpl,
        io: &JoinIo,
    ) -> Option<(ResourceConfig, f64)> {
        let mut stats = c.stats;
        let planned = c.plan_operator(join, io, &mut stats, &mut c.cache_guard());
        c.stats = stats;
        planned
    }

    /// What `plan_operator` answers for a search outcome (the
    /// configuration and its raw time, `None` when nothing reachable is
    /// feasible), with the time as bits.
    fn answer(
        model: &impl OperatorCost,
        join: JoinImpl,
        io: &JoinIo,
        out: PlanningOutcome,
    ) -> Option<(ResourceConfig, u64)> {
        out.cost.is_finite().then(|| {
            let time = model.join_cost_at(join, io.build_gb, io.probe_gb, &out.config);
            (out.config, time.expect("a finite winner has a time").to_bits())
        })
    }

    fn bits(planned: Option<(ResourceConfig, f64)>) -> Option<(ResourceConfig, u64)> {
        planned.map(|(r, time)| (r, time.to_bits()))
    }

    #[test]
    fn brute_force_explores_entire_grid_per_operator() {
        let mut c = coster(ResourceStrategy::BruteForce);
        let d = c.join_cost(&io(2.0, 40.0)).expect("feasible");
        // 1000 grid points × 2 implementations.
        assert_eq!(c.stats.resource_iterations, 2000);
        assert_eq!(c.stats.plan_cost_calls, 1);
        assert!(d.resources.is_some());
        assert!(d.cost > 0.0 && d.cost.is_finite());
    }

    #[test]
    fn hill_climb_explores_far_fewer_than_brute_force() {
        // Fig. 13: "in general, hill climbing explores 4 times less
        // resource configurations than brute force". The oracle model's
        // surface is monotone in parallelism, forcing the longest possible
        // climb, so require 3× here; the Fig. 13 bench reproduces the 4×
        // on the learned model the paper used.
        let mut bf = coster(ResourceStrategy::BruteForce);
        bf.join_cost(&io(2.0, 40.0)).unwrap();
        let mut hc = coster(ResourceStrategy::HillClimb);
        hc.join_cost(&io(2.0, 40.0)).unwrap();
        assert!(
            hc.stats.resource_iterations * 3 <= bf.stats.resource_iterations,
            "hc={} bf={}",
            hc.stats.resource_iterations,
            bf.stats.resource_iterations
        );
    }

    #[test]
    fn hill_climb_quality_close_to_brute_force() {
        // Local optima are allowed, but on the engine's surfaces the
        // greedy climb should land within 25% of the global optimum.
        for join_io in [io(0.5, 20.0), io(2.0, 40.0), io(3.4, 77.0), io(6.0, 77.0)] {
            let mut bf = coster(ResourceStrategy::BruteForce);
            let db = bf.join_cost(&join_io).unwrap();
            let mut hc = coster(ResourceStrategy::HillClimb);
            let dh = hc.join_cost(&join_io).unwrap();
            assert!(
                dh.cost <= db.cost * 1.25 + 1e-9,
                "hc={} bf={} at {:?}",
                dh.cost,
                db.cost,
                join_io
            );
        }
    }

    #[test]
    fn bhj_feasible_start_skips_oom_plateau() {
        // Build side of 6 GB cannot fit a 1 GB container; hill climbing
        // must still consider BHJ by starting at a feasible container size.
        let mut hc = coster(ResourceStrategy::HillClimb);
        let d = hc.join_cost(&io(6.0, 77.0)).expect("feasible join exists");
        // Whatever wins, BHJ must have been plannable: directly check.
        let model = SimOracleCost::hive();
        let mut raw = RaqoCoster::new(
            &model,
            ClusterConditions::paper_default(),
            ResourceStrategy::HillClimb,
            Objective::Time,
        );
        let bhj = plan_one(&mut raw, JoinImpl::BroadcastHash, &io(6.0, 77.0));
        assert!(bhj.is_some(), "BHJ should be reachable via feasible start");
        let (r, _) = bhj.unwrap();
        assert!(model.join_cost(JoinImpl::BroadcastHash, 6.0, 77.0, r.containers(), r.container_size_gb()).is_some());
        assert!(d.cost.is_finite());
    }

    #[test]
    fn infeasible_everywhere_returns_none_for_that_impl() {
        // 100 GB build side never fits a 10 GB container: only SMJ remains.
        let mut hc = coster(ResourceStrategy::HillClimb);
        let d = hc.join_cost(&io(100.0, 200.0)).expect("SMJ still feasible");
        assert_eq!(d.join, JoinImpl::SortMerge);
    }

    #[test]
    fn cache_cuts_iterations_on_repeated_characteristics() {
        let mut c = coster(ResourceStrategy::HillClimbCached(CacheLookup::Exact));
        c.join_cost(&io(2.0, 40.0)).unwrap();
        let after_first = c.stats.resource_iterations;
        c.join_cost(&io(2.0, 40.0)).unwrap();
        let delta = c.stats.resource_iterations - after_first;
        // Second call: 1 re-evaluation per implementation.
        assert!(delta <= 4, "cache ineffective: {delta} iterations");
        assert_eq!(c.stats.cache_hits, 2); // SMJ + BHJ
    }

    #[test]
    fn nearest_neighbor_cache_hits_similar_sizes() {
        let mut c = coster(ResourceStrategy::HillClimbCached(CacheLookup::NearestNeighbor {
            threshold: 0.1,
        }));
        c.join_cost(&io(2.0, 40.0)).unwrap();
        let before = c.stats.resource_iterations;
        c.join_cost(&io(2.05, 40.0)).unwrap(); // within threshold
        assert!(c.stats.cache_hits >= 2);
        assert!(c.stats.resource_iterations - before <= 4);
        let before = c.stats.resource_iterations;
        c.join_cost(&io(3.5, 40.0)).unwrap(); // outside threshold
        assert!(c.stats.resource_iterations - before > 4);
    }

    #[test]
    fn weighted_average_cache_interpolates_and_snaps_to_grid() {
        let mut c = coster(ResourceStrategy::HillClimbCached(CacheLookup::WeightedAverage {
            threshold: 1.0,
        }));
        c.join_cost(&io(2.0, 40.0)).unwrap();
        c.join_cost(&io(3.0, 40.0)).unwrap();
        let d = c.join_cost(&io(2.5, 40.0)).unwrap();
        let (nc, cs) = d.resources.unwrap();
        // Snapped onto the unit grid.
        assert_eq!(nc.fract(), 0.0);
        assert_eq!(cs.fract(), 0.0);
    }

    #[test]
    fn shared_cache_carries_hits_across_costers() {
        let mut a = coster(ResourceStrategy::HillClimbCached(CacheLookup::Exact));
        a.join_cost(&io(2.0, 40.0)).unwrap();
        assert_eq!(a.stats.cache_hits, 0);
        // A second coster adopting a's bank answers straight from it: the
        // Fig. 15(b) across-query caching mode.
        let mut b = coster(ResourceStrategy::HillClimbCached(CacheLookup::Exact));
        b.share_sharded_cache(a.sharded_cache());
        b.join_cost(&io(2.0, 40.0)).unwrap();
        assert_eq!(b.stats.cache_hits, 2, "SMJ + BHJ both warm");
        assert!(b.stats.resource_iterations <= 4);
    }

    #[test]
    fn each_coster_starts_on_a_private_one_shard_bank() {
        let mut a = coster(ResourceStrategy::HillClimbCached(CacheLookup::Exact));
        let b = coster(ResourceStrategy::HillClimbCached(CacheLookup::Exact));
        assert_eq!(a.sharded_cache().shard_count(), 1);
        a.join_cost(&io(2.0, 40.0)).unwrap();
        assert_eq!(a.sharded_cache().total_entries(), 2);
        assert_eq!(b.sharded_cache().total_entries(), 0, "costers must not share by default");
    }

    #[test]
    fn sharded_cache_route_matches_single_lock_route() {
        for lookup in [
            CacheLookup::Exact,
            CacheLookup::NearestNeighbor { threshold: 0.1 },
            CacheLookup::WeightedAverage { threshold: 1.0 },
        ] {
            let ios = [io(2.0, 40.0), io(2.05, 40.0), io(3.0, 40.0), io(2.5, 40.0)];
            let mut single = coster(ResourceStrategy::HillClimbCached(lookup));
            let single_d: Vec<_> = ios.iter().map(|i| single.join_cost(i)).collect();
            let mut sharded = coster(ResourceStrategy::HillClimbCached(lookup));
            sharded.share_sharded_cache(ShardedCacheBank::with_shards(8));
            let sharded_d: Vec<_> = ios.iter().map(|i| sharded.join_cost(i)).collect();
            assert_eq!(single_d, sharded_d, "{lookup:?}");
            assert_eq!(single.stats, sharded.stats, "{lookup:?}");
            let stats = |c: &RaqoCoster<'_, SimOracleCost>| c.sharded_cache().aggregate_stats();
            assert_eq!(stats(&single), stats(&sharded), "{lookup:?}");
        }
    }

    #[test]
    fn cache_namespaces_isolate_tenants_on_one_bank() {
        let bank = ShardedCacheBank::with_shards(8);
        let mut a = coster(ResourceStrategy::HillClimbCached(CacheLookup::Exact));
        a.set_cache_namespace(1);
        a.share_sharded_cache(bank.clone());
        let mut b = coster(ResourceStrategy::HillClimbCached(CacheLookup::Exact));
        b.set_cache_namespace(2);
        b.share_sharded_cache(bank.clone());
        a.join_cost(&io(2.0, 40.0)).unwrap();
        // Same data characteristics under a different namespace: cold.
        b.join_cost(&io(2.0, 40.0)).unwrap();
        assert_eq!(b.stats.cache_hits, 0, "tenant b must not see tenant a's entries");
        // Each tenant re-planned both implementations onto the shared bank.
        assert_eq!(bank.total_entries(), 4);
        // Re-running tenant a now hits its own warm namespace.
        a.join_cost(&io(2.0, 40.0)).unwrap();
        assert_eq!(a.stats.cache_hits, 2);
    }

    #[test]
    fn objectives_never_share_cache_entries_on_one_bank() {
        let bank = ShardedCacheBank::with_shards(8);
        let objectives = [
            Objective::Time,
            Objective::Money,
            Objective::Weighted { time_weight: 0.3 },
            Objective::Weighted { time_weight: 0.7 },
            Objective::TimeUnderBudget { money_budget_tb_sec: 50.0 },
        ];
        let join_io = io(2.0, 40.0);
        for (seen, &objective) in objectives.iter().enumerate() {
            // Same namespace, same data characteristics, a bank the other
            // objectives have already filled: still a cold start, and the
            // answer a coster with a bank of its own gives.
            let mut shared = coster(ResourceStrategy::HillClimbCached(CacheLookup::Exact));
            shared.objective = objective;
            shared.share_sharded_cache(bank.clone());
            let mut alone = coster(ResourceStrategy::HillClimbCached(CacheLookup::Exact));
            alone.objective = objective;
            assert_eq!(shared.join_cost(&join_io), alone.join_cost(&join_io), "{objective:?}");
            assert_eq!(shared.stats.cache_hits, 0, "{objective:?} read another objective's entry");
            assert_eq!(bank.total_entries(), 2 * (seen + 1), "one entry per implementation");
            // Its own entries do serve it.
            shared.reset_stats();
            shared.join_cost(&join_io).unwrap();
            assert_eq!(shared.stats.cache_hits, 2, "{objective:?}");
        }
        // `Time` keeps the historical operator id; every other id is
        // non-zero and they are pairwise distinct.
        let ids: std::collections::BTreeSet<u32> =
            objectives.iter().map(|&o| operator_key(o)).collect();
        assert_eq!(operator_key(Objective::Time), 0);
        assert_eq!(ids.len(), objectives.len());
        let path = std::env::temp_dir()
            .join(format!("raqo_coster_objective_ids_{}.json", std::process::id()));
        bank.checkpoint(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let persisted: std::collections::BTreeSet<u32> = text
            .lines()
            .filter_map(|line| line.trim().strip_prefix("\"operator\": "))
            .map(|id| id.trim_end_matches(',').parse().unwrap())
            .collect();
        assert_eq!(persisted, ids, "the operator id is what a checkpoint stores");
    }

    /// The oracle model, with the first evaluation of a join held until
    /// the test lets it go (or 10 s pass, which is recorded).
    struct Gated {
        inner: SimOracleCost,
        entered: std::sync::Mutex<Option<std::sync::mpsc::Sender<()>>>,
        resume: std::sync::Mutex<std::sync::mpsc::Receiver<()>>,
        timed_out: std::sync::atomic::AtomicBool,
    }

    impl OperatorCost for Gated {
        fn join_cost(&self, j: JoinImpl, b: f64, p: f64, nc: f64, cs: f64) -> Option<f64> {
            self.inner.join_cost(j, b, p, nc, cs)
        }

        fn join_cost_at(&self, j: JoinImpl, b: f64, p: f64, r: &ResourceConfig) -> Option<f64> {
            if let Some(entered) = self.entered.lock().unwrap().take() {
                entered.send(()).unwrap();
                let wait = std::time::Duration::from_secs(10);
                if self.resume.lock().unwrap().recv_timeout(wait).is_err() {
                    self.timed_out.store(true, std::sync::atomic::Ordering::SeqCst);
                }
            }
            self.inner.join_cost_at(j, b, p, r)
        }
    }

    /// The oracle model, panicking whenever it is asked to cost a join
    /// whose build side is `.1`.
    struct PanicsAt(SimOracleCost, f64);

    impl OperatorCost for PanicsAt {
        fn join_cost(&self, j: JoinImpl, b: f64, p: f64, nc: f64, cs: f64) -> Option<f64> {
            if b == self.1 {
                panic!("injected cost-model panic at build side {b}");
            }
            self.0.join_cost(j, b, p, nc, cs)
        }
    }

    #[test]
    #[should_panic(expected = "injected cost-model panic")]
    fn a_panic_that_recurs_on_the_calling_thread_propagates() {
        // A cost-model panic is a model bug: it reaches the caller of the
        // batch.
        let ios = twelve_ios();
        let model = PanicsAt(SimOracleCost::hive(), ios[7].build_gb);
        let cluster = ClusterConditions::paper_default();
        let mut c = RaqoCoster::new(&model, cluster, ResourceStrategy::HillClimb, Objective::Time);
        c.join_cost_many(&ios, Parallelism::Off);
    }

    /// The twelve joins the batch tests cost, their build sides rising.
    fn twelve_ios() -> Vec<JoinIo> {
        (0..12).map(|k| io(0.25 + 0.5 * k as f64, 40.0)).collect()
    }

    /// The oracle model, panicking the first time it is asked to cost a
    /// join whose build side is `.1`.
    struct PanicsOnceAt(SimOracleCost, f64, std::sync::atomic::AtomicBool);

    impl OperatorCost for PanicsOnceAt {
        fn join_cost(&self, j: JoinImpl, b: f64, p: f64, nc: f64, cs: f64) -> Option<f64> {
            if b == self.1 && !self.2.swap(true, std::sync::atomic::Ordering::SeqCst) {
                panic!("injected cost-model panic at build side {b}");
            }
            self.0.join_cost(j, b, p, nc, cs)
        }
    }

    #[test]
    fn a_panic_mid_batch_leaves_the_coster_usable() {
        // The model panics once, on the eighth join. The panic unwinds out
        // of the batch, and the same coster then costs the batch again as
        // a healthy coster does after costing the seven joins before it:
        // no cache shard is left locked or poisoned.
        let ios = twelve_ios();
        let cluster = ClusterConditions::paper_default();
        let healthy = SimOracleCost::hive();
        for strategy in [
            ResourceStrategy::BruteForce,
            ResourceStrategy::HillClimb,
            ResourceStrategy::HillClimbCached(CacheLookup::Exact),
        ] {
            let mut reference = RaqoCoster::new(&healthy, cluster, strategy, Objective::Time);
            reference.join_cost_many(&ios[..7], Parallelism::Off);
            let want = reference.join_cost_many(&ios, Parallelism::Off);
            let model = PanicsOnceAt(SimOracleCost::hive(), ios[7].build_gb, Default::default());
            let mut c = RaqoCoster::new(&model, cluster, strategy, Objective::Time);
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                c.join_cost_many(&ios, Parallelism::Off)
            }));
            assert!(out.is_err(), "{strategy:?}");
            assert_eq!(c.join_cost_many(&ios, Parallelism::Off), want, "{strategy:?}");
        }
    }

    /// The oracle model, logging the thread and the build side of every
    /// evaluation.
    struct CallLog(SimOracleCost, std::sync::Mutex<Vec<(std::thread::ThreadId, f64)>>);

    impl OperatorCost for CallLog {
        fn join_cost(&self, j: JoinImpl, b: f64, p: f64, nc: f64, cs: f64) -> Option<f64> {
            self.1.lock().unwrap().push((std::thread::current().id(), b));
            self.0.join_cost(j, b, p, nc, cs)
        }
    }

    #[test]
    fn a_batch_is_costed_on_the_calling_thread_in_call_order() {
        // Every evaluation runs on the thread that hands the batch over,
        // and a join is evaluated only once the one before it is done.
        let ios = twelve_ios();
        let caller = std::thread::current().id();
        for strategy in [
            ResourceStrategy::BruteForce,
            ResourceStrategy::HillClimb,
            ResourceStrategy::HillClimbCached(CacheLookup::Exact),
        ] {
            let model = CallLog(SimOracleCost::hive(), Default::default());
            let cluster = ClusterConditions::paper_default();
            let mut c = RaqoCoster::new(&model, cluster, strategy, Objective::Time);
            let decisions = c.join_cost_many(&ios, Parallelism::Off);
            assert!(decisions.iter().all(Option::is_some), "{strategy:?}");
            drop(c);
            let log = model.1.into_inner().unwrap();
            assert!(log.iter().all(|&(thread, _)| thread == caller), "{strategy:?}");
            let mut order: Vec<f64> = log.iter().map(|&(_, build)| build).collect();
            order.dedup();
            let want: Vec<f64> = ios.iter().map(|io| io.build_gb).collect();
            assert_eq!(order, want, "{strategy:?}");
        }
    }

    #[test]
    fn an_empty_batch_answers_nothing_and_counts_nothing() {
        // The counters are taken out for a batch and put back after it:
        // an empty batch neither clears nor adds to them.
        for strategy in [
            ResourceStrategy::BruteForce,
            ResourceStrategy::HillClimb,
            ResourceStrategy::HillClimbCached(CacheLookup::Exact),
        ] {
            let tel = Telemetry::enabled();
            let mut c = coster(strategy).with_telemetry(tel.clone());
            assert!(c.join_cost_many(&[], Parallelism::Off).is_empty(), "{strategy:?}");
            assert_eq!(c.stats, RaqoStats::default(), "{strategy:?}");
            let snap = tel.snapshot().unwrap();
            assert_eq!(snap.get(Counter::PlanCostCalls), 0, "{strategy:?}");
            assert_eq!(snap.get(Counter::ResourceIterations), 0, "{strategy:?}");
            c.join_cost(&io(2.0, 40.0)).expect("feasible");
            let after_one = c.stats;
            assert!(after_one.plan_cost_calls == 1 && after_one.resource_iterations > 0);
            assert!(c.join_cost_many(&[], Parallelism::Off).is_empty(), "{strategy:?}");
            assert_eq!(c.stats, after_one, "{strategy:?}");
        }
    }

    #[test]
    fn a_cached_batch_hits_what_it_warmed_earlier_in_the_batch() {
        // One cache guard serves the whole batch; it still sees the entries
        // the batch's own earlier joins put in.
        let ios = [io(2.0, 40.0), io(6.0, 77.0), io(2.0, 40.0)];
        let strategy = ResourceStrategy::HillClimbCached(CacheLookup::Exact);
        let mut c = coster(strategy);
        let decisions = c.join_cost_many(&ios, Parallelism::Off);
        assert_eq!(c.stats.cache_hits, 2); // SMJ + BHJ of the repeated join
        assert_eq!(decisions[2], decisions[0]);
        let mut first_two = coster(strategy);
        first_two.join_cost_many(&ios[..2], Parallelism::Off);
        let repeat = c.stats.resource_iterations - first_two.stats.resource_iterations;
        // One re-evaluation per implementation.
        assert!(repeat <= 4, "cache ineffective: {repeat} iterations");
    }

    /// Algorithm 1 as the coster runs it, rebuilt from public parts: one
    /// climb over the per-point surface, from the smallest allocation at
    /// which `join` is feasible (a BHJ whose build side does not fit the
    /// smallest container starts on a larger one); `None` when no
    /// container size of the smallest allocation fits it.
    fn reference_climb(
        model: &impl OperatorCost,
        cluster: &ClusterConditions,
        join: JoinImpl,
        join_io: JoinIo,
    ) -> Option<PlanningOutcome> {
        let start = cluster.axis(1).map(|cs| cluster.min.with_last(cs)).find(|r| {
            join == JoinImpl::SortMerge
                || model.join_cost_at(join, join_io.build_gb, join_io.probe_gb, r).is_some()
        })?;
        Some(hill_climb(cluster, start, scorer(model, join, join_io, Objective::Time)))
    }

    #[test]
    fn hill_climb_through_the_coster_is_algorithm_1_from_the_feasible_start() {
        let model = SimOracleCost::hive();
        let cluster = ClusterConditions::paper_default();
        for join_io in [io(0.5, 20.0), io(2.0, 40.0), io(6.0, 77.0), io(100.0, 200.0)] {
            for join in JoinImpl::ALL {
                let mut c =
                    RaqoCoster::new(&model, cluster, ResourceStrategy::HillClimb, Objective::Time);
                let got = bits(plan_one(&mut c, join, &join_io));
                let what = format!("{join:?} {join_io:?}");
                match reference_climb(&model, &cluster, join, join_io) {
                    Some(want) => {
                        assert_eq!(got, answer(&model, join, &join_io, want), "{what}");
                        assert_eq!(c.stats.resource_iterations, want.iterations, "{what}");
                    }
                    None => {
                        assert_eq!(got, None, "{what}");
                        assert_eq!(c.stats.resource_iterations, 0, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_batch_climbs_each_join_once_from_its_feasible_start() {
        // Each join of the batch is climbed once per implementation, from
        // its feasible start: the iterations are those climbs' sum.
        let model = SimOracleCost::hive();
        let cluster = ClusterConditions::paper_default();
        let ios = [io(0.5, 20.0), io(2.0, 40.0), io(6.0, 77.0), io(9.0, 77.0)];
        let want: u64 = ios
            .iter()
            .flat_map(|&join_io| JoinImpl::ALL.map(|join| (join, join_io)))
            .filter_map(|(join, join_io)| reference_climb(&model, &cluster, join, join_io))
            .map(|climb| climb.iterations)
            .sum();
        let mut c = RaqoCoster::new(&model, cluster, ResourceStrategy::HillClimb, Objective::Time);
        c.join_cost_many(&ios, Parallelism::Off);
        assert_eq!(c.stats.resource_iterations, want);
        assert_eq!(c.stats.plan_cost_calls, ios.len() as u64);
    }

    #[test]
    fn the_climber_probes_the_scalar_model_and_the_scan_its_row_kernel() {
        for (strategy, climbs, scans) in
            [(ResourceStrategy::BruteForce, 0, true), (ResourceStrategy::HillClimb, 2, false)]
        {
            let tel = Telemetry::enabled();
            let mut c = coster(strategy).with_telemetry(tel.clone());
            c.join_cost(&io(2.0, 40.0)).expect("feasible");
            let snap = tel.snapshot().unwrap();
            assert_eq!(snap.get(Counter::HillClimbClimbs), climbs, "{strategy:?}");
            assert_eq!(snap.get(Counter::BatchChunks) > 0, scans, "{strategy:?}");
            assert_eq!(
                snap.get(Counter::ResourceIterations),
                c.stats.resource_iterations,
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn hill_climb_under_an_eval_cap_never_evaluates_past_it() {
        use raqo_resource::{BudgetTrigger, PlanningBudget};
        use std::sync::atomic::{AtomicU64, Ordering};

        /// Counts the configurations a search asks the wrapped model about
        /// (the feasible-start probe asks through `join_cost` and is free).
        struct Counting(JoinCostModel, AtomicU64);
        impl OperatorCost for Counting {
            fn join_cost(&self, j: JoinImpl, b: f64, p: f64, nc: f64, cs: f64) -> Option<f64> {
                self.0.join_cost(j, b, p, nc, cs)
            }
            fn join_cost_at(&self, j: JoinImpl, b: f64, p: f64, r: &ResourceConfig) -> Option<f64> {
                self.1.fetch_add(1, Ordering::Relaxed);
                self.0.join_cost_at(j, b, p, r)
            }
        }
        fn climber(model: &Counting) -> RaqoCoster<'_, Counting> {
            let cluster = ClusterConditions::paper_default();
            RaqoCoster::new(model, cluster, ResourceStrategy::HillClimb, Objective::Time)
        }

        let unbounded = Counting(JoinCostModel::trained_hive(), AtomicU64::new(0));
        climber(&unbounded).join_cost(&io(3.4, 77.0)).expect("feasible");
        let full = unbounded.1.load(Ordering::Relaxed);
        assert!(full > 100, "{full} evaluations");

        for cap in [1, 4, 5, 12, 50, full / 2] {
            let model = Counting(JoinCostModel::trained_hive(), AtomicU64::new(0));
            let mut c = climber(&model);
            c.budget = Arc::new(BudgetTracker::start(PlanningBudget::with_max_evals(cap)));
            c.join_cost(&io(3.4, 77.0));
            let evaluated = model.1.load(Ordering::Relaxed);
            // A refused evaluation never reaches the model; beyond the cap
            // only each finite winner's time is read once more.
            assert!(
                evaluated <= cap + JoinImpl::ALL.len() as u64,
                "cap {cap}: {evaluated} evaluations"
            );
            assert_eq!(c.budget.exhausted(), Some(BudgetTrigger::Evals), "cap {cap}");
            assert_eq!(c.join_cost(&io(3.4, 77.0)), None, "cap {cap}");
            assert_eq!(model.1.load(Ordering::Relaxed), evaluated, "cap {cap}");
        }
    }

    /// A missed lookup's hill climb runs with the cache unlocked: while the
    /// climb is stuck inside the model, another thread looks up the same
    /// shard. Were the climb under the lock, that lookup would wait for the
    /// climb and the climb for the lookup; the model's bounded wait turns
    /// that deadlock into a failure.
    #[test]
    fn hill_climbs_run_outside_the_shard_lock() {
        use std::sync::mpsc::channel;
        let (entered_tx, entered_rx) = channel();
        let (resume_tx, resume_rx) = channel();
        let model = Gated {
            inner: SimOracleCost::hive(),
            entered: std::sync::Mutex::new(Some(entered_tx)),
            resume: std::sync::Mutex::new(resume_rx),
            timed_out: Default::default(),
        };
        let bank = ShardedCacheBank::with_shards(1);
        let cached = ResourceStrategy::HillClimbCached(CacheLookup::Exact);
        let mut c = RaqoCoster::new(&model, ClusterConditions::paper_default(), cached, Objective::Time);
        c.share_sharded_cache(bank.clone());
        std::thread::scope(|scope| {
            let climber = scope.spawn(move || c.join_cost_many(&[io(2.0, 40.0), io(3.0, 40.0)], Parallelism::Off));
            entered_rx.recv_timeout(std::time::Duration::from_secs(10)).expect("the climb starts");
            bank.lookup(0, 0, 2.0, CacheLookup::Exact);
            resume_tx.send(()).unwrap();
            assert!(climber.join().unwrap().iter().all(Option::is_some));
        });
        assert!(!model.timed_out.load(std::sync::atomic::Ordering::SeqCst), "the climb held the lock");
    }

    /// Costers whose SMJ and BHJ caches sit on the same two shards in
    /// opposite orders, costing batches of warm and cold joins while other
    /// threads compact and checkpoint the bank: nothing deadlocks (a
    /// watchdog fails the test instead), and every decision is the one a
    /// coster on a bank of its own makes — under exact lookups a hit and a
    /// fresh climb choose the same configuration.
    #[test]
    fn opposite_shard_orders_soak_with_compaction_and_checkpoints() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::mpsc::{channel, RecvTimeoutError};
        let bank = ShardedCacheBank::with_shards(8);
        let shards = |ns: u32| {
            let shard = |join| bank.shard_of(model_key(ns, join), 0);
            (shard(JoinImpl::SortMerge), shard(JoinImpl::BroadcastHash))
        };
        let (a, b) = (1..)
            .filter(|&a| shards(a).0 < shards(a).1)
            .find_map(|a| {
                let (smj, bhj) = shards(a);
                (1..4096).find(|&b| shards(b) == (bhj, smj)).map(|b| (a, b))
            })
            .expect("namespaces on the same shards, opposite orders");

        let ios: Vec<JoinIo> = (0..24).map(|k| io(0.25 + 0.5 * (k % 12) as f64, 40.0)).collect();
        let cached = ResourceStrategy::HillClimbCached(CacheLookup::Exact);
        let want = coster(cached).join_cost_many(&ios, Parallelism::Off);
        let done = std::sync::Arc::new(AtomicBool::new(false));
        let (finished_tx, finished_rx) = channel();
        let mut workers = Vec::new();
        for ns in [a, b, a, b] {
            let (bank, ios, want, finished) =
                (bank.clone(), ios.clone(), want.clone(), finished_tx.clone());
            workers.push(std::thread::spawn(move || {
                let mut c = coster(cached);
                c.set_cache_namespace(ns);
                c.share_sharded_cache(bank);
                for round in 0..400 {
                    assert_eq!(c.join_cost_many(&ios, Parallelism::Off), want, "ns {ns} round {round}");
                }
                finished.send(()).unwrap();
            }));
        }
        let dir = std::env::temp_dir().join(format!("raqo_guard_soak_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        drop(finished_tx);
        let housekeeping = {
            let (bank, done, path) = (bank.clone(), done.clone(), dir.join("bank.json"));
            std::thread::spawn(move || {
                while !done.load(Ordering::SeqCst) {
                    bank.compact(16);
                    bank.checkpoint(&path).unwrap();
                }
            })
        };
        for _ in 0..workers.len() {
            // Disconnected: a coster failed, and its join below says how.
            let wait = finished_rx.recv_timeout(std::time::Duration::from_secs(120));
            if let Err(RecvTimeoutError::Timeout) = wait {
                panic!("a coster neither finished nor failed: deadlock");
            }
        }
        done.store(true, Ordering::SeqCst);
        for worker in workers {
            worker.join().unwrap();
        }
        housekeeping.join().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn namespace_zero_uses_historical_model_ids() {
        assert_eq!(model_key(0, JoinImpl::SortMerge), 0);
        assert_eq!(model_key(0, JoinImpl::BroadcastHash), 1);
        assert_eq!(model_key(3, JoinImpl::SortMerge), 6);
        assert_eq!(model_key(3, JoinImpl::BroadcastHash), 7);
    }

    #[test]
    fn money_objective_prefers_cheaper_configs_than_time_objective() {
        let model = SimOracleCost::hive();
        let mut time_c = RaqoCoster::new(
            &model,
            ClusterConditions::paper_default(),
            ResourceStrategy::BruteForce,
            Objective::Time,
        );
        let mut money_c = RaqoCoster::new(
            &model,
            ClusterConditions::paper_default(),
            ResourceStrategy::BruteForce,
            Objective::Money,
        );
        let dt = time_c.join_cost(&io(2.0, 77.0)).unwrap();
        let dm = money_c.join_cost(&io(2.0, 77.0)).unwrap();
        assert!(dm.objectives.money_tb_sec <= dt.objectives.money_tb_sec + 1e-9);
        assert!(dm.objectives.time_sec >= dt.objectives.time_sec - 1e-9);
    }

    #[test]
    fn budget_objective_respects_budget() {
        let model = SimOracleCost::hive();
        // First find the unconstrained money-optimal to set a tight budget.
        let mut money_c = RaqoCoster::new(
            &model,
            ClusterConditions::paper_default(),
            ResourceStrategy::BruteForce,
            Objective::Money,
        );
        let cheapest = money_c.join_cost(&io(2.0, 77.0)).unwrap().objectives.money_tb_sec;
        let budget = cheapest * 1.5;
        let mut budget_c = RaqoCoster::new(
            &model,
            ClusterConditions::paper_default(),
            ResourceStrategy::BruteForce,
            Objective::TimeUnderBudget { money_budget_tb_sec: budget },
        );
        let d = budget_c.join_cost(&io(2.0, 77.0)).unwrap();
        assert!(d.objectives.money_tb_sec <= budget + 1e-9);
        // Impossible budget: no decision at all.
        let mut strict = RaqoCoster::new(
            &model,
            ClusterConditions::paper_default(),
            ResourceStrategy::BruteForce,
            Objective::TimeUnderBudget { money_budget_tb_sec: cheapest * 0.5 },
        );
        assert!(strict.join_cost(&io(2.0, 77.0)).is_none());
    }

    /// Ten containers × a thousand container sizes in 1/128 GB steps: rows
    /// long enough to be cut into several [`BATCH_CHUNK`] slices.
    fn grid_10_by_1000() -> ClusterConditions {
        let cluster = ClusterConditions::two_dim(1.0..=10.0, 1.0..=8.8046875, 1.0, 0.0078125);
        assert_eq!((cluster.points_along(0), cluster.points_along(1)), (10, 1000));
        cluster
    }

    #[test]
    fn row_scan_winners_match_the_point_wise_scan_under_every_objective() {
        let model = JoinCostModel::trained_hive_extended();
        for objective in [
            Objective::Time,
            Objective::Money,
            Objective::Weighted { time_weight: 0.3 },
            Objective::TimeUnderBudget { money_budget_tb_sec: 2.0 },
            // A budget nothing meets: every point is rejected.
            Objective::TimeUnderBudget { money_budget_tb_sec: 0.0 },
        ] {
            for join_io in [io(0.5, 20.0), io(3.4, 77.0), io(9.0, 77.0), io(100.0, 200.0)] {
                let cluster = grid_10_by_1000();
                let mut c =
                    RaqoCoster::new(&model, cluster, ResourceStrategy::BruteForce, objective);
                for join in JoinImpl::ALL {
                    let surface = scorer(&model, join, join_io, objective);
                    let point_wise = raqo_resource::brute_force(&cluster, surface);
                    assert_eq!(point_wise.iterations, 10_000);
                    assert_eq!(
                        bits(plan_one(&mut c, join, &join_io)),
                        answer(&model, join, &join_io, point_wise),
                        "{objective:?} {join_io:?} {join:?}"
                    );
                }
                assert_eq!(c.stats.resource_iterations, 20_000);
            }
        }
    }

    #[test]
    fn brute_force_under_an_eval_cap_overshoots_by_at_most_one_slice() {
        use raqo_resource::{BudgetTrigger, PlanningBudget, BATCH_CHUNK};
        use std::sync::atomic::{AtomicU64, Ordering};

        /// Counts the grid points the wrapped model is actually asked about.
        struct Counting(JoinCostModel, AtomicU64);
        impl OperatorCost for Counting {
            fn join_cost(&self, j: JoinImpl, b: f64, p: f64, nc: f64, cs: f64) -> Option<f64> {
                self.1.fetch_add(1, Ordering::Relaxed);
                self.0.join_cost(j, b, p, nc, cs)
            }
            fn join_cost_row_at(
                &self,
                j: JoinImpl,
                b: f64,
                p: f64,
                base: &ResourceConfig,
                coords: &[f64],
                out: &mut [f64],
            ) {
                self.1.fetch_add(coords.len() as u64, Ordering::Relaxed);
                self.0.join_cost_row_at(j, b, p, base, coords, out)
            }
        }

        for cap in [1, 255, 256, 1000, 1024, 5000] {
            let model = Counting(JoinCostModel::trained_hive(), AtomicU64::new(0));
            let mut c = RaqoCoster::new(
                &model,
                grid_10_by_1000(),
                ResourceStrategy::BruteForce,
                Objective::Time,
            );
            c.budget = Arc::new(BudgetTracker::start(PlanningBudget::with_max_evals(cap)));
            let first = c.join_cost(&io(3.4, 77.0));
            let evaluated = model.1.load(Ordering::Relaxed);
            // `+ 1`: the winner's time is re-read once after the scan.
            assert!(
                evaluated <= cap + BATCH_CHUNK as u64 + 1,
                "cap {cap}: {evaluated} evaluations"
            );
            assert_eq!(c.budget.exhausted(), Some(BudgetTrigger::Evals));
            // Whatever the scan saw before the cap is a usable decision;
            // once exhausted, later calls drain immediately.
            assert_eq!(first.is_some(), evaluated > 1, "cap {cap}");
            assert_eq!(c.join_cost(&io(3.4, 77.0)), None);
            assert_eq!(model.1.load(Ordering::Relaxed), evaluated);
        }
    }

    #[test]
    fn snap_to_grid_rounds_and_clamps() {
        let cluster = ClusterConditions::paper_default();
        let r = snap_to_grid(&cluster, &ResourceConfig::containers_and_size(10.4, 3.6));
        assert_eq!(r, ResourceConfig::containers_and_size(10.0, 4.0));
        let r = snap_to_grid(&cluster, &ResourceConfig::containers_and_size(400.0, 0.2));
        assert_eq!(r, ResourceConfig::containers_and_size(100.0, 1.0));
    }

    #[test]
    fn score_bounds_are_the_score_at_the_least_time_and_point() {
        let first = ResourceConfig::containers_and_size(4.0, 2.0);
        let later = [first, first.with_last(2.5), ResourceConfig::containers_and_size(4.0, 9.0)];
        for objective in EVERY_OBJECTIVE {
            for t in [0.0, 0.5, 3.0, 1e6] {
                let bound = objective.score_bound(t, &first);
                match objective {
                    Objective::Weighted { time_weight } if !(0.0..=1.0).contains(&time_weight) => {
                        assert_eq!(bound, f64::NEG_INFINITY, "{objective:?}");
                    }
                    Objective::TimeUnderBudget { .. } => assert_eq!(bound, t, "{objective:?}"),
                    _ => assert_eq!(bound, objective.score(t, &first), "{objective:?} t {t}"),
                }
                for r in later {
                    for more in [0.0, 0.25, 7.0] {
                        let score = objective.score(t + more, &r);
                        assert!(bound <= score, "{objective:?} t {t} {r:?}: {bound} > {score}");
                    }
                }
            }
            // Below zero the time bound is clamped; no bound and +∞ pass through.
            assert_eq!(objective.score_bound(-3.0, &first), objective.score_bound(0.0, &first));
            assert_eq!(objective.score_bound(f64::NEG_INFINITY, &first), f64::NEG_INFINITY);
            assert_eq!(objective.score_bound(f64::INFINITY, &first), f64::INFINITY);
        }
        let negative = ResourceConfig::containers_and_size(4.0, -1.0);
        assert_eq!(Objective::Money.score_bound(1.0, &negative), f64::NEG_INFINITY);
    }

    /// The exhaustive `(cost, grid index)` minimum a brute-force search
    /// must reproduce, point by point over `cluster.grid()`, charging
    /// `budget` one row slice at a time (at most [`BATCH_CHUNK`] points, in
    /// grid order) and scoring a refused slice `+∞`, as the coster does.
    fn exhaustive(
        model: &impl OperatorCost,
        cluster: &ClusterConditions,
        join: JoinImpl,
        io: &JoinIo,
        objective: Objective,
        budget: &BudgetTracker,
    ) -> Option<(ResourceConfig, u64)> {
        use raqo_resource::BATCH_CHUNK;
        let row_len = cluster.points_along(cluster.dims() - 1);
        let surface = scorer(model, join, *io, objective);
        let (mut best, mut refused) = ((cluster.min, f64::INFINITY), false);
        for (i, r) in cluster.grid().enumerate() {
            let at = i as u64 % row_len;
            if at.is_multiple_of(BATCH_CHUNK as u64) {
                refused = !budget.charge((row_len - at).min(BATCH_CHUNK as u64));
            }
            let cost = if refused { f64::INFINITY } else { surface(&r) };
            if cost < best.1 {
                best = (r, cost);
            }
        }
        let iterations = cluster.grid().count() as u64;
        answer(model, join, io, PlanningOutcome { config: best.0, cost: best.1, iterations })
    }

    /// `plan_operator` under `BruteForce` against [`exhaustive`] on one
    /// grid: the answer to the bit, the iterations, and the evaluations the
    /// budget was charged (a fresh tracker of `max_evals` on each side).
    fn assert_brute_force_is_exhaustive(
        model: &impl OperatorCost,
        cluster: ClusterConditions,
        io: &JoinIo,
        objective: Objective,
        max_evals: Option<u64>,
    ) {
        use raqo_resource::PlanningBudget;
        let budget = PlanningBudget { deadline: None, max_evals };
        for join in JoinImpl::ALL {
            let mut c = RaqoCoster::new(model, cluster, ResourceStrategy::BruteForce, objective);
            c.budget = Arc::new(BudgetTracker::start(budget));
            let naive = BudgetTracker::start(budget);
            let want = exhaustive(model, &cluster, join, io, objective, &naive);
            let what = format!("{objective:?} {io:?} {join:?} {max_evals:?} {cluster:?}");
            assert_eq!(bits(plan_one(&mut c, join, io)), want, "{what}");
            assert_eq!(c.stats.resource_iterations, cluster.grid_size(), "{what}");
            assert_eq!(c.budget.evals_used(), naive.evals_used(), "{what}");
        }
    }

    fn trained_models() -> &'static [JoinCostModel; 3] {
        static MODELS: std::sync::OnceLock<[JoinCostModel; 3]> = std::sync::OnceLock::new();
        MODELS.get_or_init(|| {
            [
                JoinCostModel::paper_hive(),
                JoinCostModel::trained_hive(),
                JoinCostModel::trained_hive_extended(),
            ]
        })
    }

    const EVERY_OBJECTIVE: [Objective; 6] = [
        Objective::Time,
        Objective::Money,
        Objective::Weighted { time_weight: 0.3 },
        // A weight outside [0, 1]: money counts against the score, which
        // is no longer nondecreasing, so nothing is bounded.
        Objective::Weighted { time_weight: 1.5 },
        Objective::TimeUnderBudget { money_budget_tb_sec: 2.0 },
        Objective::TimeUnderBudget { money_budget_tb_sec: 0.0 },
    ];

    proptest::proptest! {
        /// The bounded brute-force scan is the exhaustive one: random 2-D
        /// grids with 0.1, 1/128 and unit steps and 3-D grids with cores,
        /// every objective, published / trained / extended coefficients and
        /// the simulator (which bounds nothing), unlimited budgets and
        /// eval caps that run out mid-grid.
        #[test]
        fn bounded_brute_force_is_the_exhaustive_scan(
            nc_max in 1usize..12,
            cs_min in 0.5f64..2.0,
            step_kind in 0usize..3,
            len in 1usize..400,
            cores in 0usize..4,
            build in 0.05f64..12.0,
            cap_frac in 0.0f64..1.2,
        ) {
            let step = [0.1, 1.0 / 128.0, 1.0][step_kind];
            let cs_min = (cs_min * 10.0).round() / 10.0;
            let cs_max = cs_min + (len - 1) as f64 * step;
            let cluster = if cores == 0 {
                ClusterConditions::two_dim(1.0..=nc_max as f64, cs_min..=cs_max, 1.0, step)
            } else {
                let max = [nc_max as f64, cs_min + 10.0 * step, cores as f64];
                ClusterConditions::new(
                    ResourceConfig::from_slice(&[1.0, cs_min, 1.0]),
                    ResourceConfig::from_slice(&max),
                    ResourceConfig::from_slice(&[1.0, step, 1.0]),
                )
            };
            let points = cluster.grid_size();
            let io = io(build, 77.0);
            let cap = (cap_frac * points as f64) as u64;
            for objective in EVERY_OBJECTIVE {
                for max_evals in [None, Some(cap)] {
                    for model in trained_models() {
                        assert_brute_force_is_exhaustive(model, cluster, &io, objective, max_evals);
                    }
                    let oracle = SimOracleCost::hive();
                    assert_brute_force_is_exhaustive(&oracle, cluster, &io, objective, max_evals);
                }
            }
        }
    }

    #[test]
    fn bounded_brute_force_is_the_exhaustive_scan_on_a_long_grid() {
        // 120 × 1000 points: far more slices than the proptest's grids, so
        // the bound prunes most of a long pricing order.
        let cluster = ClusterConditions::two_dim(1.0..=120.0, 1.0..=8.8046875, 1.0, 0.0078125);
        assert_eq!(cluster.grid_size(), 120_000);
        for objective in [Objective::Time, Objective::Money] {
            for model in trained_models() {
                assert_brute_force_is_exhaustive(model, cluster, &io(3.4, 77.0), objective, None);
            }
        }
    }

    #[test]
    fn brute_force_on_a_long_grid_answers_as_one_call_at_a_time() {
        // 200 000 points per search: a batch runs whole bounded scans of
        // its joins, one after another, and answers exactly as one
        // `join_cost` call per join does.
        let cluster = ClusterConditions::two_dim(1.0..=1000.0, 1.0..=200.0, 1.0, 1.0);
        let ios = [io(0.5, 20.0), io(2.0, 40.0), io(6.0, 77.0)];
        let model = &trained_models()[1];
        let coster =
            || RaqoCoster::new(model, cluster, ResourceStrategy::BruteForce, Objective::Time);
        let mut batch = coster();
        let got = batch.join_cost_many(&ios, Parallelism::Off);
        assert_eq!(batch.stats.resource_iterations, 3 * 2 * 200_000);
        let mut single = coster();
        let want: Vec<_> = ios.iter().map(|io| single.join_cost(io)).collect();
        assert_eq!((got, batch.stats), (want, single.stats));
    }

    #[test]
    fn hill_climb_reaches_a_bhj_feasible_only_in_the_last_column() {
        // `0.1 + 0.1 + 0.1` overshoots 0.3: the grid's last column lies just
        // past `max`, and a build side that fits nowhere before it.
        let cluster = ClusterConditions::two_dim(1.0..=4.0, 0.1..=0.3, 1.0, 0.1);
        let last = cluster.axis(1).last().unwrap();
        assert!(last > 0.3);
        let model = JoinCostModel::trained_hive();
        let join_io = io(0.25 * model.bhj_capacity_per_gb, 77.0);
        let plan = |strategy| {
            let mut c = RaqoCoster::new(&model, cluster, strategy, Objective::Time);
            plan_one(&mut c, JoinImpl::BroadcastHash, &join_io)
        };
        let (brute, _) = plan(ResourceStrategy::BruteForce).expect("brute force plans the BHJ");
        assert_eq!(brute.container_size_gb(), last);
        for strategy in [
            ResourceStrategy::HillClimb,
            ResourceStrategy::HillClimbCached(CacheLookup::Exact),
        ] {
            let (climbed, _) = plan(strategy).expect("the climb plans the BHJ");
            assert_eq!(climbed.container_size_gb(), last, "{strategy:?}");
            assert!(cluster.contains(&climbed), "{strategy:?}");
        }
    }

    #[test]
    fn set_cluster_changes_search_bounds() {
        let model = SimOracleCost::hive();
        let mut c = RaqoCoster::new(
            &model,
            ClusterConditions::two_dim(1.0..=4.0, 1.0..=2.0, 1.0, 1.0),
            ResourceStrategy::BruteForce,
            Objective::Time,
        );
        let d_small = c.join_cost(&io(0.5, 20.0)).unwrap();
        let (nc, cs) = d_small.resources.unwrap();
        assert!(nc <= 4.0 && cs <= 2.0);
        c.set_cluster(ClusterConditions::paper_default());
        c.reset_stats();
        let d_big = c.join_cost(&io(0.5, 20.0)).unwrap();
        assert!(d_big.cost <= d_small.cost);
        assert_eq!(c.stats.resource_iterations, 2000);
    }
}
