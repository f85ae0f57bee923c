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

use crate::probes;
use crate::shared::Shared;
use raqo_cost::objective::CostVector;
use raqo_cost::OperatorCost;
use raqo_planner::{JoinDecision, JoinIo, PlanCoster};
use raqo_resource::{
    brute_force_rows, hill_climb, hill_climb_multi, BudgetTracker, CacheLookup, CacheStats,
    ClusterConditions, PairGuard, Parallelism, PlanningOutcome, ResourceConfig, ShardedCacheBank,
};
use raqo_sim::engine::JoinImpl;
use raqo_telemetry::{Counter, Hist, MetricsSnapshot, Telemetry};
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
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
    /// Parallelism of the per-operator resource search.
    /// [`Parallelism::Off`] (the default) preserves the sequential planners'
    /// evaluation order and iteration accounting exactly, keeping the
    /// Figs. 12–14 counters reproducible. `Threads(n)`/`Auto` split a large
    /// brute-force grid across workers (bit-identical result); under
    /// [`ResourceStrategy::HillClimb`] they select deterministic multi-start
    /// climbing, which runs its seeds in lock-step on the calling thread and
    /// spawns no thread.
    pub parallelism: Parallelism,
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

impl<'a, M: OperatorCost + Send + Sync> RaqoCoster<'a, M> {
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
            parallelism: Parallelism::Off,
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

    /// Builder form of setting [`RaqoCoster::parallelism`].
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Builder form of setting the tenant/workload cache namespace (see
    /// [`model_key`]). Namespace 0 — the default — is the historical
    /// single-tenant id space.
    pub fn with_cache_namespace(mut self, namespace: u32) -> Self {
        self.cache_namespace = namespace;
        self
    }

    /// Switch the tenant/workload cache namespace (the planning service
    /// sets this per request).
    pub fn set_cache_namespace(&mut self, namespace: u32) {
        self.cache_namespace = namespace;
    }

    /// Clear the resource-plan cache (the evaluation clears it between
    /// queries unless across-query caching is under test, §VII).
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }

    /// Aggregate cache statistics.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.aggregate_stats()
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

    /// Resource-plan one operator implementation for one join. Returns the
    /// chosen configuration and its *time* estimate, or `None` when the
    /// implementation is infeasible everywhere reachable.
    #[cfg(test)]
    fn plan_operator(&mut self, join: JoinImpl, io: &JoinIo) -> Option<(ResourceConfig, f64)> {
        let ctx = CostCtx {
            model: &*self.model,
            cluster: &self.cluster,
            strategy: self.strategy,
            objective: self.objective,
            parallelism: self.parallelism,
            cache: &self.cache,
            cache_namespace: self.cache_namespace,
            tel: &self.telemetry,
            budget: &self.budget,
        };
        ctx.plan_operator(join, io, &mut self.stats, &mut ctx.cache_guard())
    }

    /// Cost `ios` one after another on this thread, handing each decision
    /// to `emit`. Under [`ResourceStrategy::HillClimbCached`] one
    /// [`PairGuard`] serves the whole batch: the shards of the SMJ and BHJ
    /// caches are locked once, and let go only around each hill climb.
    fn cost_in_order(&mut self, ios: &[JoinIo], mut emit: impl FnMut(Option<JoinDecision>)) {
        let ctx = CostCtx {
            model: &*self.model,
            cluster: &self.cluster,
            strategy: self.strategy,
            objective: self.objective,
            parallelism: self.parallelism,
            cache: &self.cache,
            cache_namespace: self.cache_namespace,
            tel: &self.telemetry,
            budget: &self.budget,
        };
        let mut cache = ctx.cache_guard();
        for io in ios {
            emit(ctx.cost_join(io, &mut self.stats, &mut cache));
        }
    }
}

/// The read-only inputs of one `getPlanCost` evaluation, split off the
/// coster so [`PlanCoster::join_cost_many`] can fan independent joins out
/// over scoped threads: each worker borrows the context immutably and owns
/// a local [`RaqoStats`] that is summed back deterministically.
struct CostCtx<'c, M> {
    model: &'c M,
    cluster: &'c ClusterConditions,
    strategy: ResourceStrategy,
    objective: Objective,
    /// Resource-search parallelism *inside* one join's planning.
    parallelism: Parallelism,
    cache: &'c ShardedCacheBank,
    cache_namespace: u32,
    /// Shared with every fan-out worker: counters are atomic, and spans
    /// opened on worker threads parent under the spawning thread's span
    /// via the `TraceScope` captured before the fan-out.
    tel: &'c Telemetry,
    /// Shared planning-budget tracker; every cost-model evaluation charges
    /// one unit against it (atomic, so fan-out workers share one pool).
    budget: &'c BudgetTracker,
}

impl<'c, M: OperatorCost + Send + Sync> CostCtx<'c, M> {
    /// A guard over this context's SMJ and BHJ caches, pair
    /// `impl_cache_id(join)` each. It locks nothing until a cached lookup.
    fn cache_guard(&self) -> PairGuard<'c> {
        let operator = operator_key(self.objective);
        let pair = |join| (model_key(self.cache_namespace, join), operator);
        self.cache.lock_pair(pair(JoinImpl::SortMerge), pair(JoinImpl::BroadcastHash))
    }

    /// See [`RaqoCoster::plan_operator`]; `cache` is [`CostCtx::cache_guard`].
    fn plan_operator(
        &self,
        join: JoinImpl,
        io: &JoinIo,
        stats: &mut RaqoStats,
        cache: &mut PairGuard<'_>,
    ) -> Option<(ResourceConfig, f64)> {
        // The scalarized cost surface for the search.
        let model = self.model;
        let objective = self.objective;
        let build = io.build_gb;
        let probe = io.probe_gb;
        let tel = self.tel;
        let _rp_span = tel.span(match self.strategy {
            ResourceStrategy::BruteForce => "resource_planning.brute_force",
            ResourceStrategy::HillClimb => "resource_planning.hill_climb",
            ResourceStrategy::HillClimbCached(_) => "resource_planning.cached",
        });
        let budget = self.budget;
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
            let raw = match probes::probe("cost.model.scalar") {
                probes::Action::Nan => Some(f64::NAN),
                probes::Action::Fail => None,
                probes::Action::Proceed => model.join_cost_at(join, build, probe, r),
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
            // Off scans on this thread; any other setting splits a grid
            // that is large enough to repay the threads across workers, with
            // a bit-identical merged result. Whole row slices go through the
            // fused kernel, then one pass sanitizes and scalarizes the raw
            // times in place.
            ResourceStrategy::BruteForce => {
                let row_fn =
                    |_start: u64, base: &ResourceConfig, coords: &[f64], out: &mut [f64]| {
                        tel.inc(Counter::BatchChunks);
                        if !budget.charge(coords.len() as u64) {
                            out.fill(f64::INFINITY);
                            return;
                        }
                        match probes::probe("cost.model.batch") {
                            probes::Action::Fail => {
                                out.fill(f64::INFINITY);
                                return;
                            }
                            probes::Action::Nan => out.fill(f64::NAN),
                            probes::Action::Proceed => {
                                model.join_cost_row_at(join, build, probe, base, coords, out)
                            }
                        }
                        let bad = objective.score_row(base, coords, out);
                        if bad > 0 {
                            // Counting also flags the current trace.
                            tel.add(Counter::CostSanitizationsBatch, bad);
                        }
                    };
                brute_force_rows(self.cluster, row_fn, self.parallelism, tel)
            }
            ResourceStrategy::HillClimb => {
                tel.inc(Counter::HillClimbClimbs);
                if self.parallelism == Parallelism::Off {
                    let start = self.feasible_start(join, io)?;
                    hill_climb(self.cluster, start, cost_fn)
                } else {
                    // Parallel mode upgrades to multi-start climbing: the
                    // lock-step climber evaluates every live seed's
                    // neighborhood in one fused call per dimension. The seed
                    // set subsumes `feasible_start`: BHJ feasibility is
                    // monotone in container size and the seeds include the
                    // max-size corner, so whenever any start is feasible
                    // that corner is too.
                    let batch_fn = |configs: &[ResourceConfig], out: &mut [f64]| {
                        tel.inc(Counter::BatchChunks);
                        if !budget.charge(configs.len() as u64) {
                            out.fill(f64::INFINITY);
                            return;
                        }
                        match probes::probe("cost.model.batch") {
                            probes::Action::Fail => {
                                out.fill(f64::INFINITY);
                                return;
                            }
                            probes::Action::Nan => out.fill(f64::NAN),
                            probes::Action::Proceed => {
                                model.join_cost_batch_at(join, build, probe, configs, out)
                            }
                        }
                        for (c, r) in out.iter_mut().zip(configs) {
                            *c = if c.is_nan() || *c < 0.0 {
                                tel.inc(Counter::CostSanitizationsBatch);
                                f64::INFINITY
                            } else if c.is_finite() {
                                objective.score(*c, r)
                            } else {
                                f64::INFINITY
                            };
                        }
                    };
                    hill_climb_multi(self.cluster, batch_fn, tel)
                }
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
                    let snapped = snap_to_grid(self.cluster, &cached);
                    stats.cache_hits += 1;
                    tel.inc(hit_counter);
                    let (c, time) = evaluate(&snapped);
                    known_time = Some(time);
                    PlanningOutcome { config: snapped, cost: c, iterations: 1 }
                } else {
                    // The cached strategy stays single-start even in
                    // parallel mode: its point is spending few iterations
                    // per miss and letting the cache amortize, so a
                    // multi-start search would defeat the accounting.
                    tel.inc(Counter::CacheMisses);
                    tel.inc(Counter::HillClimbClimbs);
                    // No search runs under a shard lock.
                    cache.release();
                    let start = self.feasible_start(join, io)?;
                    let out = hill_climb(self.cluster, start, cost_fn);
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
        let step = self.cluster.discrete_steps().get(1);
        let mut cs = self.cluster.min.get(1);
        while cs <= self.cluster.max.get(1) {
            if self
                .model
                .join_cost(join, io.build_gb, io.probe_gb, start.containers(), cs)
                .is_some()
            {
                start.set(1, cs);
                return Some(start);
            }
            cs += step;
        }
        None
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
        if matches!(probes::probe("core.plan_cost"), probes::Action::Fail) {
            return None;
        }
        let _span = self.tel.span("plan_cost");
        let sw = self.tel.stopwatch();
        stats.plan_cost_calls += 1;
        self.tel.inc(Counter::PlanCostCalls);
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
        self.tel.observe_elapsed_us(Hist::PlanCostLatencyUs, &sw);
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

impl<M: OperatorCost + Send + Sync> PlanCoster for RaqoCoster<'_, M> {
    /// A batch of one: the same path as [`PlanCoster::join_cost_many`].
    fn join_cost(&mut self, io: &JoinIo) -> Option<JoinDecision> {
        let mut decision = None;
        self.cost_in_order(std::slice::from_ref(io), |d| decision = d);
        decision
    }

    /// Fan a batch of independent joins out over `parallelism` scoped
    /// threads (a DP level's batch of candidates). Costing
    /// here is a pure function of the `JoinIo` — except under
    /// `HillClimbCached`, whose cache warms in call order, so that strategy
    /// stays sequential, under one cache guard per batch. Decisions land at
    /// their input index and worker stats are summed back in chunk order,
    /// so results and counters are deterministic for any thread count.
    fn join_cost_many(
        &mut self,
        ios: &[JoinIo],
        parallelism: Parallelism,
    ) -> Vec<Option<JoinDecision>> {
        let fan_out = !matches!(parallelism, Parallelism::Off)
            && parallelism.workers() > 1
            && ios.len() > 1
            && !matches!(self.strategy, ResourceStrategy::HillClimbCached(_));
        if !fan_out {
            let mut decisions = Vec::with_capacity(ios.len());
            self.cost_in_order(ios, |d| decisions.push(d));
            return decisions;
        }
        // Workers keep this coster's algorithm choices (multi-start
        // climbing iff the coster itself is parallel) but search
        // single-threaded: the per-join fan-out already owns the threads,
        // and both route to the same deterministic winner.
        let worker_parallelism = if self.parallelism == Parallelism::Off {
            Parallelism::Off
        } else {
            Parallelism::Threads(1)
        };
        let ctx = CostCtx {
            model: &*self.model,
            cluster: &self.cluster,
            strategy: self.strategy,
            objective: self.objective,
            parallelism: worker_parallelism,
            cache: &self.cache,
            cache_namespace: self.cache_namespace,
            tel: &self.telemetry,
            budget: &self.budget,
        };
        let workers = parallelism.workers().min(ios.len());
        let chunk = ios.len().div_ceil(workers);
        let ctx = &ctx;
        // Capture the calling thread's trace position so worker-thread
        // spans (plan_cost, resource_planning.*, cache.lookup.*) parent
        // under the ticket/ambient span that spawned them instead of
        // becoming orphan roots.
        let scope_token = self.telemetry.current_scope();
        // Panic isolation: each worker's chunk runs under `catch_unwind`.
        // A panicking chunk (model bug, injected fault) is re-costed
        // sequentially on the calling thread with a fresh local stats block
        // — the same deterministic per-join code path, so the decisions are
        // bit-identical to an all-healthy run — and counted.
        let per_chunk: Vec<(Vec<Option<JoinDecision>>, RaqoStats)> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = ios
                    .chunks(chunk)
                    .map(|ios_chunk| {
                        scope.spawn(move || {
                            catch_unwind(AssertUnwindSafe(|| {
                                let _in_scope = ctx.tel.enter_scope(scope_token);
                                let _ = probes::probe("core.worker.cost");
                                let mut stats = RaqoStats::default();
                                let mut cache = ctx.cache_guard();
                                let decisions: Vec<Option<JoinDecision>> = ios_chunk
                                    .iter()
                                    .map(|io| ctx.cost_join(io, &mut stats, &mut cache))
                                    .collect();
                                (decisions, stats)
                            }))
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .zip(ios.chunks(chunk))
                    .map(|(h, ios_chunk)| match h.join() {
                        Ok(Ok(pair)) => pair,
                        // Caught inside the worker, or the worker died
                        // before the catch could engage: recover on the
                        // calling thread.
                        Ok(Err(_)) | Err(_) => {
                            ctx.tel.inc(Counter::WorkerPanics);
                            let mut stats = RaqoStats::default();
                            let mut cache = ctx.cache_guard();
                            let decisions: Vec<Option<JoinDecision>> = ios_chunk
                                .iter()
                                .map(|io| ctx.cost_join(io, &mut stats, &mut cache))
                                .collect();
                            (decisions, stats)
                        }
                    })
                    .collect()
            });
        let mut out = Vec::with_capacity(ios.len());
        for (decisions, stats) in per_chunk {
            out.extend(decisions);
            self.stats.resource_iterations += stats.resource_iterations;
            self.stats.plan_cost_calls += stats.plan_cost_calls;
            self.stats.cache_hits += stats.cache_hits;
        }
        out
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

    /// What [`RaqoCoster::plan_operator`] answers for a search outcome (the
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
        let bhj = raw.plan_operator(JoinImpl::BroadcastHash, &io(6.0, 77.0));
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
    fn parallel_brute_force_matches_sequential_through_coster() {
        // 200 000 points: enough for three workers to clear the 60 000
        // points each that a grid must offer before it is split at all.
        let fanned = |mut c: RaqoCoster<'static, SimOracleCost>| {
            c.set_cluster(ClusterConditions::two_dim(1.0..=1000.0, 1.0..=200.0, 1.0, 1.0));
            c
        };
        let mut seq = fanned(coster(ResourceStrategy::BruteForce));
        let ds = seq.join_cost(&io(2.0, 40.0)).unwrap();
        for p in [Parallelism::Threads(3), Parallelism::Auto] {
            let mut par = fanned(coster(ResourceStrategy::BruteForce)).with_parallelism(p);
            let dp = par.join_cost(&io(2.0, 40.0)).unwrap();
            assert_eq!(ds, dp, "{p:?} must be bit-identical to sequential");
            assert_eq!(seq.stats, par.stats, "{p:?} iteration accounting must match");
        }
    }

    #[test]
    fn parallel_hill_climb_upgrades_to_multi_start() {
        let mut single = coster(ResourceStrategy::HillClimb);
        let ds = single.join_cost(&io(2.0, 40.0)).unwrap();
        let mut multi = coster(ResourceStrategy::HillClimb).with_parallelism(Parallelism::Auto);
        let dm = multi.join_cost(&io(2.0, 40.0)).unwrap();
        // Multi-start can only match or beat the single greedy climb, and
        // its summed accounting reflects the extra climbs honestly.
        assert!(dm.cost <= ds.cost + 1e-9, "multi {} vs single {}", dm.cost, ds.cost);
        assert!(multi.stats.resource_iterations >= single.stats.resource_iterations);
    }

    #[test]
    fn batched_multi_start_climb_matches_per_seed_bitwise() {
        // Parallel HillClimb runs the lock-step climber; the reference
        // climbs from each seed in turn over the per-point surface and keeps
        // the best (the earlier seed on ties). Configurations, times and
        // iteration accounting must be bit-identical.
        use raqo_resource::multi_start_seeds;
        let model = SimOracleCost::hive();
        let cluster = ClusterConditions::paper_default();
        for join_io in [io(0.5, 20.0), io(2.0, 40.0), io(6.0, 77.0), io(100.0, 200.0)] {
            for join in JoinImpl::ALL {
                let cost_fn = scorer(&model, join, join_io, Objective::Time);
                let (mut best, mut iterations) = (None::<PlanningOutcome>, 0);
                for seed in multi_start_seeds(&cluster) {
                    let out = hill_climb(&cluster, seed, &cost_fn);
                    iterations += out.iterations;
                    if best.is_none_or(|b| out.cost.total_cmp(&b.cost).is_lt()) {
                        best = Some(out);
                    }
                }
                let want = answer(&model, join, &join_io, best.expect("at least one seed"));
                let mut c =
                    RaqoCoster::new(&model, cluster, ResourceStrategy::HillClimb, Objective::Time)
                        .with_parallelism(Parallelism::Threads(4));
                assert_eq!(bits(c.plan_operator(join, &join_io)), want, "{join:?} {join_io:?}");
                assert_eq!(c.stats.resource_iterations, iterations, "{join:?} {join_io:?}");
            }
        }
    }

    #[test]
    fn batched_climb_counts_rounds_through_coster() {
        let tel = Telemetry::enabled();
        let mut c = coster(ResourceStrategy::HillClimb)
            .with_parallelism(Parallelism::Threads(2))
            .with_telemetry(tel.clone());
        c.join_cost(&io(2.0, 40.0)).unwrap();
        let snap = tel.snapshot().unwrap();
        assert!(
            snap.get(Counter::HillClimbBatchedRounds) > 0,
            "batched climb rounds must be counted"
        );
        assert!(snap.get(Counter::BatchChunks) > 0, "climb probes must go through the batch kernel");
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
            assert_eq!(single.cache_stats(), sharded.cache_stats(), "{lookup:?}");
        }
    }

    #[test]
    fn cache_namespaces_isolate_tenants_on_one_bank() {
        let bank = ShardedCacheBank::with_shards(8);
        let mut a = coster(ResourceStrategy::HillClimbCached(CacheLookup::Exact))
            .with_cache_namespace(1);
        a.share_sharded_cache(bank.clone());
        let mut b = coster(ResourceStrategy::HillClimbCached(CacheLookup::Exact))
            .with_cache_namespace(2);
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
        let persisted: std::collections::BTreeSet<u32> =
            bank.merged_bank().iter().map(|(&(_, operator), _)| operator).collect();
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
                let mut c = coster(cached).with_cache_namespace(ns);
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
                for parallelism in [Parallelism::Off, Parallelism::Threads(2)] {
                    let cluster = grid_10_by_1000();
                    let mut c =
                        RaqoCoster::new(&model, cluster, ResourceStrategy::BruteForce, objective)
                            .with_parallelism(parallelism);
                    for join in JoinImpl::ALL {
                        let surface = scorer(&model, join, join_io, objective);
                        let point_wise = raqo_resource::brute_force(&cluster, surface);
                        assert_eq!(point_wise.iterations, 10_000);
                        assert_eq!(
                            bits(c.plan_operator(join, &join_io)),
                            answer(&model, join, &join_io, point_wise),
                            "{objective:?} {join_io:?} {join:?} {parallelism:?}"
                        );
                    }
                    assert_eq!(c.stats.resource_iterations, 20_000);
                }
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
    fn multi_start_climb_under_an_eval_cap_never_evaluates_past_it() {
        use raqo_resource::{BudgetTrigger, PlanningBudget};
        use std::sync::atomic::{AtomicU64, Ordering};

        /// Counts the configurations the wrapped model is actually asked about.
        struct Counting(JoinCostModel, AtomicU64);
        impl OperatorCost for Counting {
            fn join_cost(&self, j: JoinImpl, b: f64, p: f64, nc: f64, cs: f64) -> Option<f64> {
                self.1.fetch_add(1, Ordering::Relaxed);
                self.0.join_cost(j, b, p, nc, cs)
            }
            fn join_cost_batch_at(
                &self,
                j: JoinImpl,
                b: f64,
                p: f64,
                configs: &[ResourceConfig],
                out: &mut [f64],
            ) {
                self.1.fetch_add(configs.len() as u64, Ordering::Relaxed);
                self.0.join_cost_batch_at(j, b, p, configs, out)
            }
        }
        fn climber(model: &Counting) -> RaqoCoster<'_, Counting> {
            RaqoCoster::new(
                model,
                ClusterConditions::paper_default(),
                ResourceStrategy::HillClimb,
                Objective::Time,
            )
            .with_parallelism(Parallelism::Threads(2))
        }

        let unbounded = Counting(JoinCostModel::trained_hive(), AtomicU64::new(0));
        climber(&unbounded).join_cost(&io(3.4, 77.0)).expect("feasible");
        let full = unbounded.1.load(Ordering::Relaxed);

        for cap in [1, 4, 5, 12, 50, full / 2] {
            let model = Counting(JoinCostModel::trained_hive(), AtomicU64::new(0));
            let mut c = climber(&model);
            c.budget = Arc::new(BudgetTracker::start(PlanningBudget::with_max_evals(cap)));
            let first = c.join_cost(&io(3.4, 77.0));
            let evaluated = model.1.load(Ordering::Relaxed);
            // A batch that would cross the cap is never evaluated; beyond
            // the cap only each finite winner's time is re-read once.
            assert!(
                evaluated <= cap + JoinImpl::ALL.len() as u64,
                "cap {cap}: {evaluated} evaluations"
            );
            assert_eq!(c.budget.exhausted(), Some(BudgetTrigger::Evals), "cap {cap}");
            // Round 0 scores every seed; once it fits under the cap the
            // climb has a usable decision.
            assert_eq!(first.is_some(), evaluated > 0, "cap {cap}");
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
