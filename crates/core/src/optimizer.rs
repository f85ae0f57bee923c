//! The RAQO optimizer: joint query + resource planning and the §IV
//! use-cases.

use crate::raqo_coster::{Objective, RaqoCoster, RaqoStats, ResourceStrategy};
use crate::rule_based::{train_raqo_tree, RuleBasedCoster};
use crate::shared::Shared;
use raqo_catalog::{Catalog, JoinGraph, QuerySpec};
use raqo_cost::OperatorCost;
use raqo_dtree::DecisionTree;
use raqo_planner::coster::FixedResourceCoster;
use raqo_planner::{
    cost_tree, CardinalityEstimator, CascadesConfig, CascadesError, CascadesPlanner, IdpConfig,
    IdpPlanner, PlanCoster, PlanTree, PlannedQuery, RandomizedConfig, RandomizedPlanner,
    SelingerError, SelingerPlanner,
};
use raqo_resource::{
    BudgetTracker, BudgetTrigger, ClusterConditions, PlanningBudget, ResourceConfig,
    ShardedCacheBank,
};
use raqo_sim::engine::Engine;
use raqo_sim::profile::ProfileGrid;
use raqo_telemetry::{Counter, Telemetry};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// Grace allowance for the ladder's randomized rung: enough cost
/// evaluations for a reduced-restart randomized search even under the
/// brute-force strategy (2 000 evaluations per `getPlanCost` call on the
/// paper's grid), small enough that a degraded call stays tightly bounded.
/// Queries too large for the allowance simply fall through to the
/// rule-based rung, which cannot exhaust.
const RUNG2_GRACE_EVALS: u64 = 250_000;

/// One planner run's outcome: the plan (if any), whether the IDP bridge
/// produced it, and whether the relation bound was hit at all (so a later
/// rung can report the right trigger).
#[derive(Default)]
struct PlannerRun {
    planned: Option<PlannedQuery>,
    /// The plan came out of the IDP bridge after the configured planner
    /// refused on relation count.
    bridged: bool,
    /// The configured planner returned `TooManyRelations` (whether or not
    /// the bridge then recovered).
    relation_bound: bool,
    /// The bushy search was cut short by the planning budget and answered
    /// with the levels it had finished under the seed chain.
    cut_short: bool,
}

impl PlannerRun {
    /// The plan, or — past the relation bound with a failed bridge — the
    /// randomized planner's: the last resort of the entry points that have
    /// no degradation ladder of their own.
    fn or_randomized(
        self,
        catalog: &Catalog,
        graph: &JoinGraph,
        query: &QuerySpec,
        coster: &mut dyn PlanCoster,
    ) -> Option<PlannedQuery> {
        if self.planned.is_some() || !self.relation_bound {
            return self.planned;
        }
        RandomizedPlanner::plan(catalog, graph, query, coster, &RandomizedConfig::default())
            .map(|o| o.best)
    }
}

/// The planner dispatch every entry point shares: run `kind` through
/// `coster` and, when the exhaustive search refuses on relation count,
/// bridge with iterative DP — no relation bound, but the DP search stays
/// intact. `stop` is the budget probe the bushy search polls at every
/// subset.
fn run_kind(
    kind: &PlannerKind,
    catalog: &Catalog,
    graph: &JoinGraph,
    query: &QuerySpec,
    coster: &mut dyn PlanCoster,
    tel: &Telemetry,
    stop: Option<&dyn Fn() -> bool>,
) -> PlannerRun {
    let span = match kind {
        PlannerKind::Selinger => Some("planner.selinger"),
        PlannerKind::Cascades(_) => Some("planner.cascades"),
        PlannerKind::FastRandomized(_) => Some("planner.randomized"),
        // IDP opens its own `planner.idp` span.
        PlannerKind::Idp(_) => None,
    };
    let _span = span.map(|name| tel.span(name));
    let mut run = PlannerRun::default();
    match kind {
        PlannerKind::Selinger => {
            match SelingerPlanner::plan_traced(catalog, graph, query, coster, tel) {
                Err(SelingerError::TooManyRelations { .. }) => run.relation_bound = true,
                out => run.planned = out.ok(),
            }
        }
        PlannerKind::Idp(cfg) => {
            let out = IdpPlanner::plan_traced(catalog, graph, query, coster, tel, *cfg);
            run.planned = out.ok();
        }
        PlannerKind::FastRandomized(cfg) => {
            let out = RandomizedPlanner::plan_traced(catalog, graph, query, coster, cfg, tel);
            run.planned = out.map(|out| out.best);
        }
        PlannerKind::Cascades(cfg) => {
            match CascadesPlanner::plan_traced(catalog, graph, query, coster, tel, cfg, stop) {
                Ok(out) => {
                    run.cut_short = out.cut_short;
                    run.planned = Some(out.planned);
                }
                Err(CascadesError::TooManyRelations { .. }) => run.relation_bound = true,
                Err(CascadesError::Infeasible) => {}
            }
        }
    }
    if run.relation_bound {
        let config = IdpConfig::default();
        let out = IdpPlanner::plan_traced(catalog, graph, query, coster, tel, config);
        run.planned = out.ok();
        run.bridged = run.planned.is_some();
    }
    run
}

/// The on-grid configuration closest to the center of the cluster's
/// resource space — the fixed allocation of the ladder's rule-based rung.
fn grid_midpoint(cluster: &ClusterConditions) -> ResourceConfig {
    let mut mid = cluster.min;
    let steps = cluster.discrete_steps();
    for i in 0..cluster.dims() {
        let idx = (cluster.points_along(i) - 1) / 2;
        mid.set(i, cluster.min.get(i) + idx as f64 * steps.get(i));
    }
    mid
}

/// Which join-ordering algorithm drives the search (§VII-A evaluates both).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum PlannerKind {
    /// System-R bottom-up DP over left-deep trees.
    Selinger,
    /// Iterative DP (IDP-1, standard-best-plan): bounded Selinger blocks
    /// collapsed round by round, so there is no relation bound. For
    /// queries at or under the block size this *is* exhaustive DP; above
    /// it, plan quality degrades gradually with the block size instead of
    /// falling off the Selinger cliff.
    Idp(IdpConfig),
    /// The fast randomized multi-objective planner.
    FastRandomized(RandomizedConfig),
    /// One dense DP over relation-subset masks — the only planner here
    /// that searches *bushy* join trees. Costs every candidate through the
    /// same `getPlanCost` seam as Selinger, so resource planning, caching
    /// and planning budgets compose unchanged; queries past
    /// [`raqo_planner::DEFAULT_CASCADES_THRESHOLD`] bridge to IDP exactly
    /// like the Selinger relation bound.
    Cascades(CascadesConfig),
}

impl PlannerKind {
    /// IDP with the default block size (10).
    pub fn idp() -> Self {
        PlannerKind::Idp(IdpConfig::default())
    }

    /// The subset DP over bushy trees, default bounds.
    pub fn cascades() -> Self {
        PlannerKind::Cascades(CascadesConfig::default())
    }

    pub fn fast_randomized(seed: u64) -> Self {
        PlannerKind::FastRandomized(RandomizedConfig { seed, ..Default::default() })
    }
}

/// Which rung of the graceful-degradation ladder produced the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DegradationRung {
    /// The query exceeded the exhaustive DP's relation bound and was
    /// bridged with the IDP planner — still dynamic programming, still
    /// full resource planning per sub-plan, just block-bounded. The
    /// mildest step-down.
    IdpBridge,
    /// The configured planner gave way to the randomized planner — either
    /// the full-strength fallback (relation bound with a failed bridge) or
    /// the reduced-restart budget fallback.
    Randomized,
    /// Planning fell all the way to rule-based RAQO: decision-tree join
    /// dispatch at fixed (grid-midpoint) resources, no search at all.
    RuleBased,
    /// The bushy search was cut short by the planning budget: the returned
    /// plan is the best of the levels finished at cut-off under the seed
    /// left-deep chain, not necessarily the optimum. The plan still came
    /// out of the configured planner — this is the mildest rung of all,
    /// milder than the IDP bridge.
    MemoCut,
}

impl std::fmt::Display for DegradationRung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradationRung::IdpBridge => write!(f, "idp_bridge"),
            DegradationRung::Randomized => write!(f, "randomized"),
            DegradationRung::RuleBased => write!(f, "rule_based"),
            DegradationRung::MemoCut => write!(f, "memo_cut"),
        }
    }
}

/// What pushed planning down the ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DegradationTrigger {
    /// The wall-clock deadline of the [`PlanningBudget`] passed.
    Deadline,
    /// The cost-evaluation cap of the [`PlanningBudget`] was reached.
    EvalBudget,
    /// The query exceeds the Selinger DP's relation bound and no bridge
    /// recovered it.
    TooManyRelations,
    /// The query exceeds the Selinger DP's relation bound and the IDP
    /// bridge planned it (the plan is DP-quality per block, not
    /// exhaustive-DP-optimal).
    RelationBoundBridged,
    /// The configured planner found no feasible plan within its rung.
    Infeasible,
}

impl std::fmt::Display for DegradationTrigger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradationTrigger::Deadline => write!(f, "deadline"),
            DegradationTrigger::EvalBudget => write!(f, "eval_budget"),
            DegradationTrigger::TooManyRelations => write!(f, "too_many_relations"),
            DegradationTrigger::RelationBoundBridged => write!(f, "relation_bound_bridged"),
            DegradationTrigger::Infeasible => write!(f, "infeasible"),
        }
    }
}

/// Report attached to a plan that was produced below the top ladder rung:
/// which rung answered, what tripped, and how much budget had been consumed
/// when the ladder stepped down.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Degradation {
    pub rung: DegradationRung,
    pub trigger: DegradationTrigger,
    /// Cost-model evaluations charged against the budget at step-down.
    pub evals_used: u64,
    /// Planning wall-clock elapsed at step-down, in milliseconds.
    pub elapsed_ms: u64,
}

/// A joint query and resource plan — RAQO's output (§IV): "the operator DAG
/// to be executed by the runtime and the resources to be requested to the
/// RM for each operator in the DAG", plus planner accounting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RaqoPlan {
    pub query: PlannedQuery,
    pub stats: RaqoStats,
    /// Present when planning stepped down the graceful-degradation ladder
    /// (budget exhaustion, relation-bound fallback, or infeasibility at a
    /// higher rung); `None` for a full-strength plan.
    pub degradation: Option<Degradation>,
}

impl RaqoPlan {
    /// Total estimated execution time (seconds).
    pub fn time_sec(&self) -> f64 {
        self.query.objectives.time_sec
    }

    /// Total estimated monetary cost (TB·s).
    pub fn money_tb_sec(&self) -> f64 {
        self.query.objectives.money_tb_sec
    }
}

/// The RAQO optimizer (Fig. 8(b)): one layer that owns the query planner,
/// the resource planner, and the link to current cluster conditions.
///
/// Inputs are [`Shared`]: pass plain references (as before) or `Arc`s when
/// the optimizer should co-own its catalog/graph/model — no more leaking
/// boxes to manufacture `'static` lifetimes.
pub struct RaqoOptimizer<'a, M: OperatorCost> {
    pub catalog: Shared<'a, Catalog>,
    pub graph: Shared<'a, JoinGraph>,
    pub model: Shared<'a, M>,
    pub planner: PlannerKind,
    coster: RaqoCoster<'a, M>,
    /// Declarative planning budget applied to every [`RaqoOptimizer::optimize`]
    /// call; unlimited by default. The deadline clock starts at the call.
    budget: PlanningBudget,
    /// Decision tree for the ladder's rule-based bottom rung, trained
    /// lazily on first use and reused across calls.
    rule_based_tree: Option<DecisionTree>,
}

impl<'a, M: OperatorCost> RaqoOptimizer<'a, M> {
    pub fn new(
        catalog: impl Into<Shared<'a, Catalog>>,
        graph: impl Into<Shared<'a, JoinGraph>>,
        model: impl Into<Shared<'a, M>>,
        cluster: ClusterConditions,
        planner: PlannerKind,
        strategy: ResourceStrategy,
    ) -> Self {
        let model = model.into();
        let coster = RaqoCoster::new(model.clone(), cluster, strategy, Objective::Time);
        RaqoOptimizer {
            catalog: catalog.into(),
            graph: graph.into(),
            model,
            planner,
            coster,
            budget: PlanningBudget::unlimited(),
            rule_based_tree: None,
        }
    }

    /// Builder form of [`RaqoOptimizer::set_budget`].
    pub fn with_budget(mut self, budget: PlanningBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Bound the work of each [`RaqoOptimizer::optimize`] call. The
    /// deadline is measured from the start of each call; the evaluation cap
    /// counts cost-model evaluations. When either trips, planning degrades
    /// down the ladder (randomized planner, then rule-based RAQO) instead
    /// of failing, and the returned plan carries a [`Degradation`] report.
    /// An unlimited budget (the default) is completely free: plans are
    /// bit-identical to a build without budgets.
    pub fn set_budget(&mut self, budget: PlanningBudget) {
        self.budget = budget;
    }

    /// The currently configured planning budget.
    pub fn budget(&self) -> PlanningBudget {
        self.budget
    }

    /// Builder form of [`RaqoOptimizer::set_telemetry`].
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.coster.telemetry = telemetry;
        self
    }

    /// Attach a span/metrics sink. The default [`Telemetry::disabled`]
    /// keeps every instrumentation site free; an enabled sink records the
    /// span tree (dispatch → planner → resource planning → cache) and the
    /// metrics registry behind `repro --trace` / `--metrics`.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.coster.telemetry = telemetry;
    }

    /// The attached telemetry sink (disabled by default).
    pub fn telemetry(&self) -> &Telemetry {
        &self.coster.telemetry
    }

    /// Planner statistics accumulated so far.
    pub fn stats(&self) -> RaqoStats {
        self.coster.stats
    }

    /// Clear the resource-plan cache ("we always cleared the resource plan
    /// cache before each query run" — call this between queries unless
    /// evaluating across-query caching).
    pub fn clear_cache(&mut self) {
        self.coster.clear_cache();
    }

    /// Adopt `bank` as this optimizer's resource-plan cache: one shared with
    /// other optimizers, for the Fig. 15(b) across-query caching mode or the
    /// concurrent planning service (each (namespace, implementation) pair
    /// locks only its own shard).
    pub fn share_sharded_cache(&mut self, bank: ShardedCacheBank) {
        self.coster.share_sharded_cache(bank);
    }

    /// A cloneable handle onto the resource-plan cache; hand it to another
    /// optimizer via [`RaqoOptimizer::share_sharded_cache`] to share it.
    pub fn sharded_cache(&self) -> ShardedCacheBank {
        self.coster.sharded_cache()
    }

    /// Tenant/workload namespace folded into cache keys; 0 (the default)
    /// is the historical single-tenant id space.
    pub fn set_cache_namespace(&mut self, namespace: u32) {
        self.coster.set_cache_namespace(namespace);
    }

    /// Adaptive RAQO: cluster conditions changed; re-optimize against the
    /// new bounds.
    pub fn set_cluster(&mut self, cluster: ClusterConditions) {
        self.coster.set_cluster(cluster);
    }

    /// The configured planner through [`run_kind`], with this optimizer's
    /// coster, telemetry and budget probe.
    fn run_planner(&mut self, query: &QuerySpec) -> PlannerRun {
        // Cheap handle (a `None` or an `Arc` clone): the planners borrow
        // the coster mutably while they record into the same sink.
        let tel = self.coster.telemetry.clone();
        // On a blown budget the bushy search cuts short and answers with
        // its best costed plan instead of failing down a rung.
        let tracker = self.coster.budget.clone();
        let stop_fn = move || tracker.exhausted().is_some() || !tracker.check_deadline();
        let stop = self.coster.budget.is_limited().then_some(&stop_fn as &dyn Fn() -> bool);
        let (catalog, graph) = (&*self.catalog, &*self.graph);
        let coster = &mut self.coster;
        run_kind(&self.planner, catalog, graph, query, coster, &tel, stop)
    }

    /// The ladder's bottom rung: rule-based RAQO (§V). Join implementations
    /// come from a lazily-trained decision tree, resources are pinned to
    /// the cluster grid's midpoint, join ordering is Selinger (IDP beyond
    /// its relation bound), and nothing consults the budget — the
    /// rung is O(query size) and cannot exhaust. With SMJ as the tree's
    /// runtime fallback this always produces an executable plan for any
    /// query the planners can order.
    fn rule_based_plan(&mut self, query: &QuerySpec) -> Option<PlannedQuery> {
        let tel = self.coster.telemetry.clone();
        let _span = tel.span("planner.degraded.rule_based");
        if self.rule_based_tree.is_none() {
            self.rule_based_tree =
                Some(train_raqo_tree(&Engine::hive(), &ProfileGrid::paper_default()));
        }
        let tree = self.rule_based_tree.as_ref().expect("initialized just above");
        let mid = grid_midpoint(&self.coster.cluster);
        let mut coster =
            RuleBasedCoster::new(tree, &*self.model, mid.containers(), mid.container_size_gb())
                .with_telemetry(tel.clone());
        // Rung 1's dispatch, Selinger whatever the configured planner: past
        // the bound IDP plans (the rule-based coster never rejects a join),
        // the randomized planner only as the last resort.
        let (catalog, graph) = (&*self.catalog, &*self.graph);
        let (selinger, untraced) = (PlannerKind::Selinger, Telemetry::disabled());
        run_kind(&selinger, catalog, graph, query, &mut coster, &untraced, None)
            .or_randomized(catalog, graph, query, &mut coster)
    }

    // ---- The §IV use-cases ---------------------------------------------

    /// Use-case `(p, r)`: "optimize for performance by picking the best
    /// query and resource plan combination". The headline RAQO mode.
    ///
    /// With a [`PlanningBudget`] set this call *always* returns a plan
    /// (for any query the engine can execute at all) by walking the
    /// graceful-degradation ladder:
    ///
    /// 1. the configured planner, budget-charged — queries past the
    ///    Selinger relation bound are bridged in-rung with the IDP planner
    ///    (reported as the `idp_bridge` rung, the mildest step-down);
    /// 2. on exhaustion or infeasibility: the randomized planner with
    ///    reduced restarts, under a bounded grace allowance (the deadline
    ///    is never extended);
    /// 3. on a second failure: rule-based RAQO at fixed grid-midpoint
    ///    resources, budget-free.
    ///
    /// Any step below rung 1 is recorded in [`RaqoPlan::degradation`] and
    /// counted under `raqo_degradations_total{rung}`.
    pub fn optimize(&mut self, query: &QuerySpec) -> Option<RaqoPlan> {
        let tel = self.coster.telemetry.clone();
        let _span = tel.span("optimize");
        self.coster.reset_stats();
        self.coster.objective = Objective::Time;
        let started = Instant::now();
        let tracker = Arc::new(BudgetTracker::start(self.budget));
        self.coster.budget = tracker.clone();

        let mut degradation: Option<Degradation> = None;
        let mut note = |rung: DegradationRung, trigger: DegradationTrigger| {
            // The counter increment flags the current trace DEGRADED for
            // tail retention; a budget trigger additionally marks it
            // BUDGET_EXHAUSTED so operators can split the two.
            tel.inc(match rung {
                DegradationRung::IdpBridge => Counter::DegradationsIdpBridge,
                DegradationRung::Randomized => Counter::DegradationsRandomized,
                DegradationRung::RuleBased => Counter::DegradationsRuleBased,
                DegradationRung::MemoCut => Counter::DegradationsMemoCut,
            });
            if matches!(
                trigger,
                DegradationTrigger::Deadline | DegradationTrigger::EvalBudget
            ) {
                tel.flag_current_trace(raqo_telemetry::TraceFlags::BUDGET_EXHAUSTED);
            }
            degradation = Some(Degradation {
                rung,
                trigger,
                evals_used: tracker.evals_used(),
                elapsed_ms: started.elapsed().as_millis() as u64,
            });
        };
        // Deterministic trigger precedence: a tripped budget always wins
        // over structural triggers (relation bound, infeasibility), so a
        // budget exhausted *during* a relation-bound bridge is reported as
        // the budget trigger, never masked by `TooManyRelations`.
        let trigger_now = |tracker: &BudgetTracker, structural: DegradationTrigger| {
            match tracker.exhausted() {
                Some(BudgetTrigger::Deadline) => DegradationTrigger::Deadline,
                Some(BudgetTrigger::Evals) => DegradationTrigger::EvalBudget,
                None => structural,
            }
        };

        // Rung 1: the configured planner, with the IDP bridge covering the
        // Selinger relation bound in-rung.
        let run = self.run_planner(query);
        if run.planned.is_some() && run.bridged {
            note(
                DegradationRung::IdpBridge,
                trigger_now(&tracker, DegradationTrigger::RelationBoundBridged),
            );
        }
        // A Cascades search cut short by the budget still answered in-rung
        // with an annotated (best-so-far) plan — the mildest degradation.
        if run.planned.is_some() && run.cut_short {
            note(
                DegradationRung::MemoCut,
                trigger_now(&tracker, DegradationTrigger::EvalBudget),
            );
        }
        let mut planned = run.planned;

        // Rung 2: budget exhaustion (or a planner that found nothing)
        // degrades to a cheap randomized search under a bounded grace
        // allowance. The deadline is not extended, so a blown deadline
        // falls through this rung in O(query size).
        if planned.is_none() {
            let structural = if run.relation_bound {
                DegradationTrigger::TooManyRelations
            } else {
                DegradationTrigger::Infeasible
            };
            note(DegradationRung::Randomized, trigger_now(&tracker, structural));
            tracker.grant_grace(RUNG2_GRACE_EVALS);
            let cfg = RandomizedConfig {
                restarts: 2,
                rounds_per_join: 5,
                ..RandomizedConfig::default()
            };
            let _rspan = tel.span("planner.degraded.randomized");
            planned = RandomizedPlanner::plan_traced(
                &self.catalog,
                &self.graph,
                query,
                &mut self.coster,
                &cfg,
                &tel,
            )
            .map(|o| o.best);
        }

        // Rung 3: rule-based RAQO, budget-free. Always succeeds for any
        // query the engine can execute (SMJ is the universal fallback).
        if planned.is_none() {
            note(
                DegradationRung::RuleBased,
                trigger_now(&tracker, DegradationTrigger::Infeasible),
            );
            planned = self.rule_based_plan(query);
        }

        // Leave no stale limited tracker behind for other entry points.
        self.coster.budget = Arc::new(BudgetTracker::unlimited());
        let planned = planned?;
        Some(RaqoPlan { query: planned, stats: self.coster.stats, degradation })
    }

    /// Use-case `r ⇒ p`: "in case of constrained resources ... pick the
    /// best plan for a given resource budget". Plain query optimization at
    /// fixed resources (no resource planning at all).
    pub fn plan_for_resources(
        &mut self,
        query: &QuerySpec,
        containers: f64,
        container_size_gb: f64,
    ) -> Option<PlannedQuery> {
        let mut fixed = FixedResourceCoster::new(&*self.model, containers, container_size_gb);
        let (catalog, graph) = (&*self.catalog, &*self.graph);
        let untraced = Telemetry::disabled();
        run_kind(&self.planner, catalog, graph, query, &mut fixed, &untraced, None)
            .or_randomized(catalog, graph, query, &mut fixed)
    }

    /// Use-case `p ⇒ (r, c)`: the user is happy with a given plan shape;
    /// find resources (and hence a price) for it — here minimizing monetary
    /// cost, "adjusting the resources to have possibly lower monetary
    /// cost".
    pub fn resources_for_plan(&mut self, tree: &PlanTree) -> Option<RaqoPlan> {
        let _span = self.coster.telemetry.span("resources_for_plan");
        self.coster.reset_stats();
        self.coster.objective = Objective::Money;
        let est = CardinalityEstimator::new(&self.catalog, &self.graph);
        let planned = cost_tree(tree, &est, &mut self.coster, &Telemetry::disabled());
        self.coster.objective = Objective::Time;
        Some(RaqoPlan { query: planned?, stats: self.coster.stats, degradation: None })
    }

    /// Use-case `c ⇒ (p, r)`: "constrain the monetary cost ... ask the
    /// optimizer to adjust the shape of resources to produce the best
    /// performance for a given price point". Returns `None` when no joint
    /// plan fits the budget.
    ///
    /// Resources are planned per operator (§VI-B), so the budget is split
    /// evenly across the query's joins — a conservative allocation whose
    /// per-operator caps always sum to the query budget.
    pub fn optimize_under_budget(
        &mut self,
        query: &QuerySpec,
        money_budget_tb_sec: f64,
    ) -> Option<RaqoPlan> {
        let _span = self.coster.telemetry.span("optimize_under_budget");
        self.coster.reset_stats();
        let per_op = money_budget_tb_sec / query.num_joins().max(1) as f64;
        self.coster.objective = Objective::TimeUnderBudget { money_budget_tb_sec: per_op };
        let run = self.run_planner(query);
        self.coster.objective = Objective::Time;
        // No ladder here: an infeasible monetary budget is a real answer
        // ("no joint plan fits"), not a fault to degrade around. Only the
        // relation-bound bridge is reported.
        let planned = run.planned?;
        let degradation = run.bridged.then_some(Degradation {
            rung: DegradationRung::IdpBridge,
            trigger: DegradationTrigger::RelationBoundBridged,
            evals_used: 0,
            elapsed_ms: 0,
        });
        Some(RaqoPlan { query: planned, stats: self.coster.stats, degradation })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raqo_catalog::tpch::TpchSchema;
    use raqo_cost::SimOracleCost;
    use raqo_resource::{CacheLookup, ResourceConfig};

    fn optimizer(
        schema: &TpchSchema,
        model: &'static SimOracleCost,
        planner: PlannerKind,
        strategy: ResourceStrategy,
    ) -> RaqoOptimizer<'static, SimOracleCost> {
        // The optimizer co-owns catalog and graph via `Shared::Owned`, so
        // the helper needs no leaked boxes to return a `'static` optimizer.
        RaqoOptimizer::new(
            std::sync::Arc::new(schema.catalog.clone()),
            std::sync::Arc::new(schema.graph.clone()),
            model,
            ClusterConditions::paper_default(),
            planner,
            strategy,
        )
    }

    fn model() -> &'static SimOracleCost {
        static MODEL: std::sync::OnceLock<SimOracleCost> = std::sync::OnceLock::new();
        MODEL.get_or_init(SimOracleCost::hive)
    }

    #[test]
    fn joint_optimization_emits_plan_and_resources() {
        let schema = TpchSchema::new(1.0);
        let mut opt =
            optimizer(&schema, model(), PlannerKind::Selinger, ResourceStrategy::HillClimb);
        let plan = opt.optimize(&QuerySpec::tpch_q3()).expect("plan");
        assert_eq!(plan.query.joins.len(), 2);
        for j in &plan.query.joins {
            let (nc, cs) = j.decision.resources.expect("RAQO emits resources per join");
            assert!(ClusterConditions::paper_default()
                .contains(&ResourceConfig::containers_and_size(nc, cs)));
        }
        assert!(plan.stats.resource_iterations > 0);
        assert!(plan.time_sec() > 0.0);
        assert!(plan.money_tb_sec() > 0.0);
    }

    #[test]
    fn joint_beats_fixed_resources() {
        // The Fig. 2 claim: joint (p, r) at least matches the best plan
        // under any *fixed* configuration the user might have guessed.
        let schema = TpchSchema::new(1.0);
        let mut opt =
            optimizer(&schema, model(), PlannerKind::Selinger, ResourceStrategy::BruteForce);
        let query = QuerySpec::tpch_q3();
        let joint = opt.optimize(&query).unwrap();
        for (nc, cs) in [(10.0, 2.0), (10.0, 10.0), (50.0, 5.0), (100.0, 10.0)] {
            let fixed = opt.plan_for_resources(&query, nc, cs).unwrap();
            assert!(
                joint.time_sec() <= fixed.objectives.time_sec + 1e-6,
                "joint {} vs fixed({nc},{cs}) {}",
                joint.time_sec(),
                fixed.objectives.time_sec
            );
        }
    }

    #[test]
    fn brute_force_joint_planning_scans_the_whole_grid_per_plan_cost_call() {
        // Every `getPlanCost` call scans the grid once per implementation,
        // and a fresh optimizer repeats the joint plan and its counters.
        let schema = TpchSchema::new(1.0);
        let query = QuerySpec::tpch_q3();
        let plan = || {
            optimizer(&schema, model(), PlannerKind::Selinger, ResourceStrategy::BruteForce)
                .optimize(&query)
                .unwrap()
        };
        let (a, b) = (plan(), plan());
        assert_eq!(a.query, b.query);
        assert_eq!(a.stats, b.stats);
        let points = ClusterConditions::paper_default().grid_size();
        assert!(a.stats.plan_cost_calls > 0);
        assert_eq!(a.stats.resource_iterations, a.stats.plan_cost_calls * 2 * points);
    }

    /// The oracle model, recording which threads evaluate it.
    struct ThreadLog(
        SimOracleCost,
        std::sync::Mutex<std::collections::HashSet<std::thread::ThreadId>>,
    );

    impl OperatorCost for ThreadLog {
        fn join_cost(
            &self,
            j: raqo_sim::engine::JoinImpl,
            b: f64,
            p: f64,
            nc: f64,
            cs: f64,
        ) -> Option<f64> {
            self.1.lock().unwrap().insert(std::thread::current().id());
            self.0.join_cost(j, b, p, nc, cs)
        }
    }

    /// One level of parallelism: every DP planner costs its levels on the
    /// thread that calls `optimize`, and planning again answers the same.
    #[test]
    fn every_dp_planner_costs_on_the_calling_thread() {
        let schema = TpchSchema::new(1.0);
        let query = QuerySpec::tpch_all(&schema);
        let caller = std::thread::current().id();
        for planner in [PlannerKind::Selinger, PlannerKind::idp(), PlannerKind::cascades()] {
            let model = ThreadLog(SimOracleCost::hive(), Default::default());
            let mut opt = RaqoOptimizer::new(
                &schema.catalog,
                &schema.graph,
                &model,
                ClusterConditions::paper_default(),
                planner.clone(),
                ResourceStrategy::HillClimb,
            );
            let first = opt.optimize(&query).expect("plan");
            let again = opt.optimize(&query).expect("plan");
            assert_eq!(first.query, again.query, "{planner:?}");
            assert_eq!(first.stats, again.stats, "{planner:?}");
            drop(opt);
            assert_eq!(model.1.into_inner().unwrap(), [caller].into(), "{planner:?}");
        }
    }

    #[test]
    fn fixed_resource_planning_emits_no_resources() {
        let schema = TpchSchema::new(1.0);
        let mut opt =
            optimizer(&schema, model(), PlannerKind::Selinger, ResourceStrategy::HillClimb);
        let planned = opt.plan_for_resources(&QuerySpec::tpch_q3(), 10.0, 4.0).unwrap();
        assert!(planned.joins.iter().all(|j| j.decision.resources.is_none()));
    }

    #[test]
    fn resources_for_plan_minimizes_money() {
        let schema = TpchSchema::new(1.0);
        let mut opt =
            optimizer(&schema, model(), PlannerKind::Selinger, ResourceStrategy::BruteForce);
        let query = QuerySpec::tpch_q3();
        let joint = opt.optimize(&query).unwrap();
        let tree = joint.query.tree.clone();
        let money_plan = opt.resources_for_plan(&tree).unwrap();
        // Same plan shape, but cheaper (or equal) in money than the
        // time-optimal resource choice.
        assert!(money_plan.money_tb_sec() <= joint.money_tb_sec() + 1e-9);
    }

    /// ROADMAP item 8's probe: the `Time` configurations `optimize` left in
    /// the cache must not answer the `Money` question `resources_for_plan`
    /// asks on the same optimizer.
    #[test]
    fn resources_for_plan_ignores_configs_cached_under_time() {
        let schema = TpchSchema::new(1.0);
        let cached = ResourceStrategy::HillClimbCached(CacheLookup::Exact);
        for query in [QuerySpec::tpch_q3(), QuerySpec::tpch_q2()] {
            let mut warm = optimizer(&schema, model(), PlannerKind::Selinger, cached);
            let tree = warm.optimize(&query).unwrap().query.tree;
            let after_optimize = warm.resources_for_plan(&tree).unwrap();
            let mut cold = optimizer(&schema, model(), PlannerKind::Selinger, cached);
            let from_cold = cold.resources_for_plan(&tree).unwrap();
            assert_eq!(
                after_optimize.money_tb_sec().to_bits(),
                from_cold.money_tb_sec().to_bits(),
                "{}: {} vs {} TB·s",
                query.name,
                after_optimize.money_tb_sec(),
                from_cold.money_tb_sec()
            );
            assert_eq!(after_optimize.query, from_cold.query);
        }
    }

    /// A plan no join of which can be priced gets no resources, and the
    /// coster is left minimizing time for whatever entry point comes next.
    #[test]
    fn resources_for_plan_restores_the_time_objective_when_it_fails() {
        use raqo_sim::engine::JoinImpl;
        struct Unpriceable;
        impl OperatorCost for Unpriceable {
            fn join_cost(&self, _: JoinImpl, _: f64, _: f64, _: f64, _: f64) -> Option<f64> {
                None
            }
        }
        let schema = TpchSchema::new(1.0);
        let mut opt = RaqoOptimizer::new(
            &schema.catalog,
            &schema.graph,
            &Unpriceable,
            ClusterConditions::paper_default(),
            PlannerKind::Selinger,
            ResourceStrategy::HillClimb,
        );
        let tree = PlanTree::left_deep(&QuerySpec::tpch_q3().relations);
        assert!(opt.resources_for_plan(&tree).is_none());
        assert_eq!(opt.coster.objective, Objective::Time);
    }

    #[test]
    fn budget_use_case_trades_time_for_money() {
        let schema = TpchSchema::new(1.0);
        let mut opt =
            optimizer(&schema, model(), PlannerKind::Selinger, ResourceStrategy::BruteForce);
        let query = QuerySpec::tpch_q3();
        let unconstrained = opt.optimize(&query).unwrap();
        // Budget at half the unconstrained plan's spend: the exhaustive
        // resource search finds a Q3 plan at 0.49× of it (24.7 s against
        // 21.9 s), so the budget must be met, never answered with `None`.
        let budget = unconstrained.money_tb_sec() * 0.5;
        let constrained =
            opt.optimize_under_budget(&query, budget).expect("half the spend is feasible");
        assert!(constrained.money_tb_sec() <= budget + 1e-9);
        assert!(constrained.time_sec() >= unconstrained.time_sec() - 1e-9);
        // An absurdly small budget must be infeasible.
        assert!(opt.optimize_under_budget(&query, 1e-9).is_none());
    }

    #[test]
    fn randomized_planner_mode_works_end_to_end() {
        let schema = TpchSchema::new(1.0);
        let mut opt = optimizer(
            &schema,
            model(),
            PlannerKind::fast_randomized(3),
            ResourceStrategy::HillClimbCached(CacheLookup::NearestNeighbor { threshold: 0.01 }),
        );
        let plan = opt.optimize(&QuerySpec::tpch_all(&schema)).expect("plan");
        assert_eq!(plan.query.joins.len(), 7);
        assert!(plan.stats.plan_cost_calls > 7);
    }

    #[test]
    fn reoptimization_adapts_to_shrunken_cluster() {
        let schema = TpchSchema::new(1.0);
        let mut opt =
            optimizer(&schema, model(), PlannerKind::Selinger, ResourceStrategy::BruteForce);
        let query = QuerySpec::tpch_q3();
        let before = opt.optimize(&query).unwrap();
        // The cluster shrinks to 8 containers of 2 GB.
        opt.set_cluster(ClusterConditions::two_dim(1.0..=8.0, 1.0..=2.0, 1.0, 1.0));
        let after = opt.optimize(&query).unwrap();
        for j in &after.query.joins {
            let (nc, cs) = j.decision.resources.unwrap();
            assert!(nc <= 8.0 && cs <= 2.0);
        }
        // Less resources, no faster.
        assert!(after.time_sec() >= before.time_sec() - 1e-9);
    }

    #[test]
    fn shared_cache_warms_across_optimizers() {
        let schema = TpchSchema::new(1.0);
        let query = QuerySpec::tpch_q3();
        let strategy = ResourceStrategy::HillClimbCached(CacheLookup::Exact);
        let mut first = optimizer(&schema, model(), PlannerKind::Selinger, strategy);
        first.optimize(&query).unwrap();
        // Repeated join IOs already hit within one run; a second optimizer
        // adopting the warmed bank must do strictly better than that.
        let mut second = optimizer(&schema, model(), PlannerKind::Selinger, strategy);
        second.share_sharded_cache(first.sharded_cache());
        second.optimize(&query).unwrap();
        assert!(
            second.stats().cache_hits > first.stats().cache_hits,
            "across-query cache never hit: first={} second={}",
            first.stats().cache_hits,
            second.stats().cache_hits
        );
        assert!(second.stats().resource_iterations < first.stats().resource_iterations);
    }

    #[test]
    fn stats_reset_between_optimize_calls() {
        let schema = TpchSchema::new(1.0);
        let mut opt =
            optimizer(&schema, model(), PlannerKind::Selinger, ResourceStrategy::HillClimb);
        let a = opt.optimize(&QuerySpec::tpch_q12()).unwrap();
        let b = opt.optimize(&QuerySpec::tpch_q12()).unwrap();
        assert_eq!(a.stats.resource_iterations, b.stats.resource_iterations);
    }

    /// The optimizer's level batches plan exactly what the one-join-at-a-
    /// time oracle plans through the same RAQO coster, with the same
    /// `getPlanCost` accounting.
    #[test]
    fn batch_kernel_toggle_is_bit_identical() {
        let schema = TpchSchema::new(1.0);
        let query = QuerySpec::tpch_all(&schema);
        let mut batched =
            optimizer(&schema, model(), PlannerKind::Selinger, ResourceStrategy::BruteForce);
        let a = batched.optimize(&query).unwrap();
        let mut one = RaqoCoster::new(
            model(),
            ClusterConditions::paper_default(),
            ResourceStrategy::BruteForce,
            Objective::Time,
        );
        let est = CardinalityEstimator::new(&schema.catalog, &schema.graph);
        let b = super::oracle::left_deep(&query.relations, &schema.graph, &est, &mut one).unwrap();
        assert_eq!(a.query.cost.to_bits(), b.cost.to_bits());
        assert_eq!(a.query, b, "batched level fills must be bit-identical to per-join costing");
        assert_eq!(a.stats, one.stats);
    }

    #[test]
    fn stats_match_registry_across_tpch_sweep() {
        // The parity guarantee behind `RaqoStats::from_registry_delta`:
        // every planner/strategy combination must leave the registry and
        // the per-run stats in exact agreement.
        let schema = TpchSchema::new(1.0);
        let tel = Telemetry::enabled();
        let combos: Vec<(PlannerKind, ResourceStrategy)> = vec![
            (PlannerKind::Selinger, ResourceStrategy::BruteForce),
            (PlannerKind::Selinger, ResourceStrategy::HillClimb),
            (
                PlannerKind::Selinger,
                ResourceStrategy::HillClimbCached(CacheLookup::NearestNeighbor {
                    threshold: 0.01,
                }),
            ),
            (PlannerKind::fast_randomized(7), ResourceStrategy::HillClimb),
        ];
        for (planner, strategy) in combos {
            let mut opt = optimizer(&schema, model(), planner.clone(), strategy);
            opt.set_telemetry(tel.clone());
            for query in [QuerySpec::tpch_q3(), QuerySpec::tpch_q12(), QuerySpec::tpch_all(&schema)]
            {
                let before = tel.snapshot().unwrap();
                let plan = opt.optimize(&query).expect("plan");
                let after = tel.snapshot().unwrap();
                assert_eq!(
                    plan.stats,
                    RaqoStats::from_registry_delta(&before, &after),
                    "stats diverged from registry for {planner:?}/{strategy:?}"
                );
            }
        }
    }

    #[test]
    fn zero_deadline_degrades_to_rule_based_and_still_plans() {
        use std::time::Duration;
        let schema = TpchSchema::new(1.0);
        let mut opt =
            optimizer(&schema, model(), PlannerKind::Selinger, ResourceStrategy::BruteForce);
        opt.set_budget(PlanningBudget::with_deadline(Duration::ZERO));
        for query in [QuerySpec::tpch_q2(), QuerySpec::tpch_q3(), QuerySpec::tpch_q12()] {
            let plan = opt.optimize(&query).expect("ladder must always produce a plan");
            let d = plan.degradation.expect("a blown deadline must be reported");
            assert_eq!(d.rung, crate::optimizer::DegradationRung::RuleBased);
            assert_eq!(d.trigger, crate::optimizer::DegradationTrigger::Deadline);
            assert_eq!(plan.query.joins.len(), query.num_joins());
            assert!(plan.query.cost.is_finite() && plan.query.cost > 0.0);
            assert!(
                raqo_planner::plan::covers_exactly(&plan.query.tree, &query.relations),
                "degraded plan must still cover the query"
            );
        }
    }

    #[test]
    fn tight_eval_budget_degrades_to_randomized() {
        let schema = TpchSchema::new(1.0);
        let mut opt =
            optimizer(&schema, model(), PlannerKind::Selinger, ResourceStrategy::BruteForce);
        // Brute force needs 2000 evaluations per getPlanCost call; 100 is
        // exhausted inside the first join, but the grace allowance lets the
        // reduced randomized rung finish.
        opt.set_budget(PlanningBudget::with_max_evals(100));
        let plan = opt.optimize(&QuerySpec::tpch_q3()).expect("rung 2 must produce a plan");
        let d = plan.degradation.expect("exhaustion must be reported");
        assert_eq!(d.rung, crate::optimizer::DegradationRung::Randomized);
        assert_eq!(d.trigger, crate::optimizer::DegradationTrigger::EvalBudget);
        assert!(d.evals_used >= 100);
        assert_eq!(plan.query.joins.len(), 2);
        assert!(plan.query.cost.is_finite() && plan.query.cost > 0.0);
        // Rung 2 plans carry real per-join resources (it is still RAQO).
        assert!(plan.query.joins.iter().all(|j| j.decision.resources.is_some()));
    }

    #[test]
    fn eval_cap_inside_a_long_grid_row_still_returns_a_flagged_plan() {
        let schema = TpchSchema::new(1.0);
        let mut opt =
            optimizer(&schema, model(), PlannerKind::Selinger, ResourceStrategy::BruteForce);
        // Rows of a thousand: the cap trips partway through the first row
        // slice sequence of the first scan.
        opt.set_cluster(ClusterConditions::two_dim(1.0..=10.0, 1.0..=8.8046875, 1.0, 0.0078125));
        opt.set_budget(PlanningBudget::with_max_evals(1000));
        let query = QuerySpec::tpch_q3();
        let plan = opt.optimize(&query).expect("ladder must always produce a plan");
        let d = plan.degradation.expect("exhaustion must be reported");
        assert_eq!(d.trigger, crate::optimizer::DegradationTrigger::EvalBudget);
        assert!(d.evals_used >= 1000);
        assert_eq!(plan.query.joins.len(), query.num_joins());
        assert!(plan.query.cost.is_finite() && plan.query.cost > 0.0);
    }

    #[test]
    fn unlimited_budget_is_free_and_undegraded() {
        let schema = TpchSchema::new(1.0);
        let query = QuerySpec::tpch_q3();
        let mut plain =
            optimizer(&schema, model(), PlannerKind::Selinger, ResourceStrategy::BruteForce);
        let a = plain.optimize(&query).unwrap();
        let mut budgeted =
            optimizer(&schema, model(), PlannerKind::Selinger, ResourceStrategy::BruteForce);
        budgeted.set_budget(PlanningBudget::unlimited());
        let b = budgeted.optimize(&query).unwrap();
        assert_eq!(a.query, b.query, "unlimited budget must be bit-identical");
        assert_eq!(a.stats, b.stats);
        assert!(a.degradation.is_none() && b.degradation.is_none());
        // A generous-but-finite budget that never trips is also identical:
        // budgets only ever cut work off the end of the search.
        let mut roomy =
            optimizer(&schema, model(), PlannerKind::Selinger, ResourceStrategy::BruteForce);
        roomy.set_budget(PlanningBudget::with_max_evals(10_000_000));
        let c = roomy.optimize(&query).unwrap();
        assert_eq!(a.query, c.query);
        assert!(c.degradation.is_none());
    }

    #[test]
    fn degradations_are_counted_in_the_registry() {
        use std::time::Duration;
        let schema = TpchSchema::new(1.0);
        let tel = Telemetry::enabled();
        let mut opt =
            optimizer(&schema, model(), PlannerKind::Selinger, ResourceStrategy::BruteForce);
        opt.set_telemetry(tel.clone());
        opt.set_budget(PlanningBudget::with_max_evals(100));
        opt.optimize(&QuerySpec::tpch_q3()).unwrap();
        opt.set_budget(PlanningBudget::with_deadline(Duration::ZERO));
        opt.optimize(&QuerySpec::tpch_q3()).unwrap();
        let snap = tel.snapshot().unwrap();
        assert_eq!(snap.get(Counter::DegradationsRandomized), 2, "one per degraded call");
        assert_eq!(snap.get(Counter::DegradationsRuleBased), 1);
    }

    #[test]
    fn too_many_relations_bridges_with_idp_and_records_it() {
        use raqo_catalog::RandomSchemaConfig;
        let schema = RandomSchemaConfig::with_tables(24, 13).generate();
        let query = QuerySpec::random_connected(&schema.catalog, &schema.graph, 21, 13);
        let tel = Telemetry::enabled();
        let mut opt = RaqoOptimizer::new(
            std::sync::Arc::new(schema.catalog),
            std::sync::Arc::new(schema.graph),
            model(),
            ClusterConditions::paper_default(),
            PlannerKind::Selinger,
            ResourceStrategy::HillClimb,
        );
        opt.set_telemetry(tel.clone());
        let plan = opt.optimize(&query).expect("IDP bridge plans");
        let d = plan.degradation.expect("relation-bound bridge must be reported");
        assert_eq!(d.rung, crate::optimizer::DegradationRung::IdpBridge);
        assert_eq!(d.trigger, crate::optimizer::DegradationTrigger::RelationBoundBridged);
        assert_eq!(plan.query.joins.len(), 20);
        // Bridged plans are still full RAQO: resources on every join.
        assert!(plan.query.joins.iter().all(|j| j.decision.resources.is_some()));
        let snap = tel.snapshot().unwrap();
        assert_eq!(snap.get(Counter::DegradationsIdpBridge), 1);
        assert_eq!(snap.get(Counter::DegradationsRandomized), 0, "never hit rung 2");
        assert!(snap.get(Counter::IdpRounds) >= 2);
    }

    #[test]
    fn budget_exhaustion_during_bridge_is_not_masked_by_relation_bound() {
        use raqo_catalog::RandomSchemaConfig;
        let schema = RandomSchemaConfig::with_tables(24, 13).generate();
        let query = QuerySpec::random_connected(&schema.catalog, &schema.graph, 21, 13);
        let mut opt = RaqoOptimizer::new(
            std::sync::Arc::new(schema.catalog),
            std::sync::Arc::new(schema.graph),
            model(),
            ClusterConditions::paper_default(),
            PlannerKind::Selinger,
            ResourceStrategy::HillClimb,
        );
        // A budget this tight trips inside the IDP bridge's first rounds;
        // the report must carry the budget trigger, not TooManyRelations,
        // and the ladder must still produce a plan on the grace allowance.
        opt.set_budget(PlanningBudget::with_max_evals(50));
        let plan = opt.optimize(&query).expect("ladder must still plan");
        let d = plan.degradation.expect("degradation must be reported");
        assert_eq!(d.trigger, crate::optimizer::DegradationTrigger::EvalBudget);
        assert_ne!(d.rung, crate::optimizer::DegradationRung::IdpBridge);
        assert_eq!(plan.query.joins.len(), 20);
    }

    #[test]
    fn idp_planner_kind_plans_mid_size_queries_undegraded() {
        use raqo_catalog::RandomSchemaConfig;
        let schema = RandomSchemaConfig::with_tables(26, 5).generate();
        let query = QuerySpec::random_connected(&schema.catalog, &schema.graph, 24, 5);
        let mut opt = RaqoOptimizer::new(
            std::sync::Arc::new(schema.catalog),
            std::sync::Arc::new(schema.graph),
            model(),
            ClusterConditions::paper_default(),
            PlannerKind::idp(),
            ResourceStrategy::HillClimb,
        );
        let plan = opt.optimize(&query).expect("IDP plans directly");
        // IDP as the *configured* planner is rung 1: no degradation.
        assert!(plan.degradation.is_none());
        assert_eq!(plan.query.joins.len(), 23);
        assert!(raqo_planner::plan::covers_exactly(&plan.query.tree, &query.relations));
        assert!(plan.query.joins.iter().all(|j| j.decision.resources.is_some()));
    }

    #[test]
    fn cascades_planner_kind_plans_jointly_and_never_loses_to_selinger() {
        let schema = TpchSchema::new(1.0);
        for query in [QuerySpec::tpch_q3(), QuerySpec::tpch_q12()] {
            let mut sel =
                optimizer(&schema, model(), PlannerKind::Selinger, ResourceStrategy::HillClimb);
            let selinger = sel.optimize(&query).expect("selinger plans");
            let mut cas = optimizer(
                &schema,
                model(),
                PlannerKind::cascades(),
                ResourceStrategy::HillClimb,
            );
            let cascades = cas.optimize(&query).expect("cascades plans");
            // Rung 1, no degradation: the bushy search is the configured
            // planner, not a fallback.
            assert!(cascades.degradation.is_none());
            assert_eq!(cascades.query.joins.len(), query.num_joins());
            assert!(raqo_planner::plan::covers_exactly(&cascades.query.tree, &query.relations));
            // Still full RAQO: resources on every join.
            assert!(cascades.query.joins.iter().all(|j| j.decision.resources.is_some()));
            // The bushy search space strictly contains the left-deep one.
            assert!(
                cascades.query.cost <= selinger.query.cost * (1.0 + 1e-12),
                "{}: cascades {} must not lose to selinger {}",
                query.name,
                cascades.query.cost,
                selinger.query.cost
            );
        }
    }

    #[test]
    fn cascades_budget_cut_returns_annotated_memo_cut_plan() {
        let schema = TpchSchema::new(1.0);
        let mut opt =
            optimizer(&schema, model(), PlannerKind::cascades(), ResourceStrategy::BruteForce);
        // Brute force charges 2 000 evaluations per getPlanCost call. The
        // seed warm-up for q3's two joins takes 4 000; 5 000 exhausts on
        // the first exploration candidate, so the bushy search is cut short
        // *after* a complete seed plan was recorded — the cut must answer
        // in-rung with that plan, annotated as the memo_cut rung.
        opt.set_budget(PlanningBudget::with_max_evals(5_000));
        let query = QuerySpec::tpch_q3();
        let plan = opt.optimize(&query).expect("cut search must still answer");
        let d = plan.degradation.expect("a cut must be reported");
        assert_eq!(d.rung, crate::optimizer::DegradationRung::MemoCut);
        assert_eq!(d.trigger, crate::optimizer::DegradationTrigger::EvalBudget);
        assert!(d.evals_used >= 5_000);
        assert_eq!(plan.query.joins.len(), 2);
        assert!(raqo_planner::plan::covers_exactly(&plan.query.tree, &query.relations));
        assert!(plan.query.cost.is_finite() && plan.query.cost > 0.0);
        assert!(plan.query.joins.iter().all(|j| j.decision.resources.is_some()));
    }

    #[test]
    fn a_memo_cut_plan_flags_its_trace_degraded() {
        let schema = TpchSchema::new(1.0);
        let tel = Telemetry::enabled();
        let mut opt =
            optimizer(&schema, model(), PlannerKind::cascades(), ResourceStrategy::BruteForce);
        opt.set_telemetry(tel.clone());
        // The budget of the test above: the bushy search is cut short.
        opt.set_budget(PlanningBudget::with_max_evals(5_000));
        let trace = tel.start_trace("plan.ticket");
        let plan = {
            let _in_trace = trace.enter();
            opt.optimize(&QuerySpec::tpch_q3()).expect("cut search must still answer")
        };
        trace.finish();
        let d = plan.degradation.expect("a cut must be reported");
        assert_eq!(d.rung, crate::optimizer::DegradationRung::MemoCut);
        let completed = tel.completed_traces();
        assert_eq!(completed.len(), 1);
        let flags = completed[0].flags;
        assert!(flags.contains(raqo_telemetry::TraceFlags::DEGRADED), "{flags:?}");
    }

    #[test]
    fn cascades_past_bound_bridges_with_idp() {
        use raqo_catalog::RandomSchemaConfig;
        let schema = RandomSchemaConfig::with_tables(20, 11).generate();
        let query = QuerySpec::random_connected(&schema.catalog, &schema.graph, 16, 11);
        let mut opt = RaqoOptimizer::new(
            std::sync::Arc::new(schema.catalog),
            std::sync::Arc::new(schema.graph),
            model(),
            ClusterConditions::paper_default(),
            PlannerKind::cascades(),
            ResourceStrategy::HillClimb,
        );
        let plan = opt.optimize(&query).expect("IDP bridge plans");
        let d = plan.degradation.expect("relation-bound bridge must be reported");
        assert_eq!(d.rung, crate::optimizer::DegradationRung::IdpBridge);
        assert_eq!(d.trigger, crate::optimizer::DegradationTrigger::RelationBoundBridged);
        assert_eq!(plan.query.joins.len(), 15);
    }

    #[test]
    fn cascades_past_its_hard_cap_bridges_with_idp_whatever_the_config_asks() {
        use raqo_catalog::RandomSchemaConfig;
        let schema = RandomSchemaConfig::with_tables(20, 11).generate();
        let query = QuerySpec::random_connected(&schema.catalog, &schema.graph, 17, 11);
        let mut opt = RaqoOptimizer::new(
            std::sync::Arc::new(schema.catalog),
            std::sync::Arc::new(schema.graph),
            model(),
            ClusterConditions::paper_default(),
            PlannerKind::Cascades(raqo_planner::CascadesConfig {
                max_relations: 64,
                ..Default::default()
            }),
            ResourceStrategy::HillClimb,
        );
        let plan = opt.optimize(&query).expect("IDP bridge plans");
        let d = plan.degradation.expect("relation-bound bridge must be reported");
        assert_eq!(d.rung, crate::optimizer::DegradationRung::IdpBridge);
        assert_eq!(d.trigger, crate::optimizer::DegradationTrigger::RelationBoundBridged);
        assert_eq!(plan.query.joins.len(), 16);
    }

    #[test]
    fn cascades_fixed_resource_planning_matches_or_beats_selinger() {
        let schema = TpchSchema::new(1.0);
        let query = QuerySpec::tpch_q3();
        let mut sel =
            optimizer(&schema, model(), PlannerKind::Selinger, ResourceStrategy::HillClimb);
        let a = sel.plan_for_resources(&query, 40.0, 8.0).expect("selinger fixed");
        let mut cas =
            optimizer(&schema, model(), PlannerKind::cascades(), ResourceStrategy::HillClimb);
        let b = cas.plan_for_resources(&query, 40.0, 8.0).expect("cascades fixed");
        assert!(b.cost <= a.cost * (1.0 + 1e-12));
        assert!(raqo_planner::plan::covers_exactly(&b.tree, &query.relations));
    }

    #[test]
    fn too_many_relations_bridges_fixed_resource_planning() {
        use raqo_catalog::RandomSchemaConfig;
        let schema = RandomSchemaConfig::with_tables(24, 7).generate();
        let query = QuerySpec::random_connected(&schema.catalog, &schema.graph, 21, 7);
        assert_eq!(query.relations.len(), 21);
        let mut opt = RaqoOptimizer::new(
            std::sync::Arc::new(schema.catalog),
            std::sync::Arc::new(schema.graph),
            model(),
            ClusterConditions::paper_default(),
            PlannerKind::Selinger,
            ResourceStrategy::HillClimb,
        );
        // 21 relations exceed the exhaustive-DP bound; fixed-resource
        // planning bridges with IDP instead of failing.
        let planned = opt
            .plan_for_resources(&query, 10.0, 6.0)
            .expect("IDP bridge should still plan");
        assert!(raqo_planner::plan::covers_exactly(&planned.tree, &query.relations));
        assert_eq!(planned.joins.len(), 20);
        assert!(planned.cost.is_finite() && planned.cost > 0.0);
    }

    /// Past both exhaustive bounds, Selinger and the bushy search bridge to
    /// IDP from every entry point: `optimize` reports the bridge,
    /// fixed-resource planning plans, and a budget too small for any
    /// resource search still plans on the rule-based rung. Inputs: a
    /// 24-relation random join, and 32-relation chain and star queries.
    #[test]
    fn every_entry_point_bridges_past_the_bound() {
        use raqo_catalog::{RandomSchema, RandomSchemaConfig};
        let random = RandomSchemaConfig::with_tables(26, 4).generate();
        let (chain, star) = (RandomSchema::chain(32, 32), RandomSchema::star(32, 32));
        let every_table = |s: &RandomSchema| QuerySpec::new("q", s.catalog.table_ids().collect());
        let inputs = [
            (
                &random,
                QuerySpec::random_connected(&random.catalog, &random.graph, 24, 7),
                ResourceStrategy::BruteForce,
            ),
            (&chain, every_table(&chain), ResourceStrategy::HillClimb),
            (&star, every_table(&star), ResourceStrategy::HillClimb),
        ];
        for (schema, query, strategy) in &inputs {
            let joins = query.relations.len() - 1;
            for planner in [PlannerKind::Selinger, PlannerKind::cascades()] {
                let case = format!("{planner:?}, {} relations", joins + 1);
                let mut opt = RaqoOptimizer::new(
                    &schema.catalog,
                    &schema.graph,
                    model(),
                    ClusterConditions::paper_default(),
                    planner.clone(),
                    *strategy,
                );
                let plan = opt.optimize(query).expect("IDP bridge plans");
                let d = plan.degradation.expect("the bridge must be reported");
                assert_eq!(d.rung, DegradationRung::IdpBridge, "{case}");
                assert_eq!(d.trigger, DegradationTrigger::RelationBoundBridged, "{case}");
                assert_eq!(plan.query.joins.len(), joins, "{case}");
                assert!(plan.query.cost.is_finite() && plan.query.cost > 0.0, "{case}");

                let fixed =
                    opt.plan_for_resources(query, 10.0, 6.0).expect("fixed-resource bridge");
                assert!(raqo_planner::plan::covers_exactly(&fixed.tree, &query.relations));

                opt.set_budget(PlanningBudget::with_max_evals(0));
                let plan = opt.optimize(query).expect("the bottom rung always plans");
                let d = plan.degradation.expect("the blown budget must be reported");
                assert_eq!(d.rung, DegradationRung::RuleBased, "{case}");
                assert_eq!(plan.query.joins.len(), joins, "{case}");
                assert!(raqo_planner::plan::covers_exactly(&plan.query.tree, &query.relations));
            }
        }
    }

    /// `Counter::MemoHits` is still exported, and nothing bumps it: every
    /// planner costs its candidates afresh on every run, and EXPLAIN
    /// ANALYZE has no memo line to print.
    #[test]
    fn no_planner_counts_a_memo_hit() {
        let schema = TpchSchema::new(1.0);
        let query = QuerySpec::tpch_all(&schema);
        for planner in [
            PlannerKind::Selinger,
            PlannerKind::idp(),
            PlannerKind::fast_randomized(7),
            PlannerKind::cascades(),
        ] {
            let tel = Telemetry::enabled();
            let mut opt = optimizer(&schema, model(), planner.clone(), ResourceStrategy::HillClimb);
            opt.set_telemetry(tel.clone());
            let first = opt.optimize(&query).unwrap();
            let second = opt.optimize(&query).unwrap();
            assert_eq!(first.stats, second.stats, "{planner:?}");
            let snap = tel.snapshot().unwrap();
            assert_eq!(snap.get(Counter::PlanCostCalls), 2 * first.stats.plan_cost_calls);
            assert_eq!(snap.get(Counter::MemoHits), 0, "{planner:?}");
            let analyzed = crate::explain_analyze(&second, &schema.catalog, &tel);
            assert!(!analyzed.contains("memo"), "{planner:?}: {analyzed}");
        }
    }

    /// Nothing carries over between two bridged runs of one optimizer:
    /// the second re-plans every sub-plan and gets the first's plan, bit
    /// for bit, with the same `getPlanCost` accounting.
    #[test]
    fn bridged_rerun_replans_the_same_plan_from_scratch() {
        use raqo_catalog::RandomSchemaConfig;
        let schema = RandomSchemaConfig::with_tables(24, 19).generate();
        let query = QuerySpec::random_connected(&schema.catalog, &schema.graph, 22, 19);
        let mut opt = RaqoOptimizer::new(
            std::sync::Arc::new(schema.catalog),
            std::sync::Arc::new(schema.graph),
            model(),
            ClusterConditions::paper_default(),
            PlannerKind::Selinger,
            ResourceStrategy::HillClimb,
        );
        let a = opt.optimize(&query).expect("bridged plan");
        let b = opt.optimize(&query).expect("bridged plan");
        assert_eq!(a.degradation.map(|d| d.rung), Some(DegradationRung::IdpBridge));
        assert_eq!(a.query, b.query);
        assert_eq!(a.query.cost.to_bits(), b.query.cost.to_bits());
        assert_eq!(a.stats, b.stats);
        assert!(a.stats.plan_cost_calls > 0);
    }

    /// Re-planning after the cluster changes is planning afresh: the new
    /// plan is what a fresh optimizer makes for the new conditions, and
    /// going back gives the first plan again, bit for bit.
    #[test]
    fn each_cluster_gets_the_plan_a_fresh_optimizer_makes_for_it() {
        let schema = TpchSchema::new(1.0);
        let query = QuerySpec::tpch_q3();
        let small = ClusterConditions::two_dim(1.0..=8.0, 1.0..=2.0, 1.0, 1.0);
        let selinger =
            || optimizer(&schema, model(), PlannerKind::Selinger, ResourceStrategy::BruteForce);
        let mut opt = selinger();
        let first = opt.optimize(&query).unwrap();
        opt.set_cluster(small);
        let shrunk = opt.optimize(&query).unwrap();
        opt.set_cluster(ClusterConditions::paper_default());
        let restored = opt.optimize(&query).unwrap();

        let mut fresh = selinger();
        fresh.set_cluster(small);
        let expect = fresh.optimize(&query).unwrap();
        assert_eq!(shrunk.query, expect.query);
        assert_eq!(shrunk.query.cost.to_bits(), expect.query.cost.to_bits());
        assert_eq!(shrunk.stats, expect.stats);
        assert_ne!(shrunk.query, first.query, "the smaller cluster must change the decisions");
        assert_eq!(restored.query, first.query);
        assert_eq!(restored.query.cost.to_bits(), first.query.cost.to_bits());
        assert_eq!(restored.stats, first.stats);
    }

    /// A bushy plan re-planned on the same optimizer, or on a fresh one,
    /// is the first plan bit for bit after the same search.
    #[test]
    fn cascades_rerun_reproduces_the_first_plan_bit_for_bit() {
        let schema = TpchSchema::new(1.0);
        let query = QuerySpec::tpch_all(&schema);
        let cascades =
            || optimizer(&schema, model(), PlannerKind::cascades(), ResourceStrategy::HillClimb);
        let mut opt = cascades();
        let first = opt.optimize(&query).unwrap();
        let again = opt.optimize(&query).unwrap();
        let fresh = cascades().optimize(&query).unwrap();
        for (case, run) in [("rerun", &again), ("fresh", &fresh)] {
            assert_eq!(run.query, first.query, "{case}");
            assert_eq!(run.query.cost.to_bits(), first.query.cost.to_bits(), "{case}");
            assert_eq!(run.stats, first.stats, "{case}");
        }
    }

    /// What carries over between runs is the resource-plan cache (§VI-B),
    /// not sub-plans: a rerun on a warm exact-match cache costs every
    /// candidate join again, answers its resource searches from the cache,
    /// and lands on the same plan.
    #[test]
    fn a_warm_cache_rerun_reuses_resource_plans_not_sub_plans() {
        let schema = TpchSchema::new(1.0);
        let query = QuerySpec::tpch_all(&schema);
        let strategy = ResourceStrategy::HillClimbCached(CacheLookup::Exact);
        let mut opt = optimizer(&schema, model(), PlannerKind::Selinger, strategy);
        let cold = opt.optimize(&query).unwrap();
        let warm = opt.optimize(&query).unwrap();
        assert_eq!(warm.query, cold.query);
        assert_eq!(warm.stats.plan_cost_calls, cold.stats.plan_cost_calls);
        assert!(
            warm.stats.cache_hits > cold.stats.cache_hits,
            "the rerun never hit the warm cache: cold={:?} warm={:?}",
            cold.stats,
            warm.stats
        );
        assert!(warm.stats.resource_iterations < cold.stats.resource_iterations);
    }
}

/// The left-deep oracle of `raqo-planner`'s tests, for the unit tests.
#[cfg(test)]
#[path = "../../planner/tests/oracle/mod.rs"]
mod oracle;
