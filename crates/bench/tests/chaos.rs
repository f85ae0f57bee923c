//! Chaos suite: end-to-end fault injection through the public optimizer
//! API.
//!
//! The injector ([`raqo_faults`]) is process-global, so every test takes
//! `INJECTOR` for its whole body and wraps its faults in a [`FaultGuard`];
//! the suite lives in its own test binary so no unrelated test shares the
//! process.

use raqo_catalog::{tpch::TpchSchema, QuerySpec};
use raqo_core::{
    DegradationRung, DegradationTrigger, PlannerKind, PlanningBudget, RaqoOptimizer, RaqoPlan,
    ResourceStrategy, Telemetry,
};
use raqo_cost::JoinCostModel;
use raqo_faults::{Fault, FaultGuard, FaultKind};
use raqo_resource::{ClusterConditions, ShardedCacheBank};
use raqo_telemetry::{Counter, TraceFlags};
use std::sync::Mutex;
use std::time::Duration;

/// Serializes tests because the fault injector is process-global state.
static INJECTOR: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    // A panicking chaos test must not wedge the rest of the suite.
    INJECTOR.lock().unwrap_or_else(|e| e.into_inner())
}

fn optimizer<'a>(
    schema: &'a TpchSchema,
    model: &'a JoinCostModel,
    strategy: ResourceStrategy,
) -> RaqoOptimizer<'a, JoinCostModel> {
    RaqoOptimizer::new(
        &schema.catalog,
        &schema.graph,
        model,
        ClusterConditions::paper_default(),
        PlannerKind::Selinger,
        strategy,
    )
}

fn assert_valid(plan: &RaqoPlan, query: &QuerySpec) {
    assert!(
        raqo_planner::plan::covers_exactly(&plan.query.tree, &query.relations),
        "plan does not cover the query"
    );
    assert_eq!(plan.query.joins.len(), query.num_joins());
    assert!(plan.query.cost.is_finite() && plan.query.cost > 0.0);
}

/// Run `f` with the default panic output suppressed — injected panics are
/// expected and should not spam the test log.
fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

#[test]
fn injected_nan_is_sanitized_and_the_query_still_plans() {
    let _serial = lock();
    let _guard = FaultGuard::new();
    let schema = TpchSchema::new(1.0);
    let model = JoinCostModel::trained_hive();
    let query = QuerySpec::tpch_all(&schema);

    // Poison one scalar and one batch model evaluation mid-search.
    for (scalar_hit, batch_hit) in [(7, 2), (5, 5)] {
        raqo_faults::arm(Fault::at("cost.model.scalar", FaultKind::Nan, scalar_hit));
        raqo_faults::arm(Fault::at("cost.model.batch", FaultKind::Nan, batch_hit));

        let tel = Telemetry::enabled();
        let mut opt = optimizer(&schema, &model, ResourceStrategy::HillClimb);
        opt.set_telemetry(tel.clone());
        let plan = opt.optimize(&query).expect("NaN injection must not kill planning");
        raqo_faults::disarm_all();
        assert_valid(&plan, &query);

        let snap = tel.snapshot().expect("enabled");
        let sanitized =
            snap.get(Counter::CostSanitizationsScalar) + snap.get(Counter::CostSanitizationsBatch);
        assert!(sanitized >= 1, "injected NaN ({scalar_hit}, {batch_hit}) was not counted");
    }
}

#[test]
fn a_cost_model_panic_on_one_thread_reaches_the_caller() {
    let _serial = lock();
    let schema = TpchSchema::new(1.0);
    let model = JoinCostModel::trained_hive();
    let query = QuerySpec::tpch_q3();

    let mut opt = optimizer(&schema, &model, ResourceStrategy::HillClimb);
    let clean = opt.optimize(&query).expect("clean plan");

    // With no worker there is nothing to recover: the panic unwinds out of
    // `optimize`. The optimizer stays usable, and its next call plans as
    // before.
    let _guard = FaultGuard::new();
    raqo_faults::arm(Fault::once("cost.model.scalar", FaultKind::Panic));
    opt.set_telemetry(Telemetry::enabled());
    let out = with_quiet_panics(|| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| opt.optimize(&query)))
    });
    assert!(out.is_err(), "a single-thread panic must reach the caller");
    let again = opt.optimize(&query).expect("plan after the panic");
    assert_eq!(again.query, clean.query);
    assert_eq!(again.stats, clean.stats);
}

#[test]
fn a_brute_force_scan_panic_reaches_the_caller_and_the_next_plan_is_clean() {
    let _serial = lock();
    let schema = TpchSchema::new(1.0);
    let model = JoinCostModel::trained_hive();
    let query = QuerySpec::tpch_all(&schema);

    let clean = optimizer(&schema, &model, ResourceStrategy::BruteForce)
        .optimize(&query)
        .expect("clean plan");

    // The probe sits in the row kernel, inside a grid scan: the panic
    // unwinds out of the scan, the batch and `optimize`, and the same
    // optimizer's next call plans exactly as a fresh one.
    let _guard = FaultGuard::new();
    raqo_faults::arm(Fault::once("cost.model.batch", FaultKind::Panic));
    let mut opt = optimizer(&schema, &model, ResourceStrategy::BruteForce);
    let out = with_quiet_panics(|| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| opt.optimize(&query)))
    });
    assert!(out.is_err(), "a scan panic must reach the caller");
    let again = opt.optimize(&query).expect("plan after the panic");
    assert_eq!(again.query, clean.query, "the panic changed the next plan");
    assert_eq!(again.stats, clean.stats, "the panic changed the next counters");
}

#[test]
fn injected_nan_flags_the_plans_trace_cost_sanitized() {
    let _serial = lock();
    let _guard = FaultGuard::new();
    let schema = TpchSchema::new(1.0);
    let model = JoinCostModel::trained_hive();
    let query = QuerySpec::tpch_q3();

    // Sanitization fires on the thread that entered the trace, for the
    // scalar model (hill climbing) and the row kernel (brute force) alike.
    for (strategy, site) in [
        (ResourceStrategy::HillClimb, "cost.model.scalar"),
        (ResourceStrategy::BruteForce, "cost.model.batch"),
    ] {
        raqo_faults::arm(Fault::at(site, FaultKind::Nan, 3));
        let tel = Telemetry::enabled();
        let mut opt = optimizer(&schema, &model, strategy);
        opt.set_telemetry(tel.clone());
        let trace = tel.start_trace("plan.ticket");
        let plan = {
            let _in_trace = trace.enter();
            opt.optimize(&query).expect("NaN injection must not kill planning")
        };
        trace.finish();
        raqo_faults::disarm_all();
        assert_valid(&plan, &query);
        let completed = tel.completed_traces();
        assert_eq!(completed.len(), 1, "{strategy:?}");
        let flags = completed[0].flags;
        assert!(flags.contains(TraceFlags::COST_SANITIZED), "{strategy:?}: {flags:?}");
    }
}

#[test]
fn plan_cost_failure_degrades_to_rule_based_not_none() {
    let _serial = lock();
    let _guard = FaultGuard::new();
    let schema = TpchSchema::new(1.0);
    let model = JoinCostModel::trained_hive();
    let query = QuerySpec::tpch_q3();

    // Every getPlanCost call fails: rungs 1 and 2 become infeasible, the
    // rule-based floor (which never routes through this probe) holds.
    raqo_faults::arm(Fault::repeating("core.plan_cost", FaultKind::Fail));

    let plan = optimizer(&schema, &model, ResourceStrategy::HillClimb)
        .optimize(&query)
        .expect("ladder must bottom out at the rule-based rung");
    assert_valid(&plan, &query);
    let d = plan.degradation.expect("total cost failure must be reported");
    assert_eq!(d.rung, DegradationRung::RuleBased);
    assert_eq!(d.trigger, DegradationTrigger::Infeasible);
}

#[test]
fn injected_delay_blows_the_deadline_and_lands_on_rung_three() {
    let _serial = lock();
    let _guard = FaultGuard::new();
    let schema = TpchSchema::new(1.0);
    let model = JoinCostModel::trained_hive();
    let query = QuerySpec::tpch_q3();

    // One slow cost call (50 ms against a 5 ms deadline) must trip the
    // deadline; grace never extends the clock, so the ladder skips the
    // randomized rung and lands on the budget-free rule-based floor.
    raqo_faults::arm(Fault::once("core.plan_cost", FaultKind::Delay(Duration::from_millis(50))));

    let mut opt = optimizer(&schema, &model, ResourceStrategy::HillClimb);
    opt.set_budget(PlanningBudget::with_deadline(Duration::from_millis(5)));
    let plan = opt.optimize(&query).expect("deadline blowout must still plan");
    assert_valid(&plan, &query);
    let d = plan.degradation.expect("deadline blowout must be reported");
    assert_eq!(d.rung, DegradationRung::RuleBased);
    assert_eq!(d.trigger, DegradationTrigger::Deadline);
}

#[test]
fn one_ms_deadline_with_faults_plans_every_sweep_query() {
    let _serial = lock();
    let _guard = FaultGuard::new();
    let schema = TpchSchema::new(1.0);
    let model = JoinCostModel::trained_hive();

    raqo_faults::arm(Fault::repeating("cost.model.scalar", FaultKind::Nan));
    raqo_faults::arm(Fault::repeating("cost.model.batch", FaultKind::Nan));

    for query in [
        QuerySpec::tpch_q2(),
        QuerySpec::tpch_q3(),
        QuerySpec::tpch_q12(),
        QuerySpec::tpch_all(&schema),
    ] {
        let mut opt = optimizer(&schema, &model, ResourceStrategy::HillClimb);
        opt.set_budget(PlanningBudget::with_deadline(Duration::from_millis(1)));
        let plan = opt.optimize(&query).expect("faults + deadline must still plan");
        assert_valid(&plan, &query);
        // Under hostile conditions the run must *name* how it degraded.
        let d = plan.degradation.expect("hostile run must report its rung");
        assert!(matches!(d.rung, DegradationRung::Randomized | DegradationRung::RuleBased));
    }
}

/// No budget and no fault: every sweep query plans undegraded, and the
/// same twice.
#[test]
fn disarmed_probes_change_nothing() {
    let _serial = lock();
    let _guard = FaultGuard::new();
    let schema = TpchSchema::new(1.0);
    let model = JoinCostModel::trained_hive();

    assert!(!raqo_faults::armed());
    for query in [
        QuerySpec::tpch_q2(),
        QuerySpec::tpch_q3(),
        QuerySpec::tpch_q12(),
        QuerySpec::tpch_all(&schema),
    ] {
        let a = optimizer(&schema, &model, ResourceStrategy::HillClimb)
            .optimize(&query)
            .expect("plan");
        let b = optimizer(&schema, &model, ResourceStrategy::HillClimb)
            .optimize(&query)
            .expect("plan");
        assert!(a.degradation.is_none() && b.degradation.is_none(), "{}", query.name);
        assert_eq!(a.query.tree, b.query.tree, "{}", query.name);
        assert_eq!(a.query.cost.to_bits(), b.query.cost.to_bits(), "{}", query.name);
    }
}

#[test]
fn corrupted_cache_file_is_quarantined_with_a_typed_error() {
    let _serial = lock();
    for seed in [1234, 42] {
        let dir =
            std::env::temp_dir().join(format!("raqo-chaos-test-{}-{seed}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("bank.json");

        let bank = ShardedCacheBank::with_shards(1);
        bank.checkpoint(&path).expect("checkpoint bank");
        raqo_faults::corrupt_file(&path, seed).expect("corrupt file");

        let err = ShardedCacheBank::load(&path, 1, None).expect_err("corrupt load must fail");
        assert!(err.is_corrupt(), "seed {seed}: expected a corruption error, got: {err}");
        assert!(!path.exists(), "seed {seed}: corrupt file must be moved out of the way");
        assert!(
            dir.join("bank.json.corrupt").exists(),
            "seed {seed}: corrupt file must be preserved for forensics"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Under 1% head sampling, a planning service still retains the two
/// tickets worth keeping — one that planned through an injected NaN
/// (flagged `COST_SANITIZED`) and one whose zero eval budget degraded it
/// (flagged `BUDGET_EXHAUSTED`) — while nearly all clean traffic samples
/// out.
#[test]
fn flagged_service_tickets_survive_one_percent_head_sampling() {
    use raqo_core::{PlanRequest, PlanningService, Priority, ServiceConfig};
    use raqo_telemetry::TraceConfig;

    static MODEL: std::sync::OnceLock<JoinCostModel> = std::sync::OnceLock::new();
    let _serial = lock();
    let _guard = FaultGuard::new();
    let schema = TpchSchema::new(1.0);
    let tel = Telemetry::with_trace_config(TraceConfig { head_rate: 0.01, seed: 7 });
    let mut config = ServiceConfig { workers: 1, ..Default::default() };
    config.budgets[Priority::Batch as usize] = PlanningBudget::with_max_evals(0);
    let service = PlanningService::start(
        config,
        ShardedCacheBank::with_shards(8),
        tel.clone(),
        |_| {
            RaqoOptimizer::new(
                std::sync::Arc::new(schema.catalog.clone()),
                std::sync::Arc::new(schema.graph.clone()),
                MODEL.get_or_init(JoinCostModel::trained_hive),
                ClusterConditions::paper_default(),
                PlannerKind::Selinger,
                ResourceStrategy::HillClimbCached(raqo_resource::CacheLookup::NearestNeighbor {
                    threshold: 0.01,
                }),
            )
        },
    );

    raqo_faults::arm(Fault::at("cost.model.scalar", FaultKind::Nan, 5));
    raqo_faults::arm(Fault::at("cost.model.batch", FaultKind::Nan, 5));
    let sanitized =
        service.submit(PlanRequest::new(QuerySpec::tpch_q3(), Priority::Interactive)).wait();
    raqo_faults::disarm_all();
    assert!(sanitized.plan.is_some(), "the faulted ticket must still plan");

    let exhausted = service.submit(PlanRequest::new(QuerySpec::tpch_q12(), Priority::Batch)).wait();
    let plan = exhausted.plan.as_ref().expect("the zero-budget ticket must still plan");
    assert!(plan.degradation.is_some(), "a zero budget must degrade");

    for i in 0..20u32 {
        service
            .submit(PlanRequest::new(QuerySpec::tpch_q3(), Priority::Standard).with_namespace(i))
            .wait();
    }
    drop(service);

    let completed = tel.completed_traces();
    for (label, id, want) in [
        ("sanitized", sanitized.trace_id, TraceFlags::COST_SANITIZED),
        ("budget-exhausted", exhausted.trace_id, TraceFlags::BUDGET_EXHAUSTED),
    ] {
        let trace = completed
            .iter()
            .find(|t| t.trace_id == id)
            .unwrap_or_else(|| panic!("{label} ticket not retained at a 1% head rate"));
        assert!(trace.flags.contains(want), "{label} ticket retained but not flagged {want:?}");
    }
    let snap = tel.snapshot().expect("enabled");
    assert_eq!(snap.get(Counter::TracesStarted), 22);
    assert!(
        snap.get(Counter::TracesSampledOut) >= 18,
        "head sampling kept too much clean traffic ({} sampled out)",
        snap.get(Counter::TracesSampledOut)
    );
}
