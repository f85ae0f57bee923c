//! Chaos suite: end-to-end fault injection through the public optimizer
//! API.
//!
//! The injector ([`raqo_faults`]) is process-global, so every test takes
//! `INJECTOR` for its whole body and wraps its faults in a [`FaultGuard`];
//! the suite lives in its own test binary so no unrelated test shares the
//! process.

use raqo_catalog::{tpch::TpchSchema, QuerySpec};
use raqo_core::{
    DegradationRung, DegradationTrigger, Parallelism, PlannerKind, PlanningBudget, RaqoOptimizer,
    RaqoPlan, ResourceStrategy, Telemetry,
};
use raqo_cost::JoinCostModel;
use raqo_faults::{Fault, FaultGuard, FaultKind};
use raqo_resource::{ClusterConditions, ShardedCacheBank};
use raqo_telemetry::Counter;
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

    // Poison one scalar and one batch model evaluation mid-search.
    raqo_faults::arm(Fault::at("cost.model.scalar", FaultKind::Nan, 7));
    raqo_faults::arm(Fault::at("cost.model.batch", FaultKind::Nan, 2));

    let tel = Telemetry::enabled();
    let query = QuerySpec::tpch_all(&schema);
    let mut opt = optimizer(&schema, &model, ResourceStrategy::HillClimb);
    opt.set_telemetry(tel.clone());
    let plan = opt.optimize(&query).expect("NaN injection must not kill planning");
    assert_valid(&plan, &query);

    let snap = tel.snapshot().expect("enabled");
    let sanitized =
        snap.get(Counter::CostSanitizationsScalar) + snap.get(Counter::CostSanitizationsBatch);
    assert!(sanitized >= 1, "injected NaN was not counted as sanitized");
}

#[test]
fn worker_panic_recovers_to_a_bit_identical_plan() {
    let _serial = lock();
    let schema = TpchSchema::new(1.0);
    let model = JoinCostModel::trained_hive();
    let query = QuerySpec::tpch_all(&schema);

    let off = optimizer(&schema, &model, ResourceStrategy::HillClimb)
        .optimize(&query)
        .expect("sequential plan");
    let clean = optimizer(&schema, &model, ResourceStrategy::HillClimb)
        .with_parallelism(Parallelism::Threads(2))
        .optimize(&query)
        .expect("clean parallel plan");

    let _guard = FaultGuard::new();
    raqo_faults::arm(Fault::once("core.worker.cost", FaultKind::Panic));
    let tel = Telemetry::enabled();
    let mut opt =
        optimizer(&schema, &model, ResourceStrategy::HillClimb).with_parallelism(Parallelism::Threads(2));
    opt.set_telemetry(tel.clone());
    let recovered = with_quiet_panics(|| opt.optimize(&query)).expect("plan despite worker panic");

    assert_eq!(clean.query.tree, recovered.query.tree, "recovery changed the join tree");
    assert_eq!(
        clean.query.cost.to_bits(),
        recovered.query.cost.to_bits(),
        "recovery changed the plan cost: {} vs {}",
        clean.query.cost,
        recovered.query.cost
    );
    let panics = tel.snapshot().expect("enabled").get(Counter::WorkerPanics);
    assert!(panics >= 1, "worker panic was not counted");
    // Threads change speed, not the plan: the recovered plan is also the
    // one a single thread finds.
    assert_eq!(off.query, recovered.query, "the thread count changed the plan");
    assert_eq!(off.stats, recovered.stats, "the thread count changed the counters");
}

#[test]
fn brute_force_scan_panic_on_a_worker_recovers_to_the_single_thread_plan() {
    let _serial = lock();
    let schema = TpchSchema::new(1.0);
    let model = JoinCostModel::trained_hive();
    let query = QuerySpec::tpch_all(&schema);

    let off = optimizer(&schema, &model, ResourceStrategy::BruteForce)
        .optimize(&query)
        .expect("sequential plan");

    // The probe sits in the row kernel, inside a grid scan; the scan runs
    // on the worker that costs its join, so the panic unwinds out of that
    // worker's chunk, which the calling thread then costs again.
    let _guard = FaultGuard::new();
    raqo_faults::arm(Fault::once("cost.model.batch", FaultKind::Panic));
    let tel = Telemetry::enabled();
    let mut opt = optimizer(&schema, &model, ResourceStrategy::BruteForce)
        .with_parallelism(Parallelism::Threads(2));
    opt.set_telemetry(tel.clone());
    let recovered = with_quiet_panics(|| opt.optimize(&query)).expect("plan despite scan panic");

    assert_eq!(off.query, recovered.query, "recovery changed the plan");
    assert_eq!(off.stats, recovered.stats, "recovery changed the counters");
    let panics = tel.snapshot().expect("enabled").get(Counter::WorkerPanics);
    assert_eq!(panics, 1, "the scan panic was not counted once");
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
    let tel = Telemetry::enabled();
    opt.set_telemetry(tel.clone());
    let out = with_quiet_panics(|| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| opt.optimize(&query)))
    });
    assert!(out.is_err(), "a single-thread panic must reach the caller");
    assert_eq!(tel.snapshot().expect("enabled").get(Counter::WorkerPanics), 0);
    let again = opt.optimize(&query).expect("plan after the panic");
    assert_eq!(again.query, clean.query);
    assert_eq!(again.stats, clean.stats);
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

#[test]
fn disarmed_probes_change_nothing() {
    let _serial = lock();
    let _guard = FaultGuard::new();
    let schema = TpchSchema::new(1.0);
    let model = JoinCostModel::trained_hive();
    let query = QuerySpec::tpch_all(&schema);

    assert!(!raqo_faults::armed());
    let a = optimizer(&schema, &model, ResourceStrategy::HillClimb)
        .optimize(&query)
        .expect("plan");
    let b = optimizer(&schema, &model, ResourceStrategy::HillClimb)
        .optimize(&query)
        .expect("plan");
    assert!(a.degradation.is_none() && b.degradation.is_none());
    assert_eq!(a.query.tree, b.query.tree);
    assert_eq!(a.query.cost.to_bits(), b.query.cost.to_bits());
}

#[test]
fn corrupted_cache_file_is_quarantined_with_a_typed_error() {
    let _serial = lock();
    let dir = std::env::temp_dir().join(format!("raqo-chaos-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("bank.json");

    let bank = ShardedCacheBank::with_shards(1);
    bank.checkpoint(&path).expect("checkpoint bank");
    raqo_faults::corrupt_file(&path, 1234).expect("corrupt file");

    let err = ShardedCacheBank::load(&path, 1, None).expect_err("corrupt load must fail");
    assert!(err.is_corrupt(), "expected a corruption error, got: {err}");
    assert!(!path.exists(), "corrupt file must be moved out of the way");
    assert!(
        dir.join("bank.json.corrupt").exists(),
        "corrupt file must be preserved for forensics"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
