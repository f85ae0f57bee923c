//! Cross-crate integration: the full RAQO pipeline from schema to executed
//! (simulated) plan.

use raqo::prelude::*;

fn optimizer<'a>(
    schema: &'a TpchSchema,
    model: &'a SimOracleCost,
    strategy: ResourceStrategy,
) -> RaqoOptimizer<'a, SimOracleCost> {
    RaqoOptimizer::new(
        &schema.catalog,
        &schema.graph,
        model,
        ClusterConditions::paper_default(),
        PlannerKind::Selinger,
        strategy,
    )
}

/// Every join of a RAQO plan must actually run (no OOM) on the simulator
/// at exactly the resources the optimizer requested, and the estimate must
/// match the simulation (the oracle model *is* the simulator).
#[test]
fn raqo_plans_execute_at_their_planned_resources() {
    let schema = TpchSchema::sf100();
    let model = SimOracleCost::hive();
    let engine = Engine::hive();
    let mut opt = optimizer(&schema, &model, ResourceStrategy::HillClimb);
    for query in QuerySpec::tpch_suite(&schema) {
        let plan = opt.optimize(&query).expect("plan");
        for join in &plan.query.joins {
            let (nc, cs) = join.decision.resources.expect("resources planned");
            let simulated = engine
                .join_time(join.decision.join, join.io.build_gb, join.io.probe_gb, nc, cs)
                .unwrap_or_else(|e| panic!("{}: planned join OOMs: {e}", query.name));
            let estimated = join.decision.objectives.time_sec;
            assert!(
                (simulated - estimated).abs() < 1e-6,
                "{}: estimate {estimated} vs simulation {simulated}",
                query.name
            );
        }
    }
}

/// The headline claim, end to end: the joint plan is never worse than the
/// two-step approach (default 10 MB rule for the plan + any fixed resource
/// guess), and is strictly better for at least one guess.
#[test]
fn joint_optimization_dominates_two_step_practice() {
    let schema = TpchSchema::sf100();
    let model = SimOracleCost::hive();
    let mut opt = optimizer(&schema, &model, ResourceStrategy::BruteForce);
    let query = QuerySpec::tpch_q3();
    let joint = opt.optimize(&query).expect("plan");

    let guesses = [(10.0, 2.0), (10.0, 6.0), (20.0, 10.0), (60.0, 4.0), (100.0, 10.0)];
    let mut strictly_better = 0;
    for (nc, cs) in guesses {
        let two_step = opt.plan_for_resources(&query, nc, cs).expect("plan");
        assert!(
            joint.time_sec() <= two_step.objectives.time_sec + 1e-6,
            "joint {} worse than guess ({nc},{cs}) {}",
            joint.time_sec(),
            two_step.objectives.time_sec
        );
        if joint.time_sec() < two_step.objectives.time_sec * 0.9 {
            strictly_better += 1;
        }
    }
    assert!(strictly_better >= 2, "joint plan should clearly beat some guesses");
}

/// The learned cost model and the oracle must agree on plan choices often
/// enough that learned-model planning stays near-optimal when *executed*
/// on the simulator.
#[test]
fn learned_model_plans_execute_close_to_oracle_plans() {
    let schema = TpchSchema::new(1.0);
    let engine = Engine::hive();
    let oracle = SimOracleCost::hive();
    let learned = JoinCostModel::trained_hive_extended();

    for query in [QuerySpec::tpch_q3(), QuerySpec::tpch_q2()] {
        let mut oracle_opt = optimizer(&schema, &oracle, ResourceStrategy::BruteForce);
        let oracle_plan = oracle_opt.optimize(&query).expect("plan");

        let mut learned_opt = RaqoOptimizer::new(
            &schema.catalog,
            &schema.graph,
            &learned,
            ClusterConditions::paper_default(),
            PlannerKind::Selinger,
            ResourceStrategy::BruteForce,
        );
        let learned_plan = learned_opt.optimize(&query).expect("plan");

        // Execute the learned plan's decisions on the simulator.
        let mut executed = 0.0;
        for join in &learned_plan.query.joins {
            let (nc, cs) = join.decision.resources.unwrap();
            match engine.join_time(join.decision.join, join.io.build_gb, join.io.probe_gb, nc, cs)
            {
                Ok(t) => executed += t,
                // The learned model may pick a BHJ the simulator rejects
                // (its OOM boundary is the same rule, so this should not
                // happen — fail loudly if it does).
                Err(e) => panic!("{}: learned plan OOMs: {e}", query.name),
            }
        }
        assert!(
            executed <= oracle_plan.time_sec() * 3.0,
            "{}: learned-model plan executes at {executed:.0}s vs oracle-optimal {:.0}s",
            query.name,
            oracle_plan.time_sec()
        );
    }
}

/// Every TPC-H query's join core plans end to end, single-relation queries
/// included, and every planned join is feasible on the simulator.
#[test]
fn full_tpch_suite_plans_end_to_end() {
    let schema = TpchSchema::sf100();
    let model = SimOracleCost::hive();
    let engine = Engine::hive();
    let mut opt = optimizer(&schema, &model, ResourceStrategy::HillClimb);
    for query in QuerySpec::tpch_full_suite() {
        let plan = opt
            .optimize(&query)
            .unwrap_or_else(|| panic!("{} has no plan", query.name));
        assert_eq!(plan.query.joins.len(), query.num_joins(), "{}", query.name);
        for join in &plan.query.joins {
            let (nc, cs) = join.decision.resources.unwrap();
            assert!(
                engine
                    .join_time(join.decision.join, join.io.build_gb, join.io.probe_gb, nc, cs)
                    .is_ok(),
                "{}: infeasible join planned",
                query.name
            );
        }
    }
}

/// Random schemas: the full pipeline holds off TPC-H too.
#[test]
fn pipeline_works_on_random_schemas() {
    let schema = RandomSchemaConfig::with_tables(15, 123).generate();
    let model = SimOracleCost::hive();
    let mut opt = RaqoOptimizer::new(
        &schema.catalog,
        &schema.graph,
        &model,
        ClusterConditions::paper_default(),
        PlannerKind::fast_randomized(11),
        ResourceStrategy::HillClimbCached(CacheLookup::NearestNeighbor { threshold: 0.01 }),
    );
    for k in [3, 8, 15] {
        let query = QuerySpec::random_connected(&schema.catalog, &schema.graph, k, k as u64);
        let plan = opt.optimize(&query).expect("plan");
        assert_eq!(plan.query.joins.len(), k - 1);
        assert!(plan.time_sec().is_finite() && plan.time_sec() > 0.0);
        opt.clear_cache();
    }
}

/// Rule-based RAQO slots into the same planner seam as cost-based RAQO.
#[test]
fn rule_based_raqo_plugs_into_the_planner() {
    use raqo::core::rule_based::{train_raqo_tree, RuleBasedCoster};
    use raqo::planner::SelingerPlanner;
    use raqo::sim::profile::ProfileGrid;

    let schema = TpchSchema::sf100();
    let model = SimOracleCost::hive();
    let tree = train_raqo_tree(&Engine::hive(), &ProfileGrid::paper_default());
    let mut coster = RuleBasedCoster::new(&tree, &model, 10.0, 6.0);
    let planned = SelingerPlanner::plan(
        &schema.catalog,
        &schema.graph,
        &QuerySpec::tpch_q3(),
        &mut coster,
    )
    .expect("plan");
    assert_eq!(planned.joins.len(), 2);
    // The chosen implementations come from the tree.
    for join in &planned.joins {
        let expect = raqo::core::rule_based::tree_pick_join(
            &tree,
            join.io.build_gb,
            6.0,
            10.0,
            10.0,
        );
        // OOM fallback may downgrade a BHJ pick to SMJ.
        if join.decision.join != expect {
            assert_eq!(join.decision.join, JoinImpl::SortMerge);
        }
    }
}

/// A thread count changes how fast a plan is found, never which plan:
/// every planner under every resource strategy returns the same join tree,
/// the same cost bits and the same counters with `Parallelism` off or on
/// two or five threads, on TPC-H and on random ten-relation queries.
#[test]
fn a_thread_count_never_changes_a_plan() {
    use raqo::core::Parallelism;

    let model = JoinCostModel::trained_hive();
    let tpch = TpchSchema::new(1.0);
    let randoms: Vec<_> = (1..=4)
        .map(|seed| {
            RandomSchemaConfig { rows: (1e6, 2e8), seed, ..Default::default() }.generate()
        })
        .collect();
    let mut cases = vec![
        (&tpch.catalog, &tpch.graph, QuerySpec::tpch_q3()),
        (&tpch.catalog, &tpch.graph, QuerySpec::tpch_q12()),
        (&tpch.catalog, &tpch.graph, QuerySpec::tpch_all(&tpch)),
    ];
    for (seed, schema) in (1..).zip(&randoms) {
        let query = QuerySpec::random_connected(&schema.catalog, &schema.graph, 10, seed);
        cases.push((&schema.catalog, &schema.graph, query));
    }
    let small = ClusterConditions::two_dim(1.0..=12.0, 1.0..=4.0, 1.0, 1.0);
    let paper = ClusterConditions::paper_default();
    let strategies = [
        (ResourceStrategy::BruteForce, small),
        (ResourceStrategy::HillClimb, paper),
        (ResourceStrategy::HillClimbCached(CacheLookup::Exact), paper),
    ];
    let planners = [
        PlannerKind::Selinger,
        PlannerKind::idp(),
        PlannerKind::cascades(),
        PlannerKind::fast_randomized(7),
    ];
    for (catalog, graph, query) in &cases {
        for planner in &planners {
            for (strategy, cluster) in strategies {
                let plan = |parallelism| {
                    RaqoOptimizer::new(*catalog, *graph, &model, cluster, planner.clone(), strategy)
                        .with_parallelism(parallelism)
                        .optimize(query)
                        .expect("plan")
                };
                let off = plan(Parallelism::Off);
                for parallelism in [Parallelism::Threads(2), Parallelism::Threads(5)] {
                    let on = plan(parallelism);
                    let what = format!("{} {planner:?} {strategy:?} {parallelism:?}", query.name);
                    assert_eq!(on.query.tree, off.query.tree, "{what}");
                    assert_eq!(on.query.cost.to_bits(), off.query.cost.to_bits(), "{what}");
                    assert_eq!(on.stats, off.stats, "{what}");
                }
            }
        }
    }
}
