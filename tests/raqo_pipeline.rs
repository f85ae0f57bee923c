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

/// Planning is a pure function of its inputs: two fresh optimizers give
/// the same join tree, the same cost bits and the same counters for every
/// planner under every resource strategy, on TPC-H and on random
/// ten-relation queries.
#[test]
fn every_planner_and_strategy_plans_alike_on_fresh_optimizers() {
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
                let plan = || {
                    RaqoOptimizer::new(*catalog, *graph, &model, cluster, planner.clone(), strategy)
                        .optimize(query)
                        .expect("plan")
                };
                let (first, second) = (plan(), plan());
                let what = format!("{} {planner:?} {strategy:?}", query.name);
                assert_eq!(second.query.tree, first.query.tree, "{what}");
                assert_eq!(second.query.cost.to_bits(), first.query.cost.to_bits(), "{what}");
                assert_eq!(second.stats, first.stats, "{what}");
            }
        }
    }
}

/// What the DPs hand the coster is pinned: the `(build_gb, probe_gb)` bits
/// of every join reaching `join_cost`/`join_cost_many`, in call order,
/// hashed with FNV-1a per planner and query. Resource strategies that
/// cache by those bits (`HillClimbCached`) warm identically only while
/// this sequence holds. Every Selinger candidate's output is the
/// ascending fold of its relations: `LocalView::size(rest | i)`, bit for
/// bit.
#[test]
fn the_coster_sees_the_same_join_sides_in_the_same_order() {
    use raqo::planner::coster::{FixedResourceCoster, JoinDecision, PlanCoster};
    use raqo::planner::{
        CardinalityEstimator, CascadesConfig, CascadesPlanner, IdpPlanner, JoinIo, SelingerPlanner,
    };
    use std::collections::HashSet;

    struct Recording<'a> {
        inner: FixedResourceCoster<'a, JoinCostModel>,
        ios: Vec<JoinIo>,
    }
    impl PlanCoster for Recording<'_> {
        fn join_cost(&mut self, io: &JoinIo) -> Option<JoinDecision> {
            self.ios.push(*io);
            self.inner.join_cost(io)
        }
    }
    fn fnv1a(ios: &[JoinIo]) -> u64 {
        ios.iter()
            .flat_map(|io| [io.build_gb.to_bits(), io.probe_gb.to_bits()])
            .flat_map(u64::to_le_bytes)
            .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    }

    let model = JoinCostModel::trained_hive();
    let tpch = TpchSchema::new(1.0);
    let randoms: Vec<_> = (1..=4)
        .map(|seed| RandomSchemaConfig { rows: (1e6, 2e8), seed, ..Default::default() }.generate())
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
    let bridge = RandomSchemaConfig { tables: 30, rows: (1e6, 2e8), seed: 5, ..Default::default() }
        .generate();
    let wide = QuerySpec::random_connected(&bridge.catalog, &bridge.graph, 24, 5);

    let mut got = Vec::new();
    let mut record = |what: String, plan: &mut dyn FnMut(&mut Recording<'_>)| {
        let mut coster =
            Recording { inner: FixedResourceCoster::new(&model, 10.0, 6.0), ios: Vec::new() };
        plan(&mut coster);
        got.push((what, fnv1a(&coster.ios)));
        coster.ios
    };
    for (catalog, graph, query) in &cases {
        let ios = record(format!("selinger {}", query.name), &mut |c| {
            SelingerPlanner::plan(catalog, graph, query, c).expect("plan");
        });
        // Every (rest, item) split's sides and output, from the view's sizes.
        let est = CardinalityEstimator::new(catalog, graph);
        let view = est.local_view(query.relations.chunks(1));
        let n = query.relations.len();
        let mut splits = HashSet::new();
        for mask in (1u64..1 << n).filter(|m| m.count_ones() >= 2) {
            let (rows, gb) = view.size(mask);
            for i in (0..n).filter(|i| mask >> i & 1 != 0) {
                let (rest, item) = (view.size(mask & !(1 << i)).1, view.size(1 << i).1);
                let sides = (rest.min(item).to_bits(), rest.max(item).to_bits());
                splits.insert((sides, rows.to_bits(), gb.to_bits()));
            }
        }
        // The last n − 1 calls re-cost the winning tree.
        for io in &ios[..ios.len() - (n - 1)] {
            let sides = (io.build_gb.to_bits(), io.probe_gb.to_bits());
            let key = (sides, io.out_rows.to_bits(), io.out_gb.to_bits());
            assert!(splits.contains(&key), "{}: {io:?} is no subset's size", query.name);
        }
        record(format!("bushy {}", query.name), &mut |c| {
            CascadesPlanner::plan(catalog, graph, query, c, &CascadesConfig::default())
                .expect("plan");
        });
    }
    record(format!("idp {}", wide.name), &mut |c| {
        IdpPlanner::plan(&bridge.catalog, &bridge.graph, &wide, c, IdpConfig::default())
            .expect("plan");
    });

    let want = [
        ("selinger Q3", 0x25ae_8529_23e7_5993),
        ("bushy Q3", 0xfa18_1bcd_b1cc_4b82),
        ("selinger Q12", 0xf715_ef47_a5db_442d),
        ("bushy Q12", 0xd07d_6b8d_a1fd_1f1d),
        ("selinger All", 0xd4a1_315e_bce2_7acb),
        ("bushy All", 0xbfc8_380b_6076_5a68),
        ("selinger rand10", 0x0296_8740_abd6_5efe),
        ("bushy rand10", 0x34a2_be41_49bd_fe83),
        ("selinger rand10", 0xbf20_321f_9a27_4000),
        ("bushy rand10", 0xb3ef_05f3_6913_d44e),
        ("selinger rand10", 0x389c_8ed7_62a2_9fbc),
        ("bushy rand10", 0xd9e4_23e6_5a07_759e),
        ("selinger rand10", 0x2726_07ab_6085_f005),
        ("bushy rand10", 0xe4e4_efcd_b5a6_6be3),
        ("idp rand24", 0x9b51_05e7_6698_98ff),
    ];
    let got: Vec<(&str, u64)> = got.iter().map(|(what, h)| (what.as_str(), *h)).collect();
    assert_eq!(got, want);
}
