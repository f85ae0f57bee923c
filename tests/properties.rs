//! Property-based tests (proptest) on the core invariants, spanning
//! crates.

use proptest::prelude::*;
use raqo::cost::features::feature_vector;
use raqo::cost::LinearModel;
use raqo::planner::plan::{covers_exactly, Mutation};
use raqo::prelude::*;
use raqo::resource::{brute_force, hill_climb};
use raqo::sim::money::monetary_cost_tb_sec;

proptest! {
    /// Hill climbing never leaves the cluster bounds and never returns a
    /// cost worse than its starting point, on arbitrary quadratic cost
    /// surfaces.
    #[test]
    fn hill_climb_stays_in_bounds_and_never_regresses(
        ax in -5.0f64..5.0, ay in -5.0f64..5.0,
        bx in 0.01f64..2.0, by in 0.01f64..2.0,
        cx in 1.0f64..80.0, cy in 1.0f64..9.0,
    ) {
        let cluster = ClusterConditions::paper_default();
        let cost = |r: &ResourceConfig| -> f64 {
            let dx = r.containers() - cx;
            let dy = r.container_size_gb() - cy;
            bx * dx * dx + by * dy * dy + ax * dx + ay * dy
        };
        let start_cost = cost(&cluster.min);
        let out = hill_climb(&cluster, cluster.min, cost);
        prop_assert!(cluster.contains(&out.config), "left bounds: {}", out.config);
        prop_assert!(out.cost <= start_cost + 1e-9);
        // And it is a local optimum: no unit step improves it.
        for (dim, delta) in [(0, 1.0), (0, -1.0), (1, 1.0), (1, -1.0)] {
            let mut probe = out.config;
            probe.nudge(dim, delta);
            if cluster.contains(&probe) {
                prop_assert!(cost(&probe) >= out.cost - 1e-9, "not a local optimum");
            }
        }
    }

    /// Brute force finds the global optimum of any cost surface; hill
    /// climbing can only match or exceed it.
    #[test]
    fn brute_force_lower_bounds_hill_climb(
        cx in 1.0f64..100.0, cy in 1.0f64..10.0,
        tilt in -1.0f64..1.0,
    ) {
        let cluster = ClusterConditions::two_dim(1.0..=20.0, 1.0..=5.0, 1.0, 1.0);
        let cost = |r: &ResourceConfig| -> f64 {
            (r.containers() - cx).abs() + (r.container_size_gb() - cy).abs()
                + tilt * r.containers()
        };
        let bf = brute_force(&cluster, cost);
        let hc = hill_climb(&cluster, cluster.min, cost);
        prop_assert!(bf.cost <= hc.cost + 1e-9);
        prop_assert_eq!(bf.iterations, cluster.grid_size());
    }

    /// Cache round-trip: whatever is inserted under a key is returned by
    /// exact lookup, regardless of insertion order.
    #[test]
    fn cache_exact_roundtrip(keys in proptest::collection::vec(0.0f64..100.0, 1..40)) {
        use raqo::resource::{CacheLookup, ResourcePlanCache};
        let mut cache = ResourcePlanCache::new();
        for (i, &k) in keys.iter().enumerate() {
            cache.insert(k, ResourceConfig::containers_and_size(i as f64 + 1.0, 1.0));
        }
        // The *last* insertion per distinct key wins.
        for (i, &k) in keys.iter().enumerate() {
            let last = keys.iter().rposition(|&x| x == k).unwrap();
            let got = cache.lookup(k, CacheLookup::Exact);
            prop_assert_eq!(
                got,
                Some(ResourceConfig::containers_and_size(last as f64 + 1.0, 1.0)),
                "key {} inserted at {} lookup mismatch", k, i
            );
        }
    }

    /// Nearest-neighbour lookups never return a config whose key distance
    /// exceeds the threshold.
    #[test]
    fn cache_nn_respects_threshold(
        keys in proptest::collection::vec(0.0f64..10.0, 1..20),
        query in 0.0f64..10.0,
        threshold in 0.0f64..2.0,
    ) {
        use raqo::resource::{CacheLookup, ResourcePlanCache};
        let mut cache = ResourcePlanCache::new();
        for &k in &keys {
            cache.insert(k, ResourceConfig::containers_and_size(k.max(1.0), 1.0));
        }
        if let Some(_cfg) = cache.lookup(query, CacheLookup::NearestNeighbor { threshold }) {
            let nearest = keys
                .iter()
                .map(|k| (k - query).abs())
                .fold(f64::INFINITY, f64::min);
            prop_assert!(nearest <= threshold + 1e-12);
        }
    }

    /// OLS on exactly-linear data over the paper's feature map recovers
    /// the generating coefficients.
    #[test]
    fn ols_recovers_generating_model(
        coeffs in proptest::array::uniform7(-10.0f64..10.0),
    ) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for ss in [0.3, 0.9, 2.1, 3.7, 5.5] {
            for cs in [1.0, 2.5, 4.0, 7.0, 9.5] {
                for nc in [4.0, 9.0, 17.0, 33.0] {
                    let f = feature_vector(ss, cs, nc);
                    ys.push(f.iter().zip(&coeffs).map(|(a, b)| a * b).sum::<f64>());
                    xs.push(f.to_vec());
                }
            }
        }
        let m = LinearModel::fit(&xs, &ys).unwrap();
        for (got, want) in m.coefficients.iter().zip(&coeffs) {
            prop_assert!((got - want).abs() < 1e-5, "got {} want {}", got, want);
        }
    }

    /// Simulator sanity: join times are positive, finite, and monotone in
    /// the probe size; monetary cost is consistent with time.
    #[test]
    fn simulator_costs_are_sane(
        ss in 0.01f64..3.0,
        ls in 10.0f64..100.0,
        nc in 1.0f64..64.0,
        cs in 1.0f64..10.0,
    ) {
        let engine = Engine::hive();
        let nc = nc.round();
        let cs = cs.round().max(1.0);
        let smj = engine.join_time(JoinImpl::SortMerge, ss, ls, nc, cs).unwrap();
        prop_assert!(smj.is_finite() && smj > 0.0);
        let smj_bigger = engine.join_time(JoinImpl::SortMerge, ss, ls * 1.5, nc, cs).unwrap();
        prop_assert!(smj_bigger > smj);
        let money = monetary_cost_tb_sec(smj, nc, cs);
        prop_assert!((money - smj * nc * cs / 1024.0).abs() < 1e-9);
        if let Ok(bhj) = engine.join_time(JoinImpl::BroadcastHash, ss, ls, nc, cs) {
            prop_assert!(bhj.is_finite() && bhj > 0.0);
        }
    }

    /// Plan mutations preserve the relation multiset on random schemas
    /// and random mutation sequences.
    #[test]
    fn mutations_preserve_relations_on_random_schemas(
        seed in 0u64..500,
        steps in 1usize..40,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let schema = RandomSchemaConfig::with_tables(12, seed).generate();
        let query = QuerySpec::random_connected(&schema.catalog, &schema.graph, 8, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let mut tree = PlanTree::random_connected(&schema.graph, &query.relations, &mut rng);
        for _ in 0..steps {
            let site = rng.gen_range(0..tree.mutation_sites());
            let mutation = Mutation::ALL[rng.gen_range(0..3usize)];
            if let Some(next) = tree.mutate(site, mutation) {
                tree = next;
            }
        }
        prop_assert!(covers_exactly(&tree, &query.relations));
    }

    /// The row-evaluator brute force is bit-identical to the per-point scan
    /// — same config, same cost bits, same iteration count — for random
    /// grids of at least 480 000 points and random cost surfaces, with no
    /// slice bound and with a per-row lower bound that prunes.
    #[test]
    fn row_brute_force_bit_identical_on_random_grids(
        max_nc in 900.0f64..1000.0,
        max_cs in 540.0f64..600.0,
        cx in 1.0f64..1000.0,
        cy in 1.0f64..600.0,
        tilt in -1.0f64..1.0,
    ) {
        use raqo::resource::brute_force_rows;
        let cluster =
            ClusterConditions::two_dim(1.0..=max_nc.floor(), 1.0..=max_cs.floor(), 1.0, 1.0);
        let cost = |r: &ResourceConfig| -> f64 {
            (r.containers() - cx).abs() + (r.container_size_gb() - cy).abs()
                + tilt * r.containers()
        };
        let seq = brute_force(&cluster, cost);
        let rows = |_: u64, base: &ResourceConfig, coords: &[f64], costs: &mut [f64]| {
            for (&x, c) in coords.iter().zip(costs) {
                *c = cost(&base.with_last(x));
            }
        };
        let no_bound = |_: u64, _: &ResourceConfig, _: &[f64]| f64::NEG_INFINITY;
        // `|cs − cy| ≥ 0`: what is left is a lower bound along each row.
        let row_bound = |_: u64, base: &ResourceConfig, _: &[f64]| {
            (base.containers() - cx).abs() + tilt * base.containers()
        };
        for out in [
            brute_force_rows(&cluster, rows, no_bound),
            brute_force_rows(&cluster, rows, row_bound),
        ] {
            prop_assert_eq!(out.config, seq.config);
            prop_assert_eq!(out.cost.to_bits(), seq.cost.to_bits());
            prop_assert_eq!(out.iterations, seq.iterations);
        }
    }

    /// The array-of-configs brute force is bit-identical to the per-point
    /// scan on random grids — unit, half and 0.1 steps, rows shorter and
    /// longer than one batch — over surfaces full of ties and infeasible
    /// (`+∞`) points.
    #[test]
    fn batched_brute_force_bit_identical_on_random_grids(
        max_nc in 1.0f64..40.0,
        row_len in 1usize..700,
        step_kind in 0usize..3,
        salt in 0u64..1000,
        infeasible_share in 0u64..4,
    ) {
        use raqo::resource::brute_force_batch;
        let step = [1.0, 0.5, 0.1][step_kind];
        let max_cs = 1.0 + (row_len - 1) as f64 * step;
        let cluster = ClusterConditions::two_dim(1.0..=max_nc.floor(), 1.0..=max_cs, 1.0, step);
        let cost = |r: &ResourceConfig| -> f64 {
            let bits = r.containers().to_bits() ^ r.container_size_gb().to_bits().rotate_left(17);
            let h = (salt ^ bits).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            if (h >> 40) % 4 < infeasible_share { f64::INFINITY } else { ((h >> 20) % 9) as f64 }
        };
        let seq = brute_force(&cluster, cost);
        prop_assert_eq!(seq.iterations, cluster.grid().count() as u64);
        let out = brute_force_batch(&cluster, |_, configs: &[ResourceConfig], costs: &mut [f64]| {
            for (r, c) in configs.iter().zip(costs.iter_mut()) {
                *c = cost(r);
            }
        });
        prop_assert_eq!(out.config, seq.config);
        prop_assert_eq!(out.cost.to_bits(), seq.cost.to_bits());
        prop_assert_eq!(out.iterations, seq.iterations);
    }

    /// A thread count never changes what a batch of joins costs: on random
    /// batches, the decisions and counters of `join_cost_many` on any
    /// number of threads are those of the single-thread run, under
    /// exhaustive and hill-climbing resource planning.
    #[test]
    fn a_thread_count_never_changes_a_join_cost_batch(
        sizes in proptest::collection::vec((0.05f64..40.0, 1.0f64..200.0), 0..10),
        threads in 1usize..9,
    ) {
        use raqo::core::{Parallelism, RaqoCoster};
        use raqo::planner::{JoinIo, PlanCoster};
        let ios: Vec<JoinIo> = sizes
            .iter()
            .map(|&(build, probe)| JoinIo {
                build_gb: build,
                probe_gb: probe,
                out_gb: build + probe,
                out_rows: 1e6,
            })
            .collect();
        let model = JoinCostModel::trained_hive();
        let small = ClusterConditions::two_dim(1.0..=12.0, 1.0..=4.0, 1.0, 1.0);
        for (strategy, cluster) in [
            (ResourceStrategy::BruteForce, small),
            (ResourceStrategy::HillClimb, ClusterConditions::paper_default()),
        ] {
            let run = |parallelism| {
                let mut c = RaqoCoster::new(&model, cluster, strategy, Objective::Time);
                let decisions = c.join_cost_many(&ios, parallelism);
                (decisions, c.stats)
            };
            prop_assert_eq!(run(Parallelism::Threads(threads)), run(Parallelism::Off));
        }
    }

    /// A one-shard `ShardedCacheBank` (one lock, as a coster's private
    /// bank) under concurrent insert/lookup from 4 threads preserves
    /// exact-lookup round-trips: no thread ever loses its own insert, and
    /// all entries survive.
    #[test]
    fn shared_cache_bank_concurrent_roundtrips(
        keys in proptest::collection::vec(0.0f64..1000.0, 4..40),
    ) {
        use raqo::resource::ShardedCacheBank;
        let shared = ShardedCacheBank::with_shards(1);
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let handle = shared.clone();
                let keys = &keys;
                scope.spawn(move || {
                    // Each thread owns a distinct operator id, so key
                    // collisions across threads cannot overwrite entries.
                    for (i, &k) in keys.iter().enumerate() {
                        let cfg = ResourceConfig::containers_and_size(
                            i as f64 + 1.0,
                            t as f64 + 1.0,
                        );
                        handle.insert(0, t, k, cfg);
                        assert_eq!(
                            handle.lookup(0, t, k, CacheLookup::Exact),
                            Some(cfg),
                            "thread {t} lost key {k}"
                        );
                    }
                });
            }
        });
        let distinct = {
            let mut sorted = keys.clone();
            sorted.sort_by(f64::total_cmp);
            sorted.dedup();
            sorted.len()
        };
        prop_assert_eq!(shared.total_entries(), 4 * distinct);
        for &k in &keys {
            // Last writer wins per (operator, key), as the unshared cache.
            let last = keys.iter().rposition(|&x| x == k).unwrap();
            for t in 0..4u32 {
                prop_assert_eq!(
                    shared.lookup(0, t, k, CacheLookup::Exact),
                    Some(ResourceConfig::containers_and_size(last as f64 + 1.0, t as f64 + 1.0))
                );
            }
        }
    }

    /// Selinger's plan is never beaten by any random plan tree costed with
    /// the same fixed-resource coster (DP optimality, modulo the left-deep
    /// restriction: compare against random *left-deep* plans).
    #[test]
    fn selinger_beats_random_left_deep_orders(seed in 0u64..100) {
        use rand::rngs::StdRng;
        use rand::{seq::SliceRandom, SeedableRng};
        use raqo::planner::coster::{cost_tree, FixedResourceCoster};
        use raqo::planner::{CardinalityEstimator, SelingerPlanner};
        use raqo::core::Telemetry;

        let schema = TpchSchema::new(1.0);
        let model = SimOracleCost::hive();
        let query = QuerySpec::tpch_q2();
        let mut coster = FixedResourceCoster::new(&model, 10.0, 6.0);
        let best = SelingerPlanner::plan(&schema.catalog, &schema.graph, &query, &mut coster)
            .expect("plan");

        let mut rng = StdRng::seed_from_u64(seed);
        let mut order = query.relations.clone();
        order.shuffle(&mut rng);
        let est = CardinalityEstimator::new(&schema.catalog, &schema.graph);
        let mut coster2 = FixedResourceCoster::new(&model, 10.0, 6.0);
        let (tree, tel) = (PlanTree::left_deep(&order), Telemetry::disabled());
        if let Some(random_plan) = cost_tree(&tree, &est, &mut coster2, &tel) {
            prop_assert!(best.cost <= random_plan.cost + 1e-9);
        }
    }
}

proptest! {
    /// Robustness: the optimizer never panics and never reports a NaN plan
    /// cost on adversarial catalogs — empty tables, 10^18-row tables,
    /// extreme join selectivities — and the degradation ladder guarantees a
    /// plan even when the planning budget is zero.
    #[test]
    fn optimizer_survives_adversarial_catalogs(
        table_kinds in proptest::collection::vec(0u8..3, 2..6usize),
        sel_kind in 0u8..3,
        zero_budget in proptest::bool::ANY,
    ) {
        use raqo::catalog::TableStats;
        use raqo::core::PlanningBudget;

        let rows_of = |k: u8| match k {
            0 => 0.0,      // empty table (post-filter cardinality collapse)
            1 => 1.0e3,    // ordinary
            _ => 1.0e18,   // a quintillion rows: stresses overflow paths
        };
        let sel = match sel_kind {
            0 => 1e-12,
            1 => 0.01,
            _ => 1.0,      // cross-product-sized join output
        };

        let mut catalog = Catalog::new();
        let ids: Vec<TableId> = table_kinds
            .iter()
            .enumerate()
            .map(|(i, &k)| catalog.add_stats_only(format!("t{i}"), TableStats::new(rows_of(k), 64.0)))
            .collect();
        let mut graph = JoinGraph::new();
        for w in ids.windows(2) {
            graph.add_edge(w[0], w[1], sel);
        }
        let model = SimOracleCost::hive();
        let query = QuerySpec::new("adversarial", ids.clone());
        let mut opt = RaqoOptimizer::new(
            &catalog,
            &graph,
            &model,
            ClusterConditions::two_dim(1.0..=10.0, 1.0..=4.0, 1.0, 1.0),
            PlannerKind::Selinger,
            ResourceStrategy::HillClimb,
        );
        if zero_budget {
            opt.set_budget(
                PlanningBudget::with_max_evals(0).and_deadline(std::time::Duration::ZERO),
            );
        }
        let plan = opt.optimize(&query);
        let plan = match plan {
            Some(p) => p,
            // Returning no plan is acceptable only for a genuinely
            // infeasible un-budgeted run; with a budget the ladder must
            // always bottom out at the rule-based rung.
            None => {
                prop_assert!(!zero_budget, "budgeted run returned no plan");
                return Ok(());
            }
        };
        prop_assert!(covers_exactly(&plan.query.tree, &query.relations));
        prop_assert_eq!(plan.query.joins.len(), query.num_joins());
        prop_assert!(!plan.query.cost.is_nan(), "plan cost is NaN");
        prop_assert!(plan.query.cost >= 0.0, "plan cost is negative: {}", plan.query.cost);
        if zero_budget {
            prop_assert!(plan.degradation.is_some(), "zero budget must be reported");
        }
    }

    /// Single-relation queries (zero joins) plan without panicking under
    /// any table size and any budget.
    #[test]
    fn single_relation_queries_always_plan(
        kind in 0u8..3,
        zero_budget in proptest::bool::ANY,
    ) {
        use raqo::catalog::TableStats;
        use raqo::core::PlanningBudget;

        let rows = match kind { 0 => 0.0, 1 => 1.0e6, _ => 1.0e18 };
        let mut catalog = Catalog::new();
        let id = catalog.add_stats_only("only", TableStats::new(rows, 128.0));
        let graph = JoinGraph::new();
        let model = SimOracleCost::hive();
        let query = QuerySpec::new("single", vec![id]);
        let mut opt = RaqoOptimizer::new(
            &catalog,
            &graph,
            &model,
            ClusterConditions::two_dim(1.0..=10.0, 1.0..=4.0, 1.0, 1.0),
            PlannerKind::Selinger,
            ResourceStrategy::HillClimb,
        );
        if zero_budget {
            opt.set_budget(PlanningBudget::with_max_evals(0));
        }
        let plan = opt.optimize(&query);
        if let Some(p) = &plan {
            prop_assert_eq!(p.query.joins.len(), 0);
            prop_assert!(!p.query.cost.is_nan());
        }
    }
}
