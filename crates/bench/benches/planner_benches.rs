//! Criterion benches for the planner-facing experiments (Figs. 12–15):
//! the planning paths whose *runtimes* the paper reports.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use raqo_catalog::tpch::TpchSchema;
use raqo_catalog::{QuerySpec, RandomSchema, RandomSchemaConfig};
use raqo_core::{
    Objective, Parallelism, PlannerKind, RaqoCoster, RaqoOptimizer, ResourceStrategy, Telemetry,
};
use raqo_cost::objective::CostVector;
use raqo_cost::JoinCostModel;
use raqo_planner::coster::FixedResourceCoster;
use raqo_planner::{
    CardinalityEstimator, CascadesConfig, CascadesPlanner, IdpConfig, IdpPlanner, JoinDecision,
    JoinIo, PlanCoster, RandomizedConfig, SelingerPlanner,
};
use raqo_resource::{CacheLookup, ClusterConditions};
use std::hint::black_box;

fn fast_randomized() -> PlannerKind {
    PlannerKind::FastRandomized(RandomizedConfig {
        restarts: 4,
        rounds_per_join: 4,
        epsilon: 0.05,
        seed: 17,
    })
}

/// Fig. 12: QO vs RAQO planning time per TPC-H query (Selinger).
fn fig12_raqo_planning(c: &mut Criterion) {
    let schema = TpchSchema::new(1.0);
    let model = JoinCostModel::trained_hive();
    let cluster = ClusterConditions::paper_default();
    let mut group = c.benchmark_group("fig12_raqo_planning");
    for query in QuerySpec::tpch_suite(&schema) {
        group.bench_with_input(BenchmarkId::new("qo", &query.name), &query, |b, q| {
            let mut opt = RaqoOptimizer::new(
                &schema.catalog,
                &schema.graph,
                &model,
                cluster,
                PlannerKind::Selinger,
                ResourceStrategy::HillClimb,
            );
            b.iter(|| black_box(opt.plan_for_resources(q, 10.0, 4.0)));
        });
        group.bench_with_input(BenchmarkId::new("raqo", &query.name), &query, |b, q| {
            let mut opt = RaqoOptimizer::new(
                &schema.catalog,
                &schema.graph,
                &model,
                cluster,
                PlannerKind::Selinger,
                ResourceStrategy::HillClimb,
            );
            b.iter(|| black_box(opt.optimize(q)));
        });
    }
    group.finish();
}

/// Fig. 13: brute force vs hill climbing on the All query.
fn fig13_hillclimb(c: &mut Criterion) {
    let schema = TpchSchema::new(1.0);
    let model = JoinCostModel::trained_hive();
    let cluster = ClusterConditions::paper_default();
    let query = QuerySpec::tpch_all(&schema);
    let mut group = c.benchmark_group("fig13_hillclimb");
    group.sample_size(10);
    for (name, strategy) in [
        ("brute_force", ResourceStrategy::BruteForce),
        ("hill_climb", ResourceStrategy::HillClimb),
    ] {
        group.bench_function(name, |b| {
            let mut opt = RaqoOptimizer::new(
                &schema.catalog,
                &schema.graph,
                &model,
                cluster,
                PlannerKind::Selinger,
                strategy,
            );
            b.iter(|| black_box(opt.optimize(&query)));
        });
    }
    group.finish();
}

/// Fig. 14: hill climbing with and without the resource-plan cache.
fn fig14_cache(c: &mut Criterion) {
    let schema = TpchSchema::new(1.0);
    let model = JoinCostModel::trained_hive();
    let cluster = ClusterConditions::paper_default();
    let query = QuerySpec::tpch_all(&schema);
    let mut group = c.benchmark_group("fig14_cache");
    let variants: [(&str, ResourceStrategy); 3] = [
        ("hc_uncached", ResourceStrategy::HillClimb),
        (
            "hc_cache_nn_0.01",
            ResourceStrategy::HillClimbCached(CacheLookup::NearestNeighbor { threshold: 0.01 }),
        ),
        (
            "hc_cache_wa_0.1",
            ResourceStrategy::HillClimbCached(CacheLookup::WeightedAverage { threshold: 0.1 }),
        ),
    ];
    for (name, strategy) in variants {
        group.bench_function(name, |b| {
            let mut opt = RaqoOptimizer::new(
                &schema.catalog,
                &schema.graph,
                &model,
                cluster,
                PlannerKind::Selinger,
                strategy,
            );
            b.iter(|| {
                // Per-query caching: cold cache each run, as the paper
                // measures it.
                opt.clear_cache();
                black_box(opt.optimize(&query))
            });
        });
    }
    group.finish();
}

/// Fig. 15(a): planning a growing random join with the randomized planner.
fn fig15_scale(c: &mut Criterion) {
    let schema = RandomSchemaConfig::with_tables(100, 5).generate();
    let model = JoinCostModel::trained_hive_extended();
    let cluster = ClusterConditions::paper_default();
    let mut group = c.benchmark_group("fig15_scale");
    group.sample_size(10);
    for k in [16usize, 44, 100] {
        let query = QuerySpec::random_connected(&schema.catalog, &schema.graph, k, k as u64);
        group.bench_with_input(BenchmarkId::new("raqo_cached", k), &query, |b, q| {
            let mut opt = RaqoOptimizer::new(
                &schema.catalog,
                &schema.graph,
                &model,
                cluster,
                fast_randomized(),
                ResourceStrategy::HillClimbCached(CacheLookup::NearestNeighbor {
                    threshold: 0.01,
                }),
            );
            b.iter(|| {
                opt.clear_cache();
                black_box(opt.optimize(q))
            });
        });
    }
    group.finish();
}

/// The joint-planning hot path: fast randomized planner + brute-force
/// resource planning, sequential, at criterion-friendly sizes.
fn planner_speedup(c: &mut Criterion) {
    let schema = RandomSchemaConfig::with_tables(24, 5).generate();
    let model = JoinCostModel::trained_hive();
    let cluster = ClusterConditions::two_dim(1.0..=50.0, 1.0..=8.0, 1.0, 1.0);
    let query = QuerySpec::random_connected(&schema.catalog, &schema.graph, 24, 3);
    let config = RandomizedConfig { restarts: 1, rounds_per_join: 2, epsilon: 0.05, seed: 17 };
    let mut group = c.benchmark_group("planner_speedup");
    group.sample_size(10);
    group.bench_function("sequential", |b| {
        let mut opt = RaqoOptimizer::new(
            &schema.catalog,
            &schema.graph,
            &model,
            cluster,
            PlannerKind::FastRandomized(config.clone()),
            ResourceStrategy::BruteForce,
        );
        b.iter(|| black_box(opt.optimize(&query)));
    });

    // The Selinger DP through the same ladder: sequential batched level
    // fills vs parallel DP levels (all brute-force resource planning, all
    // bit-identical plans).
    let selinger_query = QuerySpec::random_connected(&schema.catalog, &schema.graph, 8, 3);
    let selinger_modes: [(&str, Parallelism); 2] =
        [("selinger_batched", Parallelism::Off), ("selinger_parallel", Parallelism::Auto)];
    for (name, parallelism) in selinger_modes {
        group.bench_function(name, |b| {
            let mut opt = RaqoOptimizer::new(
                &schema.catalog,
                &schema.graph,
                &model,
                cluster,
                PlannerKind::Selinger,
                ResourceStrategy::BruteForce,
            );
            opt.set_parallelism(parallelism);
            b.iter(|| black_box(opt.optimize(&selinger_query)));
        });
    }
    group.finish();
}

/// The u64-mask DP at its relation bound: a 20-relation chain (the sparse
/// best case) and a 16-relation star (the dense adversarial case). Plain
/// join ordering at fixed resources isolates the DP itself.
fn selinger_u64(c: &mut Criterion) {
    let model = JoinCostModel::trained_hive();
    let mut group = c.benchmark_group("selinger_u64");
    group.sample_size(10);
    let workloads =
        [("chain_20", RandomSchema::chain(20, 20)), ("star_16", RandomSchema::star(16, 16))];
    for (name, schema) in &workloads {
        let query = QuerySpec::new(*name, schema.catalog.table_ids().collect::<Vec<_>>());
        group.bench_with_input(BenchmarkId::from_parameter(name), &query, |b, q| {
            b.iter(|| {
                let mut coster = FixedResourceCoster::new(&model, 10.0, 4.0);
                black_box(SelingerPlanner::plan(&schema.catalog, &schema.graph, q, &mut coster))
            });
        });
    }
    group.finish();
}

/// The IDP bridge past the exhaustive threshold: 32-relation chain and
/// 24-relation star at the default block size, fixed resources.
fn idp_bridge(c: &mut Criterion) {
    let model = JoinCostModel::trained_hive();
    let mut group = c.benchmark_group("idp_bridge");
    group.sample_size(10);
    let workloads =
        [("chain_32", RandomSchema::chain(32, 32)), ("star_24", RandomSchema::star(24, 24))];
    for (name, schema) in &workloads {
        let query = QuerySpec::new(*name, schema.catalog.table_ids().collect::<Vec<_>>());
        group.bench_with_input(BenchmarkId::from_parameter(name), &query, |b, q| {
            b.iter(|| {
                let mut coster = FixedResourceCoster::new(&model, 10.0, 4.0);
                black_box(IdpPlanner::plan(
                    &schema.catalog,
                    &schema.graph,
                    q,
                    &mut coster,
                    IdpConfig::default(),
                ))
            });
        });
    }
    group.finish();
}

/// The §VI cost kernel in isolation: the scalar fold vs the dispatching
/// batch entry point — the explicit AVX2 kernel when built with
/// `--features simd` on an AVX2 machine, the same scalar fold otherwise
/// (the benchmark id names which one ran). Outputs are asserted bitwise
/// identical across the full 10 000-point grid before timing starts.
fn cost_kernel_simd(c: &mut Criterion) {
    use raqo_sim::engine::JoinImpl;
    let cluster = ClusterConditions::two_dim(1.0..=1000.0, 1.0..=10.0, 1.0, 1.0);
    let configs: Vec<raqo_resource::ResourceConfig> = cluster.grid().collect();
    let models = [
        ("paper", JoinCostModel::trained_hive()),
        ("extended", JoinCostModel::trained_hive_extended()),
    ];
    let dispatch = if raqo_cost::simd_active() { "avx2" } else { "dispatch_scalar" };
    let mut group = c.benchmark_group("cost_kernel_simd");
    for (map, model) in &models {
        let mut fast = vec![0.0; configs.len()];
        let mut scalar = vec![0.0; configs.len()];
        model.join_cost_batch(JoinImpl::SortMerge, 4.0, &configs, &mut fast);
        model.join_cost_batch_scalar(JoinImpl::SortMerge, 4.0, &configs, &mut scalar);
        assert!(
            fast.iter().zip(&scalar).all(|(f, s)| f.to_bits() == s.to_bits()),
            "cost_kernel_simd: kernel paths diverge on the {map} map"
        );
        group.bench_function(BenchmarkId::new("scalar", map), |b| {
            let mut out = vec![0.0; configs.len()];
            b.iter(|| {
                model.join_cost_batch_scalar(
                    JoinImpl::SortMerge,
                    4.0,
                    black_box(&configs),
                    &mut out,
                );
                black_box(out.last().copied())
            })
        });
        group.bench_function(BenchmarkId::new(dispatch, map), |b| {
            let mut out = vec![0.0; configs.len()];
            b.iter(|| {
                model.join_cost_batch(JoinImpl::SortMerge, 4.0, black_box(&configs), &mut out);
                black_box(out.last().copied())
            })
        });
    }
    group.finish();
}

/// One exhaustive grid scan for one join, bare of the coster: the row scan
/// over the model's row kernel vs the same scan through the point-wise
/// adapter (`brute_force` over `join_cost_at`). Long rows (10 × 1000, the
/// benchmark's serverless-style grid), the paper's rows of ten (100 × 10),
/// and many rows of ten (1000 × 10). Outcomes are asserted bit-identical
/// before timing starts.
fn grid_scan(c: &mut Criterion) {
    use raqo_cost::OperatorCost;
    use raqo_resource::{brute_force, brute_force_rows, ResourceConfig};
    use raqo_sim::engine::JoinImpl;
    let model = JoinCostModel::trained_hive();
    let (join, build_gb, probe_gb) = (JoinImpl::BroadcastHash, 3.4, 77.0);
    let grids = [
        ("10x1000", ClusterConditions::two_dim(1.0..=10.0, 1.0..=8.8046875, 1.0, 0.0078125)),
        ("100x10", ClusterConditions::paper_default()),
        ("1000x10", ClusterConditions::two_dim(1.0..=1000.0, 1.0..=10.0, 1.0, 1.0)),
    ];
    let tel = Telemetry::disabled();
    let rows = |cluster: &ClusterConditions| {
        brute_force_rows(
            cluster,
            |_, base: &ResourceConfig, coords: &[f64], out: &mut [f64]| {
                model.join_cost_row_at(join, build_gb, probe_gb, base, coords, out)
            },
            Parallelism::Off,
            &tel,
        )
    };
    let points = |cluster: &ClusterConditions| {
        brute_force(cluster, |r| {
            model.join_cost_at(join, build_gb, probe_gb, r).unwrap_or(f64::INFINITY)
        })
    };
    let mut group = c.benchmark_group("grid_scan");
    for (name, cluster) in &grids {
        let (by_rows, by_points) = (rows(cluster), points(cluster));
        assert_eq!(by_rows.config, by_points.config, "grid_scan: winners differ on {name}");
        assert_eq!(by_rows.cost.to_bits(), by_points.cost.to_bits(), "grid_scan: {name}");
        assert_eq!(by_rows.iterations, by_points.iterations, "grid_scan: {name}");
        group.bench_function(BenchmarkId::new("rows", name), |b| {
            b.iter(|| black_box(rows(black_box(cluster))))
        });
        group.bench_function(BenchmarkId::new("points", name), |b| {
            b.iter(|| black_box(points(black_box(cluster))))
        });
    }
    group.finish();
}

/// Multi-start hill climbing through the optimizer: the lock-step climber
/// gathers each round's whole candidate neighborhood into one batched cost
/// call.
fn hill_climb_batched(c: &mut Criterion) {
    let schema = TpchSchema::new(1.0);
    let model = JoinCostModel::trained_hive();
    let cluster = ClusterConditions::two_dim(1.0..=200.0, 1.0..=10.0, 1.0, 1.0);
    let query = QuerySpec::tpch_all(&schema);
    let mut group = c.benchmark_group("hill_climb_batched");
    group.sample_size(10);
    group.bench_function("batched", |b| {
        let mut opt = RaqoOptimizer::new(
            &schema.catalog,
            &schema.graph,
            &model,
            cluster,
            PlannerKind::Selinger,
            ResourceStrategy::HillClimb,
        );
        opt.set_parallelism(Parallelism::Threads(2));
        b.iter(|| black_box(opt.optimize(&query)));
    });
    group.finish();
}

/// The telemetry no-op gate: the selinger_batched workload with the
/// default disabled sink must match the PR-2 baseline (every
/// instrumentation site is a branch on `None`), and the enabled sink's
/// price is measured alongside. Plans are asserted bit-identical across
/// both modes before timing starts.
fn telemetry_overhead(c: &mut Criterion) {
    let schema = RandomSchemaConfig::with_tables(24, 5).generate();
    let model = JoinCostModel::trained_hive();
    let cluster = ClusterConditions::two_dim(1.0..=50.0, 1.0..=8.0, 1.0, 1.0);
    let query = QuerySpec::random_connected(&schema.catalog, &schema.graph, 8, 3);
    let make_opt = |telemetry: Telemetry| {
        let mut opt = RaqoOptimizer::new(
            &schema.catalog,
            &schema.graph,
            &model,
            cluster,
            PlannerKind::Selinger,
            ResourceStrategy::BruteForce,
        );
        opt.set_parallelism(Parallelism::Off);
        opt.set_telemetry(telemetry);
        opt
    };
    // Telemetry must not change the answer, only observe it.
    let baseline = make_opt(Telemetry::disabled()).optimize(&query).expect("plan");
    let traced_tel = Telemetry::enabled();
    let traced = make_opt(traced_tel.clone()).optimize(&query).expect("plan");
    assert_eq!(baseline.query, traced.query, "telemetry changed the plan");
    assert_eq!(baseline.stats, traced.stats, "telemetry changed the accounting");

    let mut group = c.benchmark_group("telemetry_overhead");
    group.sample_size(10);
    group.bench_function("selinger_batched_disabled", |b| {
        let mut opt = make_opt(Telemetry::disabled());
        b.iter(|| black_box(opt.optimize(&query)));
    });
    group.bench_function("selinger_batched_enabled", |b| {
        let tel = Telemetry::enabled();
        let mut opt = make_opt(tel.clone());
        b.iter(|| {
            // Bound the span store: each iteration traces from a clean
            // slate, as `repro --trace` does per query.
            tel.clear_spans();
            black_box(opt.optimize(&query))
        });
    });
    group.finish();
}

/// The set statistics under every planner: `join_io` and `connects` on
/// small-right (5-vs-1, the left-deep DP's shape) and balanced (5-vs-5,
/// the bushy DP's) splits of a ten-of-thirty random-schema query, and
/// the estimator's constructor — logarithms taken once per plan — on
/// TPC-H and on a 100-table schema, so that per-plan cost is a number.
fn cardinality(c: &mut Criterion) {
    let mut group = c.benchmark_group("cardinality");
    let schema = RandomSchemaConfig::with_tables(30, 14).generate();
    let query = QuerySpec::random_connected(&schema.catalog, &schema.graph, 10, 0);
    let est = CardinalityEstimator::new(&schema.catalog, &schema.graph);
    let (left, right) = query.relations.split_at(5);
    for (split, right) in [("5v1", &right[..1]), ("5v5", right)] {
        group.bench_function(BenchmarkId::new("join_io", split), |b| {
            b.iter(|| black_box(est.join_io(black_box(left), black_box(right))));
        });
        group.bench_function(BenchmarkId::new("connects", split), |b| {
            b.iter(|| black_box(schema.graph.connects(black_box(left), black_box(right))));
        });
    }
    let tpch = TpchSchema::new(1.0);
    let wide = RandomSchemaConfig::with_tables(100, 14).generate();
    for (name, catalog, graph) in [
        ("tpch", &tpch.catalog, &tpch.graph),
        ("random100", &wide.catalog, &wide.graph),
    ] {
        group.bench_function(BenchmarkId::new("new", name), |b| {
            b.iter(|| black_box(CardinalityEstimator::new(black_box(catalog), graph)));
        });
    }
    group.finish();
}

/// Bushy search at left-deep prices: the dense subset DP against Selinger
/// on a chain, a star and a clique of ten relations and on a ten-of-thirty
/// random-schema query, at fixed resources so `getPlanCost` is cheap and
/// the planners' own bookkeeping is what is timed. Before timing, the
/// bushy plan is asserted no dearer than the left-deep one.
fn bushy_dp(c: &mut Criterion) {
    let model = JoinCostModel::trained_hive();
    let random = RandomSchemaConfig::with_tables(30, 14).generate();
    let random_query = QuerySpec::random_connected(&random.catalog, &random.graph, 10, 0);
    let all = |s: &RandomSchema| QuerySpec::new("q", s.catalog.table_ids().collect());
    let (chain, star, clique) =
        (RandomSchema::chain(10, 7), RandomSchema::star(10, 7), RandomSchema::clique(10, 7));
    let mut group = c.benchmark_group("bushy_dp");
    for (name, schema, query) in [
        ("chain10", &chain, all(&chain)),
        ("star10", &star, all(&star)),
        ("clique10", &clique, all(&clique)),
        ("random10of30", &random, random_query),
    ] {
        let coster = || FixedResourceCoster::new(&model, 40.0, 8.0);
        let bushy = |coster: &mut FixedResourceCoster<'_, JoinCostModel>| {
            let config = CascadesConfig::default();
            CascadesPlanner::plan(&schema.catalog, &schema.graph, &query, coster, &config)
                .expect("bushy plan")
                .planned
        };
        let left_deep = |coster: &mut FixedResourceCoster<'_, JoinCostModel>| {
            SelingerPlanner::plan(&schema.catalog, &schema.graph, &query, coster)
                .expect("left-deep plan")
        };
        let (b, l) = (bushy(&mut coster()).cost, left_deep(&mut coster()).cost);
        assert!(b <= l * (1.0 + 1e-12), "{name}: bushy {b} dearer than left-deep {l}");
        group.bench_function(BenchmarkId::new("bushy", name), |bench| {
            bench.iter(|| black_box(bushy(&mut coster())));
        });
        group.bench_function(BenchmarkId::new("selinger", name), |bench| {
            bench.iter(|| black_box(left_deep(&mut coster())));
        });
    }
    group.finish();
}

/// The `svc_dp10_warm` workload's planning, in process and without the
/// service: its sixteen connected ten-relation queries over the 30-table
/// random schema (seed 0x5241514F, 1e6–2e8 rows per table) through
/// Selinger. Against a constant coster the DP's own search is timed;
/// against a warm `RaqoCoster` (hill climbing behind a nearest-neighbour
/// cache, threshold 0.05, warmed by one pass) the search plus
/// `getPlanCost` is. The difference is the per-candidate price of
/// `getPlanCost` on a warm cache.
fn dp10(c: &mut Criterion) {
    const SEED: u64 = 0x5241_514F;
    let schema =
        RandomSchemaConfig { tables: 30, rows: (1e6, 2e8), seed: SEED, ..Default::default() }
            .generate();
    let mut queries: Vec<QuerySpec> = Vec::with_capacity(16);
    let mut draw = SEED;
    while queries.len() < 16 {
        draw += 1;
        let q = QuerySpec::random_connected(&schema.catalog, &schema.graph, 10, draw);
        if queries.iter().all(|seen| seen.relations != q.relations) {
            queries.push(q);
        }
    }
    let plan_all = |coster: &mut dyn PlanCoster| {
        for q in &queries {
            black_box(SelingerPlanner::plan(&schema.catalog, &schema.graph, q, coster).ok());
        }
    };

    /// Every join costs one second: the DP does all its work, `getPlanCost` none.
    struct Constant;
    impl PlanCoster for Constant {
        fn join_cost(&mut self, _io: &JoinIo) -> Option<JoinDecision> {
            Some(JoinDecision {
                join: raqo_sim::engine::JoinImpl::SortMerge,
                cost: 1.0,
                objectives: CostVector { time_sec: 1.0, money_tb_sec: 0.0 },
                resources: None,
                cores: None,
            })
        }
    }

    let model = JoinCostModel::trained_hive();
    let cached = ResourceStrategy::HillClimbCached(CacheLookup::NearestNeighbor { threshold: 0.05 });
    let mut warm = RaqoCoster::new(&model, ClusterConditions::paper_default(), cached, Objective::Time);
    plan_all(&mut warm);
    let mut group = c.benchmark_group("dp10");
    group.sample_size(20);
    group.bench_function("search_only", |b| b.iter(|| plan_all(&mut Constant)));
    group.bench_function("warm_raqo", |b| b.iter(|| plan_all(&mut warm)));
    group.finish();
}

criterion_group!(
    benches,
    fig12_raqo_planning,
    fig13_hillclimb,
    fig14_cache,
    fig15_scale,
    planner_speedup,
    selinger_u64,
    idp_bridge,
    cost_kernel_simd,
    grid_scan,
    hill_climb_batched,
    telemetry_overhead,
    cardinality,
    bushy_dp,
    dp10
);
criterion_main!(benches);
