//! The joint-planning hot-path benchmark behind `BENCH_planner.json`.
//!
//! A Fig. 15(b)-style workload — a 100-table random join planned by the
//! fast randomized planner with exhaustive per-operator resource planning
//! over a 10 000-point cluster grid — run in three modes:
//!
//! 1. `sequential` — `Parallelism::Off`, no memoization: the seed
//!    code path, whose plans, costs, and iteration counts the other two
//!    modes must reproduce exactly;
//! 2. `memoized` — `Parallelism::Off` + sub-plan cost memoization
//!    ([`raqo_planner::RandomizedConfig::memoize`]): mutation rounds
//!    re-cost only the joins a mutation changed;
//! 3. `parallel+memoized` — `Parallelism::Auto` on top: the brute-force
//!    grid scan also splits across worker threads (bit-identical merge).
//!
//! `repro --bench-json` writes the report as JSON; the headline number is
//! `speedup` (sequential wall-clock over `parallel+memoized` wall-clock).

use crate::experiments::timed;
use crate::Table;
use raqo_catalog::{Catalog, JoinGraph, QuerySpec, RandomSchema, RandomSchemaConfig, TableStats};
use raqo_core::{DegradationRung, Parallelism, PlannerKind, RaqoOptimizer, ResourceStrategy};
use raqo_cost::JoinCostModel;
use raqo_planner::RandomizedConfig;
use raqo_resource::ClusterConditions;
use serde::Serialize;

/// One benchmark mode's measurements.
#[derive(Debug, Clone, Serialize)]
pub struct ModeResult {
    pub name: String,
    pub parallelism: String,
    pub memoize: bool,
    pub wall_ms: f64,
    /// Total plan cost under the planning objective (determinism witness).
    pub plan_cost: f64,
    pub plan_cost_calls: u64,
    pub resource_iterations: u64,
    pub memo_hits: u64,
}

/// The full report serialized to `BENCH_planner.json`.
#[derive(Debug, Clone, Serialize)]
pub struct PlannerBenchReport {
    pub workload: String,
    pub tables: usize,
    pub grid_points: u64,
    pub worker_threads: usize,
    pub runs: Vec<ModeResult>,
    /// sequential wall-clock / parallel+memoized wall-clock.
    pub speedup: f64,
    /// All modes produced the same plan tree and cost (bitwise).
    pub plans_identical: bool,
    /// The Selinger DP run through the same ladder of optimizations.
    pub selinger: SelingerSeries,
    /// Mid-size (past the exhaustive-DP threshold) chain+star queries
    /// planned through the optimizer's IDP bridge.
    pub idp: IdpSeries,
    /// The raw §VI cost kernel: scalar fold vs the dispatching batch entry
    /// point (explicit AVX2 under `--features simd`, else the same scalar).
    pub cost_kernel: CostKernelSeries,
    /// The concurrent planning service under a bursty open-loop workload:
    /// single-lock vs sharded cache banks at 1/4/8 workers.
    pub throughput: crate::throughput::ThroughputSeries,
    /// The same service behind the `raqo-net` wire front end, driven by
    /// closed-loop clients at 1/4/8 connections; gated against the
    /// in-process floor ×0.8 by `repro --bench-json`.
    pub net: crate::net_bench::NetSeries,
    /// What the trace pipeline costs: the same ticketed workload with
    /// telemetry disabled, head-sampled at 1%, and fully recording.
    pub telemetry: TelemetryOverheadSeries,
    /// The bushy planner against left-deep Selinger on star,
    /// clique, and chain shapes; the star point must be bushy and
    /// strictly cheaper (gated by `repro --smoke`).
    pub cascades: CascadesSeries,
}

/// One telemetry mode's measurements over the ticketed workload.
#[derive(Debug, Clone, Serialize)]
pub struct TelemetryModeResult {
    /// `disabled`, `sampled_1pct`, or `full`.
    pub name: String,
    pub wall_ms: f64,
    /// Determinism witness: the workload's final plan cost.
    pub plan_cost: f64,
    /// Traces the pipeline retained (0 when disabled; ~1% sampled; all
    /// when full).
    pub traces_retained: u64,
    /// Spans held in the completed ring afterwards.
    pub spans_retained: u64,
}

/// Trace-pipeline overhead: a fixed ticketed planning workload (every
/// `optimize` wrapped in a `start_trace`/`enter`/`finish` ticket, the way
/// [`raqo_core::PlanningService`] runs it) measured with telemetry
/// disabled, head-sampled at 1%, and fully recording. The disabled run is
/// the baseline; the overhead percentages are what an operator pays for
/// sampling and for full capture.
#[derive(Debug, Clone, Serialize)]
pub struct TelemetryOverheadSeries {
    pub tables: usize,
    /// Planning tickets per mode.
    pub tickets: u32,
    /// `disabled`, `sampled_1pct`, `full`.
    pub runs: Vec<TelemetryModeResult>,
    /// `(sampled - disabled) / disabled`, in percent.
    pub sampled_overhead_pct: f64,
    /// `(full - disabled) / disabled`, in percent.
    pub full_overhead_pct: f64,
    /// Every mode produced bitwise the same plan cost: instrumentation
    /// never steers planning.
    pub plans_identical: bool,
}

/// Measure the trace-pipeline overhead series (see
/// [`TelemetryOverheadSeries`]).
pub fn measure_telemetry(quick: bool) -> TelemetryOverheadSeries {
    use raqo_core::Telemetry;
    use raqo_telemetry::TraceConfig;

    let tables = if quick { 8 } else { 12 };
    let tickets: u32 = if quick { 20 } else { 100 };
    let cluster = ClusterConditions::two_dim(1.0..=50.0, 1.0..=8.0, 1.0, 1.0);
    let schema = RandomSchemaConfig::with_tables(tables, 5).generate();
    let query = QuerySpec::random_connected(&schema.catalog, &schema.graph, tables, 3);
    let model = JoinCostModel::trained_hive();

    let modes: [(&str, Telemetry); 3] = [
        ("disabled", Telemetry::disabled()),
        (
            "sampled_1pct",
            Telemetry::with_trace_config(TraceConfig {
                head_rate: 0.01,
                seed: 17,
                ..TraceConfig::default()
            }),
        ),
        ("full", Telemetry::enabled()),
    ];

    let mut runs = Vec::new();
    let mut costs: Vec<f64> = Vec::new();
    for (name, tel) in modes {
        let mut opt = RaqoOptimizer::new(
            &schema.catalog,
            &schema.graph,
            &model,
            cluster,
            PlannerKind::Selinger,
            ResourceStrategy::HillClimb,
        );
        opt.set_telemetry(tel.clone());
        // Warm-up outside the timed window (first run pays lazy inits).
        opt.optimize(&query).expect("warm-up plan");
        let (last, wall_ms) = timed(|| {
            let mut last = None;
            for _ in 0..tickets {
                let trace = tel.start_trace("bench.ticket");
                let _in_trace = trace.enter();
                last = Some(opt.optimize(&query).expect("plan"));
                drop(_in_trace);
                trace.finish();
            }
            last.expect("at least one ticket")
        });
        let retained = tel
            .snapshot()
            .map_or(0, |s| s.get(raqo_telemetry::Counter::TracesRetained));
        runs.push(TelemetryModeResult {
            name: name.into(),
            wall_ms,
            plan_cost: last.query.cost,
            traces_retained: retained,
            spans_retained: tel.completed_span_count() as u64,
        });
        costs.push(last.query.cost);
    }

    let base = runs[0].wall_ms.max(1e-9);
    TelemetryOverheadSeries {
        tables,
        tickets,
        sampled_overhead_pct: 100.0 * (runs[1].wall_ms - base) / base,
        full_overhead_pct: 100.0 * (runs[2].wall_ms - base) / base,
        plans_identical: costs.windows(2).all(|w| w[0].to_bits() == w[1].to_bits()),
        runs,
    }
}

/// Scalar fold vs dispatching batch kernel over the full resource grid.
/// Both paths are bit-identical by contract; `kernel` records which one the
/// dispatcher actually ran, so a report from a non-SIMD build is honest
/// about measuring scalar-vs-scalar.
#[derive(Debug, Clone, Serialize)]
pub struct CostKernelSeries {
    /// `"avx2"` when `--features simd` compiled the explicit kernel in and
    /// the CPU reports AVX2; `"scalar"` otherwise.
    pub kernel: String,
    /// Grid points evaluated per batch call.
    pub configs: usize,
    /// Batch calls per timed measurement.
    pub repeats: u32,
    pub scalar_ms: f64,
    pub dispatch_ms: f64,
    /// `scalar_ms / dispatch_ms` — ~1.0 when the build has no SIMD kernel.
    pub speedup: f64,
    /// Both paths produced bitwise-identical costs over the whole grid.
    pub bitwise_identical: bool,
}

/// Measure the cost-kernel series (see [`CostKernelSeries`]).
pub fn measure_cost_kernel(quick: bool) -> CostKernelSeries {
    use raqo_sim::engine::JoinImpl;
    use std::hint::black_box;

    let cluster = ClusterConditions::two_dim(1.0..=1000.0, 1.0..=10.0, 1.0, 1.0);
    let configs: Vec<raqo_resource::ResourceConfig> = cluster.grid().collect();
    let model = JoinCostModel::trained_hive();
    let repeats: u32 = if quick { 50 } else { 500 };

    let mut fast = vec![0.0; configs.len()];
    let mut scalar = vec![0.0; configs.len()];
    model.join_cost_batch(JoinImpl::SortMerge, 4.0, &configs, &mut fast);
    model.join_cost_batch_scalar(JoinImpl::SortMerge, 4.0, &configs, &mut scalar);
    let bitwise_identical =
        fast.iter().zip(&scalar).all(|(f, s)| f.to_bits() == s.to_bits());

    let (_, scalar_ms) = timed(|| {
        for _ in 0..repeats {
            model.join_cost_batch_scalar(
                JoinImpl::SortMerge,
                4.0,
                black_box(&configs),
                &mut scalar,
            );
            black_box(scalar.last().copied());
        }
    });
    let (_, dispatch_ms) = timed(|| {
        for _ in 0..repeats {
            model.join_cost_batch(JoinImpl::SortMerge, 4.0, black_box(&configs), &mut fast);
            black_box(fast.last().copied());
        }
    });

    CostKernelSeries {
        kernel: if raqo_cost::simd_active() { "avx2".into() } else { "scalar".into() },
        configs: configs.len(),
        repeats,
        scalar_ms,
        dispatch_ms,
        speedup: scalar_ms / dispatch_ms.max(1e-9),
        bitwise_identical,
    }
}

/// The Selinger half of the report: the full System-R DP with exhaustive
/// per-operator resource planning, run through the cumulative optimization
/// ladder — parallel DP levels, then cross-run memoization:
///
/// 1. `selinger_batched` — `Parallelism::Off`: the §VI polynomial evaluated
///    over contiguous grid slices, one DP level per batch;
/// 2. `selinger_parallel` — DP levels fanned over worker threads with a
///    deterministic merge, bit-identical;
/// 3. `selinger_parallel_memoized` — a *warm* re-optimization replaying
///    `(left, right, context)` sub-plan decisions from the cross-run memo,
///    the Fig. 15(b) recurring-conditions pattern.
#[derive(Debug, Clone, Serialize)]
pub struct SelingerSeries {
    pub tables: usize,
    pub grid_points: u64,
    pub runs: Vec<ModeResult>,
    /// sequential wall-clock / parallel+memoized wall-clock.
    pub speedup: f64,
    /// Sequential and parallel plans are bitwise identical; the warm
    /// memoized run has the same tree with cost equal to fp noise (the memo
    /// replays DP-time IO accumulation order).
    pub plans_identical: bool,
}

/// One point of the mid-size planning series: a chain or star query whose
/// relation count exceeds the exhaustive-DP threshold, planned end to end
/// (join order + per-join resources) through the IDP bridge.
#[derive(Debug, Clone, Serialize)]
pub struct IdpPoint {
    pub shape: String,
    pub tables: usize,
    pub wall_ms: f64,
    pub plan_cost: f64,
    pub joins: usize,
    /// The degradation report named the IDP bridge — the query never fell
    /// through to the randomized rung.
    pub bridged: bool,
}

/// The 24/32/48-relation chain+star series behind `repro --bench-json`:
/// what planning past the old 20-relation cliff costs, per query shape.
#[derive(Debug, Clone, Serialize)]
pub struct IdpSeries {
    pub block_size: usize,
    pub dp_threshold: usize,
    pub points: Vec<IdpPoint>,
    /// Every point was bridged (none degraded to the randomized planner).
    pub all_bridged: bool,
}

/// Measure the IDP-bridged chain+star series (see [`IdpSeries`]).
pub fn measure_idp(quick: bool) -> IdpSeries {
    let sizes: &[usize] = if quick { &[24, 32] } else { &[24, 32, 48] };
    let model = JoinCostModel::trained_hive();
    let cluster = ClusterConditions::paper_default();
    let mut points = Vec::new();
    for &tables in sizes {
        let shapes = [
            ("chain", RandomSchema::chain(tables, tables as u64)),
            ("star", RandomSchema::star(tables, tables as u64)),
        ];
        for (shape, schema) in shapes {
            let rels: Vec<_> = schema.catalog.table_ids().collect();
            let query = QuerySpec::new(format!("{shape}_{tables}"), rels);
            let mut opt = RaqoOptimizer::new(
                &schema.catalog,
                &schema.graph,
                &model,
                cluster,
                PlannerKind::Selinger,
                ResourceStrategy::HillClimb,
            );
            let (plan, wall_ms) = timed(|| opt.optimize(&query).expect("bridged plan"));
            points.push(IdpPoint {
                shape: shape.into(),
                tables,
                wall_ms,
                plan_cost: plan.query.cost,
                joins: plan.query.joins.len(),
                bridged: plan
                    .degradation
                    .is_some_and(|d| d.rung == DegradationRung::IdpBridge),
            });
        }
    }
    let all_bridged = points.iter().all(|p| p.bridged);
    IdpSeries {
        block_size: raqo_planner::idp::DEFAULT_BLOCK_SIZE,
        dp_threshold: raqo_planner::selinger::DEFAULT_DP_THRESHOLD,
        points,
        all_bridged,
    }
}

/// One shape's Selinger-vs-Cascades comparison.
#[derive(Debug, Clone, Serialize)]
pub struct CascadesPoint {
    pub shape: String,
    pub tables: usize,
    pub selinger_wall_ms: f64,
    pub cascades_wall_ms: f64,
    pub selinger_cost: f64,
    pub cascades_cost: f64,
    /// The Cascades winner is a bushy tree (not left-deep).
    pub bushy: bool,
    /// cascades_cost ≤ selinger_cost within fp tolerance — the bushy
    /// search covers every left-deep order Selinger enumerates.
    pub no_worse: bool,
}

/// Bushy-vs-left-deep series behind `repro --bench-json`: the bushy
/// subset DP against Selinger DP on the shapes where plan-space
/// coverage differs — a wide fact/dim star (bushy dim×dim cross products
/// halve the fact-sized probes), a fully cyclic clique, and a chain.
#[derive(Debug, Clone, Serialize)]
pub struct CascadesSeries {
    pub points: Vec<CascadesPoint>,
    /// The star point is bushy AND strictly cheaper than the best
    /// left-deep plan.
    pub star_bushy_and_cheaper: bool,
    /// The crafted-clique point is bushy AND strictly cheaper.
    pub clique_bushy_and_cheaper: bool,
    /// Every point has cascades ≤ selinger.
    pub all_no_worse: bool,
}

/// The crafted fact/dim star of the smoke gate: a wide 2M-row fact table
/// and small dimensions, where probing the fact with dim×dim cross
/// products halves the number of fact-sized joins — so the optimal plan
/// is bushy and left-deep planners provably lose.
pub fn crafted_star(dims: usize) -> (Catalog, JoinGraph) {
    let mut catalog = Catalog::new();
    let fact = catalog.add_stats_only("fact", TableStats::new(2_000_000.0, 400.0));
    let mut graph = JoinGraph::new();
    for i in 0..dims {
        let rows = 200.0 + 100.0 * i as f64;
        let d = catalog.add_stats_only(format!("dim{i}"), TableStats::new(rows, 60.0));
        graph.add_edge(fact, d, 1.0 / rows);
    }
    (catalog, graph)
}

/// A crafted *clique*: two 2M-row fact tables, each with its own small
/// FK dimensions, and *weak* (0.9) predicates closing every remaining
/// pair — the graph is maximally cyclic, yet the strong edges form two
/// star clusters. The bushy winner reduces each fact against tiny
/// dimension cross products independently before the fact-to-fact join;
/// a left-deep order must carry a fact-sized intermediate through every
/// step after touching its first fact.
pub fn crafted_clique(dims_per_fact: usize) -> (Catalog, JoinGraph) {
    let mut catalog = Catalog::new();
    let f1 = catalog.add_stats_only("fact1", TableStats::new(2_000_000.0, 400.0));
    let f2 = catalog.add_stats_only("fact2", TableStats::new(2_000_000.0, 400.0));
    let mut graph = JoinGraph::new();
    graph.add_edge(f1, f2, 1.0 / 2_000_000.0);
    let mut all = vec![f1, f2];
    for (fact, side) in [(f1, "a"), (f2, "b")] {
        for i in 0..dims_per_fact {
            let rows = 200.0 + 100.0 * i as f64;
            let d = catalog.add_stats_only(format!("dim_{side}{i}"), TableStats::new(rows, 60.0));
            graph.add_edge(fact, d, 1.0 / rows);
            all.push(d);
        }
    }
    // Close the clique: every pair not already joined above gets a weak
    // predicate, so each subset of relations is cyclic and connected.
    for i in 0..all.len() {
        for j in i + 1..all.len() {
            if !graph.edges().iter().any(|e| {
                (e.a == all[i] && e.b == all[j]) || (e.a == all[j] && e.b == all[i])
            }) {
                graph.add_edge(all[i], all[j], 0.9);
            }
        }
    }
    (catalog, graph)
}

/// Measure the Cascades-vs-Selinger series (see [`CascadesSeries`]).
///
/// Costed under the simulation oracle (not the trained model): the
/// trained model floors per-join time on the tiny crafted dimensions, so
/// every join order would tie and the bushy-vs-left-deep gap vanish.
pub fn measure_cascades(quick: bool) -> CascadesSeries {
    let model = raqo_cost::SimOracleCost::hive();
    let cluster = ClusterConditions::paper_default();
    let dims = if quick { 8 } else { 10 };
    let star = crafted_star(dims);
    let shapes: Vec<(&str, Catalog, JoinGraph)> = vec![
        ("star", star.0, star.1),
        {
            let c = crafted_clique(3);
            ("clique", c.0, c.1)
        },
        {
            let s = RandomSchema::clique(8, 7);
            ("clique_random", s.catalog, s.graph)
        },
        {
            let s = RandomSchema::chain(10, 3);
            ("chain", s.catalog, s.graph)
        },
    ];
    let mut points = Vec::new();
    for (shape, catalog, graph) in &shapes {
        let rels: Vec<_> = catalog.table_ids().collect();
        let tables = rels.len();
        let query = QuerySpec::new(format!("{shape}_{tables}"), rels);
        let run = |kind: PlannerKind| {
            let mut opt = RaqoOptimizer::new(
                catalog,
                graph,
                &model,
                cluster,
                kind,
                ResourceStrategy::HillClimb,
            );
            timed(|| opt.optimize(&query).expect("plan"))
        };
        let (sel, selinger_wall_ms) = run(PlannerKind::Selinger);
        let (cas, cascades_wall_ms) = run(PlannerKind::cascades());
        points.push(CascadesPoint {
            shape: (*shape).into(),
            tables,
            selinger_wall_ms,
            cascades_wall_ms,
            selinger_cost: sel.query.cost,
            cascades_cost: cas.query.cost,
            bushy: !cas.query.tree.is_left_deep(),
            no_worse: cas.query.cost <= sel.query.cost * (1.0 + 1e-9),
        });
    }
    let bushy_strict = |shape: &str| {
        points
            .iter()
            .any(|p| p.shape == shape && p.bushy && p.cascades_cost < p.selinger_cost)
    };
    let star_bushy_and_cheaper = bushy_strict("star");
    let clique_bushy_and_cheaper = bushy_strict("clique");
    let all_no_worse = points.iter().all(|p| p.no_worse);
    CascadesSeries {
        points,
        star_bushy_and_cheaper,
        clique_bushy_and_cheaper,
        all_no_worse,
    }
}

fn mode_name(parallelism: Parallelism) -> String {
    match parallelism {
        Parallelism::Off => "off".into(),
        Parallelism::Threads(n) => format!("threads({n})"),
        Parallelism::Auto => "auto".into(),
    }
}

/// Run the three modes on the Fig. 15(b)-style workload.
pub fn measure(quick: bool) -> PlannerBenchReport {
    let tables = if quick { 24 } else { 100 };
    // ≥10K grid points in the full run: 1..=1000 containers × 1..=10 GB.
    let cluster = if quick {
        ClusterConditions::two_dim(1.0..=50.0, 1.0..=8.0, 1.0, 1.0)
    } else {
        ClusterConditions::two_dim(1.0..=1000.0, 1.0..=10.0, 1.0, 1.0)
    };
    let schema = RandomSchemaConfig::with_tables(tables, 5).generate();
    let query = QuerySpec::random_connected(&schema.catalog, &schema.graph, tables, 3);
    let model = JoinCostModel::trained_hive();

    let config = |memoize: bool| RandomizedConfig {
        restarts: 1,
        rounds_per_join: 2,
        epsilon: 0.05,
        seed: 17,
        memoize,
    };

    let modes: [(&str, Parallelism, bool); 3] = [
        ("sequential", Parallelism::Off, false),
        ("memoized", Parallelism::Off, true),
        ("parallel+memoized", Parallelism::Auto, true),
    ];

    let mut runs = Vec::new();
    let mut plans: Vec<(raqo_planner::PlanTree, f64)> = Vec::new();
    for (name, parallelism, memoize) in modes {
        let mut opt = RaqoOptimizer::new(
            &schema.catalog,
            &schema.graph,
            &model,
            cluster,
            PlannerKind::FastRandomized(config(memoize)),
            ResourceStrategy::BruteForce,
        )
        .with_parallelism(parallelism);
        let (plan, wall_ms) = timed(|| opt.optimize(&query).expect("plan"));
        runs.push(ModeResult {
            name: name.into(),
            parallelism: mode_name(parallelism),
            memoize,
            wall_ms,
            plan_cost: plan.query.cost,
            plan_cost_calls: plan.stats.plan_cost_calls,
            resource_iterations: plan.stats.resource_iterations,
            memo_hits: plan.stats.memo_hits,
        });
        plans.push((plan.query.tree.clone(), plan.query.cost));
    }

    let plans_identical = plans
        .windows(2)
        .all(|w| w[0].0 == w[1].0 && w[0].1.to_bits() == w[1].1.to_bits());
    let speedup = runs[0].wall_ms / runs[2].wall_ms.max(1e-9);

    PlannerBenchReport {
        workload: format!(
            "{tables}-table random connected join, fast randomized planner, \
             brute-force resource planning over {} grid points",
            cluster.grid_size()
        ),
        tables,
        grid_points: cluster.grid_size(),
        worker_threads: Parallelism::Auto.workers(),
        runs,
        speedup,
        plans_identical,
        selinger: measure_selinger(quick),
        idp: measure_idp(quick),
        cost_kernel: measure_cost_kernel(quick),
        throughput: crate::throughput::measure(quick),
        net: crate::net_bench::measure(quick),
        telemetry: measure_telemetry(quick),
        cascades: measure_cascades(quick),
    }
}

/// Run the Selinger optimization ladder (see [`SelingerSeries`]).
pub fn measure_selinger(quick: bool) -> SelingerSeries {
    // ≥10 relations and ≥10K grid points in the full run: the DP costs
    // every connected (sub-plan, relation) extension against the whole
    // grid, so this is the seed's slowest joint-planning path.
    let tables = if quick { 8 } else { 10 };
    let cluster = if quick {
        ClusterConditions::two_dim(1.0..=50.0, 1.0..=8.0, 1.0, 1.0)
    } else {
        ClusterConditions::two_dim(1.0..=1000.0, 1.0..=10.0, 1.0, 1.0)
    };
    let schema = RandomSchemaConfig::with_tables(tables, 5).generate();
    let query = QuerySpec::random_connected(&schema.catalog, &schema.graph, tables, 3);
    let model = JoinCostModel::trained_hive();

    // (name, planner, parallelism, warm runs before timing)
    let modes: [(&str, PlannerKind, Parallelism, usize); 3] = [
        ("selinger_batched", PlannerKind::Selinger, Parallelism::Off, 0),
        ("selinger_parallel", PlannerKind::Selinger, Parallelism::Auto, 0),
        // Timed *warm*: the memo pays off on re-optimization under
        // recurring conditions (Fig. 15(b) cluster sweeps).
        ("selinger_parallel_memoized", PlannerKind::SelingerMemoized, Parallelism::Auto, 1),
    ];

    let mut runs = Vec::new();
    let mut plans: Vec<(raqo_planner::PlanTree, f64)> = Vec::new();
    for (name, planner, parallelism, warm_runs) in modes {
        let mut opt = RaqoOptimizer::new(
            &schema.catalog,
            &schema.graph,
            &model,
            cluster,
            planner,
            ResourceStrategy::BruteForce,
        )
        .with_parallelism(parallelism);
        for _ in 0..warm_runs {
            opt.optimize(&query).expect("warm-up plan");
        }
        let (plan, wall_ms) = timed(|| opt.optimize(&query).expect("plan"));
        runs.push(ModeResult {
            name: name.into(),
            parallelism: mode_name(parallelism),
            memoize: warm_runs > 0,
            wall_ms,
            plan_cost: plan.query.cost,
            plan_cost_calls: plan.stats.plan_cost_calls,
            resource_iterations: plan.stats.resource_iterations,
            memo_hits: plan.stats.memo_hits,
        });
        plans.push((plan.query.tree.clone(), plan.query.cost));
    }

    // Sequential and parallel DP are bit-identical; the memoized run
    // replays DP-time IOs, so its cost agrees only up to fp noise.
    let exact = plans[0].0 == plans[1].0 && plans[0].1.to_bits() == plans[1].1.to_bits();
    let warm_matches = plans[2].0 == plans[0].0
        && (plans[2].1 - plans[0].1).abs() <= 1e-9 * plans[0].1.abs();
    let speedup = runs[0].wall_ms / runs[2].wall_ms.max(1e-9);
    SelingerSeries {
        tables,
        grid_points: cluster.grid_size(),
        runs,
        speedup,
        plans_identical: exact && warm_matches,
    }
}

/// Render the report as a printable [`Table`].
pub fn table(report: &PlannerBenchReport) -> Table {
    let mut t = Table::new(
        format!("Joint-planning hot path — {}", report.workload),
        &[
            "mode",
            "parallelism",
            "memoize",
            "wall (ms)",
            "#getPlanCost calls",
            "#resource iterations",
            "#memo hits",
        ],
    );
    for r in report.runs.iter().chain(&report.selinger.runs) {
        t.row(vec![
            r.name.clone().into(),
            r.parallelism.clone().into(),
            if r.memoize { "yes" } else { "no" }.into(),
            r.wall_ms.into(),
            r.plan_cost_calls.into(),
            r.resource_iterations.into(),
            r.memo_hits.into(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimized_modes_reproduce_the_sequential_plan_and_cut_the_work() {
        let _serial = crate::timing_lock();
        let report = measure(true);
        assert!(report.plans_identical, "modes disagree: {report:?}");
        let seq = &report.runs[0];
        let memo = &report.runs[1];
        let both = &report.runs[2];
        assert_eq!(seq.memo_hits, 0);
        assert!(memo.memo_hits > 0);
        // Memoization shows up as skipped getPlanCost calls, 1:1.
        assert_eq!(memo.plan_cost_calls + memo.memo_hits, seq.plan_cost_calls);
        assert_eq!(both.plan_cost_calls, memo.plan_cost_calls);
        // The acceptance bar, on counts that repeat exactly: the optimized
        // mode explores at most half the resource configurations. (Wall
        // clock in a debug build is mostly thread spawns; the release-build
        // timing is what `repro --bench-json` reports.)
        assert_eq!(both.resource_iterations, memo.resource_iterations);
        assert!(
            both.resource_iterations * 2 <= seq.resource_iterations,
            "resource iterations cut less than 2x: {report:?}"
        );
    }

    #[test]
    fn idp_series_bridges_every_mid_size_point() {
        let _serial = crate::timing_lock();
        let series = measure_idp(true);
        assert!(series.all_bridged, "a mid-size point fell past the bridge: {series:?}");
        for p in &series.points {
            assert_eq!(p.joins, p.tables - 1, "{series:?}");
            assert!(p.plan_cost.is_finite() && p.plan_cost > 0.0, "{series:?}");
        }
    }

    #[test]
    fn cost_kernel_paths_agree_bitwise() {
        let _serial = crate::timing_lock();
        let series = measure_cost_kernel(true);
        assert!(series.bitwise_identical, "kernel paths diverge: {series:?}");
        assert_eq!(series.configs, 10_000);
        assert!(series.scalar_ms > 0.0 && series.dispatch_ms > 0.0, "{series:?}");
        // The kernel label must match what the build actually compiled in.
        assert_eq!(series.kernel == "avx2", raqo_cost::simd_active(), "{series:?}");
    }

    #[test]
    fn cascades_series_star_is_bushy_and_strictly_cheaper() {
        let _serial = crate::timing_lock();
        let series = measure_cascades(true);
        assert!(
            series.star_bushy_and_cheaper,
            "star point must be bushy and beat left-deep: {series:?}"
        );
        assert!(
            series.clique_bushy_and_cheaper,
            "crafted clique point must be bushy and beat left-deep: {series:?}"
        );
        assert!(series.all_no_worse, "cascades lost to selinger: {series:?}");
        for p in &series.points {
            assert!(p.cascades_cost.is_finite() && p.cascades_cost > 0.0, "{series:?}");
        }
    }

    #[test]
    fn selinger_ladder_reproduces_the_scalar_plan_and_wins_wall_clock() {
        let _serial = crate::timing_lock();
        let series = measure_selinger(true);
        assert!(series.plans_identical, "modes disagree: {series:?}");
        let sequential = &series.runs[0];
        let warm = &series.runs[2];
        assert_eq!(sequential.memo_hits, 0);
        assert!(warm.memo_hits > 0, "warm memoized run never hit: {series:?}");
        assert!(warm.plan_cost_calls < sequential.plan_cost_calls);
        assert!(
            series.speedup >= 2.0,
            "Selinger speedup {:.2}x below the 2x bar: {series:?}",
            series.speedup
        );
    }
}
