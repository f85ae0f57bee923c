//! The traced pass: per-layer numbers measured from outside the program.
//!
//! One round runs with `Telemetry::enabled()`; its reply fields and registry
//! counters give the in-situ numbers. Then each layer's public functions are
//! called directly on the workload's own inputs: the real planner drives a
//! [`TimingCoster`] that wraps the real [`RaqoCoster`] behind the
//! `PlanCoster` seam (`get_plan_cost`), capturing every `JoinIo`, and the
//! captured joins are replayed through `raqo_resource`, `raqo_cost`,
//! `raqo_catalog` and `raqo_net::frame`. Every direct call is a span (name,
//! start, end, parent, request id) kept in memory and written to
//! `out/trace-<workload>.json` when the pass ends.

use crate::report::{Stamp, Summary};
use crate::round::{out_dir, Harness, Payload, RoundResult};
use crate::stats::{geomean, mean, median, percentile};
use crate::workload::{Inputs, Path, Workload, CHECKPOINT_EVERY, COMPACT_HIGH_WATER};
use raqo_catalog::QuerySpec;
use raqo_core::{
    Counter, Hist, Objective, PlannerKind, RaqoCoster, RaqoOptimizer, ResourceStrategy,
    ServiceConfig, Telemetry,
};
use raqo_cost::{JoinCostModel, OperatorCost};
use raqo_net::frame::{self, ReplyFrame, RequestFrame};
use raqo_planner::{
    CardinalityEstimator, CascadesPlanner, JoinDecision, JoinIo, PlanCoster, PlannedQuery,
    SelingerPlanner,
};
use raqo_resource::{brute_force_batch, hill_climb, Parallelism, ResourceConfig, ShardedCacheBank};
use raqo_sim::engine::JoinImpl;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Spans kept per trace file; later ones are counted, not stored.
const MAX_SPANS: usize = 50_000;
/// Time each direct-call timing loop may take.
const PROBE_BUDGET: Duration = Duration::from_millis(60);
/// Repetitions of each query in the planner and optimizer probes.
const PLAN_REPS: usize = 5;
/// Captured joins replayed by the climb, brute-force and kernel probes.
const REPLAY_SAMPLE: usize = 64;
/// Compaction + checkpoint cycles timed on the churn workload.
const CHECKPOINT_CYCLES: usize = 6;
/// The cache namespace the probes plan in.
const PROBE_NAMESPACE: u32 = 1;
/// The only operator kind the cache bank holds (joins).
const OP_JOIN: u32 = 0;

struct SpanRecord {
    parent: Option<u32>,
    request: u32,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span store of the traced pass.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<SpanRecord>,
    dropped: u64,
}

impl SpanLog {
    fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a finished span; its index is its id.
    fn push(
        &mut self,
        parent: Option<u32>,
        request: u32,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> Option<u32> {
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return None;
        }
        self.spans.push(SpanRecord {
            parent,
            request,
            name,
            start_ns,
            end_ns,
        });
        Some(self.spans.len() as u32 - 1)
    }

    /// Run `f` as a span under `parent`.
    fn span<T>(&mut self, parent: Option<u32>, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.push(parent, 0, name, start, end);
        out
    }

    fn write(&self, workload: &str, stamp: &Stamp) -> std::io::Result<()> {
        let dir = out_dir();
        std::fs::create_dir_all(&dir)?;
        let mut text = format!(
            "{{\"workload\": \"{workload}\", \"stamp\": \"{}\", \"dropped\": {}, \"spans\": [\n",
            stamp.line().replace('"', "'"),
            self.dropped
        );
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if id + 1 == self.spans.len() { "" } else { "," };
            text.push_str(&format!(
                "{{\"id\": {id}, \"parent\": {parent}, \"request\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}{comma}\n",
                s.request, s.name, s.start_ns, s.end_ns
            ));
        }
        text.push_str("]}\n");
        std::fs::write(dir.join(format!("trace-{workload}.json")), text)
    }
}

/// `get_plan_cost` seen from outside: counts, times and records every call
/// the planner makes through the `PlanCoster` seam.
struct TimingCoster<'c> {
    inner: &'c mut RaqoCoster<'static, JoinCostModel>,
    log: &'c mut SpanLog,
    parent: Option<u32>,
    request: u32,
    busy: Duration,
    calls: u64,
    batch_calls: u64,
    batch_width: u64,
    ios: Vec<JoinIo>,
}

impl TimingCoster<'_> {
    fn timed<T>(&mut self, f: impl FnOnce(&mut RaqoCoster<'static, JoinCostModel>) -> T) -> T {
        let start_ns = self.log.now_ns();
        let started = Instant::now();
        let out = f(self.inner);
        let elapsed = started.elapsed();
        self.busy += elapsed;
        self.log.push(
            self.parent,
            self.request,
            "get_plan_cost",
            start_ns,
            start_ns + elapsed.as_nanos() as u64,
        );
        out
    }
}

impl PlanCoster for TimingCoster<'_> {
    fn join_cost(&mut self, io: &JoinIo) -> Option<JoinDecision> {
        self.calls += 1;
        self.ios.push(*io);
        self.timed(|inner| inner.join_cost(io))
    }

    fn join_cost_many(
        &mut self,
        ios: &[JoinIo],
        parallelism: Parallelism,
    ) -> Vec<Option<JoinDecision>> {
        self.calls += ios.len() as u64;
        self.batch_calls += 1;
        self.batch_width += ios.len() as u64;
        self.ios.extend_from_slice(ios);
        self.timed(|inner| inner.join_cost_many(ios, parallelism))
    }

    fn prefers_batch(&self) -> bool {
        self.inner.prefers_batch()
    }
}

/// The workload's planner called directly, costing through `coster`.
fn plan_direct(
    planner: &PlannerKind,
    inputs: &Inputs,
    query: &QuerySpec,
    coster: &mut dyn PlanCoster,
) -> Option<PlannedQuery> {
    match planner {
        PlannerKind::Cascades(config) => {
            CascadesPlanner::plan(&inputs.catalog, &inputs.graph, query, coster, config)
                .ok()
                .map(|outcome| outcome.planned)
        }
        _ => SelingerPlanner::plan(&inputs.catalog, &inputs.graph, query, coster).ok(),
    }
}

fn probe_coster(
    workload: &Workload,
    inputs: &Inputs,
    bank: &ShardedCacheBank,
) -> RaqoCoster<'static, JoinCostModel> {
    let mut coster = RaqoCoster::new(
        inputs.model.clone(),
        inputs.cluster,
        workload.strategy,
        Objective::Time,
    );
    coster.share_sharded_cache(bank.clone());
    coster.set_cache_namespace(PROBE_NAMESPACE);
    coster
}

/// What the planner probe saw, per query where it says so.
#[derive(Default)]
struct PlannerPass {
    /// Per query: median over repetitions of the planner's wall time.
    wall_us: Vec<f64>,
    /// Per query: the part of `wall_us` spent inside the coster.
    busy_us: Vec<f64>,
    cost_s: Vec<f64>,
    /// Per query: every join the planner asked a price for, in one plan.
    ios: Vec<Vec<JoinIo>>,
    /// The cache lookups those joins caused: (bank model id, key).
    lookup_keys: Vec<(u32, f64)>,
    timed_calls: u64,
    batch_calls: u64,
    batch_width: u64,
    busy_total: Duration,
}

/// Plan every query `PLAN_REPS` times with `planner` on a private bank
/// (warmed first where the strategy caches), timing the planner and the
/// coster apart.
fn planner_pass(
    planner: &PlannerKind,
    workload: &Workload,
    inputs: &Inputs,
    bank: &ShardedCacheBank,
    log: &mut SpanLog,
    root: Option<u32>,
) -> PlannerPass {
    let mut coster = probe_coster(workload, inputs, bank);
    let mut namespace = PROBE_NAMESPACE;
    if workload.cached() && !workload.churn {
        let mut previous: Vec<f64> = Vec::new();
        for _ in 0..8 {
            let costs: Vec<f64> = inputs
                .queries
                .iter()
                .map(|q| plan_direct(planner, inputs, q, &mut coster).map_or(0.0, |p| p.cost))
                .collect();
            if costs == previous {
                break;
            }
            previous = costs;
        }
    }
    let mut pass = PlannerPass::default();
    // Per query, (wall, busy) of every repetition. Repetitions are the outer
    // loop, so a burst of interference from the machine's other tenants
    // lands on one repetition of many queries, which the medians then drop.
    let mut timings: Vec<Vec<(f64, f64)>> = vec![Vec::new(); inputs.queries.len()];
    for rep in 0..PLAN_REPS {
        for (q, query) in inputs.queries.iter().enumerate() {
            if workload.churn {
                // Every request of the churn workload plans cold.
                namespace += 1;
                coster.set_cache_namespace(namespace);
            }
            let start_ns = log.now_ns();
            let plan_span = log.push(root, q as u32, "probe.plan", start_ns, start_ns);
            let mut timing = TimingCoster {
                inner: &mut coster,
                log: &mut *log,
                parent: plan_span,
                request: q as u32,
                busy: Duration::ZERO,
                calls: 0,
                batch_calls: 0,
                batch_width: 0,
                ios: Vec::new(),
            };
            let started = Instant::now();
            let planned = plan_direct(planner, inputs, query, &mut timing);
            let wall = started.elapsed();
            let TimingCoster {
                busy,
                calls,
                batch_calls,
                batch_width,
                ios,
                ..
            } = timing;
            if let Some(id) = plan_span {
                log.spans[id as usize].end_ns = start_ns + wall.as_nanos() as u64;
            }
            timings[q].push((wall.as_secs_f64() * 1e6, busy.as_secs_f64() * 1e6));
            pass.timed_calls += calls;
            pass.busy_total += busy;
            if rep == 0 {
                pass.batch_calls += batch_calls;
                pass.batch_width += batch_width;
                pass.cost_s.push(planned.map_or(0.0, |p| p.cost));
                // Both implementations of every join look their build size
                // up. Warm workloads keep one namespace; a churn plan sees
                // only its own, so the last one planned stands for all.
                if workload.churn {
                    pass.lookup_keys.clear();
                }
                pass.lookup_keys.extend(
                    ios.iter()
                        .flat_map(|io| [0, 1].map(|id| ((namespace << 1) | id, io.build_gb))),
                );
                pass.ios.push(ios);
            }
        }
    }
    for mut runs in timings {
        // The median wall time, with the busy time of that same run.
        runs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (wall, busy) = runs[runs.len() / 2];
        pass.wall_us.push(wall);
        pass.busy_us.push(busy);
    }
    pass
}

/// Mean nanoseconds per call of `f` over `items`, cycling through them
/// until `PROBE_BUDGET` is spent (every item at least once).
fn ns_per_call<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let started = Instant::now();
    let mut calls = 0u64;
    loop {
        for item in items {
            f(item);
        }
        calls += items.len() as u64;
        if started.elapsed() >= PROBE_BUDGET {
            return started.elapsed().as_nanos() as f64 / calls as f64;
        }
    }
}

/// An evenly spaced sample of at most `n` of `items`.
fn sample<T: Copy>(items: &[T], n: usize) -> Vec<T> {
    let step = items.len().div_ceil(n).max(1);
    items.iter().step_by(step).copied().collect()
}

/// Run the traced round and the direct-call probes for `workload`; returns
/// the traced round and every per-layer metric by name.
pub fn traced_pass(
    workload: &Workload,
    seed: u64,
    window: Duration,
    untraced: &Summary,
    stamp: &Stamp,
) -> Result<(RoundResult, BTreeMap<&'static str, f64>), String> {
    let mut log = SpanLog::new();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    // ---- the traced round: reply fields and registry counters -----------
    let harness = Harness::setup(workload, seed, Telemetry::enabled())?;
    let round_start_ns = log.now_ns();
    let traced = harness.run(window);
    let round_span = log.push(None, 0, "traced_round", round_start_ns, log.now_ns());
    for (i, s) in traced.samples.iter().enumerate() {
        let start = round_start_ns + (s.sent_us * 1e3) as u64;
        log.push(
            round_span,
            i as u32 + 1,
            "request",
            start,
            start + (s.latency_us * 1e3) as u64,
        );
    }
    // Replies carry their queue wait and service time whether or not
    // telemetry is on, so those come from the untraced rounds, where
    // recording spans does not stretch them. What surrounds queueing and
    // planning is the wire on one path, the submit/wait handoff on the other.
    let wire = workload.path == Path::Wire;
    let outside = &untraced.outside_us;
    m.insert("net.overhead_p50_us", if wire { outside.p50 } else { 0.0 });
    m.insert("net.overhead_p95_us", if wire { outside.p95 } else { 0.0 });
    m.insert("net.reply_bytes_p50", untraced.reply_bytes_p50);
    m.insert("core.service.queue_wait_p50_us", untraced.queue_wait_us.p50);
    m.insert("core.service.queue_wait_p95_us", untraced.queue_wait_us.p95);
    m.insert("core.service.service_p50_us", untraced.service_us.p50);
    m.insert("core.service.service_p95_us", untraced.service_us.p95);
    m.insert(
        "core.service.handoff_p50_us",
        if wire { 0.0 } else { outside.p50 },
    );
    m.insert("core.deadline_expired", traced.deadline_expired as f64);
    m.insert(
        "core.get_plan_cost.calls",
        traced
            .queries
            .iter()
            .map(|q| q.plan_cost_calls)
            .sum::<u64>() as f64,
    );
    m.insert(
        "resource.iterations",
        traced
            .queries
            .iter()
            .map(|q| q.resource_iterations)
            .sum::<u64>() as f64,
    );
    m.insert("resource.cache.entries_end", traced.entries_end as f64);
    m.insert("telemetry.spans", traced.library_spans as f64);
    if let Some((before, after)) = &traced.metrics {
        let delta = |c: Counter| after.delta(before, c) as f64;
        m.insert("net.frames_in", delta(Counter::NetFramesIn));
        m.insert("net.frames_out", delta(Counter::NetFramesOut));
        m.insert(
            "net.shed",
            delta(Counter::NetShedOverloaded)
                + delta(Counter::NetShedConnCap)
                + delta(Counter::NetShedDeadline)
                + delta(Counter::NetShedSlowReader),
        );
        m.insert("net.dedup_hits", delta(Counter::NetRepliesDeduped));
        m.insert("net.client_retries", delta(Counter::NetClientRetries));
        m.insert("core.shed", delta(Counter::ServiceShed));
        m.insert(
            "core.degraded",
            delta(Counter::DegradationsIdpBridge)
                + delta(Counter::DegradationsRandomized)
                + delta(Counter::DegradationsRuleBased)
                + delta(Counter::DegradationsMemoCut),
        );
        m.insert("planner.memo_hits", delta(Counter::MemoHits));
        m.insert("resource.cache.evictions", delta(Counter::CacheEvictions));
        if workload.cached() {
            let hits = delta(Counter::CacheHitsExact)
                + delta(Counter::CacheHitsNearest)
                + delta(Counter::CacheHitsWeighted);
            let lookups = hits + delta(Counter::CacheMisses);
            m.insert("resource.cache.lookups", lookups);
            m.insert(
                "resource.cache.hit_rate",
                if lookups > 0.0 { hits / lookups } else { 0.0 },
            );
            // Every resource search that ran to an outcome is observed once:
            // a hit (one evaluation) or a climb. A miss with no feasible
            // start for a broadcast join runs no climb and is not observed.
            let outcomes = after.hist(Hist::ResourceIterationsPerCall).count
                - before.hist(Hist::ResourceIterationsPerCall).count;
            m.insert("resource.climb.calls", outcomes as f64 - hits);
        }
    }
    if workload.churn {
        m.insert(
            "resource.checkpoint.count",
            (traced.completed / CHECKPOINT_EVERY) as f64,
        );
    }

    // ---- direct calls into each layer, on the workload's own inputs -----
    let inputs = Inputs::build(workload, seed);
    let probes_start = log.now_ns();
    let root = log.push(None, 0, "probes", probes_start, probes_start);
    let bank = ShardedCacheBank::with_shards(8);
    let pass = planner_pass(&workload.planner, workload, &inputs, &bank, &mut log, root);
    // Means over the queries, which the callers request equally often, so
    // that planner and coster time add up to the mean service time.
    let busy_us = mean(&pass.busy_us);
    let search_self_us = mean(&pass.wall_us) - busy_us;
    m.insert("planner.search_self_us", search_self_us);
    m.insert("planner.batch_calls", pass.batch_calls as f64);
    m.insert(
        "planner.batch_width_mean",
        if pass.batch_calls > 0 {
            pass.batch_width as f64 / pass.batch_calls as f64
        } else {
            0.0
        },
    );
    m.insert("core.get_plan_cost.busy_us", busy_us);
    m.insert(
        "core.get_plan_cost.ns_per_call",
        pass.busy_total.as_nanos() as f64 / pass.timed_calls.max(1) as f64,
    );
    if matches!(workload.planner, PlannerKind::Cascades(_)) {
        let left_deep = planner_pass(
            &PlannerKind::Selinger,
            workload,
            &inputs,
            &ShardedCacheBank::with_shards(8),
            &mut log,
            root,
        );
        m.insert(
            "planner.bushy_over_leftdeep_time_ratio",
            mean(&pass.wall_us) / mean(&left_deep.wall_us),
        );
        m.insert(
            "planner.bushy_over_leftdeep_cost_ratio",
            geomean(&pass.cost_s) / geomean(&left_deep.cost_s),
        );
    }

    // core: the optimizer called directly, same configuration, same bank.
    let budget = ServiceConfig::default().budgets[workload.priority as usize];
    let mut optimizer = RaqoOptimizer::new(
        inputs.catalog.clone(),
        inputs.graph.clone(),
        inputs.model.clone(),
        inputs.cluster,
        workload.planner.clone(),
        workload.strategy,
    )
    .with_budget(budget);
    optimizer.share_sharded_cache(bank.clone());
    optimizer.set_cache_namespace(PROBE_NAMESPACE);
    // Namespaces no planner pass above has touched, for the churn workload.
    let mut cold_namespace = 1u32 << 20;
    let optimize_us: Vec<f64> = log.span(root, "probe.optimizer", || {
        inputs
            .queries
            .iter()
            .map(|query| {
                let reps: Vec<f64> = (0..PLAN_REPS)
                    .map(|_| {
                        if workload.churn {
                            cold_namespace += 1;
                            optimizer.set_cache_namespace(cold_namespace);
                        }
                        let started = Instant::now();
                        black_box(optimizer.optimize(query));
                        started.elapsed().as_secs_f64() * 1e6
                    })
                    .collect();
                median(&reps)
            })
            .collect()
    });
    m.insert("core.optimizer.optimize_p50_us", median(&optimize_us));

    // catalog: the estimates behind the returned plans' joins.
    let est = CardinalityEstimator::new(&inputs.catalog, &inputs.graph);
    let sides: Vec<(&[_], &[_])> = traced
        .plans
        .iter()
        .flat_map(|p| {
            p.joins
                .iter()
                .map(|j| (j.left.as_slice(), j.right.as_slice()))
        })
        .collect();
    m.insert(
        "catalog.join_io_ns",
        log.span(root, "probe.catalog.join_io", || {
            ns_per_call(&sides, |(l, r)| {
                black_box(est.join_io(l, r));
            })
        }),
    );

    // resource: replay the captured joins through cache, climb and scan.
    let all_ios: Vec<JoinIo> = pass.ios.iter().flatten().copied().collect();
    let replay = sample(&all_ios, REPLAY_SAMPLE);
    let model = &*inputs.model;
    let cluster = inputs.cluster;
    if let ResourceStrategy::HillClimbCached(mode) = workload.strategy {
        let keys = &pass.lookup_keys;
        m.insert(
            "resource.cache.lookup_ns",
            log.span(root, "probe.cache.lookup", || {
                ns_per_call(keys, |&(id, key)| {
                    black_box(bank.lookup(id, OP_JOIN, key, mode));
                })
            }),
        );
        m.insert(
            "resource.cache.insert_ns",
            log.span(root, "probe.cache.insert", || {
                let fresh = ShardedCacheBank::with_shards(8);
                ns_per_call(keys, |&(id, key)| {
                    fresh.insert(id, OP_JOIN, key, cluster.min)
                })
            }),
        );
        let mut iterations = 0u64;
        let mut climbs = 0u64;
        let climb_ns = log.span(root, "probe.climb", || {
            ns_per_call(&replay, |io| {
                let out = hill_climb(&cluster, cluster.min, |r| {
                    model
                        .join_cost_at(JoinImpl::SortMerge, io.build_gb, io.probe_gb, r)
                        .unwrap_or(f64::INFINITY)
                });
                iterations += out.iterations;
                climbs += 1;
                black_box(out);
            })
        });
        m.insert("resource.climb.us_per_call", climb_ns / 1e3);
        m.insert(
            "resource.climb.iterations_per_call",
            iterations as f64 / climbs.max(1) as f64,
        );
    }
    if workload.strategy == ResourceStrategy::BruteForce {
        let scan_ns = log.span(root, "probe.brute", || {
            ns_per_call(&replay, |io| {
                black_box(brute_force_batch(&cluster, |_, configs, out| {
                    model.join_cost_batch(JoinImpl::SortMerge, io.build_gb, configs, out)
                }));
            })
        });
        m.insert("resource.brute.us_per_call", scan_ns / 1e3);
    }
    if workload.churn {
        let (compact_ms, checkpoint_ms, bytes) = log.span(root, "probe.checkpoint", || {
            checkpoint_probe(workload, &inputs)
        });
        m.insert("resource.compact.ms_p50", percentile(&compact_ms, 50.0));
        m.insert(
            "resource.checkpoint.ms_p50",
            percentile(&checkpoint_ms, 50.0),
        );
        m.insert("resource.checkpoint.bytes", bytes as f64);
    }

    // cost: the batched kernel, its scalar twin and the single-point call.
    let grid: Vec<ResourceConfig> = cluster.grid().collect();
    let mut out = vec![0.0; grid.len()];
    let per_config = |ns_per_scan: f64| ns_per_scan / grid.len() as f64;
    m.insert(
        "cost.kernel.ns_per_config",
        per_config(log.span(root, "probe.kernel", || {
            ns_per_call(&replay, |io| {
                model.join_cost_batch(JoinImpl::BroadcastHash, io.build_gb, &grid, &mut out);
                black_box(&out);
            })
        })),
    );
    m.insert(
        "cost.kernel.scalar_ns_per_config",
        per_config(log.span(root, "probe.kernel.scalar", || {
            ns_per_call(&replay, |io| {
                model.join_cost_batch_scalar(JoinImpl::BroadcastHash, io.build_gb, &grid, &mut out);
                black_box(&out);
            })
        })),
    );
    let points = sample(&grid, REPLAY_SAMPLE);
    m.insert(
        "cost.join_cost_ns",
        log.span(root, "probe.join_cost", || {
            ns_per_call(&replay, |io| {
                for r in &points {
                    black_box(model.join_cost(
                        JoinImpl::BroadcastHash,
                        io.build_gb,
                        io.probe_gb,
                        r.containers(),
                        r.container_size_gb(),
                    ));
                }
            }) / points.len() as f64
        }),
    );
    m.insert(
        "cost.kernel.simd",
        f64::from(u8::from(raqo_cost::simd_active())),
    );

    // net: the workload's own frames through the public codec.
    if wire {
        let requests: Vec<RequestFrame> = inputs
            .queries
            .iter()
            .enumerate()
            .map(|(i, query)| RequestFrame {
                request_id: i as u64 + 1,
                priority: workload.priority,
                namespace: PROBE_NAMESPACE,
                deadline_ms: 0,
                query: query.clone(),
            })
            .collect();
        let replies: Vec<ReplyFrame> = traced
            .references
            .iter()
            .enumerate()
            .filter_map(|(i, payload)| match payload {
                Payload::Json(plan_json) => Some(ReplyFrame {
                    request_id: i as u64 + 1,
                    trace_id: 0,
                    flags: 0,
                    queue_wait_us: 10,
                    service_us: 20,
                    plan_json: plan_json.clone(),
                }),
                Payload::Native(_) => None,
            })
            .collect();
        let request_bytes: Vec<Vec<u8>> = requests.iter().map(RequestFrame::encode).collect();
        let reply_bytes: Vec<Vec<u8>> = replies.iter().map(ReplyFrame::encode).collect();
        let decode = |bytes: &Vec<u8>| {
            black_box(frame::decode(bytes, frame::DEFAULT_MAX_BODY));
        };
        m.insert(
            "net.frame.encode_request_ns",
            log.span(root, "probe.frame.encode_request", || {
                ns_per_call(&requests, |f| {
                    black_box(f.encode());
                })
            }),
        );
        m.insert(
            "net.frame.decode_request_ns",
            log.span(root, "probe.frame.decode_request", || {
                ns_per_call(&request_bytes, decode)
            }),
        );
        m.insert(
            "net.frame.encode_reply_ns",
            log.span(root, "probe.frame.encode_reply", || {
                ns_per_call(&replies, |f| {
                    black_box(f.encode());
                })
            }),
        );
        m.insert(
            "net.frame.decode_reply_ns",
            log.span(root, "probe.frame.decode_reply", || {
                ns_per_call(&reply_bytes, decode)
            }),
        );
    }

    // telemetry and the benchmark's own noise.
    let latency_p50 = untraced.medians[1];
    let traced_p50 = percentile(&traced.column(|s| s.latency_us), 50.0);
    m.insert(
        "telemetry.overhead_pct",
        if latency_p50 > 0.0 {
            (traced_p50 / latency_p50 - 1.0) * 100.0
        } else {
            0.0
        },
    );
    m.insert("bench.spread_pct.plans_per_sec", untraced.spreads[0]);
    m.insert("bench.spread_pct.plan_latency_p50_us", untraced.spreads[1]);
    m.insert("bench.spread_pct.plan_latency_p95_us", untraced.spreads[2]);
    m.insert(
        "bench.samples_per_round_min",
        untraced.samples_per_round_min as f64,
    );
    m.insert("client.latency_p99_us", untraced.latency_p99_us);
    // Do the layers, each measured on its own, add up to what the caller
    // saw? Surroundings and queueing come from the replies, planning from
    // the direct calls above; in means, because means add up.
    let layer_sum =
        outside.quiet_mean + untraced.queue_wait_us.quiet_mean + search_self_us + busy_us;
    let latency_mean = untraced.latency_quiet_mean_us;
    m.insert(
        "bench.layer_sum_gap_pct",
        if latency_mean > 0.0 {
            (latency_mean - layer_sum) / latency_mean * 100.0
        } else {
            0.0
        },
    );
    m.insert("bench.vm_hwm_mb", vm_hwm_mb());
    // A ratio over an empty round must not reach the JSON line as NaN.
    m.values_mut()
        .filter(|v| !v.is_finite())
        .for_each(|v| *v = 0.0);

    if let Some(id) = root {
        log.spans[id as usize].end_ns = log.now_ns();
    }
    log.write(workload.name, stamp)
        .map_err(|e| format!("writing the trace: {e}"))?;
    Ok((traced, m))
}

/// Time compaction and checkpointing as the churn workload's service runs
/// them: sixteen cold plans in never-seen namespaces, then compact to the
/// high-water mark and checkpoint the dirty shards, cycle after cycle.
fn checkpoint_probe(workload: &Workload, inputs: &Inputs) -> (Vec<f64>, Vec<f64>, u64) {
    let bank = ShardedCacheBank::with_shards(8);
    let mut coster = probe_coster(workload, inputs, &bank);
    let path = out_dir().join(format!("checkpoint-probe-{}.json", std::process::id()));
    let _ = std::fs::create_dir_all(out_dir());
    let (mut compact_ms, mut checkpoint_ms) = (Vec::new(), Vec::new());
    let mut namespace = PROBE_NAMESPACE;
    for _ in 0..CHECKPOINT_CYCLES {
        for i in 0..CHECKPOINT_EVERY as usize {
            namespace += 1;
            coster.set_cache_namespace(namespace);
            let query = &inputs.queries[i % inputs.queries.len()];
            black_box(plan_direct(&workload.planner, inputs, query, &mut coster));
        }
        let started = Instant::now();
        bank.compact(COMPACT_HIGH_WATER);
        compact_ms.push(started.elapsed().as_secs_f64() * 1e3);
        let started = Instant::now();
        let _ = bank.checkpoint_with_fingerprint(&path, inputs.model.fingerprint());
        checkpoint_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    let bytes = std::fs::metadata(&path).map_or(0, |meta| meta.len());
    let _ = std::fs::remove_file(&path);
    (compact_ms, checkpoint_ms, bytes)
}

/// Peak resident set of this process, from `/proc/self/status`.
fn vm_hwm_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
