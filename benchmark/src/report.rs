//! Metric names, units and bounds; the stamp; and the printed report.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units and
//! bounds; `tests/names.rs` keeps the two in step.

use crate::round::{RoundResult, Sample};
use crate::stats::{self, geomean, median, percentile, spread_pct};
use std::process::Command;

/// Which of a run's round values is reported for a metric.
///
/// The timing metrics report their *quietest* round. The machine's other
/// tenants only ever slow a round down, in bursts seconds long; on ten runs
/// of `svc_bushy10_warm` the quietest of seven rounds spread 4.4 / 3.5 / 2.0 %
/// (throughput / p50 / p95) where the median over rounds spread
/// 5.4 / 7.4 / 8.1 %, and 12 / 13 / 27 % in a worse hour. The median and the
/// inter-quartile band over rounds are printed beside every value.
#[derive(Clone, Copy)]
pub enum Pick {
    Highest,
    Lowest,
    Median,
}

impl Pick {
    fn of(self, rounds: &[f64]) -> f64 {
        match self {
            Pick::Highest => rounds.iter().copied().fold(0.0, f64::max),
            Pick::Lowest => rounds.iter().copied().fold(f64::INFINITY, f64::min),
            Pick::Median => median(rounds),
        }
    }
}

/// An end-to-end metric: name, unit, the share of the baseline median it may
/// worsen by before it counts as a regression, and the round reported.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub bound: f64,
    pub pick: Pick,
}

const fn metric(name: &'static str, unit: &'static str, bound: f64, pick: Pick) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        bound,
        pick,
    }
}

pub const END_TO_END: [EndToEnd; 6] = [
    metric("plans_per_sec", "1/s", 0.20, Pick::Highest),
    metric("plan_latency_p50_us", "us", 0.20, Pick::Lowest),
    metric("plan_latency_p95_us", "us", 0.25, Pick::Lowest),
    metric("plan_cost_geomean_s", "s", 0.005, Pick::Median),
    metric("exec_time_geomean_s", "s", 0.005, Pick::Median),
    metric("setup_s", "s", 0.25, Pick::Median),
];

/// Per-layer metrics in report order: (name, unit).
pub const PER_LAYER: [(&str, &str); 59] = [
    ("net.overhead_p50_us", "us"),
    ("net.overhead_p95_us", "us"),
    ("net.frame.encode_request_ns", "ns"),
    ("net.frame.decode_request_ns", "ns"),
    ("net.frame.encode_reply_ns", "ns"),
    ("net.frame.decode_reply_ns", "ns"),
    ("net.reply_bytes_p50", "bytes"),
    ("net.frames_in", "count"),
    ("net.frames_out", "count"),
    ("net.shed", "count"),
    ("net.dedup_hits", "count"),
    ("net.client_retries", "count"),
    ("core.service.queue_wait_p50_us", "us"),
    ("core.service.queue_wait_p95_us", "us"),
    ("core.service.service_p50_us", "us"),
    ("core.service.service_p95_us", "us"),
    ("core.service.handoff_p50_us", "us"),
    ("core.optimizer.optimize_p50_us", "us"),
    ("core.get_plan_cost.calls", "count"),
    ("core.get_plan_cost.busy_us", "us"),
    ("core.get_plan_cost.ns_per_call", "ns"),
    ("core.degraded", "count"),
    ("core.shed", "count"),
    ("core.deadline_expired", "count"),
    ("planner.search_self_us", "us"),
    ("planner.batch_calls", "count"),
    ("planner.batch_width_mean", "count"),
    ("planner.memo_hits", "count"),
    ("planner.bushy_over_leftdeep_time_ratio", "ratio"),
    ("planner.bushy_over_leftdeep_cost_ratio", "ratio"),
    ("catalog.join_io_ns", "ns"),
    ("resource.iterations", "count"),
    ("resource.cache.lookups", "count"),
    ("resource.cache.hit_rate", "ratio"),
    ("resource.cache.lookup_ns", "ns"),
    ("resource.cache.insert_ns", "ns"),
    ("resource.cache.entries_end", "count"),
    ("resource.cache.evictions", "count"),
    ("resource.climb.calls", "count"),
    ("resource.climb.us_per_call", "us"),
    ("resource.climb.iterations_per_call", "count"),
    ("resource.brute.us_per_call", "us"),
    ("resource.checkpoint.count", "count"),
    ("resource.checkpoint.ms_p50", "ms"),
    ("resource.checkpoint.bytes", "bytes"),
    ("resource.compact.ms_p50", "ms"),
    ("cost.kernel.ns_per_config", "ns"),
    ("cost.kernel.scalar_ns_per_config", "ns"),
    ("cost.join_cost_ns", "ns"),
    ("cost.kernel.simd", "count"),
    ("telemetry.overhead_pct", "%"),
    ("telemetry.spans", "count"),
    ("bench.spread_pct.plans_per_sec", "%"),
    ("bench.spread_pct.plan_latency_p50_us", "%"),
    ("bench.spread_pct.plan_latency_p95_us", "%"),
    ("bench.samples_per_round_min", "count"),
    ("bench.layer_sum_gap_pct", "%"),
    ("client.latency_p99_us", "us"),
    ("bench.vm_hwm_mb", "MB"),
];

/// Where and how a set of numbers was produced; printed with every report
/// and written into every trace file.
pub struct Stamp {
    pub seed: u64,
    pub rounds: usize,
    pub round_seconds: f64,
    pub cores: usize,
    pub git: String,
    pub rustc: String,
    pub simd: bool,
}

impl Stamp {
    pub fn collect(seed: u64, rounds: usize, round_seconds: f64) -> Stamp {
        let manifest_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        // Only ask git when this checkout is a repository: in an exported
        // tree it would walk up into directories that are not ours to read.
        let git = if manifest_dir.join("../.git").exists() {
            run(
                "git",
                &[
                    "-C",
                    env!("CARGO_MANIFEST_DIR"),
                    "rev-parse",
                    "--short",
                    "HEAD",
                ],
            )
        } else {
            None
        };
        Stamp {
            seed,
            rounds,
            round_seconds,
            cores: std::thread::available_parallelism().map_or(0, usize::from),
            git: git.unwrap_or_else(|| "unknown".into()),
            rustc: run("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            simd: raqo_cost::simd_active(),
        }
    }

    pub fn line(&self) -> String {
        format!(
            "stamp seed={} rounds={} round_seconds={} available_parallelism={} git={} rustc=\"{}\" features=simd:{}",
            self.seed,
            self.rounds,
            self.round_seconds,
            self.cores,
            self.git,
            self.rustc,
            if self.simd { "on" } else { "off" },
        )
    }
}

fn run(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The six end-to-end values of one round, in [`END_TO_END`] order.
pub fn round_values(round: &RoundResult) -> [f64; 6] {
    let latency = round.column(|s| s.latency_us);
    // Single-relation queries plan to an empty, zero-cost tree.
    let joined = || round.queries.iter().filter(|q| q.joins > 0);
    [
        round.valid() as f64 / round.window_s,
        percentile(&latency, 50.0),
        percentile(&latency, 95.0),
        geomean(&joined().map(|q| q.cost_s).collect::<Vec<_>>()),
        geomean(&joined().map(|q| q.exec_s).collect::<Vec<_>>()),
        round.setup_s,
    ]
}

/// One per-request quantity. The percentiles are medians over rounds of the
/// round's own percentile: what a caller sees. The mean is that of the
/// quietest round (lowest mean latency) alone, because means add up — mean
/// latency = mean queue wait + mean service + mean of the rest — which
/// percentiles of a sixteen-query mix do not, and because the direct-call
/// probes it is compared with drop the machine's bursts as well.
pub struct Split {
    pub p50: f64,
    pub p95: f64,
    pub quiet_mean: f64,
}

/// One workload's end-to-end summary over its rounds.
pub struct Summary {
    /// Every round's values, in [`END_TO_END`] order.
    pub rounds: Vec<[f64; 6]>,
    /// The value reported for each metric: the round its [`Pick`] names.
    pub reported: [f64; 6],
    /// Median over rounds of each metric, in [`END_TO_END`] order.
    pub medians: [f64; 6],
    /// Inter-quartile spread over rounds, as a percentage of the median.
    pub spreads: [f64; 6],
    pub attempted: u64,
    pub failed: u64,
    pub divergent_valid: u64,
    pub samples_per_round_min: usize,
    pub latency_p99_us: f64,
    /// Mean latency of the quietest round.
    pub latency_quiet_mean_us: f64,
    /// What the replies say about where their time went: queue wait,
    /// service time, and the rest of the caller-observed latency.
    pub queue_wait_us: Split,
    pub service_us: Split,
    pub outside_us: Split,
    pub reply_bytes_p50: f64,
    pub failures: Vec<String>,
}

impl Summary {
    /// Requests were sent and none of them failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

pub fn summarize(rounds: &[RoundResult]) -> Summary {
    let values: Vec<[f64; 6]> = rounds.iter().map(round_values).collect();
    let per_metric = |m: usize| values.iter().map(|v| v[m]).collect::<Vec<f64>>();
    // Median over rounds of one figure of one per-request quantity.
    let over_rounds = |f: fn(&Sample) -> f64, figure: &dyn Fn(&[f64]) -> f64| {
        median(
            &rounds
                .iter()
                .map(|r| figure(&r.column(f)))
                .collect::<Vec<_>>(),
        )
    };
    let p = |f: fn(&Sample) -> f64, p: f64| over_rounds(f, &|v| percentile(v, p));
    let mean_latency = |r: &RoundResult| stats::mean(&r.column(|s| s.latency_us));
    let quietest = rounds
        .iter()
        .min_by(|a, b| mean_latency(a).total_cmp(&mean_latency(b)));
    let quiet_mean =
        |f: fn(&Sample) -> f64| quietest.map_or(0.0, |round| stats::mean(&round.column(f)));
    let split = |f: fn(&Sample) -> f64| Split {
        p50: p(f, 50.0),
        p95: p(f, 95.0),
        quiet_mean: quiet_mean(f),
    };
    Summary {
        rounds: values.clone(),
        reported: std::array::from_fn(|m| END_TO_END[m].pick.of(&per_metric(m))),
        medians: std::array::from_fn(|m| median(&per_metric(m))),
        spreads: std::array::from_fn(|m| spread_pct(&per_metric(m))),
        attempted: rounds.iter().map(|r| r.attempted).sum(),
        failed: rounds.iter().map(|r| r.failed).sum(),
        divergent_valid: rounds.iter().map(|r| r.divergent_valid).sum(),
        samples_per_round_min: rounds.iter().map(|r| r.samples.len()).min().unwrap_or(0),
        latency_p99_us: p(|s| s.latency_us, 99.0),
        latency_quiet_mean_us: quiet_mean(|s| s.latency_us),
        queue_wait_us: split(|s| s.queue_wait_us),
        service_us: split(|s| s.service_us),
        outside_us: split(|s| s.latency_us - s.queue_wait_us - s.service_us),
        reply_bytes_p50: p(|s| s.reply_bytes, 50.0),
        failures: rounds
            .iter()
            .flat_map(|r| r.failures.iter().cloned())
            .take(8)
            .collect(),
    }
}

/// `metric <workload> <name> <value> <unit>`, one line per metric.
pub fn print_metric(workload: &str, name: &str, value: f64, unit: &str) {
    println!("metric {workload} {name} {value} {unit}");
}

/// The contract's result line: one JSON object, last on standard output.
pub fn result_line(summary: &Summary, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        summary.correct(),
        summary.attempted,
        summary.failed,
        body.join(", ")
    )
}
