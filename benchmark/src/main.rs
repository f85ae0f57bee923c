//! Layer-attributed plan-serving benchmark for the RAQO workspace.
//!
//! Two ways in. Without `--workload` the whole suite runs: every workload,
//! rounds interleaved round-robin, then a traced pass per workload, every
//! metric printed by name with its unit (`--quick` shrinks it to one half
//! second round, `--check-repeat` runs it twice and compares). With
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` one workload
//! runs for about `s` seconds and the last line of standard output is one
//! JSON object: the end-to-end metrics (`--trace 0`) or the per-layer ones
//! (`--trace 1`). See README.md.

mod layers;
mod report;
mod round;
mod stats;
mod validate;
mod workload;

use raqo_core::{ResourceStrategy, Telemetry};
use report::{Stamp, Summary, END_TO_END, PER_LAYER};
use round::{Harness, RoundResult};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;
use workload::{Path, Workload};

/// Suite mode: rounds per workload and seconds per round.
const SUITE_ROUNDS: usize = 7;
const SUITE_ROUND_SECONDS: f64 = 3.0;
/// Single-workload mode splits `--seconds` into this many untraced rounds.
/// With `--trace 1` rounds stay that long, but only three run untraced (the
/// reference for telemetry overhead and the noise band), one runs traced,
/// and the direct-call probes take the rest of the time.
const RUN_ROUNDS: usize = 7;
const TRACE_REFERENCE_ROUNDS: usize = 3;
/// How far the layers' sum may fall short of the mean latency before the
/// `layers_sum_to_latency` check fails, when the noise band is narrower.
/// The planner and coster are timed by direct calls, back to back on a warm
/// thread; in the service every plan runs on a worker woken for it. On the
/// first run the in-process workloads planned 4.9–5.0 % slower in place.
const IN_PLACE_ALLOWANCE_PCT: f64 = 6.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    check_repeat: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 7,
        seconds: None,
        trace: false,
        quick: false,
        check_repeat: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => args.quick = true,
            "--check-repeat" => args.check_repeat = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Everything measured for one workload in one set of runs.
struct WorkloadRun {
    summary: Summary,
    layers: Option<BTreeMap<&'static str, f64>>,
}

/// Run `rounds` untraced rounds of every workload, interleaved round-robin
/// so that slow drift of the machine lands on all workloads alike, then the
/// traced pass if asked for.
fn run_set(
    workloads: &[Workload],
    stamp: &Stamp,
    traced_window: Option<Duration>,
) -> Result<Vec<WorkloadRun>, String> {
    let window = Duration::from_secs_f64(stamp.round_seconds);
    let mut rounds: Vec<Vec<RoundResult>> = workloads.iter().map(|_| Vec::new()).collect();
    for _ in 0..stamp.rounds {
        for (w, workload) in workloads.iter().enumerate() {
            let harness = Harness::setup(workload, stamp.seed, Telemetry::disabled())
                .map_err(|e| format!("{}: {e}", workload.name))?;
            rounds[w].push(harness.run(window));
        }
    }
    let mut runs = Vec::new();
    for (workload, rounds) in workloads.iter().zip(rounds) {
        let mut summary = report::summarize(&rounds);
        // Determinism guard: the plans, and the work it took to find them,
        // are the same in every round.
        for round in &rounds[1..] {
            let differs = rounds[0]
                .queries
                .iter()
                .zip(&round.queries)
                .find(|(a, b)| a != b);
            if let Some((a, b)) = differs {
                summary.failed += 1;
                summary
                    .failures
                    .push(format!("rounds disagree on {}: {a:?} vs {b:?}", a.name));
                break;
            }
        }
        let mut layers = None;
        if let Some(window) = traced_window {
            let (traced, metrics) =
                layers::traced_pass(workload, stamp.seed, window, &summary, stamp)
                    .map_err(|e| format!("{}: {e}", workload.name))?;
            summary.attempted += traced.attempted;
            summary.failed += traced.failed;
            summary.failures.extend(traced.failures);
            if traced.queries != rounds[0].queries {
                summary.failed += 1;
                summary
                    .failures
                    .push("the traced round planned differently".into());
            }
            layers = Some(metrics);
        }
        runs.push(WorkloadRun { summary, layers });
    }
    Ok(runs)
}

fn print_runs(workloads: &[Workload], runs: &[WorkloadRun]) {
    for (workload, run) in workloads.iter().zip(runs) {
        let s = &run.summary;
        println!("workload {} — {}", workload.name, workload.why);
        for (i, values) in s.rounds.iter().enumerate() {
            let values: Vec<String> = values.iter().map(f64::to_string).collect();
            println!("round {} {i} {}", workload.name, values.join(" "));
        }
        for (m, metric) in END_TO_END.iter().enumerate() {
            let (median, spread) = (s.medians[m], s.spreads[m]);
            report::print_metric(workload.name, metric.name, s.reported[m], metric.unit);
            println!(
                "noise {} {} median {median} spread {spread:.2} %",
                workload.name, metric.name
            );
            if spread > metric.bound * 100.0 {
                println!(
                    "warning {} {}: spread {spread:.1} % over rounds exceeds the {} % bound",
                    workload.name,
                    metric.name,
                    metric.bound * 100.0
                );
            }
        }
        if let Some(layers) = &run.layers {
            for (name, unit) in PER_LAYER {
                let value = layers.get(name).copied().unwrap_or(0.0);
                report::print_metric(workload.name, name, value, unit);
            }
            for (name, holds, detail) in separation_checks(workload, s, layers) {
                let verdict = if holds { "ok" } else { "FAILED" };
                println!("check {} {name} {verdict} ({detail})", workload.name);
            }
        }
        println!(
            "result {} attempted={} failed={} divergent_but_valid={} samples_per_round_min={}",
            workload.name, s.attempted, s.failed, s.divergent_valid, s.samples_per_round_min
        );
        for failure in &s.failures {
            println!("failure {} {failure}", workload.name);
        }
    }
}

/// The README's predictions about which layer does the work on which
/// workload, checked against the numbers just measured. A failed prediction
/// is printed, not fatal: it means the workload table needs correcting.
fn separation_checks(
    workload: &Workload,
    summary: &Summary,
    layers: &BTreeMap<&'static str, f64>,
) -> Vec<(&'static str, bool, String)> {
    let get = |name: &str| layers.get(name).copied().unwrap_or(0.0);
    let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    let mut checks = Vec::new();
    let planning = get("planner.search_self_us") + get("core.get_plan_cost.busy_us");
    // Which layer a workload is built to load follows from how it is set up.
    match (workload.path, workload.strategy) {
        (Path::Wire, _) if !workload.churn => {
            let net = share(get("net.overhead_p50_us"), summary.medians[1]);
            checks.push((
                "net_does_the_work",
                net >= 0.9,
                format!("{:.0} % of p50", net * 100.0),
            ));
        }
        (Path::Service, ResourceStrategy::HillClimbCached(_)) => {
            let s = share(planning, summary.service_us.quiet_mean);
            checks.push((
                "planner_and_get_plan_cost_do_the_work",
                s >= 0.8,
                format!("{:.0} % of mean service time", s * 100.0),
            ));
        }
        (Path::Service, ResourceStrategy::BruteForce) => {
            let s = share(
                get("core.get_plan_cost.busy_us"),
                summary.service_us.quiet_mean,
            );
            let kernel = share(
                get("cost.kernel.ns_per_config") * get("resource.iterations"),
                get("core.get_plan_cost.ns_per_call") * get("core.get_plan_cost.calls"),
            );
            checks.push((
                "get_plan_cost_does_the_work",
                s >= 0.8,
                format!(
                    "{:.0} % of mean service time; the kernel proper is {:.0} % of that",
                    s * 100.0,
                    kernel * 100.0
                ),
            ));
        }
        _ => {}
    }
    let (climbs, checkpoints) = (
        get("resource.climb.calls"),
        get("resource.checkpoint.count"),
    );
    checks.push((
        if workload.churn {
            "cache_churns"
        } else {
            "cache_stays_warm"
        },
        if workload.churn {
            climbs > 0.0 && checkpoints > 0.0
        } else {
            climbs + checkpoints == 0.0
        },
        format!("{climbs} climbs, {checkpoints} checkpoints in the traced round"),
    ));
    let (gap, band) = (get("bench.layer_sum_gap_pct"), summary.spreads[1]);
    checks.push((
        "layers_sum_to_latency",
        gap.abs() <= band.max(IN_PLACE_ALLOWANCE_PCT),
        format!(
            "gap {gap:.1} % of mean latency; p50 noise band {band:.1} %, allowance {IN_PLACE_ALLOWANCE_PCT} %"
        ),
    ));
    checks
}

/// Compare two sets of runs of the same code: any end-to-end value that
/// moved by more than its bound is reported.
fn compare_sets(workloads: &[Workload], a: &[WorkloadRun], b: &[WorkloadRun]) -> Vec<String> {
    let mut moved = Vec::new();
    for ((workload, a), b) in workloads.iter().zip(a).zip(b) {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let (first, second) = (a.summary.reported[m], b.summary.reported[m]);
            let change = (second - first).abs() / first.abs().max(f64::MIN_POSITIVE);
            if change > metric.bound {
                moved.push(format!(
                    "{} {}: {first} then {second}, {:.1} % apart, bound {} %",
                    workload.name,
                    metric.name,
                    change * 100.0,
                    metric.bound * 100.0
                ));
            }
        }
    }
    moved
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let all = workload::all();
    let Some(name) = &args.workload else {
        // Suite mode.
        let (rounds, seconds) = if args.quick {
            (1, 0.5)
        } else {
            (SUITE_ROUNDS, SUITE_ROUND_SECONDS)
        };
        let stamp = Stamp::collect(args.seed, rounds, seconds);
        println!("{}", stamp.line());
        let traced = Some(Duration::from_secs_f64(stamp.round_seconds));
        let first = run_set(&all, &stamp, traced)?;
        print_runs(&all, &first);
        let mut ok = first.iter().all(|r| r.summary.correct());
        if args.check_repeat {
            println!("{}", stamp.line());
            let second = run_set(&all, &stamp, traced)?;
            print_runs(&all, &second);
            ok &= second.iter().all(|r| r.summary.correct());
            for line in compare_sets(&all, &first, &second) {
                println!("repeat-mismatch {line}");
                ok = false;
            }
        }
        return Ok(ok);
    };

    // Single-workload mode: the driver's contract.
    let workload: Vec<Workload> = all
        .into_iter()
        .filter(|w| w.name == name.as_str())
        .collect();
    if workload.is_empty() {
        return Err(format!("no workload named {name}"));
    }
    let seconds = args.seconds.ok_or("--workload needs --seconds")?;
    let (rounds, round_seconds) = if args.trace {
        (TRACE_REFERENCE_ROUNDS, seconds / RUN_ROUNDS as f64)
    } else {
        (RUN_ROUNDS, seconds / RUN_ROUNDS as f64)
    };
    let stamp = Stamp::collect(args.seed, rounds, round_seconds);
    println!("{}", stamp.line());
    let traced = args.trace.then(|| Duration::from_secs_f64(round_seconds));
    let runs = run_set(&workload, &stamp, traced)?;
    print_runs(&workload, &runs);
    let run = &runs[0];
    let metrics: Vec<(&str, f64, &str)> = match &run.layers {
        Some(layers) => PER_LAYER
            .iter()
            .map(|(name, unit)| (*name, layers.get(name).copied().unwrap_or(0.0), *unit))
            .collect(),
        None => END_TO_END
            .iter()
            .zip(run.summary.reported)
            .map(|(metric, value)| (metric.name, value, metric.unit))
            .collect(),
    };
    println!("{}", report::result_line(&run.summary, &metrics));
    Ok(run.summary.correct())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
