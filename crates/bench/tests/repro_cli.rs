//! The `repro` command line: malformed arguments exit 2 with a usage line
//! before any work starts, and a path or address that cannot be used
//! exits 1 naming it — never a panic (exit 101), never a silently ignored
//! flag, never a file named after the next flag.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh, empty working directory for one case.
fn workdir(case: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("raqo_repro_cli_{case}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn repro(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("repro runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Exits 2 with `message` and the usage line on stderr, and leaves the
/// working directory empty.
fn assert_rejected(case: &str, args: &[&str], message: &str) {
    let dir = workdir(case);
    let out = repro(&dir, args);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
    assert!(err.contains(message), "{args:?}: {err}");
    assert!(err.contains("usage: repro"), "{args:?}: {err}");
    assert!(out.stdout.is_empty(), "{args:?} ran before rejecting its arguments");
    let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(left.is_empty(), "{args:?} wrote {left:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_flags_are_rejected() {
    assert_rejected("typo", &["--fig", "1", "--quik"], "unknown argument \"--quik\"");
    assert_rejected("stray", &["--fig", "1", "extra"], "unknown argument \"extra\"");
    // The retired planner-speedup report and its floors are unknown too.
    for (case, flag) in [("bench", "--bench-json"), ("floors", "--enforce-floors")] {
        let unknown = format!("unknown argument \"{flag}\"");
        assert_rejected(case, &[flag], &unknown);
        assert_rejected(&format!("{case}_quick"), &[flag, "--quick"], &unknown);
    }
    assert_rejected("bench_path", &["--smoke", "--bench-json", "b.json"], "unknown argument");
    // So are the retired trace exports and the retired fault-injection gate.
    assert_rejected("otlp", &["--otlp", "x"], "unknown argument \"--otlp\"");
    assert_rejected("flight_dir", &["--flight-dir", "d"], "unknown argument \"--flight-dir\"");
    assert_rejected("chaos", &["--chaos"], "unknown argument \"--chaos\"");
}

#[test]
fn a_value_flag_needs_a_value_that_is_not_a_flag() {
    assert_rejected("json_flag", &["--fig", "1", "--json", "--quick"], "--json needs an output path");
    assert_rejected("json_missing", &["--fig", "1", "--json"], "--json needs an output path");
    assert_rejected("fig_missing", &["--fig"], "--fig needs an experiment id");
    assert_rejected("serve_missing", &["--serve"], "--serve needs a bind address");
    assert_rejected("metrics_flag", &["--metrics", "--quick"], "--metrics needs an output file");
}

#[test]
fn an_unwritable_output_path_exits_1_naming_it() {
    let dir = workdir("unwritable");
    let path = dir.join("no-such-dir").join("tables.json");
    let path = path.to_str().unwrap();
    let out = repro(&dir, &["--fig", "1", "--quick", "--json", path]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains(path), "{err}");
    assert!(err.contains("os error"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Exits 1 with `args`' failure on stderr, naming `what` and the OS error
/// (or the address parser's complaint), and writes nothing.
fn assert_fails_naming(case: &str, args: &[&str], what: &str, error: &str) {
    let dir = workdir(case);
    let out = repro(&dir, args);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
    assert!(err.contains(what), "{args:?}: {err}");
    assert!(err.contains(error), "{args:?}: {err}");
    let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(left.is_empty(), "{args:?} wrote {left:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_cache_file_that_is_a_directory_exits_1_naming_it() {
    let dir = workdir("cache_dir_target");
    let path = dir.to_str().unwrap();
    assert_fails_naming("cache_dir", &["--cache-file", path], path, "os error");
    assert!(dir.is_dir(), "the directory was moved or removed");
    std::fs::remove_dir_all(&dir).ok();
}

/// An address with no port fails in the address parser, before any DNS
/// lookup or socket.
#[test]
fn an_address_without_a_port_exits_1_naming_it() {
    assert_fails_naming("serve_no_port", &["--serve", "no-port"], "no-port", "invalid socket address");
    assert_fails_naming("client_no_port", &["--client", "no-port"], "no-port", "invalid socket address");
}

#[test]
fn a_well_formed_quick_figure_writes_its_tables() {
    let dir = workdir("written");
    let out = repro(&dir, &["--fig", "1", "--json", "tables.json", "--quick"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = std::fs::read_to_string(dir.join("tables.json")).unwrap();
    assert!(text.starts_with('['), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_writes_prometheus_text_to_the_named_file() {
    let dir = workdir("metrics");
    let out = repro(&dir, &["--metrics", "m.prom"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = std::fs::read_to_string(dir.join("m.prom")).unwrap();
    assert!(text.contains("# TYPE raqo_plan_cost_calls_total counter\n"), "{text}");
    assert!(text.contains("raqo_plan_cost_latency_us_bucket"), "{text}");
    let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert_eq!(written.len(), 1, "{written:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The service walkthrough answers its whole 32-request burst: the
/// 8-slot queue admits part of it, which the workers complete, and sheds
/// the rest; every ticket prints one reply line.
#[test]
fn the_service_demo_answers_its_whole_burst() {
    let dir = workdir("service_demo");
    let out = repro(&dir, &["--service-demo"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout);
    let replies = text.lines().filter(|l| l.contains(" tenant ")).count();
    assert_eq!(replies, 32, "{text}");
    // "admitted A / shed S / completed C; queue depth now ..."
    let summary = text.lines().find(|l| l.starts_with("admitted ")).expect("a summary line");
    let words: Vec<&str> = summary.split_whitespace().collect();
    let number = |i: usize| -> u64 { words[i].trim_end_matches(';').parse().unwrap() };
    let (admitted, shed, completed) = (number(1), number(4), number(7));
    assert_eq!(completed, admitted, "{summary}");
    assert_eq!(admitted + shed, 32, "{text}");
    assert!(admitted > 0 && shed > 0, "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `--smoke` runs every registered figure at its tiny sizes and prints one
/// `fig <id>  ok` line for each.
#[test]
fn smoke_runs_every_figure() {
    let dir = workdir("smoke");
    let out = repro(&dir, &["--smoke"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout);
    let ok: Vec<&str> = text.lines().filter(|l| l.starts_with("fig ")).collect();
    let experiments = raqo_bench::experiments::registry();
    assert_eq!(ok.len(), experiments.len(), "{text}");
    for (line, e) in ok.iter().zip(&experiments) {
        let words: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(words[..3], ["fig", e.id, "ok"], "{text}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
