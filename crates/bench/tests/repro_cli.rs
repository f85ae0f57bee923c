//! The `repro` command line: malformed arguments exit 2 with a usage line
//! before any work starts, and an output path that cannot be written
//! exits 1 naming the path — never a panic (exit 101), never a silently
//! ignored flag, never a file named after the next flag.

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
    assert_rejected("bench", &["--bench-json", "--enforce-flors"], "unknown argument");
}

#[test]
fn a_value_flag_needs_a_value_that_is_not_a_flag() {
    assert_rejected("json_flag", &["--fig", "1", "--json", "--quick"], "--json needs an output path");
    assert_rejected("json_missing", &["--fig", "1", "--json"], "--json needs an output path");
    assert_rejected("fig_missing", &["--fig"], "--fig needs an experiment id");
    assert_rejected("serve_missing", &["--serve"], "--serve needs a bind address");
    assert_rejected("otlp_flag", &["--otlp", "--flight-dir", "d"], "--otlp needs an output file");
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

#[test]
fn a_well_formed_quick_figure_writes_its_tables() {
    let dir = workdir("written");
    let out = repro(&dir, &["--fig", "1", "--json", "tables.json", "--quick"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = std::fs::read_to_string(dir.join("tables.json")).unwrap();
    assert!(text.starts_with('['), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}
