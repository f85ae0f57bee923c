//! Runs the suite in `--quick` mode and checks its report against
//! `BENCHMARK.json`: every workload prints every end-to-end and per-layer
//! metric named there exactly once, under a well-formed name, with the unit
//! the file records — and prints no metric the file does not name.

use serde_json::Value;
use std::collections::BTreeMap;
use std::process::Command;

fn field<'v>(value: &'v Value, name: &str) -> &'v Value {
    match value {
        Value::Object(fields) => fields
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("BENCHMARK.json: missing `{name}`")),
        _ => panic!("BENCHMARK.json: expected an object around `{name}`"),
    }
}

fn text(value: &Value) -> &str {
    match value {
        Value::String(s) => s,
        other => panic!("BENCHMARK.json: expected a string, found {other:?}"),
    }
}

fn items(value: &Value) -> &[Value] {
    match value {
        Value::Array(items) => items,
        other => panic!("BENCHMARK.json: expected an array, found {other:?}"),
    }
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn quick_run_prints_every_named_metric_once_per_workload() {
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let spec = std::fs::read_to_string(manifest.join("../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let spec = serde_json::from_str(&spec).expect("BENCHMARK.json parses");
    let workloads: Vec<&str> = items(field(&spec, "workloads"))
        .iter()
        .map(|w| text(field(w, "name")))
        .collect();
    // name → unit, over both metric lists.
    let named: BTreeMap<&str, &str> = ["end_to_end", "per_layer"]
        .into_iter()
        .flat_map(|list| items(field(&spec, list)))
        .map(|m| (text(field(m, "name")), text(field(m, "unit"))))
        .collect();
    assert_eq!(workloads.len(), 5, "five workloads");
    for name in workloads.iter().chain(named.keys()) {
        assert!(well_formed(name), "`{name}` does not match [A-Za-z0-9_.-]+");
    }

    let out = Command::new(env!("CARGO_BIN_EXE_raqo-benchmark"))
        .arg("--quick")
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "--quick failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout
            .lines()
            .next()
            .is_some_and(|l| l.starts_with("stamp ")),
        "report opens with its stamp"
    );

    // (workload, metric) → times printed.
    let mut printed: BTreeMap<(String, String), usize> = BTreeMap::new();
    for line in stdout.lines().filter(|l| l.starts_with("metric ")) {
        let parts: Vec<&str> = line.split_whitespace().collect();
        let [_, workload, name, value, unit] = parts[..] else {
            panic!("malformed metric line: {line}");
        };
        assert!(
            value.parse::<f64>().is_ok_and(f64::is_finite),
            "not a number: {line}"
        );
        assert_eq!(
            named.get(name),
            Some(&unit),
            "unit or name not in BENCHMARK.json: {line}"
        );
        assert!(
            workloads.contains(&workload),
            "workload not in BENCHMARK.json: {line}"
        );
        *printed
            .entry((workload.to_string(), name.to_string()))
            .or_default() += 1;
    }
    for workload in &workloads {
        for name in named.keys() {
            let times = printed
                .get(&(workload.to_string(), name.to_string()))
                .copied()
                .unwrap_or(0);
            assert_eq!(times, 1, "{workload} printed {name} {times} times");
        }
    }
}
