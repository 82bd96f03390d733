//! Smoke run of every workload at tiny sizes, untraced and traced: each
//! run exits 0, every check passes, and every metric `BENCHMARK.json`
//! declares is printed by name with its unit — on the human-readable
//! lines and in the final JSON line.

use sirum::json::{parse_json, JsonValue};
use std::process::Command;

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse_json(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(spec: &JsonValue, list: &str) -> Vec<(String, String)> {
    spec.get(list)
        .and_then(JsonValue::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "2",
            "--tiny",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} exited {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn check(workload: &str, trace: bool, metrics: &[(String, String)]) {
    let stdout = run(workload, trace);
    let last = stdout.lines().last().expect("a result line");
    let result = parse_json(last).expect("the last line is JSON");
    assert_eq!(
        result.get("correct").and_then(JsonValue::as_bool),
        Some(true),
        "{stdout}"
    );
    assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0));
    assert!(
        result
            .get("attempted")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0)
            >= 1
    );
    let printed = result
        .get("metrics")
        .and_then(JsonValue::entries)
        .expect("metrics");
    assert_eq!(printed.len(), metrics.len(), "{workload}: metric count");
    for (name, unit) in metrics {
        let m = result
            .get("metrics")
            .and_then(|all| all.get(name))
            .unwrap_or_else(|| panic!("{workload}: {name} missing from the result"));
        assert_eq!(
            m.get("unit").and_then(JsonValue::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        assert!(
            m.get("value")
                .and_then(JsonValue::as_f64)
                .is_some_and(f64::is_finite),
            "{name}"
        );
        let line = stdout
            .lines()
            .find(|l| l.split_whitespace().next() == Some(name.as_str()))
            .unwrap_or_else(|| panic!("{workload}: no line for {name}"));
        assert!(
            line.split_whitespace().any(|w| w == unit),
            "{name}: unit missing in {line:?}"
        );
        assert!(
            line.contains("n="),
            "{name}: sample count missing in {line:?}"
        );
    }
    for key in [
        "nproc",
        "effective_workers",
        "client_threads",
        "server_threads",
        "seed",
        "git_rev",
    ] {
        assert!(
            stdout.contains(&format!("# {key}: ")),
            "{workload}: header lacks {key}"
        );
    }
    if trace {
        assert!(
            stdout.contains("\n  unattributed "),
            "{workload}: ledger lacks unattributed"
        );
        assert!(stdout.contains("# cost: "), "{workload}: no COST yardstick");
    }
}

/// Every workload the program runs; `BENCHMARK.json` lists those the
/// steadiness bounds hold for.
const WORKLOADS: [&str; 3] = ["mine-cold", "ingest-large", "serve-hot"];

#[test]
fn every_workload_prints_every_metric_and_passes_its_checks() {
    let spec = benchmark_json();
    let end_to_end = declared(&spec, "end_to_end");
    let per_layer = declared(&spec, "per_layer");
    let listed = spec
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads");
    for w in listed {
        let name = w
            .get("name")
            .and_then(JsonValue::as_str)
            .expect("workload name");
        assert!(
            WORKLOADS.contains(&name),
            "BENCHMARK.json lists unknown workload {name}"
        );
    }
    for name in WORKLOADS {
        check(name, false, &end_to_end);
        check(name, true, &per_layer);
    }
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run the benchmark");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
