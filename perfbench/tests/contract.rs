//! The benchmark's own checks, on short runs:
//!
//! * every metric name a run prints is declared in `BENCHMARK.json` with the
//!   same unit, and every declared name is printed, for every workload with
//!   tracing off (end-to-end metrics) and on (per-layer metrics);
//! * an injected wrong expected verdict is caught: the op counts as failed,
//!   `ok_frac` drops below 1 and the command exits nonzero.

use ric::telemetry::json::{parse, Json};
use std::path::PathBuf;
use std::process::Command;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

fn benchmark_json() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    parse(&text).unwrap()
}

/// `(name, unit)` of every metric declared under `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = benchmark_json()
        .get(section)
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect();
    out.sort();
    out
}

fn workloads() -> Vec<String> {
    benchmark_json()
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

/// Run the benchmark for one second; returns the exit status and the last
/// line of standard output, parsed.
fn run(workload: &str, trace: bool, extra: &[&str]) -> (bool, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_ric-perfbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(extra)
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = stdout.lines().last().unwrap_or_default();
    let result = parse(last).unwrap_or_else(|e| panic!("{workload}: last line {last:?}: {e:?}"));
    (out.status.success(), result)
}

/// `(name, unit)` of every metric a result prints.
fn printed(result: &Json) -> Vec<(String, String)> {
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("no metrics object in {result}");
    };
    let mut out: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                matches!(m.get("value"), Some(Json::Num(_) | Json::Int(_))),
                "{name} has no numeric value"
            );
            let unit = m.get("unit").and_then(Json::as_str).unwrap().to_string();
            (name.clone(), unit)
        })
        .collect();
    out.sort();
    out
}

fn count(result: &Json, key: &str) -> i128 {
    result.get(key).and_then(Json::as_int).unwrap()
}

#[test]
fn printed_metrics_are_exactly_the_declared_ones() {
    for workload in workloads() {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let (ok, result) = run(&workload, trace, &[]);
            assert!(ok, "{workload} trace={trace} exited nonzero: {result}");
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
            assert!(count(&result, "attempted") >= 1, "{workload}");
            assert_eq!(count(&result, "failed"), 0, "{workload}");
            assert_eq!(
                printed(&result),
                declared(section),
                "{workload} trace={trace}"
            );
        }
    }
}

#[test]
fn an_injected_wrong_verdict_is_counted_as_failed() {
    for workload in workloads() {
        let (ok, result) = run(&workload, false, &["--inject-fault"]);
        assert!(
            !ok,
            "{workload}: a wrong expected verdict must fail the run"
        );
        assert_eq!(
            result.get("correct"),
            Some(&Json::Bool(false)),
            "{workload}"
        );
        assert!(count(&result, "failed") > 0, "{workload}");
        let ok_frac = match result.get("metrics").and_then(|m| m.get("ok_frac")) {
            Some(m) => match m.get("value") {
                Some(Json::Num(v)) => *v,
                Some(Json::Int(v)) => *v as f64,
                _ => panic!("ok_frac has no value"),
            },
            None => panic!("ok_frac missing"),
        };
        assert!(ok_frac < 1.0, "{workload}: ok_frac {ok_frac}");
    }
}
