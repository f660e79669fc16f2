//! Smoke test of the benchmark: a tiny-scale run of every workload, traced
//! and untraced, must pass every check and print exactly the metrics
//! `BENCHMARK.json` declares, each with its unit. Two runs at one seed must
//! print the same exact work counters, and a second seed must run cleanly.
//!
//! ```sh
//! cargo test --release --offline --manifest-path benchmark/Cargo.toml
//! ```

use std::path::Path;
use std::process::Command;

use graf_obs::json::{parse, Json};

const WORKLOADS: [&str; 3] = ["sim_open", "control_replay", "autoscale_closed"];

fn spec() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

fn array<'a>(j: &'a Json, key: &str) -> &'a [Json] {
    match j.get(key) {
        Some(Json::Arr(items)) => items,
        other => panic!("{key} is not an array: {other:?}"),
    }
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(key: &str) -> Vec<(String, String)> {
    let spec = spec();
    array(&spec, key)
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs one tiny-scale benchmark and returns its standard output.
fn run(workload: &str, seed: u64, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_graf-benchmark"))
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "0"])
        .args(["--trace", &trace.to_string(), "--tiny"])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{workload} seed {seed} trace {trace} failed:\n{stdout}");
    stdout
}

/// Checks the result line against the declared metrics.
fn check_result(stdout: &str, key: &str) {
    let last = stdout.lines().last().expect("a result line");
    let result = parse(last).expect("the last line is JSON");
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{stdout}");
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0), "{stdout}");
    assert!(result.get("attempted").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0);
    let Some(Json::Obj(metrics)) = result.get("metrics") else { panic!("no metrics: {last}") };
    let printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(m.get("value").and_then(Json::as_f64).is_some_and(f64::is_finite), "{name}");
            (name.clone(), m.get("unit").and_then(Json::as_str).expect("unit").to_string())
        })
        .collect();
    assert_eq!(printed, declared(key));
}

fn counters(stdout: &str) -> String {
    let line = stdout.lines().find(|l| l.starts_with("counters")).expect("a counters line");
    line.split_once(": ").expect("counters after a colon").1.to_string()
}

#[test]
fn benchmark_json_names_the_workloads() {
    let spec = spec();
    let names: Vec<&str> =
        array(&spec, "workloads").iter().filter_map(|w| w.get("name")?.as_str()).collect();
    assert_eq!(names, WORKLOADS);
}

fn smoke(workload: &str) {
    let plain = run(workload, 1, 0);
    check_result(&plain, "end_to_end");
    assert_eq!(counters(&plain), counters(&run(workload, 1, 0)), "counters repeat at one seed");
    let traced = run(workload, 1, 1);
    check_result(&traced, "per_layer");
    assert_eq!(counters(&plain), counters(&traced), "tracing only observes");
    let other = run(workload, 2, 0);
    check_result(&other, "end_to_end");
}

#[test]
fn sim_open_smoke() {
    smoke("sim_open");
}

#[test]
fn control_replay_smoke() {
    smoke("control_replay");
}

#[test]
fn autoscale_closed_smoke() {
    smoke("autoscale_closed");
}
