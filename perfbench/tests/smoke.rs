//! Smoke size of the benchmark command: every workload for one second in
//! both modes. Run with `cargo test --release`.

use std::path::PathBuf;
use std::process::{Command, Output};

use obda_server::Json;

const WORKLOADS: [&str; 4] = [
    "uni-read",
    "uni-lookup-virtual",
    "uni-churn",
    "fig1-classify",
];

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let src = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&src).expect("BENCHMARK.json parses")
}

fn perfbench(args: &[&str], knob: Option<(&str, &str)>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args(args).current_dir(env!("CARGO_TARGET_TMPDIR"));
    for (k, _) in std::env::vars() {
        if k.starts_with("QUONTO_") {
            cmd.env_remove(k);
        }
    }
    if let Some((k, v)) = knob {
        cmd.env(k, v);
    }
    cmd.output().expect("the benchmark binary runs")
}

/// `(name, unit)` of every metric listed under `key`.
fn listed(spec: &Json, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_workload_reports_every_metric_and_nothing_fails() {
    let spec = benchmark_json();
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = listed(&spec, key);
        for w in WORKLOADS {
            let out = perfbench(
                &[
                    "--workload",
                    w,
                    "--seed",
                    "3",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                ],
                None,
            );
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(out.status.success(), "{w} --trace {trace}:\n{stdout}");
            let last = Json::parse(stdout.lines().last().expect("a result line")).expect("JSON");
            assert_eq!(
                last.get("correct").and_then(Json::as_bool),
                Some(true),
                "{w}"
            );
            assert_eq!(last.get("failed").and_then(Json::as_u64), Some(0), "{w}");
            assert!(
                last.get("attempted").and_then(Json::as_u64) >= Some(1),
                "{w}"
            );
            let metrics = last.get("metrics").expect("metrics");
            let Json::Obj(fields) = metrics else {
                panic!("metrics is an object")
            };
            assert_eq!(fields.len(), want.len(), "{w}: {metrics}");
            for (name, unit) in &want {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{w}: no {name}"));
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(unit.as_str()),
                    "{w} {name}"
                );
                assert!(
                    m.get("value").and_then(Json::as_f64).is_some(),
                    "{w} {name}"
                );
            }
            assert!(stdout.contains("failed_frac=0 "), "{w}:\n{stdout}");
            if trace == "0" {
                for name in ["setup_s", "ops_per_s", "op_p50_us", "op_tail_us"] {
                    let v = metrics
                        .get(name)
                        .and_then(|m| m.get("value"))
                        .and_then(Json::as_f64);
                    assert!(v > Some(0.0), "{w}: {name} must never be 0");
                }
                // Neither percentile may sit on an edge between classes
                // whose medians differ by more than 2×.
                let landings: Vec<&str> = stdout
                    .lines()
                    .filter(|l| l.starts_with("landing "))
                    .collect();
                assert_eq!(landings.len(), 2, "{w}:\n{stdout}");
                for l in landings {
                    assert!(l.ends_with("on_boundary=false"), "{w}: {l}");
                }
            } else {
                assert!(stdout.contains("layer residual_us="), "{w}:\n{stdout}");
                assert!(
                    stdout.contains("layer obs.overhead_frac="),
                    "{w}:\n{stdout}"
                );
            }
        }
    }
}

#[test]
fn refuses_to_run_with_a_quonto_knob_set() {
    let out = perfbench(
        &[
            "--workload",
            "uni-read",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        Some(("QUONTO_THREADS", "2")),
    );
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}

#[test]
fn rejects_an_unknown_workload() {
    let out = perfbench(&["--workload", "nope", "--trace", "0"], None);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
