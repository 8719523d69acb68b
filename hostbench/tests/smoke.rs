//! Smoke test of the benchmark itself at reduced sizes (1 SWIM trace,
//! 16 chaos seeds, 64 nodes for one simulated hour): every metric
//! `BENCHMARK.json` names is printed with its unit, two runs agree on the
//! digest and on every exact count, and a wrong digest fails the run.

use std::path::Path;
use std::process::{Command, Output};

use ignem_hostbench::json::{parse, Json};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hostbench"))
        .args(["--size", "smoke", "--seconds", "0.001"])
        .args(args)
        .output()
        .expect("benchmark binary runs")
}

/// The digest line and the parsed result line of a successful run.
fn run_ok(workload: &str, trace: &str) -> (String, Json) {
    let out = bench(&["--workload", workload, "--seed", "5", "--trace", trace]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    let digest = lines
        .iter()
        .find(|l| l.starts_with("digest "))
        .expect("a digest line")
        .to_string();
    let result = parse(lines.last().expect("a result line")).expect("result is JSON");
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    (digest, result)
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
    doc.get(list)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn assert_declared_metrics(result: &Json, list: &str) {
    let metrics = result.get("metrics").expect("metrics");
    let declared = declared(list);
    assert_eq!(metrics.as_object().unwrap().len(), declared.len(), "{list}");
    for (name, unit) in declared {
        let m = metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        assert!(
            m.get("value").and_then(Json::as_f64).unwrap().is_finite(),
            "{name}"
        );
    }
}

/// Every metric whose unit is `count`: these repeat exactly.
fn counts(result: &Json) -> Vec<(String, f64)> {
    result
        .get("metrics")
        .and_then(Json::as_object)
        .unwrap()
        .iter()
        .filter(|(_, m)| m.get("unit").and_then(Json::as_str) == Some("count"))
        .map(|(k, m)| (k.clone(), m.get("value").and_then(Json::as_f64).unwrap()))
        .collect()
}

fn check_workload(workload: &str) {
    let (d0, end_to_end) = run_ok(workload, "0");
    assert_declared_metrics(&end_to_end, "end_to_end");
    let (d1, first) = run_ok(workload, "1");
    let (d2, second) = run_ok(workload, "1");
    assert_declared_metrics(&first, "per_layer");
    assert_eq!(d0, d1);
    assert_eq!(d1, d2);
    assert_eq!(counts(&first), counts(&second));
    assert!(counts(&first)
        .iter()
        .any(|(k, v)| k == "simcore.events" && *v > 0.0));
}

#[test]
fn paper_testbed_reports_every_metric_and_repeats() {
    check_workload("paper_testbed");
}

#[test]
fn chaos_sweep_reports_every_metric_and_repeats() {
    check_workload("chaos_sweep");
}

#[test]
fn scale_stream_reports_every_metric_and_repeats() {
    check_workload("scale_stream");
}

#[test]
fn a_wrong_digest_fails_the_run() {
    let (digest, _) = run_ok("chaos_sweep", "0");
    let good = digest.rsplit(' ').next().unwrap();
    let out = bench(&[
        "--workload",
        "chaos_sweep",
        "--seed",
        "5",
        "--expect-digest",
        good,
    ]);
    assert!(out.status.success());
    let out = bench(&[
        "--workload",
        "chaos_sweep",
        "--seed",
        "5",
        "--expect-digest",
        "0x1",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        !stdout.contains("\"correct\""),
        "printed a result: {stdout}"
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("differs from the recorded"));
}
