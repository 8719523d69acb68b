//! The `chaos-sweep` bench modes end to end: the minimizer bench reproduces
//! the committed simulated-event counts exactly, and an unreadable
//! baseline fails the sweep bench before it writes anything.

use std::process::Command;

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ignem-bench-{tag}-{}.json", std::process::id()))
}

#[test]
fn minimize_bench_simulates_the_committed_event_counts() {
    let out = temp_path("minimize");
    let run = Command::new(env!("CARGO_BIN_EXE_chaos-sweep"))
        .arg("--bench-minimize-out")
        .arg(&out)
        .output()
        .unwrap();
    assert!(run.status.success(), "{run:?}");
    let report = std::fs::read_to_string(&out).unwrap();
    std::fs::remove_file(&out).unwrap();
    // Simulated-event counts are pure functions of the seed; these are the
    // ones committed in BENCH_minimize.json.
    for (name, events) in [("minimize_replay_304", 31920), ("minimize_fork_304", 13760)] {
        let row = report
            .lines()
            .find(|l| l.contains(&format!("\"name\": \"{name}\"")))
            .unwrap();
        assert!(row.contains(&format!("\"events\": {events},")), "{row}");
    }
}

#[test]
fn unreadable_baseline_fails_without_a_report() {
    let out = temp_path("no-baseline");
    let run = Command::new(env!("CARGO_BIN_EXE_chaos-sweep"))
        .arg("--bench-out")
        .arg(&out)
        .arg("--bench-baseline")
        .arg(temp_path("missing-baseline"))
        .output()
        .unwrap();
    assert!(!run.status.success(), "{run:?}");
    assert!(!out.exists(), "a failed bench must not write its report");
}
