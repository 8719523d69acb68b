//! Determinism sanitizer integration tests: double-run real worlds and
//! assert bit-identical event streams, then prove the bisector pinpoints
//! an injected divergence in a real recorded stream.

mod common;

use common::{chaos_world_304, chaos_world_crash_14, RECORDER_CAP};
use ignem_cluster::chaos::fingerprint;
use ignem_cluster::experiment::default_world;
use ignem_cluster::prelude::*;
use ignem_cluster::sanitizer::{bisect_divergence, double_run};
use ignem_simcore::time::SimDuration;
use ignem_workloads::stream::{replay_files, JobArrival, ReplayConfig, ReplayStream};

#[test]
fn double_run_defaults_is_deterministic() {
    let result = double_run(default_world, RECORDER_CAP);
    assert!(
        !result.events_a.is_empty(),
        "expected a non-empty telemetry stream"
    );
    assert!(result.is_deterministic(), "{}", result.describe());
    assert_eq!(
        fingerprint(&result.metrics_a),
        fingerprint(&result.metrics_b)
    );
}

#[test]
fn double_run_chaos_seed_is_deterministic() {
    // Seed 304 is the schedule that once leaked references (fixed in the
    // epoch/lease PR) — a good stress of the faulted migration paths.
    let result = double_run(chaos_world_304, RECORDER_CAP);
    assert!(
        !result.events_a.is_empty(),
        "expected a non-empty telemetry stream"
    );
    assert!(result.is_deterministic(), "{}", result.describe());
    assert_eq!(
        fingerprint(&result.metrics_a),
        fingerprint(&result.metrics_b)
    );
}

#[test]
fn double_run_crash_seed_is_deterministic() {
    // Seed 14 with crashes enabled exercises the full crash/recovery
    // protocol: wipe, NIC-down, fresh incarnation, lossy re-registration
    // with retries, block report, re-replication, and re-ignition.
    let result = double_run(chaos_world_crash_14, RECORDER_CAP);
    assert!(
        !result.events_a.is_empty(),
        "expected a non-empty telemetry stream"
    );
    assert!(result.is_deterministic(), "{}", result.describe());
    assert_eq!(
        fingerprint(&result.metrics_a),
        fingerprint(&result.metrics_b)
    );
}

/// Adapter from a streamed arrival to a planned job; a plain `fn` keeps
/// the mapped stream `Clone`, as `World::with_arrivals` requires.
fn arrival_plan(a: JobArrival) -> PlannedJob {
    PlannedJob::single(a.name, a.submit, a.spec)
}

/// Jobs in the reduced streamed world: about three simulated hours of the
/// Google trace's arrival rate.
const STREAMED_JOBS: u64 = 2_500;

/// A reduced datacenter world: 256 nodes (a four-word busy-NIC index),
/// the rotating cluster-wide heartbeat sweep, and trace arrivals admitted
/// lazily from a `ReplayStream`. Every trace job has one reducer that
/// shuffles from a random alive node over the fabric.
fn streamed_world() -> World {
    let rcfg = ReplayConfig {
        jobs: Some(STREAMED_JOBS),
        ..ReplayConfig::default()
    };
    let files = replay_files(&rcfg, STREAMED_JOBS);
    let stream = ReplayStream::new(rcfg, 42).map(arrival_plan as fn(JobArrival) -> PlannedJob);
    let cfg = ClusterConfig {
        nodes: 256,
        heartbeat_sweep: true,
        seed: 42,
        ..ClusterConfig::default()
    };
    World::new(cfg, FsMode::Ignem, &files, vec![], vec![]).with_arrivals(Box::new(stream))
}

#[test]
fn double_run_streamed_256_node_world_is_deterministic() {
    let result = double_run(streamed_world, RECORDER_CAP);
    assert!(result.is_deterministic(), "{}", result.describe());
    let m = &result.metrics_a;
    assert_eq!(m.jobs.len() as u64, STREAMED_JOBS, "every job completes");
    assert_eq!(
        m.reduce_task_secs.len() as u64,
        STREAMED_JOBS,
        "every job runs its shuffling reducer"
    );
    assert!(
        m.makespan.as_secs_f64() > 2.0 * 3600.0,
        "the stream spans hours of simulated time"
    );
    assert_eq!(fingerprint(m), fingerprint(&result.metrics_b));
}

#[test]
fn injected_divergence_in_real_stream_bisects_to_exact_seq() {
    let (_, events, dropped) = default_world().run_recorded(RECORDER_CAP);
    assert_eq!(dropped, 0, "recorder must keep the whole run");
    assert!(events.len() > 10, "stream too short to bisect meaningfully");
    let inject_at = events.len() / 2;
    let mut tampered = events.clone();
    // Artificial divergence: shift the event's timestamp by one microsecond.
    tampered[inject_at].at += SimDuration::from_micros(1);
    let d = bisect_divergence(&events, &tampered).expect("tampered stream must diverge");
    assert_eq!(d.index, inject_at);
    assert_eq!(d.seq(), Some(events[inject_at].seq));
    let text = d.describe(&events[..d.common_len]);
    assert!(text.contains("divergence at event index"), "{text}");
}
