//! World builders shared between the golden-stream and observability
//! integration tests. Every builder here is deterministic: two calls
//! produce worlds that replay bit-identical event streams, which is
//! what lets both test files pin hashes over the recorded telemetry.

use ignem_cluster::chaos::{generate_faults, workload, ChaosConfig};
use ignem_cluster::prelude::*;
use ignem_compute::job::{JobInput, JobSpec, SubmitOptions};
use ignem_simcore::rng::SimRng;
use ignem_simcore::time::SimDuration;
use ignem_simcore::units::{MB, MIB};

/// Recorder capacity large enough to hold every pinned stream whole.
pub const RECORDER_CAP: usize = 1 << 20;

/// The same fault-free default world the sanitizer double-runs.
pub fn default_world() -> World {
    let files: Vec<(String, u64)> = (0..4)
        .map(|i| (format!("/in/part-{i}"), 512 * MB / 4))
        .collect();
    let mut spec = JobSpec::new(
        "sanitizer-job",
        JobInput::DfsFiles(files.iter().map(|(p, _)| p.clone()).collect()),
    );
    spec.submit = SubmitOptions::with_migration();
    let plan = vec![PlannedJob::single(
        "sanitizer",
        SimDuration::from_secs(1),
        spec,
    )];
    World::new(
        ClusterConfig::default(),
        FsMode::Ignem,
        &files,
        plan,
        vec![],
    )
}

/// Mirrors `run_chaos_with`'s world construction for an arbitrary config.
pub fn chaos_world(cfg: &ChaosConfig) -> World {
    let mut fault_rng = SimRng::new(cfg.seed ^ 0xC4A0_5EED);
    let faults = generate_faults(
        &mut fault_rng,
        cfg.nodes,
        ClusterConfig::default().dfs.replication,
        cfg.jobs,
        cfg.faults,
        cfg.crashes,
    );
    let mut cluster = ClusterConfig {
        nodes: cfg.nodes,
        seed: cfg.seed,
        rpc: cfg.rpc,
        ..ClusterConfig::default()
    };
    cluster.ignem.buffer_capacity = 512 * MIB;
    cluster.ignem.lease = cfg.lease;
    let (files, plans) = workload(cfg.jobs);
    World::new(cluster, FsMode::Ignem, &files, plans, faults)
}

/// Mirrors `run_chaos_with`'s world construction for seed 304.
pub fn chaos_world_304() -> World {
    chaos_world(&ChaosConfig {
        seed: 304,
        ..ChaosConfig::default()
    })
}

/// Crash-recovery stream: chaos seed 14 with two `NodeCrash` draws —
/// the pinned-regression schedule (crash wipes a RAM replica mid-use, a
/// read degrades to disk, the job re-ignites after restart; the second
/// crash hits the node while it is already dark and must be a no-op).
pub fn chaos_world_crash_14() -> World {
    chaos_world(&ChaosConfig {
        seed: 14,
        crashes: 2,
        ..ChaosConfig::default()
    })
}
