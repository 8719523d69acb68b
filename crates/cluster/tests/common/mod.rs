//! World builders shared between the golden-stream, observability,
//! snapshot and sanitizer integration tests. Every builder here is
//! deterministic: two calls produce worlds that replay bit-identical event
//! streams, which is what lets the tests pin hashes over the recorded
//! telemetry.

use ignem_cluster::chaos::ChaosConfig;
use ignem_cluster::prelude::*;

/// Recorder capacity large enough to hold every pinned stream whole.
pub const RECORDER_CAP: usize = 1 << 20;

/// The chaos world of `cfg`'s own fault plan, without the recorder and
/// per-event validation `run_chaos_with` adds.
pub fn chaos_world(cfg: &ChaosConfig) -> World {
    cfg.world(cfg.fault_plan())
}

/// The chaos world of seed 304.
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
