//! The bench harness's one sanctioned wall-clock site.
//!
//! Everything simulated runs on [`ignem_simcore::time::SimTime`]; real time
//! exists only to measure how fast the simulator itself executes. The
//! bench crate denies `clippy::disallowed_methods`, so this function's
//! `#[expect]` is the crate's only raw clock read: the returned `Instant`
//! never feeds back into simulation scheduling, seeding, or telemetry.

use std::time::Instant;

/// Reads the host monotonic clock for bench timing.
///
/// This is the only place outside tests where real time may be observed;
/// benches call it before and use [`Instant::elapsed`] after the measured
/// loop. Simulation code must never call this — same-seed replay has to be
/// independent of how fast the host happens to run.
#[expect(
    clippy::disallowed_methods,
    reason = "bench timing only: the clock never feeds back into the simulation"
)]
pub fn wall_clock() -> Instant {
    Instant::now()
}
