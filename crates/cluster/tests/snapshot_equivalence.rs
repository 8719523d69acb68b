//! Snapshot equivalence: pausing a world, snapshotting it, restoring the
//! snapshot and running to the end must be bit-identical to never pausing
//! at all — same event stream, same metrics fingerprint, same span forest
//! (and therefore the same Perfetto export, which is a pure function of
//! the events).
//!
//! The property is checked against the same three pinned streams the
//! golden-stream tests guard (fault-free default world, chaos seed 304,
//! crash seed 14), forking at every `STRIDE`-th emitted event, so any
//! state [`WorldSnapshot`] fails to capture — or captures too much of —
//! shows up as a stitched stream that drifts from the uninterrupted one.

mod common;

use common::{chaos_world_304, chaos_world_crash_14, RECORDER_CAP};
use ignem_cluster::chaos::fingerprint;
use ignem_cluster::experiment::default_world;
use ignem_cluster::prelude::*;
use ignem_cluster::sanitizer::hash_chain;
use ignem_simcore::span::SpanForest;
use ignem_simcore::telemetry::{EventRecord, FlightRecorder};

/// Fork at every 25th emitted event: dense enough to land forks inside
/// every phase of each pinned stream (planning, migration races, faults,
/// recovery, teardown) while keeping the suite fast.
const STRIDE: u64 = 25;

/// Duplicates the pinned constants from `stream_golden.rs` (module-private
/// there): the stitched snapshot-fork streams must hit the *same* pins as
/// the uninterrupted runs, not merely agree with a baseline computed in
/// this process.
const DEFAULT_WORLD_GOLDEN: (usize, u64) = (111, 0x464c_1a7d_d766_ced1);
const CHAOS_304_GOLDEN: (usize, u64) = (320, 0x2249_a012_16cb_e555);
const CHAOS_CRASH_14_GOLDEN: (usize, u64) = (342, 0xa7dd_79d6_004d_5787);

#[expect(
    clippy::expect_used,
    reason = "test helper: a missing value fails the test"
)]
fn tail(events: &[EventRecord]) -> (usize, u64) {
    let chain = hash_chain(events);
    (events.len(), *chain.last().expect("non-empty stream"))
}

/// Runs `build()` uninterrupted for the baseline, then re-runs it taking
/// a snapshot every [`STRIDE`] emitted events, and for every snapshot
/// restores + runs to the end, asserting the stitched stream and the
/// fingerprint are bit-identical to the baseline (and to `golden`).
#[expect(
    clippy::unwrap_used,
    reason = "test helper: a missing value fails the test"
)]
fn assert_snapshot_equivalent(build: fn() -> World, golden: (usize, u64)) {
    let (base_metrics, base_events, dropped) = build().run_recorded(RECORDER_CAP);
    assert_eq!(dropped, 0, "recorder must hold the whole stream");
    assert_eq!(tail(&base_events), golden, "baseline must match the pin");
    let base_fp = fingerprint(&base_metrics);

    // One driven run captures all fork points.
    let recorder = FlightRecorder::new(RECORDER_CAP);
    let mut world = build().with_telemetry(Box::new(recorder.clone()));
    let mut snaps = vec![(0u64, world.snapshot())];
    let mut next_mark = STRIDE;
    while world.step() {
        let emitted = world.telemetry_cursor().map_or(0, |(_, seq)| seq);
        if emitted >= next_mark {
            snaps.push((emitted, world.snapshot()));
            next_mark = emitted + STRIDE;
        }
    }
    let driven_metrics = world.finalize_mut();
    assert_eq!(
        fingerprint(&driven_metrics),
        base_fp,
        "step-driving must not change behaviour"
    );
    let prefix_events = recorder.events();
    assert_eq!(
        tail(&prefix_events),
        golden,
        "driven run must match the pin"
    );
    assert!(snaps.len() >= 3, "stride must produce several fork points");

    for (emitted, snap) in &snaps {
        let at = usize::try_from(*emitted).unwrap();
        world.restore(snap);
        assert_eq!(world.telemetry_cursor().map(|(_, s)| s), Some(*emitted));
        let fork_rec = FlightRecorder::new(RECORDER_CAP);
        world.swap_recorder(Box::new(fork_rec.clone()));
        world.run_to_end();
        let fork_metrics = world.finalize_mut();

        let mut stitched = prefix_events[..at].to_vec();
        stitched.extend(fork_rec.events());
        assert_eq!(
            tail(&stitched),
            golden,
            "stream stitched at event {emitted} must be bit-identical"
        );
        assert_eq!(
            fingerprint(&fork_metrics),
            base_fp,
            "fingerprint after forking at event {emitted} must match"
        );
    }
}

#[test]
fn default_world_snapshot_forks_are_bit_identical() {
    assert_snapshot_equivalent(default_world, DEFAULT_WORLD_GOLDEN);
}

#[test]
fn chaos_304_snapshot_forks_are_bit_identical() {
    assert_snapshot_equivalent(chaos_world_304, CHAOS_304_GOLDEN);
}

#[test]
fn chaos_crash_14_snapshot_forks_are_bit_identical() {
    assert_snapshot_equivalent(chaos_world_crash_14, CHAOS_CRASH_14_GOLDEN);
}

/// The Perfetto/span claim: a stream stitched from a mid-run fork builds
/// the same span forest (canonical rendering) as the uninterrupted run —
/// the export is a pure function of the events, so equal canonical trees
/// mean equal traces.
#[test]
fn chaos_304_forked_span_forest_matches_uninterrupted() {
    let (_m, base_events, dropped) = chaos_world_304().run_recorded(RECORDER_CAP);
    assert_eq!(dropped, 0);
    let base_lines = SpanForest::build(&base_events).canonical_lines();

    let recorder = FlightRecorder::new(RECORDER_CAP);
    let mut world = chaos_world_304().with_telemetry(Box::new(recorder.clone()));
    // Run roughly half the stream, snapshot, restore, finish.
    while world.telemetry_cursor().map_or(0, |(_, s)| s) < 160 && world.step() {}
    let snap = world.snapshot();
    let at = usize::try_from(world.telemetry_cursor().map_or(0, |(_, s)| s)).unwrap();
    world.restore(&snap);
    let fork_rec = FlightRecorder::new(RECORDER_CAP);
    world.swap_recorder(Box::new(fork_rec.clone()));
    world.run_to_end();
    world.finalize_mut();

    let mut stitched = recorder.events()[..at].to_vec();
    stitched.extend(fork_rec.events());
    let stitched_lines = SpanForest::build(&stitched).canonical_lines();
    assert_eq!(stitched_lines, base_lines, "span forests must match");
}

/// The sanitizer's forked re-check on a deterministic world: no
/// divergence, and the suffix re-simulated from the latest snapshot
/// reproduces run A's tail without re-running the prefix.
#[test]
fn forked_double_run_audits_suffix_without_replaying_prefix() {
    let forked = ignem_cluster::sanitizer::double_run_forked(default_world, RECORDER_CAP, 40);
    assert!(forked.run.is_deterministic(), "{}", forked.run.describe());
    assert!(forked.suffix_consistent, "forked suffix must match run A");
    assert!(forked.fork_at > 0, "a later snapshot must have been chosen");
    assert!(
        forked.fork_at + forked.resimulated == forked.run.events_a.len(),
        "prefix ({}) + resimulated ({}) must cover the stream ({})",
        forked.fork_at,
        forked.resimulated,
        forked.run.events_a.len()
    );
}
