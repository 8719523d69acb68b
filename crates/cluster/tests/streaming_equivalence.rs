//! Streaming-vs-preloaded equivalence: a world that admits its jobs
//! lazily through an [`ArrivalSource`] must replay a byte-identical
//! telemetry stream (and metrics fingerprint) to a world that preloads
//! the same plans as a `Vec`.
//!
//! The two admission paths differ only in *when* the engine learns about
//! each submission — preloaded worlds schedule every `Submit` up front,
//! streaming worlds schedule one `Arrival` at a time — so equality here
//! pins down that lazy admission perturbs neither the RNG draw order nor
//! any event timestamp. The workload is the chaos generator's (distinct,
//! collision-free submission times), the same shape two of the three
//! golden streams run.

#[expect(
    dead_code,
    reason = "only `RECORDER_CAP` is shared with the golden-stream tests"
)]
mod common;

use common::RECORDER_CAP;
use ignem_cluster::chaos::{fingerprint, workload};
use ignem_cluster::prelude::*;
use ignem_cluster::sanitizer::hash_chain;
use ignem_simcore::telemetry::{EventRecord, FlightRecorder};
use ignem_simcore::units::MIB;

const JOBS: usize = 6;

fn cluster_config() -> ClusterConfig {
    let mut cfg = ClusterConfig {
        seed: 304,
        ..ClusterConfig::default()
    };
    cfg.ignem.buffer_capacity = 512 * MIB;
    cfg
}

fn preloaded_world() -> World {
    let (files, plans) = workload(JOBS);
    World::new(cluster_config(), FsMode::Ignem, &files, plans, vec![])
}

fn streaming_world() -> World {
    let (files, plans) = workload(JOBS);
    // Same files preloaded (namespace creation draws the main RNG), but
    // the plans arrive one at a time through the pull iterator.
    World::new(cluster_config(), FsMode::Ignem, &files, vec![], vec![])
        .with_arrivals(Box::new(plans.into_iter()))
}

#[expect(
    clippy::expect_used,
    reason = "test helper: a missing value fails the test"
)]
fn tail(events: &[EventRecord]) -> (usize, u64) {
    let chain = hash_chain(events);
    (events.len(), *chain.last().expect("non-empty stream"))
}

#[test]
fn streaming_replays_preloaded_stream_bit_identically() {
    let (pre_metrics, pre_events, dropped) = preloaded_world().run_recorded(RECORDER_CAP);
    assert_eq!(dropped, 0, "recorder must hold the whole stream");
    let (st_metrics, st_events, dropped) = streaming_world().run_recorded(RECORDER_CAP);
    assert_eq!(dropped, 0, "recorder must hold the whole stream");

    assert_eq!(
        tail(&st_events),
        tail(&pre_events),
        "streamed admission must replay the preloaded event stream"
    );
    assert_eq!(
        fingerprint(&st_metrics),
        fingerprint(&pre_metrics),
        "metrics fingerprints must agree"
    );
}

/// Snapshots taken *mid-stream* must capture the arrival source's
/// position: restoring and re-running yields the same stitched stream.
#[test]
fn streaming_world_snapshots_capture_arrival_cursor() {
    let (_, base_events, dropped) = streaming_world().run_recorded(RECORDER_CAP);
    assert_eq!(dropped, 0);
    let golden = tail(&base_events);

    let recorder = FlightRecorder::new(RECORDER_CAP);
    let mut world = streaming_world().with_telemetry(Box::new(recorder.clone()));
    // Step until roughly half the stream has been emitted, then fork.
    let mark = (base_events.len() / 2) as u64;
    while world.telemetry_cursor().map_or(0, |(_, seq)| seq) < mark {
        assert!(world.step(), "stream ended before the fork point");
    }
    let snap = world.snapshot();
    let at = usize::try_from(world.telemetry_cursor().map_or(0, |(_, seq)| seq)).unwrap();
    world.run_to_end();
    world.finalize_mut();
    assert_eq!(tail(&recorder.events()), golden, "driven run must match");

    world.restore(&snap);
    let fork_rec = FlightRecorder::new(RECORDER_CAP);
    world.swap_recorder(Box::new(fork_rec.clone()));
    world.run_to_end();
    world.finalize_mut();

    let mut stitched = recorder.events()[..at].to_vec();
    stitched.extend(fork_rec.events());
    assert_eq!(
        tail(&stitched),
        golden,
        "restored arrival stream must continue bit-identically"
    );
}
