//! A simulated storage device carrying concurrent IO requests.
//!
//! [`Disk`] layers request bookkeeping on top of
//! [`FlowResource`] — adding:
//!
//! * per-request identity, kind ([`IoKind`]) and timing;
//! * seek latency from the device profile, charged per request;
//! * a write-back buffer: [`Disk::buffered_write`] returns immediately
//!   (the OS page cache absorbs job output, as the paper notes) while a
//!   single background flush request drains dirty bytes to the medium,
//!   contending with foreground reads exactly like real writeback.
//!
//! Like every substrate, `Disk` is engine-agnostic: callers drive it with
//! [`Disk::advance`] / [`Disk::next_event`].

use ignem_simcore::flow::{FlowId, FlowResource};
use ignem_simcore::idmap::{DenseId, IdMap};
use ignem_simcore::metrics::MetricsRegistry;
use ignem_simcore::time::{SimDuration, SimTime};

use crate::device::DeviceProfile;

/// Identifies an IO request on one disk. Caller-assigned; must be unique
/// among in-flight requests on the same disk and below `1 << 62` (higher
/// values are reserved for internal flush requests). Ids of concurrently
/// in-flight requests should be numerically close (a monotone counter is
/// ideal): request lookup uses a dense sliding-window [`IdMap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

impl DenseId for RequestId {
    fn index(self) -> usize {
        self.0 as usize
    }

    fn from_index(index: usize) -> Self {
        RequestId(index as u64)
    }
}

/// Why an IO request was issued. Lets metrics distinguish foreground reads
/// from Ignem migration reads and background flushes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoKind {
    /// A foreground read by a task.
    Read,
    /// A background migration read issued by an Ignem slave.
    Migration,
    /// Writeback flush of buffered writes.
    Flush,
}

/// A finished IO request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// The request's id.
    pub id: RequestId,
    /// What kind of request it was.
    pub kind: IoKind,
    /// When it was submitted.
    pub started: SimTime,
    /// When it finished.
    pub finished: SimTime,
    /// Its size in bytes.
    pub bytes: u64,
}

impl Completion {
    /// End-to-end duration of the request.
    pub fn duration(&self) -> SimDuration {
        self.finished.duration_since(self.started)
    }
}

#[derive(Debug, Clone, Copy)]
struct Inflight {
    /// The caller-visible id (or the reserved flush id for internal flushes).
    id: RequestId,
    kind: IoKind,
    started: SimTime,
    bytes: u64,
}

const FLUSH_ID_BASE: u64 = 1 << 62;
/// Writeback drains in chunks so a huge dirty backlog still shares the disk
/// fairly over time (matches kernel writeback behaviour closely enough).
const FLUSH_CHUNK: u64 = 256 * 1024 * 1024;

/// One simulated storage device (see module docs).
///
/// ```
/// use ignem_storage::{device::DeviceProfile, disk::{Disk, IoKind, RequestId}};
/// use ignem_simcore::time::SimTime;
///
/// let mut disk = Disk::new(DeviceProfile::hdd());
/// disk.submit(SimTime::ZERO, RequestId(1), IoKind::Read, 64_000_000);
/// let mut done = vec![];
/// while let Some(t) = disk.next_event() {
///     done.extend(disk.advance(t));
/// }
/// assert_eq!(done[0].id, RequestId(1));
/// ```
#[derive(Debug, Clone)]
pub struct Disk {
    profile: DeviceProfile,
    resource: FlowResource,
    /// In-flight requests keyed by their *internal* flow id. The disk
    /// renumbers every request (including flushes) through `next_flow`, so
    /// the underlying dense flow table only ever sees a tight monotone id
    /// window even though flush request ids live up at `1 << 62`.
    inflight: IdMap<FlowId, Inflight>,
    /// Foreground (caller-visible) request id -> internal flow id, for
    /// cancellation and duplicate detection. Flushes are internal and never
    /// appear here.
    foreground: IdMap<RequestId, FlowId>,
    next_flow: u64,
    dirty: u64,
    flush_active: Option<(RequestId, u64)>,
    next_flush_id: u64,
    bytes_read: u64,
    bytes_written: u64,
    /// Sim-time metrics (disabled by default); `metrics_tag` distinguishes
    /// devices sharing one registry (e.g. the node index).
    metrics: MetricsRegistry,
    metrics_tag: u64,
}

impl Disk {
    /// Creates a disk with the given profile.
    pub fn new(profile: DeviceProfile) -> Self {
        profile.validate();
        Disk {
            profile,
            resource: FlowResource::new(profile.bandwidth, profile.degradation),
            inflight: IdMap::new(),
            foreground: IdMap::new(),
            next_flow: 0,
            dirty: 0,
            flush_active: None,
            next_flush_id: FLUSH_ID_BASE,
            bytes_read: 0,
            bytes_written: 0,
            metrics: MetricsRegistry::default(),
            metrics_tag: 0,
        }
    }

    /// Installs a sim-time metrics handle; the disk then histograms the
    /// service time of every reported completion under `"disk_io_us"` with
    /// the given tag (callers use the node index).
    pub fn set_metrics(&mut self, metrics: MetricsRegistry, tag: u64) {
        self.metrics = metrics;
        self.metrics_tag = tag;
    }

    /// The device profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Number of in-flight requests (including any active flush).
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// Dirty (buffered, not yet flushed) bytes.
    pub fn dirty_bytes(&self) -> u64 {
        self.dirty
    }

    /// Total bytes delivered by completed read/migration requests.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Total bytes accepted by `buffered_write`.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Fraction of time the device has been busy since the start.
    pub fn utilization(&self, now: SimTime) -> f64 {
        let elapsed = now.as_secs_f64();
        if elapsed == 0.0 {
            0.0
        } else {
            self.resource.busy_time().as_secs_f64() / elapsed
        }
    }

    /// Sets the device's speed to `factor` × the profile bandwidth (a gray
    /// fault: a degraded disk still serves IO, just slowly; `1.0` restores
    /// nominal speed). Advances to `now` first so work already done is
    /// accounted at the old rate, and returns any completions that produces.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not strictly positive or `now` precedes the
    /// device clock.
    pub fn set_speed_factor(&mut self, now: SimTime, factor: f64) -> Vec<Completion> {
        assert!(factor.is_finite() && factor > 0.0, "bad speed factor");
        let done = self.advance(now);
        self.resource.set_capacity(self.profile.bandwidth * factor);
        done
    }

    /// Submits a read or migration request of `bytes`.
    /// Returns any requests that completed while advancing to `now`.
    ///
    /// # Panics
    ///
    /// Panics if `id` collides with an in-flight request, is in the reserved
    /// flush range, `bytes` is zero, or `kind` is [`IoKind::Flush`].
    pub fn submit(
        &mut self,
        now: SimTime,
        id: RequestId,
        kind: IoKind,
        bytes: u64,
    ) -> Vec<Completion> {
        assert!(bytes > 0, "zero-byte request");
        assert!(id.0 < FLUSH_ID_BASE, "request id in reserved flush range");
        assert!(kind != IoKind::Flush, "flush requests are internal");
        assert!(
            !self.foreground.contains_key(&id),
            "duplicate request id {id:?}"
        );
        // Migration reads page in via mmap/mlock and run slower than
        // sequential reads; model as extra fluid volume.
        let volume = if kind == IoKind::Migration {
            bytes as f64 * self.profile.migration_slowdown
        } else {
            bytes as f64
        };
        let flow = self.alloc_flow();
        let flows = self.resource.add(now, flow, volume, self.profile.seek);
        let done = self.collect(flows);
        self.inflight.insert(
            flow,
            Inflight {
                id,
                kind,
                started: now,
                bytes,
            },
        );
        self.foreground.insert(id, flow);
        done
    }

    /// Hands out the next internal flow id. Requests are renumbered so the
    /// dense flow table and request map stay on a tight monotone window.
    fn alloc_flow(&mut self) -> FlowId {
        let f = FlowId(self.next_flow);
        self.next_flow += 1;
        f
    }

    /// Buffers `bytes` of writes (returns instantly — page-cache absorb) and
    /// ensures a background flush is draining. Returns any completions
    /// produced while advancing to `now`.
    pub fn buffered_write(&mut self, now: SimTime, bytes: u64) -> Vec<Completion> {
        self.dirty += bytes;
        self.bytes_written += bytes;
        let done = self.advance(now);
        // advance() may already have started a flush; make sure.
        let mut more = self.maybe_start_flush(now);
        more.extend(done);
        more
    }

    /// Cancels an in-flight request (no completion will be reported for it).
    /// Unknown ids are ignored. Returns completions produced while advancing.
    pub fn cancel(&mut self, now: SimTime, id: RequestId) -> Vec<Completion> {
        let flows = match self.foreground.get(&id).copied() {
            Some(flow) => self.resource.cancel(now, flow),
            // Unknown id: still advance to `now`, matching cancel semantics.
            None => self.resource.advance(now),
        };
        let done = self.collect(flows);
        // If the request completed during the advance, `collect` already
        // dropped it; otherwise retire it now without a completion.
        if let Some(flow) = self.foreground.remove(&id) {
            self.inflight.remove(&flow);
        }
        done
    }

    /// The next instant at which some request will finish (or seek ends),
    /// or `None` if the disk is idle.
    pub fn next_event(&self) -> Option<SimTime> {
        self.resource.next_event()
    }

    /// Advances device time to `now`, returning finished requests in
    /// completion order. Flush completions are handled internally (the next
    /// chunk is started) and **not** reported.
    pub fn advance(&mut self, now: SimTime) -> Vec<Completion> {
        let flows = self.resource.advance(now);
        let mut done = self.collect(flows);
        done.extend(self.maybe_start_flush(now));
        done
    }

    fn maybe_start_flush(&mut self, now: SimTime) -> Vec<Completion> {
        if self.flush_active.is_some() || self.dirty == 0 {
            return Vec::new();
        }
        let chunk = self.dirty.min(FLUSH_CHUNK);
        let id = RequestId(self.next_flush_id);
        self.next_flush_id += 1;
        self.flush_active = Some((id, chunk));
        let flow = self.alloc_flow();
        let flows = self
            .resource
            .add(now, flow, chunk as f64, self.profile.seek);
        let done = self.collect(flows);
        self.inflight.insert(
            flow,
            Inflight {
                id,
                kind: IoKind::Flush,
                started: now,
                bytes: chunk,
            },
        );
        done
    }

    /// Maps completed flow ids to reported completions; consumes flush
    /// completions internally.
    #[expect(
        clippy::expect_used,
        reason = "every completed flow was registered in `inflight` when its request was submitted"
    )]
    fn collect(&mut self, flows: Vec<FlowId>) -> Vec<Completion> {
        let mut out = Vec::new();
        for fid in flows {
            let info = self
                .inflight
                .remove(&fid)
                .expect("completion for unknown request");
            let finished = self.resource.clock();
            match info.kind {
                IoKind::Flush => {
                    self.dirty -= info.bytes;
                    self.flush_active = None;
                    // Chain the next chunk at the completion instant.
                    let more = self.maybe_start_flush(finished);
                    out.extend(more);
                }
                IoKind::Read | IoKind::Migration => {
                    self.foreground.remove(&info.id);
                    self.bytes_read += info.bytes;
                    self.metrics.observe(
                        "disk_io_us",
                        self.metrics_tag,
                        finished.saturating_duration_since(info.started).as_micros(),
                    );
                    out.push(Completion {
                        id: info.id,
                        kind: info.kind,
                        started: info.started,
                        finished,
                        bytes: info.bytes,
                    });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ignem_simcore::units::{MB, MIB};

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    fn drain(disk: &mut Disk) -> Vec<Completion> {
        let mut all = Vec::new();
        let mut guard = 0;
        while let Some(next) = disk.next_event() {
            all.extend(disk.advance(next));
            guard += 1;
            assert!(guard < 10_000, "disk failed to drain");
        }
        all
    }

    #[test]
    fn solo_read_matches_profile() {
        let mut disk = Disk::new(DeviceProfile::hdd());
        disk.submit(SimTime::ZERO, RequestId(1), IoKind::Read, 64 * MIB);
        let done = drain(&mut disk);
        assert_eq!(done.len(), 1);
        let expect = DeviceProfile::hdd().solo_time(64 * MIB).as_secs_f64();
        let got = done[0].duration().as_secs_f64();
        assert!((got - expect).abs() < 1e-3, "got {got}, expect {expect}");
    }

    #[test]
    fn concurrent_reads_degrade_hdd() {
        let profile = DeviceProfile::hdd();
        let solo = profile.solo_time(64 * MIB).as_secs_f64();
        let mut disk = Disk::new(profile);
        for i in 0..4 {
            disk.submit(SimTime::ZERO, RequestId(i), IoKind::Read, 64 * MIB);
        }
        let done = drain(&mut disk);
        assert_eq!(done.len(), 4);
        let mean = done.iter().map(|c| c.duration().as_secs_f64()).sum::<f64>() / done.len() as f64;
        // 4 concurrent requests with d=0.6: much worse than 4x fair share.
        assert!(
            mean > 4.0 * solo,
            "mean {mean} should exceed 4x solo {solo}"
        );
    }

    #[test]
    fn ram_reads_do_not_degrade() {
        let profile = DeviceProfile::ram();
        let mut disk = Disk::new(profile);
        for i in 0..8 {
            disk.submit(SimTime::ZERO, RequestId(i), IoKind::Read, 64 * MIB);
        }
        let done = drain(&mut disk);
        // Perfect sharing: all finish together at 8x the solo time.
        let solo = profile.solo_time(64 * MIB).as_secs_f64();
        for c in &done {
            assert!((c.duration().as_secs_f64() - 8.0 * solo).abs() < 1e-3);
        }
    }

    #[test]
    fn buffered_writes_return_instantly_but_flush_contends() {
        let mut disk = Disk::new(DeviceProfile::hdd());
        disk.buffered_write(SimTime::ZERO, 512 * MB);
        assert_eq!(disk.dirty_bytes(), 512 * MB);
        assert!(disk.in_flight() >= 1, "flush should be active");
        // A read now shares the disk with the flush.
        disk.submit(SimTime::ZERO, RequestId(1), IoKind::Read, 64 * MIB);
        let done = drain(&mut disk);
        assert_eq!(done.len(), 1); // flush completions are internal
        let solo = DeviceProfile::hdd().solo_time(64 * MIB).as_secs_f64();
        assert!(done[0].duration().as_secs_f64() > 1.5 * solo);
        assert_eq!(disk.dirty_bytes(), 0);
    }

    #[test]
    fn flush_drains_in_chunks() {
        let mut disk = Disk::new(DeviceProfile::hdd());
        disk.buffered_write(SimTime::ZERO, 1024 * MB);
        drain(&mut disk);
        assert_eq!(disk.dirty_bytes(), 0);
        assert_eq!(disk.in_flight(), 0);
        assert_eq!(disk.bytes_written(), 1024 * MB);
    }

    #[test]
    fn cancel_removes_request() {
        let mut disk = Disk::new(DeviceProfile::hdd());
        disk.submit(SimTime::ZERO, RequestId(1), IoKind::Read, 64 * MIB);
        disk.submit(SimTime::ZERO, RequestId(2), IoKind::Read, 64 * MIB);
        disk.cancel(t(0.1), RequestId(2));
        let done = drain(&mut disk);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, RequestId(1));
    }

    #[test]
    fn migration_kind_is_reported() {
        let mut disk = Disk::new(DeviceProfile::hdd());
        disk.submit(SimTime::ZERO, RequestId(9), IoKind::Migration, 64 * MIB);
        let done = drain(&mut disk);
        assert_eq!(done[0].kind, IoKind::Migration);
    }

    #[test]
    fn utilization_reflects_busy_fraction() {
        let mut disk = Disk::new(DeviceProfile::hdd());
        disk.submit(SimTime::ZERO, RequestId(1), IoKind::Read, 140 * MB);
        drain(&mut disk);
        // ~1.008 s busy; at t=2 s utilization ~50%.
        disk.advance(t(2.0));
        let u = disk.utilization(t(2.0));
        assert!((u - 0.504).abs() < 0.01, "utilization {u}");
    }

    #[test]
    fn bytes_read_accumulates() {
        let mut disk = Disk::new(DeviceProfile::ssd());
        disk.submit(SimTime::ZERO, RequestId(1), IoKind::Read, 10 * MB);
        disk.submit(SimTime::ZERO, RequestId(2), IoKind::Read, 20 * MB);
        drain(&mut disk);
        assert_eq!(disk.bytes_read(), 30 * MB);
    }

    #[test]
    fn speed_factor_slows_then_restores() {
        let profile = DeviceProfile::hdd();
        let solo = profile.solo_time(128 * MIB).as_secs_f64();
        // Degrade to 25% for the whole request: ~4x slower (seek unchanged).
        let mut disk = Disk::new(profile);
        disk.set_speed_factor(SimTime::ZERO, 0.25);
        disk.submit(SimTime::ZERO, RequestId(1), IoKind::Read, 128 * MIB);
        let done = drain(&mut disk);
        assert!(done[0].duration().as_secs_f64() > 3.0 * solo);
        // Restore and verify the next request runs at nominal speed.
        let now = disk.resource.clock();
        disk.set_speed_factor(now, 1.0);
        disk.submit(now, RequestId(2), IoKind::Read, 128 * MIB);
        let done = drain(&mut disk);
        assert!((done[0].duration().as_secs_f64() - solo).abs() < 1e-3);
    }

    #[test]
    fn speed_change_mid_request_splits_the_rate() {
        // 100 MB at 100 MB/s (ram profile is too fast; build a custom one).
        let profile = DeviceProfile {
            bandwidth: 100.0 * MB as f64,
            seek: SimDuration::ZERO,
            ..DeviceProfile::ssd()
        };
        let mut disk = Disk::new(profile);
        disk.submit(SimTime::ZERO, RequestId(1), IoKind::Read, 100 * MB);
        // Half done at 0.5 s, then halve the speed: remaining 50 MB at
        // 50 MB/s takes 1 s more -> finish at 1.5 s.
        disk.set_speed_factor(t(0.5), 0.5);
        let done = drain(&mut disk);
        assert!((done[0].finished.as_secs_f64() - 1.5).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "duplicate request id")]
    fn duplicate_request_rejected() {
        let mut disk = Disk::new(DeviceProfile::hdd());
        disk.submit(SimTime::ZERO, RequestId(1), IoKind::Read, MB);
        disk.submit(SimTime::ZERO, RequestId(1), IoKind::Read, MB);
    }

    #[test]
    #[should_panic(expected = "reserved flush range")]
    fn reserved_id_rejected() {
        let mut disk = Disk::new(DeviceProfile::hdd());
        disk.submit(SimTime::ZERO, RequestId(1 << 62), IoKind::Read, MB);
    }
}
