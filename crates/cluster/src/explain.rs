//! Migration-race explainer: folds a telemetry event stream into per-block
//! verdicts and per-job lead-time decompositions.
//!
//! The paper's central race is *migration vs. the task that wants the
//! block*: Ignem migrates cold data upward while the scheduler is still
//! paying submitter, ApplicationMaster, and heartbeat latencies, and a
//! block read hits memory only if the migration finished first. Aggregate
//! metrics say *how often* the migration won; this module says *why* it
//! lost, block by block, from the typed event stream
//! ([`ignem_simcore::telemetry`]):
//!
//! * [`Verdict::WonRace`] — the read was served from memory; `margin` is
//!   how long the migrated block sat resident before the read started.
//! * [`Verdict::LostRace`] — the read went to disk; [`LossCause`] names
//!   the furthest stage the migration reached before the read started,
//!   and `shortfall` estimates how late it was.
//!
//! The verdict fold is intentionally *reconcilable*: `World` emits
//! `BlockRead` under exactly the guard that records a
//! [`BlockRead`](crate::metrics::BlockRead) metric, so
//! [`TelemetryReport::reconcile`] can assert `#WonRace == memory reads`
//! and `#LostRace == disk reads` — any drift means the instrumentation
//! and the metrics disagree about what happened.
//!
//! Lead-time decomposition ([`JobLeadTime`]) splits the head start a job
//! unknowingly gives its migrations into queue delay (submission →
//! schedulable), heartbeat delay (schedulable → first task assignment),
//! and the migration service time spent on the job's own blocks.

// BTreeMap throughout: the report folds iterate these maps, and rule D02
// (DESIGN.md §8) demands a deterministic visit order so two replays render identical
// reports.
use std::collections::BTreeMap;

use ignem_simcore::span::CriticalPath;
use ignem_simcore::telemetry::{Event, EventRecord, ReadClass};
use ignem_simcore::time::{SimDuration, SimTime};

use crate::metrics::{ReadKind, RunMetrics};

/// Why a block read lost the migration race, ordered by how far the
/// migration got before the read started (furthest first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LossCause {
    /// The block *was* migrated but got evicted again before the read.
    Evicted,
    /// The block *was* migrated but the node crashed and its volatile
    /// store was wiped before the read: the eviction that lost it
    /// coincides with a [`NodeCrashed`](Event::NodeCrashed) on the same
    /// node at the same instant.
    LostToCrash,
    /// The disk read for the migration was in flight (or the block was
    /// resident on a node the reader didn't use) — the disk was the
    /// bottleneck.
    DiskContended,
    /// The migration command reached the slave but sat behind other
    /// queued migrations.
    QueuedBehind,
    /// The master assigned the migration but no slave ever acted on it
    /// before the read — the command was lost or still retrying.
    RpcLost,
    /// The master never assigned a migration for this block at all.
    NeverScheduled,
    /// Terminal diagnosis, not a per-read race outcome: a migration
    /// completed but was never evicted by the end of the stream — the
    /// reference lifecycle leaked it. Produced by the leak fold
    /// ([`TelemetryReport::leaked`]), never by the race fold.
    LeakedReference,
}

impl LossCause {
    /// Stable lowercase tag for CSV/JSON output.
    pub fn tag(self) -> &'static str {
        match self {
            LossCause::Evicted => "evicted",
            LossCause::LostToCrash => "lost_to_crash",
            LossCause::DiskContended => "disk_contended",
            LossCause::QueuedBehind => "queued_behind",
            LossCause::RpcLost => "rpc_lost",
            LossCause::NeverScheduled => "never_scheduled",
            LossCause::LeakedReference => "leaked_reference",
        }
    }

    /// All causes, in the order [`LossCause`] declares them.
    pub const ALL: [LossCause; 7] = [
        LossCause::Evicted,
        LossCause::LostToCrash,
        LossCause::DiskContended,
        LossCause::QueuedBehind,
        LossCause::RpcLost,
        LossCause::NeverScheduled,
        LossCause::LeakedReference,
    ];
}

/// The outcome of one block read's race against its migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The read was served from memory.
    WonRace {
        /// How long the block had been resident when the read started
        /// (zero when the completing migration fell outside the recorded
        /// window).
        margin: SimDuration,
    },
    /// The read went to disk.
    LostRace {
        /// How late the migration was: time from the read's start to the
        /// moment the block would have been (or was) available, falling
        /// back to the age of the furthest migration step when no later
        /// completion exists.
        shortfall: SimDuration,
        /// The furthest stage the migration reached before the read.
        cause: LossCause,
    },
}

impl Verdict {
    /// The loss cause, if this verdict is a loss.
    pub fn cause(&self) -> Option<LossCause> {
        match self {
            Verdict::WonRace { .. } => None,
            Verdict::LostRace { cause, .. } => Some(*cause),
        }
    }
}

/// One block read, explained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockVerdict {
    /// Reading task.
    pub task: u64,
    /// Owning job.
    pub job: u64,
    /// Block read.
    pub block: u64,
    /// Node that served the bytes.
    pub node: u32,
    /// Bytes read.
    pub bytes: u64,
    /// When the read started.
    pub read_start: SimTime,
    /// The race outcome.
    pub verdict: Verdict,
}

/// How much head start a job's migrations got, decomposed the way the
/// paper argues in §II: the block upload can overlap the job's own
/// startup latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobLeadTime {
    /// Job id.
    pub job: u64,
    /// Submission → schedulable (submitter + AM overhead).
    pub queue_delay: SimDuration,
    /// Schedulable → first task assignment (heartbeat latency).
    pub heartbeat_delay: SimDuration,
    /// Total disk time spent migrating blocks this job asked for first.
    pub migration_service: SimDuration,
}

/// Recovery lead times for one node restart: how long after the reboot
/// the master accepted the fresh incarnation's registration, and how long
/// until the first migration landed back in the node's RAM — the
/// re-ignition analogue of [`JobLeadTime`]. `None` means the stream ended
/// (or was truncated) before the milestone was witnessed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReignitionLead {
    /// The node that restarted.
    pub node: u32,
    /// When the restart happened.
    pub restarted_at: SimTime,
    /// Restart → the master accepting the new incarnation's
    /// registration ([`Event::SlaveRegistered`]).
    pub register_lead: Option<SimDuration>,
    /// Restart → the first migration completing on the node afterwards:
    /// the moment upward migration is burning again on the rebooted
    /// machine.
    pub remigrate_lead: Option<SimDuration>,
}

/// Per-`(node, block)` migration timeline, indexed in the first pass and
/// queried per read in the second.
#[derive(Debug, Default)]
struct Timeline {
    enqueued: Vec<SimTime>,
    started: Vec<SimTime>,
    completed: Vec<SimTime>,
    evicted: Vec<SimTime>,
}

impl Timeline {
    fn is_empty(&self) -> bool {
        self.enqueued.is_empty()
            && self.started.is_empty()
            && self.completed.is_empty()
            && self.evicted.is_empty()
    }

    /// Last element of a (chronologically sorted) time list at or before
    /// `t`.
    fn last_at_or_before(times: &[SimTime], t: SimTime) -> Option<SimTime> {
        times.iter().rev().find(|&&x| x <= t).copied()
    }

    /// First element strictly after `t`.
    fn first_after(times: &[SimTime], t: SimTime) -> Option<SimTime> {
        times.iter().find(|&&x| x > t).copied()
    }
}

/// A migrated block still resident at the end of the event stream: some
/// migration round completed for it after its last eviction, so a
/// reference is still pinning it ([`LossCause::LeakedReference`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeakRecord {
    /// Node holding the block.
    pub node: u32,
    /// The leaked block.
    pub block: u64,
    /// Bytes still resident.
    pub bytes: u64,
    /// Jobs that enqueued migrations for the block since its last
    /// eviction — the owners of the references that never drained.
    pub jobs: Vec<u64>,
}

/// The explainer's output: every block read's verdict, every job's
/// lead-time decomposition, end-of-stream leak records, and bulk counts
/// for reporting.
#[derive(Debug, Clone, Default)]
pub struct TelemetryReport {
    /// Per-read verdicts, in read-completion order.
    pub verdicts: Vec<BlockVerdict>,
    /// Per-job lead times, for jobs whose submission, scheduling, and
    /// first assignment all fell inside the recorded window.
    pub lead_times: Vec<JobLeadTime>,
    /// Blocks whose completed migrations outnumber their evictions at
    /// stream end, ordered by `(node, block)`. Empty for a leak-free run.
    pub leaked: Vec<LeakRecord>,
    /// Per-restart recovery lead times, in restart order. Empty for runs
    /// without [`Fault::NodeCrash`](crate::world::Fault::NodeCrash).
    pub reignitions: Vec<ReignitionLead>,
}

impl TelemetryReport {
    /// Folds an event stream (e.g.
    /// [`FlightRecorder::events`](ignem_simcore::telemetry::FlightRecorder::events))
    /// into verdicts and lead times. The stream must be in emission order;
    /// a truncated stream (ring-buffer eviction) degrades gracefully —
    /// reads whose migration history fell off the front get zero margins /
    /// `NeverScheduled` verdicts rather than errors.
    pub fn from_events(events: &[EventRecord]) -> TelemetryReport {
        // Pass 1: index migration timelines, assignments, job lifecycle
        // times, and attribute completed migration rounds to the job that
        // first asked for them.
        let mut timelines: BTreeMap<(u32, u64), Timeline> = BTreeMap::new();
        let mut assigned: BTreeMap<(u64, u64), Vec<(u32, SimTime)>> = BTreeMap::new();
        let mut submitted: BTreeMap<u64, SimTime> = BTreeMap::new();
        let mut scheduled: BTreeMap<u64, SimTime> = BTreeMap::new();
        let mut first_assign: BTreeMap<u64, SimTime> = BTreeMap::new();
        let mut migration_service: BTreeMap<u64, SimDuration> = BTreeMap::new();
        // Current migration round per (node, block): the first enqueued
        // waiter owns the round; `started` opens it, completion/waste/
        // cancellation closes it.
        let mut round_owner: BTreeMap<(u32, u64), u64> = BTreeMap::new();
        let mut round_started: BTreeMap<(u32, u64), SimTime> = BTreeMap::new();
        let mut job_order: Vec<u64> = Vec::new();
        // Leak fold state: the jobs that enqueued migrations for each
        // (node, block) since its last eviction, and the block's size as
        // witnessed by its latest completed migration.
        let mut leak_jobs: BTreeMap<(u32, u64), Vec<u64>> = BTreeMap::new();
        let mut block_bytes: BTreeMap<(u32, u64), u64> = BTreeMap::new();
        // Crash/recovery fold state: when each node crashed (to reclassify
        // same-instant evictions as crash losses) and the per-restart
        // recovery milestones.
        let mut crash_times: BTreeMap<u32, Vec<SimTime>> = BTreeMap::new();
        let mut reignitions: Vec<ReignitionLead> = Vec::new();

        for rec in events {
            match &rec.event {
                Event::JobSubmitted { job, .. } => {
                    submitted.entry(*job).or_insert(rec.at);
                    job_order.push(*job);
                }
                Event::JobScheduled { job } => {
                    scheduled.entry(*job).or_insert(rec.at);
                }
                Event::TaskAssigned { job, .. } => {
                    first_assign.entry(*job).or_insert(rec.at);
                }
                Event::MigrationAssigned {
                    job, block, node, ..
                } => {
                    assigned
                        .entry((*job, *block))
                        .or_default()
                        .push((*node, rec.at));
                }
                Event::MigrationEnqueued {
                    node, job, block, ..
                } => {
                    let key = (*node, *block);
                    timelines.entry(key).or_default().enqueued.push(rec.at);
                    round_owner.entry(key).or_insert(*job);
                    let owners = leak_jobs.entry(key).or_default();
                    if !owners.contains(job) {
                        owners.push(*job);
                    }
                }
                Event::MigrationStarted { node, block, .. } => {
                    let key = (*node, *block);
                    timelines.entry(key).or_default().started.push(rec.at);
                    round_started.insert(key, rec.at);
                }
                Event::MigrationCompleted { node, block, bytes } => {
                    let key = (*node, *block);
                    timelines.entry(key).or_default().completed.push(rec.at);
                    block_bytes.insert(key, *bytes);
                    if let (Some(owner), Some(started)) =
                        (round_owner.remove(&key), round_started.remove(&key))
                    {
                        *migration_service.entry(owner).or_default() +=
                            rec.at.saturating_duration_since(started);
                    }
                    // First completion after a restart closes that
                    // restart's re-ignition lead.
                    if let Some(r) = reignitions
                        .iter_mut()
                        .rev()
                        .find(|r| r.node == *node && r.remigrate_lead.is_none())
                    {
                        r.remigrate_lead = Some(rec.at.saturating_duration_since(r.restarted_at));
                    }
                }
                Event::MigrationWasted { node, block, .. }
                | Event::MigrationCancelled { node, block } => {
                    // The round ended without delivering the block; its
                    // `started` evidence stays in the timeline, but no
                    // service time is credited.
                    let key = (*node, *block);
                    round_owner.remove(&key);
                    round_started.remove(&key);
                }
                Event::MigrationDiscarded { node, block } => {
                    // A queued (never-started) waiter went away; release
                    // ownership only if no read is in flight.
                    let key = (*node, *block);
                    if !round_started.contains_key(&key) {
                        round_owner.remove(&key);
                    }
                }
                Event::BlockEvicted { node, block, .. } => {
                    let key = (*node, *block);
                    timelines.entry(key).or_default().evicted.push(rec.at);
                    // The eviction drained the block's references; any
                    // migration enqueued afterwards opens a fresh account.
                    leak_jobs.remove(&key);
                }
                Event::NodeCrashed { node } => {
                    crash_times.entry(*node).or_default().push(rec.at);
                }
                Event::NodeRestarted { node, .. } => {
                    reignitions.push(ReignitionLead {
                        node: *node,
                        restarted_at: rec.at,
                        register_lead: None,
                        remigrate_lead: None,
                    });
                }
                Event::SlaveRegistered { node, .. } => {
                    // Credit the latest unregistered restart of this node;
                    // duplicate deliveries are rejected by the master and
                    // never reach this event.
                    if let Some(r) = reignitions
                        .iter_mut()
                        .rev()
                        .find(|r| r.node == *node && r.register_lead.is_none())
                    {
                        r.register_lead = Some(rec.at.saturating_duration_since(r.restarted_at));
                    }
                }
                // The remaining events carry no pass-1 evidence. Each one
                // is named (no catch-all) so that adding an `Event`
                // variant forces a decision here: the compiler rejects
                // this match until the new variant is handled.
                // `BlockRead` is consumed by pass 2 below.
                Event::BlockRead { .. }
                | Event::JobCompleted { .. }
                | Event::TaskStarted { .. }
                | Event::TaskFinished { .. }
                | Event::TaskSpeculated { .. }
                | Event::MigrationRejected { .. }
                | Event::RpcSent { .. }
                | Event::RpcDropped { .. }
                | Event::RpcDuplicated { .. }
                | Event::RpcCut { .. }
                | Event::RpcRetried { .. }
                | Event::RpcAcked { .. }
                | Event::RpcGaveUp { .. }
                | Event::LeaseExpired { .. }
                | Event::EpochRejected { .. }
                | Event::IncarnationRejected { .. }
                | Event::BlockReportReceived { .. }
                | Event::RereplicationStarted { .. }
                | Event::RereplicationDeferred { .. }
                | Event::FaultInjected { .. }
                | Event::FaultHealed { .. } => {}
            }
        }

        // Pass 2: verdict per block read.
        let mut verdicts = Vec::new();
        for rec in events {
            if let Event::BlockRead {
                task,
                job,
                block,
                node,
                bytes,
                class,
                duration_us,
            } = &rec.event
            {
                let read_start =
                    SimTime::from_micros(rec.at.as_micros().saturating_sub(*duration_us));
                let verdict = match class {
                    ReadClass::Memory => {
                        let margin = timelines
                            .get(&(*node, *block))
                            .and_then(|tl| Timeline::last_at_or_before(&tl.completed, read_start))
                            .map(|done| read_start.saturating_duration_since(done))
                            .unwrap_or(SimDuration::ZERO);
                        Verdict::WonRace { margin }
                    }
                    ReadClass::LocalDisk | ReadClass::RemoteDisk => explain_disk_read(
                        &timelines,
                        &assigned,
                        &crash_times,
                        *job,
                        *block,
                        read_start,
                    ),
                };
                verdicts.push(BlockVerdict {
                    task: *task,
                    job: *job,
                    block: *block,
                    node: *node,
                    bytes: *bytes,
                    read_start,
                    verdict,
                });
            }
        }

        // Lead times, in submission order, for jobs fully inside the
        // recorded window.
        let mut lead_times = Vec::new();
        for job in job_order {
            let (Some(&sub), Some(&sched), Some(&assign)) = (
                submitted.get(&job),
                scheduled.get(&job),
                first_assign.get(&job),
            ) else {
                continue;
            };
            lead_times.push(JobLeadTime {
                job,
                queue_delay: sched.saturating_duration_since(sub),
                heartbeat_delay: assign.saturating_duration_since(sched),
                migration_service: migration_service
                    .get(&job)
                    .copied()
                    .unwrap_or(SimDuration::ZERO),
            });
        }

        // Leak fold: a block whose completed migrations outnumber its
        // evictions is still resident, pinned by references that never
        // drained ([`LossCause::LeakedReference`]).
        let mut leaked: Vec<LeakRecord> = Vec::new();
        for (&key, tl) in &timelines {
            if tl.completed.len() > tl.evicted.len() {
                leaked.push(LeakRecord {
                    node: key.0,
                    block: key.1,
                    bytes: block_bytes.get(&key).copied().unwrap_or(0),
                    jobs: leak_jobs.get(&key).cloned().unwrap_or_default(),
                });
            }
        }

        TelemetryReport {
            verdicts,
            lead_times,
            leaked,
            reignitions,
        }
    }

    /// Number of reads that won the race (memory reads).
    pub fn won(&self) -> usize {
        self.verdicts
            .iter()
            .filter(|v| matches!(v.verdict, Verdict::WonRace { .. }))
            .count()
    }

    /// Number of reads that lost the race (disk reads), all causes.
    pub fn lost(&self) -> usize {
        self.verdicts.len() - self.won()
    }

    /// Number of lost reads with the given cause.
    pub fn lost_with(&self, cause: LossCause) -> usize {
        self.verdicts
            .iter()
            .filter(|v| v.verdict.cause() == Some(cause))
            .count()
    }

    /// Checks that the verdicts agree with a run's metrics: one verdict
    /// per recorded block read, `#WonRace` equal to the memory-read count,
    /// and `#LostRace` (all causes) equal to the disk-read count. Returns
    /// a description of the first mismatch.
    ///
    /// Only meaningful when the flight recorder kept the whole run (no
    /// ring-buffer eviction); a truncated stream legitimately undercounts.
    pub fn reconcile(&self, metrics: &RunMetrics) -> Result<(), String> {
        if self.verdicts.len() != metrics.block_reads.len() {
            return Err(format!(
                "verdict count {} != recorded block reads {}",
                self.verdicts.len(),
                metrics.block_reads.len()
            ));
        }
        let mem = metrics
            .block_reads
            .iter()
            .filter(|r| r.kind == ReadKind::Memory)
            .count();
        if self.won() != mem {
            return Err(format!(
                "{} WonRace verdicts != {mem} memory reads",
                self.won()
            ));
        }
        let disk = metrics.block_reads.len() - mem;
        if self.lost() != disk {
            return Err(format!(
                "{} LostRace verdicts != {disk} disk reads",
                self.lost()
            ));
        }
        Ok(())
    }
}

/// Cross-checks the span-based critical path against the explainer's
/// lead-time decomposition and a run's metrics, by **integer equality**:
/// for every job the explainer decomposed, the span forest's `queueing`,
/// `master_processing` and `disk_contention` sums must equal the
/// explainer's `queue_delay`, `heartbeat_delay` and `migration_service`
/// exactly, and the forest's retry count must equal the master's retry
/// counter. Returns a description of the first mismatch.
///
/// Only meaningful on an untruncated stream (no ring-buffer eviction) —
/// both folds degrade gracefully under truncation, but not identically.
pub fn reconcile_critical_path(
    path: &CriticalPath,
    report: &TelemetryReport,
    metrics: &RunMetrics,
) -> Result<(), String> {
    for lt in &report.lead_times {
        let Some(j) = path.job(lt.job) else {
            return Err(format!("job {} missing from the critical path", lt.job));
        };
        if j.queueing != lt.queue_delay {
            return Err(format!(
                "job {}: span queueing {} != explainer queue_delay {}",
                lt.job,
                j.queueing.as_micros(),
                lt.queue_delay.as_micros()
            ));
        }
        if j.master_processing != lt.heartbeat_delay {
            return Err(format!(
                "job {}: span master_processing {} != explainer heartbeat_delay {}",
                lt.job,
                j.master_processing.as_micros(),
                lt.heartbeat_delay.as_micros()
            ));
        }
        if j.disk_contention != lt.migration_service {
            return Err(format!(
                "job {}: span disk_contention {} != explainer migration_service {}",
                lt.job,
                j.disk_contention.as_micros(),
                lt.migration_service.as_micros()
            ));
        }
    }
    if path.retries != metrics.master_stats.retries {
        return Err(format!(
            "span forest saw {} retries, master counted {}",
            path.retries, metrics.master_stats.retries
        ));
    }
    Ok(())
}

/// Ranks how far a migration got on one node by `read_start` and derives
/// the verdict; the caller keeps the max-progress verdict across every
/// node the master assigned.
fn explain_disk_read(
    timelines: &BTreeMap<(u32, u64), Timeline>,
    assigned: &BTreeMap<(u64, u64), Vec<(u32, SimTime)>>,
    crash_times: &BTreeMap<u32, Vec<SimTime>>,
    job: u64,
    block: u64,
    read_start: SimTime,
) -> Verdict {
    let Some(assignments) = assigned.get(&(job, block)).filter(|a| !a.is_empty()) else {
        return Verdict::LostRace {
            shortfall: SimDuration::ZERO,
            cause: LossCause::NeverScheduled,
        };
    };
    let first_assigned_at = assignments[0].1;

    // (rank, shortfall, cause): higher rank = the migration got further.
    let mut best: Option<(u8, SimDuration, LossCause)> = None;
    for &(node, _) in assignments {
        let Some(tl) = timelines.get(&(node, block)).filter(|tl| !tl.is_empty()) else {
            continue;
        };
        let completed = Timeline::last_at_or_before(&tl.completed, read_start);
        let evicted = Timeline::last_at_or_before(&tl.evicted, read_start);
        let started = Timeline::last_at_or_before(&tl.started, read_start);
        let enqueued = Timeline::last_at_or_before(&tl.enqueued, read_start);

        let candidate = if let Some(done) = completed {
            match evicted {
                Some(gone) if gone >= done => {
                    // A crash purge evicts at the crash instant
                    // (`NodeCrashed` is emitted first, same timestamp):
                    // the block wasn't released, it went down with the
                    // machine's volatile store.
                    let crashed = crash_times.get(&node).is_some_and(|ts| ts.contains(&gone));
                    (
                        3,
                        read_start.saturating_duration_since(gone),
                        if crashed {
                            LossCause::LostToCrash
                        } else {
                            LossCause::Evicted
                        },
                    )
                }
                // Resident on this node at read time, yet the reader used
                // another replica's disk: the contended disk path won the
                // planner's cost model, so charge contention with no
                // measurable shortfall.
                _ => (3, SimDuration::ZERO, LossCause::DiskContended),
            }
        } else if let Some(begun) = started {
            let shortfall = Timeline::first_after(&tl.completed, read_start)
                .map(|done| done.saturating_duration_since(read_start))
                .unwrap_or_else(|| read_start.saturating_duration_since(begun));
            (2, shortfall, LossCause::DiskContended)
        } else if let Some(queued) = enqueued {
            let shortfall = Timeline::first_after(&tl.started, read_start)
                .map(|begun| begun.saturating_duration_since(read_start))
                .unwrap_or_else(|| read_start.saturating_duration_since(queued));
            (1, shortfall, LossCause::QueuedBehind)
        } else {
            // The slave acted on the block only after the read began — the
            // command effectively arrived too late; treated like a lost
            // command below.
            continue;
        };
        if best.map(|(rank, ..)| candidate.0 > rank).unwrap_or(true) {
            best = Some(candidate);
        }
    }

    match best {
        Some((_, shortfall, cause)) => Verdict::LostRace { shortfall, cause },
        None => Verdict::LostRace {
            shortfall: read_start.saturating_duration_since(first_assigned_at),
            cause: LossCause::RpcLost,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, at_us: u64, event: Event) -> EventRecord {
        EventRecord {
            seq,
            at: SimTime::from_micros(at_us),
            event,
        }
    }

    fn read(at_us: u64, class: ReadClass, duration_us: u64) -> Event {
        let _ = at_us;
        Event::BlockRead {
            task: 1,
            job: 1,
            block: 10,
            node: 0,
            bytes: 64,
            class,
            duration_us,
        }
    }

    fn migration_chain(job: u64, block: u64, node: u32) -> Vec<Event> {
        vec![
            Event::MigrationAssigned {
                job,
                block,
                node,
                bytes: 64,
            },
            Event::MigrationEnqueued {
                node,
                job,
                block,
                bytes: 64,
            },
            Event::MigrationStarted {
                node,
                block,
                bytes: 64,
            },
            Event::MigrationCompleted {
                node,
                block,
                bytes: 64,
            },
        ]
    }

    #[test]
    fn memory_read_wins_with_margin() {
        let mut events: Vec<EventRecord> = Vec::new();
        for (i, ev) in migration_chain(1, 10, 0).into_iter().enumerate() {
            events.push(rec(i as u64, (i as u64 + 1) * 1_000, ev));
        }
        // Read starts at t=10_000 (completes 12_000 after 2_000us); the
        // migration completed at t=4_000 → margin 6_000us.
        events.push(rec(4, 12_000, read(12_000, ReadClass::Memory, 2_000)));
        let report = TelemetryReport::from_events(&events);
        assert_eq!(report.won(), 1);
        assert_eq!(
            report.verdicts[0].verdict,
            Verdict::WonRace {
                margin: SimDuration::from_micros(6_000)
            }
        );
    }

    #[test]
    fn unassigned_block_is_never_scheduled() {
        let events = vec![rec(0, 5_000, read(5_000, ReadClass::LocalDisk, 1_000))];
        let report = TelemetryReport::from_events(&events);
        assert_eq!(report.lost_with(LossCause::NeverScheduled), 1);
    }

    #[test]
    fn assigned_but_silent_slave_is_rpc_lost() {
        let events = vec![
            rec(
                0,
                1_000,
                Event::MigrationAssigned {
                    job: 1,
                    block: 10,
                    node: 3,
                    bytes: 64,
                },
            ),
            rec(1, 9_000, read(9_000, ReadClass::LocalDisk, 1_000)),
        ];
        let report = TelemetryReport::from_events(&events);
        assert_eq!(report.lost_with(LossCause::RpcLost), 1);
        assert_eq!(
            report.verdicts[0].verdict,
            Verdict::LostRace {
                // read_start 8_000 − assigned 1_000.
                shortfall: SimDuration::from_micros(7_000),
                cause: LossCause::RpcLost,
            }
        );
    }

    #[test]
    fn in_flight_migration_is_disk_contended_with_completion_shortfall() {
        let events = vec![
            rec(
                0,
                1_000,
                Event::MigrationAssigned {
                    job: 1,
                    block: 10,
                    node: 0,
                    bytes: 64,
                },
            ),
            rec(
                1,
                1_500,
                Event::MigrationEnqueued {
                    node: 0,
                    job: 1,
                    block: 10,
                    bytes: 64,
                },
            ),
            rec(
                2,
                2_000,
                Event::MigrationStarted {
                    node: 0,
                    block: 10,
                    bytes: 64,
                },
            ),
            // Read starts at 4_000 while the migration is still on disk…
            rec(3, 5_000, read(5_000, ReadClass::LocalDisk, 1_000)),
            // …and it finally lands at 7_000: shortfall 3_000.
            rec(
                4,
                7_000,
                Event::MigrationCompleted {
                    node: 0,
                    block: 10,
                    bytes: 64,
                },
            ),
        ];
        let report = TelemetryReport::from_events(&events);
        assert_eq!(
            report.verdicts[0].verdict,
            Verdict::LostRace {
                shortfall: SimDuration::from_micros(3_000),
                cause: LossCause::DiskContended,
            }
        );
    }

    #[test]
    fn queued_migration_is_queued_behind() {
        let events = vec![
            rec(
                0,
                1_000,
                Event::MigrationAssigned {
                    job: 1,
                    block: 10,
                    node: 0,
                    bytes: 64,
                },
            ),
            rec(
                1,
                1_500,
                Event::MigrationEnqueued {
                    node: 0,
                    job: 1,
                    block: 10,
                    bytes: 64,
                },
            ),
            rec(2, 5_000, read(5_000, ReadClass::LocalDisk, 1_000)),
        ];
        let report = TelemetryReport::from_events(&events);
        assert_eq!(
            report.verdicts[0].verdict,
            Verdict::LostRace {
                // No later start recorded: age since enqueue, 4_000 − 1_500.
                shortfall: SimDuration::from_micros(2_500),
                cause: LossCause::QueuedBehind,
            }
        );
    }

    #[test]
    fn evicted_block_is_evicted() {
        let mut events: Vec<EventRecord> = Vec::new();
        for (i, ev) in migration_chain(1, 10, 0).into_iter().enumerate() {
            events.push(rec(i as u64, (i as u64 + 1) * 1_000, ev));
        }
        events.push(rec(
            4,
            6_000,
            Event::BlockEvicted {
                node: 0,
                block: 10,
                bytes: 64,
            },
        ));
        events.push(rec(5, 10_000, read(10_000, ReadClass::LocalDisk, 1_000)));
        let report = TelemetryReport::from_events(&events);
        assert_eq!(
            report.verdicts[0].verdict,
            Verdict::LostRace {
                // read_start 9_000 − evicted 6_000.
                shortfall: SimDuration::from_micros(3_000),
                cause: LossCause::Evicted,
            }
        );
    }

    #[test]
    fn crash_purge_eviction_is_lost_to_crash() {
        let mut events: Vec<EventRecord> = Vec::new();
        for (i, ev) in migration_chain(1, 10, 0).into_iter().enumerate() {
            events.push(rec(i as u64, (i as u64 + 1) * 1_000, ev));
        }
        // The node crashes at t=6_000; the purge evicts the block at the
        // same instant.
        events.push(rec(4, 6_000, Event::NodeCrashed { node: 0 }));
        events.push(rec(
            5,
            6_000,
            Event::BlockEvicted {
                node: 0,
                block: 10,
                bytes: 64,
            },
        ));
        events.push(rec(6, 10_000, read(10_000, ReadClass::LocalDisk, 1_000)));
        let report = TelemetryReport::from_events(&events);
        assert_eq!(
            report.verdicts[0].verdict,
            Verdict::LostRace {
                shortfall: SimDuration::from_micros(3_000),
                cause: LossCause::LostToCrash,
            }
        );
        assert_eq!(LossCause::LostToCrash.tag(), "lost_to_crash");
    }

    #[test]
    fn ordinary_eviction_stays_evicted_despite_other_node_crash() {
        let mut events: Vec<EventRecord> = Vec::new();
        for (i, ev) in migration_chain(1, 10, 0).into_iter().enumerate() {
            events.push(rec(i as u64, (i as u64 + 1) * 1_000, ev));
        }
        // A *different* node crashes at the eviction instant: no
        // reclassification.
        events.push(rec(4, 6_000, Event::NodeCrashed { node: 3 }));
        events.push(rec(
            5,
            6_000,
            Event::BlockEvicted {
                node: 0,
                block: 10,
                bytes: 64,
            },
        ));
        events.push(rec(6, 10_000, read(10_000, ReadClass::LocalDisk, 1_000)));
        let report = TelemetryReport::from_events(&events);
        assert_eq!(report.lost_with(LossCause::Evicted), 1);
        assert_eq!(report.lost_with(LossCause::LostToCrash), 0);
    }

    #[test]
    fn reignition_leads_pair_restart_register_and_first_completion() {
        let mut events = vec![
            rec(0, 2_000, Event::NodeCrashed { node: 0 }),
            rec(
                1,
                7_000,
                Event::NodeRestarted {
                    node: 0,
                    incarnation: 2,
                },
            ),
            rec(
                2,
                8_500,
                Event::SlaveRegistered {
                    node: 0,
                    incarnation: 2,
                },
            ),
        ];
        for (i, ev) in migration_chain(1, 10, 0).into_iter().enumerate() {
            events.push(rec(3 + i as u64, 9_000 + (i as u64 + 1) * 1_000, ev));
        }
        let report = TelemetryReport::from_events(&events);
        assert_eq!(report.reignitions.len(), 1);
        let r = report.reignitions[0];
        assert_eq!(r.node, 0);
        assert_eq!(r.restarted_at, SimTime::from_micros(7_000));
        assert_eq!(r.register_lead, Some(SimDuration::from_micros(1_500)));
        // First completion at 13_000 → lead 6_000 from the restart.
        assert_eq!(r.remigrate_lead, Some(SimDuration::from_micros(6_000)));
    }

    #[test]
    fn unrecovered_restart_leaves_leads_unwitnessed() {
        let events = vec![rec(
            0,
            7_000,
            Event::NodeRestarted {
                node: 2,
                incarnation: 5,
            },
        )];
        let report = TelemetryReport::from_events(&events);
        assert_eq!(report.reignitions.len(), 1);
        assert_eq!(report.reignitions[0].register_lead, None);
        assert_eq!(report.reignitions[0].remigrate_lead, None);
    }

    #[test]
    fn lead_time_decomposes_and_attributes_migration_service() {
        let mut events = vec![
            rec(
                0,
                1_000,
                Event::JobSubmitted {
                    job: 1,
                    name: "wc".into(),
                    plan: 0,
                    stage: 0,
                },
            ),
            rec(1, 4_000, Event::JobScheduled { job: 1 }),
        ];
        for (i, ev) in migration_chain(1, 10, 0).into_iter().enumerate() {
            events.push(rec(2 + i as u64, 4_000 + (i as u64 + 1) * 1_000, ev));
        }
        events.push(rec(
            6,
            10_000,
            Event::TaskAssigned {
                task: 1,
                job: 1,
                node: 0,
            },
        ));
        let report = TelemetryReport::from_events(&events);
        assert_eq!(report.lead_times.len(), 1);
        let lt = report.lead_times[0];
        assert_eq!(lt.queue_delay, SimDuration::from_micros(3_000));
        assert_eq!(lt.heartbeat_delay, SimDuration::from_micros(6_000));
        // Started at 7_000, completed at 8_000.
        assert_eq!(lt.migration_service, SimDuration::from_micros(1_000));
    }

    #[test]
    fn unevicted_completion_is_a_leaked_reference() {
        // A full migration chain with no eviction by stream end: the leak
        // fold must name the block, its bytes, and the owning job.
        let mut events: Vec<EventRecord> = Vec::new();
        for (i, ev) in migration_chain(3, 15, 0).into_iter().enumerate() {
            events.push(rec(i as u64, (i as u64 + 1) * 1_000, ev));
        }
        let report = TelemetryReport::from_events(&events);
        assert_eq!(
            report.leaked,
            vec![LeakRecord {
                node: 0,
                block: 15,
                bytes: 64,
                jobs: vec![3],
            }]
        );
        assert_eq!(LossCause::LeakedReference.tag(), "leaked_reference");
    }

    #[test]
    fn evicted_block_is_not_leaked() {
        let mut events: Vec<EventRecord> = Vec::new();
        for (i, ev) in migration_chain(3, 15, 0).into_iter().enumerate() {
            events.push(rec(i as u64, (i as u64 + 1) * 1_000, ev));
        }
        events.push(rec(
            4,
            9_000,
            Event::BlockEvicted {
                node: 0,
                block: 15,
                bytes: 64,
            },
        ));
        let report = TelemetryReport::from_events(&events);
        assert!(report.leaked.is_empty());
    }

    #[test]
    fn reconcile_spots_count_drift() {
        let events = vec![rec(0, 5_000, read(5_000, ReadClass::Memory, 1_000))];
        let report = TelemetryReport::from_events(&events);
        let mut metrics = RunMetrics::default();
        assert!(report.reconcile(&metrics).is_err());
        metrics.block_reads.push(crate::metrics::BlockRead {
            bytes: 64,
            secs: 0.001,
            kind: ReadKind::Memory,
        });
        assert!(report.reconcile(&metrics).is_ok());
        metrics.block_reads[0].kind = ReadKind::LocalDisk;
        assert!(report.reconcile(&metrics).is_err());
    }
}
