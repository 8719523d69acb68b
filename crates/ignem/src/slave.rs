//! The Ignem slave: the *how* and *when* of migration.
//!
//! One slave runs inside each DataNode. It implements the paper's §III-A
//! mechanisms in full:
//!
//! * a **migration queue** drained by a [`Policy`] (smallest-job-first by
//!   default), migrating **one block at a time** to avoid disk-seek
//!   thrashing, **work-conserving** (never idle while work is queued and
//!   memory is available);
//! * **reference lists**: each migrated block holds the set of job IDs
//!   expected to read it; a block is evicted exactly when its list empties
//!   (explicit evict command, implicit eviction on read, or dead-job
//!   cleanup) — so the migration buffer cannot leak;
//! * the **do-not-harm rule**: a resident block is never evicted to make
//!   room for another migration; blocked migrations wait;
//! * a **memory-occupancy threshold** that triggers a scheduler liveness
//!   query to garbage-collect references held by failed jobs;
//! * **failure handling**: on master failure the slave purges all reference
//!   lists (consistency with the new master's empty state); on slave
//!   restart all migrated data is discarded.
//!
//! The slave is engine-agnostic: it owns no clock and performs no IO.
//! Methods return [`SlaveAction`]s that the cluster layer converts into
//! disk requests and scheduler queries, and the cluster feeds completions
//! back in. The per-node memory ([`MemStore`]) is owned by the cluster and
//! passed in, since pinned (vmtouch) blocks share it.

use ignem_dfs::block::BlockId;
use ignem_netsim::rpc::{Epoch, Incarnation};
use ignem_netsim::NodeId;
use ignem_simcore::idmap::{IdMap, IdSet};
use ignem_simcore::metrics::MetricsRegistry;
use ignem_simcore::telemetry::{Event, Telemetry};
use ignem_simcore::time::{SimDuration, SimTime};
use ignem_storage::memstore::{MemStore, Residency};

use crate::command::{EvictionMode, JobId, MigrateCommand};
use crate::policy::{Policy, QueueKey};

/// Configuration of a slave.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IgnemConfig {
    /// Maximum bytes of migrated data the slave may hold ("Ignem limits the
    /// amount of migrated data to a configurable maximum threshold").
    pub buffer_capacity: u64,
    /// Occupancy fraction of `buffer_capacity` at which a blocked slave
    /// queries the scheduler for dead jobs (§III-A4 cleanup).
    pub cleanup_threshold: f64,
    /// Minimum time between consecutive liveness queries, so a persistently
    /// blocked slave does not hammer the scheduler.
    pub liveness_cooldown: SimDuration,
    /// Maximum concurrent migration reads per slave. The paper uses **1**
    /// ("each slave only migrates one block at a time") to avoid disk
    /// bandwidth degradation from concurrent reads; higher values exist for
    /// the ablation benches.
    pub max_concurrent_migrations: usize,
    /// Queue-ordering policy.
    pub policy: Policy,
    /// Reference lease duration. When set, every job holding interest on
    /// this slave carries a lease that must be renewed (by a new command,
    /// a reference materializing, the job reading a block here, or a
    /// liveness reply confirming the job alive) within this duration;
    /// un-renewed leases expire and the job's references are released, so
    /// references orphaned by partitions or stale retransmissions are
    /// reclaimed deterministically. `None` disables leases entirely (the
    /// legacy lifecycle, which relies on the cluster's cleanup sweep and
    /// is known to race the fault schedule — see the seed-304 leak).
    pub lease: Option<SimDuration>,
}

impl Default for IgnemConfig {
    /// 16 GiB buffer (plenty per §II-C2's worst-case 12.5 GB analysis),
    /// cleanup at 80% occupancy, smallest-job-first, no leases (fault-free
    /// runs need none and stay bit-identical to the pre-lease lifecycle).
    fn default() -> Self {
        IgnemConfig {
            buffer_capacity: 16 << 30,
            cleanup_threshold: 0.8,
            liveness_cooldown: SimDuration::from_secs(5),
            max_concurrent_migrations: 1,
            policy: Policy::SmallestJobFirst,
            lease: None,
        }
    }
}

/// An instruction from the slave to its host (the cluster layer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlaveAction {
    /// Issue a migration read of `bytes` for `block` on this node's disk;
    /// call [`IgnemSlave::on_read_done`] when it completes.
    StartRead {
        /// Block to read.
        block: BlockId,
        /// Block size.
        bytes: u64,
    },
    /// Cancel the in-flight migration read for `block` (slave restart).
    CancelRead {
        /// Block whose read should be cancelled.
        block: BlockId,
    },
    /// Ask the cluster scheduler which of `jobs` are no longer running and
    /// call [`IgnemSlave::on_liveness_result`] with the dead ones.
    QueryJobLiveness {
        /// Candidate jobs (every job holding references on this slave).
        jobs: Vec<JobId>,
    },
}

/// Slave activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlaveStats {
    /// Migrate commands received.
    pub commands: u64,
    /// Blocks successfully migrated into memory.
    pub migrated: u64,
    /// Bytes successfully migrated into memory.
    pub migrated_bytes: u64,
    /// Commands satisfied by a block already resident or in flight
    /// (reference added, no extra read).
    pub deduped: u64,
    /// Queued migrations discarded because every interested job already
    /// read the block (missed reads) or died.
    pub discarded: u64,
    /// Migration reads that completed with no interested job left; the
    /// block was dropped without entering memory.
    pub wasted_reads: u64,
    /// Blocks evicted: every removal of a migrated-resident block, whether
    /// its reference list emptied or a purge dropped it wholesale. Matches
    /// the number of `BlockEvicted` telemetry events one-for-one.
    pub evicted: u64,
    /// Bytes released from the migration buffer across every evict and
    /// purge path — the debit side of the residency ledger. At all times
    /// `migrated_bytes - evicted_bytes` equals the bytes currently
    /// migrated-resident in this node's memory.
    pub evicted_bytes: u64,
    /// Full purges performed (master failure / slave restart).
    pub purges: u64,
    /// Liveness queries issued.
    pub liveness_queries: u64,
    /// Commands rejected because they carried a stale master epoch (a
    /// retransmission from an incarnation that has since failed over).
    pub stale_epochs: u64,
    /// Job leases that expired un-renewed, releasing the job's references.
    pub lease_expiries: u64,
    /// Commands rejected because they were addressed to a dead incarnation
    /// of this slave (issued before its last crash/restart cycle).
    pub stale_incarnations: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Waiter {
    job: JobId,
    mode: EvictionMode,
    job_input_bytes: u64,
    submitted: SimTime,
}

#[derive(Debug, Clone)]
struct QueuedBlock {
    bytes: u64,
    waiters: Vec<Waiter>,
    arrival: u64,
}

impl QueuedBlock {
    fn key(&self) -> QueueKey {
        QueueKey {
            job_input_bytes: self
                .waiters
                .iter()
                .map(|w| w.job_input_bytes)
                .min()
                .unwrap_or(u64::MAX),
            submitted: self
                .waiters
                .iter()
                .map(|w| w.submitted)
                .min()
                .unwrap_or(SimTime::MAX),
            arrival: self.arrival,
        }
    }
}

#[derive(Debug, Clone)]
struct CurrentMigration {
    bytes: u64,
    waiters: Vec<Waiter>,
}

/// The per-DataNode migration agent (see module docs).
#[derive(Debug, Clone)]
pub struct IgnemSlave {
    node: NodeId,
    config: IgnemConfig,
    queue: IdMap<BlockId, QueuedBlock>,
    current: IdMap<BlockId, CurrentMigration>,
    /// Reference lists of **resident migrated** blocks.
    refs: IdMap<BlockId, Vec<(JobId, EvictionMode)>>,
    /// Paper §III-B2: "Each slave has a hash-map that maps a job's ID to the
    /// list of blocks migrated for the job" — the eviction index. Tracks
    /// resident, queued and in-flight interest.
    job_blocks: IdMap<JobId, IdSet<BlockId>>,
    /// Highest master epoch observed; commands stamped lower are stale.
    epoch: Epoch,
    /// Which boot of this daemon is running. Bumped by
    /// [`restart`](Self::restart) after a crash; commands addressed to an
    /// older incarnation are rejected (they were issued for a boot whose
    /// state died with it).
    incarnation: Incarnation,
    /// Per-job lease expiry instants (populated only when
    /// [`IgnemConfig::lease`] is set; keys mirror `job_blocks`).
    lease_expiry: IdMap<JobId, SimTime>,
    arrivals: u64,
    liveness_pending: bool,
    /// Bumped by every mutating entry point; paired with
    /// [`MemStore::version`], it lets a per-event validator skip slaves
    /// whose state provably did not change since the last audit.
    version: u64,
    last_liveness: Option<SimTime>,
    stats: SlaveStats,
    /// Typed event emission (disabled by default).
    telemetry: Telemetry,
    /// Sim-time metrics (disabled by default).
    metrics: MetricsRegistry,
}

impl IgnemSlave {
    /// Creates a slave for `node`.
    ///
    /// # Panics
    ///
    /// Panics if the cleanup threshold is outside `(0, 1]` or the buffer
    /// capacity is zero.
    pub fn new(node: NodeId, config: IgnemConfig) -> Self {
        assert!(config.buffer_capacity > 0, "zero buffer capacity");
        assert!(
            config.cleanup_threshold > 0.0 && config.cleanup_threshold <= 1.0,
            "cleanup threshold must be in (0, 1]"
        );
        IgnemSlave {
            node,
            config,
            queue: IdMap::new(),
            current: IdMap::new(),
            refs: IdMap::new(),
            job_blocks: IdMap::new(),
            epoch: Epoch::FIRST,
            incarnation: Incarnation::FIRST,
            lease_expiry: IdMap::new(),
            arrivals: 0,
            liveness_pending: false,
            version: 0,
            last_liveness: None,
            stats: SlaveStats::default(),
            telemetry: Telemetry::default(),
            metrics: MetricsRegistry::default(),
        }
    }

    /// Installs a telemetry handle; the slave then emits the migration
    /// lifecycle events (enqueued / started / completed / wasted /
    /// discarded / evicted).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Installs a sim-time metrics handle; the slave then gauges its
    /// migration-queue depth and counts evicted bytes.
    pub fn set_metrics(&mut self, metrics: MetricsRegistry) {
        self.metrics = metrics;
    }

    /// The node this slave runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The slave's configuration.
    pub fn config(&self) -> &IgnemConfig {
        &self.config
    }

    /// Activity counters.
    pub fn stats(&self) -> SlaveStats {
        self.stats
    }

    /// Number of blocks queued (not yet started).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Whether any migration read is in flight.
    pub fn is_migrating(&self) -> bool {
        !self.current.is_empty()
    }

    /// Number of migration reads in flight.
    pub fn in_flight_migrations(&self) -> usize {
        self.current.len()
    }

    /// The reference list of a resident migrated block, if any.
    pub fn references(&self, block: BlockId) -> Option<&[(JobId, EvictionMode)]> {
        self.refs.get(&block).map(|v| v.as_slice())
    }

    /// Jobs currently holding any reference (resident, queued or in flight).
    pub fn interested_jobs(&self) -> Vec<JobId> {
        self.job_blocks.keys().collect()
    }

    /// Whether any job holds a reference — `interested_jobs().is_empty()`
    /// without the allocation. Cluster-wide sweeps test this per node, so
    /// at datacenter scale it must stay O(1).
    pub fn has_interest(&self) -> bool {
        !self.job_blocks.is_empty()
    }

    /// Total `(job, block)` reference entries on resident migrated blocks
    /// (the leak-freedom quantity: zero once every job's data is reclaimed).
    pub fn total_references(&self) -> usize {
        self.refs.values().map(Vec::len).sum()
    }

    /// The highest master epoch this slave has observed.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// The incarnation this slave is currently running under.
    pub fn incarnation(&self) -> Incarnation {
        self.incarnation
    }

    /// Observes the destination incarnation stamped on an incoming master
    /// message. Returns `false` — and the message must be dropped without
    /// an acknowledgement — when it was addressed to an older boot of this
    /// daemon: the state the sender was talking to died in the crash, and
    /// applying the command would resurrect references the recovery
    /// protocol already fenced off. Messages stamped with the current (or,
    /// defensively, a newer) incarnation pass through.
    pub fn observe_incarnation(&mut self, incarnation: Incarnation) -> bool {
        if incarnation < self.incarnation {
            self.version += 1;
            self.stats.stale_incarnations += 1;
            let (stale, current) = (incarnation.0, self.incarnation.0);
            self.telemetry.emit(|| Event::IncarnationRejected {
                node: self.node.0,
                stale,
                current,
            });
            return false;
        }
        true
    }

    /// Boots the slave after a crash, under a fresh incarnation. The
    /// volatile purge already happened at crash time ([`fail`](Self::fail)
    /// plus the host wiping the MemStore); this models the process coming
    /// back with empty state, durable knowledge (the observed master
    /// epoch) intact, and a new boot id to re-register under. Returns the
    /// new incarnation for the registration handshake.
    pub fn restart(&mut self) -> Incarnation {
        self.version += 1;
        self.incarnation = self.incarnation.next();
        self.incarnation
    }

    /// Monotone mutation counter: advances on every state-changing entry
    /// point. Two equal readings (combined with the paired MemStore's
    /// [`version`](MemStore::version)) guarantee the slave was not mutated
    /// in between, so an invariant checker may reuse its last verdict.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Observes the epoch stamped on an incoming master message, deciding
    /// whether the message may be applied.
    ///
    /// * `epoch` **older** than the highest seen: the sender's incarnation
    ///   failed over after issuing the message (a retransmission that
    ///   outlived its master). The message must be dropped — applying it
    ///   would resurrect state the failover purged. Returns `None`; the
    ///   rejection is idempotent (counted, emitted, no state change).
    /// * `epoch` **equal**: apply normally; returns `Some` empty actions.
    /// * `epoch` **newer**: the slave missed the failover notification
    ///   (e.g. it was partitioned away when the cluster broadcast it).
    ///   Adopt the new incarnation by purging exactly as
    ///   [`on_master_failed`](Self::on_master_failed) would, then apply
    ///   the message; returns `Some` with the purge's cancel actions.
    pub fn observe_epoch(
        &mut self,
        now: SimTime,
        epoch: Epoch,
        mem: &mut MemStore<BlockId>,
    ) -> Option<Vec<SlaveAction>> {
        self.version += 1;
        match epoch.cmp(&self.epoch) {
            std::cmp::Ordering::Less => {
                self.stats.stale_epochs += 1;
                let (stale, current) = (epoch.0, self.epoch.0);
                self.telemetry.emit(|| Event::EpochRejected {
                    node: self.node.0,
                    stale,
                    current,
                });
                None
            }
            std::cmp::Ordering::Equal => Some(Vec::new()),
            std::cmp::Ordering::Greater => {
                let actions = self.purge_for_new_master(now, mem);
                self.epoch = epoch;
                Some(actions)
            }
        }
    }

    /// The earliest instant at which a job lease expires, if any lease is
    /// outstanding. The cluster layer arms a timer for this instant and
    /// calls [`expire_leases`](Self::expire_leases) when it fires.
    pub fn next_lease_expiry(&self) -> Option<SimTime> {
        self.lease_expiry.values().min().copied()
    }

    /// Every outstanding job lease as `(job, expiry)`, ascending by job
    /// id — rendered by the time-travel debugger.
    pub fn leases(&self) -> Vec<(JobId, SimTime)> {
        self.lease_expiry.iter().map(|(j, t)| (j, *t)).collect()
    }

    /// Releases every job whose lease expired at or before `now`. Expired
    /// jobs are treated exactly like jobs a liveness reply declared dead:
    /// resident references are dropped (evicting emptied blocks), queued
    /// and in-flight interest is discarded.
    pub fn expire_leases(&mut self, now: SimTime, mem: &mut MemStore<BlockId>) -> Vec<SlaveAction> {
        self.version += 1;
        let expired: Vec<JobId> = self
            .lease_expiry
            .iter()
            .filter(|&(_, &at)| at <= now)
            .map(|(job, _)| job)
            .collect();
        if expired.is_empty() {
            return Vec::new();
        }
        for job in expired {
            self.stats.lease_expiries += 1;
            self.telemetry.emit(|| Event::LeaseExpired {
                node: self.node.0,
                job: job.0,
            });
            self.release_job(now, job, mem);
        }
        self.try_start(now, mem)
    }

    /// Handles a batch of migrate commands from the master.
    ///
    /// Idempotent under redelivery: the master retransmits batches that
    /// were not acknowledged in time, so a command for a (job, block) pair
    /// that is already queued, in flight or resident is absorbed without
    /// adding a second waiter or reference (counted in
    /// [`SlaveStats::deduped`]).
    pub fn enqueue(
        &mut self,
        now: SimTime,
        commands: Vec<MigrateCommand>,
        mem: &mut MemStore<BlockId>,
    ) -> Vec<SlaveAction> {
        self.version += 1;
        for cmd in commands {
            self.stats.commands += 1;
            let waiter = Waiter {
                job: cmd.job,
                mode: cmd.mode,
                job_input_bytes: cmd.job_input_bytes,
                submitted: cmd.submitted,
            };
            match mem.residency(&cmd.block) {
                Some(Residency::Pinned) | Some(Residency::Cached) => {
                    // Already in memory (pinned forever, or cache-retained);
                    // nothing to migrate and no reference to manage. A
                    // cached copy may later be LRU-evicted, in which case
                    // the task simply falls back to a disk read.
                    self.stats.deduped += 1;
                }
                Some(Residency::Migrated) => {
                    // Resident: append a reference for this job. An
                    // unreliable channel may redeliver a command, so the
                    // append is idempotent per (job, block) — a duplicate
                    // must not grow the reference list, or a single
                    // eviction would no longer release the block.
                    let list = self.refs.entry_or_default(cmd.block);
                    if !list.iter().any(|&(j, _)| j == cmd.job) {
                        list.push((cmd.job, cmd.mode));
                        self.index_interest(cmd.job, cmd.block);
                        self.emit_enqueued(&cmd);
                    }
                    self.stats.deduped += 1;
                }
                None => {
                    if let Some(cur) = self.current.get_mut(&cmd.block) {
                        if !cur.waiters.iter().any(|w| w.job == cmd.job) {
                            cur.waiters.push(waiter);
                            self.index_interest(cmd.job, cmd.block);
                            self.emit_enqueued(&cmd);
                        }
                        self.stats.deduped += 1;
                        self.touch_lease(now, cmd.job);
                        continue;
                    }
                    if let Some(q) = self.queue.get_mut(&cmd.block) {
                        if !q.waiters.iter().any(|w| w.job == cmd.job) {
                            q.waiters.push(waiter);
                            self.index_interest(cmd.job, cmd.block);
                            self.emit_enqueued(&cmd);
                        }
                        self.stats.deduped += 1;
                    } else {
                        let arrival = self.arrivals;
                        self.arrivals += 1;
                        self.queue.insert(
                            cmd.block,
                            QueuedBlock {
                                bytes: cmd.bytes,
                                waiters: vec![waiter],
                                arrival,
                            },
                        );
                        self.index_interest(cmd.job, cmd.block);
                        self.emit_enqueued(&cmd);
                    }
                }
            }
            self.touch_lease(now, cmd.job);
        }
        self.try_start(now, mem)
    }

    /// Completion callback for a migration read issued via
    /// [`SlaveAction::StartRead`]. Inserts the block (if any job still
    /// wants it) and starts the next migration.
    ///
    /// A completion for a block with no in-flight migration (a stray or
    /// duplicate callback) is ignored rather than panicking: read
    /// completions ride the fault-prone IO path, so the slave must absorb
    /// surprises there (rule P01, DESIGN.md §8).
    pub fn on_read_done(
        &mut self,
        now: SimTime,
        block: BlockId,
        mem: &mut MemStore<BlockId>,
    ) -> Vec<SlaveAction> {
        self.version += 1;
        let Some(cur) = self.current.remove(&block) else {
            // Stray or duplicate completion (e.g. a read racing a
            // CancelRead): absorb it, per the contract above.
            return Vec::new();
        };
        if cur.waiters.is_empty() {
            // Everyone lost interest while the read was in flight.
            self.stats.wasted_reads += 1;
            self.telemetry.emit(|| Event::MigrationWasted {
                node: self.node.0,
                block: block.0,
                bytes: cur.bytes,
            });
        } else {
            match mem.insert(now, block, cur.bytes, Residency::Migrated) {
                Ok(()) => {
                    self.stats.migrated += 1;
                    self.stats.migrated_bytes += cur.bytes;
                    let list: Vec<(JobId, EvictionMode)> =
                        cur.waiters.iter().map(|w| (w.job, w.mode)).collect();
                    self.refs.insert(block, list);
                    // The references just materialized; their lease clock
                    // starts (or restarts) now.
                    for w in &cur.waiters {
                        self.touch_lease(now, w.job);
                    }
                    self.telemetry.emit(|| Event::MigrationCompleted {
                        node: self.node.0,
                        block: block.0,
                        bytes: cur.bytes,
                    });
                }
                Err(_) => {
                    // Pinned data or other migrations squeezed us out
                    // between the capacity check and completion; drop.
                    self.stats.wasted_reads += 1;
                    self.telemetry.emit(|| Event::MigrationWasted {
                        node: self.node.0,
                        block: block.0,
                        bytes: cur.bytes,
                    });
                    for w in &cur.waiters {
                        self.unindex_interest(w.job, block);
                    }
                }
            }
        }
        self.try_start(now, mem)
    }

    /// Handles an explicit evict instruction for `job` (forwarded by the
    /// master when the job completes), releasing all its references.
    pub fn on_evict_job(
        &mut self,
        now: SimTime,
        job: JobId,
        mem: &mut MemStore<BlockId>,
    ) -> Vec<SlaveAction> {
        self.version += 1;
        self.release_job(now, job, mem);
        self.try_start(now, mem)
    }

    /// Notifies the slave that `job` has **read** `block` (HDFS reads carry
    /// the job ID, §III-B2). Applies implicit eviction if the job's
    /// reference was created in [`EvictionMode::Implicit`], and discards
    /// now-pointless queued or in-flight interest (the migration "missed").
    pub fn on_block_read(
        &mut self,
        now: SimTime,
        block: BlockId,
        job: JobId,
        mem: &mut MemStore<BlockId>,
    ) -> Vec<SlaveAction> {
        self.version += 1;
        // Missed reads: drop queued interest.
        let mut removed_interest = false;
        let mut drop_queue_entry = false;
        if let Some(q) = self.queue.get_mut(&block) {
            if q.waiters.iter().any(|w| w.job == job) {
                q.waiters.retain(|w| w.job != job);
                removed_interest = true;
                drop_queue_entry = q.waiters.is_empty();
            }
        }
        if drop_queue_entry {
            self.queue.remove(&block);
            self.stats.discarded += 1;
            self.telemetry.emit(|| Event::MigrationDiscarded {
                node: self.node.0,
                block: block.0,
            });
        }
        // In-flight interest: the read is finishing anyway; this job no
        // longer needs a reference afterwards.
        if let Some(cur) = self.current.get_mut(&block) {
            if cur.waiters.iter().any(|w| w.job == job) {
                cur.waiters.retain(|w| w.job != job);
                removed_interest = true;
            }
        }
        // Implicit eviction of a resident reference.
        let mut evict = false;
        if let Some(list) = self.refs.get_mut(&block) {
            if let Some(pos) = list
                .iter()
                .position(|&(j, m)| j == job && m == EvictionMode::Implicit)
            {
                list.remove(pos);
                removed_interest = true;
                evict = list.is_empty();
            }
        }
        if removed_interest {
            self.unindex_interest(job, block);
        }
        if evict {
            self.refs.remove(&block);
            let bytes = mem.remove(now, &block).unwrap_or(0);
            self.stats.evicted += 1;
            self.stats.evicted_bytes += bytes;
            self.metrics
                .counter_add("evicted_bytes", self.node.0 as u64, bytes);
            self.telemetry.emit(|| Event::BlockEvicted {
                node: self.node.0,
                block: block.0,
                bytes,
            });
        }
        // The read proves the job alive; renew whatever interest remains.
        self.touch_lease(now, job);
        self.try_start(now, mem)
    }

    /// Master failure: purge **all** reference lists so the slave is
    /// consistent with the new master's empty state (§III-A5), and adopt
    /// the new incarnation's epoch so stale retransmissions from the old
    /// one are rejected when they eventually arrive. Queued work is
    /// dropped and any in-flight migration read is cancelled — the
    /// restarted master has no record of it, so letting it finish would
    /// waste disk bandwidth and orphan the IO.
    pub fn on_master_failed(
        &mut self,
        now: SimTime,
        new_epoch: Epoch,
        mem: &mut MemStore<BlockId>,
    ) -> Vec<SlaveAction> {
        self.version += 1;
        self.epoch = self.epoch.max(new_epoch);
        self.purge_for_new_master(now, mem)
    }

    /// The shared §III-A5 purge: drop every reference (evicting resident
    /// blocks), queued entry and lease, and cancel in-flight reads.
    fn purge_for_new_master(
        &mut self,
        now: SimTime,
        mem: &mut MemStore<BlockId>,
    ) -> Vec<SlaveAction> {
        self.stats.purges += 1;
        for (block, _) in std::mem::take(&mut self.refs) {
            let bytes = mem.remove(now, &block).unwrap_or(0);
            self.stats.evicted += 1;
            self.stats.evicted_bytes += bytes;
            self.metrics
                .counter_add("evicted_bytes", self.node.0 as u64, bytes);
            self.telemetry.emit(|| Event::BlockEvicted {
                node: self.node.0,
                block: block.0,
                bytes,
            });
        }
        self.queue.clear();
        self.job_blocks.clear();
        self.lease_expiry.clear();
        self.liveness_pending = false;
        std::mem::take(&mut self.current)
            .into_keys()
            .map(|block| SlaveAction::CancelRead { block })
            .collect()
    }

    /// Slave process failure + restart: all migrated data is discarded (the
    /// OS reclaims it), in-flight work is cancelled, and the slave restarts
    /// empty, ready for new commands (§III-A5). The observed epoch
    /// survives: it models durable knowledge of "who is master", and
    /// keeping it monotonic means a restarted slave still rejects
    /// pre-failover retransmissions.
    pub fn fail(&mut self, now: SimTime, mem: &mut MemStore<BlockId>) -> Vec<SlaveAction> {
        self.version += 1;
        self.stats.purges += 1;
        for (block, _) in std::mem::take(&mut self.refs) {
            let bytes = mem.remove(now, &block).unwrap_or(0);
            self.stats.evicted += 1;
            self.stats.evicted_bytes += bytes;
            self.metrics
                .counter_add("evicted_bytes", self.node.0 as u64, bytes);
            self.telemetry.emit(|| Event::BlockEvicted {
                node: self.node.0,
                block: block.0,
                bytes,
            });
        }
        // Anything still migrated-resident (impossible while the bijection
        // invariant holds, but purged defensively) is debited too so the
        // ledger stays balanced.
        self.stats.evicted_bytes += mem.migrated_used();
        mem.purge_migrated(now);
        self.queue.clear();
        self.job_blocks.clear();
        self.lease_expiry.clear();
        self.liveness_pending = false;
        std::mem::take(&mut self.current)
            .into_keys()
            .map(|block| SlaveAction::CancelRead { block })
            .collect()
    }

    /// Result of a [`SlaveAction::QueryJobLiveness`]: `dead` lists the
    /// queried jobs the scheduler could not confirm as running (their
    /// references are released) and `alive` the ones it could (their
    /// leases are renewed — the reply is the lease-renewal channel for
    /// jobs that hold references without generating any other traffic).
    pub fn on_liveness_result(
        &mut self,
        now: SimTime,
        dead: Vec<JobId>,
        alive: Vec<JobId>,
        mem: &mut MemStore<BlockId>,
    ) -> Vec<SlaveAction> {
        self.version += 1;
        self.liveness_pending = false;
        for job in dead {
            self.release_job(now, job, mem);
        }
        for job in alive {
            self.touch_lease(now, job);
        }
        self.try_start(now, mem)
    }

    /// Whether a liveness query is outstanding (no reply received yet).
    pub fn liveness_query_outstanding(&self) -> bool {
        self.liveness_pending
    }

    /// Verifies the slave's bookkeeping against the node's memory store.
    /// Used by the chaos harness after every event to catch corruption the
    /// moment it happens rather than at the end of a run.
    ///
    /// Checked invariants:
    /// * reference lists and migrated-resident blocks are in bijection, and
    ///   every list is non-empty (do-not-harm: nothing resident without a
    ///   referencing job, nothing evicted while referenced);
    /// * migrated bytes plus in-flight migration bytes never exceed the
    ///   configured buffer capacity (memory-accounting conservation);
    /// * a block is in at most one of {queued, in flight, resident};
    /// * the job → blocks interest index matches the waiters/references.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_consistency(&self, mem: &MemStore<BlockId>) -> Result<(), String> {
        let resident = mem.keys_with(Residency::Migrated);
        for block in &resident {
            match self.refs.get(block) {
                None => {
                    return Err(format!(
                        "node {:?}: migrated block {block:?} resident without a reference list",
                        self.node
                    ))
                }
                Some(list) if list.is_empty() => {
                    return Err(format!(
                        "node {:?}: migrated block {block:?} has an empty reference list",
                        self.node
                    ))
                }
                Some(_) => {}
            }
        }
        for block in self.refs.keys() {
            if mem.residency(&block) != Some(Residency::Migrated) {
                return Err(format!(
                    "node {:?}: reference list for {block:?} but block not migrated-resident",
                    self.node
                ));
            }
            if self.queue.contains_key(&block) || self.current.contains_key(&block) {
                return Err(format!(
                    "node {:?}: block {block:?} both resident and queued/in-flight",
                    self.node
                ));
            }
        }
        for block in self.queue.keys() {
            if self.current.contains_key(&block) {
                return Err(format!(
                    "node {:?}: block {block:?} both queued and in flight",
                    self.node
                ));
            }
        }
        let inflight: u64 = self.current.values().map(|c| c.bytes).sum();
        if mem.migrated_used() + inflight > self.config.buffer_capacity {
            return Err(format!(
                "node {:?}: buffer over budget: {} resident + {} in flight > {}",
                self.node,
                mem.migrated_used(),
                inflight,
                self.config.buffer_capacity
            ));
        }
        // Interest index consistency, both directions.
        for (job, blocks) in self.job_blocks.iter() {
            for block in blocks.iter() {
                let in_refs = self
                    .refs
                    .get(&block)
                    .is_some_and(|l| l.iter().any(|&(j, _)| j == job));
                let in_queue = self
                    .queue
                    .get(&block)
                    .is_some_and(|q| q.waiters.iter().any(|w| w.job == job));
                let in_cur = self
                    .current
                    .get(&block)
                    .is_some_and(|c| c.waiters.iter().any(|w| w.job == job));
                if !(in_refs || in_queue || in_cur) {
                    return Err(format!(
                        "node {:?}: interest index names ({job:?}, {block:?}) but no waiter/ref",
                        self.node
                    ));
                }
            }
        }
        let indexed = |job: JobId, block: &BlockId| {
            self.job_blocks.get(&job).is_some_and(|s| s.contains(block))
        };
        for (block, list) in self.refs.iter() {
            for &(job, _) in list {
                if !indexed(job, &block) {
                    return Err(format!(
                        "node {:?}: ref ({job:?}, {block:?}) missing from interest index",
                        self.node
                    ));
                }
            }
        }
        for (block, q) in self.queue.iter() {
            for w in &q.waiters {
                if !indexed(w.job, &block) {
                    return Err(format!(
                        "node {:?}: queued waiter ({:?}, {block:?}) missing from interest index",
                        self.node, w.job
                    ));
                }
            }
        }
        for (block, c) in self.current.iter() {
            for w in &c.waiters {
                if !indexed(w.job, &block) {
                    return Err(format!(
                        "node {:?}: in-flight waiter ({:?}, {block:?}) missing from interest index",
                        self.node, w.job
                    ));
                }
            }
        }
        // Lease bookkeeping: with leases enabled every interested job
        // carries exactly one lease; with them disabled the map is empty.
        if self.config.lease.is_some() {
            for job in self.job_blocks.keys() {
                if !self.lease_expiry.contains_key(&job) {
                    return Err(format!(
                        "node {:?}: interested {job:?} has no lease",
                        self.node
                    ));
                }
            }
            for job in self.lease_expiry.keys() {
                if !self.job_blocks.contains_key(&job) {
                    return Err(format!(
                        "node {:?}: lease for {job:?} outlives its interest",
                        self.node
                    ));
                }
            }
        } else if !self.lease_expiry.is_empty() {
            return Err(format!(
                "node {:?}: lease entries present with leases disabled",
                self.node
            ));
        }
        // Ledger conservation: what came in minus what went out is what is
        // resident right now.
        let resident_bytes = mem.migrated_used();
        if self
            .stats
            .migrated_bytes
            .checked_sub(self.stats.evicted_bytes)
            != Some(resident_bytes)
        {
            return Err(format!(
                "node {:?}: ledger out of balance: {} migrated - {} evicted != {} resident",
                self.node, self.stats.migrated_bytes, self.stats.evicted_bytes, resident_bytes
            ));
        }
        Ok(())
    }

    /// Releases every reference `job` holds: resident refs (evicting
    /// emptied blocks), queued waiters (discarding emptied entries) and
    /// in-flight waiters.
    fn release_job(&mut self, now: SimTime, job: JobId, mem: &mut MemStore<BlockId>) {
        self.lease_expiry.remove(&job);
        let Some(blocks) = self.job_blocks.remove(&job) else {
            return;
        };
        for block in blocks {
            if let Some(list) = self.refs.get_mut(&block) {
                list.retain(|&(j, _)| j != job);
                if list.is_empty() {
                    self.refs.remove(&block);
                    let bytes = mem.remove(now, &block).unwrap_or(0);
                    self.stats.evicted += 1;
                    self.stats.evicted_bytes += bytes;
                    self.metrics
                        .counter_add("evicted_bytes", self.node.0 as u64, bytes);
                    self.telemetry.emit(|| Event::BlockEvicted {
                        node: self.node.0,
                        block: block.0,
                        bytes,
                    });
                }
                continue;
            }
            if let Some(q) = self.queue.get_mut(&block) {
                q.waiters.retain(|w| w.job != job);
                if q.waiters.is_empty() {
                    self.queue.remove(&block);
                    self.stats.discarded += 1;
                    self.telemetry.emit(|| Event::MigrationDiscarded {
                        node: self.node.0,
                        block: block.0,
                    });
                }
                continue;
            }
            if let Some(cur) = self.current.get_mut(&block) {
                cur.waiters.retain(|w| w.job != job);
            }
        }
    }

    /// Work-conserving start: if idle, start the highest-priority queued
    /// migration that fits in the buffer. If space blocks progress past the
    /// cleanup threshold, query job liveness.
    fn try_start(&mut self, now: SimTime, mem: &mut MemStore<BlockId>) -> Vec<SlaveAction> {
        let mut actions = Vec::new();
        if self.current.len() >= self.config.max_concurrent_migrations || self.queue.is_empty() {
            return actions;
        }
        // Order candidate blocks by policy.
        let mut entries: Vec<(BlockId, QueueKey, u64)> = self
            .queue
            .iter()
            .map(|(b, q)| (b, q.key(), q.bytes))
            .collect();
        entries.sort_by(|a, b| self.config.policy.cmp(&a.1, &b.1));

        let mut blocked = false;
        for (block, _, bytes) in entries {
            if self.current.len() >= self.config.max_concurrent_migrations {
                break;
            }
            // Budget accounts for resident data plus reads in flight.
            let inflight_bytes: u64 = self.current.values().map(|c| c.bytes).sum();
            let budget_left = self
                .config
                .buffer_capacity
                .saturating_sub(mem.migrated_used())
                .saturating_sub(inflight_bytes);
            if bytes <= budget_left && bytes <= mem.available().saturating_sub(inflight_bytes) {
                let Some(q) = self.queue.remove(&block) else {
                    // `block` came from snapshotting `self.queue` just above
                    // and nothing removes entries in between; skip rather
                    // than panic if that ever changes (rule P01).
                    debug_assert!(false, "queued block vanished during start sweep");
                    continue;
                };
                self.current.insert(
                    block,
                    CurrentMigration {
                        bytes: q.bytes,
                        waiters: q.waiters,
                    },
                );
                actions.push(SlaveAction::StartRead {
                    block,
                    bytes: q.bytes,
                });
                self.telemetry.emit(|| Event::MigrationStarted {
                    node: self.node.0,
                    block: block.0,
                    bytes,
                });
                continue;
            }
            blocked = true;
        }
        if blocked {
            let occupancy = mem.migrated_used() as f64 / self.config.buffer_capacity as f64;
            // An outstanding query only suppresses re-querying within the
            // cooldown window: under an unreliable channel the reply may
            // be lost, and a permanently stuck `liveness_pending` would
            // block cleanup (and therefore progress) forever.
            let cooled = self
                .last_liveness
                .is_none_or(|t| now >= t + self.config.liveness_cooldown);
            if occupancy >= self.config.cleanup_threshold && cooled {
                self.liveness_pending = true;
                self.last_liveness = Some(now);
                self.stats.liveness_queries += 1;
                actions.push(SlaveAction::QueryJobLiveness {
                    jobs: self.interested_jobs(),
                });
            }
        }
        actions
    }

    /// Telemetry for a newly accepted `(job, block)` interest; dedup paths
    /// (idempotent redelivery) never reach this.
    fn emit_enqueued(&self, cmd: &MigrateCommand) {
        self.telemetry.emit(|| Event::MigrationEnqueued {
            node: self.node.0,
            job: cmd.job.0,
            block: cmd.block.0,
            bytes: cmd.bytes,
        });
        self.metrics.gauge_set(
            "migration_queue_depth",
            self.node.0 as u64,
            self.queue.len() as i64,
        );
    }

    fn index_interest(&mut self, job: JobId, block: BlockId) {
        self.job_blocks.entry_or_default(job).insert(block);
    }

    fn unindex_interest(&mut self, job: JobId, block: BlockId) {
        if let Some(set) = self.job_blocks.get_mut(&job) {
            set.remove(&block);
            if set.is_empty() {
                self.job_blocks.remove(&job);
                // The job's last interest is gone; its lease goes with it.
                self.lease_expiry.remove(&job);
            }
        }
    }

    /// Renews `job`'s lease if leases are enabled and the job still holds
    /// interest on this slave; a no-op otherwise (a lease may never outlive
    /// the interest it protects).
    fn touch_lease(&mut self, now: SimTime, job: JobId) {
        if let Some(lease) = self.config.lease {
            if self.job_blocks.contains_key(&job) {
                self.lease_expiry.insert(job, now + lease);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use ignem_simcore::units::{GIB, MIB};

    const B64: u64 = 64 * MIB;

    fn slave() -> (IgnemSlave, MemStore<BlockId>) {
        (
            IgnemSlave::new(NodeId(0), IgnemConfig::default()),
            MemStore::new(128 * GIB),
        )
    }

    fn cmd(job: u64, block: u64, input: u64, submitted_s: u64) -> MigrateCommand {
        MigrateCommand {
            job: JobId(job),
            block: BlockId(block),
            bytes: B64,
            mode: EvictionMode::Explicit,
            job_input_bytes: input,
            submitted: SimTime::from_secs(submitted_s),
        }
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn migrates_one_block_at_a_time() {
        let (mut s, mut mem) = slave();
        let actions = s.enqueue(t(0), vec![cmd(1, 10, B64, 0), cmd(1, 11, B64, 0)], &mut mem);
        assert_eq!(actions.len(), 1, "only one read at a time");
        assert!(s.is_migrating());
        assert_eq!(s.queue_len(), 1);
        // Completing the first starts the second (work-conserving).
        let SlaveAction::StartRead { block, .. } = actions[0].clone() else {
            panic!("expected StartRead");
        };
        let next = s.on_read_done(t(1), block, &mut mem);
        assert_eq!(next.len(), 1);
        assert!(mem.contains(&block));
    }

    #[test]
    fn smallest_job_first_ordering() {
        let (mut s, mut mem) = slave();
        // Big job arrives first, small job second; small must migrate first
        // once the current (big) block finishes.
        let a1 = s.enqueue(t(0), vec![cmd(1, 10, 100 * B64, 0)], &mut mem);
        s.enqueue(t(0), vec![cmd(1, 11, 100 * B64, 0)], &mut mem);
        s.enqueue(t(0), vec![cmd(2, 20, B64, 1)], &mut mem);
        assert_eq!(
            a1,
            vec![SlaveAction::StartRead {
                block: BlockId(10),
                bytes: B64
            }]
        );
        // No preemption: block 10 finishes, then the small job's block 20.
        let next = s.on_read_done(t(1), BlockId(10), &mut mem);
        assert_eq!(
            next,
            vec![SlaveAction::StartRead {
                block: BlockId(20),
                bytes: B64
            }]
        );
    }

    #[test]
    fn fifo_policy_ignores_job_size() {
        let mut s = IgnemSlave::new(
            NodeId(0),
            IgnemConfig {
                policy: Policy::Fifo,
                ..IgnemConfig::default()
            },
        );
        let mut mem = MemStore::new(128 * GIB);
        s.enqueue(t(0), vec![cmd(1, 10, 100 * B64, 0)], &mut mem);
        s.enqueue(t(0), vec![cmd(1, 11, 100 * B64, 0)], &mut mem);
        s.enqueue(t(0), vec![cmd(2, 20, B64, 1)], &mut mem);
        let next = s.on_read_done(t(1), BlockId(10), &mut mem);
        assert_eq!(
            next,
            vec![SlaveAction::StartRead {
                block: BlockId(11),
                bytes: B64
            }]
        );
    }

    #[test]
    fn reference_list_shared_by_jobs() {
        let (mut s, mut mem) = slave();
        s.enqueue(t(0), vec![cmd(1, 10, B64, 0)], &mut mem);
        s.on_read_done(t(1), BlockId(10), &mut mem);
        // Second job asks for the same (now resident) block: dedup + ref.
        s.enqueue(t(2), vec![cmd(2, 10, B64, 2)], &mut mem);
        assert_eq!(s.stats().deduped, 1);
        assert_eq!(s.references(BlockId(10)).unwrap().len(), 2);
        // Evicting job 1 keeps the block; evicting job 2 releases it.
        s.on_evict_job(t(3), JobId(1), &mut mem);
        assert!(mem.contains(&BlockId(10)));
        s.on_evict_job(t(4), JobId(2), &mut mem);
        assert!(!mem.contains(&BlockId(10)));
        assert_eq!(s.stats().evicted, 1);
    }

    #[test]
    fn implicit_eviction_on_read() {
        let (mut s, mut mem) = slave();
        let mut c = cmd(1, 10, B64, 0);
        c.mode = EvictionMode::Implicit;
        s.enqueue(t(0), vec![c], &mut mem);
        s.on_read_done(t(1), BlockId(10), &mut mem);
        assert!(mem.contains(&BlockId(10)));
        s.on_block_read(t(2), BlockId(10), JobId(1), &mut mem);
        assert!(!mem.contains(&BlockId(10)), "implicit eviction must fire");
    }

    #[test]
    fn explicit_mode_survives_reads() {
        let (mut s, mut mem) = slave();
        s.enqueue(t(0), vec![cmd(1, 10, B64, 0)], &mut mem);
        s.on_read_done(t(1), BlockId(10), &mut mem);
        s.on_block_read(t(2), BlockId(10), JobId(1), &mut mem);
        assert!(
            mem.contains(&BlockId(10)),
            "explicit refs only die on evict"
        );
        s.on_evict_job(t(3), JobId(1), &mut mem);
        assert!(!mem.contains(&BlockId(10)));
    }

    #[test]
    fn missed_read_discards_queued_migration() {
        let (mut s, mut mem) = slave();
        s.enqueue(t(0), vec![cmd(1, 10, B64, 0), cmd(1, 11, B64, 0)], &mut mem);
        // Job reads block 11 from disk before its migration starts.
        s.on_block_read(t(1), BlockId(11), JobId(1), &mut mem);
        assert_eq!(s.queue_len(), 0);
        assert_eq!(s.stats().discarded, 1);
        // Completing block 10 should not start anything.
        let next = s.on_read_done(t(2), BlockId(10), &mut mem);
        assert!(next.is_empty());
    }

    #[test]
    fn read_during_flight_wastes_migration() {
        let (mut s, mut mem) = slave();
        s.enqueue(t(0), vec![cmd(1, 10, B64, 0)], &mut mem);
        // The job reads the block (from disk) while migration is in flight.
        s.on_block_read(t(1), BlockId(10), JobId(1), &mut mem);
        let next = s.on_read_done(t(2), BlockId(10), &mut mem);
        assert!(next.is_empty());
        assert!(!mem.contains(&BlockId(10)));
        assert_eq!(s.stats().wasted_reads, 1);
    }

    #[test]
    fn buffer_capacity_blocks_but_never_evicts() {
        // Do-not-harm: resident blocks are never evicted for new arrivals.
        let mut s = IgnemSlave::new(
            NodeId(0),
            IgnemConfig {
                buffer_capacity: B64, // exactly one block
                ..IgnemConfig::default()
            },
        );
        let mut mem = MemStore::new(128 * GIB);
        s.enqueue(t(0), vec![cmd(1, 10, B64, 0)], &mut mem);
        s.on_read_done(t(1), BlockId(10), &mut mem);
        assert!(mem.contains(&BlockId(10)));
        // Second block cannot start: buffer full; block 10 must stay.
        let actions = s.enqueue(t(2), vec![cmd(2, 11, B64, 2)], &mut mem);
        assert!(actions
            .iter()
            .all(|a| !matches!(a, SlaveAction::StartRead { .. })));
        assert!(mem.contains(&BlockId(10)));
        assert_eq!(s.queue_len(), 1);
        // Once job 1 evicts, the queued migration starts (work-conserving).
        let next = s.on_evict_job(t(3), JobId(1), &mut mem);
        assert_eq!(
            next,
            vec![SlaveAction::StartRead {
                block: BlockId(11),
                bytes: B64
            }]
        );
    }

    #[test]
    fn threshold_triggers_liveness_query_once() {
        let mut s = IgnemSlave::new(
            NodeId(0),
            IgnemConfig {
                buffer_capacity: B64,
                cleanup_threshold: 0.5,
                ..IgnemConfig::default()
            },
        );
        let mut mem = MemStore::new(128 * GIB);
        s.enqueue(t(0), vec![cmd(1, 10, B64, 0)], &mut mem);
        s.on_read_done(t(1), BlockId(10), &mut mem);
        let a1 = s.enqueue(t(2), vec![cmd(2, 11, B64, 2)], &mut mem);
        assert_eq!(
            a1,
            vec![SlaveAction::QueryJobLiveness {
                jobs: vec![JobId(1), JobId(2)]
            }]
        );
        // No duplicate query while one is pending.
        let a2 = s.enqueue(t(3), vec![cmd(3, 12, B64, 3)], &mut mem);
        assert!(a2.is_empty());
        assert_eq!(s.stats().liveness_queries, 1);
        // Scheduler says job 1 is dead: its block is evicted and the next
        // migration starts.
        let a3 = s.on_liveness_result(t(4), vec![JobId(1)], vec![JobId(2)], &mut mem);
        assert!(!mem.contains(&BlockId(10)));
        assert!(matches!(a3[0], SlaveAction::StartRead { .. }));
    }

    #[test]
    fn master_failure_purges_references() {
        let (mut s, mut mem) = slave();
        s.enqueue(t(0), vec![cmd(1, 10, B64, 0), cmd(1, 11, B64, 0)], &mut mem);
        s.on_read_done(t(1), BlockId(10), &mut mem);
        // Block 11's migration is now in flight; 10 is resident.
        let actions = s.on_master_failed(t(2), Epoch(2), &mut mem);
        assert_eq!(s.epoch(), Epoch(2));
        assert!(!mem.contains(&BlockId(10)), "resident blocks purged");
        assert_eq!(s.queue_len(), 0);
        // The in-flight read is cancelled, not orphaned.
        assert_eq!(
            actions,
            vec![SlaveAction::CancelRead { block: BlockId(11) }]
        );
        assert!(!s.is_migrating());
        assert!(!mem.contains(&BlockId(11)));
    }

    #[test]
    fn slave_failure_cancels_and_purges() {
        let (mut s, mut mem) = slave();
        s.enqueue(t(0), vec![cmd(1, 10, B64, 0), cmd(1, 11, B64, 0)], &mut mem);
        s.on_read_done(t(1), BlockId(10), &mut mem);
        let actions = s.fail(t(2), &mut mem);
        assert_eq!(
            actions,
            vec![SlaveAction::CancelRead { block: BlockId(11) }]
        );
        assert_eq!(mem.migrated_used(), 0);
        assert!(!s.is_migrating());
        // The restarted slave accepts new commands.
        let next = s.enqueue(t(3), vec![cmd(2, 20, B64, 3)], &mut mem);
        assert!(matches!(next[0], SlaveAction::StartRead { .. }));
    }

    #[test]
    fn pinned_blocks_are_deduped_without_refs() {
        let (mut s, mut mem) = slave();
        mem.insert(t(0), BlockId(10), B64, Residency::Pinned)
            .unwrap();
        let actions = s.enqueue(t(0), vec![cmd(1, 10, B64, 0)], &mut mem);
        assert!(actions.is_empty());
        assert_eq!(s.stats().deduped, 1);
        assert!(s.references(BlockId(10)).is_none());
        // Evicting the job must not touch the pinned block.
        s.on_evict_job(t(1), JobId(1), &mut mem);
        assert!(mem.contains(&BlockId(10)));
    }

    #[test]
    fn cached_blocks_are_deduped_like_pinned() {
        let (mut s, mut mem) = slave();
        assert!(mem.insert_cached(t(0), BlockId(10), B64));
        let actions = s.enqueue(t(0), vec![cmd(1, 10, B64, 0)], &mut mem);
        assert!(actions.is_empty(), "no migration for a cached block");
        assert_eq!(s.stats().deduped, 1);
        assert!(s.references(BlockId(10)).is_none());
    }

    #[test]
    fn concurrent_migrations_when_configured() {
        let mut s = IgnemSlave::new(
            NodeId(0),
            IgnemConfig {
                max_concurrent_migrations: 3,
                ..IgnemConfig::default()
            },
        );
        let mut mem = MemStore::new(128 * GIB);
        let actions = s.enqueue(
            t(0),
            vec![
                cmd(1, 10, B64, 0),
                cmd(1, 11, B64, 0),
                cmd(1, 12, B64, 0),
                cmd(1, 13, B64, 0),
            ],
            &mut mem,
        );
        let reads = actions
            .iter()
            .filter(|a| matches!(a, SlaveAction::StartRead { .. }))
            .count();
        assert_eq!(reads, 3, "three concurrent reads allowed");
        assert_eq!(s.in_flight_migrations(), 3);
        assert_eq!(s.queue_len(), 1);
        // Completing one starts the fourth.
        let next = s.on_read_done(t(1), BlockId(10), &mut mem);
        assert_eq!(next.len(), 1);
        assert_eq!(s.in_flight_migrations(), 3);
    }

    #[test]
    fn duplicate_request_while_in_flight_shares_read() {
        let (mut s, mut mem) = slave();
        s.enqueue(t(0), vec![cmd(1, 10, B64, 0)], &mut mem);
        let a = s.enqueue(t(0), vec![cmd(2, 10, B64, 0)], &mut mem);
        assert!(a.is_empty(), "no second read for the same block");
        s.on_read_done(t(1), BlockId(10), &mut mem);
        assert_eq!(s.references(BlockId(10)).unwrap().len(), 2);
    }

    #[test]
    fn work_conserving_smaller_block_skips_blocked_larger() {
        // A huge queued block that doesn't fit must not stall a small one
        // that does.
        let mut s = IgnemSlave::new(
            NodeId(0),
            IgnemConfig {
                buffer_capacity: 2 * B64,
                ..IgnemConfig::default()
            },
        );
        let mut mem = MemStore::new(128 * GIB);
        // Resident block eats half the budget.
        s.enqueue(t(0), vec![cmd(1, 10, B64, 0)], &mut mem);
        s.on_read_done(t(1), BlockId(10), &mut mem);
        // Job 2 (smaller input) wants a block bigger than remaining budget;
        // job 3 wants one that fits.
        let mut big = cmd(2, 11, B64, 2);
        big.bytes = 2 * B64;
        let actions = s.enqueue(t(2), vec![big, cmd(3, 12, 10 * B64, 3)], &mut mem);
        assert!(
            actions.contains(&SlaveAction::StartRead {
                block: BlockId(12),
                bytes: B64
            }),
            "should skip the blocked larger block: {actions:?}"
        );
    }

    #[test]
    fn stats_track_migrated_bytes() {
        let (mut s, mut mem) = slave();
        s.enqueue(t(0), vec![cmd(1, 10, B64, 0)], &mut mem);
        s.on_read_done(t(1), BlockId(10), &mut mem);
        assert_eq!(s.stats().migrated, 1);
        assert_eq!(s.stats().migrated_bytes, B64);
    }

    #[test]
    fn completion_without_flight_is_absorbed() {
        let (mut s, mut mem) = slave();
        let out = s.on_read_done(t(0), BlockId(1), &mut mem);
        assert!(out.is_empty());
        assert_eq!(s.stats().migrated, 0);
    }

    fn leased_slave(lease_s: u64) -> (IgnemSlave, MemStore<BlockId>) {
        (
            IgnemSlave::new(
                NodeId(0),
                IgnemConfig {
                    lease: Some(SimDuration::from_secs(lease_s)),
                    ..IgnemConfig::default()
                },
            ),
            MemStore::new(128 * GIB),
        )
    }

    #[test]
    fn stale_epoch_is_rejected_idempotently() {
        let (mut s, mut mem) = slave();
        assert_eq!(s.epoch(), Epoch::FIRST);
        s.on_master_failed(t(1), Epoch(3), &mut mem);
        // A retransmission stamped with the dead incarnation's epoch.
        assert_eq!(s.observe_epoch(t(2), Epoch(1), &mut mem), None);
        assert_eq!(s.observe_epoch(t(2), Epoch(2), &mut mem), None);
        assert_eq!(s.stats().stale_epochs, 2);
        // The current epoch and a newer one are both accepted.
        assert_eq!(s.observe_epoch(t(2), Epoch(3), &mut mem), Some(vec![]));
        assert!(s.observe_epoch(t(2), Epoch(4), &mut mem).is_some());
        assert_eq!(s.epoch(), Epoch(4));
    }

    #[test]
    fn newer_epoch_purges_like_a_missed_failover() {
        let (mut s, mut mem) = slave();
        s.enqueue(t(0), vec![cmd(1, 10, B64, 0), cmd(1, 11, B64, 0)], &mut mem);
        s.on_read_done(t(1), BlockId(10), &mut mem);
        // The slave never heard about the failover; the first message from
        // the new incarnation triggers the §III-A5 purge.
        let actions = s.observe_epoch(t(2), Epoch(2), &mut mem).unwrap();
        assert_eq!(
            actions,
            vec![SlaveAction::CancelRead { block: BlockId(11) }]
        );
        assert!(!mem.contains(&BlockId(10)));
        assert_eq!(s.total_references(), 0);
        assert_eq!(s.epoch(), Epoch(2));
        assert_eq!(s.stats().purges, 1);
    }

    #[test]
    fn slave_restart_keeps_observed_epoch() {
        let (mut s, mut mem) = slave();
        s.on_master_failed(t(1), Epoch(5), &mut mem);
        s.fail(t(2), &mut mem);
        assert_eq!(s.epoch(), Epoch(5));
        assert_eq!(s.observe_epoch(t(3), Epoch(4), &mut mem), None);
    }

    #[test]
    fn unrenewed_lease_expires_and_releases_references() {
        let (mut s, mut mem) = leased_slave(10);
        s.enqueue(t(0), vec![cmd(1, 10, B64, 0)], &mut mem);
        s.on_read_done(t(1), BlockId(10), &mut mem);
        // Lease restarted at materialization (t=1) -> expires at t=11.
        assert_eq!(s.next_lease_expiry(), Some(t(11)));
        assert!(s.expire_leases(t(10), &mut mem).is_empty());
        assert!(mem.contains(&BlockId(10)), "lease still live at t=10");
        s.expire_leases(t(11), &mut mem);
        assert!(!mem.contains(&BlockId(10)), "expired lease evicts");
        assert_eq!(s.total_references(), 0);
        assert_eq!(s.stats().lease_expiries, 1);
        assert_eq!(s.next_lease_expiry(), None);
        s.check_consistency(&mem).unwrap();
    }

    #[test]
    fn reads_and_liveness_replies_renew_leases() {
        let (mut s, mut mem) = leased_slave(10);
        s.enqueue(t(0), vec![cmd(1, 10, B64, 0)], &mut mem);
        s.on_read_done(t(1), BlockId(10), &mut mem);
        // The job reads the block at t=9: lease renewed to t=19.
        s.on_block_read(t(9), BlockId(10), JobId(1), &mut mem);
        assert_eq!(s.next_lease_expiry(), Some(t(19)));
        assert!(s.expire_leases(t(12), &mut mem).is_empty());
        assert!(mem.contains(&BlockId(10)));
        // A liveness reply listing the job alive renews again.
        s.on_liveness_result(t(18), vec![], vec![JobId(1)], &mut mem);
        assert_eq!(s.next_lease_expiry(), Some(t(28)));
        // An explicit evict retires the lease with the references.
        s.on_evict_job(t(20), JobId(1), &mut mem);
        assert_eq!(s.next_lease_expiry(), None);
        s.check_consistency(&mem).unwrap();
    }

    #[test]
    fn lease_expiry_strips_queued_and_inflight_interest() {
        let (mut s, mut mem) = leased_slave(5);
        s.enqueue(t(0), vec![cmd(1, 10, B64, 0), cmd(1, 11, B64, 0)], &mut mem);
        // Block 10 in flight, block 11 queued; nothing renews the lease.
        s.expire_leases(t(5), &mut mem);
        assert_eq!(s.queue_len(), 0, "queued interest discarded");
        assert_eq!(s.stats().lease_expiries, 1);
        // The in-flight read completes with no waiters: wasted, not leaked.
        s.on_read_done(t(6), BlockId(10), &mut mem);
        assert_eq!(s.stats().wasted_reads, 1);
        assert_eq!(s.total_references(), 0);
        s.check_consistency(&mem).unwrap();
    }

    #[test]
    fn leases_disabled_keeps_map_empty() {
        let (mut s, mut mem) = slave();
        s.enqueue(t(0), vec![cmd(1, 10, B64, 0)], &mut mem);
        s.on_read_done(t(1), BlockId(10), &mut mem);
        assert_eq!(s.next_lease_expiry(), None);
        assert!(s.expire_leases(t(100), &mut mem).is_empty());
        assert!(mem.contains(&BlockId(10)), "no lease, no expiry");
        s.check_consistency(&mem).unwrap();
    }

    #[test]
    fn purge_during_inflight_migration_balances_ledger() {
        // Satellite regression: a purge while a migration is in flight must
        // leave counters and the byte ledger consistent — the resident
        // block is debited, the in-flight one is cancelled (never credited).
        let (mut s, mut mem) = slave();
        s.enqueue(t(0), vec![cmd(1, 10, B64, 0), cmd(1, 11, B64, 0)], &mut mem);
        s.on_read_done(t(1), BlockId(10), &mut mem);
        assert_eq!(s.stats().migrated_bytes, B64);
        let actions = s.on_master_failed(t(2), Epoch(2), &mut mem);
        assert_eq!(
            actions,
            vec![SlaveAction::CancelRead { block: BlockId(11) }]
        );
        let st = s.stats();
        assert_eq!(st.purges, 1);
        assert_eq!(st.evicted, 1, "purge counts the eviction");
        assert_eq!(st.evicted_bytes, B64);
        assert_eq!(st.migrated_bytes - st.evicted_bytes, mem.migrated_used());
        s.check_consistency(&mem).unwrap();
        // Same property across a slave restart with a resident block.
        s.enqueue(t(3), vec![cmd(2, 20, B64, 3)], &mut mem);
        s.on_read_done(t(4), BlockId(20), &mut mem);
        s.fail(t(5), &mut mem);
        let st = s.stats();
        assert_eq!(st.evicted, 2);
        assert_eq!(st.migrated_bytes, st.evicted_bytes);
        assert_eq!(mem.migrated_used(), 0);
        s.check_consistency(&mem).unwrap();
    }

    #[test]
    fn restart_bumps_incarnation_and_fences_stale_sends() {
        let (mut s, mut mem) = slave();
        assert_eq!(s.incarnation(), Incarnation::FIRST);
        // A send stamped with the boot incarnation is accepted.
        assert!(s.observe_incarnation(Incarnation::FIRST));
        // Crash + restart: the host wipes state via fail(), then restart()
        // mints the next incarnation.
        s.enqueue(t(0), vec![cmd(1, 10, B64, 0)], &mut mem);
        s.fail(t(1), &mut mem);
        let fresh = s.restart();
        assert_eq!(fresh, Incarnation(2));
        assert_eq!(s.incarnation(), fresh);
        // A retransmission stamped with the pre-crash incarnation is stale.
        assert!(!s.observe_incarnation(Incarnation::FIRST));
        assert_eq!(s.stats().stale_incarnations, 1);
        // Current and future stamps still pass (future = master restarted us
        // again before this delivery arrived; accept, never regress).
        assert!(s.observe_incarnation(fresh));
        assert!(s.observe_incarnation(fresh.next()));
        s.check_consistency(&mem).unwrap();
    }

    #[test]
    fn stale_incarnation_rejection_emits_telemetry() {
        use ignem_simcore::telemetry::{FlightRecorder, Telemetry};
        let (mut s, _mem) = slave();
        let recorder = FlightRecorder::new(16);
        s.set_telemetry(Telemetry::new(Box::new(recorder.clone())));
        s.restart();
        assert!(!s.observe_incarnation(Incarnation::FIRST));
        let kinds: Vec<&str> = recorder.events().iter().map(|r| r.event.kind()).collect();
        assert_eq!(kinds, ["incarnation_rejected"]);
    }

    /// Property test (in-tree rng): across random command/read/evict/fault
    /// schedules, no `(job, block)` reference survives both the job's
    /// completion (explicit evict) and its lease expiry, and the slave's
    /// bookkeeping stays internally consistent after every step.
    #[test]
    fn property_no_reference_survives_completion_and_lease_expiry() {
        use ignem_simcore::rng::SimRng;

        for seed in 0..64u64 {
            let mut rng = SimRng::new(0x1EA5_E000 ^ seed);
            let lease = SimDuration::from_secs(8);
            let (mut s, mut mem) = leased_slave(8);
            let mut now = SimTime::ZERO;
            let mut inflight: Vec<BlockId> = Vec::new();
            let mut evicted_jobs: BTreeSet<JobId> = BTreeSet::new();
            for step in 0..200u64 {
                now += SimDuration::from_millis(1 + rng.index(1999) as u64);
                let job = JobId(rng.index(6) as u64);
                let block = BlockId(rng.index(12) as u64);
                match rng.index(10) {
                    0..=3 => {
                        let mut c = cmd(job.0, block.0, B64 * (1 + job.0), step % 7);
                        if rng.uniform() < 0.5 {
                            c.mode = EvictionMode::Implicit;
                        }
                        // A command resurrects the job from this harness's
                        // point of view (a re-submission).
                        evicted_jobs.remove(&job);
                        for a in s.enqueue(now, vec![c], &mut mem) {
                            if let SlaveAction::StartRead { block, .. } = a {
                                inflight.push(block);
                            }
                        }
                    }
                    4..=5 => {
                        if !inflight.is_empty() {
                            let b = inflight.remove(rng.index(inflight.len()));
                            for a in s.on_read_done(now, b, &mut mem) {
                                if let SlaveAction::StartRead { block, .. } = a {
                                    inflight.push(block);
                                }
                            }
                        }
                    }
                    6 => {
                        s.on_block_read(now, block, job, &mut mem);
                    }
                    7 => {
                        evicted_jobs.insert(job);
                        s.on_evict_job(now, job, &mut mem);
                    }
                    8 => {
                        for a in s.expire_leases(now, &mut mem) {
                            if let SlaveAction::StartRead { block, .. } = a {
                                inflight.push(block);
                            }
                        }
                    }
                    _ => {
                        let dead = if rng.uniform() < 0.5 {
                            vec![job]
                        } else {
                            vec![]
                        };
                        if dead.contains(&job) {
                            evicted_jobs.insert(job);
                        }
                        for a in s.on_liveness_result(now, dead, vec![], &mut mem) {
                            if let SlaveAction::StartRead { block, .. } = a {
                                inflight.push(block);
                            }
                        }
                    }
                }
                s.check_consistency(&mem)
                    .unwrap_or_else(|e| panic!("seed {seed} step {step}: {e}"));
                // An evicted job's references may linger only until its
                // lease runs out, never past it.
                for job in &evicted_jobs {
                    if let Some(list) = s
                        .refs
                        .iter()
                        .find(|(_, l)| l.iter().any(|&(j, _)| j == *job))
                    {
                        let expiry = s.lease_expiry.get(job).copied();
                        assert!(
                            expiry.is_some(),
                            "seed {seed} step {step}: completed {job:?} holds ref on \
                             {:?} with no lease",
                            list.0
                        );
                    }
                }
            }
            // Drain: complete in-flight reads, then let every lease lapse.
            for b in inflight.drain(..) {
                s.on_read_done(now, b, &mut mem);
            }
            let deadline = now + lease + SimDuration::from_secs(1);
            s.expire_leases(deadline, &mut mem);
            assert_eq!(
                s.total_references(),
                0,
                "seed {seed}: references survived job completion + lease expiry"
            );
            assert_eq!(mem.migrated_used(), 0, "seed {seed}: resident bytes leaked");
            s.check_consistency(&mem).unwrap();
        }
    }
}
