//! Causal spans: reconstructing span trees from a recorded event stream.
//!
//! The telemetry stream is flat; this module folds it back into the causal
//! trees the events describe, without touching the stream itself. Every
//! migration round becomes a tree — `migration` root, `command`
//! (assignment → slave acceptance, with one `retry` child per
//! retransmission), `queued` (acceptance → disk read start), `transfer`
//! (read start → completion) and `resident` (completion → eviction) — and
//! every job and crash-recovery epoch likewise. Span ids are derived from
//! the **seq of the record that opens the span** (shifted by four bits to
//! make room for sibling spans opened by the same record), so trees built
//! from the same stream are identical by construction, and trees built
//! from two same-seed runs are bit-identical because the streams are.
//!
//! The [`CriticalPath`] extractor charges each span's exclusive time to a
//! [`Category`] and aggregates per owning job. Ownership and credit follow
//! the *exact* fold the cluster explainer uses for its lead-time
//! decomposition (first enqueuer owns the round; a completion is credited
//! only when both owner and start are known; wasted/cancelled rounds are
//! uncredited; a discard releases the owner only before the read starts),
//! so the per-job category sums reconcile with the explainer by integer
//! equality, not approximately.

use std::collections::BTreeMap;

use crate::telemetry::{Event, EventRecord};
use crate::time::{SimDuration, SimTime};

/// Identifier of a span: the opening record's seq shifted left by four,
/// plus a 0..=15 disambiguator for sibling spans opened by one record.
///
/// The disambiguator bound is a *hard* assert (not `debug_assert!`): a
/// silent wrap in release builds would collide span ids across siblings
/// and corrupt the forest without any diagnostic, which is strictly worse
/// than aborting the fold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

/// Bits reserved below the opening seq for the sibling disambiguator.
const SPAN_DISAMBIGUATOR_BITS: u64 = 4;

impl SpanId {
    fn new(seq: u64, k: u64) -> SpanId {
        assert!(
            k < (1 << SPAN_DISAMBIGUATOR_BITS),
            "per-record span disambiguator overflow: record seq {seq} opened more than {} sibling spans",
            1u64 << SPAN_DISAMBIGUATOR_BITS,
        );
        SpanId(seq << SPAN_DISAMBIGUATOR_BITS | k)
    }

    /// The seq of the event record that opened this span.
    pub fn opening_seq(&self) -> u64 {
        self.0 >> SPAN_DISAMBIGUATOR_BITS
    }
}

/// The cost category a span's exclusive time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Category {
    /// Waiting in a queue: job submission → schedulable, and a migration's
    /// wait in the slave's migration queue.
    Queueing,
    /// Master-side processing: schedulable → first task assignment.
    MasterProcessing,
    /// Control-plane network time: command issue → slave acceptance,
    /// excluding retransmission backoff.
    Network,
    /// Time spent waiting out ack-timeout backoff between retransmission
    /// attempts.
    RetransmissionBackoff,
    /// Disk service: the migration read itself, under contention.
    DiskContention,
    /// Structural spans (roots, tasks, residency, recovery phases) whose
    /// exclusive time is not part of the lead-time decomposition.
    Structural,
}

impl Category {
    /// Every category, in a fixed order.
    pub const ALL: [Category; 6] = [
        Category::Queueing,
        Category::MasterProcessing,
        Category::Network,
        Category::RetransmissionBackoff,
        Category::DiskContention,
        Category::Structural,
    ];

    /// Stable machine-readable tag.
    pub fn tag(&self) -> &'static str {
        match self {
            Category::Queueing => "queueing",
            Category::MasterProcessing => "master_processing",
            Category::Network => "network",
            Category::RetransmissionBackoff => "retransmission_backoff",
            Category::DiskContention => "disk_contention",
            Category::Structural => "structural",
        }
    }
}

/// One reconstructed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Identifier (derived from the opening record's seq).
    pub id: SpanId,
    /// Parent span, `None` for tree roots.
    pub parent: Option<SpanId>,
    /// Span kind: `job`, `queue`, `heartbeat_wait`, `task`, `migration`,
    /// `command`, `retry`, `queued`, `transfer`, `resident`, `recovery`,
    /// `register`, `block_report`, `reignite`.
    pub name: &'static str,
    /// Category the span's exclusive time belongs to.
    pub category: Category,
    /// Node track the span renders on (`-1` = cluster/master track).
    pub node: i64,
    /// Owning job id, `-1` when not job-scoped.
    pub job: i64,
    /// Block id, `-1` when not block-scoped.
    pub block: i64,
    /// Open time.
    pub start: SimTime,
    /// Close time (open spans are closed at the last record's time).
    pub end: SimTime,
}

impl Span {
    /// The span's wall duration in sim time.
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_duration_since(self.start)
    }
}

/// Accumulated per-round facts the critical path needs (one per migration
/// round that closed — or was still open when the stream ended).
#[derive(Debug, Clone, PartialEq, Eq)]
struct RoundDone {
    owner: Option<u64>,
    /// Transfer service time, credited iff `owner` and the start were both
    /// known at completion (the explainer's rule).
    credited_transfer: Option<SimDuration>,
    queued: SimDuration,
    command: SimDuration,
    backoff: SimDuration,
}

/// State of one open migration round, keyed by `(node, block)`.
#[derive(Debug, Default)]
struct RoundState {
    root: Option<SpanId>,
    root_start: SimTime,
    owner: Option<u64>,
    command: Option<(SpanId, SimTime)>,
    queued_open: Option<(SpanId, SimTime)>,
    transfer_open: Option<(SpanId, SimTime)>,
    started_at: Option<SimTime>,
    queued_total: SimDuration,
    command_total: SimDuration,
    backoff_total: SimDuration,
}

#[derive(Debug)]
struct JobState {
    root: SpanId,
    queue_open: Option<(SpanId, SimTime)>,
    hb_open: Option<(SpanId, SimTime)>,
    queue_delay: SimDuration,
    heartbeat_delay: SimDuration,
}

#[derive(Debug)]
struct RecoveryState {
    root: SpanId,
    register_open: Option<(SpanId, SimTime)>,
    report_open: Option<(SpanId, SimTime)>,
    reignite_open: Option<(SpanId, SimTime)>,
}

/// A forest of spans reconstructed from one recorded event stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanForest {
    /// Every span, sorted by id (i.e. by opening seq).
    pub spans: Vec<Span>,
    /// Retransmissions observed (`RpcRetried` records).
    pub retries_observed: u64,
    rounds_done: Vec<RoundDone>,
    job_delays: Vec<(u64, SimDuration, SimDuration)>,
}

impl SpanForest {
    /// Rebuilds the span forest from a recorded stream. Spans still open
    /// when the stream ends are closed at the last record's timestamp.
    pub fn build(events: &[EventRecord]) -> SpanForest {
        Builder::default().run(events)
    }

    /// The span with the given id, if present.
    pub fn span(&self, id: SpanId) -> Option<&Span> {
        self.spans
            .binary_search_by(|s| s.id.cmp(&id))
            .ok()
            .map(|i| &self.spans[i])
    }

    /// Direct children of `id`, in id order.
    pub fn children(&self, id: SpanId) -> Vec<&Span> {
        self.spans.iter().filter(|s| s.parent == Some(id)).collect()
    }

    /// A span's exclusive time: its duration minus the summed durations of
    /// its direct children (saturating; overlapping children may overcount
    /// coverage, which only ever shrinks the exclusive share).
    pub fn exclusive(&self, id: SpanId) -> SimDuration {
        let Some(span) = self.span(id) else {
            return SimDuration::ZERO;
        };
        let covered: u64 = self
            .children(id)
            .iter()
            .map(|c| c.duration().as_micros())
            .sum();
        SimDuration::from_micros(span.duration().as_micros().saturating_sub(covered))
    }

    /// Charges every span's exclusive time to its category and aggregates
    /// per owning job (see [`CriticalPath`]).
    pub fn critical_path(&self) -> CriticalPath {
        let mut jobs: BTreeMap<u64, JobCriticalPath> = BTreeMap::new();
        for (job, queue_delay, heartbeat_delay) in &self.job_delays {
            let e = jobs
                .entry(*job)
                .or_insert_with(|| JobCriticalPath::new(*job));
            e.queueing = *queue_delay;
            e.master_processing = *heartbeat_delay;
        }
        for r in &self.rounds_done {
            let Some(owner) = r.owner else { continue };
            let e = jobs
                .entry(owner)
                .or_insert_with(|| JobCriticalPath::new(owner));
            if let Some(t) = r.credited_transfer {
                e.disk_contention += t;
            }
            e.migration_queue += r.queued;
            e.retransmission_backoff += r.backoff;
            e.network += SimDuration::from_micros(
                r.command.as_micros().saturating_sub(r.backoff.as_micros()),
            );
        }
        CriticalPath {
            jobs: jobs.into_values().collect(),
            retries: self.retries_observed,
        }
    }

    /// A canonical single-line rendering of every span, for hashing and
    /// golden pins. Integer-only and ordered by span id.
    pub fn canonical_lines(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&format!(
                "{} id={} parent={} cat={} node={} job={} block={} start={} end={}\n",
                s.name,
                s.id.0,
                s.parent.map(|p| p.0 as i64).unwrap_or(-1),
                s.category.tag(),
                s.node,
                s.job,
                s.block,
                s.start.as_micros(),
                s.end.as_micros(),
            ));
        }
        out
    }
}

/// Per-job critical-path decomposition: each field is an exact sum of span
/// (exclusive) durations of that category, attributed to the job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobCriticalPath {
    /// Job id.
    pub job: u64,
    /// Submission → schedulable (equals the explainer's `queue_delay`).
    pub queueing: SimDuration,
    /// Schedulable → first task assignment (equals `heartbeat_delay`).
    pub master_processing: SimDuration,
    /// Credited migration read service (equals `migration_service`).
    pub disk_contention: SimDuration,
    /// Time the job's migration rounds waited in slave queues.
    pub migration_queue: SimDuration,
    /// Command network time (issue → acceptance, minus backoff).
    pub network: SimDuration,
    /// Retransmission backoff inside the job's commands.
    pub retransmission_backoff: SimDuration,
}

impl JobCriticalPath {
    fn new(job: u64) -> JobCriticalPath {
        JobCriticalPath {
            job,
            queueing: SimDuration::ZERO,
            master_processing: SimDuration::ZERO,
            disk_contention: SimDuration::ZERO,
            migration_queue: SimDuration::ZERO,
            network: SimDuration::ZERO,
            retransmission_backoff: SimDuration::ZERO,
        }
    }
}

/// The critical-path extraction over a whole stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CriticalPath {
    /// Per-job sums, ordered by job id.
    pub jobs: Vec<JobCriticalPath>,
    /// Retransmissions observed in the stream (reconciles against the
    /// master's `retries` counter on an untruncated stream).
    pub retries: u64,
}

impl CriticalPath {
    /// The entry for one job, if the stream mentioned it.
    pub fn job(&self, job: u64) -> Option<&JobCriticalPath> {
        self.jobs.iter().find(|j| j.job == job)
    }
}

#[derive(Default)]
struct Builder {
    spans: Vec<Span>,
    jobs: BTreeMap<u64, JobState>,
    tasks: BTreeMap<u64, (SpanId, SimTime, u32, u64)>,
    rounds: BTreeMap<(u32, u64), RoundState>,
    residents: BTreeMap<(u32, u64), Vec<(SpanId, SimTime)>>,
    retry_last: BTreeMap<u64, SimTime>,
    recoveries: BTreeMap<u32, RecoveryState>,
    rounds_done: Vec<RoundDone>,
    retries_observed: u64,
    last_at: SimTime,
}

impl Builder {
    #[expect(
        clippy::too_many_arguments,
        reason = "one parameter per `Span` field; a params struct would just mirror `Span`"
    )]
    fn push(
        &mut self,
        id: SpanId,
        parent: Option<SpanId>,
        name: &'static str,
        category: Category,
        node: i64,
        job: i64,
        block: i64,
        start: SimTime,
        end: SimTime,
    ) {
        self.spans.push(Span {
            id,
            parent,
            name,
            category,
            node,
            job,
            block,
            start,
            end,
        });
    }

    fn run(mut self, events: &[EventRecord]) -> SpanForest {
        for rec in events {
            self.last_at = rec.at;
            self.handle(rec);
        }
        self.finish()
    }

    fn job_root(&self, job: u64) -> Option<SpanId> {
        self.jobs.get(&job).map(|j| j.root)
    }

    /// Opens a migration round if `(node, block)` has none, rooted at the
    /// given record.
    fn open_round(&mut self, key: (u32, u64), seq: u64, at: SimTime, job: Option<u64>) {
        let st = self.rounds.entry(key).or_default();
        if st.root.is_none() {
            let root = SpanId::new(seq, 0);
            st.root = Some(root);
            st.root_start = at;
            let parent = job.and_then(|j| self.jobs.get(&j).map(|s| s.root));
            self.spans.push(Span {
                id: root,
                parent,
                name: "migration",
                category: Category::Structural,
                node: key.0 as i64,
                job: job.map(|j| j as i64).unwrap_or(-1),
                block: key.1 as i64,
                start: at,
                end: at,
            });
        }
    }

    /// Closes any open child spans of a round at `at` and retires it.
    fn close_round(&mut self, key: (u32, u64), at: SimTime, credited: Option<SimDuration>) {
        let Some(mut st) = self.rounds.remove(&key) else {
            return;
        };
        if let Some((id, start)) = st.command.take() {
            st.command_total += at.saturating_duration_since(start);
            self.seal(id, at);
        }
        if let Some((id, start)) = st.queued_open.take() {
            st.queued_total += at.saturating_duration_since(start);
            self.seal(id, at);
        }
        if let Some((id, _)) = st.transfer_open.take() {
            self.seal(id, at);
        }
        if let Some(root) = st.root {
            self.seal(root, at);
        }
        self.rounds_done.push(RoundDone {
            owner: st.owner,
            credited_transfer: credited,
            queued: st.queued_total,
            command: st.command_total,
            backoff: st.backoff_total,
        });
    }

    /// Sets a span's end time (spans are pushed open with `end == start`).
    fn seal(&mut self, id: SpanId, end: SimTime) {
        if let Some(s) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            s.end = end;
        }
    }

    fn handle(&mut self, rec: &EventRecord) {
        let (seq, at) = (rec.seq, rec.at);
        match &rec.event {
            Event::JobSubmitted { job, .. } if !self.jobs.contains_key(job) => {
                let root = SpanId::new(seq, 0);
                let queue = SpanId::new(seq, 1);
                self.push(
                    root,
                    None,
                    "job",
                    Category::Structural,
                    -1,
                    *job as i64,
                    -1,
                    at,
                    at,
                );
                self.push(
                    queue,
                    Some(root),
                    "queue",
                    Category::Queueing,
                    -1,
                    *job as i64,
                    -1,
                    at,
                    at,
                );
                self.jobs.insert(
                    *job,
                    JobState {
                        root,
                        queue_open: Some((queue, at)),
                        hb_open: None,
                        queue_delay: SimDuration::ZERO,
                        heartbeat_delay: SimDuration::ZERO,
                    },
                );
            }
            Event::JobScheduled { job } => {
                let Some(js) = self.jobs.get_mut(job) else {
                    return;
                };
                if let Some((id, start)) = js.queue_open.take() {
                    js.queue_delay = at.saturating_duration_since(start);
                    let root = js.root;
                    let hb = SpanId::new(seq, 0);
                    let j = *job as i64;
                    self.seal(id, at);
                    self.push(
                        hb,
                        Some(root),
                        "heartbeat_wait",
                        Category::MasterProcessing,
                        -1,
                        j,
                        -1,
                        at,
                        at,
                    );
                    if let Some(js) = self.jobs.get_mut(job) {
                        js.hb_open = Some((hb, at));
                    }
                }
            }
            Event::TaskAssigned { task, job, node } => {
                let parent = self.job_root(*job);
                if let Some(js) = self.jobs.get_mut(job) {
                    if let Some((id, start)) = js.hb_open.take() {
                        js.heartbeat_delay = at.saturating_duration_since(start);
                        self.seal(id, at);
                    }
                }
                let id = SpanId::new(seq, 0);
                self.push(
                    id,
                    parent,
                    "task",
                    Category::Structural,
                    *node as i64,
                    *job as i64,
                    -1,
                    at,
                    at,
                );
                self.tasks.insert(*task, (id, at, *node, *job));
            }
            Event::TaskFinished { task, .. } => {
                if let Some((id, _, _, _)) = self.tasks.remove(task) {
                    self.seal(id, at);
                }
            }
            Event::JobCompleted { job, .. } => {
                let mut to_seal = Vec::new();
                if let Some(js) = self.jobs.get_mut(job) {
                    if let Some((id, start)) = js.queue_open.take() {
                        js.queue_delay = at.saturating_duration_since(start);
                        to_seal.push(id);
                    }
                    if let Some((id, start)) = js.hb_open.take() {
                        js.heartbeat_delay = at.saturating_duration_since(start);
                        to_seal.push(id);
                    }
                    to_seal.push(js.root);
                }
                for id in to_seal {
                    self.seal(id, at);
                }
            }
            Event::MigrationAssigned {
                job, block, node, ..
            } => {
                let key = (*node, *block);
                self.open_round(key, seq, at, Some(*job));
                #[expect(
                    clippy::expect_used,
                    reason = "`open_round` inserted this key just above"
                )]
                let st = self.rounds.get_mut(&key).expect("round just opened");
                if st.command.is_none() {
                    let root = st.root;
                    let id = SpanId::new(seq, 1);
                    st.command = Some((id, at));
                    self.push(
                        id,
                        root,
                        "command",
                        Category::Network,
                        *node as i64,
                        *job as i64,
                        *block as i64,
                        at,
                        at,
                    );
                }
            }
            Event::MigrationEnqueued {
                node, job, block, ..
            } => {
                let key = (*node, *block);
                self.open_round(key, seq, at, Some(*job));
                #[expect(
                    clippy::expect_used,
                    reason = "`open_round` inserted this key just above"
                )]
                let st = self.rounds.get_mut(&key).expect("round just opened");
                // First enqueuer owns the round — the explainer's rule.
                if st.owner.is_none() {
                    st.owner = Some(*job);
                }
                let root = st.root;
                if let Some((id, start)) = st.command.take() {
                    st.command_total += at.saturating_duration_since(start);
                    self.seal(id, at);
                }
                #[expect(
                    clippy::expect_used,
                    reason = "the round was opened at the top of this arm; `seal` never removes rounds"
                )]
                let st = self.rounds.get_mut(&key).expect("round exists");
                if st.queued_open.is_none() && st.transfer_open.is_none() {
                    let id = SpanId::new(seq, 1);
                    st.queued_open = Some((id, at));
                    self.push(
                        id,
                        root,
                        "queued",
                        Category::Queueing,
                        *node as i64,
                        *job as i64,
                        *block as i64,
                        at,
                        at,
                    );
                }
                // A pending re-ignition completes at the first accepted
                // migration command after the node's block report.
                if let Some(rs) = self.recoveries.get_mut(node) {
                    if let Some((id, _)) = rs.reignite_open.take() {
                        let root = rs.root;
                        self.seal(id, at);
                        self.seal(root, at);
                        self.recoveries.remove(node);
                    }
                }
            }
            Event::MigrationStarted { node, block, .. } => {
                let key = (*node, *block);
                self.open_round(key, seq, at, None);
                #[expect(
                    clippy::expect_used,
                    reason = "`open_round` inserted this key just above"
                )]
                let st = self.rounds.get_mut(&key).expect("round just opened");
                let root = st.root;
                let job = st.owner.map(|j| j as i64).unwrap_or(-1);
                if let Some((id, start)) = st.queued_open.take() {
                    st.queued_total += at.saturating_duration_since(start);
                    self.seal(id, at);
                }
                #[expect(
                    clippy::expect_used,
                    reason = "the round was opened at the top of this arm; `seal` never removes rounds"
                )]
                let st = self.rounds.get_mut(&key).expect("round exists");
                st.started_at = Some(at);
                let id = SpanId::new(seq, 0);
                st.transfer_open = Some((id, at));
                self.push(
                    id,
                    root,
                    "transfer",
                    Category::DiskContention,
                    *node as i64,
                    job,
                    *block as i64,
                    at,
                    at,
                );
            }
            Event::MigrationCompleted { node, block, .. } => {
                let key = (*node, *block);
                let (credited, root, job) = match self.rounds.get(&key) {
                    Some(st) => (
                        match (st.owner, st.started_at) {
                            (Some(_), Some(started)) => Some(at.saturating_duration_since(started)),
                            _ => None,
                        },
                        st.root,
                        st.owner.map(|j| j as i64).unwrap_or(-1),
                    ),
                    None => (None, None, -1),
                };
                self.close_round(key, at, credited);
                let id = SpanId::new(seq, 1);
                self.residents.entry(key).or_default().push((id, at));
                self.push(
                    id,
                    root,
                    "resident",
                    Category::Structural,
                    *node as i64,
                    job,
                    *block as i64,
                    at,
                    at,
                );
            }
            Event::MigrationWasted { node, block, .. }
            | Event::MigrationCancelled { node, block } => {
                self.close_round((*node, *block), at, None);
            }
            Event::MigrationDiscarded { node, block } => {
                let key = (*node, *block);
                // Before the read starts a discard dissolves the round;
                // after, the owner keeps it (the explainer's guard).
                if matches!(self.rounds.get(&key), Some(st) if st.started_at.is_none()) {
                    self.close_round(key, at, None);
                }
            }
            Event::BlockEvicted { node, block, .. } => {
                if let Some(open) = self.residents.get_mut(&(*node, *block)) {
                    if !open.is_empty() {
                        let (id, _) = open.remove(0);
                        self.seal(id, at);
                    }
                }
            }
            Event::RpcRetried {
                seq: rpc_seq,
                node,
                attempt: _,
            } => {
                self.retries_observed += 1;
                // Attribute to the earliest open command span on the node
                // (commands batch per slave; the heuristic is deterministic
                // and documented in DESIGN.md §12).
                let target = self
                    .rounds
                    .iter()
                    .filter(|((n, _), _)| *n == *node)
                    .filter_map(|(key, st)| {
                        let (id, start) = st.command?;
                        Some((id, start, *key))
                    })
                    .min_by_key(|(id, _, _)| *id);
                let id = SpanId::new(seq, 0);
                let start = self
                    .retry_last
                    .get(rpc_seq)
                    .copied()
                    .or(target.map(|(_, s, _)| s))
                    .unwrap_or(at);
                self.retry_last.insert(*rpc_seq, at);
                match target {
                    Some((parent, _, key)) => {
                        if let Some(st) = self.rounds.get_mut(&key) {
                            st.backoff_total += at.saturating_duration_since(start);
                        }
                        self.push(
                            id,
                            Some(parent),
                            "retry",
                            Category::RetransmissionBackoff,
                            *node as i64,
                            -1,
                            -1,
                            start,
                            at,
                        );
                    }
                    None => {
                        // No open migrate command (e.g. an evict retry):
                        // record the backoff as a free-standing span.
                        self.push(
                            id,
                            None,
                            "retry",
                            Category::RetransmissionBackoff,
                            *node as i64,
                            -1,
                            -1,
                            start,
                            at,
                        );
                    }
                }
            }
            Event::NodeRestarted { node, .. } => {
                let root = SpanId::new(seq, 0);
                let register = SpanId::new(seq, 1);
                self.push(
                    root,
                    None,
                    "recovery",
                    Category::Structural,
                    *node as i64,
                    -1,
                    -1,
                    at,
                    at,
                );
                self.push(
                    register,
                    Some(root),
                    "register",
                    Category::Structural,
                    *node as i64,
                    -1,
                    -1,
                    at,
                    at,
                );
                self.recoveries.insert(
                    *node,
                    RecoveryState {
                        root,
                        register_open: Some((register, at)),
                        report_open: None,
                        reignite_open: None,
                    },
                );
            }
            Event::SlaveRegistered { node, .. } => {
                if let Some(rs) = self.recoveries.get_mut(node) {
                    if let Some((id, _)) = rs.register_open.take() {
                        let root = rs.root;
                        let report = SpanId::new(seq, 0);
                        rs.report_open = Some((report, at));
                        self.seal(id, at);
                        self.push(
                            report,
                            Some(root),
                            "block_report",
                            Category::Structural,
                            *node as i64,
                            -1,
                            -1,
                            at,
                            at,
                        );
                    }
                }
            }
            Event::BlockReportReceived { node, .. } => {
                if let Some(rs) = self.recoveries.get_mut(node) {
                    if let Some((id, _)) = rs.report_open.take() {
                        let root = rs.root;
                        let reignite = SpanId::new(seq, 0);
                        rs.reignite_open = Some((reignite, at));
                        self.seal(id, at);
                        self.push(
                            reignite,
                            Some(root),
                            "reignite",
                            Category::Structural,
                            *node as i64,
                            -1,
                            -1,
                            at,
                            at,
                        );
                    }
                }
            }
            // The remaining events carry no span evidence. Each one is
            // named (no catch-all) so that adding an `Event` variant
            // forces a decision here: the compiler rejects this match
            // until the new variant is handled.
            Event::JobSubmitted { .. }
            | Event::TaskStarted { .. }
            | Event::TaskSpeculated { .. }
            | Event::BlockRead { .. }
            | Event::MigrationRejected { .. }
            | Event::RpcSent { .. }
            | Event::RpcDropped { .. }
            | Event::RpcDuplicated { .. }
            | Event::RpcCut { .. }
            | Event::RpcAcked { .. }
            | Event::RpcGaveUp { .. }
            | Event::LeaseExpired { .. }
            | Event::EpochRejected { .. }
            | Event::IncarnationRejected { .. }
            | Event::NodeCrashed { .. }
            | Event::RereplicationStarted { .. }
            | Event::RereplicationDeferred { .. }
            | Event::FaultInjected { .. }
            | Event::FaultHealed { .. } => {}
        }
    }

    fn finish(mut self) -> SpanForest {
        let at = self.last_at;
        // Close everything still open at the end of the stream.
        let open_rounds: Vec<(u32, u64)> = self.rounds.keys().copied().collect();
        for key in open_rounds {
            self.close_round(key, at, None);
        }
        let open_jobs: Vec<u64> = self.jobs.keys().copied().collect();
        for job in open_jobs {
            let Some(js) = self.jobs.get_mut(&job) else {
                continue;
            };
            let (queue_open, hb_open, root) = (js.queue_open.take(), js.hb_open.take(), js.root);
            if let Some((id, start)) = queue_open {
                if let Some(js) = self.jobs.get_mut(&job) {
                    js.queue_delay = at.saturating_duration_since(start);
                }
                self.seal(id, at);
            }
            if let Some((id, start)) = hb_open {
                if let Some(js) = self.jobs.get_mut(&job) {
                    js.heartbeat_delay = at.saturating_duration_since(start);
                }
                self.seal(id, at);
            }
            self.seal(root, at);
        }
        let open_tasks: Vec<u64> = self.tasks.keys().copied().collect();
        for task in open_tasks {
            if let Some((id, _, _, _)) = self.tasks.remove(&task) {
                self.seal(id, at);
            }
        }
        let resident_ids: Vec<SpanId> = self
            .residents
            .values()
            .flat_map(|v| v.iter().map(|(id, _)| *id))
            .collect();
        for id in resident_ids {
            self.seal(id, at);
        }
        let recovery_ids: Vec<SpanId> = self
            .recoveries
            .values()
            .flat_map(|rs| {
                [
                    Some(rs.root),
                    rs.register_open.map(|(id, _)| id),
                    rs.report_open.map(|(id, _)| id),
                    rs.reignite_open.map(|(id, _)| id),
                ]
            })
            .flatten()
            .collect();
        for id in recovery_ids {
            self.seal(id, at);
        }
        let job_delays = self
            .jobs
            .iter()
            .map(|(job, js)| (*job, js.queue_delay, js.heartbeat_delay))
            .collect();
        let mut spans = self.spans;
        spans.sort_by_key(|s| s.id);
        SpanForest {
            spans,
            retries_observed: self.retries_observed,
            rounds_done: self.rounds_done,
            job_delays,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, at_s: u64, event: Event) -> EventRecord {
        EventRecord {
            seq,
            at: SimTime::from_secs(at_s),
            event,
        }
    }

    fn migration_stream() -> Vec<EventRecord> {
        vec![
            rec(
                0,
                0,
                Event::JobSubmitted {
                    job: 1,
                    name: "j".into(),
                    plan: 0,
                    stage: 0,
                },
            ),
            rec(1, 2, Event::JobScheduled { job: 1 }),
            rec(
                2,
                2,
                Event::MigrationAssigned {
                    job: 1,
                    block: 7,
                    node: 3,
                    bytes: 64,
                },
            ),
            rec(
                3,
                3,
                Event::RpcRetried {
                    seq: 10,
                    node: 3,
                    attempt: 2,
                },
            ),
            rec(
                4,
                5,
                Event::MigrationEnqueued {
                    node: 3,
                    job: 1,
                    block: 7,
                    bytes: 64,
                },
            ),
            rec(
                5,
                6,
                Event::TaskAssigned {
                    task: 1,
                    job: 1,
                    node: 3,
                },
            ),
            rec(
                6,
                8,
                Event::MigrationStarted {
                    node: 3,
                    block: 7,
                    bytes: 64,
                },
            ),
            rec(
                7,
                13,
                Event::MigrationCompleted {
                    node: 3,
                    block: 7,
                    bytes: 64,
                },
            ),
            rec(
                8,
                20,
                Event::TaskFinished {
                    task: 1,
                    job: 1,
                    node: 3,
                },
            ),
            rec(
                9,
                20,
                Event::JobCompleted {
                    job: 1,
                    duration_us: 0,
                },
            ),
            rec(
                10,
                21,
                Event::BlockEvicted {
                    node: 3,
                    block: 7,
                    bytes: 64,
                },
            ),
        ]
    }

    #[test]
    fn migration_round_becomes_a_tree() {
        let f = SpanForest::build(&migration_stream());
        let root = f.spans.iter().find(|s| s.name == "migration").unwrap();
        assert_eq!(root.node, 3);
        assert_eq!(root.block, 7);
        // Root parented under the job span.
        let job = f.spans.iter().find(|s| s.name == "job").unwrap();
        assert_eq!(root.parent, Some(job.id));
        let kids = f.children(root.id);
        let names: Vec<&str> = kids.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["command", "queued", "transfer", "resident"]);
        // Retry hangs off the command span.
        let command = kids.iter().find(|s| s.name == "command").unwrap();
        let retry = f.spans.iter().find(|s| s.name == "retry").unwrap();
        assert_eq!(retry.parent, Some(command.id));
        // Retry backoff runs from the command issue to the retransmission.
        assert_eq!(retry.start, SimTime::from_secs(2));
        assert_eq!(retry.end, SimTime::from_secs(3));
        // Resident span ends at the eviction.
        let resident = f.spans.iter().find(|s| s.name == "resident").unwrap();
        assert_eq!(resident.start, SimTime::from_secs(13));
        assert_eq!(resident.end, SimTime::from_secs(21));
    }

    #[test]
    fn critical_path_matches_the_lead_time_decomposition() {
        let f = SpanForest::build(&migration_stream());
        let cp = f.critical_path();
        let j = cp.job(1).expect("job 1 on the critical path");
        assert_eq!(j.queueing, SimDuration::from_secs(2));
        assert_eq!(j.master_processing, SimDuration::from_secs(4)); // 2→6
        assert_eq!(j.disk_contention, SimDuration::from_secs(5)); // 8→13
        assert_eq!(j.migration_queue, SimDuration::from_secs(3)); // 5→8
                                                                  // Command ran 2→5 with 1s of backoff inside.
        assert_eq!(j.retransmission_backoff, SimDuration::from_secs(1));
        assert_eq!(j.network, SimDuration::from_secs(2));
        assert_eq!(cp.retries, 1);
    }

    #[test]
    fn wasted_and_cancelled_rounds_are_uncredited() {
        let mut evs = migration_stream();
        // Replace the completion with a waste.
        evs[7] = rec(
            7,
            13,
            Event::MigrationWasted {
                node: 3,
                block: 7,
                bytes: 64,
            },
        );
        let f = SpanForest::build(&evs);
        let cp = f.critical_path();
        let j = cp.job(1).unwrap();
        assert_eq!(j.disk_contention, SimDuration::ZERO);
        // Queue and network time still happened and is still charged.
        assert_eq!(j.migration_queue, SimDuration::from_secs(3));
    }

    #[test]
    fn discard_before_start_dissolves_the_round() {
        let evs = vec![
            rec(
                0,
                1,
                Event::MigrationAssigned {
                    job: 5,
                    block: 9,
                    node: 2,
                    bytes: 64,
                },
            ),
            rec(
                1,
                2,
                Event::MigrationEnqueued {
                    node: 2,
                    job: 5,
                    block: 9,
                    bytes: 64,
                },
            ),
            rec(2, 4, Event::MigrationDiscarded { node: 2, block: 9 }),
            // A later, second round for the same key gets a fresh owner.
            rec(
                3,
                6,
                Event::MigrationEnqueued {
                    node: 2,
                    job: 8,
                    block: 9,
                    bytes: 64,
                },
            ),
            rec(
                4,
                7,
                Event::MigrationStarted {
                    node: 2,
                    block: 9,
                    bytes: 64,
                },
            ),
            rec(
                5,
                9,
                Event::MigrationCompleted {
                    node: 2,
                    block: 9,
                    bytes: 64,
                },
            ),
        ];
        let f = SpanForest::build(&evs);
        let cp = f.critical_path();
        assert_eq!(cp.job(5).unwrap().disk_contention, SimDuration::ZERO);
        assert_eq!(
            cp.job(8).unwrap().disk_contention,
            SimDuration::from_secs(2)
        );
        assert_eq!(
            f.spans.iter().filter(|s| s.name == "migration").count(),
            2,
            "two distinct rounds"
        );
    }

    #[test]
    fn recovery_epoch_becomes_a_tree() {
        let evs = vec![
            rec(
                0,
                10,
                Event::NodeRestarted {
                    node: 4,
                    incarnation: 2,
                },
            ),
            rec(
                1,
                12,
                Event::SlaveRegistered {
                    node: 4,
                    incarnation: 2,
                },
            ),
            rec(2, 13, Event::BlockReportReceived { node: 4, blocks: 8 }),
            rec(
                3,
                15,
                Event::MigrationEnqueued {
                    node: 4,
                    job: 1,
                    block: 3,
                    bytes: 64,
                },
            ),
        ];
        let f = SpanForest::build(&evs);
        let root = f.spans.iter().find(|s| s.name == "recovery").unwrap();
        let names: Vec<&str> = f.children(root.id).iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["register", "block_report", "reignite"]);
        assert_eq!(root.start, SimTime::from_secs(10));
        assert_eq!(root.end, SimTime::from_secs(15));
        let reignite = f.spans.iter().find(|s| s.name == "reignite").unwrap();
        assert_eq!(reignite.start, SimTime::from_secs(13));
        assert_eq!(reignite.end, SimTime::from_secs(15));
    }

    #[test]
    fn same_stream_builds_identical_forests() {
        let evs = migration_stream();
        let a = SpanForest::build(&evs);
        let b = SpanForest::build(&evs);
        assert_eq!(a, b);
        assert!(!a.canonical_lines().is_empty());
        // Canonical lines are integer-only (no float formatting).
        assert!(!a.canonical_lines().contains('.'));
    }

    /// Regression for the release-mode sibling collision: with the old
    /// two-bit disambiguator a fifth sibling span opened by one record
    /// wrapped into its first sibling's id. The widened field must keep
    /// every id distinct and round-trip the opening seq.
    #[test]
    fn more_than_four_siblings_get_distinct_ids() {
        let seq = 42u64;
        let ids: Vec<SpanId> = (0..(1 << SPAN_DISAMBIGUATOR_BITS))
            .map(|k| SpanId::new(seq, k))
            .collect();
        for (i, a) in ids.iter().enumerate() {
            assert_eq!(a.opening_seq(), seq);
            for b in &ids[i + 1..] {
                assert_ne!(a, b, "sibling span ids collided");
            }
        }
        // Ids from the next record never overlap any sibling of this one.
        assert!(ids.iter().all(|a| a.0 < SpanId::new(seq + 1, 0).0));
    }

    /// Overflowing the disambiguator must abort loudly in release builds
    /// too, not silently corrupt the forest.
    #[test]
    #[should_panic(expected = "span disambiguator overflow")]
    fn sibling_overflow_is_a_hard_error() {
        let _ = SpanId::new(7, 1 << SPAN_DISAMBIGUATOR_BITS);
    }

    #[test]
    fn exclusive_time_subtracts_children() {
        let f = SpanForest::build(&migration_stream());
        let root = f.spans.iter().find(|s| s.name == "migration").unwrap();
        // Root spans 2→13; children command 2→5, queued 5→8, transfer
        // 8→13, resident 13→21 (extends past the root; exclusive
        // saturates at zero).
        assert_eq!(f.exclusive(root.id), SimDuration::ZERO);
        let command = f.spans.iter().find(|s| s.name == "command").unwrap();
        // Command 2→5 minus 1s retry backoff.
        assert_eq!(f.exclusive(command.id), SimDuration::from_secs(2));
    }
}
