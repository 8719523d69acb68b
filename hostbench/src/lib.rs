//! Host-time benchmark of the Ignem simulator.
//!
//! Three workloads, each one fixed-size batch run single-threaded in one
//! process through the simulator's public API:
//!
//! - `paper_testbed`: the paper's 8-node cluster, 12 SWIM traces and the
//!   40 GB sort, each under HDFS, Ignem and HDFS-Inputs-in-RAM (39 worlds);
//! - `chaos_sweep`: 8,192 consecutive chaos seeds with two node crashes
//!   each, verified the way `chaos-sweep` verifies a seed;
//! - `scale_stream`: a 2,048-node cluster replaying one simulated day of
//!   Google-trace arrivals through a lazily admitted stream.
//!
//! `BENCHMARK.json` gates `chaos_sweep` and `scale_stream`. The host time
//! of `paper_testbed` swings with the SWIM traces its seed draws, so it is
//! measured by hand; `rationale.json` records why.
//!
//! A batch returns what it measured ([`Batch`]); the binary repeats
//! batches for the requested time and reports medians. Every batch also
//! folds each world's [`fingerprint`] into a digest, so a change that is
//! meant to speed up the simulator only can be shown to leave every
//! simulated statistic identical.

pub mod json;

use std::time::Instant;

use ignem_cluster::chaos::{fingerprint, generate_faults, run_chaos, run_chaos_with, ChaosConfig};
use ignem_cluster::experiment::{run_sort, swim_files, swim_plan};
use ignem_cluster::{ClusterConfig, Fault, FsMode, PlannedJob, ReadKind, RunMetrics, World};
use ignem_simcore::profile::{HostProfiler, ProfileBucket};
use ignem_simcore::rng::SimRng;
use ignem_simcore::time::SimTime;
use ignem_simcore::units::GB;
use ignem_workloads::stream::{replay_files, JobArrival, ReplayConfig, ReplayStream};
use ignem_workloads::swim::{SwimConfig, SwimTrace};

/// The benchmark's workloads, by the names `BENCHMARK.json` uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperTestbed,
    ChaosSweep,
    ScaleStream,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperTestbed,
        Workload::ChaosSweep,
        Workload::ScaleStream,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperTestbed => "paper_testbed",
            Workload::ChaosSweep => "chaos_sweep",
            Workload::ScaleStream => "scale_stream",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Batch size: the benchmark's own, or the reduced one its smoke test
/// uses (1 SWIM trace, 16 chaos seeds, 64 nodes for one simulated hour).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

impl Size {
    fn swim_traces(self) -> u64 {
        match self {
            Size::Full => 12,
            Size::Smoke => 1,
        }
    }

    fn chaos_seeds(self) -> u64 {
        match self {
            Size::Full => 8_192,
            Size::Smoke => 16,
        }
    }

    /// `(nodes, simulated seconds of arrivals)` of the streamed world.
    fn stream(self) -> (usize, u64) {
        match self {
            Size::Full => (2_048, 86_400),
            Size::Smoke => (64, 3_600),
        }
    }
}

/// The three file-system modes the paper compares.
const MODES: [FsMode; 3] = [FsMode::Hdfs, FsMode::Ignem, FsMode::HdfsInputsInRam];

/// Node crashes added to every chaos seed's fault plan.
const CHAOS_CRASHES: usize = 2;

/// Exact work counters summed over a batch's worlds. Two batches of the
/// same seed must agree on every field.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layers {
    pub map_tasks: u64,
    pub reduce_tasks: u64,
    pub speculated: u64,
    pub migrate_requests: u64,
    pub blocks_migrated: u64,
    pub wasted_reads: u64,
    pub evicted: u64,
    pub retries: u64,
    /// Memory-served block reads in Ignem-mode worlds only, the numerator
    /// of `ignem.useful_frac`.
    pub ignem_mem_reads: u64,
    pub rpc_sent: u64,
    pub rpc_delivered: u64,
    pub rpc_dropped: u64,
    pub rpc_duplicated: u64,
    pub reads_memory: u64,
    pub reads_local: u64,
    pub reads_remote: u64,
    /// Sum over worlds of each world's mean per-node disk utilization.
    pub disk_util_sum: f64,
    pub worlds: u64,
    pub max_leaked_refs: u64,
}

impl Layers {
    fn absorb(&mut self, m: &RunMetrics, mode: FsMode) {
        self.map_tasks += m.map_task_secs.len() as u64;
        self.reduce_tasks += m.reduce_task_secs.len() as u64;
        self.speculated += m.speculated;
        self.migrate_requests += m.master_stats.migrate_requests;
        self.blocks_migrated += m.slave_stats.migrated;
        self.wasted_reads += m.slave_stats.wasted_reads;
        self.evicted += m.slave_stats.evicted;
        self.retries += m.master_stats.retries;
        self.rpc_sent += m.rpc.sent;
        self.rpc_delivered += m.rpc.delivered;
        self.rpc_dropped += m.rpc.dropped;
        self.rpc_duplicated += m.rpc.duplicated;
        for r in &m.block_reads {
            match r.kind {
                ReadKind::Memory => {
                    self.reads_memory += 1;
                    if mode == FsMode::Ignem {
                        self.ignem_mem_reads += 1;
                    }
                }
                ReadKind::LocalDisk => self.reads_local += 1,
                ReadKind::RemoteDisk => self.reads_remote += 1,
            }
        }
        if !m.disk_utilization.is_empty() {
            self.disk_util_sum +=
                m.disk_utilization.iter().sum::<f64>() / m.disk_utilization.len() as f64;
        }
        self.worlds += 1;
        self.max_leaked_refs = self.max_leaked_refs.max(m.leaked_job_refs);
    }
}

/// Host-time split of a traced chaos batch.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChaosSplit {
    /// First, validated and recorded run of every seed.
    pub run_s: f64,
    /// `check_invariants` on every first run.
    pub check_s: f64,
    /// Determinism rerun of every seed.
    pub rerun_s: f64,
}

/// What one batch measured.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    /// Input generation (SWIM traces, replay files, fault plans).
    pub gen_s: f64,
    /// `World::new` of every world built before the timed phase.
    pub build_s: f64,
    /// The timed phase.
    pub wall_s: f64,
    /// Summed `World::run_to_end` of the profiled worlds (traced only).
    pub loop_s: f64,
    /// Events handled by the profiled worlds (traced only).
    pub profiled_events: u64,
    /// Summed `World::finalize_mut` (traced only).
    pub finalize_s: f64,
    pub chaos: ChaosSplit,
    /// Simulated seconds covered: the sum of every world's makespan.
    pub sim_s: f64,
    /// Engine events handled by every world of the batch.
    pub events: u64,
    /// Operations attempted: planned or admitted jobs, or chaos seeds.
    pub attempted: u64,
    pub digest: u64,
    pub layers: Layers,
    /// `paper_testbed` only: reduction in mean SWIM job duration, Ignem
    /// against HDFS, pooled over every trace, in percent.
    pub speedup_pct: f64,
}

impl Batch {
    pub fn setup_s(&self) -> f64 {
        self.gen_s + self.build_s
    }
}

/// FNV-1a, the hash `chaos::fingerprint` itself uses, folded over 64-bit
/// words.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn fold(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Set-up runs this long in total, and at least once, per batch.
const SETUP_MIN_S: f64 = 0.2;

/// Runs a workload's set-up (`gen`, then `build` on its output) until it
/// has taken [`SETUP_MIN_S`], keeping the last result. Sets the batch's
/// `gen_s` and `build_s` to the medians over the repetitions, so a set-up
/// of a few milliseconds is timed as steadily as one of a second.
fn repeated_setup<I, T>(
    b: &mut Batch,
    mut gen: impl FnMut() -> I,
    mut build: impl FnMut(I) -> T,
) -> T {
    let (mut gens, mut builds) = (Vec::new(), Vec::new());
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let inputs = gen();
        gens.push(secs(t));
        let t = Instant::now();
        let built = build(inputs);
        builds.push(secs(t));
        if secs(start) >= SETUP_MIN_S {
            b.gen_s = median(gens);
            b.build_s = median(builds);
            return built;
        }
    }
}

/// A profiler reading the host's monotonic clock.
pub fn host_profiler() -> HostProfiler {
    let t0 = Instant::now();
    HostProfiler::new(Box::new(move || t0.elapsed().as_nanos() as u64))
}

/// Runs one batch of `workload` from `seed`. With a profiler, the batch is
/// traced: the profiler is installed in every world the benchmark builds
/// itself, and the per-world split timers run.
///
/// # Errors
///
/// Returns a description of the first job that did not complete or the
/// first chaos seed that failed its invariants or its determinism rerun.
pub fn run_batch(
    workload: Workload,
    seed: u64,
    size: Size,
    profiler: Option<&HostProfiler>,
) -> Result<Batch, String> {
    match workload {
        Workload::PaperTestbed => paper_testbed(seed, size, profiler),
        Workload::ChaosSweep => chaos_sweep(seed, size, profiler.is_some()),
        Workload::ScaleStream => scale_stream(seed, size, profiler),
    }
}

/// One SWIM trace with its cluster configuration and DFS files.
type SwimInput = (ClusterConfig, SwimTrace, Vec<(String, u64)>);

fn paper_testbed(seed: u64, size: Size, profiler: Option<&HostProfiler>) -> Result<Batch, String> {
    let mut b = Batch::default();

    let gen = || -> Vec<SwimInput> {
        (0..size.swim_traces())
            .map(|i| {
                let s = seed.wrapping_add(i);
                let trace = SwimTrace::generate(&SwimConfig::default(), &mut SimRng::new(s));
                let files = swim_files(&trace);
                let cfg = ClusterConfig {
                    seed: s,
                    ..ClusterConfig::default()
                };
                (cfg, trace, files)
            })
            .collect()
    };
    let build = |inputs: Vec<SwimInput>| {
        let mut worlds = Vec::new();
        for (cfg, trace, files) in &inputs {
            for (k, mode) in MODES.into_iter().enumerate() {
                let plan = swim_plan(trace, mode == FsMode::Ignem);
                let world = World::new(cfg.clone(), mode, files, plan, vec![]);
                let world = match profiler {
                    Some(p) => world.with_profiler(p.clone()),
                    None => world,
                };
                worlds.push((k, trace.jobs.len(), world));
            }
        }
        worlds
    };
    let worlds = repeated_setup(&mut b, gen, build);

    let mut digest = Digest::new();
    // (sum of plan durations, plans) per mode, pooled over the traces.
    let mut durations = [(0.0f64, 0usize); 3];
    let t = Instant::now();
    for (k, planned, world) in worlds {
        let m = run_world(&mut b, world, profiler.is_some());
        complete(&m, planned, "SWIM")?;
        durations[k].0 += m.plans.iter().map(|p| p.duration).sum::<f64>();
        durations[k].1 += m.plans.len();
        absorb(&mut b, &mut digest, &m, MODES[k], planned);
    }
    let sort_cfg = ClusterConfig {
        seed,
        ..ClusterConfig::default()
    };
    for mode in MODES {
        let m = run_sort(&sort_cfg, mode, 40 * GB);
        complete(&m, 1, "sort")?;
        absorb(&mut b, &mut digest, &m, mode, 1);
    }
    b.wall_s = secs(t);

    let mean = |(sum, n): (f64, usize)| sum / n as f64;
    b.speedup_pct = (1.0 - mean(durations[1]) / mean(durations[0])) * 100.0;
    digest.fold(b.events);
    b.digest = digest.0;
    Ok(b)
}

/// Runs a built world to the end and finalizes it. Traced, it also times
/// the step loop and finalization separately.
fn run_world(b: &mut Batch, mut world: World, traced: bool) -> RunMetrics {
    if !traced {
        world.run_to_end();
        return world.finalize_mut();
    }
    let t = Instant::now();
    world.run_to_end();
    b.loop_s += secs(t);
    b.profiled_events += world.events_processed();
    let t = Instant::now();
    let m = world.finalize_mut();
    b.finalize_s += secs(t);
    m
}

/// Fails unless every planned job of a world completed.
fn complete(m: &RunMetrics, planned: usize, what: &str) -> Result<(), String> {
    if m.plans.len() == planned && m.jobs.len() >= planned {
        Ok(())
    } else {
        Err(format!(
            "{what} world completed {} of {planned} planned jobs",
            m.plans.len()
        ))
    }
}

fn absorb(b: &mut Batch, digest: &mut Digest, m: &RunMetrics, mode: FsMode, planned: usize) {
    digest.fold(fingerprint(m));
    b.layers.absorb(m, mode);
    b.events += m.events_processed;
    b.sim_s += m.makespan.as_secs_f64();
    b.attempted += planned as u64;
}

/// The fault plan `run_chaos` draws for `cfg`. Drawing it here lets the
/// benchmark count plan generation as set-up; [`verify_chaos_seed`]
/// checks it against the plan `run_chaos` draws itself.
pub fn chaos_plan(cfg: &ChaosConfig) -> Vec<(SimTime, Fault)> {
    generate_faults(
        &mut SimRng::new(cfg.seed ^ 0xC4A0_5EED),
        cfg.nodes,
        ClusterConfig::default().dfs.replication,
        cfg.jobs,
        cfg.faults,
        cfg.crashes,
    )
}

/// One verified chaos seed.
#[derive(Debug, Clone)]
pub struct SeedRun {
    pub metrics: RunMetrics,
    pub fingerprint: u64,
    /// Events of both runs.
    pub events: u64,
}

/// What `chaos-sweep` does per seed: a validated, recorded run of the
/// seed's fault plan, the end-state invariants, and a second run (which
/// draws the plan itself) that must reproduce the fingerprint. `split`
/// accumulates the host time of the three steps when given.
///
/// # Errors
///
/// Returns the violated invariant or the determinism mismatch.
pub fn verify_chaos_seed(
    cfg: &ChaosConfig,
    faults: Vec<(SimTime, Fault)>,
    mut split: Option<&mut ChaosSplit>,
) -> Result<SeedRun, String> {
    let t = Instant::now();
    let first = run_chaos_with(cfg, faults);
    if let Some(s) = split.as_deref_mut() {
        s.run_s += secs(t);
    }
    let t = Instant::now();
    let verdict = first.check_invariants();
    if let Some(s) = split.as_deref_mut() {
        s.check_s += secs(t);
    }
    verdict.map_err(|e| format!("chaos seed {}: {e}", cfg.seed))?;
    let t = Instant::now();
    let second = run_chaos(cfg);
    if let Some(s) = split {
        s.rerun_s += secs(t);
    }
    if second.faults != first.faults || second.fingerprint != first.fingerprint {
        return Err(format!(
            "chaos seed {}: nondeterministic run (fingerprints {:#x} vs {:#x})",
            cfg.seed, first.fingerprint, second.fingerprint
        ));
    }
    Ok(SeedRun {
        events: first.metrics.events_processed + second.metrics.events_processed,
        fingerprint: first.fingerprint,
        metrics: first.metrics,
    })
}

fn chaos_sweep(seed: u64, size: Size, traced: bool) -> Result<Batch, String> {
    let mut b = Batch::default();

    // `run_chaos` builds each seed's world itself, so that cost stays in
    // the timed phase: users pay it on every seed.
    let gen = || -> Vec<(ChaosConfig, Vec<(SimTime, Fault)>)> {
        (0..size.chaos_seeds())
            .map(|i| {
                let cfg = ChaosConfig {
                    seed: seed.wrapping_add(i),
                    crashes: CHAOS_CRASHES,
                    ..ChaosConfig::default()
                };
                let faults = chaos_plan(&cfg);
                (cfg, faults)
            })
            .collect()
    };
    let plans = repeated_setup(&mut b, gen, |plans| plans);

    let mut digest = Digest::new();
    let mut split = ChaosSplit::default();
    let t = Instant::now();
    for (cfg, faults) in plans {
        let run = verify_chaos_seed(&cfg, faults, traced.then_some(&mut split))?;
        digest.fold(run.fingerprint);
        b.layers.absorb(&run.metrics, FsMode::Ignem);
        b.events += run.events;
        // Both runs cover the same simulated span.
        b.sim_s += 2.0 * run.metrics.makespan.as_secs_f64();
        b.attempted += 1;
    }
    b.wall_s = secs(t);
    b.chaos = split;
    digest.fold(b.events);
    b.digest = digest.0;
    Ok(b)
}

/// Adapter from a streamed arrival to a planned job. A plain `fn` so the
/// mapped stream stays `Clone`, as `World::with_arrivals` requires.
fn arrival_plan(a: JobArrival) -> PlannedJob {
    PlannedJob::single(a.name, a.submit, a.spec)
}

fn scale_stream(seed: u64, size: Size, profiler: Option<&HostProfiler>) -> Result<Batch, String> {
    let mut b = Batch::default();
    let (nodes, span_s) = size.stream();
    let rcfg = ReplayConfig::default();
    let jobs = (rcfg.arrivals_per_sec * span_s as f64).round() as u64;
    let rcfg = ReplayConfig {
        jobs: Some(jobs),
        ..rcfg
    };

    let gen = || {
        let files = replay_files(&rcfg, jobs);
        let stream =
            ReplayStream::new(rcfg, seed).map(arrival_plan as fn(JobArrival) -> PlannedJob);
        (files, stream)
    };
    let build = |(files, stream): (Vec<(String, u64)>, _)| {
        let cfg = ClusterConfig {
            nodes,
            heartbeat_sweep: true,
            seed,
            ..ClusterConfig::default()
        };
        let world =
            World::new(cfg, FsMode::Ignem, &files, vec![], vec![]).with_arrivals(Box::new(stream));
        match profiler {
            Some(p) => world.with_profiler(p.clone()),
            None => world,
        }
    };
    let world = repeated_setup(&mut b, gen, build);

    let t = Instant::now();
    let m = run_world(&mut b, world, profiler.is_some());
    b.wall_s = secs(t);

    let jobs = jobs as usize;
    complete(&m, jobs, "streamed")?;
    let mut digest = Digest::new();
    absorb(&mut b, &mut digest, &m, FsMode::Ignem, jobs);
    digest.fold(b.events);
    b.digest = digest.0;
    Ok(b)
}

/// Event kinds reported one by one; every other kind is summed into
/// `dispatch.other`.
pub const DISPATCH_KINDS: [&str; 11] = [
    "net_timer",
    "task_launched",
    "task_compute_done",
    "heartbeat",
    "heartbeat_sweep",
    "arrival",
    "submit",
    "queued",
    "disk_timer",
    "deliver_migrates",
    "cleanup_sweep",
];

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Median of a non-empty sample.
pub fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn median_of(batches: &[Batch], f: impl Fn(&Batch) -> f64) -> f64 {
    median(batches.iter().map(f).collect())
}

/// The end-to-end metrics of untraced batches. `peak_rss_mib` is the
/// process's `VmHWM`.
pub fn end_to_end(batches: &[Batch], peak_rss_mib: f64) -> Vec<Metric> {
    vec![
        metric("wall_s", median_of(batches, |b| b.wall_s), "s"),
        metric("setup_s", median_of(batches, Batch::setup_s), "s"),
        metric(
            "sim_s_per_wall_s",
            median_of(batches, |b| b.sim_s / b.wall_s),
            "s/s",
        ),
        metric("peak_rss_mib", peak_rss_mib, "MiB"),
    ]
}

/// The per-layer metrics: exact counts from the first untraced batch,
/// host-time splits as medians over the traced batches, each paired with
/// the profiler report of its run.
///
/// # Errors
///
/// Fails when the profile does not account for the traced step loop:
/// handler time exceeding the loop's wall, or a handled-event count that
/// differs from the events the profiled worlds processed.
pub fn per_layer(
    untraced: &[Batch],
    traced: &[(Batch, Vec<(&'static str, ProfileBucket)>)],
) -> Result<Vec<Metric>, String> {
    let base = &untraced[0];
    let l = &base.layers;
    let mut out = Vec::new();

    let names: Vec<&str> = DISPATCH_KINDS.iter().copied().chain(["other"]).collect();
    let mut self_s: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
    let mut first_counts: Option<Vec<u64>> = None;
    let mut engine = Vec::new();
    for (b, report) in traced {
        let mut nanos = vec![0u64; names.len()];
        let mut counts = vec![0u64; names.len()];
        for (name, bucket) in report {
            let i = DISPATCH_KINDS
                .iter()
                .position(|k| k == name)
                .unwrap_or(DISPATCH_KINDS.len());
            nanos[i] += bucket.nanos;
            counts[i] += bucket.count;
        }
        let handled: u64 = counts.iter().sum();
        let handler_s = nanos.iter().sum::<u64>() as f64 / 1e9;
        if handled != b.profiled_events {
            return Err(format!(
                "profile counted {handled} handled events, the profiled worlds processed {}",
                b.profiled_events
            ));
        }
        if handler_s > b.loop_s {
            return Err(format!(
                "handler self time {handler_s} s exceeds the traced step loop's {} s",
                b.loop_s
            ));
        }
        engine.push(b.loop_s - handler_s);
        for (s, n) in self_s.iter_mut().zip(&nanos) {
            s.push(*n as f64 / 1e9);
        }
        match &first_counts {
            Some(c) if *c != counts => {
                return Err("dispatch counts differ between traced batches".into())
            }
            Some(_) => {}
            None => first_counts = Some(counts),
        }
    }
    let counts = first_counts.ok_or("no traced batch")?;
    for ((kind, s), count) in names.iter().zip(self_s).zip(counts) {
        let s = median(s);
        let per = if count == 0 {
            0.0
        } else {
            s * 1e9 / count as f64
        };
        out.push(metric(
            format!("dispatch.{kind}.count"),
            count as f64,
            "count",
        ));
        out.push(metric(format!("dispatch.{kind}.self_s"), s, "s"));
        out.push(metric(format!("dispatch.{kind}.ns_per_event"), per, "ns"));
    }

    let wall = median_of(untraced, |b| b.wall_s);
    let traced_only: Vec<Batch> = traced.iter().map(|(b, _)| b.clone()).collect();
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let reads = l.reads_memory + l.reads_local + l.reads_remote;
    out.extend([
        metric("simcore.events", base.events as f64, "count"),
        metric("simcore.engine_s", median(engine), "s"),
        metric(
            "simcore.ns_per_event",
            wall * 1e9 / base.events as f64,
            "ns",
        ),
        metric("cluster.build_s", median_of(untraced, |b| b.build_s), "s"),
        metric("workloads.gen_s", median_of(untraced, |b| b.gen_s), "s"),
        metric(
            "cluster.finalize_s",
            median_of(&traced_only, |b| b.finalize_s),
            "s",
        ),
        metric(
            "chaos.run_s",
            median_of(&traced_only, |b| b.chaos.run_s),
            "s",
        ),
        metric(
            "chaos.check_s",
            median_of(&traced_only, |b| b.chaos.check_s),
            "s",
        ),
        metric(
            "chaos.rerun_s",
            median_of(&traced_only, |b| b.chaos.rerun_s),
            "s",
        ),
        metric("chaos.max_leaked_refs", l.max_leaked_refs as f64, "count"),
        metric("compute.map_tasks", l.map_tasks as f64, "count"),
        metric("compute.reduce_tasks", l.reduce_tasks as f64, "count"),
        metric("compute.speculated", l.speculated as f64, "count"),
        metric("ignem.migrate_requests", l.migrate_requests as f64, "count"),
        metric("ignem.blocks_migrated", l.blocks_migrated as f64, "count"),
        metric("ignem.wasted_reads", l.wasted_reads as f64, "count"),
        metric("ignem.evicted", l.evicted as f64, "count"),
        metric("ignem.retries", l.retries as f64, "count"),
        metric(
            "ignem.useful_frac",
            ratio(l.ignem_mem_reads, l.blocks_migrated),
            "ratio",
        ),
        metric("ignem_speedup_pct", base.speedup_pct, "%"),
        metric("netsim.rpc_sent", l.rpc_sent as f64, "count"),
        metric("netsim.rpc_dropped", l.rpc_dropped as f64, "count"),
        metric("netsim.rpc_duplicated", l.rpc_duplicated as f64, "count"),
        metric(
            "netsim.rpc_delivered_frac",
            ratio(l.rpc_delivered, l.rpc_sent),
            "ratio",
        ),
        metric("storage.reads_memory", l.reads_memory as f64, "count"),
        metric("storage.reads_local", l.reads_local as f64, "count"),
        metric("storage.reads_remote", l.reads_remote as f64, "count"),
        metric(
            "storage.mem_read_frac",
            ratio(l.reads_memory, reads),
            "ratio",
        ),
        metric(
            "storage.disk_util_mean",
            l.disk_util_sum / l.worlds.max(1) as f64,
            "ratio",
        ),
        metric(
            "trace.overhead_frac",
            median_of(&traced_only, |b| b.wall_s) / wall - 1.0,
            "ratio",
        ),
    ]);
    Ok(out)
}

/// The benchmark's recorded seeds and digests (`rationale.json`).
pub const RATIONALE: &str = include_str!("../rationale.json");

/// One seed `rationale.json` records for a workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedSeed {
    /// `default` or `held_out`.
    pub role: String,
    pub seed: u64,
    pub digest: u64,
}

/// The seeds `rationale.json` records for `workload`.
///
/// # Errors
///
/// Fails when `rationale.json` is malformed.
pub fn recorded_seeds(workload: Workload) -> Result<Vec<RecordedSeed>, String> {
    let doc = json::parse(RATIONALE)?;
    let entries = doc
        .get("workloads")
        .and_then(|w| w.get(workload.name()))
        .and_then(|w| w.get("seeds"))
        .and_then(json::Json::as_object)
        .ok_or_else(|| format!("rationale.json has no seeds for {}", workload.name()))?;
    entries
        .iter()
        .map(|(role, entry)| {
            let seed = entry.get("seed").and_then(json::Json::as_f64);
            let digest = entry.get("digest").and_then(json::Json::as_str);
            match (seed, digest) {
                (Some(seed), Some(digest)) => Ok(RecordedSeed {
                    role: role.clone(),
                    seed: seed as u64,
                    digest: parse_digest(digest)?,
                }),
                _ => Err(format!(
                    "rationale.json: {role} seed needs a seed and a digest"
                )),
            }
        })
        .collect()
}

/// Parses a `0x`-prefixed hexadecimal digest.
///
/// # Errors
///
/// Fails on anything else.
pub fn parse_digest(text: &str) -> Result<u64, String> {
    text.strip_prefix("0x")
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or_else(|| format!("bad digest `{text}` (want 0x-prefixed hex)"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_violating_chaos_seed_fails_the_check() {
        // Seed 304 without reference leases leaks a migrated block: the
        // repository's pinned reference violation.
        let cfg = ChaosConfig {
            seed: 304,
            lease: None,
            ..ChaosConfig::default()
        };
        let err = verify_chaos_seed(&cfg, chaos_plan(&cfg), None).unwrap_err();
        assert!(err.contains("chaos seed 304"), "{err}");
    }

    #[test]
    fn the_drawn_fault_plan_is_the_one_run_chaos_uses() {
        let cfg = ChaosConfig {
            seed: 7,
            crashes: CHAOS_CRASHES,
            ..ChaosConfig::default()
        };
        assert_eq!(run_chaos(&cfg).faults, chaos_plan(&cfg));
    }

    #[test]
    fn every_workload_records_a_default_and_a_held_out_seed() {
        for w in Workload::ALL {
            let roles: Vec<String> = recorded_seeds(w)
                .unwrap()
                .into_iter()
                .map(|r| r.role)
                .collect();
            assert_eq!(roles, ["default", "held_out"], "{}", w.name());
        }
    }

    #[test]
    fn median_takes_the_middle() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
