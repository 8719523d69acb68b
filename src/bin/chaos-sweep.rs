//! Tier-2 chaos sweep: run a range of chaos seeds, fail on the first
//! invariant violation, and emit a minimized fault schedule for it.
//!
//! ```text
//! chaos-sweep [SEEDS] [--start N] [--out PATH] [--jobs N] [--crashes N]
//! chaos-sweep --bench-out PATH [--bench-seeds N] [--jobs N]
//!             [--bench-baseline PATH]
//! chaos-sweep --bench-minimize-out PATH
//! chaos-sweep --bench-scale-out PATH [--scale-smoke-only]
//! ```
//!
//! Runs seeds `start..start + SEEDS` (default 256 from 0) through the
//! chaos harness with per-event validation and the full end-state
//! invariant suite (leak-freedom, memory conservation, completion,
//! event-stream consistency, ledger conservation, determinism via a
//! second run). On a violation the offending seed's fault plan is shrunk
//! to a 1-minimal schedule, written to `--out` (default
//! `chaos-minimized.txt`) for CI artifact upload, and the process exits
//! nonzero.
//!
//! `--crashes N` adds N `Fault::NodeCrash` draws to every seed's fault
//! plan (on top of the default palette), exercising the crash/recovery
//! protocol and the recovery-convergence invariant. The crash draws are
//! appended after the base draws, so `--crashes 0` (the default) sweeps
//! the same plans as before crash support existed.
//!
//! Seeds fan out over `--jobs` worker threads (default: available
//! parallelism) through [`ignem_cluster::sweep`], which merges results in
//! seed order — stdout, stderr, the exit code and the minimized-schedule
//! artifact are byte-identical to `--jobs 1`.
//!
//! The three bench modes share one emitter: one [`Scenario`] row type,
//! one round-robin timer (each round runs every body of the mode once and
//! starts one body further along, so the paired scenarios alternate which
//! goes first and host-frequency drift falls on all bodies equally) and
//! one [`write_report`]. A mode that fails a check exits nonzero and
//! writes no report. README "Benchmarks" and DESIGN.md §9 describe every
//! scenario and field.
//!
//! - `--bench-out` times single worlds (fault-free, chaos seed 304, the
//!   SWIM run with and without the metrics registry) and a jobs ∈ {1, 2,
//!   4, `--jobs`} verification-sweep curve. Any curve seed that fails its
//!   invariants or determinism rerun fails the bench. `--bench-baseline
//!   OLD.json` embeds an earlier report and the speedups against it; an
//!   unreadable baseline fails the bench.
//! - `--bench-minimize-out` times the full-replay minimizer against the
//!   snapshot-forked one on the pinned seed-304 leak; `events` counts
//!   simulated events, which CI gates exactly.
//! - `--bench-scale-out` streams Google-trace arrivals through a
//!   heartbeat-sweep cluster ([`ClusterConfig::heartbeat_sweep`]):
//!   `scale_smoke` (1024 nodes, one day, the CI gate) and, unless
//!   `--scale-smoke-only`, `scale_full` (12 288 nodes, one month).

use std::cell::Cell;
use std::ops::ControlFlow;
use std::process::ExitCode;

use ignem_bench::wall_clock;
use ignem_cluster::chaos::{
    minimize_faults, minimize_faults_replay_with_stats, minimize_faults_with_stats, run_chaos,
    ChaosConfig, MinimizeStats, MinimizedSchedule,
};
use ignem_cluster::config::{ClusterConfig, FsMode};
use ignem_cluster::experiment::{default_world, swim_world};
use ignem_cluster::sweep::{default_jobs, sweep};
use ignem_cluster::world::{PlannedJob, World};
use ignem_core::command::EvictionMode;
use ignem_simcore::metrics::MetricsRegistry;
use ignem_simcore::rng::SimRng;
use ignem_simcore::telemetry::FlightRecorder;
use ignem_simcore::time::SimDuration;
use ignem_workloads::stream::{replay_files, JobArrival, ReplayConfig, ReplayStream};
use ignem_workloads::swim::{SwimConfig, SwimTrace};

fn main() -> ExitCode {
    let mut seeds: u64 = 256;
    let mut start: u64 = 0;
    let mut out = String::from("chaos-minimized.txt");
    let mut jobs: Option<usize> = None;
    let mut crashes: usize = 0;
    let mut bench_out: Option<String> = None;
    let mut bench_seeds: u64 = 256;
    let mut bench_baseline: Option<String> = None;
    let mut bench_minimize_out: Option<String> = None;
    let mut bench_scale_out: Option<String> = None;
    let mut scale_smoke_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--start" => start = parse(args.next(), &arg),
            "--out" => out = path(args.next(), &arg),
            "--jobs" => jobs = Some(parse(args.next(), &arg).max(1) as usize),
            "--crashes" => crashes = parse(args.next(), &arg) as usize,
            "--bench-out" => bench_out = Some(path(args.next(), &arg)),
            "--bench-seeds" => bench_seeds = parse(args.next(), &arg),
            "--bench-minimize-out" => bench_minimize_out = Some(path(args.next(), &arg)),
            "--bench-scale-out" => bench_scale_out = Some(path(args.next(), &arg)),
            "--scale-smoke-only" => scale_smoke_only = true,
            "--bench-baseline" => bench_baseline = Some(path(args.next(), &arg)),
            "--help" | "-h" => usage(
                "chaos-sweep [SEEDS] [--start N] [--out PATH] [--jobs N] [--crashes N]\n\
                 chaos-sweep --bench-out PATH [--bench-seeds N] [--jobs N] [--bench-baseline PATH]\n\
                 chaos-sweep --bench-minimize-out PATH\n\
                 chaos-sweep --bench-scale-out PATH [--scale-smoke-only]",
            ),
            other => seeds = parse(Some(other.to_string()), "SEEDS"),
        }
    }
    let jobs = jobs.unwrap_or_else(default_jobs);

    if let Some(path) = bench_minimize_out {
        return bench_minimize(&path);
    }
    if let Some(path) = bench_scale_out {
        return bench_scale(&path, scale_smoke_only);
    }
    if let Some(path) = bench_out {
        return bench(&path, bench_seeds, jobs, bench_baseline.as_deref());
    }

    let mut worst_leak = 0u64;
    let failed = sweep(
        start,
        seeds,
        jobs,
        move |seed| seed_outcome(seed, crashes),
        |seed, outcome| {
            if let Err(violation) = outcome.verdict {
                eprintln!("seed {seed}: FAIL — {violation}");
                let cfg = ChaosConfig {
                    seed,
                    crashes,
                    ..ChaosConfig::default()
                };
                let description = match minimize_faults(&cfg) {
                    Some(min) => min.describe(),
                    // Determinism violations survive fault shrinking only by
                    // accident; still record the full plan for the report.
                    None => format!("seed {seed} violates: {violation}\n(full fault plan kept)\n"),
                };
                eprintln!("{description}");
                if let Err(e) = std::fs::write(&out, &description) {
                    eprintln!("could not write {out}: {e}");
                }
                return ControlFlow::Break(());
            }
            worst_leak = worst_leak.max(outcome.leak);
            if (seed - start + 1).is_multiple_of(64) {
                println!("…{} seeds clean", seed - start + 1);
            }
            ControlFlow::Continue(())
        },
    );
    if failed.is_some() {
        return ExitCode::FAILURE;
    }
    println!("{seeds} seeds clean (max leaked refs: {worst_leak})");
    ExitCode::SUCCESS
}

/// Everything the sweep needs back from one verified seed.
struct SeedOutcome {
    leak: u64,
    /// Engine events processed across both verification runs.
    events: u64,
    verdict: Result<(), String>,
}

/// The per-seed verification: one validated chaos run, the invariant
/// suite, and a second run to confirm a bit-identical fingerprint.
fn seed_outcome(seed: u64, crashes: usize) -> SeedOutcome {
    let cfg = ChaosConfig {
        seed,
        crashes,
        ..ChaosConfig::default()
    };
    let first = run_chaos(&cfg);
    let leak = first.metrics.leaked_job_refs;
    let mut events = first.metrics.events_processed;
    let verdict = match first.check_invariants() {
        Err(e) => Err(e),
        Ok(()) => {
            let second = run_chaos(&cfg);
            events += second.metrics.events_processed;
            if first.fingerprint == second.fingerprint {
                Ok(())
            } else {
                Err(format!(
                    "nondeterministic run (fingerprints {:#x} vs {:#x})",
                    first.fingerprint, second.fingerprint
                ))
            }
        }
    };
    SeedOutcome {
        leak,
        events,
        verdict,
    }
}

// ---------------------------------------------------------------------
// Bench mode
// ---------------------------------------------------------------------

/// One timed bench scenario: a row of a `BENCH_*.json` report.
struct Scenario {
    name: &'static str,
    /// Shape-specific fields (preformatted JSON numbers), written between
    /// `name` and `events`.
    fields: Vec<(&'static str, String)>,
    events: u64,
    wall_secs: f64,
}

impl Scenario {
    /// A scenario timed over `runs` repetitions of one body.
    fn repeated(name: &'static str, runs: u64, (events, wall_secs): (u64, f64)) -> Scenario {
        Scenario {
            name,
            fields: vec![("runs", runs.to_string())],
            events,
            wall_secs,
        }
    }

    /// A point of the verification-sweep scaling curve: `seeds` seeds on
    /// `jobs` workers, `SWEEP_REPS` times over.
    fn sweep_curve(name: &'static str, seeds: u64, jobs: usize, timing: (u64, f64)) -> Scenario {
        // Each seed runs twice (determinism check).
        let mut sc = Scenario::repeated(name, 2 * seeds * SWEEP_REPS, timing);
        let curve = [("seeds", seeds.to_string()), ("jobs", jobs.to_string())];
        sc.fields.splice(0..0, curve);
        sc
    }

    fn events_per_sec(&self) -> f64 {
        ratio(self.events as f64, self.wall_secs)
    }

    fn to_json(&self, mb_per_sec: f64) -> String {
        let mut s = format!("{{\"name\": \"{}\"", self.name);
        for (key, value) in &self.fields {
            s.push_str(&format!(", \"{key}\": {value}"));
        }
        s.push_str(&format!(
            ", \"events\": {}, \"wall_secs\": {:.6}, \"events_per_sec\": {:.1}, \
             \"events_per_mb_hashed\": {:.3}}}",
            self.events,
            self.wall_secs,
            self.events_per_sec(),
            ratio(self.events_per_sec(), mb_per_sec)
        ));
        s
    }
}

/// `num / den`, or 0 when `den` is not positive.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Host CPU calibration: FNV-1a over a fixed pseudorandom buffer. Dividing
/// events/sec by this MB/s rate gives `events_per_mb_hashed`, a roughly
/// machine-independent throughput figure CI can compare across runners.
struct Calibration {
    bytes: u64,
    wall_secs: f64,
}

impl Calibration {
    fn measure() -> Calibration {
        const BUF: usize = 8 << 20;
        const PASSES: usize = 16;
        println!("bench: calibrating host…");
        let mut buf = vec![0u8; BUF];
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for b in buf.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *b = x as u8;
        }
        let t = wall_clock();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for _ in 0..PASSES {
            for &b in &buf {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        }
        let calibration = Calibration {
            bytes: (BUF * PASSES) as u64,
            wall_secs: t.elapsed().as_secs_f64(),
        };
        std::hint::black_box(h);
        println!("bench: {:.0} MB/s FNV-1a", calibration.mb_per_sec());
        calibration
    }

    fn mb_per_sec(&self) -> f64 {
        self.bytes as f64 / (1 << 20) as f64 / self.wall_secs
    }
}

/// A whole bench report: the host calibration, the timed scenarios, and
/// the mode's own top-level fields (preformatted JSON values), written
/// after the scenarios.
struct Bench {
    calibration: Calibration,
    scenarios: Vec<Scenario>,
    extra: Vec<(&'static str, String)>,
}

impl Bench {
    fn to_json(&self, generator: &str) -> String {
        let mb_per_sec = self.calibration.mb_per_sec();
        let mut json = format!(
            "{{\n  \"schema\": 1,\n  \"generator\": \"{generator}\",\n  \"calibration\": \
             {{\"bytes\": {}, \"wall_secs\": {:.6}, \"mb_per_sec\": {mb_per_sec:.1}}},\n  \
             \"scenarios\": [\n",
            self.calibration.bytes, self.calibration.wall_secs
        );
        let rows: Vec<String> = self
            .scenarios
            .iter()
            .map(|sc| format!("    {}", sc.to_json(mb_per_sec)))
            .collect();
        json.push_str(&rows.join(",\n"));
        json.push_str("\n  ]");
        for (key, value) in &self.extra {
            json.push_str(&format!(",\n  \"{key}\": {value}"));
        }
        json.push_str("\n}\n");
        json
    }
}

/// Writes `bench` to `path` as the report of `generator` (the command
/// line that produced it).
fn write_report(path: &str, generator: &str, bench: &Bench) -> ExitCode {
    if let Err(e) = std::fs::write(path, bench.to_json(generator)) {
        eprintln!("could not write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("bench: wrote {path}");
    ExitCode::SUCCESS
}

/// Times each body (which returns the events it processed) `rounds`
/// times, round-robin: every round runs every body once, starting one
/// body further along than the round before. Slow host-frequency drift
/// (turbo decay, thermal throttling) and the cost of following another
/// body (a pool teardown's reclamation, say) thus fall on every body
/// equally — CI gates on ratios between bodies timed together, which
/// back-to-back blocks would bias against whichever ran last. Returns
/// each body's summed events and wall seconds.
fn time_round_robin(rounds: u64, bodies: &[&dyn Fn() -> u64]) -> Vec<(u64, f64)> {
    let mut totals = vec![(0u64, 0f64); bodies.len()];
    for round in 0..rounds as usize {
        for k in 0..bodies.len() {
            let i = (round + k) % bodies.len();
            let t = wall_clock();
            totals[i].0 += bodies[i]();
            totals[i].1 += t.elapsed().as_secs_f64();
        }
    }
    totals
}

/// How many times each sweep scenario repeats its full seed range: single
/// sweeps finish in fractions of a second, so timing one pass would be
/// mostly noise.
const SWEEP_REPS: u64 = 8;

/// Pulls `"field": <number>` out of the object that contains
/// `"name": "<scenario>"` in a bench report we wrote ourselves. Good
/// enough for our own single-line-per-scenario format; not a JSON parser.
fn scenario_number(text: &str, scenario: &str, field: &str) -> Option<f64> {
    let obj_start = text.find(&format!("\"name\": \"{scenario}\""))?;
    let obj = &text[obj_start..text[obj_start..].find('}').map(|e| obj_start + e)?];
    let at = obj.find(&format!("\"{field}\": "))? + field.len() + 4;
    let rest = &obj[at..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn bench(path: &str, bench_seeds: u64, jobs: usize, baseline: Option<&str>) -> ExitCode {
    let baseline = match baseline.map(|p| (p, std::fs::read_to_string(p))) {
        None => None,
        Some((_, Ok(text))) => Some(text),
        Some((p, Err(e))) => {
            eprintln!("could not read baseline {p}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let calibration = Calibration::measure();

    // World construction (DFS preload, per-node setup) is not the event
    // loop the scenario measures; building the template once and cloning
    // it per repetition keeps the per-run cost to the clone + the run.
    let template = default_world();
    let single_default = Scenario::repeated(
        "single_default",
        1000,
        time_round_robin(1000, &[&|| template.clone().run().events_processed])[0],
    );
    let cfg304 = ChaosConfig {
        seed: 304,
        ..ChaosConfig::default()
    };
    let single_chaos = Scenario::repeated(
        "single_chaos_304",
        500,
        time_round_robin(500, &[&|| run_chaos(&cfg304).metrics.events_processed])[0],
    );
    // The SWIM run — the workload the report's telemetry section actually
    // observes — with and without the sim-time metrics registry, timed
    // together: CI gates the metrics overhead by comparing the two
    // scenarios' `events_per_mb_hashed` within one report. (The chaos
    // world above would be a poor denominator: at ~330 events per run its
    // timing is dominated by per-run setup, not by per-event cost.)
    let cluster = ClusterConfig::default();
    let trace = SwimTrace::generate(&SwimConfig::default(), &mut SimRng::new(7));
    let recorded_swim = || {
        swim_world(&cluster, FsMode::Ignem, &trace, EvictionMode::Explicit)
            .with_telemetry(Box::new(FlightRecorder::new(1 << 22)))
    };
    let swim = time_round_robin(
        20,
        &[&|| recorded_swim().run().events_processed, &|| {
            let registry = MetricsRegistry::new(SimDuration::from_secs(10));
            let metrics = recorded_swim().with_metrics(registry.clone()).run();
            registry.finish(metrics.makespan);
            metrics.events_processed
        }],
    );
    // The scaling curve: jobs=1 (the inline serial loop `sweep` routes
    // single-worker requests to), 2 and 4 pooled workers, and the
    // requested `--jobs` count.
    let failed_seeds = Cell::new(0u64);
    let curve_body = |jobs: usize| {
        let failed_seeds = &failed_seeds;
        move || {
            let mut events = 0;
            sweep(
                0,
                bench_seeds,
                jobs,
                |seed| seed_outcome(seed, 0),
                |_seed, outcome| {
                    events += outcome.events;
                    failed_seeds.set(failed_seeds.get() + u64::from(outcome.verdict.is_err()));
                    ControlFlow::<()>::Continue(())
                },
            );
            events
        }
    };
    let (serial, jobs2, jobs4, parallel) = (
        curve_body(1),
        curve_body(2),
        curve_body(4),
        curve_body(jobs),
    );
    let curve = time_round_robin(SWEEP_REPS, &[&serial, &jobs2, &jobs4, &parallel]);
    if failed_seeds.get() > 0 {
        eprintln!(
            "bench: {} timed sweep seed run(s) failed their invariants or determinism rerun",
            failed_seeds.get()
        );
        return ExitCode::FAILURE;
    }

    let mut scenarios = vec![
        single_default,
        single_chaos,
        Scenario::repeated("single_swim", 20, swim[0]),
        Scenario::repeated("single_swim_metrics", 20, swim[1]),
    ];
    for ((name, jobs), timing) in [
        ("sweep_serial", 1),
        ("sweep_jobs2", 2),
        ("sweep_jobs4", 4),
        ("sweep_parallel", jobs),
    ]
    .into_iter()
    .zip(curve)
    {
        scenarios.push(Scenario::sweep_curve(name, bench_seeds, jobs, timing));
    }
    for sc in &scenarios {
        println!(
            "bench: {} {} events in {:.2}s ({:.0} events/sec)",
            sc.name,
            sc.events,
            sc.wall_secs,
            sc.events_per_sec()
        );
    }
    let bench = sweep_bench(
        calibration,
        jobs,
        bench_seeds,
        scenarios,
        baseline.as_deref(),
    );
    write_report(path, "chaos-sweep --bench-out", &bench)
}

/// Assembles the `--bench-out` report. `scenarios` are in the order
/// `bench` times them: `single_default`, `single_chaos_304`, the two
/// SWIM runs, then the sweep curve from serial to `--jobs`. With a
/// `baseline` report, records (and prints) the speedups against it:
/// wall-clock for the sweep (what CI budgets), events/sec for the single
/// runs (per-event dispatch cost). Raw ratios compare the two hosts
/// as-is; `events_per_mb_hashed` ratios divide each side by its own
/// calibration rate first, so they stay meaningful when the baseline was
/// recorded on a faster (or merely less noisy) machine phase.
fn sweep_bench(
    calibration: Calibration,
    jobs: usize,
    bench_seeds: u64,
    scenarios: Vec<Scenario>,
    baseline: Option<&str>,
) -> Bench {
    let (serial, parallel) = (&scenarios[4], &scenarios[scenarios.len() - 1]);
    let mut extra = vec![
        ("jobs", jobs.to_string()),
        ("bench_seeds", bench_seeds.to_string()),
        (
            "sweep_parallel_speedup",
            format!("{:.3}", ratio(serial.wall_secs, parallel.wall_secs)),
        ),
    ];
    if let Some(old) = baseline {
        let old = old.trim();
        let mut vs = vec![(
            "sweep_wall_speedup".to_string(),
            scenario_number(old, "sweep_serial", "wall_secs")
                .map(|w| w / parallel.wall_secs.max(1e-9)),
        )];
        let mb_per_sec = calibration.mb_per_sec().max(1e-9);
        for (field, per) in [
            ("events_per_sec", 1.0),
            ("events_per_mb_hashed", mb_per_sec),
        ] {
            for sc in &scenarios[..2] {
                vs.push((
                    format!("{}_{field}_ratio", sc.name),
                    scenario_number(old, sc.name, field)
                        .map(|r| sc.events_per_sec() / per / r.max(1e-9)),
                ));
            }
        }
        let mut fields = Vec::new();
        for (key, value) in vs {
            if let Some(v) = value {
                println!("bench: {key} vs baseline: {v:.2}x");
            }
            fields.push(format!("\"{key}\": {:.3}", value.unwrap_or(0.0)));
        }
        extra.push(("vs_baseline", format!("{{{}}}", fields.join(", "))));
        extra.push(("baseline", old.to_string()));
    }
    Bench {
        calibration,
        scenarios,
        extra,
    }
}

// ---------------------------------------------------------------------
// Scale-out bench mode
// ---------------------------------------------------------------------

/// Seed of the replayed arrival stream — arbitrary but fixed, so the
/// committed `BENCH_scale.json` event counts are reproducible bit-for-bit.
const SCALE_STREAM_SEED: u64 = 0x5CA1_E001;

/// Size of the `scale_full` world: the paper's §II datacenter, 12 288
/// nodes for one simulated month.
const SCALE_FULL_NODES: usize = 12_288;
const SCALE_FULL_DAYS: u64 = 30;

/// A `VmRSS:`/`VmHWM:`-style field of `/proc/self/status`, in bytes.
/// Returns 0 where procfs is unavailable (the JSON then records zeros
/// rather than the bench failing on a non-Linux host).
fn proc_status_bytes(field: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// Adapter from a streamed [`JobArrival`] to the world's planned-job
/// shape. A plain `fn` so the mapped stream stays `Clone` (the arrival
/// source is cloned into world snapshots).
fn arrival_plan(a: JobArrival) -> PlannedJob {
    PlannedJob::single(a.name, a.submit, a.spec)
}

/// Builds and runs one streamed trace-replay world: `days` of Google-trace
/// arrivals over a `nodes`-node Ignem cluster with the cluster-wide
/// heartbeat sweep. The DFS namespace is preloaded (file creation draws
/// from the world rng); the jobs are admitted lazily from the pull-based
/// stream, so no full job plan ever materialises. Fails if any admitted
/// job did not complete.
fn run_scale(name: &'static str, nodes: usize, days: u64) -> Result<Scenario, String> {
    let rcfg = ReplayConfig::default();
    let jobs = (rcfg.arrivals_per_sec * (days * 86_400) as f64).round() as u64;
    let rcfg = ReplayConfig {
        jobs: Some(jobs),
        ..rcfg
    };
    let cfg = ClusterConfig {
        nodes,
        heartbeat_sweep: true,
        ..ClusterConfig::default()
    };
    let rss_before = proc_status_bytes("VmRSS:");
    let files = replay_files(&rcfg, jobs);
    let stream = ReplayStream::new(rcfg, SCALE_STREAM_SEED)
        .map(arrival_plan as fn(JobArrival) -> PlannedJob);
    let mut world =
        World::new(cfg, FsMode::Ignem, &files, vec![], vec![]).with_arrivals(Box::new(stream));
    drop(files);
    let world_resident_bytes = proc_status_bytes("VmRSS:").saturating_sub(rss_before);
    let t = wall_clock();
    world.run_to_end();
    let wall_secs = t.elapsed().as_secs_f64();
    let events = world.events_processed();
    let sim_secs = world.now().as_secs_f64();
    let jobs_completed = world.finalize_mut().jobs.len() as u64;
    let peak_rss_bytes = proc_status_bytes("VmHWM:");
    println!(
        "bench: {name} {jobs_completed} jobs, {events} events in {wall_secs:.1}s wall \
         ({:.0} events/sec, {:.0} sim-secs/sec, world {} MiB resident, peak RSS {} MiB)",
        ratio(events as f64, wall_secs),
        ratio(sim_secs, wall_secs),
        world_resident_bytes >> 20,
        peak_rss_bytes >> 20,
    );
    if jobs_completed < jobs {
        return Err(format!(
            "bench: {name} completed only {jobs_completed} of {jobs} admitted jobs"
        ));
    }
    Ok(Scenario {
        name,
        fields: vec![
            ("nodes", nodes.to_string()),
            ("sim_days", days.to_string()),
            ("jobs", jobs.to_string()),
            ("jobs_completed", jobs_completed.to_string()),
            ("sim_secs", format!("{sim_secs:.1}")),
            (
                "sim_secs_per_wall_sec",
                format!("{:.1}", ratio(sim_secs, wall_secs)),
            ),
            ("world_resident_bytes", world_resident_bytes.to_string()),
            ("peak_rss_bytes", peak_rss_bytes.to_string()),
        ],
        events,
        wall_secs,
    })
}

/// Benches the datacenter-scale streaming path and writes
/// `BENCH_scale.json`-shaped output: the reduced `scale_smoke` world CI
/// gates on, plus (unless `smoke_only`) the full 12k-node / one-month
/// world the success criterion of DESIGN.md §9 pins.
fn bench_scale(path: &str, smoke_only: bool) -> ExitCode {
    let calibration = Calibration::measure();
    let worlds = [
        ("scale_smoke", 1024, 1),
        ("scale_full", SCALE_FULL_NODES, SCALE_FULL_DAYS),
    ];
    let mut scenarios = Vec::new();
    for (name, nodes, days) in worlds.into_iter().take(if smoke_only { 1 } else { 2 }) {
        println!("bench: {name} — {nodes} nodes, {days} simulated day(s)…");
        match run_scale(name, nodes, days) {
            Ok(sc) => scenarios.push(sc),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let bench = Bench {
        calibration,
        scenarios,
        extra: vec![],
    };
    write_report(path, "chaos-sweep --bench-scale-out", &bench)
}

/// Benches the fault minimizer on the pinned seed-304 reference leak:
/// the full-replay baseline vs the snapshot-forked shrink, timed
/// together. Each scenario's `events` counts *simulated* events (for the
/// fork, only the suffixes after each restore point), which is the work
/// the snapshot machinery exists to avoid — CI gates fork ≤ replay on
/// that axis.
fn bench_minimize(path: &str) -> ExitCode {
    let calibration = Calibration::measure();
    // The legacy lease-free configuration whose seed-304 leak the repo
    // pins; both minimizers must shrink it to the same single partition.
    let legacy = ChaosConfig {
        seed: 304,
        lease: None,
        ..ChaosConfig::default()
    };
    let schedules_agree = Cell::new(true);
    let shrink = |minimize: fn(&ChaosConfig) -> (Option<MinimizedSchedule>, MinimizeStats)| {
        let (legacy, schedules_agree) = (&legacy, &schedules_agree);
        move || {
            let (min, stats) = minimize(legacy);
            schedules_agree.set(schedules_agree.get() & min.is_some_and(|m| m.faults.len() == 1));
            stats.simulated_events
        }
    };
    let (replay, fork) = (
        shrink(minimize_faults_replay_with_stats),
        shrink(minimize_faults_with_stats),
    );
    let timings = time_round_robin(20, &[&replay, &fork]);
    if !schedules_agree.get() {
        eprintln!("bench: minimizer did not reproduce the pinned 1-fault schedule");
        return ExitCode::FAILURE;
    }
    let bench = minimize_bench(
        calibration,
        Scenario::repeated("minimize_replay_304", 20, timings[0]),
        Scenario::repeated("minimize_fork_304", 20, timings[1]),
    );
    write_report(path, "chaos-sweep --bench-minimize-out", &bench)
}

/// Assembles the `--bench-minimize-out` report, printing its summary.
fn minimize_bench(calibration: Calibration, replay: Scenario, fork: Scenario) -> Bench {
    let event_ratio = ratio(fork.events as f64, replay.events as f64);
    let wall_speedup = ratio(replay.wall_secs, fork.wall_secs);
    println!(
        "bench: minimize_replay_304 {} simulated events in {:.2}s",
        replay.events, replay.wall_secs
    );
    println!(
        "bench: minimize_fork_304 {} simulated events in {:.2}s \
         ({event_ratio:.3}x events, {wall_speedup:.2}x wall)",
        fork.events, fork.wall_secs
    );
    Bench {
        calibration,
        scenarios: vec![replay, fork],
        extra: vec![
            ("fork_event_ratio", format!("{event_ratio:.4}")),
            ("fork_wall_speedup", format!("{wall_speedup:.3}")),
        ],
    }
}

fn parse(value: Option<String>, what: &str) -> u64 {
    value
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage(&format!("{what} needs an unsigned integer")))
}

fn path(value: Option<String>, what: &str) -> String {
    value.unwrap_or_else(|| usage(&format!("{what} needs a path")))
}

fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// The keys of every `"key": value` pair on one line of a report.
    fn line_keys(line: &str) -> BTreeSet<&str> {
        let parts: Vec<&str> = line.split('"').collect();
        parts
            .windows(2)
            .filter(|w| w[1].starts_with(": "))
            .map(|w| w[0])
            .collect()
    }

    /// The shape of a report this binary wrote: each top-level field and
    /// each scenario (by name) with the keys on its line. Stops at an
    /// embedded baseline, whose lines share the top-level indentation.
    fn shape(json: &str) -> BTreeMap<&str, BTreeSet<&str>> {
        let mut out = BTreeMap::new();
        for line in json.lines() {
            if let Some(row) = line.strip_prefix("    {\"name\": \"") {
                out.insert(&row[..row.find('"').unwrap()], line_keys(line));
            } else if let Some(field) = line.strip_prefix("  \"") {
                let key = &field[..field.find('"').unwrap()];
                out.insert(key, line_keys(line));
                if key == "baseline" {
                    break;
                }
            }
        }
        out
    }

    fn calibration() -> Calibration {
        Calibration {
            bytes: 1 << 27,
            wall_secs: 0.2,
        }
    }

    const TIMING: (u64, f64) = (1000, 0.5);

    #[test]
    fn sweep_report_matches_committed_shape() {
        let committed = include_str!("../../BENCH_sweep.json");
        let mut scenarios: Vec<Scenario> = [
            "single_default",
            "single_chaos_304",
            "single_swim",
            "single_swim_metrics",
        ]
        .into_iter()
        .map(|name| Scenario::repeated(name, 20, TIMING))
        .collect();
        for (name, jobs) in [
            ("sweep_serial", 1),
            ("sweep_jobs2", 2),
            ("sweep_jobs4", 4),
            ("sweep_parallel", 1),
        ] {
            scenarios.push(Scenario::sweep_curve(name, 256, jobs, TIMING));
        }
        let bench = sweep_bench(calibration(), 1, 256, scenarios, Some(committed));
        let json = bench.to_json("chaos-sweep --bench-out");
        assert_eq!(shape(&json), shape(committed));
        assert!(json.ends_with(&format!("\"baseline\": {}\n}}\n", committed.trim())));
    }

    #[test]
    fn minimize_report_matches_committed_shape() {
        let bench = minimize_bench(
            calibration(),
            Scenario::repeated("minimize_replay_304", 20, TIMING),
            Scenario::repeated("minimize_fork_304", 20, TIMING),
        );
        assert_eq!(
            shape(&bench.to_json("chaos-sweep --bench-minimize-out")),
            shape(include_str!("../../BENCH_minimize.json"))
        );
    }

    #[test]
    fn scale_report_matches_committed_shape() {
        // Zero simulated days admit no jobs, so these worlds are quick to
        // build and run; the report shape does not depend on the size.
        let scenarios = ["scale_smoke", "scale_full"]
            .map(|name| run_scale(name, 8, 0).unwrap())
            .into();
        let bench = Bench {
            calibration: calibration(),
            scenarios,
            extra: vec![],
        };
        assert_eq!(
            shape(&bench.to_json("chaos-sweep --bench-scale-out")),
            shape(include_str!("../../BENCH_scale.json"))
        );
    }

    #[test]
    fn round_robin_timer_sums_each_body() {
        let calls = Cell::new(Vec::new());
        let body = |id: u64| {
            let calls = &calls;
            move || {
                let mut seen = calls.take();
                seen.push(id);
                calls.set(seen);
                id
            }
        };
        let (a, b) = (body(1), body(2));
        let totals = time_round_robin(3, &[&a, &b]);
        assert_eq!(totals[0].0, 3);
        assert_eq!(totals[1].0, 6);
        // Each round starts one body further along.
        assert_eq!(calls.take(), vec![1, 2, 2, 1, 1, 2]);
    }
}
