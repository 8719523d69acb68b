//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! hostbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!           [--size full|smoke] [--expect-digest 0xHEX]
//! ```
//!
//! Batches of the workload run back to back until the next one would end
//! after `--seconds`; at least one always runs. `--trace 0` reports the
//! end-to-end metrics of untraced batches. `--trace 1` alternates
//! untraced batches with traced ones (host profiler installed, per-step
//! split timers on) and reports the per-layer metrics.
//!
//! Every batch must complete every job, pass every chaos check, and give
//! the same digest; at a seed `rationale.json` records (or against
//! `--expect-digest`) the digest must also match the recorded one.
//! Otherwise the run prints the failure to stderr and exits 1 without a
//! result. The last stdout line is the result as one JSON object.

use std::process::ExitCode;
use std::time::Instant;

use ignem_hostbench::{
    end_to_end, host_profiler, parse_digest, per_layer, recorded_seeds, run_batch, Batch, Metric,
    Size, Workload,
};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    /// The digest the run must reproduce: `--expect-digest`, else the
    /// recorded one when the seed is recorded.
    expect_digest: Option<u64>,
}

const USAGE: &str = "hostbench --workload paper_testbed|chaos_sweep|scale_stream [--seed N] \
                     [--seconds S] [--trace 0|1] [--size full|smoke] [--expect-digest 0xHEX]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut size = Size::Full;
    let mut expect_digest = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::from_name(&v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--size" => {
                size = match value()?.as_str() {
                    "full" => Size::Full,
                    "smoke" => Size::Smoke,
                    v => return Err(format!("--size takes full or smoke, not `{v}`")),
                }
            }
            "--expect-digest" => expect_digest = Some(parse_digest(&value()?)?),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let recorded = recorded_seeds(workload)?;
    let seed = match seed {
        Some(s) => s,
        None => {
            recorded
                .iter()
                .find(|r| r.role == "default")
                .ok_or("no default seed recorded")?
                .seed
        }
    };
    // Recorded digests hold for the benchmark's own batch size only.
    let expect_digest = expect_digest.or_else(|| {
        recorded
            .iter()
            .find(|r| size == Size::Full && r.seed == seed)
            .map(|r| r.digest)
    });
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        size,
        expect_digest,
    })
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Fails unless `b` simulated exactly what `first` did.
fn same_simulation(first: &Batch, b: &Batch) -> Result<(), String> {
    if b.digest != first.digest
        || b.events != first.events
        || b.layers != first.layers
        || b.speedup_pct.to_bits() != first.speedup_pct.to_bits()
    {
        return Err(format!(
            "batches of one seed diverged: digest {:#x} vs {:#x}, events {} vs {}",
            first.digest, b.digest, first.events, b.events
        ));
    }
    Ok(())
}

fn result_line(attempted: u64, metrics: &[Metric]) -> Result<String, String> {
    let mut fields = Vec::new();
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}

fn run(args: &Args) -> Result<String, String> {
    let start = Instant::now();
    let mut untraced: Vec<Batch> = Vec::new();
    let mut traced = Vec::new();
    // Read after the first batch, while the workload is alone in the
    // process: later batches only add allocator fragmentation.
    let mut peak_rss = None;
    loop {
        let t = Instant::now();
        untraced.push(run_batch(args.workload, args.seed, args.size, None)?);
        if peak_rss.is_none() {
            peak_rss = Some(peak_rss_mib()?);
        }
        if args.trace {
            let profiler = host_profiler();
            let b = run_batch(args.workload, args.seed, args.size, Some(&profiler))?;
            traced.push((b, profiler.report()));
        }
        let round = t.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + round > args.seconds {
            break;
        }
    }

    let first = &untraced[0];
    for b in untraced.iter().chain(traced.iter().map(|(b, _)| b)) {
        same_simulation(first, b)?;
    }
    if let Some(want) = args.expect_digest {
        if first.digest != want {
            return Err(format!(
                "{} seed {} digest {:#018x} differs from the recorded {want:#018x}",
                args.workload.name(),
                args.seed,
                first.digest
            ));
        }
    }
    eprintln!(
        "hostbench: {} seed {}: {} events, {} operations per batch; untraced walls {:?} s, \
         traced walls {:?} s",
        args.workload.name(),
        args.seed,
        first.events,
        first.attempted,
        untraced.iter().map(|b| b.wall_s).collect::<Vec<_>>(),
        traced.iter().map(|(b, _)| b.wall_s).collect::<Vec<_>>()
    );
    println!(
        "digest {} seed={} {:#018x}",
        args.workload.name(),
        args.seed,
        first.digest
    );

    let metrics = if args.trace {
        per_layer(&untraced, &traced)?
    } else {
        end_to_end(&untraced, peak_rss.expect("at least one batch ran"))
    };
    for m in &metrics {
        eprintln!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let attempted = untraced
        .iter()
        .chain(traced.iter().map(|(b, _)| b))
        .map(|b| b.attempted)
        .sum();
    result_line(attempted, &metrics)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}\nusage: {USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("hostbench: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}
