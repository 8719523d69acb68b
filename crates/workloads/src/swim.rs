//! SWIM-style trace generation.
//!
//! The paper's headline workload is the first 200 jobs of the SWIM
//! Facebook trace, scaled to its 8-node cluster (§IV-B1):
//!
//! * total input across all jobs: **170 GB**;
//! * **85% of jobs read ≤ 64 MB**; the largest read up to **24 GB**
//!   ("abundance of short jobs and a heavy tail");
//! * inter-job arrival times reduced by 50%.
//!
//! The published SWIM repository is unavailable offline, so
//! [`SwimTrace::generate`] synthesises a trace with exactly those published
//! properties: a body of small jobs, a Pareto tail rescaled so the totals
//! match, and exponential arrivals. Given a seed the trace is fully
//! deterministic.

use ignem_simcore::dist::{Distribution, Exponential};
use ignem_simcore::rng::SimRng;
use ignem_simcore::time::SimDuration;
use ignem_simcore::units::{GB, MB};

/// One SWIM trace entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwimJob {
    /// Submission offset from workload start.
    pub submit: SimDuration,
    /// Total map input bytes.
    pub input_bytes: u64,
    /// Map → reduce shuffle bytes (0 for map-only jobs).
    pub shuffle_bytes: u64,
    /// Reduce output bytes.
    pub output_bytes: u64,
}

/// Configuration for SWIM trace synthesis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwimConfig {
    /// Number of jobs (paper: 200).
    pub jobs: usize,
    /// Total input bytes across all jobs (paper: 170 GB).
    pub total_input: u64,
    /// Fraction of jobs reading at most `small_max` (paper: 0.85).
    pub small_fraction: f64,
    /// The "small job" input ceiling (paper: 64 MB).
    pub small_max: u64,
    /// The largest job input (paper: 24 GB).
    pub largest: u64,
    /// Mean inter-arrival time **after** the paper's 50% reduction.
    pub mean_interarrival: SimDuration,
}

impl Default for SwimConfig {
    fn default() -> Self {
        SwimConfig {
            jobs: 200,
            total_input: 170 * GB,
            small_fraction: 0.85,
            small_max: 64 * MB,
            largest: 24 * GB,
            mean_interarrival: SimDuration::from_secs_f64(8.0),
        }
    }
}

/// A complete synthesised SWIM trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SwimTrace {
    /// Jobs in submission order.
    pub jobs: Vec<SwimJob>,
}

impl SwimTrace {
    /// Synthesises a trace with the published SWIM shape (see module docs).
    ///
    /// # Panics
    ///
    /// Panics on a config with no jobs, a zero total, or
    /// `small_fraction` outside `[0, 1)`.
    pub fn generate(config: &SwimConfig, rng: &mut SimRng) -> Self {
        assert!(config.jobs > 0, "no jobs");
        assert!(config.total_input > 0, "zero total input");
        assert!(
            (0.0..1.0).contains(&config.small_fraction),
            "bad small fraction"
        );
        let n_small = ((config.jobs as f64) * config.small_fraction).round() as usize;
        let n_rest = config.jobs - n_small;
        let n_medium = n_rest / 2;
        let n_large = n_rest - n_medium;

        // Small jobs: log-uniform between 1 MB and small_max, the shape of
        // the short-job body in the Facebook trace.
        let mut sizes: Vec<u64> = Vec::with_capacity(config.jobs);
        let log_uniform = |rng: &mut SimRng, lo: f64, hi: f64| -> f64 {
            (lo.ln() + rng.uniform() * (hi.ln() - lo.ln())).exp()
        };
        for _ in 0..n_small {
            sizes.push(log_uniform(rng, MB as f64, config.small_max as f64).round() as u64);
        }
        // Medium jobs: between the small ceiling and 8x it (the Fig. 5
        // 64–512 MB bin).
        let medium_hi = (config.small_max * 8).min(config.largest) as f64;
        for _ in 0..n_medium {
            sizes.push(log_uniform(rng, config.small_max as f64 + 1.0, medium_hi).round() as u64);
        }
        let body_total: u64 = sizes.iter().sum();

        // Large tail: log-uniform draws above the medium ceiling, the
        // maximum pinned to `largest`, then iteratively rescaled (with
        // clamping) so the workload total matches the published 170 GB.
        if n_large > 0 {
            let lo = medium_hi;
            let hi = config.largest as f64;
            let mut raw: Vec<f64> = (0..n_large).map(|_| log_uniform(rng, lo, hi)).collect();
            // Pin the current maximum to exactly `largest`.
            #[expect(
                clippy::expect_used,
                reason = "inside `if n_large > 0`, so `raw` is nonempty"
            )]
            let (max_idx, _) = raw
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .expect("n_large > 0");
            raw[max_idx] = hi;
            let budget = (config.total_input.saturating_sub(body_total) as f64).max(hi);
            // Iterative proportional fitting of the non-pinned entries.
            for _ in 0..64 {
                let total: f64 = raw.iter().sum();
                let err = (total - budget).abs() / budget;
                if err < 0.002 {
                    break;
                }
                let adjustable: f64 = raw
                    .iter()
                    .enumerate()
                    .filter(|&(i, &v)| i != max_idx && v < hi)
                    .map(|(_, &v)| v)
                    .sum();
                if adjustable <= 0.0 {
                    break;
                }
                let fixed = total - adjustable;
                let scale = ((budget - fixed) / adjustable).max(0.0);
                for (i, v) in raw.iter_mut().enumerate() {
                    if i != max_idx && *v < hi {
                        *v = (*v * scale).clamp(lo, hi);
                    }
                }
            }
            let mut large: Vec<u64> = raw.into_iter().map(|r| r.round() as u64).collect();
            rng.shuffle(&mut large);
            sizes.extend(large);
        }
        rng.shuffle(&mut sizes);

        // Shuffle/output shape: the Facebook workload is dominated by
        // filter/aggregate jobs (large input → small output) with a minority
        // of shuffle-heavy jobs [Chen et al., VLDB'12].
        let arrivals = Exponential::from_mean(config.mean_interarrival.as_secs_f64());
        let mut t = SimDuration::ZERO;
        let jobs = sizes
            .into_iter()
            .map(|input| {
                // Shuffle-stage likelihood and weight grow with job size:
                // the Facebook trace's big jobs are aggregation/join shaped
                // while the short-job body is dominated by filters.
                let shuffle_prob = if input > 8 * config.small_max {
                    1.0
                } else {
                    0.35
                };
                let has_shuffle = rng.uniform() < shuffle_prob;
                let (shuffle, output) = if has_shuffle {
                    let sh = (input as f64 * rng.uniform_range(0.2, 0.6)) as u64;
                    let out = (sh as f64 * rng.uniform_range(0.2, 0.6)) as u64;
                    (sh.max(1), out.max(1))
                } else {
                    (0, (input as f64 * rng.uniform_range(0.01, 0.2)) as u64)
                };
                let job = SwimJob {
                    submit: t,
                    input_bytes: input.max(1),
                    shuffle_bytes: shuffle,
                    output_bytes: output,
                };
                t += SimDuration::from_secs_f64(arrivals.sample(rng));
                job
            })
            .collect();
        SwimTrace { jobs }
    }

    /// Total input bytes.
    pub fn total_input(&self) -> u64 {
        self.jobs.iter().map(|j| j.input_bytes).sum()
    }

    /// The largest single-job input.
    pub fn largest_input(&self) -> u64 {
        self.jobs.iter().map(|j| j.input_bytes).max().unwrap_or(0)
    }

    /// Fraction of jobs with input at most `ceiling`.
    pub fn fraction_at_most(&self, ceiling: u64) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        self.jobs
            .iter()
            .filter(|j| j.input_bytes <= ceiling)
            .count() as f64
            / self.jobs.len() as f64
    }

    /// The workload makespan lower bound (last submission time).
    pub fn last_submit(&self) -> SimDuration {
        self.jobs
            .iter()
            .map(|j| j.submit)
            .max()
            .unwrap_or(SimDuration::ZERO)
    }
}

/// The paper's Fig. 5 job-size bins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SizeBin {
    /// ≤ 64 MB.
    Small,
    /// 64–512 MB.
    Medium,
    /// > 512 MB.
    Large,
}

impl SizeBin {
    /// Bins an input size the way Fig. 5 does.
    pub fn of(input_bytes: u64) -> SizeBin {
        if input_bytes <= 64 * MB {
            SizeBin::Small
        } else if input_bytes <= 512 * MB {
            SizeBin::Medium
        } else {
            SizeBin::Large
        }
    }
}

impl std::fmt::Display for SizeBin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SizeBin::Small => write!(f, "<=64MB"),
            SizeBin::Medium => write!(f, "64-512MB"),
            SizeBin::Large => write!(f, ">512MB"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> SwimTrace {
        SwimTrace::generate(&SwimConfig::default(), &mut SimRng::new(20180615))
    }

    #[test]
    fn matches_published_job_count_and_total() {
        let t = trace();
        assert_eq!(t.jobs.len(), 200);
        let total = t.total_input() as f64;
        let want = (170 * GB) as f64;
        assert!(
            (total - want).abs() / want < 0.02,
            "total {} vs 170GB",
            total
        );
    }

    #[test]
    fn small_job_fraction_is_85_percent() {
        let t = trace();
        let frac = t.fraction_at_most(64 * MB);
        assert!((frac - 0.85).abs() < 0.03, "small fraction {frac}");
    }

    #[test]
    fn largest_job_is_24_gb() {
        let t = trace();
        let largest = t.largest_input() as f64 / GB as f64;
        assert!((largest - 24.0).abs() < 0.5, "largest {largest} GB");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = SwimTrace::generate(&SwimConfig::default(), &mut SimRng::new(9));
        let b = SwimTrace::generate(&SwimConfig::default(), &mut SimRng::new(9));
        assert_eq!(a, b);
        let c = SwimTrace::generate(&SwimConfig::default(), &mut SimRng::new(10));
        assert_ne!(a, c);
    }

    #[test]
    fn submissions_are_nondecreasing() {
        let t = trace();
        for w in t.jobs.windows(2) {
            assert!(w[0].submit <= w[1].submit);
        }
        assert!(t.last_submit() > SimDuration::ZERO);
    }

    #[test]
    fn shuffle_jobs_exist_and_are_bounded() {
        let t = trace();
        let with_shuffle = t.jobs.iter().filter(|j| j.shuffle_bytes > 0).count();
        assert!(with_shuffle > 40 && with_shuffle < 140, "{with_shuffle}");
        for j in &t.jobs {
            assert!(j.shuffle_bytes <= j.input_bytes);
        }
    }

    #[test]
    fn size_bins_match_figure5() {
        assert_eq!(SizeBin::of(64 * MB), SizeBin::Small);
        assert_eq!(SizeBin::of(65 * MB), SizeBin::Medium);
        assert_eq!(SizeBin::of(512 * MB), SizeBin::Medium);
        assert_eq!(SizeBin::of(513 * MB), SizeBin::Large);
        assert_eq!(SizeBin::of(0), SizeBin::Small);
    }

    #[test]
    fn all_bins_are_populated() {
        let t = trace();
        let mut small = 0;
        let mut medium = 0;
        let mut large = 0;
        for j in &t.jobs {
            match SizeBin::of(j.input_bytes) {
                SizeBin::Small => small += 1,
                SizeBin::Medium => medium += 1,
                SizeBin::Large => large += 1,
            }
        }
        assert!(
            small > 0 && medium > 0 && large > 0,
            "{small}/{medium}/{large}"
        );
    }
}
