//! Metric collection: online moments, empirical CDFs, histograms and
//! time-weighted series.
//!
//! Every table and figure in the evaluation is produced from these types:
//! block-read histograms (Fig. 1/6), task-runtime CDFs (Fig. 2), lead-time
//! ratio CDFs (Fig. 3), utilisation timelines (Fig. 4) and the memory
//! occupancy histograms (Fig. 7).

use crate::time::{SimDuration, SimTime};

/// Streaming mean/variance/min/max over `f64` samples (Welford's algorithm).
///
/// ```
/// use ignem_simcore::stats::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [1.0, 2.0, 3.0] { s.push(x); }
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.count(), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let d = x - self.mean;
        self.mean += d / self.count as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 for fewer than 2 samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample (`None` if empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample (`None` if empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A collected sample set supporting percentiles, CDF evaluation and export.
///
/// ```
/// use ignem_simcore::stats::Samples;
///
/// let mut s = Samples::new();
/// s.extend([4.0, 1.0, 3.0, 2.0]);
/// assert_eq!(s.percentile(50.0), 2.5);
/// assert_eq!(s.fraction_below(2.5), 0.5);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        Samples::default()
    }

    /// Adds one sample.
    ///
    /// # Panics
    ///
    /// Panics on a NaN sample.
    pub fn push(&mut self, x: f64) {
        assert!(!x.is_nan(), "NaN sample");
        self.values.push(x);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Mean of the samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            // total_cmp gives NaN a fixed place in the order instead of
            // panicking mid-sort (rule F01, DESIGN.md §8).
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// The `p`-th percentile (linear interpolation between order statistics).
    ///
    /// # Panics
    ///
    /// Panics if the set is empty or `p` is outside `[0, 100]`.
    pub fn percentile(&mut self, p: f64) -> f64 {
        assert!(!self.values.is_empty(), "percentile of empty sample set");
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        self.ensure_sorted();
        let n = self.values.len();
        if n == 1 {
            return self.values[0];
        }
        let rank = p / 100.0 * (n - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        self.values[lo] * (1.0 - frac) + self.values[hi] * frac
    }

    /// Median (50th percentile).
    ///
    /// # Panics
    ///
    /// Panics if the set is empty.
    pub fn median(&mut self) -> f64 {
        self.percentile(50.0)
    }

    /// Fraction of samples strictly below `x` (the empirical CDF).
    pub fn fraction_below(&mut self, x: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let idx = self.values.partition_point(|&v| v < x);
        idx as f64 / self.values.len() as f64
    }

    /// The sorted samples.
    pub fn sorted_values(&mut self) -> &[f64] {
        self.ensure_sorted();
        &self.values
    }

    /// CDF points `(value, cumulative fraction)` thinned to at most
    /// `max_points`, always including the extremes. Used for figure export.
    pub fn cdf_points(&mut self, max_points: usize) -> Vec<(f64, f64)> {
        assert!(max_points >= 2, "need at least two CDF points");
        self.ensure_sorted();
        let n = self.values.len();
        if n == 0 {
            return Vec::new();
        }
        let mut pts = Vec::new();
        let step = (n.max(2) - 1) as f64 / (max_points - 1) as f64;
        let mut last_idx = usize::MAX;
        for k in 0..max_points {
            let idx = ((k as f64 * step).round() as usize).min(n - 1);
            if idx == last_idx {
                continue;
            }
            last_idx = idx;
            pts.push((self.values[idx], (idx + 1) as f64 / n as f64));
        }
        pts
    }
}

impl Extend<f64> for Samples {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = Samples::new();
        s.extend(iter);
        s
    }
}

/// A fixed-bin histogram over `[lo, hi)` with an overflow bin.
///
/// ```
/// use ignem_simcore::stats::Histogram;
///
/// let mut h = Histogram::uniform(0.0, 10.0, 5);
/// h.record(1.0);
/// h.record(9.5);
/// h.record(42.0); // overflow
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.bin_counts()[0], 1);
/// assert_eq!(h.overflow(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    edges: Vec<f64>, // len = bins + 1, ascending
    counts: Vec<u64>,
    overflow: u64,
    underflow: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins on `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or `bins == 0`.
    pub fn uniform(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(lo < hi && bins > 0, "bad histogram spec");
        let w = (hi - lo) / bins as f64;
        let edges = (0..=bins).map(|i| lo + w * i as f64).collect();
        Histogram {
            edges,
            counts: vec![0; bins],
            overflow: 0,
            underflow: 0,
        }
    }

    /// Creates a histogram from explicit ascending bin edges.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two edges or edges are not strictly ascending.
    pub fn from_edges(edges: Vec<f64>) -> Self {
        assert!(edges.len() >= 2, "need at least two edges");
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "edges must be strictly ascending"
        );
        let bins = edges.len() - 1;
        Histogram {
            edges,
            counts: vec![0; bins],
            overflow: 0,
            underflow: 0,
        }
    }

    /// Records a sample.
    pub fn record(&mut self, x: f64) {
        let lo = self.edges[0];
        #[expect(
            clippy::expect_used,
            reason = "constructor rejects empty edge lists, so last() always exists"
        )]
        let hi = *self.edges.last().expect("edges nonempty");
        if x < lo {
            self.underflow += 1;
        } else if x >= hi {
            self.overflow += 1;
        } else {
            let idx = (self.edges.partition_point(|&e| e <= x) - 1).min(self.counts.len() - 1);
            self.counts[idx] += 1;
        }
    }

    /// Total samples recorded, including under/overflow.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.overflow + self.underflow
    }

    /// Per-bin counts.
    pub fn bin_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Bin edges (`bins + 1` values).
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// Samples above the last edge.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Samples below the first edge.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Relative frequency per bin (fractions of total count).
    pub fn relative(&self) -> Vec<f64> {
        let total = self.count().max(1) as f64;
        self.counts.iter().map(|&c| c as f64 / total).collect()
    }
}

/// Tracks a piecewise-constant value over simulated time, producing
/// time-weighted averages and sampled series (per-server memory occupancy in
/// Fig. 7, disk utilisation in Fig. 4).
#[derive(Debug, Clone, PartialEq)]
pub struct TimeWeighted {
    last_time: SimTime,
    value: f64,
    weighted_sum: f64, // integral of value dt (seconds)
    span: SimDuration,
    peak: f64,
    /// Change points `(time, new_value)` for series export.
    history: Vec<(SimTime, f64)>,
    keep_history: bool,
}

impl TimeWeighted {
    /// Creates a tracker starting at `value` at time zero. `keep_history`
    /// retains every change point for series export (costs memory).
    pub fn new(value: f64, keep_history: bool) -> Self {
        TimeWeighted {
            last_time: SimTime::ZERO,
            value,
            weighted_sum: 0.0,
            span: SimDuration::ZERO,
            peak: value,
            history: if keep_history {
                vec![(SimTime::ZERO, value)]
            } else {
                Vec::new()
            },
            keep_history,
        }
    }

    /// Sets the value at time `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the previous update.
    pub fn set(&mut self, now: SimTime, value: f64) {
        let dt = now.duration_since(self.last_time);
        self.weighted_sum += self.value * dt.as_secs_f64();
        self.span += dt;
        self.last_time = now;
        self.value = value;
        self.peak = self.peak.max(value);
        if self.keep_history && self.history.last().map(|&(_, v)| v) != Some(value) {
            self.history.push((now, value));
        }
    }

    /// Adds `delta` to the current value at time `now`.
    pub fn add(&mut self, now: SimTime, delta: f64) {
        self.set(now, self.value + delta);
    }

    /// The current value.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Maximum value ever held.
    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// Time-weighted average over `[0, now]`.
    pub fn average(&self, now: SimTime) -> f64 {
        let extra = now.saturating_duration_since(self.last_time).as_secs_f64();
        let total = self.span.as_secs_f64() + extra;
        if total == 0.0 {
            self.value
        } else {
            (self.weighted_sum + self.value * extra) / total
        }
    }

    /// The value held at time `t` (requires history).
    ///
    /// # Panics
    ///
    /// Panics if history was not kept.
    pub fn value_at(&self, t: SimTime) -> f64 {
        assert!(self.keep_history, "history not kept");
        match self.history.binary_search_by_key(&t, |&(at, _)| at) {
            Ok(i) => self.history[i].1,
            Err(0) => self.history[0].1,
            Err(i) => self.history[i - 1].1,
        }
    }

    /// The raw change-point history `(time, new_value)` (requires history).
    ///
    /// # Panics
    ///
    /// Panics if history was not kept.
    pub fn sample_series_raw(&self) -> &[(SimTime, f64)] {
        assert!(self.keep_history, "history not kept");
        &self.history
    }

    /// Samples the series every `interval` over `[0, end]` (requires
    /// history). Returns `(time, value)` pairs.
    pub fn sample_series(&self, interval: SimDuration, end: SimTime) -> Vec<(SimTime, f64)> {
        assert!(!interval.is_zero(), "zero sampling interval");
        let mut out = Vec::new();
        let mut t = SimTime::ZERO;
        while t <= end {
            out.push((t, self.value_at(t)));
            t += interval;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_moments() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.stddev(), 2.0);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert_eq!(s.sum(), 40.0);
    }

    #[test]
    fn online_stats_merge_matches_combined() {
        let xs = [1.0, 5.0, 2.0, 8.0, 3.0, 9.0];
        let mut all = OnlineStats::new();
        xs.iter().for_each(|&x| all.push(x));
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        xs[..3].iter().for_each(|&x| a.push(x));
        xs[3..].iter().for_each(|&x| b.push(x));
        a.merge(&b);
        assert!((a.mean() - all.mean()).abs() < 1e-12);
        assert!((a.variance() - all.variance()).abs() < 1e-12);
        assert_eq!(a.count(), all.count());
    }

    #[test]
    fn empty_stats_are_sane() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn percentiles_interpolate() {
        let mut s: Samples = [10.0, 20.0, 30.0, 40.0].into_iter().collect();
        assert_eq!(s.percentile(0.0), 10.0);
        assert_eq!(s.percentile(100.0), 40.0);
        assert_eq!(s.median(), 25.0);
        assert_eq!(s.percentile(25.0), 17.5);
    }

    #[test]
    fn fraction_below_is_cdf() {
        let mut s: Samples = [1.0, 2.0, 3.0, 4.0].into_iter().collect();
        assert_eq!(s.fraction_below(0.5), 0.0);
        assert_eq!(s.fraction_below(2.5), 0.5);
        assert_eq!(s.fraction_below(100.0), 1.0);
    }

    #[test]
    fn cdf_points_cover_extremes() {
        let mut s: Samples = (0..1000).map(|i| i as f64).collect();
        let pts = s.cdf_points(11);
        assert_eq!(pts.first().unwrap().0, 0.0);
        assert_eq!(pts.last().unwrap().0, 999.0);
        assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-12);
        assert!(pts.len() <= 11);
    }

    #[test]
    fn histogram_bins_correctly() {
        let mut h = Histogram::uniform(0.0, 10.0, 10);
        for i in 0..10 {
            h.record(i as f64 + 0.5);
        }
        assert!(h.bin_counts().iter().all(|&c| c == 1));
        h.record(-1.0);
        h.record(10.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 12);
    }

    #[test]
    fn histogram_explicit_edges() {
        let mut h = Histogram::from_edges(vec![0.0, 1.0, 10.0, 100.0]);
        h.record(0.5);
        h.record(5.0);
        h.record(50.0);
        assert_eq!(h.bin_counts(), &[1, 1, 1]);
        let rel = h.relative();
        assert!((rel.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_average() {
        let mut tw = TimeWeighted::new(0.0, false);
        tw.set(SimTime::from_secs(10), 100.0); // 0 for 10 s
        tw.set(SimTime::from_secs(20), 0.0); // 100 for 10 s
        assert_eq!(tw.average(SimTime::from_secs(20)), 50.0);
        assert_eq!(tw.peak(), 100.0);
        // Continues at 0 for another 20 s -> average 25.
        assert_eq!(tw.average(SimTime::from_secs(40)), 25.0);
    }

    #[test]
    fn time_weighted_history_and_sampling() {
        let mut tw = TimeWeighted::new(1.0, true);
        tw.set(SimTime::from_secs(5), 3.0);
        tw.set(SimTime::from_secs(10), 2.0);
        assert_eq!(tw.value_at(SimTime::from_secs(0)), 1.0);
        assert_eq!(tw.value_at(SimTime::from_secs(7)), 3.0);
        assert_eq!(tw.value_at(SimTime::from_secs(10)), 2.0);
        let series = tw.sample_series(SimDuration::from_secs(5), SimTime::from_secs(10));
        assert_eq!(
            series,
            vec![
                (SimTime::from_secs(0), 1.0),
                (SimTime::from_secs(5), 3.0),
                (SimTime::from_secs(10), 2.0)
            ]
        );
    }

    #[test]
    #[should_panic(expected = "NaN sample")]
    fn samples_reject_nan() {
        Samples::new().push(f64::NAN);
    }
}
