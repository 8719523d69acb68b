//! Sim-time metrics registry: counters, gauges and log-bucketed
//! histograms, sampled into fixed sim-time windows.
//!
//! The registry is the quantitative sibling of [`crate::telemetry`]: where
//! the telemetry stream records *what happened*, the registry records *how
//! much, when*. Instruments are keyed by a static name plus an integer tag
//! (usually a node id), so recording never allocates; windows close as
//! simulation time advances past fixed boundaries, so the exported series
//! is a pure function of the event history and the window length —
//! bit-identical across runs and platforms. All encoded values are
//! integers (microseconds, bytes, counts): no floats ever reach the CSV or
//! JSONL exports.
//!
//! Like [`Telemetry`](crate::telemetry::Telemetry), a disabled registry
//! (the default) is a `None` behind the handle: every recording call is a
//! single branch and the simulation's event stream is untouched either
//! way. Handles are cheap clones sharing one interior state, so the world,
//! the master, every slave, the RPC channel and the disks can all write
//! into the same registry while the caller keeps a handle to read the
//! report afterwards.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use crate::time::{SimDuration, SimTime};

/// Instrument key: a static metric name plus an integer tag (node id,
/// class index, …). Keeping the name `&'static str` makes recording
/// allocation-free and gives exports a total ordering over the pair.
pub type MetricKey = (&'static str, u64);

/// Number of log₂ histogram buckets: bucket `k` holds values whose
/// bit-length is `k`, i.e. `v == 0 → 0` and otherwise
/// `k = 64 - v.leading_zeros()`.
pub const HIST_BUCKETS: usize = 65;

/// One histogram's accumulated state (per window or in total).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hist {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Smallest observed value.
    pub min: u64,
    /// Largest observed value.
    pub max: u64,
    /// Log₂ bucket counts (see [`HIST_BUCKETS`]).
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl Hist {
    #[inline]
    fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_of(v)] += 1;
    }

    /// Folds another histogram's observations into this one.
    fn merge(&mut self, o: &Hist) {
        self.count += o.count;
        self.sum = self.sum.saturating_add(o.sum);
        self.min = self.min.min(o.min);
        self.max = self.max.max(o.max);
        for (b, c) in self.buckets.iter_mut().zip(o.buckets.iter()) {
            *b += c;
        }
    }

    /// The value at quantile `q_num/q_den` (nearest-rank over bucket upper
    /// bounds), or 0 for an empty histogram. Approximate by construction:
    /// resolution is one power of two.
    pub fn quantile(&self, q_num: u64, q_den: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (self.count * q_num).div_ceil(q_den).max(1);
        let mut seen = 0;
        for (k, c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return upper_bound(k);
            }
        }
        self.max
    }
}

/// The log₂ bucket index for a value.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// The inclusive upper bound of bucket `k` (`0` for bucket 0).
pub fn upper_bound(k: usize) -> u64 {
    if k == 0 {
        0
    } else if k >= 64 {
        u64::MAX
    } else {
        (1u64 << k) - 1
    }
}

/// Everything recorded inside one closed sim-time window.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowSnapshot {
    /// Window index (`start_us / window_us`).
    pub index: u64,
    /// Window start in sim microseconds.
    pub start_us: u64,
    /// Counter increments that happened inside this window (non-zero only).
    pub counters: Vec<(MetricKey, u64)>,
    /// Gauge values at window close (every gauge ever set).
    pub gauges: Vec<(MetricKey, i64)>,
    /// Histogram observations made inside this window (non-empty only).
    pub hists: Vec<(MetricKey, Hist)>,
}

/// The full export of a registry: closed windows plus run totals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsReport {
    /// The fixed window length in microseconds.
    pub window_us: u64,
    /// Every closed window, in time order (gap windows are elided: a
    /// window in which nothing was recorded and no gauge changed still
    /// appears, carrying only the persisted gauges).
    pub windows: Vec<WindowSnapshot>,
    /// Whole-run counter totals.
    pub counter_totals: Vec<(MetricKey, u64)>,
    /// Final gauge values.
    pub gauge_finals: Vec<(MetricKey, i64)>,
    /// Whole-run histogram totals.
    pub hist_totals: Vec<(MetricKey, Hist)>,
}

impl MetricsReport {
    /// The whole-run total of one counter, 0 when never incremented.
    pub fn counter_total(&self, name: &str, tag: u64) -> u64 {
        self.counter_totals
            .iter()
            .find(|((n, t), _)| *n == name && *t == tag)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// The whole-run histogram for one key, if any value was observed.
    pub fn hist_total(&self, name: &str, tag: u64) -> Option<&Hist> {
        self.hist_totals
            .iter()
            .find(|((n, t), _)| *n == name && *t == tag)
            .map(|(_, h)| h)
    }

    /// Renders the windows as CSV rows (all integer cells) under the
    /// header `window,start_us,kind,name,tag,field,value`.
    pub fn to_csv_rows(&self) -> Vec<Vec<String>> {
        let mut rows = Vec::new();
        for w in &self.windows {
            let base = |kind: &str, key: &MetricKey, field: &str, value: String| {
                vec![
                    w.index.to_string(),
                    w.start_us.to_string(),
                    kind.to_string(),
                    key.0.to_string(),
                    key.1.to_string(),
                    field.to_string(),
                    value,
                ]
            };
            for (key, v) in &w.counters {
                rows.push(base("counter", key, "count", v.to_string()));
            }
            for (key, v) in &w.gauges {
                rows.push(base("gauge", key, "value", v.to_string()));
            }
            for (key, h) in &w.hists {
                rows.push(base("hist", key, "count", h.count.to_string()));
                rows.push(base("hist", key, "sum", h.sum.to_string()));
                rows.push(base("hist", key, "min", h.min.to_string()));
                rows.push(base("hist", key, "max", h.max.to_string()));
                for (k, c) in h.buckets.iter().enumerate() {
                    if *c > 0 {
                        rows.push(base("hist", key, &format!("b{k}"), c.to_string()));
                    }
                }
            }
        }
        rows
    }

    /// The CSV header matching [`to_csv_rows`](Self::to_csv_rows).
    pub fn csv_header() -> [&'static str; 7] {
        [
            "window", "start_us", "kind", "name", "tag", "field", "value",
        ]
    }

    /// Renders the windows as JSONL, one window object per line, integers
    /// only. Metric names are static identifiers and need no escaping.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for w in &self.windows {
            out.push_str(&format!(
                "{{\"window\":{},\"start_us\":{},\"window_us\":{},\"counters\":[",
                w.index, w.start_us, self.window_us
            ));
            for (i, ((name, tag), v)) in w.counters.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"name\":\"{name}\",\"tag\":{tag},\"count\":{v}}}"
                ));
            }
            out.push_str("],\"gauges\":[");
            for (i, ((name, tag), v)) in w.gauges.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"name\":\"{name}\",\"tag\":{tag},\"value\":{v}}}"
                ));
            }
            out.push_str("],\"hists\":[");
            for (i, ((name, tag), h)) in w.hists.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"name\":\"{name}\",\"tag\":{tag},\"count\":{},\"sum\":{},\
                     \"min\":{},\"max\":{},\"buckets\":[",
                    h.count, h.sum, h.min, h.max
                ));
                let mut first = true;
                for (k, c) in h.buckets.iter().enumerate() {
                    if *c > 0 {
                        if !first {
                            out.push(',');
                        }
                        first = false;
                        out.push_str(&format!("[{k},{c}]"));
                    }
                }
                out.push_str("]}");
            }
            out.push_str("]}\n");
        }
        out
    }
}

/// Live instrument storage: an unsorted `Vec` scanned linearly. A handful
/// of instruments are ever live at once, so a scan with an integer-first
/// key compare beats an ordered map on the recording path; snapshots sort
/// into `MetricKey` order at window close so exports keep the total
/// ordering a `BTreeMap` would have given.
#[derive(Debug, Default, Clone)]
struct Table<V> {
    entries: Vec<(MetricKey, V)>,
}

impl<V: Default> Table<V> {
    /// Mutable slot for `key`, inserted at first touch. The lookup scan
    /// compares the tag first (one integer) and the name by pointer before
    /// falling back to content, since every call site passes the same
    /// literal; first-touch insertion lands at the key's total-order
    /// position so snapshots read out sorted without sorting.
    #[inline]
    fn slot(&mut self, key: MetricKey) -> &mut V {
        let pos = self
            .entries
            .iter()
            .position(|(k, _)| k.1 == key.1 && (std::ptr::eq(k.0, key.0) || k.0 == key.0));
        let i = match pos {
            Some(i) => i,
            None => {
                let at = self
                    .entries
                    .iter()
                    .position(|(k, _)| *k > key)
                    .unwrap_or(self.entries.len());
                self.entries.insert(at, (key, V::default()));
                at
            }
        };
        &mut self.entries[i].1
    }
}

impl<V: Clone> Table<V> {
    /// A copy of the entries (kept in total `MetricKey` order on insert).
    fn sorted(&self) -> Vec<(MetricKey, V)> {
        self.entries.clone()
    }
}

impl<V> Table<V> {
    /// Drains the entries (kept in total `MetricKey` order on insert),
    /// leaving the table empty — no clone for per-window tables that
    /// reset at close anyway.
    fn take_sorted(&mut self) -> Vec<(MetricKey, V)> {
        std::mem::take(&mut self.entries)
    }
}

#[derive(Debug, Default, Clone)]
struct Inner {
    window: SimDuration,
    /// Start of the currently open window; window 0 always starts at t=0
    /// so indexes are comparable across runs regardless of first activity.
    open_start: SimTime,
    counters_cur: Table<u64>,
    counters_total: Table<u64>,
    gauges: Table<i64>,
    hists_cur: Table<Hist>,
    hists_total: Table<Hist>,
    windows: Vec<WindowSnapshot>,
}

impl Inner {
    fn close_windows_until(&mut self, now: SimTime) {
        // Close every window whose end lies at or before `now`.
        let len = self.window.as_micros().max(1);
        while self.open_start.as_micros() + len <= now.as_micros() {
            let start_us = self.open_start.as_micros();
            self.flush_window(start_us / len, start_us);
            self.open_start = SimTime::from_micros(start_us + len);
        }
    }

    /// Snapshots the open window and resets its per-window tables. The
    /// window's increments fold into the run totals here — once per close
    /// rather than once per recording call — so the recording hot path
    /// touches a single table.
    fn flush_window(&mut self, index: u64, start_us: u64) {
        for (k, v) in &self.counters_cur.entries {
            *self.counters_total.slot(*k) += *v;
        }
        for (k, h) in &self.hists_cur.entries {
            self.hists_total.slot(*k).merge(h);
        }
        self.windows.push(WindowSnapshot {
            index,
            start_us,
            counters: self.counters_cur.take_sorted(),
            gauges: self.gauges.sorted(),
            hists: self.hists_cur.take_sorted(),
        });
    }

    /// End of the currently open window in sim microseconds — the value
    /// [`Shared::open_end_us`] caches for `set_now`'s fast path.
    fn open_end_us(&self) -> u64 {
        self.open_start.as_micros() + self.window.as_micros().max(1)
    }
}

/// The shared state behind every cloned handle. The open window's end is
/// cached in a [`Cell`] outside the `RefCell` so the once-per-event
/// [`set_now`](MetricsRegistry::set_now) call is a load and a compare
/// while the clock stays inside the current window.
#[derive(Debug)]
struct Shared {
    open_end_us: Cell<u64>,
    state: RefCell<Inner>,
}

/// A shared handle onto a metrics registry (see module docs). The default
/// handle is disabled: every call is a no-op costing one branch.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Option<Rc<Shared>>,
}

/// An opaque copy of a registry's full recording state — open window,
/// per-window and total tables, closed-window backlog — captured by
/// [`MetricsRegistry::state_snapshot`] and reinstated by
/// [`MetricsRegistry::restore_state`]. World snapshots carry one of these
/// so a restored continuation replays the exact same metrics report as an
/// uninterrupted run.
#[derive(Clone, Debug, Default)]
pub struct MetricsState {
    inner: Option<Inner>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl MetricsRegistry {
    /// An enabled registry sampling into fixed windows of length `window`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: SimDuration) -> Self {
        assert!(window > SimDuration::ZERO, "zero metrics window");
        let inner = Inner {
            window,
            ..Inner::default()
        };
        MetricsRegistry {
            inner: Some(Rc::new(Shared {
                open_end_us: Cell::new(inner.open_end_us()),
                state: RefCell::new(inner),
            })),
        }
    }

    /// A disabled handle (same as `Default`).
    pub fn disabled() -> Self {
        MetricsRegistry::default()
    }

    /// Whether recording calls do anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Advances sim time, closing every window boundary crossed. The
    /// simulation loop calls this once per event, next to
    /// [`Telemetry::set_now`](crate::telemetry::Telemetry::set_now);
    /// while the clock stays inside the open window this is a load and a
    /// compare.
    #[inline]
    pub fn set_now(&self, now: SimTime) {
        if let Some(sh) = &self.inner {
            if now.as_micros() >= sh.open_end_us.get() {
                let mut i = sh.state.borrow_mut();
                i.close_windows_until(now);
                sh.open_end_us.set(i.open_end_us());
            }
        }
    }

    /// Adds to a counter.
    #[inline]
    pub fn counter_add(&self, name: &'static str, tag: u64, v: u64) {
        if let Some(sh) = &self.inner {
            *sh.state.borrow_mut().counters_cur.slot((name, tag)) += v;
        }
    }

    /// Sets a gauge to an absolute value.
    #[inline]
    pub fn gauge_set(&self, name: &'static str, tag: u64, v: i64) {
        if let Some(sh) = &self.inner {
            *sh.state.borrow_mut().gauges.slot((name, tag)) = v;
        }
    }

    /// Records one observation into a log₂-bucketed histogram.
    #[inline]
    pub fn observe(&self, name: &'static str, tag: u64, v: u64) {
        if let Some(sh) = &self.inner {
            sh.state.borrow_mut().hists_cur.slot((name, tag)).observe(v);
        }
    }

    /// Deep-copies the recording state behind this handle. Pairs with
    /// [`MetricsRegistry::restore_state`]; a disabled handle snapshots to
    /// an (equally inert) empty state.
    pub fn state_snapshot(&self) -> MetricsState {
        MetricsState {
            inner: self.inner.as_ref().map(|sh| sh.state.borrow().clone()),
        }
    }

    /// Reinstates a state captured by [`MetricsRegistry::state_snapshot`].
    /// Every clone of this handle shares the same interior, so the rewind
    /// is visible to all components at once. Restoring a snapshot taken
    /// from a disabled handle onto an enabled one (or vice versa) is a
    /// contract violation and panics: the enable/disable decision is made
    /// at world construction and never changes mid-run.
    #[expect(
        clippy::panic,
        reason = "documented contract: the enable state is fixed at world construction"
    )]
    pub fn restore_state(&self, state: &MetricsState) {
        match (&self.inner, &state.inner) {
            (Some(sh), Some(saved)) => {
                let mut i = sh.state.borrow_mut();
                *i = saved.clone();
                sh.open_end_us.set(i.open_end_us());
            }
            (None, None) => {}
            _ => panic!("metrics snapshot enable-state mismatch"),
        }
    }

    /// Closes the final (partial) window at `end` and returns the full
    /// report, draining the closed windows from the registry — `finish` is
    /// terminal, so a second call would see totals but no windows. A
    /// disabled handle returns an empty report.
    pub fn finish(&self, end: SimTime) -> MetricsReport {
        let Some(sh) = &self.inner else {
            return MetricsReport::default();
        };
        let mut i = sh.state.borrow_mut();
        i.close_windows_until(end);
        sh.open_end_us.set(i.open_end_us());
        // Flush the open partial window if anything is pending.
        if !i.counters_cur.entries.is_empty()
            || !i.hists_cur.entries.is_empty()
            || !i.gauges.entries.is_empty()
        {
            let len = i.window.as_micros().max(1);
            let start_us = i.open_start.as_micros();
            i.flush_window(start_us / len, start_us);
        }
        MetricsReport {
            window_us: i.window.as_micros(),
            windows: std::mem::take(&mut i.windows),
            counter_totals: i.counters_total.sorted(),
            gauge_finals: i.gauges.sorted(),
            hist_totals: i.hists_total.sorted(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_is_inert() {
        let m = MetricsRegistry::disabled();
        assert!(!m.is_enabled());
        m.counter_add("c", 0, 5);
        m.gauge_set("g", 1, -3);
        m.observe("h", 2, 100);
        m.set_now(SimTime::from_secs(10));
        let r = m.finish(SimTime::from_secs(20));
        assert_eq!(r, MetricsReport::default());
    }

    #[test]
    fn windows_close_on_boundaries() {
        let m = MetricsRegistry::new(SimDuration::from_secs(1));
        m.set_now(SimTime::from_micros(100_000));
        m.counter_add("c", 0, 1);
        m.gauge_set("g", 0, 7);
        m.set_now(SimTime::from_micros(2_500_000)); // crosses two boundaries
        m.counter_add("c", 0, 2);
        let r = m.finish(SimTime::from_micros(2_600_000));
        // Windows 0 and 1 closed by set_now; window 2 flushed by finish.
        assert_eq!(r.windows.len(), 3);
        assert_eq!(r.windows[0].index, 0);
        assert_eq!(r.windows[0].counters, vec![(("c", 0), 1)]);
        assert_eq!(r.windows[0].gauges, vec![(("g", 0), 7)]);
        // Gap window still carries the persisted gauge, no counters.
        assert_eq!(r.windows[1].index, 1);
        assert!(r.windows[1].counters.is_empty());
        assert_eq!(r.windows[1].gauges, vec![(("g", 0), 7)]);
        assert_eq!(r.windows[2].counters, vec![(("c", 0), 2)]);
        assert_eq!(r.counter_total("c", 0), 3);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Hist::default();
        for v in [0u64, 1, 2, 3, 4, 1000, 1_000_000] {
            h.observe(v);
        }
        assert_eq!(h.count, 7);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1_000_000);
        assert_eq!(h.buckets[0], 1); // 0
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 2); // 2,3
        assert_eq!(h.buckets[3], 1); // 4
        assert_eq!(h.buckets[10], 1); // 1000
        assert_eq!(h.buckets[20], 1); // 1e6
        assert_eq!(h.quantile(50, 100), 3); // 4th of 7 → bucket 2 → ub 3
        assert_eq!(h.quantile(99, 100), upper_bound(20));
        assert_eq!(Hist::default().quantile(50, 100), 0);
    }

    #[test]
    fn exports_are_integer_only_and_deterministic() {
        let build = || {
            let m = MetricsRegistry::new(SimDuration::from_secs(1));
            m.set_now(SimTime::ZERO);
            m.counter_add("evictions", 3, 2);
            m.observe("rpc_delay_us", 0, 20_000);
            m.gauge_set("occupancy", 1, 1 << 30);
            m.finish(SimTime::from_secs(2))
        };
        let (a, b) = (build(), build());
        assert_eq!(a, b);
        let jsonl = a.to_jsonl();
        assert!(!jsonl.contains('.'), "floats leaked into JSONL: {jsonl}");
        for row in a.to_csv_rows() {
            assert_eq!(row.len(), MetricsReport::csv_header().len());
            for cell in &row[..2] {
                cell.parse::<u64>().expect("integer cell");
            }
        }
    }

    #[test]
    fn bucket_bounds_are_consistent() {
        for v in [0u64, 1, 2, 7, 8, 1023, 1024, u64::MAX] {
            let k = bucket_of(v);
            assert!(v <= upper_bound(k), "{v} > ub({k})");
            if k > 0 {
                assert!(v > upper_bound(k - 1), "{v} <= ub({})", k - 1);
            }
        }
    }
}
