#![warn(missing_docs)]
#![warn(unreachable_pub)]

//! # tamper-obs
//!
//! The pipeline's observability layer: named counters, gauges, monotonic
//! stage timers, and fixed-bucket latency histograms, grouped into
//! per-component **scopes** (`reader`, `shard<i>`, `merge`, `report`).
//!
//! # Determinism containment
//!
//! The repo's headline guarantee is that the same capture bytes produce
//! the same report bytes at any shard count. Metric *values* are
//! inherently nondeterministic (they measure wall time and scheduling),
//! so the whole layer is built to keep them structurally out of the
//! deterministic output:
//!
//! - this crate is the **only** pipeline crate allowed to read the wall
//!   clock (clippy's `disallowed_methods` list in `clippy.toml` bans
//!   `Instant::now`/`SystemTime::now` everywhere else, so other crates
//!   reach clocks through [`Stopwatch`]);
//! - metrics travel through a side [`Registry`], never through the
//!   engine's fold/merge accumulators, and are emitted to a *separate*
//!   file/stream (`--metrics-json`), never interleaved with verdicts or
//!   the byte-compared summary line;
//! - when no registry is attached every instrument is disabled: a
//!   disabled [`Stopwatch`] never touches `Instant::now`, so the
//!   unobserved hot path pays no clock reads at all.
//!
//! # Allocation frugality
//!
//! Instrument names are `&'static str` and live in small linear-scan
//! vectors (a scope has a handful of instruments — a linear scan beats a
//! hash map and allocates only on first use of a name). Histograms carry
//! fixed bucket bounds, so recording a sample is a branchless-ish scan
//! plus one add. The only per-scope allocations are the scope name and
//! one vector per instrument kind.

use std::sync::Mutex;
use std::time::Instant;

/// Fixed latency bucket upper bounds in nanoseconds (the last bucket in a
/// [`Histogram`] is the implicit overflow bucket above the final bound).
///
/// Chosen for per-flow classification work: sub-microsecond through
/// 100 ms, roughly geometric.
pub(crate) const LATENCY_BUCKETS_NS: [u64; 12] = [
    500,
    1_000,
    2_000,
    5_000,
    10_000,
    20_000,
    50_000,
    100_000,
    500_000,
    1_000_000,
    10_000_000,
    100_000_000,
];

/// A monotonic stage timer handle. Started from a [`ScopeMetrics`];
/// disabled scopes hand out disabled stopwatches that never read the
/// clock.
///
/// This is the single sanctioned wall-clock entry point for pipeline
/// crates: everything outside `tamper-obs` is forbidden (by the
/// `clock-containment` lint rule) from touching `std::time::Instant` /
/// `SystemTime` directly.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Option<Instant>);

impl Stopwatch {
    /// A stopwatch that never reads the clock and records nothing.
    pub(crate) fn disabled() -> Stopwatch {
        Stopwatch(None)
    }

    /// Start a running stopwatch (reads the monotonic clock).
    #[expect(
        clippy::disallowed_methods,
        reason = "tamper-obs is the one sanctioned home for clock reads; a stopwatch never touches verdict or report bytes"
    )]
    pub fn start() -> Stopwatch {
        Stopwatch(Some(Instant::now()))
    }

    /// Nanoseconds since start, or `None` for a disabled stopwatch.
    pub fn elapsed_ns(&self) -> Option<u64> {
        self.0.map(|t| {
            let n = t.elapsed().as_nanos();
            u64::try_from(n).unwrap_or(u64::MAX)
        })
    }
}

/// Aggregated samples of one named stage timer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimerStat {
    /// Number of recorded intervals.
    pub count: u64,
    /// Total nanoseconds across all intervals.
    pub total_ns: u64,
}

/// A fixed-bucket histogram: counts per bucket bound in
/// [`Histogram::bounds`], plus one overflow bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Upper bounds (inclusive) of each bucket, ascending.
    pub bounds: &'static [u64],
    /// One count per bound, plus the trailing overflow bucket
    /// (`counts.len() == bounds.len() + 1`).
    pub counts: Vec<u64>,
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all recorded values.
    pub total: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
}

impl Histogram {
    /// An empty histogram over the given bounds.
    pub(crate) fn new(bounds: &'static [u64]) -> Histogram {
        Histogram {
            bounds,
            counts: vec![0; bounds.len() + 1],
            count: 0,
            total: 0,
            max: 0,
        }
    }

    /// Record one sample.
    pub(crate) fn record(&mut self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        if let Some(c) = self.counts.get_mut(idx) {
            *c += 1;
        }
        self.count += 1;
        self.total = self.total.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Fold another histogram (same bounds) into this one.
    pub(crate) fn merge(&mut self, other: &Histogram) {
        if self.bounds != other.bounds {
            return;
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.total = self.total.saturating_add(other.total);
        self.max = self.max.max(other.max);
    }
}

/// The metrics of one pipeline scope (`reader`, `shard<i>`, `merge`,
/// `report`), owned by a single thread and published to a [`Registry`]
/// when the scope's work is done.
#[derive(Debug)]
pub struct ScopeMetrics {
    name: String,
    enabled: bool,
    counters: Vec<(&'static str, u64)>,
    gauges: Vec<(&'static str, u64)>,
    timers: Vec<(&'static str, TimerStat)>,
    histograms: Vec<(&'static str, Histogram)>,
}

fn slot<'a, T: Default>(items: &'a mut Vec<(&'static str, T)>, name: &'static str) -> &'a mut T {
    if let Some(i) = items.iter().position(|(n, _)| *n == name) {
        return &mut items[i].1;
    }
    items.push((name, T::default()));
    let last = items.len() - 1;
    &mut items[last].1
}

impl ScopeMetrics {
    /// An enabled scope (normally obtained via [`Registry::scope`]).
    pub(crate) fn new(name: impl Into<String>) -> ScopeMetrics {
        ScopeMetrics {
            name: name.into(),
            enabled: true,
            counters: Vec::new(),
            gauges: Vec::new(),
            timers: Vec::new(),
            histograms: Vec::new(),
        }
    }

    /// A disabled scope: every instrument is a no-op and no clock is ever
    /// read. Lets call sites thread one `&mut ScopeMetrics` through
    /// unconditionally.
    pub fn disabled() -> ScopeMetrics {
        ScopeMetrics {
            name: String::new(),
            enabled: false,
            counters: Vec::new(),
            gauges: Vec::new(),
            timers: Vec::new(),
            histograms: Vec::new(),
        }
    }

    /// Add `n` to a named counter.
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.enabled {
            *slot(&mut self.counters, name) += n;
        }
    }

    /// Set a named gauge to `v`.
    pub fn gauge_set(&mut self, name: &'static str, v: u64) {
        if self.enabled {
            *slot(&mut self.gauges, name) = v;
        }
    }

    /// Raise a named gauge to at least `v` (high-water-mark semantics).
    pub fn gauge_max(&mut self, name: &'static str, v: u64) {
        if self.enabled {
            let g = slot(&mut self.gauges, name);
            *g = (*g).max(v);
        }
    }

    /// Start a stage timer; disabled scopes return a disabled stopwatch
    /// (no clock read).
    pub fn start(&self) -> Stopwatch {
        if self.enabled {
            Stopwatch::start()
        } else {
            Stopwatch::disabled()
        }
    }

    /// Stop `sw` and fold the interval into the named stage timer.
    pub fn stop(&mut self, name: &'static str, sw: Stopwatch) {
        if let Some(ns) = sw.elapsed_ns() {
            self.record_timer(name, ns);
        }
    }

    /// Fold a raw interval (nanoseconds) into the named stage timer.
    /// Useful when one clock read feeds several instruments.
    pub fn record_timer(&mut self, name: &'static str, ns: u64) {
        if !self.enabled {
            return;
        }
        let t = slot(&mut self.timers, name);
        t.count += 1;
        t.total_ns = t.total_ns.saturating_add(ns);
    }

    /// Record a raw sample into the named latency histogram.
    pub fn record_hist(&mut self, name: &'static str, value: u64) {
        if !self.enabled {
            return;
        }
        if let Some(i) = self.histograms.iter().position(|(n, _)| *n == name) {
            self.histograms[i].1.record(value);
            return;
        }
        let mut h = Histogram::new(&LATENCY_BUCKETS_NS);
        h.record(value);
        self.histograms.push((name, h));
    }

    fn fold_into(self, other: &mut ScopeMetrics) {
        for (n, v) in self.counters {
            *slot(&mut other.counters, n) += v;
        }
        for (n, v) in self.gauges {
            let g = slot(&mut other.gauges, n);
            *g = (*g).max(v);
        }
        for (n, v) in self.timers {
            let t = slot(&mut other.timers, n);
            t.count += v.count;
            t.total_ns = t.total_ns.saturating_add(v.total_ns);
        }
        for (n, h) in self.histograms {
            if let Some(i) = other.histograms.iter().position(|(on, _)| *on == n) {
                other.histograms[i].1.merge(&h);
            } else {
                other.histograms.push((n, h));
            }
        }
    }
}

/// A thread-safe sink for published [`ScopeMetrics`]. Scopes are built
/// and mutated lock-free on their owning thread; the registry's mutex is
/// taken once per scope, at publish time.
#[derive(Debug, Default)]
pub struct Registry {
    scopes: Mutex<Vec<ScopeMetrics>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Create an enabled scope bound (by convention) to this registry.
    /// The caller owns it until [`Registry::publish`].
    pub fn scope(&self, name: impl Into<String>) -> ScopeMetrics {
        ScopeMetrics::new(name)
    }

    /// Hand a finished scope back. Scopes published under the same name
    /// fold together (counters/timers/histograms sum, gauges take max).
    pub fn publish(&self, scope: ScopeMetrics) {
        if !scope.enabled {
            return;
        }
        let mut guard = match self.scopes.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Some(existing) = guard.iter_mut().find(|s| s.name == scope.name) {
            scope.fold_into(existing);
        } else {
            guard.push(scope);
        }
    }

    /// A deterministic-order snapshot of everything published so far.
    /// Scope order is a natural sort (`shard2` before `shard10`), and
    /// instruments within a scope sort by name — so two runs that record
    /// the same instruments produce structurally identical documents
    /// (only the measured *values* differ).
    pub fn snapshot(&self) -> Snapshot {
        let guard = match self.scopes.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let mut scopes: Vec<ScopeSnapshot> = guard
            .iter()
            .map(|s| {
                let mut counters: Vec<(String, u64)> = s
                    .counters
                    .iter()
                    .map(|(n, v)| (n.to_string(), *v))
                    .collect();
                counters.sort();
                let mut gauges: Vec<(String, u64)> =
                    s.gauges.iter().map(|(n, v)| (n.to_string(), *v)).collect();
                gauges.sort();
                let mut timers: Vec<(String, TimerStat)> =
                    s.timers.iter().map(|(n, v)| (n.to_string(), *v)).collect();
                timers.sort_by(|a, b| a.0.cmp(&b.0));
                let mut histograms: Vec<(String, Histogram)> = s
                    .histograms
                    .iter()
                    .map(|(n, h)| (n.to_string(), h.clone()))
                    .collect();
                histograms.sort_by(|a, b| a.0.cmp(&b.0));
                ScopeSnapshot {
                    scope: s.name.clone(),
                    counters,
                    gauges,
                    timers,
                    histograms,
                }
            })
            .collect();
        scopes.sort_by_key(|a| natural_key(&a.scope));
        Snapshot { scopes }
    }
}

/// Natural-sort key: the name with any trailing digits split off as a
/// number, so `shard2` orders before `shard10`.
fn natural_key(name: &str) -> (String, u64) {
    let digits = name
        .bytes()
        .rev()
        .take_while(|b| b.is_ascii_digit())
        .count();
    let split = name.len() - digits;
    let n = name[split..].parse().unwrap_or(0);
    (name[..split].to_string(), n)
}

/// An immutable, deterministically ordered view of a [`Registry`].
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Scopes in natural-sorted name order.
    pub scopes: Vec<ScopeSnapshot>,
}

impl Snapshot {
    /// Find a scope by exact name.
    pub fn scope(&self, name: &str) -> Option<&ScopeSnapshot> {
        self.scopes.iter().find(|s| s.scope == name)
    }

    /// Sum of a counter across every scope whose name starts with
    /// `scope_prefix`.
    pub fn counter_sum(&self, scope_prefix: &str, counter: &str) -> u64 {
        self.scopes
            .iter()
            .filter(|s| s.scope.starts_with(scope_prefix))
            .map(|s| s.counter(counter))
            .sum()
    }
}

/// One scope inside a [`Snapshot`], instruments sorted by name.
#[derive(Debug, Clone)]
pub struct ScopeSnapshot {
    /// Scope name (`reader`, `shard0`, …).
    pub scope: String,
    /// Counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauges, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// Stage timers, sorted by name.
    pub timers: Vec<(String, TimerStat)>,
    /// Latency histograms, sorted by name.
    pub histograms: Vec<(String, Histogram)>,
}

impl ScopeSnapshot {
    /// Counter value (0 when never recorded).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Gauge value (0 when never recorded).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Timer statistics, if the stage ever ran.
    pub fn timer(&self, name: &str) -> Option<TimerStat> {
        self.timers.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Histogram, if any sample was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_accumulate() {
        let mut s = ScopeMetrics::new("reader");
        s.count("records", 3);
        s.count("records", 2);
        s.gauge_max("occupancy", 7);
        s.gauge_max("occupancy", 4);
        s.gauge_set("threads", 8);
        let reg = Registry::new();
        reg.publish(s);
        let snap = reg.snapshot();
        let r = snap.scope("reader").unwrap();
        assert_eq!(r.counter("records"), 5);
        assert_eq!(r.gauge("occupancy"), 7);
        assert_eq!(r.gauge("threads"), 8);
        assert_eq!(r.counter("never"), 0);
    }

    #[test]
    fn disabled_scope_records_nothing_and_skips_the_clock() {
        let mut s = ScopeMetrics::disabled();
        s.count("records", 9);
        s.gauge_max("occupancy", 9);
        let sw = s.start();
        assert!(sw.elapsed_ns().is_none(), "disabled stopwatch read a clock");
        s.stop("stage", sw);
        s.record_hist("lat", 5);
        let reg = Registry::new();
        reg.publish(s);
        assert!(reg.snapshot().scopes.is_empty());
    }

    #[test]
    fn timers_and_histograms_record_real_time() {
        let reg = Registry::new();
        let mut s = reg.scope("shard0");
        let sw = s.start();
        std::hint::black_box((0..1000).sum::<u64>());
        s.stop("parse", sw);
        s.record_hist("classify_ns", 750);
        s.record_hist("classify_ns", 3_000);
        s.record_hist("classify_ns", u64::MAX / 2);
        reg.publish(s);
        let snap = reg.snapshot();
        let sh = snap.scope("shard0").unwrap();
        let t = sh.timer("parse").unwrap();
        assert_eq!(t.count, 1);
        let h = sh.histogram("classify_ns").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.max, u64::MAX / 2);
        // 750 lands in the ≤1000 bucket, 3000 in ≤5000, huge in overflow.
        assert_eq!(h.counts[1], 1);
        assert_eq!(h.counts[3], 1);
        assert_eq!(h.counts[LATENCY_BUCKETS_NS.len()], 1);
    }

    #[test]
    fn same_name_scopes_fold_and_order_is_natural() {
        let reg = Registry::new();
        for i in [10usize, 2, 0] {
            let mut s = reg.scope(format!("shard{i}"));
            s.count("flows", 1);
            s.gauge_max("occupancy", i as u64);
            reg.publish(s);
        }
        let mut again = reg.scope("shard2");
        again.count("flows", 4);
        again.gauge_max("occupancy", 1);
        reg.publish(again);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.scopes.iter().map(|s| s.scope.as_str()).collect();
        assert_eq!(names, vec!["shard0", "shard2", "shard10"]);
        let s2 = snap.scope("shard2").unwrap();
        assert_eq!(s2.counter("flows"), 5);
        assert_eq!(s2.gauge("occupancy"), 2, "gauge folds by max");
        assert_eq!(snap.counter_sum("shard", "flows"), 7);
    }

    #[test]
    fn histogram_merge_requires_matching_bounds() {
        let mut a = Histogram::new(&LATENCY_BUCKETS_NS);
        a.record(100);
        static OTHER: [u64; 1] = [10];
        let b = Histogram::new(&OTHER);
        a.merge(&b); // silently ignored
        assert_eq!(a.count, 1);
        let mut c = Histogram::new(&LATENCY_BUCKETS_NS);
        c.record(1);
        a.merge(&c);
        assert_eq!(a.count, 2);
    }

    #[test]
    fn snapshot_instruments_are_sorted() {
        let reg = Registry::new();
        let mut s = reg.scope("merge");
        s.count("zeta", 1);
        s.count("alpha", 1);
        reg.publish(s);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap
            .scope("merge")
            .unwrap()
            .counters
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }
}
