//! Lightweight metrics: atomic counters and fixed-bucket histograms.
//!
//! The paper's claims about the executor interface are quantitative —
//! "far more efficient in terms of bytes over the wire, time spent waiting
//! for results" (§III-A) — so the broker, cloud service, and SDK meter their
//! traffic through these primitives and the benchmark harness reads them out.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

use crate::flight::FlightRecorder;
use crate::trace::Tracer;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Reset to zero, returning the previous value.
    pub(crate) fn reset(&self) -> u64 {
        self.0.swap(0, Ordering::Relaxed)
    }
}

/// A gauge that can move both ways (e.g. queue depth).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Increase by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Decrease by `n` (saturating at zero).
    pub fn sub(&self, n: u64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Histogram with power-of-two latency buckets (microsecond granularity up
/// to ~17 minutes). Lock-free recording.
///
/// Bucket layout: bucket 0 holds only the value 0; bucket `i` for
/// `1 <= i < BUCKETS - 1` holds `[2^(i-1), 2^i)`; the final bucket
/// (`BUCKETS - 1`) is open-ended and holds everything from
/// `2^(BUCKETS - 2)` up.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; Self::BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Number of buckets; the last one is open-ended.
    pub(crate) const BUCKETS: usize = 32;

    /// New empty histogram.
    pub(crate) fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    fn bucket_for(v: u64) -> usize {
        (64 - v.leading_zeros() as usize).min(Self::BUCKETS - 1)
    }

    /// The largest value bucket `i` can hold (inclusive): 0 for bucket 0,
    /// `2^i - 1` for the middle buckets, `u64::MAX` for the open-ended last
    /// bucket.
    pub(crate) fn bucket_upper_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= Self::BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Record one observation.
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_for(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    pub(crate) fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean of observations (0 if empty).
    pub(crate) fn mean(&self) -> f64 {
        let c = self.count();
        if c == 0 {
            0.0
        } else {
            self.sum.load(Ordering::Relaxed) as f64 / c as f64
        }
    }

    /// Sum of all observations.
    pub(crate) fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Occupied buckets as `(inclusive upper bound, count)` pairs, in
    /// ascending bound order — the raw material for Prometheus-style
    /// cumulative `le` buckets without shipping 32 mostly-zero entries.
    pub(crate) fn bucket_counts(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then(|| (Self::bucket_upper_bound(i), n))
            })
            .collect()
    }

    /// Point-in-time snapshot (counts, sum, quantile bounds, buckets).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            mean: self.mean(),
            p50: self.quantile(0.5),
            p90: self.quantile(0.9),
            p99: self.quantile(0.99),
            buckets: self.bucket_counts(),
        }
    }

    /// Approximate quantile (upper bound of the bucket containing it).
    /// `q` in [0, 1].
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((total as f64) * q.clamp(0.0, 1.0)).ceil() as u64;
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return Self::bucket_upper_bound(i);
            }
        }
        u64::MAX
    }
}

/// Point-in-time view of one histogram, as produced by
/// [`Histogram::snapshot`] / [`MetricsRegistry::histogram_snapshot`].
/// Quantiles are bucket upper bounds (same convention as
/// `Histogram::quantile`); `buckets` lists only occupied buckets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub(crate) sum: u64,
    /// Mean observation (0 if empty).
    pub mean: f64,
    /// Median bound.
    pub p50: u64,
    /// 90th-percentile bound.
    pub(crate) p90: u64,
    /// 99th-percentile bound.
    pub p99: u64,
    /// `(inclusive upper bound, count)` for each occupied bucket.
    pub(crate) buckets: Vec<(u64, u64)>,
}

/// A named registry of counters and histograms shared by one component.
///
/// Cloning the registry shares the underlying metrics (it is an `Arc`
/// internally), so producers and the benchmark harness observe the same
/// counters.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<RegistryInner>,
}

#[derive(Default)]
struct RegistryInner {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
    // The tracer rides on the registry so every component that already
    // holds a registry handle (broker, cloud, engines, agent) reaches the
    // same trace collector without new plumbing. Disabled by default.
    tracer: RwLock<Tracer>,
    // The black-box flight recorder rides along for the same reason; unlike
    // the tracer it is always on (recording is cheap and only cold paths
    // record).
    flight: FlightRecorder,
}

impl MetricsRegistry {
    /// New empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.inner.counters.read().get(name) {
            return Arc::clone(c);
        }
        let mut w = self.inner.counters.write();
        Arc::clone(w.entry(name.to_string()).or_default())
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(g) = self.inner.gauges.read().get(name) {
            return Arc::clone(g);
        }
        let mut w = self.inner.gauges.write();
        Arc::clone(w.entry(name.to_string()).or_default())
    }

    /// Unregister the gauge named `name`, for a gauge that names something
    /// that is gone (a deleted queue). Holders of its handle keep a gauge
    /// no snapshot lists; a later [`gauge`](Self::gauge) call under the
    /// name registers a fresh one.
    pub fn remove_gauge(&self, name: &str) {
        self.inner.gauges.write().remove(name);
    }

    /// Snapshot of all gauge values, sorted by name.
    pub fn gauge_snapshot(&self) -> BTreeMap<String, u64> {
        self.inner
            .gauges
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// Get or create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.inner.histograms.read().get(name) {
            return Arc::clone(h);
        }
        let mut w = self.inner.histograms.write();
        Arc::clone(w.entry(name.to_string()).or_default())
    }

    /// Snapshot of all counter values, sorted by name.
    pub fn counter_snapshot(&self) -> BTreeMap<String, u64> {
        self.inner
            .counters
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// Snapshot of all histograms, sorted by name.
    pub fn histogram_snapshot(&self) -> BTreeMap<String, HistogramSnapshot> {
        self.inner
            .histograms
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect()
    }

    /// Install the tracer every holder of this registry should use.
    pub fn set_tracer(&self, tracer: Tracer) {
        *self.inner.tracer.write() = tracer;
    }

    /// The installed tracer (a disabled no-op one unless
    /// [`MetricsRegistry::set_tracer`] was called). Cheap to clone; hot
    /// paths should resolve it once and keep the clone.
    pub fn tracer(&self) -> Tracer {
        self.inner.tracer.read().clone()
    }

    /// The registry's flight recorder (see `flight.rs`). Cloning the
    /// returned handle shares the ring with every other holder of this
    /// registry.
    pub fn flight(&self) -> FlightRecorder {
        self.inner.flight.clone()
    }

    /// Reset every counter to zero (between benchmark phases).
    pub fn reset_counters(&self) {
        for c in self.inner.counters.read().values() {
            c.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counter_basics() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(c.reset(), 5);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn counter_is_thread_safe() {
        let c = Arc::new(Counter::default());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn gauge_saturates_at_zero() {
        let g = Gauge::default();
        g.add(3);
        g.sub(5);
        assert_eq!(g.get(), 0);
        g.add(2);
        g.sub(1);
        assert_eq!(g.get(), 1);
    }

    #[test]
    fn histogram_stats() {
        let h = Histogram::new();
        for v in [1u64, 2, 4, 8, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.mean() - 203.0).abs() < 1.0);
        assert!(h.quantile(0.5) <= 7);
        assert!(h.quantile(1.0) >= 1000 / 2);
        assert_eq!(Histogram::new().quantile(0.9), 0);
    }

    #[test]
    fn quantile_bounds_pinned_at_bucket_edges() {
        // A value of 0 lands in bucket 0, whose upper bound is exactly 0.
        let h = Histogram::new();
        h.record(0);
        assert_eq!(h.quantile(1.0), 0);

        // Each power-of-two edge: 2^(i-1) is the smallest value in bucket i,
        // whose reported upper bound is 2^i - 1; 2^i - 1 is the largest and
        // must report the same bound.
        for i in 1..=30usize {
            let lo = Histogram::new();
            lo.record(1u64 << (i - 1));
            assert_eq!(lo.quantile(1.0), (1u64 << i) - 1, "low edge, bucket {i}");
            let hi = Histogram::new();
            hi.record((1u64 << i) - 1);
            assert_eq!(hi.quantile(1.0), (1u64 << i) - 1, "high edge, bucket {i}");
        }

        // Everything from 2^30 up falls into the open-ended last bucket.
        for v in [1u64 << 30, (1u64 << 31) - 1, 1u64 << 40, u64::MAX] {
            let h = Histogram::new();
            h.record(v);
            assert_eq!(
                Histogram::bucket_for(v),
                Histogram::BUCKETS - 1,
                "value {v} must land in the last bucket"
            );
            assert_eq!(h.quantile(1.0), u64::MAX);
        }
    }

    #[test]
    fn quantile_upper_bound_never_undershoots() {
        // The reported quantile is the bucket's upper bound, so it is always
        // >= every recorded value at that quantile.
        let h = Histogram::new();
        for v in [0u64, 1, 3, 17, 1000, 65_535, 1 << 29] {
            h.record(v);
        }
        assert!(h.quantile(1.0) >= 1 << 29);
        assert!(h.quantile(0.0) < h.quantile(1.0));
        let mid = h.quantile(0.5);
        assert!(mid >= 3, "p50 bound must cover the median value: {mid}");
    }

    #[test]
    fn histogram_snapshot_matches_live_stats() {
        let r = MetricsRegistry::new();
        let h = r.histogram("lat");
        for v in [0u64, 1, 2, 4, 8, 1000] {
            h.record(v);
        }
        let snap = &r.histogram_snapshot()["lat"];
        assert_eq!(snap.count, 6);
        assert_eq!(snap.sum, 1015);
        assert_eq!(snap.p50, h.quantile(0.5));
        assert_eq!(snap.p99, h.quantile(0.99));
        // Buckets cover every observation exactly once, bounds ascending.
        assert_eq!(snap.buckets.iter().map(|(_, n)| n).sum::<u64>(), 6);
        assert!(snap.buckets.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(snap.buckets[0], (0, 1), "value 0 lands in bucket 0");
        assert!(!r.histogram_snapshot().contains_key("missing"));
    }

    #[test]
    fn registry_carries_a_shared_tracer() {
        let r = MetricsRegistry::new();
        assert!(!r.tracer().enabled(), "disabled by default");
        let clock: crate::clock::SharedClock = crate::clock::VirtualClock::new();
        r.set_tracer(crate::trace::Tracer::new(
            clock,
            crate::trace::TraceConfig::default(),
        ));
        let r2 = r.clone();
        let ctx = r2.tracer().start_trace("task").unwrap();
        assert!(r.tracer().trace(ctx.trace_id).is_some());
    }

    #[test]
    fn registry_shares_named_metrics() {
        let r = MetricsRegistry::new();
        r.counter("bytes").add(10);
        let r2 = r.clone();
        r2.counter("bytes").add(5);
        assert_eq!(r.counter("bytes").get(), 15);
        let snap = r.counter_snapshot();
        assert_eq!(snap.get("bytes"), Some(&15));
        r.reset_counters();
        assert_eq!(r.counter("bytes").get(), 0);
    }

    #[test]
    fn registry_shares_named_gauges() {
        let r = MetricsRegistry::new();
        r.gauge("depth").add(7);
        let r2 = r.clone();
        r2.gauge("depth").sub(2);
        assert_eq!(r.gauge("depth").get(), 5);
        assert_eq!(r.gauge_snapshot().get("depth"), Some(&5));
        assert!(!r.gauge_snapshot().contains_key("missing"));
    }

    #[test]
    fn a_removed_gauge_leaves_the_snapshot_and_comes_back_fresh() {
        let r = MetricsRegistry::new();
        let held = r.gauge("depth");
        held.add(3);
        r.remove_gauge("depth");
        assert!(!r.gauge_snapshot().contains_key("depth"));
        held.add(1);
        assert!(
            r.gauge_snapshot().is_empty(),
            "a held handle registers nothing"
        );
        assert_eq!(r.gauge("depth").get(), 0);
    }
}
