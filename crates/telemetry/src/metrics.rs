//! The metrics registry: counters, gauges, and log-scale histograms.
//!
//! Handles are `Arc`-backed and lock-free to record into; the registry's
//! mutex is touched only at registration and snapshot time, never on the
//! hot path. Every instrument has one contract: the subsystem that
//! records into it owns it and hands that same handle to a registry
//! (`register_counter`, `register_histogram`, `register_gauge`), which
//! never swaps it. A [`Counter`] always counts. A [`Histogram`] or
//! [`Gauge`] records nothing until it is registered into an enabled
//! [`Telemetry`] domain: until then a record is one relaxed atomic load,
//! and its timer never reads the clock.
//!
//! [`Telemetry`]: crate::Telemetry

use crate::report::{CounterEntry, GaugeEntry, HistogramEntry, TelemetryReport};
use athena_types::sentinel::TrackedMutex;
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Number of histogram buckets: one for zero plus one per bit position
/// of a `u64` sample.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Identifies one metric: which subsystem owns it, what it measures, and
/// (optionally) which instance of the subsystem it belongs to.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct MetricKey {
    /// The owning subsystem (`"dataplane"`, `"store"`, …).
    pub subsystem: String,
    /// The metric name. By convention a `_ns` suffix marks nanosecond
    /// latencies, which reports render as humanized durations.
    pub name: String,
    /// Distinguishes instances of the same subsystem (`"sw3"`,
    /// `"ctrl-0"`); empty for singleton metrics.
    pub instance: String,
}

impl MetricKey {
    fn new(subsystem: &str, name: &str, instance: &str) -> Self {
        MetricKey {
            subsystem: subsystem.to_owned(),
            name: name.to_owned(),
            instance: instance.to_owned(),
        }
    }

    /// The `subsystem/name[instance]` display form.
    pub fn label(&self) -> String {
        if self.instance.is_empty() {
            format!("{}/{}", self.subsystem, self.name)
        } else {
            format!("{}/{}[{}]", self.subsystem, self.name, self.instance)
        }
    }
}

impl std::fmt::Display for MetricKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// A monotonically increasing counter. It counts whether or not any
/// registry reports it, so a subsystem's views and the registry's report
/// read the same number.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down. It records only once registered
/// into an enabled domain.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    inner: Arc<GaugeInner>,
}

#[derive(Debug, Default)]
struct GaugeInner {
    enabled: AtomicBool,
    value: AtomicI64,
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        if self.inner.enabled.load(Ordering::Relaxed) {
            self.inner.value.store(v, Ordering::Relaxed);
        }
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        if self.inner.enabled.load(Ordering::Relaxed) {
            self.inner.value.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.inner.value.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramInner {
    enabled: AtomicBool,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramInner {
    fn default() -> Self {
        HistogramInner {
            enabled: AtomicBool::new(false),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Index of the bucket holding `v`: bucket 0 is exactly zero, bucket `i`
/// (1 ≤ i ≤ 64) covers `[2^(i-1), 2^i - 1]`.
#[inline]
fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Lower bound of bucket `i`.
fn bucket_lo(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Upper bound (inclusive) of bucket `i`.
fn bucket_hi(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A fixed-bucket log-scale histogram over `u64` samples.
///
/// 65 power-of-two buckets cover the whole `u64` range, so recording
/// never allocates, never locks, and never panics. Quantiles interpolate
/// linearly inside the winning bucket and are clamped to the exact
/// recorded maximum, which keeps p50 ≤ p90 ≤ p99 ≤ max by construction.
/// It records only once registered into an enabled domain.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        let inner = &*self.inner;
        if !inner.enabled.load(Ordering::Relaxed) {
            return;
        }
        inner.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(v, Ordering::Relaxed);
        inner.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Starts a wall-clock timer whose elapsed nanoseconds land in this
    /// histogram via [`HistTimer::observe`]. On a disabled histogram the
    /// clock is never read.
    #[inline]
    pub fn start_timer(&self) -> HistTimer {
        HistTimer {
            start: if self.inner.enabled.load(Ordering::Relaxed) {
                Some(Instant::now())
            } else {
                None
            },
        }
    }

    /// The value at quantile `q` (clamped into `[0, 1]`); 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        self.raw_snapshot().quantile(q)
    }

    /// A consistent-enough snapshot (counters are read individually, so
    /// a concurrent writer may skew totals by a few in-flight samples —
    /// fine for reporting).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let raw = self.raw_snapshot();
        HistogramSnapshot {
            count: raw.count,
            sum: raw.sum,
            max: raw.max,
            p50: raw.quantile(0.50),
            p90: raw.quantile(0.90),
            p99: raw.quantile(0.99),
        }
    }

    fn raw_snapshot(&self) -> RawSnapshot {
        let inner = &*self.inner;
        let buckets: Vec<u64> = inner
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        RawSnapshot {
            count: buckets.iter().sum(),
            sum: inner.sum.load(Ordering::Relaxed),
            max: inner.max.load(Ordering::Relaxed),
            buckets,
        }
    }

    /// An unreported histogram holding every sample of `handles`.
    fn merged(handles: &[Histogram]) -> Histogram {
        let out = Histogram::default();
        for h in handles {
            let (o, i) = (&*out.inner, &*h.inner);
            for (ob, ib) in o.buckets.iter().zip(&i.buckets) {
                ob.fetch_add(ib.load(Ordering::Relaxed), Ordering::Relaxed);
            }
            o.sum
                .fetch_add(i.sum.load(Ordering::Relaxed), Ordering::Relaxed);
            o.max
                .fetch_max(i.max.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        out
    }
}

/// An in-flight wall-clock measurement (see [`Histogram::start_timer`]).
#[derive(Debug)]
#[must_use = "a timer that is never observed measures nothing"]
pub struct HistTimer {
    start: Option<Instant>,
}

impl HistTimer {
    /// Records the elapsed nanoseconds into `hist`. No-op if the
    /// histogram was disabled when the timer started.
    #[inline]
    pub fn observe(self, hist: &Histogram) {
        if let Some(start) = self.start {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            hist.record(ns);
        }
    }
}

struct RawSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl RawSnapshot {
    fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = if q.is_finite() {
            q.clamp(0.0, 1.0)
        } else {
            1.0
        };
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut below = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if rank <= below + c {
                let lo = bucket_lo(i);
                let hi = bucket_hi(i).min(self.max);
                let pos = (rank - below) as f64 / c as f64;
                let est = lo as f64 + pos * (hi.saturating_sub(lo)) as f64;
                let est = if est >= u64::MAX as f64 {
                    u64::MAX
                } else {
                    est as u64
                };
                return est.clamp(lo.min(self.max), self.max);
            }
            below += c;
        }
        self.max
    }
}

/// Percentile summary of one histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (wraps only after ~5 centuries of nanoseconds).
    pub sum: u64,
    /// Largest sample, exact.
    pub max: u64,
    /// Median (interpolated).
    pub p50: u64,
    /// 90th percentile (interpolated).
    pub p90: u64,
    /// 99th percentile (interpolated).
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Mean sample value, 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

enum Metric {
    Counter(Vec<Counter>),
    Gauge(Gauge),
    Histogram(Vec<Histogram>),
}

/// The registry: keeps the instruments subsystems register and snapshots
/// them into a [`TelemetryReport`]. Obtained through
/// [`Telemetry`](crate::Telemetry).
///
/// Several counters under one key report their sum and several
/// histograms their merged samples; a gauge key reports the gauge
/// registered last. A handle registered twice under a key counts once,
/// and a key that names another kind of instrument leaves the handle
/// unreported.
pub struct MetricsRegistry {
    pub(crate) enabled: bool,
    metrics: TrackedMutex<BTreeMap<MetricKey, Metric>>,
}

impl MetricsRegistry {
    pub(crate) fn new(enabled: bool) -> Self {
        MetricsRegistry {
            enabled,
            metrics: TrackedMutex::new("telemetry/metrics", BTreeMap::new()),
        }
    }

    /// Reports a subsystem's own `counter` under `subsystem/name`. The
    /// registry keeps the handle, so the report shows every count it
    /// holds, made before this call or under a disabled domain alike.
    pub fn register_counter(&self, subsystem: &str, name: &str, counter: &Counter) {
        let key = MetricKey::new(subsystem, name, "");
        let mut map = self.metrics.lock();
        if let Metric::Counter(handles) = map
            .entry(key)
            .or_insert_with(|| Metric::Counter(Vec::new()))
        {
            if !handles
                .iter()
                .any(|h| Arc::ptr_eq(&h.value, &counter.value))
            {
                handles.push(counter.clone());
            }
        }
    }

    /// Reports a subsystem's own `hist` under `subsystem/name[instance]`
    /// (`instance` empty for a singleton) and, in an enabled domain,
    /// turns it on: it records what comes after this call.
    pub fn register_histogram(
        &self,
        subsystem: &str,
        name: &str,
        instance: &str,
        hist: &Histogram,
    ) {
        let key = MetricKey::new(subsystem, name, instance);
        let mut map = self.metrics.lock();
        if let Metric::Histogram(handles) = map
            .entry(key)
            .or_insert_with(|| Metric::Histogram(Vec::new()))
        {
            if !handles.iter().any(|h| Arc::ptr_eq(&h.inner, &hist.inner)) {
                handles.push(hist.clone());
            }
            hist.inner.enabled.fetch_or(self.enabled, Ordering::Relaxed);
        }
    }

    /// Reports a subsystem's own `gauge` under `subsystem/name[instance]`
    /// in place of any gauge registered there before and, in an enabled
    /// domain, turns it on.
    pub fn register_gauge(&self, subsystem: &str, name: &str, instance: &str, gauge: &Gauge) {
        let key = MetricKey::new(subsystem, name, instance);
        let mut map = self.metrics.lock();
        if let Metric::Gauge(g) = map
            .entry(key)
            .or_insert_with(|| Metric::Gauge(gauge.clone()))
        {
            *g = gauge.clone();
            gauge
                .inner
                .enabled
                .fetch_or(self.enabled, Ordering::Relaxed);
        }
    }

    /// Reads the counter reported under `subsystem/name`: the one handle
    /// registered there, an unreported reading of their sum when several
    /// share the key, and an unreported zero when there is none.
    pub fn counter(&self, subsystem: &str, name: &str) -> Counter {
        match self
            .metrics
            .lock()
            .get(&MetricKey::new(subsystem, name, ""))
        {
            Some(Metric::Counter(handles)) => match handles.as_slice() {
                [one] => one.clone(),
                many => {
                    let reading = Counter::default();
                    reading.add(many.iter().map(Counter::get).sum());
                    reading
                }
            },
            _ => Counter::default(),
        }
    }

    /// Reads the gauge reported under `subsystem/name` (an unreported one
    /// if there is none).
    pub fn gauge(&self, subsystem: &str, name: &str) -> Gauge {
        match self
            .metrics
            .lock()
            .get(&MetricKey::new(subsystem, name, ""))
        {
            Some(Metric::Gauge(g)) => g.clone(),
            _ => Gauge::default(),
        }
    }

    /// Reads the histograms registered under `subsystem/name`: an
    /// unreported copy of their merged samples (empty if there are none).
    pub fn histogram(&self, subsystem: &str, name: &str) -> Histogram {
        match self
            .metrics
            .lock()
            .get(&MetricKey::new(subsystem, name, ""))
        {
            Some(Metric::Histogram(handles)) => Histogram::merged(handles),
            _ => Histogram::default(),
        }
    }

    /// Snapshots every registered metric, sorted by key.
    pub fn report(&self) -> TelemetryReport {
        let map = self.metrics.lock();
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for (key, metric) in map.iter() {
            match metric {
                Metric::Counter(handles) => counters.push(CounterEntry {
                    key: key.clone(),
                    value: handles.iter().map(Counter::get).sum(),
                }),
                Metric::Gauge(g) => gauges.push(GaugeEntry {
                    key: key.clone(),
                    value: g.get(),
                }),
                Metric::Histogram(handles) => histograms.push(HistogramEntry {
                    key: key.clone(),
                    snapshot: Histogram::merged(handles).snapshot(),
                }),
            }
        }
        TelemetryReport {
            counters,
            gauges,
            histograms,
        }
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("metrics", &self.metrics.lock().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enabled_registry() -> MetricsRegistry {
        MetricsRegistry::new(true)
    }

    /// A histogram registered into an enabled domain.
    fn live() -> Histogram {
        let h = Histogram::default();
        enabled_registry().register_histogram("t", "h", "", &h);
        h
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 0..HISTOGRAM_BUCKETS {
            assert_eq!(bucket_index(bucket_lo(i)), i, "lo of bucket {i}");
            assert_eq!(bucket_index(bucket_hi(i)), i, "hi of bucket {i}");
        }
    }

    #[test]
    fn quantiles_interpolate_within_a_bucket() {
        let h = live();
        // 100 samples spread across bucket 11 ([1024, 2047]).
        for _ in 0..100 {
            h.record(1500);
        }
        let p50 = h.quantile(0.50);
        // Interpolation assumes uniform occupancy of [1024, 1500] (hi is
        // clamped to the recorded max): the median lands mid-range.
        assert!((1024..=1500).contains(&p50), "p50={p50}");
        assert_eq!(h.quantile(1.0), 1500);
        assert_eq!(h.snapshot().max, 1500);
    }

    #[test]
    fn quantiles_separate_well_spread_samples() {
        let h = live();
        // 90 fast samples, 10 slow ones, different buckets.
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert!(s.p50 < 128, "p50={}", s.p50);
        assert!(s.p99 > 500_000, "p99={}", s.p99);
        assert_eq!(s.max, 1_000_000);
    }

    #[test]
    fn empty_and_single_sample_quantiles() {
        let h = live();
        assert_eq!(h.quantile(0.5), 0);
        h.record(42);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 42, "q={q}");
        }
    }

    #[test]
    fn zero_samples_land_in_bucket_zero() {
        let h = live();
        h.record(0);
        h.record(0);
        let s = h.snapshot();
        assert_eq!((s.count, s.max, s.p50), (2, 0, 0));
    }

    #[test]
    fn extreme_samples_do_not_overflow_quantiles() {
        let h = live();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        let s = h.snapshot();
        assert_eq!(s.max, u64::MAX);
        assert!(s.p50 >= 1u64 << 63);
    }

    #[test]
    fn registration_is_idempotent_and_type_checked() {
        let reg = enabled_registry();
        let a = Counter::default();
        reg.register_counter("s", "n", &a);
        reg.register_counter("s", "n", &a);
        let b = reg.counter("s", "n");
        a.inc();
        assert_eq!(b.get(), 1);
        // Same key, different kind: unreported, not shared, no panic.
        let (g, h) = (Gauge::default(), Histogram::default());
        reg.register_gauge("s", "n", "", &g);
        reg.register_histogram("s", "n", "", &h);
        g.set(7);
        h.record(7);
        assert_eq!((g.get(), h.snapshot().count), (0, 0));
        assert_eq!(reg.counter("s", "n").get(), 1);
        let report = reg.report();
        assert!(report.gauges.is_empty() && report.histograms.is_empty());
    }

    #[test]
    fn reading_an_unknown_key_reports_nothing() {
        let reg = enabled_registry();
        let (c, g, h) = (
            reg.counter("s", "typo"),
            reg.gauge("s", "g"),
            reg.histogram("s", "h"),
        );
        c.inc();
        g.set(1);
        h.record(1);
        assert_eq!(reg.counter("s", "typo").get(), 0);
        let report = reg.report();
        assert!(report.counters.is_empty(), "{:?}", report.counters);
        assert!(report.gauges.is_empty() && report.histograms.is_empty());
    }

    #[test]
    fn instance_labels_separate_metrics() {
        let reg = enabled_registry();
        let (sw1, sw2) = (Gauge::default(), Gauge::default());
        reg.register_gauge("dp", "lookups", "sw1", &sw1);
        reg.register_gauge("dp", "lookups", "sw2", &sw2);
        sw1.set(5);
        sw2.set(9);
        let report = reg.report();
        assert_eq!(report.gauges.len(), 2);
        assert_eq!(report.gauges[0].key.instance, "sw1");
        assert_eq!(report.gauges[0].value, 5);
        assert_eq!(report.gauges[1].value, 9);
    }

    #[test]
    fn timer_measures_only_when_enabled() {
        let h = live();
        let t = h.start_timer();
        t.observe(&h);
        assert_eq!(h.snapshot().count, 1);
        let off = Histogram::default();
        let t = off.start_timer();
        t.observe(&off);
        assert_eq!(off.snapshot().count, 0);
    }

    #[test]
    fn mean_is_sum_over_count() {
        let h = live();
        h.record(10);
        h.record(30);
        assert_eq!(h.snapshot().mean(), 20);
    }
}
