//! The metrics registry: counters, gauges, and log-scale histograms.
//!
//! Handles are `Arc`-backed and lock-free to record into; the registry's
//! mutex is touched only at registration and snapshot time, never on the
//! hot path. A [`Counter`] always counts: it is the one tally of its
//! event, owned by the subsystem that counts it, whose own views read it
//! and which hands it to a registry with
//! [`MetricsRegistry::register_counter`]. Gauges and histograms share the
//! owning [`Telemetry`]'s enabled flag: a record on a disabled one is one
//! relaxed atomic load, and a disabled timer never reads the clock.
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

/// A value that can go up and down.
#[derive(Debug, Clone)]
pub struct Gauge {
    enabled: Arc<AtomicBool>,
    value: Arc<AtomicI64>,
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.value.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

impl Default for Gauge {
    /// A gauge not connected to any registry: it records nothing.
    fn default() -> Self {
        Gauge {
            enabled: Arc::new(AtomicBool::new(false)),
            value: Arc::new(AtomicI64::new(0)),
        }
    }
}

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistogramInner {
    fn new() -> Self {
        HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
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
#[derive(Debug, Clone)]
pub struct Histogram {
    enabled: Arc<AtomicBool>,
    inner: Arc<HistogramInner>,
}

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let inner = &*self.inner;
        inner.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(v, Ordering::Relaxed);
        inner.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Starts a wall-clock timer whose elapsed nanoseconds land in this
    /// histogram via [`HistTimer::observe`]. On a disabled histogram the
    /// clock is never read.
    #[inline]
    pub fn start_timer(&self) -> HistTimer {
        HistTimer {
            start: if self.enabled.load(Ordering::Relaxed) {
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
}

impl Default for Histogram {
    /// A histogram not connected to any registry: it records nothing.
    fn default() -> Self {
        Histogram {
            enabled: Arc::new(AtomicBool::new(false)),
            inner: Arc::new(HistogramInner::new()),
        }
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
    /// Every handle registered under the key; the report shows their sum.
    Counter(Vec<Counter>),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// The registry: hands out instrument handles and snapshots them into a
/// [`TelemetryReport`]. Obtained through [`Telemetry`](crate::Telemetry).
pub struct MetricsRegistry {
    enabled: Arc<AtomicBool>,
    metrics: TrackedMutex<BTreeMap<MetricKey, Metric>>,
}

impl MetricsRegistry {
    pub(crate) fn with_flag(enabled: Arc<AtomicBool>) -> Self {
        MetricsRegistry {
            enabled,
            metrics: TrackedMutex::new("telemetry/metrics", BTreeMap::new()),
        }
    }

    /// A counter labeled `subsystem/name` (no instance).
    pub fn counter(&self, subsystem: &str, name: &str) -> Counter {
        self.counter_with(subsystem, name, "")
    }

    /// Looks a counter up by name, registering a fresh one if the key is
    /// new (subsystems [register](Self::register_counter) their own). A
    /// key that several handles share resolves to an unreported reading
    /// of their sum; a key of another instrument kind, to an unreported
    /// handle (records vanish rather than panic a hot path).
    pub fn counter_with(&self, subsystem: &str, name: &str, instance: &str) -> Counter {
        let key = MetricKey::new(subsystem, name, instance);
        let mut map = self.metrics.lock();
        match map
            .entry(key)
            .or_insert_with(|| Metric::Counter(vec![Counter::default()]))
        {
            Metric::Counter(handles) => match handles.as_slice() {
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

    /// Reports a subsystem's own `counter` under `subsystem/name`. The
    /// registry keeps the handle, so the report shows every count it
    /// holds, made before this call or under a disabled domain alike.
    /// Several handles registered under one key report their sum; a
    /// handle registered twice counts once. A key that names a gauge or
    /// histogram leaves the counter unreported.
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

    /// A gauge labeled `subsystem/name`.
    pub fn gauge(&self, subsystem: &str, name: &str) -> Gauge {
        self.gauge_with(subsystem, name, "")
    }

    /// A gauge for one instance of a subsystem (idempotent; see
    /// [`MetricsRegistry::counter_with`]).
    pub fn gauge_with(&self, subsystem: &str, name: &str, instance: &str) -> Gauge {
        let key = MetricKey::new(subsystem, name, instance);
        let mut map = self.metrics.lock();
        match map.entry(key).or_insert_with(|| {
            Metric::Gauge(Gauge {
                enabled: Arc::clone(&self.enabled),
                value: Arc::new(AtomicI64::new(0)),
            })
        }) {
            Metric::Gauge(g) => g.clone(),
            _ => Gauge::default(),
        }
    }

    /// A histogram labeled `subsystem/name`.
    pub fn histogram(&self, subsystem: &str, name: &str) -> Histogram {
        self.histogram_with(subsystem, name, "")
    }

    /// A histogram for one instance of a subsystem (idempotent; see
    /// [`MetricsRegistry::counter_with`]).
    pub fn histogram_with(&self, subsystem: &str, name: &str, instance: &str) -> Histogram {
        let key = MetricKey::new(subsystem, name, instance);
        let mut map = self.metrics.lock();
        match map.entry(key).or_insert_with(|| {
            Metric::Histogram(Histogram {
                enabled: Arc::clone(&self.enabled),
                inner: Arc::new(HistogramInner::new()),
            })
        }) {
            Metric::Histogram(h) => h.clone(),
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
                Metric::Histogram(h) => histograms.push(HistogramEntry {
                    key: key.clone(),
                    snapshot: h.snapshot(),
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
        MetricsRegistry::with_flag(Arc::new(AtomicBool::new(true)))
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
        let reg = enabled_registry();
        let h = reg.histogram("t", "h");
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
        let reg = enabled_registry();
        let h = reg.histogram("t", "h");
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
        let reg = enabled_registry();
        let h = reg.histogram("t", "h");
        assert_eq!(h.quantile(0.5), 0);
        h.record(42);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 42, "q={q}");
        }
    }

    #[test]
    fn zero_samples_land_in_bucket_zero() {
        let reg = enabled_registry();
        let h = reg.histogram("t", "h");
        h.record(0);
        h.record(0);
        let s = h.snapshot();
        assert_eq!((s.count, s.max, s.p50), (2, 0, 0));
    }

    #[test]
    fn extreme_samples_do_not_overflow_quantiles() {
        let reg = enabled_registry();
        let h = reg.histogram("t", "h");
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        let s = h.snapshot();
        assert_eq!(s.max, u64::MAX);
        assert!(s.p50 >= 1u64 << 63);
    }

    #[test]
    fn registration_is_idempotent_and_type_checked() {
        let reg = enabled_registry();
        let a = reg.counter("s", "n");
        let b = reg.counter("s", "n");
        a.inc();
        assert_eq!(b.get(), 1);
        // Same key, different kind: unreported, not shared, no panic.
        let g = reg.gauge("s", "n");
        g.set(7);
        assert_eq!(reg.counter("s", "n").get(), 1);
    }

    #[test]
    fn instance_labels_separate_metrics() {
        let reg = enabled_registry();
        reg.counter_with("dp", "lookups", "sw1").add(5);
        reg.counter_with("dp", "lookups", "sw2").add(9);
        let report = reg.report();
        assert_eq!(report.counters.len(), 2);
        assert_eq!(report.counters[0].key.instance, "sw1");
        assert_eq!(report.counters[0].value, 5);
        assert_eq!(report.counters[1].value, 9);
    }

    #[test]
    fn timer_measures_only_when_enabled() {
        let reg = enabled_registry();
        let h = reg.histogram("t", "lat_ns");
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
        let reg = enabled_registry();
        let h = reg.histogram("t", "h");
        h.record(10);
        h.record(30);
        assert_eq!(h.snapshot().mean(), 20);
    }
}
