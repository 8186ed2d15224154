//! Metrics for the Athena reproduction, with no dependencies beyond
//! `athena-types`, `serde` (the report types derive `Serialize`) and `std`.
//!
//! The paper's whole evaluation is observational (Cbench throughput,
//! per-stage feature-generation and query latencies, detection-app
//! overhead), so every subsystem in this workspace reports into one
//! shared substrate:
//!
//! - [`MetricsRegistry`] — lock-cheap counters, gauges, and fixed-bucket
//!   log-scale histograms (p50/p90/p99/max), keyed by subsystem, metric
//!   name, and an optional instance label ([`metrics`] module),
//! - [`names`] — the one declaration of every metric name production
//!   code emits,
//! - [`TelemetryReport`] — the per-subsystem summary the bench binaries
//!   and the e2e harness print at exit ([`report`] module).
//!
//! Spans and events are not recorded here: `athena-observe` owns the one
//! causal recorder and samples this registry for its series and alerts.
//!
//! A [`Telemetry`] handle is one registry, enabled or not; cloning
//! yields another handle to the same instruments. Telemetry is **off by
//! default** ([`Telemetry::off`], also `Default`). Every instrument has
//! one contract: the subsystem that records into it owns it, reads its
//! views off it, and its `bind_telemetry` registers that same handle
//! ([`MetricsRegistry::register_counter`], `register_histogram`,
//! `register_gauge`); nothing swaps it afterwards, so a view and its
//! report row cannot disagree. A [`Counter`] always counts. A
//! [`Histogram`] or [`Gauge`] records only once registered into an
//! enabled domain: until then a record costs one relaxed atomic load and
//! a timer never touches the wall clock, so instrumented hot paths stay
//! deterministic and essentially free until a harness opts in with
//! [`Telemetry::new`]. The registry's lookups (`counter`, `histogram`,
//! `gauge`, …) read a key back for tests and harnesses and register
//! nothing: an unknown key reads as zero and adds no report row. The
//! `e2e_overhead` gate and the `overhead` criterion bench in this crate
//! hold the cost side.
//!
//! # Examples
//!
//! ```
//! use athena_telemetry::{Counter, Histogram, Telemetry};
//!
//! let tel = Telemetry::new();
//! let (polls, latency) = (Counter::default(), Histogram::default());
//! tel.metrics().register_counter("controller", "stats_polls", &polls);
//! tel.metrics().register_histogram("store", "insert_ns", "", &latency);
//!
//! polls.inc();
//! latency.record(12_500);
//!
//! let report = tel.report();
//! assert!(report.render().contains("stats_polls"));
//! assert_eq!(report.histograms[0].snapshot.count, 1);
//! assert!(serde_json::to_string(&report).unwrap().starts_with('{'));
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
pub mod metrics;
pub mod names;
pub mod report;

pub use metrics::{
    Counter, Gauge, HistTimer, Histogram, HistogramSnapshot, MetricKey, MetricsRegistry,
};
pub use report::{CounterEntry, GaugeEntry, HistogramEntry, TelemetryReport};

use std::sync::Arc;

/// One observability domain: a metrics registry, enabled or not.
///
/// Cloning is cheap and yields a handle to the *same* instruments — a
/// deployment creates one `Telemetry` and binds it into every subsystem
/// (`bind_telemetry` methods across the workspace).
#[derive(Clone)]
pub struct Telemetry {
    metrics: Arc<MetricsRegistry>,
}

impl Telemetry {
    /// Creates an **enabled** telemetry domain.
    pub fn new() -> Self {
        Telemetry {
            metrics: Arc::new(MetricsRegistry::new(true)),
        }
    }

    /// Creates a **disabled** telemetry domain (the default everywhere):
    /// histograms and gauges registered only here stay off, so a record
    /// is a single relaxed atomic load, with no wall-clock read.
    /// Counters still count.
    pub fn off() -> Self {
        Telemetry {
            metrics: Arc::new(MetricsRegistry::new(false)),
        }
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Whether the domain records.
    pub fn is_enabled(&self) -> bool {
        self.metrics.enabled
    }

    /// Snapshots every metric into a printable/exportable report.
    pub fn report(&self) -> TelemetryReport {
        self.metrics.report()
    }
}

impl Default for Telemetry {
    /// The default domain is **disabled** so instrumented subsystems pay
    /// only the atomic-load guard on their histograms and gauges unless a
    /// harness opts in.
    fn default() -> Self {
        Telemetry::off()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_state_across_clones() {
        let tel = Telemetry::new();
        let other = tel.clone();
        let hits = Counter::default();
        tel.metrics().register_counter("a", "hits", &hits);
        hits.add(3);
        assert_eq!(other.metrics().counter("a", "hits").get(), 3);
    }

    #[test]
    fn disabled_domain_counts_but_samples_nothing() {
        let tel = Telemetry::off();
        let (c, h, g) = (Counter::default(), Histogram::default(), Gauge::default());
        let m = tel.metrics();
        m.register_counter("a", "hits", &c);
        m.register_histogram("a", "lat_ns", "", &h);
        m.register_gauge("a", "depth", "", &g);
        c.inc();
        h.record(99);
        g.set(4);
        assert_eq!(c.get(), 1);
        assert_eq!(h.snapshot().count, 0);
        assert_eq!(g.get(), 0);
        // Its timer never reads the clock.
        let t = h.start_timer();
        t.observe(&h);
        assert_eq!(h.snapshot().count, 0);
        let report = tel.report();
        assert_eq!(report.histograms[0].snapshot.count, 0);
        assert_eq!(report.gauges[0].value, 0);
    }

    #[test]
    fn an_enabled_domain_records_what_follows_registration() {
        let tel = Telemetry::new();
        let (h, g) = (Histogram::default(), Gauge::default());
        // Detached: nothing lands.
        h.record(7);
        g.set(3);
        let m = tel.metrics();
        m.register_histogram("a", "lat_ns", "", &h);
        m.register_gauge("a", "depth", "", &g);
        h.record(40);
        let t = h.start_timer();
        t.observe(&h);
        g.set(5);
        let report = tel.report();
        assert_eq!(report.histograms[0].snapshot.count, 2);
        assert!(report.histograms[0].snapshot.max >= 40);
        assert_eq!(report.gauges[0].value, 5);
        assert_eq!(h.snapshot(), report.histograms[0].snapshot);
    }

    #[test]
    fn histograms_under_one_key_report_their_merged_samples() {
        let tel = Telemetry::new();
        let (a, b) = (Histogram::default(), Histogram::default());
        let m = tel.metrics();
        m.register_histogram("store", "insert_ns", "", &a);
        m.register_histogram("store", "insert_ns", "", &b);
        // Registering a handle again (a rebind) does not count it twice.
        m.register_histogram("store", "insert_ns", "", &a);
        for v in [10, 20, 30] {
            a.record(v);
        }
        for v in [1_000, 2_000] {
            b.record(v);
        }
        // The oracle: one histogram that saw every sample.
        let all = Histogram::default();
        m.register_histogram("oracle", "all", "", &all);
        for v in [10, 20, 30, 1_000, 2_000] {
            all.record(v);
        }
        let report = tel.report();
        let rows: Vec<_> = report
            .histograms
            .iter()
            .filter(|e| e.key.label() == "store/insert_ns")
            .collect();
        assert_eq!(rows.len(), 1);
        let merged = rows[0].snapshot;
        assert_eq!((merged.count, merged.sum, merged.max), (5, 3_060, 2_000));
        assert_eq!(merged, all.snapshot());
        // A lookup of the shared key reads the merged samples too.
        assert_eq!(m.histogram("store", "insert_ns").snapshot(), merged);
        assert_eq!((a.snapshot().count, b.snapshot().count), (3, 2));
    }

    #[test]
    fn a_gauge_key_reports_the_gauge_registered_last() {
        let tel = Telemetry::new();
        let (first, second) = (Gauge::default(), Gauge::default());
        let m = tel.metrics();
        m.register_gauge("store", "nodes_down", "", &first);
        first.set(2);
        m.register_gauge("store", "nodes_down", "", &second);
        second.set(1);
        first.set(3);
        let report = tel.report();
        assert_eq!(report.gauges.len(), 1);
        assert_eq!(report.gauges[0].value, 1);
        assert_eq!(m.gauge("store", "nodes_down").get(), 1);
        // Both handles record; only the last one reports.
        assert_eq!(first.get(), 3);
    }

    /// The value of the one counter row labeled `label`.
    fn row(tel: &Telemetry, label: &str) -> Option<u64> {
        let report = tel.report();
        let mut rows = report.counters.iter().filter(|e| e.key.label() == label);
        let value = rows.next().map(|e| e.value);
        assert!(rows.next().is_none(), "{label} reported twice");
        value
    }

    #[test]
    fn a_count_made_before_registration_shows_in_view_and_report() {
        let tel = Telemetry::new();
        let own = Counter::default();
        own.add(4);
        tel.metrics().register_counter("a", "hits", &own);
        own.inc();
        assert_eq!(own.get(), 5);
        assert_eq!(row(&tel, "a/hits"), Some(5));
    }

    #[test]
    fn a_count_made_under_an_off_domain_shows_in_view_and_report() {
        let tel = Telemetry::off();
        let own = Counter::default();
        tel.metrics().register_counter("a", "hits", &own);
        own.add(3);
        assert_eq!(own.get(), 3);
        assert_eq!(row(&tel, "a/hits"), Some(3));
    }

    #[test]
    fn handles_registered_under_one_key_report_their_sum() {
        let tel = Telemetry::new();
        let (a, b) = (Counter::default(), Counter::default());
        a.add(2);
        b.add(5);
        let m = tel.metrics();
        m.register_counter("retry", "timeouts", &a);
        m.register_counter("retry", "timeouts", &b);
        // Registering a handle again (a rebind) does not count it twice.
        m.register_counter("retry", "timeouts", &a);
        assert_eq!(row(&tel, "retry/timeouts"), Some(7));
        assert_eq!((a.get(), b.get()), (2, 5));
        // A lookup of the shared key reads the sum too.
        assert_eq!(m.counter("retry", "timeouts").get(), 7);
    }

    #[test]
    fn default_is_off() {
        assert!(!Telemetry::default().is_enabled());
        assert!(Telemetry::new().is_enabled());
    }
}
