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
//! A [`Telemetry`] handle is one registry with an on/off switch; cloning
//! yields another handle to the same instruments. Telemetry is **off by
//! default** ([`Telemetry::off`], also `Default`): a disabled instrument
//! costs one relaxed atomic load per record and never touches the wall
//! clock, so instrumented hot paths stay deterministic and essentially
//! free until a harness opts in with [`Telemetry::new`]. The
//! `e2e_overhead` gate and the `overhead` criterion bench in this crate
//! hold both ends of that contract.
//!
//! # Examples
//!
//! ```
//! use athena_telemetry::Telemetry;
//!
//! let tel = Telemetry::new();
//! let polls = tel.metrics().counter("controller", "stats_polls");
//! let latency = tel.metrics().histogram("store", "insert_ns");
//!
//! polls.inc();
//! latency.record(12_500);
//!
//! let report = tel.report();
//! assert!(report.render().contains("stats_polls"));
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

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

struct TelemetryInner {
    enabled: Arc<AtomicBool>,
    metrics: MetricsRegistry,
}

/// One observability domain: a metrics registry with an on/off switch.
///
/// Cloning is cheap and yields a handle to the *same* instruments — a
/// deployment creates one `Telemetry` and binds it into every subsystem
/// (`bind_telemetry` methods across the workspace).
#[derive(Clone)]
pub struct Telemetry {
    inner: Arc<TelemetryInner>,
}

impl Telemetry {
    /// Creates an **enabled** telemetry domain.
    pub fn new() -> Self {
        Self::with_enabled(true)
    }

    /// Creates a **disabled** telemetry domain (the default everywhere):
    /// every record is a single relaxed atomic load, no wall-clock reads.
    pub fn off() -> Self {
        Self::with_enabled(false)
    }

    fn with_enabled(enabled: bool) -> Self {
        let flag = Arc::new(AtomicBool::new(enabled));
        Telemetry {
            inner: Arc::new(TelemetryInner {
                metrics: MetricsRegistry::with_flag(Arc::clone(&flag)),
                enabled: flag,
            }),
        }
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// Whether recording is currently enabled.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Snapshots every metric into a printable/exportable report.
    pub fn report(&self) -> TelemetryReport {
        self.inner.metrics.report()
    }
}

impl Default for Telemetry {
    /// The default domain is **disabled** so instrumented subsystems pay
    /// only the atomic-load guard unless a harness opts in.
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
        tel.metrics().counter("a", "hits").add(3);
        assert_eq!(other.metrics().counter("a", "hits").get(), 3);
    }

    #[test]
    fn disabled_domain_records_nothing() {
        let tel = Telemetry::off();
        let c = tel.metrics().counter("a", "hits");
        let h = tel.metrics().histogram("a", "lat_ns");
        c.inc();
        h.record(99);
        assert_eq!(c.get(), 0);
        assert_eq!(h.snapshot().count, 0);
    }

    #[test]
    fn default_is_off() {
        assert!(!Telemetry::default().is_enabled());
        assert!(Telemetry::new().is_enabled());
    }
}
