//! The `TelemetryReport`: a point-in-time snapshot of every registered
//! metric, printable as a grouped text table; it derives `Serialize`, and
//! `athena-observe`'s report carries it into the one JSON artifact.
//!
//! Bench binaries and the e2e harness print one of these at exit in
//! place of ad-hoc timing printouts. Metric names ending in `_ns` hold
//! nanosecond samples by convention and are humanized in the text
//! rendering (`12.5µs` instead of `12500`).

use crate::metrics::{HistogramSnapshot, MetricKey};
use serde::Serialize;
use std::fmt::Write as _;

/// One counter in a report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct CounterEntry {
    /// Full metric key.
    pub key: MetricKey,
    /// Current count.
    pub value: u64,
}

/// One gauge in a report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct GaugeEntry {
    /// Full metric key.
    pub key: MetricKey,
    /// Current level.
    pub value: i64,
}

/// One histogram in a report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct HistogramEntry {
    /// Full metric key.
    pub key: MetricKey,
    /// Count/sum/max and interpolated percentiles at snapshot time.
    pub snapshot: HistogramSnapshot,
}

/// A snapshot of every metric in a [`MetricsRegistry`](crate::MetricsRegistry),
/// sorted by key (subsystem, then name, then instance).
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct TelemetryReport {
    /// All counters.
    pub counters: Vec<CounterEntry>,
    /// All gauges.
    pub gauges: Vec<GaugeEntry>,
    /// All histograms.
    pub histograms: Vec<HistogramEntry>,
}

impl TelemetryReport {
    /// Whether the report carries no metrics at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Renders the report as a text table grouped by subsystem.
    ///
    /// Histogram metrics whose name ends in `_ns` are printed with
    /// humanized durations; everything else prints raw numbers.
    pub fn render(&self) -> String {
        let mut out = String::from("== telemetry report ==\n");
        if self.is_empty() {
            out.push_str("(no metrics recorded)\n");
            return out;
        }
        let mut subsystems: Vec<&str> = self
            .counters
            .iter()
            .map(|e| e.key.subsystem.as_str())
            .chain(self.gauges.iter().map(|e| e.key.subsystem.as_str()))
            .chain(self.histograms.iter().map(|e| e.key.subsystem.as_str()))
            .collect();
        subsystems.sort_unstable();
        subsystems.dedup();
        for subsystem in subsystems {
            let _ = writeln!(out, "[{subsystem}]");
            for e in self
                .counters
                .iter()
                .filter(|e| e.key.subsystem == subsystem)
            {
                let _ = writeln!(out, "  {:<42} {}", display_name(&e.key), e.value);
            }
            for e in self.gauges.iter().filter(|e| e.key.subsystem == subsystem) {
                let _ = writeln!(out, "  {:<42} {}", display_name(&e.key), e.value);
            }
            for e in self
                .histograms
                .iter()
                .filter(|e| e.key.subsystem == subsystem)
            {
                let s = &e.snapshot;
                let in_ns = e.key.name.ends_with("_ns");
                let fmt = |v: u64| {
                    if in_ns {
                        humanize_ns(v)
                    } else {
                        v.to_string()
                    }
                };
                let _ = writeln!(
                    out,
                    "  {:<42} n={} p50={} p90={} p99={} max={} mean={}",
                    display_name(&e.key),
                    s.count,
                    fmt(s.p50),
                    fmt(s.p90),
                    fmt(s.p99),
                    fmt(s.max),
                    fmt(s.mean()),
                );
            }
        }
        out
    }
}

/// The part of the key shown inside a subsystem group: `name` or
/// `name[instance]`.
fn display_name(key: &MetricKey) -> String {
    if key.instance.is_empty() {
        key.name.clone()
    } else {
        format!("{}[{}]", key.name, key.instance)
    }
}

/// Formats a nanosecond quantity at a readable scale.
fn humanize_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}\u{b5}s", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Counter, Gauge, Histogram, Telemetry};

    fn sample_report() -> TelemetryReport {
        let tel = Telemetry::new();
        let m = tel.metrics();
        let polls = Counter::default();
        m.register_counter("controller", "stats_polls", &polls);
        polls.add(7);
        let (lookups, docs, h) = (Gauge::default(), Gauge::default(), Histogram::default());
        m.register_gauge("dataplane", "lookups", "s1", &lookups);
        m.register_gauge("store", "docs", "", &docs);
        m.register_histogram("store", "find_ns", "", &h);
        lookups.set(3);
        docs.set(42);
        h.record(1_500);
        h.record(2_500_000);
        tel.report()
    }

    #[test]
    fn render_groups_by_subsystem_and_humanizes_ns() {
        let text = sample_report().render();
        assert!(text.contains("[controller]"));
        assert!(text.contains("stats_polls"));
        assert!(text.contains("lookups[s1]"));
        assert!(text.contains("[store]"));
        // max of find_ns is 2.5 ms; the _ns suffix triggers humanizing.
        assert!(text.contains("max=2.50ms"), "got:\n{text}");
    }

    #[test]
    fn json_round_trips_the_shape() {
        use serde_json::{json, Value};
        let json = serde_json::to_string(&sample_report()).unwrap();
        let v: Value = serde_json::from_str(&json).unwrap();
        let list = |k| v.get(k).and_then(Value::as_array).unwrap();
        assert!(list("counters").contains(&json!({
            "key": {"subsystem": "controller", "name": "stats_polls", "instance": ""},
            "value": 7
        })));
        let find_ns = list("histograms")[0].get("snapshot").unwrap();
        assert_eq!(find_ns.get("count"), Some(&json!(2)));
    }

    #[test]
    fn empty_report_renders_placeholder() {
        let report = TelemetryReport::default();
        assert!(report.is_empty());
        assert!(report.render().contains("no metrics recorded"));
        assert_eq!(
            serde_json::to_string(&report).unwrap(),
            "{\"counters\":[],\"gauges\":[],\"histograms\":[]}"
        );
    }

    #[test]
    fn humanize_scales() {
        assert_eq!(humanize_ns(999), "999ns");
        assert_eq!(humanize_ns(1_500), "1.50\u{b5}s");
        assert_eq!(humanize_ns(2_500_000), "2.50ms");
        assert_eq!(humanize_ns(3_000_000_000), "3.00s");
    }
}
