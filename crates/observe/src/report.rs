//! The `ObserveReport`: a point-in-time summary of the causal trace,
//! sampled series, and alert state, printable as a health table (the
//! `athena-top` view) or exportable as JSON.

use crate::alerts::AlertEvent;
use athena_telemetry::json;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// One sampled series' summary row.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesRow {
    /// Metric key (`subsystem/name[instance]`, `#p99`/`#count` for
    /// histogram-derived series).
    pub key: String,
    /// Retained points.
    pub points: usize,
    /// Latest sampled value.
    pub latest: f64,
    /// Rate per second over the engine's trailing window.
    pub rate_per_sec: f64,
}

/// A snapshot of everything the observe layer knows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObserveReport {
    /// Seed the trace-id stream derives from.
    pub seed: u64,
    /// Virtual time of the snapshot, in microseconds.
    pub now_us: u64,
    /// Sample ticks taken.
    pub samples: u64,
    /// Distinct traces started.
    pub traces: u64,
    /// Completed causal spans retained.
    pub spans: u64,
    /// Spans dropped to the capacity bound.
    pub spans_dropped: u64,
    /// Causal events retained.
    pub events: u64,
    /// Events dropped to the capacity bound.
    pub events_dropped: u64,
    /// Trace ids started but not retained in the id stream.
    pub trace_ids_dropped: u64,
    /// Every alert transition so far, in occurrence order.
    pub alerts: Vec<AlertEvent>,
    /// Rules currently firing.
    pub firing: Vec<&'static str>,
    /// Per-series summaries, in key order.
    pub series: Vec<SeriesRow>,
}

impl ObserveReport {
    /// Renders the report as the `athena-top` health table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== observe @ {:.1}s · {} samples · {} traces · {} spans · {} events \
             (dropped: {} spans, {} events, {} trace ids) ==",
            self.now_us as f64 / 1_000_000.0,
            self.samples,
            self.traces,
            self.spans,
            self.events,
            self.spans_dropped,
            self.events_dropped,
            self.trace_ids_dropped,
        );
        if self.firing.is_empty() {
            out.push_str("alerts: all clear\n");
        } else {
            let _ = writeln!(out, "alerts FIRING: {}", self.firing.join(", "));
        }
        let _ = writeln!(out, "{:<44} {:>12} {:>12}", "series", "latest", "rate/s");
        for row in &self.series {
            let _ = writeln!(
                out,
                "{:<44} {:>12.1} {:>12.2}",
                row.key, row.latest, row.rate_per_sec
            );
        }
        if !self.alerts.is_empty() {
            out.push_str("-- alert transitions --\n");
            for a in &self.alerts {
                let _ = writeln!(out, "{}", a.render());
            }
        }
        out
    }

    /// Serializes the report as JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"seed\":{},\"now_us\":{},\"samples\":{},\"traces\":{},\
             \"spans\":{},\"spans_dropped\":{},\"events\":{},\"events_dropped\":{},\
             \"trace_ids_dropped\":{},",
            self.seed,
            self.now_us,
            self.samples,
            self.traces,
            self.spans,
            self.spans_dropped,
            self.events,
            self.events_dropped,
            self.trace_ids_dropped,
        );
        out.push_str("\"firing\":[");
        for (i, f) in self.firing.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::string_into(&mut out, f);
        }
        out.push_str("],\"alerts\":[");
        for (i, a) in self.alerts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"rule\":");
            json::string_into(&mut out, a.rule);
            let _ = write!(
                out,
                ",\"fired\":{},\"at_us\":{},\"value\":{:.3},\"deterministic\":{}}}",
                a.fired,
                a.at.as_micros(),
                a.value,
                a.deterministic,
            );
        }
        out.push_str("],\"series\":[");
        for (i, s) in self.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"key\":");
            json::string_into(&mut out, &s.key);
            let _ = write!(
                out,
                ",\"points\":{},\"latest\":{:.3},\"rate_per_sec\":{:.3}}}",
                s.points, s.latest, s.rate_per_sec,
            );
        }
        out.push_str("]}");
        out
    }

    /// Writes [`ObserveReport::to_json`] to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn save_json(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use athena_types::SimTime;

    #[test]
    fn render_and_json_carry_alerts() {
        let report = ObserveReport {
            seed: 7,
            now_us: 35_000_000,
            samples: 35,
            traces: 4,
            spans: 12,
            spans_dropped: 0,
            events: 3,
            events_dropped: 0,
            trace_ids_dropped: 0,
            alerts: vec![AlertEvent {
                rule: "links-degraded",
                fired: true,
                at: SimTime::from_secs(11),
                value: 2.0,
                deterministic: true,
            }],
            firing: vec!["links-degraded"],
            series: vec![SeriesRow {
                key: "dataplane/links_degraded".into(),
                points: 35,
                latest: 2.0,
                rate_per_sec: 0.0,
            }],
        };
        let text = report.render();
        assert!(text.contains("alerts FIRING: links-degraded"));
        assert!(text.contains("dataplane/links_degraded"));
        let json = report.to_json();
        assert!(json.contains("\"rule\":\"links-degraded\""));
        assert!(json.contains("\"at_us\":11000000"));
    }
}
