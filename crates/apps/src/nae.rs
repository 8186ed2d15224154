//! Scenario 3: the Network Application Effectiveness (NAE) monitor
//! (paper §V-C).
//!
//! A load balancer and a higher-priority security app compete over FTP
//! forwarding; once the security app activates, it takes over the flows
//! and the network "suffers unexpected saturation in some links and low
//! volume in others" even though the LB app is still running. The NAE
//! monitor registers an event handler on per-switch features
//! (`Match DPID==(6 or 3)`), checks a user-defined SLA ("traffic should
//! be distributed evenly per each switch"), and reports violations with
//! the Figure 9 time series. The monitored switch pair, the imbalance
//! threshold and the start-up packet floor are this module's constants.

use athena_core::{Athena, QueryBuilder};
use athena_types::sentinel::TrackedMutex;
use athena_types::{Dpid, SimTime};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The switches whose balance the SLA covers (the paper queries
/// `DPID==(6 or 3)`).
const SWITCHES: (Dpid, Dpid) = (Dpid::new(3), Dpid::new(6));
/// Maximum allowed imbalance `|a-b| / max(a,b)` per sample window.
const IMBALANCE_THRESHOLD: f64 = 0.6;
/// Samples where both switches carry fewer packets than this are ignored
/// (start-up noise is not an SLA violation).
const MIN_PACKETS: f64 = 100.0;

/// A detected SLA violation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlaViolation {
    /// When the violating sample was observed.
    pub at: SimTime,
    /// Packet count on the first monitored switch.
    pub first: f64,
    /// Packet count on the second monitored switch.
    pub second: f64,
    /// The imbalance ratio that tripped the SLA.
    pub imbalance: f64,
}

#[derive(Debug, Default)]
struct SeriesState {
    // time(us) -> (per-switch packet totals)
    samples: BTreeMap<u64, BTreeMap<u64, f64>>,
}

/// The NAE monitoring application.
#[derive(Debug)]
pub struct NaeMonitor {
    state: Arc<TrackedMutex<SeriesState>>,
}

impl Default for NaeMonitor {
    fn default() -> Self {
        Self::new()
    }
}

impl NaeMonitor {
    /// Creates the monitor.
    pub fn new() -> Self {
        NaeMonitor {
            state: Arc::new(TrackedMutex::new("apps/state", SeriesState::default())),
        }
    }

    /// Registers the event handler (`AddEventHandler` with
    /// `Match DPID==(6 or 3)` in the paper; we capture the per-switch
    /// aggregate features of both monitored switches).
    pub fn deploy(&self, athena: &Athena) -> usize {
        let (a, b) = SWITCHES;
        let q = QueryBuilder::new()
            .eq("message_type", "SWITCH_STATE")
            .is_in(
                "switch",
                vec![
                    serde_json::Value::from(a.raw()),
                    serde_json::Value::from(b.raw()),
                ],
            )
            .build();
        let state = Arc::clone(&self.state);
        athena.add_event_handler(
            &q,
            Box::new(move |record| {
                let Some(total) = record.field("SWITCH_PACKET_COUNT_TOTAL") else {
                    return;
                };
                state
                    .lock()
                    .samples
                    .entry(record.meta().timestamp.as_micros())
                    .or_default()
                    .insert(record.index().switch.raw(), total);
            }),
        )
    }

    /// The paper's `Check_SLA()`: detects asymmetric traffic patterns.
    /// Returns every violating sample in time order.
    pub fn check_sla(&self) -> Vec<SlaViolation> {
        let (a, b) = SWITCHES;
        let state = self.state.lock();
        let mut violations = Vec::new();
        for (t, per_switch) in &state.samples {
            let first = per_switch.get(&a.raw()).copied().unwrap_or(0.0);
            let second = per_switch.get(&b.raw()).copied().unwrap_or(0.0);
            let max = first.max(second);
            if max < MIN_PACKETS {
                continue;
            }
            let imbalance = (first - second).abs() / max;
            if imbalance > IMBALANCE_THRESHOLD {
                violations.push(SlaViolation {
                    at: SimTime::from_micros(*t),
                    first,
                    second,
                    imbalance,
                });
            }
        }
        violations
    }

    /// The Figure 9 series: per-switch packet counts over time, ready for
    /// `ShowResults`.
    pub fn series(&self) -> Vec<(String, Vec<(f64, f64)>)> {
        let (a, b) = SWITCHES;
        let state = self.state.lock();
        let mut sa = Vec::new();
        let mut sb = Vec::new();
        for (t, per_switch) in &state.samples {
            let time = *t as f64 / 1e6;
            if let Some(v) = per_switch.get(&a.raw()) {
                sa.push((time, *v));
            }
            if let Some(v) = per_switch.get(&b.raw()) {
                sb.push((time, *v));
            }
        }
        vec![(format!("{a}"), sa), (format!("{b}"), sb)]
    }

    /// Number of samples captured.
    pub fn sample_count(&self) -> usize {
        self.state.lock().samples.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use athena_core::{AthenaConfig, FeatureIndex, FeatureRecord, MessageType, MetaData};

    fn switch_record(switch: u64, t: u64, packets: f64) -> FeatureRecord {
        let mut r =
            FeatureRecord::new(FeatureIndex::switch(Dpid::new(switch))).with_meta(MetaData {
                timestamp: SimTime::from_secs(t),
                message_type: MessageType::SWITCH_STATE,
                ..MetaData::default()
            });
        r.push_field("SWITCH_PACKET_COUNT_TOTAL", packets);
        r
    }

    fn deployed() -> (Athena, NaeMonitor) {
        let athena = Athena::new(AthenaConfig::default());
        let monitor = NaeMonitor::new();
        monitor.deploy(&athena);
        (athena, monitor)
    }

    #[test]
    fn balanced_traffic_satisfies_the_sla() {
        let (athena, monitor) = deployed();
        let mut fm = athena.runtime().feature_manager.lock();
        for t in 0..10 {
            fm.ingest(switch_record(3, t, 1000.0)).unwrap();
            fm.ingest(switch_record(6, t, 1100.0)).unwrap();
        }
        drop(fm);
        assert_eq!(monitor.sample_count(), 10);
        assert!(monitor.check_sla().is_empty());
    }

    #[test]
    fn takeover_trips_the_sla() {
        let (athena, monitor) = deployed();
        let mut fm = athena.runtime().feature_manager.lock();
        // Balanced until t=5, then the security app drains switch 3.
        for t in 0..5 {
            fm.ingest(switch_record(3, t, 1000.0)).unwrap();
            fm.ingest(switch_record(6, t, 900.0)).unwrap();
        }
        for t in 5..10 {
            fm.ingest(switch_record(3, t, 50.0)).unwrap();
            fm.ingest(switch_record(6, t, 2000.0)).unwrap();
        }
        drop(fm);
        let violations = monitor.check_sla();
        assert_eq!(violations.len(), 5);
        assert!(violations[0].at >= SimTime::from_secs(5));
        assert!(violations.iter().all(|v| v.imbalance > 0.9));
    }

    #[test]
    fn other_switches_are_ignored() {
        let (athena, monitor) = deployed();
        let mut fm = athena.runtime().feature_manager.lock();
        fm.ingest(switch_record(1, 0, 5000.0)).unwrap();
        fm.ingest(switch_record(9, 0, 1.0)).unwrap();
        drop(fm);
        assert_eq!(monitor.sample_count(), 0);
        assert!(monitor.check_sla().is_empty());
    }

    #[test]
    fn series_exposes_both_switches() {
        let (athena, monitor) = deployed();
        {
            let mut fm = athena.runtime().feature_manager.lock();
            for t in 0..3 {
                fm.ingest(switch_record(3, t, f64::from(t as u32))).unwrap();
                fm.ingest(switch_record(6, t, 10.0)).unwrap();
            }
        }
        let series = monitor.series();
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].1.len(), 3);
        assert_eq!(series[1].1.len(), 3);
        // Renders without panicking.
        let text = athena.show_series("NAE packet counts", &series);
        assert!(text.contains("NAE packet counts"));
    }
}
