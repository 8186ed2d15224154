//! Extension application: a port-scan detector.
//!
//! The paper's related work credits FRESCO-style libraries with
//! facilitating "attack detection (e.g., port scanning)"; this application
//! demonstrates that Athena's off-the-shelf strategies cover the same
//! ground with no new framework code: a scanner is a host whose flows fan
//! out across many destination ports with almost no return traffic —
//! directly visible in the stateful `HOST_*` and per-flow `PAIR_FLOW`
//! features. The port and probe-size thresholds are this module's
//! constants, and a flagged scanner is blocked.

use athena_core::nb::reaction_manager::Reaction;
use athena_core::{Athena, FeatureRecord, Query, QueryBuilder};
use athena_types::sentinel::TrackedMutex;
use athena_types::Ipv4Addr;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Distinct destination ports per (source, destination) pair at or above
/// which the source is a scanner.
const PORT_THRESHOLD: usize = 15;
/// Flows whose byte count stays at or below this look like probes.
const PROBE_MAX_BYTES: f64 = 5_000.0;

#[derive(Debug, Default)]
struct ScanState {
    // (scanner, target) -> probed ports
    probes: HashMap<(u32, u32), HashSet<u16>>,
}

/// The port-scan detection application.
#[derive(Debug)]
pub struct ScanDetector {
    state: Arc<TrackedMutex<ScanState>>,
    flagged: HashSet<Ipv4Addr>,
}

impl Default for ScanDetector {
    fn default() -> Self {
        Self::new()
    }
}

impl ScanDetector {
    /// Creates the detector.
    pub fn new() -> Self {
        ScanDetector {
            state: Arc::new(TrackedMutex::new("apps/state", ScanState::default())),
            flagged: HashSet::new(),
        }
    }

    /// Registers the event handler: unpaired, low-volume flows accumulate
    /// per-(source, target) port sets.
    pub fn deploy(&self, athena: &Athena) -> usize {
        let q: Query = QueryBuilder::new().eq("message_type", "FLOW_STATS").build();
        let state = Arc::clone(&self.state);
        athena.add_event_handler(
            &q,
            Box::new(move |record: &FeatureRecord| {
                let Some(ft) = record.index().five_tuple else {
                    return;
                };
                let paired = record.field("PAIR_FLOW").unwrap_or(1.0) >= 0.5;
                let bytes = record.field("FLOW_BYTE_COUNT").unwrap_or(f64::MAX);
                if paired || bytes > PROBE_MAX_BYTES {
                    return;
                }
                state
                    .lock()
                    .probes
                    .entry((ft.src.raw(), ft.dst.raw()))
                    .or_default()
                    .insert(ft.dst_port);
            }),
        )
    }

    /// The detection step: sources probing at least `PORT_THRESHOLD`
    /// distinct ports on one target are scanners; they are blocked.
    /// Returns newly flagged scanners.
    pub fn detect(&mut self, athena: &Athena) -> Vec<Ipv4Addr> {
        let state = self.state.lock();
        let mut newly = Vec::new();
        for ((src, _dst), ports) in &state.probes {
            if ports.len() >= PORT_THRESHOLD {
                let scanner = Ipv4Addr::from_raw(*src);
                if self.flagged.insert(scanner) {
                    newly.push(scanner);
                }
            }
        }
        drop(state);
        if !newly.is_empty() {
            athena.reactor(Reaction::Block {
                targets: newly.clone(),
            });
        }
        newly
    }

    /// `(tracked pairs, max ports probed by any pair)` — diagnostics.
    pub fn probe_stats(&self) -> (usize, usize) {
        let state = self.state.lock();
        (
            state.probes.len(),
            state.probes.values().map(HashSet::len).max().unwrap_or(0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use athena_core::{AthenaConfig, FeatureIndex, MessageType, MetaData};
    use athena_types::{Dpid, FiveTuple};

    fn flow_record(
        src: Ipv4Addr,
        dst: Ipv4Addr,
        port: u16,
        paired: bool,
        bytes: f64,
    ) -> FeatureRecord {
        let ft = FiveTuple::tcp(src, 40_000, dst, port);
        let mut r = FeatureRecord::new(FeatureIndex::flow(Dpid::new(1), ft)).with_meta(MetaData {
            message_type: MessageType::FLOW_STATS,
            ..MetaData::default()
        });
        r.push_field("PAIR_FLOW", f64::from(u8::from(paired)));
        r.push_field("FLOW_BYTE_COUNT", bytes);
        r
    }

    #[test]
    fn vertical_scan_is_detected_and_blocked() {
        let athena = Athena::new(AthenaConfig::default());
        let mut det = ScanDetector::new();
        det.deploy(&athena);
        let scanner = Ipv4Addr::new(10, 0, 0, 66);
        let target = Ipv4Addr::new(10, 0, 1, 1);
        {
            let mut fm = athena.runtime().feature_manager.lock();
            for port in 1..=20u16 {
                fm.ingest(flow_record(scanner, target, port, false, 120.0))
                    .unwrap();
            }
        }
        let newly = det.detect(&athena);
        assert_eq!(newly, vec![scanner]);
        assert_eq!(athena.mitigated_hosts(), vec![scanner]);
        // Idempotent: a second pass flags nothing new.
        assert!(det.detect(&athena).is_empty());
        assert_eq!(det.probe_stats().1, 20);
    }

    #[test]
    fn normal_clients_are_not_scanners() {
        let athena = Athena::new(AthenaConfig::default());
        let mut det = ScanDetector::new();
        det.deploy(&athena);
        let client = Ipv4Addr::new(10, 0, 0, 7);
        let server = Ipv4Addr::new(10, 0, 1, 1);
        {
            let mut fm = athena.runtime().feature_manager.lock();
            // Few ports, paired, real volume: a browser, not a scanner.
            for port in [80u16, 443, 8080] {
                fm.ingest(flow_record(client, server, port, true, 500_000.0))
                    .unwrap();
            }
            // Unpaired but heavy flows are also not probes.
            fm.ingest(flow_record(client, server, 21, false, 1e7))
                .unwrap();
        }
        assert!(det.detect(&athena).is_empty());
        assert!(athena.mitigated_hosts().is_empty());
    }
}
