//! Extension application: a port-scan detector.
//!
//! The paper's related work credits FRESCO-style libraries with
//! facilitating "attack detection (e.g., port scanning)"; this application
//! demonstrates that Athena's off-the-shelf strategies cover the same
//! ground with no new framework code: a scanner is a host whose flows fan
//! out across many destination ports with almost no return traffic —
//! directly visible in the stateful `HOST_*` and per-flow `PAIR_FLOW`
//! features.

use athena_core::nb::reaction_manager::Reaction;
use athena_core::{Athena, FeatureRecord, Query, QueryBuilder};
use athena_types::Ipv4Addr;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Configuration for the scan detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanDetectorConfig {
    /// Distinct destination ports per (source, destination) pair at or
    /// above which the source is a scanner.
    pub port_threshold: usize,
    /// Flows whose byte count stays below this look like probes.
    pub probe_max_bytes: f64,
    /// Quarantine destination; `None` blocks scanners outright.
    pub honeypot: Option<Ipv4Addr>,
}

impl Default for ScanDetectorConfig {
    fn default() -> Self {
        ScanDetectorConfig {
            port_threshold: 15,
            probe_max_bytes: 5_000.0,
            honeypot: None,
        }
    }
}

#[derive(Debug, Default)]
struct ScanState {
    // (scanner, target) -> probed ports
    probes: HashMap<(u32, u32), HashSet<u16>>,
}

/// The port-scan detection application.
#[derive(Debug)]
pub struct ScanDetector {
    /// The configuration.
    pub config: ScanDetectorConfig,
    state: Arc<Mutex<ScanState>>,
    flagged: HashSet<Ipv4Addr>,
}

impl ScanDetector {
    /// Creates the detector.
    pub fn new(config: ScanDetectorConfig) -> Self {
        ScanDetector {
            config,
            state: Arc::new(Mutex::new(ScanState::default())),
            flagged: HashSet::new(),
        }
    }

    /// Registers the event handler: unpaired, low-volume flows accumulate
    /// per-(source, target) port sets.
    pub fn deploy(&self, athena: &Athena) -> usize {
        let q: Query = QueryBuilder::new().eq("message_type", "FLOW_STATS").build();
        let state = Arc::clone(&self.state);
        let probe_max = self.config.probe_max_bytes;
        athena.add_event_handler(
            &q,
            Box::new(move |record: &FeatureRecord| {
                let Some(ft) = record.index.five_tuple else {
                    return;
                };
                let paired = record.field("PAIR_FLOW").unwrap_or(1.0) >= 0.5;
                let bytes = record.field("FLOW_BYTE_COUNT").unwrap_or(f64::MAX);
                if paired || bytes > probe_max {
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

    /// The detection step: sources probing at least `port_threshold`
    /// distinct ports on one target are scanners; they are blocked (or
    /// quarantined when a honeypot is configured). Returns newly flagged
    /// scanners.
    pub fn detect(&mut self, athena: &Athena) -> Vec<Ipv4Addr> {
        let state = self.state.lock();
        let mut newly = Vec::new();
        for ((src, _dst), ports) in &state.probes {
            if ports.len() >= self.config.port_threshold {
                let scanner = Ipv4Addr::from_raw(*src);
                if self.flagged.insert(scanner) {
                    newly.push(scanner);
                }
            }
        }
        drop(state);
        if !newly.is_empty() {
            let reaction = match self.config.honeypot {
                Some(destination) => Reaction::Quarantine {
                    targets: newly.clone(),
                    destination,
                },
                None => Reaction::Block {
                    targets: newly.clone(),
                },
            };
            athena.reactor(reaction);
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
    use athena_core::{AthenaConfig, FeatureIndex};
    use athena_types::{Dpid, FiveTuple};

    fn flow_record(
        src: Ipv4Addr,
        dst: Ipv4Addr,
        port: u16,
        paired: bool,
        bytes: f64,
    ) -> FeatureRecord {
        let ft = FiveTuple::tcp(src, 40_000, dst, port);
        let mut r = FeatureRecord::new(FeatureIndex::flow(Dpid::new(1), ft));
        r.meta.message_type = "FLOW_STATS".into();
        r.push_field("PAIR_FLOW", f64::from(u8::from(paired)));
        r.push_field("FLOW_BYTE_COUNT", bytes);
        r
    }

    #[test]
    fn vertical_scan_is_detected_and_blocked() {
        let athena = Athena::new(AthenaConfig::default());
        let mut det = ScanDetector::new(ScanDetectorConfig::default());
        det.deploy(&athena);
        let scanner = Ipv4Addr::new(10, 0, 0, 66);
        let target = Ipv4Addr::new(10, 0, 1, 1);
        {
            let mut fm = athena.runtime().feature_manager.lock();
            for port in 1..=20u16 {
                fm.ingest(&flow_record(scanner, target, port, false, 120.0))
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
        let mut det = ScanDetector::new(ScanDetectorConfig::default());
        det.deploy(&athena);
        let client = Ipv4Addr::new(10, 0, 0, 7);
        let server = Ipv4Addr::new(10, 0, 1, 1);
        {
            let mut fm = athena.runtime().feature_manager.lock();
            // Few ports, paired, real volume: a browser, not a scanner.
            for port in [80u16, 443, 8080] {
                fm.ingest(&flow_record(client, server, port, true, 500_000.0))
                    .unwrap();
            }
            // Unpaired but heavy flows are also not probes.
            fm.ingest(&flow_record(client, server, 21, false, 1e7))
                .unwrap();
        }
        assert!(det.detect(&athena).is_empty());
        assert!(athena.mitigated_hosts().is_empty());
    }

    #[test]
    fn honeypot_configuration_quarantines() {
        let honeypot = Ipv4Addr::new(10, 0, 9, 9);
        let athena = Athena::new(AthenaConfig::default());
        let mut det = ScanDetector::new(ScanDetectorConfig {
            honeypot: Some(honeypot),
            port_threshold: 5,
            ..ScanDetectorConfig::default()
        });
        det.deploy(&athena);
        let scanner = Ipv4Addr::new(10, 0, 0, 66);
        {
            let mut fm = athena.runtime().feature_manager.lock();
            for port in 1..=6u16 {
                fm.ingest(&flow_record(
                    scanner,
                    Ipv4Addr::new(10, 0, 1, 1),
                    port,
                    false,
                    64.0,
                ))
                .unwrap();
            }
        }
        assert_eq!(det.detect(&athena), vec![scanner]);
        // The reactor received a quarantine (visible via counters after a
        // drain; here just check the scanner was mitigated at all).
        assert_eq!(athena.mitigated_hosts(), vec![scanner]);
    }
}
