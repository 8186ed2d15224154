//! Scenario 2: link-flooding-attack (LFA) mitigation (paper §V-B).
//!
//! The paper implements Spiffy's LFA mitigation as an Athena application:
//! volume-based features (`PORT_RX_BYTES_VAR`-style) detect congested
//! links through a registered event handler, per-flow/per-host change
//! tracking identifies the contributing bots, and the mitigation logic
//! blocks them through the Reactor — all without the SNMP measurement or
//! OpenSketch switches Spiffy requires (Table VII).
//!
//! Like the paper's applications (which run as separate processes talking
//! to Athena over IPC), the handler only records observations; the
//! application's [`LfaMitigator::mitigate`] step queries features and
//! issues reactions outside the delivery path.
//!
//! Its thresholds (utilization, drop variation, fan-out, blocks per step)
//! are this module's constants.

use athena_core::nb::reaction_manager::Reaction;
use athena_core::{Athena, Query, QueryBuilder};
use athena_types::sentinel::TrackedMutex;
use athena_types::{Dpid, Ipv4Addr, PortNo};
use std::collections::HashSet;
use std::sync::Arc;

/// Egress-port utilization at or above which a link is congested
/// (offered/capacity over the poll window).
const UTILIZATION_THRESHOLD: f64 = 0.9;
/// Any per-window drop variation above this also signals congestion.
const DROP_VAR_THRESHOLD: f64 = 0.0;
/// Hosts sending to at least this many distinct destinations through the
/// congested switch are bot candidates.
const FANOUT_THRESHOLD: f64 = 3.0;
/// At most this many hosts are blocked per mitigation step.
const MAX_BLOCKS_PER_STEP: usize = 16;

/// A congestion observation recorded by the event handler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CongestionAlert {
    /// The switch whose egress port congested.
    pub switch: Dpid,
    /// The congested port.
    pub port: PortNo,
    /// The observed utilization.
    pub utilization: f64,
}

/// The LFA detection-and-mitigation application.
#[derive(Debug)]
pub struct LfaMitigator {
    alerts: Arc<TrackedMutex<Vec<CongestionAlert>>>,
    blocked: HashSet<Ipv4Addr>,
}

impl Default for LfaMitigator {
    fn default() -> Self {
        Self::new()
    }
}

impl LfaMitigator {
    /// Creates the mitigator.
    pub fn new() -> Self {
        LfaMitigator {
            alerts: Arc::new(TrackedMutex::new("apps/alerts", Vec::new())),
            blocked: HashSet::new(),
        }
    }

    /// The event-handler registration (the paper's
    /// `AddEventHandler` with volume-based candidate features): port
    /// features whose utilization or drop variation exceed the
    /// thresholds.
    pub fn deploy(&self, athena: &Athena) -> usize {
        let q: Query = QueryBuilder::new().eq("message_type", "PORT_STATS").build();
        let alerts = Arc::clone(&self.alerts);
        athena.add_event_handler(
            &q,
            Box::new(move |record| {
                let util = record.field("PORT_TX_UTILIZATION").unwrap_or(0.0);
                let drops = record.field("PORT_TX_DROPPED_VAR").unwrap_or(0.0);
                if util >= UTILIZATION_THRESHOLD || drops > DROP_VAR_THRESHOLD {
                    if let Some(port) = record.index().port {
                        alerts.lock().push(CongestionAlert {
                            switch: record.index().switch,
                            port,
                            utilization: util,
                        });
                    }
                }
            }),
        )
    }

    /// Congestion alerts observed so far (drained by `mitigate`).
    pub fn pending_alerts(&self) -> usize {
        self.alerts.lock().len()
    }

    /// Hosts blocked so far.
    pub fn blocked_hosts(&self) -> Vec<Ipv4Addr> {
        let mut v: Vec<Ipv4Addr> = self.blocked.iter().copied().collect();
        v.sort();
        v
    }

    /// The mitigation step (the custom detection logic of the paper's
    /// `Event_Handler`): for each congested switch, query the per-host
    /// features, pick high-fanout heavy senders, and block them.
    ///
    /// Returns the hosts newly blocked in this step.
    pub fn mitigate(&mut self, athena: &Athena) -> Vec<Ipv4Addr> {
        let alerts: Vec<CongestionAlert> = self.alerts.lock().drain(..).collect();
        if alerts.is_empty() {
            return Vec::new();
        }
        let switches: HashSet<Dpid> = alerts.iter().map(|a| a.switch).collect();
        let mut newly_blocked = Vec::new();
        for switch in switches {
            // Per-host aggregates at the congested switch, heaviest first.
            let q = QueryBuilder::new()
                .eq("message_type", "HOST_STATE")
                .eq("switch", switch.raw())
                .sort_desc("HOST_TX_BYTES")
                .limit(64)
                .build();
            for record in athena.request_features(&q) {
                if newly_blocked.len() >= MAX_BLOCKS_PER_STEP {
                    break;
                }
                let fanout = record.field("HOST_FANOUT").unwrap_or(0.0);
                let tx = record.field("HOST_TX_BYTES").unwrap_or(0.0);
                let rx = record.field("HOST_RX_BYTES").unwrap_or(0.0);
                // Bot profile: wide fan-out, send-heavy.
                if fanout >= FANOUT_THRESHOLD && tx > rx * 2.0 {
                    if let Some(host) = record.index().host {
                        if self.blocked.insert(host) {
                            newly_blocked.push(host);
                        }
                    }
                }
            }
        }
        if !newly_blocked.is_empty() {
            athena.reactor(Reaction::Block {
                targets: newly_blocked.clone(),
            });
        }
        newly_blocked
    }

    /// The Table VII capability comparison (Spiffy vs. Athena).
    pub fn capability_comparison() -> Vec<[&'static str; 3]> {
        vec![
            ["Category", "Spiffy", "Athena"],
            ["Link congestion", "SNMP", "Built-in"],
            ["Rate change", "OpenSketch", "OF switch"],
            ["Traffic engineering", "Edge router", "All switches"],
            ["Insider threat", "Out of scope", "Covered"],
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use athena_core::{AthenaConfig, FeatureIndex, FeatureRecord, MessageType, MetaData};

    fn kind(message_type: MessageType) -> MetaData {
        MetaData {
            message_type,
            ..MetaData::default()
        }
    }

    fn port_record(switch: u64, port: u32, util: f64, drops: f64) -> FeatureRecord {
        let index = FeatureIndex::port(Dpid::new(switch), PortNo::new(port));
        let mut r = FeatureRecord::new(index).with_meta(kind(MessageType::PORT_STATS));
        r.push_field("PORT_TX_UTILIZATION", util);
        r.push_field("PORT_TX_DROPPED_VAR", drops);
        r
    }

    fn host_record(switch: u64, host: Ipv4Addr, tx: f64, rx: f64, fanout: f64) -> FeatureRecord {
        let index = FeatureIndex {
            host: Some(host),
            ..FeatureIndex::switch(Dpid::new(switch))
        };
        let mut r = FeatureRecord::new(index).with_meta(kind(MessageType::HOST_STATE));
        r.push_field("HOST_TX_BYTES", tx);
        r.push_field("HOST_RX_BYTES", rx);
        r.push_field("HOST_FANOUT", fanout);
        r
    }

    #[test]
    fn congestion_alerts_are_recorded_by_the_handler() {
        let athena = Athena::new(AthenaConfig::default());
        let lfa = LfaMitigator::new();
        lfa.deploy(&athena);
        let mut fm = athena.runtime().feature_manager.lock();
        fm.ingest(port_record(2, 1, 0.95, 0.0)).unwrap(); // congested
        fm.ingest(port_record(2, 2, 0.10, 0.0)).unwrap(); // fine
        fm.ingest(port_record(3, 1, 0.10, 50.0)).unwrap(); // drops
        drop(fm);
        assert_eq!(lfa.pending_alerts(), 2);
    }

    #[test]
    fn mitigation_blocks_high_fanout_heavy_senders() {
        let athena = Athena::new(AthenaConfig::default());
        let mut lfa = LfaMitigator::new();
        lfa.deploy(&athena);
        let bot = Ipv4Addr::new(10, 0, 0, 66);
        let benign = Ipv4Addr::new(10, 0, 0, 7);
        {
            let mut fm = athena.runtime().feature_manager.lock();
            // Host profiles at switch 2.
            fm.ingest(host_record(2, bot, 1e9, 1e6, 12.0)).unwrap();
            fm.ingest(host_record(2, benign, 1e8, 9e7, 1.0)).unwrap();
            // Congestion at switch 2.
            fm.ingest(port_record(2, 1, 0.99, 100.0)).unwrap();
        }
        let blocked = lfa.mitigate(&athena);
        assert_eq!(blocked, vec![bot]);
        assert_eq!(lfa.blocked_hosts(), vec![bot]);
        assert_eq!(athena.mitigated_hosts(), vec![bot]);
        // Second step with no new alerts does nothing.
        assert!(lfa.mitigate(&athena).is_empty());
    }

    #[test]
    fn no_congestion_means_no_blocks() {
        let athena = Athena::new(AthenaConfig::default());
        let mut lfa = LfaMitigator::new();
        lfa.deploy(&athena);
        {
            let mut fm = athena.runtime().feature_manager.lock();
            fm.ingest(host_record(2, Ipv4Addr::new(10, 0, 0, 66), 1e9, 0.0, 12.0))
                .unwrap();
            fm.ingest(port_record(2, 1, 0.2, 0.0)).unwrap();
        }
        assert!(lfa.mitigate(&athena).is_empty());
    }

    #[test]
    fn capability_table_matches_table_vii() {
        let rows = LfaMitigator::capability_comparison();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[1], ["Link congestion", "SNMP", "Built-in"]);
        assert_eq!(rows[4], ["Insider threat", "Out of scope", "Covered"]);
    }
}
