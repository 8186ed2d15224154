//! The simulated OpenFlow switch.

use athena_openflow::stats::PortStatsEntry;
use athena_openflow::{
    Action, FlowMod, FlowRemoved, FlowTable, MatchFields, PacketHeader, StatsReply, StatsRequest,
};
use athena_types::{Dpid, PortNo, SimTime};

/// A simulated OpenFlow switch: one flow table plus per-port counters.
///
/// # Examples
///
/// ```
/// use athena_dataplane::SimSwitch;
/// use athena_openflow::{Action, FlowMod, MatchFields, PacketHeader};
/// use athena_types::{Dpid, Ipv4Addr, PortNo, SimTime};
///
/// let mut sw = SimSwitch::new(Dpid::new(1), 4);
/// sw.apply_flow_mod(
///     &FlowMod::add(MatchFields::new(), 1, vec![Action::Output(PortNo::new(2))]),
///     SimTime::ZERO,
/// );
/// let pkt = PacketHeader::tcp_syn(PortNo::new(1), Ipv4Addr::new(1,1,1,1), 1, Ipv4Addr::new(2,2,2,2), 2);
/// let out = sw.process(&pkt, SimTime::ZERO, 1, 64);
/// assert_eq!(out, Some(&[Action::Output(PortNo::new(2))][..]));
/// ```
#[derive(Debug, Clone)]
pub struct SimSwitch {
    dpid: Dpid,
    table: FlowTable,
    /// Port `p`'s counters at index `p - 1`.
    ports: Vec<PortStatsEntry>,
}

/// Port `p`'s index in the dense counter table.
fn index(port: PortNo) -> Option<usize> {
    (port.raw() as usize).checked_sub(1)
}

fn port_mut(ports: &mut [PortStatsEntry], port: PortNo) -> Option<&mut PortStatsEntry> {
    ports.get_mut(index(port)?)
}

impl SimSwitch {
    /// Creates a switch with ports `1..=n_ports`.
    pub fn new(dpid: Dpid, n_ports: u32) -> Self {
        let fresh = |p| PortStatsEntry {
            port_no: PortNo::new(p),
            ..PortStatsEntry::default()
        };
        SimSwitch {
            dpid,
            table: FlowTable::new(0),
            ports: (1..=n_ports).map(fresh).collect(),
        }
    }

    /// The switch's datapath id.
    pub fn dpid(&self) -> Dpid {
        self.dpid
    }

    /// The switch's port numbers.
    pub fn port_numbers(&self) -> Vec<PortNo> {
        self.ports.iter().map(|p| p.port_no).collect()
    }

    /// Immutable access to the flow table.
    pub fn table(&self) -> &FlowTable {
        &self.table
    }

    /// The earliest deadline at which any entry can expire, or `None`
    /// when every entry is permanent (used to arm expiry wake-ups on
    /// the dataplane's timing wheel instead of scanning every tick).
    pub fn next_expiry(&self) -> Option<SimTime> {
        self.table.next_expiry()
    }

    /// Applies a flow-mod, returning any flow-removed notifications (from
    /// delete commands).
    pub fn apply_flow_mod(&mut self, fm: &FlowMod, now: SimTime) -> Vec<FlowRemoved> {
        // OpenFlow switches silently ignore modify/delete misses.
        self.table.apply(fm, now).unwrap_or_default()
    }

    /// Performs a table lookup for a packet, crediting `packets`/`bytes`
    /// to the matched entry and to the rx side of the ingress port.
    ///
    /// Returns the matched entry's actions, or `None` on a table miss (the
    /// caller punts to the controller).
    pub fn process(
        &mut self,
        pkt: &PacketHeader,
        now: SimTime,
        packets: u64,
        bytes: u64,
    ) -> Option<&[Action]> {
        if let Some(port) = port_mut(&mut self.ports, pkt.in_port) {
            port.rx_packets += packets;
            port.rx_bytes += bytes;
        }
        // A miss is not counted as a drop: the engine punts it.
        let entry = self.table.lookup(pkt, now, packets, bytes)?;
        for out in entry.actions.iter().filter_map(|a| a.output_port()) {
            if let Some(port) = port_mut(&mut self.ports, out) {
                port.tx_packets += packets;
                port.tx_bytes += bytes;
            }
        }
        Some(entry.actions.as_slice())
    }

    /// Table lookup without crediting any counters (the routing phase).
    pub fn peek(&self, pkt: &PacketHeader, now: SimTime) -> Option<&[Action]> {
        self.table.peek(pkt, now).map(|e| e.actions.as_slice())
    }

    /// Records dropped traffic on a port's tx side (capacity contention).
    pub fn count_tx_drop(&mut self, port: PortNo, packets: u64) {
        if let Some(p) = port_mut(&mut self.ports, port) {
            p.tx_dropped += packets;
        }
    }

    /// Expires timed-out flow entries.
    pub fn expire(&mut self, now: SimTime) -> Vec<FlowRemoved> {
        self.table.expire(now)
    }

    /// Serves a statistics request.
    pub fn stats(&self, req: &StatsRequest, now: SimTime) -> StatsReply {
        match req {
            StatsRequest::Flow { filter } => StatsReply::Flow({
                let mut entries = self.table.flow_stats(filter, now);
                for e in &mut entries {
                    e.table_id = 0;
                }
                entries
            }),
            StatsRequest::Aggregate { filter } => {
                StatsReply::Aggregate(self.table.aggregate_stats(filter))
            }
            StatsRequest::Port { port_no } => StatsReply::Port(if *port_no == PortNo::ANY {
                self.ports.clone()
            } else {
                let one = index(*port_no).and_then(|i| self.ports.get(i));
                one.copied().into_iter().collect()
            }),
            StatsRequest::Table => StatsReply::Table(vec![self.table.table_stats()]),
        }
    }

    /// Installed flow-entry count.
    pub fn flow_count(&self) -> usize {
        self.table.len()
    }

    /// Removes every flow entry (used by Cbench-style benchmarks between
    /// rounds).
    pub fn clear_flows(&mut self, now: SimTime) -> Vec<FlowRemoved> {
        self.apply_flow_mod(&FlowMod::delete(MatchFields::new()), now)
    }

    /// Simulates a full reboot: all flow state and all port counters are
    /// lost, exactly as on a real power-cycled switch. No `FLOW_REMOVED`
    /// notifications are generated — the state is simply gone. Returns
    /// the number of flow entries that were lost.
    pub fn reboot(&mut self, now: SimTime) -> usize {
        let lost = self.table.len();
        let _ = self.clear_flows(now);
        for p in &mut self.ports {
            *p = PortStatsEntry {
                port_no: p.port_no,
                ..PortStatsEntry::default()
            };
        }
        lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use athena_types::Ipv4Addr;

    fn pkt(port: u32) -> PacketHeader {
        PacketHeader::tcp_syn(
            PortNo::new(port),
            Ipv4Addr::new(10, 0, 0, 1),
            1000,
            Ipv4Addr::new(10, 0, 0, 2),
            80,
        )
    }

    #[test]
    fn miss_then_install_then_hit() {
        let mut sw = SimSwitch::new(Dpid::new(1), 4);
        assert_eq!(sw.process(&pkt(1), SimTime::ZERO, 1, 64), None);
        sw.apply_flow_mod(
            &FlowMod::add(
                MatchFields::exact_from_packet(&pkt(1)),
                10,
                vec![Action::Output(PortNo::new(2))],
            ),
            SimTime::ZERO,
        );
        let out = sw.process(&pkt(1), SimTime::ZERO, 1, 64).unwrap();
        assert_eq!(Action::first_output(out), Some(PortNo::new(2)));
        assert_eq!(sw.flow_count(), 1);
    }

    #[test]
    fn port_counters_track_rx_and_tx() {
        let mut sw = SimSwitch::new(Dpid::new(1), 4);
        sw.apply_flow_mod(
            &FlowMod::add(MatchFields::new(), 1, vec![Action::Output(PortNo::new(3))]),
            SimTime::ZERO,
        );
        sw.process(&pkt(1), SimTime::ZERO, 5, 500);
        let StatsReply::Port(ports) = sw.stats(
            &StatsRequest::Port {
                port_no: PortNo::ANY,
            },
            SimTime::ZERO,
        ) else {
            panic!("expected port stats");
        };
        let p1 = ports.iter().find(|p| p.port_no == PortNo::new(1)).unwrap();
        let p3 = ports.iter().find(|p| p.port_no == PortNo::new(3)).unwrap();
        assert_eq!(p1.rx_packets, 5);
        assert_eq!(p1.rx_bytes, 500);
        assert_eq!(p3.tx_packets, 5);
        assert_eq!(p3.tx_bytes, 500);
    }

    #[test]
    fn stats_requests_cover_all_kinds() {
        let mut sw = SimSwitch::new(Dpid::new(1), 2);
        sw.apply_flow_mod(
            &FlowMod::add(MatchFields::new().with_tp_dst(80), 1, vec![]),
            SimTime::ZERO,
        );
        let flow = sw.stats(
            &StatsRequest::Flow {
                filter: MatchFields::new(),
            },
            SimTime::from_secs(1),
        );
        assert_eq!(flow.len(), 1);
        let agg = sw.stats(
            &StatsRequest::Aggregate {
                filter: MatchFields::new(),
            },
            SimTime::from_secs(1),
        );
        assert!(matches!(agg, StatsReply::Aggregate(a) if a.flow_count == 1));
        let table = sw.stats(&StatsRequest::Table, SimTime::from_secs(1));
        assert!(matches!(table, StatsReply::Table(ref t) if t[0].active_count == 1));
        let one_port = sw.stats(
            &StatsRequest::Port {
                port_no: PortNo::new(1),
            },
            SimTime::from_secs(1),
        );
        assert_eq!(one_port.len(), 1);
    }

    #[test]
    fn clear_flows_empties_table_and_reports() {
        let mut sw = SimSwitch::new(Dpid::new(1), 2);
        for p in [80u16, 443] {
            sw.apply_flow_mod(
                &FlowMod::add(MatchFields::new().with_tp_dst(p), 1, vec![]),
                SimTime::ZERO,
            );
        }
        let removed = sw.clear_flows(SimTime::from_secs(1));
        assert_eq!(removed.len(), 2);
        assert_eq!(sw.flow_count(), 0);
    }

    #[test]
    fn repeat_lookups_move_each_counter_exactly_once() {
        let mut sw = SimSwitch::new(Dpid::new(1), 4);
        sw.apply_flow_mod(
            &FlowMod::add(
                MatchFields::exact_from_packet(&pkt(1)),
                10,
                vec![Action::Output(PortNo::new(2))],
            ),
            SimTime::ZERO,
        );
        for i in 0..5 {
            let out = sw.process(&pkt(1), SimTime::from_secs(i), 2, 100).unwrap();
            assert_eq!(Action::first_output(out), Some(PortNo::new(2)));
        }
        assert_eq!(sw.table().lookup_count(), 5);
        assert_eq!(sw.table().matched_count(), 5);
        let entry = sw.table().iter().next().unwrap();
        assert_eq!(entry.packet_count, 10);
        assert_eq!(entry.byte_count, 500);
        assert_eq!(entry.last_matched_at, SimTime::from_secs(4));
    }

    #[test]
    fn higher_priority_rule_installed_after_traffic_wins_the_next_packet() {
        let mut sw = SimSwitch::new(Dpid::new(1), 4);
        sw.apply_flow_mod(
            &FlowMod::add(MatchFields::new(), 1, vec![Action::Output(PortNo::new(2))]),
            SimTime::ZERO,
        );
        let out = sw.process(&pkt(1), SimTime::ZERO, 1, 64).unwrap();
        assert_eq!(Action::first_output(out), Some(PortNo::new(2)));
        sw.apply_flow_mod(
            &FlowMod::add(
                MatchFields::exact_from_packet(&pkt(1)),
                50,
                vec![Action::Output(PortNo::new(3))],
            ),
            SimTime::ZERO,
        );
        let out = sw.process(&pkt(1), SimTime::ZERO, 1, 64).unwrap();
        assert_eq!(Action::first_output(out), Some(PortNo::new(3)));
    }

    #[test]
    fn entry_expired_without_notification_does_not_match_afterwards() {
        let mut sw = SimSwitch::new(Dpid::new(1), 4);
        // No FLOW_REMOVED requested: `expire` returns nothing.
        let mut fm = FlowMod::add(
            MatchFields::exact_from_packet(&pkt(1)),
            10,
            vec![Action::Output(PortNo::new(2))],
        )
        .with_idle_timeout(athena_types::SimDuration::from_secs(2));
        fm.send_flow_removed = false;
        sw.apply_flow_mod(&fm, SimTime::ZERO);
        assert!(sw.process(&pkt(1), SimTime::from_secs(1), 1, 64).is_some());
        let removed = sw.expire(SimTime::from_secs(10));
        assert!(removed.is_empty());
        assert_eq!(sw.flow_count(), 0);
        assert_eq!(sw.process(&pkt(1), SimTime::from_secs(10), 1, 64), None);
    }

    #[test]
    fn many_distinct_keys_under_one_wildcard_rule_all_hit_it() {
        let mut sw = SimSwitch::new(Dpid::new(1), 4);
        sw.apply_flow_mod(
            &FlowMod::add(MatchFields::new(), 1, vec![Action::Output(PortNo::new(2))]),
            SimTime::ZERO,
        );
        for i in 0..1524u16 {
            let p = PacketHeader::tcp_syn(
                PortNo::new(1),
                Ipv4Addr::new(10, 0, (i >> 8) as u8, i as u8),
                1000 + i,
                Ipv4Addr::new(10, 0, 0, 2),
                80,
            );
            let out = sw.process(&p, SimTime::ZERO, 1, 64).unwrap();
            assert_eq!(Action::first_output(out), Some(PortNo::new(2)));
        }
        assert_eq!(sw.table().matched_count(), 1524);
        assert_eq!(sw.table().iter().next().unwrap().packet_count, 1524);
    }

    #[test]
    fn drop_counters() {
        let mut sw = SimSwitch::new(Dpid::new(1), 2);
        sw.count_tx_drop(PortNo::new(1), 3);
        let StatsReply::Port(ports) = sw.stats(
            &StatsRequest::Port {
                port_no: PortNo::ANY,
            },
            SimTime::ZERO,
        ) else {
            panic!("expected port stats");
        };
        assert_eq!(ports[0].tx_dropped, 3);
        assert_eq!(ports[1].rx_dropped, 0);
    }
}
