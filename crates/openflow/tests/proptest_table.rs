//! Differential test: the indexed [`FlowTable`] against the algorithm it
//! replaced — a priority-sorted `Vec` scanned front to back — over
//! arbitrary operation sequences. Values come from a deliberately small
//! universe so that matches, priorities and buckets collide.

use athena_openflow::{
    Action, AggregateStats, FlowEntry, FlowMod, FlowModCommand, FlowRemoved, FlowRemovedReason,
    FlowStatsEntry, FlowTable, MatchFields, PacketHeader,
};
use athena_types::{EtherType, FiveTuple, IpProto, Ipv4Addr, PortNo, SimDuration, SimTime};
use proptest::prelude::*;
use std::cmp::Reverse;

/// The reference table: entries kept sorted by (priority ↓, specificity
/// ↓, install sequence ↓), every question answered by a scan.
#[derive(Default)]
struct Reference {
    entries: Vec<(u64, FlowEntry)>,
    next_seq: u64,
    lookups: u64,
    matched: u64,
}

impl Reference {
    fn apply(&mut self, fm: &FlowMod, now: SimTime) -> Result<Vec<FlowRemoved>, ()> {
        let strict = |e: &FlowEntry| e.priority == fm.priority && e.match_fields == fm.match_fields;
        let loose = |e: &FlowEntry| e.match_fields.is_subset_of(&fm.match_fields);
        match fm.command {
            FlowModCommand::Add => {
                self.entries.retain(|(_, e)| !strict(e));
                let key = |(seq, e): &(u64, FlowEntry)| {
                    let specificity = e.match_fields.specificity();
                    (Reverse(e.priority), Reverse(specificity), Reverse(*seq))
                };
                let new = (
                    self.next_seq,
                    FlowEntry {
                        match_fields: fm.match_fields,
                        priority: fm.priority,
                        actions: fm.actions.clone(),
                        cookie: fm.cookie,
                        idle_timeout: fm.idle_timeout,
                        hard_timeout: fm.hard_timeout,
                        installed_at: now,
                        last_matched_at: now,
                        packet_count: 0,
                        byte_count: 0,
                        send_flow_removed: fm.send_flow_removed,
                    },
                );
                self.next_seq += 1;
                let pos = self
                    .entries
                    .binary_search_by_key(&key(&new), key)
                    .unwrap_or_else(|p| p);
                self.entries.insert(pos, new);
                Ok(Vec::new())
            }
            FlowModCommand::Modify => {
                let mut touched = 0;
                for (_, e) in self.entries.iter_mut().filter(|(_, e)| loose(e)) {
                    e.actions = fm.actions.clone();
                    e.cookie = fm.cookie;
                    touched += 1;
                }
                if touched == 0 {
                    Err(())
                } else {
                    Ok(Vec::new())
                }
            }
            FlowModCommand::Delete => {
                Ok(self.remove(now, |e| loose(e).then_some(FlowRemovedReason::Delete)))
            }
            FlowModCommand::DeleteStrict => {
                let before = self.entries.len();
                let removed = self.remove(now, |e| strict(e).then_some(FlowRemovedReason::Delete));
                if self.entries.len() == before {
                    Err(())
                } else {
                    Ok(removed)
                }
            }
        }
    }

    fn remove(
        &mut self,
        now: SimTime,
        doomed: impl Fn(&FlowEntry) -> Option<FlowRemovedReason>,
    ) -> Vec<FlowRemoved> {
        let mut removed = Vec::new();
        self.entries.retain(|(_, e)| {
            let Some(reason) = doomed(e) else {
                return true;
            };
            if e.send_flow_removed {
                removed.push(FlowRemoved {
                    match_fields: e.match_fields,
                    cookie: e.cookie,
                    priority: e.priority,
                    reason,
                    duration: now.saturating_since(e.installed_at),
                    packet_count: e.packet_count,
                    byte_count: e.byte_count,
                });
            }
            false
        });
        removed
    }

    fn peek(&self, pkt: &PacketHeader, now: SimTime) -> Option<usize> {
        self.entries
            .iter()
            .position(|(_, e)| e.expiry_reason(now).is_none() && e.match_fields.matches(pkt))
    }

    fn lookup(
        &mut self,
        pkt: &PacketHeader,
        now: SimTime,
        n: u64,
        bytes: u64,
    ) -> Option<FlowEntry> {
        self.lookups += 1;
        let at = self.peek(pkt, now)?;
        let e = &mut self.entries[at].1;
        self.matched += 1;
        e.packet_count += n;
        e.byte_count += bytes;
        e.last_matched_at = now;
        Some(e.clone())
    }

    fn next_expiry(&self) -> Option<SimTime> {
        self.entries
            .iter()
            .map(|(_, e)| e.expires_at())
            .filter(|t| *t != SimTime::MAX)
            .min()
    }

    fn flow_stats(&self, now: SimTime) -> Vec<FlowStatsEntry> {
        self.entries
            .iter()
            .map(|(_, e)| FlowStatsEntry {
                table_id: 7,
                match_fields: e.match_fields,
                priority: e.priority,
                duration: now.saturating_since(e.installed_at),
                idle_timeout: e.idle_timeout,
                hard_timeout: e.hard_timeout,
                cookie: e.cookie,
                packet_count: e.packet_count,
                byte_count: e.byte_count,
                actions: e.actions.clone(),
            })
            .collect()
    }
}

const IPS: [Ipv4Addr; 6] = [
    Ipv4Addr::new(10, 0, 0, 1),
    Ipv4Addr::new(10, 0, 0, 5),
    Ipv4Addr::new(10, 0, 1, 5),
    Ipv4Addr::new(10, 9, 0, 1),
    Ipv4Addr::new(192, 168, 0, 1),
    Ipv4Addr::new(192, 168, 0, 5),
];
const TP_PORTS: [u16; 3] = [80, 443, 1000];
const PREFIX_LENS: [u8; 5] = [0, 8, 24, 31, 32];

fn pick<T: Copy + std::fmt::Debug, const N: usize>(from: [T; N]) -> impl Strategy<Value = T> {
    (0..N).prop_map(move |i| from[i])
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Tcp,
    Udp,
    Arp,
    Lldp,
}

/// TCP/UDP five-tuples, optionally VLAN-tagged, plus ARP (no `ip_dst`,
/// no transport ports) and LLDP (no IP at all).
fn arb_header() -> impl Strategy<Value = PacketHeader> {
    (
        pick([Kind::Tcp, Kind::Tcp, Kind::Udp, Kind::Arp, Kind::Lldp]),
        1u32..3,
        (pick(IPS), pick(TP_PORTS), pick(IPS), pick(TP_PORTS)),
        pick([None, None, Some(10u16), Some(11)]),
    )
        .prop_map(|(kind, port, (src, sp, dst, dp), vlan)| {
            let port = PortNo::new(port);
            let mut h = match kind {
                Kind::Tcp => {
                    PacketHeader::from_five_tuple(port, FiveTuple::tcp(src, sp, dst, dp), 64)
                }
                Kind::Udp => {
                    PacketHeader::from_five_tuple(port, FiveTuple::udp(src, sp, dst, dp), 64)
                }
                Kind::Arp => PacketHeader::arp_request(port, src),
                Kind::Lldp => PacketHeader::lldp(port),
            };
            h.vlan_id = vlan;
            h
        })
}

/// Matches of a dozen shapes: the all-wildcard, the forwarding apps'
/// 5-tuple, the reactor's `ip_src/32`, the ledger's `exact_from_packet`,
/// single-field matches, and prefixes of every length in [`PREFIX_LENS`]
/// whose networks are *not* masked (so `10.0.0.5/24` and `10.0.0.1/24`
/// are distinct entries of one bucket).
fn arb_match() -> impl Strategy<Value = MatchFields> {
    (
        0usize..12,
        arb_header(),
        pick(IPS),
        pick(PREFIX_LENS),
        pick(PREFIX_LENS),
        pick(TP_PORTS),
    )
        .prop_map(|(shape, h, ip, len, len2, tp)| {
            let m = MatchFields::new();
            match shape {
                0 => m,
                1 => h.five_tuple().map_or(m, MatchFields::exact_five_tuple),
                2 => m.with_ip_src(ip, 32),
                3 => MatchFields::exact_from_packet(&h),
                4 => m.with_ip_src(ip, len),
                5 => m.with_ip_dst(ip, len),
                6 => m
                    .with_ip_src(ip, len)
                    .with_ip_dst(h.ip_dst.unwrap_or(ip), len2),
                7 => m.with_vlan(10),
                8 => m.with_tp_dst(tp),
                9 => m.with_eth_type(EtherType::Ipv4).with_ip_proto(IpProto::Tcp),
                10 => m.with_in_port(h.in_port).with_ip_dst(ip, len),
                _ => m.with_eth_type(h.eth_type),
            }
        })
}

#[derive(Debug, Clone)]
enum Op {
    Mod(FlowMod),
    Lookup(PacketHeader, u64, u64),
    Peek(PacketHeader),
    Expire,
}

fn arb_flow_mod() -> impl Strategy<Value = FlowMod> {
    (
        pick([
            FlowModCommand::Add,
            FlowModCommand::Add,
            FlowModCommand::Add,
            FlowModCommand::Add,
            FlowModCommand::Modify,
            FlowModCommand::Delete,
            FlowModCommand::DeleteStrict,
            FlowModCommand::DeleteStrict,
        ]),
        arb_match(),
        pick([1u16, 5, 10]),
        (pick([0u64, 0, 2, 5]), pick([0u64, 0, 3, 8])),
        any::<bool>(),
        (any::<u64>(), 1u32..5),
    )
        .prop_map(
            |(command, m, priority, (idle, hard), notify, (cookie, out))| {
                let mut fm = FlowMod::add(m, priority, vec![Action::Output(PortNo::new(out))])
                    .with_idle_timeout(SimDuration::from_secs(idle))
                    .with_hard_timeout(SimDuration::from_secs(hard));
                fm.command = command;
                fm.cookie = cookie;
                fm.send_flow_removed = notify;
                fm
            },
        )
}

/// One operation and the virtual seconds that pass before it.
fn arb_step() -> impl Strategy<Value = (u64, Op)> {
    let op = prop_oneof![
        arb_flow_mod().prop_map(Op::Mod),
        arb_flow_mod().prop_map(Op::Mod),
        (arb_header(), 1u64..4, 64u64..1500).prop_map(|(h, n, b)| Op::Lookup(h, n, b)),
        (arb_header(), 1u64..4, 64u64..1500).prop_map(|(h, n, b)| Op::Lookup(h, n, b)),
        arb_header().prop_map(Op::Peek),
        Just(Op::Expire),
    ];
    (pick([0u64, 0, 0, 1, 2]), op)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn indexed_table_agrees_with_the_sorted_scan(
        steps in proptest::collection::vec(arb_step(), 1..80),
    ) {
        let mut table = FlowTable::new(7);
        let mut reference = Reference::default();
        let mut now = SimTime::ZERO;
        for (wait, op) in &steps {
            now += SimDuration::from_secs(*wait);
            match op {
                Op::Mod(fm) => {
                    // Results agree, FLOW_REMOVED lists (order included) and
                    // the miss error alike.
                    prop_assert_eq!(table.apply(fm, now).map_err(|_| ()), reference.apply(fm, now));
                }
                Op::Lookup(h, n, bytes) => {
                    let got = table.lookup(h, now, *n, *bytes).cloned();
                    prop_assert_eq!(got, reference.lookup(h, now, *n, *bytes));
                }
                Op::Peek(h) => {
                    let want = reference.peek(h, now).map(|i| &reference.entries[i].1);
                    prop_assert_eq!(table.peek(h, now), want);
                }
                Op::Expire => {
                    let want = reference.remove(now, |e| e.expiry_reason(now));
                    prop_assert_eq!(table.expire(now), want);
                }
            }
            prop_assert_eq!(table.len(), reference.entries.len());
            prop_assert_eq!(table.is_empty(), reference.entries.is_empty());
            prop_assert_eq!(table.next_expiry(), reference.next_expiry());
            prop_assert_eq!(table.lookup_count(), reference.lookups);
            prop_assert_eq!(table.matched_count(), reference.matched);
            // Every entry, every field, in match order.
            let entries: Vec<&FlowEntry> = reference.entries.iter().map(|(_, e)| e).collect();
            prop_assert_eq!(table.iter().collect::<Vec<_>>(), entries);
            let stats = reference.flow_stats(now);
            prop_assert_eq!(
                table.aggregate_stats(&MatchFields::new()),
                AggregateStats {
                    packet_count: stats.iter().map(|s| s.packet_count).sum(),
                    byte_count: stats.iter().map(|s| s.byte_count).sum(),
                    flow_count: stats.len() as u32,
                }
            );
            prop_assert_eq!(table.flow_stats(&MatchFields::new(), now), stats);
        }
    }
}
