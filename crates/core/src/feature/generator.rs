//! The Feature Generator (paper §III-A 1B).
//!
//! Examines incoming control messages to derive Athena features, keeping
//! hash tables of previous samples (for `_VAR` variation features) and
//! network state (pair-flow tracking), with a garbage collector that
//! periodically removes outdated entries.

use crate::feature::catalog::{self, MessageType};
use crate::feature::format::{CatalogValues, FeatureIndex, FeatureRecord, MetaData, NameLists};
use crate::feature::window::Windowing;
use athena_controller::apps::app_ids;
use athena_openflow::stats::PortStatsEntry;
use athena_openflow::{FlowStatsEntry, MatchFields, OfMessage, StatsReply};
use athena_types::{AppId, ControllerId, Dpid, FiveTuple, Ipv4Addr, PortNo, SimDuration, SimTime};
use std::collections::{HashMap, HashSet};

/// Nominal link capacity used for utilization features (bits/second).
const NOMINAL_CAPACITY_BPS: f64 = 1_000_000_000.0;

#[derive(Debug, Clone, Copy, PartialEq)]
struct PrevFlowSample {
    packet_count: u64,
    byte_count: u64,
    duration_sec: u64,
    last_seen: SimTime,
}

#[derive(Debug, Clone, Copy)]
struct PrevPortSample {
    stats: PortStatsEntry,
    last_seen: SimTime,
}

#[derive(Debug, Clone, Copy, Default)]
struct MsgWindow {
    packet_in: u64,
    packet_out: u64,
    flow_mod: u64,
    flow_removed: u64,
    port_status: u64,
    stats_request: u64,
    stats_reply: u64,
    echo: u64,
    barrier: u64,
}

impl MsgWindow {
    fn total(&self) -> u64 {
        self.packet_in
            + self.packet_out
            + self.flow_mod
            + self.flow_removed
            + self.port_status
            + self.stats_request
            + self.stats_reply
            + self.echo
            + self.barrier
    }
}

/// Generates Athena features from the southbound message stream.
///
/// # Examples
///
/// ```
/// use athena_core::FeatureGenerator;
/// use athena_types::{ControllerId, SimTime};
///
/// let mut g = FeatureGenerator::new(ControllerId::new(0));
/// assert_eq!(g.records_generated(), 0);
/// assert!(g.flush_window(SimTime::from_secs(1)).is_empty());
/// ```
#[derive(Debug)]
pub struct FeatureGenerator {
    controller: ControllerId,
    /// Entries unseen for this long are garbage-collected.
    pub ttl: SimDuration,
    /// The message-counter window length.
    pub window: SimDuration,
    prev_flow: HashMap<(Dpid, MatchFields), PrevFlowSample>,
    prev_port: HashMap<(Dpid, PortNo), PrevPortSample>,
    prev_table: HashMap<Dpid, (u32, u64)>,
    msg_counts: HashMap<Dpid, MsgWindow>,
    prev_msg_counts: HashMap<Dpid, MsgWindow>,
    records_generated: u64,
    /// The name list of each record shape met so far.
    name_lists: NameLists,
}

impl FeatureGenerator {
    /// Creates a generator for one controller instance's SB element.
    pub fn new(controller: ControllerId) -> Self {
        FeatureGenerator {
            controller,
            ttl: SimDuration::from_secs(120),
            window: SimDuration::from_secs(5),
            prev_flow: HashMap::new(),
            prev_port: HashMap::new(),
            prev_table: HashMap::new(),
            msg_counts: HashMap::new(),
            prev_msg_counts: HashMap::new(),
            records_generated: 0,
            name_lists: NameLists::default(),
        }
    }

    /// Total records generated so far.
    pub fn records_generated(&self) -> u64 {
        self.records_generated
    }

    /// Number of tracked previous-sample entries (the GC's subject).
    fn tracked_entries(&self) -> usize {
        self.prev_flow.len() + self.prev_port.len()
    }

    /// Consumes one southbound message, producing feature records.
    ///
    /// `app_of` resolves a flow cookie to the installing application (the
    /// controller's FlowRule subsystem).
    pub fn ingest(
        &mut self,
        from: Dpid,
        msg: &OfMessage,
        now: SimTime,
        app_of: &dyn Fn(u64) -> AppId,
    ) -> Vec<FeatureRecord> {
        self.count_message(from, msg);
        let out = match msg {
            OfMessage::StatsReply { xid, body } => {
                let polled = xid.is_athena_marked();
                match body {
                    StatsReply::Flow(entries) => {
                        self.flow_stats_features(from, entries, now, polled, app_of)
                    }
                    StatsReply::Port(entries) => {
                        self.port_stats_features(from, entries, now, polled)
                    }
                    StatsReply::Table(entries) => {
                        let mut records = Vec::new();
                        for e in entries {
                            let (prev_active, prev_lookup) = self
                                .prev_table
                                .insert(from, (e.active_count, e.lookup_count))
                                .unwrap_or((e.active_count, e.lookup_count));
                            let mut v = CatalogValues::new();
                            v.set(catalog::TABLE_ACTIVE_COUNT, f64::from(e.active_count));
                            v.set(catalog::TABLE_LOOKUP_COUNT, e.lookup_count as f64);
                            v.set(catalog::TABLE_MATCHED_COUNT, e.matched_count as f64);
                            v.set(catalog::TABLE_MISS_RATIO, e.miss_ratio());
                            v.set(
                                catalog::TABLE_ACTIVE_COUNT_VAR,
                                f64::from(e.active_count) - f64::from(prev_active),
                            );
                            v.set(
                                catalog::TABLE_LOOKUP_COUNT_VAR,
                                e.lookup_count as f64 - prev_lookup as f64,
                            );
                            let meta = self.meta(now, MessageType::TABLE_STATS, polled);
                            records.push(FeatureRecord::from_catalog(
                                &mut self.name_lists,
                                &FeatureIndex::switch(from),
                                &meta,
                                &v,
                            ));
                        }
                        records
                    }
                    StatsReply::Aggregate(_) => Vec::new(),
                }
            }
            OfMessage::FlowRemoved { body, .. } => {
                let mut index = FeatureIndex::switch(from);
                index.five_tuple = body.match_fields.five_tuple();
                index.app = Some(app_of(body.cookie));
                let mut v = CatalogValues::new();
                v.set(catalog::REMOVED_PACKET_COUNT, body.packet_count as f64);
                v.set(catalog::REMOVED_BYTE_COUNT, body.byte_count as f64);
                v.set(catalog::REMOVED_DURATION_SEC, body.duration.as_secs_f64());
                use athena_openflow::FlowRemovedReason as R;
                v.set(
                    catalog::REMOVED_REASON_IDLE,
                    f64::from(u8::from(body.reason == R::IdleTimeout)),
                );
                v.set(
                    catalog::REMOVED_REASON_HARD,
                    f64::from(u8::from(body.reason == R::HardTimeout)),
                );
                v.set(
                    catalog::REMOVED_REASON_DELETE,
                    f64::from(u8::from(body.reason == R::Delete)),
                );
                v.set(
                    catalog::REMOVED_BYTE_PER_PACKET,
                    safe_div(body.byte_count as f64, body.packet_count as f64),
                );
                // The flow is gone: stop tracking its previous sample.
                self.prev_flow.remove(&(from, body.match_fields));
                let meta = self.meta(now, MessageType::FLOW_REMOVED, false);
                vec![FeatureRecord::from_catalog(
                    &mut self.name_lists,
                    &index,
                    &meta,
                    &v,
                )]
            }
            OfMessage::PacketIn { body, .. } => {
                // Per-event protocol-centric features: every punted packet
                // yields a record (this per-message path is what makes
                // Athena's Cbench overhead visible, per Table IX).
                let mut index = FeatureIndex::switch(from);
                index.five_tuple = body.header.five_tuple();
                index.port = Some(body.header.in_port);
                let mut v = CatalogValues::new();
                v.set(catalog::PACKET_IN_BYTE_LEN, f64::from(body.header.byte_len));
                v.set(
                    catalog::PACKET_IN_PORT,
                    f64::from(body.header.in_port.raw()),
                );
                v.set(
                    catalog::PACKET_IN_BUFFERED,
                    f64::from(u8::from(body.buffer_id.is_some())),
                );
                let meta = self.meta(now, MessageType::PACKET_IN, false);
                vec![FeatureRecord::from_catalog(
                    &mut self.name_lists,
                    &index,
                    &meta,
                    &v,
                )]
            }
            _ => Vec::new(),
        };
        self.records_generated += out.len() as u64;
        out
    }

    /// The generator's windowing definition — the single source of
    /// truth for window width and rate math, also
    /// consumed by the streaming pipeline (`crates/stream`) so the two
    /// paths can never disagree on window arithmetic.
    pub fn windowing(&self) -> Windowing {
        Windowing::new(self.window)
    }

    /// Flushes the per-switch message-counter window if due, emitting
    /// `MSG_*` records.
    pub fn flush_window(&mut self, now: SimTime) -> Vec<FeatureRecord> {
        let windowing = self.windowing();
        let mut out = Vec::new();
        // Sorted so identically-seeded runs emit (and store) the window
        // records in the same order — crash-recovery diffs rely on it.
        let mut switches: Vec<Dpid> = self.msg_counts.keys().copied().collect();
        switches.sort();
        for dpid in switches {
            let counts = self.msg_counts.remove(&dpid).unwrap_or_default();
            let prev = self
                .prev_msg_counts
                .insert(dpid, counts)
                .unwrap_or_default();
            let mut v = CatalogValues::new();
            v.set(catalog::MSG_PACKET_IN_COUNT, counts.packet_in as f64);
            v.set(catalog::MSG_PACKET_OUT_COUNT, counts.packet_out as f64);
            v.set(catalog::MSG_FLOW_MOD_COUNT, counts.flow_mod as f64);
            v.set(catalog::MSG_FLOW_REMOVED_COUNT, counts.flow_removed as f64);
            v.set(catalog::MSG_PORT_STATUS_COUNT, counts.port_status as f64);
            v.set(
                catalog::MSG_STATS_REQUEST_COUNT,
                counts.stats_request as f64,
            );
            v.set(catalog::MSG_STATS_REPLY_COUNT, counts.stats_reply as f64);
            v.set(catalog::MSG_ECHO_COUNT, counts.echo as f64);
            v.set(catalog::MSG_BARRIER_COUNT, counts.barrier as f64);
            v.set(
                catalog::MSG_PACKET_IN_RATE,
                windowing.rate(counts.packet_in),
            );
            v.set(catalog::MSG_FLOW_MOD_RATE, windowing.rate(counts.flow_mod));
            v.set(
                catalog::MSG_FLOW_REMOVED_RATE,
                windowing.rate(counts.flow_removed),
            );
            v.set(
                catalog::MSG_PACKET_IN_COUNT_VAR,
                counts.packet_in as f64 - prev.packet_in as f64,
            );
            v.set(
                catalog::MSG_FLOW_MOD_COUNT_VAR,
                counts.flow_mod as f64 - prev.flow_mod as f64,
            );
            v.set(
                catalog::MSG_PACKET_OUT_COUNT_VAR,
                counts.packet_out as f64 - prev.packet_out as f64,
            );
            v.set(catalog::MSG_TOTAL_COUNT, counts.total() as f64);
            self.records_generated += 1;
            let meta = self.meta(now, MessageType::MSG_WINDOW, false);
            out.push(FeatureRecord::from_catalog(
                &mut self.name_lists,
                &FeatureIndex::switch(dpid),
                &meta,
                &v,
            ));
        }
        out
    }

    /// Removes previous-sample entries unseen for longer than the TTL.
    /// Returns how many entries were collected.
    pub fn gc(&mut self, now: SimTime) -> usize {
        let ttl = self.ttl;
        let before = self.tracked_entries();
        self.prev_flow
            .retain(|_, s| now.saturating_since(s.last_seen) < ttl);
        self.prev_port
            .retain(|_, s| now.saturating_since(s.last_seen) < ttl);
        before - self.tracked_entries()
    }

    fn meta(&self, now: SimTime, message_type: MessageType, athena_polled: bool) -> MetaData {
        MetaData {
            timestamp: now,
            controller: self.controller,
            message_type,
            athena_polled,
        }
    }

    fn count_message(&mut self, from: Dpid, msg: &OfMessage) {
        let w = self.msg_counts.entry(from).or_default();
        match msg {
            OfMessage::PacketIn { .. } => w.packet_in += 1,
            OfMessage::PacketOut { .. } => w.packet_out += 1,
            OfMessage::FlowMod { .. } => w.flow_mod += 1,
            OfMessage::FlowRemoved { .. } => w.flow_removed += 1,
            OfMessage::PortStatus { .. } => w.port_status += 1,
            OfMessage::StatsRequest { .. } => w.stats_request += 1,
            OfMessage::StatsReply { .. } => w.stats_reply += 1,
            OfMessage::EchoRequest { .. } | OfMessage::EchoReply { .. } => w.echo += 1,
            OfMessage::BarrierRequest { .. } | OfMessage::BarrierReply { .. } => w.barrier += 1,
            _ => {}
        }
    }

    /// Per-flow + per-switch features from a flow-stats snapshot, in
    /// entry order, then the switch aggregate, then the host aggregates.
    fn flow_stats_features(
        &mut self,
        from: Dpid,
        entries: &[FlowStatsEntry],
        now: SimTime,
        polled: bool,
        app_of: &dyn Fn(u64) -> AppId,
    ) -> Vec<FeatureRecord> {
        // Stateful context: the live 5-tuples on this switch. Each
        // entry's tuple is hashed in once and its reverse probed once; a
        // pair counts on its tuple's first entry only, so the count is
        // over the set.
        let tuples: Vec<Option<FiveTuple>> = entries
            .iter()
            .map(|e| e.match_fields.five_tuple())
            .collect();
        let mut live: HashSet<FiveTuple> = HashSet::with_capacity(entries.len());
        let first: Vec<bool> = tuples
            .iter()
            .map(|ft| ft.is_some_and(|t| live.insert(t)))
            .collect();
        let mut pair_count = 0;
        let paired: Vec<bool> = tuples
            .iter()
            .zip(first)
            .map(|(ft, first)| {
                let paired = ft.is_some_and(|t| live.contains(&t.reversed()));
                pair_count += usize::from(first && paired);
                paired
            })
            .collect();
        let pair_ratio = pair_count as f64 / live.len().max(1) as f64;

        let mut athena_rules = 0usize;
        let mut total_packets = 0u64;
        let mut total_bytes = 0u64;
        let mut total_duration = 0.0f64;

        let meta = self.meta(now, MessageType::FLOW_STATS, polled);
        let mut out = Vec::with_capacity(entries.len() + 2);
        for (e, &is_pair) in entries.iter().zip(&paired) {
            let app = app_of(e.cookie);
            athena_rules += usize::from(app == app_ids::ATHENA);
            let prev = self.prev_flow.insert(
                (from, e.match_fields),
                PrevFlowSample {
                    packet_count: e.packet_count,
                    byte_count: e.byte_count,
                    duration_sec: e.duration_sec(),
                    last_seen: now,
                },
            );
            total_packets += e.packet_count;
            total_bytes += e.byte_count;
            total_duration += e.duration.as_secs_f64();
            let stateful = FlowState {
                app,
                prev,
                is_pair,
                pair_ratio,
            };
            out.push(build_flow_record(
                &mut self.name_lists,
                from,
                &meta,
                e,
                &stateful,
            ));
        }
        if entries.is_empty() {
            return out;
        }

        // The per-switch stateful aggregate record; its unique sources
        // and destinations are the hosts that send and that receive.
        let hosts = host_aggregates(entries, &tuples, &paired);
        let unique_src = hosts.iter().filter(|(_, h)| h.out_flows > 0).count();
        let unique_dst = hosts.iter().filter(|(_, h)| h.in_flows > 0).count();
        let mut v = CatalogValues::new();
        v.set(catalog::SWITCH_FLOW_COUNT, entries.len() as f64);
        v.set(catalog::SWITCH_PAIR_FLOW_COUNT, pair_count as f64);
        v.set(catalog::SWITCH_PAIR_FLOW_RATIO, pair_ratio);
        v.set(
            catalog::SWITCH_AVG_FLOW_DURATION,
            total_duration / entries.len() as f64,
        );
        v.set(catalog::SWITCH_UNIQUE_SRC_COUNT, unique_src as f64);
        v.set(catalog::SWITCH_UNIQUE_DST_COUNT, unique_dst as f64);
        v.set(
            catalog::SWITCH_SRC_DST_RATIO,
            safe_div(unique_src as f64, unique_dst as f64),
        );
        v.set(catalog::SWITCH_APP_FLOW_COUNT, athena_rules as f64);
        v.set(catalog::SWITCH_PACKET_COUNT_TOTAL, total_packets as f64);
        v.set(catalog::SWITCH_BYTE_COUNT_TOTAL, total_bytes as f64);
        let meta = self.meta(now, MessageType::SWITCH_STATE, polled);
        out.push(FeatureRecord::from_catalog(
            &mut self.name_lists,
            &FeatureIndex::switch(from),
            &meta,
            &v,
        ));

        // Per-host stateful aggregates from the same snapshot.
        self.records_generated += hosts.len() as u64;
        let meta = self.meta(now, MessageType::HOST_STATE, polled);
        let name_lists = &mut self.name_lists;
        out.extend(
            hosts
                .iter()
                .map(|(ip, agg)| build_host_record(name_lists, from, &meta, *ip, agg)),
        );
        out
    }

    fn port_stats_features(
        &mut self,
        from: Dpid,
        entries: &[PortStatsEntry],
        now: SimTime,
        polled: bool,
    ) -> Vec<FeatureRecord> {
        let windowing = self.windowing();
        let mut out = Vec::with_capacity(entries.len());
        for e in entries {
            let mut v = CatalogValues::new();
            v.set(catalog::PORT_RX_PACKETS, e.rx_packets as f64);
            v.set(catalog::PORT_TX_PACKETS, e.tx_packets as f64);
            v.set(catalog::PORT_RX_BYTES, e.rx_bytes as f64);
            v.set(catalog::PORT_TX_BYTES, e.tx_bytes as f64);
            v.set(catalog::PORT_RX_DROPPED, e.rx_dropped as f64);
            v.set(catalog::PORT_TX_DROPPED, e.tx_dropped as f64);
            v.set(catalog::PORT_RX_ERRORS, e.rx_errors as f64);
            v.set(catalog::PORT_TX_ERRORS, e.tx_errors as f64);
            v.set(
                catalog::PORT_RX_BYTE_PER_PACKET,
                safe_div(e.rx_bytes as f64, e.rx_packets as f64),
            );
            v.set(
                catalog::PORT_TX_BYTE_PER_PACKET,
                safe_div(e.tx_bytes as f64, e.tx_packets as f64),
            );
            let prev = self.prev_port.insert(
                (from, e.port_no),
                PrevPortSample {
                    stats: *e,
                    last_seen: now,
                },
            );
            let p = prev.map(|p| p.stats).unwrap_or_default();
            let rx_var = e.rx_bytes as f64 - p.rx_bytes as f64;
            let tx_var = e.tx_bytes as f64 - p.tx_bytes as f64;
            v.set(
                catalog::PORT_RX_PACKETS_VAR,
                e.rx_packets as f64 - p.rx_packets as f64,
            );
            v.set(
                catalog::PORT_TX_PACKETS_VAR,
                e.tx_packets as f64 - p.tx_packets as f64,
            );
            v.set(catalog::PORT_RX_BYTES_VAR, rx_var);
            v.set(catalog::PORT_TX_BYTES_VAR, tx_var);
            v.set(
                catalog::PORT_RX_DROPPED_VAR,
                e.rx_dropped as f64 - p.rx_dropped as f64,
            );
            v.set(
                catalog::PORT_TX_DROPPED_VAR,
                e.tx_dropped as f64 - p.tx_dropped as f64,
            );
            v.set(
                catalog::PORT_RX_ERRORS_VAR,
                e.rx_errors as f64 - p.rx_errors as f64,
            );
            v.set(
                catalog::PORT_TX_ERRORS_VAR,
                e.tx_errors as f64 - p.tx_errors as f64,
            );
            // Utilization over the sampling window.
            v.set(
                catalog::PORT_RX_UTILIZATION,
                windowing.rate_f64(rx_var.max(0.0) * 8.0) / NOMINAL_CAPACITY_BPS,
            );
            v.set(
                catalog::PORT_TX_UTILIZATION,
                windowing.rate_f64(tx_var.max(0.0) * 8.0) / NOMINAL_CAPACITY_BPS,
            );
            let dropped = e.rx_dropped + e.tx_dropped;
            let seen = e.rx_packets + e.tx_packets + dropped;
            v.set(
                catalog::PORT_DROP_RATIO,
                safe_div(dropped as f64, seen as f64),
            );
            let meta = self.meta(now, MessageType::PORT_STATS, polled);
            out.push(FeatureRecord::from_catalog(
                &mut self.name_lists,
                &FeatureIndex::port(from, e.port_no),
                &meta,
                &v,
            ));
        }
        self.records_generated += out.len() as u64;
        out
    }
}

/// What the generator's tracked state says about one flow-stats entry.
#[derive(Debug, Clone, Copy)]
struct FlowState {
    app: AppId,
    prev: Option<PrevFlowSample>,
    is_pair: bool,
    pair_ratio: f64,
}

/// Per-host aggregate accumulated from one flow-stats snapshot.
#[derive(Debug, Default)]
struct HostAgg {
    out_flows: u64,
    in_flows: u64,
    tx_bytes: u64,
    rx_bytes: u64,
    tx_packets: u64,
    rx_packets: u64,
    /// Distinct destinations this host sends to.
    fanout: u64,
    /// Distinct sources this host receives from.
    fanin: u64,
    paired: u64,
}

/// The hosts a flow-stats snapshot's 5-tuples name, in address order,
/// each with its flows' totals (`tuples` and `paired` run alongside
/// `entries`). Fan-out and fan-in come from one sorted, deduplicated
/// list of `(source, destination)` pairs.
fn host_aggregates(
    entries: &[FlowStatsEntry],
    tuples: &[Option<FiveTuple>],
    paired: &[bool],
) -> Vec<(Ipv4Addr, HostAgg)> {
    let mut pairs: Vec<(Ipv4Addr, Ipv4Addr)> =
        tuples.iter().flatten().map(|t| (t.src, t.dst)).collect();
    let mut ips: Vec<Ipv4Addr> = pairs.iter().flat_map(|&(src, dst)| [src, dst]).collect();
    ips.sort_unstable();
    ips.dedup();
    let mut hosts: Vec<(Ipv4Addr, HostAgg)> =
        ips.into_iter().map(|ip| (ip, HostAgg::default())).collect();
    for ((e, t), &is_pair) in entries.iter().zip(tuples).zip(paired) {
        let Some(t) = t else {
            continue;
        };
        if let Some(src) = host_mut(&mut hosts, t.src) {
            src.out_flows += 1;
            src.tx_bytes += e.byte_count;
            src.tx_packets += e.packet_count;
            src.paired += u64::from(is_pair);
        }
        if let Some(dst) = host_mut(&mut hosts, t.dst) {
            dst.in_flows += 1;
            dst.rx_bytes += e.byte_count;
            dst.rx_packets += e.packet_count;
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    for (src, dst) in pairs {
        if let Some(src) = host_mut(&mut hosts, src) {
            src.fanout += 1;
        }
        if let Some(dst) = host_mut(&mut hosts, dst) {
            dst.fanin += 1;
        }
    }
    hosts
}

/// The aggregate of `ip` in address-ordered `hosts`.
fn host_mut(hosts: &mut [(Ipv4Addr, HostAgg)], ip: Ipv4Addr) -> Option<&mut HostAgg> {
    let i = hosts.binary_search_by_key(&ip, |(ip, _)| *ip).ok()?;
    hosts.get_mut(i).map(|(_, agg)| agg)
}

/// Builds one `FLOW_STATS` record from an entry and its tracked state.
fn build_flow_record(
    name_lists: &mut NameLists,
    from: Dpid,
    meta: &MetaData,
    e: &FlowStatsEntry,
    d: &FlowState,
) -> FeatureRecord {
    let ft = e.match_fields.five_tuple();
    let mut index = FeatureIndex::switch(from);
    index.five_tuple = ft;
    index.app = Some(d.app);
    let mut v = CatalogValues::new();

    let dur = e.duration.as_secs_f64();
    v.set(catalog::FLOW_PACKET_COUNT, e.packet_count as f64);
    v.set(catalog::FLOW_BYTE_COUNT, e.byte_count as f64);
    v.set(catalog::FLOW_DURATION_SEC, e.duration_sec() as f64);
    v.set(catalog::FLOW_DURATION_NSEC, e.duration_nsec() as f64);
    v.set(catalog::FLOW_PRIORITY, f64::from(e.priority));
    v.set(catalog::FLOW_IDLE_TIMEOUT, e.idle_timeout.as_secs_f64());
    v.set(catalog::FLOW_HARD_TIMEOUT, e.hard_timeout.as_secs_f64());
    v.set(catalog::FLOW_TABLE_ID, f64::from(e.table_id));
    if let Some(ft) = ft {
        v.set(catalog::FLOW_IP_PROTO, f64::from(ft.proto.number()));
        v.set(catalog::FLOW_IP_SRC, f64::from(ft.src.raw()));
        v.set(catalog::FLOW_IP_DST, f64::from(ft.dst.raw()));
        v.set(catalog::FLOW_TP_SRC, f64::from(ft.src_port));
        v.set(catalog::FLOW_TP_DST, f64::from(ft.dst_port));
    }
    if let Some(et) = e.match_fields.eth_type {
        v.set(catalog::FLOW_ETH_TYPE, f64::from(et.number()));
    }
    if let Some(p) = athena_openflow::Action::first_output(&e.actions) {
        v.set(catalog::FLOW_ACTION_OUTPUT_PORT, f64::from(p.raw()));
    }
    // Combination features.
    v.set(
        catalog::FLOW_BYTE_PER_PACKET,
        safe_div(e.byte_count as f64, e.packet_count as f64),
    );
    v.set(
        catalog::FLOW_PACKET_PER_DURATION,
        safe_div(e.packet_count as f64, dur),
    );
    v.set(
        catalog::FLOW_BYTE_PER_DURATION,
        safe_div(e.byte_count as f64, dur),
    );
    v.set(
        catalog::FLOW_UTILIZATION,
        safe_div(e.byte_count as f64 * 8.0, dur) / NOMINAL_CAPACITY_BPS,
    );
    // Stateful features.
    v.set(catalog::PAIR_FLOW, f64::from(u8::from(d.is_pair)));
    v.set(catalog::PAIR_FLOW_RATIO, d.pair_ratio);
    v.set(catalog::FLOW_APP_ID, f64::from(d.app.raw()));
    v.set(
        catalog::FLOW_ORIGIN_REACTIVE,
        f64::from(u8::from(!e.idle_timeout.is_zero())),
    );
    // Variation features against the previous sample.
    if let Some(p) = d.prev {
        v.set(
            catalog::FLOW_PACKET_COUNT_VAR,
            e.packet_count as f64 - p.packet_count as f64,
        );
        v.set(
            catalog::FLOW_BYTE_COUNT_VAR,
            e.byte_count as f64 - p.byte_count as f64,
        );
        v.set(
            catalog::FLOW_DURATION_SEC_VAR,
            e.duration_sec() as f64 - p.duration_sec as f64,
        );
        let prev_bpp = safe_div(p.byte_count as f64, p.packet_count as f64);
        v.set(
            catalog::FLOW_BYTE_PER_PACKET_VAR,
            safe_div(e.byte_count as f64, e.packet_count as f64) - prev_bpp,
        );
    } else {
        v.set(catalog::FLOW_PACKET_COUNT_VAR, e.packet_count as f64);
        v.set(catalog::FLOW_BYTE_COUNT_VAR, e.byte_count as f64);
        v.set(catalog::FLOW_DURATION_SEC_VAR, e.duration_sec() as f64);
        v.set(
            catalog::FLOW_BYTE_PER_PACKET_VAR,
            safe_div(e.byte_count as f64, e.packet_count as f64),
        );
    }
    FeatureRecord::from_catalog(name_lists, &index, meta, &v)
}

/// Builds one `HOST_STATE` record.
fn build_host_record(
    name_lists: &mut NameLists,
    from: Dpid,
    meta: &MetaData,
    ip: Ipv4Addr,
    agg: &HostAgg,
) -> FeatureRecord {
    let mut index = FeatureIndex::switch(from);
    index.host = Some(ip);
    let mut v = CatalogValues::new();
    v.set(catalog::HOST_OUT_FLOW_COUNT, agg.out_flows as f64);
    v.set(catalog::HOST_IN_FLOW_COUNT, agg.in_flows as f64);
    v.set(catalog::HOST_TX_BYTES, agg.tx_bytes as f64);
    v.set(catalog::HOST_RX_BYTES, agg.rx_bytes as f64);
    v.set(catalog::HOST_TX_PACKETS, agg.tx_packets as f64);
    v.set(catalog::HOST_RX_PACKETS, agg.rx_packets as f64);
    v.set(catalog::HOST_FANOUT, agg.fanout as f64);
    v.set(catalog::HOST_FANIN, agg.fanin as f64);
    v.set(
        catalog::HOST_PAIR_RATIO,
        safe_div(agg.paired as f64, agg.out_flows as f64),
    );
    FeatureRecord::from_catalog(name_lists, &index, meta, &v)
}

fn safe_div(num: f64, den: f64) -> f64 {
    if den.abs() < 1e-12 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use athena_openflow::{Action, FlowRemoved, FlowRemovedReason};
    use athena_types::Xid;
    use proptest::prelude::*;

    fn app_core(_cookie: u64) -> AppId {
        AppId::CORE
    }

    fn flow_entry(ft: FiveTuple, packets: u64, bytes: u64, dur_s: u64) -> FlowStatsEntry {
        FlowStatsEntry {
            table_id: 0,
            match_fields: MatchFields::exact_five_tuple(ft),
            priority: 100,
            duration: SimDuration::from_secs(dur_s),
            idle_timeout: SimDuration::from_secs(30),
            hard_timeout: SimDuration::ZERO,
            cookie: 0,
            packet_count: packets,
            byte_count: bytes,
            actions: vec![Action::Output(PortNo::new(2))],
        }
    }

    fn ft() -> FiveTuple {
        FiveTuple::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            1000,
            Ipv4Addr::new(10, 0, 0, 2),
            80,
        )
    }

    fn stats_msg(entries: Vec<FlowStatsEntry>, marked: bool) -> OfMessage {
        OfMessage::StatsReply {
            xid: if marked {
                Xid::athena_marked(1)
            } else {
                Xid::new(1)
            },
            body: StatsReply::Flow(entries),
        }
    }

    #[test]
    fn flow_features_include_all_categories() {
        let mut g = FeatureGenerator::new(ControllerId::new(0));
        let records = g.ingest(
            Dpid::new(1),
            &stats_msg(vec![flow_entry(ft(), 100, 64_000, 4)], true),
            SimTime::from_secs(10),
            &app_core,
        );
        // One flow record + one switch-state record + two host records
        // (source and destination hosts of the single flow).
        assert_eq!(records.len(), 4);
        assert_eq!(
            records
                .iter()
                .filter(|r| r.meta().message_type == "HOST_STATE")
                .count(),
            2
        );
        let host = records
            .iter()
            .find(|r| r.meta().message_type == "HOST_STATE")
            .unwrap();
        assert!(host.index().host.is_some());
        let r = &records[0];
        assert_eq!(r.field("FLOW_PACKET_COUNT"), Some(100.0));
        assert_eq!(r.field("FLOW_BYTE_PER_PACKET"), Some(640.0));
        assert_eq!(r.field("FLOW_PACKET_PER_DURATION"), Some(25.0));
        assert_eq!(r.field("PAIR_FLOW"), Some(0.0));
        assert_eq!(r.field("FLOW_TP_DST"), Some(80.0));
        assert!(r.meta().athena_polled);
        assert_eq!(records[1].field("SWITCH_FLOW_COUNT"), Some(1.0));
    }

    #[test]
    fn variation_features_track_previous_sample() {
        let mut g = FeatureGenerator::new(ControllerId::new(0));
        g.ingest(
            Dpid::new(1),
            &stats_msg(vec![flow_entry(ft(), 100, 64_000, 4)], true),
            SimTime::from_secs(10),
            &app_core,
        );
        let records = g.ingest(
            Dpid::new(1),
            &stats_msg(vec![flow_entry(ft(), 175, 96_000, 9)], true),
            SimTime::from_secs(15),
            &app_core,
        );
        let r = &records[0];
        assert_eq!(r.field("FLOW_PACKET_COUNT_VAR"), Some(75.0));
        assert_eq!(r.field("FLOW_BYTE_COUNT_VAR"), Some(32_000.0));
        assert_eq!(r.field("FLOW_DURATION_SEC_VAR"), Some(5.0));
    }

    #[test]
    fn pair_flow_detection() {
        let mut g = FeatureGenerator::new(ControllerId::new(0));
        let records = g.ingest(
            Dpid::new(1),
            &stats_msg(
                vec![
                    flow_entry(ft(), 10, 1000, 1),
                    flow_entry(ft().reversed(), 5, 500, 1),
                ],
                true,
            ),
            SimTime::from_secs(1),
            &app_core,
        );
        let flows: Vec<&FeatureRecord> = records
            .iter()
            .filter(|r| r.meta().message_type == "FLOW_STATS")
            .collect();
        assert_eq!(flows.len(), 2);
        assert!(flows.iter().all(|r| r.field("PAIR_FLOW") == Some(1.0)));
        assert!(flows
            .iter()
            .all(|r| r.field("PAIR_FLOW_RATIO") == Some(1.0)));
        let sw = records
            .iter()
            .find(|r| r.meta().message_type == "SWITCH_STATE")
            .unwrap();
        assert_eq!(sw.field("SWITCH_PAIR_FLOW_COUNT"), Some(2.0));
    }

    #[test]
    fn port_stats_features_and_variation() {
        let mut g = FeatureGenerator::new(ControllerId::new(0));
        let entry = |rx_bytes| PortStatsEntry {
            port_no: PortNo::new(1),
            rx_packets: 10,
            rx_bytes,
            ..PortStatsEntry::default()
        };
        let msg = |rx_bytes| OfMessage::StatsReply {
            xid: Xid::athena_marked(2),
            body: StatsReply::Port(vec![entry(rx_bytes)]),
        };
        g.ingest(Dpid::new(2), &msg(1000), SimTime::from_secs(1), &app_core);
        let records = g.ingest(Dpid::new(2), &msg(5000), SimTime::from_secs(6), &app_core);
        let r = &records[0];
        assert_eq!(r.field("PORT_RX_BYTES"), Some(5000.0));
        assert_eq!(r.field("PORT_RX_BYTES_VAR"), Some(4000.0));
        assert_eq!(r.field("PORT_RX_BYTE_PER_PACKET"), Some(500.0));
        assert_eq!(r.index().port, Some(PortNo::new(1)));
    }

    #[test]
    fn flow_removed_features() {
        let mut g = FeatureGenerator::new(ControllerId::new(0));
        let msg = OfMessage::FlowRemoved {
            xid: Xid::new(1),
            body: FlowRemoved {
                match_fields: MatchFields::exact_five_tuple(ft()),
                cookie: 0,
                priority: 1,
                reason: FlowRemovedReason::IdleTimeout,
                duration: SimDuration::from_secs(30),
                packet_count: 60,
                byte_count: 6000,
            },
        };
        let records = g.ingest(Dpid::new(1), &msg, SimTime::from_secs(40), &app_core);
        assert_eq!(records.len(), 1);
        let r = &records[0];
        assert_eq!(r.field("REMOVED_REASON_IDLE"), Some(1.0));
        assert_eq!(r.field("REMOVED_REASON_HARD"), Some(0.0));
        assert_eq!(r.field("REMOVED_BYTE_PER_PACKET"), Some(100.0));
    }

    #[test]
    fn message_window_counts_and_rates() {
        let mut g = FeatureGenerator::new(ControllerId::new(0));
        let pin = OfMessage::packet_in(
            Xid::new(1),
            athena_openflow::PacketHeader::tcp_syn(
                PortNo::new(1),
                Ipv4Addr::new(1, 1, 1, 1),
                1,
                Ipv4Addr::new(2, 2, 2, 2),
                2,
            ),
        );
        for _ in 0..10 {
            g.ingest(Dpid::new(1), &pin, SimTime::from_secs(1), &app_core);
        }
        let records = g.flush_window(SimTime::from_secs(5));
        assert_eq!(records.len(), 1);
        let r = &records[0];
        assert_eq!(r.field("MSG_PACKET_IN_COUNT"), Some(10.0));
        assert_eq!(r.field("MSG_PACKET_IN_RATE"), Some(2.0)); // 10 / 5s window
        assert_eq!(r.field("MSG_TOTAL_COUNT"), Some(10.0));
        // Next window is fresh; VAR is negative after silence.
        let records = g.flush_window(SimTime::from_secs(10));
        assert!(records.is_empty()); // no new messages -> no entry
    }

    #[test]
    fn windowing_shares_the_flush_rate_math() {
        let g = FeatureGenerator::new(ControllerId::new(0));
        // flush_window derives from the same Windowing: the MSG rate a
        // flush would emit is bitwise the shared formula.
        let w = g.windowing();
        assert_eq!(w.width(), g.window);
        assert_eq!(w.rate(10).to_bits(), 2.0f64.to_bits()); // 10 / 5 s
    }

    #[test]
    fn gc_removes_stale_entries() {
        let mut g = FeatureGenerator::new(ControllerId::new(0));
        g.ttl = SimDuration::from_secs(10);
        g.ingest(
            Dpid::new(1),
            &stats_msg(vec![flow_entry(ft(), 1, 1, 1)], true),
            SimTime::from_secs(1),
            &app_core,
        );
        assert_eq!(g.tracked_entries(), 1);
        assert_eq!(g.gc(SimTime::from_secs(5)), 0);
        assert_eq!(g.gc(SimTime::from_secs(20)), 1);
        assert_eq!(g.tracked_entries(), 0);
    }

    /// Per-host aggregate of the set-based path: fan-out and fan-in as
    /// sets of addresses.
    #[derive(Default)]
    struct OracleHostAgg {
        agg: HostAgg,
        fanout: HashSet<Ipv4Addr>,
        fanin: HashSet<Ipv4Addr>,
    }

    /// The set-based flow-stats path `flow_stats_features` replaced —
    /// one `HashSet` of the live 5-tuples probed per question, `app_of`
    /// resolved twice per entry, unique sources and destinations and
    /// every host's fan-out and fan-in as sets — kept as its oracle.
    impl FeatureGenerator {
        fn oracle_flow_stats_features(
            &mut self,
            from: Dpid,
            entries: &[FlowStatsEntry],
            now: SimTime,
            polled: bool,
            app_of: &dyn Fn(u64) -> AppId,
        ) -> Vec<FeatureRecord> {
            let tuples: HashSet<FiveTuple> = entries
                .iter()
                .filter_map(|e| e.match_fields.five_tuple())
                .collect();
            let pair_count = tuples
                .iter()
                .filter(|t| tuples.contains(&t.reversed()))
                .count();
            let pair_ratio = pair_count as f64 / tuples.len().max(1) as f64;
            let mut unique_src: HashSet<Ipv4Addr> = HashSet::new();
            let mut unique_dst: HashSet<Ipv4Addr> = HashSet::new();
            let (mut total_packets, mut total_bytes, mut total_duration) = (0u64, 0u64, 0.0f64);
            let meta = self.meta(now, MessageType::FLOW_STATS, polled);
            let mut out = Vec::new();
            for e in entries {
                let ft = e.match_fields.five_tuple();
                if let Some(ft) = ft {
                    unique_src.insert(ft.src);
                    unique_dst.insert(ft.dst);
                }
                let prev = self.prev_flow.insert(
                    (from, e.match_fields),
                    PrevFlowSample {
                        packet_count: e.packet_count,
                        byte_count: e.byte_count,
                        duration_sec: e.duration_sec(),
                        last_seen: now,
                    },
                );
                total_packets += e.packet_count;
                total_bytes += e.byte_count;
                total_duration += e.duration.as_secs_f64();
                let stateful = FlowState {
                    app: app_of(e.cookie),
                    prev,
                    is_pair: ft.is_some_and(|t| tuples.contains(&t.reversed())),
                    pair_ratio,
                };
                out.push(build_flow_record(
                    &mut self.name_lists,
                    from,
                    &meta,
                    e,
                    &stateful,
                ));
            }
            if !entries.is_empty() {
                let mut v = CatalogValues::new();
                v.set(catalog::SWITCH_FLOW_COUNT, entries.len() as f64);
                v.set(catalog::SWITCH_PAIR_FLOW_COUNT, pair_count as f64);
                v.set(catalog::SWITCH_PAIR_FLOW_RATIO, pair_ratio);
                v.set(
                    catalog::SWITCH_AVG_FLOW_DURATION,
                    total_duration / entries.len() as f64,
                );
                v.set(catalog::SWITCH_UNIQUE_SRC_COUNT, unique_src.len() as f64);
                v.set(catalog::SWITCH_UNIQUE_DST_COUNT, unique_dst.len() as f64);
                v.set(
                    catalog::SWITCH_SRC_DST_RATIO,
                    safe_div(unique_src.len() as f64, unique_dst.len() as f64),
                );
                let athena_rules = entries
                    .iter()
                    .filter(|e| app_of(e.cookie) == app_ids::ATHENA)
                    .count();
                v.set(catalog::SWITCH_APP_FLOW_COUNT, athena_rules as f64);
                v.set(catalog::SWITCH_PACKET_COUNT_TOTAL, total_packets as f64);
                v.set(catalog::SWITCH_BYTE_COUNT_TOTAL, total_bytes as f64);
                let meta = self.meta(now, MessageType::SWITCH_STATE, polled);
                out.push(FeatureRecord::from_catalog(
                    &mut self.name_lists,
                    &FeatureIndex::switch(from),
                    &meta,
                    &v,
                ));
                out.extend(self.oracle_host_features(from, entries, &tuples, now, polled));
            }
            out
        }

        fn oracle_host_features(
            &mut self,
            from: Dpid,
            entries: &[FlowStatsEntry],
            tuples: &HashSet<FiveTuple>,
            now: SimTime,
            polled: bool,
        ) -> Vec<FeatureRecord> {
            let mut hosts: HashMap<Ipv4Addr, OracleHostAgg> = HashMap::new();
            for e in entries {
                let Some(ft) = e.match_fields.five_tuple() else {
                    continue;
                };
                let src = hosts.entry(ft.src).or_default();
                src.agg.out_flows += 1;
                src.agg.tx_bytes += e.byte_count;
                src.agg.tx_packets += e.packet_count;
                src.fanout.insert(ft.dst);
                if tuples.contains(&ft.reversed()) {
                    src.agg.paired += 1;
                }
                let dst = hosts.entry(ft.dst).or_default();
                dst.agg.in_flows += 1;
                dst.agg.rx_bytes += e.byte_count;
                dst.agg.rx_packets += e.packet_count;
                dst.fanin.insert(ft.src);
            }
            let mut hosts: Vec<_> = hosts.into_iter().collect();
            hosts.sort_by_key(|(ip, _)| *ip);
            self.records_generated += hosts.len() as u64;
            let meta = self.meta(now, MessageType::HOST_STATE, polled);
            hosts
                .into_iter()
                .map(|(ip, mut h)| {
                    h.agg.fanout = h.fanout.len() as u64;
                    h.agg.fanin = h.fanin.len() as u64;
                    build_host_record(&mut self.name_lists, from, &meta, ip, &h.agg)
                })
                .collect()
        }
    }

    /// A flow-stats entry over few addresses and ports, so duplicate
    /// 5-tuples and reverse pairs are common: a 5-tuple (with or without
    /// an ingress port, so one tuple can sit under two matches) or a
    /// match without one, any cookie of a handful (Athena's among them).
    fn arb_entry() -> impl Strategy<Value = FlowStatsEntry> {
        (
            (0u8..4, 0u8..4, 0u16..2, 0u16..2, any::<bool>()),
            0u8..6,
            0u32..12,
            (0u64..500, 0u64..50_000, 0u64..20_000_000, 0u16..3),
        )
            .prop_map(
                |((a, b, pa, pb, udp), shape, app, (packets, bytes, dur_us, prio))| {
                    let (src, dst) = (Ipv4Addr::new(10, 0, 0, a), Ipv4Addr::new(10, 0, 0, b));
                    let (sp, dp) = (1000 + pa, 1000 + pb);
                    let ft = if udp {
                        FiveTuple::udp(src, sp, dst, dp)
                    } else {
                        FiveTuple::tcp(src, sp, dst, dp)
                    };
                    let match_fields = match shape {
                        // No 5-tuple: a prefix match, or a port alone.
                        0 => MatchFields::new().with_ip_src(src, 24).with_ip_dst(dst, 32),
                        1 => MatchFields::new().with_in_port(PortNo::new(u32::from(a))),
                        2 => MatchFields::exact_five_tuple(ft).with_in_port(PortNo::new(1)),
                        _ => MatchFields::exact_five_tuple(ft),
                    };
                    FlowStatsEntry {
                        table_id: 0,
                        match_fields,
                        priority: 100 + prio,
                        duration: SimDuration::from_micros(dur_us),
                        idle_timeout: SimDuration::from_secs(u64::from(prio) * 10),
                        hard_timeout: SimDuration::ZERO,
                        cookie: u64::from(app) << 48,
                        packet_count: packets,
                        byte_count: bytes,
                        actions: vec![Action::Output(PortNo::new(2))],
                    }
                },
            )
    }

    proptest! {
        /// Reply after reply (a switch may be polled again), the one-hash
        /// path and the set-based oracle emit the same record bodies and
        /// count the same records, and leave the same previous samples.
        #[test]
        fn flow_stats_features_equal_the_set_based_oracle(
            replies in proptest::collection::vec(
                (1u64..3, any::<bool>(), proptest::collection::vec(arb_entry(), 0..24)),
                1..5,
            ),
        ) {
            let app_of = |cookie: u64| AppId::new((cookie >> 48) as u32);
            let mut fast = FeatureGenerator::new(ControllerId::new(0));
            let mut oracle = FeatureGenerator::new(ControllerId::new(0));
            for (i, (dpid, polled, entries)) in replies.iter().enumerate() {
                let (from, now) = (Dpid::new(*dpid), SimTime::from_secs(5 * (i as u64 + 1)));
                let got = fast.flow_stats_features(from, entries, now, *polled, &app_of);
                let want =
                    oracle.oracle_flow_stats_features(from, entries, now, *polled, &app_of);
                let text = |records: &[FeatureRecord]| -> Vec<String> {
                    records
                        .iter()
                        .map(|r| serde_json::to_string(&r.document().fields).unwrap())
                        .collect()
                };
                prop_assert_eq!(text(&got), text(&want), "reply {}", i);
                prop_assert_eq!(fast.records_generated, oracle.records_generated);
                prop_assert_eq!(&fast.prev_flow, &oracle.prev_flow);
            }
        }
    }
}
