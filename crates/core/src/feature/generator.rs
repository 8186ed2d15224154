//! The Feature Generator (paper §III-A 1B).
//!
//! Examines incoming control messages to derive Athena features, keeping
//! hash tables of previous samples (for `_VAR` variation features) and
//! network state (pair-flow tracking), with a garbage collector that
//! periodically removes outdated entries.

use crate::feature::catalog::{self, MessageType};
use crate::feature::format::{FeatureIndex, FeatureRecord, MetaData};
use crate::feature::window::Windowing;
use athena_openflow::stats::PortStatsEntry;
use athena_openflow::{FlowStatsEntry, MatchFields, OfMessage, StatsReply};
use athena_types::{AppId, ControllerId, Dpid, FiveTuple, PortNo, SimDuration, SimTime};
use std::collections::{HashMap, HashSet};

/// Nominal link capacity used for utilization features (bits/second).
const NOMINAL_CAPACITY_BPS: f64 = 1_000_000_000.0;

#[derive(Debug, Clone, Copy)]
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
        let mut out = match msg {
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
                            let mut r = FeatureRecord::new(FeatureIndex::switch(from))
                                .with_meta(self.meta(now, MessageType::TABLE_STATS, polled));
                            r.push_field(catalog::TABLE_ACTIVE_COUNT, f64::from(e.active_count));
                            r.push_field(catalog::TABLE_LOOKUP_COUNT, e.lookup_count as f64);
                            r.push_field(catalog::TABLE_MATCHED_COUNT, e.matched_count as f64);
                            r.push_field(catalog::TABLE_MISS_RATIO, e.miss_ratio());
                            r.push_field(
                                catalog::TABLE_ACTIVE_COUNT_VAR,
                                f64::from(e.active_count) - f64::from(prev_active),
                            );
                            r.push_field(
                                catalog::TABLE_LOOKUP_COUNT_VAR,
                                e.lookup_count as f64 - prev_lookup as f64,
                            );
                            records.push(r);
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
                let mut r = FeatureRecord::new(index).with_meta(self.meta(
                    now,
                    MessageType::FLOW_REMOVED,
                    false,
                ));
                r.push_field(catalog::REMOVED_PACKET_COUNT, body.packet_count as f64);
                r.push_field(catalog::REMOVED_BYTE_COUNT, body.byte_count as f64);
                r.push_field(catalog::REMOVED_DURATION_SEC, body.duration.as_secs_f64());
                use athena_openflow::FlowRemovedReason as R;
                r.push_field(
                    catalog::REMOVED_REASON_IDLE,
                    f64::from(u8::from(body.reason == R::IdleTimeout)),
                );
                r.push_field(
                    catalog::REMOVED_REASON_HARD,
                    f64::from(u8::from(body.reason == R::HardTimeout)),
                );
                r.push_field(
                    catalog::REMOVED_REASON_DELETE,
                    f64::from(u8::from(body.reason == R::Delete)),
                );
                r.push_field(
                    catalog::REMOVED_BYTE_PER_PACKET,
                    safe_div(body.byte_count as f64, body.packet_count as f64),
                );
                // The flow is gone: stop tracking its previous sample.
                self.prev_flow.remove(&(from, body.match_fields));
                vec![r]
            }
            OfMessage::PacketIn { body, .. } => {
                // Per-event protocol-centric features: every punted packet
                // yields a record (this per-message path is what makes
                // Athena's Cbench overhead visible, per Table IX).
                let mut index = FeatureIndex::switch(from);
                index.five_tuple = body.header.five_tuple();
                index.port = Some(body.header.in_port);
                let mut r = FeatureRecord::new(index).with_meta(self.meta(
                    now,
                    MessageType::PACKET_IN,
                    false,
                ));
                r.push_field(catalog::PACKET_IN_BYTE_LEN, f64::from(body.header.byte_len));
                r.push_field(
                    catalog::PACKET_IN_PORT,
                    f64::from(body.header.in_port.raw()),
                );
                r.push_field(
                    catalog::PACKET_IN_BUFFERED,
                    f64::from(u8::from(body.buffer_id.is_some())),
                );
                vec![r]
            }
            _ => Vec::new(),
        };
        self.records_generated += out.len() as u64;
        // Window flush rides on the message stream clock.
        out.extend(self.maybe_flush(now));
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
            let mut r = FeatureRecord::new(FeatureIndex::switch(dpid)).with_meta(self.meta(
                now,
                MessageType::MSG_WINDOW,
                false,
            ));
            r.push_field(catalog::MSG_PACKET_IN_COUNT, counts.packet_in as f64);
            r.push_field(catalog::MSG_PACKET_OUT_COUNT, counts.packet_out as f64);
            r.push_field(catalog::MSG_FLOW_MOD_COUNT, counts.flow_mod as f64);
            r.push_field(catalog::MSG_FLOW_REMOVED_COUNT, counts.flow_removed as f64);
            r.push_field(catalog::MSG_PORT_STATUS_COUNT, counts.port_status as f64);
            r.push_field(
                catalog::MSG_STATS_REQUEST_COUNT,
                counts.stats_request as f64,
            );
            r.push_field(catalog::MSG_STATS_REPLY_COUNT, counts.stats_reply as f64);
            r.push_field(catalog::MSG_ECHO_COUNT, counts.echo as f64);
            r.push_field(catalog::MSG_BARRIER_COUNT, counts.barrier as f64);
            r.push_field(
                catalog::MSG_PACKET_IN_RATE,
                windowing.rate(counts.packet_in),
            );
            r.push_field(catalog::MSG_FLOW_MOD_RATE, windowing.rate(counts.flow_mod));
            r.push_field(
                catalog::MSG_FLOW_REMOVED_RATE,
                windowing.rate(counts.flow_removed),
            );
            r.push_field(
                catalog::MSG_PACKET_IN_COUNT_VAR,
                counts.packet_in as f64 - prev.packet_in as f64,
            );
            r.push_field(
                catalog::MSG_FLOW_MOD_COUNT_VAR,
                counts.flow_mod as f64 - prev.flow_mod as f64,
            );
            r.push_field(
                catalog::MSG_PACKET_OUT_COUNT_VAR,
                counts.packet_out as f64 - prev.packet_out as f64,
            );
            r.push_field(catalog::MSG_TOTAL_COUNT, counts.total() as f64);
            self.records_generated += 1;
            out.push(r);
        }
        out
    }

    fn maybe_flush(&mut self, _now: SimTime) -> Vec<FeatureRecord> {
        // Window flushing is driven explicitly by the SB's tick (which
        // knows the poll cadence); nothing implicit here.
        Vec::new()
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
        // Stateful context: the set of live 5-tuples on this switch.
        let tuples: HashSet<FiveTuple> = entries
            .iter()
            .filter_map(|e| e.match_fields.five_tuple())
            .collect();
        let pair_count = tuples
            .iter()
            .filter(|t| tuples.contains(&t.reversed()))
            .count();
        let total_tuples = tuples.len().max(1);
        let pair_ratio = pair_count as f64 / total_tuples as f64;

        let mut unique_src: HashSet<athena_types::Ipv4Addr> = HashSet::new();
        let mut unique_dst: HashSet<athena_types::Ipv4Addr> = HashSet::new();
        let mut total_packets = 0u64;
        let mut total_bytes = 0u64;
        let mut total_duration = 0.0f64;

        let meta = self.meta(now, MessageType::FLOW_STATS, polled);
        let mut out = Vec::with_capacity(entries.len() + 2);
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
            out.push(build_flow_record(from, meta.clone(), e, &stateful));
        }

        // The per-switch stateful aggregate record.
        if !entries.is_empty() {
            let mut r = FeatureRecord::new(FeatureIndex::switch(from)).with_meta(self.meta(
                now,
                MessageType::SWITCH_STATE,
                polled,
            ));
            r.push_field(catalog::SWITCH_FLOW_COUNT, entries.len() as f64);
            r.push_field(catalog::SWITCH_PAIR_FLOW_COUNT, pair_count as f64);
            r.push_field(catalog::SWITCH_PAIR_FLOW_RATIO, pair_ratio);
            r.push_field(
                catalog::SWITCH_AVG_FLOW_DURATION,
                total_duration / entries.len() as f64,
            );
            r.push_field(catalog::SWITCH_UNIQUE_SRC_COUNT, unique_src.len() as f64);
            r.push_field(catalog::SWITCH_UNIQUE_DST_COUNT, unique_dst.len() as f64);
            r.push_field(
                catalog::SWITCH_SRC_DST_RATIO,
                safe_div(unique_src.len() as f64, unique_dst.len() as f64),
            );
            let athena_rules = entries
                .iter()
                .filter(|e| app_of(e.cookie) == AppId::new(9))
                .count();
            r.push_field(catalog::SWITCH_APP_FLOW_COUNT, athena_rules as f64);
            r.push_field(catalog::SWITCH_PACKET_COUNT_TOTAL, total_packets as f64);
            r.push_field(catalog::SWITCH_BYTE_COUNT_TOTAL, total_bytes as f64);
            out.push(r);

            // Per-host stateful aggregates from the same snapshot.
            out.extend(self.host_features(from, entries, &tuples, now, polled));
        }
        out
    }

    /// Per-host aggregates: fan-out/fan-in, byte/packet totals, and pair
    /// ratio, keyed by host address.
    fn host_features(
        &mut self,
        from: Dpid,
        entries: &[FlowStatsEntry],
        tuples: &HashSet<FiveTuple>,
        now: SimTime,
        polled: bool,
    ) -> Vec<FeatureRecord> {
        let mut hosts: HashMap<athena_types::Ipv4Addr, HostAgg> = HashMap::new();
        for e in entries {
            let Some(ft) = e.match_fields.five_tuple() else {
                continue;
            };
            let src = hosts.entry(ft.src).or_default();
            src.out_flows += 1;
            src.tx_bytes += e.byte_count;
            src.tx_packets += e.packet_count;
            src.fanout.insert(ft.dst);
            if tuples.contains(&ft.reversed()) {
                src.paired += 1;
            }
            let dst = hosts.entry(ft.dst).or_default();
            dst.in_flows += 1;
            dst.rx_bytes += e.byte_count;
            dst.rx_packets += e.packet_count;
            dst.fanin.insert(ft.src);
        }
        // Sorted so identically-seeded runs emit (and store) the host
        // records in the same order — crash-recovery diffs rely on it.
        let mut hosts: Vec<_> = hosts.into_iter().collect();
        hosts.sort_by_key(|(ip, _)| *ip);
        self.records_generated += hosts.len() as u64;
        let meta = self.meta(now, MessageType::HOST_STATE, polled);
        hosts
            .into_iter()
            .map(|(ip, agg)| build_host_record(from, meta.clone(), ip, &agg))
            .collect()
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
            let mut r = FeatureRecord::new(FeatureIndex::port(from, e.port_no))
                .with_meta(self.meta(now, MessageType::PORT_STATS, polled));
            r.push_field(catalog::PORT_RX_PACKETS, e.rx_packets as f64);
            r.push_field(catalog::PORT_TX_PACKETS, e.tx_packets as f64);
            r.push_field(catalog::PORT_RX_BYTES, e.rx_bytes as f64);
            r.push_field(catalog::PORT_TX_BYTES, e.tx_bytes as f64);
            r.push_field(catalog::PORT_RX_DROPPED, e.rx_dropped as f64);
            r.push_field(catalog::PORT_TX_DROPPED, e.tx_dropped as f64);
            r.push_field(catalog::PORT_RX_ERRORS, e.rx_errors as f64);
            r.push_field(catalog::PORT_TX_ERRORS, e.tx_errors as f64);
            r.push_field(
                catalog::PORT_RX_BYTE_PER_PACKET,
                safe_div(e.rx_bytes as f64, e.rx_packets as f64),
            );
            r.push_field(
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
            r.push_field(
                catalog::PORT_RX_PACKETS_VAR,
                e.rx_packets as f64 - p.rx_packets as f64,
            );
            r.push_field(
                catalog::PORT_TX_PACKETS_VAR,
                e.tx_packets as f64 - p.tx_packets as f64,
            );
            r.push_field(catalog::PORT_RX_BYTES_VAR, rx_var);
            r.push_field(catalog::PORT_TX_BYTES_VAR, tx_var);
            r.push_field(
                catalog::PORT_RX_DROPPED_VAR,
                e.rx_dropped as f64 - p.rx_dropped as f64,
            );
            r.push_field(
                catalog::PORT_TX_DROPPED_VAR,
                e.tx_dropped as f64 - p.tx_dropped as f64,
            );
            r.push_field(
                catalog::PORT_RX_ERRORS_VAR,
                e.rx_errors as f64 - p.rx_errors as f64,
            );
            r.push_field(
                catalog::PORT_TX_ERRORS_VAR,
                e.tx_errors as f64 - p.tx_errors as f64,
            );
            // Utilization over the sampling window.
            r.push_field(
                catalog::PORT_RX_UTILIZATION,
                windowing.rate_f64(rx_var.max(0.0) * 8.0) / NOMINAL_CAPACITY_BPS,
            );
            r.push_field(
                catalog::PORT_TX_UTILIZATION,
                windowing.rate_f64(tx_var.max(0.0) * 8.0) / NOMINAL_CAPACITY_BPS,
            );
            let dropped = e.rx_dropped + e.tx_dropped;
            let seen = e.rx_packets + e.tx_packets + dropped;
            r.push_field(
                catalog::PORT_DROP_RATIO,
                safe_div(dropped as f64, seen as f64),
            );
            out.push(r);
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
    fanout: HashSet<athena_types::Ipv4Addr>,
    fanin: HashSet<athena_types::Ipv4Addr>,
    paired: u64,
}

/// Builds one `FLOW_STATS` record from an entry and its tracked state.
fn build_flow_record(
    from: Dpid,
    meta: MetaData,
    e: &FlowStatsEntry,
    d: &FlowState,
) -> FeatureRecord {
    let ft = e.match_fields.five_tuple();
    let mut index = FeatureIndex::switch(from);
    index.five_tuple = ft;
    index.app = Some(d.app);
    let mut r = FeatureRecord::new(index).with_meta(meta);

    let dur = e.duration.as_secs_f64();
    r.push_field(catalog::FLOW_PACKET_COUNT, e.packet_count as f64);
    r.push_field(catalog::FLOW_BYTE_COUNT, e.byte_count as f64);
    r.push_field(catalog::FLOW_DURATION_SEC, e.duration_sec() as f64);
    r.push_field(catalog::FLOW_DURATION_NSEC, e.duration_nsec() as f64);
    r.push_field(catalog::FLOW_PRIORITY, f64::from(e.priority));
    r.push_field(catalog::FLOW_IDLE_TIMEOUT, e.idle_timeout.as_secs_f64());
    r.push_field(catalog::FLOW_HARD_TIMEOUT, e.hard_timeout.as_secs_f64());
    r.push_field(catalog::FLOW_TABLE_ID, f64::from(e.table_id));
    if let Some(ft) = ft {
        r.push_field(catalog::FLOW_IP_PROTO, f64::from(ft.proto.number()));
        r.push_field(catalog::FLOW_IP_SRC, f64::from(ft.src.raw()));
        r.push_field(catalog::FLOW_IP_DST, f64::from(ft.dst.raw()));
        r.push_field(catalog::FLOW_TP_SRC, f64::from(ft.src_port));
        r.push_field(catalog::FLOW_TP_DST, f64::from(ft.dst_port));
    }
    if let Some(et) = e.match_fields.eth_type {
        r.push_field(catalog::FLOW_ETH_TYPE, f64::from(et.number()));
    }
    if let Some(p) = athena_openflow::Action::first_output(&e.actions) {
        r.push_field(catalog::FLOW_ACTION_OUTPUT_PORT, f64::from(p.raw()));
    }
    // Combination features.
    r.push_field(
        catalog::FLOW_BYTE_PER_PACKET,
        safe_div(e.byte_count as f64, e.packet_count as f64),
    );
    r.push_field(
        catalog::FLOW_PACKET_PER_DURATION,
        safe_div(e.packet_count as f64, dur),
    );
    r.push_field(
        catalog::FLOW_BYTE_PER_DURATION,
        safe_div(e.byte_count as f64, dur),
    );
    r.push_field(
        catalog::FLOW_UTILIZATION,
        safe_div(e.byte_count as f64 * 8.0, dur) / NOMINAL_CAPACITY_BPS,
    );
    // Stateful features.
    r.push_field(catalog::PAIR_FLOW, f64::from(u8::from(d.is_pair)));
    r.push_field(catalog::PAIR_FLOW_RATIO, d.pair_ratio);
    r.push_field(catalog::FLOW_APP_ID, f64::from(d.app.raw()));
    r.push_field(
        catalog::FLOW_ORIGIN_REACTIVE,
        f64::from(u8::from(!e.idle_timeout.is_zero())),
    );
    // Variation features against the previous sample.
    if let Some(p) = d.prev {
        r.push_field(
            catalog::FLOW_PACKET_COUNT_VAR,
            e.packet_count as f64 - p.packet_count as f64,
        );
        r.push_field(
            catalog::FLOW_BYTE_COUNT_VAR,
            e.byte_count as f64 - p.byte_count as f64,
        );
        r.push_field(
            catalog::FLOW_DURATION_SEC_VAR,
            e.duration_sec() as f64 - p.duration_sec as f64,
        );
        let prev_bpp = safe_div(p.byte_count as f64, p.packet_count as f64);
        r.push_field(
            catalog::FLOW_BYTE_PER_PACKET_VAR,
            safe_div(e.byte_count as f64, e.packet_count as f64) - prev_bpp,
        );
    } else {
        r.push_field(catalog::FLOW_PACKET_COUNT_VAR, e.packet_count as f64);
        r.push_field(catalog::FLOW_BYTE_COUNT_VAR, e.byte_count as f64);
        r.push_field(catalog::FLOW_DURATION_SEC_VAR, e.duration_sec() as f64);
        r.push_field(
            catalog::FLOW_BYTE_PER_PACKET_VAR,
            safe_div(e.byte_count as f64, e.packet_count as f64),
        );
    }
    r
}

/// Builds one `HOST_STATE` record.
fn build_host_record(
    from: Dpid,
    meta: MetaData,
    ip: athena_types::Ipv4Addr,
    agg: &HostAgg,
) -> FeatureRecord {
    let mut index = FeatureIndex::switch(from);
    index.host = Some(ip);
    let mut r = FeatureRecord::new(index).with_meta(meta);
    r.push_field(catalog::HOST_OUT_FLOW_COUNT, agg.out_flows as f64);
    r.push_field(catalog::HOST_IN_FLOW_COUNT, agg.in_flows as f64);
    r.push_field(catalog::HOST_TX_BYTES, agg.tx_bytes as f64);
    r.push_field(catalog::HOST_RX_BYTES, agg.rx_bytes as f64);
    r.push_field(catalog::HOST_TX_PACKETS, agg.tx_packets as f64);
    r.push_field(catalog::HOST_RX_PACKETS, agg.rx_packets as f64);
    r.push_field(catalog::HOST_FANOUT, agg.fanout.len() as f64);
    r.push_field(catalog::HOST_FANIN, agg.fanin.len() as f64);
    r.push_field(
        catalog::HOST_PAIR_RATIO,
        safe_div(agg.paired as f64, agg.out_flows as f64),
    );
    r
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
    use athena_types::{Ipv4Addr, Xid};

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
                .filter(|r| r.meta.message_type == "HOST_STATE")
                .count(),
            2
        );
        let host = records
            .iter()
            .find(|r| r.meta.message_type == "HOST_STATE")
            .unwrap();
        assert!(host.index.host.is_some());
        let r = &records[0];
        assert_eq!(r.field("FLOW_PACKET_COUNT"), Some(100.0));
        assert_eq!(r.field("FLOW_BYTE_PER_PACKET"), Some(640.0));
        assert_eq!(r.field("FLOW_PACKET_PER_DURATION"), Some(25.0));
        assert_eq!(r.field("PAIR_FLOW"), Some(0.0));
        assert_eq!(r.field("FLOW_TP_DST"), Some(80.0));
        assert!(r.meta.athena_polled);
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
            .filter(|r| r.meta.message_type == "FLOW_STATS")
            .collect();
        assert_eq!(flows.len(), 2);
        assert!(flows.iter().all(|r| r.field("PAIR_FLOW") == Some(1.0)));
        assert!(flows
            .iter()
            .all(|r| r.field("PAIR_FLOW_RATIO") == Some(1.0)));
        let sw = records
            .iter()
            .find(|r| r.meta.message_type == "SWITCH_STATE")
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
        assert_eq!(r.index.port, Some(PortNo::new(1)));
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
}
