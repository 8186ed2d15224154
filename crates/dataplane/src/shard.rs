//! The sharded tick engine for 100k-host topologies.
//!
//! [`ShardedNetwork`] runs the same flow-level simulation model as
//! [`Network`](crate::Network), restructured as a bulk-synchronous
//! per-tick pipeline over a deterministic partition of the topology:
//!
//! 1. **Expiry** — every shard advances its own hierarchical timing
//!    wheel in parallel ([`athena_parallel::par_map_take`] moves each
//!    shard into its runner and hands it back in index order), then the
//!    collected `FLOW_REMOVED`s are delivered sequentially in global
//!    dpid order.
//! 2. **Routing** — each active flow's per-tick packet walks its shard's
//!    switches with read-only lookups. A walk segment ends by delivering,
//!    failing, crossing a shard boundary (the packet re-enters the next
//!    round in its new shard), or missing in the flow table. All misses
//!    of a round are collected into **one packet-in batch**, sorted by
//!    item index, and handed to
//!    [`ControllerLink::on_packet_in_batch`] — the controller pipelines
//!    the whole batch under a single span. Rounds repeat until every
//!    packet settles.
//! 3. **Contention** — link offers are bucketed to the owning shard and
//!    every shard settles all of its links in parallel (every link
//!    settles every tick, so stochastic link-model RNG streams advance
//!    identically at any width).
//! 4. **Credit** — switch/flow counter updates replay the hops the
//!    routing phase recorded, grouped per owning shard and applied in
//!    parallel; per-flow bookkeeping then runs sequentially in item
//!    order.
//!
//! # Determinism contract
//!
//! For a fixed [`ShardPlan`], every observable output — counters, flow
//! tables, controller command streams, trace spans — is byte-identical
//! at any `ATHENA_THREADS` width: parallel phases only touch shard-local
//! state and return their results through ordered reductions, and every
//! cross-shard interaction (FLOW_REMOVED delivery, punt batches, frac
//! merging, bookkeeping) runs sequentially in a sorted order. Outputs
//! *do* depend on the plan itself: shard boundaries decide which misses
//! share a punt batch, exactly like region placement would on a real
//! distributed controller.

use crate::flow::{ActiveFlow, FlowSpec};
use crate::link::{LinkModel, SimLink};
use crate::network::NetworkCounters;
use crate::network::{apply_rewrites, via_wire, ControllerLink, ExpiryMode, NetworkConfig};
use crate::switch::SimSwitch;
use crate::topology::{HostSpec, Topology};
use crate::wheel::TimingWheel;
use athena_observe::Observe;
use athena_openflow::{Action, FlowRemoved, OfMessage, PacketHeader};
use athena_telemetry::{names, Counter, Gauge, Histogram, Telemetry};
use athena_types::{Dpid, Ipv4Addr, LinkId, PortNo, SimDuration, SimTime, Xid};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// One shard's slice of a FlowMod batch: `(command index, target
/// switch, command)` — the index restores submission order at merge.
type FlowModBucket = Vec<(usize, Dpid, athena_openflow::FlowMod)>;

/// Command batches at or above this size that are pure `FlowMod`s take
/// the per-shard parallel application path; smaller or mixed batches use
/// the sequential loop. A pure function of the batch, never of width.
const FLOW_MOD_BATCH_MIN: usize = 64;

/// Segment-stream chunk length for the parallel offer and credit
/// replays. A pure function of the stream length, never of width, so
/// chunk boundaries (and therefore replay order) are width-invariant.
const SEG_CHUNK: usize = 4096;

/// A deterministic partition of a topology's switches into shards.
///
/// Switches are sorted by dpid and split into contiguous ranges, so the
/// plan is a pure function of the topology and the shard count — never
/// of thread count, hash state, or insertion order. Each unidirectional
/// link is owned by the shard of its source switch.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    groups: Vec<Vec<Dpid>>,
}

impl ShardPlan {
    /// Splits the topology's dpid-sorted switch list into `n_shards`
    /// contiguous ranges (sizes differing by at most one). `n_shards`
    /// is clamped to `[1, switches]`.
    pub fn partition(topology: &Topology, n_shards: usize) -> Self {
        let mut dpids: Vec<Dpid> = topology.switches.iter().map(|s| s.dpid).collect();
        dpids.sort();
        let n = dpids.len();
        let k = n_shards.clamp(1, n.max(1));
        let base = n / k;
        let extra = n % k;
        let mut groups = Vec::with_capacity(k);
        let mut it = dpids.into_iter();
        for i in 0..k {
            let take = base + usize::from(i < extra);
            groups.push(it.by_ref().take(take).collect());
        }
        ShardPlan { groups }
    }

    /// The default plan: one shard per ~4 switches, capped at 16 shards
    /// (matching the pool's practical width) and floored at 1.
    pub fn auto(topology: &Topology) -> Self {
        let n = (topology.switches.len() / 4).clamp(1, 16);
        Self::partition(topology, n)
    }

    /// Number of shards in the plan.
    pub fn n_shards(&self) -> usize {
        self.groups.len()
    }

    /// The dpids assigned to shard `i` (sorted ascending).
    pub fn shard_dpids(&self, i: usize) -> &[Dpid] {
        self.groups.get(i).map_or(&[], Vec::as_slice)
    }
}

/// Immutable per-tick routing context shared (read-only) by every shard.
#[derive(Debug)]
struct RouteCtx {
    /// Unidirectional link leaving `(dpid, port)`.
    egress: HashMap<(Dpid, PortNo), LinkId>,
    /// Host-facing `(dpid, port)` pairs.
    host_ports: HashSet<(Dpid, PortNo)>,
    /// Owning shard of each switch.
    shard_of: HashMap<Dpid, usize>,
}

/// One shard: a contiguous dpid range of switches, the links they source,
/// and the shard's own expiry wheel.
#[derive(Debug)]
struct Shard {
    index: usize,
    /// Sorted by dpid, parallel to `dpids`.
    switches: Vec<SimSwitch>,
    dpids: Vec<Dpid>,
    slot_of: HashMap<Dpid, usize>,
    /// Links whose source switch lives here, sorted by id.
    links: Vec<SimLink>,
    link_slot: HashMap<LinkId, usize>,
    wheel: TimingWheel<Dpid>,
    /// Earliest outstanding wheel entry per switch (arm dedup).
    armed: HashMap<Dpid, u64>,
}

/// What one shard's expiry pass produced.
struct ExpiryOut {
    /// `(dpid, notification)` in dpid order.
    removed: Vec<(Dpid, FlowRemoved)>,
    fired: u64,
    spurious: u64,
    armed: u64,
}

/// What one shard's offer/settle pass produced.
struct SettleOut {
    /// `(link, delivered fraction)` for every link the shard owns.
    link_fracs: Vec<(LinkId, f64)>,
    queue_drop_delta: u64,
    /// Latency draws for modeled links, in link order.
    latencies: Vec<u64>,
}

/// A packet mid-walk: which item it belongs to, where it is, and how
/// much punt/hop budget remains.
#[derive(Debug, Clone)]
struct PacketState {
    item: usize,
    dpid: Dpid,
    pkt: PacketHeader,
    /// Punts already spent at the current hop (reset on movement).
    punts: usize,
    hops_left: usize,
}

/// How a walk segment ended.
enum Outcome {
    Delivered,
    Failed,
    NeedPunt(PacketState),
    Handoff(PacketState),
}

/// One shard-local walk segment's result.
struct WalkSeg {
    item: usize,
    links: Vec<LinkId>,
    hops: Vec<(Dpid, PacketHeader)>,
    outcome: Outcome,
}

/// A counter-credit operation replayed on the owning shard.
enum CreditOp {
    Flow {
        dpid: Dpid,
        pkt: PacketHeader,
        packets: u64,
        bytes: u64,
    },
    TxDrop {
        dpid: Dpid,
        port: PortNo,
        packets: u64,
    },
}

/// One per-tick unit of traffic: a flow's forward or reverse share, or a
/// new flow's activation packet.
struct TrafficItem {
    /// `None` for activation packets (credited in full, no contention).
    flow_idx: Option<usize>,
    bytes: u64,
    /// Where the packet entered the fabric (credited like a hop).
    entry: (Dpid, PacketHeader),
    delivered: bool,
}

/// One entry of the tick's segment stream: the links and hops one walk
/// segment traversed, recorded in `(round, shard index, bucket order)`
/// — a pure function of the tick's inputs, never of thread count. An
/// item's segments appear in chronological hop order (rounds are
/// appended in sequence and an item has at most one in-flight packet
/// per round), so replaying the stream item-filtered recovers each
/// packet's full path.
struct SegRec {
    item: usize,
    links: Vec<LinkId>,
    hops: Vec<(Dpid, PacketHeader)>,
}

/// Per-flow bookkeeping computed in item order after settling.
struct Book {
    flow_idx: usize,
    total: u64,
    delivered_share: u64,
    routed: bool,
}

impl Shard {
    fn switch(&self, dpid: Dpid) -> Option<&SimSwitch> {
        self.slot_of.get(&dpid).and_then(|s| self.switches.get(*s))
    }

    fn switch_mut(&mut self, dpid: Dpid) -> Option<&mut SimSwitch> {
        match self.slot_of.get(&dpid) {
            Some(s) => self.switches.get_mut(*s),
            None => None,
        }
    }

    /// Schedules an expiry wake-up at the switch's next deadline unless
    /// an earlier-or-equal one is outstanding. Returns whether a new
    /// wheel entry was created.
    fn arm(&mut self, dpid: Dpid, tick: SimDuration) -> bool {
        let Some(next) = self.switch(dpid).and_then(SimSwitch::next_expiry) else {
            return false;
        };
        // First tick boundary at or after the deadline, clamped to the
        // wheel's next firable tick so `armed` names the landed slot.
        let due = next
            .as_micros()
            .div_ceil(tick.as_micros().max(1))
            .max(self.wheel.now() + 1);
        match self.armed.get(&dpid) {
            Some(a) if *a <= due => false,
            _ => {
                self.wheel.schedule(due, dpid);
                self.armed.insert(dpid, due);
                true
            }
        }
    }

    /// The per-shard expiry phase: advance the wheel (or scan, in
    /// [`ExpiryMode::Scan`]), expire due tables, re-arm, and report the
    /// FLOW_REMOVEDs in dpid order.
    fn run_expiry(
        &mut self,
        t: SimTime,
        tick_idx: u64,
        mode: ExpiryMode,
        tick: SimDuration,
    ) -> ExpiryOut {
        let wheel_mode = mode == ExpiryMode::Wheel;
        let fired_dpids: Vec<Dpid> = if wheel_mode {
            // Every fire this tick shares the due, so the (due, key)
            // sort is a dpid sort; dedup collapses stale duplicates.
            let mut due: Vec<Dpid> = self
                .wheel
                .advance(tick_idx)
                .into_iter()
                .map(|(_, dpid)| dpid)
                .collect();
            due.dedup();
            due
        } else {
            self.dpids.clone()
        };
        let mut out = ExpiryOut {
            removed: Vec::new(),
            fired: 0,
            spurious: 0,
            armed: 0,
        };
        for dpid in fired_dpids {
            if wheel_mode && self.armed.get(&dpid) == Some(&tick_idx) {
                self.armed.remove(&dpid);
            }
            let due = self
                .switch(dpid)
                .and_then(SimSwitch::next_expiry)
                .is_some_and(|next| next <= t);
            if due {
                if wheel_mode {
                    out.fired += 1;
                }
                let removed = match self.switch_mut(dpid) {
                    Some(sw) => sw.expire(t),
                    None => Vec::new(),
                };
                for fr in removed {
                    out.removed.push((dpid, fr));
                }
            } else if wheel_mode {
                out.spurious += 1;
            }
            if wheel_mode && self.arm(dpid, tick) {
                out.armed += 1;
            }
        }
        out
    }

    /// Walks every packet in `pkts` (in order) through this shard's
    /// switches with read-only lookups, returning one segment per packet.
    fn walk_all(
        &self,
        pkts: Vec<PacketState>,
        ctx: &RouteCtx,
        now: SimTime,
        max_punt: usize,
    ) -> Vec<WalkSeg> {
        pkts.into_iter()
            .map(|st| self.walk(st, ctx, now, max_punt))
            .collect()
    }

    fn walk(&self, mut st: PacketState, ctx: &RouteCtx, now: SimTime, max_punt: usize) -> WalkSeg {
        let item = st.item;
        let mut links = Vec::new();
        let mut hops = Vec::new();
        let done = |links, hops, outcome| WalkSeg {
            item,
            links,
            hops,
            outcome,
        };
        loop {
            let Some(sw) = self.switch(st.dpid) else {
                return done(links, hops, Outcome::Failed);
            };
            let Some(actions) = sw.peek(&st.pkt, now) else {
                // Table miss: punt if budget remains at this hop.
                if st.punts < max_punt {
                    return done(links, hops, Outcome::NeedPunt(st));
                }
                return done(links, hops, Outcome::Failed);
            };
            let Some(out) = Action::first_output(&actions) else {
                return done(links, hops, Outcome::Failed); // drop rule
            };
            if out == PortNo::CONTROLLER {
                return done(links, hops, Outcome::Failed);
            }
            if let Some(link) = ctx.egress.get(&(st.dpid, out)).copied() {
                if st.hops_left == 0 {
                    return done(links, hops, Outcome::Failed); // loop guard
                }
                st.hops_left -= 1;
                st.punts = 0;
                links.push(link);
                st.pkt = apply_rewrites(&actions, st.pkt).with_in_port(link.dst_port);
                st.dpid = link.dst;
                hops.push((st.dpid, st.pkt));
                if ctx.shard_of.get(&st.dpid) != Some(&self.index) {
                    return done(links, hops, Outcome::Handoff(st));
                }
                continue;
            }
            // Host-facing port: delivered if some host sits there.
            let delivered = ctx.host_ports.contains(&(st.dpid, out));
            let outcome = if delivered {
                Outcome::Delivered
            } else {
                Outcome::Failed
            };
            return done(links, hops, outcome);
        }
    }

    /// Applies the tick's byte offers, then settles **all** of this
    /// shard's links (stochastic models advance every tick regardless of
    /// traffic). Returns fractions in link order.
    fn offers_and_settle(&mut self, offers: Vec<(LinkId, u64)>, tick: SimDuration) -> SettleOut {
        for (id, bytes) in offers {
            if let Some(slot) = self.link_slot.get(&id) {
                if let Some(link) = self.links.get_mut(*slot) {
                    link.offer(bytes);
                }
            }
        }
        let mut out = SettleOut {
            link_fracs: Vec::with_capacity(self.links.len()),
            queue_drop_delta: 0,
            latencies: Vec::new(),
        };
        for link in &mut self.links {
            let dropped_before = link.queue_dropped_bytes();
            let (frac, _) = link.settle_tick(tick);
            out.link_fracs.push((link.id, frac));
            if link.model().is_some() {
                out.queue_drop_delta += link.queue_dropped_bytes() - dropped_before;
                out.latencies.push(link.last_latency_us());
            }
        }
        out
    }

    /// Replays counter-credit operations in the given (item, hop) order.
    fn run_credits(&mut self, ops: Vec<CreditOp>, now: SimTime) {
        for op in ops {
            match op {
                CreditOp::Flow {
                    dpid,
                    pkt,
                    packets,
                    bytes,
                } => {
                    if let Some(sw) = self.switch_mut(dpid) {
                        let _ = sw.process(&pkt, now, packets, bytes);
                    }
                }
                CreditOp::TxDrop {
                    dpid,
                    port,
                    packets,
                } => {
                    if let Some(sw) = self.switch_mut(dpid) {
                        sw.count_tx_drop(port, packets);
                    }
                }
            }
        }
    }
}

/// The sharded engine's telemetry instruments (detached until
/// [`ShardedNetwork::bind_telemetry`]).
#[derive(Debug, Default)]
struct ScaleTelemetry {
    step_ns: Histogram,
    packet_ins: Counter,
    flow_removeds: Counter,
    delivered_bytes: Counter,
    dropped_bytes: Counter,
    links_degraded: Gauge,
    switch_reboots: Counter,
    link_queue_drops: Counter,
    link_latency_us: Histogram,
    wheel_armed: Counter,
    wheel_fired: Counter,
    wheel_spurious: Counter,
    shards: Gauge,
    ticks: Counter,
    punt_batches: Counter,
    batched_packet_ins: Counter,
    cross_shard_handoffs: Counter,
    routing_rounds: Counter,
    handle: Option<Telemetry>,
}

/// The sharded, batched network engine. See the [module docs](self) for
/// the phase pipeline and the determinism contract.
#[derive(Debug)]
pub struct ShardedNetwork {
    topology: Topology,
    config: NetworkConfig,
    plan: ShardPlan,
    shards: Vec<Shard>,
    ctx: Arc<RouteCtx>,
    /// `hosts[i]` by IP — first match wins, like a linear scan.
    host_index: HashMap<Ipv4Addr, usize>,
    pending: Vec<FlowSpec>, // sorted by start time, descending
    active: Vec<ActiveFlow>,
    now: SimTime,
    counters: NetworkCounters,
    next_xid: u32,
    tel: ScaleTelemetry,
    observe: Observe,
}

impl ShardedNetwork {
    /// Builds a sharded network with the default configuration and the
    /// [`ShardPlan::auto`] partition.
    pub fn new(topology: Topology) -> Self {
        let plan = ShardPlan::auto(&topology);
        Self::with_plan(topology, NetworkConfig::default(), plan)
    }

    /// Builds a sharded network with an explicit configuration and the
    /// [`ShardPlan::auto`] partition.
    pub fn with_config(topology: Topology, config: NetworkConfig) -> Self {
        let plan = ShardPlan::auto(&topology);
        Self::with_plan(topology, config, plan)
    }

    /// Builds a sharded network with an explicit configuration and plan.
    pub fn with_plan(topology: Topology, config: NetworkConfig, plan: ShardPlan) -> Self {
        let mut shard_of = HashMap::new();
        for (i, group) in plan.groups.iter().enumerate() {
            for dpid in group {
                shard_of.insert(*dpid, i);
            }
        }
        let mut n_ports_of = HashMap::new();
        for s in &topology.switches {
            n_ports_of.insert(s.dpid, s.n_ports);
        }
        let mut egress = HashMap::new();
        let mut links_by_shard: Vec<Vec<SimLink>> =
            (0..plan.n_shards()).map(|_| Vec::new()).collect();
        for l in &topology.links {
            let fwd = LinkId::new(l.a.0, l.a.1, l.b.0, l.b.1);
            let rev = fwd.reversed();
            // First match wins, like Topology::link_from's scan.
            egress.entry(l.a).or_insert(fwd);
            egress.entry(l.b).or_insert(rev);
            for id in [fwd, rev] {
                if let Some(si) = shard_of.get(&id.src) {
                    if let Some(bucket) = links_by_shard.get_mut(*si) {
                        bucket.push(SimLink::new(id, l.capacity_bps));
                    }
                }
            }
        }
        let mut host_index = HashMap::new();
        let mut host_ports = HashSet::new();
        for (i, h) in topology.hosts.iter().enumerate() {
            host_index.entry(h.ip).or_insert(i);
            host_ports.insert((h.switch, h.port));
        }
        let mut shards = Vec::with_capacity(plan.n_shards());
        for (i, group) in plan.groups.iter().enumerate() {
            let mut links = links_by_shard
                .get_mut(i)
                .map(std::mem::take)
                .unwrap_or_default();
            links.sort_by_key(|l| l.id);
            links.dedup_by_key(|l| l.id);
            let mut slot_of = HashMap::new();
            let mut switches = Vec::with_capacity(group.len());
            for (slot, dpid) in group.iter().enumerate() {
                let n_ports = n_ports_of.get(dpid).copied().unwrap_or(0);
                switches.push(SimSwitch::new(*dpid, n_ports));
                slot_of.insert(*dpid, slot);
            }
            let mut link_slot = HashMap::new();
            for (slot, l) in links.iter().enumerate() {
                link_slot.insert(l.id, slot);
            }
            shards.push(Shard {
                index: i,
                switches,
                dpids: group.clone(),
                slot_of,
                links,
                link_slot,
                wheel: TimingWheel::new(0),
                armed: HashMap::new(),
            });
        }
        ShardedNetwork {
            topology,
            config,
            plan,
            shards,
            ctx: Arc::new(RouteCtx {
                egress,
                host_ports,
                shard_of,
            }),
            host_index,
            pending: Vec::new(),
            active: Vec::new(),
            now: SimTime::ZERO,
            counters: NetworkCounters::default(),
            next_xid: 1,
            tel: ScaleTelemetry::default(),
            observe: Observe::disabled(),
        }
    }

    /// The partition this engine runs on.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The network's topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The simulator configuration.
    pub fn config(&self) -> NetworkConfig {
        self.config
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Counters accumulated so far.
    pub fn counters(&self) -> NetworkCounters {
        self.counters
    }

    /// Total bytes delivered end-to-end.
    pub fn delivered_bytes(&self) -> u64 {
        self.counters.delivered_bytes
    }

    /// Immutable access to a switch.
    pub fn switch(&self, dpid: Dpid) -> Option<&SimSwitch> {
        let si = self.ctx.shard_of.get(&dpid)?;
        self.shards.get(*si)?.switch(dpid)
    }

    /// Flows currently active.
    pub fn active_flows(&self) -> &[ActiveFlow] {
        &self.active
    }

    /// Routes counters and per-tick latency into `tel` (and the
    /// per-switch lookup instruments of every shard's switches).
    pub fn bind_telemetry(&mut self, tel: &Telemetry) {
        for shard in &mut self.shards {
            for sw in &mut shard.switches {
                sw.bind_telemetry(tel);
            }
        }
        let m = tel.metrics();
        let dp = names::dataplane::SUBSYSTEM;
        let sc = names::scale::SUBSYSTEM;
        self.tel = ScaleTelemetry {
            step_ns: m.histogram(sc, names::scale::STEP_NS),
            packet_ins: m.counter(dp, names::dataplane::PACKET_INS),
            flow_removeds: m.counter(dp, names::dataplane::FLOW_REMOVEDS),
            delivered_bytes: m.counter(dp, names::dataplane::DELIVERED_BYTES),
            dropped_bytes: m.counter(dp, names::dataplane::DROPPED_BYTES),
            links_degraded: m.gauge(dp, names::dataplane::LINKS_DEGRADED),
            switch_reboots: m.counter(dp, names::dataplane::SWITCH_REBOOTS),
            link_queue_drops: m.counter(dp, names::dataplane::LINK_QUEUE_DROPS),
            link_latency_us: m.histogram(dp, names::dataplane::LINK_LATENCY_US),
            wheel_armed: m.counter(dp, names::dataplane::WHEEL_ARMED),
            wheel_fired: m.counter(dp, names::dataplane::WHEEL_FIRED),
            wheel_spurious: m.counter(dp, names::dataplane::WHEEL_SPURIOUS),
            shards: m.gauge(sc, names::scale::SHARDS),
            ticks: m.counter(sc, names::scale::TICKS),
            punt_batches: m.counter(sc, names::scale::PUNT_BATCHES),
            batched_packet_ins: m.counter(sc, names::scale::BATCHED_PACKET_INS),
            cross_shard_handoffs: m.counter(sc, names::scale::CROSS_SHARD_HANDOFFS),
            routing_rounds: m.counter(sc, names::scale::ROUTING_ROUNDS),
            handle: Some(tel.clone()),
        };
        self.tel
            .shards
            .set(i64::try_from(self.shards.len()).unwrap_or(i64::MAX));
    }

    /// Routes causal spans and per-tick sample/alert evaluation into
    /// `obs` (the engine drives the observe clock, like `Network`).
    pub fn bind_observe(&mut self, obs: &Observe) {
        self.observe = obs.clone();
    }

    /// Simulates a switch losing its flow state. Returns entries lost.
    pub fn wipe_switch(&mut self, dpid: Dpid) -> usize {
        let now = self.now;
        match self.switch_mut(dpid) {
            Some(sw) => {
                let n = sw.flow_count();
                let _ = sw.clear_flows(now);
                n
            }
            None => 0,
        }
    }

    /// Simulates a full switch reboot (flow state and port counters
    /// lost). Returns flow entries lost.
    pub fn reboot_switch(&mut self, dpid: Dpid) -> usize {
        let now = self.now;
        match self.switch_mut(dpid) {
            Some(sw) => {
                let n = sw.reboot(now);
                self.tel.switch_reboots.inc();
                n
            }
            None => 0,
        }
    }

    /// Sets the effective-capacity factor of every link direction between
    /// `a` and `b` (0.0 down, (0,1) degraded, 1.0 restored). Returns the
    /// number of link directions affected.
    pub fn set_link_state(&mut self, a: Dpid, b: Dpid, factor: f64) -> usize {
        let mut n = 0;
        let mut degraded = 0usize;
        for shard in &mut self.shards {
            for link in &mut shard.links {
                let fwd = link.id.src == a && link.id.dst == b;
                let rev = link.id.src == b && link.id.dst == a;
                if fwd || rev {
                    link.set_capacity_factor(factor);
                    n += 1;
                }
                if link.capacity_factor() < 1.0 {
                    degraded += 1;
                }
            }
        }
        self.tel
            .links_degraded
            .set(i64::try_from(degraded).unwrap_or(i64::MAX));
        n
    }

    /// Installs the stochastic `model` on every link direction, seeded
    /// from `seed` mixed with each link's stable identity.
    pub fn set_link_model(&mut self, model: LinkModel, seed: u64) -> usize {
        let mut n = 0;
        for shard in &mut self.shards {
            for link in &mut shard.links {
                link.set_model(model, seed);
                n += 1;
            }
        }
        n
    }

    /// Schedules flows for injection.
    pub fn inject_flows(&mut self, flows: impl IntoIterator<Item = FlowSpec>) {
        self.pending.extend(flows);
        self.pending.sort_by_key(|f| std::cmp::Reverse(f.start));
    }

    /// Runs the simulation until `until`.
    pub fn run_until(&mut self, until: SimTime, ctrl: &mut impl ControllerLink) {
        let run_start = self.now;
        let run_span = self
            .tel
            .handle
            .as_ref()
            .map(|tel| tel.tracer().span("dataplane", "run_until", run_start));
        let mut ticks: u64 = 0;
        while self.now < until {
            self.step(ctrl);
            ticks += 1;
        }
        self.flush_gauges();
        if let (Some(span), Some(tel)) = (run_span, &self.tel.handle) {
            tel.tracer()
                .end_span(span, self.now, format!("{ticks} ticks"));
        }
    }

    /// Publishes the per-switch table gauges now (done automatically at
    /// the end of every [`ShardedNetwork::run_until`]).
    pub fn flush_gauges(&self) {
        let Some(tel) = &self.tel.handle else {
            return;
        };
        if !tel.is_enabled() {
            return;
        }
        let m = tel.metrics();
        let sub = names::dataplane::SUBSYSTEM;
        for shard in &self.shards {
            for sw in &shard.switches {
                let instance = format!("s{}", sw.dpid().raw());
                let table = sw.table();
                m.gauge_with(sub, names::dataplane::TABLE_LOOKUPS, &instance)
                    .set(i64::try_from(table.lookup_count()).unwrap_or(i64::MAX));
                m.gauge_with(sub, names::dataplane::TABLE_MATCHES, &instance)
                    .set(i64::try_from(table.matched_count()).unwrap_or(i64::MAX));
            }
        }
    }

    /// Advances the simulation by exactly one tick through the sharded
    /// phase pipeline (see the [module docs](self)).
    pub fn step(&mut self, ctrl: &mut impl ControllerLink) {
        let before = self.counters;
        let step_timer = self.tel.step_ns.start_timer();
        let t = self.now + self.config.tick;
        self.now = t;
        let tick_idx = t.as_micros().div_ceil(self.config.tick.as_micros().max(1));

        // Phase 1: per-shard expiry in parallel, FLOW_REMOVED delivery
        // sequential in global dpid order (shards are contiguous sorted
        // ranges, so shard order *is* dpid order).
        let mode = self.config.expiry;
        let tick = self.config.tick;
        let shards = std::mem::take(&mut self.shards);
        let results = athena_parallel::par_map_take(shards, move |mut s| {
            let out = s.run_expiry(t, tick_idx, mode, tick);
            (s, out)
        });
        let mut removed: Vec<(Dpid, FlowRemoved)> = Vec::new();
        let (mut fired, mut spurious, mut armed) = (0u64, 0u64, 0u64);
        for (s, out) in results {
            self.shards.push(s);
            fired += out.fired;
            spurious += out.spurious;
            armed += out.armed;
            removed.extend(out.removed);
        }
        self.tel.wheel_fired.add(fired);
        self.tel.wheel_spurious.add(spurious);
        self.tel.wheel_armed.add(armed);
        let wire = self.config.wire_mode;
        for (dpid, fr) in removed {
            self.counters.flow_removeds += 1;
            let xid = self.fresh_xid();
            let msg = via_wire(OfMessage::FlowRemoved { xid, body: fr }, wire);
            let cmds = ctrl.on_message(dpid, msg, t);
            self.apply_commands(cmds, ctrl);
        }

        // Phase 2: activate due flows — their first packet joins the
        // batched routing phase as a full-credit item.
        let mut items: Vec<TrafficItem> = Vec::new();
        let mut entries: Vec<(Dpid, PacketHeader)> = Vec::new();
        while let Some(spec) = self.pending.pop_if(|f| f.start <= t) {
            if let Some(src) = self.host_by_ip(spec.five_tuple.src) {
                let header = spec.header(src.port);
                items.push(TrafficItem {
                    flow_idx: None,
                    bytes: u64::from(spec.packet_size),
                    entry: (src.switch, header),
                    delivered: false,
                });
                entries.push((src.switch, header));
            }
            self.active.push(ActiveFlow::new(spec));
        }

        // Phase 3: controller's own tick (stats polling etc.).
        let cmds = ctrl.on_tick(t);
        self.apply_commands(cmds, ctrl);

        // Phase 4: per-flow traffic items.
        let specs: Vec<(usize, FlowSpec)> = self
            .active
            .iter()
            .enumerate()
            .filter(|(_, f)| f.spec.start < t && f.spec.end_time() >= t)
            .map(|(i, f)| (i, f.spec))
            .collect();
        for (idx, spec) in specs {
            let fwd_bytes = spec.bytes_per(tick);
            if fwd_bytes > 0 {
                if let Some(src) = self.host_by_ip(spec.five_tuple.src) {
                    let header = spec.header(src.port);
                    items.push(TrafficItem {
                        flow_idx: Some(idx),
                        bytes: fwd_bytes,
                        entry: (src.switch, header),
                        delivered: false,
                    });
                    entries.push((src.switch, header));
                }
            }
            if spec.reverse_ratio > 0.0 {
                let rev_bytes = (fwd_bytes as f64 * spec.reverse_ratio) as u64;
                if rev_bytes > 0 {
                    if let Some(dst) = self.host_by_ip(spec.five_tuple.dst) {
                        let header = spec.reverse_header(dst.port);
                        items.push(TrafficItem {
                            flow_idx: Some(idx),
                            bytes: rev_bytes,
                            entry: (dst.switch, header),
                            delivered: false,
                        });
                        entries.push((dst.switch, header));
                    }
                }
            }
        }

        // Phase 5: batched routing rounds.
        let (rounds, handoffs, stream) = self.route_items(&mut items, entries, ctrl);
        self.tel.routing_rounds.add(rounds);
        self.tel.cross_shard_handoffs.add(handoffs);

        // Phase 6: per-shard link offers + settle in parallel. Every
        // link settles every tick, so RNG streams are width-invariant.
        // Offers replay the segment stream in fixed-size chunks mapped
        // in parallel: per-link byte totals are sums, so any
        // width-invariant order works, and chunk boundaries depend only
        // on the stream length — never on thread count.
        let n_shards = self.shards.len();
        let stream = Arc::new(stream);
        let ranges: Vec<(usize, usize)> = (0..stream.len())
            .step_by(SEG_CHUNK)
            .map(|s| (s, (s + SEG_CHUNK).min(stream.len())))
            .collect();
        // Bytes each item offers per traversed link; 0 skips (activation
        // packets don't contend).
        let offer_bytes: Arc<Vec<u64>> = Arc::new(
            items
                .iter()
                .map(|it| if it.flow_idx.is_some() { it.bytes } else { 0 })
                .collect(),
        );
        let mut offers: Vec<Vec<(LinkId, u64)>> = (0..n_shards).map(|_| Vec::new()).collect();
        {
            let stream = Arc::clone(&stream);
            let ctx = Arc::clone(&self.ctx);
            let chunks = athena_parallel::par_map(ranges.clone(), move |&(s, e)| {
                let mut buckets: Vec<Vec<(LinkId, u64)>> =
                    (0..n_shards).map(|_| Vec::new()).collect();
                for rec in stream.get(s..e).unwrap_or(&[]) {
                    let bytes = offer_bytes.get(rec.item).copied().unwrap_or(0);
                    if bytes == 0 {
                        continue;
                    }
                    for l in &rec.links {
                        if let Some(si) = ctx.shard_of.get(&l.src) {
                            if let Some(bucket) = buckets.get_mut(*si) {
                                bucket.push((*l, bytes));
                            }
                        }
                    }
                }
                buckets
            });
            for mut chunk in chunks {
                for (si, bucket) in chunk.iter_mut().enumerate() {
                    if let Some(dst) = offers.get_mut(si) {
                        dst.append(bucket);
                    }
                }
            }
        }
        let shards = std::mem::take(&mut self.shards);
        let jobs: Vec<(Shard, Vec<(LinkId, u64)>)> = shards.into_iter().zip(offers).collect();
        let results = athena_parallel::par_map_take(jobs, move |(mut s, o)| {
            let out = s.offers_and_settle(o, tick);
            (s, out)
        });
        let mut frac_of: HashMap<LinkId, f64> = HashMap::new();
        let mut queue_drops = 0u64;
        for (s, out) in results {
            self.shards.push(s);
            queue_drops += out.queue_drop_delta;
            for lat in out.latencies {
                self.tel.link_latency_us.record(lat);
            }
            for (id, frac) in out.link_fracs {
                frac_of.insert(id, frac);
            }
        }
        if queue_drops > 0 {
            self.tel.link_queue_drops.add(queue_drops);
        }

        // Phase 7: credit replay per shard in parallel, then per-flow
        // bookkeeping sequentially in item order. Credit ops are all
        // commutative counter adds sharing one timestamp, so the bucket
        // order only has to be width-invariant, not item-major: entry
        // credits, drops, and bookkeeping go item-major; per-hop credits
        // replay the segment stream. The delivered fraction multiplies
        // link fracs in exact hop order (stream order restricted to one
        // item *is* its hop order), keeping f64 rounding identical to a
        // per-item walk.
        let mut frac_acc: Vec<f64> = vec![1.0; items.len()];
        let mut congested_of: Vec<Option<LinkId>> = vec![None; items.len()];
        for rec in stream.iter() {
            let Some(fa) = frac_acc.get_mut(rec.item) else {
                continue;
            };
            for l in &rec.links {
                let f = frac_of.get(l).copied().unwrap_or(1.0);
                *fa *= f;
                if f < 1.0 {
                    if let Some(c) = congested_of.get_mut(rec.item) {
                        if c.is_none() {
                            *c = Some(*l);
                        }
                    }
                }
            }
        }
        let mut ops: Vec<Vec<CreditOp>> = (0..n_shards).map(|_| Vec::new()).collect();
        let mut books: Vec<Book> = Vec::new();
        // `(packets, bytes)` each of the item's hops is credited with;
        // `None` skips the item (its flow vanished mid-tick).
        let mut creds: Vec<Option<(u64, u64)>> = Vec::with_capacity(items.len());
        for (i, it) in items.iter().enumerate() {
            match it.flow_idx {
                None => creds.push(Some((1, it.bytes))),
                Some(fi) => {
                    let frac = frac_acc.get(i).copied().unwrap_or(1.0);
                    let delivered_share = (it.bytes as f64 * frac) as u64;
                    let dropped = it.bytes - delivered_share;
                    let Some(spec) = self.active.get(fi).map(|f| f.spec) else {
                        creds.push(None);
                        continue;
                    };
                    let packets = spec.packets_for(delivered_share.max(1));
                    creds.push(Some((packets, delivered_share)));
                    if dropped > 0 {
                        if let Some(congested) = congested_of.get(i).copied().flatten() {
                            if let Some(si) = self.ctx.shard_of.get(&congested.src) {
                                if let Some(bucket) = ops.get_mut(*si) {
                                    bucket.push(CreditOp::TxDrop {
                                        dpid: congested.src,
                                        port: congested.src_port,
                                        packets: spec.packets_for(dropped),
                                    });
                                }
                            }
                        }
                    }
                    books.push(Book {
                        flow_idx: fi,
                        total: it.bytes,
                        delivered_share,
                        routed: it.delivered,
                    });
                }
            }
            // The entry switch is credited like a hop.
            if let Some((packets, bytes)) = creds.last().copied().flatten() {
                let (dpid, pkt) = it.entry;
                if let Some(si) = self.ctx.shard_of.get(&dpid) {
                    if let Some(bucket) = ops.get_mut(*si) {
                        bucket.push(CreditOp::Flow {
                            dpid,
                            pkt,
                            packets,
                            bytes,
                        });
                    }
                }
            }
        }
        {
            let stream = Arc::clone(&stream);
            let ctx = Arc::clone(&self.ctx);
            let creds = Arc::new(creds);
            let chunks = athena_parallel::par_map(ranges, move |&(s, e)| {
                let mut buckets: Vec<Vec<CreditOp>> = (0..n_shards).map(|_| Vec::new()).collect();
                for rec in stream.get(s..e).unwrap_or(&[]) {
                    let Some((packets, bytes)) = creds.get(rec.item).copied().flatten() else {
                        continue;
                    };
                    for (dpid, pkt) in &rec.hops {
                        if let Some(si) = ctx.shard_of.get(dpid) {
                            if let Some(bucket) = buckets.get_mut(*si) {
                                bucket.push(CreditOp::Flow {
                                    dpid: *dpid,
                                    pkt: *pkt,
                                    packets,
                                    bytes,
                                });
                            }
                        }
                    }
                }
                buckets
            });
            for mut chunk in chunks {
                for (si, bucket) in chunk.iter_mut().enumerate() {
                    if let Some(dst) = ops.get_mut(si) {
                        dst.append(bucket);
                    }
                }
            }
        }
        let shards = std::mem::take(&mut self.shards);
        let jobs: Vec<(Shard, Vec<CreditOp>)> = shards.into_iter().zip(ops).collect();
        self.shards = athena_parallel::par_map_take(jobs, move |(mut s, o)| {
            s.run_credits(o, t);
            s
        });
        for b in books {
            let dropped = b.total - b.delivered_share;
            let Some(f) = self.active.get_mut(b.flow_idx) else {
                continue;
            };
            f.last_tick_routed = b.routed;
            if b.routed {
                f.delivered_bytes += b.delivered_share;
                f.dropped_bytes += dropped;
                self.counters.delivered_bytes += b.delivered_share;
                self.counters.dropped_bytes += dropped;
            } else {
                f.dropped_bytes += b.total;
                self.counters.dropped_bytes += b.total;
            }
        }

        // Phase 8: retire finished flows, mirror counters, tick observe.
        self.active.retain(|f| f.spec.end_time() > t);
        step_timer.observe(&self.tel.step_ns);
        self.tel
            .packet_ins
            .add(self.counters.packet_ins - before.packet_ins);
        self.tel
            .flow_removeds
            .add(self.counters.flow_removeds - before.flow_removeds);
        self.tel
            .delivered_bytes
            .add(self.counters.delivered_bytes - before.delivered_bytes);
        self.tel
            .dropped_bytes
            .add(self.counters.dropped_bytes - before.dropped_bytes);
        self.tel.ticks.inc();
        self.observe.on_tick(t);
    }

    /// The batched routing phase: rounds of parallel shard-local walks,
    /// with one pipeline-processed packet-in batch per round and
    /// cross-shard handoffs continuing in the next round.
    fn route_items(
        &mut self,
        items: &mut [TrafficItem],
        entries: Vec<(Dpid, PacketHeader)>,
        ctrl: &mut impl ControllerLink,
    ) -> (u64, u64, Vec<SegRec>) {
        let mut stream: Vec<SegRec> = Vec::new();
        let max_punt = self.config.max_punt_retries;
        let hop_budget = self.ctx.shard_of.len() + 2;
        let now = self.now;
        let n_shards = self.shards.len();
        let mut pkts: Vec<PacketState> = entries
            .into_iter()
            .enumerate()
            .map(|(item, (dpid, pkt))| PacketState {
                item,
                dpid,
                pkt,
                punts: 0,
                hops_left: hop_budget,
            })
            .collect();
        let mut rounds = 0u64;
        let mut handoffs = 0u64;
        while !pkts.is_empty() {
            rounds += 1;
            // Bucket by shard; item order is preserved within a bucket,
            // and the merge below walks shards in index order, so the
            // round's output order is a pure function of its input.
            let mut buckets: Vec<Vec<PacketState>> = (0..n_shards).map(|_| Vec::new()).collect();
            for st in pkts.drain(..) {
                if let Some(si) = self.ctx.shard_of.get(&st.dpid) {
                    if let Some(b) = buckets.get_mut(*si) {
                        b.push(st);
                    }
                }
            }
            let ctx = Arc::clone(&self.ctx);
            let shards = std::mem::take(&mut self.shards);
            let jobs: Vec<(Shard, Vec<PacketState>)> = shards.into_iter().zip(buckets).collect();
            let results = athena_parallel::par_map_take(jobs, move |(s, b)| {
                let segs = s.walk_all(b, &ctx, now, max_punt);
                (s, segs)
            });
            let mut punts: Vec<PacketState> = Vec::new();
            for (s, segs) in results {
                self.shards.push(s);
                for seg in segs {
                    let WalkSeg {
                        item,
                        links,
                        hops,
                        outcome,
                    } = seg;
                    if !links.is_empty() || !hops.is_empty() {
                        // Moved in whole: the merge never copies hops.
                        stream.push(SegRec { item, links, hops });
                    }
                    match outcome {
                        Outcome::Delivered => {
                            if let Some(it) = items.get_mut(item) {
                                it.delivered = true;
                            }
                        }
                        Outcome::Failed => {}
                        Outcome::NeedPunt(st) => punts.push(st),
                        Outcome::Handoff(st) => {
                            handoffs += 1;
                            pkts.push(st);
                        }
                    }
                }
            }
            if !punts.is_empty() {
                // One batch per round: xids assigned in item order, one
                // span for the whole batch, commands applied in the
                // order the controller returned them.
                punts.sort_by_key(|s| s.item);
                let n = punts.len() as u64;
                self.counters.packet_ins += n;
                let wire = self.config.wire_mode;
                let mut batch = Vec::with_capacity(punts.len());
                for st in &punts {
                    let xid = self.fresh_xid();
                    batch.push((st.dpid, via_wire(OfMessage::packet_in(xid, st.pkt), wire)));
                }
                let span = self.observe.span_at("dataplane", "packet_in_batch", now);
                let cmds = ctrl.on_packet_in_batch(batch, now);
                self.apply_commands(cmds, ctrl);
                span.finish(format_args!("{n} packet-ins"));
                self.tel.punt_batches.inc();
                self.tel.batched_packet_ins.add(n);
                for mut st in punts {
                    st.punts += 1;
                    pkts.push(st);
                }
            }
            // Deterministic next-round order (each item has at most one
            // in-flight packet, so the item index is a unique key).
            pkts.sort_by_key(|s| s.item);
        }
        (rounds, handoffs, stream)
    }

    /// The host (if any) owning `ip`, via the constructed-once index.
    fn host_by_ip(&self, ip: Ipv4Addr) -> Option<HostSpec> {
        self.host_index
            .get(&ip)
            .and_then(|i| self.topology.hosts.get(*i))
            .copied()
    }

    fn switch_mut(&mut self, dpid: Dpid) -> Option<&mut SimSwitch> {
        let si = self.ctx.shard_of.get(&dpid).copied()?;
        self.shards.get_mut(si)?.switch_mut(dpid)
    }

    fn fresh_xid(&mut self) -> Xid {
        self.next_xid = self.next_xid.wrapping_add(1);
        Xid::new(self.next_xid)
    }

    /// Re-arms `dpid`'s shard wheel after its table may have gained an
    /// earlier deadline.
    fn arm_switch(&mut self, dpid: Dpid) {
        if self.config.expiry == ExpiryMode::Scan {
            return;
        }
        let tick = self.config.tick;
        let Some(si) = self.ctx.shard_of.get(&dpid).copied() else {
            return;
        };
        let Some(shard) = self.shards.get_mut(si) else {
            return;
        };
        if shard.arm(dpid, tick) {
            self.tel.wheel_armed.inc();
        }
    }

    /// Full-credit sequential walk for PACKET_OUT injection (follows the
    /// tables' current actions, like `Network::credit_path`).
    fn credit_walk(&mut self, entry: Dpid, header: PacketHeader, packets: u64, bytes: u64) {
        let now = self.now;
        let mut dpid = entry;
        let mut pkt = header;
        let max_hops = self.ctx.shard_of.len() + 2;
        for _ in 0..max_hops {
            let Some(sw) = self.switch_mut(dpid) else {
                return;
            };
            let Some(actions) = sw.process(&pkt, now, packets, bytes) else {
                return;
            };
            let Some(out) = Action::first_output(&actions) else {
                return;
            };
            let Some(link) = self.ctx.egress.get(&(dpid, out)).copied() else {
                return;
            };
            dpid = link.dst;
            pkt = apply_rewrites(&actions, pkt).with_in_port(link.dst_port);
        }
    }

    /// Applies controller commands; replies are fed back, bounded to
    /// avoid livelock (mirrors `Network::apply_commands`).
    fn apply_commands(
        &mut self,
        mut commands: Vec<(Dpid, OfMessage)>,
        ctrl: &mut impl ControllerLink,
    ) {
        let now = self.now;
        let wire = self.config.wire_mode;
        let mut depth = 0;
        while !commands.is_empty() && depth < 8 {
            depth += 1;
            let decoded: Vec<(Dpid, OfMessage)> = commands
                .drain(..)
                .map(|(dpid, msg)| (dpid, via_wire(msg, wire)))
                .collect();
            // Large all-FlowMod batches (a punt batch's install burst)
            // apply per shard in parallel; anything mixed falls through
            // to the order-sensitive sequential loop.
            if decoded.len() >= FLOW_MOD_BATCH_MIN
                && decoded
                    .iter()
                    .all(|(_, m)| matches!(m, OfMessage::FlowMod { .. }))
            {
                commands = self.apply_flow_mod_batch(decoded, ctrl);
                continue;
            }
            let mut replies: Vec<(Dpid, OfMessage)> = Vec::new();
            for (dpid, msg) in decoded {
                match msg {
                    OfMessage::FlowMod { body, .. } => {
                        let removed = match self.switch_mut(dpid) {
                            Some(sw) => sw.apply_flow_mod(&body, now),
                            None => continue,
                        };
                        for fr in removed {
                            self.counters.flow_removeds += 1;
                            let xid = self.fresh_xid();
                            let reply = via_wire(OfMessage::FlowRemoved { xid, body: fr }, wire);
                            replies.extend(ctrl.on_message(dpid, reply, now));
                        }
                        // The mod may have introduced an earlier
                        // deadline: schedule its wake-up.
                        self.arm_switch(dpid);
                    }
                    OfMessage::PacketOut { body, .. } => {
                        let bytes = u64::from(body.header.byte_len);
                        if let Some(out) = Action::first_output(&body.actions) {
                            let pkt = body.header.with_in_port(PortNo::CONTROLLER);
                            if let Some(link) = self.ctx.egress.get(&(dpid, out)).copied() {
                                let next =
                                    apply_rewrites(&body.actions, pkt).with_in_port(link.dst_port);
                                self.credit_walk(link.dst, next, 1, bytes);
                            }
                        }
                    }
                    OfMessage::StatsRequest { xid, body } => {
                        if let Some(sw) = self.switch(dpid) {
                            let reply = sw.stats(&body, now);
                            let reply = via_wire(OfMessage::StatsReply { xid, body: reply }, wire);
                            let span = self.observe.span_at("dataplane", "stats_reply", now);
                            replies.extend(ctrl.on_message(dpid, reply, now));
                            span.finish(format_args!("dpid={}", dpid.raw()));
                        }
                    }
                    OfMessage::EchoRequest { xid, data } => {
                        replies.extend(ctrl.on_message(
                            dpid,
                            OfMessage::EchoReply { xid, data },
                            now,
                        ));
                    }
                    OfMessage::BarrierRequest { xid } => {
                        replies.extend(ctrl.on_message(dpid, OfMessage::BarrierReply { xid }, now));
                    }
                    OfMessage::FeaturesRequest { xid } => {
                        if let Some(sw) = self.switch(dpid) {
                            let body = athena_openflow::FeaturesReply {
                                dpid,
                                n_tables: 1,
                                ports: sw.port_numbers(),
                            };
                            replies.extend(ctrl.on_message(
                                dpid,
                                OfMessage::FeaturesReply { xid, body },
                                now,
                            ));
                        }
                    }
                    _ => {}
                }
            }
            commands = replies;
        }
    }

    /// Applies an all-`FlowMod` command batch per shard in parallel —
    /// switches are disjoint across shards and per-shard command order
    /// is preserved, so the resulting tables, wheel arms, and the
    /// FLOW_REMOVED reply stream (merged back into command order) are
    /// byte-identical to the sequential loop at any width.
    fn apply_flow_mod_batch(
        &mut self,
        cmds: Vec<(Dpid, OfMessage)>,
        ctrl: &mut impl ControllerLink,
    ) -> Vec<(Dpid, OfMessage)> {
        let now = self.now;
        let wire = self.config.wire_mode;
        let mode = self.config.expiry;
        let tick = self.config.tick;
        let n_shards = self.shards.len();
        let mut buckets: Vec<Vec<(usize, Dpid, athena_openflow::FlowMod)>> =
            (0..n_shards).map(|_| Vec::new()).collect();
        for (i, (dpid, msg)) in cmds.into_iter().enumerate() {
            let OfMessage::FlowMod { body, .. } = msg else {
                continue;
            };
            if let Some(si) = self.ctx.shard_of.get(&dpid) {
                if let Some(b) = buckets.get_mut(*si) {
                    b.push((i, dpid, body));
                }
            }
        }
        let shards = std::mem::take(&mut self.shards);
        let jobs: Vec<(Shard, FlowModBucket)> = shards.into_iter().zip(buckets).collect();
        let results = athena_parallel::par_map_take(jobs, move |(mut s, cmds)| {
            let mut removed: Vec<(usize, Dpid, FlowRemoved)> = Vec::new();
            let mut armed = 0u64;
            for (i, dpid, body) in cmds {
                let frs = match s.switch_mut(dpid) {
                    Some(sw) => sw.apply_flow_mod(&body, now),
                    None => continue,
                };
                for fr in frs {
                    removed.push((i, dpid, fr));
                }
                // The mod may have introduced an earlier deadline.
                if mode != ExpiryMode::Scan && s.arm(dpid, tick) {
                    armed += 1;
                }
            }
            (s, removed, armed)
        });
        let mut removed: Vec<(usize, Dpid, FlowRemoved)> = Vec::new();
        let mut armed = 0u64;
        for (s, r, a) in results {
            self.shards.push(s);
            removed.extend(r);
            armed += a;
        }
        self.tel.wheel_armed.add(armed);
        // Stable sort: removals within one command keep their order.
        removed.sort_by_key(|(i, _, _)| *i);
        let mut replies: Vec<(Dpid, OfMessage)> = Vec::new();
        for (_, dpid, fr) in removed {
            self.counters.flow_removeds += 1;
            let xid = self.fresh_xid();
            let reply = via_wire(OfMessage::FlowRemoved { xid, body: fr }, wire);
            replies.extend(ctrl.on_message(dpid, reply, now));
        }
        replies
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::LearningControllerStub;
    use crate::Network;
    use athena_types::{FiveTuple, HostId};

    fn stub_for(topo: &Topology) -> LearningControllerStub {
        // The stub only needs the topology; borrow a throwaway Network.
        LearningControllerStub::new(&Network::new(topo.clone()))
    }

    fn flows_on(topo: &Topology, n: usize, seed: u64) -> Vec<FlowSpec> {
        // benign_mix_on draws src/dst from the topology's real hosts.
        crate::workload::benign_mix_on(topo, n, SimDuration::from_secs(10), seed)
    }

    #[test]
    fn plan_is_contiguous_sorted_and_deterministic() {
        let topo = Topology::fat_tree(4);
        let plan = ShardPlan::partition(&topo, 5);
        assert_eq!(plan.n_shards(), 5);
        let mut all: Vec<Dpid> = Vec::new();
        for i in 0..plan.n_shards() {
            let group = plan.shard_dpids(i);
            assert!(!group.is_empty());
            assert!(group.windows(2).all(|w| w[0] < w[1]), "sorted in shard");
            if let (Some(last), Some(first)) = (all.last(), group.first()) {
                assert!(last < first, "contiguous ranges");
            }
            all.extend_from_slice(group);
        }
        assert_eq!(all.len(), topo.switches.len());
        let again = ShardPlan::partition(&topo, 5);
        for i in 0..5 {
            assert_eq!(plan.shard_dpids(i), again.shard_dpids(i));
        }
        // Degenerate requests clamp instead of panicking.
        assert_eq!(ShardPlan::partition(&topo, 0).n_shards(), 1);
        assert!(ShardPlan::partition(&topo, 10_000).n_shards() <= topo.switches.len());
    }

    #[test]
    fn sharded_engine_routes_and_expires_like_a_network() {
        let topo = Topology::linear(6, 2);
        let plan = ShardPlan::partition(&topo, 3);
        let mut net = ShardedNetwork::with_plan(topo.clone(), NetworkConfig::default(), plan);
        let mut ctrl = stub_for(&topo);
        ctrl.idle_timeout = SimDuration::from_secs(3);
        net.inject_flows(flows_on(&topo, 30, 42));
        net.run_until(SimTime::from_secs(25), &mut ctrl);
        let c = net.counters();
        assert!(c.delivered_bytes > 0, "{c:?}");
        assert!(c.packet_ins > 0, "{c:?}");
        assert!(c.flow_removeds > 0, "idle timeouts must fire: {c:?}");
        assert_eq!(net.now(), SimTime::from_secs(25));
        assert!(net.switch(Dpid::new(1)).is_some());
    }

    #[test]
    fn scale_telemetry_counts_batches_and_handoffs() {
        let topo = Topology::linear(8, 2);
        let plan = ShardPlan::partition(&topo, 4);
        let mut net = ShardedNetwork::with_plan(topo.clone(), NetworkConfig::default(), plan);
        let tel = Telemetry::new();
        net.bind_telemetry(&tel);
        let mut ctrl = stub_for(&topo);
        net.inject_flows(flows_on(&topo, 20, 7));
        net.run_until(SimTime::from_secs(12), &mut ctrl);
        let m = tel.metrics();
        assert_eq!(m.gauge("scale", "shards").get(), 4);
        assert_eq!(m.counter("scale", "ticks").get(), 12);
        assert!(m.counter("scale", "punt_batches").get() > 0);
        assert!(m.counter("scale", "batched_packet_ins").get() >= net.counters().packet_ins);
        // An 8-switch line cut into 4 shards must hand packets across.
        assert!(m.counter("scale", "cross_shard_handoffs").get() > 0);
        assert!(m.counter("scale", "routing_rounds").get() >= 12);
        assert!(m.counter("dataplane", "wheel_armed").get() > 0);
        // Mirrored dataplane counters match the engine's own.
        assert_eq!(
            m.counter("dataplane", "packet_ins").get(),
            net.counters().packet_ins
        );
        assert_eq!(
            m.counter("dataplane", "delivered_bytes").get(),
            net.counters().delivered_bytes
        );
        // Every emitted key is declared in the registry.
        assert_eq!(
            athena_telemetry::names::undeclared(&tel.report()),
            Vec::<String>::new()
        );
    }

    #[test]
    fn reruns_with_the_same_plan_are_identical() {
        let run = || {
            let topo = Topology::fat_tree(4);
            let plan = ShardPlan::partition(&topo, 4);
            let mut net = ShardedNetwork::with_plan(topo.clone(), NetworkConfig::default(), plan);
            let mut ctrl = stub_for(&topo);
            net.inject_flows(flows_on(&topo, 40, 9));
            net.run_until(SimTime::from_secs(14), &mut ctrl);
            net.counters()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn chaos_hooks_wipe_reboot_and_links() {
        let topo = Topology::linear(4, 2);
        let mut net = ShardedNetwork::with_plan(
            topo.clone(),
            NetworkConfig::default(),
            ShardPlan::partition(&topo, 2),
        );
        let mut ctrl = stub_for(&topo);
        net.inject_flows(flows_on(&topo, 10, 3));
        net.run_until(SimTime::from_secs(4), &mut ctrl);
        assert!(net.wipe_switch(Dpid::new(2)) > 0);
        assert!(net.reboot_switch(Dpid::new(3)) == 0 || net.switch(Dpid::new(3)).is_some());
        assert_eq!(net.set_link_state(Dpid::new(1), Dpid::new(2), 0.0), 2);
        let before = net.delivered_bytes();
        net.run_until(SimTime::from_secs(6), &mut ctrl);
        assert_eq!(net.set_link_state(Dpid::new(1), Dpid::new(2), 1.0), 2);
        net.run_until(SimTime::from_secs(10), &mut ctrl);
        assert!(net.delivered_bytes() > before, "traffic recovers");
        assert_eq!(net.set_link_state(Dpid::new(9), Dpid::new(10), 0.0), 0);
    }

    #[test]
    fn activation_packet_credits_ingress_counters() {
        let topo = Topology::linear(3, 1);
        let mut net = ShardedNetwork::with_plan(
            topo.clone(),
            NetworkConfig::default(),
            ShardPlan::partition(&topo, 3),
        );
        let mut ctrl = stub_for(&topo);
        let src = topo.host(HostId::new(1)).map(|h| h.ip);
        let dst = topo.host(HostId::new(3)).map(|h| h.ip);
        let (Some(src), Some(dst)) = (src, dst) else {
            panic!("linear(3,1) has hosts 1 and 3");
        };
        net.inject_flows([FlowSpec::new(
            FiveTuple::tcp(src, 40_000, dst, 80),
            SimTime::ZERO,
            SimDuration::from_secs(5),
            8_000_000,
        )]);
        net.run_until(SimTime::from_secs(8), &mut ctrl);
        assert!(
            net.delivered_bytes() >= 4_000_000,
            "{}",
            net.delivered_bytes()
        );
        let sw1 = net.switch(Dpid::new(1)).and_then(|s| {
            s.table()
                .flow_stats(&athena_openflow::MatchFields::new(), net.now())
                .into_iter()
                .next()
        });
        assert!(sw1.is_some_and(|s| s.byte_count > 1_000_000));
    }
}
