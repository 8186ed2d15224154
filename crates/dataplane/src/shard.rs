//! The network engine: one tick pipeline over a [`ShardPlan`].
//!
//! [`Engine`] is the only simulation loop in this crate. The topology's
//! switches are partitioned into shards (one shard unless a plan says
//! otherwise); each shard owns its switches, the links they source, its
//! own expiry wheel and the buffers the phases below fill and drain, so a
//! phase runs on every shard in parallel without sharing anything
//! ([`athena_parallel::par_each_mut`] runs it on each shard in place —
//! inline on the caller when there is one shard). Every tick runs:
//!
//! 1. **Expiry** — each shard advances its timing wheel and expires due
//!    tables; the `FLOW_REMOVED`s are delivered sequentially in global
//!    dpid order (shards are contiguous sorted dpid ranges).
//! 2. **Activation** — flows whose start time arrived join the active
//!    set; what happens to their first packet is the punt discipline's
//!    call.
//! 3. **Controller tick** — `on_tick` (statistics polling) and its
//!    commands.
//! 4. **Routing** — each active flow's per-tick packet walks the fabric
//!    with read-only lookups (`Shard::walk`), appending one `Hop` per
//!    link crossed to the tick's segment stream. How a table miss reaches
//!    the controller is, again, the punt discipline's call.
//! 5. **Contention** — the stream's byte offers land on their links and
//!    every shard settles all of its links (every link settles every
//!    tick, so stochastic link-model streams advance identically under
//!    any plan and width).
//! 6. **Credit** — switch and flow counters replay the hops the routing
//!    phase recorded, per owning shard; per-flow bookkeeping runs in item
//!    order.
//!
//! The two public engines, [`Network`](crate::Network) and
//! [`ShardedNetwork`](crate::ShardedNetwork), are this one type under the
//! two [punt disciplines](crate::punt) — see that module for the one
//! decision they differ in and for the determinism contract of each.

use crate::flow::{ActiveFlow, FlowSpec};
use crate::link::{LinkModel, SimLink};
use crate::network::{
    apply_rewrites, via_wire, ControllerLink, ExpiryMode, NetworkConfig, NetworkCounters,
};
use crate::punt::PuntDiscipline;
use crate::switch::SimSwitch;
use crate::topology::Topology;
use crate::wheel::TimingWheel;
use athena_observe::Observe;
use athena_openflow::{Action, FlowMod, FlowRemoved, OfMessage, PacketHeader};
use athena_telemetry::{names, Counter, Gauge, Histogram, Telemetry};
use athena_types::{Dpid, Ipv4Addr, LinkId, PortNo, SimDuration, SimTime, Xid};
use std::collections::HashMap;
use std::marker::PhantomData;

/// Command batches at or above this size that are pure `FlowMod`s are
/// applied per shard in parallel; smaller or mixed batches use the
/// sequential loop. A pure function of the batch, never of width.
const FLOW_MOD_BATCH_MIN: usize = 64;

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

    /// One shard per ~4 switches, capped at 16 shards (a practical
    /// job width) and floored at 1.
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

/// Where a switch lives: its shard, and its slot in that shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Loc {
    pub(crate) shard: usize,
    pub(crate) slot: usize,
}

/// What a switch port leads to, resolved once at construction so a hop
/// costs two `Vec` reads instead of hash lookups.
#[derive(Debug, Clone, Copy)]
enum Port {
    /// Nothing attached. Reserved ports (`CONTROLLER`, …) index past
    /// every table and read as this too.
    Unused,
    /// A host sits here: a packet sent out of it is delivered.
    Host,
    /// The unidirectional link leaving this port: its slot in the owning
    /// shard's `links`, and where and on which port it lands.
    Link {
        link: usize,
        to: Loc,
        in_port: PortNo,
    },
}

/// A packet mid-walk: which traffic item it belongs to, where it is, and
/// how much punt/hop budget remains.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PacketState {
    pub(crate) item: usize,
    pub(crate) at: Loc,
    pub(crate) pkt: PacketHeader,
    /// Punts already spent at the current hop (reset on movement).
    pub(crate) punts: usize,
    hops_left: usize,
}

/// How a shard-local walk segment ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// Reached a host-facing port.
    Delivered,
    /// Drop rule, dead port, exhausted punt or hop budget.
    Failed,
    /// Table miss with punt budget left: the packet waits where it is.
    Miss,
    /// Crossed into another shard; the packet continues there.
    Handoff,
}

/// One entry of the tick's segment stream: a packet crossed `link`
/// (owned by shard `from`) and arrived at `to` as `pkt`. An item's hops
/// appear in the order it took them, so replaying the stream
/// item-filtered recovers each packet's full path.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Hop {
    item: usize,
    from: usize,
    link: usize,
    to: Loc,
    pkt: PacketHeader,
}

/// A counter-credit operation replayed on the owning shard. All of them
/// are commutative adds sharing the tick's timestamp.
#[derive(Debug, Clone, Copy)]
enum CreditOp {
    Flow {
        slot: usize,
        pkt: PacketHeader,
        packets: u64,
        bytes: u64,
    },
    /// Contention loss, counted on the egress port of link `link`.
    TxDrop { link: usize, packets: u64 },
}

/// One per-tick unit of traffic: a flow's forward or reverse share, or a
/// new flow's activation packet.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TrafficItem {
    /// `None` for activation packets (credited in full, no contention).
    flow_idx: Option<usize>,
    bytes: u64,
    /// Where the packet enters the fabric (credited like a hop).
    at: Loc,
    pkt: PacketHeader,
    pub(crate) delivered: bool,
}

/// What the credit phase works out per traffic item.
#[derive(Debug, Clone, Copy)]
struct Share {
    /// Product of the link fractions along the item's path, in hop order.
    frac: f64,
    /// The first link on the path that delivered less than it was offered.
    congested: Option<(usize, usize)>,
    /// `(packets, bytes)` each switch on the path is credited with.
    credit: Option<(u64, u64)>,
}

/// Wheel activity a shard accumulates until the engine mirrors it.
#[derive(Debug, Clone, Copy, Default)]
struct WheelStats {
    armed: u64,
    spurious: u64,
}

/// One shard: a contiguous dpid range of switches, the links they source,
/// the shard's own expiry wheel, and the buffers the tick's phases fill
/// and drain (capacity is kept across ticks).
#[derive(Debug)]
pub(crate) struct Shard {
    index: usize,
    /// Sorted by dpid.
    switches: Vec<SimSwitch>,
    /// `ports[slot][port number]`, as long as the highest attached port.
    ports: Vec<Vec<Port>>,
    /// Links whose source switch lives here, sorted by id.
    links: Vec<SimLink>,
    /// The fraction each link delivered when it last settled, parallel
    /// to `links`.
    fracs: Vec<f64>,
    /// Expiry wake-ups by switch slot (slot order is dpid order).
    wheel: TimingWheel<usize>,
    /// Earliest outstanding wheel entry per switch slot (arm dedup).
    armed: Vec<Option<u64>>,
    wheel_stats: WheelStats,
    /// Packets waiting to walk this shard.
    pub(crate) inbox: Vec<PacketState>,
    /// What [`Shard::walk_inbox`] produced: the hops, and how each packet
    /// ended.
    pub(crate) hops: Vec<Hop>,
    pub(crate) outbox: Vec<(PacketState, Outcome)>,
    credits: Vec<CreditOp>,
    /// Flow-mods waiting to be applied: `(command index, slot, mod)`.
    mods: Vec<(usize, usize, FlowMod)>,
    /// `FLOW_REMOVED`s from expiry or flow-mods, tagged with the command
    /// index that caused them (0 for expiry).
    removed: Vec<(usize, Dpid, FlowRemoved)>,
}

impl Shard {
    fn new(index: usize, switches: Vec<SimSwitch>, links: Vec<SimLink>) -> Self {
        Shard {
            index,
            armed: vec![None; switches.len()],
            fracs: vec![1.0; links.len()],
            ports: vec![Vec::new(); switches.len()],
            switches,
            links,
            wheel: TimingWheel::new(0),
            wheel_stats: WheelStats::default(),
            inbox: Vec::new(),
            hops: Vec::new(),
            outbox: Vec::new(),
            credits: Vec::new(),
            mods: Vec::new(),
            removed: Vec::new(),
        }
    }

    /// Records what `port` of the switch at `slot` leads to, unless
    /// something already claimed it.
    fn attach(&mut self, slot: usize, port: PortNo, leads_to: Port) {
        let Some(table) = self.ports.get_mut(slot) else {
            return;
        };
        let p = port.raw() as usize;
        if table.len() <= p {
            table.resize(p + 1, Port::Unused);
        }
        if let Some(vacant @ Port::Unused) = table.get_mut(p) {
            *vacant = leads_to;
        }
    }

    fn port(&self, slot: usize, port: PortNo) -> Port {
        self.ports
            .get(slot)
            .and_then(|table| table.get(port.raw() as usize))
            .copied()
            .unwrap_or(Port::Unused)
    }

    /// Schedules an expiry wake-up at the switch's next deadline unless
    /// an earlier-or-equal one is outstanding.
    fn arm(&mut self, slot: usize, tick: SimDuration) {
        let Some(next) = self.switches.get(slot).and_then(SimSwitch::next_expiry) else {
            return;
        };
        // First tick boundary at or after the deadline, clamped to the
        // wheel's next firable tick so `armed` names the landed slot (an
        // unclamped record would suppress every future re-arm).
        let due = next
            .as_micros()
            .div_ceil(tick.as_micros().max(1))
            .max(self.wheel.now() + 1);
        let Some(armed) = self.armed.get_mut(slot) else {
            return;
        };
        if armed.is_none_or(|a| a > due) {
            self.wheel.schedule(due, slot);
            *armed = Some(due);
            self.wheel_stats.armed += 1;
        }
    }

    /// The expiry phase: wake the switches whose wheel entry is due (or,
    /// under [`ExpiryMode::Scan`], visit every switch), expire due
    /// tables, re-arm, and leave the FLOW_REMOVEDs in `removed` in dpid
    /// order.
    fn run_expiry(&mut self, t: SimTime, tick_idx: u64, mode: ExpiryMode, tick: SimDuration) {
        let wheel_mode = mode == ExpiryMode::Wheel;
        let woken: Vec<usize> = if wheel_mode {
            // Every fire this tick shares the due, so the (due, key)
            // sort is a slot sort; dedup collapses stale duplicates.
            let mut due: Vec<usize> = self
                .wheel
                .advance(tick_idx)
                .into_iter()
                .map(|(_, slot)| slot)
                .collect();
            due.dedup();
            due
        } else {
            (0..self.switches.len()).collect()
        };
        for slot in woken {
            if wheel_mode {
                if let Some(armed) = self.armed.get_mut(slot) {
                    if *armed == Some(tick_idx) {
                        *armed = None;
                    }
                }
            }
            let Some(sw) = self.switches.get_mut(slot) else {
                continue;
            };
            if sw.next_expiry().is_some_and(|next| next <= t) {
                let dpid = sw.dpid();
                for fr in sw.expire(t) {
                    self.removed.push((0, dpid, fr));
                }
            } else {
                // The deadline moved later (traffic re-armed an idle
                // timeout, entries were deleted, the switch rebooted):
                // the wake-up was stale.
                self.wheel_stats.spurious += u64::from(wheel_mode);
            }
            if wheel_mode {
                self.arm(slot, tick);
            }
        }
    }

    /// Walks `st` through this shard's switches with read-only lookups,
    /// appending one [`Hop`] per link crossed, until the packet is
    /// delivered, fails, misses, or leaves the shard. `st` is left where
    /// the walk stopped.
    pub(crate) fn walk(
        &self,
        st: &mut PacketState,
        now: SimTime,
        max_punt: usize,
        hops: &mut Vec<Hop>,
    ) -> Outcome {
        loop {
            let Some(sw) = self.switches.get(st.at.slot) else {
                return Outcome::Failed;
            };
            let Some(actions) = sw.peek(&st.pkt, now) else {
                return if st.punts < max_punt {
                    Outcome::Miss
                } else {
                    Outcome::Failed
                };
            };
            let Some(out) = Action::first_output(actions) else {
                return Outcome::Failed; // drop rule
            };
            match self.port(st.at.slot, out) {
                Port::Link { link, to, in_port } => {
                    if st.hops_left == 0 {
                        return Outcome::Failed; // loop guard
                    }
                    st.hops_left -= 1;
                    st.punts = 0;
                    st.pkt = apply_rewrites(actions, st.pkt).with_in_port(in_port);
                    st.at = to;
                    hops.push(Hop {
                        item: st.item,
                        from: self.index,
                        link,
                        to,
                        pkt: st.pkt,
                    });
                    if to.shard != self.index {
                        return Outcome::Handoff;
                    }
                }
                Port::Host => return Outcome::Delivered,
                Port::Unused => return Outcome::Failed,
            }
        }
    }

    /// Walks every packet in the inbox, in order, into `hops` / `outbox`.
    pub(crate) fn walk_inbox(&mut self, now: SimTime, max_punt: usize) {
        let mut inbox = std::mem::take(&mut self.inbox);
        let mut hops = std::mem::take(&mut self.hops);
        for mut st in inbox.drain(..) {
            let outcome = self.walk(&mut st, now, max_punt, &mut hops);
            self.outbox.push((st, outcome));
        }
        self.inbox = inbox;
        self.hops = hops;
    }

    /// Settles **all** of this shard's links on the bytes offered this
    /// tick (stochastic models advance every tick regardless of traffic).
    fn settle(&mut self, tick: SimDuration) {
        for (link, frac) in self.links.iter_mut().zip(&mut self.fracs) {
            *frac = link.settle_tick(tick).0;
        }
    }

    /// Replays the queued counter credits.
    fn run_credits(&mut self, now: SimTime) {
        let mut ops = std::mem::take(&mut self.credits);
        for op in ops.drain(..) {
            match op {
                CreditOp::Flow {
                    slot,
                    pkt,
                    packets,
                    bytes,
                } => {
                    if let Some(sw) = self.switches.get_mut(slot) {
                        let _ = sw.process(&pkt, now, packets, bytes);
                    }
                }
                CreditOp::TxDrop { link, packets } => {
                    let Some(id) = self.links.get(link).map(|l| l.id) else {
                        continue;
                    };
                    let src = self.switches.binary_search_by_key(&id.src, SimSwitch::dpid);
                    if let Some(sw) = src.ok().and_then(|slot| self.switches.get_mut(slot)) {
                        sw.count_tx_drop(id.src_port, packets);
                    }
                }
            }
        }
        self.credits = ops;
    }

    /// Applies the queued flow-mods in order, leaving what they removed
    /// in `removed` and re-arming the wheel where a mod may have brought
    /// a deadline forward.
    fn apply_mods(&mut self, now: SimTime, mode: ExpiryMode, tick: SimDuration) {
        let mut mods = std::mem::take(&mut self.mods);
        for (i, slot, body) in mods.drain(..) {
            let Some(sw) = self.switches.get_mut(slot) else {
                continue;
            };
            let dpid = sw.dpid();
            for fr in sw.apply_flow_mod(&body, now) {
                self.removed.push((i, dpid, fr));
            }
            if mode == ExpiryMode::Wheel {
                self.arm(slot, tick);
            }
        }
        self.mods = mods;
    }
}

/// The engine's telemetry instruments (detached until
/// [`Engine::bind_telemetry`]).
#[derive(Debug, Default)]
pub(crate) struct EngineTelemetry {
    step_ns: Histogram,
    packet_ins: Counter,
    flow_removeds: Counter,
    delivered_bytes: Counter,
    dropped_bytes: Counter,
    links_degraded: Gauge,
    switch_reboots: Counter,
    wheel_armed: Counter,
    wheel_spurious: Counter,
    shards: Gauge,
    pub(crate) punt_batches: Counter,
    pub(crate) batched_packet_ins: Counter,
    pub(crate) cross_shard_handoffs: Counter,
    pub(crate) routing_rounds: Counter,
    /// Kept for the per-switch table gauges.
    handle: Option<Telemetry>,
}

/// The simulated network, generic over its [punt
/// discipline](crate::punt): use it as [`Network`](crate::Network) or
/// [`ShardedNetwork`](crate::ShardedNetwork). See the [module
/// docs](self) for the tick pipeline.
#[derive(Debug)]
pub struct Engine<P> {
    topology: Topology,
    pub(crate) config: NetworkConfig,
    plan: ShardPlan,
    pub(crate) shards: Vec<Shard>,
    /// Shard and slot of every switch.
    place: HashMap<Dpid, Loc>,
    /// Attachment point of every host address (first host wins, like a
    /// linear scan of the topology's host list).
    hosts: HashMap<Ipv4Addr, (Loc, PortNo)>,
    pending: Vec<FlowSpec>, // sorted by start time, descending (pop from end)
    active: Vec<ActiveFlow>,
    pub(crate) now: SimTime,
    pub(crate) counters: NetworkCounters,
    next_xid: u32,
    pub(crate) tel: EngineTelemetry,
    pub(crate) observe: Observe,
    /// The traffic items being routed and the segment stream of hops
    /// they took; both are emptied once credited.
    pub(crate) items: Vec<TrafficItem>,
    pub(crate) stream: Vec<Hop>,
    shares: Vec<Share>,
    _punt: PhantomData<P>,
}

impl<P: PuntDiscipline> Engine<P> {
    /// Builds a network with the default configuration on one shard.
    pub fn new(topology: Topology) -> Self {
        Self::with_config(topology, NetworkConfig::default())
    }

    /// Builds a network with an explicit configuration on one shard
    /// (pass [`ShardPlan::auto`] to [`Engine::with_plan`] to shard it).
    pub fn with_config(topology: Topology, config: NetworkConfig) -> Self {
        let plan = ShardPlan::partition(&topology, 1);
        Self::with_plan(topology, config, plan)
    }

    /// Builds a network with an explicit configuration and plan.
    pub fn with_plan(topology: Topology, config: NetworkConfig, plan: ShardPlan) -> Self {
        let mut place = HashMap::new();
        for (shard, group) in plan.groups.iter().enumerate() {
            for (slot, dpid) in group.iter().enumerate() {
                place.insert(*dpid, Loc { shard, slot });
            }
        }
        let n_ports_of: HashMap<Dpid, u32> = topology
            .switches
            .iter()
            .map(|s| (s.dpid, s.n_ports))
            .collect();
        // Both directions of every link, owned by the source's shard.
        let directions = |l: &crate::topology::LinkSpec| {
            let fwd = LinkId::new(l.a.0, l.a.1, l.b.0, l.b.1);
            [fwd, fwd.reversed()]
        };
        let mut links: Vec<Vec<SimLink>> = plan.groups.iter().map(|_| Vec::new()).collect();
        for l in &topology.links {
            for id in directions(l) {
                if let (Some(src), true) = (place.get(&id.src), place.contains_key(&id.dst)) {
                    if let Some(owned) = links.get_mut(src.shard) {
                        owned.push(SimLink::new(id, l.capacity_bps));
                    }
                }
            }
        }
        let mut shards: Vec<Shard> = Vec::with_capacity(plan.n_shards());
        for (index, (group, mut links)) in plan.groups.iter().zip(links).enumerate() {
            links.sort_by_key(|l| l.id);
            links.dedup_by_key(|l| l.id);
            let switches = group
                .iter()
                .map(|d| SimSwitch::new(*d, n_ports_of.get(d).copied().unwrap_or(0)))
                .collect();
            shards.push(Shard::new(index, switches, links));
        }
        // A port leads to the first link the topology lists for it, else
        // to the host attached there — `Topology::link_from`'s answer.
        for l in &topology.links {
            for id in directions(l) {
                let (Some(src), Some(to)) = (place.get(&id.src), place.get(&id.dst)) else {
                    continue;
                };
                let Some(shard) = shards.get_mut(src.shard) else {
                    continue;
                };
                if let Ok(link) = shard.links.binary_search_by_key(&id, |l| l.id) {
                    let in_port = id.dst_port;
                    shard.attach(
                        src.slot,
                        id.src_port,
                        Port::Link {
                            link,
                            to: *to,
                            in_port,
                        },
                    );
                }
            }
        }
        let mut hosts = HashMap::new();
        for h in &topology.hosts {
            let Some(loc) = place.get(&h.switch) else {
                continue;
            };
            if let Some(shard) = shards.get_mut(loc.shard) {
                shard.attach(loc.slot, h.port, Port::Host);
            }
            hosts.entry(h.ip).or_insert((*loc, h.port));
        }
        Engine {
            topology,
            config,
            plan,
            shards,
            place,
            hosts,
            pending: Vec::new(),
            active: Vec::new(),
            now: SimTime::ZERO,
            counters: NetworkCounters::default(),
            next_xid: 1,
            tel: EngineTelemetry::default(),
            observe: Observe::disabled(),
            items: Vec::new(),
            stream: Vec::new(),
            shares: Vec::new(),
            _punt: PhantomData,
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
        let loc = self.place.get(&dpid)?;
        self.shards.get(loc.shard)?.switches.get(loc.slot)
    }

    fn switch_mut(&mut self, dpid: Dpid) -> Option<&mut SimSwitch> {
        let loc = self.place.get(&dpid)?;
        self.shards.get_mut(loc.shard)?.switches.get_mut(loc.slot)
    }

    /// Immutable access to a link direction.
    pub fn link(&self, id: LinkId) -> Option<&SimLink> {
        let links = &self.shards.get(self.place.get(&id.src)?.shard)?.links;
        links.get(links.binary_search_by_key(&id, |l| l.id).ok()?)
    }

    /// All link directions, in link-id order.
    pub fn links(&self) -> impl Iterator<Item = &SimLink> {
        self.shards.iter().flat_map(|s| &s.links)
    }

    /// Flows currently active.
    pub fn active_flows(&self) -> &[ActiveFlow] {
        &self.active
    }

    /// Routes the simulator's counters, per-tick step latency, and
    /// per-switch flow-table lookup totals into `tel`.
    pub fn bind_telemetry(&mut self, tel: &Telemetry) {
        let m = tel.metrics();
        let dp = names::dataplane::SUBSYSTEM;
        let sc = names::scale::SUBSYSTEM;
        self.tel = EngineTelemetry {
            step_ns: m.histogram(dp, names::dataplane::STEP_NS),
            packet_ins: m.counter(dp, names::dataplane::PACKET_INS),
            flow_removeds: m.counter(dp, names::dataplane::FLOW_REMOVEDS),
            delivered_bytes: m.counter(dp, names::dataplane::DELIVERED_BYTES),
            dropped_bytes: m.counter(dp, names::dataplane::DROPPED_BYTES),
            links_degraded: m.gauge(dp, names::dataplane::LINKS_DEGRADED),
            switch_reboots: m.counter(dp, names::dataplane::SWITCH_REBOOTS),
            wheel_armed: m.counter(dp, names::dataplane::WHEEL_ARMED),
            wheel_spurious: m.counter(dp, names::dataplane::WHEEL_SPURIOUS),
            shards: m.gauge(sc, names::scale::SHARDS),
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

    /// Routes causal spans (packet-in roots, stats replies) and the
    /// per-tick sample/alert evaluation into `obs`. The dataplane drives
    /// the observe clock: [`Engine::step`] calls `obs.on_tick` after
    /// every tick's work so samples see that tick's counters.
    pub fn bind_observe(&mut self, obs: &Observe) {
        self.observe = obs.clone();
    }

    /// Simulates a switch losing its flow state (table wipe). Traffic
    /// through it re-punts to the controller on the next tick. Returns
    /// how many entries were lost (no FLOW_REMOVED is sent — the state
    /// is gone, exactly like a real reboot).
    pub fn wipe_switch(&mut self, dpid: Dpid) -> usize {
        let now = self.now;
        self.switch_mut(dpid).map_or(0, |sw| {
            let n = sw.flow_count();
            let _ = sw.clear_flows(now);
            n
        })
    }

    /// Simulates a full switch reboot: flow state *and* port counters are
    /// lost (see [`SimSwitch::reboot`]). Returns how many flow entries
    /// were lost, or 0 for an unknown switch.
    pub fn reboot_switch(&mut self, dpid: Dpid) -> usize {
        let now = self.now;
        let Some(sw) = self.switch_mut(dpid) else {
            return 0;
        };
        let lost = sw.reboot(now);
        self.tel.switch_reboots.inc();
        lost
    }

    /// Sets the effective-capacity factor of every link direction between
    /// switches `a` and `b`: `0.0` takes the link down, `(0, 1)` degrades
    /// it, `1.0` restores it. Returns how many link directions were
    /// affected (0 when no such link exists).
    pub fn set_link_state(&mut self, a: Dpid, b: Dpid, factor: f64) -> usize {
        let mut n = 0;
        let mut degraded = 0usize;
        for link in self.shards.iter_mut().flat_map(|s| &mut s.links) {
            let ends = (link.id.src, link.id.dst);
            if ends == (a, b) || ends == (b, a) {
                link.set_capacity_factor(factor);
                n += 1;
            }
            degraded += usize::from(link.capacity_factor() < 1.0);
        }
        self.tel
            .links_degraded
            .set(i64::try_from(degraded).unwrap_or(i64::MAX));
        n
    }

    /// Installs the stochastic `model` on every link direction, each
    /// seeded from `seed` mixed with its stable link identity. Returns
    /// how many link directions were configured.
    pub fn set_link_model(&mut self, model: LinkModel, seed: u64) -> usize {
        let mut n = 0;
        for link in self.shards.iter_mut().flat_map(|s| &mut s.links) {
            link.set_model(model, seed);
            n += 1;
        }
        n
    }

    /// Schedules flows for injection.
    pub fn inject_flows(&mut self, flows: impl IntoIterator<Item = FlowSpec>) {
        self.pending.extend(flows);
        // Descending by start time so activation pops from the end.
        self.pending.sort_by_key(|f| std::cmp::Reverse(f.start));
    }

    /// Runs the simulation until `until`: [`Engine::step`] in a loop
    /// (one `dataplane/step_ns` sample per tick), followed by
    /// [`Engine::flush_gauges`].
    pub fn run_until(&mut self, until: SimTime, ctrl: &mut impl ControllerLink) {
        while self.now < until {
            self.step(ctrl);
        }
        self.flush_gauges();
    }

    /// Publishes per-switch flow-table lookup totals as gauges
    /// (done at the end of every [`Engine::run_until`]; harnesses driving
    /// [`Engine::step`] directly call this before rendering a report).
    pub fn flush_gauges(&self) {
        let Some(tel) = &self.tel.handle else {
            return;
        };
        if !tel.is_enabled() {
            return;
        }
        let m = tel.metrics();
        let sub = names::dataplane::SUBSYSTEM;
        for sw in self.shards.iter().flat_map(|s| &s.switches) {
            let instance = format!("s{}", sw.dpid().raw());
            m.gauge_with(sub, names::dataplane::TABLE_LOOKUPS, &instance)
                .set(i64::try_from(sw.table().lookup_count()).unwrap_or(i64::MAX));
        }
    }

    /// Advances the simulation by exactly one tick (see the [module
    /// docs](self) for the phases). This is the unit the fault injector
    /// drives: it applies due fault events between steps, so every tick
    /// sees a consistent fault state.
    pub fn step(&mut self, ctrl: &mut impl ControllerLink) {
        let before = self.counters;
        let step_timer = self.tel.step_ns.start_timer();
        let tick = self.config.tick;
        let t = self.now + tick;
        self.now = t;

        // 1. Flow-table expiry (soft/hard timeouts) -> FLOW_REMOVED.
        let tick_idx = t.as_micros().div_ceil(tick.as_micros().max(1));
        let mode = self.config.expiry;
        self.each_shard(move |s| s.run_expiry(t, tick_idx, mode, tick));
        for (_, dpid, fr) in self.take_removed() {
            let msg = self.flow_removed(fr);
            let cmds = ctrl.on_message(dpid, msg, t);
            self.apply_commands(cmds, ctrl);
        }

        // 2. Activate flows whose start time has arrived. A spoofed
        // source has no attachment point: the flow is active but sends
        // no first packet.
        while let Some(spec) = self.pending.pop_if(|f| f.start <= t) {
            if let Some((at, port)) = self.hosts.get(&spec.five_tuple.src).copied() {
                self.items.push(TrafficItem {
                    flow_idx: None,
                    bytes: u64::from(spec.packet_size),
                    at,
                    pkt: spec.header(port),
                    delivered: false,
                });
                P::activated(self, ctrl);
            }
            self.active.push(ActiveFlow::new(spec));
        }

        // 3. Controller's own tick (stats polling etc.).
        let cmds = ctrl.on_tick(t);
        self.apply_commands(cmds, ctrl);

        // 4. A tick of traffic for every active flow: route it …
        for (idx, flow) in self.active.iter().enumerate() {
            let spec = &flow.spec;
            if spec.start >= t || spec.end_time() < t {
                continue;
            }
            let fwd = spec.bytes_per(tick);
            let rev = if spec.reverse_ratio > 0.0 {
                (fwd as f64 * spec.reverse_ratio) as u64
            } else {
                0
            };
            let ft = spec.five_tuple;
            for (bytes, ip, reverse) in [(fwd, ft.src, false), (rev, ft.dst, true)] {
                let (true, Some((at, port))) = (bytes > 0, self.hosts.get(&ip).copied()) else {
                    continue;
                };
                let pkt = if reverse {
                    spec.reverse_header(port)
                } else {
                    spec.header(port)
                };
                self.items.push(TrafficItem {
                    flow_idx: Some(idx),
                    bytes,
                    at,
                    pkt,
                    delivered: false,
                });
            }
        }
        P::route(self, ctrl);
        // … 5. settle link contention, 6. credit the delivered share.
        self.settle();
        self.credit();

        // 7. Retire finished flows.
        self.active.retain(|f| f.spec.end_time() > t);

        step_timer.observe(&self.tel.step_ns);
        // Mirror this tick's deltas into the registry — one add per
        // counter per tick keeps the inner loops untouched.
        let c = self.counters;
        self.tel.packet_ins.add(c.packet_ins - before.packet_ins);
        self.tel
            .flow_removeds
            .add(c.flow_removeds - before.flow_removeds);
        self.tel
            .delivered_bytes
            .add(c.delivered_bytes - before.delivered_bytes);
        self.tel
            .dropped_bytes
            .add(c.dropped_bytes - before.dropped_bytes);
        for shard in &mut self.shards {
            let wheel = std::mem::take(&mut shard.wheel_stats);
            self.tel.wheel_armed.add(wheel.armed);
            self.tel.wheel_spurious.add(wheel.spurious);
        }
        // 8. Observe sample/alert tick — after mirroring, so the sampled
        // series include this tick's counter deltas.
        self.observe.on_tick(t);
    }

    /// Runs one phase on every shard in parallel, in place: a phase
    /// touches only its own shard's state.
    pub(crate) fn each_shard(&mut self, phase: impl Fn(&mut Shard) + Sync) {
        athena_parallel::par_each_mut(&mut self.shards, phase);
    }

    /// The packet that carries traffic item `item` into the fabric.
    pub(crate) fn packet(&self, item: usize) -> Option<PacketState> {
        let it = self.items.get(item)?;
        Some(PacketState {
            item,
            at: it.at,
            pkt: it.pkt,
            punts: 0,
            hops_left: self.place.len() + 2,
        })
    }

    fn fresh_xid(&mut self) -> Xid {
        self.next_xid = self.next_xid.wrapping_add(1);
        Xid::new(self.next_xid)
    }

    /// Counts a punt of `st` from the switch it waits at and frames its
    /// PACKET_IN.
    pub(crate) fn packet_in(&mut self, st: &PacketState) -> Option<(Dpid, OfMessage)> {
        let sw = self.shards.get(st.at.shard)?.switches.get(st.at.slot)?;
        let dpid = sw.dpid();
        self.counters.packet_ins += 1;
        let xid = self.fresh_xid();
        let msg = OfMessage::packet_in(xid, st.pkt);
        Some((dpid, via_wire(msg, self.config.wire_mode)))
    }

    /// Counts a FLOW_REMOVED and frames it for the controller.
    fn flow_removed(&mut self, body: FlowRemoved) -> OfMessage {
        self.counters.flow_removeds += 1;
        let xid = self.fresh_xid();
        via_wire(OfMessage::FlowRemoved { xid, body }, self.config.wire_mode)
    }

    /// Collects what the shards' last expiry or flow-mod phase removed,
    /// in the order of the commands that caused it (shard order — dpid
    /// order — within one command).
    fn take_removed(&mut self) -> Vec<(usize, Dpid, FlowRemoved)> {
        let mut removed = Vec::new();
        for shard in &mut self.shards {
            removed.append(&mut shard.removed);
        }
        // Stable: removals within one command keep their order.
        removed.sort_by_key(|(i, _, _)| *i);
        removed
    }

    /// Link contention: the stream's byte offers, then every link of
    /// every shard settles. Offers are sums per link, so stream order is
    /// as good as any.
    fn settle(&mut self) {
        for hop in &self.stream {
            // Activation packets don't contend.
            let Some(bytes) = self
                .items
                .get(hop.item)
                .and_then(|it| it.flow_idx.map(|_| it.bytes))
            else {
                continue;
            };
            let link = self
                .shards
                .get_mut(hop.from)
                .and_then(|s| s.links.get_mut(hop.link));
            if let Some(link) = link {
                link.offer(bytes);
            }
        }
        let tick = self.config.tick;
        self.each_shard(move |s| s.settle(tick));
    }

    /// Credits every routed item's delivered share to the switches on its
    /// path and to its flow, then empties `items` and `stream`. Shards
    /// replay their credit queues in parallel.
    pub(crate) fn credit(&mut self) {
        self.queue_credits();
        let t = self.now;
        self.each_shard(move |s| s.run_credits(t));
    }

    /// [`credit`](Self::credit) with the queues replayed on the caller:
    /// an activation packet's one op per hop is not worth a parallel
    /// job per new flow.
    pub(crate) fn credit_inline(&mut self) {
        self.queue_credits();
        for shard in &mut self.shards {
            shard.run_credits(self.now);
        }
    }

    /// Fills each shard's credit queue from `items` and `stream`, then
    /// empties both.
    ///
    /// Credit ops are commutative counter adds sharing one timestamp, so
    /// each shard's queue only has to be filled in a plan- and
    /// width-invariant order: entry credits and drops go item-major,
    /// per-hop credits in stream order. The delivered fraction multiplies
    /// link fractions in exact hop order (stream order restricted to one
    /// item *is* its hop order), so f64 rounding is that of a per-packet
    /// walk.
    fn queue_credits(&mut self) {
        self.shares.clear();
        self.shares.resize(
            self.items.len(),
            Share {
                frac: 1.0,
                congested: None,
                credit: None,
            },
        );
        for hop in &self.stream {
            let frac = self
                .shards
                .get(hop.from)
                .and_then(|s| s.fracs.get(hop.link));
            let (Some(frac), Some(share)) = (frac.copied(), self.shares.get_mut(hop.item)) else {
                continue;
            };
            share.frac *= frac;
            if frac < 1.0 && share.congested.is_none() {
                share.congested = Some((hop.from, hop.link));
            }
        }
        for (item, share) in self.items.iter().zip(&mut self.shares) {
            let (packets, bytes) = match item.flow_idx {
                None => (1, item.bytes),
                Some(fi) => {
                    let Some(flow) = self.active.get_mut(fi) else {
                        continue;
                    };
                    let delivered = (item.bytes as f64 * share.frac) as u64;
                    let dropped = item.bytes - delivered;
                    // Drops are accounted on the first congested link's
                    // egress port.
                    if let (true, Some((shard, link))) = (dropped > 0, share.congested) {
                        if let Some(s) = self.shards.get_mut(shard) {
                            s.credits.push(CreditOp::TxDrop {
                                link,
                                packets: flow.spec.packets_for(dropped),
                            });
                        }
                    }
                    flow.last_tick_routed = item.delivered;
                    let (ok, lost) = if item.delivered {
                        (delivered, dropped)
                    } else {
                        (0, item.bytes)
                    };
                    flow.delivered_bytes += ok;
                    flow.dropped_bytes += lost;
                    self.counters.delivered_bytes += ok;
                    self.counters.dropped_bytes += lost;
                    (flow.spec.packets_for(delivered.max(1)), delivered)
                }
            };
            share.credit = Some((packets, bytes));
            if let Some(s) = self.shards.get_mut(item.at.shard) {
                s.credits.push(CreditOp::Flow {
                    slot: item.at.slot,
                    pkt: item.pkt,
                    packets,
                    bytes,
                });
            }
        }
        for hop in &self.stream {
            let credit = self.shares.get(hop.item).and_then(|s| s.credit);
            if let (Some((packets, bytes)), Some(s)) = (credit, self.shards.get_mut(hop.to.shard)) {
                s.credits.push(CreditOp::Flow {
                    slot: hop.to.slot,
                    pkt: hop.pkt,
                    packets,
                    bytes,
                });
            }
        }
        self.items.clear();
        self.stream.clear();
    }

    /// Full-credit walk for PACKET_OUT injection: follows the tables'
    /// current actions from `at`, crediting as it goes.
    fn credit_walk(&mut self, mut at: Loc, mut pkt: PacketHeader, packets: u64, bytes: u64) {
        let now = self.now;
        for _ in 0..self.place.len() + 2 {
            let Some(shard) = self.shards.get_mut(at.shard) else {
                return;
            };
            let Some(sw) = shard.switches.get_mut(at.slot) else {
                return;
            };
            let Some(actions) = sw.process(&pkt, now, packets, bytes) else {
                return;
            };
            let Some(out) = Action::first_output(actions) else {
                return;
            };
            let rewritten = apply_rewrites(actions, pkt);
            let Port::Link { to, in_port, .. } = shard.port(at.slot, out) else {
                return;
            };
            pkt = rewritten.with_in_port(in_port);
            at = to;
        }
    }

    /// Queues `body` for `dpid`'s shard as command `index`; returns the
    /// shard, or `None` for an unknown switch.
    fn queue_mod(&mut self, index: usize, dpid: Dpid, body: FlowMod) -> Option<&mut Shard> {
        let loc = self.place.get(&dpid)?;
        let shard = self.shards.get_mut(loc.shard)?;
        shard.mods.push((index, loc.slot, body));
        Some(shard)
    }

    /// Delivers the FLOW_REMOVEDs the last flow-mods caused, collecting
    /// the controller's answers into `replies`.
    fn report_removed(
        &mut self,
        ctrl: &mut impl ControllerLink,
        replies: &mut Vec<(Dpid, OfMessage)>,
    ) {
        for (_, dpid, fr) in self.take_removed() {
            let reply = self.flow_removed(fr);
            replies.extend(ctrl.on_message(dpid, reply, self.now));
        }
    }

    /// Applies controller commands; replies (e.g. stats) are fed back to
    /// the controller, bounded to avoid livelock.
    pub(crate) fn apply_commands(
        &mut self,
        mut commands: Vec<(Dpid, OfMessage)>,
        ctrl: &mut impl ControllerLink,
    ) {
        let now = self.now;
        let wire = self.config.wire_mode;
        let mode = self.config.expiry;
        let tick = self.config.tick;
        let mut depth = 0;
        while !commands.is_empty() && depth < 8 {
            depth += 1;
            let decoded: Vec<(Dpid, OfMessage)> = commands
                .drain(..)
                .map(|(dpid, msg)| (dpid, via_wire(msg, wire)))
                .collect();
            let mut replies: Vec<(Dpid, OfMessage)> = Vec::new();
            // Large all-FlowMod batches (a punt batch's install burst)
            // apply per shard in parallel: switches are disjoint across
            // shards and per-shard command order is kept, so tables,
            // wheel arms and the FLOW_REMOVED replies (merged back into
            // command order) equal the sequential loop's. Anything mixed
            // takes the order-sensitive sequential loop.
            if decoded.len() >= FLOW_MOD_BATCH_MIN
                && decoded
                    .iter()
                    .all(|(_, m)| matches!(m, OfMessage::FlowMod { .. }))
            {
                for (i, (dpid, msg)) in decoded.into_iter().enumerate() {
                    if let OfMessage::FlowMod { body, .. } = msg {
                        self.queue_mod(i, dpid, body);
                    }
                }
                self.each_shard(move |s| s.apply_mods(now, mode, tick));
                self.report_removed(ctrl, &mut replies);
                commands = replies;
                continue;
            }
            for (dpid, msg) in decoded {
                match msg {
                    OfMessage::FlowMod { body, .. } => {
                        if let Some(shard) = self.queue_mod(0, dpid, body) {
                            shard.apply_mods(now, mode, tick);
                            self.report_removed(ctrl, &mut replies);
                        }
                    }
                    OfMessage::PacketOut { body, .. } => {
                        // Inject at the named switch's egress port.
                        let out = Action::first_output(&body.actions);
                        let port = self.place.get(&dpid).zip(out).and_then(|(loc, out)| {
                            Some(self.shards.get(loc.shard)?.port(loc.slot, out))
                        });
                        if let Some(Port::Link { to, in_port, .. }) = port {
                            let pkt = body.header.with_in_port(PortNo::CONTROLLER);
                            let next = apply_rewrites(&body.actions, pkt).with_in_port(in_port);
                            self.credit_walk(to, next, 1, u64::from(body.header.byte_len));
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::LearningControllerStub;
    use crate::{Batched, Synchronous};
    use athena_openflow::{MatchFields, StatsReply, StatsRequest};
    use athena_types::FiveTuple;

    /// Instantiates each generic test below once per punt discipline.
    macro_rules! over_both_disciplines {
        ($($test:ident),* $(,)?) => {
            mod synchronous {
                $(#[test] fn $test() { super::$test::<super::Synchronous>() })*
            }
            mod batched {
                $(#[test] fn $test() { super::$test::<super::Batched>() })*
            }
        };
    }

    over_both_disciplines!(
        routes_counts_and_credits_the_activation_packet,
        telemetry_mirrors_engine_counters,
        idle_timeout_produces_flow_removed_and_reinstall,
        congestion_drops_excess_traffic,
        no_route_means_no_delivery,
        stats_request_round_trip_via_on_tick,
        link_down_blackholes_and_restore_recovers,
        chaos_hooks_wipe_and_reboot,
        step_matches_run_until,
        bidirectional_flows_create_pair_entries,
        reruns_with_the_same_plan_are_identical,
    );

    /// An `n`-switch line cut into `shards` shards, its stub controller,
    /// and a TCP five-tuple from the first host to the last.
    fn line<P: PuntDiscipline>(
        n: usize,
        hosts_per_switch: usize,
        shards: usize,
    ) -> (Engine<P>, LearningControllerStub, FiveTuple) {
        let topo = Topology::linear(n, hosts_per_switch);
        let plan = ShardPlan::partition(&topo, shards);
        let ctrl = LearningControllerStub::for_topology(topo.clone());
        let (src, dst) = (topo.hosts[0].ip, topo.hosts[topo.hosts.len() - 1].ip);
        let net = Engine::with_plan(topo, NetworkConfig::default(), plan);
        (net, ctrl, FiveTuple::tcp(src, 40_000, dst, 80))
    }

    fn flow(ft: FiveTuple, start: u64, secs: u64, rate_bps: u64) -> FlowSpec {
        FlowSpec::new(
            ft,
            SimTime::from_secs(start),
            SimDuration::from_secs(secs),
            rate_bps,
        )
    }

    fn flow_entries<P: PuntDiscipline>(
        net: &Engine<P>,
        dpid: u64,
    ) -> Vec<athena_openflow::stats::FlowStatsEntry> {
        let sw = net.switch(Dpid::new(dpid)).unwrap();
        sw.table().flow_stats(&MatchFields::new(), net.now())
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

    /// The one thing the two types differ in, seen from the controller.
    #[test]
    fn disciplines_differ_in_how_a_miss_reaches_the_controller() {
        #[derive(Default)]
        struct Seen {
            singles: u64,
            batches: u64,
            batched: u64,
        }
        struct Counting(LearningControllerStub, Seen);
        impl ControllerLink for Counting {
            fn on_message(
                &mut self,
                from: Dpid,
                msg: OfMessage,
                now: SimTime,
            ) -> Vec<(Dpid, OfMessage)> {
                self.1.singles += u64::from(matches!(msg, OfMessage::PacketIn { .. }));
                self.0.on_message(from, msg, now)
            }
            fn on_packet_in_batch(
                &mut self,
                batch: Vec<(Dpid, OfMessage)>,
                now: SimTime,
            ) -> Vec<(Dpid, OfMessage)> {
                self.1.batches += 1;
                self.1.batched += batch.len() as u64;
                self.0.on_packet_in_batch(batch, now)
            }
        }
        /// Counters, what the controller saw, and the engine's own
        /// `scale/punt_batches` / `scale/batched_packet_ins`.
        fn run<P: PuntDiscipline>() -> (NetworkCounters, Seen, (u64, u64)) {
            let (mut net, ctrl, _) = line::<P>(4, 2, 2);
            let mut ctrl = Counting(ctrl, Seen::default());
            let tel = Telemetry::new();
            net.bind_telemetry(&tel);
            let flows =
                crate::workload::benign_mix_on(net.topology(), 20, SimDuration::from_secs(8), 7);
            net.inject_flows(flows);
            net.run_until(SimTime::from_secs(10), &mut ctrl);
            let m = tel.metrics();
            let told = (
                m.counter("scale", "punt_batches").get(),
                m.counter("scale", "batched_packet_ins").get(),
            );
            (net.counters(), ctrl.1, told)
        }
        let (counters, seen, told) = run::<Synchronous>();
        assert!(counters.packet_ins > 0);
        assert_eq!((seen.singles, seen.batches), (counters.packet_ins, 0));
        assert_eq!(told, (0, 0));
        let (counters, seen, told) = run::<Batched>();
        assert!(seen.batches > 0);
        assert_eq!((seen.singles, seen.batched), (0, counters.packet_ins));
        assert_eq!(told, (seen.batches, counters.packet_ins));
    }

    fn routes_counts_and_credits_the_activation_packet<P: PuntDiscipline>() {
        // One switch per shard: every hop is a cross-shard handoff.
        let (mut net, mut ctrl, ft) = line::<P>(3, 1, 3);
        let spec = flow(ft, 1, 5, 8_000_000); // 1 MB/s
        net.inject_flows([spec]);
        // A flow starting exactly on a tick boundary activates on that
        // tick and sends traffic from the next: after one step the
        // ingress rule has seen the activation packet and nothing else.
        net.step(&mut ctrl);
        let entries = flow_entries(&net, 1);
        assert_eq!(entries.len(), 1, "the miss installed the path");
        assert_eq!(
            (entries[0].packet_count, entries[0].byte_count),
            (1, u64::from(spec.packet_size))
        );
        net.run_until(SimTime::from_secs(9), &mut ctrl);
        // ~5 MB delivered, through one packet-in chain and >= 3 installs.
        assert!(net.delivered_bytes() >= 4_000_000, "{:?}", net.counters());
        assert!(net.counters().packet_ins >= 1);
        assert!(ctrl.installs() >= 3);
        assert!(flow_entries(&net, 1)
            .iter()
            .any(|s| s.byte_count > 1_000_000));
        assert_eq!(net.now(), SimTime::from_secs(9));
    }

    fn telemetry_mirrors_engine_counters<P: PuntDiscipline>() {
        let (mut net, mut ctrl, _) = line::<P>(8, 2, 4);
        let tel = Telemetry::new();
        net.bind_telemetry(&tel);
        let flows =
            crate::workload::benign_mix_on(net.topology(), 20, SimDuration::from_secs(10), 7);
        net.inject_flows(flows);
        net.run_until(SimTime::from_secs(12), &mut ctrl);
        let m = tel.metrics();
        let c = net.counters();
        assert_eq!(m.counter("dataplane", "packet_ins").get(), c.packet_ins);
        assert_eq!(
            m.counter("dataplane", "delivered_bytes").get(),
            c.delivered_bytes
        );
        // One step latency sample per tick.
        assert_eq!(m.histogram("dataplane", "step_ns").snapshot().count, 12);
        assert!(m.counter("dataplane", "wheel_armed").get() > 0);
        // Per-switch lookup gauges were published for the ingress switch.
        assert!(m.gauge_with("dataplane", "table_lookups", "s1").get() > 0);
        // The plan's shape: an 8-switch line cut into 4 shards must hand
        // packets across, in at least one routing pass per tick.
        assert_eq!(m.gauge("scale", "shards").get(), 4);
        assert!(m.counter("scale", "cross_shard_handoffs").get() > 0);
        assert!(m.counter("scale", "routing_rounds").get() >= 12);
        // Every emitted key is declared in the registry.
        assert_eq!(
            athena_telemetry::names::undeclared(&tel.report()),
            Vec::<String>::new()
        );
    }

    fn idle_timeout_produces_flow_removed_and_reinstall<P: PuntDiscipline>() {
        let (mut net, mut ctrl, ft) = line::<P>(3, 1, 2);
        ctrl.idle_timeout = SimDuration::from_secs(3);
        // Two short bursts separated by a long gap.
        net.inject_flows([flow(ft, 0, 2, 1_000_000), flow(ft, 10, 2, 1_000_000)]);
        net.run_until(SimTime::from_secs(15), &mut ctrl);
        assert!(net.counters().flow_removeds >= 3, "{:?}", net.counters());
        // The second burst re-punted.
        assert!(net.counters().packet_ins >= 2);
    }

    fn congestion_drops_excess_traffic<P: PuntDiscipline>() {
        // Two flows share the single 1 Gb/s inter-switch link but offer
        // 2 x 0.8 Gb/s.
        let (mut net, mut ctrl, _) = line::<P>(2, 2, 2);
        let ip = |i: usize| net.topology().hosts[i].ip;
        net.inject_flows([
            flow(FiveTuple::tcp(ip(0), 1, ip(2), 80), 0, 5, 800_000_000),
            flow(FiveTuple::tcp(ip(1), 2, ip(3), 80), 0, 5, 800_000_000),
        ]);
        net.run_until(SimTime::from_secs(7), &mut ctrl);
        assert!(net.counters().dropped_bytes > 0, "{:?}", net.counters());
        // The inter-switch link shows congestion history, and the loss is
        // counted on its egress port.
        let link = net
            .topology()
            .link_from(Dpid::new(1), PortNo::new(1))
            .unwrap();
        assert!(net.link(link).unwrap().dropped_bytes() > 0);
        let sw1 = net.switch(Dpid::new(1)).unwrap();
        let StatsReply::Port(ports) = sw1.stats(
            &StatsRequest::Port {
                port_no: link.src_port,
            },
            net.now(),
        ) else {
            panic!("expected port stats");
        };
        assert!(ports[0].tx_dropped > 0);
    }

    fn no_route_means_no_delivery<P: PuntDiscipline>() {
        let (mut net, mut ctrl, ft) = line::<P>(2, 1, 2);
        let nowhere = FiveTuple::tcp(ft.src, 1, Ipv4Addr::new(99, 99, 99, 99), 80);
        net.inject_flows([flow(nowhere, 0, 3, 1_000_000)]);
        net.run_until(SimTime::from_secs(5), &mut ctrl);
        assert_eq!(net.delivered_bytes(), 0);
        assert!(net.counters().dropped_bytes > 0);
    }

    fn stats_request_round_trip_via_on_tick<P: PuntDiscipline>() {
        struct Poller(u64);
        impl ControllerLink for Poller {
            fn on_message(
                &mut self,
                _: Dpid,
                msg: OfMessage,
                _: SimTime,
            ) -> Vec<(Dpid, OfMessage)> {
                self.0 += u64::from(matches!(msg, OfMessage::StatsReply { .. }));
                Vec::new()
            }
            fn on_tick(&mut self, _now: SimTime) -> Vec<(Dpid, OfMessage)> {
                let body = StatsRequest::Port {
                    port_no: PortNo::ANY,
                };
                let xid = Xid::athena_marked(1);
                vec![(Dpid::new(2), OfMessage::StatsRequest { xid, body })]
            }
        }
        let (mut net, _, _) = line::<P>(2, 1, 2);
        let mut ctrl = Poller(0);
        net.run_until(SimTime::from_secs(3), &mut ctrl);
        assert_eq!(ctrl.0, 3); // one per tick
    }

    fn link_down_blackholes_and_restore_recovers<P: PuntDiscipline>() {
        let (mut net, mut ctrl, ft) = line::<P>(3, 1, 2);
        net.inject_flows([flow(ft, 0, 20, 8_000_000)]);
        net.run_until(SimTime::from_secs(5), &mut ctrl);
        let delivered_up = net.delivered_bytes();
        assert!(delivered_up > 0);
        // Take the s1-s2 link down: traffic blackholes.
        assert_eq!(net.set_link_state(Dpid::new(1), Dpid::new(2), 0.0), 2);
        net.run_until(SimTime::from_secs(10), &mut ctrl);
        assert_eq!(net.delivered_bytes(), delivered_up, "link was down");
        assert!(net.counters().dropped_bytes > 0);
        // Restore: traffic flows again.
        assert_eq!(net.set_link_state(Dpid::new(1), Dpid::new(2), 1.0), 2);
        net.run_until(SimTime::from_secs(15), &mut ctrl);
        assert!(net.delivered_bytes() > delivered_up, "no recovery");
        // No such link: harmless.
        assert_eq!(net.set_link_state(Dpid::new(7), Dpid::new(9), 0.0), 0);
    }

    fn chaos_hooks_wipe_and_reboot<P: PuntDiscipline>() {
        let (mut net, mut ctrl, ft) = line::<P>(4, 1, 2);
        net.inject_flows([flow(ft, 0, 20, 8_000_000)]);
        net.run_until(SimTime::from_secs(4), &mut ctrl);
        let punts_before = net.counters().packet_ins;

        // A wipe loses the table and nothing else.
        assert!(net.wipe_switch(Dpid::new(2)) > 0);
        assert_eq!(net.switch(Dpid::new(2)).unwrap().flow_count(), 0);
        let port_bytes = |net: &Engine<P>, dpid: u64| {
            let sw = net.switch(Dpid::new(dpid)).unwrap();
            let all = StatsRequest::Port {
                port_no: PortNo::ANY,
            };
            let StatsReply::Port(ports) = sw.stats(&all, net.now()) else {
                panic!("expected port stats");
            };
            ports.iter().map(|p| p.rx_bytes + p.tx_bytes).sum::<u64>()
        };
        assert!(port_bytes(&net, 2) > 0, "a wipe keeps port counters");

        // A reboot loses the table and the port counters.
        assert!(port_bytes(&net, 3) > 0);
        assert!(net.reboot_switch(Dpid::new(3)) > 0, "entries were lost");
        assert_eq!(net.switch(Dpid::new(3)).unwrap().flow_count(), 0);
        assert_eq!(port_bytes(&net, 3), 0);
        assert_eq!(net.reboot_switch(Dpid::new(99)), 0);
        assert_eq!(net.wipe_switch(Dpid::new(99)), 0);

        // Traffic re-punts at the first emptied switch (the install
        // covers the second) and keeps delivering.
        let delivered = net.delivered_bytes();
        net.run_until(SimTime::from_secs(8), &mut ctrl);
        assert!(net.counters().packet_ins > punts_before, "no re-punt");
        assert!(net.delivered_bytes() > delivered, "traffic recovers");
        assert!(net.switch(Dpid::new(3)).unwrap().flow_count() > 0);
    }

    fn step_matches_run_until<P: PuntDiscipline>() {
        let (mut a, mut ctrl_a, ft) = line::<P>(3, 1, 2);
        let (mut b, mut ctrl_b, _) = line::<P>(3, 1, 2);
        a.inject_flows([flow(ft, 0, 5, 8_000_000)]);
        b.inject_flows([flow(ft, 0, 5, 8_000_000)]);
        a.run_until(SimTime::from_secs(8), &mut ctrl_a);
        for _ in 0..8 {
            b.step(&mut ctrl_b);
        }
        assert_eq!(a.counters(), b.counters());
        assert_eq!(a.now(), b.now());
    }

    fn bidirectional_flows_create_pair_entries<P: PuntDiscipline>() {
        let (mut net, mut ctrl, ft) = line::<P>(3, 1, 2);
        net.inject_flows([flow(ft, 0, 4, 1_000_000).bidirectional(0.5)]);
        net.run_until(SimTime::from_secs(6), &mut ctrl);
        // The middle switch carries entries for both directions.
        let stats = flow_entries(&net, 2);
        let has = |ft: FiveTuple| {
            stats
                .iter()
                .any(|s| s.match_fields.five_tuple() == Some(ft))
        };
        assert!(has(ft) && has(ft.reversed()), "entries: {}", stats.len());
    }

    fn reruns_with_the_same_plan_are_identical<P: PuntDiscipline>() {
        let run = || {
            let topo = Topology::fat_tree(4);
            let plan = ShardPlan::partition(&topo, 4);
            let mut ctrl = LearningControllerStub::for_topology(topo.clone());
            let flows = crate::workload::benign_mix_on(&topo, 40, SimDuration::from_secs(10), 9);
            let mut net = Engine::<P>::with_plan(topo, NetworkConfig::default(), plan);
            net.inject_flows(flows);
            net.run_until(SimTime::from_secs(14), &mut ctrl);
            (net.counters(), ctrl.installs())
        };
        assert_eq!(run(), run());
    }
}
