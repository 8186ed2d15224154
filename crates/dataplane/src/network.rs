//! The network event loop: flow activation, per-tick traffic crediting
//! with link contention, flow-table expiry, and the synchronous control
//! channel.

use crate::flow::{ActiveFlow, FlowSpec};
use crate::link::{LinkModel, SimLink};
use crate::switch::SimSwitch;
use crate::topology::{HostSpec, Topology};
use crate::wheel::TimingWheel;
use athena_observe::Observe;
use athena_openflow::{Action, OfMessage, PacketHeader};
use athena_telemetry::{names, Counter, Gauge, Histogram, Telemetry};
use athena_types::{Dpid, FiveTuple, Ipv4Addr, LinkId, PortNo, SimDuration, SimTime, Xid};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The data plane's view of its controllers.
///
/// The simulator delivers southbound messages (packet-ins, flow-removed,
/// stats replies) synchronously and applies whatever commands come back.
/// [`ControllerLink::on_tick`] lets the control plane act on its own
/// schedule (statistics polling).
pub trait ControllerLink {
    /// Handles one southbound message; returns commands to apply.
    fn on_message(&mut self, from: Dpid, msg: OfMessage, now: SimTime) -> Vec<(Dpid, OfMessage)>;

    /// Called once per simulation tick; returns commands to apply (e.g.
    /// statistics requests).
    fn on_tick(&mut self, now: SimTime) -> Vec<(Dpid, OfMessage)> {
        let _ = now;
        Vec::new()
    }

    /// Handles a batch of packet-ins punted in one tick, returning the
    /// concatenated commands in batch order.
    ///
    /// The default loops [`ControllerLink::on_message`], so every
    /// controller is batch-capable; implementations that can amortize
    /// per-message overhead (span setup, journalling, counter traffic)
    /// override it — see `athena-controller`'s `ControllerCluster`. An
    /// override must produce the same commands, in the same order, as
    /// the sequential loop.
    fn on_packet_in_batch(
        &mut self,
        batch: Vec<(Dpid, OfMessage)>,
        now: SimTime,
    ) -> Vec<(Dpid, OfMessage)> {
        let mut out = Vec::new();
        for (dpid, msg) in batch {
            out.extend(self.on_message(dpid, msg, now));
        }
        out
    }
}

/// How the per-tick flow-expiry pass finds due entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExpiryMode {
    /// Hierarchical timing-wheel wake-ups: O(due switches) per tick.
    #[default]
    Wheel,
    /// The pre-wheel reference: scan every switch's full table every
    /// tick, O(total flows). Kept for differential tests (the wheel
    /// must produce the identical FLOW_REMOVED stream) and as the
    /// benchmark baseline the scale gate measures against.
    Scan,
}

/// Simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkConfig {
    /// The traffic-crediting tick.
    pub tick: SimDuration,
    /// How many times a table miss may punt to the controller per hop
    /// before the packet is dropped.
    pub max_punt_retries: usize,
    /// When set, every southbound message is encoded to its OpenFlow wire
    /// form and decoded back before delivery (and the round-trip is
    /// asserted lossless) — the control channel then exercises the real
    /// codec, at the cost of the encode/decode work.
    pub wire_mode: Option<athena_openflow::OfVersion>,
    /// How flow expiry locates due entries each tick.
    pub expiry: ExpiryMode,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            tick: SimDuration::from_secs(1),
            max_punt_retries: 1,
            wire_mode: None,
            expiry: ExpiryMode::Wheel,
        }
    }
}

/// Counters the simulator exposes after a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetworkCounters {
    /// Packet-in messages sent to the control plane.
    pub packet_ins: u64,
    /// Flow-removed messages sent to the control plane.
    pub flow_removeds: u64,
    /// Bytes delivered end-to-end.
    pub delivered_bytes: u64,
    /// Bytes dropped (congestion or no route).
    pub dropped_bytes: u64,
}

/// The simulated network.
///
/// See the [crate documentation](crate) for the simulation model.
#[derive(Debug)]
pub struct Network {
    topology: Topology,
    config: NetworkConfig,
    switches: HashMap<Dpid, SimSwitch>,
    links: HashMap<LinkId, SimLink>,
    pending: Vec<FlowSpec>, // sorted by start time, descending (pop from end)
    active: Vec<ActiveFlow>,
    now: SimTime,
    counters: NetworkCounters,
    next_xid: u32,
    tel: NetTelemetry,
    observe: Observe,
    /// Expiry wake-ups keyed on tick index (lazy cancellation: stale
    /// wake-ups fire spuriously and re-arm — see [`crate::wheel`]).
    wheel: TimingWheel<Dpid>,
    /// Earliest outstanding wake-up tick per switch (arm dedup).
    armed: HashMap<Dpid, u64>,
    /// `hosts[i]` by IP — first match wins, like the linear scan it
    /// replaces. O(1) where `Topology::host_by_ip` is O(hosts).
    host_index: HashMap<Ipv4Addr, usize>,
    /// Unidirectional link leaving `(dpid, port)` — O(1) `link_from`.
    egress: HashMap<(Dpid, PortNo), LinkId>,
    /// Host-facing `(dpid, port)` pairs — O(1) delivery check.
    host_ports: HashSet<(Dpid, PortNo)>,
}

/// The network's telemetry instruments (detached until
/// [`Network::bind_telemetry`]).
#[derive(Debug, Default)]
struct NetTelemetry {
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
    /// Kept for run spans and the per-switch table gauges.
    handle: Option<Telemetry>,
}

impl Network {
    /// Builds a network from a topology with the default configuration.
    pub fn new(topology: Topology) -> Self {
        Self::with_config(topology, NetworkConfig::default())
    }

    /// Builds a network with an explicit configuration.
    pub fn with_config(topology: Topology, config: NetworkConfig) -> Self {
        let mut switches = HashMap::new();
        for s in &topology.switches {
            switches.insert(s.dpid, SimSwitch::new(s.dpid, s.n_ports));
        }
        let mut links = HashMap::new();
        let mut egress = HashMap::new();
        for l in &topology.links {
            let fwd = LinkId::new(l.a.0, l.a.1, l.b.0, l.b.1);
            links.insert(fwd, SimLink::new(fwd, l.capacity_bps));
            let rev = fwd.reversed();
            links.insert(rev, SimLink::new(rev, l.capacity_bps));
            // First match wins, like Topology::link_from's scan.
            egress.entry(l.a).or_insert(fwd);
            egress.entry(l.b).or_insert(rev);
        }
        let mut host_index = HashMap::new();
        let mut host_ports = HashSet::new();
        for (i, h) in topology.hosts.iter().enumerate() {
            host_index.entry(h.ip).or_insert(i);
            host_ports.insert((h.switch, h.port));
        }
        Network {
            topology,
            config,
            switches,
            links,
            pending: Vec::new(),
            active: Vec::new(),
            now: SimTime::ZERO,
            counters: NetworkCounters::default(),
            next_xid: 1,
            tel: NetTelemetry::default(),
            observe: Observe::disabled(),
            wheel: TimingWheel::new(0),
            armed: HashMap::new(),
            host_index,
            egress,
            host_ports,
        }
    }

    /// The host (if any) owning `ip`, via the constructed-once index.
    fn host_by_ip(&self, ip: Ipv4Addr) -> Option<HostSpec> {
        self.host_index
            .get(&ip)
            .and_then(|i| self.topology.hosts.get(*i))
            .copied()
    }

    /// The link leaving `(dpid, port)`, via the constructed-once index.
    fn link_from(&self, dpid: Dpid, port: PortNo) -> Option<LinkId> {
        self.egress.get(&(dpid, port)).copied()
    }

    /// The wheel's tick unit for a deadline: the first tick boundary at
    /// or after it (the naive scan removed an entry at the first tick
    /// `t` with `expires_at <= t`).
    fn tick_of(&self, t: SimTime) -> u64 {
        t.as_micros().div_ceil(self.config.tick.as_micros().max(1))
    }

    /// Schedules an expiry wake-up for `dpid` at its table's next
    /// deadline, unless an earlier or equal wake-up is outstanding.
    fn arm_switch(&mut self, dpid: Dpid) {
        if self.config.expiry == ExpiryMode::Scan {
            return;
        }
        let Some(next) = self.switches.get(&dpid).and_then(|sw| sw.next_expiry()) else {
            return;
        };
        // Clamp to the wheel's next firable tick so `armed` always names
        // the slot the entry actually landed in (schedule clamps too; an
        // unclamped record would suppress every future re-arm).
        let due = self.tick_of(next).max(self.wheel.now() + 1);
        match self.armed.get(&dpid) {
            Some(armed) if *armed <= due => {}
            _ => {
                self.wheel.schedule(due, dpid);
                self.armed.insert(dpid, due);
                self.tel.wheel_armed.inc();
            }
        }
    }

    /// Routes the simulator's counters, per-tick step latency, and
    /// per-switch flow-table lookup totals into `tel`.
    pub fn bind_telemetry(&mut self, tel: &Telemetry) {
        for sw in self.switches.values_mut() {
            sw.bind_telemetry(tel);
        }
        let m = tel.metrics();
        let sub = names::dataplane::SUBSYSTEM;
        self.tel = NetTelemetry {
            step_ns: m.histogram(sub, names::dataplane::STEP_NS),
            packet_ins: m.counter(sub, names::dataplane::PACKET_INS),
            flow_removeds: m.counter(sub, names::dataplane::FLOW_REMOVEDS),
            delivered_bytes: m.counter(sub, names::dataplane::DELIVERED_BYTES),
            dropped_bytes: m.counter(sub, names::dataplane::DROPPED_BYTES),
            links_degraded: m.gauge(sub, names::dataplane::LINKS_DEGRADED),
            switch_reboots: m.counter(sub, names::dataplane::SWITCH_REBOOTS),
            link_queue_drops: m.counter(sub, names::dataplane::LINK_QUEUE_DROPS),
            link_latency_us: m.histogram(sub, names::dataplane::LINK_LATENCY_US),
            wheel_armed: m.counter(sub, names::dataplane::WHEEL_ARMED),
            wheel_fired: m.counter(sub, names::dataplane::WHEEL_FIRED),
            wheel_spurious: m.counter(sub, names::dataplane::WHEEL_SPURIOUS),
            handle: Some(tel.clone()),
        };
    }

    /// Routes causal spans (packet-in roots, stats replies) and the
    /// per-tick sample/alert evaluation into `obs`. The dataplane drives
    /// the observe clock: [`Network::step`] calls `obs.on_tick` after
    /// every tick's work so samples see that tick's counters.
    pub fn bind_observe(&mut self, obs: &Observe) {
        self.observe = obs.clone();
    }

    /// Publishes per-switch flow-table lookup/match totals as gauges
    /// (called at the end of every [`Network::run_until`]).
    fn publish_table_gauges(&self) {
        let Some(tel) = &self.tel.handle else {
            return;
        };
        if !tel.is_enabled() {
            return;
        }
        let m = tel.metrics();
        let sub = names::dataplane::SUBSYSTEM;
        for (dpid, sw) in &self.switches {
            let instance = format!("s{}", dpid.raw());
            let table = sw.table();
            m.gauge_with(sub, names::dataplane::TABLE_LOOKUPS, &instance)
                .set(i64::try_from(table.lookup_count()).unwrap_or(i64::MAX));
            m.gauge_with(sub, names::dataplane::TABLE_MATCHES, &instance)
                .set(i64::try_from(table.matched_count()).unwrap_or(i64::MAX));
        }
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
        self.switches.get(&dpid)
    }

    /// Immutable access to a link direction.
    pub fn link(&self, id: LinkId) -> Option<&SimLink> {
        self.links.get(&id)
    }

    /// All link directions.
    pub fn links(&self) -> impl Iterator<Item = &SimLink> {
        self.links.values()
    }

    /// Flows currently active.
    pub fn active_flows(&self) -> &[ActiveFlow] {
        &self.active
    }

    /// Simulates a switch losing its flow state (reboot / table wipe).
    /// Traffic through it re-punts to the controller on the next tick.
    /// Returns how many entries were lost (no FLOW_REMOVED is sent — the
    /// state is gone, exactly like a real reboot).
    pub fn wipe_switch(&mut self, dpid: Dpid) -> usize {
        match self.switches.get_mut(&dpid) {
            Some(sw) => {
                let n = sw.flow_count();
                let _ = sw.clear_flows(self.now);
                n
            }
            None => 0,
        }
    }

    /// Simulates a full switch reboot: flow state *and* port counters are
    /// lost (see [`SimSwitch::reboot`]). Returns how many flow entries
    /// were lost, or 0 for an unknown switch.
    pub fn reboot_switch(&mut self, dpid: Dpid) -> usize {
        let now = self.now;
        match self.switches.get_mut(&dpid) {
            Some(sw) => {
                self.tel.switch_reboots.inc();
                sw.reboot(now)
            }
            None => 0,
        }
    }

    /// Sets the effective-capacity factor of every link direction between
    /// switches `a` and `b`: `0.0` takes the link down, `(0, 1)` degrades
    /// it, `1.0` restores it. Returns how many link directions were
    /// affected (0 when no such link exists).
    pub fn set_link_state(&mut self, a: Dpid, b: Dpid, factor: f64) -> usize {
        let mut n = 0;
        for link in self.links.values_mut() {
            let fwd = link.id.src == a && link.id.dst == b;
            let rev = link.id.src == b && link.id.dst == a;
            if fwd || rev {
                link.set_capacity_factor(factor);
                n += 1;
            }
        }
        let degraded = self
            .links
            .values()
            .filter(|l| l.capacity_factor() < 1.0)
            .count();
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
        for link in self.links.values_mut() {
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

    /// Runs the simulation until `until`, ticking traffic and exchanging
    /// control messages with `ctrl`.
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
        self.publish_table_gauges();
        if let (Some(span), Some(tel)) = (run_span, &self.tel.handle) {
            tel.tracer()
                .end_span(span, self.now, format!("{ticks} ticks"));
        }
    }

    /// Advances the simulation by exactly one tick. This is the unit the
    /// fault injector drives: it applies due fault events between steps,
    /// so every tick sees a consistent fault state.
    ///
    /// [`Network::run_until`] is `step` in a loop plus a trace span and
    /// the end-of-run gauge flush ([`Network::flush_gauges`]).
    pub fn step(&mut self, ctrl: &mut impl ControllerLink) {
        let before = self.counters;
        let step_timer = self.tel.step_ns.start_timer();
        let t = self.now + self.config.tick;
        self.now = t;

        // 1. Flow-table expiry (soft/hard timeouts) -> FLOW_REMOVED.
        // O(due switches), not O(total flows): the wheel wakes exactly
        // the switches whose earliest deadline falls on this tick.
        // `advance` returns fires sorted by (tick, dpid) — and within
        // one tick every fire shares the tick — so delivery runs in
        // dpid order, reproducing the naive dpid-sorted scan exactly.
        let tick_idx = self.tick_of(t);
        let fired: Vec<Dpid> = match self.config.expiry {
            ExpiryMode::Wheel => {
                let mut due: Vec<Dpid> = self
                    .wheel
                    .advance(tick_idx)
                    .into_iter()
                    .map(|(_, dpid)| dpid)
                    .collect();
                due.dedup();
                due
            }
            ExpiryMode::Scan => {
                // Reference mode: visit every switch, sorted so
                // FLOW_REMOVED delivery order never depends on hash
                // iteration order.
                let mut dpids: Vec<Dpid> = self.switches.keys().copied().collect();
                dpids.sort();
                dpids
            }
        };
        let wheel_mode = self.config.expiry == ExpiryMode::Wheel;
        for dpid in fired {
            if wheel_mode && self.armed.get(&dpid) == Some(&tick_idx) {
                self.armed.remove(&dpid);
            }
            let due = self
                .switches
                .get(&dpid)
                .and_then(|sw| sw.next_expiry())
                .is_some_and(|next| next <= t);
            if due {
                if wheel_mode {
                    self.tel.wheel_fired.inc();
                }
                let removed = match self.switches.get_mut(&dpid) {
                    Some(sw) => sw.expire(t),
                    None => Vec::new(),
                };
                for fr in removed {
                    self.counters.flow_removeds += 1;
                    let xid = self.fresh_xid();
                    let msg = via_wire(
                        OfMessage::FlowRemoved { xid, body: fr },
                        self.config.wire_mode,
                    );
                    let cmds = ctrl.on_message(dpid, msg, t);
                    self.apply_commands(cmds, ctrl);
                }
            } else if wheel_mode {
                // Deadline moved later (traffic re-armed an idle
                // timeout, entries were deleted, switch rebooted):
                // the wake-up is stale. Re-arm at the real deadline.
                self.tel.wheel_spurious.inc();
            }
            if wheel_mode {
                self.arm_switch(dpid);
            }
        }

        // 2. Activate flows whose start time has arrived.
        while let Some(spec) = self.pending.pop_if(|f| f.start <= t) {
            self.activate_flow(spec, ctrl);
        }

        // 3. Controller's own tick (stats polling etc.).
        let cmds = ctrl.on_tick(t);
        self.apply_commands(cmds, ctrl);

        // 4. Credit a tick of traffic for every active flow.
        self.tick_traffic(ctrl);

        // 5. Retire finished flows.
        let now = self.now;
        self.active.retain(|f| f.spec.end_time() > now);

        step_timer.observe(&self.tel.step_ns);
        // Mirror this tick's counter deltas into the registry — one
        // add per counter per tick keeps the inner loops untouched.
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
        // 6. Observe sample/alert tick — after mirroring, so the sampled
        // series include this tick's counter deltas.
        self.observe.on_tick(t);
    }

    /// Publishes the per-switch table gauges now (done automatically at
    /// the end of every [`Network::run_until`]; harnesses driving
    /// [`Network::step`] directly call this before rendering a report).
    pub fn flush_gauges(&self) {
        self.publish_table_gauges();
    }

    fn fresh_xid(&mut self) -> Xid {
        self.next_xid = self.next_xid.wrapping_add(1);
        Xid::new(self.next_xid)
    }

    /// Processes the first packet of a new flow (producing table-miss
    /// punts) and adds it to the active set.
    fn activate_flow(&mut self, spec: FlowSpec, ctrl: &mut impl ControllerLink) {
        let Some(src) = self.host_by_ip(spec.five_tuple.src) else {
            // Spoofed source: the flow still enters at the switch of the
            // *actual* sender if known; otherwise we cannot inject it.
            // DDoS generators attach spoofed flows to real ingress hosts by
            // destination lookup of an `ingress_hint`; absent that, drop.
            self.active.push(ActiveFlow::new(spec));
            return;
        };
        let header = spec.header(src.port);
        self.route_and_credit(src.switch, header, 1, u64::from(spec.packet_size), ctrl);
        self.active.push(ActiveFlow::new(spec));
    }

    /// One tick of traffic for all active flows, with link contention.
    fn tick_traffic(&mut self, ctrl: &mut impl ControllerLink) {
        let t = self.now;
        let tick = self.config.tick;
        // Phase 1: route every flow (read-only peeks; misses punt).
        struct Routed {
            flow_idx: usize,
            header: PacketHeader,
            entry_switch: Dpid,
            path_links: Vec<LinkId>,
            delivered: bool,
            bytes: u64,
        }
        let mut routed: Vec<Routed> = Vec::new();
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
                    let (links, delivered) = self.route_path(src.switch, header, ctrl);
                    routed.push(Routed {
                        flow_idx: idx,
                        header,
                        entry_switch: src.switch,
                        path_links: links,
                        delivered,
                        bytes: fwd_bytes,
                    });
                }
            }
            if spec.reverse_ratio > 0.0 {
                let rev_bytes = (fwd_bytes as f64 * spec.reverse_ratio) as u64;
                if rev_bytes > 0 {
                    if let Some(dst) = self.host_by_ip(spec.five_tuple.dst) {
                        let header = spec.reverse_header(dst.port);
                        let (links, delivered) = self.route_path(dst.switch, header, ctrl);
                        routed.push(Routed {
                            flow_idx: idx,
                            header,
                            entry_switch: dst.switch,
                            path_links: links,
                            delivered,
                            bytes: rev_bytes,
                        });
                    }
                }
            }
        }

        // Phase 2: offer bytes to links, settle contention.
        for r in &routed {
            for l in &r.path_links {
                if let Some(link) = self.links.get_mut(l) {
                    link.offer(r.bytes);
                }
            }
        }
        let mut fractions: HashMap<LinkId, f64> = HashMap::new();
        // Queue-drop/latency mirroring is additive per link, so the
        // unordered iteration cannot affect the registry's totals.
        let mut queue_drop_delta = 0u64;
        for (id, link) in &mut self.links {
            let queue_dropped_before = link.queue_dropped_bytes();
            let (frac, _) = link.settle_tick(tick);
            fractions.insert(*id, frac);
            if link.model().is_some() {
                queue_drop_delta += link.queue_dropped_bytes() - queue_dropped_before;
                self.tel.link_latency_us.record(link.last_latency_us());
            }
        }
        if queue_drop_delta > 0 {
            self.tel.link_queue_drops.add(queue_drop_delta);
        }

        // Phase 3: credit switch/flow counters with the delivered share.
        for r in routed {
            let frac: f64 = r
                .path_links
                .iter()
                .map(|l| fractions.get(l).copied().unwrap_or(1.0))
                .product();
            let delivered_bytes = (r.bytes as f64 * frac) as u64;
            let dropped = r.bytes - delivered_bytes;
            let Some(spec) = self.active.get(r.flow_idx).map(|f| f.spec) else {
                continue;
            };
            let packets = spec.packets_for(delivered_bytes.max(1));
            // Credit the counters along the path with the delivered share.
            self.credit_path(r.entry_switch, r.header, packets, delivered_bytes);
            // Account drops on the first congested link's egress switch.
            if dropped > 0 {
                if let Some(congested) = r
                    .path_links
                    .iter()
                    .find(|l| fractions.get(l).copied().unwrap_or(1.0) < 1.0)
                {
                    if let Some(sw) = self.switches.get_mut(&congested.src) {
                        sw.count_tx_drop(congested.src_port, spec.packets_for(dropped));
                    }
                }
            }
            let Some(f) = self.active.get_mut(r.flow_idx) else {
                continue;
            };
            f.last_tick_routed = r.delivered;
            if r.delivered {
                f.delivered_bytes += delivered_bytes;
                f.dropped_bytes += dropped;
                self.counters.delivered_bytes += delivered_bytes;
                self.counters.dropped_bytes += dropped;
            } else {
                f.dropped_bytes += r.bytes;
                self.counters.dropped_bytes += r.bytes;
            }
        }
    }

    /// Traces a packet's path with read-only lookups, punting on misses.
    /// Returns the traversed links and whether a host was reached.
    fn route_path(
        &mut self,
        entry_switch: Dpid,
        header: PacketHeader,
        ctrl: &mut impl ControllerLink,
    ) -> (Vec<LinkId>, bool) {
        let mut links = Vec::new();
        let mut dpid = entry_switch;
        let mut pkt = header;
        let max_hops = self.switches.len() + 2;
        for _ in 0..max_hops {
            let actions = match self.peek_with_punt(dpid, &pkt, ctrl) {
                Some(a) => a,
                None => return (links, false),
            };
            let Some(out) = Action::first_output(&actions) else {
                return (links, false); // drop rule
            };
            if out == PortNo::CONTROLLER {
                return (links, false);
            }
            if let Some(link) = self.link_from(dpid, out) {
                links.push(link);
                dpid = link.dst;
                pkt = apply_rewrites(&actions, pkt).with_in_port(link.dst_port);
                continue;
            }
            // Host-facing port: delivered if some host sits there.
            let delivered = self.host_ports.contains(&(dpid, out));
            return (links, delivered);
        }
        (links, false) // loop guard
    }

    /// Read-only lookup at one switch; on a miss, punts to the controller
    /// (PACKET_IN) and retries.
    fn peek_with_punt(
        &mut self,
        dpid: Dpid,
        pkt: &PacketHeader,
        ctrl: &mut impl ControllerLink,
    ) -> Option<Vec<Action>> {
        for attempt in 0..=self.config.max_punt_retries {
            if let Some(actions) = self.switches.get(&dpid)?.peek(pkt, self.now) {
                return Some(actions);
            }
            if attempt == self.config.max_punt_retries {
                break;
            }
            self.counters.packet_ins += 1;
            let xid = self.fresh_xid();
            let msg = via_wire(OfMessage::packet_in(xid, *pkt), self.config.wire_mode);
            // Root of the causal chain: everything the controller does in
            // response (pipeline, store writes, verdicts) joins this trace.
            let span = self.observe.span_at("dataplane", "packet_in", self.now);
            let cmds = ctrl.on_message(dpid, msg, self.now);
            self.apply_commands(cmds, ctrl);
            span.finish(format_args!("dpid={} xid={}", dpid.raw(), xid.raw()));
        }
        None
    }

    /// Credits counters along an (already-routed) path.
    fn credit_path(&mut self, entry_switch: Dpid, header: PacketHeader, packets: u64, bytes: u64) {
        let mut dpid = entry_switch;
        let mut pkt = header;
        let max_hops = self.switches.len() + 2;
        for _ in 0..max_hops {
            let Some(sw) = self.switches.get_mut(&dpid) else {
                return;
            };
            let Some(actions) = sw.process(&pkt, self.now, packets, bytes) else {
                return;
            };
            let Some(out) = Action::first_output(&actions) else {
                return;
            };
            if let Some(link) = self.link_from(dpid, out) {
                dpid = link.dst;
                pkt = apply_rewrites(&actions, pkt).with_in_port(link.dst_port);
                continue;
            }
            return;
        }
    }

    /// Routes a single packet with full counter crediting (used for flow
    /// activation and PACKET_OUT).
    fn route_and_credit(
        &mut self,
        entry_switch: Dpid,
        header: PacketHeader,
        packets: u64,
        bytes: u64,
        ctrl: &mut impl ControllerLink,
    ) {
        let (_, _) = self.route_path(entry_switch, header, ctrl);
        self.credit_path(entry_switch, header, packets, bytes);
    }

    /// Applies controller commands; replies (e.g. stats) are fed back to
    /// the controller, bounded to avoid livelock.
    fn apply_commands(
        &mut self,
        mut commands: Vec<(Dpid, OfMessage)>,
        ctrl: &mut impl ControllerLink,
    ) {
        let mut depth = 0;
        while !commands.is_empty() && depth < 8 {
            depth += 1;
            let mut replies: Vec<(Dpid, OfMessage)> = Vec::new();
            for (dpid, msg) in commands.drain(..) {
                let msg = via_wire(msg, self.config.wire_mode);
                match msg {
                    OfMessage::FlowMod { body, .. } => {
                        if let Some(sw) = self.switches.get_mut(&dpid) {
                            let removed = sw.apply_flow_mod(&body, self.now);
                            for fr in removed {
                                self.counters.flow_removeds += 1;
                                let xid = self.fresh_xid();
                                let reply = via_wire(
                                    OfMessage::FlowRemoved { xid, body: fr },
                                    self.config.wire_mode,
                                );
                                replies.extend(ctrl.on_message(dpid, reply, self.now));
                            }
                            // The mod may have introduced an earlier
                            // deadline: schedule its wake-up.
                            self.arm_switch(dpid);
                        }
                    }
                    OfMessage::PacketOut { body, .. } => {
                        let bytes = u64::from(body.header.byte_len);
                        if let Some(out) = Action::first_output(&body.actions) {
                            let pkt = body.header.with_in_port(PortNo::CONTROLLER);
                            // Inject at the named switch's egress port.
                            if let Some(link) = self.link_from(dpid, out) {
                                let next =
                                    apply_rewrites(&body.actions, pkt).with_in_port(link.dst_port);
                                self.credit_path(link.dst, next, 1, bytes);
                            }
                        }
                    }
                    OfMessage::StatsRequest { xid, body } => {
                        if let Some(sw) = self.switches.get(&dpid) {
                            let reply = sw.stats(&body, self.now);
                            let reply = via_wire(
                                OfMessage::StatsReply { xid, body: reply },
                                self.config.wire_mode,
                            );
                            let span = self.observe.span_at("dataplane", "stats_reply", self.now);
                            replies.extend(ctrl.on_message(dpid, reply, self.now));
                            span.finish(format_args!("dpid={}", dpid.raw()));
                        }
                    }
                    OfMessage::EchoRequest { xid, data } => {
                        replies.extend(ctrl.on_message(
                            dpid,
                            OfMessage::EchoReply { xid, data },
                            self.now,
                        ));
                    }
                    OfMessage::BarrierRequest { xid } => {
                        replies.extend(ctrl.on_message(
                            dpid,
                            OfMessage::BarrierReply { xid },
                            self.now,
                        ));
                    }
                    OfMessage::FeaturesRequest { xid } => {
                        if let Some(sw) = self.switches.get(&dpid) {
                            let body = athena_openflow::FeaturesReply {
                                dpid,
                                n_tables: 1,
                                ports: sw.port_numbers(),
                            };
                            replies.extend(ctrl.on_message(
                                dpid,
                                OfMessage::FeaturesReply { xid, body },
                                self.now,
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

/// Round-trips a message through the OpenFlow wire codec when wire mode
/// is enabled, asserting losslessness.
pub(crate) fn via_wire(msg: OfMessage, wire: Option<athena_openflow::OfVersion>) -> OfMessage {
    match wire {
        None => msg,
        Some(v) => {
            let bytes = athena_openflow::encode_message(&msg, v);
            match athena_openflow::decode_message(&bytes) {
                Ok((decoded, _)) => {
                    debug_assert_eq!(decoded, msg, "codec round-trip must be lossless");
                    decoded
                }
                Err(e) => {
                    // A decode failure is a codec bug; surface it under
                    // test but degrade to the in-memory message in release
                    // rather than taking down the whole simulation.
                    debug_assert!(false, "wire round-trip decode failed: {e}");
                    msg
                }
            }
        }
    }
}

/// Applies header-rewrite actions to a packet (set-field actions).
pub(crate) fn apply_rewrites(actions: &[Action], mut pkt: PacketHeader) -> PacketHeader {
    for a in actions {
        match a {
            Action::SetEthSrc(m) => pkt.eth_src = *m,
            Action::SetEthDst(m) => pkt.eth_dst = *m,
            Action::SetIpSrc(ip) => pkt.ip_src = Some(*ip),
            Action::SetIpDst(ip) => pkt.ip_dst = Some(*ip),
            Action::SetTpSrc(p) => pkt.tp_src = Some(*p),
            Action::SetTpDst(p) => pkt.tp_dst = Some(*p),
            _ => {}
        }
    }
    pkt
}

/// Shared adjacency: `dpid -> [(out port, neighbor, neighbor's in port)]`.
type SharedAdjacency = Arc<HashMap<Dpid, Vec<(PortNo, Dpid, PortNo)>>>;

/// One punt's frozen routing inputs `(ingress, flow, destination host,
/// hop-distance map)` for the parallel batch fan-out.
type PuntJob = (Dpid, FiveTuple, HostSpec, Arc<HashMap<Dpid, u32>>);

/// A minimal reactive shortest-path controller used by the data-plane
/// crate's own tests and examples. The full distributed controller lives
/// in `athena-controller`.
///
/// On each `PACKET_IN` it looks up the destination host and installs
/// exact-match forwarding rules (with an idle timeout) along a shortest
/// path. When several shortest paths exist (fat-tree/Clos fabrics) the
/// per-hop choice is ECMP: a deterministic hash of the five-tuple picks
/// among the equal-cost next hops, so flows spread across the fabric
/// instead of all collapsing onto the first path BFS happens to find —
/// on a unique-shortest-path topology this reduces to plain BFS.
#[derive(Debug, Clone)]
pub struct LearningControllerStub {
    topology: Topology,
    /// Idle timeout for installed rules.
    pub idle_timeout: SimDuration,
    installs: u64,
    /// Host lookup by IP, built once — a linear scan over the host list
    /// per PACKET_IN melts down at 100k-host scale.
    host_of: HashMap<Ipv4Addr, usize>,
    /// Adjacency built once; `Topology::shortest_path` rebuilds it per
    /// call, which dominates batch punt handling on large fabrics.
    /// `Arc` so batched punt handling can fan path computation out.
    adj: SharedAdjacency,
    /// Hop-distance maps keyed by destination switch, built lazily (one
    /// BFS per distinct destination edge switch, then O(path) per punt).
    dist_cache: HashMap<Dpid, Arc<HashMap<Dpid, u32>>>,
}

impl LearningControllerStub {
    /// Creates a stub for the given network.
    pub fn new(net: &Network) -> Self {
        Self::for_topology(net.topology().clone())
    }

    /// Creates a stub for a topology directly (no engine needed).
    pub fn for_topology(topology: Topology) -> Self {
        let mut host_of = HashMap::new();
        for (i, h) in topology.hosts.iter().enumerate() {
            host_of.entry(h.ip).or_insert(i);
        }
        let adj = Arc::new(topology.adjacency());
        LearningControllerStub {
            topology,
            idle_timeout: SimDuration::from_secs(30),
            installs: 0,
            host_of,
            adj,
            dist_cache: HashMap::new(),
        }
    }

    /// FNV-1a over the five-tuple — the deterministic ECMP flow hash.
    fn flow_hash(ft: &FiveTuple) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for word in [
            u64::from(ft.src.raw()),
            u64::from(ft.dst.raw()),
            u64::from(ft.src_port),
            u64::from(ft.dst_port),
            u64::from(ft.proto.number()),
        ] {
            for b in word.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Hop distances from every switch to `to` (BFS over the cached
    /// adjacency), computed once per destination.
    fn ensure_dists(&mut self, to: Dpid) -> Arc<HashMap<Dpid, u32>> {
        if let Some(d) = self.dist_cache.get(&to) {
            return Arc::clone(d);
        }
        let mut dist: HashMap<Dpid, u32> = HashMap::from([(to, 0)]);
        let mut queue = std::collections::VecDeque::from([to]);
        while let Some(cur) = queue.pop_front() {
            let d = dist.get(&cur).copied().unwrap_or(0);
            for (_, next, _) in self.adj.get(&cur).into_iter().flatten() {
                if !dist.contains_key(next) {
                    dist.insert(*next, d + 1);
                    queue.push_back(*next);
                }
            }
        }
        let dist = Arc::new(dist);
        self.dist_cache.insert(to, Arc::clone(&dist));
        dist
    }

    /// A shortest path `from -> to`, ECMP-balanced: at each hop the
    /// flow hash (mixed with the hop index) picks among the equal-cost
    /// downhill neighbours in adjacency order. Deterministic per flow.
    fn walk_ecmp(
        adj: &HashMap<Dpid, Vec<(PortNo, Dpid, PortNo)>>,
        dist: &HashMap<Dpid, u32>,
        from: Dpid,
        to: Dpid,
        h: u64,
    ) -> Option<Vec<(Dpid, PortNo)>> {
        dist.get(&from)?;
        let mut path = Vec::new();
        let mut cur = from;
        let mut hop = 0u32;
        while cur != to {
            let d = dist.get(&cur).copied()?;
            let candidates: Vec<(PortNo, Dpid)> = adj
                .get(&cur)
                .into_iter()
                .flatten()
                .filter(|(_, next, _)| dist.get(next).copied() == Some(d - 1))
                .map(|(port, next, _)| (*port, *next))
                .collect();
            if candidates.is_empty() {
                return None;
            }
            let pick = (h.rotate_left(hop * 8) as usize) % candidates.len();
            let (port, next) = candidates.get(pick).copied()?;
            path.push((cur, port));
            cur = next;
            hop += 1;
        }
        Some(path)
    }

    /// The `FlowMod` install sequence for one punted flow: the ECMP path
    /// hop by hop, then delivery out the destination host port.
    fn install_cmds(
        adj: &HashMap<Dpid, Vec<(PortNo, Dpid, PortNo)>>,
        dist: &HashMap<Dpid, u32>,
        from: Dpid,
        ft: FiveTuple,
        dst: HostSpec,
        idle: SimDuration,
    ) -> Vec<(Dpid, OfMessage)> {
        let h = Self::flow_hash(&ft);
        let Some(path) = Self::walk_ecmp(adj, dist, from, dst.switch, h) else {
            return Vec::new();
        };
        let m = athena_openflow::MatchFields::exact_five_tuple(ft);
        let mut cmds = Vec::with_capacity(path.len() + 1);
        for (hop, port) in &path {
            cmds.push((
                *hop,
                OfMessage::FlowMod {
                    xid: Xid::new(0),
                    body: athena_openflow::FlowMod::add(m, 100, vec![Action::Output(*port)])
                        .with_idle_timeout(idle),
                },
            ));
        }
        cmds.push((
            dst.switch,
            OfMessage::FlowMod {
                xid: Xid::new(0),
                body: athena_openflow::FlowMod::add(m, 100, vec![Action::Output(dst.port)])
                    .with_idle_timeout(idle),
            },
        ));
        cmds
    }

    /// Looks up the punted packet's destination host, if the message is
    /// a `PACKET_IN` for a known destination.
    fn punt_dst(&self, msg: &OfMessage) -> Option<(FiveTuple, HostSpec)> {
        let OfMessage::PacketIn { body, .. } = msg else {
            return None;
        };
        let ft = body.header.five_tuple()?;
        let dst = self
            .host_of
            .get(&ft.dst)
            .and_then(|i| self.topology.hosts.get(*i))
            .copied()?;
        Some((ft, dst))
    }

    /// Number of flow rules installed so far.
    pub fn installs(&self) -> u64 {
        self.installs
    }
}

impl ControllerLink for LearningControllerStub {
    fn on_message(&mut self, from: Dpid, msg: OfMessage, _now: SimTime) -> Vec<(Dpid, OfMessage)> {
        let Some((ft, dst)) = self.punt_dst(&msg) else {
            return Vec::new();
        };
        let dist = self.ensure_dists(dst.switch);
        let cmds = Self::install_cmds(&self.adj, &dist, from, ft, dst, self.idle_timeout);
        self.installs += cmds.len() as u64;
        cmds
    }

    /// Pipeline-processes a whole punt batch: the per-destination
    /// distance maps are warmed sequentially (shared cache), then every
    /// punt's path + install sequence is computed in parallel. Output is
    /// the in-order concatenation of what per-message handling returns.
    fn on_packet_in_batch(
        &mut self,
        batch: Vec<(Dpid, OfMessage)>,
        _now: SimTime,
    ) -> Vec<(Dpid, OfMessage)> {
        let idle = self.idle_timeout;
        let jobs: Vec<PuntJob> = batch
            .iter()
            .filter_map(|(from, msg)| {
                let (ft, dst) = self.punt_dst(msg)?;
                let dist = self.ensure_dists(dst.switch);
                Some((*from, ft, dst, dist))
            })
            .collect();
        let adj = Arc::clone(&self.adj);
        let per_punt: Vec<Vec<(Dpid, OfMessage)>> =
            athena_parallel::par_map(jobs, move |(from, ft, dst, dist)| {
                Self::install_cmds(&adj, dist, *from, *ft, *dst, idle)
            });
        let mut out = Vec::new();
        for cmds in per_punt {
            self.installs += cmds.len() as u64;
            out.extend(cmds);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowSpec;
    use athena_types::{FiveTuple, Ipv4Addr};

    fn two_host_net() -> (Network, LearningControllerStub, FiveTuple) {
        let topo = Topology::linear(3, 1);
        let net = Network::new(topo);
        let ctrl = LearningControllerStub::new(&net);
        let src = net
            .topology()
            .host(athena_types::HostId::new(1))
            .unwrap()
            .ip;
        let dst = net
            .topology()
            .host(athena_types::HostId::new(3))
            .unwrap()
            .ip;
        let ft = FiveTuple::tcp(src, 40_000, dst, 80);
        (net, ctrl, ft)
    }

    #[test]
    fn flow_is_routed_and_counted() {
        let (mut net, mut ctrl, ft) = two_host_net();
        net.inject_flows([FlowSpec::new(
            ft,
            SimTime::ZERO,
            SimDuration::from_secs(5),
            8_000_000, // 1 MB/s
        )]);
        net.run_until(SimTime::from_secs(8), &mut ctrl);
        // ~5 MB delivered (first tick activates, then credits).
        assert!(
            net.delivered_bytes() >= 4_000_000,
            "delivered {}",
            net.delivered_bytes()
        );
        // Exactly one packet-in chain: miss at each of 3 switches once.
        assert!(net.counters().packet_ins >= 1);
        assert!(ctrl.installs() >= 3);
        // Flow counters on the ingress switch reflect the traffic.
        let sw1 = net.switch(Dpid::new(1)).unwrap();
        let stats = sw1
            .table()
            .flow_stats(&athena_openflow::MatchFields::new(), net.now());
        assert!(!stats.is_empty());
        assert!(stats.iter().any(|s| s.byte_count > 1_000_000));
    }

    #[test]
    fn telemetry_mirrors_network_counters() {
        let (mut net, mut ctrl, ft) = two_host_net();
        let tel = Telemetry::new();
        net.bind_telemetry(&tel);
        net.inject_flows([FlowSpec::new(
            ft,
            SimTime::ZERO,
            SimDuration::from_secs(5),
            8_000_000,
        )]);
        net.run_until(SimTime::from_secs(8), &mut ctrl);
        let m = tel.metrics();
        assert_eq!(
            m.counter("dataplane", "packet_ins").get(),
            net.counters().packet_ins
        );
        assert_eq!(
            m.counter("dataplane", "delivered_bytes").get(),
            net.counters().delivered_bytes
        );
        // One step latency sample per tick.
        assert_eq!(m.histogram("dataplane", "step_ns").snapshot().count, 8);
        // Per-switch lookup gauges were published for the ingress switch.
        assert!(m.gauge_with("dataplane", "table_lookups", "s1").get() > 0);
        // The run span is in the trace with virtual stamps.
        let spans = tel.tracer().entries();
        assert!(spans
            .iter()
            .any(|e| e.name == "run_until" && e.sim_end == SimTime::from_secs(8)));
    }

    #[test]
    fn idle_timeout_produces_flow_removed_and_reinstall() {
        let (mut net, mut ctrl, ft) = two_host_net();
        ctrl.idle_timeout = SimDuration::from_secs(3);
        // Two short bursts separated by a long gap.
        net.inject_flows([
            FlowSpec::new(ft, SimTime::ZERO, SimDuration::from_secs(2), 1_000_000),
            FlowSpec::new(
                ft,
                SimTime::from_secs(10),
                SimDuration::from_secs(2),
                1_000_000,
            ),
        ]);
        net.run_until(SimTime::from_secs(15), &mut net_ctrl(&mut ctrl));
        assert!(net.counters().flow_removeds >= 3, "{:?}", net.counters());
        // The second burst re-punted.
        assert!(net.counters().packet_ins >= 2);
    }

    // Helper: pass a &mut T as impl ControllerLink.
    fn net_ctrl<T: ControllerLink>(c: &mut T) -> impl ControllerLink + '_ {
        struct Wrap<'a, T>(&'a mut T);
        impl<T: ControllerLink> ControllerLink for Wrap<'_, T> {
            fn on_message(
                &mut self,
                from: Dpid,
                msg: OfMessage,
                now: SimTime,
            ) -> Vec<(Dpid, OfMessage)> {
                self.0.on_message(from, msg, now)
            }
            fn on_tick(&mut self, now: SimTime) -> Vec<(Dpid, OfMessage)> {
                self.0.on_tick(now)
            }
        }
        Wrap(c)
    }

    #[test]
    fn congestion_drops_excess_traffic() {
        // Linear topology: two flows share the single 1 Gb/s path but
        // offer 2×0.8 Gb/s.
        let topo = Topology::linear(2, 2);
        let mut net = Network::new(topo);
        let mut ctrl = LearningControllerStub::new(&net);
        let h = |id: u64| {
            net.topology()
                .host(athena_types::HostId::new(id))
                .unwrap()
                .ip
        };
        let (a, b, c, d) = (h(1), h(2), h(3), h(4));
        net.inject_flows([
            FlowSpec::new(
                FiveTuple::tcp(a, 1, c, 80),
                SimTime::ZERO,
                SimDuration::from_secs(5),
                800_000_000,
            ),
            FlowSpec::new(
                FiveTuple::tcp(b, 2, d, 80),
                SimTime::ZERO,
                SimDuration::from_secs(5),
                800_000_000,
            ),
        ]);
        net.run_until(SimTime::from_secs(7), &mut ctrl);
        assert!(net.counters().dropped_bytes > 0, "{:?}", net.counters());
        // The inter-switch link shows congestion history.
        let link = net
            .topology()
            .link_from(Dpid::new(1), PortNo::new(1))
            .unwrap();
        assert!(net.link(link).unwrap().dropped_bytes() > 0);
    }

    #[test]
    fn no_route_means_no_delivery() {
        let topo = Topology::linear(2, 1);
        let mut net = Network::new(topo);
        let mut ctrl = LearningControllerStub::new(&net);
        let src = net
            .topology()
            .host(athena_types::HostId::new(1))
            .unwrap()
            .ip;
        let ft = FiveTuple::tcp(src, 1, Ipv4Addr::new(99, 99, 99, 99), 80);
        net.inject_flows([FlowSpec::new(
            ft,
            SimTime::ZERO,
            SimDuration::from_secs(3),
            1_000_000,
        )]);
        net.run_until(SimTime::from_secs(5), &mut ctrl);
        assert_eq!(net.delivered_bytes(), 0);
        assert!(net.counters().dropped_bytes > 0);
    }

    #[test]
    fn stats_request_round_trip_via_on_tick() {
        struct Poller {
            inner: LearningControllerStub,
            replies: u64,
        }
        impl ControllerLink for Poller {
            fn on_message(
                &mut self,
                from: Dpid,
                msg: OfMessage,
                now: SimTime,
            ) -> Vec<(Dpid, OfMessage)> {
                if matches!(msg, OfMessage::StatsReply { .. }) {
                    self.replies += 1;
                    return Vec::new();
                }
                self.inner.on_message(from, msg, now)
            }
            fn on_tick(&mut self, _now: SimTime) -> Vec<(Dpid, OfMessage)> {
                vec![(
                    Dpid::new(1),
                    OfMessage::StatsRequest {
                        xid: Xid::athena_marked(1),
                        body: athena_openflow::StatsRequest::Port {
                            port_no: PortNo::ANY,
                        },
                    },
                )]
            }
        }
        let topo = Topology::linear(2, 1);
        let mut net = Network::new(topo);
        let mut ctrl = Poller {
            inner: LearningControllerStub::new(&net),
            replies: 0,
        };
        net.run_until(SimTime::from_secs(3), &mut ctrl);
        assert_eq!(ctrl.replies, 3); // one per tick
    }

    #[test]
    fn link_down_blackholes_and_restore_recovers() {
        let (mut net, mut ctrl, ft) = two_host_net();
        net.inject_flows([FlowSpec::new(
            ft,
            SimTime::ZERO,
            SimDuration::from_secs(20),
            8_000_000,
        )]);
        net.run_until(SimTime::from_secs(5), &mut ctrl);
        let delivered_up = net.delivered_bytes();
        assert!(delivered_up > 0);
        // Take the s1-s2 link down: traffic blackholes.
        assert_eq!(net.set_link_state(Dpid::new(1), Dpid::new(2), 0.0), 2);
        net.run_until(SimTime::from_secs(10), &mut ctrl);
        let delivered_down = net.delivered_bytes();
        assert_eq!(delivered_down, delivered_up, "link was down");
        assert!(net.counters().dropped_bytes > 0);
        // Restore: traffic flows again.
        assert_eq!(net.set_link_state(Dpid::new(1), Dpid::new(2), 1.0), 2);
        net.run_until(SimTime::from_secs(15), &mut ctrl);
        assert!(net.delivered_bytes() > delivered_down, "no recovery");
    }

    #[test]
    fn set_link_state_on_unknown_pair_is_harmless() {
        let (mut net, _, _) = two_host_net();
        assert_eq!(net.set_link_state(Dpid::new(7), Dpid::new(9), 0.0), 0);
    }

    #[test]
    fn reboot_switch_clears_flows_and_port_counters() {
        let (mut net, mut ctrl, ft) = two_host_net();
        net.inject_flows([FlowSpec::new(
            ft,
            SimTime::ZERO,
            SimDuration::from_secs(20),
            8_000_000,
        )]);
        net.run_until(SimTime::from_secs(5), &mut ctrl);
        assert!(net.switch(Dpid::new(2)).unwrap().flow_count() > 0);
        let lost = net.reboot_switch(Dpid::new(2));
        assert!(lost > 0);
        let sw = net.switch(Dpid::new(2)).unwrap();
        assert_eq!(sw.flow_count(), 0);
        let athena_openflow::StatsReply::Port(ports) = sw.stats(
            &athena_openflow::StatsRequest::Port {
                port_no: PortNo::ANY,
            },
            net.now(),
        ) else {
            panic!("expected port stats");
        };
        assert!(ports.iter().all(|p| p.rx_bytes == 0 && p.tx_bytes == 0));
        assert_eq!(net.reboot_switch(Dpid::new(99)), 0);
        // The flow re-punts and keeps delivering after the reboot.
        let before = net.delivered_bytes();
        net.run_until(SimTime::from_secs(10), &mut ctrl);
        assert!(net.delivered_bytes() > before);
    }

    #[test]
    fn step_matches_run_until() {
        let (mut a, mut ctrl_a, ft) = two_host_net();
        let (mut b, mut ctrl_b, _) = two_host_net();
        let flows = [FlowSpec::new(
            ft,
            SimTime::ZERO,
            SimDuration::from_secs(5),
            8_000_000,
        )];
        a.inject_flows(flows);
        b.inject_flows(flows);
        a.run_until(SimTime::from_secs(8), &mut ctrl_a);
        for _ in 0..8 {
            b.step(&mut ctrl_b);
        }
        assert_eq!(a.counters(), b.counters());
        assert_eq!(a.now(), b.now());
    }

    #[test]
    fn bidirectional_flows_create_pair_entries() {
        let (mut net, mut ctrl, ft) = two_host_net();
        net.inject_flows([
            FlowSpec::new(ft, SimTime::ZERO, SimDuration::from_secs(4), 1_000_000)
                .bidirectional(0.5),
        ]);
        net.run_until(SimTime::from_secs(6), &mut ctrl);
        // The middle switch carries entries for both directions.
        let sw2 = net.switch(Dpid::new(2)).unwrap();
        let stats = sw2
            .table()
            .flow_stats(&athena_openflow::MatchFields::new(), net.now());
        let fwd = stats
            .iter()
            .any(|s| s.match_fields.five_tuple() == Some(ft));
        let rev = stats
            .iter()
            .any(|s| s.match_fields.five_tuple() == Some(ft.reversed()));
        assert!(fwd && rev, "entries: {}", stats.len());
    }
}
