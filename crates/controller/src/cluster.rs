//! The distributed controller cluster.

use crate::apps::ReactiveForwarding;
use crate::interceptor::{InterceptCtx, MessageInterceptor};
use crate::packet::{PacketContext, PacketProcessor};
use crate::persist::{rule_installs, MastershipEvent, RuleEvent};
use crate::services::{FlowRuleService, HostService, MastershipService, PathService};
use crate::stats::StatsPoller;
use athena_dataplane::{ControllerLink, Topology};
use athena_observe::Observe;
use athena_openflow::OfMessage;
use athena_persist::record::kind;
use athena_telemetry::{names, Counter, Gauge, Histogram, Telemetry};
use athena_types::{ControllerId, Dpid, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Cluster-level message counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ClusterCounters {
    /// Packet-ins processed.
    pub packet_ins: u64,
    /// Flow-mods emitted.
    pub flow_mods: u64,
    /// Statistics replies received.
    pub stats_replies: u64,
    /// Flow-removed notifications received.
    pub flow_removeds: u64,
}

/// A cluster of controller instances sharing distributed stores
/// (mastership, hosts, flow rules) — the ONOS deployment shape of the
/// paper's Figure 2, collapsed into one address space.
///
/// The cluster implements [`ControllerLink`], so it plugs directly into
/// [`athena_dataplane::Network::run_until`] (or `ShardedNetwork`'s).
pub struct ControllerCluster {
    topology: Topology,
    pub(crate) mastership: MastershipService,
    hosts: HostService,
    paths: PathService,
    pub(crate) flow_rules: FlowRuleService,
    processors: Vec<Box<dyn PacketProcessor>>,
    interceptors: Vec<Box<dyn MessageInterceptor>>,
    poller: Option<StatsPoller>,
    pub(crate) counters: ClusterCounters,
    pub(crate) failover: FailoverCounters,
    tel: ClusterTelemetry,
    observe: Observe,
    pub(crate) persist: Option<crate::persist::ControllerPersist>,
    // Virtual time of the latest southbound message or tick — stamps
    // journal records written from paths that do not carry `now`
    // (crash/rejoin/fail-over calls arrive from the fault injector).
    pub(crate) last_seen: SimTime,
}

/// The cluster's telemetry instruments (detached until
/// [`ControllerCluster::bind_telemetry`]).
#[derive(Debug, Clone)]
struct ClusterTelemetry {
    packet_ins: Counter,
    flow_mods: Counter,
    stats_replies: Counter,
    flow_removeds: Counter,
    packet_in_ns: Histogram,
    elections: Counter,
    switches_moved: Counter,
    instances_down: Gauge,
}

impl Default for ClusterTelemetry {
    fn default() -> Self {
        ClusterTelemetry {
            packet_ins: Counter::detached(),
            flow_mods: Counter::detached(),
            stats_replies: Counter::detached(),
            flow_removeds: Counter::detached(),
            packet_in_ns: Histogram::detached(),
            elections: Counter::detached(),
            switches_moved: Counter::detached(),
            instances_down: Gauge::detached(),
        }
    }
}

/// Counters for mastership re-elections triggered by instance faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FailoverCounters {
    /// Re-election rounds run (one per crash or rejoin that moved
    /// anything).
    pub elections: u64,
    /// Switch masterships moved across instances.
    pub switches_moved: u64,
}

impl ControllerCluster {
    /// Creates a cluster with reactive forwarding and a default 5-second
    /// statistics poller — the usual ONOS baseline.
    pub fn new(topo: &Topology) -> Self {
        let mut cluster = Self::bare(topo);
        cluster.add_processor(Box::new(ReactiveForwarding::new()));
        let switches = topo.switches.iter().map(|s| s.dpid).collect();
        cluster.poller = Some(StatsPoller::new(switches, SimDuration::from_secs(5)));
        cluster
    }

    /// Creates a cluster with no applications and no poller.
    pub fn bare(topo: &Topology) -> Self {
        ControllerCluster {
            topology: topo.clone(),
            mastership: MastershipService::from_topology(topo),
            hosts: HostService::from_topology(topo),
            paths: PathService::from_topology(topo),
            flow_rules: FlowRuleService::new(),
            processors: Vec::new(),
            interceptors: Vec::new(),
            poller: None,
            counters: ClusterCounters::default(),
            failover: FailoverCounters::default(),
            tel: ClusterTelemetry::default(),
            observe: Observe::disabled(),
            persist: None,
            last_seen: SimTime::ZERO,
        }
    }

    /// Routes the cluster's counters and packet-in service latency into
    /// `tel` (also rebinds the statistics poller, if any).
    pub fn bind_telemetry(&mut self, tel: &Telemetry) {
        let m = tel.metrics();
        let ctl = names::controller::SUBSYSTEM;
        let fo = names::failover::SUBSYSTEM;
        self.tel = ClusterTelemetry {
            packet_ins: m.counter(ctl, names::controller::PACKET_INS),
            flow_mods: m.counter(ctl, names::controller::FLOW_MODS),
            stats_replies: m.counter(ctl, names::controller::STATS_REPLIES),
            flow_removeds: m.counter(ctl, names::controller::FLOW_REMOVEDS),
            packet_in_ns: m.histogram(ctl, names::controller::PACKET_IN_NS),
            elections: m.counter(fo, names::failover::ELECTIONS),
            switches_moved: m.counter(fo, names::failover::SWITCHES_MOVED),
            instances_down: m.gauge(fo, names::failover::INSTANCES_DOWN),
        };
        if let Some(poller) = &mut self.poller {
            poller.bind_telemetry(tel);
        }
    }

    /// Routes causal spans (the controller leg of a packet-in trace)
    /// into `obs`.
    pub fn bind_observe(&mut self, obs: &Observe) {
        self.observe = obs.clone();
    }

    /// Registers a packet processor (kept sorted by priority, highest
    /// first).
    pub fn add_processor(&mut self, p: Box<dyn PacketProcessor>) {
        self.processors.push(p);
        self.processors
            .sort_by_key(|p| std::cmp::Reverse(p.priority()));
    }

    /// Registers a southbound interceptor (the Athena SB hook).
    pub fn add_interceptor(&mut self, i: Box<dyn MessageInterceptor>) {
        self.interceptors.push(i);
    }

    /// Number of controller instances in the cluster.
    pub fn instance_count(&self) -> usize {
        self.mastership.instances().len()
    }

    /// The instance mastering a switch.
    pub fn master_of(&self, dpid: Dpid) -> Option<ControllerId> {
        self.mastership.master_of(dpid)
    }

    /// Fails a switch over to another controller instance (the cluster's
    /// mastership re-election). Subsequent southbound messages from the
    /// switch are handled — and observed by Athena's SB elements — under
    /// the new master.
    pub fn fail_over(&mut self, dpid: Dpid, to: ControllerId) {
        self.mastership.reassign(dpid, to);
        self.journal(kind::MASTERSHIP, [MastershipEvent::Reassign { dpid, to }]);
    }

    /// Crashes a controller instance: its switches automatically
    /// re-elect masters among the survivors (deterministic round-robin
    /// in dpid order). Returns the switches that moved. Counted under
    /// `failover/elections` and `failover/switches_moved`.
    pub fn crash_instance(&mut self, c: ControllerId) -> Vec<Dpid> {
        let was_alive = self.mastership.is_alive(c);
        let moved = self.mastership.crash(c);
        self.publish_instances_down();
        if was_alive {
            self.journal(kind::MASTERSHIP, [MastershipEvent::Crash(c)]);
        }
        if !moved.is_empty() {
            self.failover.elections += 1;
            self.failover.switches_moved += moved.len() as u64;
            self.tel.elections.inc();
            self.tel.switches_moved.add(moved.len() as u64);
        }
        moved
    }

    /// Rejoins a crashed instance: it reclaims mastership of its
    /// topology-preferred switches. Returns the switches that moved
    /// back.
    pub fn rejoin_instance(&mut self, c: ControllerId) -> Vec<Dpid> {
        let was_down = !self.mastership.is_alive(c);
        let moved = self.mastership.rejoin(c);
        self.publish_instances_down();
        if was_down {
            self.journal(kind::MASTERSHIP, [MastershipEvent::Rejoin(c)]);
        }
        if !moved.is_empty() {
            self.failover.elections += 1;
            self.failover.switches_moved += moved.len() as u64;
            self.tel.elections.inc();
            self.tel.switches_moved.add(moved.len() as u64);
        }
        moved
    }

    /// `true` if the instance has not crashed.
    pub fn instance_alive(&self, c: ControllerId) -> bool {
        self.mastership.is_alive(c)
    }

    fn publish_instances_down(&self) {
        let down = self.mastership.instances().len() - self.mastership.alive_instances().len();
        self.tel
            .instances_down
            .set(i64::try_from(down).unwrap_or(i64::MAX));
    }

    /// The cluster's message counters.
    pub fn counters(&self) -> ClusterCounters {
        self.counters
    }

    /// The mastership re-election counters.
    pub fn failover_counters(&self) -> FailoverCounters {
        self.failover
    }

    /// The flow-rule service (per-application attribution).
    pub fn flow_rules(&self) -> &FlowRuleService {
        &self.flow_rules
    }

    /// The host service.
    pub fn hosts(&self) -> &HostService {
        &self.hosts
    }

    /// The topology view.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The packet-in pipeline, for a single punt and for each punt of a
    /// batch alike: count it, learn the source host, run the processors
    /// in priority order until one blocks, and append what they decided.
    fn packet_in(
        &mut self,
        from: Dpid,
        header: athena_openflow::PacketHeader,
        now: SimTime,
        commands: &mut Vec<(Dpid, OfMessage)>,
    ) {
        self.counters.packet_ins += 1;
        self.tel.packet_ins.inc();
        // Host learning from observed source addresses.
        if let (Some(ip), true) = (header.ip_src, header.in_port.is_physical()) {
            if self.hosts.location_of(ip).is_none() {
                self.hosts.learn(ip, from, header.in_port);
            }
        }
        let mut ctx = PacketContext::new(
            from,
            header,
            now,
            &self.paths,
            &self.hosts,
            &mut self.flow_rules,
        );
        for p in &mut self.processors {
            p.process(&mut ctx);
            if ctx.is_blocked() {
                break;
            }
        }
        commands.extend(ctx.into_commands());
    }

    fn run_interceptors(
        &mut self,
        from: Dpid,
        msg: &OfMessage,
        now: SimTime,
        out: &mut Vec<(Dpid, OfMessage)>,
    ) {
        let controller = self
            .mastership
            .master_of(from)
            .unwrap_or(ControllerId::new(0));
        let start = out.len();
        for i in &mut self.interceptors {
            let ctx = InterceptCtx {
                controller,
                flow_rules: &self.flow_rules,
                hosts: &self.hosts,
                mastership: &self.mastership,
                paths: &self.paths,
            };
            out.extend(i.on_southbound(&ctx, from, msg, now));
        }
        self.register_proxy_rules(&out[start..], now);
    }

    /// Rules issued through the proxy path are registered with the
    /// flow-rule store like any application's — the consistency property
    /// the paper's Athena Proxy exists for.
    fn register_proxy_rules(&mut self, commands: &[(Dpid, OfMessage)], now: SimTime) {
        for (dpid, msg) in commands {
            if let OfMessage::FlowMod { body, .. } = msg {
                if body.command == athena_openflow::FlowModCommand::Add {
                    self.flow_rules.record_external(body, *dpid, now);
                }
            }
        }
    }
}

impl ControllerLink for ControllerCluster {
    fn on_message(&mut self, from: Dpid, msg: OfMessage, now: SimTime) -> Vec<(Dpid, OfMessage)> {
        self.last_seen = now;
        let mut commands: Vec<(Dpid, OfMessage)> = Vec::new();
        match &msg {
            OfMessage::PacketIn { body, .. } => {
                let span = self.observe.span_at("controller", "packet_in", now);
                let timer = self.tel.packet_in_ns.start_timer();
                self.packet_in(from, body.header, now, &mut commands);
                timer.observe(&self.tel.packet_in_ns);
                span.finish(format_args!("dpid={} cmds={}", from.raw(), commands.len()));
            }
            OfMessage::FlowRemoved { body, .. } => {
                self.counters.flow_removeds += 1;
                self.tel.flow_removeds.inc();
                self.flow_rules.on_flow_removed(body);
                self.journal(
                    kind::FLOW_RULE,
                    [RuleEvent::Remove {
                        cookie: body.cookie,
                    }],
                );
            }
            OfMessage::StatsReply { xid, body } => {
                self.counters.stats_replies += 1;
                self.tel.stats_replies.inc();
                // Settle the poller's in-flight request so it is not
                // retried (an Athena-marked reply is never one of its own).
                if let Some(poller) = &mut self.poller {
                    poller.on_reply(*xid);
                }
                // ONOS refreshes its flow-rule store from every poll.
                if let athena_openflow::StatsReply::Flow(entries) = body {
                    for e in entries {
                        self.flow_rules
                            .note_stats(e.cookie, e.packet_count, e.byte_count);
                    }
                }
            }
            _ => {}
        }
        // Athena's SB observes everything after controller processing.
        self.run_interceptors(from, &msg, now, &mut commands);
        let flow_mods = commands
            .iter()
            .filter(|(_, m)| matches!(m, OfMessage::FlowMod { .. }))
            .count() as u64;
        self.counters.flow_mods += flow_mods;
        self.tel.flow_mods.add(flow_mods);
        self.journal(kind::FLOW_RULE, rule_installs(&commands, now));
        commands
    }

    /// Pipeline-processes a whole punt batch under one span and one
    /// latency sample, amortizing the per-message bookkeeping the
    /// sequential path pays per punt. Commands come out in exactly the
    /// order the default per-message loop would produce them: the batch
    /// is walked in order and each packet runs the same
    /// learn → processors → interceptors chain.
    fn on_packet_in_batch(
        &mut self,
        batch: Vec<(Dpid, OfMessage)>,
        now: SimTime,
    ) -> Vec<(Dpid, OfMessage)> {
        self.last_seen = now;
        let span = self.observe.span_at("controller", "packet_in_batch", now);
        let timer = self.tel.packet_in_ns.start_timer();
        let n = batch.len();
        let mut commands: Vec<(Dpid, OfMessage)> = Vec::new();
        for (from, msg) in batch {
            let OfMessage::PacketIn { body, .. } = &msg else {
                // Foreign message in a punt batch: fall back to the
                // general handler (journals and counts itself).
                commands.extend(self.on_message(from, msg, now));
                continue;
            };
            self.packet_in(from, body.header, now, &mut commands);
            self.run_interceptors(from, &msg, now, &mut commands);
        }
        let flow_mods = commands
            .iter()
            .filter(|(_, m)| matches!(m, OfMessage::FlowMod { .. }))
            .count() as u64;
        self.counters.flow_mods += flow_mods;
        self.tel.flow_mods.add(flow_mods);
        self.journal(kind::FLOW_RULE, rule_installs(&commands, now));
        timer.observe(&self.tel.packet_in_ns);
        span.finish(format_args!("n={} cmds={}", n, commands.len()));
        commands
    }

    fn on_tick(&mut self, now: SimTime) -> Vec<(Dpid, OfMessage)> {
        self.last_seen = now;
        let mut commands = Vec::new();
        for p in &mut self.processors {
            p.on_tick(now);
        }
        if let Some(poller) = &mut self.poller {
            commands.extend(poller.poll(now));
        }
        let start = commands.len();
        for i in &mut self.interceptors {
            let ctx = InterceptCtx {
                controller: ControllerId::new(0),
                flow_rules: &self.flow_rules,
                hosts: &self.hosts,
                mastership: &self.mastership,
                paths: &self.paths,
            };
            commands.extend(i.on_tick(&ctx, now));
        }
        self.register_proxy_rules(&commands[start..], now);
        self.journal(kind::FLOW_RULE, rule_installs(&commands, now));
        commands
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interceptor::CountingInterceptor;
    use athena_dataplane::{workload, FlowSpec, Network};
    use athena_types::{FiveTuple, SimDuration, SimTime};

    #[test]
    fn end_to_end_forwarding_over_enterprise_topology() {
        let topo = Topology::enterprise();
        let mut net = Network::new(topo.clone());
        let mut cluster = ControllerCluster::new(&topo);
        let src = topo.hosts[0].ip;
        let dst = topo.hosts[40].ip;
        net.inject_flows([FlowSpec::new(
            FiveTuple::tcp(src, 1000, dst, 80),
            SimTime::ZERO,
            SimDuration::from_secs(5),
            8_000_000,
        )]);
        net.run_until(SimTime::from_secs(8), &mut cluster);
        assert!(net.delivered_bytes() > 3_000_000);
        assert!(cluster.counters().packet_ins >= 1);
        assert!(cluster.counters().flow_mods >= 3);
        // The poller generated stats replies.
        assert!(cluster.counters().stats_replies > 0);
    }

    #[test]
    fn interceptor_sees_the_message_stream() {
        let topo = Topology::linear(3, 2);
        let mut net = Network::new(topo.clone());
        let mut cluster = ControllerCluster::new(&topo);
        cluster.add_interceptor(Box::new(CountingInterceptor::default()));
        net.inject_flows(workload::benign_mix_on(
            &topo,
            20,
            SimDuration::from_secs(5),
            3,
        ));
        net.run_until(SimTime::from_secs(8), &mut cluster);
        assert!(cluster.interceptors.iter().any(|i| i.name() == "counting"));
        // Counter checks happen through the cluster counters instead.
        assert!(cluster.counters().packet_ins > 0);
        assert!(cluster.counters().stats_replies > 0);
    }

    #[test]
    fn mastership_is_exposed() {
        let topo = Topology::enterprise();
        let cluster = ControllerCluster::new(&topo);
        assert_eq!(cluster.instance_count(), 3);
        assert_eq!(cluster.master_of(Dpid::new(1)), Some(ControllerId::new(0)));
        assert_eq!(cluster.master_of(Dpid::new(5)), Some(ControllerId::new(2)));
    }

    #[test]
    fn instance_crash_re_elects_and_counts() {
        let tel = athena_telemetry::Telemetry::new();
        let topo = Topology::enterprise();
        let mut cluster = ControllerCluster::new(&topo);
        cluster.bind_telemetry(&tel);
        let c0 = ControllerId::new(0);
        assert!(cluster.instance_alive(c0));
        let moved = cluster.crash_instance(c0);
        assert_eq!(moved.len(), 6);
        assert!(!cluster.instance_alive(c0));
        // Every switch is now mastered by a surviving instance.
        for s in &topo.switches {
            let m = cluster.master_of(s.dpid).unwrap();
            assert!(
                cluster.instance_alive(m),
                "switch {:?} on dead master",
                s.dpid
            );
        }
        let back = cluster.rejoin_instance(c0);
        assert_eq!(back, moved);
        let f = cluster.failover_counters();
        assert_eq!(f.elections, 2);
        assert_eq!(f.switches_moved, 12);
        let m = tel.metrics();
        assert_eq!(m.counter("failover", "elections").get(), 2);
        assert_eq!(m.counter("failover", "switches_moved").get(), 12);
    }

    #[test]
    fn stats_replies_settle_the_poller() {
        let topo = Topology::linear(3, 2);
        let mut net = Network::new(topo.clone());
        let mut cluster = ControllerCluster::new(&topo);
        net.inject_flows(workload::benign_mix_on(
            &topo,
            10,
            SimDuration::from_secs(5),
            7,
        ));
        net.run_until(SimTime::from_secs(20), &mut cluster);
        // Healthy southbound: every poll is answered the same tick, so
        // nothing times out and nothing is left outstanding for long.
        let c = cluster.poller.as_ref().unwrap().polls().counters();
        assert!(c.issued > 0);
        assert_eq!(c.settled, c.issued);
        assert_eq!((c.timeouts, c.retries, c.gave_up), (0, 0, 0));
        assert!(cluster.counters().stats_replies > 0);
    }

    #[test]
    fn flow_removed_updates_rule_store() {
        let topo = Topology::linear(2, 2);
        let mut net = Network::new(topo.clone());
        let mut cluster = ControllerCluster::new(&topo);
        let src = topo.hosts[0].ip;
        let dst = topo.hosts[3].ip;
        // One short flow; rules idle out afterwards.
        net.inject_flows([FlowSpec::new(
            FiveTuple::tcp(src, 1, dst, 80),
            SimTime::ZERO,
            SimDuration::from_secs(2),
            1_000_000,
        )]);
        net.run_until(SimTime::from_secs(40), &mut cluster);
        assert!(cluster.counters().flow_removeds > 0);
        assert_eq!(cluster.flow_rules().live_count(), 0);
    }
}
