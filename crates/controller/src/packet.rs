//! The packet-processing chain: ONOS-style `PacketProcessor`s with
//! priorities.

use crate::services::{FlowRuleService, HostService, PathService};
use athena_openflow::{FlowMod, OfMessage, PacketHeader};
use athena_types::{AppId, Dpid, SimTime, Xid};

/// The context handed to each packet processor for one packet-in.
///
/// Processors inspect the packet, emit flow rules or packet-outs, and may
/// *block* the packet to stop lower-priority processors from seeing it
/// (how the NAE scenario's high-priority security app over-rules the load
/// balancer).
pub struct PacketContext<'a> {
    /// The switch that punted the packet.
    pub dpid: Dpid,
    /// The punted packet's header.
    pub header: PacketHeader,
    /// The simulation time.
    pub now: SimTime,
    /// Shortest paths over the topology view.
    pub paths: &'a PathService,
    /// Host locations.
    pub hosts: &'a HostService,
    flow_rules: &'a mut FlowRuleService,
    commands: Vec<(Dpid, OfMessage)>,
    blocked: bool,
}

impl<'a> PacketContext<'a> {
    pub(crate) fn new(
        dpid: Dpid,
        header: PacketHeader,
        now: SimTime,
        paths: &'a PathService,
        hosts: &'a HostService,
        flow_rules: &'a mut FlowRuleService,
    ) -> Self {
        PacketContext {
            dpid,
            header,
            now,
            paths,
            hosts,
            flow_rules,
            commands: Vec::new(),
            blocked: false,
        }
    }

    /// Installs a flow rule on behalf of `app` (registered with the
    /// flow-rule service so the rule is attributed to the app).
    pub fn install_rule(&mut self, app: AppId, dpid: Dpid, fm: FlowMod) {
        let fm = self.flow_rules.register(app, fm, dpid, self.now);
        self.commands.push((
            dpid,
            OfMessage::FlowMod {
                xid: Xid::new(0),
                body: fm,
            },
        ));
    }

    /// Emits a raw command (e.g. a packet-out).
    pub fn emit(&mut self, dpid: Dpid, msg: OfMessage) {
        self.commands.push((dpid, msg));
    }

    /// Stops lower-priority processors from handling this packet.
    pub fn block(&mut self) {
        self.blocked = true;
    }

    /// Whether a higher-priority processor blocked the packet.
    pub fn is_blocked(&self) -> bool {
        self.blocked
    }

    pub(crate) fn into_commands(self) -> Vec<(Dpid, OfMessage)> {
        self.commands
    }
}

/// A packet processor (network application hook). Higher priority runs
/// first.
pub trait PacketProcessor: Send {
    /// The processor's name (for diagnostics).
    fn name(&self) -> &str;

    /// Processing priority; higher runs first.
    fn priority(&self) -> i32 {
        0
    }

    /// Handles one packet-in.
    fn process(&mut self, ctx: &mut PacketContext<'_>);

    /// Called once per simulation tick (optional housekeeping).
    fn on_tick(&mut self, now: SimTime) {
        let _ = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use athena_dataplane::Topology;
    use athena_openflow::MatchFields;
    use athena_types::{Ipv4Addr, PortNo};

    struct Installer;
    impl PacketProcessor for Installer {
        fn name(&self) -> &str {
            "installer"
        }
        fn process(&mut self, ctx: &mut PacketContext<'_>) {
            let dpid = ctx.dpid;
            ctx.install_rule(
                AppId::new(1),
                dpid,
                FlowMod::add(MatchFields::new(), 1, vec![]),
            );
            ctx.block();
        }
    }

    #[test]
    fn context_collects_attributed_commands() {
        let topo = Topology::linear(2, 1);
        let hosts = HostService::from_topology(&topo);
        let paths = PathService::from_topology(&topo);
        let mut rules = FlowRuleService::new();
        let header = PacketHeader::tcp_syn(
            PortNo::new(1),
            Ipv4Addr::new(10, 0, 0, 1),
            1,
            Ipv4Addr::new(10, 0, 1, 1),
            80,
        );
        let mut ctx = PacketContext::new(
            Dpid::new(1),
            header,
            SimTime::ZERO,
            &paths,
            &hosts,
            &mut rules,
        );
        let mut p = Installer;
        p.process(&mut ctx);
        assert!(ctx.is_blocked());
        let cmds = ctx.into_commands();
        assert_eq!(cmds.len(), 1);
        let OfMessage::FlowMod { body, .. } = &cmds[0].1 else {
            panic!("expected flow mod");
        };
        assert_eq!(body.app_id(), AppId::new(1));
        assert_eq!(rules.live_count(), 1);
    }
}
