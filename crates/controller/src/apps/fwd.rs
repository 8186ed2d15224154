//! Reactive shortest-path forwarding.

use crate::apps::app_ids;
use crate::packet::{PacketContext, PacketProcessor};
use athena_openflow::{Action, FlowMod, MatchFields};
use athena_types::SimDuration;

/// Idle timeout for installed rules.
const IDLE_TIMEOUT: SimDuration = SimDuration::from_secs(30);
/// Rule priority (low, so policy apps can override).
const PRIORITY: u16 = 10;

/// Installs exact-match shortest-path rules on table misses — the default
/// forwarding application.
#[derive(Debug, Clone, Default)]
pub struct ReactiveForwarding {
    installs: u64,
}

impl ReactiveForwarding {
    /// Creates the app with default settings.
    pub fn new() -> Self {
        ReactiveForwarding::default()
    }

    /// Rules installed so far.
    pub fn installs(&self) -> u64 {
        self.installs
    }
}

impl PacketProcessor for ReactiveForwarding {
    fn name(&self) -> &str {
        "fwd"
    }

    fn priority(&self) -> i32 {
        0 // lowest: runs after policy apps
    }

    fn process(&mut self, ctx: &mut PacketContext<'_>) {
        let Some(ft) = ctx.header.five_tuple() else {
            return;
        };
        let Some((dst_switch, dst_port)) = ctx.hosts.location_of(ft.dst) else {
            return;
        };
        let Some(path) = ctx.paths.shortest_path(ctx.dpid, dst_switch) else {
            return;
        };
        let m = MatchFields::exact_five_tuple(ft);
        for (hop, port) in path {
            self.installs += 1;
            ctx.install_rule(
                app_ids::FWD,
                hop,
                FlowMod::add(m, PRIORITY, vec![Action::Output(port)])
                    .with_idle_timeout(IDLE_TIMEOUT),
            );
        }
        self.installs += 1;
        ctx.install_rule(
            app_ids::FWD,
            dst_switch,
            FlowMod::add(m, PRIORITY, vec![Action::Output(dst_port)])
                .with_idle_timeout(IDLE_TIMEOUT),
        );
        ctx.block();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::services::{FlowRuleService, HostService};
    use athena_dataplane::{Routes, Topology};
    use athena_openflow::{OfMessage, PacketHeader};
    use athena_types::{Dpid, PortNo, SimTime};

    #[test]
    fn installs_rules_along_the_path() {
        let topo = Topology::linear(3, 1);
        let hosts = HostService::from_topology(&topo);
        let paths = Routes::new(&topo);
        let mut rules = FlowRuleService::new();
        let src = topo.hosts[0];
        let dst = topo.hosts[2];
        let header = PacketHeader::tcp_syn(src.port, src.ip, 1, dst.ip, 80);
        let mut ctx = crate::packet::PacketContext::new(
            src.switch,
            header,
            SimTime::ZERO,
            &paths,
            &hosts,
            &mut rules,
        );
        let mut fwd = ReactiveForwarding::new();
        fwd.process(&mut ctx);
        assert!(ctx.is_blocked());
        let cmds = ctx.into_commands();
        // 2 transit hops + 1 delivery rule.
        assert_eq!(cmds.len(), 3);
        assert_eq!(fwd.installs(), 3);
        // The delivery rule points at the host port.
        let OfMessage::FlowMod { body, .. } = &cmds[2].1 else {
            panic!("flow mod expected")
        };
        assert_eq!(Action::first_output(&body.actions), Some(dst.port));
        assert_eq!(cmds[2].0, dst.switch);
    }

    #[test]
    fn ignores_unknown_destinations_and_non_ip() {
        let topo = Topology::linear(2, 1);
        let hosts = HostService::from_topology(&topo);
        let paths = Routes::new(&topo);
        let mut rules = FlowRuleService::new();
        let header = PacketHeader::arp_request(PortNo::new(3), topo.hosts[0].ip);
        let mut ctx = crate::packet::PacketContext::new(
            Dpid::new(1),
            header,
            SimTime::ZERO,
            &paths,
            &hosts,
            &mut rules,
        );
        let mut fwd = ReactiveForwarding::new();
        fwd.process(&mut ctx);
        assert!(!ctx.is_blocked());
        assert!(ctx.into_commands().is_empty());
    }
}
