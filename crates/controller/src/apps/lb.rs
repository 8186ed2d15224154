//! The load-balancing application of the NAE scenario.
//!
//! The paper's Figure 8 load balancer "defines flow rules intended to
//! evenly distribute a target traffic load across a given set of network
//! services", installing rules with a *soft timeout* whose expiry causes
//! the sawtooth in Figure 9.

use crate::apps::app_ids;
use crate::packet::{PacketContext, PacketProcessor};
use athena_openflow::{Action, FlowMod, MatchFields};
use athena_types::{Ipv4Addr, SimDuration};

/// Soft timeout for installed rules (drives Figure 9's sawtooth).
const SOFT_TIMEOUT: SimDuration = SimDuration::from_secs(10);
/// Rule priority (above plain forwarding, below the security app).
const PRIORITY: u16 = 50;

/// Splits traffic toward a server subnet across link-disjoint paths,
/// round-robin per new flow, with soft (idle) timeouts.
#[derive(Debug, Clone)]
pub struct LoadBalancer {
    /// The destination subnet this app load-balances.
    subnet: (Ipv4Addr, u8),
    next_path: usize,
}

impl LoadBalancer {
    /// Creates a load balancer for traffic into `subnet`.
    pub fn new(subnet: (Ipv4Addr, u8)) -> Self {
        LoadBalancer {
            subnet,
            next_path: 0,
        }
    }
}

impl PacketProcessor for LoadBalancer {
    fn name(&self) -> &str {
        "lb"
    }

    fn priority(&self) -> i32 {
        10 // above fwd, below security
    }

    fn process(&mut self, ctx: &mut PacketContext<'_>) {
        let Some(ft) = ctx.header.five_tuple() else {
            return;
        };
        if !ft.dst.in_subnet(self.subnet.0, self.subnet.1) {
            return;
        }
        let Some((dst_switch, dst_port)) = ctx.hosts.location_of(ft.dst) else {
            return;
        };
        let paths = ctx.paths.disjoint_paths(ctx.dpid, dst_switch, 2);
        if paths.is_empty() {
            return;
        }
        let path = &paths[self.next_path % paths.len()];
        self.next_path = self.next_path.wrapping_add(1);
        let m = MatchFields::exact_five_tuple(ft);
        for (hop, port) in path {
            ctx.install_rule(
                app_ids::LB,
                *hop,
                FlowMod::add(m, PRIORITY, vec![Action::Output(*port)])
                    .with_idle_timeout(SOFT_TIMEOUT),
            );
        }
        ctx.install_rule(
            app_ids::LB,
            dst_switch,
            FlowMod::add(m, PRIORITY, vec![Action::Output(dst_port)])
                .with_idle_timeout(SOFT_TIMEOUT),
        );
        ctx.block();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::services::{FlowRuleService, HostService};
    use athena_dataplane::{Routes, Topology};
    use athena_openflow::PacketHeader;
    use athena_types::SimTime;

    #[test]
    fn alternates_between_paths_per_flow() {
        let topo = Topology::nae();
        let hosts = HostService::from_topology(&topo);
        let paths = Routes::new(&topo);
        let mut rules = FlowRuleService::new();
        let client = topo.hosts[0];
        let server = Ipv4Addr::new(10, 0, 4, 1);
        let mut lb = LoadBalancer::new((Ipv4Addr::new(10, 0, 4, 0), 24));

        let mut first_hops = Vec::new();
        for sport in [1000u16, 1001] {
            let header = PacketHeader::tcp_syn(client.port, client.ip, sport, server, 21);
            let mut ctx = crate::packet::PacketContext::new(
                client.switch,
                header,
                SimTime::ZERO,
                &paths,
                &hosts,
                &mut rules,
            );
            lb.process(&mut ctx);
            assert!(ctx.is_blocked());
            let cmds = ctx.into_commands();
            assert!(!cmds.is_empty());
            // First rule's egress on S1 identifies the chosen path.
            let athena_openflow::OfMessage::FlowMod { body, .. } = &cmds[0].1 else {
                panic!("flow mod expected")
            };
            first_hops.push(Action::first_output(&body.actions).unwrap());
            assert_eq!(body.idle_timeout, SOFT_TIMEOUT);
        }
        assert_ne!(first_hops[0], first_hops[1], "round-robin paths");
        assert_eq!(lb.next_path, 2);
    }

    #[test]
    fn ignores_traffic_outside_the_subnet() {
        let topo = Topology::nae();
        let hosts = HostService::from_topology(&topo);
        let paths = Routes::new(&topo);
        let mut rules = FlowRuleService::new();
        let client = topo.hosts[0];
        let other = topo.hosts[4]; // host behind S5, not in 10.0.4.0/24
        let header = PacketHeader::tcp_syn(client.port, client.ip, 1, other.ip, 80);
        let mut lb = LoadBalancer::new((Ipv4Addr::new(10, 0, 4, 0), 24));
        let mut ctx = crate::packet::PacketContext::new(
            client.switch,
            header,
            SimTime::ZERO,
            &paths,
            &hosts,
            &mut rules,
        );
        lb.process(&mut ctx);
        assert!(!ctx.is_blocked());
        assert_eq!(lb.next_path, 0);
    }
}
