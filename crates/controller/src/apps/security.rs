//! The security application of the NAE scenario.
//!
//! "A security application that attempts to direct FTP-related traffic
//! through an inline security device" (§V-C). It runs at a higher packet
//! priority than the load balancer and installs higher-priority rules, so
//! once activated it takes over FTP forwarding — producing the NAE
//! anomaly.

use crate::apps::app_ids;
use crate::packet::{PacketContext, PacketProcessor};
use athena_openflow::{Action, FlowMod, MatchFields};
use athena_types::{Dpid, SimDuration, SimTime};

/// Redirects matching traffic through a waypoint switch (where the inline
/// inspection device sits).
#[derive(Debug, Clone)]
pub struct SecurityApp {
    /// Transport ports treated as FTP-related.
    pub ftp_ports: Vec<u16>,
    /// The switch hosting the inline security device.
    pub waypoint: Dpid,
    /// Rule priority (above the load balancer).
    pub priority: u16,
    /// Idle timeout for installed rules.
    pub idle_timeout: SimDuration,
    /// The app only acts once activated (the paper activates it mid-run).
    pub active_from: Option<SimTime>,
    redirected: u64,
}

impl SecurityApp {
    /// Creates the app, inactive until [`SecurityApp::activate_at`].
    pub fn new(waypoint: Dpid) -> Self {
        SecurityApp {
            ftp_ports: vec![20, 21],
            waypoint,
            priority: 200,
            idle_timeout: SimDuration::from_secs(30),
            active_from: None,
            redirected: 0,
        }
    }

    /// Schedules activation.
    pub fn activate_at(mut self, t: SimTime) -> Self {
        self.active_from = Some(t);
        self
    }

    /// Flows redirected so far.
    pub fn redirected(&self) -> u64 {
        self.redirected
    }

    fn is_active(&self, now: SimTime) -> bool {
        self.active_from.is_some_and(|t| now >= t)
    }

    fn is_ftp(&self, dst_port: u16) -> bool {
        self.ftp_ports.contains(&dst_port)
    }
}

impl PacketProcessor for SecurityApp {
    fn name(&self) -> &str {
        "security"
    }

    fn priority(&self) -> i32 {
        100 // the operator "set a higher priority for the security app"
    }

    fn process(&mut self, ctx: &mut PacketContext<'_>) {
        if !self.is_active(ctx.now) {
            return;
        }
        let Some(ft) = ctx.header.five_tuple() else {
            return;
        };
        if !self.is_ftp(ft.dst_port) {
            return;
        }
        let Some((dst_switch, dst_port)) = ctx.hosts.location_of(ft.dst) else {
            return;
        };
        // Route: ingress -> waypoint -> destination (shortest paths).
        let Some(to_waypoint) = ctx.paths.shortest_path(ctx.dpid, self.waypoint) else {
            return;
        };
        let Some(onward) = ctx.paths.shortest_path(self.waypoint, dst_switch) else {
            return;
        };
        let m = MatchFields::exact_five_tuple(ft);
        for (hop, port) in to_waypoint.iter().chain(onward.iter()) {
            ctx.install_rule(
                app_ids::SECURITY,
                *hop,
                FlowMod::add(m, self.priority, vec![Action::Output(*port)])
                    .with_idle_timeout(self.idle_timeout),
            );
        }
        ctx.install_rule(
            app_ids::SECURITY,
            dst_switch,
            FlowMod::add(m, self.priority, vec![Action::Output(dst_port)])
                .with_idle_timeout(self.idle_timeout),
        );
        self.redirected += 1;
        ctx.block();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::services::{FlowRuleService, HostService, PathService};
    use athena_dataplane::Topology;
    use athena_openflow::{OfMessage, PacketHeader};
    use athena_types::Ipv4Addr;

    fn ftp_packet(topo: &Topology) -> (Dpid, PacketHeader) {
        let client = topo.hosts[0];
        let server = Ipv4Addr::new(10, 0, 4, 1);
        (
            client.switch,
            PacketHeader::tcp_syn(client.port, client.ip, 1234, server, 21),
        )
    }

    #[test]
    fn inactive_app_does_nothing() {
        let topo = Topology::nae();
        let hosts = HostService::from_topology(&topo);
        let paths = PathService::from_topology(&topo);
        let mut rules = FlowRuleService::new();
        let (dpid, header) = ftp_packet(&topo);
        let mut app = SecurityApp::new(Dpid::new(6));
        let mut ctx = crate::packet::PacketContext::new(
            dpid,
            header,
            SimTime::from_secs(100),
            &paths,
            &hosts,
            &mut rules,
        );
        app.process(&mut ctx);
        assert!(!ctx.is_blocked());
        assert_eq!(app.redirected(), 0);
    }

    #[test]
    fn active_app_routes_ftp_through_waypoint() {
        let topo = Topology::nae();
        let hosts = HostService::from_topology(&topo);
        let paths = PathService::from_topology(&topo);
        let mut rules = FlowRuleService::new();
        let (dpid, header) = ftp_packet(&topo);
        let mut app = SecurityApp::new(Dpid::new(6)).activate_at(SimTime::from_secs(10));
        let mut ctx = crate::packet::PacketContext::new(
            dpid,
            header,
            SimTime::from_secs(20),
            &paths,
            &hosts,
            &mut rules,
        );
        app.process(&mut ctx);
        assert!(ctx.is_blocked());
        assert_eq!(app.redirected(), 1);
        let cmds = ctx.into_commands();
        // Some rule is installed on the waypoint switch S6.
        assert!(cmds.iter().any(|(d, _)| *d == Dpid::new(6)));
        // All rules carry the high priority and the security app id.
        for (_, msg) in &cmds {
            let OfMessage::FlowMod { body, .. } = msg else {
                panic!("flow mod expected")
            };
            assert_eq!(body.priority, 200);
            assert_eq!(body.app_id(), app_ids::SECURITY);
        }
    }

    #[test]
    fn non_ftp_traffic_is_ignored_even_when_active() {
        let topo = Topology::nae();
        let hosts = HostService::from_topology(&topo);
        let paths = PathService::from_topology(&topo);
        let mut rules = FlowRuleService::new();
        let client = topo.hosts[0];
        let header = PacketHeader::tcp_syn(
            client.port,
            client.ip,
            1234,
            Ipv4Addr::new(10, 0, 4, 2),
            80, // web, not FTP
        );
        let mut app = SecurityApp::new(Dpid::new(6)).activate_at(SimTime::ZERO);
        let mut ctx = crate::packet::PacketContext::new(
            client.switch,
            header,
            SimTime::from_secs(5),
            &paths,
            &hosts,
            &mut rules,
        );
        app.process(&mut ctx);
        assert!(!ctx.is_blocked());
    }
}
