//! Scenario 3 (paper §V-C): the Network Application Effectiveness (NAE)
//! monitor — a load balancer and a higher-priority security app compete
//! over FTP forwarding; the monitor detects the SLA violation and renders
//! the Figure 9 time series.
//!
//! ```bash
//! cargo run --example nae_monitor
//! ```

use athena::apps::NaeMonitor;
use athena::controller::apps::{LoadBalancer, SecurityApp};
use athena::controller::ControllerCluster;
use athena::core::{Athena, AthenaConfig};
use athena::dataplane::{FlowSpec, Network, Topology};
use athena::types::{Dpid, FiveTuple, Ipv4Addr, Result, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn main() -> Result<()> {
    // The Figure 8 topology: two paths to the server pod, an inline
    // security device on S6.
    let topo = Topology::nae();
    let mut net = Network::new(topo.clone());

    // The competing applications: LB splits server-bound traffic across
    // both paths with a soft timeout; the security app activates at
    // t=120s and takes FTP over at higher priority.
    let mut cluster = ControllerCluster::new(&topo);
    cluster.add_processor(Box::new(LoadBalancer::new((
        Ipv4Addr::new(10, 0, 4, 0),
        24,
    ))));
    cluster.add_processor(Box::new(
        SecurityApp::new(Dpid::new(6)).activate_at(SimTime::from_secs(120)),
    ));

    let athena = Athena::new(AthenaConfig::default());
    athena.attach(&mut cluster);
    let monitor = NaeMonitor::new();
    monitor.deploy(&athena);

    // FTP-dominated traffic from the edge clients, arriving continuously
    // so rule expiry (the sawtooth) and the takeover are both visible.
    let ftp_server = Ipv4Addr::new(10, 0, 4, 1);
    let web_server = Ipv4Addr::new(10, 0, 4, 2);
    let mut rng = StdRng::seed_from_u64(41);
    let mut flows = Vec::new();
    for t in (0..230).step_by(2) {
        let client = topo.hosts[rng.random_range(0..4)].ip;
        let (server, port) = if rng.random_range(0.0..1.0) < 0.8 {
            (ftp_server, 21)
        } else {
            (web_server, 80)
        };
        flows.push(
            FlowSpec::new(
                FiveTuple::tcp(client, rng.random_range(30_000..60_000), server, port),
                SimTime::from_secs(t),
                SimDuration::from_secs(8),
                4_000_000,
            )
            .bidirectional(0.1),
        );
    }
    net.inject_flows(flows);

    println!("running 240s; security app activates at t=120s…");
    net.run_until(SimTime::from_secs(240), &mut cluster);

    // The monitor's SLA check and the Figure 9 rendering.
    let violations = monitor.check_sla();
    println!(
        "samples: {}, SLA violations: {}",
        monitor.sample_count(),
        violations.len()
    );
    if let Some(first) = violations.first() {
        println!(
            "first violation at {} (S3={:.0} pkts vs S6={:.0} pkts, imbalance {:.2})",
            first.at, first.first, first.second, first.imbalance
        );
    }
    println!();
    println!(
        "{}",
        athena.show_series("Figure 9 — per-switch packet counts", &monitor.series())
    );
    Ok(())
}
