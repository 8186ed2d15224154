//! Scenario 2 (paper §V-B): link-flooding-attack mitigation — a
//! Crossfire-style attack saturates a core link with individually
//! innocuous flows; the Athena application detects the congestion from
//! volume features and blocks the bots.
//!
//! ```bash
//! cargo run --example lfa_mitigation
//! ```

use athena::apps::LfaMitigator;
use athena::controller::ControllerCluster;
use athena::core::{Athena, AthenaConfig};
use athena::dataplane::{workload, Network, Topology};
use athena::types::{Dpid, Result, SimDuration, SimTime};

fn main() -> Result<()> {
    // A linear topology makes the bottleneck link obvious: everything
    // from switches 1-2 toward 3-4 crosses the 2->3 link.
    let topo = Topology::linear(4, 6);
    let mut net = Network::new(topo.clone());
    let mut cluster = ControllerCluster::new(&topo);
    let athena = Athena::new(AthenaConfig::default());
    athena.attach(&mut cluster);

    let mut lfa = LfaMitigator::new();
    lfa.deploy(&athena);

    // Benign background plus the Crossfire attack on link 2 -> 3.
    net.inject_flows(workload::benign_mix_on(
        &topo,
        60,
        SimDuration::from_secs(60),
        31,
    ));
    net.inject_flows(workload::crossfire(
        &topo,
        Dpid::new(2),
        Dpid::new(3),
        workload::CrossfireParams {
            start: SimTime::from_secs(10),
            duration: SimDuration::from_secs(60),
            n_flows: 400,
            per_flow_rate_bps: 5_000_000,
        },
        32,
    ));

    // Run in steps, letting the application mitigate between them — the
    // paper's applications likewise run beside Athena and react to
    // delivered events.
    let mut blocked_total = 0;
    for step in 1..=8 {
        net.run_until(SimTime::from_secs(step * 10), &mut cluster);
        let bottleneck = topo
            .link_from(Dpid::new(2), athena::types::PortNo::new(1))
            .expect("bottleneck link");
        let utilization = net.link(bottleneck).map_or(0.0, |l| l.utilization());
        let newly = lfa.mitigate(&athena);
        blocked_total += newly.len();
        println!(
            "t={:>3}s  link 2->3 utilization {:>5.2}  alerts pending {}  newly blocked {}",
            step * 10,
            utilization,
            lfa.pending_alerts(),
            newly.len()
        );
    }
    println!(
        "\nblocked {} bot hosts: {:?}",
        blocked_total,
        lfa.blocked_hosts()
    );

    println!("\nTable VII — LFA capability comparison:");
    for row in LfaMitigator::capability_comparison() {
        println!("  {:<22} {:<14} {}", row[0], row[1], row[2]);
    }
    Ok(())
}
