//! Quickstart: stand up a simulated three-controller SDN, attach Athena,
//! drive benign traffic, and explore the collected features.
//!
//! ```bash
//! cargo run --example quickstart
//! ```

use athena::controller::ControllerCluster;
use athena::core::{Athena, AthenaConfig, Query};
use athena::dataplane::{workload, Network, Topology};
use athena::types::{Result, SimDuration, SimTime};

fn main() -> Result<()> {
    // 1. The paper's Figure 7 enterprise topology: 18 switches, 48 links,
    //    3 controller domains.
    let topo = Topology::enterprise();
    println!(
        "topology: {} switches, {} links, {} controllers, {} hosts",
        topo.switches.len(),
        topo.unidirectional_link_count(),
        topo.controller_count(),
        topo.hosts.len()
    );

    // 2. The SDN stack: simulator + controller cluster, with one Athena
    //    southbound element attached per controller instance.
    let mut net = Network::new(topo.clone());
    let mut cluster = ControllerCluster::new(&topo);
    let athena = Athena::new(AthenaConfig::default());
    athena.attach(&mut cluster);

    // 3. A minute of benign traffic.
    net.inject_flows(workload::benign_mix_on(
        &topo,
        300,
        SimDuration::from_secs(50),
        7,
    ));
    net.run_until(SimTime::from_secs(60), &mut cluster);
    println!(
        "simulated 60s: {} bytes delivered, {} packet-ins, {} flow-mods",
        net.delivered_bytes(),
        cluster.counters().packet_ins,
        cluster.counters().flow_mods,
    );

    // 4. Athena collected features the whole time. Query them.
    println!("stored features: {}", athena.stored_feature_count());

    let busiest = athena.request_features(&Query::parse(
        "feature==FLOW_STATS sort FLOW_BYTE_COUNT desc limit 5",
    )?);
    println!("\ntop flows by byte count:");
    for r in &busiest {
        println!(
            "  {} {:>12} bytes  {}",
            r.index().switch,
            r.field("FLOW_BYTE_COUNT").unwrap_or(0.0),
            r.index()
                .five_tuple
                .map_or_else(|| "-".to_owned(), |ft| ft.to_string()),
        );
    }

    let congested = athena.request_features(&Query::parse(
        "feature==PORT_STATS && PORT_TX_UTILIZATION>0.5 limit 5",
    )?);
    println!("\nports above 50% utilization: {}", congested.len());

    let switch_state = athena.request_features(&Query::parse(
        "feature==SWITCH_STATE sort SWITCH_FLOW_COUNT desc limit 3",
    )?);
    println!("\nbusiest switches by live flows:");
    for r in &switch_state {
        println!(
            "  {}: {} flows, pair ratio {:.2}",
            r.index().switch,
            r.field("SWITCH_FLOW_COUNT").unwrap_or(0.0),
            r.field("SWITCH_PAIR_FLOW_RATIO").unwrap_or(0.0),
        );
    }
    Ok(())
}
