//! Table VII — link-flooding-attack detection and mitigation: the Spiffy
//! comparison, plus a live run demonstrating that the Athena-based
//! mitigation actually clears the congestion (which is the point of the
//! table: same capability, no custom hardware).

use athena_apps::LfaMitigator;
use athena_bench::header;
use athena_controller::ControllerCluster;
use athena_core::{Athena, AthenaConfig, UiManager};
use athena_dataplane::{workload, Network, Topology};
use athena_types::{Dpid, PortNo, SimDuration, SimTime};

fn main() {
    println!(
        "{}",
        header("Table VII — LFA detection & mitigation (Spiffy vs Athena)")
    );
    let ui = UiManager::new();
    let rows: Vec<Vec<String>> = LfaMitigator::capability_comparison()
        .into_iter()
        .skip(1)
        .map(|r| r.iter().map(|s| (*s).to_owned()).collect())
        .collect();
    println!(
        "{}",
        ui.render_table(&["Category", "Spiffy [26]", "Athena"], &rows)
    );

    println!("{}", header("live mitigation run (Crossfire on link 2->3)"));
    let topo = Topology::linear(4, 6);
    let mut net = Network::new(topo.clone());
    let mut cluster = ControllerCluster::new(&topo);
    let athena = Athena::new(AthenaConfig::default());
    athena.attach(&mut cluster);
    let mut lfa = LfaMitigator::new();
    lfa.deploy(&athena);

    net.inject_flows(workload::benign_mix_on(
        &topo,
        40,
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

    let bottleneck = topo
        .link_from(Dpid::new(2), PortNo::new(1))
        .expect("bottleneck link");
    let mut peak_before = 0.0f64;
    let mut peak_after = 0.0f64;
    let mut blocked = 0usize;
    for step in 1..=8u64 {
        net.run_until(SimTime::from_secs(step * 10), &mut cluster);
        let util = net.link(bottleneck).map_or(0.0, |l| l.utilization());
        if blocked == 0 {
            peak_before = peak_before.max(util);
        } else {
            peak_after = peak_after.max(util);
        }
        blocked += lfa.mitigate(&athena).len();
        println!(
            "t={:>3}s  link 2->3 offered/capacity {util:>5.2}  blocked so far {blocked}",
            step * 10
        );
    }
    println!(
        "\npeak utilization before mitigation: {peak_before:.2}, after: {peak_after:.2}, bots blocked: {blocked}"
    );
    assert!(peak_before > 1.0, "the attack must congest the link");
    assert!(
        peak_after < peak_before,
        "mitigation must reduce congestion"
    );
    assert!(blocked > 0, "mitigation must block bots");
    println!("shape verified: congestion detected and removed via Block reactions");
}
