//! `athena-top` — the health view of a full Athena deployment under
//! chaos.
//!
//! Runs the chaos-matrix DDoS scenario (controller crash at 10 s,
//! rejoin at 20 s) with the observe pipeline bound everywhere, printing
//! the live health table (series, rates, firing alerts) every 5 virtual
//! seconds — a `top` for the simulated SDN. It writes no file: the
//! archived `target/observe-report.json` is the one `e2e_observe`
//! writes and checks. What the observe layer costs
//! is the ledger's `observe.on_wall_ratio`; that it changes no outcome
//! at any width is `e2e_overhead`'s and `e2e_determinism`'s to assert.
//!
//! Set `ATHENA_BENCH_SMOKE=1` for the lighter CI workload.

use athena_bench::header;
use athena_controller::ControllerCluster;
use athena_core::{Athena, AthenaConfig};
use athena_dataplane::{workload, Network, Topology};
use athena_faults::{run_with_faults, ChaosChannel, FaultInjector, Scenario};
use athena_observe::Observe;
use athena_telemetry::Telemetry;
use athena_types::{SimDuration, SimTime};

const SEED: u64 = 7;
const INJECT_AT: SimTime = SimTime::from_secs(10);
const RECOVER_AT: SimTime = SimTime::from_secs(20);
const END: SimTime = SimTime::from_secs(35);

fn smoke() -> bool {
    athena_types::env_flag("ATHENA_BENCH_SMOKE")
}

fn scaled(n: usize) -> usize {
    if smoke() {
        n / 2
    } else {
        n
    }
}

fn main() {
    println!("{}", header("athena-top — chaos health view"));
    println!("-- live health (controller crash at 10s, rejoin at 20s) --\n");

    let tel = Telemetry::new();
    let obs = Observe::with_telemetry(SEED, &tel);
    let topo = Topology::enterprise();
    let mut net = Network::new(topo.clone());
    net.bind_telemetry(&tel);
    net.bind_observe(&obs);
    let mut cluster = ControllerCluster::new(&topo);
    let athena = Athena::with_observe(AthenaConfig::default(), tel.clone(), obs.clone());
    athena.attach(&mut cluster);
    let mut chaos = ChaosChannel::new(cluster, SEED);
    chaos.bind_telemetry(&tel);
    chaos.bind_observe(&obs);

    let victim = topo.hosts[0].ip;
    net.inject_flows(workload::benign_mix_on(
        &topo,
        scaled(120),
        SimDuration::from_secs(30),
        101,
    ));
    net.inject_flows(workload::ddos_flood(
        &topo,
        victim,
        workload::DdosParams {
            start: SimTime::from_secs(8),
            duration: SimDuration::from_secs(22),
            n_flows: scaled(250),
            ..workload::DdosParams::default()
        },
        102,
    ));

    let store_nodes = athena.runtime().store.node_count();
    let plan = Scenario::ControllerCrash.plan(&topo, store_nodes, SEED, INJECT_AT, RECOVER_AT);
    let mut injector = FaultInjector::new(plan).with_store(athena.runtime().store.clone());
    injector.bind_telemetry(&tel);

    while net.now() < END {
        let next = (net.now() + SimDuration::from_secs(5)).min(END);
        run_with_faults(&mut net, next, &mut chaos, &mut injector);
        println!("{}", obs.report().render());
    }
    assert!(injector.finished(), "fault events left unapplied");
    assert!(
        !obs.deterministic_alert_events().is_empty(),
        "the chaos run must produce deterministic alert transitions"
    );
}
