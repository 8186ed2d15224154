//! Golden digests of `Network`'s observable behaviour, pinned as
//! literals (captured at commit 4a6e951 from the per-packet reference
//! walk over `HashMap<Dpid, SimSwitch>`): counters, the whole
//! control-channel conversation, and every switch's and link's final
//! statistics (see `common::digest`). Every other engine test compares
//! two runs of the same code; only a literal catches a change both runs
//! share.
//!
//! Two scenarios live here; the third — enterprise + `ddos_flood` in
//! OpenFlow 1.3 wire mode against `ControllerCluster` — needs the
//! controller crate and is pinned in the root suite's
//! `tests/e2e_wire_mode.rs`.

mod common;

use athena_dataplane::{workload, LearningControllerStub, LinkModel, Network, Topology};
use athena_types::{Dpid, SimDuration, SimTime};
use common::{digest, Recorder};

fn stub(topo: &Topology, idle_secs: u64) -> Recorder<LearningControllerStub> {
    let mut ctrl = LearningControllerStub::for_topology(topo.clone());
    ctrl.idle_timeout = SimDuration::from_secs(idle_secs);
    Recorder::new(ctrl)
}

/// A four-switch line whose 3 s idle timeouts expire and re-install
/// mid-run: expiry order, FLOW_REMOVED delivery and re-punts.
#[test]
fn linear_with_idle_timeouts_matches_its_pinned_digest() {
    let topo = Topology::linear(4, 2);
    let mut net = Network::new(topo.clone());
    let mut ctrl = stub(&topo, 3);
    net.inject_flows(workload::benign_mix_on(
        &topo,
        40,
        SimDuration::from_secs(14),
        42,
    ));
    net.run_until(SimTime::from_secs(25), &mut ctrl);
    assert!(net.counters().flow_removeds > 0, "timeouts must fire");
    assert_eq!(
        digest(&net, &ctrl),
        "NetworkCounters { packet_ins: 80, flow_removeds: 138, delivered_bytes: 2206327, \
         dropped_bytes: 0 }|active=11|wire=b35c177d7c70e812|state=280bbe5bd87bfe50"
    );
}

/// A k = 4 fat-tree (ECMP) under every fault hook: a lossy stochastic
/// link model from the start, then a wipe, a link degrade, a reboot, the
/// restore and a core wipe at fixed virtual times.
#[test]
fn fat_tree_under_fault_hooks_matches_its_pinned_digest() {
    let topo = Topology::fat_tree(4);
    let mut net = Network::new(topo.clone());
    let mut ctrl = stub(&topo, 5);
    assert_eq!(
        net.set_link_model(LinkModel::lossy(0.05), 77),
        topo.unidirectional_link_count()
    );
    net.inject_flows(workload::benign_mix_on(
        &topo,
        120,
        SimDuration::from_secs(14),
        7_701_001,
    ));
    // Fat-tree k=4 dpids: pod p owns p*4+1..=p*4+4 (edges then aggs),
    // cores start at 17; 1-3 is a real edge-agg link.
    net.run_until(SimTime::from_secs(4), &mut ctrl);
    assert!(net.wipe_switch(Dpid::new(5)) > 0, "pod-1 edge had flows");
    assert_eq!(net.set_link_state(Dpid::new(1), Dpid::new(3), 0.25), 2);
    net.run_until(SimTime::from_secs(7), &mut ctrl);
    assert!(net.reboot_switch(Dpid::new(6)) > 0, "pod-1 edge had flows");
    assert_eq!(net.set_link_state(Dpid::new(1), Dpid::new(3), 1.0), 2);
    net.run_until(SimTime::from_secs(10), &mut ctrl);
    assert!(net.wipe_switch(Dpid::new(17)) > 0, "core had flows");
    net.run_until(SimTime::from_secs(16), &mut ctrl);
    assert_eq!(
        digest(&net, &ctrl),
        "NetworkCounters { packet_ins: 318, flow_removeds: 164, delivered_bytes: 4837626, \
         dropped_bytes: 950336 }|active=87|wire=d6d0f7110202370d|state=c87521e6dc9de093"
    );
}
