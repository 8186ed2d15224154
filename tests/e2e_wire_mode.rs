//! Wire-mode fidelity: running the whole deployment with every control
//! message round-tripped through the binary OpenFlow codec must change
//! nothing observable — same deliveries, same features, same detections.
//!
//! Also home of the third engine golden (see
//! `crates/dataplane/tests/golden_engine.rs`): the scenario needs
//! `ControllerCluster`, which the dataplane crate cannot depend on.

#[path = "../crates/dataplane/tests/common/mod.rs"]
mod engine_digest;

use athena::controller::ControllerCluster;
use athena::core::{Athena, AthenaConfig, Query};
use athena::dataplane::{workload, Network, NetworkConfig, Topology};
use athena::openflow::OfVersion;
use athena::types::{SimDuration, SimTime};
use engine_digest::{digest, Recorder};

fn run(wire_mode: Option<OfVersion>) -> (u64, usize, u64) {
    let topo = Topology::enterprise();
    let mut net = Network::with_config(
        topo.clone(),
        NetworkConfig {
            wire_mode,
            ..NetworkConfig::default()
        },
    );
    let mut cluster = ControllerCluster::new(&topo);
    let athena = Athena::new(AthenaConfig::default());
    athena.attach(&mut cluster);
    net.inject_flows(workload::benign_mix_on(
        &topo,
        60,
        SimDuration::from_secs(12),
        2026,
    ));
    net.run_until(SimTime::from_secs(16), &mut cluster);
    (
        net.delivered_bytes(),
        athena.request_features(&Query::all()).len(),
        cluster.counters().flow_mods,
    )
}

#[test]
fn wire_mode_is_transparent_for_both_versions() {
    let plain = run(None);
    assert!(plain.0 > 0 && plain.1 > 0 && plain.2 > 0);
    for v in [OfVersion::V1_0, OfVersion::V1_3] {
        let wired = run(Some(v));
        assert_eq!(wired, plain, "wire mode {v:?} changed observable behavior");
    }
}

/// Enterprise topology, benign background plus a `ddos_flood`, every
/// control message through the OpenFlow 1.3 codec, against the real
/// controller cluster (reactive forwarding, 5 s statistics poller),
/// pinned to a literal digest (captured at commit 4a6e951) so a change
/// to what the engine emits on the wire path cannot pass by being
/// self-consistent.
#[test]
fn wire_mode_ddos_matches_its_pinned_digest() {
    let topo = Topology::enterprise();
    let mut net = Network::with_config(
        topo.clone(),
        NetworkConfig {
            wire_mode: Some(OfVersion::V1_3),
            ..NetworkConfig::default()
        },
    );
    let mut ctrl = Recorder::new(ControllerCluster::new(&topo));
    let mut flows = workload::benign_mix_on(&topo, 60, SimDuration::from_secs(12), 2026);
    flows.extend(workload::ddos_flood(
        &topo,
        topo.hosts[0].ip,
        workload::DdosParams {
            start: SimTime::from_secs(4),
            duration: SimDuration::from_secs(8),
            n_flows: 150,
            total_rate_bps: 3_000_000_000,
            ..workload::DdosParams::default()
        },
        102,
    ));
    net.inject_flows(flows);
    // Past the flood's 30 s idle timeouts, so its rules expire too.
    net.run_until(SimTime::from_secs(46), &mut ctrl);
    assert_eq!(
        ctrl.inner.counters().packet_ins,
        net.counters().packet_ins,
        "every punt reached the cluster"
    );
    assert_eq!(
        digest(&net, &ctrl),
        "NetworkCounters { packet_ins: 270, flow_removeds: 623, delivered_bytes: 929707105, \
         dropped_bytes: 57516025 }|active=0|wire=c8494bc12ffba85f|state=c7000dffd6ca9df8"
    );
}
