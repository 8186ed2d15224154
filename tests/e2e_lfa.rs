//! End-to-end LFA mitigation: a Crossfire-style attack congests a core
//! link; the Athena application detects it from volume features and the
//! Block reactions clear the congestion (the paper's scenario 2).

mod common;

use athena::apps::LfaMitigator;
use athena::dataplane::{workload, Topology};
use athena::types::{Dpid, PortNo, SimDuration, SimTime};
use common::deploy_on;

#[test]
fn crossfire_is_detected_and_mitigated() {
    let mut d = deploy_on(Topology::linear(4, 6));
    let mut lfa = LfaMitigator::new();
    lfa.deploy(&d.athena);

    d.inject(workload::crossfire(
        &d.topo,
        Dpid::new(2),
        Dpid::new(3),
        workload::CrossfireParams {
            start: SimTime::from_secs(5),
            duration: SimDuration::from_secs(60),
            n_flows: 300,
            per_flow_rate_bps: 6_000_000,
        },
        77,
    ));

    let bottleneck = d
        .topo
        .link_from(Dpid::new(2), PortNo::new(1))
        .expect("bottleneck");
    let mut peak_before = 0.0f64;
    let mut blocked = 0usize;
    let mut util_after_mitigation = f64::INFINITY;
    for step in 1..=7u64 {
        d.run_until_secs(step * 10);
        let util = d.net.link(bottleneck).map_or(0.0, |l| l.utilization());
        if blocked == 0 {
            peak_before = peak_before.max(util);
        } else {
            util_after_mitigation = util_after_mitigation.min(util);
        }
        blocked += lfa.mitigate(&d.athena).len();
    }

    assert!(
        peak_before > 1.0,
        "attack must congest the link: {peak_before}"
    );
    assert!(blocked > 0, "bots must be blocked");
    assert!(
        util_after_mitigation < peak_before,
        "mitigation must relieve the link: {util_after_mitigation} vs {peak_before}"
    );
    // The reactor actually installed drop rules.
    assert_eq!(d.athena.mitigated_hosts().len(), lfa.blocked_hosts().len());
}

#[test]
fn benign_traffic_does_not_trigger_mitigation() {
    let mut d = deploy_on(Topology::linear(4, 6));
    let mut lfa = LfaMitigator::new();
    lfa.deploy(&d.athena);

    d.inject_benign(60, 40, 78);
    d.run_until_secs(45);
    let blocked = lfa.mitigate(&d.athena);
    assert!(
        blocked.is_empty(),
        "benign traffic must not be blocked: {blocked:?}"
    );
}
