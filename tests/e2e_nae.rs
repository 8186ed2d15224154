//! End-to-end NAE scenario: the LB app and the security app compete; the
//! monitor catches the takeover (the paper's scenario 3).

mod common;

use athena::apps::NaeMonitor;
use athena::controller::apps::{LoadBalancer, SecurityApp};
use athena::core::Athena;
use athena::dataplane::{FlowSpec, ShardPlan, Topology};
use athena::types::{Dpid, FiveTuple, Ipv4Addr, SimDuration, SimTime};
use common::deploy_on_with;

const ACTIVATE_AT: u64 = 60;

fn run_scenario() -> (NaeMonitor, Athena) {
    let topo = Topology::nae();
    let plan = ShardPlan::partition(&topo, 1);
    let mut d = deploy_on_with(topo, plan, |cluster| {
        cluster.add_processor(Box::new(LoadBalancer::new((
            Ipv4Addr::new(10, 0, 4, 0),
            24,
        ))));
        cluster.add_processor(Box::new(
            SecurityApp::new(Dpid::new(6)).activate_at(SimTime::from_secs(ACTIVATE_AT)),
        ));
    });
    let monitor = NaeMonitor::new();
    monitor.deploy(&d.athena);

    let ftp = Ipv4Addr::new(10, 0, 4, 1);
    let mut flows = Vec::new();
    for (i, t) in (0..110u64).step_by(2).enumerate() {
        let client = d.topo.hosts[i % 4].ip;
        flows.push(
            FlowSpec::new(
                FiveTuple::tcp(client, 30_000 + i as u16, ftp, 21),
                SimTime::from_secs(t),
                SimDuration::from_secs(8),
                4_000_000,
            )
            .bidirectional(0.1),
        );
    }
    d.inject(flows);
    d.run_until_secs(120);
    (monitor, d.athena)
}

#[test]
fn security_app_takeover_violates_the_sla() {
    let (monitor, _athena) = run_scenario();
    assert!(monitor.sample_count() > 10);
    let violations = monitor.check_sla();
    assert!(
        !violations.is_empty(),
        "takeover must violate the even-distribution SLA"
    );
    // Violations cluster after activation.
    let after = violations
        .iter()
        .filter(|v| v.at >= SimTime::from_secs(ACTIVATE_AT))
        .count();
    assert!(
        after * 2 >= violations.len(),
        "most violations after activation: {after}/{}",
        violations.len()
    );
}

#[test]
fn series_shows_the_takeover_shape() {
    let (monitor, athena) = run_scenario();
    let series = monitor.series();
    assert_eq!(series.len(), 2);
    // Post-activation, S6 dominates S3.
    let total_after = |idx: usize| -> f64 {
        series[idx]
            .1
            .iter()
            .filter(|(t, _)| *t > ACTIVATE_AT as f64 + 10.0)
            .map(|(_, v)| v)
            .sum()
    };
    let s3 = total_after(0);
    let s6 = total_after(1);
    assert!(
        s6 > s3 * 2.0,
        "S6 must dominate after takeover: s3={s3} s6={s6}"
    );
    // Rendering works.
    let chart = athena.show_series("nae", &series);
    assert!(chart.contains("of:0000000000000006"));
}
