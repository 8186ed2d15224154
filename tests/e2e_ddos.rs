//! End-to-end DDoS detection over the simulated enterprise SDN: the
//! paper's scenario 1 from traffic to verdict to mitigation.

mod common;

use athena::apps::{DdosDetector, DdosDetectorConfig};
use athena::core::Query;
use common::{ddos_scenario, Deployment};

fn deploy() -> (Deployment, athena::types::Ipv4Addr) {
    ddos_scenario(120, 250)
}

#[test]
fn detector_separates_attack_from_benign_traffic_live() {
    let (d, victim) = deploy();
    let detector = DdosDetector::new(DdosDetectorConfig {
        victim,
        ..DdosDetectorConfig::default()
    });
    let model = detector.train(&d.athena).expect("training");
    assert!(model.trained_on > 1_000, "trained on {}", model.trained_on);

    let summary = detector.test(&d.athena, &model);
    let dr = summary.confusion.detection_rate();
    let far = summary.confusion.false_alarm_rate();
    assert!(dr > 0.9, "detection rate {dr}");
    assert!(far < 0.1, "false alarm rate {far}");
    assert!(summary.benign_unique_flows > 0);
    assert!(summary.malicious_unique_flows > 0);

    // The rendered report carries the Figure 6 fields.
    let report = d.athena.show_results(&summary);
    assert!(report.contains("Detection Rate"));
    assert!(report.contains("Cluster (K-Means)"));
}

#[test]
fn online_validator_blocks_attack_sources() {
    let (mut d, victim) = deploy();
    let detector = DdosDetector::new(DdosDetectorConfig {
        victim,
        ..DdosDetectorConfig::default()
    });
    let model = detector.train(&d.athena).expect("training");
    detector.deploy_online(&d.athena, model);

    // A second attack wave; the online validator should block the bots.
    d.inject_ddos(victim, 40, 120, 103);
    d.run_until_secs(60);
    assert!(d.athena.total_alerts() > 0, "validator never fired");
    assert!(
        !d.athena.mitigated_hosts().is_empty(),
        "no hosts were blocked"
    );
}

#[test]
fn collected_features_span_all_controllers_and_kinds() {
    let (d, _victim) = deploy();
    for kind in ["FLOW_STATS", "PORT_STATS", "SWITCH_STATE", "PACKET_IN"] {
        let q = Query::parse(&format!("feature=={kind}")).unwrap();
        let n = d.athena.request_features(&q).len();
        assert!(n > 0, "no {kind} features");
    }
    let all = d.athena.request_features(&Query::all());
    let controllers: std::collections::HashSet<_> =
        all.iter().map(|r| r.meta().controller).collect();
    assert_eq!(controllers.len(), 3, "features from all 3 instances");
}
