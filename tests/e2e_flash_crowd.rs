//! The paper's introduction motivates distinguishing *benign* anomalies
//! (flash crowds) from attacks. A flash crowd is a volume surge of
//! legitimate, bidirectional connections — the pair-flow features of
//! Table V are exactly what separates it from a flood. This test trains
//! the DDoS detector live, then checks that a subsequent flash crowd does
//! not alarm while a real flood does.

mod common;

use athena::apps::{DdosDetector, DdosDetectorConfig};
use athena::dataplane::workload;
use athena::types::{SimDuration, SimTime};
use common::deploy_enterprise;

#[test]
fn flash_crowd_is_not_flagged_but_a_flood_is() {
    let mut d = deploy_enterprise();
    let victim = d.topo.hosts[0].ip;
    let popular_server = d.topo.hosts[47].ip;

    // Phase 1: labeled training traffic (benign mix + flood).
    d.inject_benign(120, 25, 301);
    d.inject(workload::ddos_flood(
        &d.topo,
        victim,
        workload::DdosParams {
            start: SimTime::from_secs(5),
            duration: SimDuration::from_secs(20),
            n_flows: 200,
            ..workload::DdosParams::default()
        },
        302,
    ));
    d.run_until_secs(30);
    let det = DdosDetector::new(DdosDetectorConfig {
        victim,
        ..DdosDetectorConfig::default()
    });
    let model = det.train(&d.athena).expect("training");

    // Phase 2: a flash crowd toward a popular server — benign volume.
    d.athena
        .runtime()
        .feature_manager
        .lock()
        .purge(&athena::core::Query::all());
    d.inject(workload::flash_crowd(
        &d.topo,
        popular_server,
        60,
        SimTime::from_secs(32),
        SimDuration::from_secs(15),
        303,
    ));
    d.run_until_secs(50);
    let crowd_records = d
        .athena
        .request_features(&athena::core::Query::parse("feature==FLOW_STATS").unwrap());
    let crowd_alarms = crowd_records
        .iter()
        .filter(|r| {
            r.index()
                .five_tuple
                .is_some_and(|ft| ft.dst == popular_server)
        })
        .filter(|r| model.is_malicious(r) == Some(true))
        .count();
    let crowd_total = crowd_records
        .iter()
        .filter(|r| {
            r.index()
                .five_tuple
                .is_some_and(|ft| ft.dst == popular_server)
        })
        .count();
    assert!(crowd_total > 20, "the crowd produced {crowd_total} records");
    let crowd_rate = crowd_alarms as f64 / crowd_total as f64;

    // Phase 3: another flood — must alarm.
    d.athena
        .runtime()
        .feature_manager
        .lock()
        .purge(&athena::core::Query::all());
    d.inject(workload::ddos_flood(
        &d.topo,
        victim,
        workload::DdosParams {
            start: SimTime::from_secs(52),
            duration: SimDuration::from_secs(15),
            n_flows: 150,
            ..workload::DdosParams::default()
        },
        304,
    ));
    d.run_until_secs(70);
    let flood_records = d
        .athena
        .request_features(&athena::core::Query::parse("feature==FLOW_STATS").unwrap());
    let flood_alarms = flood_records
        .iter()
        .filter(|r| r.index().five_tuple.is_some_and(|ft| ft.dst == victim))
        .filter(|r| model.is_malicious(r) == Some(true))
        .count();
    let flood_total = flood_records
        .iter()
        .filter(|r| r.index().five_tuple.is_some_and(|ft| ft.dst == victim))
        .count();
    assert!(flood_total > 20, "the flood produced {flood_total} records");
    let flood_rate = flood_alarms as f64 / flood_total as f64;

    assert!(
        crowd_rate < 0.3,
        "flash crowd misclassified as attack: {crowd_rate}"
    );
    assert!(flood_rate > 0.8, "flood missed: {flood_rate}");
}
