//! The calls `ledger/` makes into the workspace, spelled as it spells
//! them.
//!
//! The benchmark is a package of its own that tier-1 never compiles, so
//! a signature it depends on can break without `cargo test` noticing —
//! and a PR whose benchmark does not build is lost. Each block below
//! copies one call shape from `ledger/src/probes.rs` or
//! `ledger/src/workloads/`; if an edit here is needed to keep this file
//! compiling, the ledger needs the same edit.

mod common;

use athena::apps::{DdosDetector, DdosDetectorConfig};
use athena::core::{
    AttackDetector, DetectionModel, FeatureGenerator, FeatureManager, FeatureRecord, Query,
};
use athena::ml::LabeledPoint;
use athena::openflow::{OfMessage, PacketHeader};
use athena::store::{Accumulator, Aggregation, Filter, FindOptions, GroupSpec, StoreCluster};
use athena::types::{AppId, ControllerId, Dpid, Ipv4Addr, PortNo, SimTime, Xid};

/// `probes::sample_records`.
fn sample_records(athena: &athena::core::Athena, n: usize) -> Vec<FeatureRecord> {
    athena.request_features(&Query {
        limit: Some(n),
        ..Query::all()
    })
}

#[test]
fn the_calls_the_ledger_makes_compile_and_agree() {
    let (d, victim) = common::ddos_scenario(60, 120);
    let athena = &d.athena;

    // workloads::store_check, cbench_saturate's two-deployment comparison.
    let stored = athena.stored_feature_count();
    assert!(stored > 0);
    let all = Query::all();
    let records = athena.request_features(&all);
    assert_eq!(records.len(), stored);
    assert_eq!(records, athena.request_features(&all));
    let sample = sample_records(athena, 500);
    assert_eq!(sample.len(), 500);
    assert_eq!(sample[..], records.clone()[..500]);

    // nb_analytics: parsed per-switch queries, result lengths checked
    // against the feature manager's own count.
    let q = Query::parse("feature==FLOW_STATS && switch==1").expect("well-formed query");
    let returned = athena.request_features(&q).len();
    {
        let fm = athena.runtime().feature_manager.lock();
        assert_eq!(fm.count_features(&q), returned);
    }

    // probes::store_insert and probes::wal_append.
    let docs: Vec<_> = sample.iter().map(FeatureRecord::to_document).collect();
    let store = StoreCluster::new(3, 2);
    let collection = store.collection("probe");
    collection.create_index("message_type");
    for doc in docs {
        assert!(collection.insert(doc).is_ok());
    }
    let payloads: Vec<Vec<u8>> = sample
        .iter()
        .filter_map(|r| serde_json::to_vec(&r.to_document()).ok())
        .collect();
    assert_eq!(payloads.len(), sample.len());

    // probes::store_read.
    let collection = athena
        .runtime()
        .store
        .collection(FeatureManager::COLLECTION);
    let total = collection.count(&Filter::All);
    assert_eq!(total, stored);
    let opts = FindOptions::default();
    let indexed = Filter::Eq("message_type".into(), "PACKET_IN".into());
    let mut found = 0usize;
    for _ in 0..2 {
        found = collection.find(&indexed, &opts).len();
    }
    assert!(found > 0);
    let scan = Filter::Eq("switch".into(), 1.into());
    let scanned = collection.find(&scan, &opts);
    assert!(!scanned.is_empty());
    let flow_stats = Filter::Eq("message_type".into(), "FLOW_STATS".into());
    assert!(collection.count(&flow_stats) > 0);
    let pipeline =
        Aggregation::new().group(GroupSpec::by(&["switch"]).with("n", Accumulator::Count));
    assert!(!collection.aggregate(&pipeline).is_empty());

    // probes::labeled_points, ddos_detect's train, probes::detector.
    let det = DdosDetector::new(DdosDetectorConfig {
        victim,
        ..DdosDetectorConfig::default()
    });
    let points: Vec<LabeledPoint> =
        FeatureManager::to_labeled_points(&records, &DdosDetector::features(), det.truth());
    assert!(!points.is_empty());
    let model: DetectionModel = det.train(athena).expect("trainable scenario");
    let query = Query::parse("feature==FLOW_STATS").expect("well-formed query");
    let mut detector = AttackDetector::new();
    detector.add_validator("probe", &query, model.clone(), Box::new(|_| None));
    for r in &sample {
        assert!(detector.process(r).is_empty());
    }

    // probes::feature_generator.
    let mut generator = FeatureGenerator::new(ControllerId::new(0));
    let app_of = |_cookie: u64| AppId::CORE;
    let msg = OfMessage::packet_in(
        Xid::new(1),
        PacketHeader::tcp_syn(
            PortNo::new(1),
            Ipv4Addr::new(1, 1, 1, 1),
            1,
            Ipv4Addr::new(2, 2, 2, 2),
            2,
        ),
    );
    let generated = generator.ingest(Dpid::new(1), &msg, SimTime::from_secs(1), &app_of);
    assert_eq!(generated.len(), 1);
}
