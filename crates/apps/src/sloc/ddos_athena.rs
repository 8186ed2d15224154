//! The DDoS detector written against the Athena NB API — the paper's
//! Application 1 pseudocode, measured for Table VIII.
//!
//! The setup code (standing up an Athena deployment and feeding it the
//! raw samples, which the real framework does automatically at the SB)
//! lives outside the measured markers; the application itself — queries,
//! preprocessor, algorithm, model generation, validation — is what the
//! developer writes.

use super::{DetectorOutput, RawFlowSample};
use athena_core::{
    Athena, AthenaConfig, FeatureIndex, FeatureRecord, MessageType, MetaData, QueryBuilder,
};
use athena_ml::{Algorithm, Normalization, Preprocessor};
use athena_types::Dpid;
use std::collections::HashSet;

/// Runs the K-Means variant.
pub fn run_kmeans(train: &[RawFlowSample], test: &[RawFlowSample]) -> DetectorOutput {
    run(train, test, Algorithm::kmeans(8))
}

/// Runs the logistic-regression variant.
pub fn run_logistic(train: &[RawFlowSample], test: &[RawFlowSample]) -> DetectorOutput {
    run(train, test, Algorithm::logistic_regression())
}

fn run(train: &[RawFlowSample], test: &[RawFlowSample], algorithm: Algorithm) -> DetectorOutput {
    // Setup (unmeasured): Athena collects features automatically; here we
    // replay the raw samples into the deployment's feature store tagged
    // by phase so train/test queries can select them.
    let athena = Athena::new(AthenaConfig::default());
    ingest(&athena, train, "train");
    ingest(&athena, test, "test");

    // >>> measured
    let features: Vec<String> = crate::dataset::FEATURES
        .iter()
        .map(|s| s.to_string())
        .collect();
    /* Define the features to be trained */
    let mut q_train = QueryBuilder::new()
        .eq("message_type", "FLOW_STATS")
        .eq("phase", "train")
        .build();
    q_train.features = features.clone();
    /* Define data pre-processing: normalization plus feature weights */
    let f = Preprocessor::new()
        .normalize(Normalization::MinMax)
        .weight(vec![2.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]);
    /* Marking malicious entries: ground truth from the labeled dataset */
    let truth = |r: &FeatureRecord| r.field("truth").unwrap_or(0.0) >= 0.5;
    /* Generate a detection model with the configured algorithm */
    let m = athena
        .generate_detection_model(&q_train, &f, &algorithm, truth)
        .expect("model generation");
    /* Define the features to be tested */
    let mut q_test = QueryBuilder::new()
        .eq("message_type", "FLOW_STATS")
        .eq("phase", "test")
        .build();
    q_test.features = features;
    /* Test the features */
    let summary = athena.validate_features(&q_test, &m, truth);
    /* Show results with the CLI interface */
    let _report = athena.show_results(&summary);
    // <<< measured

    DetectorOutput {
        confusion: summary.confusion,
        clusters: summary
            .clusters
            .iter()
            .map(|c| (c.benign, c.malicious, c.flagged_malicious))
            .collect(),
    }
}

/// Replays raw samples as FLOW_STATS feature records (what the Athena SB
/// generates on a live deployment), tagging each with the phase and its
/// ground-truth label.
fn ingest(athena: &Athena, samples: &[RawFlowSample], phase: &str) {
    let tuples: HashSet<athena_types::FiveTuple> = samples.iter().map(|s| s.five_tuple).collect();
    let pair_total = tuples
        .iter()
        .filter(|t| tuples.contains(&t.reversed()))
        .count();
    let pair_ratio = pair_total as f64 / tuples.len().max(1) as f64;
    let mut fm = athena.runtime().feature_manager.lock();
    for s in samples {
        let dur = s.duration_us as f64 / 1e6;
        let paired = tuples.contains(&s.five_tuple.reversed());
        let index = FeatureIndex::flow(Dpid::new(s.switch), s.five_tuple);
        let mut r = FeatureRecord::new(index).with_meta(MetaData {
            message_type: MessageType::FLOW_STATS,
            ..MetaData::default()
        });
        r.push_field("PAIR_FLOW", f64::from(u8::from(paired)));
        r.push_field("PAIR_FLOW_RATIO", pair_ratio);
        r.push_field("FLOW_PACKET_COUNT", s.packet_count as f64);
        r.push_field("FLOW_BYTE_COUNT", s.byte_count as f64);
        r.push_field(
            "FLOW_BYTE_PER_PACKET",
            s.byte_count as f64 / s.packet_count.max(1) as f64,
        );
        r.push_field("FLOW_PACKET_PER_DURATION", s.packet_count as f64 / dur);
        r.push_field("FLOW_BYTE_PER_DURATION", s.byte_count as f64 / dur);
        r.push_field("FLOW_DURATION_SEC", dur.floor());
        r.push_field("FLOW_DURATION_NSEC", (dur.fract() * 1e9).floor());
        r.push_field("FLOW_TP_DST", f64::from(s.five_tuple.dst_port));
        r.push_field("truth", f64::from(u8::from(s.malicious)));
        // The phase tag rides in the stored document as a plain (string)
        // member so the train/test queries can select on it.
        let mut doc = r.document().clone();
        doc.set("phase", phase);
        let _ = fm.ingest(FeatureRecord::from(doc));
    }
}
