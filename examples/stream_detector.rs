//! Opt-in streaming pipeline (DESIGN.md §13): deploy a bootstrap model,
//! accumulate labeled live traffic in a sliding window, retrain an
//! online learner in the background, and hot-swap it mid-run — without
//! ever pausing detection.
//!
//! ```bash
//! cargo run --release --example stream_detector
//! ```

use athena::apps::{DdosDataset, DdosDetector, DdosDetectorConfig};
use athena::controller::ControllerCluster;
use athena::core::{Athena, AthenaConfig, FeatureRecord};
use athena::dataplane::{workload, Network, Topology};
use athena::ml::Algorithm;
use athena::stream::{OnlineSpec, RetrainLoop, RetrainPolicy, StreamConfig};
use athena::types::{Result, SimDuration, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn main() -> Result<()> {
    let topo = Topology::enterprise();
    let victim = topo.hosts[0].ip;

    let mut net = Network::new(topo.clone());
    let mut cluster = ControllerCluster::new(&topo);
    let athena = Athena::new(AthenaConfig::default());
    athena.attach(&mut cluster);

    // Live traffic: benign background, then a flood against the victim.
    net.inject_flows(workload::benign_mix_on(
        &topo,
        150,
        SimDuration::from_secs(30),
        101,
    ));
    net.inject_flows(workload::ddos_flood(
        &topo,
        victim,
        workload::DdosParams {
            start: SimTime::from_secs(8),
            duration: SimDuration::from_secs(22),
            ..workload::DdosParams::default()
        },
        102,
    ));

    let det = DdosDetector::new(DdosDetectorConfig {
        victim,
        ..DdosDetectorConfig::default()
    });

    // The bootstrap: a model pretrained offline on synthetic data. It
    // serves from the very first record; the retrain loop then adapts
    // it to the live traffic.
    println!("bootstrap: pretraining K-Means on the synthetic dataset…");
    let pretrain = DdosDataset::generate(4_000, 3);
    let bootstrap = athena.detector_manager().generate_from_points(
        pretrain.points,
        &DdosDetector::features(),
        &det.preprocessor(),
        &Algorithm::kmeans(4),
    )?;

    // Deploy the streaming pipeline: incremental NB candidates fitted
    // on the live window every 10 virtual seconds, snapshotted through
    // the persist format, hot-swapped atomically.
    let snapshot = std::env::temp_dir().join("athena-stream-example.model");
    let truth_det = det.clone();
    let truth: Arc<dyn Fn(&FeatureRecord) -> bool + Send + Sync> =
        Arc::new(move |r| (truth_det.truth())(r));
    let alerts = Arc::new(AtomicU64::new(0));
    let seen = Arc::clone(&alerts);
    let mut retrain = RetrainLoop::deploy(
        &athena,
        &det.query(),
        StreamConfig {
            name: "stream-ddos".to_owned(),
            features: DdosDetector::features(),
            spec: OnlineSpec::NaiveBayes,
            preprocessor: det.preprocessor(),
            policy: RetrainPolicy {
                snapshot: Some(snapshot.clone()),
                ..RetrainPolicy::default()
            },
        },
        truth,
        bootstrap,
        Box::new(move |_| {
            seen.fetch_add(1, Ordering::Relaxed);
            None
        }),
    );

    println!("running: ticking the retrain loop once per virtual second…");
    let end = SimTime::from_secs(35);
    while net.now() < end {
        let next = (net.now() + SimDuration::from_secs(1)).min(end);
        net.run_until(next, &mut cluster);
        if let Some(report) = retrain.tick(&athena, net.now()) {
            println!(
                "  t={:>2}s retrained {} on {} live points{}",
                report.at.as_secs_f64() as u64,
                report.algorithm,
                report.points,
                if report.swapped {
                    " → hot-swapped"
                } else {
                    " (swap failed)"
                },
            );
        }
    }

    println!(
        "done: {} alerts, {} retrains, {} live points in window",
        alerts.load(Ordering::Relaxed),
        retrain.reports().len(),
        retrain.live_points(),
    );
    let _ = std::fs::remove_file(&snapshot);
    Ok(())
}
