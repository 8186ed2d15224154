//! Figure 6 — the DDoS detector's validation report.
//!
//! The paper validates 37,370,466 entries (a 50 GB testbed capture) with
//! a K-Means (K=8) model and reports a 99.23 % detection rate and 4.46 %
//! false-alarm rate. This harness regenerates the report on the
//! statistically matched synthetic dataset at a configurable scale
//! (`ATHENA_FIG6_ENTRIES`, default 373,704 = 1 % of the paper's entry
//! count) and prints the paper-vs-measured comparison.

use athena_apps::dataset::{DdosDataset, FEATURES};
use athena_apps::{DdosDetector, DdosDetectorConfig};
use athena_bench::{compare_row, header, pct};
use athena_compute::ComputeCluster;
use athena_core::{DetectorManager, UiManager};
use athena_ml::group_digits;
use athena_types::env_usize;

fn main() {
    println!(
        "{}",
        header("Figure 6 — DDoS detector output (K-Means, K=8)")
    );
    let entries = env_usize("ATHENA_FIG6_ENTRIES", 373_704);
    println!(
        "dataset: {} entries (paper: 37,370,466; scale with ATHENA_FIG6_ENTRIES)\n",
        group_digits(entries as u64)
    );

    let data = DdosDataset::generate(entries, 20170607);
    let (train, test) = data.points.split_at(entries / 2);

    let det = DdosDetector::new(DdosDetectorConfig::default());
    let features: Vec<String> = FEATURES.iter().map(|s| (*s).to_owned()).collect();
    let dm = DetectorManager::new(ComputeCluster::new(6));

    let model = dm
        .generate_from_points(
            train.to_vec(),
            &features,
            &det.preprocessor(),
            &det.config.algorithm,
        )
        .expect("model generation");

    let mut summary = dm.validate_points(test, &model);
    summary.benign_unique_flows = data.benign_unique_flows;
    summary.malicious_unique_flows = data.malicious_unique_flows;

    let ui = UiManager::new();
    println!("{}\n", ui.render_summary(&summary));

    println!("{}", header("paper vs measured"));
    let c = &summary.confusion;
    println!(
        "{}",
        compare_row("Total entries", "37,370,466", &group_digits(c.total()))
    );
    println!(
        "{}",
        compare_row(
            "Benign : Malicious split",
            "25% : 75%",
            &format!(
                "{} : {}",
                pct(c.actual_benign() as f64 / c.total() as f64),
                pct(c.actual_malicious() as f64 / c.total() as f64)
            ),
        )
    );
    println!(
        "{}",
        compare_row(
            "Detection Rate",
            "0.9923 (99.23%)",
            &format!("{:.4} ({})", c.detection_rate(), pct(c.detection_rate())),
        )
    );
    println!(
        "{}",
        compare_row(
            "False Alarm Rate",
            "0.0446 (4.46%)",
            &format!(
                "{:.4} ({})",
                c.false_alarm_rate(),
                pct(c.false_alarm_rate())
            ),
        )
    );
    println!(
        "{}",
        compare_row(
            "Clusters",
            "K(8), Iterations(20), Runs(5)",
            "same configuration",
        )
    );

    // Shape assertions: the detector must land in the paper's operating
    // region (high detection, low-single-digit false alarms).
    assert!(
        c.detection_rate() > 0.97,
        "detection rate off the paper's operating point"
    );
    assert!(
        c.false_alarm_rate() < 0.10,
        "false alarms off the paper's operating point"
    );
    println!("\nshape verified: detection > 97%, false alarms < 10%");
}
