//! Online-vs-batch evaluation over the Table-IV attack families.
//!
//! Pairs each `athena-stream` online learner with its batch Table-IV
//! counterpart and measures both on the *same* per-family deployment
//! records:
//!
//! - the **batch** arm trains once on the family's full record set and
//!   is validated against it (the Table-IV protocol, via
//!   [`crate::matrix::evaluate_cell`]);
//! - the **online** arm is evaluated *prequentially* (test-then-train):
//!   every record is first scored by the model as fitted on the records
//!   before it, then consumed by `partial_fit` — the standard streaming
//!   protocol, strictly harder than batch because early records are
//!   scored by a barely-fitted model.
//!
//! The whole report is a pure function of [`MatrixConfig`]:
//! byte-identical across reruns and `ATHENA_THREADS` widths.
//! `tests/e2e_stream.rs` runs the sweep, gates its floor and writes the
//! `BENCH_stream.json` artifact the CI gate archives.

use crate::matrix::{evaluate_cell, run_family, FamilyRun, MatrixConfig};
use athena_apps::{DdosDetector, DdosDetectorConfig};
use athena_compute::ComputeCluster;
use athena_core::DetectorManager;
use athena_ml::algorithms::kmeans::KMeansParams;
use athena_ml::{Algorithm, LabeledPoint};
use athena_stream::OnlineSpec;
use athena_types::SimTime;
use athena_workloads::AttackFamily;
use serde::{Deserialize, Serialize};

/// The online learners and their batch Table-IV counterparts, in fixed
/// report order.
pub fn pairings() -> Vec<(OnlineSpec, Algorithm)> {
    vec![
        (OnlineSpec::NaiveBayes, Algorithm::NaiveBayes),
        (
            OnlineSpec::SequentialKMeans { k: 8 },
            Algorithm::KMeans(KMeansParams {
                k: 8,
                ..KMeansParams::default()
            }),
        ),
        (
            OnlineSpec::Quantile {
                feature: 4,
                q: 0.99,
            },
            Algorithm::threshold(4, 350.0),
        ),
    ]
}

/// One measured arm (online or batch) of a comparison cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Arm {
    /// The algorithm's display tag.
    pub algorithm: String,
    /// Fraction of malicious entries flagged.
    pub detection_rate: f64,
    /// Fraction of benign entries flagged.
    pub false_alarm_rate: f64,
    /// Virtual seconds from attack start to the first true positive.
    pub time_to_detect_s: Option<f64>,
    /// Entries scored in this arm.
    pub entries: u64,
}

/// One (family × pairing) comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamCell {
    /// The attack family's tag.
    pub family: String,
    /// Whether the family is held out of the Table-IV training split.
    pub held_out: bool,
    /// The prequential online arm.
    pub online: Arm,
    /// The batch Table-IV arm.
    pub batch: Arm,
}

/// The complete online-vs-batch report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamReport {
    /// The master seed.
    pub seed: u64,
    /// Whether smoke subsampling shrank the workloads.
    pub smoke: bool,
    /// Every (family × pairing) cell, families outermost.
    pub cells: Vec<StreamCell>,
}

impl StreamReport {
    /// The canonical byte-comparable JSON form.
    ///
    /// # Errors
    ///
    /// Propagates serialization failures.
    pub fn to_json(&self) -> Result<String, athena_types::AthenaError> {
        serde_json::to_string(self).map_err(|e| athena_types::AthenaError::Model(e.to_string()))
    }

    /// Writes the JSON artifact (the CI gate archives this).
    ///
    /// # Errors
    ///
    /// Propagates serialization and I/O failures.
    pub fn save_json(&self, path: &std::path::Path) -> Result<(), athena_types::AthenaError> {
        let json = self.to_json()?;
        std::fs::write(path, json)
            .map_err(|e| athena_types::AthenaError::Model(format!("write {}: {e}", path.display())))
    }
}

fn zero_arm(algorithm: &str) -> Arm {
    Arm {
        algorithm: algorithm.to_owned(),
        detection_rate: 0.0,
        false_alarm_rate: 0.0,
        time_to_detect_s: None,
        entries: 0,
    }
}

/// Prequential (test-then-train) evaluation of one online learner over
/// one family's records, in canonical store order: each record is
/// scored by the model fitted on everything before it, then learned.
pub fn prequential(run: &FamilyRun, spec: &OnlineSpec) -> Arm {
    let det = DdosDetector::new(DdosDetectorConfig::default());
    let features = DdosDetector::features();
    let truth = run.truth();
    let labeled: Vec<(SimTime, LabeledPoint)> = run
        .records
        .iter()
        .filter_map(|r| {
            r.vector(&features).map(|v| {
                let label = if truth(r) { 1.0 } else { 0.0 };
                (r.meta.timestamp, LabeledPoint::new(v, label))
            })
        })
        .collect();
    let points: Vec<LabeledPoint> = labeled.iter().map(|(_, p)| p.clone()).collect();
    let Ok(fitted) = det.preprocessor().fit(&points) else {
        return zero_arm(spec.tag());
    };
    let prepared = fitted.apply(&points);
    assert_eq!(
        prepared.len(),
        labeled.len(),
        "the DDoS preprocessor is 1:1; sampling steps would break pairing"
    );
    let mut model = spec.build();
    let (mut tp, mut fp, mut tn, mut missed) = (0u64, 0u64, 0u64, 0u64);
    let mut first_hit: Option<SimTime> = None;
    for ((t, _), p) in labeled.iter().zip(prepared.iter()) {
        let malicious = p.is_malicious();
        let flagged = model.predict(&p.features) >= 0.5;
        match (malicious, flagged) {
            (true, true) => {
                tp += 1;
                first_hit = Some(match first_hit {
                    Some(prev) if prev <= *t => prev,
                    _ => *t,
                });
            }
            (true, false) => missed += 1,
            (false, true) => fp += 1,
            (false, false) => tn += 1,
        }
        model.partial_fit(p);
    }
    let rate = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    Arm {
        algorithm: spec.tag().to_owned(),
        detection_rate: rate(tp, tp + missed),
        false_alarm_rate: rate(fp, fp + tn),
        time_to_detect_s: first_hit.map(|t| {
            (t.as_micros().saturating_sub(run.attack_start.as_micros())) as f64 / 1_000_000.0
        }),
        entries: tp + fp + tn + missed,
    }
}

/// The batch counterpart: the Table-IV protocol on the same records
/// (train on the family's full record set, validate against it).
pub fn batch_arm(run: &FamilyRun, algorithm: &Algorithm) -> Arm {
    let det = DdosDetector::new(DdosDetectorConfig::default());
    let features = DdosDetector::features();
    let dm = DetectorManager::new(ComputeCluster::new(2));
    let model = dm
        .generate_detection_model(
            &run.records,
            &features,
            run.truth(),
            &det.preprocessor(),
            algorithm,
        )
        .ok();
    let cell = evaluate_cell(run, algorithm, model.as_ref());
    Arm {
        algorithm: cell.algorithm,
        detection_rate: cell.detection_rate,
        false_alarm_rate: cell.false_alarm_rate,
        time_to_detect_s: cell.time_to_detect_s,
        entries: cell.entries,
    }
}

/// Runs the whole comparison: one deployment per family, every pairing
/// measured online (prequentially) and batch on its records.
pub fn run_stream(cfg: &MatrixConfig) -> StreamReport {
    let runs: Vec<FamilyRun> = AttackFamily::all()
        .iter()
        .map(|f| run_family(*f, cfg))
        .collect();
    let mut cells = Vec::new();
    for run in &runs {
        for (spec, algorithm) in pairings() {
            cells.push(StreamCell {
                family: run.family.tag().to_owned(),
                held_out: run.family.is_held_out(),
                online: prequential(run, &spec),
                batch: batch_arm(run, &algorithm),
            });
        }
    }
    StreamReport {
        seed: cfg.seed,
        smoke: cfg.smoke,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_cfg() -> MatrixConfig {
        MatrixConfig {
            seed: 7,
            smoke: true,
            ..MatrixConfig::default()
        }
    }

    #[test]
    fn online_naive_bayes_detects_the_flood_prequentially() {
        let run = run_family(AttackFamily::Ddos, &smoke_cfg());
        let arm = prequential(&run, &OnlineSpec::NaiveBayes);
        assert!(arm.entries > 0);
        assert!(
            arm.detection_rate > 0.9,
            "prequential NB detection rate {}",
            arm.detection_rate
        );
        assert!(
            arm.false_alarm_rate < 0.15,
            "prequential NB false-alarm rate {}",
            arm.false_alarm_rate
        );
        assert!(arm.time_to_detect_s.is_some());
    }

    #[test]
    fn prequential_is_deterministic() {
        let run = run_family(AttackFamily::Ddos, &smoke_cfg());
        let a = prequential(&run, &OnlineSpec::NaiveBayes);
        let b = prequential(&run, &OnlineSpec::NaiveBayes);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = StreamReport {
            seed: 7,
            smoke: true,
            cells: vec![StreamCell {
                family: "ddos_flood".to_owned(),
                held_out: false,
                online: zero_arm("online-naive-bayes"),
                batch: zero_arm("Naive Bayes"),
            }],
        };
        let json = report.to_json().unwrap();
        let back: StreamReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }
}
