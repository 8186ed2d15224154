//! The Detector Manager (paper §III-A 2B).
//!
//! Offers the well-known ML algorithms behind one uniform interface,
//! auto-configures per-type details (labeling clusters from *Marking*
//! labels), validates large-scale feature sets, and decides between
//! single-instance and cluster execution: "while in learning mode, the
//! Attack Detector distributes jobs to the computing cluster …; for a
//! small dataset, it handles the request on a single instance to reduce
//! communication overhead."

use crate::feature::catalog::FieldName;
use crate::feature::format::FeatureRecord;
use crate::nb::feature_manager::FeatureManager;
use athena_compute::ComputeCluster;
use athena_ml::{
    Algorithm, ClusterReport, ConfusionMatrix, FittedPreprocessor, LabeledPoint, Model,
    Preprocessor, TrainedModel, ValidationSummary,
};
use athena_telemetry::{Counter, Histogram, Telemetry};
use athena_types::{AthenaError, FiveTuple, Result, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// A generated detection model: the trained model plus everything needed
/// to validate features with it (the `Model (m)` parameter).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectionModel {
    /// The trained model.
    pub model: TrainedModel,
    /// The fitted preprocessing chain (applied identically at validation
    /// and online-detection time).
    pub preprocessor: FittedPreprocessor,
    /// The feature fields the model consumes, in order: resolved against
    /// the catalog when the model is built or loaded, so scoring a
    /// record compares handles, not names.
    pub features: Vec<FieldName>,
    /// The algorithm's display name.
    pub algorithm: String,
    /// Training-set size.
    pub trained_on: usize,
}

impl DetectionModel {
    /// Serializes the model (trained parameters, fitted preprocessor,
    /// feature list) to JSON — the paper's "off-the-shelf sharing of
    /// anomaly detection algorithms": a model trained on one deployment
    /// can be loaded and used on another.
    ///
    /// # Errors
    ///
    /// Returns [`AthenaError::Model`] if serialization fails.
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string(self).map_err(|e| AthenaError::Model(e.to_string()))
    }

    /// Loads a model previously exported with [`DetectionModel::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`AthenaError::Model`] for malformed input.
    pub fn from_json(json: &str) -> Result<Self> {
        serde_json::from_str(json).map_err(|e| AthenaError::Model(e.to_string()))
    }

    /// Persists the model to a snapshot file: the JSON export wrapped in
    /// the persist layer's framed record format (CRC-checked, stamped with
    /// virtual time `now`) — the durable, file-based flavor of the paper's
    /// model sharing.
    ///
    /// # Errors
    ///
    /// Returns [`AthenaError::Model`] if serialization fails or
    /// [`AthenaError::Persist`] if the file cannot be written.
    pub fn save_to(&self, path: &std::path::Path, now: SimTime) -> Result<()> {
        let json = self.to_json()?;
        athena_persist::write_snapshot_file(
            path,
            athena_persist::record::kind::MODEL,
            json.as_bytes(),
            now,
        )
    }

    /// Loads a model persisted with [`DetectionModel::save_to`],
    /// validating the record framing and checksum first.
    ///
    /// # Errors
    ///
    /// Returns [`AthenaError::Persist`] for torn or corrupt snapshot files
    /// and [`AthenaError::Model`] for a valid record holding malformed
    /// model JSON — corruption is always an error, never a wrong model.
    pub fn load_from(path: &std::path::Path) -> Result<Self> {
        let (_, payload) =
            athena_persist::read_snapshot_file(path, athena_persist::record::kind::MODEL)?;
        let json = std::str::from_utf8(&payload)
            .map_err(|e| AthenaError::Model(format!("model snapshot is not UTF-8: {e}")))?;
        Self::from_json(json)
    }

    /// Scores one feature record; `None` if the record lacks the model's
    /// features.
    pub fn score(&self, record: &FeatureRecord) -> Option<f64> {
        let v = record.values(&self.features)?;
        let p = self.preprocessor.apply_point(&LabeledPoint::unlabeled(v));
        Some(self.model.predict(&p.features))
    }

    /// Classifies one record as malicious; `None` if not applicable.
    pub fn is_malicious(&self, record: &FeatureRecord) -> Option<bool> {
        self.score(record).map(|s| s >= 0.5)
    }
}

/// The detector manager: training and validation with single-node or
/// cluster execution.
#[derive(Debug, Clone)]
pub struct DetectorManager {
    compute: ComputeCluster,
    /// Datasets at least this large train/validate on the compute cluster.
    pub distributed_threshold: usize,
    /// Partitions used for distributed jobs.
    pub partitions: usize,
    fit_ns: Histogram,
    models_trained: Counter,
}

impl DetectorManager {
    /// Creates a manager around a compute cluster.
    pub fn new(compute: ComputeCluster) -> Self {
        DetectorManager {
            compute,
            distributed_threshold: 50_000,
            partitions: 24,
            fit_ns: Histogram::detached(),
            models_trained: Counter::detached(),
        }
    }

    /// Like [`DetectorManager::new`], but training latency and model
    /// counts flow into `tel` under the `core` subsystem.
    pub fn with_telemetry(compute: ComputeCluster, tel: &Telemetry) -> Self {
        use athena_telemetry::names;
        let m = tel.metrics();
        DetectorManager {
            fit_ns: m.histogram(names::core::SUBSYSTEM, names::core::FIT_NS),
            models_trained: m.counter(names::core::SUBSYSTEM, names::core::MODELS_TRAINED),
            ..Self::new(compute)
        }
    }

    /// The compute cluster (virtual-time accounting lives there).
    pub fn compute(&self) -> &ComputeCluster {
        &self.compute
    }

    /// Generates a detection model from feature records
    /// (`GenerateDetectionModel`).
    ///
    /// `truth` labels the training entries (the *Marking* ground truth);
    /// clustering algorithms use the labels only to name clusters.
    ///
    /// # Errors
    ///
    /// Returns [`AthenaError::Ml`] when no record carries the requested
    /// features, or when preprocessing/fitting fails.
    pub fn generate_detection_model(
        &self,
        records: &[FeatureRecord],
        features: &[String],
        truth: impl Fn(&FeatureRecord) -> bool,
        preprocessor: &Preprocessor,
        algorithm: &Algorithm,
    ) -> Result<DetectionModel> {
        let points = FeatureManager::to_labeled_points(records, features, truth);
        self.generate_from_points(points, features, preprocessor, algorithm)
    }

    /// [`DetectorManager::generate_detection_model`] from pre-extracted
    /// labeled points (the large-scale path).
    ///
    /// # Errors
    ///
    /// Returns [`AthenaError::Ml`] for an empty set or fitting failures.
    pub fn generate_from_points(
        &self,
        points: Vec<LabeledPoint>,
        features: &[String],
        preprocessor: &Preprocessor,
        algorithm: &Algorithm,
    ) -> Result<DetectionModel> {
        if points.is_empty() {
            return Err(AthenaError::Ml(
                "no records carry the requested features".into(),
            ));
        }
        let fitted = preprocessor.fit(&points)?;
        let prepared = fitted.apply(&points);
        let n = prepared.len();
        let model = if n >= self.distributed_threshold {
            let ds = self.compute.parallelize(prepared, self.partitions);
            algorithm.fit_distributed_timed(&ds, &self.fit_ns)?
        } else {
            algorithm.fit_timed(&prepared, &self.fit_ns)?
        };
        self.models_trained.inc();
        Ok(DetectionModel {
            model,
            preprocessor: fitted,
            features: features.iter().map(FieldName::from).collect(),
            algorithm: algorithm.name().to_owned(),
            trained_on: n,
        })
    }

    /// Validates feature records against a model (`ValidateFeatures`),
    /// producing the paper's Figure 6 summary.
    pub fn validate_features(
        &self,
        records: &[FeatureRecord],
        truth: impl Fn(&FeatureRecord) -> bool,
        model: &DetectionModel,
    ) -> ValidationSummary {
        let mut confusion = ConfusionMatrix::default();
        let mut benign_flows: HashSet<FiveTuple> = HashSet::new();
        let mut malicious_flows: HashSet<FiveTuple> = HashSet::new();
        let k = model.model.cluster_count().unwrap_or(0);
        let mut clusters = vec![ClusterReport::default(); k];
        for (i, c) in clusters.iter_mut().enumerate() {
            c.cluster = i;
        }

        for r in records {
            let Some(v) = r.values(&model.features) else {
                continue;
            };
            let point = model.preprocessor.apply_point(&LabeledPoint::unlabeled(v));
            let actual = truth(r);
            let (predicted, cluster) = model.model.verdict_and_cluster(&point.features);
            confusion.record(actual, predicted);
            if let Some(ft) = r.index.five_tuple {
                if actual {
                    malicious_flows.insert(ft);
                } else {
                    benign_flows.insert(ft);
                }
            }
            if let Some(c) = cluster {
                if let Some(report) = clusters.get_mut(c) {
                    if actual {
                        report.malicious += 1;
                    } else {
                        report.benign += 1;
                    }
                    report.flagged_malicious = predicted;
                }
            }
        }
        ValidationSummary {
            confusion,
            benign_unique_flows: benign_flows.len() as u64,
            malicious_unique_flows: malicious_flows.len() as u64,
            model_info: model.model.describe(),
            clusters,
        }
    }

    /// Validates pre-extracted points whose labels are the ground truth
    /// (the large-scale path).
    pub fn validate_points(
        &self,
        points: &[LabeledPoint],
        model: &DetectionModel,
    ) -> ValidationSummary {
        let mut confusion = ConfusionMatrix::default();
        let k = model.model.cluster_count().unwrap_or(0);
        let mut clusters = vec![ClusterReport::default(); k];
        for (i, c) in clusters.iter_mut().enumerate() {
            c.cluster = i;
        }
        for p in points {
            let prepared = model.preprocessor.apply_point(p);
            let (predicted, cluster) = model.model.verdict_and_cluster(&prepared.features);
            confusion.record(p.is_malicious(), predicted);
            if let Some(c) = cluster {
                if let Some(report) = clusters.get_mut(c) {
                    if p.is_malicious() {
                        report.malicious += 1;
                    } else {
                        report.benign += 1;
                    }
                    report.flagged_malicious = predicted;
                }
            }
        }
        ValidationSummary {
            confusion,
            benign_unique_flows: 0,
            malicious_unique_flows: 0,
            model_info: model.model.describe(),
            clusters,
        }
    }

    /// Distributed validation: partitions the points over the compute
    /// cluster, validates per-partition, merges the partial summaries,
    /// and reports the job's virtual completion time (the quantity
    /// Figure 10 sweeps over cluster sizes).
    pub fn validate_points_distributed(
        &self,
        points: Vec<LabeledPoint>,
        model: &DetectionModel,
    ) -> (ValidationSummary, SimDuration) {
        let before = self.compute.total_virtual_time();
        let k = model.model.cluster_count().unwrap_or(0);
        let ds = self.compute.parallelize(points, self.partitions);
        let model_for_job = model.clone();
        let partials = ds.map_partitions(move |part| {
            let mut confusion = ConfusionMatrix::default();
            let mut cluster_counts = vec![(0u64, 0u64, false); k];
            for p in part {
                let prepared = model_for_job.preprocessor.apply_point(p);
                let (predicted, cluster) =
                    model_for_job.model.verdict_and_cluster(&prepared.features);
                confusion.record(p.is_malicious(), predicted);
                if let Some(c) = cluster {
                    if let Some(slot) = cluster_counts.get_mut(c) {
                        if p.is_malicious() {
                            slot.1 += 1;
                        } else {
                            slot.0 += 1;
                        }
                        slot.2 = predicted;
                    }
                }
            }
            vec![(confusion, cluster_counts)]
        });
        let mut confusion = ConfusionMatrix::default();
        let mut clusters = vec![ClusterReport::default(); k];
        for (i, c) in clusters.iter_mut().enumerate() {
            c.cluster = i;
        }
        for (partial, counts) in partials.collect() {
            confusion.merge(&partial);
            for (report, (b, m, flagged)) in clusters.iter_mut().zip(counts) {
                report.benign += b;
                report.malicious += m;
                report.flagged_malicious |= flagged;
            }
        }
        let elapsed = self.compute.total_virtual_time() - before;
        (
            ValidationSummary {
                confusion,
                benign_unique_flows: 0,
                malicious_unique_flows: 0,
                model_info: model.model.describe(),
                clusters,
            },
            elapsed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::format::FeatureIndex;
    use athena_types::{Dpid, Ipv4Addr};

    fn records(n: usize) -> Vec<FeatureRecord> {
        // Benign records: low packet counts and pair flows; malicious:
        // high counts, no pair.
        let mut out = Vec::new();
        for i in 0..n {
            let benign = i % 2 == 0;
            let ft = FiveTuple::tcp(
                Ipv4Addr::new(10, 0, 0, (i % 250) as u8),
                1000 + i as u16,
                Ipv4Addr::new(10, 0, 9, 9),
                80,
            );
            let mut r = FeatureRecord::new(FeatureIndex::flow(Dpid::new(1), ft));
            r.meta.message_type = "FLOW_STATS".into();
            if benign {
                r.push_field("FLOW_PACKET_COUNT", 10.0 + (i % 5) as f64);
                r.push_field("PAIR_FLOW", 1.0);
            } else {
                r.push_field("FLOW_PACKET_COUNT", 500.0 + (i % 50) as f64);
                r.push_field("PAIR_FLOW", 0.0);
            }
            out.push(r);
        }
        out
    }

    fn truth(r: &FeatureRecord) -> bool {
        r.field("FLOW_PACKET_COUNT").unwrap_or(0.0) > 100.0
    }

    fn features() -> Vec<String> {
        vec!["FLOW_PACKET_COUNT".into(), "PAIR_FLOW".into()]
    }

    fn manager() -> DetectorManager {
        DetectorManager::new(ComputeCluster::new(3))
    }

    #[test]
    fn kmeans_model_detects_the_separable_records() {
        let dm = manager();
        let rs = records(200);
        let model = dm
            .generate_detection_model(
                &rs,
                &features(),
                truth,
                &Preprocessor::new().normalize(athena_ml::Normalization::MinMax),
                &Algorithm::kmeans(2),
            )
            .unwrap();
        assert_eq!(model.trained_on, 200);
        let summary = dm.validate_features(&rs, truth, &model);
        assert!(summary.confusion.detection_rate() > 0.95);
        assert!(summary.confusion.false_alarm_rate() < 0.05);
        assert_eq!(summary.total_entries(), 200);
        assert_eq!(summary.clusters.len(), 2);
        // Unique flows were tracked from the record indexes.
        assert!(summary.benign_unique_flows > 0);
        assert!(summary.malicious_unique_flows > 0);
    }

    #[test]
    fn small_datasets_train_single_node() {
        let dm = manager();
        let before = dm.compute().job_count();
        let rs = records(100);
        dm.generate_detection_model(
            &rs,
            &features(),
            truth,
            &Preprocessor::new(),
            &Algorithm::logistic_regression(),
        )
        .unwrap();
        // Below the threshold: no cluster jobs ran.
        assert_eq!(dm.compute().job_count(), before);
    }

    #[test]
    fn large_datasets_go_to_the_cluster() {
        let mut dm = manager();
        dm.distributed_threshold = 50;
        let rs = records(200);
        dm.generate_detection_model(
            &rs,
            &features(),
            truth,
            &Preprocessor::new(),
            &Algorithm::kmeans(2),
        )
        .unwrap();
        assert!(dm.compute().job_count() > 0);
    }

    #[test]
    fn distributed_validation_matches_serial() {
        let dm = manager();
        let rs = records(300);
        let model = dm
            .generate_detection_model(
                &rs,
                &features(),
                truth,
                &Preprocessor::new(),
                &Algorithm::decision_tree(),
            )
            .unwrap();
        let points = FeatureManager::to_labeled_points(&rs, &features(), truth);
        let serial = dm.validate_points(&points, &model);
        let (dist, elapsed) = dm.validate_points_distributed(points, &model);
        assert_eq!(serial.confusion, dist.confusion);
        assert!(elapsed.as_micros() > 0);
    }

    #[test]
    fn model_scores_records_directly() {
        let dm = manager();
        let rs = records(100);
        let model = dm
            .generate_detection_model(
                &rs,
                &features(),
                truth,
                &Preprocessor::new(),
                &Algorithm::threshold(0, 100.0),
            )
            .unwrap();
        assert_eq!(model.is_malicious(&rs[1]), Some(true)); // odd = malicious
        assert_eq!(model.is_malicious(&rs[0]), Some(false));
        // Records without the features are not scored.
        let empty = FeatureRecord::new(FeatureIndex::switch(Dpid::new(1)));
        assert_eq!(model.is_malicious(&empty), None);
    }

    #[test]
    fn telemetry_times_model_training() {
        let tel = Telemetry::new();
        let dm = DetectorManager::with_telemetry(ComputeCluster::new(3), &tel);
        let rs = records(100);
        dm.generate_detection_model(
            &rs,
            &features(),
            truth,
            &Preprocessor::new(),
            &Algorithm::kmeans(2),
        )
        .unwrap();
        let m = tel.metrics();
        assert_eq!(m.counter("core", "models_trained").get(), 1);
        assert_eq!(m.histogram("core", "fit_ns").snapshot().count, 1);
    }

    #[test]
    fn empty_training_set_is_an_error() {
        let dm = manager();
        let err = dm.generate_detection_model(
            &[],
            &features(),
            truth,
            &Preprocessor::new(),
            &Algorithm::kmeans(2),
        );
        assert!(err.is_err());
    }
}
