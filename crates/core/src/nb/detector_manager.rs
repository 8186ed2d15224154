//! The Detector Manager (paper §III-A 2B).
//!
//! Offers the well-known ML algorithms behind one uniform interface,
//! auto-configures per-type details (labeling clusters from *Marking*
//! labels) and validates large-scale feature sets. Training runs in
//! process, whatever the training set's size: each algorithm has one fit,
//! [`Algorithm::fit`]. Validation can run as a job on the compute cluster
//! ([`DetectorManager::validate_points_distributed`]), the testing job
//! the paper's Figure 10 times.

use crate::feature::catalog::FieldName;
use crate::feature::format::{FeatureRecord, FieldReader};
use crate::nb::feature_manager::FeatureManager;
use athena_compute::ComputeCluster;
use athena_ml::{
    Algorithm, FittedPreprocessor, LabeledPoint, Model, Preprocessor, TrainedModel,
    ValidationSummary,
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
        Some(self.score_values(record.values(&self.features)?))
    }

    /// Classifies one record as malicious; `None` if not applicable.
    pub fn is_malicious(&self, record: &FeatureRecord) -> Option<bool> {
        Some(self.is_malicious_values(record.values(&self.features)?))
    }

    /// Classifies the model's raw inputs, read off a record in
    /// [`DetectionModel::features`] order (as a [`crate::FieldReader`]
    /// reads them), as malicious: what the online validators call.
    pub fn is_malicious_values(&self, values: Vec<f64>) -> bool {
        self.score_values(values) >= 0.5
    }

    /// The one scoring function, of [`DetectionModel::score`] and the
    /// online path alike: the fitted chain over the raw inputs, in place,
    /// then the model.
    fn score_values(&self, values: Vec<f64>) -> f64 {
        self.model.predict(&self.prepare(values))
    }

    /// Runs the fitted chain over raw inputs, in place.
    fn prepare(&self, values: Vec<f64>) -> Vec<f64> {
        self.preprocessor
            .apply_owned(LabeledPoint::unlabeled(values))
            .features
    }

    /// An empty validation tally with one report per cluster of the model.
    fn empty_summary(&self) -> ValidationSummary {
        ValidationSummary::with_clusters(self.model.cluster_count().unwrap_or(0))
    }

    /// Scores raw inputs and tallies the verdict against `actual`.
    fn tally(&self, summary: &mut ValidationSummary, values: Vec<f64>, actual: bool) {
        let (predicted, cluster) = self.model.verdict_and_cluster(&self.prepare(values));
        summary.record(actual, predicted, cluster);
    }

    /// The counts-only tally of points labeled with their ground truth:
    /// the per-point work of a validation job, Athena's and Figure 10's
    /// raw comparator alike.
    pub fn tally_points(&self, points: &[LabeledPoint]) -> ValidationSummary {
        let mut summary = self.empty_summary();
        for p in points {
            self.tally(&mut summary, p.features.clone(), p.is_malicious());
        }
        summary
    }
}

/// The detector manager: training in process, validation in process or
/// as a compute-cluster job.
#[derive(Debug, Clone)]
pub struct DetectorManager {
    compute: ComputeCluster,
    /// Partitions used for distributed validation jobs.
    pub partitions: usize,
    fit_ns: Histogram,
    models_trained: Counter,
}

impl DetectorManager {
    /// Creates a manager around a compute cluster.
    pub fn new(compute: ComputeCluster) -> Self {
        DetectorManager {
            compute,
            partitions: 24,
            fit_ns: Histogram::default(),
            models_trained: Counter::default(),
        }
    }

    /// Like [`DetectorManager::new`], but training latency and model
    /// counts flow into `tel` under the `core` subsystem.
    pub fn with_telemetry(compute: ComputeCluster, tel: &Telemetry) -> Self {
        use athena_telemetry::names::core;
        let (m, sub, manager) = (tel.metrics(), core::SUBSYSTEM, Self::new(compute));
        m.register_histogram(sub, core::FIT_NS, "", &manager.fit_ns);
        m.register_counter(sub, core::MODELS_TRAINED, &manager.models_trained);
        manager
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
        let (fitted, prepared) = preprocessor.fit_apply(points)?;
        let model = algorithm.fit_timed(&prepared, &self.fit_ns)?;
        self.models_trained.inc();
        Ok(DetectionModel {
            model,
            preprocessor: fitted,
            features: features.iter().map(FieldName::from).collect(),
            algorithm: algorithm.name().to_owned(),
            trained_on: prepared.len(),
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
        let mut summary = model.empty_summary();
        let mut benign_flows: HashSet<FiveTuple> = HashSet::new();
        let mut malicious_flows: HashSet<FiveTuple> = HashSet::new();
        let mut reader = FieldReader::new(&model.features);
        for r in records {
            let Some(v) = reader.values(r) else {
                continue;
            };
            let actual = truth(r);
            model.tally(&mut summary, v, actual);
            if let Some(ft) = r.index().five_tuple {
                if actual {
                    malicious_flows.insert(ft);
                } else {
                    benign_flows.insert(ft);
                }
            }
        }
        ValidationSummary {
            benign_unique_flows: benign_flows.len() as u64,
            malicious_unique_flows: malicious_flows.len() as u64,
            model_info: model.model.describe(),
            ..summary
        }
    }

    /// Validates pre-extracted points whose labels are the ground truth
    /// (the large-scale path).
    pub fn validate_points(
        &self,
        points: &[LabeledPoint],
        model: &DetectionModel,
    ) -> ValidationSummary {
        ValidationSummary {
            model_info: model.model.describe(),
            ..model.tally_points(points)
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
        let ds = self.compute.parallelize(points, self.partitions);
        let partials = ds.map_partitions(|part| vec![model.tally_points(part)]);
        let mut summary = model.empty_summary();
        for partial in partials.collect() {
            summary.merge(&partial);
        }
        summary.model_info = model.model.describe();
        let elapsed = self.compute.total_virtual_time() - before;
        (summary, elapsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::catalog::MessageType;
    use crate::feature::format::{FeatureIndex, MetaData};
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
            let mut r =
                FeatureRecord::new(FeatureIndex::flow(Dpid::new(1), ft)).with_meta(MetaData {
                    message_type: MessageType::FLOW_STATS,
                    ..MetaData::default()
                });
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
        assert_eq!(dm.compute().job_count(), before);

        // However large the training set, the fit is `Algorithm::fit` in
        // process: 50,000 points of two 2-d blobs, K-Means with all
        // five runs, and no cluster job.
        let points: Vec<LabeledPoint> = (0..50_000u32)
            .map(|i| {
                let base = if i % 2 == 0 { 0.0 } else { 4.0 };
                let jitter = |m: u32| f64::from(i.wrapping_mul(m) % 1_000) / 1_000.0;
                LabeledPoint::new(
                    vec![base + jitter(7_919), base + jitter(104_729)],
                    f64::from(i % 2),
                )
            })
            .collect();
        let algorithm = Algorithm::kmeans(2);
        assert!(matches!(&algorithm, Algorithm::KMeans(p) if p.runs == 5));
        let preprocessor = Preprocessor::new().normalize(athena_ml::Normalization::MinMax);
        let model = dm
            .generate_from_points(points.clone(), &features(), &preprocessor, &algorithm)
            .unwrap();
        assert_eq!(dm.compute().job_count(), before);
        assert_eq!(model.trained_on, 50_000);
        let (_, prepared) = preprocessor.fit_apply(points).unwrap();
        let oracle = algorithm.fit(&prepared).unwrap();
        assert_eq!(model.model, oracle);
        let (TrainedModel::KMeans { model: got, .. }, TrainedModel::KMeans { model: want, .. }) =
            (&model.model, &oracle)
        else {
            panic!("a K-Means fit yields a K-Means model");
        };
        assert_eq!(got.cost.to_bits(), want.cost.to_bits());
    }

    #[test]
    fn distributed_validation_matches_serial() {
        let dm = manager();
        let rs = records(300);
        let points = FeatureManager::to_labeled_points(&rs, &features(), truth);
        for (algorithm, clusters) in [(Algorithm::kmeans(4), 4), (Algorithm::decision_tree(), 0)] {
            let model = dm
                .generate_detection_model(
                    &rs,
                    &features(),
                    truth,
                    &Preprocessor::new().normalize(athena_ml::Normalization::MinMax),
                    &algorithm,
                )
                .unwrap();
            let serial = dm.validate_points(&points, &model);
            let (dist, elapsed) = dm.validate_points_distributed(points.clone(), &model);
            assert_eq!(serial.clusters.len(), clusters);
            assert_eq!(
                serial.clusters.iter().map(|c| c.total()).sum::<u64>(),
                if clusters > 0 { 300 } else { 0 }
            );
            assert_eq!(serial, dist, "{}", algorithm.name());
            assert!(elapsed.as_micros() > 0);
        }
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
