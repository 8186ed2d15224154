//! Scenario 1: the large-scale DDoS attack detector (paper §V-A).
//!
//! Follows the paper's Application 1 pseudocode: define the training
//! query, the preprocessor (normalization, weighting, marking), and the
//! algorithm; call `GenerateDetectionModel`; then validate a test query
//! with `ValidateFeatures` and show the Figure 6 summary.

use athena_core::nb::reaction_manager::Reaction;
use athena_core::FeatureRecord;
use athena_core::{Athena, DetectionModel, Query, QueryBuilder};
use athena_ml::{Algorithm, Normalization, Preprocessor, ValidationSummary};
use athena_types::{IpProto, Ipv4Addr, Result};

/// Configuration for the DDoS detector.
#[derive(Debug, Clone)]
pub struct DdosDetectorConfig {
    /// The protected service address (ground truth: UDP floods toward it
    /// are the attack).
    pub victim: Ipv4Addr,
    /// The detection algorithm (the paper deploys K-Means with K=8,
    /// 20 iterations, 5 runs).
    pub algorithm: Algorithm,
    /// Feature weights emphasizing the pair-flow features (the paper's
    /// `Weight for certain features`).
    pub weights: Vec<f64>,
}

impl Default for DdosDetectorConfig {
    fn default() -> Self {
        DdosDetectorConfig {
            victim: Ipv4Addr::new(10, 1, 0, 1),
            algorithm: Algorithm::kmeans(8),
            // Emphasize the unidirectionality features of Table V.
            weights: vec![2.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
        }
    }
}

/// The DDoS detection application.
#[derive(Debug, Clone)]
pub struct DdosDetector {
    /// The configuration.
    pub config: DdosDetectorConfig,
}

impl DdosDetector {
    /// Creates the detector for a victim service.
    pub fn new(config: DdosDetectorConfig) -> Self {
        DdosDetector { config }
    }

    /// The Table V candidate feature set (the 10-tuple of Table VI).
    pub fn features() -> Vec<String> {
        crate::dataset::FEATURES
            .iter()
            .map(|s| (*s).to_owned())
            .collect()
    }

    /// The training/testing query: flow-scoped features only.
    pub fn query(&self) -> Query {
        QueryBuilder::new().eq("message_type", "FLOW_STATS").build()
    }

    /// The preprocessor of the pseudocode: normalization plus weighting.
    pub fn preprocessor(&self) -> Preprocessor {
        Preprocessor::new()
            .normalize(Normalization::MinMax)
            .weight(self.config.weights.clone())
    }

    /// Ground truth ("Marking malicious entries"): UDP flows toward the
    /// victim are the attack — the harness constructed them, exactly as
    /// the paper's operators labeled their testbed attack flows.
    pub fn truth(&self) -> impl Fn(&FeatureRecord) -> bool + '_ {
        let victim = self.config.victim;
        move |r: &FeatureRecord| {
            r.index
                .five_tuple
                .is_some_and(|ft| ft.dst == victim && ft.proto == IpProto::Udp)
        }
    }

    /// Creates the detection model (the pseudocode's
    /// `GenerateDetectionModel(q_train, f, a)`).
    ///
    /// # Errors
    ///
    /// Propagates query/preprocessing/fitting failures.
    pub fn train(&self, athena: &Athena) -> Result<DetectionModel> {
        let mut q_train = self.query();
        q_train.features = Self::features();
        athena.generate_detection_model(
            &q_train,
            &self.preprocessor(),
            &self.config.algorithm,
            self.truth(),
        )
    }

    /// Validates the test features (the pseudocode's
    /// `ValidateFeatures(q_test, f, m)`), yielding the Figure 6 summary.
    pub fn test(&self, athena: &Athena, model: &DetectionModel) -> ValidationSummary {
        let mut q_test = self.query();
        q_test.features = Self::features();
        athena.validate_features(&q_test, model, self.truth())
    }

    /// Deploys live detection: an online validator that blocks alerting
    /// sources through the Attack Reactor.
    pub fn deploy_online(&self, athena: &Athena, model: DetectionModel) -> usize {
        athena.add_online_validator(
            "ddos-detector",
            &self.query(),
            model,
            Box::new(|record| {
                let src = record.index.five_tuple?.src;
                Some(Reaction::Block { targets: vec![src] })
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DdosDataset;
    use athena_compute::ComputeCluster;
    use athena_core::{AthenaConfig, DetectorManager};

    #[test]
    fn detector_reaches_the_papers_operating_point_on_synthetic_data() {
        // Offline check of the pipeline on the synthetic dataset (the
        // full in-network test lives in the integration suite).
        let data = DdosDataset::generate(20_000, 42);
        let dm = DetectorManager::new(ComputeCluster::new(2));
        let det = DdosDetector::new(DdosDetectorConfig::default());
        let model = dm
            .generate_from_points(
                data.points.clone(),
                &DdosDetector::features(),
                &det.preprocessor(),
                &det.config.algorithm,
            )
            .unwrap();
        let summary = dm.validate_points(&data.points, &model);
        let dr = summary.confusion.detection_rate();
        let far = summary.confusion.false_alarm_rate();
        assert!(dr > 0.97, "detection rate {dr}");
        assert!(far < 0.10, "false alarm rate {far}");
        // K-Means with K=8 produced per-cluster reports.
        assert_eq!(summary.clusters.len(), 8);
        assert!(summary.clusters.iter().any(|c| c.flagged_malicious));
    }

    #[test]
    fn query_and_preprocessor_shapes() {
        let det = DdosDetector::new(DdosDetectorConfig::default());
        assert_eq!(DdosDetector::features().len(), 10);
        assert_eq!(det.preprocessor().steps().len(), 2);
        let q = det.query();
        assert!(q
            .to_filter()
            .matches(&athena_store::doc! { "message_type" => "FLOW_STATS" }));
    }

    #[test]
    fn truth_marks_udp_to_victim_only() {
        let det = DdosDetector::new(DdosDetectorConfig::default());
        let truth = det.truth();
        let mk = |proto: IpProto, dst: Ipv4Addr| {
            let ft = athena_types::FiveTuple {
                src: Ipv4Addr::new(10, 0, 0, 2),
                dst,
                src_port: 1,
                dst_port: 2,
                proto,
            };
            FeatureRecord::new(athena_core::FeatureIndex::flow(
                athena_types::Dpid::new(1),
                ft,
            ))
        };
        assert!(truth(&mk(IpProto::Udp, det.config.victim)));
        assert!(!truth(&mk(IpProto::Tcp, det.config.victim)));
        assert!(!truth(&mk(IpProto::Udp, Ipv4Addr::new(10, 0, 0, 3))));
        // Non-flow records are never malicious.
        assert!(!truth(&FeatureRecord::default()));
    }

    #[test]
    fn works_with_logistic_regression_too() {
        let data = DdosDataset::generate(8_000, 11);
        let dm = DetectorManager::new(ComputeCluster::new(2));
        let det = DdosDetector::new(DdosDetectorConfig {
            algorithm: Algorithm::logistic_regression(),
            ..DdosDetectorConfig::default()
        });
        let model = dm
            .generate_from_points(
                data.points.clone(),
                &DdosDetector::features(),
                &det.preprocessor(),
                &det.config.algorithm,
            )
            .unwrap();
        let summary = dm.validate_points(&data.points, &model);
        assert!(summary.confusion.detection_rate() > 0.95);
    }

    #[test]
    fn online_deployment_registers_a_validator() {
        let athena = Athena::new(AthenaConfig::default());
        let data = DdosDataset::generate(2_000, 3);
        let det = DdosDetector::new(DdosDetectorConfig::default());
        let model = athena
            .detector_manager()
            .generate_from_points(
                data.points,
                &DdosDetector::features(),
                &det.preprocessor(),
                &Algorithm::kmeans(4),
            )
            .unwrap();
        det.deploy_online(&athena, model);
        assert_eq!(athena.runtime().detector.lock().validator_count(), 1);
    }
}
