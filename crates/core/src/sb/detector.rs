//! The Attack Detector (paper §III-A 1C): live-mode detection.
//!
//! Online validators — registered through the NB's `AddOnlineValidator` —
//! examine each incoming feature record against a detection model and
//! raise reactions for the Attack Reactor. Batch-mode detection runs in
//! the Detector Manager; this component is the live path.

use crate::feature::format::{FeatureRecord, FieldReader};
use crate::nb::detector_manager::DetectionModel;
use crate::nb::query::Query;
use crate::nb::reaction_manager::Reaction;
use athena_store::Filter;

/// The verdict callback: inspects an alerting record and optionally
/// requests a mitigation.
pub type AlertHandler = Box<dyn FnMut(&FeatureRecord) -> Option<Reaction> + Send>;

struct OnlineValidator {
    filter: Filter,
    model: DetectionModel,
    /// Reads `model`'s inputs; rebuilt with each model swap.
    reader: FieldReader,
    on_alert: AlertHandler,
    examined: u64,
    alerts: u64,
}

/// Runs registered online validators over the live feature stream.
pub struct AttackDetector {
    validators: Vec<OnlineValidator>,
}

impl Default for AttackDetector {
    fn default() -> Self {
        Self::new()
    }
}

impl AttackDetector {
    /// Creates a detector with no validators.
    pub fn new() -> Self {
        AttackDetector {
            validators: Vec::new(),
        }
    }

    /// Registers an online validator: records matching `query` are scored
    /// with `model`; malicious verdicts invoke `on_alert`. Returns the
    /// validator's index. The name is the caller's label; the detector
    /// keeps none.
    pub fn add_validator(
        &mut self,
        _name: impl Into<String>,
        query: &Query,
        model: DetectionModel,
        on_alert: AlertHandler,
    ) -> usize {
        self.validators.push(OnlineValidator {
            filter: query.filter.clone(),
            reader: FieldReader::new(&model.features),
            model,
            on_alert,
            examined: 0,
            alerts: 0,
        });
        self.validators.len() - 1
    }

    /// Atomically replaces validator `index`'s model, returning the one
    /// it displaces. Callers hold the detector lock for the duration,
    /// so every record scores against exactly one model: the old one up
    /// to the swap instant, the new one after — the hot-swap primitive
    /// of the streaming retrain loop. Returns `None` (and drops the
    /// candidate) when `index` names no validator.
    pub fn swap_model(&mut self, index: usize, model: DetectionModel) -> Option<DetectionModel> {
        let v = self.validators.get_mut(index)?;
        v.reader = FieldReader::new(&model.features);
        Some(std::mem::replace(&mut v.model, model))
    }

    /// Number of registered validators.
    pub fn validator_count(&self) -> usize {
        self.validators.len()
    }

    /// Total alerts across validators.
    pub fn total_alerts(&self) -> u64 {
        self.validators.iter().map(|v| v.alerts).sum()
    }

    /// Examines one live record, returning any requested reactions.
    pub fn process(&mut self, record: &FeatureRecord) -> Vec<Reaction> {
        let mut reactions = Vec::new();
        for v in &mut self.validators {
            if !v.filter.matches(record.document()) {
                continue;
            }
            let Some(values) = v.reader.values(record) else {
                continue;
            };
            v.examined += 1;
            if v.model.is_malicious_values(values) {
                v.alerts += 1;
                if let Some(reaction) = (v.on_alert)(record) {
                    reactions.push(reaction);
                }
            }
        }
        reactions
    }
}

impl std::fmt::Debug for AttackDetector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AttackDetector")
            .field("validators", &self.validator_count())
            .field("alerts", &self.total_alerts())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::catalog::MessageType;
    use crate::feature::format::{FeatureIndex, MetaData};
    use athena_compute::ComputeCluster;
    use athena_ml::{Algorithm, Preprocessor};
    use athena_types::{Dpid, Ipv4Addr};

    fn threshold_model() -> DetectionModel {
        // Threshold on FLOW_PACKET_COUNT >= 100; no learning needed, but
        // build through the manager for a realistic DetectionModel.
        let dm = crate::nb::detector_manager::DetectorManager::new(ComputeCluster::new(1));
        let mut r = FeatureRecord::new(FeatureIndex::switch(Dpid::new(1)));
        r.push_field("FLOW_PACKET_COUNT", 1.0);
        dm.generate_detection_model(
            &[r],
            &["FLOW_PACKET_COUNT".into()],
            |_| false,
            &Preprocessor::new(),
            &Algorithm::threshold(0, 100.0),
        )
        .unwrap()
    }

    fn record(switch: u64, packets: f64) -> FeatureRecord {
        let mut r =
            FeatureRecord::new(FeatureIndex::switch(Dpid::new(switch))).with_meta(MetaData {
                message_type: MessageType::FLOW_STATS,
                ..MetaData::default()
            });
        r.push_field("FLOW_PACKET_COUNT", packets);
        r
    }

    #[test]
    fn validator_fires_on_malicious_records_only() {
        let mut det = AttackDetector::new();
        det.add_validator(
            "ddos",
            &Query::all(),
            threshold_model(),
            Box::new(|_| {
                Some(Reaction::Block {
                    targets: vec![Ipv4Addr::new(10, 0, 0, 1)],
                })
            }),
        );
        assert!(det.process(&record(1, 10.0)).is_empty());
        let reactions = det.process(&record(1, 500.0));
        assert_eq!(reactions.len(), 1);
        assert_eq!(det.total_alerts(), 1);
        assert_eq!(det.validators[0].examined, 2); // examined both
    }

    #[test]
    fn query_scopes_the_validator() {
        let mut det = AttackDetector::new();
        det.add_validator(
            "sw1-only",
            &Query::parse("switch==1").unwrap(),
            threshold_model(),
            Box::new(|_| None),
        );
        det.process(&record(2, 500.0)); // other switch: ignored
        assert_eq!(det.total_alerts(), 0);
        det.process(&record(1, 500.0));
        assert_eq!(det.total_alerts(), 1);
    }

    #[test]
    fn alert_handler_may_decline_to_react() {
        let mut det = AttackDetector::new();
        det.add_validator(
            "observer",
            &Query::all(),
            threshold_model(),
            Box::new(|_| None),
        );
        assert!(det.process(&record(1, 500.0)).is_empty());
        assert_eq!(det.total_alerts(), 1);
    }

    #[test]
    fn records_without_model_features_are_skipped() {
        let mut det = AttackDetector::new();
        det.add_validator("v", &Query::all(), threshold_model(), Box::new(|_| None));
        let empty = FeatureRecord::new(FeatureIndex::switch(Dpid::new(1)));
        det.process(&empty);
        assert_eq!(det.validators[0].examined, 0);
    }
}
