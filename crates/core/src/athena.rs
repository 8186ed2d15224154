//! The Athena facade: the framework's assembly point and the core
//! northbound API of the paper's Table II.

use crate::feature::format::FeatureRecord;
use crate::nb::detector_manager::{DetectionModel, DetectorManager};
use crate::nb::feature_manager::{EventHandler, FeatureManager};
use crate::nb::query::{Predicate, Query};
use crate::nb::reaction_manager::Reaction;
use crate::nb::resource_manager::ResourceManager;
use crate::nb::ui::{Series, UiManager};
use crate::sb::detector::{AlertHandler, AttackDetector};
use crate::sb::interface::AthenaSouthbound;
use crate::sb::reactor::AttackReactor;
use athena_compute::ComputeCluster;
use athena_controller::ControllerCluster;
use athena_ml::{Algorithm, Preprocessor, ValidationSummary};
use athena_observe::Observe;
use athena_store::StoreCluster;
use athena_telemetry::Telemetry;
use athena_types::sentinel::TrackedMutex;
use athena_types::{ControllerId, Dpid, Result, SimDuration};
use std::sync::Arc;

/// Deployment configuration for an Athena instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AthenaConfig {
    /// Nodes in the distributed feature store (the paper uses 3 DB
    /// nodes).
    pub store_nodes: usize,
    /// Store replication factor.
    pub store_replication: usize,
    /// Worker nodes in the compute cluster (the paper scales 1–6).
    pub compute_workers: usize,
    /// Athena's statistics-poll period.
    pub poll_interval: SimDuration,
    /// Timeout/backoff policy for Athena's marked statistics polls: a
    /// poll whose reply is lost to a faulty southbound channel is
    /// re-issued with bounded exponential backoff.
    pub poll_retry: athena_controller::RetryPolicy,
    /// Whether features are published to the store (Table IX's "no DB"
    /// configuration sets this to `false`).
    pub store_enabled: bool,
}

impl Default for AthenaConfig {
    fn default() -> Self {
        AthenaConfig {
            store_nodes: 3,
            store_replication: 2,
            compute_workers: 6,
            poll_interval: SimDuration::from_secs(5),
            poll_retry: athena_controller::RetryPolicy::default(),
            store_enabled: true,
        }
    }
}

/// State shared between the NB facade and every SB instance.
pub struct AthenaRuntime {
    /// The distributed feature store.
    pub store: StoreCluster,
    /// The feature manager (store access + event-delivery table).
    pub feature_manager: TrackedMutex<FeatureManager>,
    /// The live-mode attack detector.
    pub detector: TrackedMutex<AttackDetector>,
    /// The attack reactor (mitigation queue).
    pub reactor: TrackedMutex<AttackReactor>,
    /// The resource manager (monitoring fidelity).
    pub resource: TrackedMutex<ResourceManager>,
    /// Retry policy for Athena's marked statistics polls.
    pub poll_retry: athena_controller::RetryPolicy,
    /// The deployment's telemetry domain (disabled unless the instance
    /// was built with [`Athena::with_telemetry`]).
    pub telemetry: Telemetry,
    /// The deployment's observe pipeline (disabled unless the instance
    /// was built with [`Athena::with_observe`]).
    pub observe: Observe,
}

/// The Athena framework instance.
///
/// One `Athena` spans the whole deployment: it attaches one southbound
/// element per controller instance and exports the northbound API. See
/// the [crate documentation](crate) for an end-to-end example.
pub struct Athena {
    runtime: Arc<AthenaRuntime>,
    detector_manager: DetectorManager,
    ui: UiManager,
}

impl Athena {
    /// Builds an Athena deployment: store cluster, compute cluster, and
    /// the shared managers. Telemetry is present but disabled; use
    /// [`Athena::with_telemetry`] to observe the deployment.
    pub fn new(config: AthenaConfig) -> Self {
        Self::with_telemetry(config, Telemetry::off())
    }

    /// Builds an Athena deployment reporting into `tel`: the store and
    /// compute clusters and the feature pipeline all record their metrics
    /// and traces there.
    pub fn with_telemetry(config: AthenaConfig, tel: Telemetry) -> Self {
        Self::with_observe(config, tel, Observe::disabled())
    }

    /// Builds an Athena deployment reporting into `tel` and recording
    /// causal spans (store quorum writes, compute jobs, feature
    /// generation, verdicts) into `obs`.
    pub fn with_observe(config: AthenaConfig, tel: Telemetry, obs: Observe) -> Self {
        let store = StoreCluster::new(config.store_nodes, config.store_replication);
        store.bind_telemetry(&tel);
        store.bind_observe(&obs);
        let mut feature_manager = FeatureManager::new(&store);
        feature_manager.set_store_enabled(config.store_enabled);
        let mut resource = ResourceManager::new();
        resource.poll_interval = config.poll_interval;
        let runtime = Arc::new(AthenaRuntime {
            store,
            feature_manager: TrackedMutex::new("core/feature_manager", feature_manager),
            detector: TrackedMutex::new("core/detector", AttackDetector::new()),
            reactor: TrackedMutex::new("core/reactor", AttackReactor::new()),
            resource: TrackedMutex::new("core/resource", resource),
            poll_retry: config.poll_retry,
            telemetry: tel.clone(),
            observe: obs.clone(),
        });
        let compute = ComputeCluster::new(config.compute_workers);
        compute.bind_telemetry(&tel);
        compute.bind_observe(&obs);
        Athena {
            runtime,
            detector_manager: DetectorManager::with_telemetry(compute, &tel),
            ui: UiManager::new(),
        }
    }

    /// The deployment's telemetry domain.
    pub fn telemetry(&self) -> &Telemetry {
        &self.runtime.telemetry
    }

    /// Attaches one Athena SB element per controller instance — the
    /// "integration without modification" step: only interceptors are
    /// registered; the SDN stack itself is untouched. The deployment's
    /// telemetry handle is also bound to the cluster, so controller-side
    /// counters land in the same report (a no-op when telemetry is off).
    pub fn attach(&self, cluster: &mut ControllerCluster) {
        if self.runtime.telemetry.is_enabled() {
            cluster.bind_telemetry(&self.runtime.telemetry);
        }
        if self.runtime.observe.is_enabled() {
            cluster.bind_observe(&self.runtime.observe);
        }
        for c in 0..cluster.instance_count() {
            cluster.add_interceptor(Box::new(self.southbound(ControllerId::new(c as u32))));
        }
    }

    /// Creates the SB element for one controller instance (used directly
    /// when instances are managed by hand).
    pub fn southbound(&self, controller: ControllerId) -> AthenaSouthbound {
        AthenaSouthbound::new(controller, Arc::clone(&self.runtime))
    }

    /// The shared runtime (store, managers).
    pub fn runtime(&self) -> &Arc<AthenaRuntime> {
        &self.runtime
    }

    /// The detector manager (batch training/validation).
    pub fn detector_manager(&self) -> &DetectorManager {
        &self.detector_manager
    }

    /// Replaces the compute cluster (the Figure 10 sweep re-runs with
    /// 1–6 workers). The new cluster inherits the deployment's telemetry
    /// binding.
    pub fn set_compute_workers(&mut self, workers: usize) {
        let compute = ComputeCluster::new(workers);
        compute.bind_telemetry(&self.runtime.telemetry);
        compute.bind_observe(&self.runtime.observe);
        self.detector_manager = DetectorManager::with_telemetry(compute, &self.runtime.telemetry);
    }

    // ------------------------------------------------------------------
    // The eight core NB APIs (Table II).
    // ------------------------------------------------------------------

    /// `RequestFeatures(q)`: retrieves stored Athena features under
    /// user-defined constraints.
    pub fn request_features(&self, q: &Query) -> Vec<FeatureRecord> {
        self.runtime.feature_manager.lock().request_features(q)
    }

    /// `ManageMonitor(q, o)`: turns monitoring on/off. A query naming
    /// `switch==X` toggles that switch; `feature==KIND` toggles a feature
    /// kind; an empty query toggles everything.
    pub fn manage_monitor(&self, q: &Query, on: bool) {
        let mut resource = self.runtime.resource.lock();
        let mut toggled_specific = false;
        let mut visit = |p: &Predicate| {
            if let Predicate::Cmp { field, value, .. } = p {
                match field.as_str() {
                    "switch" => {
                        if let Some(d) = value.as_i64() {
                            resource.set_switch_enabled(Dpid::new(d as u64), on);
                            toggled_specific = true;
                        }
                    }
                    "message_type" => {
                        if let Some(kind) = value.as_str() {
                            resource.set_kind_enabled(kind, on);
                            toggled_specific = true;
                        }
                    }
                    _ => {}
                }
            }
        };
        match &q.predicate {
            Some(Predicate::And(ps)) | Some(Predicate::Or(ps)) => {
                for p in ps {
                    visit(p);
                }
            }
            Some(p) => visit(p),
            None => {}
        }
        if !toggled_specific {
            resource.monitoring_enabled = on;
        }
    }

    /// `GenerateDetectionModel(q, f, a)`: fetches the training features,
    /// applies the preprocessor, and fits the algorithm — distributing
    /// the job to the compute cluster for large datasets.
    ///
    /// `truth` labels training entries (the ground truth behind the
    /// *Marking* step; the paper's operators mark known-malicious entries
    /// the same way).
    ///
    /// # Errors
    ///
    /// Returns [`athena_types::AthenaError::Ml`] when the query selects no
    /// usable records or fitting fails.
    pub fn generate_detection_model(
        &self,
        q: &Query,
        f: &Preprocessor,
        a: &Algorithm,
        truth: impl Fn(&FeatureRecord) -> bool,
    ) -> Result<DetectionModel> {
        // Fetch without the projection: the query's feature list selects
        // the *model's* inputs, but auxiliary fields (ground truth, phase
        // tags) must stay visible to the labeling closure.
        let mut fetch = q.clone();
        fetch.features.clear();
        let records = self.request_features(&fetch);
        let features: Vec<String> = if q.features.is_empty() {
            crate::feature::catalog::DDOS_10_TUPLE
                .iter()
                .map(|f| f.name().to_owned())
                .collect()
        } else {
            q.features.clone()
        };
        self.detector_manager
            .generate_detection_model(&records, &features, truth, f, a)
    }

    /// `ValidateFeatures(q, f, m)`: validates the selected features with a
    /// generated model, producing the Figure 6 summary. (The fitted
    /// preprocessor travels inside the model in this implementation.)
    pub fn validate_features(
        &self,
        q: &Query,
        m: &DetectionModel,
        truth: impl Fn(&FeatureRecord) -> bool,
    ) -> ValidationSummary {
        let mut fetch = q.clone();
        fetch.features.clear();
        let records = self.request_features(&fetch);
        self.detector_manager.validate_features(&records, truth, m)
    }

    /// `AddEventHandler(q)`: registers a handler receiving live features
    /// matching the query. Returns the registration index.
    pub fn add_event_handler(&self, q: &Query, handler: EventHandler) -> usize {
        self.runtime
            .feature_manager
            .lock()
            .register_handler(q, handler)
    }

    /// `AddOnlineValidator(f, m, e)`: registers a live validator scoring
    /// matching features with a model; malicious verdicts invoke the
    /// alert handler, whose returned reactions flow to the Attack
    /// Reactor.
    pub fn add_online_validator(
        &self,
        name: impl Into<String>,
        q: &Query,
        m: DetectionModel,
        on_alert: AlertHandler,
    ) -> usize {
        self.runtime
            .detector
            .lock()
            .add_validator(name, q, m, on_alert)
    }

    /// Hot-swaps the model behind online validator `index` atomically
    /// under the detector lock (see
    /// [`AttackDetector::swap_model`](crate::AttackDetector::swap_model));
    /// returns the displaced model.
    pub fn swap_online_model(&self, index: usize, m: DetectionModel) -> Option<DetectionModel> {
        self.runtime.detector.lock().swap_model(index, m)
    }

    /// `Reactor(q, r)`: enforces a mitigation on the data plane. The
    /// reaction's rules are issued through the SB proxy at the next
    /// southbound exchange.
    pub fn reactor(&self, r: Reaction) {
        self.runtime.reactor.lock().enqueue(r);
    }

    /// `ShowResults(r')`: renders a validation summary for the operator.
    pub fn show_results(&self, summary: &ValidationSummary) -> String {
        self.ui.render_summary(summary)
    }

    /// `ShowResults` for time series (the Figure 9 view).
    pub fn show_series(&self, title: &str, series: &[Series]) -> String {
        self.ui.render_series(title, series)
    }

    /// The UI manager, for custom rendering.
    pub fn ui(&self) -> &UiManager {
        &self.ui
    }

    // ------------------------------------------------------------------
    // Introspection used by applications and the evaluation harness.
    // ------------------------------------------------------------------

    /// Number of features stored.
    pub fn stored_feature_count(&self) -> usize {
        self.runtime
            .feature_manager
            .lock()
            .count_features(&Query::all())
    }

    /// Total alerts raised by online validators.
    pub fn total_alerts(&self) -> u64 {
        self.runtime.detector.lock().total_alerts()
    }

    /// Hosts mitigated by the Attack Reactor.
    pub fn mitigated_hosts(&self) -> Vec<athena_types::Ipv4Addr> {
        self.runtime.reactor.lock().mitigated_hosts()
    }
}

impl std::fmt::Debug for Athena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Athena")
            .field("stored_features", &self.stored_feature_count())
            .field("store_nodes", &self.runtime.store.node_count())
            .field(
                "compute_workers",
                &self.detector_manager.compute().workers(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use athena_dataplane::{workload, Network, Topology};
    use athena_types::SimTime;

    fn run_deployment(seconds: u64) -> (Athena, Network, ControllerCluster) {
        let topo = Topology::enterprise();
        let mut net = Network::new(topo.clone());
        let mut cluster = ControllerCluster::new(&topo);
        let athena = Athena::new(AthenaConfig::default());
        athena.attach(&mut cluster);
        net.inject_flows(workload::benign_mix_on(
            &topo,
            80,
            SimDuration::from_secs(seconds / 2),
            11,
        ));
        net.run_until(SimTime::from_secs(seconds), &mut cluster);
        (athena, net, cluster)
    }

    #[test]
    fn deployment_collects_features_from_all_controllers() {
        let (athena, _net, _cluster) = run_deployment(20);
        assert!(athena.stored_feature_count() > 100);
        // Features arrived from all three controller domains.
        let mut seen = std::collections::HashSet::new();
        for r in athena.request_features(&Query::all()) {
            seen.insert(r.meta.controller);
        }
        assert_eq!(seen.len(), 3, "{seen:?}");
    }

    #[test]
    fn athena_marked_polling_is_visible_in_features() {
        let (athena, _, _) = run_deployment(15);
        let records = athena.request_features(&Query::parse("feature==FLOW_STATS").unwrap());
        assert!(!records.is_empty());
        assert!(records.iter().any(|r| r.meta.athena_polled));
    }

    #[test]
    fn manage_monitor_toggles() {
        let (athena, _, _) = run_deployment(10);
        // Disable one switch.
        athena.manage_monitor(&Query::parse("switch==1").unwrap(), false);
        assert!(!athena
            .runtime()
            .resource
            .lock()
            .allows_polling(Dpid::new(1)));
        // Disable everything.
        athena.manage_monitor(&Query::all(), false);
        assert!(!athena.runtime().resource.lock().monitoring_enabled);
        // Re-enable.
        athena.manage_monitor(&Query::all(), true);
        assert!(athena.runtime().resource.lock().monitoring_enabled);
    }

    #[test]
    fn end_to_end_model_generation_and_validation() {
        let (athena, _, _) = run_deployment(25);
        let mut q = Query::parse("feature==FLOW_STATS").unwrap();
        q.features = vec![
            "FLOW_PACKET_COUNT".into(),
            "FLOW_BYTE_PER_PACKET".into(),
            "PAIR_FLOW".into(),
        ];
        // Arbitrary truth for the smoke test: big flows are "malicious".
        let truth = |r: &FeatureRecord| r.field("FLOW_BYTE_COUNT").unwrap_or(0.0) > 1e7;
        let model = athena
            .generate_detection_model(
                &q,
                &Preprocessor::new().normalize(athena_ml::Normalization::MinMax),
                &Algorithm::kmeans(4),
                truth,
            )
            .unwrap();
        let summary = athena.validate_features(&q, &model, truth);
        assert!(summary.total_entries() > 0);
        let rendered = athena.show_results(&summary);
        assert!(rendered.contains("Detection Rate"));
    }

    #[test]
    fn reactor_blocks_hosts_via_the_proxy() {
        let topo = Topology::enterprise();
        let mut net = Network::new(topo.clone());
        let mut cluster = ControllerCluster::new(&topo);
        let athena = Athena::new(AthenaConfig::default());
        athena.attach(&mut cluster);
        let victim_src = topo.hosts[0].ip;
        athena.reactor(Reaction::Block {
            targets: vec![victim_src],
        });
        // Traffic from the blocked host.
        net.inject_flows([athena_dataplane::FlowSpec::new(
            athena_types::FiveTuple::tcp(victim_src, 1, topo.hosts[20].ip, 80),
            SimTime::from_secs(2),
            SimDuration::from_secs(10),
            8_000_000,
        )]);
        net.run_until(SimTime::from_secs(15), &mut cluster);
        assert_eq!(athena.mitigated_hosts(), vec![victim_src]);
        // The drop rule kept the flow from delivering.
        assert_eq!(net.delivered_bytes(), 0);
        assert!(net.counters().dropped_bytes > 0);
    }
}
