//! **Athena** — a framework for scalable anomaly detection in
//! software-defined networks (Lee et al., DSN 2017), reproduced in Rust.
//!
//! Athena layers an anomaly-detection development framework over a
//! distributed SDN stack: each controller instance hosts an Athena
//! *southbound element* that taps the OpenFlow control-message stream,
//! generates network features, and publishes them to a distributed
//! database; the *northbound element* exports the eight core APIs of the
//! paper's Table II, from which operators compose detectors with minimal
//! code.
//!
//! # Crate layout
//!
//! - [`feature`] — the feature format of the paper's Figure 4
//!   ([`FeatureRecord`]), the catalog of 100+ features across the
//!   categories of Table I ([`feature::catalog`]), and the
//!   [`FeatureGenerator`] with its variation tables, pair-flow state, and
//!   garbage collector,
//! - [`sb`] — the southbound element: the controller interceptor
//!   ([`AthenaSouthbound`]), the [`AttackDetector`] (online validators),
//!   and the [`AttackReactor`] (Block/Quarantine via the proxy),
//! - [`nb`] — the northbound element: the [`Query`] language, the
//!   [`FeatureManager`] with its event-delivery table, the
//!   [`DetectorManager`] (single-node vs. cluster dispatch), the
//!   [`ReactionManager`], [`ResourceManager`], and [`UiManager`],
//! - [`Athena`] — the facade exporting the core NB API:
//!   `request_features`, `manage_monitor`, `generate_detection_model`,
//!   `validate_features`, `add_event_handler`, `add_online_validator`,
//!   `reactor`, `show_results`.
//!
//! # Examples
//!
//! Deploying Athena over a simulated three-controller SDN and training a
//! detection model:
//!
//! ```
//! use athena_core::{Athena, AthenaConfig, Query};
//! use athena_controller::ControllerCluster;
//! use athena_dataplane::{workload, Network, Topology};
//! use athena_ml::{Algorithm, Preprocessor};
//! use athena_types::{SimDuration, SimTime};
//!
//! // 1. Stand up the SDN stack with Athena attached.
//! let topo = Topology::enterprise();
//! let mut net = Network::new(topo.clone());
//! let mut cluster = ControllerCluster::new(&topo);
//! let athena = Athena::new(AthenaConfig::default());
//! athena.attach(&mut cluster);
//!
//! // 2. Drive traffic.
//! net.inject_flows(workload::benign_mix_on(&topo, 60, SimDuration::from_secs(10), 1));
//! net.run_until(SimTime::from_secs(15), &mut cluster);
//!
//! // 3. Query collected features and train a model.
//! let q = Query::parse("feature==FLOW_STATS")?;
//! let records = athena.request_features(&q);
//! assert!(!records.is_empty());
//! # Ok::<(), athena_types::AthenaError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
pub mod athena;
pub mod feature;
pub mod nb;
pub mod sb;

pub use athena::{Athena, AthenaConfig};
pub use feature::catalog::{self, FeatureCategory, FeatureId, FieldName, MessageType};
pub use feature::format::{FeatureIndex, FeatureRecord, MetaData};
pub use feature::generator::FeatureGenerator;
pub use feature::window::{Boundaries, Windowing};
pub use nb::detector_manager::{DetectionModel, DetectorManager};
pub use nb::feature_manager::FeatureManager;
pub use nb::query::{Query, QueryBuilder};
pub use nb::reaction_manager::{Reaction, ReactionManager};
pub use nb::resource_manager::ResourceManager;
pub use nb::ui::UiManager;
pub use sb::detector::{AlertHandler, AttackDetector};
pub use sb::interface::AthenaSouthbound;
pub use sb::reactor::AttackReactor;
