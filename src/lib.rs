//! **Athena** — a Rust reproduction of *"Athena: A Framework for Scalable
//! Anomaly Detection in Software-Defined Networks"* (Lee, Kim, Shin,
//! Porras, Yegneswaran — DSN 2017).
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! | Module | Crate | Role |
//! |--------|-------|------|
//! | [`types`] | `athena-types` | ids, addresses, virtual time, errors |
//! | [`openflow`] | `athena-openflow` | OpenFlow 1.0/1.3 messages, codec, flow tables |
//! | [`dataplane`] | `athena-dataplane` | discrete-event SDN data-plane simulator |
//! | [`controller`] | `athena-controller` | distributed ONOS-like controller cluster |
//! | [`store`] | `athena-store` | sharded/replicated document store (MongoDB substitute) |
//! | [`compute`] | `athena-compute` | Spark-like compute cluster in virtual time |
//! | [`parallel`] | `athena-parallel` | deterministic ordered fan-out over scoped threads |
//! | [`ml`] | `athena-ml` | the 11 Athena ML algorithms + preprocessors + metrics |
//! | [`core`] | `athena-core` | **the framework**: features, SB/NB elements, the 8 NB APIs |
//! | [`apps`] | `athena-apps` | DDoS / LFA / NAE applications + Table VIII baselines |
//! | [`faults`] | `athena-faults` | seeded fault injection: fault plans, chaos channel, injector |
//! | [`persist`] | `athena-persist` | append-only WAL + checkpoints; crash recovery for store/models/controller |
//! | [`telemetry`] | `athena-telemetry` | metrics registry and metric names (off by default) |
//! | [`observe`] | `athena-observe` | causal traces, time-series sampling, SLO alert rules |
//! | [`workloads`] | `athena-workloads` | attack generators: base families + held-out mutants with ground truth |
//!
//! Start with the runnable examples:
//!
//! ```bash
//! cargo run --example quickstart
//! cargo run --example ddos_detector
//! cargo run --example lfa_mitigation
//! cargo run --example nae_monitor
//! ```
//!
//! # Examples
//!
//! The one-minute tour — simulate a network, attach Athena, query
//! features:
//!
//! ```
//! use athena::core::{Athena, AthenaConfig, Query};
//! use athena::controller::ControllerCluster;
//! use athena::dataplane::{workload, Network, Topology};
//! use athena::types::{SimDuration, SimTime};
//!
//! let topo = Topology::enterprise();
//! let mut net = Network::new(topo.clone());
//! let mut cluster = ControllerCluster::new(&topo);
//! let athena = Athena::new(AthenaConfig::default());
//! athena.attach(&mut cluster);
//!
//! net.inject_flows(workload::benign_mix_on(&topo, 40, SimDuration::from_secs(8), 1));
//! net.run_until(SimTime::from_secs(12), &mut cluster);
//!
//! let flows = athena.request_features(&Query::parse("feature==FLOW_STATS")?);
//! assert!(!flows.is_empty());
//! # Ok::<(), athena::types::AthenaError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
pub use athena_apps as apps;
pub use athena_compute as compute;
pub use athena_controller as controller;
pub use athena_core as core;
pub use athena_dataplane as dataplane;
pub use athena_faults as faults;
pub use athena_ml as ml;
pub use athena_observe as observe;
pub use athena_openflow as openflow;
pub use athena_parallel as parallel;
pub use athena_persist as persist;
pub use athena_store as store;
pub use athena_stream as stream;
pub use athena_telemetry as telemetry;
pub use athena_types as types;
pub use athena_workloads as workloads;
