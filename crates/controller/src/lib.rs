//! A distributed SDN controller cluster (ONOS substitute).
//!
//! The Athena paper integrates into ONOS: a cluster of controller
//! instances, each mastering a subset of the data plane, with core
//! subsystems (device/host/flow-rule/packet services) and network
//! applications layered on top. This crate rebuilds the parts the paper
//! relies on:
//!
//! - [`ControllerCluster`] — N instances with switch mastership, wired to
//!   the simulator through [`athena_dataplane::ControllerLink`]
//!   ([`cluster`] module),
//! - core services — host location, flow-rule bookkeeping with
//!   per-application attribution, mastership ([`services`] module),
//! - a packet-processing chain with priorities, like ONOS's
//!   `PacketProcessor` ([`packet`] module),
//! - built-in applications — reactive shortest-path forwarding, the
//!   load balancer and the FTP-inspecting security app used by the NAE
//!   scenario ([`apps`] module),
//! - the statistics-poll tracker ONOS's poller (unmarked transaction
//!   ids) and Athena's southbound (marked ones) share ([`stats`] module),
//! - the [`MessageInterceptor`] seam Athena's southbound element hooks
//!   into (the paper's `OpenFlowController` modification) and the proxy
//!   path for the Attack Reactor ([`interceptor`] module),
//! - a Cbench-style throughput harness ([`cbench`] module) for the
//!   paper's Table IX,
//! - durable journaling of mastership transitions and flow-rule state,
//!   with checkpoint + WAL-tail recovery on restart ([`persist`] module).
//!
//! # Examples
//!
//! ```
//! use athena_controller::ControllerCluster;
//! use athena_dataplane::{workload, Network, Topology};
//! use athena_types::{SimDuration, SimTime};
//!
//! let topo = Topology::enterprise();
//! let mut net = Network::new(topo.clone());
//! let mut cluster = ControllerCluster::new(&topo);
//! net.inject_flows(workload::benign_mix_on(&topo, 50, SimDuration::from_secs(10), 1));
//! net.run_until(SimTime::from_secs(12), &mut cluster);
//! assert!(net.delivered_bytes() > 0);
//! assert_eq!(cluster.instance_count(), 3);
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
pub mod apps;
pub mod cbench;
pub mod cluster;
pub mod interceptor;
pub mod packet;
pub mod persist;
pub mod services;
pub mod stats;

pub use cluster::{ControllerCluster, FailoverCounters};
pub use interceptor::{InterceptCtx, MessageInterceptor};
pub use packet::{PacketContext, PacketProcessor};
pub use persist::ControllerRecoveryReport;
pub use services::{FlowRuleService, HostService, MastershipService, PathService};
pub use stats::{PollTelemetry, PollTracker, RetryCounters, StatsPoller};
