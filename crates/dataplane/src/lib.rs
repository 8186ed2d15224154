//! A tick-driven, flow-level SDN data-plane simulator.
//!
//! The Athena paper evaluates on a physical testbed — 18 OpenFlow switches
//! (6 hardware, 12 OVS), 48 links, Mininet-emulated hosts — that this crate
//! replaces with a simulator exercising the same OpenFlow control-channel
//! code paths:
//!
//! - [`Topology`] — switches, links, hosts, with builders for the paper's
//!   topologies ([`topology`] module),
//! - [`SimSwitch`] — an OpenFlow switch: flow tables, ports, counters
//!   ([`switch`] module),
//! - [`FlowSpec`] — flow-level traffic ([`flow`] module),
//! - [`Engine`] — the one simulation loop: flow arrivals, per-tick counter
//!   crediting with link-capacity contention, timing-wheel flow-table
//!   expiry, and a control channel to whatever implements
//!   [`ControllerLink`], all over a [`ShardPlan`] ([`shard`] module),
//! - [`Network`] and [`ShardedNetwork`] — that engine under the two
//!   [punt disciplines](punt): misses resolved inline one packet at a
//!   time, or batched per routing round,
//! - [`ControllerLink`], [`NetworkConfig`], [`LearningControllerStub`] —
//!   the control channel's contract, the simulator's configuration and a
//!   reference ECMP shortest-path controller ([`network`] module),
//! - [`workload`] — benign mixes, DDoS floods, Crossfire-style link
//!   flooding, port scans and flash crowds.
//!
//! The simulation is flow-level: the first packet of each flow traverses
//! the network packet-by-packet (producing table-miss `PACKET_IN`s exactly
//! where a real switch would), and subsequent traffic is credited to flow
//! and port counters on a fixed tick, with per-link capacity contention.
//! Everything an anomaly detector observes — packet/byte/duration counters,
//! flow-removed events, port statistics — is therefore produced through the
//! same OpenFlow structures the paper's feature generator consumes.
//!
//! # Examples
//!
//! ```
//! use athena_dataplane::{ControllerLink, LearningControllerStub, Network, Topology};
//! use athena_dataplane::workload;
//! use athena_types::{SimDuration, SimTime};
//!
//! let topo = Topology::linear(3, 2);
//! let mut net = Network::new(topo);
//! let mut ctrl = LearningControllerStub::for_topology(net.topology().clone());
//! let flows = workload::benign_mix(&net.topology().host_ids(), 20, SimDuration::from_secs(10), 7);
//! net.inject_flows(flows);
//! net.run_until(SimTime::from_secs(12), &mut ctrl);
//! assert!(net.delivered_bytes() > 0);
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
pub mod flow;
pub mod link;
pub mod network;
pub mod punt;
pub mod shard;
pub mod switch;
pub mod topology;
pub mod wheel;
pub mod workload;

pub use flow::{ActiveFlow, FlowSpec};
pub use link::{LinkModel, SimLink};
pub use network::{
    ControllerLink, ExpiryMode, LearningControllerStub, NetworkConfig, NetworkCounters, TICK,
};
pub use punt::{Batched, Network, PuntDiscipline, ShardedNetwork, Synchronous};
pub use shard::{Engine, ShardPlan};
pub use switch::SimSwitch;
pub use topology::{HostSpec, LinkSpec, Routes, SwitchSpec, Topology};
pub use wheel::TimingWheel;
