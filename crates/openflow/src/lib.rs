//! A self-contained OpenFlow 1.0 / 1.3 implementation for the Athena stack.
//!
//! The Athena paper's prototype speaks OpenFlow 1.0 and 1.3 between ONOS and
//! the data plane. This crate provides the subset of the protocol the paper
//! exercises, built from scratch:
//!
//! - [`PacketHeader`] — the parsed header summary a switch reports
//!   ([`packet`] module),
//! - [`MatchFields`] — the 12-tuple match with wildcards and IP prefixes
//!   ([`match_fields`] module),
//! - [`Action`] — forwarding actions ([`action`] module),
//! - [`OfMessage`] and its payloads — `PacketIn`, `FlowMod`, `FlowRemoved`,
//!   statistics request/reply, and the session handshake ([`message`]),
//! - statistics bodies ([`stats`] module),
//! - a binary wire codec with version negotiation ([`codec`] module),
//! - [`FlowTable`] — priority-ordered matching with idle/hard timeout
//!   expiry and per-entry counters ([`table`] module).
//!
//! # Examples
//!
//! ```
//! use athena_openflow::{Action, FlowMod, FlowTable, MatchFields, PacketHeader};
//! use athena_types::{Ipv4Addr, PortNo, SimTime};
//!
//! let mut table = FlowTable::new(0);
//! let fm = FlowMod::add(
//!     MatchFields::new().with_ip_dst(Ipv4Addr::new(10, 0, 0, 2), 32),
//!     100,
//!     vec![Action::Output(PortNo::new(2))],
//! );
//! table.apply(&fm, SimTime::ZERO)?;
//!
//! let pkt = PacketHeader::tcp_syn(
//!     PortNo::new(1),
//!     Ipv4Addr::new(10, 0, 0, 1), 40000,
//!     Ipv4Addr::new(10, 0, 0, 2), 80,
//! );
//! let hit = table.lookup(&pkt, SimTime::ZERO, 1, 64);
//! assert!(hit.is_some());
//! # Ok::<(), athena_types::AthenaError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
pub mod action;
pub mod codec;
pub mod match_fields;
pub mod message;
pub mod packet;
pub mod stats;
pub mod table;

pub use action::Action;
pub use codec::{decode_message, encode_message, OfVersion};
pub use match_fields::MatchFields;
pub use message::{
    EchoData, FeaturesReply, FlowMod, FlowModCommand, FlowRemoved, FlowRemovedReason, OfMessage,
    PacketIn, PacketInReason, PacketOut, PortStatus, PortStatusReason, StatsRequest,
};
pub use packet::PacketHeader;
pub use stats::{AggregateStats, FlowStatsEntry, PortStatsEntry, StatsReply, TableStatsEntry};
pub use table::{FlowEntry, FlowTable};
