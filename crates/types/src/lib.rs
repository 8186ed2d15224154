//! Common identifiers, addresses, virtual time, and error types shared by
//! every crate in the Athena workspace.
//!
//! The Athena framework (Lee et al., DSN 2017) spans a simulated SDN stack:
//! a data plane of OpenFlow switches, a distributed controller cluster, a
//! distributed document store, and a compute cluster. All of those layers
//! agree on the vocabulary defined here:
//!
//! - [`Dpid`], [`PortNo`], [`HostId`], [`LinkId`], [`ControllerId`],
//!   [`AppId`] — newtyped identifiers ([`id`] module),
//! - [`Ipv4Addr`], [`MacAddr`], [`IpProto`], [`EtherType`], [`FiveTuple`] —
//!   network addressing ([`net`] module),
//! - [`SimTime`], [`SimDuration`], [`VirtualClock`] — microsecond-resolution
//!   virtual time used by the discrete-event simulator ([`time`] module),
//! - [`AthenaError`] — the shared error type ([`error`] module).
//!
//! # Examples
//!
//! ```
//! use athena_types::{Dpid, Ipv4Addr, SimTime, SimDuration};
//!
//! let s1 = Dpid::new(1);
//! let host = Ipv4Addr::new(10, 0, 0, 1);
//! let t = SimTime::ZERO + SimDuration::from_secs(5);
//! assert_eq!(format!("{s1} {host}"), "of:0000000000000001 10.0.0.1");
//! assert_eq!(t.as_secs_f64(), 5.0);
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
pub mod env;
pub mod error;
pub mod hash;
pub mod id;
pub mod net;
pub mod sentinel;
pub mod time;

pub use env::{env_flag, env_usize};
pub use error::{AthenaError, Result};
pub use id::{AppId, ControllerId, Dpid, FlowId, HostId, LinkId, PortNo, Xid};
pub use net::{EtherType, FiveTuple, IpProto, Ipv4Addr, MacAddr};
pub use time::{SimDuration, SimTime, VirtualClock};
