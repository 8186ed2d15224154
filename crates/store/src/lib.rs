//! A distributed, sharded, replicated in-process document store.
//!
//! The Athena paper uses a MongoDB cluster as the feature database that all
//! Athena instances publish to and query from. This crate is the from-scratch
//! substitute: a schemaless document store with
//!
//! - JSON documents with generated ids ([`document`] module),
//! - a filter tree with MongoDB-like operators ([`filter`] module),
//! - find options (sort / skip / limit / projection) and an aggregation
//!   pipeline (match / group / sort / limit) ([`query`] module),
//! - ordered secondary indexes ([`index`] module),
//! - collections with CRUD + index maintenance ([`collection`] module),
//! - a cluster of nodes with hash sharding, primary/replica replication,
//!   a write journal, and operation metrics ([`cluster`] module).
//!
//! The write path performs *real* work (serialization for the journal,
//! index maintenance, replication fan-out) because the paper's Table IX
//! attributes Athena's throughput overhead primarily to DB operations —
//! the benchmark harness measures these same costs.
//!
//! # Examples
//!
//! ```
//! use athena_store::{doc, Filter, FindOptions, StoreCluster};
//!
//! let cluster = StoreCluster::new(3, 2);
//! let coll = cluster.collection("features");
//! coll.insert(doc! { "switch" => 1, "packet_count" => 100 })?;
//! coll.insert(doc! { "switch" => 2, "packet_count" => 900 })?;
//!
//! let hot = coll.find(
//!     &Filter::gt("packet_count", 500),
//!     &FindOptions::default(),
//! );
//! assert_eq!(hot.len(), 1);
//! # Ok::<(), athena_types::AthenaError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
pub mod cluster;
pub mod collection;
pub mod document;
pub mod filter;
pub mod index;
pub mod persist;
pub mod query;

pub use cluster::{ClusterMetrics, StoreCluster, StoreNode};
pub use collection::Collection;
pub use document::{DocId, Document, Fields, Key};
pub use filter::Filter;
pub use persist::StoreRecoveryReport;
pub use query::{Accumulator, AggStage, Aggregation, FindOptions, GroupSpec, SortOrder, SortSpec};
