//! A partitioned compute cluster with virtual-time scheduling.
//!
//! The Athena paper runs its machine-learning jobs on a Spark cluster of up
//! to six compute nodes and measures how total testing time falls as nodes
//! are added (Figure 10). This crate is the from-scratch substitute:
//!
//! - [`Dataset`] — a partitioned collection with Spark-like
//!   transformations (`map`, `filter`, `map_partitions`, `sample`) and
//!   actions (`fold`, `count`, `collect`) ([`dataset`] module),
//! - [`ComputeCluster`] — a cluster of N worker nodes ([`cluster`] module),
//! - [`VirtualScheduler`] — the timing model ([`scheduler`] module).
//!
//! # The virtual-time model
//!
//! The reproduction host has a single CPU core, so real threads cannot
//! demonstrate a 1→6-node speedup. Instead, every per-partition task runs
//! for real (results are exact) while its CPU cost is *measured*; the
//! scheduler then computes the job's virtual makespan: tasks are placed on
//! the least-loaded worker (longest-task-first), each task pays a
//! scheduling overhead, and the job pays a fixed driver overhead. This
//! reproduces the paper's shape — a linear decrease with a serial fraction,
//! so six nodes land near the paper's 27.6 % of single-node time rather
//! than an ideal 16.7 %.
//!
//! # Examples
//!
//! ```
//! use athena_compute::ComputeCluster;
//!
//! let cluster = ComputeCluster::new(4);
//! let data = cluster.parallelize((0..1000u64).collect::<Vec<_>>(), 16);
//! let sum = data.map(|x| x * 2).fold(0u64, |a, x| a + x, |a, b| a + b);
//! assert_eq!(sum, 999 * 1000);
//! assert!(cluster.total_virtual_time().as_micros() > 0);
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
pub mod cluster;
pub mod dataset;
pub mod scheduler;

pub use cluster::{ComputeCluster, JobMetrics};
pub use dataset::Dataset;
pub use scheduler::{SchedulerConfig, VirtualScheduler};
