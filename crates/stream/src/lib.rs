//! athena-stream: the online learning pipeline (DESIGN.md §13).
//!
//! Turns Athena's batch train-then-test loop into *continuous*
//! detection, the operating point the paper pitches and RapidLearn's
//! learn→deploy→relearn loop argues for:
//!
//! - [`window`] — ring-buffer sliding feature windows with O(1)
//!   add/evict aggregate updates, provably equal to a full batch
//!   recompute (the proptest gate), computing rates with the Feature
//!   Generator's own [`athena_core::Windowing`], so stream and batch
//!   share one windowing definition.
//! - [`online`] — cheap incremental learners (sequential k-means,
//!   streaming quantile/threshold, incremental naive Bayes) behind the
//!   [`OnlineModel`] trait, with deterministic `partial_fit`/`predict`
//!   and a `freeze` step that lowers them onto the batch
//!   [`athena_ml::TrainedModel`] representation.
//! - [`manager`] — the [`RetrainLoop`]: accumulates labeled live
//!   traffic in a bounded window, periodically fits a candidate model,
//!   round-trips it through the persist snapshot format
//!   ([`DetectionModel::save_to`](athena_core::DetectionModel::save_to)
//!   /`load_from`), and hot-swaps it atomically into the running
//!   [`AttackDetector`](athena_core::AttackDetector) — the old model
//!   serves every record until the swap instant, bounding the
//!   detection gap.
//!
//! Every `stream/*` metric is declared in `athena_telemetry::names`;
//! the `e2e_stream.rs` gate asserts continuity (miss window ≤ 15
//! virtual seconds) under live attack while the model retrains, with
//! byte-identical verdicts across reruns and `ATHENA_THREADS`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(rust_2018_idioms)]

pub mod manager;
pub mod online;
pub mod window;

pub use manager::{RetrainLoop, RetrainPolicy, RetrainReport, StreamConfig};
pub use online::{
    IncrementalNaiveBayes, OnlineModel, OnlineSpec, SequentialKMeans, StreamingQuantile,
};
pub use window::{RingWindow, WindowAggregate};
