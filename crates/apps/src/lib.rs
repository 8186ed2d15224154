//! The Athena use-case applications of the paper's §V, plus the
//! non-Athena baseline implementations used by the usability comparison
//! (Table VIII).
//!
//! - [`DdosDetector`] — scenario 1: the large-scale DDoS attack detector
//!   (Application 1 pseudocode, Figure 6 output),
//! - [`LfaMitigator`] — scenario 2: link-flooding-attack detection and
//!   mitigation, the Spiffy comparison of Table VII,
//! - [`NaeMonitor`] — scenario 3: the Network Application Effectiveness
//!   monitor (Figures 8 and 9),
//! - [`ScanDetector`] — an extension demonstrating framework generality:
//!   the FRESCO-style port-scan detector the related work mentions, built
//!   purely from off-the-shelf features,
//! - [`sloc`] — the same DDoS detector written three ways (Athena NB API,
//!   raw compute-cluster "Spark style", and BSP "Hama style") for the
//!   source-lines-of-code comparison,
//! - [`dataset`] — the synthetic labeled DDoS dataset generator shared by
//!   the Figure 6 / Figure 10 / Table VIII experiments.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
pub mod dataset;
pub mod ddos;
pub mod lfa;
pub mod nae;
pub mod scan;
pub mod sloc;

pub use dataset::DdosDataset;
pub use ddos::{DdosDetector, DdosDetectorConfig};
pub use lfa::LfaMitigator;
pub use nae::{NaeMonitor, SlaViolation};
pub use scan::ScanDetector;
