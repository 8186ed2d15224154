//! The Athena northbound element (paper §III-A 2): query language,
//! feature manager, detector manager, reaction manager, resource manager,
//! and UI manager.
//!
//! The utility names of the paper's Application 1 pseudocode are these
//! calls:
//!
//! | Pseudocode | Call |
//! |---|---|
//! | `GenerateQuery` | [`Query::parse`](query::Query::parse) / [`QueryBuilder`](query::QueryBuilder) |
//! | `GeneratePreprocessor` | [`Preprocessor::new`](athena_ml::Preprocessor::new) |
//! | `GenerateAlgorithm` | [`Algorithm`](athena_ml::Algorithm)`::*` |
//! | `f.addAll` | [`Query::features`](query::Query::features) |
//! | `ResultsGenerator` | [`ValidationSummary::record`](athena_ml::ValidationSummary::record) |

pub mod detector_manager;
pub mod feature_manager;
pub mod query;
pub mod reaction_manager;
pub mod resource_manager;
pub mod ui;
