//! The Athena machine-learning library (MLlib substitute).
//!
//! The Athena paper ships 11 machine-learning algorithms spanning five
//! categories (Table IV), executed on a Spark cluster. This crate
//! implements all of them from scratch. Each has one fit, over an
//! in-memory slice, which the Detector Manager runs in process;
//! distributed work is the validation job, in `athena-core`:
//!
//! | Category | Algorithms |
//! |----------|------------|
//! | Boosting | Gradient-Boosted Trees |
//! | Classification | Decision Tree, Logistic Regression, Naive Bayes, Random Forest, SVM |
//! | Clustering | Gaussian Mixture, K-Means |
//! | Regression | Lasso, Linear, Ridge |
//! | Simple | Threshold |
//!
//! The [`Algorithm`] enum is the configuration surface the paper's
//! Detector Manager exposes ("an operator does not have to consider the
//! characteristics of each ML type"): every algorithm is fitted with the
//! same call and yields a [`TrainedModel`] with a uniform
//! [`Model::predict`]. Preprocessors ([`preprocess`]) mirror the paper's
//! four (*weighting*, *sampling*, *normalization*, *marking*), and
//! [`metrics`] computes the exact report of the paper's Figure 6
//! (entries, detection rate, false-alarm rate, per-cluster composition).
//!
//! # Examples
//!
//! ```
//! use athena_ml::{Algorithm, LabeledPoint, Model};
//!
//! // Two well-separated blobs.
//! let mut data = Vec::new();
//! for i in 0..50 {
//!     let x = f64::from(i % 10) * 0.01;
//!     data.push(LabeledPoint::new(vec![x, x], 0.0));
//!     data.push(LabeledPoint::new(vec![5.0 + x, 5.0 + x], 1.0));
//! }
//! let model = Algorithm::kmeans(2).fit(&data)?;
//! let a = model.predict(&[0.0, 0.0]);
//! let b = model.predict(&[5.0, 5.0]);
//! assert_ne!(a, b);
//! # Ok::<(), athena_types::AthenaError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
pub mod algorithms;
pub mod data;
pub mod linalg;
pub mod metrics;
pub mod model;
pub mod preprocess;

pub use algorithms::forest::RandomForestModel;
pub use algorithms::gbt::GbtClassifier;
pub use algorithms::gmm::GaussianMixtureModel;
pub use algorithms::kmeans::KMeansModel;
pub use algorithms::linear::LinearModel;
pub use algorithms::logistic::LogisticModel;
pub use algorithms::naive_bayes::NaiveBayesModel;
pub use algorithms::svm::SvmModel;
pub use algorithms::threshold::ThresholdModel;
pub use algorithms::tree::DecisionTreeModel;
pub use data::LabeledPoint;
pub use linalg::DenseVector;
pub use metrics::{group_digits, ClusterReport, ConfusionMatrix, ValidationSummary};
pub use model::{Algorithm, AlgorithmCategory, Model, TrainedModel};
pub use preprocess::{FittedPreprocessor, Normalization, Preprocessor};
