//! The uniform algorithm interface the Detector Manager exposes.
//!
//! The paper stresses that "an operator does not have to consider the
//! characteristics of each ML type": configuring K-Means and configuring a
//! Decision Tree use the same APIs, and the Detector Manager
//! auto-configures the per-type details (e.g. using the *Marking* labels
//! to name clusters). [`Algorithm`] is that configuration surface and
//! [`TrainedModel`] the uniform result.

use crate::algorithms::forest::{ForestParams, RandomForestModel};
use crate::algorithms::gbt::{GbtClassifier, GbtParams};
use crate::algorithms::gmm::{GaussianMixtureModel, GmmParams};
use crate::algorithms::kmeans::{KMeansModel, KMeansParams};
use crate::algorithms::linear::{LinearModel, LinearParams, Regularizer};
use crate::algorithms::logistic::{LogisticModel, LogisticParams};
use crate::algorithms::naive_bayes::NaiveBayesModel;
use crate::algorithms::svm::{SvmModel, SvmParams};
use crate::algorithms::threshold::ThresholdModel;
use crate::algorithms::tree::{DecisionTreeModel, TreeParams};
use crate::data::LabeledPoint;
use athena_types::Result;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The algorithm categories of the paper's Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AlgorithmCategory {
    /// Gradient-boosted trees.
    Boosting,
    /// Decision tree, logistic regression, naive Bayes, random forest, SVM.
    Classification,
    /// Gaussian mixture, K-Means.
    Clustering,
    /// Lasso, linear, ridge.
    Regression,
    /// Threshold.
    Simple,
}

/// A declarative algorithm configuration — the `Algorithm (a)` parameter
/// of the paper's `GenerateDetectionModel` API.
///
/// # Examples
///
/// ```
/// use athena_ml::{Algorithm, AlgorithmCategory};
/// let a = Algorithm::kmeans(5);
/// assert_eq!(a.category(), AlgorithmCategory::Clustering);
/// assert_eq!(a.name(), "K-Means");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Algorithm {
    /// Gradient-boosted trees.
    GradientBoostedTrees(GbtParams),
    /// CART decision tree.
    DecisionTree(TreeParams),
    /// Logistic regression.
    LogisticRegression(LogisticParams),
    /// Gaussian naive Bayes.
    NaiveBayes,
    /// Random forest.
    RandomForest(ForestParams),
    /// Linear SVM (Pegasos).
    Svm(SvmParams),
    /// Gaussian mixture (EM).
    GaussianMixture(GmmParams),
    /// K-Means.
    KMeans(KMeansParams),
    /// Lasso regression.
    Lasso {
        /// Base regression parameters.
        params: LinearParams,
        /// L1 strength.
        lambda: f64,
    },
    /// Ordinary linear regression.
    Linear(LinearParams),
    /// Ridge regression.
    Ridge {
        /// Base regression parameters.
        params: LinearParams,
        /// L2 strength.
        lambda: f64,
    },
    /// Threshold rule (no learning phase).
    Threshold(ThresholdModel),
}

impl Algorithm {
    /// K-Means with `k` clusters and the paper's defaults (20 iterations,
    /// 5 runs).
    pub fn kmeans(k: usize) -> Self {
        Algorithm::KMeans(KMeansParams {
            k,
            ..KMeansParams::default()
        })
    }

    /// Logistic regression with default hyperparameters.
    pub fn logistic_regression() -> Self {
        Algorithm::LogisticRegression(LogisticParams::default())
    }

    /// A decision tree with default hyperparameters.
    pub fn decision_tree() -> Self {
        Algorithm::DecisionTree(TreeParams::default())
    }

    /// A threshold rule: anomalous when `feature >= threshold`.
    pub fn threshold(feature: usize, threshold: f64) -> Self {
        Algorithm::Threshold(ThresholdModel::above(feature, threshold))
    }

    /// The paper's category for this algorithm.
    pub fn category(&self) -> AlgorithmCategory {
        match self {
            Algorithm::GradientBoostedTrees(_) => AlgorithmCategory::Boosting,
            Algorithm::DecisionTree(_)
            | Algorithm::LogisticRegression(_)
            | Algorithm::NaiveBayes
            | Algorithm::RandomForest(_)
            | Algorithm::Svm(_) => AlgorithmCategory::Classification,
            Algorithm::GaussianMixture(_) | Algorithm::KMeans(_) => AlgorithmCategory::Clustering,
            Algorithm::Lasso { .. } | Algorithm::Linear(_) | Algorithm::Ridge { .. } => {
                AlgorithmCategory::Regression
            }
            Algorithm::Threshold(_) => AlgorithmCategory::Simple,
        }
    }

    /// The human-readable algorithm name.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::GradientBoostedTrees(_) => "Gradient Boosted Tree",
            Algorithm::DecisionTree(_) => "Decision Tree",
            Algorithm::LogisticRegression(_) => "Logistic Regression",
            Algorithm::NaiveBayes => "Naive Bayes",
            Algorithm::RandomForest(_) => "Random Forest",
            Algorithm::Svm(_) => "SVM",
            Algorithm::GaussianMixture(_) => "Gaussian Mixture",
            Algorithm::KMeans(_) => "K-Means",
            Algorithm::Lasso { .. } => "Lasso",
            Algorithm::Linear(_) => "Linear",
            Algorithm::Ridge { .. } => "Ridge",
            Algorithm::Threshold(_) => "Threshold",
        }
    }

    /// Fits the algorithm on in-memory data.
    ///
    /// For clustering algorithms the Detector Manager's auto-configuration
    /// kicks in: after fitting, clusters are flagged malicious when the
    /// majority of their (marked) training points are malicious, so the
    /// resulting model validates features exactly like a classifier.
    ///
    /// # Errors
    ///
    /// Propagates the underlying algorithm's validation errors
    /// ([`athena_types::AthenaError::Ml`]).
    pub fn fit(&self, data: &[LabeledPoint]) -> Result<TrainedModel> {
        Ok(match self {
            Algorithm::GradientBoostedTrees(p) => TrainedModel::Gbt(GbtClassifier::fit(*p, data)?),
            Algorithm::DecisionTree(p) => {
                TrainedModel::DecisionTree(DecisionTreeModel::fit(*p, data)?)
            }
            Algorithm::LogisticRegression(p) => {
                TrainedModel::Logistic(LogisticModel::fit(*p, data)?)
            }
            Algorithm::NaiveBayes => TrainedModel::NaiveBayes(NaiveBayesModel::fit(data)?),
            Algorithm::RandomForest(p) => {
                TrainedModel::RandomForest(RandomForestModel::fit(*p, data)?)
            }
            Algorithm::Svm(p) => TrainedModel::Svm(SvmModel::fit(*p, data)?),
            Algorithm::GaussianMixture(p) => {
                let gmm = GaussianMixtureModel::fit(*p, data)?;
                let flagged = flag_clusters(data, gmm.k(), |x| gmm.cluster_of(x));
                TrainedModel::GaussianMixture {
                    model: gmm,
                    flagged,
                }
            }
            Algorithm::KMeans(p) => {
                let km = KMeansModel::fit(*p, data)?;
                let flagged = flag_clusters(data, km.k(), |x| km.cluster_of(x));
                TrainedModel::KMeans { model: km, flagged }
            }
            Algorithm::Lasso { params, lambda } => {
                let p = LinearParams {
                    regularizer: Regularizer::Lasso(*lambda),
                    ..*params
                };
                TrainedModel::Linear(LinearModel::fit(p, data)?)
            }
            Algorithm::Linear(p) => TrainedModel::Linear(LinearModel::fit(*p, data)?),
            Algorithm::Ridge { params, lambda } => {
                let p = LinearParams {
                    regularizer: Regularizer::Ridge(*lambda),
                    ..*params
                };
                TrainedModel::Linear(LinearModel::fit(p, data)?)
            }
            Algorithm::Threshold(t) => TrainedModel::Threshold(*t),
        })
    }

    /// [`Algorithm::fit`] with the wall-clock training latency recorded
    /// into `hist` (nanoseconds; costs nothing unless the histogram is
    /// registered into an enabled telemetry domain).
    ///
    /// # Errors
    ///
    /// Propagates the underlying algorithm's validation errors.
    pub fn fit_timed(
        &self,
        data: &[LabeledPoint],
        hist: &athena_telemetry::Histogram,
    ) -> Result<TrainedModel> {
        let timer = hist.start_timer();
        let model = self.fit(data);
        timer.observe(hist);
        model
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({:?})", self.name(), self.category())
    }
}

/// Flags each cluster malicious when its marked-malicious members
/// outnumber its benign members.
fn flag_clusters(
    data: &[LabeledPoint],
    k: usize,
    cluster_of: impl Fn(&[f64]) -> usize,
) -> Vec<bool> {
    let mut counts = vec![(0u64, 0u64); k];
    for p in data {
        let c = cluster_of(&p.features);
        if p.is_malicious() {
            counts[c].1 += 1;
        } else {
            counts[c].0 += 1;
        }
    }
    counts.iter().map(|(b, m)| m > b).collect()
}

/// The uniform prediction interface every trained model implements.
pub trait Model {
    /// The detection score: `>= 0.5` means malicious (classification and
    /// clustering), or the raw regression value.
    fn predict(&self, x: &[f64]) -> f64;

    /// For clustering models, the cluster index of `x`.
    fn cluster_of(&self, x: &[f64]) -> Option<usize> {
        let _ = x;
        None
    }

    /// A one-line description of the model (used in Figure 6-style
    /// reports).
    fn describe(&self) -> String;
}

/// A trained detection model — the `Model (m)` parameter of the paper's
/// `ValidateFeatures` API.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum TrainedModel {
    /// Gradient-boosted trees.
    Gbt(GbtClassifier),
    /// Decision tree.
    DecisionTree(DecisionTreeModel),
    /// Logistic regression.
    Logistic(LogisticModel),
    /// Naive Bayes.
    NaiveBayes(NaiveBayesModel),
    /// Random forest.
    RandomForest(RandomForestModel),
    /// SVM.
    Svm(SvmModel),
    /// Gaussian mixture with per-cluster malicious flags.
    GaussianMixture {
        /// The fitted mixture.
        model: GaussianMixtureModel,
        /// Per-component malicious flags (majority label of members).
        flagged: Vec<bool>,
    },
    /// K-Means with per-cluster malicious flags.
    KMeans {
        /// The fitted clustering.
        model: KMeansModel,
        /// Per-cluster malicious flags (majority label of members).
        flagged: Vec<bool>,
    },
    /// Linear / Ridge / Lasso regression.
    Linear(LinearModel),
    /// Threshold rule.
    Threshold(ThresholdModel),
}

impl TrainedModel {
    /// One-pass verdict plus cluster assignment: clustering models
    /// compute the nearest cluster once and derive the verdict from its
    /// flag (validation loops call this instead of `predict` +
    /// `cluster_of`, which would scan the centroids twice).
    pub fn verdict_and_cluster(&self, x: &[f64]) -> (bool, Option<usize>) {
        match self {
            TrainedModel::KMeans { model, flagged } => {
                let c = model.cluster_of(x);
                (flagged.get(c).copied().unwrap_or(false), Some(c))
            }
            TrainedModel::GaussianMixture { model, flagged } => {
                let c = model.cluster_of(x);
                (flagged.get(c).copied().unwrap_or(false), Some(c))
            }
            other => (other.predict(x) >= 0.5, None),
        }
    }

    /// Number of clusters for clustering models.
    pub fn cluster_count(&self) -> Option<usize> {
        match self {
            TrainedModel::KMeans { model, .. } => Some(model.k()),
            TrainedModel::GaussianMixture { model, .. } => Some(model.k()),
            _ => None,
        }
    }
}

impl Model for TrainedModel {
    fn predict(&self, x: &[f64]) -> f64 {
        match self {
            TrainedModel::Gbt(m) => m.predict_proba(x),
            TrainedModel::DecisionTree(m) => m.predict_value(x),
            TrainedModel::Logistic(m) => m.predict_proba(x),
            TrainedModel::NaiveBayes(m) => m.predict_proba(x),
            TrainedModel::RandomForest(m) => m.predict_proba(x),
            TrainedModel::Svm(m) => m.predict_class(x),
            TrainedModel::GaussianMixture { model, flagged } => f64::from(u8::from(
                *flagged.get(model.cluster_of(x)).unwrap_or(&false),
            )),
            TrainedModel::KMeans { model, flagged } => f64::from(u8::from(
                *flagged.get(model.cluster_of(x)).unwrap_or(&false),
            )),
            TrainedModel::Linear(m) => m.predict_value(x),
            TrainedModel::Threshold(m) => m.score(x),
        }
    }

    fn cluster_of(&self, x: &[f64]) -> Option<usize> {
        match self {
            TrainedModel::KMeans { model, .. } => Some(model.cluster_of(x)),
            TrainedModel::GaussianMixture { model, .. } => Some(model.cluster_of(x)),
            _ => None,
        }
    }

    fn describe(&self) -> String {
        match self {
            TrainedModel::Gbt(m) => format!("Boosting (GBT): rounds({})", m.rounds()),
            TrainedModel::DecisionTree(m) => {
                format!("Classification (Decision Tree): depth({})", m.root.depth())
            }
            TrainedModel::Logistic(m) => format!(
                "Classification (Logistic Regression): iterations({})",
                m.params.iterations
            ),
            TrainedModel::NaiveBayes(_) => "Classification (Naive Bayes)".to_owned(),
            TrainedModel::RandomForest(m) => {
                format!("Classification (Random Forest): trees({})", m.trees.len())
            }
            TrainedModel::Svm(m) => {
                format!("Classification (SVM): iterations({})", m.params.iterations)
            }
            TrainedModel::GaussianMixture { model, .. } => {
                format!(
                    "Cluster (Gaussian Mixture)\nCluster Information : K({})",
                    model.k()
                )
            }
            TrainedModel::KMeans { model, .. } => format!(
                "Cluster (K-Means)\nCluster Information : K({}), Iterations({}), Runs({}), \
                 Seed({}), InitializedMode(k-means||), Epsilon({:e})",
                model.k(),
                model.params.max_iterations,
                model.params.runs,
                model.params.seed,
                model.params.epsilon
            ),
            TrainedModel::Linear(m) => {
                format!("Regression ({:?})", m.params.regularizer)
            }
            TrainedModel::Threshold(t) => format!(
                "Simple (Threshold): feature({}) threshold({})",
                t.feature, t.threshold
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::test_data::{accuracy, blobs};

    fn all_trainable() -> Vec<Algorithm> {
        vec![
            Algorithm::GradientBoostedTrees(GbtParams::default()),
            Algorithm::DecisionTree(TreeParams::default()),
            Algorithm::LogisticRegression(LogisticParams::default()),
            Algorithm::NaiveBayes,
            Algorithm::RandomForest(ForestParams {
                trees: 10,
                ..ForestParams::default()
            }),
            Algorithm::Svm(SvmParams::default()),
            Algorithm::GaussianMixture(GmmParams::default()),
            Algorithm::KMeans(KMeansParams {
                k: 2,
                ..KMeansParams::default()
            }),
            Algorithm::Lasso {
                params: LinearParams::default(),
                lambda: 1e-3,
            },
            Algorithm::Linear(LinearParams::default()),
            Algorithm::Ridge {
                params: LinearParams::default(),
                lambda: 1e-3,
            },
        ]
    }

    #[test]
    fn eleven_algorithms_all_fit_and_detect() {
        let algorithms = all_trainable();
        assert_eq!(algorithms.len(), 11, "the paper ships 11 ML algorithms");
        let data = blobs(100, 3, 71);
        for a in algorithms {
            let model = a.fit(&data).unwrap();
            let acc = accuracy(&data, |x| model.predict(x));
            assert!(acc > 0.9, "{} reached only {acc}", a.name());
        }
    }

    #[test]
    fn categories_match_table_iv() {
        use AlgorithmCategory::*;
        let expect = [
            Boosting,
            Classification,
            Classification,
            Classification,
            Classification,
            Classification,
            Clustering,
            Clustering,
            Regression,
            Regression,
            Regression,
        ];
        for (a, cat) in all_trainable().iter().zip(expect) {
            assert_eq!(a.category(), cat, "{}", a.name());
        }
        assert_eq!(
            Algorithm::threshold(0, 1.0).category(),
            AlgorithmCategory::Simple
        );
    }

    #[test]
    fn threshold_needs_no_training() {
        let a = Algorithm::threshold(0, 10.0);
        // Fitting on an empty set works since no learning happens.
        let m = a.fit(&blobs(2, 1, 0)).unwrap();
        assert_eq!(m.predict(&[20.0]), 1.0);
    }

    #[test]
    fn clustering_models_expose_clusters() {
        let data = blobs(60, 2, 73);
        let m = Algorithm::kmeans(2).fit(&data).unwrap();
        assert_eq!(m.cluster_count(), Some(2));
        assert!(m.cluster_of(&[0.0, 0.0]).is_some());
        // Cluster flagging makes predict a detector.
        assert!(accuracy(&data, |x| m.predict(x)) > 0.95);
        // Non-clustering models expose no clusters.
        let t = Algorithm::threshold(0, 1.0).fit(&data).unwrap();
        assert_eq!(t.cluster_of(&[0.0, 0.0]), None);
    }

    #[test]
    fn fit_timed_records_training_latency() {
        use athena_telemetry::{names, Histogram, Telemetry};
        let (tel, hist) = (Telemetry::new(), Histogram::default());
        let (sub, fit_ns) = (names::core::SUBSYSTEM, names::core::FIT_NS);
        tel.metrics().register_histogram(sub, fit_ns, "", &hist);
        let data = blobs(40, 2, 91);
        let m = Algorithm::kmeans(2).fit_timed(&data, &hist).unwrap();
        assert_eq!(m.cluster_count(), Some(2));
        assert_eq!(hist.snapshot().count, 1);
        // Against a disabled domain, nothing is recorded but the fit
        // still runs.
        let (off, cold) = (Telemetry::off(), Histogram::default());
        off.metrics().register_histogram(sub, fit_ns, "", &cold);
        Algorithm::kmeans(2).fit_timed(&data, &cold).unwrap();
        assert_eq!(cold.snapshot().count, 0);
    }

    #[test]
    fn describe_mentions_kmeans_configuration() {
        let data = blobs(30, 2, 83);
        let m = Algorithm::kmeans(2).fit(&data).unwrap();
        let d = m.describe();
        assert!(d.contains("K(2)"));
        assert!(d.contains("k-means||"));
    }
}
