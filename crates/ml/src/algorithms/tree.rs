//! CART decision trees: Gini classification and variance-reduction
//! regression (the regression mode is the base learner for
//! gradient-boosted trees).

use crate::data::LabeledPoint;
use athena_types::Result;
use serde::{Deserialize, Serialize};

/// Decision-tree hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TreeParams {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Candidate thresholds examined per feature (quantile-based).
    pub max_bins: usize,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 6,
            min_samples_split: 4,
            max_bins: 32,
        }
    }
}

/// The split criterion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum TreeTask {
    /// Binary classification via Gini impurity; leaves store the malicious
    /// fraction.
    #[default]
    Classification,
    /// Regression via variance reduction; leaves store the mean label.
    Regression,
}

/// A tree node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Node {
    /// A leaf with its prediction value.
    Leaf(f64),
    /// An internal split: `x[feature] <= threshold` goes left.
    Split {
        /// The split feature index.
        feature: usize,
        /// The split threshold.
        threshold: f64,
        /// Subtree for `x[feature] <= threshold`.
        left: Box<Node>,
        /// Subtree for `x[feature] > threshold`.
        right: Box<Node>,
    },
}

impl Node {
    /// Depth of the subtree (a leaf has depth 1).
    pub fn depth(&self) -> usize {
        match self {
            Node::Leaf(_) => 1,
            Node::Split { left, right, .. } => 1 + left.depth().max(right.depth()),
        }
    }
}

/// A fitted CART decision tree.
///
/// # Examples
///
/// ```
/// use athena_ml::{DecisionTreeModel, LabeledPoint};
/// use athena_ml::algorithms::tree::TreeParams;
///
/// let data = vec![
///     LabeledPoint::new(vec![0.0], 0.0),
///     LabeledPoint::new(vec![1.0], 0.0),
///     LabeledPoint::new(vec![10.0], 1.0),
///     LabeledPoint::new(vec![11.0], 1.0),
/// ];
/// let m = DecisionTreeModel::fit(TreeParams::default(), &data)?;
/// assert!(m.predict_value(&[12.0]) > 0.5);
/// assert!(m.predict_value(&[0.5]) < 0.5);
/// # Ok::<(), athena_types::AthenaError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTreeModel {
    /// The root node.
    pub root: Node,
    /// The task the tree was fitted for.
    pub task: TreeTask,
    /// The parameters used.
    pub params: TreeParams,
}

impl DecisionTreeModel {
    /// Fits a classification tree (Gini impurity).
    ///
    /// # Errors
    ///
    /// Returns [`athena_types::AthenaError::Ml`] for empty/ragged data.
    pub fn fit(params: TreeParams, data: &[LabeledPoint]) -> Result<Self> {
        Self::fit_task(params, TreeTask::Classification, data)
    }

    /// Fits a regression tree (variance reduction).
    ///
    /// # Errors
    ///
    /// Returns [`athena_types::AthenaError::Ml`] for empty/ragged data.
    pub fn fit_regression(params: TreeParams, data: &[LabeledPoint]) -> Result<Self> {
        Self::fit_task(params, TreeTask::Regression, data)
    }

    /// Fits a tree restricted to a subset of features (used by random
    /// forests for feature bagging). `None` means all features.
    pub fn fit_with_features(
        params: TreeParams,
        task: TreeTask,
        data: &[LabeledPoint],
        features: Option<&[usize]>,
    ) -> Result<Self> {
        let dim = crate::data::check_dims(data)?;
        let all: Vec<usize>;
        let feats = match features {
            Some(f) => f,
            None => {
                all = (0..dim).collect();
                &all
            }
        };
        let idx: Vec<usize> = (0..data.len()).collect();
        let root = build(params, task, data, &idx, feats, 0);
        Ok(DecisionTreeModel { root, task, params })
    }

    fn fit_task(params: TreeParams, task: TreeTask, data: &[LabeledPoint]) -> Result<Self> {
        Self::fit_with_features(params, task, data, None)
    }

    /// The tree's raw prediction (malicious fraction for classification,
    /// mean label for regression).
    pub fn predict_value(&self, x: &[f64]) -> f64 {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf(v) => return *v,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if x.get(*feature).copied().unwrap_or(0.0) <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }
}

fn leaf_value(task: TreeTask, data: &[LabeledPoint], idx: &[usize]) -> f64 {
    if idx.is_empty() {
        return 0.0;
    }
    let sum: f64 = idx.iter().map(|&i| data[i].label).sum();
    match task {
        // Both are the mean label; classification leaves are the
        // malicious fraction because labels are 0/1.
        TreeTask::Classification | TreeTask::Regression => sum / idx.len() as f64,
    }
}

fn impurity(task: TreeTask, data: &[LabeledPoint], idx: &[usize]) -> f64 {
    if idx.is_empty() {
        return 0.0;
    }
    let n = idx.len() as f64;
    match task {
        TreeTask::Classification => {
            let p: f64 = idx.iter().filter(|&&i| data[i].is_malicious()).count() as f64 / n;
            2.0 * p * (1.0 - p) // Gini for two classes
        }
        TreeTask::Regression => {
            let mean: f64 = idx.iter().map(|&i| data[i].label).sum::<f64>() / n;
            idx.iter()
                .map(|&i| (data[i].label - mean) * (data[i].label - mean))
                .sum::<f64>()
                / n
        }
    }
}

fn build(
    params: TreeParams,
    task: TreeTask,
    data: &[LabeledPoint],
    idx: &[usize],
    features: &[usize],
    depth: usize,
) -> Node {
    let parent_impurity = impurity(task, data, idx);
    if depth >= params.max_depth || idx.len() < params.min_samples_split || parent_impurity < 1e-12
    {
        return Node::Leaf(leaf_value(task, data, idx));
    }

    let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, weighted impurity)
    for &f in features {
        for threshold in candidate_thresholds(data, idx, f, params.max_bins) {
            let (left, right): (Vec<usize>, Vec<usize>) =
                idx.iter().partition(|&&i| data[i].features[f] <= threshold);
            if left.is_empty() || right.is_empty() {
                continue;
            }
            let n = idx.len() as f64;
            let w = (left.len() as f64 / n) * impurity(task, data, &left)
                + (right.len() as f64 / n) * impurity(task, data, &right);
            if best.as_ref().is_none_or(|(_, _, bw)| w < *bw) {
                best = Some((f, threshold, w));
            }
        }
    }

    match best {
        Some((feature, threshold, w)) if w < parent_impurity - 1e-12 => {
            let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = idx
                .iter()
                .partition(|&&i| data[i].features[feature] <= threshold);
            Node::Split {
                feature,
                threshold,
                left: Box::new(build(params, task, data, &left_idx, features, depth + 1)),
                right: Box::new(build(params, task, data, &right_idx, features, depth + 1)),
            }
        }
        _ => Node::Leaf(leaf_value(task, data, idx)),
    }
}

/// Quantile-based candidate thresholds for one feature.
fn candidate_thresholds(
    data: &[LabeledPoint],
    idx: &[usize],
    feature: usize,
    max_bins: usize,
) -> Vec<f64> {
    let mut values: Vec<f64> = idx.iter().map(|&i| data[i].features[feature]).collect();
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    values.dedup();
    if values.len() <= 1 {
        return Vec::new();
    }
    let bins = max_bins.max(2).min(values.len() - 1);
    let mut out = Vec::with_capacity(bins);
    for b in 1..=bins {
        let pos = b * (values.len() - 1) / (bins + 1);
        let t = (values[pos] + values[pos + 1]) / 2.0;
        if out.last() != Some(&t) {
            out.push(t);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::test_data::{accuracy, blobs};

    #[test]
    fn high_accuracy_on_separable_blobs() {
        let data = blobs(100, 3, 41);
        let m = DecisionTreeModel::fit(TreeParams::default(), &data).unwrap();
        assert!(accuracy(&data, |x| m.predict_value(x)) > 0.98);
    }

    #[test]
    fn respects_max_depth() {
        let data = blobs(100, 2, 43);
        let m = DecisionTreeModel::fit(
            TreeParams {
                max_depth: 2,
                ..TreeParams::default()
            },
            &data,
        )
        .unwrap();
        assert!(m.root.depth() <= 3); // root + 2 levels
    }

    #[test]
    fn pure_node_becomes_leaf() {
        let data: Vec<LabeledPoint> = (0..20)
            .map(|i| LabeledPoint::new(vec![f64::from(i)], 0.0))
            .collect();
        let m = DecisionTreeModel::fit(TreeParams::default(), &data).unwrap();
        assert_eq!(m.root, Node::Leaf(0.0));
    }

    #[test]
    fn regression_tree_fits_a_step() {
        let data: Vec<LabeledPoint> = (0..40)
            .map(|i| {
                let x = f64::from(i);
                LabeledPoint::new(vec![x], if x < 20.0 { 1.0 } else { 9.0 })
            })
            .collect();
        let m = DecisionTreeModel::fit_regression(TreeParams::default(), &data).unwrap();
        assert!((m.predict_value(&[5.0]) - 1.0).abs() < 1e-9);
        assert!((m.predict_value(&[35.0]) - 9.0).abs() < 1e-9);
    }

    #[test]
    fn feature_restriction_is_honored() {
        // Only feature 1 is informative, but we restrict to feature 0.
        let data: Vec<LabeledPoint> = (0..40)
            .map(|i| {
                let y = f64::from(u8::from(i >= 20));
                LabeledPoint::new(vec![0.5, f64::from(i)], y)
            })
            .collect();
        let m = DecisionTreeModel::fit_with_features(
            TreeParams::default(),
            TreeTask::Classification,
            &data,
            Some(&[0]),
        )
        .unwrap();
        // Feature 0 is constant, so the tree cannot split.
        assert_eq!(m.root.depth(), 1);
    }

    #[test]
    fn rejects_empty_data() {
        assert!(DecisionTreeModel::fit(TreeParams::default(), &[]).is_err());
    }
}
