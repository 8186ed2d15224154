//! The paper's four preprocessors: weighting, sampling, normalization,
//! and marking (Table IV).
//!
//! A [`Preprocessor`] is a declarative chain of steps; [`Preprocessor::fit`]
//! learns any data-dependent parameters (normalization statistics) and
//! yields a [`FittedPreprocessor`] that can be applied to training data and,
//! crucially, to *live* points during online validation with the same
//! parameters.

use crate::data::LabeledPoint;
use athena_types::{AthenaError, Result};
use serde::{Deserialize, Serialize};

/// A normalization scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Normalization {
    /// Scale each feature to `[0, 1]` by its observed min/max.
    #[default]
    MinMax,
    /// Standardize each feature to zero mean, unit variance.
    ZScore,
}

/// One preprocessing step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Step {
    /// Multiply each feature by a weight (emphasize certain features).
    Weighting(Vec<f64>),
    /// Keep a deterministic fraction of the points (every k-th).
    Sampling(f64),
    /// Standardize the range of independent variables.
    Normalization(Normalization),
    /// Mark points as malicious (label = 1) when a predicate on one
    /// feature holds: `feature[index] >= threshold`.
    Marking {
        /// The feature index tested.
        feature: usize,
        /// The threshold at or above which the point is marked malicious.
        threshold: f64,
    },
}

/// A declarative preprocessing chain.
///
/// # Examples
///
/// ```
/// use athena_ml::{LabeledPoint, Normalization, Preprocessor};
///
/// let data = vec![
///     LabeledPoint::unlabeled(vec![0.0, 100.0]),
///     LabeledPoint::unlabeled(vec![10.0, 300.0]),
/// ];
/// let fitted = Preprocessor::new()
///     .normalize(Normalization::MinMax)
///     .fit(&data)?;
/// let out = fitted.apply(&data);
/// assert_eq!(out[1].features, vec![1.0, 1.0]);
/// # Ok::<(), athena_types::AthenaError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Preprocessor {
    steps: Vec<Step>,
}

impl Preprocessor {
    /// Creates an empty (identity) chain.
    pub fn new() -> Self {
        Preprocessor::default()
    }

    /// Appends a weighting step.
    pub fn weight(mut self, weights: Vec<f64>) -> Self {
        self.steps.push(Step::Weighting(weights));
        self
    }

    /// Appends a sampling step keeping roughly `fraction` of the points.
    pub fn sample(mut self, fraction: f64) -> Self {
        self.steps.push(Step::Sampling(fraction));
        self
    }

    /// Appends a normalization step.
    pub fn normalize(mut self, n: Normalization) -> Self {
        self.steps.push(Step::Normalization(n));
        self
    }

    /// Appends a marking step: points with `feature[index] >= threshold`
    /// are labeled malicious.
    pub fn mark(mut self, feature: usize, threshold: f64) -> Self {
        self.steps.push(Step::Marking { feature, threshold });
        self
    }

    /// The steps in order.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Learns data-dependent parameters on `data`.
    ///
    /// # Errors
    ///
    /// Returns [`AthenaError::Ml`] for an empty set, a weight vector whose
    /// length differs from the feature dimension, or an out-of-range
    /// sampling fraction or marking index.
    pub fn fit(&self, data: &[LabeledPoint]) -> Result<FittedPreprocessor> {
        self.fit_apply(data.to_vec()).map(|(fitted, _)| fitted)
    }

    /// Learns the chain's parameters on `data` and returns them with the
    /// data transformed by it: exactly [`Preprocessor::fit`] followed by
    /// [`FittedPreprocessor::apply`], without a copy — fitting transforms
    /// the points step by step anyway, in place.
    ///
    /// # Errors
    ///
    /// As [`Preprocessor::fit`].
    pub fn fit_apply(
        &self,
        mut data: Vec<LabeledPoint>,
    ) -> Result<(FittedPreprocessor, Vec<LabeledPoint>)> {
        let dim = crate::data::check_dims(&data)?;
        let mut fitted = Vec::with_capacity(self.steps.len());
        // Normalization statistics must be computed on data transformed by
        // the *preceding* steps, so fit incrementally.
        for step in &self.steps {
            let f = match step {
                Step::Weighting(w) => {
                    if w.len() != dim {
                        return Err(AthenaError::Ml(format!(
                            "weight vector has dim {} but features have dim {dim}",
                            w.len()
                        )));
                    }
                    FittedStep::Weighting(w.clone())
                }
                Step::Sampling(frac) => {
                    if !(0.0..=1.0).contains(frac) {
                        return Err(AthenaError::Ml(format!(
                            "sampling fraction {frac} outside [0, 1]"
                        )));
                    }
                    FittedStep::Sampling(*frac)
                }
                Step::Normalization(kind) => match kind {
                    Normalization::MinMax => {
                        let mut lo = vec![f64::INFINITY; dim];
                        let mut hi = vec![f64::NEG_INFINITY; dim];
                        for p in data.iter() {
                            for (j, x) in p.features.iter().enumerate() {
                                lo[j] = lo[j].min(*x);
                                hi[j] = hi[j].max(*x);
                            }
                        }
                        FittedStep::MinMax { lo, hi }
                    }
                    Normalization::ZScore => {
                        let n = data.len() as f64;
                        let mut mean = vec![0.0; dim];
                        for p in data.iter() {
                            for (j, x) in p.features.iter().enumerate() {
                                mean[j] += x / n;
                            }
                        }
                        let mut var = vec![0.0; dim];
                        for p in data.iter() {
                            for (j, x) in p.features.iter().enumerate() {
                                var[j] += (x - mean[j]) * (x - mean[j]) / n;
                            }
                        }
                        let std: Vec<f64> = var.into_iter().map(|v| v.sqrt().max(1e-12)).collect();
                        FittedStep::ZScore { mean, std }
                    }
                },
                Step::Marking { feature, threshold } => {
                    if *feature >= dim {
                        return Err(AthenaError::Ml(format!(
                            "marking feature index {feature} out of range (dim {dim})"
                        )));
                    }
                    FittedStep::Marking {
                        feature: *feature,
                        threshold: *threshold,
                    }
                }
            };
            apply_step(&f, &mut data);
            fitted.push(f);
        }
        Ok((FittedPreprocessor { steps: fitted, dim }, data))
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum FittedStep {
    Weighting(Vec<f64>),
    Sampling(f64),
    MinMax { lo: Vec<f64>, hi: Vec<f64> },
    ZScore { mean: Vec<f64>, std: Vec<f64> },
    Marking { feature: usize, threshold: f64 },
}

/// Applies one step to a batch in place (sampling drops points).
fn apply_step(step: &FittedStep, data: &mut Vec<LabeledPoint>) {
    match step {
        FittedStep::Sampling(frac) => {
            if *frac >= 1.0 {
                return;
            }
            if *frac <= 0.0 {
                data.clear();
                return;
            }
            let keep_every = (1.0 / frac).round().max(1.0) as usize;
            let mut i = 0;
            data.retain(|_| {
                let keep = i % keep_every == 0;
                i += 1;
                keep
            });
        }
        other => {
            for p in data.iter_mut() {
                apply_step_point(other, p);
            }
        }
    }
}

fn apply_step_point(step: &FittedStep, p: &mut LabeledPoint) {
    match step {
        FittedStep::Weighting(w) => {
            for (x, wi) in p.features.iter_mut().zip(w) {
                *x *= wi;
            }
        }
        FittedStep::MinMax { lo, hi } => {
            for (j, x) in p.features.iter_mut().enumerate() {
                let range = hi[j] - lo[j];
                *x = if range.abs() < 1e-12 {
                    0.0
                } else {
                    ((*x - lo[j]) / range).clamp(0.0, 1.0)
                };
            }
        }
        FittedStep::ZScore { mean, std } => {
            for (j, x) in p.features.iter_mut().enumerate() {
                *x = (*x - mean[j]) / std[j];
            }
        }
        FittedStep::Marking { feature, threshold } => {
            if p.features.get(*feature).copied().unwrap_or(0.0) >= *threshold {
                p.label = 1.0;
            }
        }
        FittedStep::Sampling(_) => {}
    }
}

/// A preprocessing chain with learned parameters, applicable to batches
/// and to single live points.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FittedPreprocessor {
    steps: Vec<FittedStep>,
    dim: usize,
}

impl FittedPreprocessor {
    /// The feature dimension the chain was fitted on.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Applies the chain to a batch (sampling steps drop points): one
    /// copy of each point, then every step in place.
    pub fn apply(&self, data: &[LabeledPoint]) -> Vec<LabeledPoint> {
        let mut current = data.to_vec();
        for step in &self.steps {
            apply_step(step, &mut current);
        }
        current
    }

    /// Applies the chain to one live point (sampling steps are skipped —
    /// online validation sees every event).
    pub fn apply_point(&self, p: &LabeledPoint) -> LabeledPoint {
        self.apply_owned(p.clone())
    }

    /// [`FittedPreprocessor::apply_point`] on a point the caller hands
    /// over, transformed in place.
    pub fn apply_owned(&self, mut p: LabeledPoint) -> LabeledPoint {
        for step in &self.steps {
            apply_step_point(step, &mut p);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> Vec<LabeledPoint> {
        vec![
            LabeledPoint::unlabeled(vec![0.0, 10.0]),
            LabeledPoint::unlabeled(vec![5.0, 20.0]),
            LabeledPoint::unlabeled(vec![10.0, 30.0]),
        ]
    }

    #[test]
    fn minmax_maps_to_unit_interval() {
        let f = Preprocessor::new()
            .normalize(Normalization::MinMax)
            .fit(&data())
            .unwrap();
        let out = f.apply(&data());
        assert_eq!(out[0].features, vec![0.0, 0.0]);
        assert_eq!(out[1].features, vec![0.5, 0.5]);
        assert_eq!(out[2].features, vec![1.0, 1.0]);
    }

    #[test]
    fn minmax_handles_constant_feature() {
        let d = vec![
            LabeledPoint::unlabeled(vec![7.0]),
            LabeledPoint::unlabeled(vec![7.0]),
        ];
        let f = Preprocessor::new()
            .normalize(Normalization::MinMax)
            .fit(&d)
            .unwrap();
        assert_eq!(f.apply(&d)[0].features, vec![0.0]);
    }

    #[test]
    fn zscore_standardizes() {
        let f = Preprocessor::new()
            .normalize(Normalization::ZScore)
            .fit(&data())
            .unwrap();
        let out = f.apply(&data());
        let mean: f64 = out.iter().map(|p| p.features[0]).sum::<f64>() / 3.0;
        assert!(mean.abs() < 1e-9);
    }

    #[test]
    fn weighting_scales_features() {
        let f = Preprocessor::new()
            .weight(vec![2.0, 0.0])
            .fit(&data())
            .unwrap();
        let out = f.apply(&data());
        assert_eq!(out[1].features, vec![10.0, 0.0]);
    }

    #[test]
    fn marking_labels_by_threshold() {
        let f = Preprocessor::new().mark(1, 25.0).fit(&data()).unwrap();
        let out = f.apply(&data());
        assert!(!out[0].is_malicious());
        assert!(!out[1].is_malicious());
        assert!(out[2].is_malicious());
    }

    #[test]
    fn sampling_drops_points_in_batch_but_not_online() {
        let d: Vec<LabeledPoint> = (0..100)
            .map(|i| LabeledPoint::unlabeled(vec![f64::from(i)]))
            .collect();
        let f = Preprocessor::new().sample(0.25).fit(&d).unwrap();
        let out = f.apply(&d);
        assert_eq!(out.len(), 25);
        // Online application never drops.
        let p = f.apply_point(&d[3]);
        assert_eq!(p.features, vec![3.0]);
    }

    #[test]
    fn normalization_after_weighting_uses_weighted_stats() {
        let f = Preprocessor::new()
            .weight(vec![10.0, 1.0])
            .normalize(Normalization::MinMax)
            .fit(&data())
            .unwrap();
        let out = f.apply(&data());
        // Still lands in [0,1] because stats were fitted post-weighting.
        assert!(out
            .iter()
            .all(|p| p.features.iter().all(|x| (0.0..=1.0).contains(x))));
    }

    #[test]
    fn fit_rejects_bad_configs() {
        assert!(Preprocessor::new().weight(vec![1.0]).fit(&data()).is_err());
        assert!(Preprocessor::new().sample(1.5).fit(&data()).is_err());
        assert!(Preprocessor::new().mark(9, 0.0).fit(&data()).is_err());
        assert!(Preprocessor::new().fit(&[]).is_err());
    }

    #[test]
    fn batch_and_point_application_agree() {
        let f = Preprocessor::new()
            .weight(vec![3.0, 0.5])
            .normalize(Normalization::ZScore)
            .mark(0, 1.0)
            .fit(&data())
            .unwrap();
        let batch = f.apply(&data());
        for (orig, b) in data().iter().zip(&batch) {
            let single = f.apply_point(orig);
            assert_eq!(&single, b);
        }
    }
}
