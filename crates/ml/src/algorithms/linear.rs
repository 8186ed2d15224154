//! Linear, Ridge, and Lasso regression via (proximal) gradient descent —
//! the paper's "Regression" category.

use crate::data::LabeledPoint;
use crate::linalg::DenseVector;
use athena_types::{AthenaError, Result};
use serde::{Deserialize, Serialize};

/// The regularization flavor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum Regularizer {
    /// Ordinary least squares.
    #[default]
    None,
    /// Ridge (L2) with the given strength.
    Ridge(f64),
    /// Lasso (L1) with the given strength, via proximal soft-thresholding.
    Lasso(f64),
}

/// Regression hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinearParams {
    /// Gradient-descent iterations.
    pub iterations: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// Regularization.
    pub regularizer: Regularizer,
}

impl Default for LinearParams {
    fn default() -> Self {
        // The conservative rate keeps full-batch GD stable for feature
        // magnitudes up to ~5 without normalization.
        LinearParams {
            iterations: 800,
            learning_rate: 0.02,
            regularizer: Regularizer::None,
        }
    }
}

/// A fitted linear model `y = w·x + b`.
///
/// # Examples
///
/// ```
/// use athena_ml::{LabeledPoint, LinearModel};
/// use athena_ml::algorithms::linear::LinearParams;
///
/// // y = 2x + 1
/// let data: Vec<LabeledPoint> = (0..20)
///     .map(|i| {
///         let x = f64::from(i) / 10.0;
///         LabeledPoint::new(vec![x], 2.0 * x + 1.0)
///     })
///     .collect();
/// let m = LinearModel::fit(LinearParams::default(), &data)?;
/// assert!((m.predict_value(&[1.0]) - 3.0).abs() < 0.1);
/// # Ok::<(), athena_types::AthenaError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearModel {
    /// Feature weights.
    pub weights: DenseVector,
    /// Intercept.
    pub bias: f64,
    /// The parameters used.
    pub params: LinearParams,
}

impl LinearModel {
    /// Fits by gradient descent on the mean-squared error, with the chosen
    /// regularizer (L2 gradient, or L1 proximal soft-threshold).
    ///
    /// # Errors
    ///
    /// Returns [`AthenaError::Ml`] for empty/ragged data or a bad learning
    /// rate.
    pub fn fit(params: LinearParams, data: &[LabeledPoint]) -> Result<Self> {
        let dim = crate::data::check_dims(data)?;
        if params.learning_rate <= 0.0 || !params.learning_rate.is_finite() {
            return Err(AthenaError::Ml("learning rate must be positive".into()));
        }
        if let Regularizer::Ridge(l) | Regularizer::Lasso(l) = params.regularizer {
            if l < 0.0 {
                return Err(AthenaError::Ml(
                    "regularization strength must be non-negative".into(),
                ));
            }
        }
        let mut w = DenseVector::zeros(dim);
        let mut b = 0.0;
        let n = data.len() as f64;
        for _ in 0..params.iterations {
            let mut grad_w = DenseVector::zeros(dim);
            let mut grad_b = 0.0;
            for p in data {
                let err = w.dot_slice(&p.features) + b - p.label;
                grad_w.axpy(2.0 * err / n, &p.features);
                grad_b += 2.0 * err / n;
            }
            if let Regularizer::Ridge(l) = params.regularizer {
                grad_w.axpy(2.0 * l, &w);
            }
            w.axpy(-params.learning_rate, &grad_w);
            b -= params.learning_rate * grad_b;
            if let Regularizer::Lasso(l) = params.regularizer {
                let tau = params.learning_rate * l;
                for wi in w.iter_mut() {
                    *wi = soft_threshold(*wi, tau);
                }
            }
        }
        Ok(LinearModel {
            weights: w,
            bias: b,
            params,
        })
    }

    /// The predicted regression value.
    pub fn predict_value(&self, x: &[f64]) -> f64 {
        self.weights.dot_slice(x) + self.bias
    }
}

fn soft_threshold(x: f64, tau: f64) -> f64 {
    if x > tau {
        x - tau
    } else if x < -tau {
        x + tau
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_data(slope: &[f64], intercept: f64, n: usize) -> Vec<LabeledPoint> {
        (0..n)
            .map(|i| {
                let x: Vec<f64> = (0..slope.len())
                    .map(|d| f64::from((i + d * 3) as u32 % 10) / 10.0)
                    .collect();
                let y: f64 = x.iter().zip(slope).map(|(xi, s)| xi * s).sum::<f64>() + intercept;
                LabeledPoint::new(x, y)
            })
            .collect()
    }

    #[test]
    fn recovers_a_line() {
        let data = line_data(&[2.0, -1.0], 0.5, 100);
        let m = LinearModel::fit(
            LinearParams {
                iterations: 2000,
                learning_rate: 0.3,
                regularizer: Regularizer::None,
            },
            &data,
        )
        .unwrap();
        let mse = data
            .iter()
            .map(|p| (m.predict_value(&p.features) - p.label).powi(2))
            .sum::<f64>()
            / data.len() as f64;
        assert!(mse < 1e-3, "mse {mse}");
        assert!((m.weights[0] - 2.0).abs() < 0.1);
        assert!((m.weights[1] + 1.0).abs() < 0.1);
    }

    #[test]
    fn ridge_shrinks_weights() {
        let data = line_data(&[5.0], 0.0, 50);
        let plain = LinearModel::fit(
            LinearParams {
                iterations: 1000,
                learning_rate: 0.3,
                regularizer: Regularizer::None,
            },
            &data,
        )
        .unwrap();
        let ridge = LinearModel::fit(
            LinearParams {
                iterations: 1000,
                learning_rate: 0.3,
                regularizer: Regularizer::Ridge(1.0),
            },
            &data,
        )
        .unwrap();
        assert!(ridge.weights[0].abs() < plain.weights[0].abs());
    }

    #[test]
    fn lasso_zeroes_irrelevant_features() {
        // Second feature is pure noise with zero true weight.
        let data: Vec<LabeledPoint> = (0..100)
            .map(|i| {
                let x0 = f64::from(i % 10) / 10.0;
                let noise = f64::from((i * 7) % 10) / 10.0;
                LabeledPoint::new(vec![x0, noise], 3.0 * x0)
            })
            .collect();
        let m = LinearModel::fit(
            LinearParams {
                iterations: 2000,
                learning_rate: 0.2,
                regularizer: Regularizer::Lasso(0.02),
            },
            &data,
        )
        .unwrap();
        assert!(m.weights[0] > 1.0, "kept the real feature: {:?}", m.weights);
        assert!(
            m.weights[1].abs() < 0.05,
            "zeroed the noise feature: {:?}",
            m.weights
        );
    }

    #[test]
    fn soft_threshold_behaviour() {
        assert_eq!(soft_threshold(3.0, 1.0), 2.0);
        assert_eq!(soft_threshold(-3.0, 1.0), -2.0);
        assert_eq!(soft_threshold(0.5, 1.0), 0.0);
        assert_eq!(soft_threshold(-0.5, 1.0), 0.0);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(LinearModel::fit(LinearParams::default(), &[]).is_err());
        let data = line_data(&[1.0], 0.0, 5);
        assert!(LinearModel::fit(
            LinearParams {
                learning_rate: -1.0,
                ..LinearParams::default()
            },
            &data
        )
        .is_err());
        assert!(LinearModel::fit(
            LinearParams {
                regularizer: Regularizer::Lasso(-1.0),
                ..LinearParams::default()
            },
            &data
        )
        .is_err());
    }
}
