//! Logistic regression with full-batch gradient descent and L2
//! regularization.

use crate::data::LabeledPoint;
use crate::linalg::{sigmoid, DenseVector};
use athena_types::{AthenaError, Result};
use serde::{Deserialize, Serialize};

/// Logistic-regression hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogisticParams {
    /// Gradient-descent iterations.
    pub iterations: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// L2 regularization strength.
    pub l2: f64,
}

impl Default for LogisticParams {
    fn default() -> Self {
        LogisticParams {
            iterations: 100,
            learning_rate: 0.5,
            l2: 1e-4,
        }
    }
}

/// A fitted logistic-regression model.
///
/// # Examples
///
/// ```
/// use athena_ml::{LabeledPoint, LogisticModel};
/// use athena_ml::algorithms::logistic::LogisticParams;
///
/// let data: Vec<LabeledPoint> = (0..40)
///     .map(|i| {
///         let x = f64::from(i) / 10.0;
///         LabeledPoint::new(vec![x], f64::from(u8::from(x > 2.0)))
///     })
///     .collect();
/// let m = LogisticModel::fit(LogisticParams::default(), &data)?;
/// assert!(m.predict_proba(&[4.0]) > 0.5);
/// assert!(m.predict_proba(&[0.0]) < 0.5);
/// # Ok::<(), athena_types::AthenaError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogisticModel {
    /// Feature weights.
    pub weights: DenseVector,
    /// Intercept.
    pub bias: f64,
    /// The parameters used.
    pub params: LogisticParams,
}

impl LogisticModel {
    /// Fits by full-batch gradient descent.
    ///
    /// # Errors
    ///
    /// Returns [`AthenaError::Ml`] for empty or ragged data.
    pub fn fit(params: LogisticParams, data: &[LabeledPoint]) -> Result<Self> {
        let dim = crate::data::check_dims(data)?;
        validate(&params)?;
        let mut w = DenseVector::zeros(dim);
        let mut b = 0.0;
        let n = data.len() as f64;
        for _ in 0..params.iterations {
            let mut grad_w = DenseVector::zeros(dim);
            let mut grad_b = 0.0;
            for p in data {
                let err = sigmoid(w.dot_slice(&p.features) + b) - p.label;
                grad_w.axpy(err / n, &p.features);
                grad_b += err / n;
            }
            grad_w.axpy(params.l2, &w);
            w.axpy(-params.learning_rate, &grad_w);
            b -= params.learning_rate * grad_b;
        }
        Ok(LogisticModel {
            weights: w,
            bias: b,
            params,
        })
    }

    /// Probability that `x` is malicious.
    pub fn predict_proba(&self, x: &[f64]) -> f64 {
        sigmoid(self.weights.dot_slice(x) + self.bias)
    }
}

fn validate(params: &LogisticParams) -> Result<()> {
    if params.learning_rate <= 0.0 || !params.learning_rate.is_finite() {
        return Err(AthenaError::Ml("learning rate must be positive".into()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::test_data::{accuracy, blobs};

    #[test]
    fn high_accuracy_on_separable_blobs() {
        let data = blobs(120, 3, 23);
        let m = LogisticModel::fit(LogisticParams::default(), &data).unwrap();
        assert!(accuracy(&data, |x| m.predict_proba(x)) > 0.98);
    }

    #[test]
    fn rejects_bad_params_and_data() {
        assert!(LogisticModel::fit(LogisticParams::default(), &[]).is_err());
        let data = blobs(5, 2, 1);
        assert!(LogisticModel::fit(
            LogisticParams {
                learning_rate: 0.0,
                ..LogisticParams::default()
            },
            &data
        )
        .is_err());
    }
}
