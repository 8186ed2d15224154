//! Minimal dense linear algebra for the ML algorithms.

use serde::{Deserialize, Serialize};
use std::ops::{Deref, DerefMut};

/// A dense `f64` vector with the handful of operations the algorithms use.
///
/// # Examples
///
/// ```
/// use athena_ml::DenseVector;
/// let a = DenseVector::from(vec![1.0, 2.0]);
/// let b = DenseVector::from(vec![3.0, 4.0]);
/// assert_eq!(a.dot(&b), 11.0);
/// assert!((a.squared_distance(&b) - 8.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct DenseVector(pub Vec<f64>);

impl DenseVector {
    /// The zero vector of dimension `dim`.
    pub fn zeros(dim: usize) -> Self {
        DenseVector(vec![0.0; dim])
    }

    /// The dimension.
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// Dot product.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn dot(&self, other: &DenseVector) -> f64 {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        self.0.iter().zip(&other.0).map(|(a, b)| a * b).sum()
    }

    /// Dot product against a plain slice.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn dot_slice(&self, other: &[f64]) -> f64 {
        assert_eq!(self.dim(), other.len(), "dimension mismatch");
        self.0.iter().zip(other).map(|(a, b)| a * b).sum()
    }

    /// Adds `scale * other` in place.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn axpy(&mut self, scale: f64, other: &[f64]) {
        assert_eq!(self.dim(), other.len(), "dimension mismatch");
        for (a, b) in self.0.iter_mut().zip(other) {
            *a += scale * b;
        }
    }

    /// Multiplies every component by `s` in place.
    pub fn scale(&mut self, s: f64) {
        for a in &mut self.0 {
            *a *= s;
        }
    }

    /// Squared Euclidean distance to a slice.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn squared_distance(&self, other: &[f64]) -> f64 {
        assert_eq!(self.dim(), other.len(), "dimension mismatch");
        self.0
            .iter()
            .zip(other)
            .map(|(a, b)| (a - b) * (a - b))
            .sum()
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.0.iter().map(|a| a * a).sum::<f64>().sqrt()
    }
}

impl From<Vec<f64>> for DenseVector {
    fn from(v: Vec<f64>) -> Self {
        DenseVector(v)
    }
}

impl Deref for DenseVector {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        &self.0
    }
}

impl DerefMut for DenseVector {
    fn deref_mut(&mut self) -> &mut [f64] {
        &mut self.0
    }
}

/// Squared Euclidean distance between two slices.
///
/// # Panics
///
/// Panics if dimensions differ.
pub fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Numerically-stable logistic sigmoid.
pub fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        let v = DenseVector::from(vec![3.0, 4.0]);
        assert_eq!(v.norm(), 5.0);
        assert_eq!(v.dot(&v), 25.0);
        assert_eq!(v.dot_slice(&[1.0, 1.0]), 7.0);
    }

    #[test]
    fn axpy_and_scale() {
        let mut v = DenseVector::zeros(3);
        v.axpy(2.0, &[1.0, 2.0, 3.0]);
        assert_eq!(v.0, vec![2.0, 4.0, 6.0]);
        v.scale(0.5);
        assert_eq!(v.0, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dot_rejects_mismatched_dims() {
        let _ = DenseVector::zeros(2).dot(&DenseVector::zeros(3));
    }

    #[test]
    fn sigmoid_is_stable_and_symmetric() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(100.0) > 0.999_999);
        assert!(sigmoid(-100.0) < 1e-6);
        assert!(sigmoid(-1000.0) >= 0.0); // no NaN/underflow panic
        assert!((sigmoid(2.0) + sigmoid(-2.0) - 1.0).abs() < 1e-12);
    }
}
