//! Online variants of the cheap learners, behind the [`OnlineModel`]
//! trait.
//!
//! Each learner consumes one [`LabeledPoint`] at a time
//! (`partial_fit`), scores points at any moment (`predict`, same ≥ 0.5
//! = malicious convention as the batch [`Model`](athena_ml::Model)
//! trait), and can `freeze` into the batch
//! [`TrainedModel`] representation — which is
//! what the retrain loop snapshots and hot-swaps into the detector.
//! All three are RNG-free and strictly sequential, so a fit over the
//! same point sequence is deterministic to the bit, independent of
//! `ATHENA_THREADS`.

use athena_ml::algorithms::kmeans::KMeansParams;
use athena_ml::{
    DenseVector, KMeansModel, LabeledPoint, NaiveBayesModel, ThresholdModel, TrainedModel,
};
use athena_types::{AthenaError, Result};

/// An incrementally-trainable detection model.
pub trait OnlineModel: Send {
    /// Consumes one labeled observation. Deterministic: the model
    /// state after a sequence of calls is a pure function of that
    /// sequence.
    fn partial_fit(&mut self, point: &LabeledPoint);

    /// Malicious score for `x` in `[0, 1]`; ≥ 0.5 means malicious,
    /// matching the batch `Model` convention. Deterministic, and total:
    /// models that have seen no data return 0.0 (benign).
    fn predict(&self, x: &[f64]) -> f64;

    /// Observations consumed so far.
    fn seen(&self) -> u64;

    /// Lowers the current state onto the batch [`TrainedModel`]
    /// representation for snapshotting and hot-swap.
    ///
    /// # Errors
    ///
    /// Returns [`AthenaError::Ml`] when the model has not seen enough
    /// data to produce a meaningful classifier (e.g. a single class).
    fn freeze(&self) -> Result<TrainedModel>;

    /// Human-readable description of the learner and its state.
    fn describe(&self) -> String;
}

/// Which online learner a [`StreamConfig`](crate::StreamConfig) deploys.
#[derive(Debug, Clone, PartialEq)]
pub enum OnlineSpec {
    /// MacQueen sequential k-means with majority-labeled clusters.
    SequentialKMeans {
        /// Number of clusters.
        k: usize,
    },
    /// Streaming quantile of one feature over benign traffic; flags
    /// points above the learned threshold.
    Quantile {
        /// Index of the watched feature in the preprocessed vector.
        feature: usize,
        /// Quantile of benign samples used as the threshold (e.g. 0.99).
        q: f64,
    },
    /// Incremental Gaussian naive Bayes (Welford per-class moments).
    NaiveBayes,
}

impl OnlineSpec {
    /// Builds a fresh, empty learner for this spec.
    pub fn build(&self) -> Box<dyn OnlineModel> {
        match self {
            OnlineSpec::SequentialKMeans { k } => Box::new(SequentialKMeans::new(*k)),
            OnlineSpec::Quantile { feature, q } => Box::new(StreamingQuantile::new(*feature, *q)),
            OnlineSpec::NaiveBayes => Box::new(IncrementalNaiveBayes::new()),
        }
    }

    /// Short algorithm tag recorded on deployed models.
    pub fn tag(&self) -> &'static str {
        match self {
            OnlineSpec::SequentialKMeans { .. } => "online-kmeans",
            OnlineSpec::Quantile { .. } => "online-quantile",
            OnlineSpec::NaiveBayes => "online-naive-bayes",
        }
    }
}

/// MacQueen's sequential k-means: the first `k` distinct points seed
/// the centroids; each later point moves its nearest centroid by
/// `(x - c) / n`. Per-cluster benign/malicious tallies label clusters
/// by majority, exactly like the batch `flag_clusters` step.
#[derive(Debug, Clone)]
pub struct SequentialKMeans {
    k: usize,
    centroids: Vec<Vec<f64>>,
    counts: Vec<u64>,
    benign: Vec<u64>,
    malicious: Vec<u64>,
    /// Running sum of squared distances at assignment time — a cheap
    /// online stand-in for the batch inertia, recorded on freeze.
    cost: f64,
    seen: u64,
}

impl SequentialKMeans {
    /// An empty learner targeting `k` clusters (floored at 1).
    pub fn new(k: usize) -> Self {
        SequentialKMeans {
            k: k.max(1),
            centroids: Vec::new(),
            counts: Vec::new(),
            benign: Vec::new(),
            malicious: Vec::new(),
            cost: 0.0,
            seen: 0,
        }
    }

    /// Index of the centroid nearest to `x` (ties break to the lowest
    /// index), or `None` before any centroid exists.
    fn nearest(&self, x: &[f64]) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (i, c) in self.centroids.iter().enumerate() {
            let mut d = 0.0;
            for (ci, xi) in c.iter().zip(x) {
                let diff = xi - ci;
                d += diff * diff;
            }
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((i, d));
            }
        }
        best
    }

    fn tally(&mut self, cluster: usize, label_malicious: bool) {
        if label_malicious {
            if let Some(m) = self.malicious.get_mut(cluster) {
                *m += 1;
            }
        } else if let Some(b) = self.benign.get_mut(cluster) {
            *b += 1;
        }
    }
}

impl OnlineModel for SequentialKMeans {
    fn partial_fit(&mut self, point: &LabeledPoint) {
        if point.features.is_empty() {
            return;
        }
        self.seen += 1;
        let malicious = point.is_malicious();
        if self.centroids.len() < self.k {
            self.centroids.push(point.features.clone());
            self.counts.push(1);
            self.benign.push(0);
            self.malicious.push(0);
            let cluster = self.centroids.len() - 1;
            self.tally(cluster, malicious);
            return;
        }
        if let Some((i, d)) = self.nearest(&point.features) {
            self.cost += d;
            if let Some(n) = self.counts.get_mut(i) {
                *n += 1;
                let inv = 1.0 / (*n as f64);
                if let Some(c) = self.centroids.get_mut(i) {
                    for (ci, xi) in c.iter_mut().zip(&point.features) {
                        *ci += (xi - *ci) * inv;
                    }
                }
            }
            self.tally(i, malicious);
        }
    }

    fn predict(&self, x: &[f64]) -> f64 {
        match self.nearest(x) {
            Some((i, _)) => {
                let m = self.malicious.get(i).copied().unwrap_or(0);
                let b = self.benign.get(i).copied().unwrap_or(0);
                if m > b {
                    1.0
                } else {
                    0.0
                }
            }
            None => 0.0,
        }
    }

    fn seen(&self) -> u64 {
        self.seen
    }

    fn freeze(&self) -> Result<TrainedModel> {
        if self.centroids.is_empty() {
            return Err(AthenaError::Ml(
                "sequential k-means has no centroids to freeze".into(),
            ));
        }
        let flagged: Vec<bool> = self
            .malicious
            .iter()
            .zip(&self.benign)
            .map(|(m, b)| m > b)
            .collect();
        let model = KMeansModel {
            centroids: self
                .centroids
                .iter()
                .map(|c| DenseVector(c.clone()))
                .collect(),
            cost: self.cost,
            params: KMeansParams {
                k: self.centroids.len(),
                ..KMeansParams::default()
            },
        };
        Ok(TrainedModel::KMeans { model, flagged })
    }

    fn describe(&self) -> String {
        format!(
            "sequential k-means (k={}, {} centroids, {} points)",
            self.k,
            self.centroids.len(),
            self.seen
        )
    }
}

/// How many order statistics [`StreamingQuantile`] retains before it
/// deterministically decimates every other one.
const QUANTILE_CAPACITY: usize = 2048;

/// Streaming quantile/threshold detection: learns the `q`-quantile of
/// one feature over *benign*-labeled samples and flags anything above
/// it. The sketch is a bounded sorted buffer with deterministic
/// decimation — no randomness, so identical sequences produce identical
/// thresholds.
#[derive(Debug, Clone)]
pub struct StreamingQuantile {
    feature: usize,
    q: f64,
    sorted: Vec<f64>,
    seen: u64,
}

impl StreamingQuantile {
    /// An empty learner over preprocessed-feature index `feature` with
    /// quantile `q` (clamped to `[0, 1]`).
    pub fn new(feature: usize, q: f64) -> Self {
        StreamingQuantile {
            feature,
            q: q.clamp(0.0, 1.0),
            sorted: Vec::new(),
            seen: 0,
        }
    }

    /// The current threshold: the `q`-quantile of the retained benign
    /// samples, or `None` before any benign sample arrived.
    pub fn threshold(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let rank = (self.q * (self.sorted.len() - 1) as f64).round() as usize;
        self.sorted.get(rank.min(self.sorted.len() - 1)).copied()
    }
}

impl OnlineModel for StreamingQuantile {
    fn partial_fit(&mut self, point: &LabeledPoint) {
        self.seen += 1;
        if point.is_malicious() {
            return; // the threshold models benign traffic only
        }
        let Some(v) = point.features.get(self.feature).copied() else {
            return;
        };
        if v.is_nan() {
            return;
        }
        let at = match self.sorted.binary_search_by(|p| p.total_cmp(&v)) {
            Ok(i) | Err(i) => i,
        };
        self.sorted.insert(at, v);
        if self.sorted.len() > QUANTILE_CAPACITY {
            // Deterministic compaction: keep every other sample plus
            // the extreme tail, halving memory while preserving the
            // distribution's shape.
            let last = self.sorted.len() - 1;
            let mut i = 0;
            self.sorted.retain(|_| {
                let keep = i % 2 == 0 || i == last;
                i += 1;
                keep
            });
        }
    }

    fn predict(&self, x: &[f64]) -> f64 {
        let (Some(t), Some(v)) = (self.threshold(), x.get(self.feature)) else {
            return 0.0;
        };
        if *v > t {
            1.0
        } else {
            0.0
        }
    }

    fn seen(&self) -> u64 {
        self.seen
    }

    fn freeze(&self) -> Result<TrainedModel> {
        let Some(t) = self.threshold() else {
            return Err(AthenaError::Ml(
                "streaming quantile saw no benign samples to freeze".into(),
            ));
        };
        Ok(TrainedModel::Threshold(ThresholdModel::above(
            self.feature,
            t,
        )))
    }

    fn describe(&self) -> String {
        format!(
            "streaming quantile (feature {}, q={}, {} retained, threshold {:?})",
            self.feature,
            self.q,
            self.sorted.len(),
            self.threshold()
        )
    }
}

/// One class's Welford accumulator: count, running mean, and running
/// sum of squared deviations (`m2`), per dimension.
#[derive(Debug, Clone, Default)]
struct ClassMoments {
    count: u64,
    mean: Vec<f64>,
    m2: Vec<f64>,
}

impl ClassMoments {
    fn update(&mut self, x: &[f64]) {
        if self.count == 0 {
            self.mean = x.to_vec();
            self.m2 = vec![0.0; x.len()];
            self.count = 1;
            return;
        }
        self.count += 1;
        let inv = 1.0 / (self.count as f64);
        for ((m, s), xi) in self.mean.iter_mut().zip(self.m2.iter_mut()).zip(x) {
            let d1 = xi - *m;
            *m += d1 * inv;
            let d2 = xi - *m;
            *s += d1 * d2;
        }
    }

    /// Population variance per dimension (matches the batch fitter's
    /// `/ n` convention).
    fn variance(&self) -> Vec<f64> {
        if self.count == 0 {
            return Vec::new();
        }
        let inv = 1.0 / (self.count as f64);
        self.m2.iter().map(|s| s * inv).collect()
    }

    fn log_likelihood(&self, x: &[f64], log_prior: f64) -> f64 {
        let inv = 1.0 / (self.count as f64);
        let mut acc = log_prior;
        for ((xi, mi), s) in x.iter().zip(&self.mean).zip(&self.m2) {
            let v = (s * inv).max(1e-9);
            acc += -0.5 * ((xi - mi) * (xi - mi) / v + v.ln());
        }
        acc
    }
}

/// Incremental Gaussian naive Bayes: per-class Welford moments updated
/// one point at a time; freezes into the batch [`NaiveBayesModel`] via
/// [`NaiveBayesModel::from_moments`].
#[derive(Debug, Clone, Default)]
pub struct IncrementalNaiveBayes {
    benign: ClassMoments,
    malicious: ClassMoments,
}

impl IncrementalNaiveBayes {
    /// An empty learner.
    pub fn new() -> Self {
        IncrementalNaiveBayes::default()
    }
}

impl OnlineModel for IncrementalNaiveBayes {
    fn partial_fit(&mut self, point: &LabeledPoint) {
        if point.features.is_empty() {
            return;
        }
        if point.is_malicious() {
            self.malicious.update(&point.features);
        } else {
            self.benign.update(&point.features);
        }
    }

    fn predict(&self, x: &[f64]) -> f64 {
        if self.benign.count == 0 || self.malicious.count == 0 {
            return 0.0; // one-class models abstain (benign)
        }
        let n = (self.benign.count + self.malicious.count) as f64;
        let lp = self
            .malicious
            .log_likelihood(x, (self.malicious.count as f64 / n).ln());
        let ln = self
            .benign
            .log_likelihood(x, (self.benign.count as f64 / n).ln());
        let max = lp.max(ln);
        let ep = (lp - max).exp();
        let en = (ln - max).exp();
        ep / (ep + en)
    }

    fn seen(&self) -> u64 {
        self.benign.count + self.malicious.count
    }

    fn freeze(&self) -> Result<TrainedModel> {
        let model = NaiveBayesModel::from_moments(
            (
                self.benign.count,
                self.benign.mean.clone(),
                self.benign.variance(),
            ),
            (
                self.malicious.count,
                self.malicious.mean.clone(),
                self.malicious.variance(),
            ),
        )?;
        Ok(TrainedModel::NaiveBayes(model))
    }

    fn describe(&self) -> String {
        format!(
            "incremental naive bayes ({} benign, {} malicious)",
            self.benign.count, self.malicious.count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use athena_ml::Model;

    fn blob(center: f64, label: f64, n: usize) -> Vec<LabeledPoint> {
        (0..n)
            .map(|i| LabeledPoint::new(vec![center + (i as f64) * 0.01, center], label))
            .collect()
    }

    #[test]
    fn sequential_kmeans_separates_blobs_and_freezes() {
        let mut m = SequentialKMeans::new(2);
        for p in blob(0.0, 0.0, 50).iter().chain(blob(5.0, 1.0, 50).iter()) {
            m.partial_fit(p);
        }
        assert!(m.predict(&[5.0, 5.0]) >= 0.5);
        assert!(m.predict(&[0.0, 0.0]) < 0.5);
        let frozen = m.freeze().unwrap();
        assert!(frozen.predict(&[5.1, 5.0]) >= 0.5);
        assert!(frozen.predict(&[0.1, 0.0]) < 0.5);
    }

    #[test]
    fn quantile_learns_benign_tail() {
        let mut m = StreamingQuantile::new(0, 0.95);
        for p in blob(0.0, 0.0, 100) {
            m.partial_fit(&p);
        }
        // Malicious samples must not move the threshold.
        for p in blob(50.0, 1.0, 100) {
            m.partial_fit(&p);
        }
        assert!(m.predict(&[10.0]) >= 0.5);
        assert!(m.predict(&[0.0]) < 0.5);
        let frozen = m.freeze().unwrap();
        assert!(frozen.predict(&[10.0]) >= 0.5);
    }

    #[test]
    fn quantile_compaction_is_bounded_and_deterministic() {
        let mk = || {
            let mut m = StreamingQuantile::new(0, 0.99);
            for i in 0..10_000 {
                m.partial_fit(&LabeledPoint::new(vec![(i % 997) as f64], 0.0));
            }
            m
        };
        let (a, b) = (mk(), mk());
        assert!(a.sorted.len() <= QUANTILE_CAPACITY);
        assert_eq!(
            a.threshold().map(f64::to_bits),
            b.threshold().map(f64::to_bits)
        );
    }

    #[test]
    fn incremental_nb_matches_batch_fit_closely() {
        let data: Vec<LabeledPoint> = blob(0.0, 0.0, 60)
            .into_iter()
            .chain(blob(4.0, 1.0, 60))
            .collect();
        let mut online = IncrementalNaiveBayes::new();
        for p in &data {
            online.partial_fit(p);
        }
        let batch = NaiveBayesModel::fit(&data).unwrap();
        for p in &data {
            let a = online.predict(&p.features);
            let b = batch.predict_proba(&p.features);
            assert!((a - b).abs() < 1e-6, "online {a} vs batch {b}");
        }
        let frozen = online.freeze().unwrap();
        assert!(frozen.predict(&[4.0, 4.0]) >= 0.5);
        assert!(frozen.predict(&[0.0, 0.0]) < 0.5);
    }

    #[test]
    fn empty_models_abstain_and_refuse_to_freeze() {
        for spec in [
            OnlineSpec::SequentialKMeans { k: 4 },
            OnlineSpec::Quantile {
                feature: 0,
                q: 0.99,
            },
            OnlineSpec::NaiveBayes,
        ] {
            let m = spec.build();
            assert_eq!(m.predict(&[1.0, 2.0]), 0.0);
            assert!(m.freeze().is_err(), "{} froze empty", m.describe());
        }
    }
}
