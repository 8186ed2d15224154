//! K-Means clustering with k-means++ seeding and multiple runs.
//!
//! This is the algorithm the paper's flagship DDoS detector uses
//! (Figure 6: `K(8), Iterations(20), Runs(5), InitializedMode(k-means||)`).
//!
//! The restarts are independent, so a fit runs them as one ordered map
//! ([`athena_parallel::par_map_indexed`], at `ATHENA_THREADS`), each with
//! its own RNG (`seed + run`), k-means++ seeding and buffers, and keeps
//! the first run of lowest cost in run order: the same model, bit for
//! bit, at every width, as Spark's executors give the paper's `Runs(5)`.

use crate::data::LabeledPoint;
use crate::linalg::{squared_distance, DenseVector};
use athena_types::{AthenaError, Result};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// K-Means hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KMeansParams {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations per run.
    pub max_iterations: usize,
    /// Independent restarts; the lowest-cost run wins.
    pub runs: usize,
    /// Convergence threshold on total centroid movement.
    pub epsilon: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for KMeansParams {
    fn default() -> Self {
        KMeansParams {
            k: 8,
            max_iterations: 20,
            runs: 5,
            epsilon: 1e-4,
            seed: 42,
        }
    }
}

/// A fitted K-Means model: the centroids and the final cost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KMeansModel {
    /// Cluster centroids.
    pub centroids: Vec<DenseVector>,
    /// The training cost: the sum of squared distances from each point
    /// to its nearest centroid in the run's last assignment pass, taken
    /// at the centroids *before* that pass's mean update (so not quite
    /// [`compute_cost`](Self::compute_cost) at `centroids`). The run with
    /// the lowest such cost is the one kept.
    pub cost: f64,
    /// The parameters used.
    pub params: KMeansParams,
}

impl KMeansModel {
    /// Fits K-Means on an in-memory slice.
    ///
    /// Each run is Lloyd's algorithm with Hamerly's bounds: the same
    /// assignments, centroids, cost and pass count as the plain loop, bit
    /// for bit, with most points' distance scans skipped.
    ///
    /// # Errors
    ///
    /// Returns [`AthenaError::Ml`] for an empty/ragged set or `k == 0`.
    pub fn fit(params: KMeansParams, data: &[LabeledPoint]) -> Result<Self> {
        fit_counted(params, data).map(|(model, _)| model)
    }

    /// Index of the nearest centroid.
    pub fn cluster_of(&self, x: &[f64]) -> usize {
        nearest(&self.centroids, x).0
    }

    /// Squared distance to the nearest centroid (an anomaly score).
    fn distance_to_nearest(&self, x: &[f64]) -> f64 {
        nearest(&self.centroids, x).1
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Total within-cluster sum of squared distances over `data`.
    pub fn compute_cost(&self, data: &[LabeledPoint]) -> f64 {
        data.iter()
            .map(|p| self.distance_to_nearest(&p.features))
            .sum()
    }
}

/// k-means++ seeding (the serial analogue of k-means||).
fn plus_plus_init(points: &[&[f64]], k: usize, rng: &mut StdRng) -> Vec<DenseVector> {
    let first = points[rng.random_range(0..points.len())];
    let mut centroids = vec![DenseVector(first.to_vec())];
    let mut d2: Vec<f64> = points.iter().map(|p| squared_distance(p, first)).collect();
    while centroids.len() < k.min(points.len()) {
        let total: f64 = d2.iter().sum();
        let next = if total <= f64::EPSILON {
            points[rng.random_range(0..points.len())]
        } else {
            let mut target = rng.random_range(0.0..total);
            let mut chosen = points[points.len() - 1];
            for (p, w) in points.iter().zip(&d2) {
                if target < *w {
                    chosen = p;
                    break;
                }
                target -= w;
            }
            chosen
        };
        centroids.push(DenseVector(next.to_vec()));
        for (p, w) in points.iter().zip(d2.iter_mut()) {
            *w = w.min(squared_distance(p, next));
        }
    }
    // If k > distinct points, pad with copies so cluster_of stays in range.
    while centroids.len() < k {
        centroids.push(centroids[0].clone());
    }
    centroids
}

fn nearest(centroids: &[DenseVector], x: &[f64]) -> (usize, f64) {
    let (i, d, _) = scan(centroids, x, None);
    (i, d)
}

/// The one nearest-centroid loop (strict `<`, so a tie goes to the
/// lowest index). `known`, if given, is a centroid index and its squared
/// distance to `x`, already computed and reused. Returns the nearest
/// index, its squared distance and the smallest squared distance to any
/// other centroid.
fn scan(centroids: &[DenseVector], x: &[f64], known: Option<(usize, f64)>) -> (usize, f64, f64) {
    let mut best = (0usize, f64::INFINITY);
    let mut second = f64::INFINITY;
    for (i, c) in centroids.iter().enumerate() {
        let d = match known {
            Some((k, d)) if k == i => d,
            _ => c.squared_distance(x),
        };
        if d < best.1 {
            second = best.1;
            best = (i, d);
        } else if d < second {
            second = d;
        }
    }
    (best.0, best.1, second)
}

/// Moves centroids to their cluster means and writes how far each one
/// moved into `drift` (0 for an empty cluster, which keeps its
/// centroid); returns the total movement. A mean is formed in its sum's
/// buffer and swapped in, so `sums` ends up holding the old centroids.
fn update_centroids(
    centroids: &mut [DenseVector],
    sums: &mut [DenseVector],
    counts: &[usize],
    drift: &mut [f64],
) -> f64 {
    let mut movement = 0.0;
    for (((c, s), n), m) in centroids.iter_mut().zip(sums).zip(counts).zip(drift) {
        *m = 0.0;
        if *n == 0 {
            continue;
        }
        s.scale(1.0 / *n as f64);
        *m = c.squared_distance(s).sqrt();
        movement += *m;
        std::mem::swap(c, s);
    }
    movement
}

/// The relative slack that keeps every bound test on the safe side of
/// rounding, so a skipped scan is one whose outcome is certain.
///
/// A squared distance over `dim` coordinates is `dim` rounded
/// differences, `dim` rounded squares and `dim − 1` rounded additions of
/// non-negative terms, so the computed value is within a factor
/// `1 ± γ` of the exact one, `γ = (dim + 2)·u / (1 − (dim + 2)·u)` with
/// `u = 2⁻⁵³` (the recursive-summation bound). Its `sqrt` halves that and
/// adds one `u`; a bound update (two products and a difference) adds
/// three more. At `dim = 10` all of it is below `10 u ≈ 1.1e-15`.
/// `SLACK = 1e-9` is ≈ `9·10⁶ u`, above that error for any `dim` under a
/// million. So a lower bound shrunk by `1 − SLACK` and a drift grown by
/// `1 + SLACK` bound the exact distances they stand for, and the skip
/// test, which scales each side by `SLACK` once more, passes only when
/// every other centroid is farther than the assigned one by a relative
/// margin far above the rounding of the computed distances: `nearest`'s
/// strict `<` would have picked the assigned index. The argument is
/// relative, so it needs distances between ≈ 1e-150 and ≈ 1e150, where
/// no squared term underflows or overflows. A larger value only skips
/// fewer scans; one below the error could break exactness. It is not a
/// tuning parameter.
const SLACK: f64 = 1e-9;

/// What a fit did, counted: the clock-free measure of its cost.
#[derive(Debug, Default)]
struct Work {
    /// Assignment passes, summed over runs.
    passes: usize,
    /// Points whose pass scanned every centroid, summed over passes.
    full_scans: usize,
}

/// [`KMeansModel::fit`], also returning the work it did.
fn fit_counted(params: KMeansParams, data: &[LabeledPoint]) -> Result<(KMeansModel, Work)> {
    let dim = crate::data::check_dims(data)?;
    if params.k == 0 {
        return Err(AthenaError::Ml("k must be positive".into()));
    }
    let points: Vec<&[f64]> = data.iter().map(|p| p.features.as_slice()).collect();
    // The runs are independent: one ordered map, then a fold in run
    // order, so the lowest-index run wins a tie at any width.
    let runs = athena_parallel::par_map_indexed(params.runs.max(1), |run| {
        let mut rng = StdRng::seed_from_u64(params.seed.wrapping_add(run as u64));
        let mut centroids = plus_plus_init(&points, params.k, &mut rng);
        let mut work = Work::default();
        let mut lloyd = BoundedLloyd::new(points.len(), params.k, dim);
        let cost = lloyd.run(&points, &mut centroids, &params, &mut work);
        (centroids, cost, work)
    });
    let mut work = Work::default();
    let mut best: Option<(Vec<DenseVector>, f64)> = None;
    for (centroids, cost, run_work) in runs {
        work.passes += run_work.passes;
        work.full_scans += run_work.full_scans;
        if best.as_ref().is_none_or(|(_, c)| cost < *c) {
            best = Some((centroids, cost));
        }
    }
    let (centroids, cost) = best.expect("at least one run");
    Ok((
        KMeansModel {
            centroids,
            cost,
            params,
        },
        work,
    ))
}

/// Lloyd's algorithm with Hamerly's bounds ("Making k-means even
/// faster", 2010), exact to the bit. Per point it keeps the assigned
/// centroid and a lower bound on the distance to every other one. A
/// pass computes the exact distance to the assigned centroid (the cost
/// needs it anyway) and scans the rest only when that distance is not
/// clearly below both the point's bound and half the gap from its
/// centroid to the nearest other centroid. Sums are rebuilt from scratch
/// each pass, points in index order, so the means are the plain loop's.
/// The buffers live for one run and serve every pass of it.
struct BoundedLloyd {
    /// Each point's centroid.
    assigned: Vec<usize>,
    /// Per point, a lower bound on its distance to every other centroid.
    lower: Vec<f64>,
    /// Per centroid, half the distance to its nearest other centroid.
    half_gap: Vec<f64>,
    /// Per centroid, the sum of its points this pass.
    sums: Vec<DenseVector>,
    /// Per centroid, the number of its points this pass.
    counts: Vec<usize>,
    /// Per centroid, how far the last update moved it.
    drift: Vec<f64>,
}

impl BoundedLloyd {
    fn new(n: usize, k: usize, dim: usize) -> Self {
        BoundedLloyd {
            assigned: vec![0; n],
            lower: vec![0.0; n],
            half_gap: vec![0.0; k],
            sums: vec![DenseVector::zeros(dim); k],
            counts: vec![0; k],
            drift: vec![0.0; k],
        }
    }

    /// One run from `centroids` (moved in place); returns its cost.
    fn run(
        &mut self,
        points: &[&[f64]],
        centroids: &mut [DenseVector],
        params: &KMeansParams,
        work: &mut Work,
    ) -> f64 {
        // Every point starts on centroid 0 with the trivial bound: only
        // the half-gap test can skip, and it holds for any assignment.
        self.assigned.fill(0);
        self.lower.fill(0.0);
        let mut cost = f64::INFINITY;
        for _ in 0..params.max_iterations {
            work.passes += 1;
            self.measure_gaps(centroids);
            for s in &mut self.sums {
                s.fill(0.0);
            }
            self.counts.fill(0);
            let mut pass_cost = 0.0;
            for (i, p) in points.iter().enumerate() {
                let mut a = self.assigned[i];
                let mut d = centroids[a].squared_distance(p);
                let bound = self.lower[i].max(self.half_gap[a]);
                let certain = d.sqrt() * (1.0 + SLACK) < bound * (1.0 - SLACK);
                if !certain {
                    work.full_scans += 1;
                    let (closest, d_closest, d_second) = scan(centroids, p, Some((a, d)));
                    (a, d) = (closest, d_closest);
                    self.assigned[i] = a;
                    self.lower[i] = d_second.sqrt();
                }
                self.sums[a].axpy(1.0, p);
                self.counts[a] += 1;
                pass_cost += d;
            }
            let movement =
                update_centroids(centroids, &mut self.sums, &self.counts, &mut self.drift);
            cost = pass_cost;
            if movement < params.epsilon {
                break;
            }
            self.loosen();
        }
        cost
    }

    /// Half the distance from each centroid to its nearest other one.
    fn measure_gaps(&mut self, centroids: &[DenseVector]) {
        self.half_gap.fill(f64::INFINITY);
        for (a, ca) in centroids.iter().enumerate() {
            for (b, cb) in centroids.iter().enumerate().skip(a + 1) {
                let half = ca.squared_distance(cb).sqrt() / 2.0;
                self.half_gap[a] = self.half_gap[a].min(half);
                self.half_gap[b] = self.half_gap[b].min(half);
            }
        }
    }

    /// After an update, a point's distance to any centroid but its own
    /// fell by at most the largest drift among those others.
    fn loosen(&mut self) {
        let (mut top, mut top_at, mut next) = (0.0, usize::MAX, 0.0);
        for (j, &m) in self.drift.iter().enumerate() {
            if m > top {
                (next, top, top_at) = (top, m, j);
            } else if m > next {
                next = m;
            }
        }
        for (lower, &a) in self.lower.iter_mut().zip(&self.assigned) {
            let others = if a == top_at { next } else { top };
            *lower = *lower * (1.0 - SLACK) - others * (1.0 + SLACK);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::test_data::blobs;
    use proptest::prelude::*;

    /// Assigns points to centroids, returning per-centroid sums, counts, and
    /// the total cost.
    fn assign_and_sum(
        points: &[&[f64]],
        centroids: &[DenseVector],
        dim: usize,
    ) -> (Vec<DenseVector>, Vec<usize>, f64) {
        let mut sums = vec![DenseVector::zeros(dim); centroids.len()];
        let mut counts = vec![0usize; centroids.len()];
        let mut cost = 0.0;
        for p in points {
            let (i, d) = nearest(centroids, p);
            sums[i].axpy(1.0, p);
            counts[i] += 1;
            cost += d;
        }
        (sums, counts, cost)
    }

    /// The plain Lloyd loop `fit` ran before the bounds, kept as the
    /// oracle. Returns the model and its assignment passes over all runs.
    fn lloyd_fit(params: KMeansParams, data: &[LabeledPoint]) -> (KMeansModel, usize) {
        let dim = crate::data::check_dims(data).unwrap();
        let points: Vec<&[f64]> = data.iter().map(|p| p.features.as_slice()).collect();
        let mut passes = 0;
        let mut best: Option<(Vec<DenseVector>, f64)> = None;
        for run in 0..params.runs.max(1) {
            let mut rng = StdRng::seed_from_u64(params.seed.wrapping_add(run as u64));
            let mut centroids = plus_plus_init(&points, params.k, &mut rng);
            let mut cost = f64::INFINITY;
            for _ in 0..params.max_iterations {
                passes += 1;
                let (sums, counts, new_cost) = assign_and_sum(&points, &centroids, dim);
                let mut movement = 0.0;
                for ((c, s), n) in centroids.iter_mut().zip(&sums).zip(&counts) {
                    if *n == 0 {
                        continue;
                    }
                    let mut new = s.clone();
                    new.scale(1.0 / *n as f64);
                    movement += c.squared_distance(&new).sqrt();
                    *c = new;
                }
                cost = new_cost;
                if movement < params.epsilon {
                    break;
                }
            }
            if best.as_ref().is_none_or(|(_, c)| cost < *c) {
                best = Some((centroids, cost));
            }
        }
        let (centroids, cost) = best.unwrap();
        (
            KMeansModel {
                centroids,
                cost,
                params,
            },
            passes,
        )
    }

    fn bits(model: &KMeansModel) -> Vec<Vec<u64>> {
        model
            .centroids
            .iter()
            .map(|c| c.iter().map(|x| x.to_bits()).collect())
            .collect()
    }

    /// A data set and parameters drawn from `seed`: continuous clusters,
    /// an integer grid (duplicates and exact distance ties), or a handful
    /// of distinct points with `k` above their number (coinciding
    /// padded centroids, a half-gap of 0).
    fn oracle_case(seed: u64) -> (KMeansParams, Vec<LabeledPoint>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = rng.random_range(1..=12usize);
        let n = rng.random_range(1..=240usize);
        let shape = rng.random_range(0..3u32);
        let mut k = rng.random_range(1..=10usize);
        let data: Vec<LabeledPoint> = match shape {
            0 => {
                let centres: Vec<Vec<f64>> = (0..rng.random_range(1..=6))
                    .map(|_| (0..dim).map(|_| rng.random_range(-10.0..10.0)).collect())
                    .collect();
                let spread = rng.random_range(0.01..3.0);
                (0..n)
                    .map(|i| {
                        let c = &centres[i % centres.len()];
                        let x = c
                            .iter()
                            .map(|v| v + rng.random_range(-spread..spread))
                            .collect();
                        LabeledPoint::new(x, 0.0)
                    })
                    .collect()
            }
            1 => (0..n)
                .map(|_| {
                    let x = (0..dim)
                        .map(|_| f64::from(rng.random_range(0..3u8)))
                        .collect();
                    LabeledPoint::new(x, 0.0)
                })
                .collect(),
            _ => {
                let distinct: Vec<Vec<f64>> = (0..rng.random_range(1..=3))
                    .map(|_| {
                        (0..dim)
                            .map(|_| f64::from(rng.random_range(0..4u8)))
                            .collect()
                    })
                    .collect();
                k = distinct.len() + rng.random_range(1..=6usize);
                (0..n)
                    .map(|i| LabeledPoint::new(distinct[i % distinct.len()].clone(), 0.0))
                    .collect()
            }
        };
        let max_iterations = match rng.random_range(0..4u32) {
            0 => 0,
            1 => 1,
            _ => rng.random_range(2..=25),
        };
        let epsilon = [0.0, 1e-4, 1e-2][rng.random_range(0..3usize)];
        let params = KMeansParams {
            k,
            max_iterations,
            runs: rng.random_range(1..=3),
            epsilon,
            seed: rng.random_range(0..u64::MAX),
        };
        (params, data)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// The bounded fit is the plain loop, bit for bit: the same
        /// centroids, cost and number of passes.
        #[test]
        fn bounded_fit_is_the_lloyd_oracle(seed in any::<u64>()) {
            let (params, data) = oracle_case(seed);
            let (want, want_passes) = lloyd_fit(params, &data);
            let (got, work) = fit_counted(params, &data).unwrap();
            prop_assert!(bits(&got) == bits(&want), "case seed {seed}: centroids differ ({params:?})");
            prop_assert!(
                got.cost.to_bits() == want.cost.to_bits(),
                "case seed {seed}: cost {} vs {} ({params:?})",
                got.cost,
                want.cost
            );
            prop_assert!(work.passes == want_passes, "case seed {seed}: passes {} vs {want_passes}", work.passes);
            prop_assert!(work.full_scans <= work.passes * data.len(), "case seed {seed}");
        }
    }

    /// Ceiling on the points that scan every centroid, as a share of all
    /// point-passes, on a detector-shaped fit (10 features, k = 8, the
    /// paper's 5 runs of ≤ 20 passes). A count, so the gate cannot fail
    /// because the box was busy. This fit scans on 0.16 of its
    /// point-passes (31,832 of 50 passes × 4,000 points); the plain loop
    /// scanned on all of them.
    const MAX_FULL_SCAN_SHARE: f64 = 0.25;

    /// 4,000 points of 10 features around 6 centres, the first two
    /// features weighted double: the shape of the detector's training set.
    fn detector_shaped() -> Vec<LabeledPoint> {
        let mut rng = StdRng::seed_from_u64(20170611);
        let centres: Vec<Vec<f64>> = (0..6)
            .map(|_| (0..10).map(|_| rng.random_range(0.0..1.0)).collect())
            .collect();
        (0..4_000)
            .map(|i| {
                let c = &centres[i % centres.len()];
                let x = c
                    .iter()
                    .enumerate()
                    .map(|(j, v)| {
                        let w = if j < 2 { 2.0 } else { 1.0 };
                        w * (v + rng.random_range(-0.15..0.15f64)).clamp(0.0, 1.0)
                    })
                    .collect();
                LabeledPoint::new(x, 0.0)
            })
            .collect()
    }

    #[test]
    fn a_detector_shaped_fit_skips_most_scans() {
        let data = detector_shaped();
        let params = KMeansParams::default();
        let (model, work) = fit_counted(params, &data).unwrap();
        let (oracle, passes) = lloyd_fit(params, &data);
        assert_eq!(bits(&model), bits(&oracle));
        assert_eq!(work.passes, passes);
        let share = work.full_scans as f64 / (work.passes * data.len()) as f64;
        assert!(
            share <= MAX_FULL_SCAN_SHARE,
            "{} full scans in {} passes of {} points: share {share:.3}",
            work.full_scans,
            work.passes,
            data.len()
        );
    }

    /// Runs `f` with `ATHENA_THREADS` set to `width`.
    fn with_threads<T>(width: usize, f: impl FnOnce() -> T) -> T {
        // Env vars are process-global; serialize the tests that set one.
        static ENV: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = ENV
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        std::env::set_var("ATHENA_THREADS", width.to_string());
        let out = f();
        std::env::remove_var("ATHENA_THREADS");
        out
    }

    /// The restarts run as one ordered map folded in run order, so the
    /// fit is the width-1 fit at every width: the same centroid and cost
    /// bits, passes and full scans.
    #[test]
    fn the_fit_is_bit_identical_at_every_width() {
        let mut cases = vec![(KMeansParams::default(), detector_shaped())];
        cases.extend((0..50).map(oracle_case));
        for (case, (params, data)) in cases.iter().enumerate() {
            let fit_at = |width| with_threads(width, || fit_counted(*params, data).unwrap());
            let (want, want_work) = fit_at(1);
            for width in [2, 3, 8] {
                let (got, work) = fit_at(width);
                assert_eq!(bits(&got), bits(&want), "case {case} width {width}");
                assert_eq!(
                    got.cost.to_bits(),
                    want.cost.to_bits(),
                    "case {case} width {width}"
                );
                assert_eq!(work.passes, want_work.passes, "case {case} width {width}");
                assert_eq!(
                    work.full_scans, want_work.full_scans,
                    "case {case} width {width}"
                );
            }
        }
    }

    #[test]
    fn separates_two_blobs() {
        let data = blobs(100, 3, 1);
        let model = KMeansModel::fit(
            KMeansParams {
                k: 2,
                ..KMeansParams::default()
            },
            &data,
        )
        .unwrap();
        let a = model.cluster_of(&[0.0, 0.0, 0.0]);
        let b = model.cluster_of(&[4.0, 4.0, 4.0]);
        assert_ne!(a, b);
        // Every benign point lands in the benign cluster.
        for p in &data {
            let expect = if p.is_malicious() { b } else { a };
            assert_eq!(model.cluster_of(&p.features), expect);
        }
    }

    #[test]
    fn more_clusters_never_increase_cost() {
        let data = blobs(80, 2, 7);
        let mut last = f64::INFINITY;
        for k in [1, 2, 4, 8] {
            let model = KMeansModel::fit(
                KMeansParams {
                    k,
                    runs: 3,
                    ..KMeansParams::default()
                },
                &data,
            )
            .unwrap();
            let cost = model.compute_cost(&data);
            assert!(cost <= last + 1e-6, "k={k}: {cost} > {last}");
            last = cost;
        }
    }

    #[test]
    fn k_larger_than_points_is_padded() {
        let data = blobs(2, 2, 5);
        let model = KMeansModel::fit(
            KMeansParams {
                k: 16,
                ..KMeansParams::default()
            },
            &data,
        )
        .unwrap();
        assert_eq!(model.k(), 16);
        assert!(model.cluster_of(&[0.0, 0.0]) < 16);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(KMeansModel::fit(KMeansParams::default(), &[]).is_err());
        let data = blobs(5, 2, 0);
        assert!(KMeansModel::fit(
            KMeansParams {
                k: 0,
                ..KMeansParams::default()
            },
            &data
        )
        .is_err());
    }

    #[test]
    fn deterministic_under_same_seed() {
        let data = blobs(50, 2, 9);
        let params = KMeansParams {
            k: 3,
            ..KMeansParams::default()
        };
        let a = KMeansModel::fit(params, &data).unwrap();
        let b = KMeansModel::fit(params, &data).unwrap();
        assert_eq!(a.centroids, b.centroids);
    }
}
