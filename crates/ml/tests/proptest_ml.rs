//! Property-based tests for the ML library: preprocessing invariants,
//! K-Means invariants, metric identities, and model totality.

use athena_ml::algorithms::kmeans::{KMeansModel, KMeansParams};
use athena_ml::{
    Algorithm, ConfusionMatrix, LabeledPoint, Model, Normalization, Preprocessor, ValidationSummary,
};
use proptest::prelude::*;

fn arb_points(dim: usize) -> impl Strategy<Value = Vec<LabeledPoint>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(-1000.0f64..1000.0, dim..=dim),
            any::<bool>(),
        ),
        4..60,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .map(|(v, label)| LabeledPoint::new(v, f64::from(u8::from(label))))
            .collect()
    })
}

proptest! {
    /// Min-max normalization always lands in [0, 1] on the fitted data,
    /// and batch vs single-point application agree.
    #[test]
    fn minmax_bounds_and_consistency(points in arb_points(3)) {
        let pre = Preprocessor::new().normalize(Normalization::MinMax);
        let fitted = pre.fit(&points).unwrap();
        let batch = fitted.apply(&points);
        for (orig, out) in points.iter().zip(&batch) {
            for x in &out.features {
                prop_assert!((0.0..=1.0).contains(x), "{x}");
            }
            prop_assert_eq!(&fitted.apply_point(orig), out);
        }
    }

    /// Z-score normalization produces near-zero means on the fitted data.
    #[test]
    fn zscore_centers(points in arb_points(2)) {
        let fitted = Preprocessor::new()
            .normalize(Normalization::ZScore)
            .fit(&points)
            .unwrap();
        let out = fitted.apply(&points);
        let n = out.len() as f64;
        for d in 0..2 {
            let mean: f64 = out.iter().map(|p| p.features[d]).sum::<f64>() / n;
            prop_assert!(mean.abs() < 1e-6, "dim {d} mean {mean}");
        }
    }

    /// Weighting by w then by 1/w is the identity (for nonzero weights).
    #[test]
    fn weighting_inverts(points in arb_points(2), w0 in 0.1f64..10.0, w1 in 0.1f64..10.0) {
        let fwd = Preprocessor::new().weight(vec![w0, w1]).fit(&points).unwrap();
        let back = Preprocessor::new()
            .weight(vec![1.0 / w0, 1.0 / w1])
            .fit(&points)
            .unwrap();
        for p in &points {
            let roundtrip = back.apply_point(&fwd.apply_point(p));
            for (a, b) in roundtrip.features.iter().zip(&p.features) {
                prop_assert!((a - b).abs() < 1e-6 * b.abs().max(1.0));
            }
        }
    }

    /// K-Means always assigns every point to a cluster in range, and the
    /// training cost never increases when k grows (same seed).
    #[test]
    fn kmeans_assignment_in_range(points in arb_points(2), k in 1usize..6) {
        let params = KMeansParams { k, runs: 1, max_iterations: 5, ..KMeansParams::default() };
        let model = KMeansModel::fit(params, &points).unwrap();
        prop_assert_eq!(model.k(), k);
        for p in &points {
            prop_assert!(model.cluster_of(&p.features) < k);
        }
    }

    /// Lloyd iterations never increase the K-Means cost.
    #[test]
    fn kmeans_cost_monotone_in_iterations(points in arb_points(2)) {
        let short = KMeansModel::fit(
            KMeansParams { k: 3, runs: 1, max_iterations: 1, ..KMeansParams::default() },
            &points,
        )
        .unwrap();
        let long = KMeansModel::fit(
            KMeansParams { k: 3, runs: 1, max_iterations: 20, ..KMeansParams::default() },
            &points,
        )
        .unwrap();
        prop_assert!(
            long.compute_cost(&points) <= short.compute_cost(&points) + 1e-6,
            "{} > {}",
            long.compute_cost(&points),
            short.compute_cost(&points)
        );
    }

    /// Every trainable algorithm yields finite predictions on data it was
    /// trained on (totality), provided both classes are present.
    #[test]
    fn models_are_total(points in arb_points(3)) {
        let has_both = points.iter().any(LabeledPoint::is_malicious)
            && points.iter().any(|p| !p.is_malicious());
        prop_assume!(has_both);
        for a in [
            Algorithm::kmeans(2),
            Algorithm::logistic_regression(),
            Algorithm::decision_tree(),
            Algorithm::NaiveBayes,
        ] {
            let m = a.fit(&points).unwrap();
            for p in &points {
                let s = m.predict(&p.features);
                prop_assert!(s.is_finite(), "{} produced {s}", a.name());
            }
        }
    }

    /// Confusion-matrix identities: totals add up and rates stay in [0,1].
    #[test]
    fn confusion_identities(
        outcomes in proptest::collection::vec((any::<bool>(), any::<bool>()), 0..200)
    ) {
        let mut cm = ConfusionMatrix::default();
        for (actual, predicted) in &outcomes {
            cm.record(*actual, *predicted);
        }
        prop_assert_eq!(cm.total() as usize, outcomes.len());
        prop_assert_eq!(cm.actual_benign() + cm.actual_malicious(), cm.total());
        for rate in [
            cm.detection_rate(),
            cm.false_alarm_rate(),
            cm.precision(),
            cm.accuracy(),
            cm.f1(),
        ] {
            prop_assert!((0.0..=1.0).contains(&rate), "{rate}");
        }
        // Merging with an empty matrix is the identity.
        let mut merged = cm;
        merged.merge(&ConfusionMatrix::default());
        prop_assert_eq!(merged, cm);
    }

    /// Any split of a point set into partitions, each tallied on its own
    /// and merged, equals the serial tally — confusion matrix and
    /// per-cluster reports (counts and flags) alike.
    #[test]
    fn partitioned_tallies_merge_to_the_serial_tally(
        points in arb_points(2),
        k in 1usize..5,
        cuts in proptest::collection::vec(0usize..60, 0..6),
    ) {
        let model = Algorithm::kmeans(k).fit(&points).unwrap();
        let k = model.cluster_count().unwrap();
        let tally = |part: &[LabeledPoint]| {
            let mut s = ValidationSummary::with_clusters(k);
            for p in part {
                let (predicted, cluster) = model.verdict_and_cluster(&p.features);
                s.record(p.is_malicious(), predicted, cluster);
            }
            s
        };
        let serial = tally(&points);
        prop_assert_eq!(serial.clusters.len(), k);
        prop_assert_eq!(
            serial.clusters.iter().map(|c| c.total()).sum::<u64>(),
            serial.total_entries()
        );

        let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (points.len() + 1)).collect();
        bounds.push(0);
        bounds.push(points.len());
        bounds.sort_unstable();
        let mut merged = ValidationSummary::with_clusters(k);
        for w in bounds.windows(2) {
            merged.merge(&tally(&points[w[0]..w[1]]));
        }
        prop_assert_eq!(merged, serial);
    }

    /// Sampling keeps roughly the requested fraction and never fabricates
    /// points.
    #[test]
    fn sampling_fraction(points in arb_points(1), frac in 0.05f64..1.0) {
        let fitted = Preprocessor::new().sample(frac).fit(&points).unwrap();
        let out = fitted.apply(&points);
        prop_assert!(out.len() <= points.len());
        for p in &out {
            prop_assert!(points.contains(p));
        }
        // Within a factor-2 band of the requested fraction (small sets
        // quantize hard).
        let expect = (points.len() as f64 * frac).max(1.0);
        prop_assert!(out.len() as f64 <= expect * 2.0 + 1.0);
        prop_assert!(out.len() as f64 >= expect / 2.5 - 1.0, "{} vs {expect}", out.len());
    }
}
