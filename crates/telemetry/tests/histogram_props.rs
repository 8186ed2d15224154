//! Property tests for the log-scale histogram: arbitrary samples must
//! never panic, and reported percentiles must be ordered and bounded by
//! the exact recorded extremes.

use athena_telemetry::{Histogram, Telemetry};

/// A histogram registered into an enabled domain.
fn live() -> Histogram {
    let hist = Histogram::default();
    Telemetry::new()
        .metrics()
        .register_histogram("prop", "samples", "", &hist);
    hist
}
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn arbitrary_samples_never_panic_and_percentiles_are_monotone(
        samples in proptest::collection::vec(any::<u64>(), 0..256),
    ) {
        let hist = live();
        for &s in &samples {
            hist.record(s);
        }
        let snap = hist.snapshot();
        prop_assert_eq!(snap.count, samples.len() as u64);
        prop_assert!(snap.p50 <= snap.p90);
        prop_assert!(snap.p90 <= snap.p99);
        prop_assert!(snap.p99 <= snap.max);
        let exact_max = samples.iter().copied().max().unwrap_or(0);
        prop_assert_eq!(snap.max, exact_max);
        if let Some(&lo) = samples.iter().min() {
            // Percentile estimates can never dip below the smallest
            // sample's bucket floor.
            prop_assert!(snap.p50 as u128 >= (lo as u128).next_power_of_two() / 2);
        }
        prop_assert_eq!(
            snap.sum,
            samples.iter().fold(0u64, |acc, &s| acc.wrapping_add(s))
        );
    }

    #[test]
    fn quantile_is_monotone_in_q(
        samples in proptest::collection::vec(any::<u64>(), 1..128),
        qs in proptest::collection::vec(0.0f64..=1.0, 2..8),
    ) {
        let hist = live();
        for &s in &samples {
            hist.record(s);
        }
        let mut sorted = qs.clone();
        sorted.sort_by(f64::total_cmp);
        let values: Vec<u64> = sorted.iter().map(|&q| hist.quantile(q)).collect();
        for pair in values.windows(2) {
            prop_assert!(pair[0] <= pair[1], "quantiles not monotone: {:?}", values);
        }
    }
}
