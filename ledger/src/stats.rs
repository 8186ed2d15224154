//! Order statistics over timing samples.
//!
//! Every timing in the ledger is reported as a median, and where a tail
//! is wanted as "the highest percentile that still has at least ten
//! samples beyond it" — a p99 of 30 samples is one sample's noise, so
//! the helper backs off to p90 or p50 instead of printing it.

/// Percentiles [`tail`] chooses from, highest first, each with the
/// sample count at which ten samples lie beyond it.
const TAIL_CANDIDATES: [(f64, usize); 3] = [(0.999, 10_000), (0.99, 1_000), (0.9, 100)];

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between order
/// statistics; 0.0 on an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The median.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// First and third quartile by the "exclusive" method — the values
/// Python's `statistics.quantiles(values, n=4)` returns, which is what
/// the benchmark contract's spread rule is stated in.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let n = samples.len();
    if n < 2 {
        let v = samples.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let at = |k: usize| {
        // Position k*(n+1)/4 in 1-based order statistics, clamped.
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median (the contract's
/// "spread"); 0.0 when the median is 0.
pub fn spread(samples: &[f64]) -> f64 {
    let m = median(samples);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(samples);
    (q3 - q1) / m.abs()
}

/// The highest candidate percentile with at least ten samples beyond it,
/// and its value: `(0.99, v)` needs ≥ 1000 samples, `(0.9, v)` ≥ 100,
/// otherwise the median.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let q = TAIL_CANDIDATES
        .into_iter()
        .find(|(_, needed)| samples.len() >= *needed)
        .map_or(0.5, |(q, _)| q);
    (q, quantile(samples, q))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantile_interpolate() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.25), 2.5);
        assert_eq!(quantile(&[5.0, 1.0, 9.0], 1.0), 9.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]), (1.5, 12.0));
        assert_eq!(spread(&v), (8.25 - 2.75) / 5.5);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn tail_backs_off_until_ten_samples_lie_beyond() {
        let n = |k: usize| -> Vec<f64> { (0..k).map(|i| i as f64).collect() };
        assert_eq!(tail(&n(7)).0, 0.5);
        assert_eq!(tail(&n(99)).0, 0.5);
        assert_eq!(tail(&n(100)).0, 0.9);
        assert_eq!(tail(&n(999)).0, 0.9);
        assert_eq!(tail(&n(1000)).0, 0.99);
        assert_eq!(tail(&n(10_000)).0, 0.999);
        // The value is the quantile of the chosen percentile.
        assert_eq!(tail(&n(101)).1, 90.0);
    }
}
