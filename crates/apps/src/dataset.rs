//! Synthetic labeled DDoS datasets.
//!
//! The paper's Figure 6 evaluates on 37,370,466 flow-stats entries
//! (a 50 GB dataset) collected from the physical testbed during a DDoS
//! flood modeled on Braga et al. This generator produces a statistically
//! matched dataset at configurable scale: benign entries follow the
//! web/FTP/DNS profile (paired flows, large packets, long durations) and
//! malicious entries the flood profile of Table V (unidirectional, small
//! packets, short durations, high packet rates), with label noise at the
//! boundary so detection is hard enough to produce the paper's ~99 %
//! detection / ~4 % false-alarm operating point rather than a trivial
//! 100 %.

use athena_ml::LabeledPoint;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The 10-tuple feature order used by every DDoS experiment
/// (matches [`athena_core::catalog::DDOS_10_TUPLE`]).
pub const FEATURES: [&str; 10] = [
    "PAIR_FLOW",
    "PAIR_FLOW_RATIO",
    "FLOW_PACKET_COUNT",
    "FLOW_BYTE_COUNT",
    "FLOW_BYTE_PER_PACKET",
    "FLOW_PACKET_PER_DURATION",
    "FLOW_BYTE_PER_DURATION",
    "FLOW_DURATION_SEC",
    "FLOW_DURATION_NSEC",
    "FLOW_TP_DST",
];

/// A labeled synthetic DDoS dataset (10-tuple features).
#[derive(Debug, Clone)]
pub struct DdosDataset {
    /// The entries; labels are ground truth (1 = attack).
    pub points: Vec<LabeledPoint>,
    /// Unique benign flows represented.
    pub benign_unique_flows: u64,
    /// Unique malicious flows represented.
    pub malicious_unique_flows: u64,
}

impl DdosDataset {
    /// Generates a dataset with the paper's class balance (~25 % benign,
    /// ~75 % malicious entries — 9.4 M vs 28 M in Figure 6).
    pub fn generate(total_entries: usize, seed: u64) -> Self {
        Self::generate_with_ratio(total_entries, 0.25, seed)
    }

    /// Generates a dataset with an explicit benign fraction.
    fn generate_with_ratio(total_entries: usize, benign_fraction: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_benign = (total_entries as f64 * benign_fraction) as usize;
        let n_malicious = total_entries - n_benign;
        // The paper observes ~367 entries per benign flow and ~168 per
        // malicious flow (entries are repeated stats samples per flow).
        let benign_flows = (n_benign / 367).max(1);
        let malicious_flows = (n_malicious / 168).max(1);

        let mut points = Vec::with_capacity(total_entries);
        for i in 0..n_benign {
            points.push(Self::benign_entry(&mut rng, i % benign_flows));
        }
        for i in 0..n_malicious {
            points.push(Self::malicious_entry(&mut rng, i % malicious_flows));
        }
        // Interleave deterministically so partitions see both classes.
        let mut shuffled = Vec::with_capacity(points.len());
        let (benign, malicious) = points.split_at(n_benign);
        let (mut bi, mut mi) = (0usize, 0usize);
        for k in 0..total_entries {
            // Weighted round-robin by class share.
            let take_benign =
                (k as f64 * benign_fraction).fract() < benign_fraction && bi < benign.len();
            if take_benign || mi >= malicious.len() {
                shuffled.push(benign[bi % benign.len().max(1)].clone());
                bi += 1;
            } else {
                shuffled.push(malicious[mi].clone());
                mi += 1;
            }
        }
        DdosDataset {
            points: shuffled,
            benign_unique_flows: benign_flows as u64,
            malicious_unique_flows: malicious_flows as u64,
        }
    }

    fn benign_entry(rng: &mut StdRng, _flow: usize) -> LabeledPoint {
        // Benign: mostly paired, large packets, long-lived, modest rates.
        // ~6 % of benign entries look attack-like (one-way bursts, small
        // packets) — these drive the paper's ~4 % false-alarm rate.
        let odd = rng.random_range(0.0..1.0) < 0.06;
        let pair = if odd { 0.0 } else { 1.0 };
        let pair_ratio = rng.random_range(if odd { 0.1..0.5 } else { 0.6..1.0 });
        let duration = rng.random_range(if odd { 0.5..4.0 } else { 4.0..30.0 });
        let bpp = rng.random_range(if odd { 80.0..300.0 } else { 400.0..1500.0 });
        let pps = rng.random_range(if odd { 50.0..800.0 } else { 5.0..120.0 });
        let packets = pps * duration;
        let bytes = packets * bpp;
        let port = *[80.0, 443.0, 21.0, 53.0, 25.0]
            .get(rng.random_range(0..5))
            .expect("five ports");
        LabeledPoint::new(
            vec![
                pair,
                pair_ratio,
                packets,
                bytes,
                bpp,
                pps,
                bytes / duration,
                duration.floor(),
                (duration.fract() * 1e9).floor(),
                port,
            ],
            0.0,
        )
    }

    fn malicious_entry(rng: &mut StdRng, _flow: usize) -> LabeledPoint {
        // Attack: unidirectional, tiny packets, short flows, high packet
        // rates, random low destination ports. ~1 % of entries look
        // benign-ish (paced bots) — the paper's ~0.8 % miss rate.
        let stealthy = rng.random_range(0.0..1.0) < 0.01;
        let pair = if stealthy { 1.0 } else { 0.0 };
        let pair_ratio = rng.random_range(if stealthy { 0.5..0.9 } else { 0.0..0.25 });
        let duration = rng.random_range(if stealthy { 5.0..20.0 } else { 0.5..5.0 });
        let bpp = rng.random_range(if stealthy { 400.0..1000.0 } else { 64.0..128.0 });
        let pps = rng.random_range(if stealthy { 10.0..100.0 } else { 500.0..5000.0 });
        let packets = pps * duration;
        let bytes = packets * bpp;
        let port = f64::from(rng.random_range(1u16..1024));
        LabeledPoint::new(
            vec![
                pair,
                pair_ratio,
                packets,
                bytes,
                bpp,
                pps,
                bytes / duration,
                duration.floor(),
                (duration.fract() * 1e9).floor(),
                port,
            ],
            1.0,
        )
    }

    /// Total entries.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` if the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_balance_matches_request() {
        let d = DdosDataset::generate(10_000, 1);
        assert_eq!(d.len(), 10_000);
        let benign = d.points.iter().filter(|p| !p.is_malicious()).count();
        let frac = benign as f64 / 10_000.0;
        assert!((frac - 0.25).abs() < 0.02, "benign fraction {frac}");
    }

    #[test]
    fn entries_have_ten_features() {
        let d = DdosDataset::generate(100, 2);
        assert!(d.points.iter().all(|p| p.dim() == 10));
        assert_eq!(FEATURES.len(), 10);
    }

    #[test]
    fn classes_are_mostly_separable_but_overlap() {
        let d = DdosDataset::generate(5_000, 3);
        // A crude single-feature threshold (byte-per-packet) separates
        // most but not all entries — the dataset must not be trivial.
        let errors = d
            .points
            .iter()
            .filter(|p| (p.features[4] < 350.0) != p.is_malicious())
            .count();
        let rate = errors as f64 / d.len() as f64;
        assert!(rate > 0.01, "too separable: {rate}");
        assert!(rate < 0.2, "too noisy: {rate}");
    }

    #[test]
    fn deterministic_for_a_seed() {
        let a = DdosDataset::generate(500, 7);
        let b = DdosDataset::generate(500, 7);
        assert_eq!(a.points, b.points);
        let c = DdosDataset::generate(500, 8);
        assert_ne!(a.points, c.points);
    }

    #[test]
    fn interleaving_spreads_classes() {
        let d = DdosDataset::generate(1000, 4);
        // Both classes appear in the first 10% of entries.
        let head = &d.points[..100];
        assert!(head.iter().any(|p| p.is_malicious()));
        assert!(head.iter().any(|p| !p.is_malicious()));
    }

    #[test]
    fn unique_flow_counts_scale() {
        let d = DdosDataset::generate(37_370, 5);
        assert!(d.benign_unique_flows > 0);
        assert!(d.malicious_unique_flows > d.benign_unique_flows);
    }
}
