//! Detection-quality metrics: the exact quantities of the paper's Figure 6.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A binary confusion matrix counted in *entries* (the paper reports entry
/// counts, e.g. "True Positive : 27,780,926 entries").
///
/// # Examples
///
/// ```
/// use athena_ml::ConfusionMatrix;
/// let mut cm = ConfusionMatrix::default();
/// cm.record(true, true);   // malicious, detected  -> TP
/// cm.record(false, false); // benign, passed       -> TN
/// cm.record(false, true);  // benign, flagged      -> FP
/// assert_eq!(cm.detection_rate(), 1.0);
/// assert_eq!(cm.false_alarm_rate(), 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct ConfusionMatrix {
    /// Malicious entries classified malicious.
    pub true_positive: u64,
    /// Benign entries classified malicious.
    pub false_positive: u64,
    /// Benign entries classified benign.
    pub true_negative: u64,
    /// Malicious entries classified benign.
    pub false_negative: u64,
}

impl ConfusionMatrix {
    /// Records one entry: `(actual_malicious, predicted_malicious)`.
    pub fn record(&mut self, actual_malicious: bool, predicted_malicious: bool) {
        match (actual_malicious, predicted_malicious) {
            (true, true) => self.true_positive += 1,
            (true, false) => self.false_negative += 1,
            (false, true) => self.false_positive += 1,
            (false, false) => self.true_negative += 1,
        }
    }

    /// Merges another matrix into this one.
    pub fn merge(&mut self, other: &ConfusionMatrix) {
        self.true_positive += other.true_positive;
        self.false_positive += other.false_positive;
        self.true_negative += other.true_negative;
        self.false_negative += other.false_negative;
    }

    /// Total entries.
    pub fn total(&self) -> u64 {
        self.true_positive + self.false_positive + self.true_negative + self.false_negative
    }

    /// Actual-malicious entries.
    pub fn actual_malicious(&self) -> u64 {
        self.true_positive + self.false_negative
    }

    /// Actual-benign entries.
    pub fn actual_benign(&self) -> u64 {
        self.true_negative + self.false_positive
    }

    /// Detection rate (recall): `TP / (TP + FN)`; zero when undefined.
    pub fn detection_rate(&self) -> f64 {
        ratio(self.true_positive, self.actual_malicious())
    }

    /// False-alarm rate: `FP / (FP + TN)`; zero when undefined.
    pub fn false_alarm_rate(&self) -> f64 {
        ratio(self.false_positive, self.actual_benign())
    }

    /// Precision: `TP / (TP + FP)`; zero when undefined.
    pub fn precision(&self) -> f64 {
        ratio(self.true_positive, self.true_positive + self.false_positive)
    }

    /// Accuracy: `(TP + TN) / total`; zero when undefined.
    pub fn accuracy(&self) -> f64 {
        ratio(self.true_positive + self.true_negative, self.total())
    }

    /// F1 score; zero when undefined.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.detection_rate();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-cluster composition, for clustering-based detectors (Figure 6 lists
/// `Cluster #k: Benign (…entries), Malicious (…entries)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct ClusterReport {
    /// The cluster index.
    pub cluster: usize,
    /// Actually-benign entries assigned to the cluster.
    pub benign: u64,
    /// Actually-malicious entries assigned to the cluster.
    pub malicious: u64,
    /// Whether the detector treats this cluster as malicious.
    pub flagged_malicious: bool,
}

impl ClusterReport {
    /// Total entries in the cluster.
    pub fn total(&self) -> u64 {
        self.benign + self.malicious
    }
}

/// The validation summary Athena prints after `ValidateFeatures` — the
/// paper's Figure 6.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ValidationSummary {
    /// The confusion matrix over all validated entries.
    pub confusion: ConfusionMatrix,
    /// Unique flows seen among benign entries.
    pub benign_unique_flows: u64,
    /// Unique flows seen among malicious entries.
    pub malicious_unique_flows: u64,
    /// A description of the model configuration (algorithm + parameters).
    pub model_info: String,
    /// Per-cluster composition (empty for non-clustering models).
    pub clusters: Vec<ClusterReport>,
}

impl ValidationSummary {
    /// An empty tally with one report per cluster (`clusters` = 0 for a
    /// non-clustering model), so a cluster no entry falls in still
    /// reports.
    pub fn with_clusters(clusters: usize) -> Self {
        ValidationSummary {
            clusters: (0..clusters)
                .map(|cluster| ClusterReport {
                    cluster,
                    ..ClusterReport::default()
                })
                .collect(),
            ..ValidationSummary::default()
        }
    }

    /// Tallies one validated entry: its ground truth, the detector's
    /// verdict, and — for a clustering model — the cluster it fell in
    /// (the paper's `ResultsGenerator`). A cluster is flagged once any of
    /// its entries is; a clustering model gives every entry of a cluster
    /// that cluster's verdict. A cluster index without a report is
    /// counted in the confusion matrix only.
    ///
    /// # Examples
    ///
    /// ```
    /// use athena_ml::ValidationSummary;
    /// let mut s = ValidationSummary::with_clusters(2);
    /// s.record(true, true, Some(1));
    /// s.record(false, false, Some(0));
    /// s.record(false, true, None);
    /// assert_eq!(s.total_entries(), 3);
    /// assert_eq!(s.confusion.false_positive, 1);
    /// assert!(s.clusters[1].flagged_malicious && !s.clusters[0].flagged_malicious);
    /// ```
    pub fn record(&mut self, actual: bool, predicted: bool, cluster: Option<usize>) {
        self.confusion.record(actual, predicted);
        if let Some(report) = cluster.and_then(|c| self.clusters.get_mut(c)) {
            if actual {
                report.malicious += 1;
            } else {
                report.benign += 1;
            }
            report.flagged_malicious |= predicted;
        }
    }

    /// Adds another tally's entry counts into this one (a partition's
    /// partial into the whole), cluster by cluster. The unique-flow
    /// counts and the model description stay this summary's own: two
    /// partitions may see the same flow.
    pub fn merge(&mut self, other: &ValidationSummary) {
        self.confusion.merge(&other.confusion);
        for (report, part) in self.clusters.iter_mut().zip(&other.clusters) {
            report.benign += part.benign;
            report.malicious += part.malicious;
            report.flagged_malicious |= part.flagged_malicious;
        }
    }

    /// Total validated entries.
    pub fn total_entries(&self) -> u64 {
        self.confusion.total()
    }
}

impl fmt::Display for ValidationSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = &self.confusion;
        writeln!(f, "Total : {} entries", group_digits(c.total()))?;
        writeln!(
            f,
            "Benign : {} entries ({} unique flows)",
            group_digits(c.actual_benign()),
            group_digits(self.benign_unique_flows)
        )?;
        writeln!(
            f,
            "Malicious : {} entries ({} unique flows)",
            group_digits(c.actual_malicious()),
            group_digits(self.malicious_unique_flows)
        )?;
        writeln!(
            f,
            "True Positive : {} entries",
            group_digits(c.true_positive)
        )?;
        writeln!(
            f,
            "False Positive : {} entries",
            group_digits(c.false_positive)
        )?;
        writeln!(
            f,
            "True Negative : {} entries",
            group_digits(c.true_negative)
        )?;
        writeln!(
            f,
            "False Negative : {} entries",
            group_digits(c.false_negative)
        )?;
        writeln!(f, "Detection Rate : {}", c.detection_rate())?;
        writeln!(f, "False Alarm Rate: {}", c.false_alarm_rate())?;
        if !self.model_info.is_empty() {
            writeln!(f, "{}", self.model_info)?;
        }
        for cr in &self.clusters {
            writeln!(
                f,
                "Cluster #{}: Benign ({} entries), Malicious ({} entries){}",
                cr.cluster,
                group_digits(cr.benign),
                group_digits(cr.malicious),
                if cr.flagged_malicious {
                    " [flagged]"
                } else {
                    ""
                }
            )?;
        }
        Ok(())
    }
}

/// Formats an integer with thousands separators (`37370466` →
/// `"37,370,466"`), matching the paper's report format.
pub fn group_digits(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, ch) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(ch);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled() -> ConfusionMatrix {
        ConfusionMatrix {
            true_positive: 90,
            false_negative: 10,
            true_negative: 95,
            false_positive: 5,
        }
    }

    #[test]
    fn rates() {
        let c = filled();
        assert!((c.detection_rate() - 0.9).abs() < 1e-12);
        assert!((c.false_alarm_rate() - 0.05).abs() < 1e-12);
        assert!((c.accuracy() - 0.925).abs() < 1e-12);
        assert!((c.precision() - 90.0 / 95.0).abs() < 1e-12);
        assert!(c.f1() > 0.9);
        assert_eq!(c.total(), 200);
    }

    #[test]
    fn empty_matrix_rates_are_zero_not_nan() {
        let c = ConfusionMatrix::default();
        assert_eq!(c.detection_rate(), 0.0);
        assert_eq!(c.false_alarm_rate(), 0.0);
        assert_eq!(c.f1(), 0.0);
    }

    #[test]
    fn record_routes_correctly() {
        let mut c = ConfusionMatrix::default();
        c.record(true, true);
        c.record(true, false);
        c.record(false, true);
        c.record(false, false);
        assert_eq!(
            (
                c.true_positive,
                c.false_negative,
                c.false_positive,
                c.true_negative
            ),
            (1, 1, 1, 1)
        );
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = filled();
        a.merge(&filled());
        assert_eq!(a.total(), 400);
        assert_eq!(a.true_positive, 180);
    }

    #[test]
    fn digit_grouping() {
        assert_eq!(group_digits(0), "0");
        assert_eq!(group_digits(999), "999");
        assert_eq!(group_digits(1000), "1,000");
        assert_eq!(group_digits(37_370_466), "37,370,466");
    }

    #[test]
    fn summary_display_matches_paper_shape() {
        let s = ValidationSummary {
            confusion: filled(),
            benign_unique_flows: 25,
            malicious_unique_flows: 160,
            model_info: "Cluster (K-Means)".into(),
            clusters: vec![ClusterReport {
                cluster: 0,
                benign: 5,
                malicious: 90,
                flagged_malicious: true,
            }],
        };
        let text = s.to_string();
        assert!(text.contains("Detection Rate : 0.9"));
        assert!(text.contains("Cluster #0: Benign (5 entries), Malicious (90 entries)"));
        assert!(text.contains("False Alarm Rate: 0.05"));
    }
}
