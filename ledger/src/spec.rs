//! The benchmark's declaration: `BENCHMARK.json` at the repository root,
//! compiled in and parsed at start. The metric names, units, directions
//! and bounds live there and nowhere else.

use serde_json::Value;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Which way a metric gets better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// By what share of `base` the value `new` is worse (negative when
    /// it is better).
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        if base == 0.0 {
            return 0.0;
        }
        match self {
            Better::Lower => (new - base) / base,
            Better::Higher => (base - new) / base,
        }
    }
}

/// A declared metric. End-to-end metrics are reported by every workload's
/// untraced run, per-layer metrics by every workload's traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression; 0 for per-layer metrics,
    /// which have no bound.
    pub bound: f64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Seconds one run measures for, unless `--seconds` says otherwise.
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn items<'a>(json: &'a Value, key: &str) -> &'a [Value] {
    json.get(key)
        .and_then(Value::as_array)
        .map_or(&[], Vec::as_slice)
}

fn text(v: &Value, key: &str) -> String {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_default()
        .to_owned()
}

fn metrics(json: &Value, key: &str) -> Vec<Metric> {
    items(json, key)
        .iter()
        .map(|m| Metric {
            name: text(m, "name"),
            unit: text(m, "unit"),
            better: if text(m, "better") == "higher" {
                Better::Higher
            } else {
                Better::Lower
            },
            bound: m.get("bound").and_then(Value::as_f64).unwrap_or(0.0),
        })
        .collect()
}

/// The declaration the binary was built with.
pub fn load() -> Spec {
    let json: Value =
        serde_json::from_str(BENCHMARK_JSON).expect("the compiled-in BENCHMARK.json parses");
    Spec {
        run_seconds: json
            .get("run_seconds")
            .and_then(Value::as_f64)
            .unwrap_or(0.0),
        workloads: items(&json, "workloads")
            .iter()
            .map(|w| text(w, "name"))
            .collect(),
        end_to_end: metrics(&json, "end_to_end"),
        per_layer: metrics(&json, "per_layer"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declaration_is_within_the_contract() {
        let spec = load();
        assert_eq!(spec.workloads, crate::workloads::NAMES);
        assert!((1.0..=60.0).contains(&spec.run_seconds));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        let setup = spec.end_to_end.iter().find(|m| m.name == "setup_s");
        assert!(setup.is_some_and(|m| m.unit == "s" && m.better == Better::Lower));
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound > 0.0 && m.bound <= 0.25));

        let mut names: Vec<&str> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.as_str())
            .chain(spec.workloads.iter().map(String::as_str))
            .collect();
        for n in &names {
            assert!(!n.is_empty() && n.len() <= 64, "{n}");
            assert!(n.starts_with(|c: char| c.is_ascii_alphanumeric()), "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{}", m.name);
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert_eq!(Better::Lower.worsening(10.0, 11.0), 0.1);
        assert_eq!(Better::Higher.worsening(10.0, 9.0), 0.1);
        assert!(Better::Lower.worsening(10.0, 9.0) < 0.0);
        assert_eq!(Better::Lower.worsening(0.0, 9.0), 0.0);
    }
}
