//! The declarative SLO alert-rule engine.
//!
//! Rules are evaluated against the sampled [`SeriesEngine`] at every
//! sample tick. A rule transitions between clear and firing; each
//! transition is recorded as a virtual-time-stamped [`AlertEvent`].
//! Rules whose signal derives only from deterministic inputs (counters
//! and gauges driven by simulated behavior) are marked `deterministic`,
//! and their fire/clear sequences are byte-identical across reruns and
//! `ATHENA_THREADS` — the chaos matrix gates on exactly that. Rules over
//! wall-clock-fed histograms (`*_ns` p99 latencies, queue depths) are
//! useful signals but excluded from determinism comparisons.

use crate::series::SeriesEngine;
use athena_types::{SimDuration, SimTime};

/// What a rule watches.
#[derive(Debug, Clone, PartialEq)]
pub enum AlertSignal {
    /// Fires while the counter's windowed rate exceeds `per_sec`.
    CounterRateAbove {
        /// Metric key, `subsystem/name` form.
        key: &'static str,
        /// Rate threshold in increments per second (strictly above).
        per_sec: f64,
        /// Trailing rate window.
        window: SimDuration,
    },
    /// Fires while the gauge's latest sample exceeds `threshold`.
    GaugeAbove {
        /// Metric key, `subsystem/name` form.
        key: &'static str,
        /// Level threshold (strictly above).
        threshold: f64,
    },
    /// Fires while the histogram's sampled p99 exceeds `threshold`.
    HistogramP99Above {
        /// Metric key, `subsystem/name` form (`#p99` is appended).
        key: &'static str,
        /// p99 threshold in the histogram's native unit (strictly
        /// above).
        threshold: f64,
    },
    /// Fires while the counter has gone longer than `window` without
    /// increasing (after having increased at least once).
    CounterStallOver {
        /// Metric key, `subsystem/name` form.
        key: &'static str,
        /// Longest tolerated quiet period.
        window: SimDuration,
    },
}

/// One declarative SLO rule.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// Stable rule name (appears in events, reports, and exports).
    pub name: &'static str,
    /// The watched signal.
    pub signal: AlertSignal,
    /// Whether the signal is a pure function of simulated behavior.
    pub deterministic: bool,
}

/// A fire or clear transition.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertEvent {
    /// Rule that transitioned.
    pub rule: &'static str,
    /// `true` on fire, `false` on clear.
    pub fired: bool,
    /// Virtual time of the sample that transitioned the rule.
    pub at: SimTime,
    /// The signal's value at the transition.
    pub value: f64,
    /// Copied from the rule, so event streams can be filtered for
    /// determinism comparisons.
    pub deterministic: bool,
}

impl AlertEvent {
    /// Canonical one-line rendering (`fire`/`clear`, virtual seconds,
    /// fixed-precision value) — the byte-compared form in the
    /// determinism gates.
    pub fn render(&self) -> String {
        format!(
            "{} {} at={}us value={:.3}",
            if self.fired { "fire " } else { "clear" },
            self.rule,
            self.at.as_micros(),
            self.value,
        )
    }
}

/// Evaluates rules and tracks firing state.
#[derive(Debug, Clone, Default)]
pub struct AlertEngine {
    rules: Vec<AlertRule>,
    firing: Vec<bool>,
    events: Vec<AlertEvent>,
}

impl AlertEngine {
    /// An engine over `rules`, all initially clear.
    pub fn new(rules: Vec<AlertRule>) -> Self {
        let firing = vec![false; rules.len()];
        AlertEngine {
            rules,
            firing,
            events: Vec::new(),
        }
    }

    /// The configured rules.
    pub fn rules(&self) -> &[AlertRule] {
        &self.rules
    }

    /// Rule names currently firing, in rule order.
    pub fn firing_rules(&self) -> Vec<&'static str> {
        self.rules
            .iter()
            .zip(&self.firing)
            .filter(|(_, &f)| f)
            .map(|(r, _)| r.name)
            .collect()
    }

    /// Every transition so far, in occurrence order.
    pub fn transitions(&self) -> &[AlertEvent] {
        &self.events
    }

    /// Evaluates every rule against `series` at `now`; returns the
    /// transitions this tick (also appended to [`AlertEngine::events`]).
    pub fn evaluate(&mut self, now: SimTime, series: &SeriesEngine) -> Vec<AlertEvent> {
        let mut transitions = Vec::new();
        for (rule, firing) in self.rules.iter().zip(&mut self.firing) {
            let (active, value) = match &rule.signal {
                AlertSignal::CounterRateAbove {
                    key,
                    per_sec,
                    window,
                } => {
                    let rate = series.rate_per_sec(key, now, *window);
                    (rate > *per_sec, rate)
                }
                AlertSignal::GaugeAbove { key, threshold } => {
                    let v = series.latest(key);
                    (v > *threshold, v)
                }
                AlertSignal::HistogramP99Above { key, threshold } => {
                    let v = series.latest(&format!("{key}#p99"));
                    (v > *threshold, v)
                }
                AlertSignal::CounterStallOver { key, window } => {
                    let stalled = series
                        .get(key)
                        .and_then(|s| s.stalled_for(now))
                        .map(|d| d.as_micros() > window.as_micros())
                        .unwrap_or(false);
                    (stalled, series.latest(key))
                }
            };
            if active != *firing {
                *firing = active;
                let event = AlertEvent {
                    rule: rule.name,
                    fired: active,
                    at: now,
                    value,
                    deterministic: rule.deterministic,
                };
                self.events.push(event.clone());
                transitions.push(event);
            }
        }
        transitions
    }
}

/// The standard Athena SLO rule set: the four issue-mandated service
/// rules plus one rule per chaos-matrix fault family, so every injected
/// `Scenario` has an alert that fires during its fault window and clears
/// after recovery.
pub fn standard_rules() -> Vec<AlertRule> {
    use AlertSignal::*;
    let w6 = SimDuration::from_secs(6);
    vec![
        // — service SLOs —
        AlertRule {
            name: "packet-in-p99-latency",
            signal: HistogramP99Above {
                key: "controller/packet_in_ns",
                threshold: 50_000_000.0, // 50 ms of real service time
            },
            deterministic: false, // wall-clock-fed histogram
        },
        AlertRule {
            name: "detection-miss-window",
            signal: CounterStallOver {
                key: "core/feature_records",
                window: w6,
            },
            deterministic: true,
        },
        AlertRule {
            name: "quorum-degraded-writes",
            signal: CounterRateAbove {
                key: "retry/store_write_handoffs",
                per_sec: 0.0,
                window: w6,
            },
            deterministic: true,
        },
        AlertRule {
            name: "wal-replay-errors",
            signal: CounterRateAbove {
                key: "persist/store_tails_truncated",
                per_sec: 0.0,
                window: w6,
            },
            deterministic: true,
        },
        // — chaos-matrix fault alerts —
        AlertRule {
            name: "links-degraded",
            signal: GaugeAbove {
                key: "dataplane/links_degraded",
                threshold: 0.0,
            },
            deterministic: true,
        },
        AlertRule {
            name: "switch-rebooted",
            signal: CounterRateAbove {
                key: "dataplane/switch_reboots",
                per_sec: 0.0,
                window: w6,
            },
            deterministic: true,
        },
        AlertRule {
            name: "controller-instance-down",
            signal: GaugeAbove {
                key: "failover/instances_down",
                threshold: 0.0,
            },
            deterministic: true,
        },
        AlertRule {
            name: "store-nodes-down",
            signal: GaugeAbove {
                key: "store/nodes_down",
                threshold: 0.0,
            },
            deterministic: true,
        },
        AlertRule {
            name: "messages-dropped",
            signal: CounterRateAbove {
                key: "faults/msgs_dropped",
                per_sec: 0.0,
                window: w6,
            },
            deterministic: true,
        },
        AlertRule {
            name: "messages-delayed",
            signal: CounterRateAbove {
                key: "faults/msgs_delayed",
                per_sec: 0.0,
                window: w6,
            },
            deterministic: true,
        },
        AlertRule {
            name: "messages-duplicated",
            signal: CounterRateAbove {
                key: "faults/msgs_duplicated",
                per_sec: 0.0,
                window: w6,
            },
            deterministic: true,
        },
        // — streaming retrain loop —
        // Both watch stream/* series that only exist when a retrain
        // loop is deployed; absent series read as 0.0 and never fire.
        AlertRule {
            name: "model-swap-failed",
            signal: CounterRateAbove {
                key: "stream/swap_failures",
                per_sec: 0.0,
                window: w6,
            },
            deterministic: true,
        },
        AlertRule {
            name: "detection-gap-exceeded",
            signal: HistogramP99Above {
                key: "stream/detection_gap_us",
                // The streaming gate's bound: 15 virtual seconds
                // between consecutive detections under live attack.
                threshold: 15_000_000.0,
            },
            // Virtual-time-fed histogram: the gap is measured on
            // SimTime, not the wall clock.
            deterministic: true,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use athena_telemetry::Telemetry;

    #[test]
    fn gauge_rule_fires_and_clears() {
        let tel = Telemetry::new();
        let gauge = tel.metrics().gauge("dataplane", "links_degraded");
        let mut series = SeriesEngine::new(16);
        let mut engine = AlertEngine::new(vec![AlertRule {
            name: "links-degraded",
            signal: AlertSignal::GaugeAbove {
                key: "dataplane/links_degraded",
                threshold: 0.0,
            },
            deterministic: true,
        }]);

        series.sample(SimTime::from_secs(1), &tel.report());
        assert!(engine.evaluate(SimTime::from_secs(1), &series).is_empty());

        gauge.set(2);
        series.sample(SimTime::from_secs(2), &tel.report());
        let fired = engine.evaluate(SimTime::from_secs(2), &series);
        assert_eq!(fired.len(), 1);
        assert!(fired[0].fired);
        assert_eq!(engine.firing_rules(), vec!["links-degraded"]);

        gauge.set(0);
        series.sample(SimTime::from_secs(3), &tel.report());
        let cleared = engine.evaluate(SimTime::from_secs(3), &series);
        assert_eq!(cleared.len(), 1);
        assert!(!cleared[0].fired);
        assert!(engine.firing_rules().is_empty());
        assert_eq!(engine.transitions().len(), 2);
    }

    #[test]
    fn rate_rule_clears_once_window_passes() {
        let tel = Telemetry::new();
        let ctr = tel.metrics().counter("faults", "msgs_dropped");
        let mut series = SeriesEngine::new(64);
        let mut engine = AlertEngine::new(vec![AlertRule {
            name: "messages-dropped",
            signal: AlertSignal::CounterRateAbove {
                key: "faults/msgs_dropped",
                per_sec: 0.0,
                window: SimDuration::from_secs(6),
            },
            deterministic: true,
        }]);
        for t in 1..=20u64 {
            if (5..10).contains(&t) {
                ctr.add(3);
            }
            series.sample(SimTime::from_secs(t), &tel.report());
            engine.evaluate(SimTime::from_secs(t), &series);
        }
        let events = engine.transitions();
        assert_eq!(events.len(), 2, "{events:?}");
        assert!(events[0].fired && events[0].at == SimTime::from_secs(5));
        assert!(!events[1].fired);
        // Cleared once the 6 s window slid past the last drop at t=9.
        assert!(events[1].at > SimTime::from_secs(9));
        assert!(events[1].at <= SimTime::from_secs(16));
    }

    #[test]
    fn stall_rule_needs_a_prior_rise() {
        let tel = Telemetry::new();
        let ctr = tel.metrics().counter("core", "feature_records");
        let mut series = SeriesEngine::new(64);
        let mut engine = AlertEngine::new(vec![AlertRule {
            name: "detection-miss-window",
            signal: AlertSignal::CounterStallOver {
                key: "core/feature_records",
                window: SimDuration::from_secs(6),
            },
            deterministic: true,
        }]);
        // Quiet from the start: never fires (nothing has risen).
        for t in 1..=10u64 {
            series.sample(SimTime::from_secs(t), &tel.report());
            engine.evaluate(SimTime::from_secs(t), &series);
        }
        assert!(engine.transitions().is_empty());
        // Rise, then stall past the window: fires; rise again: clears.
        ctr.inc();
        for t in 11..=25u64 {
            if t == 20 {
                ctr.inc();
            }
            series.sample(SimTime::from_secs(t), &tel.report());
            engine.evaluate(SimTime::from_secs(t), &series);
        }
        let events = engine.transitions();
        assert_eq!(events.len(), 2, "{events:?}");
        assert!(events[0].fired && events[0].at == SimTime::from_secs(18));
        assert!(!events[1].fired && events[1].at == SimTime::from_secs(20));
    }

    /// A renamed or deleted metric cannot silently detach its rule.
    #[test]
    fn standard_rule_keys_are_declared_metric_names() {
        use AlertSignal::*;
        for rule in standard_rules() {
            let (CounterRateAbove { key, .. }
            | GaugeAbove { key, .. }
            | HistogramP99Above { key, .. }
            | CounterStallOver { key, .. }) = rule.signal;
            let declared = key
                .split_once('/')
                .is_some_and(|(sub, name)| athena_telemetry::names::is_declared(sub, name));
            assert!(declared, "{}: key {key:?} is not declared", rule.name);
        }
    }

    #[test]
    fn standard_rules_have_unique_names() {
        let rules = standard_rules();
        let mut names: Vec<_> = rules.iter().map(|r| r.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), rules.len());
    }
}
