//! Child-process drivers: the all-workloads run and the repeatability
//! check.
//!
//! Every workload runs in a child process of its own, so `peak_rss_mb`
//! and `setup_s` are per workload and no workload inherits another's
//! warm heap. Children are started one at a time and waited for.

use crate::spec::{Metric, Spec};
use crate::stats::{median, quartiles, spread};
use crate::workloads::NAMES;
use crate::{Args, BEHAVIOUR, RAW};
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// Runs per set of the repeatability check, each with another seed: the
/// sample size the benchmark's bounds were chosen at.
const RUNS: u64 = 10;

fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Option<Command> {
    let mut cmd = Command::new(std::env::current_exe().ok()?);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    Some(cmd)
}

/// Runs every workload, untraced then traced, each in its own child with
/// inherited output. Returns whether all of them succeeded.
pub fn run_all(args: &Args) -> bool {
    let mut ok = true;
    for workload in NAMES {
        for trace in [false, true] {
            let status =
                child(workload, args.seed, args.seconds, trace).and_then(|mut c| c.status().ok());
            if !status.is_some_and(|s| s.success()) {
                eprintln!("ledger: {workload} (trace {trace}) failed: {status:?}");
                ok = false;
            }
            println!();
        }
    }
    ok
}

/// What one untraced child run reported.
struct Run {
    /// Metric name → value, from the result line; and `raw <name>` → the
    /// run's raw readings.
    metrics: BTreeMap<String, f64>,
    /// The line stating the simulated behaviour: outputs digest and, where
    /// the workload has them, detection rate, false-alarm rate and delay.
    behaviour: String,
}

/// One untraced child run, or `None` if it failed or reported itself
/// incorrect.
fn run_untraced(workload: &str, seed: u64, seconds: f64) -> Option<Run> {
    let output = child(workload, seed, seconds, false)?
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .ok()?;
    if !output.status.success() {
        return None;
    }
    parse_run(&String::from_utf8(output.stdout).ok()?)
}

/// Reads a run out of an untraced pass's standard output.
fn parse_run(stdout: &str) -> Option<Run> {
    let mut metrics = parse_result(stdout.lines().last()?)?;
    let host = stdout.lines().find_map(|l| l.strip_prefix(RAW))?;
    for (name, value) in host.split(' ').filter_map(|pair| pair.split_once('=')) {
        metrics.insert(format!("{RAW}{name}"), value.parse().ok()?);
    }
    Some(Run {
        metrics,
        behaviour: stdout
            .lines()
            .find_map(|l| l.strip_prefix(BEHAVIOUR))?
            .to_owned(),
    })
}

fn parse_result(line: &str) -> Option<BTreeMap<String, f64>> {
    let json: Value = serde_json::from_str(line).ok()?;
    if json.get("correct")?.as_bool()? && json.get("failed")?.as_u64()? == 0 {
        json.get("metrics")?
            .as_object()?
            .iter()
            .map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect()
    } else {
        None
    }
}

/// How one metric behaved over the sets of one workload.
struct Verdict {
    /// Worst spread (IQR ÷ median) of any set.
    spread: f64,
    /// Worst worsening of a set's median against the set before it.
    drift: f64,
}

fn judge(metric: &Metric, sets: &[Vec<f64>]) -> Verdict {
    let medians: Vec<f64> = sets.iter().map(|s| median(s)).collect();
    Verdict {
        spread: sets.iter().map(|s| spread(s)).fold(0.0, f64::max),
        drift: medians
            .windows(2)
            .map(|m| metric.better.worsening(m[0], m[1]))
            .fold(f64::NEG_INFINITY, f64::max),
    }
}

/// `sets` back-to-back sets of [`RUNS`] untraced runs per workload, each
/// run with another seed (the same seeds in every set). Prints, per
/// metric, each set's median and quartiles, the spread and the drift
/// between consecutive sets, and fails when a spread (except `setup_s`'s)
/// or a drift exceeds the metric's bound — the rule the benchmark's
/// bounds were chosen by. The simulated behaviour of a seed (outputs
/// digest, detection rate, false-alarm rate, detect delay) must be the
/// same in every set, exactly.
pub fn repeatability(args: &Args, spec: &Spec, sets: usize) -> bool {
    let mut ok = true;
    for workload in NAMES {
        // values[metric][set] = one value per run
        let mut values: BTreeMap<String, Vec<Vec<f64>>> = BTreeMap::new();
        let mut behaviour: BTreeMap<u64, String> = BTreeMap::new();
        for set in 0..sets {
            for seed in args.seed..args.seed + RUNS {
                let Some(run) = run_untraced(workload, seed, args.seconds) else {
                    eprintln!("ledger: {workload} set {set} seed {seed} failed");
                    ok = false;
                    continue;
                };
                let first = behaviour
                    .entry(seed)
                    .or_insert_with(|| run.behaviour.clone());
                if *first != run.behaviour {
                    eprintln!(
                        "ledger: {workload} seed {seed} behaved differently in set {set}:\n  {first}\n  {}",
                        run.behaviour
                    );
                    ok = false;
                }
                for (name, value) in run.metrics {
                    let per_set = values.entry(name).or_default();
                    per_set.resize(sets, Vec::new());
                    per_set[set].push(value);
                }
            }
        }
        println!("{workload}");
        for (seed, line) in &behaviour {
            println!("  seed {seed}: {line}");
        }
        for m in &spec.end_to_end {
            let Some(per_set) = values.get(&m.name) else {
                continue;
            };
            for (i, s) in per_set.iter().enumerate() {
                let (q1, q3) = quartiles(s);
                println!(
                    "  {:<24} set {i}: median {:>14.4} {:<4} quartiles {q1:.4}..{q3:.4} n={}",
                    m.name,
                    median(s),
                    m.unit,
                    s.len()
                );
            }
            let v = judge(m, per_set);
            let spread_ok = m.name == "setup_s" || v.spread <= m.bound;
            let drift_ok = v.drift <= m.bound;
            println!(
                "  {:<24} spread {:.4}  drift {:+.4}  bound {:.2}  {}",
                m.name,
                v.spread,
                if v.drift.is_finite() { v.drift } else { 0.0 },
                m.bound,
                if spread_ok && drift_ok {
                    "ok"
                } else {
                    "EXCEEDED"
                }
            );
            ok &= spread_ok && drift_ok;
            // The same runs on the host's clock, for comparison: what the
            // machine speed took out.
            if let Some(host) = values.get(&format!("{RAW}{}", m.name)) {
                let v = judge(m, host);
                println!(
                    "  {:<24} spread {:.4}  drift {:+.4}  in host seconds, not judged",
                    "",
                    v.spread,
                    if v.drift.is_finite() { v.drift } else { 0.0 },
                );
            }
        }
        for name in ["machine_speed", "peak_rss_mb"] {
            let per_set = values.get(&format!("{RAW}{name}"));
            for (i, s) in per_set.into_iter().flatten().enumerate() {
                let (q1, q3) = quartiles(s);
                println!(
                    "  {name:<24} set {i}: median {:>14.4}      quartiles {q1:.4}..{q3:.4} n={}, not judged",
                    median(s),
                    s.len()
                );
            }
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Better;

    #[test]
    fn result_line_parses_and_incorrect_runs_are_dropped() {
        let line = r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"wall_s": {"value": 1.25, "unit": "s"}, "setup_s": {"value": 3, "unit": "s"}}}"#;
        let m = parse_result(line).unwrap();
        assert_eq!(m["wall_s"], 1.25);
        assert_eq!(m["setup_s"], 3.0);
        assert!(parse_result(&line.replace("true", "false")).is_none());
        assert!(parse_result(&line.replace("\"failed\": 0", "\"failed\": 2")).is_none());
        assert!(parse_result("not json").is_none());
    }

    #[test]
    fn a_run_is_read_out_of_the_untraced_output() {
        let stdout = "\
host seconds per rep: median 2.0  quartiles 1.9..2.1  warm-up 2.5
raw wall_s=2 setup_s=3.5 machine_speed=0.5
behaviour digest=00ff detection_rate=0.97
{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 1, \"unit\": \"s\"}}}";
        let run = parse_run(stdout).unwrap();
        assert_eq!(run.metrics["wall_s"], 1.0);
        assert_eq!(run.metrics["raw wall_s"], 2.0);
        assert_eq!(run.metrics["raw machine_speed"], 0.5);
        assert_eq!(run.behaviour, "digest=00ff detection_rate=0.97");
        assert!(parse_run(&stdout.replace("behaviour ", "")).is_none());
        assert!(parse_run(&stdout.replace("raw ", "")).is_none());
    }

    #[test]
    fn judge_reports_worst_spread_and_directional_drift() {
        let lower = Metric {
            name: "t".to_owned(),
            unit: "s".to_owned(),
            better: Better::Lower,
            bound: 0.1,
        };
        let steady: Vec<f64> = (0..10).map(|i| 10.0 + 0.01 * f64::from(i)).collect();
        let slower: Vec<f64> = steady.iter().map(|v| v * 1.2).collect();
        let v = judge(&lower, &[steady.clone(), slower.clone()]);
        assert!(v.spread < 0.01);
        assert!((v.drift - 0.2).abs() < 1e-9);
        // Getting faster is not drift.
        assert!(judge(&lower, &[slower, steady.clone()]).drift < 0.0);
        let higher = Metric {
            better: Better::Higher,
            ..lower.clone()
        };
        let fewer: Vec<f64> = steady.iter().map(|v| v * 0.5).collect();
        assert!((judge(&higher, &[steady, fewer]).drift - 0.5).abs() < 1e-9);
    }
}
