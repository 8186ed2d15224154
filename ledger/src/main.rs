//! `ledger` — wall-clock benchmark of the full Athena loop, end to end
//! and layer by layer.
//!
//! One invocation measures one workload:
//!
//! ```text
//! ledger --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! It builds the workload's inputs from the seed, runs one discarded
//! warm-up rep, then measured reps for `--seconds` seconds (at least
//! [`MIN_REPS`]), checks the simulated outputs, and prints every metric
//! by name with its unit followed — as the last line of standard output —
//! by one JSON object `{correct, attempted, failed, metrics}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! per-layer ones, from a pass that records spans around every call into
//! a layer and then runs the layer probes. End-to-end times are host
//! seconds multiplied by the run's machine speed (`calib.rs`); per-layer
//! times are host seconds.
//!
//! Without `--workload` it runs every workload in a child process of its
//! own, untraced then traced. `--repeat N` is the repeatability check:
//! N sets of ten untraced runs per workload, each run with another seed;
//! it prints medians, quartiles and spreads and fails if a metric's
//! spread or set-to-set drift exceeds its bound, or if a seed's simulated
//! outputs differ between sets.
//!
//! See `README.md` beside this package for the workloads, the metrics and
//! the measurement protocol.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

mod calib;
mod inputs;
mod link;
mod probes;
mod repeat;
mod spec;
mod stats;
mod trace;
mod workloads;

use crate::calib::{Calibrator, KERNEL_FLAG, REFERENCE_S};
use crate::spec::Spec;
use crate::stats::{median, quartiles};
use crate::trace::Tracer;
use crate::workloads::{Metrics, Rep, RepKind, Workload, POOL_WIDTH_VAR};
use std::process::ExitCode;
use std::time::Instant;

/// Measured reps per run, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// Untraced reps the traced pass runs to measure its own overhead.
const PLAIN_REPS: usize = 3;

/// Start of the line that states a run's simulated behaviour.
pub const BEHAVIOUR: &str = "behaviour ";
/// Start of the line that gives an untraced run's raw readings: its
/// timings as the host's clock read them, before the machine speed is
/// applied, the speed, and the peak resident set.
pub const RAW: &str = "raw ";

const USAGE: &str = "usage: ledger [--workload <name>] [--seed <u64>] [--seconds <n>] \
[--trace <0|1>] [--repeat <sets>]";

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub repeat: Option<usize>,
}

impl Args {
    /// `run_seconds` is the declared run length, used unless `--seconds`
    /// says otherwise.
    fn parse(mut argv: impl Iterator<Item = String>, run_seconds: f64) -> Result<Args, String> {
        let mut args = Args {
            workload: None,
            seed: inputs::DEFAULT_SEED,
            seconds: run_seconds,
            trace: false,
            repeat: None,
        };
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
            match flag.as_str() {
                "--workload" => {
                    if !workloads::NAMES.contains(&value.as_str()) {
                        return Err(bad(&format!("one of {:?}", workloads::NAMES)));
                    }
                    args.workload = Some(value);
                }
                "--seed" => args.seed = value.parse().map_err(|_| bad("a u64"))?,
                "--seconds" => {
                    args.seconds = value.parse().map_err(|_| bad("a number"))?;
                    if !(args.seconds >= 0.0 && args.seconds <= 3600.0) {
                        return Err(bad("between 0 and 3600"));
                    }
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    }
                }
                "--repeat" => {
                    args.repeat = Some(value.parse().map_err(|_| bad("a count"))?);
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(args)
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    if std::env::args().nth(1).as_deref() == Some(KERNEL_FLAG) {
        println!("{}", calib::sample_here());
        return ExitCode::SUCCESS;
    }
    let spec = spec::load();
    let args = match Args::parse(std::env::args().skip(1), spec.run_seconds) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match (&args.workload, args.repeat) {
        (Some(name), _) => run_one(name, &args, &spec, started),
        (None, Some(sets)) => repeat::repeatability(&args, &spec, sets),
        (None, None) => repeat::run_all(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn walls(reps: &[Rep]) -> Vec<f64> {
    reps.iter().map(|r| r.wall_s).collect()
}

/// Runs measured reps for `seconds`, at least [`MIN_REPS`], sampling the
/// reference kernel after each.
fn measure(
    w: &mut dyn Workload,
    tracer: &trace::SharedTracer,
    cal: &mut Calibrator,
    seconds: f64,
) -> Vec<Rep> {
    let mut reps = Vec::new();
    let started = Instant::now();
    while reps.len() < MIN_REPS || started.elapsed().as_secs_f64() < seconds {
        reps.push(w.rep(tracer, RepKind::Measured));
        cal.sample();
    }
    reps
}

/// Whether `name` is one of `off_path`'s entries; an entry ending in `.`
/// stands for every metric of that layer.
fn is_off_path(off_path: &[&str], name: &str) -> bool {
    off_path
        .iter()
        .any(|e| *e == name || (e.ends_with('.') && name.starts_with(e)))
}

/// The value a declared metric is reported with, or why the run fails.
/// A per-layer metric reads 0 where the workload lists it as off its
/// path. One that should have been produced and was not, or is not a
/// number, fails the run, and so does an end-to-end metric that is not
/// above 0.
fn reported(produced: Option<f64>, traced: bool, off_path: bool) -> Result<f64, String> {
    match produced {
        Some(v) if v.is_finite() && (traced || v > 0.0) => Ok(v),
        Some(v) => Err(format!("is {v}")),
        None if off_path => Ok(0.0),
        None => Err("was not produced".to_owned()),
    }
}

/// One workload, one pass, in this process. Returns whether every check
/// held.
fn run_one(name: &str, args: &Args, spec: &Spec, started: Instant) -> bool {
    let tracer = Tracer::shared(args.trace);
    let mut cal = Calibrator::default();
    let sampling = Instant::now();
    cal.sample();
    let sampling_s = sampling.elapsed().as_secs_f64();
    // The pool runs at its default width, whatever the caller's shell says.
    if let Some(width) = std::env::var_os(POOL_WIDTH_VAR) {
        println!("{POOL_WIDTH_VAR}={width:?} from the environment is ignored");
        std::env::remove_var(POOL_WIDTH_VAR);
    }
    let Some(mut w) = workloads::build(name, args.seed) else {
        return false;
    };
    let warm = w.rep(&tracer, RepKind::WarmUp);
    // Process start to the end of the warm-up rep, less the kernel sample.
    let setup_s = started.elapsed().as_secs_f64() - sampling_s;
    cal.sample();
    let reps = measure(w.as_mut(), &tracer, &mut cal, args.seconds);

    let wall = walls(&reps);
    let wall_s = median(&wall);
    let rates: Vec<f64> = reps
        .iter()
        .map(|r| workloads::share(r.records as f64, r.records_s))
        .collect();
    let (q1, q3) = quartiles(&wall);
    println!(
        "workload {name}  seed {}  inputs digest {}  pass {}  reps {}  nproc {}  pool width {}",
        args.seed,
        w.inputs_digest(),
        if args.trace { "traced" } else { "untraced" },
        reps.len(),
        nproc(),
        athena_parallel::threads(),
    );
    println!(
        "host seconds per rep: median {wall_s:.4}  quartiles {q1:.4}..{q3:.4}  warm-up {:.4}",
        warm.wall_s
    );

    let mut digests: Vec<&str> = std::iter::once(&warm)
        .chain(&reps)
        .map(|r| r.digest.as_str())
        .collect();
    let mut attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let mut failed: u64 = reps.iter().map(|r| r.failed).sum::<u64>() + warm.failed;

    let mut metrics = Metrics::new();
    let extra;
    if args.trace {
        // The last measured rep's spans are still in the tracer.
        if let Some(path) = probes::exe_dir().map(|d| d.join(format!("ledger-trace-{name}.json"))) {
            match tracer.borrow().write_json(&path) {
                Ok(()) => println!("trace of the last rep: {}", path.display()),
                Err(e) => eprintln!("ledger: cannot write {}: {e}", path.display()),
            }
        }
        // Every rep of a workload reports the same keys.
        for key in reps.first().into_iter().flat_map(|r| r.layer.keys()) {
            let values: Vec<f64> = reps
                .iter()
                .filter_map(|r| r.layer.get(key).copied())
                .collect();
            metrics.insert(key, median(&values));
        }
        if let Some(speed) = cal.speed() {
            metrics.insert("ledger.machine_speed", speed);
        }
        // Before the extra reps and the probes add their own.
        metrics.insert("ledger.peak_rss_mb", peak_rss_mb());
        extra = traced_extras(w.as_mut(), &warm, wall_s, reps.len(), &mut metrics);
        digests.extend(extra.iter().map(|r| r.digest.as_str()));
        attempted += extra.iter().map(|r| r.attempted).sum::<u64>();
        failed += extra.iter().map(|r| r.failed).sum::<u64>();
    } else {
        let records_per_s = median(&rates);
        // Without a kernel sample there is no speed and no timing: the
        // run fails on the missing metrics.
        if let Some(speed) = cal.speed() {
            let (slowest, fastest) = cal.speed_range();
            println!(
                "{RAW}wall_s={wall_s} feature_records_per_s={records_per_s} setup_s={setup_s} machine_speed={speed} peak_rss_mb={}",
                peak_rss_mb()
            );
            println!(
                "machine speed is reference kernel {REFERENCE_S} s / median sample; samples ranged {slowest:.4}..{fastest:.4}; end-to-end times are host seconds x speed"
            );
            metrics.insert("wall_s", wall_s * speed);
            metrics.insert("feature_records_per_s", records_per_s / speed);
            metrics.insert("setup_s", setup_s * speed);
        }
    }

    let mut correct = failed == 0;
    if !digests.windows(2).all(|d| d[0] == d[1]) {
        correct = false;
        eprintln!("ledger: simulated outputs differ between reps:");
        for d in &digests {
            eprintln!("  {d}");
        }
    }
    if attempted == 0 {
        correct = false;
        eprintln!("ledger: no operation was attempted");
    }
    println!("operations attempted {attempted}  failed {failed}");
    // The behavioural contract — what the simulation did, which must not
    // depend on the clock — on one line, in every pass, so that two runs
    // of one seed (two sets of `--repeat`, a parent and a change commit)
    // can be compared exactly.
    println!(
        "{BEHAVIOUR}digest={} {}  ({})",
        inputs::digest_str(&warm.digest),
        warm.behaviour,
        warm.digest
    );

    let declared = if args.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    for key in metrics.keys() {
        if !declared.iter().any(|m| m.name == *key) {
            correct = false;
            eprintln!("ledger: metric {key} is measured but not declared");
        }
    }
    let off_path = w.off_path();
    let mut json = String::new();
    for m in declared {
        let produced = metrics.get(m.name.as_str()).copied();
        let off = args.trace && is_off_path(off_path, &m.name);
        let value = reported(produced, args.trace, off).unwrap_or_else(|why| {
            correct = false;
            eprintln!("ledger: metric {} {why}", m.name);
            0.0
        });
        println!(
            "{:<40} {value:>18.6} {:<10} ({} is better)",
            m.name,
            m.unit,
            m.better.as_str()
        );
        if !json.is_empty() {
            json.push_str(", ");
        }
        json.push_str(&format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json}}}}}"
    );
    correct
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The rest of the traced pass: untraced reps in the same process (for
/// the tracing overhead), a width-1 rep where the pool is on the path,
/// and the workload's probes. Returns the extra reps so their outputs
/// are checked like any other rep's.
fn traced_extras(
    w: &mut dyn Workload,
    warm: &Rep,
    traced_wall_s: f64,
    reps: usize,
    metrics: &mut Metrics,
) -> Vec<Rep> {
    let plain = Tracer::shared(false);
    let mut extra: Vec<Rep> = (0..PLAIN_REPS)
        .map(|_| w.rep(&plain, RepKind::Measured))
        .collect();
    let plain_wall_s = median(&walls(&extra));
    metrics.insert(
        "ledger.trace_overhead_ratio",
        workloads::share(traced_wall_s, plain_wall_s),
    );
    metrics.insert(
        "ledger.cold_rep_ratio",
        workloads::share(warm.wall_s, traced_wall_s),
    );
    metrics.insert("ledger.traced_wall_s", traced_wall_s);
    metrics.insert("ledger.reps", reps as f64);
    metrics.insert("ledger.nproc", nproc() as f64);
    metrics.insert("parallel.width", athena_parallel::threads() as f64);
    if !is_off_path(w.off_path(), "parallel.default_vs_width1_ratio") {
        // `athena_parallel::threads()` reads the variable per job, so one
        // more rep can run at width 1. (The caller's own setting was
        // cleared before the workload was built.)
        std::env::set_var(POOL_WIDTH_VAR, "1");
        let width1 = w.rep(&plain, RepKind::Measured);
        std::env::remove_var(POOL_WIDTH_VAR);
        metrics.insert(
            "parallel.default_vs_width1_ratio",
            workloads::share(plain_wall_s, width1.wall_s),
        );
        extra.push(width1);
    }
    w.probes(plain_wall_s, metrics);
    extra
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| (*s).to_owned()), 20.0)
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse(&[
            "--workload",
            "nb_analytics",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("nb_analytics"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        let d = parse(&[]).unwrap();
        assert_eq!(d.seed, inputs::DEFAULT_SEED);
        assert_eq!(d.seconds, 20.0);
        assert!(!d.trace && d.workload.is_none() && d.repeat.is_none());
    }

    #[test]
    fn malformed_command_lines_are_refused() {
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seed", "-1"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seconds", "nan"]).is_err());
        assert!(parse(&["--frobnicate", "1"]).is_err());
    }

    #[test]
    fn off_path_entries_name_a_metric_or_a_layer() {
        let off = ["openflow.", "core.train_query_s"];
        assert!(is_off_path(&off, "openflow.encode_ns_per_msg"));
        assert!(is_off_path(&off, "core.train_query_s"));
        assert!(!is_off_path(&off, "core.train_query_s2"));
        assert!(!is_off_path(&off, "store.docs"));
        assert!(!is_off_path(&[], "store.docs"));
    }

    #[test]
    fn missing_or_non_numeric_metrics_fail_unless_off_path() {
        assert_eq!(reported(Some(1.5), true, false), Ok(1.5));
        assert_eq!(reported(Some(0.0), true, false), Ok(0.0));
        assert_eq!(reported(None, true, true), Ok(0.0));
        assert!(reported(None, true, false).is_err());
        assert!(reported(Some(f64::NAN), true, true).is_err());
        assert!(reported(Some(f64::INFINITY), false, false).is_err());
        // End-to-end metrics are never 0 and never off the path.
        assert!(reported(Some(0.0), false, false).is_err());
        assert!(reported(None, false, false).is_err());
    }

    #[test]
    fn peak_rss_is_read_from_proc() {
        assert!(peak_rss_mb() > 1.0);
    }
}
