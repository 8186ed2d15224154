//! Parallel-execution scalability: per-subsystem speedup of the
//! `athena-parallel` pool at 1/2/4/8 workers, and a byte-identity check
//! that every width produces the same answer.
//!
//! The host may have a single CPU core (the CI box does), so wall-clock
//! speedup cannot demonstrate scaling there — worse, per-width wall
//! timing of chunks is *contaminated* there: a chunk timed while
//! sibling workers timeslice the same core is charged for its time
//! descheduled, and one such phantom cost pins the LPT makespan.
//! Following the Figure-10 virtual-time methodology, each subsystem
//! therefore runs once at width 1 with per-item cost accounting (the
//! only uncontended timing the box can produce), and its completion
//! time at width *W* is **modeled** by grouping those item costs into
//! the exact chunks a width-*W* run would claim and placing the chunk
//! sums on *W* workers longest-first (LPT —
//! `athena_parallel::modeled_makespan_ns`). The reported speedup is
//! `Σ serial / Σ makespan(W)`; the wider widths still execute for real
//! as byte-identity gates, with wall time printed alongside for
//! multi-core hosts. Results are written to `BENCH_parallel.json`
//! (override with `ATHENA_PARALLEL_JSON`).
//!
//! Set `ATHENA_BENCH_SMOKE=1` for the <60 s CI workload.

use athena_apps::dataset::{DdosDataset, FEATURES};
use athena_apps::{DdosDetector, DdosDetectorConfig};
use athena_bench::{env_scale, header};
use athena_compute::ComputeCluster;
use athena_core::DetectorManager;
use athena_ml::data::LabeledPoint;
use athena_ml::sweep::{cross_validate, fit_all, table_iv_roster};
use athena_ml::Algorithm;
use athena_parallel::{modeled_makespan_ns, set_accounting, take_jobs, JobStats};
use athena_store::{doc, Filter, FindOptions, StoreCluster};
use athena_telemetry::Telemetry;
use std::time::Instant;

const WIDTHS: [usize; 4] = [1, 2, 4, 8];

fn smoke() -> bool {
    athena_types::env_flag("ATHENA_BENCH_SMOKE")
}

/// One subsystem's sweep: modeled virtual ms, modeled speedup, and wall
/// ms at each width.
struct Row {
    name: &'static str,
    virtual_ms: Vec<f64>,
    speedup: Vec<f64>,
    wall_ms: Vec<f64>,
}

/// Runs `work` once per width with chunk accounting on, asserts the
/// digest is byte-identical at every width, and models the speedup from
/// the measured chunk costs.
fn measure(name: &'static str, mut work: impl FnMut() -> String) -> Row {
    let mut row = Row {
        name,
        virtual_ms: Vec::new(),
        speedup: Vec::new(),
        wall_ms: Vec::new(),
    };
    // Width 1 first: the only uncontended timing a single-core host can
    // produce (a chunk wall-timed while seven sibling workers timeslice
    // the same core is charged for its time *descheduled*, and one such
    // phantom cost pins the LPT makespan — a row once regressed at
    // width 8 exactly this way). Accounting records
    // per-item costs; each wider width is modeled by re-chunking those
    // costs exactly as a real run at that width would
    // (`modeled_makespan_ns`) and placing the chunk sums LPT. The wider
    // runs below still execute for real — as byte-identity gates, with
    // wall time reported alongside.
    std::env::set_var("ATHENA_THREADS", "1");
    set_accounting(true);
    let t0 = Instant::now();
    let baseline = work();
    let wall1 = t0.elapsed();
    let jobs = take_jobs();
    set_accounting(false);
    let serial: u64 = jobs.iter().map(JobStats::serial_ns).sum();
    assert!(serial > 0, "{name}: no pool jobs were recorded at width 1");
    for &w in &WIDTHS {
        let wall = if w == 1 {
            wall1
        } else {
            std::env::set_var("ATHENA_THREADS", w.to_string());
            let t0 = Instant::now();
            let digest = work();
            let wall = t0.elapsed();
            assert_eq!(
                baseline, digest,
                "{name}: output at {w} workers diverges from the width-1 run"
            );
            wall
        };
        let modeled: u64 = jobs
            .iter()
            .map(|j| modeled_makespan_ns(&j.chunk_costs_ns, w))
            .sum();
        row.virtual_ms.push(modeled as f64 / 1e6);
        row.speedup.push(serial as f64 / modeled.max(1) as f64);
        row.wall_ms.push(wall.as_secs_f64() * 1e3);
    }
    std::env::remove_var("ATHENA_THREADS");
    row
}

fn fig10_row() -> Row {
    let entries = env_scale(
        "ATHENA_PARALLEL_ENTRIES",
        if smoke() { 80_000 } else { 150_000 },
    );
    let data = DdosDataset::generate(entries, 20170610);
    let det = DdosDetector::new(DdosDetectorConfig::default());
    let features: Vec<String> = FEATURES.iter().map(|s| (*s).to_owned()).collect();
    let tel = Telemetry::off();
    let trainer = DetectorManager::with_telemetry(ComputeCluster::new(4), &tel);
    let model = trainer
        .generate_from_points(
            data.points[..entries / 10].to_vec(),
            &features,
            &det.preprocessor(),
            &det.config.algorithm,
        )
        .expect("model");
    let points = data.points;
    measure("compute/fig10-validate", move || {
        let dm = DetectorManager::with_telemetry(ComputeCluster::new(4), &tel);
        let (summary, _vt) = dm.validate_points_distributed(points.clone(), &model);
        format!(
            "{:?} benign={} malicious={}",
            summary.confusion, summary.benign_unique_flows, summary.malicious_unique_flows
        )
    })
}

/// Two well-separated blobs, deterministic (no RNG).
fn blobs(n: usize) -> Vec<LabeledPoint> {
    let mut data = Vec::with_capacity(2 * n);
    for i in 0..n {
        let x = (i % 10) as f64 * 0.01 + (i % 97) as f64 * 1e-4;
        data.push(LabeledPoint::new(vec![x, 1.0 - x], 0.0));
        data.push(LabeledPoint::new(vec![5.0 + x, 6.0 - x], 1.0));
    }
    data
}

/// The Table-IV sweep: one pool task per algorithm, then k-fold
/// cross-validation (one task per fold).
fn ml_row() -> Row {
    let n = env_scale(
        "ATHENA_PARALLEL_SWEEP_POINTS",
        if smoke() { 80 } else { 250 },
    );
    let data = blobs(n);
    measure("ml/table-iv-sweep", move || {
        let fits = fit_all(table_iv_roster(), &data);
        let folds = cross_validate(&Algorithm::decision_tree(), &data, 8);
        let mut digest = String::new();
        for f in &fits {
            digest.push_str(&format!("{} {:?};", f.algorithm.name(), f.result));
        }
        for r in &folds {
            digest.push_str(&format!("fold{} {:?};", r.fold, r.result));
        }
        digest
    })
}

/// Cross-shard scans: a 6-node cluster answering non-indexed range
/// queries, one pool task per shard with an ordered id merge.
fn store_row() -> Row {
    let docs = env_scale("ATHENA_PARALLEL_DOCS", if smoke() { 1_500 } else { 6_000 });
    let cluster = StoreCluster::new(6, 2);
    let coll = cluster.collection("bench");
    coll.insert_many((0..docs).map(|i| doc! { "i" => i as i64, "v" => (i as i64 * 7) % 1000 }))
        .expect("insert");
    measure("store/cross-shard-find", move || {
        let mut digest = String::new();
        for lo in [100i64, 300, 500, 700, 900] {
            let hits = coll.find(&Filter::gt("v", lo), &FindOptions::default());
            let id_sum: u64 = hits.iter().map(|d| d.id.0).sum();
            digest.push_str(&format!("gt{lo}:{}:{id_sum};", hits.len()));
        }
        digest
    })
}

fn json_row(row: &Row) -> String {
    let nums = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    format!(
        "    {{\"subsystem\": \"{}\", \"workers\": [1, 2, 4, 8], \"virtual_ms\": [{}], \"speedup\": [{}], \"wall_ms\": [{}]}}",
        row.name,
        nums(&row.virtual_ms),
        nums(&row.speedup),
        nums(&row.wall_ms)
    )
}

fn main() {
    println!(
        "{}",
        header("athena-parallel — modeled speedup at 1/2/4/8 workers")
    );
    println!(
        "methodology: width-1 measured item costs, re-chunked per width and placed LPT\n\
         (virtual time); wall time alongside. Outputs byte-identical at every width.\n"
    );

    let rows = [fig10_row(), ml_row(), store_row()];

    println!(
        "{:<26} {:>7} {:>12} {:>9} {:>10}",
        "subsystem", "workers", "virtual ms", "speedup", "wall ms"
    );
    for row in &rows {
        for (k, &w) in WIDTHS.iter().enumerate() {
            println!(
                "{:<26} {:>7} {:>12.2} {:>8.2}x {:>10.1}",
                if k == 0 { row.name } else { "" },
                w,
                row.virtual_ms[k],
                row.speedup[k],
                row.wall_ms[k]
            );
        }
    }

    let json_path =
        std::env::var("ATHENA_PARALLEL_JSON").unwrap_or_else(|_| "BENCH_parallel.json".to_owned());
    let body = rows.iter().map(json_row).collect::<Vec<_>>().join(",\n");
    let json = format!("{{\n  \"rows\": [\n{body}\n  ]\n}}\n");
    std::fs::write(&json_path, json).expect("write BENCH_parallel.json");
    println!("\nwrote {json_path}");

    // Acceptance: ≥ 2.5× modeled speedup at 4 workers on the Figure-10
    // scalability workload; every width byte-identical (asserted above).
    let fig10_speedup_at_4 = rows[0].speedup[2];
    assert!(
        fig10_speedup_at_4 >= 2.5,
        "fig10 workload speedup at 4 workers below 2.5x: {fig10_speedup_at_4:.2}"
    );
    println!(
        "\nverified: fig10 workload {:.2}x at 4 workers (>= 2.5x), outputs byte-identical at all widths",
        fig10_speedup_at_4
    );
}
