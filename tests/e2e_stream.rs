//! Streaming-pipeline e2e gate: under live ddos_flood traffic, a
//! `RetrainLoop` deployment must retrain mid-run on the live window,
//! round-trip the candidate through the persist snapshot format, and
//! hot-swap it into the online validator **without breaking detection
//! continuity** — the gap between consecutive alerts during the attack
//! stays within the ≤ 15 virtual-second bound.
//!
//! Determinism: the full run — alert timestamps, retrain reports,
//! store contents, every counter, and the snapshot bytes on disk — must
//! be byte-identical across reruns and across `ATHENA_THREADS=1` vs `8`
//! (the fit runs inside the tick, so width can never reorder a swap
//! relative to the record stream). The same gate then runs composed
//! with the controller-crash chaos scenario.
//!
//! Satellite check: every metric the stream pipeline emitted must be
//! declared in `athena_telemetry::names` (`names::undeclared` empty).
//!
//! Set `ATHENA_CHAOS_SMOKE=1` for the lighter CI workload (same
//! assertions).
//!
//! The last test is the online-vs-batch sweep over every attack family
//! (`athena_bench::stream::run_stream`): it gates the online learner's
//! floor on the known flood and writes `target/BENCH_stream.json`.

use athena::apps::{DdosDataset, DdosDetector, DdosDetectorConfig};
use athena::controller::ControllerCluster;
use athena::core::{Athena, AthenaConfig, FeatureRecord};
use athena::dataplane::{workload, Network, Topology};
use athena::faults::{run_with_faults, ChaosChannel, FaultInjector, Scenario};
use athena::ml::Algorithm;
use athena::stream::{OnlineSpec, RetrainLoop, RetrainPolicy, StreamConfig};
use athena::telemetry::{names, Telemetry};
use athena::types::{SimDuration, SimTime};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Same seed family as the chaos matrix and determinism e2e.
const SEED: u64 = 7;
const ATTACK_START: SimTime = SimTime::from_secs(8);
const ATTACK_END: SimTime = SimTime::from_secs(30);
const INJECT_AT: SimTime = SimTime::from_secs(10);
const RECOVER_AT: SimTime = SimTime::from_secs(20);
const END: SimTime = SimTime::from_secs(35);
/// The ISSUE acceptance bound on detection continuity, in virtual µs.
const GAP_BOUND_US: u64 = 15_000_000;

fn smoke() -> bool {
    athena::types::env_flag("ATHENA_CHAOS_SMOKE")
}

fn scaled(n: usize) -> usize {
    if smoke() {
        n / 2
    } else {
        n
    }
}

/// Serializes runs: `ATHENA_THREADS` is process-global.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    std::env::set_var("ATHENA_THREADS", threads.to_string());
    let out = f();
    std::env::remove_var("ATHENA_THREADS");
    out
}

/// A fresh snapshot path per run (runs are serialized by `ENV_LOCK`,
/// but distinct paths keep their artifacts inspectable after failures).
fn snapshot_path() -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!(
        "athena-e2e-stream-{}-{n}.model",
        std::process::id()
    ))
}

/// Everything a streaming run observably produced, in comparable form.
#[derive(Debug, PartialEq, Eq)]
struct StreamRun {
    /// Virtual-µs timestamp of every online-validator alert, in order.
    alerts: Vec<u64>,
    /// Every retrain report, rendered.
    reports: Vec<String>,
    store: String,
    counters: Vec<String>,
    /// The last persisted candidate snapshot, byte-for-byte.
    snapshot: Vec<u8>,
    undeclared: Vec<String>,
}

/// Every counter value.
fn canonical_counters(tel: &Telemetry) -> Vec<String> {
    tel.report()
        .counters
        .into_iter()
        .map(|c| format!("{}={}", c.key.label(), c.value))
        .collect()
}

/// One full streaming deployment: chaos-matrix DDoS load, a bootstrap
/// model pretrained offline on the synthetic dataset, and the retrain
/// loop ticked once per virtual second. With `chaos`, the same run
/// executes under the controller-crash fault plan.
fn stream_run(chaos: bool) -> StreamRun {
    let topo = Topology::enterprise();
    let tel = Telemetry::new();
    let mut net = Network::new(topo.clone());
    net.bind_telemetry(&tel);
    let mut cluster = ControllerCluster::new(&topo);
    let athena = Athena::with_telemetry(AthenaConfig::default(), tel.clone());
    athena.attach(&mut cluster);

    let victim = topo.hosts[0].ip;
    net.inject_flows(workload::benign_mix_on(
        &topo,
        scaled(120),
        SimDuration::from_secs(30),
        101,
    ));
    net.inject_flows(workload::ddos_flood(
        &topo,
        victim,
        workload::DdosParams {
            start: ATTACK_START,
            duration: SimDuration::from_secs(22),
            n_flows: scaled(250),
            ..workload::DdosParams::default()
        },
        102,
    ));

    let det = DdosDetector::new(DdosDetectorConfig {
        victim,
        ..DdosDetectorConfig::default()
    });

    // The bootstrap: a model shipped with the app, pretrained offline on
    // synthetic data. It serves from the first record; the retrain loop
    // then adapts to the live traffic and hot-swaps mid-run.
    let pretrain = DdosDataset::generate(scaled(4_000), 3);
    let bootstrap = athena
        .detector_manager()
        .generate_from_points(
            pretrain.points,
            &DdosDetector::features(),
            &det.preprocessor(),
            &Algorithm::kmeans(4),
        )
        .expect("bootstrap model");

    let snap = snapshot_path();
    let cfg = StreamConfig {
        features: DdosDetector::features(),
        spec: OnlineSpec::NaiveBayes,
        preprocessor: det.preprocessor(),
        policy: RetrainPolicy {
            interval: SimDuration::from_secs(10),
            snapshot: Some(snap.clone()),
            ..RetrainPolicy::default()
        },
    };
    let truth_det = det.clone();
    let truth: Arc<dyn Fn(&FeatureRecord) -> bool + Send + Sync> =
        Arc::new(move |r| (truth_det.truth())(r));
    let alerts: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&alerts);
    let mut retrain = RetrainLoop::deploy(
        &athena,
        &det.query(),
        cfg,
        truth,
        bootstrap,
        Box::new(move |r| {
            sink.lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(r.meta.timestamp.as_micros());
            // No mitigation: the flood must keep flowing so continuity
            // is measured against sustained attack traffic.
            None
        }),
    );

    if chaos {
        let store_nodes = athena.runtime().store.node_count();
        let plan = Scenario::ControllerCrash.plan(&topo, store_nodes, SEED, INJECT_AT, RECOVER_AT);
        assert!(!plan.is_empty(), "empty fault plan");
        let mut injector = FaultInjector::new(plan).with_store(athena.runtime().store.clone());
        let mut chaos_ch = ChaosChannel::new(cluster, SEED);
        while net.now() < END {
            let next = (net.now() + SimDuration::from_secs(1)).min(END);
            run_with_faults(&mut net, next, &mut chaos_ch, &mut injector);
            retrain.tick(&athena, net.now());
        }
        assert!(injector.finished(), "fault events left unapplied");
    } else {
        while net.now() < END {
            let next = (net.now() + SimDuration::from_secs(1)).min(END);
            net.run_until(next, &mut cluster);
            retrain.tick(&athena, net.now());
        }
    }

    let alerts = alerts.lock().unwrap_or_else(|e| e.into_inner()).clone();
    let snapshot = std::fs::read(&snap).unwrap_or_default();
    let _ = std::fs::remove_file(&snap);
    StreamRun {
        alerts,
        reports: retrain.reports().iter().map(|r| format!("{r:?}")).collect(),
        store: athena.runtime().store.contents(),
        counters: canonical_counters(&tel),
        snapshot,
        undeclared: names::undeclared(&tel.report()),
    }
}

/// The ISSUE acceptance checks every arm must satisfy.
fn assert_gate(what: &str, run: &StreamRun) {
    // Satellite: every stream metric is declared in telemetry names.
    assert!(
        run.undeclared.is_empty(),
        "{what}: undeclared metrics emitted: {:?}",
        run.undeclared
    );

    // Mid-run retrain + hot-swap: at least one candidate fitted on the
    // live window was swapped in while the attack was underway, and it
    // round-tripped through the persist snapshot format.
    let swapped_mid_run = run
        .reports
        .iter()
        .any(|r| r.contains("swapped: true") && r.contains("online-naive-bayes"));
    assert!(
        swapped_mid_run,
        "{what}: no hot-swapped retrain mid-run; reports: {:?}",
        run.reports
    );
    assert!(
        !run.snapshot.is_empty(),
        "{what}: no persisted candidate snapshot"
    );
    assert!(
        !run.reports.iter().any(|r| r.contains("swapped: false")),
        "{what}: a retrain failed to swap: {:?}",
        run.reports
    );

    // Detection continuity through the swap: alerts flow during the
    // attack with no silent window longer than the bound.
    let attack_alerts: Vec<u64> = run
        .alerts
        .iter()
        .copied()
        .filter(|&t| t >= ATTACK_START.as_micros() && t <= ATTACK_END.as_micros())
        .collect();
    assert!(
        !attack_alerts.is_empty(),
        "{what}: no alerts during the attack window"
    );
    let first = attack_alerts[0];
    let last = attack_alerts[attack_alerts.len() - 1];
    assert!(
        first.saturating_sub(ATTACK_START.as_micros()) <= GAP_BOUND_US,
        "{what}: first alert {first}µs misses the bound after attack start"
    );
    assert!(
        ATTACK_END.as_micros().saturating_sub(last) <= GAP_BOUND_US,
        "{what}: detection went silent from {last}µs to attack end"
    );
    let max_gap = attack_alerts
        .windows(2)
        .map(|w| w[1].saturating_sub(w[0]))
        .max()
        .unwrap_or(0);
    assert!(
        max_gap <= GAP_BOUND_US,
        "{what}: max inter-alert gap {max_gap}µs exceeds {GAP_BOUND_US}µs"
    );
}

fn assert_identical(what: &str, one: &StreamRun, eight: &StreamRun) {
    assert!(!one.store.is_empty(), "{what}: empty store snapshot");
    assert_eq!(one.alerts, eight.alerts, "{what}: alert streams diverge");
    assert_eq!(
        one.reports, eight.reports,
        "{what}: retrain reports diverge"
    );
    assert_eq!(one.store, eight.store, "{what}: store contents diverge");
    assert_eq!(one.counters, eight.counters, "{what}: counters diverge");
    assert_eq!(
        one.snapshot, eight.snapshot,
        "{what}: snapshot bytes diverge"
    );
}

#[test]
fn hot_swap_sustains_detection_and_is_byte_identical_across_worker_counts() {
    let one = with_threads(1, || stream_run(false));
    let again = with_threads(1, || stream_run(false));
    let eight = with_threads(8, || stream_run(false));
    assert_gate("stream/ddos", &one);
    assert_identical("stream/ddos rerun", &one, &again);
    assert_gate("stream/ddos @8", &eight);
    assert_identical("stream/ddos 1v8", &one, &eight);
}

#[test]
fn streaming_gate_holds_under_controller_crash_chaos() {
    let one = with_threads(1, || stream_run(true));
    let eight = with_threads(8, || stream_run(true));
    assert_gate("stream/chaos", &one);
    assert_gate("stream/chaos @8", &eight);
    assert_identical("stream/chaos 1v8", &one, &eight);
}

/// The online-vs-batch sweep at one scale: every family × pairing cell,
/// the online Naive Bayes floor on the known flood (the batch operating
/// point's neighbourhood, reached prequentially), and the archived
/// artifact.
fn online_vs_batch_sweep(smoke: bool, artifact: &str) {
    use athena_bench::matrix::{MatrixConfig, BASELINE_SEED};
    use athena_bench::stream::{pairings, run_stream};

    let report = run_stream(&MatrixConfig {
        seed: BASELINE_SEED,
        smoke,
        ..MatrixConfig::default()
    });
    let families = athena::workloads::AttackFamily::all().len();
    assert_eq!(report.cells.len(), families * pairings().len());

    let nb = report
        .cells
        .iter()
        .find(|c| c.family == "ddos_flood" && c.online.algorithm == "online-naive-bayes")
        .expect("ddos_flood online-NB cell");
    assert!(
        nb.online.detection_rate > 0.9,
        "online NB detection rate {:.4} regressed",
        nb.online.detection_rate
    );
    assert!(
        nb.online.false_alarm_rate < 0.15,
        "online NB false-alarm rate {:.4} regressed",
        nb.online.false_alarm_rate
    );

    let path = std::path::Path::new(artifact);
    report.save_json(path).expect("artifact written");
    let bytes = std::fs::read(path).expect("artifact readable");
    assert_eq!(bytes, report.to_json().expect("serialize").into_bytes());
}

#[test]
fn online_vs_batch_sweep_holds_its_floor_and_writes_the_artifact() {
    online_vs_batch_sweep(true, "target/BENCH_stream.json");
}

#[test]
#[ignore = "full-scale sweep; run with --release -- --ignored"]
fn online_vs_batch_sweep_holds_its_floor_at_full_scale() {
    online_vs_batch_sweep(false, "target/BENCH_stream_full.json");
}
