//! Worker-count determinism e2e: the same seeded scenario run at
//! `ATHENA_THREADS=1` and `ATHENA_THREADS=8` must produce byte-identical
//! store contents, detection verdicts, causal streams, and counters. The
//! width may only change *how fast* answers arrive, never the answers —
//! index-ordered results in `athena-parallel` plus the
//! no-unordered-iter lint rule are what make this hold.
//!
//! The causal stream is compared whole — every field of every span and
//! event: spans are stamped in virtual time and opened on the driving
//! thread only, so nothing in them depends on the host. Every metric
//! counter is compared; histograms (wall-clock-fed) are not.
//!
//! Set `ATHENA_CHAOS_SMOKE=1` for the lighter CI workload (same
//! assertions).

mod common;

use athena::apps::{DdosDetector, DdosDetectorConfig, ScanDetector};
use athena::controller::ControllerCluster;
use athena::core::{Athena, AthenaConfig};
use athena::dataplane::{workload, Network, Topology};
use athena::faults::{run_with_faults, ChaosChannel, FaultInjector, Scenario};
use athena::observe::{CausalEvent, CausalSpan, Observe};
use athena::telemetry::{Counter, Telemetry};
use athena::types::{SimDuration, SimTime};
use common::scaled;
use std::sync::Mutex;

/// Same seed family as the chaos matrix and recovery e2e.
const SEED: u64 = 7;
const INJECT_AT: SimTime = SimTime::from_secs(10);
const RECOVER_AT: SimTime = SimTime::from_secs(20);
const END: SimTime = SimTime::from_secs(35);

/// Serializes runs: `ATHENA_THREADS` is process-global.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    std::env::set_var("ATHENA_THREADS", threads.to_string());
    let out = f();
    std::env::remove_var("ATHENA_THREADS");
    out
}

/// Everything a run observably produced, in comparable form.
#[derive(Debug, PartialEq, Eq)]
struct Snapshot {
    store: String,
    verdict: String,
    counters: Vec<String>,
    /// Seed-derived causal trace ids, in root-creation order.
    trace_ids: Vec<u64>,
    /// Every completed causal span, in finish order, and every event.
    spans: Vec<CausalSpan>,
    events: Vec<CausalEvent>,
    /// Rendered fire/clear transitions of the deterministic alert rules.
    alerts: Vec<String>,
}

impl Snapshot {
    /// Takes the rig's parts rather than the rig: the chaos run has moved
    /// its cluster into the chaos channel by then.
    fn of(athena: &Athena, tel: &Telemetry, obs: &Observe, verdict: String) -> Self {
        Snapshot {
            store: athena.runtime().store.contents(),
            verdict,
            counters: canonical_counters(tel),
            trace_ids: obs.trace_ids(),
            spans: obs.spans(),
            events: obs.events(),
            alerts: canonical_alerts(obs),
        }
    }
}

/// The deterministic alert stream in its canonical byte-compared form.
fn canonical_alerts(obs: &Observe) -> Vec<String> {
    obs.deterministic_alert_events()
        .iter()
        .map(|e| e.render())
        .collect()
}

/// Every counter value.
fn canonical_counters(tel: &Telemetry) -> Vec<String> {
    tel.report()
        .counters
        .into_iter()
        .map(|c| format!("{}={}", c.key.label(), c.value))
        .collect()
}

/// Where two streams first differ — the index and the two items, not a
/// 15,000-span dump.
fn first_difference<'a, T: PartialEq>(
    a: &'a [T],
    b: &'a [T],
) -> Option<(usize, Option<&'a T>, Option<&'a T>)> {
    (0..a.len().max(b.len()))
        .find(|&i| a.get(i) != b.get(i))
        .map(|i| (i, a.get(i), b.get(i)))
}

fn assert_identical(what: &str, one: Snapshot, eight: Snapshot) {
    assert!(!one.store.is_empty(), "{what}: empty store snapshot");
    assert!(!one.trace_ids.is_empty(), "{what}: no causal traces");
    assert!(!one.spans.is_empty(), "{what}: no causal spans");
    assert_eq!(one.store, eight.store, "{what}: store contents diverge");
    assert_eq!(one.verdict, eight.verdict, "{what}: verdicts diverge");
    assert_eq!(one.counters, eight.counters, "{what}: counters diverge");
    assert_eq!(
        one.trace_ids, eight.trace_ids,
        "{what}: causal trace-id streams diverge"
    );
    assert_eq!(
        first_difference(&one.spans, &eight.spans),
        None,
        "{what}: causal spans diverge"
    );
    assert_eq!(
        first_difference(&one.events, &eight.events),
        None,
        "{what}: causal events diverge"
    );
    assert_eq!(
        one.alerts, eight.alerts,
        "{what}: deterministic alert streams diverge"
    );
}

/// One full Athena deployment over the enterprise topology, telemetry
/// bound into the dataplane and the core stack.
struct Rig {
    topo: Topology,
    tel: Telemetry,
    obs: Observe,
    net: Network,
    athena: Athena,
    cluster: ControllerCluster,
}

fn rig() -> Rig {
    let topo = Topology::enterprise();
    let tel = Telemetry::new();
    let obs = Observe::with_telemetry(SEED, &tel);
    let mut net = Network::new(topo.clone());
    net.bind_telemetry(&tel);
    net.bind_observe(&obs);
    let mut cluster = ControllerCluster::new(&topo);
    let athena = Athena::with_observe(AthenaConfig::default(), tel.clone(), obs.clone());
    athena.attach(&mut cluster);
    Rig {
        topo,
        tel,
        obs,
        net,
        athena,
        cluster,
    }
}

/// The chaos-matrix DDoS load (benign mix + flood at the first host).
fn inject_ddos(r: &mut Rig) -> athena::types::Ipv4Addr {
    let victim = r.topo.hosts[0].ip;
    r.net.inject_flows(workload::benign_mix_on(
        &r.topo,
        scaled(120),
        SimDuration::from_secs(30),
        101,
    ));
    r.net.inject_flows(workload::ddos_flood(
        &r.topo,
        victim,
        workload::DdosParams {
            start: SimTime::from_secs(8),
            duration: SimDuration::from_secs(22),
            n_flows: scaled(250),
            ..workload::DdosParams::default()
        },
        102,
    ));
    victim
}

fn ddos_snapshot() -> Snapshot {
    let mut r = rig();
    let victim = inject_ddos(&mut r);
    r.net.run_until(END, &mut r.cluster);
    let det = DdosDetector::new(DdosDetectorConfig {
        victim,
        ..DdosDetectorConfig::default()
    });
    let model = det.train(&r.athena).expect("training");
    let confusion = det.test(&r.athena, &model).confusion;
    Snapshot::of(&r.athena, &r.tel, &r.obs, format!("{confusion:?}"))
}

fn port_scan_snapshot() -> Snapshot {
    let mut r = rig();
    let scanner = r.topo.hosts[0].ip;
    let target = r.topo.hosts[30].ip;
    let mut det = ScanDetector::new();
    det.deploy(&r.athena);
    r.net.inject_flows(workload::benign_mix_on(
        &r.topo,
        scaled(80),
        SimDuration::from_secs(20),
        401,
    ));
    r.net.inject_flows(workload::port_scan(
        scanner,
        target,
        scaled(40) as u16,
        SimTime::from_secs(5),
        402,
    ));
    r.net.run_until(SimTime::from_secs(25), &mut r.cluster);
    let flagged = det.detect(&r.athena);
    let mitigated = r.athena.mitigated_hosts();
    Snapshot::of(
        &r.athena,
        &r.tel,
        &r.obs,
        format!("flagged={flagged:?} mitigated={mitigated:?}"),
    )
}

/// A chaos-matrix controller-crash run: faults strike mid-attack, heal,
/// and the run completes — all under fault injection.
fn chaos_snapshot() -> Snapshot {
    let mut r = rig();
    let victim = inject_ddos(&mut r);
    let store_nodes = r.athena.runtime().store.node_count();
    let plan = Scenario::ControllerCrash.plan(&r.topo, store_nodes, SEED, INJECT_AT, RECOVER_AT);
    assert!(!plan.is_empty(), "empty fault plan");
    let mut injector = FaultInjector::new(plan).with_store(r.athena.runtime().store.clone());
    let mut chaos = ChaosChannel::new(r.cluster, SEED);
    chaos.bind_observe(&r.obs);
    while r.net.now() < END {
        let next = (r.net.now() + SimDuration::from_secs(1)).min(END);
        run_with_faults(&mut r.net, next, &mut chaos, &mut injector);
    }
    assert!(injector.finished(), "fault events left unapplied");
    let det = DdosDetector::new(DdosDetectorConfig {
        victim,
        ..DdosDetectorConfig::default()
    });
    let model = det.train(&r.athena).expect("training");
    let confusion = det.test(&r.athena, &model).confusion;
    Snapshot::of(&r.athena, &r.tel, &r.obs, format!("{confusion:?}"))
}

#[test]
fn ddos_run_is_byte_identical_across_worker_counts() {
    let one = with_threads(1, ddos_snapshot);
    let eight = with_threads(8, ddos_snapshot);
    assert_identical("ddos", one, eight);
}

#[test]
fn port_scan_run_is_byte_identical_across_worker_counts() {
    let one = with_threads(1, port_scan_snapshot);
    let eight = with_threads(8, port_scan_snapshot);
    assert_identical("port-scan", one, eight);
}

#[test]
fn chaos_controller_crash_is_byte_identical_across_worker_counts() {
    let one = with_threads(1, chaos_snapshot);
    let eight = with_threads(8, chaos_snapshot);
    assert_identical("chaos/controller-crash", one, eight);
}

/// One Table-IV matrix cell rendered to canonical bytes: the DDoS family
/// run, all twelve algorithms trained on it, and every evaluated cell
/// serialized. Pool width must never change a cell.
fn matrix_cell_bytes() -> String {
    use athena_bench::matrix::{evaluate_cell, run_family, train_models, MatrixConfig};
    let cfg = MatrixConfig {
        seed: SEED,
        smoke: true,
        ..MatrixConfig::default()
    };
    let run = run_family(athena::workloads::AttackFamily::Ddos, &cfg);
    let models = train_models(&[&run]);
    let cells: Vec<_> = models
        .iter()
        .map(|(algorithm, model)| evaluate_cell(&run, algorithm, model.as_ref()))
        .collect();
    serde_json::to_string(&cells).expect("cells serialize")
}

/// The ddos run with the streaming pipeline live: a `RetrainLoop`
/// retrains on the live window and hot-swaps the online validator
/// mid-run. The fit runs inside the tick, so the full observable state
/// — alert stream included via the `stream/*` counters — must stay
/// width-invariant.
fn stream_hot_swap_snapshot() -> Snapshot {
    use athena::apps::DdosDataset;
    use athena::ml::Algorithm;
    use athena::stream::{OnlineSpec, RetrainLoop, StreamConfig};
    use std::sync::Arc;

    let mut r = rig();
    let victim = inject_ddos(&mut r);
    let det = DdosDetector::new(DdosDetectorConfig {
        victim,
        ..DdosDetectorConfig::default()
    });
    let pretrain = DdosDataset::generate(scaled(2_000), 3);
    let bootstrap = r
        .athena
        .detector_manager()
        .generate_from_points(
            pretrain.points,
            &DdosDetector::features(),
            &det.preprocessor(),
            &Algorithm::kmeans(4),
        )
        .expect("bootstrap model");
    let truth_det = det.clone();
    let mut retrain = RetrainLoop::deploy(
        &r.athena,
        &det.query(),
        StreamConfig {
            features: DdosDetector::features(),
            spec: OnlineSpec::NaiveBayes,
            preprocessor: det.preprocessor(),
            snapshot: None,
        },
        Arc::new(move |rec| (truth_det.truth())(rec)),
        bootstrap,
        Box::new(|_| None),
    );
    while r.net.now() < END {
        let next = (r.net.now() + SimDuration::from_secs(1)).min(END);
        r.net.run_until(next, &mut r.cluster);
        retrain.tick(&r.athena, r.net.now());
    }
    let swaps = retrain.reports().iter().filter(|rep| rep.swapped).count();
    assert!(swaps >= 1, "no hot-swap happened mid-run");
    Snapshot::of(
        &r.athena,
        &r.tel,
        &r.obs,
        format!("{:?}", retrain.reports()),
    )
}

#[test]
fn stream_hot_swap_run_is_byte_identical_across_worker_counts() {
    let one = with_threads(1, stream_hot_swap_snapshot);
    let eight = with_threads(8, stream_hot_swap_snapshot);
    assert_identical("stream-hot-swap", one, eight);
}

#[test]
fn matrix_cells_are_byte_identical_across_worker_counts() {
    let one = with_threads(1, matrix_cell_bytes);
    let eight = with_threads(8, matrix_cell_bytes);
    assert!(!one.is_empty());
    assert_eq!(one, eight, "matrix cells diverge across worker counts");
}

// ---- runtime lock-order sentinel ------------------------------------
//
// The static gate (`crates/analyze`) derives the lock-acquisition graph
// from the call graph and verifies it against `[analyze] lock_order` in
// `lint.toml`. The sentinel closes the loop dynamically: every tracked
// acquisition records the locks the thread already held, and the
// observed edges are cross-checked against the *same* declared order.
// `scripts/ci.sh` runs this suite with `ATHENA_LOCK_SENTINEL=1` so the
// plain scenario runs record edges too; the tests below force tracking
// on so they validate even in a default `cargo test`.

use athena::types::sentinel;

/// The declared order from `lint.toml` — one list serves both checkers.
fn declared_lock_order() -> Vec<String> {
    athena_analyze::load_config(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("lint.toml parses")
        .lock_order
}

#[test]
fn sentinel_observes_clean_lock_order_during_chaos_run() {
    // Serialized via ENV_LOCK inside with_threads: sentinel state is
    // process-global, and a concurrent scenario run could interleave
    // its acquisitions with ours.
    let (edges, violations) = with_threads(1, || {
        sentinel::force(Some(true));
        sentinel::reset();
        let _ = chaos_snapshot();
        let edges = sentinel::edges();
        let violations = sentinel::check_against(&declared_lock_order());
        sentinel::force(None);
        sentinel::reset();
        (edges, violations)
    });

    assert!(
        !edges.is_empty(),
        "a full chaos run must nest at least one tracked lock pair"
    );
    assert!(
        violations.is_empty(),
        "runtime acquisitions contradict the statically-verified lock_order:\n{}",
        violations.join("\n")
    );

    // Surface the observation counts the way the production stack
    // reports everything else: through telemetry.
    let tel = Telemetry::new();
    let (edges_observed, order_violations) = (Counter::default(), Counter::default());
    tel.metrics()
        .register_counter("sentinel", "edges_observed", &edges_observed);
    tel.metrics()
        .register_counter("sentinel", "order_violations", &order_violations);
    edges_observed.add(edges.len() as u64);
    order_violations.add(violations.len() as u64);
    let report = tel.report();
    assert!(
        report
            .counters
            .iter()
            .any(|c| c.key.subsystem == "sentinel" && c.value == edges.len() as u64),
        "sentinel counters must surface in the telemetry report"
    );
}

#[test]
fn sentinel_catches_seeded_lock_order_inversion() {
    // The runtime twin of the static corpus case
    // `crates/analyze/tests/corpus/lock_inversion.rs`: acquire the
    // last-declared lock, then the first-declared one under it. The
    // static gate rejects that nesting when it is visible in the call
    // graph; the sentinel must reject it when only the runtime sees it.
    let order = declared_lock_order();
    let first: &'static str = Box::leak(
        order
            .first()
            .expect("non-empty order")
            .clone()
            .into_boxed_str(),
    );
    let last: &'static str = Box::leak(
        order
            .last()
            .expect("non-empty order")
            .clone()
            .into_boxed_str(),
    );

    let violations = with_threads(1, || {
        sentinel::force(Some(true));
        sentinel::reset();
        let outer = sentinel::TrackedMutex::new(last, 0u32);
        let inner = sentinel::TrackedMutex::new(first, 0u32);
        {
            let _go = outer.lock();
            let _gi = inner.lock();
        }
        let violations = sentinel::check_against(&order);
        sentinel::force(None);
        sentinel::reset();
        violations
    });

    assert_eq!(violations.len(), 1, "{violations:?}");
    assert!(
        violations[0].contains("inverts the declared lock_order"),
        "{}",
        violations[0]
    );
}

#[test]
fn sentinel_orders_the_apps_locks_after_the_core_locks() {
    // An app's event handler takes its own lock inside the feature
    // manager's ingest, while `core/feature_manager` is held (under SB
    // dispatch, all four core locks are). The handlers are closures, so
    // the static graph never sees that nesting: only the sentinel does.
    use athena::apps::{LfaMitigator, NaeMonitor};
    use athena::core::{FeatureIndex, FeatureRecord, MessageType, MetaData};
    use athena::types::sentinel::Access;
    use athena::types::{Dpid, FiveTuple, Ipv4Addr, PortNo};

    fn record(
        index: FeatureIndex,
        message_type: MessageType,
        fields: &[(&str, f64)],
    ) -> FeatureRecord {
        let meta = MetaData {
            timestamp: SimTime::from_secs(1),
            message_type,
            ..MetaData::default()
        };
        let mut r = FeatureRecord::new(index).with_meta(meta);
        for &(name, value) in fields {
            r.push_field(name, value);
        }
        r
    }
    let congested_port = record(
        FeatureIndex::port(Dpid::new(2), PortNo::new(1)),
        MessageType::PORT_STATS,
        &[("PORT_TX_UTILIZATION", 0.95), ("PORT_TX_DROPPED_VAR", 0.0)],
    );
    // Switch 3 is one of the two the NAE monitor's SLA covers.
    let monitored_switch = record(
        FeatureIndex::switch(Dpid::new(3)),
        MessageType::SWITCH_STATE,
        &[("SWITCH_PACKET_COUNT_TOTAL", 100.0)],
    );
    let probe = FiveTuple::tcp(
        Ipv4Addr::new(10, 0, 0, 9),
        40_000,
        Ipv4Addr::new(10, 0, 0, 2),
        22,
    );
    let unpaired_probe = record(
        FeatureIndex::flow(Dpid::new(1), probe),
        MessageType::FLOW_STATS,
        &[("PAIR_FLOW", 0.0), ("FLOW_BYTE_COUNT", 60.0)],
    );

    let athena = Athena::new(AthenaConfig::default());
    let lfa = LfaMitigator::new();
    let nae = NaeMonitor::new();
    let scan = ScanDetector::new();
    lfa.deploy(&athena);
    nae.deploy(&athena);
    scan.deploy(&athena);

    let (acquired, violations) = with_threads(1, || {
        sentinel::force(Some(true));
        sentinel::reset();
        {
            let mut fm = athena.runtime().feature_manager.lock();
            for r in [congested_port, monitored_switch, unpaired_probe] {
                fm.ingest(r).expect("record stored");
            }
        }
        let acquired: Vec<&str> = sentinel::acquisitions()
            .into_iter()
            .filter(|((_, access), _)| *access == Access::Lock)
            .map(|((name, _), _)| name)
            .collect();
        let violations = sentinel::check_against(&declared_lock_order());
        sentinel::force(None);
        sentinel::reset();
        (acquired, violations)
    });

    // Each handler matched its record.
    assert_eq!(lfa.pending_alerts(), 1);
    assert_eq!(nae.sample_count(), 1);
    assert_eq!(scan.probe_stats(), (1, 1));
    for name in ["apps/alerts", "apps/state"] {
        assert!(acquired.contains(&name), "`{name}` untracked: {acquired:?}");
    }
    assert!(
        violations.is_empty(),
        "the apps' handler locks contradict the declared lock_order:\n{}",
        violations.join("\n")
    );
}
