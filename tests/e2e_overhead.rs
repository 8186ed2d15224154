//! The Table IX invariant end-to-end: Athena's overhead is real and
//! ordered — bare controller > Athena-without-DB > Athena-with-DB in
//! Cbench throughput — and the store actually receives the features.
//!
//! Also the telemetry gate: running the same simulation with telemetry
//! enabled changes the simulated results not at all and does a bounded
//! amount of extra work per stored feature record — and the same holds
//! for the full observe layer (causal tracing + series sampling + alert
//! evaluation) on top. And the span-count gate: the causal spans of a
//! run, counted per boundary, equal the counters the same run keeps for
//! its own purposes.

use athena::apps::{DdosDataset, DdosDetector, DdosDetectorConfig};
use athena::controller::cbench::{throughput_round, CbenchResponder};
use athena::controller::ControllerCluster;
use athena::core::{Athena, AthenaConfig};
use athena::dataplane::{workload, Network, NetworkCounters, Topology};
use athena::ml::Algorithm;
use athena::observe::Observe;
use athena::telemetry::{names, Telemetry};
use athena::types::{SimDuration, SimTime};

fn cluster_with(athena: Option<&Athena>) -> ControllerCluster {
    let topo = Topology::enterprise();
    let mut cluster = ControllerCluster::bare(&topo);
    cluster.add_processor(Box::new(CbenchResponder));
    if let Some(a) = athena {
        a.attach(&mut cluster);
    }
    cluster
}

/// Cbench rate of each configuration: the fastest of its rounds, the
/// configurations taking turns round by round. The other tests of this
/// binary run alongside on what may be a two-core box; a round they
/// disturb must not decide an ordering that an undisturbed one shows,
/// and taking turns spreads a disturbance over all three.
fn best_rates(configs: [Option<&Athena>; 3]) -> [f64; 3] {
    let mut clusters = configs.map(cluster_with);
    let mut best = [0.0f64; 3];
    for round in 0..9 {
        for (cluster, best) in clusters.iter_mut().zip(&mut best) {
            let r = throughput_round(cluster, 4_000, round);
            // Every packet-in got exactly one flow-mod in every configuration.
            assert_eq!(r.responses, r.requests);
            *best = best.max(r.responses_per_sec());
        }
    }
    best
}

#[test]
fn cbench_overhead_ordering_holds() {
    let with_db = Athena::new(AthenaConfig::default());
    let no_db = Athena::new(AthenaConfig {
        store_enabled: false,
        ..AthenaConfig::default()
    });
    let [without, no_db_rate, with_db_rate] = best_rates([None, Some(&no_db), Some(&with_db)]);

    assert!(
        without > no_db_rate,
        "athena must cost something: {without} vs {no_db_rate}"
    );
    assert!(
        no_db_rate > with_db_rate,
        "db publication must cost more: {no_db_rate} vs {with_db_rate}"
    );

    // The with-DB deployment actually stored the per-event features.
    assert!(
        with_db.stored_feature_count() > 10_000,
        "features stored: {}",
        with_db.stored_feature_count()
    );
    // The no-DB deployment stored nothing.
    assert_eq!(no_db.stored_feature_count(), 0);
}

/// One full simulated deployment: enterprise topology, benign workload,
/// Athena attached, optionally with the observe layer (tracing +
/// sampling + alerting) bound everywhere. Returns the network and the
/// deployment as the run left them.
fn simulate(tel: &Telemetry, obs: Option<&Observe>) -> (Network, Athena) {
    let topo = Topology::enterprise();
    let mut net = Network::new(topo.clone());
    net.bind_telemetry(tel);
    let mut cluster = ControllerCluster::new(&topo);
    let athena = match obs {
        Some(obs) => {
            net.bind_observe(obs);
            Athena::with_observe(AthenaConfig::default(), tel.clone(), obs.clone())
        }
        None => Athena::with_telemetry(AthenaConfig::default(), tel.clone()),
    };
    athena.attach(&mut cluster);
    net.inject_flows(workload::benign_mix_on(
        &topo,
        60,
        SimDuration::from_secs(8),
        1,
    ));
    net.run_until(SimTime::from_secs(12), &mut cluster);
    (net, athena)
}

/// The deterministic outcomes of a run: network counters and feature
/// records stored.
fn outcome((net, athena): &(Network, Athena)) -> (NetworkCounters, usize) {
    (net.counters(), athena.stored_feature_count())
}

/// Ceilings on what observability may cost, in work done per stored
/// feature record. Both are counts the run reports about itself, so the
/// gate cannot fail because the box was busy; the wall-clock ratios
/// live in the ledger (`telemetry.on_wall_ratio`, `observe.on_wall_ratio`).
///
/// Timed observations are histogram samples (each one a clock-read pair).
/// This run takes 1.24 per record (4,799 over 3,886): the store insert
/// itself, plus the per-message and per-tick timers amortized over a
/// message's records. One more timer per record would break the bound.
const MAX_TIMED_OBSERVATIONS_PER_RECORD: f64 = 2.0;
/// Causal spans (each one a lock and a ring push at open and close).
/// This run records 1.33 per record (5,177 over 3,886): one
/// `quorum_write` each, plus the per-message spans around it.
const MAX_SPANS_PER_RECORD: f64 = 2.0;

#[test]
fn telemetry_changes_results_not_at_all_and_costs_bounded_work_per_record() {
    let off = outcome(&simulate(&Telemetry::off(), None));

    let on = Telemetry::new();
    let with_telemetry = outcome(&simulate(&on, None));
    // The enabled run actually observed the deployment.
    let report = on.report();
    assert!(!report.is_empty(), "enabled telemetry must collect data");

    // Third arm: the full observe layer on top of telemetry.
    let tel = Telemetry::new();
    let obs = Observe::with_telemetry(7, &tel);
    let with_observe = outcome(&simulate(&tel, Some(&obs)));
    assert!(!obs.trace_ids().is_empty(), "observe must record traces");
    assert!(obs.samples() > 0, "observe must sample the registry");

    // Identical simulated outcomes: off, telemetry, or the full observe
    // pipeline.
    assert_eq!(off, with_telemetry, "telemetry changed simulated results");
    assert_eq!(off, with_observe, "observe changed simulated results");

    let stored = off.1 as f64;
    assert!(stored > 0.0);
    let timed: u64 = report.histograms.iter().map(|h| h.snapshot.count).sum();
    let per_record = timed as f64 / stored;
    assert!(
        per_record <= MAX_TIMED_OBSERVATIONS_PER_RECORD,
        "telemetry took {per_record:.3} timed observations per stored record \
         ({timed} over {stored} records)"
    );
    let traced = obs.report();
    let spans = traced.spans + traced.spans_dropped;
    let per_record = spans as f64 / stored;
    assert!(
        per_record <= MAX_SPANS_PER_RECORD,
        "observe opened {per_record:.3} spans per stored record \
         ({spans} over {stored} records)"
    );
}

/// Every boundary that opens a causal span also keeps a counter for its
/// own purposes; on one fault-free run under the synchronous discipline
/// the two must agree, boundary by boundary. These are the counts the
/// ledger reports from outside (`store.inserts`,
/// `controller.packet_in_calls`, `controller.stats_reply_calls`,
/// `dataplane.steps`), so the program's own view and the outside one
/// cannot drift — and a boundary that loses its span fails here, by name.
#[test]
fn span_counts_equal_the_functional_counters_of_the_same_run() {
    let tel = Telemetry::new();
    let obs = Observe::with_telemetry(7, &tel);
    let (net, athena) = simulate(&tel, Some(&obs));

    // The compute boundary: one local fit (no job) and one distributed
    // validation (jobs) through the deployment's own cluster.
    let det = DdosDetector::new(DdosDetectorConfig::default());
    let data = DdosDataset::generate(2_000, 3);
    let dm = athena.detector_manager();
    let model = dm
        .generate_from_points(
            data.points.clone(),
            &DdosDetector::features(),
            &det.preprocessor(),
            &Algorithm::kmeans(4),
        )
        .expect("k-means fits the synthetic set");
    let _ = dm.validate_points_distributed(data.points, &model);

    let spans = obs.spans();
    let named = |subsystem: &'static str, name: &'static str| {
        spans
            .iter()
            .filter(move |s| (s.subsystem, s.name) == (subsystem, name))
    };
    let span_count = |subsystem, name| named(subsystem, name).count() as u64;
    let m = tel.metrics();
    let ctl = |name| m.counter(names::controller::SUBSYSTEM, name).get();
    let report = obs.report();
    assert_eq!(
        (
            report.spans_dropped,
            report.events_dropped,
            report.trace_ids_dropped
        ),
        (0, 0, 0),
        "the recorder overflowed; the counts below would be short"
    );

    let store = athena.runtime().store.metrics();
    assert!(store.inserts > 0);
    assert_eq!(
        span_count("store", "quorum_write"),
        store.inserts + store.quorum_failures
    );

    let packet_ins = net.counters().packet_ins;
    assert!(packet_ins > 0);
    assert_eq!(span_count("dataplane", "packet_in"), packet_ins);
    assert_eq!(span_count("controller", "packet_in"), packet_ins);
    assert_eq!(ctl(names::controller::PACKET_INS), packet_ins);
    let stats_replies = ctl(names::controller::STATS_REPLIES);
    assert!(stats_replies > 0);
    assert_eq!(span_count("dataplane", "stats_reply"), stats_replies);

    // Every message the controller took reached the one southbound
    // element mastering its switch.
    let handed = packet_ins + stats_replies + ctl(names::controller::FLOW_REMOVEDS);
    assert_eq!(span_count("core", "feature_gen"), handed);
    // A dispatch is one non-empty batch of records: one per message that
    // yielded any, plus the window flushes `on_tick` makes outside any
    // message — so `core/dispatch` may exceed `core/feature_gen` (391 to
    // 390 here). What the batches must add up to is the records counted.
    let yielding = named("core", "feature_gen")
        .filter(|s| s.detail != "0 records")
        .count() as u64;
    assert!(0 < yielding && yielding <= span_count("core", "dispatch"));
    let dispatched_records: u64 = named("core", "dispatch")
        .map(|s| {
            let n = s.detail.split(' ').next().unwrap_or_default();
            n.parse::<u64>().expect("`<n> records, <m> verdicts`")
        })
        .sum();
    assert_eq!(
        dispatched_records,
        m.counter(names::core::SUBSYSTEM, names::core::FEATURE_RECORDS)
            .get()
    );

    let jobs = dm.compute().job_count();
    assert!(jobs > 0);
    assert_eq!(span_count("compute", "job"), jobs);

    let ticks = net.now().as_micros() / net.config().tick.as_micros();
    let steps = m
        .histogram(names::dataplane::SUBSYSTEM, names::dataplane::STEP_NS)
        .snapshot()
        .count;
    assert_eq!(steps, ticks);
}

#[test]
fn store_receives_replicated_journaled_writes() {
    let athena = Athena::new(AthenaConfig::default());
    let mut cluster = cluster_with(Some(&athena));
    let _ = throughput_round(&mut cluster, 2_000, 9);
    let store = &athena.runtime().store;
    let metrics = store.metrics();
    assert!(metrics.inserts >= 2_000);
    // Replication factor 2: every insert hit two nodes' journals.
    assert_eq!(metrics.replica_writes, metrics.inserts * 2);
    assert!(store.total_journal_bytes() > 0);
}
