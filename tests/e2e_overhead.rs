//! The Table IX invariant end-to-end: Athena's overhead is real and
//! ordered — bare controller > Athena-without-DB > Athena-with-DB in
//! Cbench throughput — and the store actually receives the features.
//!
//! Also the telemetry gate: running the same simulation with telemetry
//! enabled changes the simulated results not at all and does a bounded
//! amount of extra work per stored feature record — and the same holds
//! for the full observe layer (causal tracing + series sampling + alert
//! evaluation) on top.

use athena::controller::cbench::{throughput_round, CbenchResponder};
use athena::controller::ControllerCluster;
use athena::core::{Athena, AthenaConfig};
use athena::dataplane::{workload, Network, NetworkCounters, Topology};
use athena::observe::Observe;
use athena::telemetry::Telemetry;
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
/// sampling + alerting) bound everywhere. Returns the deterministic
/// outcomes: network counters and feature records stored.
fn simulate(tel: &Telemetry, obs: Option<&Observe>) -> (NetworkCounters, usize) {
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
    let off = simulate(&Telemetry::off(), None);

    let on = Telemetry::new();
    let with_telemetry = simulate(&on, None);
    // The enabled run actually observed the deployment.
    let report = on.report();
    assert!(!report.is_empty(), "enabled telemetry must collect data");

    // Third arm: the full observe layer on top of telemetry.
    let tel = Telemetry::new();
    let obs = Observe::with_telemetry(7, &tel);
    let with_observe = simulate(&tel, Some(&obs));
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
