//! The chaos-alert round trip: every fault [`Scenario`] must *fire* its
//! mapped SLO alert during the fault window and *clear* it after
//! recovery, with the deterministic fire/clear stream byte-identical
//! across reruns. Plus the causal-trace gate: one trace id must stitch
//! a packet-in across at least three subsystems, exported as
//! Chrome-trace JSON (`target/chrome-trace.json`) alongside the
//! point-in-time health report (`target/observe-report.json`).
//!
//! Set `ATHENA_CHAOS_SMOKE=1` for the lighter CI workload (same matrix,
//! same assertions).

mod common;

use common::scaled;
use std::collections::{BTreeMap, BTreeSet};

use athena::controller::ControllerCluster;
use athena::core::{Athena, AthenaConfig};
use athena::dataplane::{workload, Network, Topology};
use athena::faults::{run_with_faults, ChaosChannel, FaultInjector, Scenario};
use athena::observe::Observe;
use athena::telemetry::{names, Telemetry};
use athena::types::{SimDuration, SimTime};

/// Matrix-wide plan seed, matching `e2e_failures`.
const SEED: u64 = 7;

const INJECT_AT: SimTime = SimTime::from_secs(10);
const RECOVER_AT: SimTime = SimTime::from_secs(20);
const END: SimTime = SimTime::from_secs(35);

/// The alert each fault family must round-trip (fire in the fault
/// window, clear after recovery). All mapped rules are deterministic.
fn mapped_alert(scenario: Scenario) -> &'static str {
    match scenario {
        Scenario::LinkFlap | Scenario::LinkDegrade => "links-degraded",
        Scenario::SwitchReboot => "switch-rebooted",
        Scenario::ControllerCrash => "controller-instance-down",
        Scenario::StoreOutage | Scenario::StorePartition => "store-nodes-down",
        Scenario::MessageDrop => "messages-dropped",
        Scenario::MessageDelay => "messages-delayed",
        Scenario::MessageDuplicate => "messages-duplicated",
    }
}

struct ObservedRun {
    athena: Athena,
    net: Network,
    tel: Telemetry,
    obs: Observe,
}

/// The `e2e_failures` chaos harness with the observe layer bound
/// everywhere: dataplane (sampling driver + packet-in spans), chaos
/// channel (fault events), cluster (controller spans), and the Athena
/// runtime (store/compute/core spans).
fn run_observed(scenario: Scenario) -> ObservedRun {
    let tel = Telemetry::new();
    let obs = Observe::with_telemetry(SEED, &tel);
    let topo = Topology::enterprise();
    let mut net = Network::new(topo.clone());
    net.bind_telemetry(&tel);
    net.bind_observe(&obs);
    let mut cluster = ControllerCluster::new(&topo);
    let athena = Athena::with_observe(AthenaConfig::default(), tel.clone(), obs.clone());
    athena.attach(&mut cluster);
    let mut chaos = ChaosChannel::new(cluster, SEED);
    chaos.bind_telemetry(&tel);
    chaos.bind_observe(&obs);

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
            start: SimTime::from_secs(8),
            duration: SimDuration::from_secs(22),
            n_flows: scaled(250),
            ..workload::DdosParams::default()
        },
        102,
    ));

    let store_nodes = athena.runtime().store.node_count();
    let plan = scenario.plan(&topo, store_nodes, SEED, INJECT_AT, RECOVER_AT);
    assert!(!plan.is_empty(), "{}: empty plan", scenario.name());
    let mut injector = FaultInjector::new(plan).with_store(athena.runtime().store.clone());
    injector.bind_telemetry(&tel);
    run_with_faults(&mut net, END, &mut chaos, &mut injector);
    assert!(injector.finished(), "{}: events left", scenario.name());
    ObservedRun {
        athena,
        net,
        tel,
        obs,
    }
}

/// Renders the deterministic alert stream — the byte-compared form.
fn det_alert_stream(obs: &Observe) -> Vec<String> {
    obs.deterministic_alert_events()
        .iter()
        .map(|e| e.render())
        .collect()
}

/// Every scenario fires its mapped alert inside the fault window and
/// clears it before the run ends; two identically-seeded runs produce
/// byte-identical deterministic alert streams.
#[test]
fn chaos_matrix_round_trips_every_mapped_alert() {
    for &scenario in Scenario::all() {
        let run = run_observed(scenario);
        let rule = mapped_alert(scenario);
        let events: Vec<_> = run
            .obs
            .alert_events()
            .into_iter()
            .filter(|e| e.rule == rule)
            .collect();
        let fire = events.iter().find(|e| e.fired).unwrap_or_else(|| {
            panic!(
                "{}: alert {rule} never fired; events: {:?}",
                scenario.name(),
                run.obs.alert_events()
            )
        });
        assert!(
            fire.at >= INJECT_AT && fire.at <= RECOVER_AT,
            "{}: {rule} fired at {:?}, outside the fault window",
            scenario.name(),
            fire.at
        );
        let clear = events.iter().find(|e| !e.fired).unwrap_or_else(|| {
            panic!(
                "{}: alert {rule} fired but never cleared; firing at end: {:?}",
                scenario.name(),
                run.obs.firing()
            )
        });
        assert!(
            clear.at > fire.at && clear.at <= END,
            "{}: {rule} cleared at {:?} (fired {:?})",
            scenario.name(),
            clear.at,
            fire.at
        );
        assert!(
            !run.obs.firing().contains(&rule),
            "{}: {rule} still firing at end of run",
            scenario.name()
        );
        assert!(run.net.delivered_bytes() > 0);

        // Byte-identical deterministic stream on an identically-seeded
        // rerun — fire/clear transitions are part of the replayable
        // behavior, not best-effort monitoring.
        let rerun = run_observed(scenario);
        assert_eq!(
            det_alert_stream(&run.obs),
            det_alert_stream(&rerun.obs),
            "{}: deterministic alert streams diverged across reruns",
            scenario.name()
        );
    }
}

/// One trace id stitches a packet-in across at least three subsystems
/// (dataplane → controller → core/store), and the exports land in
/// `target/` for CI to archive.
#[test]
fn one_trace_spans_at_least_three_subsystems_and_exports() {
    let run = run_observed(Scenario::ControllerCrash);
    let spans = run.obs.spans();
    assert!(!spans.is_empty(), "no causal spans recorded");

    let mut by_trace: BTreeMap<u64, BTreeSet<&'static str>> = BTreeMap::new();
    for s in &spans {
        by_trace.entry(s.trace_id).or_default().insert(s.subsystem);
    }
    let (best_trace, best) = by_trace
        .iter()
        .max_by_key(|(_, subs)| subs.len())
        .expect("at least one trace");
    assert!(
        best.len() >= 3,
        "no single trace crosses >= 3 subsystems; best {best_trace:#x} covers {best:?}"
    );

    // Trace ids are seed-derived, so the stitched trace is replayable.
    assert!(run.obs.trace_ids().contains(best_trace));

    let chrome = run.obs.export_chrome_trace();
    assert!(
        chrome.contains(&format!("{best_trace:#018x}")),
        "chrome trace does not mention trace id {best_trace:#018x}"
    );
    let folded = run.obs.export_folded();
    assert!(folded.contains("dataplane/packet_in"));

    std::fs::create_dir_all("target").unwrap();
    std::fs::write("target/chrome-trace.json", &chrome).unwrap();
    let report = run.obs.report();
    report.save_json("target/observe-report.json").unwrap();
    assert!(report.spans > 0 && report.samples > 0);
    // The one report carries the run's metric snapshot.
    assert!(!report.metrics.counters.is_empty() && !report.metrics.histograms.is_empty());
}

/// Every metric the full stack emits under chaos is declared in the
/// central `athena_telemetry::names` registry.
#[test]
fn full_stack_run_emits_only_declared_metric_names() {
    let run = run_observed(Scenario::StoreOutage);
    let undeclared = names::undeclared(&run.tel.report());
    assert!(
        undeclared.is_empty(),
        "metrics emitted outside the names registry: {undeclared:?}"
    );
    // The run actually exercised the pipeline end to end.
    assert!(run.athena.stored_feature_count() > 0);
}
