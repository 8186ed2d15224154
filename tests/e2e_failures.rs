//! The chaos matrix: every fault [`Scenario`] crossed with both live
//! detectors (DDoS, port scan), each run under a seeded [`FaultPlan`]
//! injected mid-attack. Every scenario must show *detection continuity*
//! (the detector still works despite the fault) and a *bounded miss
//! window* (Athena-polled monitoring never goes dark for longer than the
//! retry/failover machinery needs).
//!
//! Set `ATHENA_CHAOS_SMOKE=1` to run the same full matrix on a lighter
//! workload (CI keeps the gate under a minute); the matrix itself is
//! never reduced — no scenario is skipped in either mode.

mod common;

use athena::apps::{DdosDetector, DdosDetectorConfig, ScanDetector};
use athena::controller::ControllerCluster;
use athena::core::{Athena, AthenaConfig, Query};
use athena::dataplane::{workload, Network, ShardPlan, Topology};
use athena::faults::{run_with_faults, ChaosChannel, FaultInjector, Scenario};
use athena::telemetry::Telemetry;
use athena::types::{SimDuration, SimTime};
use common::scaled;

/// Matrix-wide plan seed: every scenario picks its fault target from
/// this, so the whole matrix is reproducible bit-for-bit.
const SEED: u64 = 7;

/// The fault strikes mid-attack and heals before the run ends.
const INJECT_AT: SimTime = SimTime::from_secs(10);
const RECOVER_AT: SimTime = SimTime::from_secs(20);

/// Bounded miss window: consecutive Athena-polled feature batches may
/// never be further apart than three poll intervals (5 s each) — enough
/// for a stats-poll retry cycle or a mastership re-election, far less
/// than a monitoring outage.
const MISS_WINDOW_BOUND: SimDuration = SimDuration::from_secs(15);

struct ChaosRun {
    athena: Athena,
    net: Network,
    chaos: ChaosChannel<ControllerCluster>,
    injector: FaultInjector,
}

/// Builds the standard harness — enterprise topology, three-instance
/// cluster behind a chaos channel, Athena attached — and runs the
/// closure-injected workload to `until` with `scenario`'s fault plan
/// applied. The closure also sees the Athena instance so detectors can
/// deploy their live handlers before traffic starts.
fn run_scenario(
    scenario: Scenario,
    tel: Telemetry,
    until: SimTime,
    load: impl FnOnce(&Topology, &mut Network, &Athena),
) -> ChaosRun {
    let topo = Topology::enterprise();
    let mut net = Network::new(topo.clone());
    let mut cluster = ControllerCluster::new(&topo);
    let athena = Athena::with_telemetry(AthenaConfig::default(), tel.clone());
    athena.attach(&mut cluster);
    let mut chaos = ChaosChannel::new(cluster, SEED);
    chaos.bind_telemetry(&tel);
    load(&topo, &mut net, &athena);
    let store_nodes = athena.runtime().store.node_count();
    let plan = scenario.plan(&topo, store_nodes, SEED, INJECT_AT, RECOVER_AT);
    assert!(!plan.is_empty(), "{}: empty plan", scenario.name());
    let mut injector = FaultInjector::new(plan).with_store(athena.runtime().store.clone());
    injector.bind_telemetry(&tel);
    run_with_faults(&mut net, until, &mut chaos, &mut injector);
    assert!(injector.finished(), "{}: events left", scenario.name());
    ChaosRun {
        athena,
        net,
        chaos,
        injector,
    }
}

/// The DDoS workload of `e2e_ddos`, time-shifted so the fault window
/// lands inside the attack.
fn ddos_load(topo: &Topology, net: &mut Network) -> athena::types::Ipv4Addr {
    let victim = topo.hosts[0].ip;
    net.inject_flows(workload::benign_mix_on(
        topo,
        scaled(120),
        SimDuration::from_secs(30),
        101,
    ));
    net.inject_flows(workload::ddos_flood(
        topo,
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

/// Asserts the bounded miss window: between the first Athena-marked poll
/// and the end of the run, consecutive Athena-polled feature timestamps
/// are never further apart than [`MISS_WINDOW_BOUND`].
fn assert_bounded_miss_window(run: &ChaosRun, scenario: Scenario, end: SimTime) {
    let mut stamps: Vec<SimTime> = run
        .athena
        .request_features(&Query::all())
        .iter()
        .filter(|r| r.meta().athena_polled)
        .map(|r| r.meta().timestamp)
        .collect();
    stamps.sort();
    stamps.dedup();
    assert!(
        !stamps.is_empty(),
        "{}: no Athena-polled features at all",
        scenario.name()
    );
    let mut worst = SimDuration::ZERO;
    for w in stamps.windows(2) {
        let gap = w[1].saturating_since(w[0]);
        if gap > worst {
            worst = gap;
        }
    }
    let tail = end.saturating_since(*stamps.last().unwrap());
    if tail > worst {
        worst = tail;
    }
    assert!(
        worst <= MISS_WINDOW_BOUND,
        "{}: monitoring went dark for {:?} (bound {:?})",
        scenario.name(),
        worst,
        MISS_WINDOW_BOUND
    );
}

/// Every scenario × the DDoS detector: the model still separates attack
/// from benign traffic, and monitoring never goes dark beyond the bound.
#[test]
fn chaos_matrix_ddos_detection_survives_every_scenario() {
    let end = SimTime::from_secs(35);
    for &scenario in Scenario::all() {
        let mut victim = None;
        let run = run_scenario(scenario, Telemetry::off(), end, |topo, net, _| {
            victim = Some(ddos_load(topo, net));
        });
        let detector = DdosDetector::new(DdosDetectorConfig {
            victim: victim.unwrap(),
            ..DdosDetectorConfig::default()
        });
        let model = detector
            .train(&run.athena)
            .unwrap_or_else(|e| panic!("{}: training failed: {e}", scenario.name()));
        let summary = detector.test(&run.athena, &model);
        let dr = summary.confusion.detection_rate();
        let far = summary.confusion.false_alarm_rate();
        assert!(
            dr > 0.75,
            "{}: detection rate collapsed under fault: {dr}",
            scenario.name()
        );
        assert!(
            far < 0.25,
            "{}: false alarm rate exploded under fault: {far}",
            scenario.name()
        );
        assert_bounded_miss_window(&run, scenario, end);
        assert!(
            run.net.delivered_bytes() > 0,
            "{}: network delivered nothing",
            scenario.name()
        );
    }
}

/// Every scenario × the port-scan detector: exactly the scanner is
/// flagged and mitigated, benign clients stay untouched.
#[test]
fn chaos_matrix_port_scan_detection_survives_every_scenario() {
    let end = SimTime::from_secs(25);
    for &scenario in Scenario::all() {
        let topo = Topology::enterprise();
        let scanner = topo.hosts[0].ip;
        let target = topo.hosts[30].ip;
        let mut det = ScanDetector::new();
        let run = run_scenario(scenario, Telemetry::off(), end, |topo, net, athena| {
            det.deploy(athena);
            net.inject_flows(workload::benign_mix_on(
                topo,
                scaled(80),
                SimDuration::from_secs(20),
                401,
            ));
            net.inject_flows(workload::port_scan(
                scanner,
                target,
                scaled(40) as u16,
                SimTime::from_secs(5),
                402,
            ));
        });
        let flagged = det.detect(&run.athena);
        assert_eq!(
            flagged,
            vec![scanner],
            "{}: scanner not (exactly) flagged",
            scenario.name()
        );
        assert_eq!(
            run.athena.mitigated_hosts(),
            vec![scanner],
            "{}: scanner not mitigated",
            scenario.name()
        );
        assert_bounded_miss_window(&run, scenario, end);
    }
}

/// Same topology, workload, and seed ⇒ byte-identical outcomes: the
/// whole stack (dataplane, chaos channel, cluster, Athena pipeline,
/// injector) runs on seeded RNG and virtual time only.
#[test]
fn chaos_runs_are_deterministic_under_a_fixed_seed() {
    let end = SimTime::from_secs(30);
    let run = || {
        let r = run_scenario(
            Scenario::MessageDrop,
            Telemetry::off(),
            end,
            |topo, net, _| {
                ddos_load(topo, net);
            },
        );
        (
            r.net.delivered_bytes(),
            r.net.counters(),
            r.chaos.counters(),
            r.injector.counters(),
            r.athena.stored_feature_count(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "two identically-seeded chaos runs diverged");
}

/// Fault, retry, and failover counters all surface in the telemetry
/// report of a faulted run, and each report row equals the view its
/// subsystem reads off the same counter.
#[test]
fn fault_retry_and_failover_counters_surface_in_telemetry() {
    let tel = Telemetry::new();
    let end = SimTime::from_secs(30);
    let run = run_scenario(
        Scenario::ControllerCrash,
        tel.clone(),
        end,
        |topo, net, _| {
            ddos_load(topo, net);
        },
    );
    let m = tel.metrics();
    assert_eq!(m.counter("faults", "injected").get(), 2);
    assert_eq!(m.counter("faults", "controller_events").get(), 2);
    assert!(m.counter("failover", "elections").get() >= 2);
    assert!(m.counter("failover", "switches_moved").get() > 0);
    let report = tel.report();
    let row = |label: &str| {
        let mut rows = report.counters.iter().filter(|e| e.key.label() == label);
        let value = rows.next().map(|e| e.value);
        assert!(rows.next().is_none(), "{label} reported twice");
        value
    };
    let injector = run.injector.counters();
    let chaos = run.chaos.counters();
    let messages = run.chaos.inner().counters();
    let failover = run.chaos.inner().failover_counters();
    let store = run.athena.runtime().store.metrics();
    for (label, view) in [
        ("faults/injected", injector.injected),
        ("faults/controller_events", injector.controller_events),
        (
            "faults/message_profile_changes",
            injector.message_profile_changes,
        ),
        ("faults/msgs_dropped", chaos.dropped),
        ("faults/msgs_duplicated", chaos.duplicated),
        ("faults/msgs_delayed", chaos.delayed),
        ("controller/packet_ins", messages.packet_ins),
        ("controller/flow_mods", messages.flow_mods),
        ("controller/stats_replies", messages.stats_replies),
        ("controller/flow_removeds", messages.flow_removeds),
        ("failover/elections", failover.elections),
        ("failover/switches_moved", failover.switches_moved),
        ("store/replica_writes", store.replica_writes),
        ("store/deletes", store.deletes),
        ("retry/store_write_handoffs", store.write_handoffs),
        ("retry/store_degraded_reads", store.degraded_reads),
    ] {
        assert_eq!(row(label), Some(view), "{label}: the row is not its view");
    }
    let rendered = report.render();
    for needle in ["[faults]", "[failover]", "[retry]"] {
        assert!(
            rendered.contains(needle),
            "report misses {needle} counters:\n{rendered}"
        );
    }
    assert!(run.net.delivered_bytes() > 0);
}

/// The fault hooks reach every shard: the two chaos scenarios that strike
/// the data plane itself (a degraded core link, a rebooted switch), run
/// mid-flood on a four-shard plan, equal their one-shard outcome.
#[test]
fn dataplane_faults_on_a_four_shard_plan_equal_the_one_shard_run() {
    let run = |scenario: Scenario, shards: usize| {
        let topo = Topology::enterprise();
        let plan = ShardPlan::partition(&topo, shards);
        let mut d = common::deploy_on_with(topo, plan, |_| {});
        ddos_load(&d.topo, &mut d.net);
        let store = d.athena.runtime().store.clone();
        let plan = scenario.plan(&d.topo, store.node_count(), SEED, INJECT_AT, RECOVER_AT);
        let mut injector = FaultInjector::new(plan).with_store(store);
        let end = SimTime::from_secs(25);
        run_with_faults(&mut d.net, end, &mut d.cluster, &mut injector);
        assert!(injector.finished(), "{}: events left", scenario.name());
        (
            d.net.counters(),
            d.cluster.counters(),
            injector.counters(),
            d.athena.stored_feature_count(),
        )
    };
    for scenario in [Scenario::LinkDegrade, Scenario::SwitchReboot] {
        let sharded = run(scenario, 4);
        assert!(sharded.0.delivered_bytes > 0 && sharded.3 > 0);
        assert_eq!(sharded, run(scenario, 1), "{}", scenario.name());
    }
}
