//! Crash recovery e2e: the store, the detection models, and the
//! controller cluster all journal to disk through `athena-persist`, so a
//! deployment killed mid-run rehydrates from its data directory with
//! byte-identical logical state. The network itself persists across the
//! kill — it is the physical world; only the software stack is rebuilt.
//!
//! Set `ATHENA_CHAOS_SMOKE=1` for the lighter CI workload (same timeline,
//! same assertions).

mod common;

use athena::apps::{DdosDetector, DdosDetectorConfig};
use athena::controller::ControllerCluster;
use athena::core::{Athena, AthenaConfig};
use athena::dataplane::{workload, Network, Topology};
use athena::faults::{run_with_faults, ChaosChannel, FaultInjector, Scenario};
use athena::persist::PersistConfig;
use athena::telemetry::Telemetry;
use athena::types::{Ipv4Addr, SimDuration, SimTime, VirtualClock};
use common::scaled;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Same seed as the chaos matrix: runs are reproducible bit-for-bit.
const SEED: u64 = 7;

/// Fault window (matches `e2e_failures`): strike mid-attack, heal later.
const INJECT_AT: SimTime = SimTime::from_secs(10);
const RECOVER_AT: SimTime = SimTime::from_secs(20);

/// A checkpoint lands before the fault window so recovery exercises the
/// checkpoint-plus-WAL-tail path, not just a cold replay.
const CHECKPOINT_AT: SimTime = SimTime::from_secs(8);

/// The deployment is killed here — mid-attack, after the checkpoint.
const KILL_AT: SimTime = SimTime::from_secs(18);

/// Runs end here; the DDoS flood (8 s + 22 s) has just finished.
const END: SimTime = SimTime::from_secs(35);

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// Fresh per-test data directories for the store and controller journals.
fn test_dirs() -> (PathBuf, PathBuf) {
    let base = std::env::temp_dir().join(format!(
        "athena-e2e-recovery-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&base);
    (base.join("store"), base.join("controller"))
}

/// One Athena software stack: framework, chaos-wrapped cluster, and the
/// virtual clock that stamps its WAL records.
struct Deployment {
    athena: Athena,
    chaos: ChaosChannel<ControllerCluster>,
    clock: VirtualClock,
}

/// Builds (or *re*builds) the deployment. With `dirs`, the controller and
/// store journals attach under those directories — on a fresh directory
/// that is a no-op, on a populated one it recovers the pre-crash state.
fn deploy(topo: &Topology, tel: &Telemetry, dirs: (&Path, &Path)) -> Deployment {
    let (store_dir, ctrl_dir) = dirs;
    let mut cluster = ControllerCluster::new(topo);
    cluster
        .attach_persistence(PersistConfig::new(ctrl_dir), tel)
        .expect("controller journal");
    let athena = Athena::with_telemetry(AthenaConfig::default(), tel.clone());
    athena.attach(&mut cluster);
    let clock = VirtualClock::new();
    athena
        .runtime()
        .store
        .attach_persistence(PersistConfig::new(store_dir), clock.clone(), tel)
        .expect("store journal");
    let chaos = ChaosChannel::new(cluster, SEED);
    Deployment {
        athena,
        chaos,
        clock,
    }
}

/// Advances the network to `until` in one-second steps, keeping the WAL
/// clock in lockstep with simulated time so journal records carry
/// virtual-time stamps.
fn run_to(net: &mut Network, dep: &mut Deployment, until: SimTime) {
    while net.now() < until {
        let next = (net.now() + SimDuration::from_secs(1)).min(until);
        net.run_until(next, &mut dep.chaos);
        dep.clock.advance_to(net.now());
    }
}

/// Same, with a fault injector applying its due events along the way.
fn run_to_with_faults(
    net: &mut Network,
    dep: &mut Deployment,
    injector: &mut FaultInjector,
    until: SimTime,
) {
    while net.now() < until {
        let next = (net.now() + SimDuration::from_secs(1)).min(until);
        run_with_faults(net, next, &mut dep.chaos, injector);
        dep.clock.advance_to(net.now());
    }
}

/// The DDoS workload of the chaos matrix, bit-identical per seed.
fn ddos_load(topo: &Topology, net: &mut Network) -> Ipv4Addr {
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

/// Trains the DDoS detector on whatever the deployment's store holds and
/// returns the test confusion matrix — the detection verdict.
fn verdict(dep: &Deployment, victim: Ipv4Addr) -> athena::ml::ConfusionMatrix {
    let det = DdosDetector::new(DdosDetectorConfig {
        victim,
        ..DdosDetectorConfig::default()
    });
    let model = det.train(&dep.athena).expect("training");
    det.test(&dep.athena, &model).confusion
}

/// The durable identity of every live flow rule. Per-rule packet/byte
/// counters are deliberately excluded: they are soft state owned by the
/// dataplane, continuously refreshed by stats polling, and re-converge
/// after the next poll rather than being journaled per stats reply.
fn rule_identities(
    cluster: &ControllerCluster,
) -> Vec<(athena::types::Dpid, athena::types::AppId, u64, SimTime)> {
    cluster
        .flow_rules()
        .snapshot_records()
        .into_iter()
        .map(|r| (r.dpid, r.app, r.cookie, r.installed_at))
        .collect()
}

/// A deployment killed mid-run and rehydrated from disk holds the same
/// store contents — byte-identical — and renders the same detection
/// verdict as an identically-seeded run that was never interrupted; the
/// recovered stack then keeps detecting through the rest of the attack.
#[test]
fn killed_and_recovered_run_matches_uninterrupted_baseline() {
    let topo = Topology::enterprise();

    // Uninterrupted baseline, stopped (but not killed) at the kill point.
    let (want_contents, want_confusion) = {
        let dirs = test_dirs();
        let tel = Telemetry::off();
        let mut net = Network::new(topo.clone());
        let mut dep = deploy(&topo, &tel, (&dirs.0, &dirs.1));
        let victim = ddos_load(&topo, &mut net);
        run_to(&mut net, &mut dep, CHECKPOINT_AT);
        dep.athena.runtime().store.checkpoint().expect("checkpoint");
        dep.chaos.inner_mut().checkpoint().expect("checkpoint");
        run_to(&mut net, &mut dep, KILL_AT);
        let out = (dep.athena.runtime().store.contents(), verdict(&dep, victim));
        let _ = std::fs::remove_dir_all(dirs.0.parent().unwrap());
        out
    };

    // The same seeded run, killed at KILL_AT: the stack is dropped, only
    // the data directories and the network survive.
    let dirs = test_dirs();
    let tel = Telemetry::new();
    let mut net = Network::new(topo.clone());
    let victim = {
        let mut dep = deploy(&topo, &tel, (&dirs.0, &dirs.1));
        let victim = ddos_load(&topo, &mut net);
        run_to(&mut net, &mut dep, CHECKPOINT_AT);
        dep.athena.runtime().store.checkpoint().expect("checkpoint");
        dep.chaos.inner_mut().checkpoint().expect("checkpoint");
        run_to(&mut net, &mut dep, KILL_AT);
        victim
    };

    // Rehydrate from disk into a fresh stack.
    let mut dep = deploy(&topo, &tel, (&dirs.0, &dirs.1));
    assert_eq!(
        dep.athena.runtime().store.contents(),
        want_contents,
        "recovered store contents diverge from the uninterrupted run"
    );
    assert_eq!(
        verdict(&dep, victim),
        want_confusion,
        "recovered detection verdict diverges from the uninterrupted run"
    );
    let m = tel.metrics();
    assert!(
        m.counter("persist", "store_records_replayed").get() > 0,
        "recovery replayed no store WAL records"
    );
    assert_eq!(m.counter("persist", "store_tails_truncated").get(), 0);

    // The recovered deployment keeps serving: run out the attack and the
    // detector still clears the chaos-matrix bar.
    run_to(&mut net, &mut dep, END);
    let confusion = verdict(&dep, victim);
    let dr = confusion.detection_rate();
    let far = confusion.false_alarm_rate();
    assert!(dr > 0.75, "post-recovery detection rate collapsed: {dr}");
    assert!(far < 0.25, "post-recovery false alarm rate exploded: {far}");
    let _ = std::fs::remove_dir_all(dirs.0.parent().unwrap());
}

/// Chaos-matrix crash scenarios with persistence attached: after the
/// faulted run, a stack rebuilt from the data directories reproduces the
/// store contents byte-for-byte, the mastership map, the flow-rule store,
/// and the detection verdict.
#[test]
fn chaos_crash_scenarios_rehydrate_stack_from_disk() {
    for scenario in [Scenario::ControllerCrash, Scenario::StoreOutage] {
        let dirs = test_dirs();
        let tel = Telemetry::new();
        let topo = Topology::enterprise();
        let mut net = Network::new(topo.clone());
        let mut dep = deploy(&topo, &tel, (&dirs.0, &dirs.1));
        let victim = ddos_load(&topo, &mut net);
        let store_nodes = dep.athena.runtime().store.node_count();
        let plan = scenario.plan(&topo, store_nodes, SEED, INJECT_AT, RECOVER_AT);
        assert!(!plan.is_empty(), "{}: empty plan", scenario.name());
        let mut injector = FaultInjector::new(plan).with_store(dep.athena.runtime().store.clone());

        run_to_with_faults(&mut net, &mut dep, &mut injector, CHECKPOINT_AT);
        dep.athena.runtime().store.checkpoint().expect("checkpoint");
        dep.chaos.inner_mut().checkpoint().expect("checkpoint");
        run_to_with_faults(&mut net, &mut dep, &mut injector, END);
        assert!(injector.finished(), "{}: events left", scenario.name());

        // The live end-of-run views...
        let want_contents = dep.athena.runtime().store.contents();
        let want_confusion = verdict(&dep, victim);
        let want_masters: Vec<_> = topo
            .switches
            .iter()
            .map(|s| (s.dpid, dep.chaos.inner().master_of(s.dpid)))
            .collect();
        let want_rules = rule_identities(dep.chaos.inner());
        let want_rule_counters = dep.chaos.inner().flow_rules().snapshot_counters();
        drop(dep); // the crash

        // ...must all rehydrate from disk.
        let dep = deploy(&topo, &tel, (&dirs.0, &dirs.1));
        assert_eq!(
            dep.athena.runtime().store.contents(),
            want_contents,
            "{}: recovered store contents diverge",
            scenario.name()
        );
        assert_eq!(
            verdict(&dep, victim),
            want_confusion,
            "{}: recovered detection verdict diverges",
            scenario.name()
        );
        let got_masters: Vec<_> = topo
            .switches
            .iter()
            .map(|s| (s.dpid, dep.chaos.inner().master_of(s.dpid)))
            .collect();
        assert_eq!(
            got_masters,
            want_masters,
            "{}: recovered mastership map diverges",
            scenario.name()
        );
        assert_eq!(
            rule_identities(dep.chaos.inner()),
            want_rules,
            "{}: recovered flow-rule store diverges",
            scenario.name()
        );
        assert_eq!(
            dep.chaos.inner().flow_rules().snapshot_counters(),
            want_rule_counters,
            "{}: recovered flow-rule counters diverge",
            scenario.name()
        );
        let _ = std::fs::remove_dir_all(dirs.0.parent().unwrap());
    }
}

/// Recovery is idempotent: rehydrating the same data directory twice
/// yields byte-identical store contents both times.
#[test]
fn recovery_is_deterministic_across_repeated_rehydrations() {
    let dirs = test_dirs();
    let tel = Telemetry::off();
    let topo = Topology::enterprise();
    let mut net = Network::new(topo.clone());
    {
        let mut dep = deploy(&topo, &tel, (&dirs.0, &dirs.1));
        ddos_load(&topo, &mut net);
        run_to(&mut net, &mut dep, SimTime::from_secs(12));
    }
    let once = deploy(&topo, &tel, (&dirs.0, &dirs.1))
        .athena
        .runtime()
        .store
        .contents();
    let twice = deploy(&topo, &tel, (&dirs.0, &dirs.1))
        .athena
        .runtime()
        .store
        .contents();
    assert_eq!(once, twice, "two rehydrations of the same journal diverged");
    let _ = std::fs::remove_dir_all(dirs.0.parent().unwrap());
}
