//! Batched-discipline determinism e2e: the same seeded scenario run at
//! `ATHENA_THREADS` 1, 2, 4 and 8 through `ShardedNetwork` on a fixed
//! plan must produce byte-identical counters, flow tables, controller
//! installs, and active-flow sets. The engine's parallel phases (routing
//! rounds, per-shard settle and credit replay, batched flow-mod
//! application, timing-wheel expiry) may only change *how fast* the tick
//! completes, never its outcome — shard-local state plus ordered
//! reduction in `athena-parallel` are what make this hold.
//!
//! Three scenarios cover the interesting regimes on fat-tree (ECMP
//! multipath) fabrics:
//!   1. a DDoS flood layered over benign background traffic — the
//!      packet-in path, flow-table churn, and congestion crediting all
//!      run hot;
//!   2. a chaos schedule (switch wipe, reboot, link degradation and
//!      recovery) applied mid-run at fixed virtual times — the
//!      cross-shard handoff and wheel re-arm paths run under topology
//!      damage;
//!   3. above toy size: a k = 8 fat-tree (80 switches, 1024 hosts) on the
//!      16-shard `ShardPlan::auto` partition — more shards than any
//!      width, punt batches past the parallel flow-mod threshold. No
//!      other gate checks width invariance where shards outnumber
//!      workers.

use athena::dataplane::workload::{self, DdosParams};
use athena::dataplane::{
    FlowSpec, LearningControllerStub, NetworkConfig, ShardPlan, ShardedNetwork, Topology,
};
use athena::telemetry::Telemetry;
use athena::types::{Dpid, SimDuration, SimTime};
use std::sync::Mutex;

/// Serializes runs: `ATHENA_THREADS` is process-global.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    std::env::set_var("ATHENA_THREADS", threads.to_string());
    let out = f();
    std::env::remove_var("ATHENA_THREADS");
    out
}

/// k=4 fat-tree with 6 hosts per edge switch: 20 switches, 48 hosts,
/// every inter-pod pair has multiple equal-cost paths (real ECMP
/// fan-out, unlike a linear chain).
fn fabric() -> Topology {
    Topology::fat_tree_with_hosts(4, 6)
}

/// Everything a job width could perturb, flattened to one comparable
/// string: engine counters, controller installs, the active-flow set,
/// and every switch's flow-table size.
fn digest(net: &ShardedNetwork, ctrl: &LearningControllerStub) -> String {
    let mut tables = String::new();
    for s in &net.topology().switches {
        if let Some(sw) = net.switch(s.dpid) {
            tables.push_str(&format!("{}:{};", s.dpid.raw(), sw.flow_count()));
        }
    }
    format!(
        "{:?}|installs={}|active={}|{tables}",
        net.counters(),
        ctrl.installs(),
        net.active_flows().len(),
    )
}

/// DDoS flood over benign background on the fat-tree fabric.
fn ddos_flows(topo: &Topology) -> Vec<FlowSpec> {
    let mut flows = workload::benign_mix_on(topo, 120, SimDuration::from_secs(10), 20170610);
    let victim = topo.hosts[topo.hosts.len() / 2].ip;
    flows.extend(workload::ddos_flood(
        topo,
        victim,
        DdosParams {
            n_flows: 150,
            n_bots: 12,
            total_rate_bps: 200_000_000,
            start: SimTime::from_secs(3),
            duration: SimDuration::from_secs(8),
        },
        42,
    ));
    flows
}

/// Runs the DDoS scenario to completion at one job width and returns
/// its digest (plus the telemetry report when `tel` asks for one).
fn run_ddos(threads: usize, check_names: bool) -> String {
    with_threads(threads, || {
        let topo = fabric();
        let plan = ShardPlan::partition(&topo, 4);
        let mut net = ShardedNetwork::with_plan(topo.clone(), NetworkConfig::default(), plan);
        let tel = Telemetry::new();
        if check_names {
            net.bind_telemetry(&tel);
        }
        let mut ctrl = LearningControllerStub::for_topology(topo);
        net.inject_flows(ddos_flows(net.topology()));
        net.run_until(SimTime::from_secs(14), &mut ctrl);
        if check_names {
            net.flush_gauges();
            // Every key the engine emits is declared in the telemetry
            // registry (scale/* and dataplane/wheel_*).
            assert_eq!(
                athena::telemetry::names::undeclared(&tel.report()),
                Vec::<String>::new()
            );
        }
        digest(&net, &ctrl)
    })
}

/// Runs the chaos scenario: fixed virtual-time schedule of switch and
/// link damage, interleaved with the engine's own expiry and routing.
fn run_chaos(threads: usize) -> String {
    with_threads(threads, || {
        let topo = fabric();
        let plan = ShardPlan::partition(&topo, 4);
        let mut net = ShardedNetwork::with_plan(topo.clone(), NetworkConfig::default(), plan);
        let mut ctrl = LearningControllerStub::for_topology(topo);
        let flows =
            workload::benign_mix_on(net.topology(), 180, SimDuration::from_secs(14), 7_701_001);
        net.inject_flows(flows);
        // Fat-tree k=4 dpids: pod p owns p*4+1..=p*4+4 (edges then
        // aggs), cores start at 17. So 1 = pod-0 edge, 3 = pod-0 agg
        // (1-3 is a real edge-agg link), 5/6 = pod-1 edges.
        net.run_until(SimTime::from_secs(4), &mut ctrl);
        assert!(net.wipe_switch(Dpid::new(5)) > 0, "pod-1 edge had flows");
        assert!(net.set_link_state(Dpid::new(1), Dpid::new(3), 0.25) > 0);
        net.run_until(SimTime::from_secs(7), &mut ctrl);
        net.reboot_switch(Dpid::new(6));
        assert!(net.set_link_state(Dpid::new(1), Dpid::new(3), 1.0) > 0);
        net.run_until(SimTime::from_secs(10), &mut ctrl);
        assert!(net.wipe_switch(Dpid::new(17)) > 0, "core had flows");
        net.run_until(SimTime::from_secs(16), &mut ctrl);
        digest(&net, &ctrl)
    })
}

/// 250 benign flows on a k = 8 fat-tree with 32 hosts per edge switch,
/// partitioned by `ShardPlan::auto`: 16 shards, so every width in the
/// loop runs several shards per worker.
fn run_k8(threads: usize) -> String {
    with_threads(threads, || {
        let topo = Topology::fat_tree_with_hosts(8, 32);
        let plan = ShardPlan::auto(&topo);
        assert_eq!(plan.n_shards(), 16);
        let mut net = ShardedNetwork::with_plan(topo.clone(), NetworkConfig::default(), plan);
        let mut ctrl = LearningControllerStub::for_topology(topo);
        let flows =
            workload::benign_mix_on(net.topology(), 250, SimDuration::from_secs(8), 20170610);
        net.inject_flows(flows);
        net.run_until(SimTime::from_secs(10), &mut ctrl);
        assert!(net.counters().packet_ins >= 250, "{:?}", net.counters());
        digest(&net, &ctrl)
    })
}

/// Holds every wider run of `scenario` to its width-1 digest.
fn assert_identical_across_widths(reference: &str, scenario: impl Fn(usize) -> String) {
    for w in [2, 4, 8] {
        assert_eq!(
            scenario(w),
            reference,
            "batched engine diverged at ATHENA_THREADS={w}"
        );
    }
}

#[test]
fn ddos_on_fat_tree_is_byte_identical_across_widths() {
    let reference = run_ddos(1, true);
    assert!(
        reference.contains("packet_ins"),
        "digest carries the counter block: {reference}"
    );
    assert_identical_across_widths(&reference, |w| run_ddos(w, false));
}

#[test]
fn chaos_schedule_is_byte_identical_across_widths() {
    assert_identical_across_widths(&run_chaos(1), run_chaos);
}

#[test]
fn k8_fat_tree_is_byte_identical_across_widths() {
    assert_identical_across_widths(&run_k8(1), run_k8);
}
