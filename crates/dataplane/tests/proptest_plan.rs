//! Plan invariance of the synchronous discipline: `Network` on any
//! `ShardPlan` is byte-identical to `Network` on one shard, at any
//! `ATHENA_THREADS` width, fault hooks included — packets walk one at a
//! time in item order whatever the shard boundaries, expiry order is dpid
//! order, and settle and credit are per-link and commutative.

mod common;

use athena_dataplane::{
    FlowSpec, LearningControllerStub, LinkModel, Network, NetworkConfig, ShardPlan, Topology,
};
use athena_types::{FiveTuple, SimDuration, SimTime};
use common::{digest, Recorder};
use proptest::prelude::*;

fn arb_flow(topo: &Topology) -> impl Strategy<Value = FlowSpec> + use<> {
    let hosts = topo.hosts.clone();
    (
        0..hosts.len(),
        0..hosts.len(),
        0u64..8,
        1u64..8,
        100_000u64..400_000_000,
        any::<bool>(),
    )
        .prop_filter_map(
            "distinct endpoints",
            move |(s, d, start, dur, rate, bidir)| {
                if s == d {
                    return None;
                }
                let ft = FiveTuple::tcp(hosts[s].ip, (9_000 + s * 97 + d) as u16, hosts[d].ip, 80);
                let f = FlowSpec::new(
                    ft,
                    SimTime::from_secs(start),
                    SimDuration::from_secs(dur),
                    rate,
                );
                Some(if bidir { f.bidirectional(0.2) } else { f })
            },
        )
}

/// What happens to the fabric mid-run: indices into the topology's
/// switch and link lists, and a link-model seed.
#[derive(Debug, Clone, Copy)]
struct Faults {
    wipe: usize,
    reboot: usize,
    degrade: usize,
    model_seed: u64,
}

fn run(
    topo: &Topology,
    shards: usize,
    threads: usize,
    flows: &[FlowSpec],
    idle_secs: u64,
    f: Faults,
) -> String {
    std::env::set_var("ATHENA_THREADS", threads.to_string());
    let plan = ShardPlan::partition(topo, shards);
    let mut net = Network::with_plan(topo.clone(), NetworkConfig::default(), plan);
    let mut stub = LearningControllerStub::for_topology(topo.clone());
    stub.idle_timeout = SimDuration::from_secs(idle_secs);
    let mut ctrl = Recorder::new(stub);
    net.set_link_model(LinkModel::lossy(0.05), f.model_seed);
    net.inject_flows(flows.to_vec());
    let switch = |i: usize| topo.switches[i % topo.switches.len()].dpid;
    let link = topo.links[f.degrade % topo.links.len()];
    net.run_until(SimTime::from_secs(5), &mut ctrl);
    net.wipe_switch(switch(f.wipe));
    net.set_link_state(link.a.0, link.b.0, 0.25);
    net.run_until(SimTime::from_secs(9), &mut ctrl);
    net.reboot_switch(switch(f.reboot));
    net.set_link_state(link.a.0, link.b.0, 1.0);
    net.run_until(SimTime::from_secs(18), &mut ctrl);
    std::env::remove_var("ATHENA_THREADS");
    digest(&net, &ctrl)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The only test in this binary: `ATHENA_THREADS` is process-global.
    #[test]
    fn any_plan_equals_the_one_shard_run(
        flows in proptest::collection::vec(arb_flow(&Topology::fat_tree(4)), 1..16),
        idle_secs in 2u64..6,
        (wipe, reboot, degrade) in (0usize..20, 0usize..20, 0usize..32),
        model_seed in any::<u64>(),
    ) {
        let topo = Topology::fat_tree(4);
        let faults = Faults { wipe, reboot, degrade, model_seed };
        let reference = run(&topo, 1, 1, &flows, idle_secs, faults);
        for shards in [2, 3, topo.switches.len()] {
            for threads in [1, 8] {
                let got = run(&topo, shards, threads, &flows, idle_secs, faults);
                prop_assert_eq!(&got, &reference, "{} shards, {} threads", shards, threads);
            }
        }
    }
}
