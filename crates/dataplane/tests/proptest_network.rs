//! Property-based tests for the data-plane simulator: byte conservation,
//! determinism, topology invariants, and workload well-formedness.

use athena_dataplane::{workload, FlowSpec, LearningControllerStub, Network, Routes, Topology};
use athena_types::{FiveTuple, HostId, SimDuration, SimTime};
use proptest::prelude::*;

fn arb_flow(topo: &Topology) -> impl Strategy<Value = FlowSpec> + use<> {
    let hosts = topo.hosts.clone();
    (
        0..hosts.len(),
        0..hosts.len(),
        1u64..8,
        1u64..10,
        100_000u64..20_000_000,
        any::<bool>(),
    )
        .prop_filter_map(
            "distinct endpoints",
            move |(s, d, start, dur, rate, bidir)| {
                if s == d {
                    return None;
                }
                let ft =
                    FiveTuple::tcp(hosts[s].ip, (10_000 + s * 131 + d) as u16, hosts[d].ip, 80);
                let mut f = FlowSpec::new(
                    ft,
                    SimTime::from_secs(start),
                    SimDuration::from_secs(dur),
                    rate,
                );
                if bidir {
                    f = f.bidirectional(0.1);
                }
                Some(f)
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Runs are deterministic: identical inputs produce identical
    /// counters and per-switch state.
    #[test]
    fn simulation_is_deterministic(seed in 0u64..1000) {
        let topo = Topology::linear(3, 3);
        let run = || {
            let mut net = Network::new(topo.clone());
            let mut ctrl = LearningControllerStub::for_topology(topo.clone());
            net.inject_flows(workload::benign_mix_on(
                &topo,
                30,
                SimDuration::from_secs(10),
                seed,
            ));
            net.run_until(SimTime::from_secs(15), &mut ctrl);
            (net.counters(), ctrl.installs())
        };
        prop_assert_eq!(run(), run());
    }

    /// Delivered plus dropped bytes never exceed the offered volume, and
    /// nothing is delivered that was never offered.
    #[test]
    fn byte_conservation(flows in proptest::collection::vec(
        arb_flow(&Topology::linear(3, 3)), 1..10
    )) {
        let topo = Topology::linear(3, 3);
        let mut net = Network::new(topo.clone());
        let mut ctrl = LearningControllerStub::for_topology(topo.clone());
        // Offered upper bound: rate × (duration + one tick of slack) for
        // both directions, plus the activation packet.
        let offered: u64 = flows
            .iter()
            .map(|f| {
                let fwd = f.bytes_per(f.duration + SimDuration::from_secs(2));
                let rev = (fwd as f64 * f.reverse_ratio) as u64;
                fwd + rev + u64::from(f.packet_size)
            })
            .sum();
        net.inject_flows(flows);
        net.run_until(SimTime::from_secs(25), &mut ctrl);
        let c = net.counters();
        prop_assert!(
            c.delivered_bytes + c.dropped_bytes <= offered,
            "{} + {} > {offered}",
            c.delivered_bytes,
            c.dropped_bytes
        );
    }

    /// Per-link accounting: a link never delivers more than its capacity
    /// allows over the run.
    #[test]
    fn links_respect_capacity(flows in proptest::collection::vec(
        arb_flow(&Topology::linear(2, 4)), 1..12
    )) {
        let topo = Topology::linear(2, 4);
        let mut net = Network::new(topo.clone());
        let mut ctrl = LearningControllerStub::for_topology(topo.clone());
        net.inject_flows(flows);
        let run_secs = 20u64;
        net.run_until(SimTime::from_secs(run_secs), &mut ctrl);
        for link in net.links() {
            let cap_total = (link.capacity_bps / 8) * run_secs;
            prop_assert!(
                link.delivered_bytes() <= cap_total,
                "{} > {cap_total}",
                link.delivered_bytes()
            );
        }
    }

    /// Every generated benign flow references hosts that exist and starts
    /// within the requested window.
    #[test]
    fn benign_mix_is_wellformed(n in 1usize..80, secs in 1u64..60, seed in 0u64..500) {
        let hosts: Vec<HostId> = (1..=12).map(HostId::new).collect();
        let flows = workload::benign_mix(&hosts, n, SimDuration::from_secs(secs), seed);
        prop_assert_eq!(flows.len(), n);
        for f in &flows {
            prop_assert!(f.rate_bps > 0);
            prop_assert!(!f.duration.is_zero());
            prop_assert!(f.five_tuple.src != f.five_tuple.dst);
        }
    }

    /// Every route is a walk over topology links: shortest paths are
    /// symmetric in length and stay within the network diameter, the
    /// stub's ECMP walk is exactly as long, and two disjoint paths share
    /// no `(dpid, port)` hop. A lone switch with no links routes to
    /// itself as an empty path.
    #[test]
    fn shortest_paths_are_sane(which in 0usize..4, a in 0usize..64, b in 0usize..64, hash in any::<u64>()) {
        let topo = match which {
            0 => Topology::enterprise(),
            1 => Topology::linear(5, 1),
            2 => Topology::fat_tree(4),
            _ => Topology::linear(1, 2),
        };
        let n = topo.switches.len();
        let (a, b) = (topo.switches[a % n].dpid, topo.switches[b % n].dpid);
        let routes = Routes::new(&topo);
        let fwd = routes.shortest_path(a, b).unwrap();
        let back = routes.shortest_path(b, a).unwrap();
        let ecmp = routes.ecmp_path(a, b, hash).unwrap();
        for (from, to, path) in [(a, b, &fwd), (b, a, &back), (a, b, &ecmp)] {
            let mut at = from;
            for (dpid, port) in path {
                prop_assert_eq!(*dpid, at);
                let link = topo.link_from(*dpid, *port);
                prop_assert!(link.is_some(), "{dpid}:{port} is not a link");
                at = link.unwrap().dst;
            }
            prop_assert_eq!(at, to);
        }
        prop_assert_eq!(fwd.len(), back.len());
        prop_assert_eq!(fwd.len(), ecmp.len());
        prop_assert!(fwd.len() <= n);
        if a == b {
            prop_assert!(fwd.is_empty());
        }
        let disjoint = routes.disjoint_paths(a, b, 2);
        if let [first, second] = disjoint.as_slice() {
            prop_assert!(second.iter().all(|hop| !first.contains(hop)), "{disjoint:?}");
        }
    }
}
