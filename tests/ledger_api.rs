//! The calls `ledger/` makes into the workspace, spelled as it spells
//! them.
//!
//! The benchmark is a package of its own that tier-1 never compiles, so
//! a signature it depends on can break without `cargo test` noticing —
//! and a PR whose benchmark does not build is lost. Each block below
//! copies one call shape from `ledger/src/probes.rs` or
//! `ledger/src/workloads/`; if an edit here is needed to keep this file
//! compiling, the ledger needs the same edit.

mod common;

use athena::apps::{DdosDetector, DdosDetectorConfig};
use athena::controller::ControllerCluster;
use athena::core::{
    AttackDetector, DetectionModel, FeatureGenerator, FeatureManager, FeatureRecord, Query,
};
use athena::dataplane::workload::{self, DdosParams};
use athena::dataplane::{
    ControllerLink, FlowSpec, Network, NetworkConfig, NetworkCounters, ShardPlan, ShardedNetwork,
    SimSwitch, TimingWheel, Topology,
};
use athena::ml::LabeledPoint;
use athena::observe::Observe;
use athena::openflow::OfVersion;
use athena::openflow::{Action, FlowMod, FlowTable, MatchFields, OfMessage, PacketHeader};
use athena::store::{Accumulator, Aggregation, Filter, FindOptions, GroupSpec, StoreCluster};
use athena::telemetry::Telemetry;
use athena::types::{AppId, ControllerId, Dpid, Ipv4Addr, PortNo, SimDuration, SimTime, Xid};

/// `probes::sample_records`.
fn sample_records(athena: &athena::core::Athena, n: usize) -> Vec<FeatureRecord> {
    athena.request_features(&Query {
        limit: Some(n),
        ..Query::all()
    })
}

#[test]
fn the_calls_the_ledger_makes_compile_and_agree() {
    let (d, victim) = common::ddos_scenario(60, 120);
    let athena = &d.athena;

    // workloads::store_check, cbench_saturate's two-deployment comparison.
    let stored = athena.stored_feature_count();
    assert!(stored > 0);
    let all = Query::all();
    let records = athena.request_features(&all);
    assert_eq!(records.len(), stored);
    assert_eq!(records, athena.request_features(&all));
    let sample = sample_records(athena, 500);
    assert_eq!(sample.len(), 500);
    assert_eq!(sample[..], records.clone()[..500]);

    // nb_analytics: parsed per-switch queries, result lengths checked
    // against the feature manager's own count.
    let q = Query::parse("feature==FLOW_STATS && switch==1").expect("well-formed query");
    let returned = athena.request_features(&q).len();
    {
        let fm = athena.runtime().feature_manager.lock();
        assert_eq!(fm.count_features(&q), returned);
    }

    // probes::store_insert and probes::wal_append.
    let docs: Vec<_> = sample.iter().map(FeatureRecord::to_document).collect();
    let store = StoreCluster::new(3, 2);
    let collection = store.collection("probe");
    collection.create_index("message_type");
    for doc in docs {
        assert!(collection.insert(doc).is_ok());
    }
    let payloads: Vec<Vec<u8>> = sample
        .iter()
        .filter_map(|r| serde_json::to_vec(&r.to_document()).ok())
        .collect();
    assert_eq!(payloads.len(), sample.len());

    // probes::store_read.
    let collection = athena
        .runtime()
        .store
        .collection(FeatureManager::COLLECTION);
    let total = collection.count(&Filter::All);
    assert_eq!(total, stored);
    let opts = FindOptions::default();
    let indexed = Filter::Eq("message_type".into(), "PACKET_IN".into());
    let mut found = 0usize;
    for _ in 0..2 {
        found = collection.find(&indexed, &opts).len();
    }
    assert!(found > 0);
    let scan = Filter::Eq("switch".into(), 1.into());
    let scanned = collection.find(&scan, &opts);
    assert!(!scanned.is_empty());
    let flow_stats = Filter::Eq("message_type".into(), "FLOW_STATS".into());
    assert!(collection.count(&flow_stats) > 0);
    let pipeline =
        Aggregation::new().group(GroupSpec::by(&["switch"]).with("n", Accumulator::Count));
    assert!(!collection.aggregate(&pipeline).is_empty());

    // probes::labeled_points, ddos_detect's train, probes::detector.
    let det = DdosDetector::new(DdosDetectorConfig {
        victim,
        ..DdosDetectorConfig::default()
    });
    let points: Vec<LabeledPoint> =
        FeatureManager::to_labeled_points(&records, &DdosDetector::features(), det.truth());
    assert!(!points.is_empty());
    let model: DetectionModel = det.train(athena).expect("trainable scenario");
    let query = Query::parse("feature==FLOW_STATS").expect("well-formed query");
    let mut detector = AttackDetector::new();
    detector.add_validator("probe", &query, model.clone(), Box::new(|_| None));
    for r in &sample {
        assert!(detector.process(r).is_empty());
    }

    // probes::feature_generator.
    let mut generator = FeatureGenerator::new(ControllerId::new(0));
    let app_of = |_cookie: u64| AppId::CORE;
    let msg = OfMessage::packet_in(
        Xid::new(1),
        PacketHeader::tcp_syn(
            PortNo::new(1),
            Ipv4Addr::new(1, 1, 1, 1),
            1,
            Ipv4Addr::new(2, 2, 2, 2),
            2,
        ),
    );
    let generated = generator.ingest(Dpid::new(1), &msg, SimTime::from_secs(1), &app_of);
    assert_eq!(generated.len(), 1);

    // probes::par_map_dispatch, and main.rs's `parallel.width` (the
    // width-1 rep sets and removes `ATHENA_THREADS` around itself).
    let n = 8u64;
    let mapped = athena::parallel::par_map((0..n).collect(), |x: &u64| *x);
    assert_eq!(mapped, (0..n).collect::<Vec<u64>>());
    assert!(athena::parallel::threads() >= 1);
}

/// `workloads::Engine`: the ledger implements its stepping trait once
/// per network type, so the two must stay distinct nominal types.
trait Engine {
    fn now(&self) -> SimTime;
    fn step_once<L: ControllerLink>(&mut self, link: &mut L);
}

impl Engine for Network {
    fn now(&self) -> SimTime {
        Network::now(self)
    }
    fn step_once<L: ControllerLink>(&mut self, link: &mut L) {
        self.step(link);
    }
}

impl Engine for ShardedNetwork {
    fn now(&self) -> SimTime {
        ShardedNetwork::now(self)
    }
    fn step_once<L: ControllerLink>(&mut self, link: &mut L) {
        self.step(link);
    }
}

/// `workloads::drive`.
fn drive<E: Engine, L: ControllerLink>(net: &mut E, link: &mut L, until: SimTime) {
    while net.now() < until {
        net.step_once(link);
    }
}

/// `workloads::max_table`.
fn max_table<'a>(topo: &Topology, switch: impl Fn(Dpid) -> Option<&'a SimSwitch>) -> usize {
    topo.switches
        .iter()
        .filter_map(|s| switch(s.dpid))
        .map(SimSwitch::flow_count)
        .max()
        .unwrap_or(0)
}

/// `link::TimedLink`: a wrapper that forwards all three `ControllerLink`
/// calls, relying on their signatures.
struct Forward<C>(C, u64);

impl<C: ControllerLink> ControllerLink for Forward<C> {
    fn on_message(&mut self, from: Dpid, msg: OfMessage, now: SimTime) -> Vec<(Dpid, OfMessage)> {
        self.0.on_message(from, msg, now)
    }
    fn on_packet_in_batch(
        &mut self,
        batch: Vec<(Dpid, OfMessage)>,
        now: SimTime,
    ) -> Vec<(Dpid, OfMessage)> {
        self.1 += 1;
        self.0.on_packet_in_batch(batch, now)
    }
    fn on_tick(&mut self, now: SimTime) -> Vec<(Dpid, OfMessage)> {
        self.0.on_tick(now)
    }
}

/// A controller that relies on the `on_tick` / `on_packet_in_batch`
/// defaults (`link.rs`'s transparency test has one).
struct Silent;

impl ControllerLink for Silent {
    fn on_message(&mut self, _: Dpid, _: OfMessage, _: SimTime) -> Vec<(Dpid, OfMessage)> {
        Vec::new()
    }
}

#[test]
fn the_dataplane_calls_the_ledger_makes_compile_and_agree() {
    // inputs.rs: topologies, FlowSpec lists, workload generators.
    let topo = Topology::enterprise();
    let mut flows: Vec<FlowSpec> =
        workload::benign_mix_on(&topo, 40, SimDuration::from_secs(6), 20170610);
    flows.extend(workload::ddos_flood(
        &topo,
        topo.hosts[0].ip,
        DdosParams {
            n_flows: 40,
            start: SimTime::from_secs(2),
            duration: SimDuration::from_secs(4),
            ..DdosParams::default()
        },
        20170611,
    ));
    let until = SimTime::from_secs(8);
    let tel = Telemetry::new();
    let obs = Observe::with_telemetry(7, &tel);

    // ddos_detect::deploy and Instr::bind_network, link.rs's tests.
    let _ = Network::new(topo.clone());
    let mut net = Network::with_config(
        topo.clone(),
        NetworkConfig {
            wire_mode: Some(OfVersion::V1_3),
            ..NetworkConfig::default()
        },
    );
    net.bind_telemetry(&tel);
    net.bind_observe(&obs);
    let mut link = Forward(ControllerCluster::new(&topo), 0);
    net.inject_flows(flows.clone());
    drive(&mut net, &mut link, until);
    let unsharded: NetworkCounters = net.counters();
    assert_eq!(Network::now(&net), until);
    assert_eq!(link.1, 0, "Network punts one message at a time");
    assert_eq!(link.0.counters().packet_ins, unsharded.packet_ins);
    assert!(max_table(&topo, |d| net.switch(d)) > 0);
    net.run_until(SimTime::from_secs(9), &mut Silent);

    // fat_tree_scale::rep.
    let mut net = ShardedNetwork::with_plan(
        topo.clone(),
        NetworkConfig::default(),
        ShardPlan::auto(&topo),
    );
    net.bind_telemetry(&tel);
    net.bind_observe(&obs);
    let mut link = Forward(ControllerCluster::new(&topo), 0);
    net.inject_flows(flows);
    drive(&mut net, &mut link, until);
    let sharded = net.counters();
    assert!(link.1 > 0, "ShardedNetwork punts in batches");
    assert_eq!(link.0.counters().packet_ins, sharded.packet_ins);
    assert!(max_table(&topo, |d| net.switch(d)) > 0);
    assert!(!net.active_flows().is_empty() || sharded.delivered_bytes > 0);
    net.run_until(SimTime::from_secs(9), &mut Silent);

    // count_metrics and the digests: Copy, Debug, four pub fields.
    let copy = sharded;
    let text = format!("{copy:?}");
    for field in [
        "packet_ins",
        "flow_removeds",
        "delivered_bytes",
        "dropped_bytes",
    ] {
        assert!(text.contains(field));
    }
    let NetworkCounters {
        packet_ins,
        flow_removeds: _,
        delivered_bytes,
        dropped_bytes: _,
    } = NetworkCounters::default();
    assert_eq!((packet_ins, delivered_bytes), (0, 0));

    // probes::wheel.
    let mut wheel: TimingWheel<u64> = TimingWheel::new(0);
    for i in 0..128u64 {
        wheel.schedule(1 + i % 64, i);
    }
    let fired: usize = (1..=64).map(|tick| wheel.advance(tick).len()).sum();
    assert_eq!(fired, 128);

    // probes::openflow_table: the table is re-assigned inside the timed
    // closure, then probed with its own headers and with strangers.
    let header = |i: u32| {
        let src = Ipv4Addr::from_raw(0x0a00_0000 | i);
        PacketHeader::tcp_syn(PortNo::new(1), src, 1024, Ipv4Addr::new(11, 0, 0, 1), 80)
    };
    let headers: Vec<PacketHeader> = (0..64).map(header).collect();
    let mods: Vec<FlowMod> = headers
        .iter()
        .map(|h| {
            FlowMod::add(
                MatchFields::exact_from_packet(h),
                100,
                vec![Action::Output(PortNo::new(2))],
            )
        })
        .collect();
    let now = SimTime::from_secs(1);
    let mut table = FlowTable::new(0);
    let mut fill = || {
        table = FlowTable::new(0);
        for fm in &mods {
            assert!(table.apply(fm, now).is_ok());
        }
    };
    fill();
    fill();
    assert_eq!(table.len(), headers.len());
    for h in &headers {
        assert!(table.lookup(h, now, 1, 64).is_some());
    }
    assert!(table.lookup(&header(1 << 22), now, 1, 64).is_none());
}
