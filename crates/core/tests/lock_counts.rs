//! What one store write locks, counted by the lock sentinel instead of
//! timed: a batch insert takes the write lock of each target node's
//! shard once and nothing else. It looks no collection up by name,
//! checks no index and takes no lock for its instruments on the way. A
//! message through Athena's southbound element adds each manager's lock
//! once, and a compute job takes its cluster's job log once.
//!
//! One test function: the sentinel's switch and counts are
//! process-global, so this binary runs nothing else beside it.

use athena_compute::ComputeCluster;
use athena_controller::{
    FlowRuleService, HostService, InterceptCtx, MastershipService, MessageInterceptor,
};
use athena_core::{Athena, AthenaConfig, FeatureGenerator, FeatureManager};
use athena_dataplane::{Routes, Topology};
use athena_openflow::{
    Action, FlowRemoved, FlowRemovedReason, FlowStatsEntry, MatchFields, OfMessage, PacketHeader,
    StatsReply, StatsRequest,
};
use athena_store::cluster::CollectionHandle;
use athena_store::{doc, DocId, Placement, StoreCluster};
use athena_telemetry::Telemetry;
use athena_types::sentinel::{self, Access};
use athena_types::{
    AppId, ControllerId, Dpid, FiveTuple, Ipv4Addr, PortNo, SimDuration, SimTime, Xid,
};

/// Ceiling on shard write locks per batch and target node (measured: 1).
const COLL_WRITES_PER_TARGET_NODE: u64 = 1;
/// Ceiling on each manager lock per message through the SB element
/// (measured: 1 for a FLOW_STATS reply and for a FLOW_REMOVED).
const MANAGER_LOCKS_PER_MESSAGE: u64 = 1;

type Counts = Vec<((&'static str, Access), u64)>;

/// Every tracked acquisition `f` makes, by name and mode.
fn acquisitions_of(f: impl FnOnce()) -> Counts {
    sentinel::reset();
    f();
    sentinel::acquisitions()
}

/// The counts of the store's locks alone.
fn store_only(counts: &Counts) -> Counts {
    let store = counts
        .iter()
        .filter(|((name, _), _)| name.starts_with("store/"));
    store.copied().collect()
}

/// What one batch whose copies reach `targets` nodes may take.
fn one_batch(targets: u64) -> Counts {
    vec![(
        ("store/coll", Access::Write),
        targets * COLL_WRITES_PER_TARGET_NODE,
    )]
}

/// What one message through the SB element may take: each of the four
/// managers' locks once for the whole message, and one store batch.
fn one_message(targets: u64) -> Counts {
    let managers = [
        "core/detector",
        "core/feature_manager",
        "core/reactor",
        "core/resource",
    ];
    let core = managers.map(|name| ((name, Access::Lock), MANAGER_LOCKS_PER_MESSAGE));
    core.into_iter().chain(one_batch(targets)).collect()
}

/// How many nodes' shards hold at least one of `ids`.
fn nodes_holding(store: &StoreCluster, coll: &CollectionHandle, ids: &[DocId]) -> u64 {
    let holds = |i: usize| coll.read_shard(i, |c| ids.iter().any(|id| c.get(*id).is_some()));
    (0..store.node_count()).filter(|i| holds(*i)).count() as u64
}

#[test]
fn a_store_write_locks_only_its_target_shards() {
    sentinel::force(Some(true));

    // A bare batch insert: one document, then sixteen.
    let store = StoreCluster::new(3, 2);
    let coll = store.collection("c");
    coll.create_index(["message_type", "switch"]);
    for size in [1i64, 16] {
        let mut batch: Vec<Placement> = (0..size)
            .map(|i| Placement::pending(doc! { "message_type" => "PACKET_IN", "switch" => i }))
            .collect();
        let counts = acquisitions_of(|| coll.insert_batch(&mut batch));
        let ids: Vec<DocId> = batch.iter().map(|p| p.doc.id).collect();
        assert!(batch.iter().all(|p| p.outcome.is_ok()));
        let targets = nodes_holding(&store, &coll, &ids);
        assert_eq!(targets, if size == 1 { 2 } else { 3 });
        assert_eq!(store_only(&counts), one_batch(targets), "a batch of {size}");
    }

    // A batch of one PACKET_IN through the feature manager, the Table IX
    // path: the same locks and nothing else.
    let store = StoreCluster::new(3, 2);
    let mut fm = FeatureManager::new(&store);
    let mut generator = FeatureGenerator::new(ControllerId::new(0));
    let packet_in = OfMessage::packet_in(
        Xid::new(1),
        PacketHeader::tcp_syn(
            PortNo::new(3),
            Ipv4Addr::new(10, 0, 0, 1),
            1234,
            Ipv4Addr::new(10, 0, 0, 2),
            80,
        ),
    );
    let records = generator.ingest(
        Dpid::new(4),
        &packet_in,
        SimTime::from_secs(1),
        &|cookie: u64| AppId::new(cookie as u32),
    );
    assert_eq!(records.len(), 1);
    let counts = acquisitions_of(|| fm.ingest(records[0].clone()).unwrap());
    sentinel::force(None);
    sentinel::reset();
    let features = store.collection(FeatureManager::COLLECTION);
    let stored: Vec<DocId> = features.all().iter().map(|d| d.id).collect();
    assert_eq!(stored.len(), 1);
    let targets = nodes_holding(&store, &features, &stored);
    assert_eq!(targets, 2);
    assert_eq!(counts, one_batch(targets), "one PACKET_IN");

    southbound_messages();
    one_compute_job();
}

/// A job on a compute cluster bound to an enabled domain: its job log
/// once, and nothing for its instruments.
fn one_compute_job() {
    let tel = Telemetry::new();
    let compute = ComputeCluster::new(3);
    compute.bind_telemetry(&tel);
    let data = compute.parallelize((0..64u32).collect(), 6);
    sentinel::force(Some(true));
    let counts = acquisitions_of(|| assert_eq!(data.count(), 64));
    sentinel::force(None);
    sentinel::reset();
    assert_eq!(counts, vec![(("compute/jobs", Access::Lock), 1)]);
    let tasks = tel.metrics().histogram("compute", "task_ns").snapshot();
    assert_eq!(tasks.count, 6);
}

/// A `FLOW_STATS` reply and a `FLOW_REMOVED` through the SB element.
fn southbound_messages() {
    let athena = Athena::with_telemetry(AthenaConfig::default(), Telemetry::off());
    let topology = Topology::enterprise();
    let flow_rules = FlowRuleService::new();
    let hosts = HostService::from_topology(&topology);
    let mastership = MastershipService::from_topology(&topology);
    let paths = Routes::new(&topology);
    let controller = ControllerId::new(0);
    let ctx = InterceptCtx {
        controller,
        flow_rules: &flow_rules,
        hosts: &hosts,
        mastership: &mastership,
        paths: &paths,
    };
    let mut sb = athena.southbound(controller);
    let dpid = mastership.switches_of(controller)[0];
    let polls = sb.on_tick(&ctx, SimTime::from_secs(5));
    let flow_xid = polls
        .iter()
        .find_map(|(d, m)| match m {
            OfMessage::StatsRequest {
                xid,
                body: StatsRequest::Flow { .. },
            } if *d == dpid => Some(*xid),
            _ => None,
        })
        .unwrap();
    let ft = FiveTuple::tcp(
        Ipv4Addr::new(10, 0, 0, 1),
        1000,
        Ipv4Addr::new(10, 0, 0, 2),
        80,
    );
    let entry = FlowStatsEntry {
        table_id: 0,
        match_fields: MatchFields::exact_five_tuple(ft),
        priority: 100,
        duration: SimDuration::from_secs(4),
        idle_timeout: SimDuration::from_secs(30),
        hard_timeout: SimDuration::ZERO,
        cookie: 3,
        packet_count: 100,
        byte_count: 64_000,
        actions: vec![Action::Output(PortNo::new(2))],
    };
    let reply = OfMessage::StatsReply {
        xid: flow_xid,
        body: StatsReply::Flow(vec![entry]),
    };
    let removed = OfMessage::FlowRemoved {
        xid: Xid::new(9),
        body: FlowRemoved {
            match_fields: MatchFields::exact_five_tuple(ft),
            cookie: 3,
            priority: 100,
            reason: FlowRemovedReason::IdleTimeout,
            duration: SimDuration::from_secs(30),
            packet_count: 120,
            byte_count: 70_000,
        },
    };
    let features = athena
        .runtime()
        .store
        .collection(FeatureManager::COLLECTION);
    let stored = || -> Vec<DocId> { features.all().iter().map(|d| d.id).collect() };
    let now = SimTime::from_secs(6);
    for (name, msg, records) in [("FLOW_STATS", &reply, 4), ("FLOW_REMOVED", &removed, 1)] {
        let before = stored();
        sentinel::force(Some(true));
        let counts = acquisitions_of(|| assert!(sb.on_southbound(&ctx, dpid, msg, now).is_empty()));
        sentinel::force(None);
        sentinel::reset();
        let new: Vec<DocId> = stored()
            .into_iter()
            .filter(|id| !before.contains(id))
            .collect();
        assert_eq!(new.len(), records, "{name}");
        let targets = nodes_holding(&athena.runtime().store, &features, &new);
        assert_eq!(counts, one_message(targets), "one {name}");
    }
    assert_eq!(sb.polls().counters().settled, 1);
}
