//! What one store write locks, counted by the lock sentinel instead of
//! timed: a batch insert takes the write lock of each target node's
//! shard once, and reads the store's telemetry snapshot once. It looks
//! no collection up by name and checks no index on the way.
//!
//! One test function: the sentinel's switch and counts are
//! process-global, so this binary runs nothing else beside it.

use athena_core::{FeatureGenerator, FeatureManager};
use athena_openflow::{OfMessage, PacketHeader};
use athena_store::cluster::CollectionHandle;
use athena_store::{doc, DocId, Placement, StoreCluster};
use athena_types::sentinel::{self, Access};
use athena_types::{AppId, ControllerId, Dpid, Ipv4Addr, PortNo, SimTime, Xid};

/// Ceiling on shard write locks per batch and target node (measured: 1).
const COLL_WRITES_PER_TARGET_NODE: u64 = 1;
/// Ceiling on telemetry snapshot reads per batch (measured: 1).
const TEL_READS_PER_BATCH: u64 = 1;

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
    vec![
        (
            ("store/coll", Access::Write),
            targets * COLL_WRITES_PER_TARGET_NODE,
        ),
        (("store/tel", Access::Read), TEL_READS_PER_BATCH),
    ]
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
    let counts = acquisitions_of(|| fm.ingest(&records[0]).unwrap());
    sentinel::force(None);
    sentinel::reset();
    let features = store.collection(FeatureManager::COLLECTION);
    let stored: Vec<DocId> = features.all().iter().map(|d| d.id).collect();
    assert_eq!(stored.len(), 1);
    let targets = nodes_holding(&store, &features, &stored);
    assert_eq!(targets, 2);
    assert_eq!(counts, one_batch(targets), "one PACKET_IN");
}
