//! The distributed store: sharding, replication, journaling, metrics.
//!
//! A [`StoreCluster`] is a set of [`StoreNode`]s and its collections. A
//! collection is one cluster-wide object holding a shard per node; its
//! documents are hash-sharded by id, and each is replicated onto the next
//! `replication - 1` nodes in ring order. A write runs on the primary and
//! every replica, and each node's journal counts a record per copy. That
//! record is sized as the modelled MongoDB stores the document, as BSON
//! ([`Document::bson_len`]), and never encoded; only with persistence
//! attached is the logical operation serialized, once, as JSON text into
//! the WAL. This is the work the Table IX benchmark measures.

use crate::collection::Collection;
use crate::document::{DocId, Document};
use crate::filter::Filter;
use crate::index::IndexFields;
use crate::persist::{StoreOp, StorePersist};
use crate::query::{Aggregation, FindOptions};
use athena_observe::Observe;
use athena_telemetry::{names, Counter, Gauge, Histogram, Telemetry};
use athena_types::sentinel::{TrackedMutex, TrackedRwLock};
use athena_types::{AthenaError, Result};
use serde_json::Value;
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A single store node: whether it is up, and its write journal (the
/// shards it hosts belong to the collections).
#[derive(Debug)]
pub struct StoreNode {
    journal_bytes: AtomicU64,
    journal_records: AtomicU64,
    up: AtomicBool,
}

impl StoreNode {
    fn new() -> Self {
        StoreNode {
            journal_bytes: AtomicU64::new(0),
            journal_records: AtomicU64::new(0),
            up: AtomicBool::new(true),
        }
    }

    /// `true` unless the node is faulted down.
    pub fn is_up(&self) -> bool {
        self.up.load(Ordering::Relaxed)
    }

    /// The per-node write step every placement shares — a batch insert,
    /// rejoin delivery, journal replay: one lock on this node's shard
    /// `coll`, the handles stored in the order given (each index probed
    /// once per run of copies sharing its key), and one journal add for
    /// them all (a record per copy, each its document's length plus the
    /// header). An empty batch takes no lock. Returns the copies written.
    pub(crate) fn place<'a>(
        &self,
        coll: &TrackedRwLock<Collection>,
        copies: impl Iterator<Item = &'a Placement> + Clone,
    ) -> u64 {
        const HEADER_BYTES: u64 = 16;
        let (records, bytes) = copies.clone().fold((0, 0), |(records, bytes), p| {
            (records + 1, bytes + p.len + HEADER_BYTES)
        });
        if records == 0 {
            return 0;
        }
        coll.write().insert_all(copies.map(|p| &p.doc));
        self.journal_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.journal_records.fetch_add(records, Ordering::Relaxed);
        records
    }

    /// Total bytes appended to this node's journal.
    pub fn journal_bytes(&self) -> u64 {
        self.journal_bytes.load(Ordering::Relaxed)
    }

    /// Total records appended to this node's journal.
    pub fn journal_records(&self) -> u64 {
        self.journal_records.load(Ordering::Relaxed)
    }
}

/// One logical collection, cluster-wide: its shard on every node, in
/// node order. `register_index` builds an index on every shard, down
/// nodes' included, so no write ever checks for one.
#[derive(Debug)]
pub(crate) struct ClusterCollection {
    pub(crate) shards: Vec<TrackedRwLock<Collection>>,
}

impl ClusterCollection {
    fn new(name: &str, nodes: usize) -> Self {
        ClusterCollection {
            shards: (0..nodes)
                .map(|_| TrackedRwLock::new("store/coll", Collection::new(name)))
                .collect(),
        }
    }

    /// Builds the index over `fields` (in key order) on every shard.
    /// Returns `true` if it is new: the first shard's lock settles a race
    /// between two registrations, so only one of them journals it.
    pub(crate) fn register_index(&self, fields: &[String]) -> bool {
        // Spelled with its type: the handle's `create_index` is another.
        let built: Vec<bool> = self
            .shards
            .iter()
            .map(|coll| Collection::create_index(&mut coll.write(), fields))
            .collect();
        built.first() == Some(&true)
    }

    /// Drops the listed documents from every shard (preferred replicas,
    /// stand-ins holding handed-off copies, and down nodes alike, so
    /// nothing deleted is re-placed on a rejoin): one lock and one batch
    /// per shard.
    pub(crate) fn delete_everywhere(&self, ids: &[DocId]) {
        if ids.is_empty() {
            return;
        }
        for coll in &self.shards {
            coll.write().delete_ids(ids);
        }
    }

    /// Sets `changes` on the listed documents in the shard of every up
    /// node: one lock per shard.
    pub(crate) fn update_ids(
        &self,
        nodes: &[StoreNode],
        ids: &[DocId],
        changes: &[(String, Value)],
    ) {
        if ids.is_empty() {
            return;
        }
        for (_, coll) in nodes.iter().zip(&self.shards).filter(|(n, _)| n.is_up()) {
            let mut shard = coll.write();
            for id in ids {
                shard.update_by_id(*id, changes);
            }
        }
    }
}

/// Cluster-wide operation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClusterMetrics {
    /// Documents inserted (per logical insert, not per replica).
    pub inserts: u64,
    /// Replica writes performed (including the primary).
    pub replica_writes: u64,
    /// Documents deleted.
    pub deletes: u64,
    /// Writes redirected off a down replica onto the next ring node.
    pub write_handoffs: u64,
    /// Inserts rejected for lack of a write quorum.
    pub quorum_failures: u64,
    /// Read operations served while at least one node was down.
    pub degraded_reads: u64,
}

/// The cluster's instruments, shared by every cloned handle. Each counter
/// is the one tally of its event, read by [`StoreCluster::metrics`];
/// [`StoreCluster::bind_telemetry`] registers them, the histogram and the
/// gauge, and [`StoreCluster::bind_observe`] sets the observe handle once.
#[derive(Debug, Default)]
struct StoreTelemetry {
    inserts: Counter,
    replica_writes: Counter,
    deletes: Counter,
    write_handoffs: Counter,
    quorum_failures: Counter,
    degraded_reads: Counter,
    insert_ns: Histogram,
    nodes_down: Gauge,
    observe: OnceLock<Observe>,
}

/// A distributed document store: N nodes, hash sharding, replication.
///
/// Cloning yields another handle to the same cluster.
///
/// # Examples
///
/// ```
/// use athena_store::{doc, Filter, FindOptions, StoreCluster};
///
/// let cluster = StoreCluster::new(3, 2);
/// let features = cluster.collection("features");
/// for sw in 0..6 {
///     features.insert(doc! { "sw" => sw })?;
/// }
/// assert_eq!(features.count(&Filter::All), 6);
/// // Every write hit a primary and one replica.
/// assert_eq!(cluster.metrics().replica_writes, 12);
/// # Ok::<(), athena_types::AthenaError>(())
/// ```
#[derive(Debug, Clone)]
pub struct StoreCluster {
    pub(crate) nodes: Arc<Vec<StoreNode>>,
    replication: usize,
    pub(crate) next_id: Arc<AtomicU64>,
    /// Every collection by name; a handle looks its own up once.
    collections: Arc<TrackedRwLock<BTreeMap<String, Arc<ClusterCollection>>>>,
    tel: Arc<StoreTelemetry>,
    pub(crate) persist: Arc<TrackedMutex<Option<StorePersist>>>,
    pub(crate) persist_on: Arc<AtomicBool>,
}

impl StoreCluster {
    /// Creates a cluster of `nodes` store nodes with the given replication
    /// factor (total copies per document, clamped to the node count; at
    /// least 1).
    pub fn new(nodes: usize, replication: usize) -> Self {
        let nodes = nodes.max(1);
        StoreCluster {
            nodes: Arc::new((0..nodes).map(|_| StoreNode::new()).collect()),
            replication: replication.clamp(1, nodes),
            next_id: Arc::new(AtomicU64::new(1)),
            collections: Arc::new(TrackedRwLock::new("store/collections", BTreeMap::new())),
            tel: Arc::default(),
            persist: Arc::new(TrackedMutex::new("store/persist", None)),
            persist_on: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Reports the replication counters and insert latencies into `tel`,
    /// for every handle cloned from this cluster.
    pub fn bind_telemetry(&self, tel: &Telemetry) {
        use names::{retry as rt, store as st};
        let m = tel.metrics();
        let t = &self.tel;
        m.register_counter(st::SUBSYSTEM, st::REPLICA_WRITES, &t.replica_writes);
        m.register_counter(st::SUBSYSTEM, st::DELETES, &t.deletes);
        m.register_counter(rt::SUBSYSTEM, rt::STORE_WRITE_HANDOFFS, &t.write_handoffs);
        m.register_counter(rt::SUBSYSTEM, rt::STORE_DEGRADED_READS, &t.degraded_reads);
        m.register_histogram(st::SUBSYSTEM, st::INSERT_NS, "", &t.insert_ns);
        m.register_gauge(st::SUBSYSTEM, st::NODES_DOWN, "", &t.nodes_down);
    }

    /// Routes causal spans (the quorum-write leg of a trace) into `obs`
    /// for every handle cloned from this cluster. The handle is set once:
    /// a later call leaves the first one bound.
    pub fn bind_observe(&self, obs: &Observe) {
        let _ = self.tel.observe.set(obs.clone());
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The replication factor (copies per document).
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Returns a handle to a named collection. The handle alone creates
    /// nothing: the collection comes to exist with its first stored
    /// document or index.
    pub fn collection(&self, name: impl Into<String>) -> CollectionHandle {
        CollectionHandle {
            cluster: self.clone(),
            name: name.into(),
            bound: OnceLock::new(),
        }
    }

    /// The collection called `name`, if it exists.
    fn existing(&self, name: &str) -> Option<Arc<ClusterCollection>> {
        self.collections.read().get(name).cloned()
    }

    /// The collection called `name`, made (a shard per node) if it does
    /// not exist yet.
    pub(crate) fn collection_object(&self, name: &str) -> Arc<ClusterCollection> {
        if let Some(found) = self.existing(name) {
            return found;
        }
        let mut collections = self.collections.write();
        let coll = collections
            .entry(name.to_owned())
            .or_insert_with(|| Arc::new(ClusterCollection::new(name, self.nodes.len())));
        Arc::clone(coll)
    }

    /// Every collection with its name, in name order.
    pub(crate) fn collection_objects(&self) -> Vec<(String, Arc<ClusterCollection>)> {
        let collections = self.collections.read();
        collections
            .iter()
            .map(|(name, coll)| (name.clone(), Arc::clone(coll)))
            .collect()
    }

    /// A snapshot of the operation counters.
    pub fn metrics(&self) -> ClusterMetrics {
        let t = &self.tel;
        ClusterMetrics {
            inserts: t.inserts.get(),
            replica_writes: t.replica_writes.get(),
            deletes: t.deletes.get(),
            write_handoffs: t.write_handoffs.get(),
            quorum_failures: t.quorum_failures.get(),
            degraded_reads: t.degraded_reads.get(),
        }
    }

    /// Takes a node down (`up = false`) or brings it back (`up = true`).
    ///
    /// A down node serves no reads and accepts no writes; writes destined
    /// for it are handed off to the next live ring node, and reads fall
    /// back to replica copies. When a node comes back up the stored hints
    /// are delivered: every document lands back on its preferred replica
    /// set, so the healthy primary-only read path sees writes accepted
    /// during the outage. Out of range indices are ignored.
    pub fn set_node_up(&self, i: usize, up: bool) {
        if let Some(node) = self.nodes.get(i) {
            let was = node.up.swap(up, Ordering::Relaxed);
            self.tel
                .nodes_down
                .set(i64::try_from(self.down_count()).unwrap_or(i64::MAX));
            if up && !was {
                self.deliver_handoffs();
            }
        }
    }

    /// Hinted-handoff delivery after a node rejoins: re-places every
    /// logical document onto its (current) preferred replica set, copying
    /// it where missing and dropping stand-in copies — per up node, one
    /// placement step and one batch delete. Deterministic: collections by
    /// name, nodes in index order, documents by id.
    fn deliver_handoffs(&self) {
        for (_, collection) in self.collection_objects() {
            // Handles, not copies: re-placing a document shares its body
            // with the surviving replica.
            let placements: Vec<Placement> = self
                .live_docs(&collection, &Filter::All)
                .into_iter()
                .map(|doc| self.placement(doc))
                .collect();
            for (idx, (node, coll)) in self.nodes.iter().zip(&collection.shards).enumerate() {
                if !node.is_up() {
                    continue;
                }
                let (mut missing, mut strays) = (Vec::new(), Vec::new());
                {
                    let c = coll.read();
                    for p in &placements {
                        match (p.targets.contains(idx), c.get(p.doc.id).is_some()) {
                            (true, false) => missing.push(p),
                            (false, true) => strays.push(p.doc.id),
                            _ => {}
                        }
                    }
                }
                node.place(coll, missing.into_iter());
                if !strays.is_empty() {
                    coll.write().delete_ids(&strays);
                }
            }
        }
    }

    /// `doc`, already stored under its id, bound for the nodes an insert
    /// of that id writes to now.
    pub(crate) fn placement(&self, doc: Arc<Document>) -> Placement {
        let (targets, _) = self.write_targets(doc.id);
        let len = doc.bson_len() as u64;
        Placement {
            doc,
            outcome: Ok(()),
            targets,
            len,
        }
    }

    /// The one placement routine: every node that any of `batch` targets
    /// gets one per-node step ([`StoreNode::place`]) on its shard of
    /// `collection` with its copies, in the order given. Returns the copies
    /// written.
    pub(crate) fn place_all<'a>(
        &self,
        collection: &ClusterCollection,
        batch: impl Iterator<Item = &'a Placement> + Clone,
    ) -> u64 {
        let mut copies = 0;
        for (idx, (node, coll)) in self.nodes.iter().zip(&collection.shards).enumerate() {
            let mine = batch.clone().filter(|p| p.targets.contains(idx));
            copies += node.place(coll, mine);
        }
        copies
    }

    /// `true` if node `i` exists and is up.
    pub fn node_is_up(&self, i: usize) -> bool {
        self.nodes.get(i).is_some_and(StoreNode::is_up)
    }

    /// Number of nodes currently down.
    fn down_count(&self) -> usize {
        self.nodes.iter().filter(|n| !n.is_up()).count()
    }

    /// The minimum number of replica writes for an insert to succeed
    /// (majority of the replication factor).
    fn write_quorum(&self) -> usize {
        self.replication / 2 + 1
    }

    /// Total journal bytes across all nodes.
    pub fn total_journal_bytes(&self) -> u64 {
        self.nodes.iter().map(StoreNode::journal_bytes).sum()
    }

    /// Access a node by index (for inspection in tests and benchmarks).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn node(&self, i: usize) -> &StoreNode {
        &self.nodes[i]
    }

    /// Every live copy once: handles of the documents of `collection` matching
    /// `filter` on the up nodes, consulted in index order with an id's
    /// later copies skipped unread — deterministic whichever nodes are
    /// down, and placement-independent (a stand-in's handed-off copy
    /// counts). In id order.
    pub(crate) fn live_docs(
        &self,
        collection: &ClusterCollection,
        filter: &Filter,
    ) -> Vec<Arc<Document>> {
        let mut seen: HashSet<DocId> = HashSet::new();
        let mut out: Vec<Arc<Document>> = Vec::new();
        for (node, coll) in self.nodes.iter().zip(&collection.shards) {
            if !node.is_up() {
                continue;
            }
            let first_fresh = out.len();
            {
                let c = coll.read();
                let fresh = c.matching(filter, |id| !seen.contains(&id));
                out.extend(fresh.into_iter().map(Arc::clone));
            }
            seen.extend(out[first_fresh..].iter().map(|d| d.id));
        }
        out.sort_by_key(|d| d.id);
        out
    }

    fn primary_for(&self, id: DocId) -> usize {
        // Fibonacci hashing of the id spreads sequential ids uniformly.
        (id.0.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize % self.nodes.len()
    }

    fn replicas_for(&self, id: DocId) -> impl Iterator<Item = usize> + '_ {
        let primary = self.primary_for(id);
        (0..self.replication).map(move |k| (primary + k) % self.nodes.len())
    }

    /// The node indices an insert of `id` writes to: the preferred
    /// replica set, with each down member handed off to the next live
    /// ring node not already holding a copy (consistent-hashing-style
    /// hinted handoff). Returns `(targets, handoff_count)`.
    fn write_targets(&self, id: DocId) -> (WriteTargets, u64) {
        let n = self.nodes.len();
        let primary = self.primary_for(id);
        if self.replicas_for(id).all(|idx| self.nodes[idx].is_up()) {
            let ring = WriteTargets::Preferred {
                primary,
                count: self.replication,
                nodes: n,
            };
            return (ring, 0);
        }
        let preferred: Vec<usize> = self.replicas_for(id).collect();
        let mut targets: Vec<usize> = Vec::with_capacity(preferred.len());
        let mut handoffs = 0u64;
        // The handoff cursor starts just past the preferred set and keeps
        // advancing, so two down replicas get two distinct stand-ins.
        let mut cursor = (primary + self.replication) % n;
        for &idx in &preferred {
            if self.nodes[idx].is_up() {
                targets.push(idx);
                continue;
            }
            let mut steps = 0;
            while steps < n {
                let cand = cursor;
                cursor = (cursor + 1) % n;
                steps += 1;
                if self.nodes[cand].is_up()
                    && !preferred.contains(&cand)
                    && !targets.contains(&cand)
                {
                    targets.push(cand);
                    handoffs += 1;
                    break;
                }
            }
        }
        (WriteTargets::HandedOff(targets), handoffs)
    }
}

/// The nodes one insert writes to.
#[derive(Debug)]
pub(crate) enum WriteTargets {
    /// Every preferred replica is up: `count` ring nodes from `primary`
    /// (the healthy write path; nothing on the heap).
    Preferred {
        primary: usize,
        count: usize,
        nodes: usize,
    },
    /// A preferred replica was down: the live ones and the stand-ins.
    HandedOff(Vec<usize>),
}

impl WriteTargets {
    pub(crate) fn len(&self) -> usize {
        match self {
            WriteTargets::Preferred { count, .. } => *count,
            WriteTargets::HandedOff(targets) => targets.len(),
        }
    }

    pub(crate) fn contains(&self, idx: usize) -> bool {
        match self {
            // `idx` is within `count` ring steps of `primary`.
            WriteTargets::Preferred {
                primary,
                count,
                nodes,
            } => (idx + nodes - primary) % nodes < *count,
            WriteTargets::HandedOff(targets) => targets.contains(&idx),
        }
    }
}

/// One document on its way to the shards: what the one placement
/// routine moves, whether it comes from an insert, a rejoin or a replay.
/// An insert starts it [`Placement::pending`] and
/// [`CollectionHandle::insert_batch`] settles it in place.
#[derive(Debug)]
pub struct Placement {
    /// The body: the document as given until its batch runs (and when
    /// refused); once stored, the id-stamped handle every target shard
    /// holds.
    pub doc: Arc<Document>,
    /// `Ok` while pending and once stored (and journaled, with
    /// persistence attached); otherwise why the insert failed.
    pub outcome: Result<()>,
    /// The nodes its copies go to (none while pending or when refused).
    targets: WriteTargets,
    /// Its journal record's length (the document as BSON), sized once
    /// for every copy.
    len: u64,
}

impl Placement {
    /// A document waiting for [`CollectionHandle::insert_batch`]. A
    /// handle nothing else holds is stamped in place; a shared one is
    /// copied once, on stamping.
    pub fn pending(doc: impl Into<Arc<Document>>) -> Self {
        Placement {
            doc: doc.into(),
            outcome: Ok(()),
            targets: WriteTargets::HandedOff(Vec::new()),
            len: 0,
        }
    }
}

/// A handle to one logical (cluster-wide) collection.
#[derive(Debug, Clone)]
pub struct CollectionHandle {
    cluster: StoreCluster,
    name: String,
    /// The collection, once this handle has found it.
    bound: OnceLock<Arc<ClusterCollection>>,
}

impl CollectionHandle {
    /// The collection name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The collection, looked up by name until this handle has found it.
    /// With `create` (a write, an index registration) it is made if it
    /// does not exist; a read creates nothing.
    fn collection(&self, create: bool) -> Option<&ClusterCollection> {
        if let Some(coll) = self.bound.get() {
            return Some(coll);
        }
        let coll = match create {
            true => self.cluster.collection_object(&self.name),
            false => self.cluster.existing(&self.name)?,
        };
        Some(self.bound.get_or_init(|| coll))
    }

    /// Runs `f` on node `node`'s shard under its read lock (for tests and
    /// benchmarks); `R::default()` when there is no such shard.
    pub fn read_shard<R: Default>(&self, node: usize, f: impl FnOnce(&Collection) -> R) -> R {
        let Some(coll) = self.collection(false).and_then(|c| c.shards.get(node)) else {
            return R::default();
        };
        let shard = coll.read();
        f(&shard)
    }

    /// Inserts a document, assigning it a cluster-unique id.
    ///
    /// The write is journaled and applied on the primary and every
    /// replica. When a preferred replica is down, the write is handed
    /// off to the next live ring node; the insert succeeds as long as a
    /// majority of the replication factor (the write quorum) is written.
    ///
    /// # Errors
    ///
    /// Returns [`AthenaError::Store`] if too few nodes are up to reach the
    /// write quorum.
    pub fn insert(&self, doc: Document) -> Result<DocId> {
        self.insert_shared(doc).map(|d| d.id)
    }

    /// [`CollectionHandle::insert`], returning a handle to the stored
    /// (id-stamped) document: the body every replica shard now shares,
    /// for a caller that goes on reading what it just wrote. A batch of
    /// one, on the stack.
    ///
    /// # Errors
    ///
    /// As [`CollectionHandle::insert`].
    pub fn insert_shared(&self, doc: Document) -> Result<Arc<Document>> {
        let mut one = [Placement::pending(doc)];
        self.insert_batch(&mut one);
        let [Placement { doc, outcome, .. }] = one;
        outcome.map(|()| doc)
    }

    /// Inserts the [`Placement::pending`] documents of `batch` as one
    /// batch, the write-side mirror of the batch delete, and settles each
    /// in place. Ids are stamped in batch order (a document refused for
    /// want of a write quorum still consumes its id); each document's
    /// write targets are picked as [`CollectionHandle::insert`] picks
    /// them; then every node that receives copies takes its shard's write
    /// lock and one journal add for all of them, and stores them in id
    /// order. The counters move once per batch, which
    /// records one `store/quorum_write` span and one `store/insert_ns`
    /// sample; with persistence attached, one WAL insert per stored
    /// document follows, in id order. Every document is attempted.
    ///
    /// The batch is the caller's, so one that keeps a `Vec` of them
    /// between batches allocates nothing here but the documents' bodies.
    pub fn insert_batch(&self, batch: &mut [Placement]) {
        if batch.is_empty() {
            return;
        }
        let cluster = &self.cluster;
        let tel = &cluster.tel;
        let span = tel.observe.get().map(|o| o.span("store", "quorum_write"));
        let timer = tel.insert_ns.start_timer();
        let quorum = cluster.write_quorum();
        let n = batch.len() as u64;
        let first = cluster.next_id.fetch_add(n, Ordering::Relaxed);
        let (mut placed, mut handoffs) = (0, 0);
        for (p, id) in batch.iter_mut().zip(first..) {
            let id = DocId(id);
            let (targets, handed) = cluster.write_targets(id);
            if targets.len() < quorum {
                p.outcome = Err(AthenaError::Store(format!(
                    "write quorum not reached: {} of {quorum} required copies placeable",
                    targets.len()
                )));
                continue;
            }
            placed += 1;
            handoffs += handed;
            p.outcome = Ok(());
            Arc::make_mut(&mut p.doc).id = id;
            p.len = p.doc.bson_len() as u64;
            p.targets = targets;
        }
        // A batch refused whole creates no collection.
        let stored = batch.iter().filter(|p| p.outcome.is_ok());
        let copies = self
            .collection(placed > 0)
            .map_or(0, |coll| cluster.place_all(coll, stored));

        tel.inserts.add(placed);
        tel.quorum_failures.add(n - placed);
        tel.replica_writes.add(copies);
        if handoffs > 0 {
            tel.write_handoffs.add(handoffs);
        }
        for p in batch.iter_mut().filter(|p| p.outcome.is_ok()) {
            p.outcome = cluster.journal(|| StoreOp::Insert {
                coll: self.name.clone(),
                doc: Arc::clone(&p.doc),
            });
        }
        timer.observe(&tel.insert_ns);
        if let Some(span) = span {
            span.finish(format_args!(
                "coll={} docs={n} handoffs={handoffs}",
                self.name
            ));
        }
    }

    /// Inserts many documents as one batch, attempting every document
    /// even when some fail — a quorum failure on one document does not
    /// abort the rest of the batch.
    ///
    /// # Errors
    ///
    /// Returns [`AthenaError::Store`] if any document failed, after all
    /// documents have been attempted.
    pub fn insert_many(&self, docs: impl IntoIterator<Item = Document>) -> Result<Vec<DocId>> {
        let mut batch: Vec<Placement> = docs.into_iter().map(Placement::pending).collect();
        self.insert_batch(&mut batch);
        let failed = batch.iter().filter(|p| p.outcome.is_err()).count();
        if failed > 0 {
            return Err(AthenaError::Store(format!(
                "{failed} of {} inserts failed (below write quorum)",
                batch.len()
            )));
        }
        Ok(batch.iter().map(|p| p.doc.id).collect())
    }

    /// Registers a secondary index across all shards (and journals it,
    /// with persistence attached): over one field, or over an ordered
    /// list of fields whose every leading run an equality can use. An
    /// index already registered is left alone.
    ///
    /// ```
    /// use athena_store::{doc, Filter, StoreCluster};
    ///
    /// let features = StoreCluster::new(3, 2).collection("features");
    /// features.create_index(["message_type", "switch"]);
    /// features.insert(doc! { "message_type" => "FLOW_STATS", "switch" => 4 })?;
    /// let per_switch = Filter::and(vec![
    ///     Filter::eq("switch", 4),
    ///     Filter::eq("message_type", "FLOW_STATS"),
    /// ]);
    /// assert_eq!(features.count(&per_switch), 1);
    /// # Ok::<(), athena_types::AthenaError>(())
    /// ```
    pub fn create_index(&self, fields: impl IndexFields) {
        let fields = fields.into_fields();
        let new = !fields.is_empty()
            && self
                .collection(true)
                .is_some_and(|coll| coll.register_index(&fields));
        if new {
            let _ = self.cluster.journal(|| StoreOp::Index {
                coll: self.name.clone(),
                fields,
            });
        }
    }

    /// Finds matching documents cluster-wide, then applies `opts`.
    ///
    /// Reads are served by each shard's primary copy only, so replicated
    /// documents are not duplicated in the result. The result holds the
    /// shards' own document handles: a snapshot — a later update copies
    /// the body it changes, so a reader never sees it — that costs a
    /// reference count per hit, and a new body only under a projection.
    pub fn find(&self, filter: &Filter, opts: &FindOptions) -> Vec<Arc<Document>> {
        opts.apply(self.find_primaries(filter))
    }

    /// Counts matching documents cluster-wide: each shard counts its
    /// primary copies (every live copy once, when degraded) in place.
    pub fn count(&self, filter: &Filter) -> usize {
        if !self.cluster.nodes.iter().all(StoreNode::is_up) {
            return self.find_primaries(filter).len();
        }
        let mut n = 0;
        self.each_shards_primaries(filter, |hits| n += hits.len());
        n
    }

    /// Hands `visit` each shard's matching primary copies, in node order
    /// (every node up). The ownership test runs on the id, before the
    /// shard looks at a document: a replica copy costs a multiply, not a
    /// fetch and a match.
    fn each_shards_primaries(&self, filter: &Filter, mut visit: impl FnMut(Vec<&Arc<Document>>)) {
        let Some(collection) = self.collection(false) else {
            return;
        };
        let cluster = &self.cluster;
        for (node_idx, coll) in collection.shards.iter().enumerate() {
            let c = coll.read();
            visit(c.matching(filter, |id| cluster.primary_for(id) == node_idx));
        }
    }

    /// Runs an aggregation pipeline over the matching documents.
    pub fn aggregate(&self, pipeline: &Aggregation) -> Vec<Arc<Document>> {
        pipeline.run(self.find_primaries(&Filter::All))
    }

    /// Ids of the logical documents matching `filter`, in id order.
    fn victims(&self, filter: &Filter) -> Vec<DocId> {
        self.find_primaries(filter).iter().map(|d| d.id).collect()
    }

    /// Deletes matching documents on every replica. Returns the number of
    /// logical documents removed.
    pub fn delete(&self, filter: &Filter) -> usize {
        let victims = self.victims(filter);
        if let Some(coll) = self.collection(false) {
            coll.delete_everywhere(&victims);
        }
        let n = victims.len() as u64;
        self.cluster.tel.deletes.add(n);
        if n > 0 {
            let _ = self.cluster.journal(|| StoreOp::Delete {
                coll: self.name.clone(),
                ids: victims.clone(),
            });
        }
        victims.len()
    }

    /// Sets fields on every matching document, on every live replica copy
    /// (including handed-off copies on ring stand-ins). Returns the number
    /// of logical documents changed.
    pub fn update(&self, filter: &Filter, changes: &[(String, Value)]) -> usize {
        let victims = self.victims(filter);
        if let Some(coll) = self.collection(false) {
            coll.update_ids(&self.cluster.nodes, &victims, changes);
        }
        if !victims.is_empty() {
            let _ = self.cluster.journal(|| StoreOp::Update {
                coll: self.name.clone(),
                ids: victims.clone(),
                changes: changes.to_vec(),
            });
        }
        victims.len()
    }

    /// All documents (primary copies), in canonical id order.
    pub fn all(&self) -> Vec<Arc<Document>> {
        self.find_primaries(&Filter::All)
    }

    /// Cluster-wide reads return documents in canonical id order (ids are
    /// assigned sequentially, so this is global insertion order). The
    /// order is therefore independent of document placement and of
    /// per-shard index history — a run that handed documents off during
    /// an outage and a run recovered from the journal read identically.
    fn find_primaries(&self, filter: &Filter) -> Vec<Arc<Document>> {
        if !self.cluster.nodes.iter().all(StoreNode::is_up) {
            // Degraded path: a down primary's documents are recovered
            // from replica copies.
            self.note_degraded_read();
            return self
                .collection(false)
                .map_or_else(Vec::new, |coll| self.cluster.live_docs(coll, filter));
        }
        // Healthy path: each shard answers from its primary copy only,
        // so replicated documents are not duplicated. The shards are
        // walked in turn — with nothing cloned a shard's answer is too
        // short for a second thread to repay its start (EXPERIMENTS.md,
        // "Store read path").
        let mut out: Vec<Arc<Document>> = Vec::new();
        self.each_shards_primaries(filter, |hits| {
            out.extend(hits.into_iter().map(Arc::clone));
        });
        out.sort_by_key(|d| d.id);
        out
    }

    fn note_degraded_read(&self) {
        self.cluster.tel.degraded_reads.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc;
    use crate::query::SortSpec;

    #[test]
    fn insert_then_find_roundtrips() {
        let cluster = StoreCluster::new(4, 2);
        let coll = cluster.collection("c");
        for i in 0..100i64 {
            coll.insert(doc! { "i" => i }).unwrap();
        }
        assert_eq!(coll.count(&Filter::All), 100);
        let out = coll.find(
            &Filter::gte("i", 90),
            &FindOptions::default().sort(SortSpec::asc("i")),
        );
        assert_eq!(out.len(), 10);
        assert_eq!(out[0].get_i64("i"), Some(90));
    }

    #[test]
    fn no_duplicates_despite_replication() {
        let cluster = StoreCluster::new(3, 3);
        let coll = cluster.collection("c");
        for i in 0..50i64 {
            coll.insert(doc! { "i" => i }).unwrap();
        }
        let all = coll.all();
        assert_eq!(all.len(), 50);
        let mut ids: Vec<u64> = all.iter().map(|d| d.id.0).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 50);
    }

    #[test]
    fn replication_writes_all_copies() {
        let cluster = StoreCluster::new(5, 3);
        let coll = cluster.collection("c");
        for i in 0..10i64 {
            coll.insert(doc! { "i" => i }).unwrap();
        }
        let m = cluster.metrics();
        assert_eq!(m.inserts, 10);
        assert_eq!(m.replica_writes, 30);
        // Journals received every replica write.
        let total_records: u64 = (0..5).map(|i| cluster.node(i).journal_records()).sum();
        assert_eq!(total_records, 30);
        assert!(cluster.total_journal_bytes() > 0);
    }

    #[test]
    fn sharding_spreads_documents() {
        let cluster = StoreCluster::new(4, 1);
        let coll = cluster.collection("c");
        for i in 0..400i64 {
            coll.insert(doc! { "i" => i }).unwrap();
        }
        // Every node should hold a reasonable share (loose bound).
        for i in 0..4 {
            let n = coll.read_shard(i, |c| c.len());
            assert!(n > 40, "node {i} holds only {n} docs");
        }
    }

    #[test]
    fn aggregate_over_cluster() {
        use crate::query::{Accumulator, GroupSpec};
        let cluster = StoreCluster::new(3, 2);
        let coll = cluster.collection("c");
        for i in 0..30i64 {
            coll.insert(doc! { "k" => i % 3, "v" => i }).unwrap();
        }
        let out = coll.aggregate(
            &Aggregation::new()
                .group(GroupSpec::by(&["k"]).with("n", Accumulator::Count))
                .sort(vec![SortSpec::asc("k")]),
        );
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|d| d.get_i64("n") == Some(10)));
    }

    #[test]
    fn telemetry_observes_insert_latency_and_replication() {
        let tel = Telemetry::new();
        let cluster = StoreCluster::new(3, 2);
        cluster.bind_telemetry(&tel);
        let coll = cluster.collection("c");
        for i in 0..20i64 {
            coll.insert(doc! { "i" => i }).unwrap();
        }
        coll.delete(&Filter::eq("i", 0));
        let m = tel.metrics();
        assert_eq!(m.histogram("store", "insert_ns").snapshot().count, 20);
        assert_eq!(m.counter("store", "replica_writes").get(), 40);
        assert_eq!(m.counter("store", "deletes").get(), 1);
    }

    #[test]
    fn replication_factor_is_clamped() {
        let cluster = StoreCluster::new(2, 10);
        assert_eq!(cluster.replication(), 2);
        let cluster = StoreCluster::new(3, 0);
        assert_eq!(cluster.replication(), 1);
    }

    #[test]
    fn down_replica_hands_writes_off_and_reads_degrade() {
        let tel = Telemetry::new();
        let cluster = StoreCluster::new(4, 2);
        cluster.bind_telemetry(&tel);
        let coll = cluster.collection("c");
        cluster.set_node_up(1, false);
        assert!(!cluster.node_is_up(1));
        assert_eq!(cluster.down_count(), 1);
        for i in 0..100i64 {
            coll.insert(doc! { "i" => i }).unwrap();
        }
        let m = cluster.metrics();
        assert_eq!(m.inserts, 100);
        // Every logical write still placed `replication` copies.
        assert_eq!(m.replica_writes, 200);
        // Node 1 would have been primary or replica for some shard of 100
        // docs; those writes were handed off.
        assert!(m.write_handoffs > 0, "no handoffs recorded");
        assert_eq!(m.quorum_failures, 0);
        // The down node received nothing.
        assert_eq!(cluster.node(1).journal_records(), 0);
        // Reads see every document despite the outage.
        assert_eq!(coll.count(&Filter::All), 100);
        assert!(cluster.metrics().degraded_reads > 0);
        let t = tel.metrics();
        assert!(t.counter("retry", "store_write_handoffs").get() > 0);
        assert!(t.counter("retry", "store_degraded_reads").get() > 0);
        // Recovery: bring the node back; the healthy read path resumes
        // and still sees every primary copy (handed-off copies live on
        // ring stand-ins, which dedup correctly).
        cluster.set_node_up(1, true);
        let healthy = coll.count(&Filter::All);
        assert!(healthy >= 100 - m.write_handoffs as usize);
    }

    #[test]
    fn insert_fails_below_quorum_and_insert_many_attempts_all() {
        let cluster = StoreCluster::new(3, 3);
        let coll = cluster.collection("c");
        // quorum = 2 of 3; with two nodes down only one copy is placeable.
        cluster.set_node_up(0, false);
        cluster.set_node_up(1, false);
        let err = coll.insert(doc! { "i" => 1 }).unwrap_err();
        assert!(err.to_string().contains("quorum"));
        assert_eq!(cluster.metrics().quorum_failures, 1);
        assert_eq!(cluster.metrics().inserts, 0);
        let batch_err = coll
            .insert_many((0..5i64).map(|i| doc! { "i" => i }))
            .unwrap_err();
        assert!(batch_err.to_string().contains("5 of 5"));
        // One node back: 2 of 3 copies placeable → quorum reached.
        cluster.set_node_up(0, true);
        let ids = coll
            .insert_many((0..5i64).map(|i| doc! { "i" => i }))
            .unwrap();
        assert_eq!(ids.len(), 5);
        assert_eq!(coll.count(&Filter::All), 5);
    }

    #[test]
    fn degraded_reads_are_deterministic() {
        let build = || {
            let cluster = StoreCluster::new(4, 2);
            let coll = cluster.collection("c");
            for i in 0..50i64 {
                coll.insert(doc! { "i" => i }).unwrap();
            }
            cluster.set_node_up(2, false);
            let mut vals: Vec<i64> = coll.all().iter().filter_map(|d| d.get_i64("i")).collect();
            vals.sort_unstable();
            (vals, cluster.metrics())
        };
        let (a, ma) = build();
        let (b, mb) = build();
        assert_eq!(a, b);
        assert_eq!(a.len(), 50, "degraded read lost documents");
        assert_eq!(ma, mb);
    }

    #[test]
    fn healthy_cluster_behavior_is_unchanged() {
        let cluster = StoreCluster::new(5, 3);
        let coll = cluster.collection("c");
        for i in 0..10i64 {
            coll.insert(doc! { "i" => i }).unwrap();
        }
        let m = cluster.metrics();
        assert_eq!(m.write_handoffs, 0);
        assert_eq!(m.quorum_failures, 0);
        assert_eq!(m.degraded_reads, 0);
        assert_eq!(m.replica_writes, 30);
    }

    /// The handle every live shard of `c` holds for `id`, in node order.
    fn shard_handles(cluster: &StoreCluster, id: DocId) -> Vec<Arc<Document>> {
        let coll = cluster.collection("c");
        let mut out = Vec::new();
        for i in (0..cluster.node_count()).filter(|i| cluster.node_is_up(*i)) {
            coll.read_shard(i, |c| {
                let held = c.matching(&Filter::All, |held| held == id);
                out.extend(held.into_iter().cloned());
            });
        }
        out
    }

    #[test]
    fn replicas_share_one_body_after_insert() {
        let cluster = StoreCluster::new(4, 3);
        let coll = cluster.collection("c");
        coll.create_index("k");
        for i in 0..20i64 {
            let id = coll.insert(doc! { "k" => i % 3, "v" => i }).unwrap();
            let handles = shard_handles(&cluster, id);
            assert_eq!(handles.len(), 3);
            assert!(handles.iter().all(|h| Arc::ptr_eq(h, &handles[0])));
            // Three shards plus the three handles this test holds: the
            // insert left no other copy or handle behind.
            assert_eq!(Arc::strong_count(&handles[0]), 6);
            assert_eq!(handles[0].id, id);
        }
    }

    #[test]
    fn mutations_keep_replicas_equal_and_never_reach_a_reader() {
        let cluster = StoreCluster::new(3, 3);
        let coll = cluster.collection("c");
        coll.create_index("k");
        let mut ids = Vec::new();
        for i in 0..12i64 {
            ids.push(coll.insert(doc! { "k" => i % 3, "v" => i }).unwrap());
        }
        let held = coll.insert_shared(doc! { "k" => 0, "v" => 99 }).unwrap();
        let read_before = coll.all();
        // Cluster-wide update (every replica goes through `update_by_id`).
        assert_eq!(
            coll.update(&Filter::eq("k", 0), &[("k".into(), 7.into())]),
            5
        );
        for id in ids.iter().chain([&held.id]) {
            let handles = shard_handles(&cluster, *id);
            assert_eq!(handles.len(), 3);
            assert!(
                handles.iter().all(|h| **h == *handles[0]),
                "replicas diverged"
            );
            // An updated body was copied on write; an untouched one is
            // still the single shared body.
            let updated = handles[0].get_i64("k") == Some(7);
            assert_eq!(Arc::ptr_eq(&handles[0], &handles[1]), !updated);
        }
        // Neither the held handle nor the earlier read saw the update.
        assert_eq!(held.get_i64("k"), Some(0));
        assert_eq!(
            read_before
                .iter()
                .filter(|d| d.get_i64("k") == Some(0))
                .count(),
            5
        );
        assert_eq!(coll.count(&Filter::eq("k", 7)), 5);
        assert_eq!(coll.count(&Filter::eq("k", 0)), 0);
        // Delete drops every replica and the index entries with them.
        assert_eq!(coll.delete(&Filter::eq("k", 7)), 5);
        assert!(shard_handles(&cluster, held.id).is_empty());
        assert_eq!(coll.count(&Filter::All), 8);
        assert_eq!(held.get_i64("v"), Some(99));
        assert_eq!(read_before.len(), 13);
    }

    #[test]
    fn outage_handoff_and_rejoin_read_like_no_outage() {
        let run = |outage: bool| {
            let cluster = StoreCluster::new(4, 2);
            let coll = cluster.collection("c");
            coll.create_index("k");
            for i in 0..30i64 {
                coll.insert(doc! { "k" => i % 4, "v" => i }).unwrap();
            }
            if outage {
                cluster.set_node_up(1, false);
            }
            for i in 30..90i64 {
                coll.insert(doc! { "k" => i % 4, "v" => i }).unwrap();
            }
            coll.update(&Filter::eq("k", 2), &[("hot".into(), true.into())]);
            let degraded = (coll.all(), coll.count(&Filter::eq("k", 2)));
            cluster.set_node_up(1, true);
            // Delivery re-places bodies by handle: both preferred
            // replicas of a handed-off document share one body again.
            for d in coll.find(&Filter::eq("k", 1), &FindOptions::default()) {
                let handles = shard_handles(&cluster, d.id);
                assert_eq!(handles.len(), 2);
                assert!(Arc::ptr_eq(&handles[0], &handles[1]));
            }
            (
                degraded,
                coll.all(),
                coll.count(&Filter::eq("k", 2)),
                cluster.metrics().replica_writes,
            )
        };
        let (healthy_mid, healthy, healthy_n, healthy_writes) = run(false);
        let (degraded_mid, rejoined, rejoined_n, outage_writes) = run(true);
        assert_eq!(degraded_mid, healthy_mid);
        assert_eq!(rejoined, healthy);
        assert_eq!(rejoined_n, healthy_n);
        assert_eq!(healthy.len(), 90);
        assert_eq!((healthy_writes, outage_writes), (180, 180));
    }

    /// `(documents, index entries under "k")` summed over every shard.
    fn shard_totals(cluster: &StoreCluster) -> (usize, usize) {
        let coll = cluster.collection("c");
        let mut totals = (0, 0);
        for i in 0..cluster.node_count() {
            let (docs, entries) =
                coll.read_shard(i, |c| (c.len(), c.index_entries(&["k"]).unwrap_or(0)));
            totals = (totals.0 + docs, totals.1 + entries);
        }
        totals
    }

    #[test]
    fn a_bulk_delete_empties_shards_and_indexes_healthy_and_handed_off() {
        for outage in [false, true] {
            let cluster = StoreCluster::new(4, 2);
            let coll = cluster.collection("c");
            coll.create_index("k");
            for i in 0..40i64 {
                coll.insert(doc! { "k" => i % 2, "v" => i }).unwrap();
            }
            if outage {
                cluster.set_node_up(1, false);
            }
            // During an outage these land on ring stand-ins.
            for i in 40..120i64 {
                coll.insert(doc! { "k" => i % 2, "v" => i }).unwrap();
            }
            assert_eq!(shard_totals(&cluster), (240, 240));
            // One key holds every victim: the batch is one pass over it.
            assert_eq!(coll.delete(&Filter::eq("k", 1)), 60);
            // Every copy went, wherever it lived, and no index entry
            // outlived its document.
            assert_eq!(shard_totals(&cluster), (120, 120), "outage={outage}");
            assert_eq!(coll.count(&Filter::eq("k", 1)), 0);
            assert_eq!(coll.count(&Filter::All), 60);
            assert_eq!(coll.all().len(), 60);
            cluster.set_node_up(1, true);
            // Nothing deleted is re-placed by the rejoin.
            assert_eq!(shard_totals(&cluster), (120, 120), "outage={outage}");
            assert_eq!(coll.count(&Filter::eq("k", 1)), 0);
            assert_eq!(coll.count(&Filter::eq("k", 0)), 60);
            assert_eq!(cluster.metrics().deletes, 60);
        }
    }

    /// Asserts that every shard of `coll` indexes all of its documents
    /// under `k` and serves `k == v`, for each `v` in `keys`, from that
    /// index with exactly the documents a walk of the shard finds.
    fn every_shard_serves_k_from_its_index(
        cluster: &StoreCluster,
        coll: &CollectionHandle,
        keys: i64,
    ) {
        for node in 0..cluster.node_count() {
            coll.read_shard(node, |c| {
                assert_eq!(c.index_entries(&["k"]), Some(c.len()), "node {node}");
                let walk = c.matching(&Filter::All, |_| true);
                for k in 0..keys {
                    let (scans, hits) = c.scan_stats();
                    let mut served: Vec<DocId> = c
                        .matching(&Filter::eq("k", k), |_| true)
                        .iter()
                        .map(|d| d.id)
                        .collect();
                    assert_eq!(c.scan_stats(), (scans, hits + 1), "node {node} k={k}");
                    served.sort_unstable();
                    let naive: Vec<DocId> = walk
                        .iter()
                        .filter(|d| d.get_i64("k") == Some(k))
                        .map(|d| d.id)
                        .collect();
                    assert_eq!(served, naive, "node {node} k={k}");
                }
            });
        }
    }

    #[test]
    fn an_index_registered_through_another_handle_indexes_later_writes() {
        let cluster = StoreCluster::new(3, 2);
        let writer = cluster.collection("c");
        for i in 0..30i64 {
            writer.insert(doc! { "k" => i % 4, "v" => i }).unwrap();
        }
        // A second handle registers the index; the first, bound before
        // it existed, keeps writing.
        cluster.collection("c").create_index("k");
        for i in 30..90i64 {
            writer.insert(doc! { "k" => i % 4, "v" => i }).unwrap();
        }
        let mut batch: Vec<Placement> = (90..100i64)
            .map(|i| Placement::pending(doc! { "k" => i % 4, "v" => i }))
            .collect();
        writer.insert_batch(&mut batch);
        every_shard_serves_k_from_its_index(&cluster, &writer, 4);
        assert_eq!(writer.count(&Filter::eq("k", 1)), 25);
    }

    #[test]
    fn an_index_registered_while_a_node_is_down_serves_it_after_the_rejoin() {
        let cluster = StoreCluster::new(4, 2);
        let coll = cluster.collection("c");
        for i in 0..40i64 {
            coll.insert(doc! { "k" => i % 3, "v" => i }).unwrap();
        }
        cluster.set_node_up(1, false);
        coll.create_index("k");
        for i in 40..100i64 {
            coll.insert(doc! { "k" => i % 3, "v" => i }).unwrap();
        }
        assert!(cluster.metrics().write_handoffs > 0);
        // The rejoin delivers the handed-off documents to node 1's shard.
        cluster.set_node_up(1, true);
        assert!(coll.read_shard(1, |c| c.len()) > 20);
        every_shard_serves_k_from_its_index(&cluster, &coll, 3);
        let (scans, hits) = coll.read_shard(1, |c| c.scan_stats());
        assert_eq!(coll.count(&Filter::eq("k", 2)), 33);
        assert_eq!(coll.read_shard(1, |c| c.scan_stats()), (scans, hits + 1));
    }

    #[test]
    fn indexes_apply_to_future_inserts_on_all_shards() {
        let cluster = StoreCluster::new(3, 1);
        let coll = cluster.collection("c");
        coll.create_index("k");
        for i in 0..60i64 {
            coll.insert(doc! { "k" => i % 5 }).unwrap();
        }
        assert_eq!(coll.count(&Filter::eq("k", 2)), 12);
    }
}
