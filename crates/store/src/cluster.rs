//! The distributed store: sharding, replication, journaling, metrics.
//!
//! A [`StoreCluster`] is a set of [`StoreNode`]s. Each collection is hash-
//! sharded across all nodes by document id; each shard is replicated onto
//! the next `replication - 1` nodes in ring order. Writes run on the
//! primary and every replica and append a serialized journal record — real
//! work that the Table IX benchmark measures.

use crate::collection::Collection;
use crate::document::{DocId, Document};
use crate::filter::Filter;
use crate::persist::{ops, StorePersist};
use crate::query::{Aggregation, FindOptions};
use athena_observe::Observe;
use athena_telemetry::{names, Counter, Gauge, Histogram, Telemetry};
use athena_types::sentinel::{TrackedMutex, TrackedRwLock};
use athena_types::{AthenaError, Result};
use serde_json::Value;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A single store node: the shards it hosts plus its write journal.
#[derive(Debug)]
pub struct StoreNode {
    collections: TrackedRwLock<HashMap<String, TrackedRwLock<Collection>>>,
    journal_bytes: AtomicU64,
    journal_records: AtomicU64,
    up: AtomicBool,
}

impl Default for StoreNode {
    fn default() -> Self {
        StoreNode {
            collections: TrackedRwLock::new("store/collections", HashMap::new()),
            journal_bytes: AtomicU64::new(0),
            journal_records: AtomicU64::new(0),
            up: AtomicBool::new(true),
        }
    }
}

impl StoreNode {
    fn new() -> Self {
        StoreNode::default()
    }

    /// `true` unless the node is faulted down.
    pub fn is_up(&self) -> bool {
        self.up.load(Ordering::Relaxed)
    }

    pub(crate) fn with_collection<R>(&self, name: &str, f: impl FnOnce(&mut Collection) -> R) -> R {
        {
            let map = self.collections.read();
            if let Some(coll) = map.get(name) {
                return f(&mut coll.write());
            }
        }
        let mut map = self.collections.write();
        let coll = map
            .entry(name.to_owned())
            .or_insert_with(|| TrackedRwLock::new("store/coll", Collection::new(name)));
        let result = f(&mut coll.write());
        result
    }

    pub(crate) fn read_collection<R: Default>(
        &self,
        name: &str,
        f: impl FnOnce(&Collection) -> R,
    ) -> R {
        let map = self.collections.read();
        map.get(name)
            .map_or_else(R::default, |coll| f(&coll.read()))
    }

    /// Names of the collections this node holds shards of.
    pub(crate) fn collection_names(&self) -> Vec<String> {
        self.collections.read().keys().cloned().collect()
    }

    pub(crate) fn journal(&self, encoded_len: u64) {
        let bytes = encoded_len + 16; // header overhead
        self.journal_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.journal_records.fetch_add(1, Ordering::Relaxed);
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

/// Cluster-wide operation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClusterMetrics {
    /// Documents inserted (per logical insert, not per replica).
    pub inserts: u64,
    /// Replica writes performed (including the primary).
    pub replica_writes: u64,
    /// Find operations served.
    pub finds: u64,
    /// Aggregations served.
    pub aggregations: u64,
    /// Documents deleted.
    pub deletes: u64,
    /// Logical documents changed by cluster-wide updates.
    pub updates: u64,
    /// Writes redirected off a down replica onto the next ring node.
    pub write_handoffs: u64,
    /// Inserts rejected for lack of a write quorum.
    pub quorum_failures: u64,
    /// Read operations served while at least one node was down.
    pub degraded_reads: u64,
}

#[derive(Debug, Default)]
pub(crate) struct MetricsInner {
    inserts: AtomicU64,
    replica_writes: AtomicU64,
    finds: AtomicU64,
    aggregations: AtomicU64,
    deletes: AtomicU64,
    updates: AtomicU64,
    write_handoffs: AtomicU64,
    quorum_failures: AtomicU64,
    degraded_reads: AtomicU64,
}

/// The cluster's telemetry instruments (detached until
/// [`StoreCluster::bind_telemetry`]; shared by every cloned handle).
#[derive(Debug, Clone, Default)]
struct StoreTelemetry {
    insert_ns: Histogram,
    find_ns: Histogram,
    replica_writes: Counter,
    deletes: Counter,
    write_handoffs: Counter,
    degraded_reads: Counter,
    nodes_down: Gauge,
    observe: Observe,
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
    pub(crate) metrics: Arc<MetricsInner>,
    pub(crate) index_requests: Arc<TrackedMutex<HashMap<String, Arc<Vec<String>>>>>,
    // Swapped whole on (re)bind, so the write path takes one snapshot
    // handle instead of cloning each instrument under the lock.
    tel: Arc<TrackedRwLock<Arc<StoreTelemetry>>>,
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
            metrics: Arc::new(MetricsInner::default()),
            index_requests: Arc::new(TrackedMutex::new("store/index_requests", HashMap::new())),
            tel: Arc::new(TrackedRwLock::new("store/tel", Arc::default())),
            persist: Arc::new(TrackedMutex::new("store/persist", None)),
            persist_on: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Routes query latencies and replication counters into `tel` for
    /// every handle cloned from this cluster.
    pub fn bind_telemetry(&self, tel: &Telemetry) {
        let m = tel.metrics();
        let st = names::store::SUBSYSTEM;
        let rt = names::retry::SUBSYSTEM;
        // Rebuild wholesale but keep any already-bound observe handle.
        let observe = self.tel.read().observe.clone();
        *self.tel.write() = Arc::new(StoreTelemetry {
            insert_ns: m.histogram(st, names::store::INSERT_NS),
            find_ns: m.histogram(st, names::store::FIND_NS),
            replica_writes: m.counter(st, names::store::REPLICA_WRITES),
            deletes: m.counter(st, names::store::DELETES),
            write_handoffs: m.counter(rt, names::retry::STORE_WRITE_HANDOFFS),
            degraded_reads: m.counter(rt, names::retry::STORE_DEGRADED_READS),
            nodes_down: m.gauge(st, names::store::NODES_DOWN),
            observe,
        });
    }

    /// Routes causal spans (the quorum-write leg of a trace) into `obs`
    /// for every handle cloned from this cluster.
    pub fn bind_observe(&self, obs: &Observe) {
        Arc::make_mut(&mut self.tel.write()).observe = obs.clone();
    }

    /// One snapshot handle to the instruments, out of a guard that lives
    /// for this statement only: the write path goes on to take the
    /// index-request and collection locks, and lock-discipline (rightly)
    /// refuses nested acquisition under `tel`.
    fn telemetry(&self) -> Arc<StoreTelemetry> {
        Arc::clone(&self.tel.read())
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The replication factor (copies per document).
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Returns a handle to a named collection (created lazily on first
    /// write).
    pub fn collection(&self, name: impl Into<String>) -> CollectionHandle {
        CollectionHandle {
            cluster: self.clone(),
            name: name.into(),
        }
    }

    /// A snapshot of the operation counters.
    pub fn metrics(&self) -> ClusterMetrics {
        ClusterMetrics {
            inserts: self.metrics.inserts.load(Ordering::Relaxed),
            replica_writes: self.metrics.replica_writes.load(Ordering::Relaxed),
            finds: self.metrics.finds.load(Ordering::Relaxed),
            aggregations: self.metrics.aggregations.load(Ordering::Relaxed),
            deletes: self.metrics.deletes.load(Ordering::Relaxed),
            updates: self.metrics.updates.load(Ordering::Relaxed),
            write_handoffs: self.metrics.write_handoffs.load(Ordering::Relaxed),
            quorum_failures: self.metrics.quorum_failures.load(Ordering::Relaxed),
            degraded_reads: self.metrics.degraded_reads.load(Ordering::Relaxed),
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
            self.telemetry()
                .nodes_down
                .set(i64::try_from(self.down_count()).unwrap_or(i64::MAX));
            if up && !was {
                self.deliver_handoffs();
            }
        }
    }

    /// Hinted-handoff delivery after a node rejoins: re-places every
    /// logical document onto its (current) preferred replica set, copying
    /// it where missing and dropping stand-in copies. Deterministic:
    /// collections by name, documents by id, nodes in index order.
    fn deliver_handoffs(&self) {
        let mut names: Vec<String> = self
            .nodes
            .iter()
            .flat_map(|n| n.collection_names())
            .collect();
        names.sort();
        names.dedup();
        for name in names {
            let indexed = self.indexed_fields(&name);
            // Handles, not copies: re-placing a document shares its body
            // with the surviving replica.
            let docs = self.live_docs(&name, &Filter::All);
            for doc in docs {
                let (targets, _) = self.write_targets(doc.id);
                for (idx, node) in self.nodes.iter().enumerate() {
                    if !node.is_up() {
                        continue;
                    }
                    let holds = node.read_collection(&name, |c| c.get(doc.id).is_some());
                    if targets.contains(idx) {
                        if !holds {
                            self.write_replica(
                                node,
                                &name,
                                &indexed,
                                doc.encoded_len() as u64,
                                &doc,
                            );
                        }
                    } else if holds {
                        node.with_collection(&name, |c| {
                            c.delete_by_id(doc.id);
                        });
                    }
                }
            }
        }
    }

    /// The fields `coll` was asked to index, as a shared snapshot.
    pub(crate) fn indexed_fields(&self, coll: &str) -> Arc<Vec<String>> {
        self.index_requests
            .lock()
            .get(coll)
            .cloned()
            .unwrap_or_default()
    }

    /// Records that `coll` indexes `field` and builds the index on every
    /// node's shard.
    pub(crate) fn register_index(&self, coll: &str, field: &str) {
        Arc::make_mut(
            self.index_requests
                .lock()
                .entry(coll.to_owned())
                .or_default(),
        )
        .push(field.to_owned());
        for node in self.nodes.iter() {
            node.with_collection(coll, |c| c.create_index(field));
        }
    }

    /// One replica write: the journal record (sized by the insert's one
    /// encode-length), index maintenance and the shard-map insert. The
    /// shard stores a handle to `doc`, not a copy.
    pub(crate) fn write_replica(
        &self,
        node: &StoreNode,
        coll: &str,
        indexed: &[String],
        encoded_len: u64,
        doc: &Arc<Document>,
    ) {
        node.journal(encoded_len);
        node.with_collection(coll, |c| {
            for f in indexed {
                c.create_index(f);
            }
            c.insert_shared(Arc::clone(doc));
        });
    }

    /// `true` if node `i` exists and is up.
    pub fn node_is_up(&self, i: usize) -> bool {
        self.nodes.get(i).is_some_and(StoreNode::is_up)
    }

    /// Number of nodes currently down.
    pub fn down_count(&self) -> usize {
        self.nodes.iter().filter(|n| !n.is_up()).count()
    }

    /// The minimum number of replica writes for an insert to succeed
    /// (majority of the replication factor).
    pub fn write_quorum(&self) -> usize {
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

    /// Every live copy once: handles of the documents of `coll` matching
    /// `filter` on the up nodes, consulted in index order with an id's
    /// later copies skipped unread — deterministic whichever nodes are
    /// down, and placement-independent (a stand-in's handed-off copy
    /// counts). In id order.
    pub(crate) fn live_docs(&self, coll: &str, filter: &Filter) -> Vec<Arc<Document>> {
        let mut seen: HashSet<DocId> = HashSet::new();
        let mut out: Vec<Arc<Document>> = Vec::new();
        for node in self.nodes.iter().filter(|n| n.is_up()) {
            let first_fresh = out.len();
            node.read_collection(coll, |c| {
                let fresh = c.matching(filter, |id| !seen.contains(&id));
                out.extend(fresh.into_iter().map(Arc::clone));
            });
            seen.extend(out[first_fresh..].iter().map(|d| d.id));
        }
        out.sort_by_key(|d| d.id);
        out
    }

    /// Drops the listed documents from every node's shard of `coll`
    /// (preferred replicas, stand-ins holding handed-off copies, and
    /// down nodes alike, so nothing deleted is re-placed on a rejoin):
    /// one lock and one batch per shard.
    pub(crate) fn delete_on_every_node(&self, coll: &str, ids: &[DocId]) {
        if ids.is_empty() {
            return;
        }
        for node in self.nodes.iter() {
            node.with_collection(coll, |c| {
                c.delete_ids(ids);
            });
        }
    }

    pub(crate) fn primary_for(&self, id: DocId) -> usize {
        // Fibonacci hashing of the id spreads sequential ids uniformly.
        (id.0.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize % self.nodes.len()
    }

    pub(crate) fn replicas_for(&self, id: DocId) -> impl Iterator<Item = usize> + '_ {
        let primary = self.primary_for(id);
        (0..self.replication).map(move |k| (primary + k) % self.nodes.len())
    }

    /// The node indices an insert of `id` writes to: the preferred
    /// replica set, with each down member handed off to the next live
    /// ring node not already holding a copy (consistent-hashing-style
    /// hinted handoff). Returns `(targets, handoff_count)`.
    pub(crate) fn write_targets(&self, id: DocId) -> (WriteTargets, u64) {
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

    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let (primary, count, nodes, listed): (usize, usize, usize, &[usize]) = match self {
            WriteTargets::Preferred {
                primary,
                count,
                nodes,
            } => (*primary, *count, *nodes, &[]),
            WriteTargets::HandedOff(targets) => (0, 0, 1, targets),
        };
        (0..count)
            .map(move |k| (primary + k) % nodes)
            .chain(listed.iter().copied())
    }

    pub(crate) fn contains(&self, idx: usize) -> bool {
        self.iter().any(|t| t == idx)
    }
}

/// A handle to one logical (cluster-wide) collection.
#[derive(Debug, Clone)]
pub struct CollectionHandle {
    cluster: StoreCluster,
    name: String,
}

impl CollectionHandle {
    /// The collection name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Inserts a document, assigning it a cluster-unique id.
    ///
    /// The write is journaled and applied on the primary and every
    /// replica. When a preferred replica is down, the write is handed
    /// off to the next live ring node; the insert succeeds as long as a
    /// majority of the replication factor ([`StoreCluster::write_quorum`])
    /// is written.
    ///
    /// # Errors
    ///
    /// Returns [`AthenaError::Store`] if the cluster has no nodes (cannot
    /// happen via [`StoreCluster::new`]) or too few nodes are up to reach
    /// the write quorum.
    pub fn insert(&self, doc: Document) -> Result<DocId> {
        self.insert_shared(doc).map(|d| d.id)
    }

    /// [`CollectionHandle::insert`], returning a handle to the stored
    /// (id-stamped) document: the body every replica shard now shares,
    /// for a caller that goes on reading what it just wrote.
    ///
    /// # Errors
    ///
    /// As [`CollectionHandle::insert`].
    pub fn insert_shared(&self, mut doc: Document) -> Result<Arc<Document>> {
        if self.cluster.nodes.is_empty() {
            return Err(AthenaError::Store("no store nodes".into()));
        }
        let tel = self.cluster.telemetry();
        let span = tel.observe.span("store", "quorum_write");
        let timer = tel.insert_ns.start_timer();
        let id = DocId(self.cluster.next_id.fetch_add(1, Ordering::Relaxed));
        let (targets, handoffs) = self.cluster.write_targets(id);
        if targets.len() < self.cluster.write_quorum() {
            self.cluster
                .metrics
                .quorum_failures
                .fetch_add(1, Ordering::Relaxed);
            return Err(AthenaError::Store(format!(
                "write quorum not reached: {} of {} required copies placeable",
                targets.len(),
                self.cluster.write_quorum()
            )));
        }
        self.cluster.metrics.inserts.fetch_add(1, Ordering::Relaxed);
        if handoffs > 0 {
            self.cluster
                .metrics
                .write_handoffs
                .fetch_add(handoffs, Ordering::Relaxed);
            tel.write_handoffs.add(handoffs);
        }
        let indexed = self.cluster.indexed_fields(&self.name);
        // The primary serializes the record once; replicas receive the
        // same bytes (so journaling costs one encode per logical write,
        // as in a real replicated store) and share the one body.
        let encoded_len = doc.encoded_len() as u64;
        doc.id = id;
        let doc = Arc::new(doc);
        for node_idx in targets.iter() {
            let node = &self.cluster.nodes[node_idx];
            self.cluster
                .write_replica(node, &self.name, &indexed, encoded_len, &doc);
            self.cluster
                .metrics
                .replica_writes
                .fetch_add(1, Ordering::Relaxed);
            tel.replica_writes.inc();
        }
        if self.cluster.persist_on.load(Ordering::Relaxed) {
            self.cluster
                .journal_store_op(&ops::insert(&self.name, id, &doc))?;
        }
        timer.observe(&tel.insert_ns);
        span.finish(format_args!(
            "coll={} id={} handoffs={handoffs}",
            self.name, id.0
        ));
        Ok(doc)
    }

    /// Inserts many documents, attempting every document even when some
    /// fail — a quorum failure on one document no longer aborts the rest
    /// of the batch.
    ///
    /// # Errors
    ///
    /// Returns [`AthenaError::Store`] if any document failed, after all
    /// documents have been attempted.
    pub fn insert_many(&self, docs: impl IntoIterator<Item = Document>) -> Result<Vec<DocId>> {
        let mut ids = Vec::new();
        let mut failed = 0usize;
        for d in docs {
            match self.insert(d) {
                Ok(id) => ids.push(id),
                Err(_) => failed += 1,
            }
        }
        if failed > 0 {
            return Err(AthenaError::Store(format!(
                "{failed} of {} inserts failed (below write quorum)",
                ids.len() + failed
            )));
        }
        Ok(ids)
    }

    /// Registers a secondary index on `field` across all shards.
    pub fn create_index(&self, field: impl Into<String>) {
        let field = field.into();
        self.cluster.register_index(&self.name, &field);
        if self.cluster.persist_on.load(Ordering::Relaxed) {
            let _ = self
                .cluster
                .journal_store_op(&ops::create_index(&self.name, &field));
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
        let tel = self.cluster.telemetry();
        let timer = tel.find_ns.start_timer();
        self.cluster.metrics.finds.fetch_add(1, Ordering::Relaxed);
        let out = opts.apply(self.find_primaries(filter));
        timer.observe(&tel.find_ns);
        out
    }

    /// Counts matching documents cluster-wide: each shard counts its
    /// primary copies (every live copy once, when degraded) in place.
    pub fn count(&self, filter: &Filter) -> usize {
        let cluster = &self.cluster;
        if !cluster.nodes.iter().all(StoreNode::is_up) {
            self.note_degraded_read();
            return cluster.live_docs(&self.name, filter).len();
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
        let cluster = &self.cluster;
        for (node_idx, node) in cluster.nodes.iter().enumerate() {
            node.read_collection(&self.name, |c| {
                visit(c.matching(filter, |id| cluster.primary_for(id) == node_idx));
            });
        }
    }

    /// Runs an aggregation pipeline over the matching documents.
    pub fn aggregate(&self, pipeline: &Aggregation) -> Vec<Arc<Document>> {
        self.cluster
            .metrics
            .aggregations
            .fetch_add(1, Ordering::Relaxed);
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
        self.cluster.delete_on_every_node(&self.name, &victims);
        self.cluster
            .metrics
            .deletes
            .fetch_add(victims.len() as u64, Ordering::Relaxed);
        self.cluster.telemetry().deletes.add(victims.len() as u64);
        if self.cluster.persist_on.load(Ordering::Relaxed) && !victims.is_empty() {
            let _ = self
                .cluster
                .journal_store_op(&ops::delete(&self.name, &victims));
        }
        victims.len()
    }

    /// Sets fields on every matching document, on every live replica copy
    /// (including handed-off copies on ring stand-ins). Returns the number
    /// of logical documents changed.
    pub fn update(&self, filter: &Filter, changes: &[(String, Value)]) -> usize {
        let victims = self.victims(filter);
        for id in &victims {
            for node in self.cluster.nodes.iter().filter(|n| n.is_up()) {
                node.with_collection(&self.name, |c| {
                    c.update_by_id(*id, changes);
                });
            }
        }
        self.cluster
            .metrics
            .updates
            .fetch_add(victims.len() as u64, Ordering::Relaxed);
        if self.cluster.persist_on.load(Ordering::Relaxed) && !victims.is_empty() {
            let _ = self
                .cluster
                .journal_store_op(&ops::update(&self.name, &victims, changes));
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
            return self.cluster.live_docs(&self.name, filter);
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
        self.cluster
            .metrics
            .degraded_reads
            .fetch_add(1, Ordering::Relaxed);
        self.cluster.telemetry().degraded_reads.inc();
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
            let n = cluster.node(i).read_collection("c", |c| c.len());
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
    fn telemetry_observes_query_latency_and_replication() {
        let tel = Telemetry::new();
        let cluster = StoreCluster::new(3, 2);
        cluster.bind_telemetry(&tel);
        let coll = cluster.collection("c");
        for i in 0..20i64 {
            coll.insert(doc! { "i" => i }).unwrap();
        }
        coll.find(&Filter::gte("i", 10), &FindOptions::default());
        coll.delete(&Filter::eq("i", 0));
        let m = tel.metrics();
        assert_eq!(m.histogram("store", "insert_ns").snapshot().count, 20);
        assert_eq!(m.histogram("store", "find_ns").snapshot().count, 1);
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

    /// The handle every live shard holds for `id`, in node order.
    fn shard_handles(cluster: &StoreCluster, id: DocId) -> Vec<Arc<Document>> {
        let mut out = Vec::new();
        for node in cluster.nodes.iter().filter(|n| n.is_up()) {
            node.read_collection("c", |c| {
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
        let mut totals = (0, 0);
        for node in cluster.nodes.iter() {
            let (docs, entries) =
                node.read_collection("c", |c| (c.len(), c.index_entries("k").unwrap_or(0)));
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
