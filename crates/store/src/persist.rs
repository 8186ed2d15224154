//! Durability wiring: the cluster's write path appends WAL records and
//! checkpoints through an [`athena_persist::Journal`].
//!
//! The paper's prototype outsources this to MongoDB's journal; here the
//! cluster itself owns a journal under a configurable data directory.
//! Each logical operation is a [`StoreOp`] and each checkpoint a
//! [`StoreSnapshot`], encoded by their serde derives as canonical JSON —
//! the serde shim's object map is BTreeMap-backed, so the same record
//! always serializes to the same bytes — and replayed on recovery against
//! a fresh cluster, yielding byte-identical logical contents. A checkpoint
//! snapshots every collection (documents sorted by id, index fields
//! sorted) plus the id allocator, superseding the WAL.

use crate::cluster::{Placement, StoreCluster};
use crate::document::{DocId, Document};
use crate::filter::Filter;
use athena_persist::{from_payload, record::kind, to_payload, Journal, PersistConfig, Recovery};
use athena_telemetry::Telemetry;
use athena_types::{AthenaError, Result, VirtualClock};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// The attached journal plus the virtual clock that stamps its records.
#[derive(Debug)]
pub(crate) struct StorePersist {
    pub(crate) journal: Journal,
    pub(crate) clock: VirtualClock,
}

/// What [`StoreCluster::attach_persistence`] recovered from disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreRecoveryReport {
    /// A checkpoint snapshot was loaded and applied.
    pub checkpoint_applied: bool,
    /// Documents restored from the checkpoint snapshot.
    docs_restored: u64,
    /// WAL tail operations replayed after the checkpoint.
    pub ops_replayed: u64,
    /// Torn/corrupt WAL tails truncated during recovery.
    pub tails_truncated: u64,
    /// Corrupt checkpoint files skipped during recovery.
    pub corrupt_checkpoints_skipped: u64,
}

/// One journaled logical operation on collection `coll` (a WAL record of
/// kind `STORE_OP`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StoreOp {
    /// `doc` stored under its id.
    Insert { coll: String, doc: Arc<Document> },
    /// `changes`, `(field, value)` pairs, set in order on the documents
    /// `ids`.
    Update {
        coll: String,
        ids: Vec<DocId>,
        changes: Vec<(String, Value)>,
    },
    /// The documents `ids` dropped.
    Delete { coll: String, ids: Vec<DocId> },
    /// A secondary index registered over `fields`, in key order.
    Index { coll: String, fields: Vec<String> },
}

/// A checkpoint: the id the next insert gets and every collection,
/// sorted by name — the cluster's canonical logical contents, which
/// [`StoreCluster::contents`] renders.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoreSnapshot {
    pub next_id: u64,
    pub collections: Vec<CollectionSnapshot>,
}

/// One collection of a [`StoreSnapshot`]: its name, the field lists of
/// its secondary indexes (sorted) and its documents (sorted by id).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollectionSnapshot {
    pub name: String,
    pub indexes: Vec<Vec<String>>,
    pub docs: Vec<Arc<Document>>,
}

impl StoreCluster {
    /// Opens (or creates) a journal under `config.dir`, recovers whatever
    /// state it holds into this cluster, and attaches the journal so every
    /// subsequent insert/update/delete/index operation appends a WAL
    /// record. Records are stamped from `clock`; `persist/store_*` metrics
    /// flow into `tel`.
    ///
    /// Attach to a freshly built cluster: recovered documents are applied
    /// through the normal sharding path, so a recovered cluster's logical
    /// contents are byte-identical to the pre-crash cluster's.
    ///
    /// # Errors
    ///
    /// Returns [`AthenaError::Persist`] if the journal cannot be opened or
    /// a recovered record cannot be decoded (a record of another kind than
    /// a store operation, as a controller's journal holds, included).
    /// Torn/corrupt *tails* are not errors — they are truncated, counted,
    /// and recovery continues.
    pub fn attach_persistence(
        &self,
        config: PersistConfig,
        clock: VirtualClock,
        tel: &Telemetry,
    ) -> Result<StoreRecoveryReport> {
        let (journal, recovery) = Journal::open_with_telemetry(config, tel, "store")?;
        let report = self.apply_recovery(&recovery)?;
        *self.persist.lock() = Some(StorePersist { journal, clock });
        self.persist_on.store(true, Ordering::Relaxed);
        Ok(report)
    }

    /// `true` once [`StoreCluster::attach_persistence`] has run.
    pub fn persistence_attached(&self) -> bool {
        self.persist_on.load(Ordering::Relaxed)
    }

    /// Takes a point-in-time checkpoint of every collection (documents,
    /// indexes, id allocator) and supersedes the WAL with it. Returns the
    /// WAL sequence number the checkpoint covers.
    ///
    /// # Errors
    ///
    /// Returns [`AthenaError::Persist`] when no journal is attached or the
    /// snapshot cannot be written.
    pub fn checkpoint(&self) -> Result<u64> {
        let payload = to_payload(&self.snapshot())?;
        let mut guard = self.persist.lock();
        let p = guard
            .as_mut()
            .ok_or_else(|| AthenaError::Persist("no journal attached".into()))?;
        let now = p.clock.now();
        p.journal.checkpoint(&payload, now)
    }

    /// Appends the logical operation `op()` builds to the attached
    /// journal; without persistence it is never built.
    pub(crate) fn journal(&self, op: impl FnOnce() -> StoreOp) -> Result<()> {
        if !self.persist_on.load(Ordering::Relaxed) {
            return Ok(());
        }
        let payload = to_payload(&op())?;
        let mut guard = self.persist.lock();
        if let Some(p) = guard.as_mut() {
            let now = p.clock.now();
            p.journal.append(kind::STORE_OP, &payload, now)?;
        }
        Ok(())
    }

    /// The cluster's canonical logical contents as one JSON string:
    /// collections sorted by name, documents sorted by id, index fields
    /// sorted, replicas deduplicated. The dump is placement-independent —
    /// a document handed off to a stand-in node during an outage reads the
    /// same as one on its preferred primary — so the same logical state
    /// always renders to the same bytes, before and after crash recovery.
    pub fn contents(&self) -> String {
        serde_json::to_string(&self.snapshot()).unwrap_or_default()
    }

    /// A canonical snapshot of the whole cluster's logical contents.
    ///
    /// Documents are gathered from every up node with replica duplicates
    /// dropped (not the healthy primary-only read): writes handed off
    /// during an outage stay in the checkpoint even after the preferred
    /// primary comes back without them.
    fn snapshot(&self) -> StoreSnapshot {
        let collections = self
            .collection_objects()
            .into_iter()
            .map(|(name, coll)| {
                let docs = self.live_docs(&coll, &Filter::All);
                // Every shard holds every index: the first one's list.
                let indexes = match coll.shards.first() {
                    Some(coll) => coll.read().index_fields(),
                    None => Vec::new(),
                };
                CollectionSnapshot {
                    name,
                    indexes,
                    docs,
                }
            })
            .collect();
        StoreSnapshot {
            next_id: self.next_id.load(Ordering::Relaxed),
            collections,
        }
    }

    fn apply_recovery(&self, recovery: &Recovery) -> Result<StoreRecoveryReport> {
        let mut report = StoreRecoveryReport {
            tails_truncated: recovery.stats.tails_truncated,
            corrupt_checkpoints_skipped: recovery.corrupt_checkpoints_skipped,
            ..StoreRecoveryReport::default()
        };
        if let Some(ck) = &recovery.checkpoint {
            report.docs_restored = self.apply_snapshot(from_payload(&ck.payload)?);
            report.checkpoint_applied = true;
        }
        for rec in &recovery.tail {
            if rec.kind != kind::STORE_OP {
                return Err(AthenaError::Persist(format!(
                    "unexpected record kind {} in store journal",
                    rec.kind
                )));
            }
            self.apply_op(from_payload(&rec.payload)?);
            report.ops_replayed += 1;
        }
        Ok(report)
    }

    /// Restores a checkpoint; returns the documents it held.
    fn apply_snapshot(&self, snapshot: StoreSnapshot) -> u64 {
        let mut restored = 0u64;
        for coll in snapshot.collections {
            for fields in &coll.indexes {
                self.replay_index(&coll.name, fields);
            }
            let placements: Vec<Placement> =
                coll.docs.into_iter().map(|d| self.replayed(d)).collect();
            self.place_all(&self.collection_object(&coll.name), placements.iter());
            restored += placements.len() as u64;
        }
        // Restore the allocator last: it must win over per-insert bumps.
        self.next_id.fetch_max(snapshot.next_id, Ordering::Relaxed);
        restored
    }

    fn apply_op(&self, op: StoreOp) {
        match op {
            StoreOp::Insert { coll, doc } => {
                let placement = self.replayed(doc);
                self.place_all(&self.collection_object(&coll), std::iter::once(&placement));
            }
            StoreOp::Update { coll, ids, changes } => {
                self.collection_object(&coll)
                    .update_ids(&self.nodes, &ids, &changes)
            }
            StoreOp::Delete { coll, ids } => self.collection_object(&coll).delete_everywhere(&ids),
            StoreOp::Index { coll, fields } => self.replay_index(&coll, &fields),
        }
    }

    /// A recovered index, built on every shard of `coll` (not journaled
    /// again). An empty field list creates nothing.
    fn replay_index(&self, coll: &str, fields: &[String]) {
        if !fields.is_empty() {
            self.collection_object(coll).register_index(fields);
        }
    }

    /// A recovered document bound for its nodes — replayed through the
    /// normal placement step (all nodes are up during recovery, so its
    /// targets are the preferred replica set) and not journaled again;
    /// the id allocator moves past its id.
    fn replayed(&self, doc: Arc<Document>) -> Placement {
        self.next_id.fetch_max(doc.id.0 + 1, Ordering::Relaxed);
        self.placement(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc;
    use crate::filter::Filter;
    use athena_types::{SimDuration, SimTime};
    use std::path::PathBuf;
    use std::sync::atomic::AtomicU64;

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn test_dir() -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "athena-store-persist-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// Sorted canonical contents of a collection, for byte-level diffing.
    fn contents(cluster: &StoreCluster, coll: &str) -> String {
        let docs = cluster.collection(coll).all();
        assert!(docs.windows(2).all(|w| w[0].id < w[1].id));
        let docs: Vec<&Document> = docs.iter().map(|d| &**d).collect();
        serde_json::to_string(&docs).unwrap()
    }

    /// `(full scans, index-served lookups)` over every shard of `coll`.
    fn scan_stats(cluster: &StoreCluster, coll: &str) -> (u64, u64) {
        let coll = cluster.collection(coll);
        (0..cluster.node_count())
            .map(|i| coll.read_shard(i, |c| c.scan_stats()))
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    }

    /// The field lists of `coll`'s indexes, sorted.
    fn indexed_fields(cluster: &StoreCluster, coll: &str) -> Vec<Vec<String>> {
        cluster.collection(coll).read_shard(0, |c| c.index_fields())
    }

    /// Counts `filter` on `coll`, asserting every shard served it from an
    /// index.
    fn indexed_count(cluster: &StoreCluster, coll: &str, filter: &Filter) -> usize {
        let (scans, hits) = scan_stats(cluster, coll);
        let n = cluster.collection(coll).count(filter);
        let shards = cluster.node_count() as u64;
        assert_eq!(
            scan_stats(cluster, coll),
            (scans, hits + shards),
            "{filter}"
        );
        n
    }

    #[test]
    fn wal_replay_restores_identical_contents() {
        let dir = test_dir();
        let tel = Telemetry::new();
        let clock = VirtualClock::new();
        let original = StoreCluster::new(3, 2);
        original
            .attach_persistence(PersistConfig::new(&dir), clock.clone(), &tel)
            .unwrap();
        let coll = original.collection("features");
        coll.create_index(["sw", "hot"]);
        for i in 0..40i64 {
            clock.advance_by(SimDuration::from_millis(10));
            coll.insert(doc! { "sw" => i % 5, "v" => i }).unwrap();
        }
        // The update moves eight documents from `(2, missing)` to `(2, true)`.
        coll.update(&Filter::eq("sw", 2), &[("hot".into(), Value::from(true))]);
        coll.delete(&Filter::eq("sw", 4));
        let before = contents(&original, "features");
        drop(original); // crash

        let recovered = StoreCluster::new(3, 2);
        let report = recovered
            .attach_persistence(
                PersistConfig::new(&dir),
                VirtualClock::new(),
                &Telemetry::off(),
            )
            .unwrap();
        assert!(!report.checkpoint_applied);
        assert!(report.ops_replayed >= 42);
        assert_eq!(contents(&recovered, "features"), before);
        assert_eq!(indexed_fields(&recovered, "features"), [["sw", "hot"]]);
        // The allocator continues, so new inserts do not collide.
        let id = recovered
            .collection("features")
            .insert(doc! { "sw" => 9 })
            .unwrap();
        assert!(id.0 > 40);
        // The recovered index is live, over its prefix and its whole key.
        let hot = Filter::and(vec![Filter::eq("hot", true), Filter::eq("sw", 2)]);
        assert_eq!(indexed_count(&recovered, "features", &hot), 8);
        assert_eq!(
            indexed_count(&recovered, "features", &Filter::eq("sw", 2)),
            8
        );
        assert_eq!(
            indexed_count(&recovered, "features", &Filter::eq("sw", 4)),
            0
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_plus_tail_restores_identical_contents() {
        let dir = test_dir();
        let clock = VirtualClock::new();
        let original = StoreCluster::new(4, 2);
        original
            .attach_persistence(PersistConfig::new(&dir), clock.clone(), &Telemetry::off())
            .unwrap();
        let coll = original.collection("c");
        coll.create_index(["j", "i"]);
        for i in 0..30i64 {
            coll.insert(doc! { "i" => i, "j" => i % 3 }).unwrap();
        }
        clock.advance_to(SimTime::from_secs(10));
        original.checkpoint().unwrap();
        for i in 30..50i64 {
            coll.insert(doc! { "i" => i, "j" => i % 3 }).unwrap();
        }
        let before = contents(&original, "c");
        drop(original);

        let recovered = StoreCluster::new(4, 2);
        let report = recovered
            .attach_persistence(
                PersistConfig::new(&dir),
                VirtualClock::new(),
                &Telemetry::off(),
            )
            .unwrap();
        assert!(report.checkpoint_applied);
        assert_eq!(report.docs_restored, 30);
        assert_eq!(report.ops_replayed, 20);
        assert_eq!(contents(&recovered, "c"), before);
        // The checkpoint carried the index: live over the snapshot's
        // documents and the tail's.
        assert_eq!(indexed_fields(&recovered, "c"), [["j", "i"]]);
        let one = |i: i64| Filter::and(vec![Filter::eq("i", i), Filter::eq("j", i % 3)]);
        assert_eq!(indexed_count(&recovered, "c", &one(7)), 1);
        assert_eq!(indexed_count(&recovered, "c", &one(31)), 1);
        assert_eq!(indexed_count(&recovered, "c", &Filter::eq("j", 1)), 17);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_index_registered_after_its_documents_recovers_from_wal_and_checkpoint() {
        for checkpoint in [false, true] {
            let dir = test_dir();
            let original = StoreCluster::new(3, 2);
            original
                .attach_persistence(
                    PersistConfig::new(&dir),
                    VirtualClock::new(),
                    &Telemetry::off(),
                )
                .unwrap();
            let coll = original.collection("c");
            for i in 0..30i64 {
                coll.insert(doc! { "k" => i % 3, "v" => i }).unwrap();
            }
            coll.create_index("k");
            if checkpoint {
                original.checkpoint().unwrap();
            }
            for i in 30..45i64 {
                coll.insert(doc! { "k" => i % 3, "v" => i }).unwrap();
            }
            // A second index after the checkpoint: the tail carries it.
            coll.create_index(["v", "k"]);
            let before = contents(&original, "c");
            drop(original);

            let recovered = StoreCluster::new(3, 2);
            let report = recovered
                .attach_persistence(
                    PersistConfig::new(&dir),
                    VirtualClock::new(),
                    &Telemetry::off(),
                )
                .unwrap();
            assert_eq!(report.checkpoint_applied, checkpoint);
            assert_eq!(contents(&recovered, "c"), before);
            assert_eq!(indexed_fields(&recovered, "c"), [vec!["k"], vec!["v", "k"]]);
            assert_eq!(indexed_count(&recovered, "c", &Filter::eq("k", 1)), 15);
            assert_eq!(indexed_count(&recovered, "c", &Filter::eq("v", 7)), 1);
            // Every shard indexes every document it holds.
            let c = recovered.collection("c");
            for node in 0..recovered.node_count() {
                let (len, entries) = c.read_shard(node, |s| (s.len(), s.index_entries(&["k"])));
                assert_eq!(entries, Some(len), "checkpoint={checkpoint} node {node}");
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn recovery_after_outage_writes_matches_survivor_contents() {
        // Writes during a node outage land on ring stand-ins; the WAL
        // records the logical operations, so a recovered (healthy) cluster
        // holds the same logical documents.
        let dir = test_dir();
        let original = StoreCluster::new(3, 2);
        original
            .attach_persistence(
                PersistConfig::new(&dir),
                VirtualClock::new(),
                &Telemetry::off(),
            )
            .unwrap();
        let coll = original.collection("c");
        for i in 0..10i64 {
            coll.insert(doc! { "i" => i }).unwrap();
        }
        original.set_node_up(1, false);
        for i in 10..25i64 {
            coll.insert(doc! { "i" => i }).unwrap();
        }
        // Capture the logical contents via the degraded read (which
        // consults every up node, so handed-off copies are included).
        let before = contents(&original, "c");
        drop(original);

        let recovered = StoreCluster::new(3, 2);
        recovered
            .attach_persistence(
                PersistConfig::new(&dir),
                VirtualClock::new(),
                &Telemetry::off(),
            )
            .unwrap();
        // The recovered cluster is healthy and holds every document on its
        // preferred primary — recovery even heals the handed-off placement.
        assert_eq!(contents(&recovered, "c"), before);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_second_create_index_registers_and_journals_nothing() {
        let wal_records =
            |tel: &Telemetry| tel.metrics().counter("persist", "store_wal_records").get();
        for fields in [vec!["k"], vec!["k", "m"]] {
            let owned = || -> Vec<String> { fields.iter().map(|f| f.to_string()).collect() };
            let dir = test_dir();
            let tel = Telemetry::new();
            let original = StoreCluster::new(3, 2);
            original
                .attach_persistence(PersistConfig::new(&dir), VirtualClock::new(), &tel)
                .unwrap();
            let coll = original.collection("c");
            coll.create_index(fields.as_slice());
            coll.create_index(fields.as_slice());
            assert_eq!(indexed_fields(&original, "c"), [owned()]);
            assert_eq!(wal_records(&tel), 1);
            coll.insert(doc! { "k" => 1, "m" => 2 }).unwrap();
            original.checkpoint().unwrap();
            drop(original);

            // A deployment registers its index before it attaches the
            // journal, whose checkpoint lists the same index.
            let recovered = StoreCluster::new(3, 2);
            let coll = recovered.collection("c");
            coll.create_index(fields.as_slice());
            let tel = Telemetry::new();
            let report = recovered
                .attach_persistence(PersistConfig::new(&dir), VirtualClock::new(), &tel)
                .unwrap();
            assert!(report.checkpoint_applied);
            coll.create_index(fields.as_slice());
            assert_eq!(indexed_fields(&recovered, "c"), [owned()]);
            assert_eq!(wal_records(&tel), 0);
            assert_eq!(indexed_count(&recovered, "c", &Filter::eq("k", 1)), 1);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn checkpoint_without_journal_errors() {
        let cluster = StoreCluster::new(2, 1);
        assert!(!cluster.persistence_attached());
        let err = cluster.checkpoint().unwrap_err();
        assert!(err.to_string().contains("persist"));
    }

    #[test]
    fn persist_telemetry_surfaces_wal_and_checkpoint_metrics() {
        let dir = test_dir();
        let tel = Telemetry::new();
        let cluster = StoreCluster::new(3, 2);
        cluster
            .attach_persistence(PersistConfig::new(&dir), VirtualClock::new(), &tel)
            .unwrap();
        let coll = cluster.collection("c");
        for i in 0..12i64 {
            coll.insert(doc! { "i" => i }).unwrap();
        }
        cluster.checkpoint().unwrap();
        let m = tel.metrics();
        assert_eq!(m.counter("persist", "store_wal_records").get(), 12);
        assert!(m.counter("persist", "store_wal_bytes").get() > 0);
        assert_eq!(m.counter("persist", "store_checkpoints").get(), 1);
        assert_eq!(
            m.histogram("persist", "store_append_ns").snapshot().count,
            12
        );
        assert_eq!(
            m.histogram("persist", "store_checkpoint_bytes")
                .snapshot()
                .count,
            1
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
