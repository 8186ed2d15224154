//! Durability wiring: the cluster's write path appends WAL records and
//! checkpoints through an [`athena_persist::Journal`].
//!
//! The paper's prototype outsources this to MongoDB's journal; here the
//! cluster itself owns a journal under a configurable data directory.
//! Logical operations (insert/update/delete/create-index) are encoded as
//! canonical JSON — the serde shim's object map is BTreeMap-backed, so the
//! same operation always serializes to the same bytes — and replayed on
//! recovery against a fresh cluster, yielding byte-identical logical
//! contents. Checkpoints snapshot every collection (documents sorted by
//! id, index fields sorted) plus the id allocator, superseding the WAL.

use crate::cluster::StoreCluster;
use crate::document::{DocId, Document};
use crate::filter::Filter;
use athena_persist::{record::kind, Journal, PersistConfig, Recovery};
use athena_telemetry::Telemetry;
use athena_types::{AthenaError, Result, VirtualClock};
use serde::Serialize;
use serde_json::{Map, Value};
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
    pub docs_restored: u64,
    /// WAL tail operations replayed after the checkpoint.
    pub ops_replayed: u64,
    /// Torn/corrupt WAL tails truncated during recovery.
    pub tails_truncated: u64,
    /// Corrupt checkpoint files skipped during recovery.
    pub corrupt_checkpoints_skipped: u64,
}

/// Canonical JSON encodings of the logical store operations.
pub(crate) mod ops {
    use super::*;

    fn obj(pairs: Vec<(&str, Value)>) -> Value {
        let mut m = Map::new();
        for (k, v) in pairs {
            m.insert(k.to_owned(), v);
        }
        Value::Object(m)
    }

    fn id_array(ids: &[DocId]) -> Value {
        Value::Array(ids.iter().map(|id| Value::from(id.0)).collect())
    }

    pub(crate) fn insert(coll: &str, id: DocId, doc: &Document) -> Value {
        obj(vec![
            ("op", Value::from("insert")),
            ("coll", Value::from(coll)),
            ("id", Value::from(id.0)),
            ("fields", doc.fields.to_value()),
        ])
    }

    pub(crate) fn update(coll: &str, ids: &[DocId], changes: &[(String, Value)]) -> Value {
        let mut ch = Map::new();
        for (k, v) in changes {
            ch.insert(k.clone(), v.clone());
        }
        obj(vec![
            ("op", Value::from("update")),
            ("coll", Value::from(coll)),
            ("ids", id_array(ids)),
            ("changes", Value::Object(ch)),
        ])
    }

    pub(crate) fn delete(coll: &str, ids: &[DocId]) -> Value {
        obj(vec![
            ("op", Value::from("delete")),
            ("coll", Value::from(coll)),
            ("ids", id_array(ids)),
        ])
    }

    pub(crate) fn create_index(coll: &str, field: &str) -> Value {
        obj(vec![
            ("op", Value::from("index")),
            ("coll", Value::from(coll)),
            ("field", Value::from(field)),
        ])
    }
}

fn as_object(v: &Value) -> Result<&Map<String, Value>> {
    match v {
        Value::Object(m) => Ok(m),
        _ => Err(AthenaError::Persist("store op is not an object".into())),
    }
}

fn get_str<'a>(m: &'a Map<String, Value>, key: &str) -> Result<&'a str> {
    match m.get(key) {
        Some(Value::String(s)) => Ok(s),
        _ => Err(AthenaError::Persist(format!("store op misses `{key}`"))),
    }
}

fn get_u64(m: &Map<String, Value>, key: &str) -> Result<u64> {
    m.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| AthenaError::Persist(format!("store op misses `{key}`")))
}

fn get_ids(m: &Map<String, Value>, key: &str) -> Result<Vec<DocId>> {
    match m.get(key) {
        Some(Value::Array(a)) => a
            .iter()
            .map(|v| {
                v.as_u64()
                    .map(DocId)
                    .ok_or_else(|| AthenaError::Persist(format!("non-integer id in `{key}`")))
            })
            .collect(),
        _ => Err(AthenaError::Persist(format!("store op misses `{key}`"))),
    }
}

fn get_object(m: &Map<String, Value>, key: &str) -> Result<Map<String, Value>> {
    match m.get(key) {
        Some(Value::Object(o)) => Ok(o.clone()),
        _ => Err(AthenaError::Persist(format!("store op misses `{key}`"))),
    }
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
    /// a recovered record cannot be decoded. Torn/corrupt *tails* are not
    /// errors — they are truncated, counted, and recovery continues.
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
        let snapshot = self.build_snapshot();
        let payload = serde_json::to_vec(&snapshot)
            .map_err(|e| AthenaError::Persist(format!("encode snapshot: {e}")))?;
        let mut guard = self.persist.lock();
        let p = guard
            .as_mut()
            .ok_or_else(|| AthenaError::Persist("no journal attached".into()))?;
        let now = p.clock.now();
        p.journal.checkpoint(&payload, now)
    }

    /// Appends one logical-operation record to the attached journal.
    pub(crate) fn journal_store_op(&self, op: &Value) -> Result<()> {
        let payload = serde_json::to_vec(op)
            .map_err(|e| AthenaError::Persist(format!("encode store op: {e}")))?;
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
        serde_json::to_string(&self.build_snapshot()).unwrap_or_default()
    }

    /// A canonical snapshot of the whole cluster's logical contents:
    /// collections sorted by name, documents sorted by id, index fields
    /// sorted — the same state always snapshots to the same bytes.
    ///
    /// Documents are gathered from every up node with replica duplicates
    /// dropped (not the healthy primary-only read): writes handed off
    /// during an outage stay in the checkpoint even after the preferred
    /// primary comes back without them.
    fn build_snapshot(&self) -> Value {
        let mut names: Vec<String> = self
            .nodes
            .iter()
            .flat_map(|n| n.collection_names())
            .collect();
        names.sort();
        names.dedup();
        let mut colls = Vec::with_capacity(names.len());
        for name in names {
            let docs = self.live_docs(&name, &Filter::All);
            let mut fields: Vec<String> = self
                .nodes
                .iter()
                .flat_map(|n| n.read_collection(&name, |c| c.index_fields()))
                .collect();
            fields.sort();
            fields.dedup();
            let mut m = Map::new();
            m.insert("name".into(), Value::from(name));
            m.insert(
                "indexes".into(),
                Value::Array(fields.into_iter().map(Value::from).collect()),
            );
            m.insert(
                "docs".into(),
                Value::Array(
                    docs.into_iter()
                        .map(|d| {
                            let mut dm = Map::new();
                            dm.insert("id".into(), Value::from(d.id.0));
                            dm.insert("fields".into(), d.fields.to_value());
                            Value::Object(dm)
                        })
                        .collect(),
                ),
            );
            colls.push(Value::Object(m));
        }
        let mut root = Map::new();
        root.insert(
            "next_id".into(),
            Value::from(self.next_id.load(Ordering::Relaxed)),
        );
        root.insert("collections".into(), Value::Array(colls));
        Value::Object(root)
    }

    fn apply_recovery(&self, recovery: &Recovery) -> Result<StoreRecoveryReport> {
        let mut report = StoreRecoveryReport {
            tails_truncated: recovery.stats.tails_truncated,
            corrupt_checkpoints_skipped: recovery.corrupt_checkpoints_skipped,
            ..StoreRecoveryReport::default()
        };
        if let Some(ck) = &recovery.checkpoint {
            let snapshot: Value = serde_json::from_slice(&ck.payload)
                .map_err(|e| AthenaError::Persist(format!("decode snapshot: {e}")))?;
            report.docs_restored = self.apply_snapshot(&snapshot)?;
            report.checkpoint_applied = true;
        }
        for rec in &recovery.tail {
            if rec.kind != kind::STORE_OP {
                continue;
            }
            let op: Value = serde_json::from_slice(&rec.payload)
                .map_err(|e| AthenaError::Persist(format!("decode store op: {e}")))?;
            self.apply_op(&op)?;
            report.ops_replayed += 1;
        }
        Ok(report)
    }

    fn apply_snapshot(&self, snapshot: &Value) -> Result<u64> {
        let root = as_object(snapshot)?;
        let mut restored = 0u64;
        if let Some(Value::Array(colls)) = root.get("collections") {
            for coll in colls {
                let cm = as_object(coll)?;
                let name = get_str(cm, "name")?;
                if let Some(Value::Array(fields)) = cm.get("indexes") {
                    for f in fields {
                        if let Value::String(f) = f {
                            self.register_index(name, f);
                        }
                    }
                }
                if let Some(Value::Array(docs)) = cm.get("docs") {
                    for d in docs {
                        let dm = as_object(d)?;
                        let id = DocId(get_u64(dm, "id")?);
                        let fields = get_object(dm, "fields")?;
                        self.apply_insert(name, id, fields);
                        restored += 1;
                    }
                }
            }
        }
        // Restore the allocator last: it must win over per-insert bumps.
        self.next_id
            .fetch_max(get_u64(root, "next_id")?, Ordering::Relaxed);
        Ok(restored)
    }

    fn apply_op(&self, op: &Value) -> Result<()> {
        let m = as_object(op)?;
        match get_str(m, "op")? {
            "insert" => {
                let coll = get_str(m, "coll")?;
                let id = DocId(get_u64(m, "id")?);
                let fields = get_object(m, "fields")?;
                self.apply_insert(coll, id, fields);
                Ok(())
            }
            "update" => {
                let coll = get_str(m, "coll")?;
                let ids = get_ids(m, "ids")?;
                let changes: Vec<(String, Value)> = get_object(m, "changes")?.into_iter().collect();
                for id in ids {
                    for node in self.nodes.iter() {
                        node.with_collection(coll, |c| {
                            c.update_by_id(id, &changes);
                        });
                    }
                }
                Ok(())
            }
            "delete" => {
                let coll = get_str(m, "coll")?;
                self.delete_on_every_node(coll, &get_ids(m, "ids")?);
                Ok(())
            }
            "index" => {
                let coll = get_str(m, "coll")?;
                let field = get_str(m, "field")?;
                self.register_index(coll, field);
                Ok(())
            }
            other => Err(AthenaError::Persist(format!("unknown store op `{other}`"))),
        }
    }

    /// Replays one insert through the normal sharding path (all nodes are
    /// up during recovery, so placement is the preferred replica set),
    /// without journaling it again.
    fn apply_insert(&self, coll: &str, id: DocId, fields: Map<String, Value>) {
        let doc = Arc::new(Document {
            id,
            fields: fields.into(),
        });
        let indexed = self.indexed_fields(coll);
        let encoded_len = doc.encoded_len() as u64;
        let (targets, _) = self.write_targets(id);
        for node_idx in targets.iter() {
            self.write_replica(&self.nodes[node_idx], coll, &indexed, encoded_len, &doc);
        }
        self.next_id.fetch_max(id.0 + 1, Ordering::Relaxed);
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
        coll.create_index("sw");
        for i in 0..40i64 {
            clock.advance_by(SimDuration::from_millis(10));
            coll.insert(doc! { "sw" => i % 5, "v" => i }).unwrap();
        }
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
        // The allocator continues, so new inserts do not collide.
        let id = recovered
            .collection("features")
            .insert(doc! { "sw" => 9 })
            .unwrap();
        assert!(id.0 > 40);
        // The recovered index is live.
        assert_eq!(
            recovered.collection("features").count(&Filter::eq("sw", 2)),
            8
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
        for i in 0..30i64 {
            coll.insert(doc! { "i" => i }).unwrap();
        }
        clock.advance_to(SimTime::from_secs(10));
        original.checkpoint().unwrap();
        for i in 30..50i64 {
            coll.insert(doc! { "i" => i }).unwrap();
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
        std::fs::remove_dir_all(&dir).unwrap();
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
