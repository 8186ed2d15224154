//! A single-node collection shard: documents, indexes, CRUD.

use crate::document::{DocId, Document};
use crate::filter::Filter;
use crate::index::SecondaryIndex;
use crate::query::FindOptions;
use serde_json::Value;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One shard of a collection, living on one store node.
///
/// The distributed [`crate::StoreCluster`] routes documents to shards and
/// merges their results; this type is the per-node storage engine:
/// a document map plus ordered secondary indexes. Document bodies are
/// held by handle: replicas of one insert share a body until a shard
/// mutates its copy (copy-on-write), and reads clone out.
///
/// # Examples
///
/// ```
/// use athena_store::{doc, Filter, FindOptions};
/// use athena_store::collection::Collection;
/// use athena_store::DocId;
///
/// let mut c = Collection::new("features");
/// c.create_index("sw");
/// c.insert_with_id(DocId(1), doc! { "sw" => 4 });
/// assert_eq!(c.find(&Filter::eq("sw", 4), &FindOptions::default()).len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct Collection {
    name: String,
    docs: HashMap<DocId, Arc<Document>>,
    indexes: HashMap<String, SecondaryIndex>,
    // Atomics: read paths take `&self` behind shared locks (and now run
    // concurrently on the parallel cluster-scan path).
    scans: AtomicU64,
    index_hits: AtomicU64,
}

impl Collection {
    /// Creates an empty collection shard.
    pub fn new(name: impl Into<String>) -> Self {
        Collection {
            name: name.into(),
            ..Collection::default()
        }
    }

    /// The collection name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of documents in this shard.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Returns `true` if the shard holds no documents.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Creates a secondary index over `field`, indexing existing
    /// documents. A no-op (and allocation-free) when the index exists.
    pub fn create_index(&mut self, field: &str) {
        if self.indexes.contains_key(field) {
            return;
        }
        let mut idx = SecondaryIndex::new(field);
        for (id, doc) in &self.docs {
            if let Some(v) = doc.get(field) {
                idx.insert(*id, v);
            }
        }
        self.indexes.insert(field.to_owned(), idx);
    }

    /// Inserts a document under a caller-assigned id (the cluster assigns
    /// ids so they are unique across shards).
    pub fn insert_with_id(&mut self, id: DocId, mut doc: Document) {
        doc.id = id;
        self.insert_shared(Arc::new(doc));
    }

    /// Stores a handle to an id-stamped document, indexing it. The
    /// cluster hands every replica shard a handle to the same body.
    pub(crate) fn insert_shared(&mut self, doc: Arc<Document>) {
        for (field, idx) in &mut self.indexes {
            if let Some(v) = doc.get(field) {
                idx.insert(doc.id, v);
            }
        }
        self.docs.insert(doc.id, doc);
    }

    /// Fetches a document by id.
    pub fn get(&self, id: DocId) -> Option<&Document> {
        self.docs.get(&id).map(|d| &**d)
    }

    /// Finds matching documents (unsorted; the cluster applies
    /// [`FindOptions`] after merging shards, but single-shard callers may
    /// pass options here).
    pub fn find(&self, filter: &Filter, opts: &FindOptions) -> Vec<Document> {
        opts.apply(self.find_unordered(filter))
    }

    /// Finds matching documents without sort/limit, using an index for
    /// point lookups when one exists.
    pub fn find_unordered(&self, filter: &Filter) -> Vec<Document> {
        self.matching(filter)
            .into_iter()
            .map(|d| Document::clone(d))
            .collect()
    }

    /// Handles of the matching documents (nothing cloned), index-served
    /// for point lookups.
    pub(crate) fn matching(&self, filter: &Filter) -> Vec<&Arc<Document>> {
        if let Some(ids) = self.index_candidates(filter) {
            return ids
                .into_iter()
                .filter_map(|id| self.docs.get(&id))
                .filter(|d| filter.matches(d))
                .collect();
        }
        self.scans.fetch_add(1, Ordering::Relaxed);
        self.docs.values().filter(|d| filter.matches(d)).collect()
    }

    /// Candidate ids from a secondary index, when `filter` is a
    /// single-field equality predicate over an indexed field. `None`
    /// means the caller must fall back to a full scan.
    fn index_candidates(&self, filter: &Filter) -> Option<Vec<DocId>> {
        let (field, value) = filter.point_lookup()?;
        let idx = self.indexes.get(field)?;
        self.index_hits.fetch_add(1, Ordering::Relaxed);
        Some(idx.lookup(value))
    }

    /// Ids of matching documents, index-served when possible.
    fn matching_ids(&self, filter: &Filter) -> Vec<DocId> {
        self.matching(filter).into_iter().map(|d| d.id).collect()
    }

    /// Counts matching documents (index-served for equality predicates).
    pub fn count(&self, filter: &Filter) -> usize {
        if matches!(filter, Filter::All) {
            return self.docs.len();
        }
        self.matching(filter).len()
    }

    /// Sets fields on every matching document. Returns how many changed.
    pub fn update(&mut self, filter: &Filter, changes: &[(String, Value)]) -> usize {
        let ids: Vec<DocId> = self.matching_ids(filter);
        for id in &ids {
            self.update_by_id(*id, changes);
        }
        ids.len()
    }

    /// Sets fields on the document with the given id, maintaining indexes.
    /// Returns `true` if the document existed.
    pub fn update_by_id(&mut self, id: DocId, changes: &[(String, Value)]) -> bool {
        let Some(doc) = self.docs.get_mut(&id) else {
            return false;
        };
        // Copy-on-write: a body still shared with other replica shards
        // (or a reader's handle) is copied once here, never aliased.
        let doc = Arc::make_mut(doc);
        // Maintain indexes: remove old values, apply, insert new.
        for (field, idx) in &mut self.indexes {
            if let Some(v) = doc.get(field) {
                idx.remove(id, v);
            }
        }
        for (k, v) in changes {
            doc.set(k.clone(), v.clone());
        }
        for (field, idx) in &mut self.indexes {
            if let Some(v) = doc.get(field) {
                idx.insert(id, v);
            }
        }
        true
    }

    /// Names of the secondary indexes, sorted.
    pub fn index_fields(&self) -> Vec<String> {
        let mut out: Vec<String> = self.indexes.keys().cloned().collect();
        out.sort();
        out
    }

    /// Deletes matching documents. Returns how many were removed.
    pub fn delete(&mut self, filter: &Filter) -> usize {
        let ids: Vec<DocId> = self.matching_ids(filter);
        for id in &ids {
            if let Some(doc) = self.docs.remove(id) {
                for (field, idx) in &mut self.indexes {
                    if let Some(v) = doc.get(field) {
                        idx.remove(*id, v);
                    }
                }
            }
        }
        ids.len()
    }

    /// Deletes the document with the given id, maintaining indexes.
    /// Returns `true` if the document existed.
    pub fn delete_by_id(&mut self, id: DocId) -> bool {
        match self.docs.remove(&id) {
            Some(doc) => {
                for (field, idx) in &mut self.indexes {
                    if let Some(v) = doc.get(field) {
                        idx.remove(id, v);
                    }
                }
                true
            }
            None => false,
        }
    }

    /// All documents in the shard (cloned).
    pub fn all(&self) -> Vec<Document> {
        self.docs.values().map(|d| Document::clone(d)).collect()
    }

    /// `(full scans, index-served lookups)` since creation.
    pub fn scan_stats(&self) -> (u64, u64) {
        (
            self.scans.load(Ordering::Relaxed),
            self.index_hits.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc;
    use crate::query::SortSpec;

    fn filled() -> Collection {
        let mut c = Collection::new("t");
        for i in 0..10i64 {
            c.insert_with_id(DocId(i as u64 + 1), doc! { "i" => i, "parity" => i % 2 });
        }
        c
    }

    #[test]
    fn insert_and_get() {
        let c = filled();
        assert_eq!(c.len(), 10);
        assert_eq!(c.get(DocId(3)).unwrap().get_i64("i"), Some(2));
        assert!(c.get(DocId(99)).is_none());
    }

    #[test]
    fn find_with_filter_and_options() {
        let c = filled();
        let out = c.find(
            &Filter::eq("parity", 0),
            &FindOptions::default().sort(SortSpec::desc("i")).limit(2),
        );
        let is: Vec<i64> = out.iter().filter_map(|d| d.get_i64("i")).collect();
        assert_eq!(is, vec![8, 6]);
    }

    #[test]
    fn index_accelerated_point_lookup_agrees_with_scan() {
        let mut c = filled();
        let scan = {
            let mut v: Vec<u64> = c
                .find_unordered(&Filter::eq("parity", 1))
                .iter()
                .map(|d| d.id.0)
                .collect();
            v.sort();
            v
        };
        c.create_index("parity");
        let mut idx: Vec<u64> = c
            .find_unordered(&Filter::eq("parity", 1))
            .iter()
            .map(|d| d.id.0)
            .collect();
        idx.sort();
        assert_eq!(scan, idx);
    }

    #[test]
    fn update_maintains_indexes() {
        let mut c = filled();
        c.create_index("parity");
        let n = c.update(&Filter::eq("i", 3), &[("parity".into(), 0.into())]);
        assert_eq!(n, 1);
        assert_eq!(c.count(&Filter::eq("parity", 0)), 6);
        assert_eq!(c.find_unordered(&Filter::eq("parity", 0)).len(), 6);
    }

    #[test]
    fn delete_maintains_indexes() {
        let mut c = filled();
        c.create_index("parity");
        let n = c.delete(&Filter::eq("parity", 1));
        assert_eq!(n, 5);
        assert_eq!(c.len(), 5);
        assert!(c.find_unordered(&Filter::eq("parity", 1)).is_empty());
    }

    #[test]
    fn count_all_shortcut() {
        let c = filled();
        assert_eq!(c.count(&Filter::All), 10);
        assert_eq!(c.count(&Filter::gt("i", 7)), 2);
    }

    #[test]
    fn indexed_equality_queries_never_scan() {
        let mut c = filled();
        c.create_index("parity");
        let (scans_before, _) = c.scan_stats();
        assert_eq!(c.find_unordered(&Filter::eq("parity", 0)).len(), 5);
        assert_eq!(c.count(&Filter::eq("parity", 1)), 5);
        assert_eq!(
            c.update(&Filter::eq("parity", 1), &[("seen".into(), 1.into())]),
            5
        );
        assert_eq!(c.delete(&Filter::eq("parity", 0)), 5);
        let (scans, hits) = c.scan_stats();
        assert_eq!(scans, scans_before, "indexed equality must not scan");
        assert_eq!(hits, 4, "all four operations were index-served");
        // Un-indexed predicates still scan — and are counted.
        assert_eq!(c.count(&Filter::gt("i", 100)), 0);
        assert_eq!(c.scan_stats().0, scans_before + 1);
    }

    #[test]
    fn create_index_twice_is_idempotent() {
        let mut c = filled();
        c.create_index("i");
        c.create_index("i");
        assert_eq!(c.find_unordered(&Filter::eq("i", 4)).len(), 1);
    }
}
