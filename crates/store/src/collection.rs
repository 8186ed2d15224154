//! A single-node collection shard: documents, indexes, CRUD.

use crate::document::{DocId, Document};
use crate::filter::Filter;
use crate::index::SecondaryIndex;
use crate::query::FindOptions;
use serde_json::Value;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One shard of a collection, living on one store node.
///
/// The distributed [`crate::StoreCluster`] routes documents to shards and
/// merges their results; this type is the per-node storage engine:
/// a document map plus ordered secondary indexes. Document bodies are
/// held by handle: replicas of one insert share a body until a shard
/// mutates its copy (copy-on-write), and reads lend the same handles
/// out — a reader pays a reference count per hit, and keeps the body it
/// was handed whatever the shard does next.
///
/// Every read and every filtered write goes through
/// [`Collection::matching`], which holds the one planner rule.
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
    // Atomics: read paths take `&self` behind shared locks, and readers
    // run concurrently.
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
    pub fn find(&self, filter: &Filter, opts: &FindOptions) -> Vec<Arc<Document>> {
        let hits = self.matching(filter, |_| true);
        opts.apply(hits.into_iter().map(Arc::clone).collect())
    }

    /// Handles of the matching documents whose id `owns` accepts (the
    /// cluster asks each shard for the copies it is primary for). Nothing
    /// is cloned, and a document `owns` rejects is never looked at.
    ///
    /// The planner: among the filter's conjuncts (the filter itself, or
    /// the members of its `And`s) that are an `Eq` on an indexed field
    /// with an indexable value, take the one with the shortest posting
    /// list (the first of equals), walk that list and evaluate only the
    /// other conjuncts — a bare indexed `Eq` reads no document. With no
    /// such conjunct, scan.
    pub fn matching(&self, filter: &Filter, owns: impl Fn(DocId) -> bool) -> Vec<&Arc<Document>> {
        let mut residual = filter.conjuncts();
        let served = residual
            .iter()
            .enumerate()
            .filter_map(|(i, f)| match f {
                Filter::Eq(field, value) => {
                    let ids = self.indexes.get(field)?.lookup(value)?;
                    Some((i, ids))
                }
                _ => None,
            })
            .min_by_key(|(_, ids)| ids.len());
        let Some((i, ids)) = served else {
            self.scans.fetch_add(1, Ordering::Relaxed);
            let owned = self.docs.iter().filter(|(id, _)| owns(**id));
            return owned
                .map(|(_, d)| d)
                .filter(|d| filter.matches(d))
                .collect();
        };
        self.index_hits.fetch_add(1, Ordering::Relaxed);
        residual.swap_remove(i);
        ids.iter()
            .filter(|id| owns(**id))
            .filter_map(|id| self.docs.get(id))
            .filter(|d| residual.iter().all(|f| f.matches(d)))
            .collect()
    }

    /// Ids of matching documents.
    fn matching_ids(&self, filter: &Filter) -> Vec<DocId> {
        let hits = self.matching(filter, |_| true);
        hits.into_iter().map(|d| d.id).collect()
    }

    /// Counts matching documents.
    pub fn count(&self, filter: &Filter) -> usize {
        self.matching(filter, |_| true).len()
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

    /// Number of entries the index over `field` holds, if there is one.
    #[cfg(test)]
    pub(crate) fn index_entries(&self, field: &str) -> Option<usize> {
        self.indexes.get(field).map(SecondaryIndex::len)
    }

    /// Deletes matching documents. Returns how many were removed.
    pub fn delete(&mut self, filter: &Filter) -> usize {
        let ids = self.matching_ids(filter);
        self.delete_ids(&ids)
    }

    /// Deletes the document with the given id, maintaining indexes.
    /// Returns `true` if the document existed.
    pub fn delete_by_id(&mut self, id: DocId) -> bool {
        self.delete_ids(&[id]) == 1
    }

    /// Deletes the listed documents this shard holds, as one batch: the
    /// documents leave the map, then every index drops them in one pass
    /// per posting list they were on. Returns how many were removed.
    pub fn delete_ids(&mut self, ids: &[DocId]) -> usize {
        let removed: Vec<Arc<Document>> =
            ids.iter().filter_map(|id| self.docs.remove(id)).collect();
        if !removed.is_empty() {
            let gone: HashSet<DocId> = removed.iter().map(|d| d.id).collect();
            for (field, idx) in &mut self.indexes {
                idx.remove_all(removed.iter().filter_map(|d| d.get(field)), &gone);
            }
        }
        removed.len()
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

    /// Sorted ids of the documents `matching` lends for `filter`.
    fn ids(c: &Collection, filter: &Filter) -> Vec<u64> {
        let mut v: Vec<u64> = c
            .matching(filter, |_| true)
            .iter()
            .map(|d| d.id.0)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn index_accelerated_point_lookup_agrees_with_scan() {
        let mut c = filled();
        let scan = ids(&c, &Filter::eq("parity", 1));
        c.create_index("parity");
        assert_eq!(ids(&c, &Filter::eq("parity", 1)), scan);
        assert_eq!(scan, [2, 4, 6, 8, 10]);
    }

    #[test]
    fn matching_lends_the_shards_own_handles_to_the_owner_only() {
        let mut c = filled();
        c.create_index("parity");
        for filter in [Filter::eq("parity", 1), Filter::gte("i", 0)] {
            let hits = c.matching(&filter, |id| id.0 % 4 == 0);
            let mut got: Vec<u64> = hits.iter().map(|d| d.id.0).collect();
            got.sort_unstable();
            let want: Vec<u64> = ids(&c, &filter)
                .into_iter()
                .filter(|i| i % 4 == 0)
                .collect();
            assert_eq!(got, want, "{filter}");
            for d in hits {
                assert!(std::ptr::eq(&**d, c.get(d.id).unwrap()));
                assert_eq!(
                    Arc::strong_count(d),
                    1,
                    "a borrowed handle is not a new one"
                );
            }
        }
    }

    #[test]
    fn an_unindexable_value_is_scanned_for_not_dropped() {
        let mut c = Collection::new("t");
        c.insert_with_id(DocId(1), doc! { "k" => serde_json::json!([1, 2]) });
        c.insert_with_id(DocId(2), doc! { "k" => serde_json::json!({"a": 1}) });
        c.insert_with_id(DocId(3), doc! { "k" => 3 });
        let array = Filter::eq("k", serde_json::json!([1, 2]));
        let object = Filter::eq("k", serde_json::json!({"a": 1}));
        assert_eq!(ids(&c, &array), [1]);
        c.create_index("k");
        assert_eq!(c.index_entries("k"), Some(1));
        assert_eq!(ids(&c, &array), [1]);
        assert_eq!(ids(&c, &object), [2]);
        assert_eq!(c.count(&array), 1);
        assert_eq!(ids(&c, &Filter::eq("k", 3)), [3]);
        // The two unindexable probes after the index was built scanned;
        // the indexable one did not.
        assert_eq!(c.scan_stats(), (4, 1));
    }

    #[test]
    fn either_conjunct_order_is_index_served() {
        let mut c = filled();
        c.create_index("parity");
        let parity = || Filter::eq("parity", 1);
        let i = || Filter::eq("i", 3);
        for filter in [
            Filter::and(vec![parity(), i()]),
            Filter::and(vec![i(), parity()]),
            Filter::and(vec![i(), Filter::and(vec![Filter::gt("i", 0), parity()])]),
        ] {
            let (scans, hits) = c.scan_stats();
            assert_eq!(ids(&c, &filter), [4], "{filter}");
            assert_eq!(c.scan_stats(), (scans, hits + 1), "{filter}");
        }
        // The residual conjuncts still decide: nothing is both odd and 4.
        let none = Filter::and(vec![Filter::eq("i", 4), parity()]);
        assert!(ids(&c, &none).is_empty());
        // An `Or` over indexed fields is no conjunct: it scans.
        let (scans, hits) = c.scan_stats();
        assert_eq!(ids(&c, &Filter::or(vec![parity(), i()])).len(), 5);
        assert_eq!(c.scan_stats(), (scans + 1, hits));
    }

    #[test]
    fn the_shortest_posting_list_is_the_one_walked() {
        // `owns` sees exactly the candidates walked: the one document
        // under `i == 3`, not the five under `parity == 1`.
        let mut c = filled();
        c.create_index("parity");
        c.create_index("i");
        for filter in [
            Filter::and(vec![Filter::eq("parity", 1), Filter::eq("i", 3)]),
            Filter::and(vec![Filter::eq("i", 3), Filter::eq("parity", 1)]),
        ] {
            let asked = AtomicU64::new(0);
            let hits = c.matching(&filter, |_| {
                asked.fetch_add(1, Ordering::Relaxed);
                true
            });
            assert_eq!(hits.len(), 1);
            assert_eq!(asked.load(Ordering::Relaxed), 1, "{filter}");
        }
    }

    #[test]
    fn update_maintains_indexes() {
        let mut c = filled();
        c.create_index("parity");
        let n = c.update(&Filter::eq("i", 3), &[("parity".into(), 0.into())]);
        assert_eq!(n, 1);
        assert_eq!(c.count(&Filter::eq("parity", 0)), 6);
        assert_eq!(ids(&c, &Filter::eq("parity", 0)).len(), 6);
        assert_eq!(c.index_entries("parity"), Some(10));
    }

    #[test]
    fn delete_maintains_indexes() {
        let mut c = filled();
        c.create_index("parity");
        let n = c.delete(&Filter::eq("parity", 1));
        assert_eq!(n, 5);
        assert_eq!(c.len(), 5);
        assert!(ids(&c, &Filter::eq("parity", 1)).is_empty());
        assert_eq!(c.index_entries("parity"), Some(5));
    }

    #[test]
    fn a_batch_delete_leaves_no_stale_index_entry() {
        let mut c = filled();
        c.create_index("parity");
        c.create_index("i");
        // Ids 1..=6 go (one listed twice, one this shard never held).
        let victims: Vec<DocId> = [1, 2, 3, 3, 4, 5, 6, 77].map(DocId).to_vec();
        assert_eq!(c.delete_ids(&victims), 6);
        assert_eq!(c.len(), 4);
        assert_eq!(c.index_entries("parity"), Some(4));
        assert_eq!(c.index_entries("i"), Some(4));
        assert_eq!(ids(&c, &Filter::eq("parity", 0)), [7, 9]);
        assert_eq!(ids(&c, &Filter::eq("parity", 1)), [8, 10]);
        assert_eq!(c.count(&Filter::All), 4);
        assert!(c.delete_by_id(DocId(7)));
        assert!(!c.delete_by_id(DocId(7)));
        assert_eq!(c.index_entries("parity"), Some(3));
    }

    #[test]
    fn count_all_and_filtered() {
        let c = filled();
        assert_eq!(c.count(&Filter::All), 10);
        assert_eq!(c.count(&Filter::gt("i", 7)), 2);
    }

    #[test]
    fn indexed_equality_queries_never_scan() {
        let mut c = filled();
        c.create_index("parity");
        let (scans_before, _) = c.scan_stats();
        assert_eq!(ids(&c, &Filter::eq("parity", 0)).len(), 5);
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
        assert_eq!(ids(&c, &Filter::eq("i", 4)), [5]);
        assert_eq!(c.index_entries("i"), Some(10));
    }
}
