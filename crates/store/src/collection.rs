//! A single-node collection shard: documents, indexes, CRUD.

use crate::document::{DocId, Document};
use crate::filter::Filter;
use crate::index::{self, SecondaryIndex};
use crate::query::FindOptions;
use serde_json::Value;
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One shard of a collection, living on one store node.
///
/// The distributed [`crate::StoreCluster`] routes documents to shards and
/// merges their results; this type is the per-node storage engine:
/// an id-ordered document map plus ordered secondary indexes. The
/// cluster stamps ids in increasing order, so an insert lands at the
/// map's right edge, and a scan walks the shard in id order. Document
/// bodies are
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
/// c.create_index(&["sw"]);
/// c.insert_with_id(DocId(1), doc! { "sw" => 4 });
/// assert_eq!(c.find(&Filter::eq("sw", 4), &FindOptions::default()).len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct Collection {
    name: String,
    docs: BTreeMap<DocId, Arc<Document>>,
    /// In creation order.
    indexes: Vec<SecondaryIndex>,
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

    /// Creates a secondary index over `fields` (in key order), indexing
    /// existing documents. Returns `false`, and does nothing (allocating
    /// nothing), when the index exists or `fields` is empty.
    pub fn create_index(&mut self, fields: &[impl AsRef<str>]) -> bool {
        if fields.is_empty() || self.index(fields).is_some() {
            return false;
        }
        let fields: Vec<String> = fields.iter().map(|f| f.as_ref().to_owned()).collect();
        let mut idx = SecondaryIndex::new(fields);
        idx.insert_all(self.docs.values().map(|d| &**d));
        self.indexes.push(idx);
        true
    }

    /// The index over exactly `fields`, in that order.
    fn index(&self, fields: &[impl AsRef<str>]) -> Option<&SecondaryIndex> {
        let wanted = || fields.iter().map(AsRef::as_ref);
        self.indexes
            .iter()
            .find(|idx| idx.fields().iter().map(String::as_str).eq(wanted()))
    }

    /// Inserts a document under a caller-assigned id (the cluster assigns
    /// ids so they are unique across shards).
    pub fn insert_with_id(&mut self, id: DocId, mut doc: Document) {
        doc.id = id;
        self.insert_all(std::iter::once(&Arc::new(doc)));
    }

    /// Stores handles to id-stamped documents, indexing them: each index
    /// is probed once per run of consecutive documents that share its
    /// key. The cluster hands every replica shard a handle to the same
    /// body.
    pub(crate) fn insert_all<'d>(
        &mut self,
        handles: impl Iterator<Item = &'d Arc<Document>> + Clone,
    ) {
        for idx in &mut self.indexes {
            idx.insert_all(handles.clone().map(|d| &**d));
        }
        for doc in handles {
            self.docs.insert(doc.id, Arc::clone(doc));
        }
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
    /// The planner: the filter's conjuncts are the filter itself, or the
    /// members of its `And`s. For each index, take the longest leading
    /// run of its fields that each have an `Eq` conjunct with an
    /// indexable value (the first such conjunct per field): the whole key
    /// is one posting list, a shorter run a range of them. Walk the
    /// candidate with the fewest postings (the first index of equals) and
    /// evaluate only the conjuncts it did not consume — an `Eq` on every
    /// field of an index reads only the documents it returns. With no
    /// run on any index, scan.
    pub fn matching(&self, filter: &Filter, owns: impl Fn(DocId) -> bool) -> Vec<&Arc<Document>> {
        let conjuncts = filter.conjuncts();
        // The conjunct that pins `field` to an indexable value.
        let pin = |field: &String| {
            conjuncts.iter().copied().find_map(|c| match c {
                Filter::Eq(f, v) if f == field && index::indexable(v) => Some((c, v)),
                _ => None,
            })
        };
        let served = self
            .indexes
            .iter()
            .filter_map(|idx| {
                let postings = idx.lookup(idx.fields().iter().map_while(pin).map(|(_, v)| v))?;
                let candidates: usize = postings.clone().map(<[DocId]>::len).sum();
                Some((idx, postings, candidates))
            })
            .min_by_key(|(_, _, candidates)| *candidates);
        let Some((idx, postings, _)) = served else {
            self.scans.fetch_add(1, Ordering::Relaxed);
            let owned = self.docs.iter().filter(|(id, _)| owns(**id));
            return owned
                .map(|(_, d)| d)
                .filter(|d| filter.matches(d))
                .collect();
        };
        self.index_hits.fetch_add(1, Ordering::Relaxed);
        let consumed = || {
            let run = idx.fields().iter().take(postings.pinned());
            run.filter_map(pin).map(|(c, _)| c)
        };
        let residual: Vec<&Filter> = conjuncts
            .iter()
            .copied()
            .filter(|c| !consumed().any(|used| std::ptr::eq(used, *c)))
            .collect();
        postings
            .flatten()
            .filter(|id| owns(**id))
            .filter_map(|id| self.docs.get(id))
            .filter(|d| residual.iter().all(|f| f.matches(d)))
            .collect()
    }

    /// Counts matching documents.
    pub fn count(&self, filter: &Filter) -> usize {
        self.matching(filter, |_| true).len()
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
        // Maintain indexes: remove the old key, apply, insert the new.
        for idx in &mut self.indexes {
            idx.remove(doc);
        }
        for (k, v) in changes {
            doc.set(k.clone(), v.clone());
        }
        for idx in &mut self.indexes {
            idx.insert(doc);
        }
        true
    }

    /// The field lists of the secondary indexes, sorted.
    pub fn index_fields(&self) -> Vec<Vec<String>> {
        let mut out: Vec<Vec<String>> = self.indexes.iter().map(|i| i.fields().to_vec()).collect();
        out.sort();
        out
    }

    /// Number of entries the index over `fields` holds, if there is one.
    pub fn index_entries(&self, fields: &[impl AsRef<str>]) -> Option<usize> {
        self.index(fields).map(SecondaryIndex::len)
    }

    /// Deletes the listed documents this shard holds, as one batch: the
    /// documents leave the map, then every index drops them in one pass
    /// per posting list they were on. Returns how many were removed.
    pub fn delete_ids(&mut self, ids: &[DocId]) -> usize {
        let removed: Vec<Arc<Document>> =
            ids.iter().filter_map(|id| self.docs.remove(id)).collect();
        if !removed.is_empty() {
            let gone: HashSet<DocId> = removed.iter().map(|d| d.id).collect();
            for idx in &mut self.indexes {
                idx.remove_all(removed.iter().map(|d| &**d), &gone);
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
        c.create_index(&["parity"]);
        assert_eq!(ids(&c, &Filter::eq("parity", 1)), scan);
        assert_eq!(scan, [2, 4, 6, 8, 10]);
    }

    #[test]
    fn matching_lends_the_shards_own_handles_to_the_owner_only() {
        let mut c = filled();
        c.create_index(&["parity"]);
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
        c.create_index(&["k"]);
        assert_eq!(c.index_entries(&["k"]), Some(1));
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
        c.create_index(&["parity"]);
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
        c.create_index(&["parity"]);
        c.create_index(&["i"]);
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

        // The feature collection's one `(message_type, switch)` index:
        // 40 `FLOW_STATS` and 20 `PACKET_IN` documents over four switches.
        let mut c = Collection::new("features");
        for i in 0..60u64 {
            let kind = if i % 3 == 0 {
                "PACKET_IN"
            } else {
                "FLOW_STATS"
            };
            c.insert_with_id(
                DocId(i + 1),
                doc! { "message_type" => kind, "switch" => i % 4 },
            );
        }
        c.create_index(&["message_type", "switch"]);
        // `(documents returned, documents whose ownership was asked)`.
        let walked = |filter: &Filter| {
            let asked = AtomicU64::new(0);
            let hits = c.matching(filter, |_| {
                asked.fetch_add(1, Ordering::Relaxed);
                true
            });
            (hits.len() as u64, asked.load(Ordering::Relaxed))
        };
        let kind = || Filter::eq("message_type", "FLOW_STATS");
        let switch = || Filter::eq("switch", 2);
        // The whole key: only the documents returned are read.
        for filter in [
            Filter::and(vec![kind(), switch()]),
            Filter::and(vec![switch(), kind()]),
        ] {
            assert_eq!(walked(&filter), (10, 10), "{filter}");
        }
        // The `message_type` prefix: every `FLOW_STATS` document, once.
        assert_eq!(walked(&kind()), (40, 40));
        // `switch` leads no index: a scan.
        let (scans, hits) = c.scan_stats();
        assert_eq!(walked(&switch()).0, 15);
        assert_eq!(c.scan_stats(), (scans + 1, hits));
    }

    /// Ids of the documents matching `filter`, as `matching` lends them.
    fn hit_ids(c: &Collection, filter: &Filter) -> Vec<DocId> {
        c.matching(filter, |_| true).iter().map(|d| d.id).collect()
    }

    #[test]
    fn update_maintains_indexes() {
        let mut c = filled();
        c.create_index(&["parity"]);
        assert!(c.update_by_id(DocId(4), &[("parity".into(), 0.into())]));
        assert_eq!(c.count(&Filter::eq("parity", 0)), 6);
        assert_eq!(ids(&c, &Filter::eq("parity", 0)).len(), 6);
        assert_eq!(c.index_entries(&["parity"]), Some(10));
    }

    #[test]
    fn delete_maintains_indexes() {
        let mut c = filled();
        c.create_index(&["parity"]);
        let odd = hit_ids(&c, &Filter::eq("parity", 1));
        assert_eq!(c.delete_ids(&odd), 5);
        assert_eq!(c.len(), 5);
        assert!(ids(&c, &Filter::eq("parity", 1)).is_empty());
        assert_eq!(c.index_entries(&["parity"]), Some(5));
    }

    #[test]
    fn a_batch_delete_leaves_no_stale_index_entry() {
        let mut c = filled();
        c.create_index(&["parity"]);
        c.create_index(&["i"]);
        // Ids 1..=6 go (one listed twice, one this shard never held).
        let victims: Vec<DocId> = [1, 2, 3, 3, 4, 5, 6, 77].map(DocId).to_vec();
        assert_eq!(c.delete_ids(&victims), 6);
        assert_eq!(c.len(), 4);
        assert_eq!(c.index_entries(&["parity"]), Some(4));
        assert_eq!(c.index_entries(&["i"]), Some(4));
        assert_eq!(ids(&c, &Filter::eq("parity", 0)), [7, 9]);
        assert_eq!(ids(&c, &Filter::eq("parity", 1)), [8, 10]);
        assert_eq!(c.count(&Filter::All), 4);
        assert_eq!(c.delete_ids(&[DocId(7)]), 1);
        assert_eq!(c.delete_ids(&[DocId(7)]), 0);
        assert_eq!(c.index_entries(&["parity"]), Some(3));
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
        c.create_index(&["parity"]);
        let (scans_before, _) = c.scan_stats();
        assert_eq!(ids(&c, &Filter::eq("parity", 0)).len(), 5);
        assert_eq!(c.count(&Filter::eq("parity", 1)), 5);
        for id in hit_ids(&c, &Filter::eq("parity", 1)) {
            assert!(c.update_by_id(id, &[("seen".into(), 1.into())]));
        }
        let even = hit_ids(&c, &Filter::eq("parity", 0));
        assert_eq!(c.delete_ids(&even), 5);
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
        c.create_index(&["i"]);
        c.create_index(&["i"]);
        assert_eq!(ids(&c, &Filter::eq("i", 4)), [5]);
        assert_eq!(c.index_entries(&["i"]), Some(10));
    }
}
