//! Ordered secondary indexes over one field or an ordered list of fields.
//!
//! An index over `[f0, f1, …]` keys each document by the composite of its
//! values for those fields, in order, so the keys sharing a value for
//! `f0` sit next to each other in key order, and so on down the list: an
//! equality on any leading run of the fields is one range of keys (one
//! posting list when the run is the whole key) — MongoDB's compound-index
//! prefix rule. A one-field index is the arity-1 case.
//!
//! The posting lists live in a hash map, which is what every insert and
//! remove probes: on a composite key, one hash and one equality cost a
//! fraction of an ordered search's string compares. The keys are also
//! kept in a `BTreeSet`, touched only when a key appears or empties,
//! which is what a lookup ranges over.

use crate::document::{DocId, Document, Layout};
use athena_types::hash::WordHasher;
use serde_json::Value;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::btree_set::{BTreeSet, Range};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::Bound;
use std::sync::Arc;

/// One component of an index key: what a document holds under one of
/// the indexed fields.
///
/// Scalars order by the same type ranking as
/// [`crate::filter::compare_values`] so index scans and comparison
/// filters agree. The two markers, which only a field after the first
/// can hold, rank after every scalar: no equality probe ever lands on
/// them, yet the document stays reachable through the key's prefix.
#[derive(Debug, Clone)]
pub enum IndexKey {
    /// JSON null.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Any JSON number, compared as `f64`.
    Num(f64),
    /// JSON string.
    Str(Arc<str>),
    /// An array or an object.
    Unindexable,
    /// The document lacks the field.
    Missing,
}

/// An [`IndexKey`] borrowed from the value it indexes: what inserts,
/// removes and lookups search the map with, so only the first document
/// under a string key pays for an owned copy of it.
#[derive(Clone, Copy)]
enum KeyRef<'a> {
    Null,
    Bool(bool),
    Num(f64),
    Str(&'a str),
    Unindexable,
    Missing,
}

impl<'a> KeyRef<'a> {
    /// The key of a scalar; `None` for an array or an object.
    fn scalar(v: &'a Value) -> Option<Self> {
        match v {
            Value::Null => Some(KeyRef::Null),
            Value::Bool(b) => Some(KeyRef::Bool(*b)),
            Value::Number(_) => v.as_f64().map(KeyRef::Num),
            Value::String(s) => Some(KeyRef::Str(s)),
            _ => None,
        }
    }

    /// The component a field after the first contributes.
    fn component(v: Option<&'a Value>) -> Self {
        match v {
            None => KeyRef::Missing,
            Some(v) => KeyRef::scalar(v).unwrap_or(KeyRef::Unindexable),
        }
    }

    fn into_owned(self) -> IndexKey {
        match self {
            KeyRef::Null => IndexKey::Null,
            KeyRef::Bool(b) => IndexKey::Bool(b),
            KeyRef::Num(n) => IndexKey::Num(n),
            KeyRef::Str(s) => IndexKey::Str(s.into()),
            KeyRef::Unindexable => IndexKey::Unindexable,
            KeyRef::Missing => IndexKey::Missing,
        }
    }

    fn rank(self) -> u8 {
        match self {
            KeyRef::Null => 0,
            KeyRef::Bool(_) => 1,
            KeyRef::Num(_) => 2,
            KeyRef::Str(_) => 3,
            KeyRef::Unindexable => 4,
            KeyRef::Missing => 5,
        }
    }

    /// Hashes what [`KeyRef::cmp`] compares: equal keys hash equal
    /// (`-0.0` as `0.0`).
    fn hash<H: Hasher>(self, state: &mut H) {
        state.write_u8(self.rank());
        match self {
            KeyRef::Bool(b) => state.write_u8(u8::from(b)),
            KeyRef::Num(n) => state.write_u64(if n == 0.0 { 0 } else { n.to_bits() }),
            KeyRef::Str(s) => s.hash(state),
            _ => {}
        }
    }

    fn cmp(self, other: Self) -> Ordering {
        match (self, other) {
            (KeyRef::Bool(a), KeyRef::Bool(b)) => a.cmp(&b),
            (KeyRef::Num(a), KeyRef::Num(b)) => a.partial_cmp(&b).unwrap_or(Ordering::Equal),
            (KeyRef::Str(a), KeyRef::Str(b)) => a.cmp(b),
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

impl IndexKey {
    fn key_ref(&self) -> KeyRef<'_> {
        match self {
            IndexKey::Null => KeyRef::Null,
            IndexKey::Bool(b) => KeyRef::Bool(*b),
            IndexKey::Num(n) => KeyRef::Num(*n),
            IndexKey::Str(s) => KeyRef::Str(s),
            IndexKey::Unindexable => KeyRef::Unindexable,
            IndexKey::Missing => KeyRef::Missing,
        }
    }
}

impl PartialEq for IndexKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for IndexKey {}

impl PartialOrd for IndexKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IndexKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key_ref().cmp(other.key_ref())
    }
}

impl fmt::Display for IndexKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexKey::Null => write!(f, "null"),
            IndexKey::Bool(b) => write!(f, "{b}"),
            IndexKey::Num(n) => write!(f, "{n}"),
            IndexKey::Str(s) => write!(f, "{s:?}"),
            IndexKey::Unindexable => write!(f, "<unindexable>"),
            IndexKey::Missing => write!(f, "<missing>"),
        }
    }
}

/// `true` if an equality on `v` can be answered from an index: `v` is a
/// scalar. Arrays and objects are never index keys, so a document may
/// hold one without being listed under it.
pub fn indexable(v: &Value) -> bool {
    KeyRef::scalar(v).is_some()
}

/// Components a [`Probe`] holds on the stack: more than any index the
/// system declares, so a probe allocates nothing.
const INLINE: usize = 4;

/// A composite key borrowed from the values it indexes (a document's, or
/// a query's leading run of them): up to [`INLINE`] components in place;
/// a wider key moves them all to the heap, so they stay contiguous.
#[derive(Clone)]
struct Probe<'a> {
    head: [KeyRef<'a>; INLINE],
    wide: Vec<KeyRef<'a>>,
    len: usize,
}

impl<'a> Probe<'a> {
    fn new() -> Self {
        Probe {
            head: [KeyRef::Missing; INLINE],
            wide: Vec::new(),
            len: 0,
        }
    }

    fn push(&mut self, k: KeyRef<'a>) {
        match self.head.get_mut(self.len) {
            Some(slot) => *slot = k,
            None => {
                if self.wide.is_empty() {
                    self.wide.extend_from_slice(&self.head);
                }
                self.wide.push(k);
            }
        }
        self.len += 1;
    }

    /// The key `doc` is indexed under; `None` when its first field is
    /// missing or holds an array or an object (such a document is not
    /// indexed). Each field's first path component is found through
    /// `layout` (by position while documents share a name list); a dotted
    /// field then descends the rest of its path as [`Document::get`] does.
    fn of_doc(layout: &mut Layout, fields: &[String], doc: &'a Document) -> Option<Self> {
        let heads = fields
            .iter()
            .map(|f| f.split_once('.').map_or(f.as_str(), |(head, _)| head));
        let at = layout.positions(heads, &doc.fields);
        let values = doc.fields.values();
        let mut value = fields.iter().zip(at).map(|(f, at)| {
            let v = values.get((*at)?)?;
            match f.split_once('.') {
                None => Some(v),
                Some((_, rest)) => rest
                    .split('.')
                    .try_fold(v, |cur, part| cur.as_object()?.get(part)),
            }
        });
        let first = KeyRef::scalar(value.next()??)?;
        let mut probe = Probe::new();
        probe.push(first);
        for v in value {
            probe.push(KeyRef::component(v));
        }
        Some(probe)
    }

    /// A prefix of the values of an index's leading fields; `None` when
    /// there are none or one is not [`indexable`].
    fn of_values(values: impl IntoIterator<Item = &'a Value>) -> Option<Self> {
        let mut probe = Probe::new();
        for v in values {
            probe.push(KeyRef::scalar(v)?);
        }
        (probe.len > 0).then_some(probe)
    }

    fn slice(&self) -> &[KeyRef<'a>] {
        self.head.get(..self.len).unwrap_or(&self.wide)
    }

    fn owned_key(&self) -> Key {
        Key(self.slice().iter().map(|k| k.into_owned()).collect())
    }

    fn keyed(&self) -> &(dyn Keyed + 'a) {
        self
    }

    /// `true` if `key`'s leading components are this probe's.
    fn prefixes(&self, key: &dyn Keyed) -> bool {
        let (prefix, key) = (self.parts(), key.parts());
        prefix.len() <= key.len() && prefix.cmp_first(key, prefix.len()) == Ordering::Equal
    }
}

/// An owned composite key: one component per indexed field.
#[derive(Debug, Clone)]
struct Key(Box<[IndexKey]>);

/// A key's components, contiguous: an owned key's or a probe's.
#[derive(Clone, Copy)]
enum Parts<'a> {
    Owned(&'a [IndexKey]),
    Borrowed(&'a [KeyRef<'a>]),
}

impl<'a> Parts<'a> {
    fn len(self) -> usize {
        match self {
            Parts::Owned(p) => p.len(),
            Parts::Borrowed(p) => p.len(),
        }
    }

    /// The order of the first `n` components (both keys have as many).
    fn cmp_first(self, other: Parts<'_>, n: usize) -> Ordering {
        for i in 0..n {
            let (Some(a), Some(b)) = (self.get(i), other.get(i)) else {
                break;
            };
            match a.cmp(b) {
                Ordering::Equal => {}
                unequal => return unequal,
            }
        }
        Ordering::Equal
    }

    fn get(self, i: usize) -> Option<KeyRef<'a>> {
        match self {
            Parts::Owned(p) => p.get(i).map(IndexKey::key_ref),
            Parts::Borrowed(p) => p.get(i).copied(),
        }
    }
}

/// Both key forms, seen as their components. `Key` lends itself to the
/// posting map and the key set as `dyn Keyed` (below), which is what
/// lets a `Probe` find an owned key; every comparison and hash therefore
/// goes through this one view. The order is component by component, and
/// a key before every longer key it prefixes — so a prefix's keys start
/// at the prefix itself.
trait Keyed {
    fn parts(&self) -> Parts<'_>;
}

impl Keyed for Key {
    fn parts(&self) -> Parts<'_> {
        Parts::Owned(&self.0)
    }
}

impl Keyed for Probe<'_> {
    fn parts(&self) -> Parts<'_> {
        Parts::Borrowed(self.slice())
    }
}

impl<'a> Borrow<dyn Keyed + 'a> for Key {
    fn borrow(&self) -> &(dyn Keyed + 'a) {
        self
    }
}

impl PartialEq for dyn Keyed + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for dyn Keyed + '_ {}

impl PartialOrd for dyn Keyed + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for dyn Keyed + '_ {
    fn cmp(&self, other: &Self) -> Ordering {
        let (a, b) = (self.parts(), other.parts());
        a.cmp_first(b, a.len().min(b.len()))
            .then(a.len().cmp(&b.len()))
    }
}

impl Hash for dyn Keyed + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let parts = self.parts();
        state.write_usize(parts.len());
        for i in 0..parts.len() {
            if let Some(k) = parts.get(i) {
                k.hash(state);
            }
        }
    }
}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self as &dyn Keyed).hash(state);
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        (self as &dyn Keyed).cmp(other as &dyn Keyed)
    }
}

/// What an index is declared over: one field path (`"message_type"`) or
/// an ordered list of them (`["message_type", "switch"]`), the leading
/// field first.
pub trait IndexFields {
    /// The field paths, in key order.
    fn into_fields(self) -> Vec<String>;
}

impl IndexFields for &str {
    fn into_fields(self) -> Vec<String> {
        vec![self.to_owned()]
    }
}

impl<const N: usize> IndexFields for [&str; N] {
    fn into_fields(self) -> Vec<String> {
        self.iter().map(|f| (*f).to_owned()).collect()
    }
}

impl IndexFields for &[&str] {
    fn into_fields(self) -> Vec<String> {
        self.iter().map(|f| (*f).to_owned()).collect()
    }
}

impl IndexFields for Vec<String> {
    fn into_fields(self) -> Vec<String> {
        self
    }
}

/// A secondary index over an ordered list of (dotted-path) fields.
///
/// A document is indexed when its first field holds a scalar; a later
/// field it lacks keys as [`IndexKey::Missing`], and one holding an array
/// or an object as [`IndexKey::Unindexable`].
#[derive(Debug, Clone, Default)]
pub struct SecondaryIndex {
    fields: Vec<String>,
    /// Where the last document keyed held the fields.
    layout: Layout,
    /// Each key's posting list: what an insert or a remove probes.
    postings: HashMap<Key, Vec<DocId>, BuildHasherDefault<WordHasher>>,
    /// The same keys in order: what a lookup ranges over.
    keys: BTreeSet<Key>,
    entry_count: usize,
}

impl SecondaryIndex {
    /// Creates an empty index over `fields`.
    pub fn new(fields: impl IndexFields) -> Self {
        SecondaryIndex {
            fields: fields.into_fields(),
            layout: Layout::default(),
            postings: HashMap::default(),
            keys: BTreeSet::new(),
            entry_count: 0,
        }
    }

    /// The indexed field paths, in key order.
    pub fn fields(&self) -> &[String] {
        &self.fields
    }

    /// Number of indexed document entries.
    pub fn len(&self) -> usize {
        self.entry_count
    }

    /// Returns `true` if the index has no entries.
    pub fn is_empty(&self) -> bool {
        self.entry_count == 0
    }

    /// Indexes one document under its id.
    pub fn insert(&mut self, doc: &Document) {
        self.insert_all(std::iter::once(doc));
    }

    /// Indexes each document under its id, in the order given: the map
    /// is probed once per run of consecutive documents that share a key,
    /// and the fields are found by name once per run of documents that
    /// share a name list.
    pub fn insert_all<'d>(&mut self, docs: impl IntoIterator<Item = &'d Document>) {
        let mut run: Option<(Probe<'d>, &mut Vec<DocId>)> = None;
        for doc in docs {
            let Some(key) = Probe::of_doc(&mut self.layout, &self.fields, doc) else {
                continue;
            };
            self.entry_count += 1;
            if let Some((last, ids)) = &mut run {
                if last.keyed() == key.keyed() {
                    ids.push(doc.id);
                    continue;
                }
            }
            let ids = match self.postings.get_mut(key.keyed()) {
                Some(ids) => ids,
                None => {
                    let owned = key.owned_key();
                    self.keys.insert(owned.clone());
                    self.postings.entry(owned).or_default()
                }
            };
            ids.push(doc.id);
            run = Some((key, ids));
        }
    }

    /// Removes one document from under its key (a batch goes through
    /// [`SecondaryIndex::remove_all`]).
    pub fn remove(&mut self, doc: &Document) {
        let Some(key) = Probe::of_doc(&mut self.layout, &self.fields, doc) else {
            return;
        };
        if let Some(ids) = self.postings.get_mut(key.keyed()) {
            if let Some(pos) = ids.iter().position(|x| *x == doc.id) {
                ids.swap_remove(pos);
                self.entry_count -= 1;
            }
            if ids.is_empty() {
                self.forget(&key);
            }
        }
    }

    /// Removes the ids in `gone` from under the keys of `docs` (the
    /// removed documents): one `retain` pass per distinct key, however
    /// many documents shared it.
    pub fn remove_all<'d>(
        &mut self,
        docs: impl Iterator<Item = &'d Document>,
        gone: &HashSet<DocId>,
    ) {
        let (fields, layout) = (&self.fields, &mut self.layout);
        let mut keys: Vec<Probe<'d>> = docs
            .filter_map(|d| Probe::of_doc(layout, fields, d))
            .collect();
        keys.sort_by(|a, b| a.keyed().cmp(b.keyed()));
        keys.dedup_by(|a, b| a.keyed() == b.keyed());
        for key in &keys {
            let Some(ids) = self.postings.get_mut(key.keyed()) else {
                continue;
            };
            let before = ids.len();
            ids.retain(|id| !gone.contains(id));
            self.entry_count -= before - ids.len();
            if ids.is_empty() {
                self.forget(key);
            }
        }
    }

    /// Drops a key whose posting list emptied.
    fn forget(&mut self, key: &Probe<'_>) {
        self.postings.remove(key.keyed());
        self.keys.remove(key.keyed());
    }

    /// The posting lists of the documents whose leading fields equal
    /// `values` (the first field's value first), lent from the index in
    /// key order: one list when `values` covers every field, a range of
    /// them for a shorter run. `None` means the index cannot answer —
    /// no values, more values than fields, or one that is not
    /// [`indexable`] — and the caller must scan.
    pub fn lookup<'v>(
        &self,
        values: impl IntoIterator<Item = &'v Value>,
    ) -> Option<Postings<'_, 'v>> {
        let prefix = Probe::of_values(values)?;
        if prefix.len > self.fields.len() {
            return None;
        }
        let range = self
            .keys
            .range::<dyn Keyed + 'v, _>((Bound::Included(prefix.keyed()), Bound::Unbounded));
        Some(Postings {
            range,
            postings: &self.postings,
            prefix,
        })
    }
}

/// The posting lists [`SecondaryIndex::lookup`] lends, in key order.
#[derive(Clone)]
pub struct Postings<'s, 'v> {
    range: Range<'s, Key>,
    postings: &'s HashMap<Key, Vec<DocId>, BuildHasherDefault<WordHasher>>,
    prefix: Probe<'v>,
}

impl Postings<'_, '_> {
    /// How many leading fields the lookup pinned.
    pub fn pinned(&self) -> usize {
        self.prefix.len
    }
}

impl<'s> Iterator for Postings<'s, '_> {
    type Item = &'s [DocId];

    fn next(&mut self) -> Option<&'s [DocId]> {
        // The prefix's keys are contiguous and come first: past them,
        // every later key fails the test too.
        let key = self.range.next()?;
        let ids = self.postings.get(key).map_or(&[][..], Vec::as_slice);
        self.prefix.prefixes(key).then_some(ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc;
    use serde_json::json;

    fn with(id: u64, k: Value) -> Document {
        let mut d = doc! { "k" => k };
        d.id = DocId(id);
        d
    }

    /// Ids under the keys `values` prefix, flattened.
    fn ids<'v>(
        idx: &SecondaryIndex,
        values: impl IntoIterator<Item = &'v Value>,
    ) -> Option<Vec<DocId>> {
        Some(idx.lookup(values)?.flatten().copied().collect())
    }

    #[test]
    fn insert_lookup_remove() {
        let mut idx = SecondaryIndex::new("k");
        idx.insert(&with(1, json!(5)));
        idx.insert(&with(2, json!(5)));
        idx.insert(&with(3, json!(7)));
        assert_eq!(idx.len(), 3);
        assert_eq!(ids(&idx, [&json!(5)]), Some(vec![DocId(1), DocId(2)]));
        idx.remove(&with(1, json!(5)));
        assert_eq!(ids(&idx, [&json!(5)]), Some(vec![DocId(2)]));
        idx.remove(&with(2, json!(5)));
        assert_eq!(ids(&idx, [&json!(5)]), Some(vec![]));
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn integer_and_float_keys_coincide() {
        let mut idx = SecondaryIndex::new("k");
        idx.insert(&with(1, json!(5)));
        assert_eq!(ids(&idx, [&json!(5.0)]), Some(vec![DocId(1)]));
    }

    #[test]
    fn a_batch_leaves_no_stale_id_under_any_key() {
        let mut idx = SecondaryIndex::new("k");
        let value = |i: u64| json!(["a", "b", "c"][(i % 3) as usize]);
        let docs: Vec<Document> = (0..30).map(|i| with(i, value(i))).collect();
        idx.insert_all(&docs);
        // Every "a", half the "b"s, no "c"; one id that was never indexed.
        let victims: Vec<u64> = (0..30)
            .filter(|i| i % 3 == 0 || (i % 3 == 1 && i % 2 == 0))
            .collect();
        let gone: HashSet<DocId> = victims.iter().copied().chain([99]).map(DocId).collect();
        let removed: Vec<Document> = victims.iter().map(|i| with(*i, value(*i))).collect();
        idx.remove_all(removed.iter(), &gone);
        assert_eq!(idx.len(), 30 - victims.len());
        assert_eq!(ids(&idx, [&json!("a")]), Some(vec![]));
        let b: Vec<DocId> = (0..30).filter(|i| i % 6 == 1).map(DocId).collect();
        assert_eq!(ids(&idx, [&json!("b")]), Some(b));
        assert_eq!(ids(&idx, [&json!("c")]).map(|v| v.len()), Some(10));
    }

    #[test]
    fn an_unindexable_value_is_not_answered() {
        let mut idx = SecondaryIndex::new("k");
        idx.insert(&with(1, json!(5)));
        assert!(idx.lookup([&json!([1, 2])]).is_none());
        assert!(idx.lookup([&json!({"a": 1})]).is_none());
        assert!(idx.lookup([]).is_none());
        assert!(
            idx.lookup([&json!(5), &json!(5)]).is_none(),
            "wider than the index"
        );
        assert_eq!(ids(&idx, [&json!(null)]), Some(vec![]));
    }

    #[test]
    fn a_leading_array_is_not_indexed() {
        let mut idx = SecondaryIndex::new("k");
        idx.insert(&with(1, json!([1, 2])));
        idx.insert(&doc! { "other" => 1 });
        assert!(idx.is_empty());
    }

    #[test]
    fn a_compound_key_answers_every_leading_run() {
        let mut idx = SecondaryIndex::new(["t", "s"]);
        let docs: Vec<Document> = [
            (1, doc! { "t" => "F", "s" => 1 }),
            (2, doc! { "t" => "F", "s" => 2 }),
            (3, doc! { "t" => "F", "s" => 1 }),
            (4, doc! { "t" => "P", "s" => 1 }),
            (5, doc! { "t" => "F" }),
            (6, doc! { "t" => "F", "s" => json!([1]) }),
            (7, doc! { "t" => "F", "s" => json!(null) }),
            (8, doc! { "s" => 1 }),
        ]
        .into_iter()
        .map(|(id, mut d)| {
            d.id = DocId(id);
            d
        })
        .collect();
        idx.insert_all(&docs);
        // Document 8 lacks the leading field: not indexed.
        assert_eq!(idx.len(), 7);
        let whole = |idx: &SecondaryIndex, t: &str, s: i64| ids(idx, [&json!(t), &json!(s)]);
        assert_eq!(whole(&idx, "F", 1), Some(vec![DocId(1), DocId(3)]));
        assert_eq!(whole(&idx, "F", 2), Some(vec![DocId(2)]));
        assert_eq!(whole(&idx, "P", 2), Some(vec![]));
        // The prefix reaches the missing and unindexable components too,
        // in key order: scalars, then the array, then the missing field.
        let f: Vec<u64> = ids(&idx, [&json!("F")])
            .unwrap()
            .iter()
            .map(|d| d.0)
            .collect();
        assert_eq!(f, [7, 1, 3, 2, 6, 5]);
        assert_eq!(idx.lookup([&json!("F")]).unwrap().pinned(), 1);
        assert_eq!(idx.lookup([&json!("F")]).unwrap().count(), 5);
        // Null is a value, not the missing marker.
        assert_eq!(ids(&idx, [&json!("F"), &json!(null)]), Some(vec![DocId(7)]));
        // A probe never reaches the next leading value's keys.
        assert_eq!(ids(&idx, [&json!("P")]), Some(vec![DocId(4)]));
        assert_eq!(ids(&idx, [&json!("E")]), Some(vec![]));
        // Remove by the whole document's key.
        idx.remove(&docs[0]);
        idx.remove_all(
            docs[4..6].iter(),
            &[DocId(5), DocId(6)].into_iter().collect(),
        );
        assert_eq!(whole(&idx, "F", 1), Some(vec![DocId(3)]));
        let f: Vec<u64> = ids(&idx, [&json!("F")])
            .unwrap()
            .iter()
            .map(|d| d.0)
            .collect();
        assert_eq!(f, [7, 3, 2]);
        assert_eq!(idx.len(), 4);
    }

    #[test]
    fn a_wide_key_spills_past_the_inline_components() {
        let fields: Vec<String> = (0..INLINE + 2).map(|i| format!("f{i}")).collect();
        let mut idx = SecondaryIndex::new(fields.clone());
        let mut a = Document::new();
        let mut b = Document::new();
        for (i, f) in fields.iter().enumerate() {
            a.set(f.clone(), i as i64);
            b.set(f.clone(), if i == INLINE + 1 { 99 } else { i as i64 });
        }
        b.id = DocId(2);
        a.id = DocId(1);
        idx.insert_all([&a, &b]);
        let values: Vec<Value> = (0..INLINE + 2).map(|i| json!(i)).collect();
        assert_eq!(ids(&idx, &values), Some(vec![DocId(1)]));
        assert_eq!(
            ids(&idx, &values[..INLINE + 1]),
            Some(vec![DocId(1), DocId(2)])
        );
    }

    #[test]
    fn key_ordering_is_total_and_typed() {
        let keys = [
            IndexKey::Null,
            IndexKey::Bool(false),
            IndexKey::Bool(true),
            IndexKey::Num(1.0),
            IndexKey::Num(2.0),
            IndexKey::Str("a".into()),
            IndexKey::Unindexable,
            IndexKey::Missing,
        ];
        for w in keys.windows(2) {
            assert!(w[0] < w[1], "{} < {}", w[0], w[1]);
        }
    }
}
