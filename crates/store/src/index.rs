//! Ordered secondary indexes.

use crate::document::DocId;
use serde_json::Value;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// An orderable key extracted from a JSON scalar.
///
/// Cross-type ordering follows the same type ranking as
/// [`crate::filter::compare_values`] so index scans and comparison filters
/// agree.
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
}

impl IndexKey {
    /// Extracts a key from a JSON value; arrays/objects are unindexable.
    pub fn from_value(v: &Value) -> Option<IndexKey> {
        KeyRef::of(v).map(KeyRef::to_owned)
    }
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
}

impl<'a> KeyRef<'a> {
    fn of(v: &'a Value) -> Option<Self> {
        match v {
            Value::Null => Some(KeyRef::Null),
            Value::Bool(b) => Some(KeyRef::Bool(*b)),
            Value::Number(_) => v.as_f64().map(KeyRef::Num),
            Value::String(s) => Some(KeyRef::Str(s)),
            _ => None,
        }
    }

    fn to_owned(self) -> IndexKey {
        match self {
            KeyRef::Null => IndexKey::Null,
            KeyRef::Bool(b) => IndexKey::Bool(b),
            KeyRef::Num(n) => IndexKey::Num(n),
            KeyRef::Str(s) => IndexKey::Str(s.into()),
        }
    }

    fn rank(self) -> u8 {
        match self {
            KeyRef::Null => 0,
            KeyRef::Bool(_) => 1,
            KeyRef::Num(_) => 2,
            KeyRef::Str(_) => 3,
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

/// Both key forms, seen as the borrowed one. `IndexKey` lends itself to
/// the map as `dyn Keyed` (below), which is what lets a `KeyRef` find
/// an owned key; every comparison therefore goes through `KeyRef::cmp`.
trait Keyed {
    fn key_ref(&self) -> KeyRef<'_>;
}

impl Keyed for IndexKey {
    fn key_ref(&self) -> KeyRef<'_> {
        match self {
            IndexKey::Null => KeyRef::Null,
            IndexKey::Bool(b) => KeyRef::Bool(*b),
            IndexKey::Num(n) => KeyRef::Num(*n),
            IndexKey::Str(s) => KeyRef::Str(s),
        }
    }
}

impl Keyed for KeyRef<'_> {
    fn key_ref(&self) -> KeyRef<'_> {
        *self
    }
}

impl<'a> Borrow<dyn Keyed + 'a> for IndexKey {
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
        self.key_ref().cmp(other.key_ref())
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
        }
    }
}

/// A secondary index over one (dotted-path) field.
#[derive(Debug, Clone, Default)]
pub struct SecondaryIndex {
    field: String,
    map: BTreeMap<IndexKey, Vec<DocId>>,
    entry_count: usize,
}

impl SecondaryIndex {
    /// Creates an empty index over `field`.
    pub fn new(field: impl Into<String>) -> Self {
        SecondaryIndex {
            field: field.into(),
            map: BTreeMap::new(),
            entry_count: 0,
        }
    }

    /// The indexed field path.
    pub fn field(&self) -> &str {
        &self.field
    }

    /// Number of indexed document entries.
    pub fn len(&self) -> usize {
        self.entry_count
    }

    /// Returns `true` if the index has no entries.
    pub fn is_empty(&self) -> bool {
        self.entry_count == 0
    }

    /// Indexes `id` under the document's value for the field, if indexable.
    pub fn insert(&mut self, id: DocId, value: &Value) {
        let Some(key) = KeyRef::of(value) else {
            return;
        };
        match self.map.get_mut(&key as &dyn Keyed) {
            Some(ids) => ids.push(id),
            None => {
                self.map.insert(key.to_owned(), vec![id]);
            }
        }
        self.entry_count += 1;
    }

    /// Removes `id` from under `value`.
    pub fn remove(&mut self, id: DocId, value: &Value) {
        let Some(key) = KeyRef::of(value) else {
            return;
        };
        let key = &key as &dyn Keyed;
        if let Some(ids) = self.map.get_mut(key) {
            if let Some(pos) = ids.iter().position(|x| *x == id) {
                ids.swap_remove(pos);
                self.entry_count -= 1;
            }
            if ids.is_empty() {
                self.map.remove(key);
            }
        }
    }

    /// Ids of documents whose field equals `value`.
    pub fn lookup(&self, value: &Value) -> Vec<DocId> {
        KeyRef::of(value)
            .and_then(|k| self.map.get(&k as &dyn Keyed))
            .cloned()
            .unwrap_or_default()
    }

    /// Ids of documents whose field lies in `[lo, hi]` (inclusive).
    pub fn range(&self, lo: &Value, hi: &Value) -> Vec<DocId> {
        let (Some(lo), Some(hi)) = (IndexKey::from_value(lo), IndexKey::from_value(hi)) else {
            return Vec::new();
        };
        if lo > hi {
            return Vec::new();
        }
        self.map
            .range(lo..=hi)
            .flat_map(|(_, ids)| ids.iter().copied())
            .collect()
    }

    /// Number of distinct keys.
    pub fn cardinality(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn insert_lookup_remove() {
        let mut idx = SecondaryIndex::new("k");
        idx.insert(DocId(1), &json!(5));
        idx.insert(DocId(2), &json!(5));
        idx.insert(DocId(3), &json!(7));
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.cardinality(), 2);
        let mut hits = idx.lookup(&json!(5));
        hits.sort();
        assert_eq!(hits, vec![DocId(1), DocId(2)]);
        idx.remove(DocId(1), &json!(5));
        assert_eq!(idx.lookup(&json!(5)), vec![DocId(2)]);
        idx.remove(DocId(2), &json!(5));
        assert!(idx.lookup(&json!(5)).is_empty());
        assert_eq!(idx.cardinality(), 1);
    }

    #[test]
    fn integer_and_float_keys_coincide() {
        let mut idx = SecondaryIndex::new("k");
        idx.insert(DocId(1), &json!(5));
        assert_eq!(idx.lookup(&json!(5.0)), vec![DocId(1)]);
    }

    #[test]
    fn range_scan() {
        let mut idx = SecondaryIndex::new("k");
        for i in 0..10 {
            idx.insert(DocId(i), &json!(i));
        }
        let mut ids = idx.range(&json!(3), &json!(6));
        ids.sort();
        assert_eq!(ids, (3..=6).map(DocId).collect::<Vec<_>>());
        assert!(idx.range(&json!(8), &json!(2)).is_empty());
    }

    #[test]
    fn arrays_are_not_indexed() {
        let mut idx = SecondaryIndex::new("k");
        idx.insert(DocId(1), &json!([1, 2]));
        assert!(idx.is_empty());
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
        ];
        for w in keys.windows(2) {
            assert!(w[0] < w[1], "{} < {}", w[0], w[1]);
        }
    }
}
