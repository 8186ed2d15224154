//! Ordered secondary indexes.

use crate::document::DocId;
use serde_json::Value;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashSet};
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

    /// Removes `id` from under `value` (one document; a batch goes
    /// through [`SecondaryIndex::remove_all`]).
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

    /// Removes the ids in `gone` from under each of `values` (the
    /// removed documents' values for the field): one `retain` pass per
    /// distinct key, however many documents shared it.
    pub fn remove_all<'a>(
        &mut self,
        values: impl Iterator<Item = &'a Value>,
        gone: &HashSet<DocId>,
    ) {
        let mut keys: Vec<KeyRef<'a>> = values.filter_map(KeyRef::of).collect();
        keys.sort_by(|a, b| a.cmp(*b));
        keys.dedup_by(|a, b| a.cmp(*b) == Ordering::Equal);
        for key in keys {
            let key = &key as &dyn Keyed;
            let Some(ids) = self.map.get_mut(key) else {
                continue;
            };
            let before = ids.len();
            ids.retain(|id| !gone.contains(id));
            self.entry_count -= before - ids.len();
            if ids.is_empty() {
                self.map.remove(key);
            }
        }
    }

    /// Ids of documents whose field equals `value`, lent from the index
    /// (empty when no document carries the value). `None` means the
    /// index cannot answer: arrays and objects are never indexed, so a
    /// document may hold `value` without being listed, and the caller
    /// must scan.
    pub fn lookup(&self, value: &Value) -> Option<&[DocId]> {
        let key = KeyRef::of(value)?;
        Some(self.map.get(&key as &dyn Keyed).map_or(&[], Vec::as_slice))
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
        assert_eq!(idx.lookup(&json!(5)), Some(&[DocId(1), DocId(2)][..]));
        idx.remove(DocId(1), &json!(5));
        assert_eq!(idx.lookup(&json!(5)), Some(&[DocId(2)][..]));
        idx.remove(DocId(2), &json!(5));
        assert_eq!(idx.lookup(&json!(5)), Some(&[][..]));
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn integer_and_float_keys_coincide() {
        let mut idx = SecondaryIndex::new("k");
        idx.insert(DocId(1), &json!(5));
        assert_eq!(idx.lookup(&json!(5.0)), Some(&[DocId(1)][..]));
    }

    #[test]
    fn a_batch_leaves_no_stale_id_under_any_key() {
        let mut idx = SecondaryIndex::new("k");
        let value = |i: u64| json!(["a", "b", "c"][(i % 3) as usize]);
        for i in 0..30 {
            idx.insert(DocId(i), &value(i));
        }
        // Every "a", half the "b"s, no "c"; one id that was never indexed.
        let victims: Vec<u64> = (0..30)
            .filter(|i| i % 3 == 0 || (i % 3 == 1 && i % 2 == 0))
            .collect();
        let gone: HashSet<DocId> = victims.iter().copied().chain([99]).map(DocId).collect();
        let values: Vec<Value> = victims.iter().map(|i| value(*i)).collect();
        idx.remove_all(values.iter(), &gone);
        assert_eq!(idx.len(), 30 - victims.len());
        assert_eq!(idx.lookup(&json!("a")), Some(&[][..]));
        let b: Vec<DocId> = (0..30).filter(|i| i % 6 == 1).map(DocId).collect();
        assert_eq!(idx.lookup(&json!("b")), Some(&b[..]));
        assert_eq!(idx.lookup(&json!("c")).map(<[DocId]>::len), Some(10));
    }

    #[test]
    fn an_unindexable_value_is_not_answered() {
        let mut idx = SecondaryIndex::new("k");
        idx.insert(DocId(1), &json!(5));
        assert_eq!(idx.lookup(&json!([1, 2])), None);
        assert_eq!(idx.lookup(&json!({"a": 1})), None);
        assert_eq!(idx.lookup(&json!(null)), Some(&[][..]));
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
