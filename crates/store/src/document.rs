//! Documents: schemaless JSON objects with generated ids.

use serde::{Deserialize, Serialize};
use serde_json::{Map, Value};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A document id, unique within a collection.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct DocId(pub u64);

impl fmt::Display for DocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "doc-{}", self.0)
    }
}

/// A document field name: a string literal borrowed for the life of
/// the program, or a shared heap string for names only known at run
/// time (parsed from JSON, built by `format!`). Cloning either copies
/// a pointer; neither allocates. Compares, orders and hashes as the
/// string it names.
#[derive(Clone)]
pub enum Key {
    /// A name spelled in the program text.
    Static(&'static str),
    /// A name built at run time, shared between its holders.
    Shared(Arc<str>),
}

impl Key {
    /// The name.
    pub fn as_str(&self) -> &str {
        match self {
            Key::Static(s) => s,
            Key::Shared(s) => s,
        }
    }
}

impl From<&'static str> for Key {
    fn from(s: &'static str) -> Self {
        Key::Static(s)
    }
}

impl From<String> for Key {
    fn from(s: String) -> Self {
        Key::Shared(s.into())
    }
}

impl From<&String> for Key {
    fn from(s: &String) -> Self {
        Key::Shared(s.as_str().into())
    }
}

impl From<Arc<str>> for Key {
    fn from(s: Arc<str>) -> Self {
        Key::Shared(s)
    }
}

impl AsRef<str> for Key {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Key {}

impl PartialEq<str> for Key {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Key {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A document body: `(name, value)` members in one vector, strictly
/// sorted by name — one allocation per document, placement by binary
/// search, iteration (and so JSON text, [`Document::bson_len`] and
/// every digest over them) in name order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Fields(Vec<(Key, Value)>);

impl Fields {
    /// Wraps members that are already strictly sorted by name (the
    /// feature path assembles them in order and skips the sort).
    /// Sortedness is the caller's contract, checked in debug builds.
    pub fn from_sorted(members: Vec<(Key, Value)>) -> Self {
        debug_assert!(
            members.windows(2).all(|w| w[0].0 < w[1].0),
            "members must be strictly sorted by name"
        );
        Fields(members)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` if there are no members.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The members, in name order.
    pub fn iter(&self) -> std::slice::Iter<'_, (Key, Value)> {
        self.0.iter()
    }

    /// The value of the member called `name` (no path navigation). A
    /// walk that rejects most names on their length alone: at
    /// feature-document sizes (a few dozen members) it is several times
    /// faster than the binary search's ordered string comparisons.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.0
            .iter()
            .find(|(k, _)| k.as_str() == name)
            .map(|(_, v)| v)
    }

    /// Sets a member, replacing the value of an existing one.
    pub fn insert(&mut self, key: Key, value: Value) {
        match self.position(key.as_str()) {
            Ok(i) => {
                if let Some((_, slot)) = self.0.get_mut(i) {
                    *slot = value;
                }
            }
            Err(i) => self.0.insert(i, (key, value)),
        }
    }

    fn position(&self, name: &str) -> Result<usize, usize> {
        self.0.binary_search_by(|(k, _)| k.as_str().cmp(name))
    }
}

impl<'a> IntoIterator for &'a Fields {
    type Item = &'a (Key, Value);
    type IntoIter = std::slice::Iter<'a, (Key, Value)>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// Collects members in any order; a repeated name keeps its last value.
impl<K: Into<Key>> FromIterator<(K, Value)> for Fields {
    fn from_iter<I: IntoIterator<Item = (K, Value)>>(iter: I) -> Self {
        let mut members: Vec<(Key, Value)> = iter.into_iter().map(|(k, v)| (k.into(), v)).collect();
        // Stable, so among equal names the last one pushed is last.
        members.sort_by(|a, b| a.0.cmp(&b.0));
        let mut fields = Fields(Vec::with_capacity(members.len()));
        for (k, v) in members {
            match fields.0.last_mut() {
                Some(last) if last.0 == k => last.1 = v,
                _ => fields.0.push((k, v)),
            }
        }
        fields
    }
}

impl From<Map<String, Value>> for Fields {
    fn from(m: Map<String, Value>) -> Self {
        // A `Map` iterates in name order with unique names.
        Fields(m.into_iter().map(|(k, v)| (Key::from(k), v)).collect())
    }
}

impl Serialize for Fields {
    fn to_value(&self) -> Value {
        Value::Object(
            self.0
                .iter()
                .map(|(k, v)| (k.as_str().to_owned(), v.clone()))
                .collect(),
        )
    }
}

impl Deserialize for Fields {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Map::from_value(v).map(Fields::from)
    }
}

/// A schemaless document: a JSON object plus its id.
///
/// Field access supports dotted paths (`"meta.timestamp"`), mirroring the
/// query syntax.
///
/// # Examples
///
/// ```
/// use athena_store::{doc, Document};
///
/// let d = doc! { "switch" => 3, "stats" => serde_json::json!({"pkts": 10}) };
/// assert_eq!(d.get_f64("stats.pkts"), Some(10.0));
/// assert_eq!(d.get("missing"), None);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Document {
    /// The document id (assigned on insert; zero before).
    pub id: DocId,
    /// The fields.
    pub fields: Fields,
}

impl Document {
    /// Creates an empty document.
    pub fn new() -> Self {
        Document::default()
    }

    /// Creates a document from a JSON object value.
    ///
    /// Non-object values become a document with a single `"value"` field.
    pub fn from_value(v: Value) -> Self {
        match v {
            Value::Object(fields) => Document {
                id: DocId(0),
                fields: fields.into(),
            },
            other => Document::new().with("value", other),
        }
    }

    /// Sets a field (builder style).
    pub fn with(mut self, key: impl Into<Key>, value: impl Into<Value>) -> Self {
        self.set(key, value);
        self
    }

    /// Sets a field in place.
    pub fn set(&mut self, key: impl Into<Key>, value: impl Into<Value>) {
        self.fields.insert(key.into(), value.into());
    }

    /// Looks up a field by dotted path.
    pub fn get(&self, path: &str) -> Option<&Value> {
        let Some((first, rest)) = path.split_once('.') else {
            return self.fields.get(path);
        };
        let mut cur = self.fields.get(first)?;
        for part in rest.split('.') {
            cur = cur.as_object()?.get(part)?;
        }
        Some(cur)
    }

    /// Looks up a numeric field by dotted path.
    pub fn get_f64(&self, path: &str) -> Option<f64> {
        self.get(path)?.as_f64()
    }

    /// Looks up an integer field by dotted path.
    pub fn get_i64(&self, path: &str) -> Option<i64> {
        self.get(path)?.as_i64()
    }

    /// Looks up a string field by dotted path.
    pub fn get_str(&self, path: &str) -> Option<&str> {
        self.get(path)?.as_str()
    }

    /// The journal record's size: the fields as one BSON document, the
    /// form the modelled MongoDB journals a copy in. Exact, and computed
    /// from the borrowed fields without encoding them.
    pub fn bson_len(&self) -> usize {
        bson_document_len(self.fields.iter().map(|(k, v)| (k.as_str().len(), v)))
    }
}

/// A BSON document of `(key length, value)` elements: its int32 length,
/// then per element a type byte, the key as a zero-terminated string and
/// the value, then a terminating zero.
fn bson_document_len<'a>(elements: impl Iterator<Item = (usize, &'a Value)>) -> usize {
    let elements: usize = elements
        .map(|(key_len, v)| 1 + key_len + 1 + bson_value_len(v))
        .sum();
    4 + elements + 1
}

fn bson_value_len(v: &Value) -> usize {
    match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        // An integer that fits is an int32; any other is an int64, and a
        // float a double.
        Value::Number(n) if !n.is_f64() && n.as_i64().is_some_and(|i| i32::try_from(i).is_ok()) => {
            4
        }
        Value::Number(_) => 8,
        // int32 length, the bytes, a terminating zero.
        Value::String(s) => 4 + s.len() + 1,
        // An embedded document keyed "0", "1", ….
        Value::Array(a) => {
            bson_document_len(a.iter().enumerate().map(|(i, v)| (decimal_digits(i), v)))
        }
        Value::Object(m) => bson_document_len(m.iter().map(|(k, v)| (k.len(), v))),
    }
}

fn decimal_digits(i: usize) -> usize {
    i.checked_ilog10().map_or(1, |d| d as usize + 1)
}

impl From<Value> for Document {
    fn from(v: Value) -> Self {
        Document::from_value(v)
    }
}

impl fmt::Display for Document {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.id, self.fields.to_value())
    }
}

/// Builds a [`Document`] from `key => value` pairs.
///
/// # Examples
///
/// ```
/// use athena_store::doc;
/// let d = doc! { "a" => 1, "b" => "two" };
/// assert_eq!(d.get_i64("a"), Some(1));
/// assert_eq!(d.get_str("b"), Some("two"));
/// ```
#[macro_export]
macro_rules! doc {
    () => { $crate::Document::new() };
    ( $( $key:expr => $value:expr ),+ $(,)? ) => {{
        let mut d = $crate::Document::new();
        $( d.set($key, $value); )+
        d
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn doc_macro_builds_fields() {
        let d = doc! { "x" => 1, "y" => 2.5, "z" => "s" };
        assert_eq!(d.get_i64("x"), Some(1));
        assert_eq!(d.get_f64("y"), Some(2.5));
        assert_eq!(d.get_str("z"), Some("s"));
        assert_eq!(doc!().fields.len(), 0);
    }

    #[test]
    fn dotted_path_navigation() {
        let d = doc! { "a" => json!({"b": {"c": 42}}) };
        assert_eq!(d.get_i64("a.b.c"), Some(42));
        assert_eq!(d.get("a.b.missing"), None);
        assert_eq!(d.get("a.b.c.too_deep"), None);
    }

    #[test]
    fn from_value_wraps_scalars() {
        let d = Document::from_value(json!(7));
        assert_eq!(d.get_i64("value"), Some(7));
        let d = Document::from_value(json!({"k": true}));
        assert_eq!(d.get("k"), Some(&json!(true)));
    }

    #[test]
    fn bson_len_sizes_each_value_kind() {
        // 4 + element + 1; an element is type, "k\0", value.
        let len = |v: Value| doc! { "k" => v }.bson_len();
        assert_eq!(doc!().bson_len(), 5);
        assert_eq!(len(json!(null)), 8);
        assert_eq!(len(json!(true)), 9);
        assert_eq!(len(json!(1)), 12);
        assert_eq!(len(json!(1i64 << 31)), 16);
        assert_eq!(len(json!(u64::MAX)), 16);
        assert_eq!(len(json!(1.5)), 16);
        assert_eq!(len(json!("ab")), 15);
        assert_eq!(len(json!([true])), 8 + 5 + 3 + 1);
        assert_eq!(len(json!({"k": true})), 8 + 5 + 3 + 1);
    }

    #[test]
    fn serde_roundtrip() {
        let d = doc! { "n" => 1, "s" => "x" };
        let s = serde_json::to_string(&d).unwrap();
        let back: Document = serde_json::from_str(&s).unwrap();
        assert_eq!(back, d);
    }
}
