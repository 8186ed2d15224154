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

/// A document body: its member names, strictly sorted, in one shared
/// list, and their values in a vector in the same order. Bodies of one
/// shape — every record the feature generator builds of one kind and
/// layout — point at one list and own only their values; setting a name
/// the list lacks gives the body a list of its own (copy on write).
/// Iteration (and so JSON text, [`Document::bson_len`] and every digest
/// over them) is in name order.
#[derive(Clone, Default)]
pub struct Fields {
    names: Arc<[Key]>,
    values: Vec<Value>,
}

impl Fields {
    /// A body of `values` under `names`, which must be strictly sorted
    /// and one per value (the feature generator hands every record of a
    /// shape the same list). The contract is the caller's, checked in
    /// debug builds.
    pub fn with_names(names: Arc<[Key]>, values: Vec<Value>) -> Self {
        debug_assert!(
            names.windows(2).all(|w| w[0] < w[1]),
            "names must be strictly sorted"
        );
        debug_assert_eq!(names.len(), values.len(), "one value per name");
        Fields { names, values }
    }

    /// The member names, in order: a list other bodies may share.
    pub fn names(&self) -> &Arc<[Key]> {
        &self.names
    }

    /// The member values, in name order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if there are no members.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The members, in name order.
    pub fn iter(&self) -> Members<'_> {
        self.names.iter().zip(self.values.iter())
    }

    /// The value of the member called `name` (no path navigation). A
    /// walk that rejects most names on their length alone: at
    /// feature-document sizes (a few dozen members) it is several times
    /// faster than the binary search's ordered string comparisons.
    pub fn get(&self, name: &str) -> Option<&Value> {
        let i = self.names.iter().position(|k| k.as_str() == name)?;
        self.values.get(i)
    }

    /// Sets a member, replacing the value of an existing one; a new name
    /// goes into a copy of the name list.
    pub fn insert(&mut self, key: Key, value: Value) {
        match self
            .names
            .binary_search_by(|k| k.as_str().cmp(key.as_str()))
        {
            Ok(i) => {
                if let Some(slot) = self.values.get_mut(i) {
                    *slot = value;
                }
            }
            Err(i) => {
                let mut names = Vec::with_capacity(self.names.len() + 1);
                names.extend(self.names.iter().take(i).cloned());
                names.push(key);
                names.extend(self.names.iter().skip(i).cloned());
                self.names = names.into();
                self.values.insert(i, value);
            }
        }
    }
}

/// Where a reader's names sit in the bodies it reads: the name list of
/// the last body asked about (held, so no other list can take its
/// address), with the position in it of each name, if it has the name.
/// A body under the same list (one pointer comparison) is answered from
/// the held positions; another list is resolved once, by name. The
/// secondary indexes and the feature reader both read this way.
///
/// # Examples
///
/// ```
/// use athena_store::{doc, Fields, Layout};
///
/// let mut layout = Layout::default();
/// let d = doc! { "a" => 1, "b" => 2 };
/// assert_eq!(layout.positions(["b", "c"], &d.fields), [Some(1), None]);
/// // Another body under the same list: no name is looked up.
/// let e = Fields::with_names(d.fields.names().clone(), vec![3.into(), 4.into()]);
/// assert_eq!(layout.positions(["b", "c"], &e), [Some(1), None]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Layout {
    names: Option<Arc<[Key]>>,
    at: Vec<Option<usize>>,
}

impl Layout {
    /// The position of each of `wanted` in `fields`' name list, in the
    /// order given. `wanted` is only walked when the list is not the
    /// held one, so a reader must pass the same names on every call.
    pub fn positions<'w>(
        &mut self,
        wanted: impl IntoIterator<Item = &'w str>,
        fields: &Fields,
    ) -> &[Option<usize>] {
        let names = fields.names();
        let held = self
            .names
            .as_ref()
            .is_some_and(|held| Arc::ptr_eq(held, names));
        if !held {
            self.at.clear();
            self.at.extend(
                wanted
                    .into_iter()
                    .map(|w| names.iter().position(|k| k.as_str() == w)),
            );
            self.names = Some(Arc::clone(names));
        }
        &self.at
    }
}

/// A body's members, in name order: each name with its value.
pub type Members<'a> = std::iter::Zip<std::slice::Iter<'a, Key>, std::slice::Iter<'a, Value>>;

impl<'a> IntoIterator for &'a Fields {
    type Item = (&'a Key, &'a Value);
    type IntoIter = Members<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Bodies are equal when their members are: one list shared by both is
/// equal without a name comparison.
impl PartialEq for Fields {
    fn eq(&self, other: &Self) -> bool {
        (Arc::ptr_eq(&self.names, &other.names) || self.names == other.names)
            && self.values == other.values
    }
}

/// As the `(name, value)` members in one vector printed:
/// `Fields([("a", Number(1)), …])`.
impl fmt::Debug for Fields {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct List<'a>(&'a Fields);
        impl fmt::Debug for List<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0.iter()).finish()
            }
        }
        f.debug_tuple("Fields").field(&List(self)).finish()
    }
}

/// Collects members in any order; a repeated name keeps its last value.
impl<K: Into<Key>> FromIterator<(K, Value)> for Fields {
    fn from_iter<I: IntoIterator<Item = (K, Value)>>(iter: I) -> Self {
        let mut members: Vec<(Key, Value)> = iter.into_iter().map(|(k, v)| (k.into(), v)).collect();
        // Stable, so among equal names the last one pushed is last.
        members.sort_by(|a, b| a.0.cmp(&b.0));
        let mut names: Vec<Key> = Vec::with_capacity(members.len());
        let mut values: Vec<Value> = Vec::with_capacity(members.len());
        for (k, v) in members {
            match (names.last(), values.last_mut()) {
                (Some(last), Some(slot)) if *last == k => *slot = v,
                _ => {
                    names.push(k);
                    values.push(v);
                }
            }
        }
        Fields::with_names(names.into(), values)
    }
}

impl From<Map<String, Value>> for Fields {
    fn from(m: Map<String, Value>) -> Self {
        // A `Map` iterates in name order with unique names.
        let (names, values): (Vec<Key>, Vec<Value>) =
            m.into_iter().map(|(k, v)| (Key::from(k), v)).unzip();
        Fields::with_names(names.into(), values)
    }
}

impl Serialize for Fields {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
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
