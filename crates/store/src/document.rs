//! Documents: schemaless JSON objects with generated ids.

use serde::{Deserialize, Serialize};
use serde_json::{Map, Number, Value};
use std::fmt::{self, Write};

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
    pub fields: Map<String, Value>,
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
                fields,
            },
            other => {
                let mut fields = Map::new();
                fields.insert("value".to_owned(), other);
                Document {
                    id: DocId(0),
                    fields,
                }
            }
        }
    }

    /// Sets a field (builder style).
    pub fn with(mut self, key: impl Into<String>, value: impl Into<Value>) -> Self {
        self.fields.insert(key.into(), value.into());
        self
    }

    /// Sets a field in place.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<Value>) {
        self.fields.insert(key.into(), value.into());
    }

    /// Looks up a field by dotted path.
    pub fn get(&self, path: &str) -> Option<&Value> {
        let mut parts = path.split('.');
        let first = parts.next()?;
        let mut cur = self.fields.get(first)?;
        for part in parts {
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

    /// Serialized size in bytes (the journal representation): the
    /// length of `serde_json::to_vec(&self.fields)`, computed from the
    /// borrowed fields without building a `Value` tree or the text.
    pub fn encoded_len(&self) -> usize {
        object_len(&self.fields)
    }
}

/// Length of `m` as one compact JSON object.
fn object_len(m: &Map<String, Value>) -> usize {
    // Braces, one comma between members, one colon per member.
    let members: usize = m
        .iter()
        .map(|(k, v)| string_len(k) + 1 + value_len(v))
        .sum();
    2 + m.len().saturating_sub(1) + members
}

fn value_len(v: &Value) -> usize {
    match v {
        Value::Null | Value::Bool(true) => 4,
        Value::Bool(false) => 5,
        Value::Number(n) => number_len(n),
        Value::String(s) => string_len(s),
        Value::Array(a) => 2 + a.len().saturating_sub(1) + a.iter().map(value_len).sum::<usize>(),
        Value::Object(m) => object_len(m),
    }
}

/// Length of `s` quoted and escaped as the JSON writer escapes it:
/// two-byte escapes for `"`, `\\` and the five named controls, `\u00XX`
/// for the other controls, every other byte as itself.
fn string_len(s: &str) -> usize {
    let body: usize = s
        .bytes()
        .map(|b| match b {
            b'"' | b'\\' | b'\n' | b'\r' | b'\t' | 0x08 | 0x0c => 2,
            0x00..=0x1f => 6,
            _ => 1,
        })
        .sum();
    2 + body
}

/// Length of `n` as the JSON writer prints it. Integers, and floats
/// holding an integer (most feature fields: counts, ports, addresses;
/// printed as `<digits>.0`), are sized by counting digits; only a
/// fractional float is actually formatted, into a byte counter.
fn number_len(n: &Number) -> usize {
    if !n.is_f64() {
        if let Some(u) = n.as_u64() {
            return decimal_digits(u);
        }
        if let Some(i) = n.as_i64() {
            return 1 + decimal_digits(i.unsigned_abs());
        }
    }
    match n.as_f64() {
        // Below 1e15 the float is an exact integer that prints in
        // positional notation with a trailing `.0`.
        Some(x) if x.fract() == 0.0 && x.abs() < 1e15 => {
            usize::from(x.is_sign_negative()) + decimal_digits(x.abs() as u64) + 2
        }
        _ => {
            let mut counter = ByteCounter(0);
            // `ByteCounter::write_str` never fails.
            let _ = write!(counter, "{n}");
            counter.0
        }
    }
}

fn decimal_digits(u: u64) -> usize {
    u.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// A `fmt::Write` sink that keeps only the number of bytes written.
struct ByteCounter(usize);

impl fmt::Write for ByteCounter {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 += s.len();
        Ok(())
    }
}

impl From<Value> for Document {
    fn from(v: Value) -> Self {
        Document::from_value(v)
    }
}

impl fmt::Display for Document {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.id, Value::Object(self.fields.clone()))
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
    fn encoded_len_is_positive_for_nonempty() {
        let d = doc! { "k" => 1 };
        assert!(d.encoded_len() >= 7); // {"k":1}
    }

    #[test]
    fn serde_roundtrip() {
        let d = doc! { "n" => 1, "s" => "x" };
        let s = serde_json::to_string(&d).unwrap();
        let back: Document = serde_json::from_str(&s).unwrap();
        assert_eq!(back, d);
    }
}
