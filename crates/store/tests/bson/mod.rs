//! A reference BSON encoder. It writes the bytes (little-endian, as the
//! BSON spec lays them out), so a test can hold `Document::bson_len` to
//! their length rather than to a second count.

use athena_store::Document;
use serde_json::Value;

/// The fields of `doc` as one BSON document.
pub fn encode(doc: &Document) -> Vec<u8> {
    let mut out = Vec::new();
    document(&mut out, doc.fields.iter().map(|(k, v)| (k.as_str(), v)));
    out
}

/// An int32 total length, the elements, a terminating zero.
fn document<'a>(out: &mut Vec<u8>, elements: impl Iterator<Item = (&'a str, &'a Value)>) {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    for (key, value) in elements {
        element(out, key, value);
    }
    out.push(0);
    let len = i32::try_from(out.len() - start).expect("document under 2 GiB");
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

/// A type byte, the key as a zero-terminated string, the value.
fn element(out: &mut Vec<u8>, key: &str, value: &Value) {
    let tag = out.len();
    out.push(0);
    out.extend_from_slice(key.as_bytes());
    out.push(0);
    out[tag] = match value {
        Value::Null => 0x0a,
        Value::Bool(b) => {
            out.push(u8::from(*b));
            0x08
        }
        Value::Number(n) if n.is_f64() => {
            out.extend_from_slice(&n.as_f64().expect("a float").to_le_bytes());
            0x01
        }
        Value::Number(n) => match n.as_i64() {
            Some(i) => match i32::try_from(i) {
                Ok(small) => {
                    out.extend_from_slice(&small.to_le_bytes());
                    0x10
                }
                Err(_) => {
                    out.extend_from_slice(&i.to_le_bytes());
                    0x12
                }
            },
            // Above i64::MAX: the same eight bytes, as an int64.
            None => {
                out.extend_from_slice(&n.as_u64().expect("an integer").to_le_bytes());
                0x12
            }
        },
        Value::String(s) => {
            let len = i32::try_from(s.len() + 1).expect("string under 2 GiB");
            out.extend_from_slice(&len.to_le_bytes());
            out.extend_from_slice(s.as_bytes());
            out.push(0);
            0x02
        }
        Value::Array(items) => {
            let keys: Vec<String> = (0..items.len()).map(|i| i.to_string()).collect();
            document(out, keys.iter().map(String::as_str).zip(items));
            0x04
        }
        Value::Object(members) => {
            document(out, members.iter().map(|(k, v)| (k.as_str(), v)));
            0x03
        }
    };
}
