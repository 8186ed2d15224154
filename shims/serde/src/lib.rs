//! In-repo serde shim.
//!
//! The build environment has no registry access, so this crate supplies the
//! slice of serde the workspace actually uses: `#[derive(Serialize,
//! Deserialize)]` plus value-tree serialization consumed by the
//! `serde_json` shim. The data model is simplified — a type converts to and
//! from a [`Value`] tree directly rather than driving a
//! Serializer/Deserializer pair — but the JSON it produces matches what
//! real serde emits for the shapes this workspace derives on.

#![forbid(unsafe_code)]

pub mod value;

use std::fmt;

pub use serde_derive::{Deserialize, Serialize};
pub use value::{Map, Number, Value};

/// Error produced when a [`Value`] cannot be converted into the requested
/// type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    /// Creates an error with the given message.
    pub fn custom(msg: impl fmt::Display) -> Self {
        Error(msg.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Types that can be converted into a [`Value`] tree.
pub trait Serialize {
    /// Converts `self` into a value tree.
    fn to_value(&self) -> Value;
}

/// Types that can be reconstructed from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Reconstructs `Self` from a value tree.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] when the tree does not have the expected shape.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

fn type_error<T>(expected: &str, v: &Value) -> Result<T, Error> {
    Err(Error(format!("expected {expected}, found {v:?}")))
}

// ---- scalar impls --------------------------------------------------------

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::from(*self)
            }
        }
        impl Deserialize for $t {
            // try_from is infallible for same-width conversions only.
            #[allow(irrefutable_let_patterns)]
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Number(n) => {
                        if let Some(i) = n.as_i64() {
                            if let Ok(x) = <$t>::try_from(i) {
                                return Ok(x);
                            }
                        }
                        if let Some(u) = n.as_u64() {
                            if let Ok(x) = <$t>::try_from(u) {
                                return Ok(x);
                            }
                        }
                        type_error(concat!("integer in range of ", stringify!($t)), v)
                    }
                    _ => type_error(stringify!($t), v),
                }
            }
        }
    )*};
}
impl_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::from(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Number(n) => n.as_f64().ok_or_else(|| Error::custom("bad number")),
            // Non-finite floats serialize to null; recover them as NaN so
            // `struct { x: f64 }` round trips instead of erroring.
            Value::Null => Ok(f64::NAN),
            _ => type_error("f64", v),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::from(*self)
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        f64::from_value(v).map(|f| f as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_bool().map_or_else(|| type_error("bool", v), Ok)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(str::to_owned)
            .map_or_else(|| type_error("string", v), Ok)
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_owned())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v.as_str().map(|s| (s.chars().next(), s.chars().count())) {
            Some((Some(c), 1)) => Ok(c),
            _ => type_error("single-character string", v),
        }
    }
}

// ---- container impls -----------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(Box::new)
    }
}

// Real serde has these behind its `rc` feature.
impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for std::sync::Arc<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(std::sync::Arc::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        self.as_ref().map_or(Value::Null, Serialize::to_value)
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(a) => a.iter().map(T::from_value).collect(),
            _ => type_error("array", v),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items = Vec::<T>::from_value(v)?;
        let len = items.len();
        <[T; N]>::try_from(items)
            .map_err(|_| Error(format!("expected array of {N} elements, found {len}")))
    }
}

impl<V: Serialize> Serialize for std::collections::HashMap<String, V> {
    fn to_value(&self) -> Value {
        let mut m = Map::new();
        for (k, v) in self {
            m.insert(k.clone(), v.to_value());
        }
        Value::Object(m)
    }
}

impl<V: Deserialize> Deserialize for std::collections::HashMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Object(m) => m
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
                .collect(),
            _ => type_error("object", v),
        }
    }
}

impl<V: Serialize> Serialize for std::collections::BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        let mut m = Map::new();
        for (k, v) in self {
            m.insert(k.clone(), v.to_value());
        }
        Value::Object(m)
    }
}

impl<V: Deserialize> Deserialize for std::collections::BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Object(m) => m
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
                .collect(),
            _ => type_error("object", v),
        }
    }
}

macro_rules! impl_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$n.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Array(a) => Ok((
                        $($t::from_value(a.get($n).unwrap_or(&Value::Null))?,)+
                    )),
                    _ => type_error("array (tuple)", v),
                }
            }
        }
    )*};
}
impl_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F)
}

// ---- identity impls for the value tree itself ----------------------------

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

impl Serialize for Map<String, Value> {
    fn to_value(&self) -> Value {
        Value::Object(self.clone())
    }
}

impl Deserialize for Map<String, Value> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Object(m) => Ok(m.clone()),
            _ => type_error("object", v),
        }
    }
}

impl Serialize for Number {
    fn to_value(&self) -> Value {
        Value::Number(*self)
    }
}

impl Deserialize for Number {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Number(n) => Ok(*n),
            _ => type_error("number", v),
        }
    }
}
