#![forbid(unsafe_code)]
//! Offline stand-in for `serde`.
//!
//! The build environment has no crates.io access, so this crate provides the
//! subset of serde the workspace uses: [`Serialize`], which converts a value
//! to the in-memory JSON value model ([`json::Value`]), and the JSON parser
//! [`json::parse`] for request bodies and files. Nothing turns JSON back
//! into a typed value: values are built by their constructors, which check
//! them. The `serde_json` shim renders the value model as text.
//!
//! The derive macro comes from the sibling `serde_derive` shim and covers
//! named-field structs, `#[serde(transparent)]` one-field tuple structs and
//! unit-variant enums — exactly the shapes the workspace derives.

use std::collections::BTreeMap;

pub use serde_derive::Serialize;

pub mod json;

use json::Value;

/// Conversion to the JSON value model.
pub trait Serialize {
    /// The JSON representation of `self`.
    fn to_value(&self) -> Value;
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(u64::from(*self))
            }
        }
    )*};
}
impl_uint!(u8, u16, u32, u64);

impl Serialize for usize {
    fn to_value(&self) -> Value {
        Value::U64(*self as u64)
    }
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::I64(i64::from(*self))
            }
        }
    )*};
}
impl_int!(i8, i16, i32, i64);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(f64::from(*self))
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
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

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Array(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn to_value(&self) -> Value {
        Value::Array(vec![
            self.0.to_value(),
            self.1.to_value(),
            self.2.to_value(),
        ])
    }
}

/// Map keys: strings pass through, everything else is keyed by its compact
/// JSON rendering.
impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        let entries = self
            .iter()
            .map(|(k, v)| {
                let key = match k.to_value() {
                    Value::Str(s) => s,
                    other => other.render_compact(),
                };
                (key, v.to_value())
            })
            .collect();
        Value::Object(entries)
    }
}
