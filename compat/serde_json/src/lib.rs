#![forbid(unsafe_code)]
//! Offline stand-in for `serde_json`, built on the `serde` shim's JSON
//! value model: render with [`to_string`] / [`to_string_pretty`]. Text is
//! parsed into a [`Value`] by `serde::json::parse`; nothing is
//! deserialised into a typed value.

use std::fmt;

pub use serde::json::Value;

/// Serialisation failure. The shim's renderer cannot fail, so no value of
/// this type is ever made; it keeps upstream's `Result` signatures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Renders `value` as compact JSON.
///
/// # Errors
///
/// Infallible for the shim's value model; `Result` kept for signature
/// compatibility.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(value.to_value().render_compact())
}

/// Renders `value` as pretty-printed JSON (two-space indent).
///
/// # Errors
///
/// Infallible for the shim's value model; `Result` kept for signature
/// compatibility.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(value.to_value().render_pretty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_render() {
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(to_string(&-3i64).unwrap(), "-3");
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string("hi").unwrap(), "\"hi\"");
        assert_eq!(to_string(&vec![1u64, 2, 3]).unwrap(), "[1,2,3]");
    }

    #[test]
    fn options_and_null() {
        assert_eq!(to_string(&Option::<u64>::None).unwrap(), "null");
        assert_eq!(to_string(&Some(7u64)).unwrap(), "7");
    }

    #[test]
    fn strings_escape() {
        assert_eq!(to_string("a\"b\\c\nd").unwrap(), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn float_marker_survives() {
        // Whole-valued floats keep a `.0` so they stay floats in JSON.
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
    }
}
