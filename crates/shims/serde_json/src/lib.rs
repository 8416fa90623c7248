//! In-tree stand-in for `serde_json`, vendored so the workspace builds
//! offline. Thin entry points over the serde shim's streaming codec: the
//! writer and the parser both live in `serde`, where derived code calls
//! them, and no document passes through a tree on the way.
//!
//! Numbers print via Rust's shortest-roundtrip `Display` for `f64`, so a
//! serialize → parse cycle reproduces the exact bit pattern (the config
//! roundtrip tests depend on this). Non-finite floats print as `null`,
//! matching real serde_json.

use serde::{Deserialize, Parser, Serialize, Writer};
pub use serde::{Value, MAX_DEPTH};

/// JSON syntax or shape error.
#[derive(Debug, Clone)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Error {
        Error(e.to_string())
    }
}

/// Serializes `value` as compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(Writer::document(value, false))
}

/// Serializes `value` as human-readable JSON (2-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(Writer::document(value, true))
}

/// Parses `json` into any deserializable type.
pub fn from_str<T: Deserialize>(json: &str) -> Result<T, Error> {
    Ok(Parser::document(json)?)
}

/// Parses one complete JSON document (trailing non-whitespace is an error).
pub fn parse_value(json: &str) -> Result<Value, Error> {
    from_str(json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_scalars_and_nesting() {
        let v = Value::Object(vec![
            ("a".into(), Value::UInt(7)),
            ("b".into(), Value::Float(0.06)),
            (
                "c".into(),
                Value::Array(vec![Value::Int(-1), Value::Bool(true), Value::Null]),
            ),
            ("d".into(), Value::Str("q\"uote\n".into())),
        ]);
        let compact = to_string(&v).unwrap();
        let pretty = to_string_pretty(&v).unwrap();
        assert_eq!(parse_value(&compact).unwrap(), v);
        assert_eq!(parse_value(&pretty).unwrap(), v);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_value("this is not json").is_err());
        assert!(parse_value("{\"a\": }").is_err());
        assert!(parse_value("[1, 2,]").is_err());
        assert!(parse_value("{} trailing").is_err());
    }

    #[test]
    fn nesting_is_bounded_by_a_typed_error() {
        let nest =
            |open: &str, close: &str, depth: usize| open.repeat(depth) + "0" + &close.repeat(depth);
        assert!(parse_value(&nest("[", "]", MAX_DEPTH)).is_ok());
        assert!(parse_value(&nest("{\"a\":", "}", MAX_DEPTH)).is_ok());
        assert!(parse_value(&nest("[{\"a\":", "}]", MAX_DEPTH / 2)).is_ok());
        for doc in [
            nest("[", "]", MAX_DEPTH + 1),
            nest("{\"a\":", "}", MAX_DEPTH + 1),
            nest("[{\"a\":", "}]", MAX_DEPTH),
        ] {
            let err = parse_value(&doc).unwrap_err();
            assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        }
        // Deep enough to overflow a 2 MiB stack were the depth unbounded:
        // the parser stops at the limit instead.
        let err = parse_value(&"[".repeat(100_000)).unwrap_err();
        assert!(err.to_string().contains("at byte 128"), "{err}");
    }

    #[test]
    fn floats_roundtrip_exactly() {
        for f in [0.06f64, 1e-6, 12345.6789, -0.5, 3.0] {
            let s = to_string(&f).unwrap();
            let back: f64 = from_str(&s).unwrap();
            assert_eq!(back.to_bits(), f.to_bits(), "{s}");
        }
    }
}
