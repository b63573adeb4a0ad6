//! [`Value`] — the dynamically-typed payload exchanged between SDK, cloud
//! service, and workers.
//!
//! In the production system, task arguments and results are Python objects
//! serialized with dill. Our stand-in is a small dynamic value type with the
//! shapes Python users actually ship: `None`, booleans, integers, floats,
//! strings, byte strings, lists, and string-keyed maps. `gcx-pyfn` uses this
//! type as its runtime representation, so "a Python function returning a
//! dict" round-trips through the whole stack unchanged.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

/// A dynamically-typed value (stand-in for a pickled Python object).
///
/// Maps use `BTreeMap` so serialized bytes — and therefore config hashes —
/// are deterministic regardless of insertion order (the multi-user endpoint
/// keys spawned user endpoints on a hash of the user configuration, §IV-B).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// Python `None`.
    None,
    /// Python `bool`.
    Bool(bool),
    /// Python `int` (bounded to i64 in this reproduction).
    Int(i64),
    /// Python `float`.
    Float(f64),
    /// Python `str`.
    Str(String),
    /// Python `bytes`.
    Bytes(Vec<u8>),
    /// Python `list`.
    List(Vec<Value>),
    /// Python `dict` with string keys.
    Map(BTreeMap<String, Value>),
}

impl Value {
    /// Build a map value from `(key, value)` pairs.
    pub fn map<I, K>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (K, Value)>,
        K: Into<String>,
    {
        Value::Map(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Build a string value.
    pub fn str(s: impl Into<String>) -> Self {
        Value::Str(s.into())
    }

    /// Python-style truthiness: empty containers, zero, `None`, and empty
    /// strings are falsy.
    pub fn truthy(&self) -> bool {
        match self {
            Value::None => false,
            Value::Bool(b) => *b,
            Value::Int(i) => *i != 0,
            Value::Float(f) => *f != 0.0,
            Value::Str(s) => !s.is_empty(),
            Value::Bytes(b) => !b.is_empty(),
            Value::List(l) => !l.is_empty(),
            Value::Map(m) => !m.is_empty(),
        }
    }

    /// The Python type name of this value (used in error messages).
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::None => "NoneType",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "str",
            Value::Bytes(_) => "bytes",
            Value::List(_) => "list",
            Value::Map(_) => "dict",
        }
    }

    /// Borrow as `bool` if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Borrow as `i64` if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Borrow as `f64` if numeric (ints coerce).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Borrow as `&str` if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Borrow as a list if this is a `List`.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(l) => Some(l),
            _ => None,
        }
    }

    /// Borrow as a map if this is a `Map`.
    pub fn as_map(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Take the map out of an owned value (no clone of a large field).
    pub fn into_map(self) -> Option<BTreeMap<String, Value>> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Look up `key` in a map value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_map().and_then(|m| m.get(key))
    }

    /// Approximate in-memory/wire size in bytes. Used for the 10 MB payload
    /// rule and the data-movement experiments; intentionally close to the
    /// codec's output size.
    pub fn approx_size(&self) -> usize {
        match self {
            Value::None => 1,
            Value::Bool(_) => 2,
            Value::Int(_) => 9,
            Value::Float(_) => 9,
            Value::Str(s) => 5 + s.len(),
            Value::Bytes(b) => 5 + b.len(),
            Value::List(l) => 5 + l.iter().map(Value::approx_size).sum::<usize>(),
            Value::Map(m) => {
                5 + m
                    .iter()
                    .map(|(k, v)| 5 + k.len() + v.approx_size())
                    .sum::<usize>()
            }
        }
    }
}

impl fmt::Display for Value {
    /// Python-repr-like rendering (used by `pyfn`'s `str()` and shell
    /// interpolation).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::None => write!(f, "None"),
            Value::Bool(true) => write!(f, "True"),
            Value::Bool(false) => write!(f, "False"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.is_finite() {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => write!(f, "{s}"),
            Value::Bytes(b) => write!(f, "b<{} bytes>", b.len()),
            Value::List(l) => {
                write!(f, "[")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    match v {
                        Value::Str(s) => write!(f, "'{s}'")?,
                        other => write!(f, "{other}")?,
                    }
                }
                write!(f, "]")
            }
            Value::Map(m) => {
                write!(f, "{{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    match v {
                        Value::Str(s) => write!(f, "'{k}': '{s}'")?,
                        other => write!(f, "'{k}': {other}")?,
                    }
                }
                write!(f, "}}")
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Bytes(v)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::List(v.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness_matches_python() {
        assert!(!Value::None.truthy());
        assert!(!Value::Int(0).truthy());
        assert!(Value::Int(-1).truthy());
        assert!(!Value::Str(String::new()).truthy());
        assert!(Value::str("x").truthy());
        assert!(!Value::List(vec![]).truthy());
        assert!(Value::List(vec![Value::None]).truthy());
        assert!(!Value::Float(0.0).truthy());
    }

    #[test]
    fn display_is_python_flavoured() {
        assert_eq!(Value::None.to_string(), "None");
        assert_eq!(Value::Bool(true).to_string(), "True");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        let l: Value = vec![1i64, 2, 3].into();
        assert_eq!(l.to_string(), "[1, 2, 3]");
        let m = Value::map([("a", Value::Int(1)), ("b", Value::str("x"))]);
        assert_eq!(m.to_string(), "{'a': 1, 'b': 'x'}");
    }

    #[test]
    fn map_ordering_is_deterministic() {
        let a = Value::map([("z", Value::Int(1)), ("a", Value::Int(2))]);
        let b = Value::map([("a", Value::Int(2)), ("z", Value::Int(1))]);
        assert_eq!(a, b);
        assert_eq!(a.to_string(), b.to_string());
    }

    #[test]
    fn approx_size_scales_with_content() {
        let small = Value::str("hi");
        let big = Value::Bytes(vec![0u8; 1024]);
        assert!(big.approx_size() > small.approx_size());
        assert_eq!(big.approx_size(), 5 + 1024);
        let nested = Value::List(vec![big.clone(), big]);
        assert_eq!(nested.approx_size(), 5 + 2 * (5 + 1024));
    }

    #[test]
    fn accessors() {
        let m = Value::map([("n", Value::Int(7))]);
        assert_eq!(m.get("n").and_then(Value::as_int), Some(7));
        assert_eq!(m.get("missing"), None);
        assert_eq!(Value::Int(3).as_float(), Some(3.0));
        assert_eq!(Value::str("s").as_str(), Some("s"));
        assert_eq!(Value::Int(3).as_str(), None);
        assert_eq!(Value::from(vec![1i64]).as_list().map(|l| l.len()), Some(1));
    }

    #[test]
    fn type_names() {
        assert_eq!(Value::None.type_name(), "NoneType");
        assert_eq!(Value::Int(0).type_name(), "int");
        assert_eq!(Value::map([] as [(&str, Value); 0]).type_name(), "dict");
    }
}
