//! Builtin functions and methods for the pyfn language.

use std::collections::BTreeMap;

use gcx_core::value::Value;

use crate::host::Host;
use crate::interp::{Limits, PyError};

/// Result of a method call: possibly-updated receiver plus the return value.
/// The interpreter writes the receiver back when it names a variable, which
/// gives Python-style in-place mutation for `xs.append(…)` and friends.
pub(crate) struct MethodOutcome {
    /// The (possibly mutated) receiver.
    pub(crate) receiver: Value,
    /// The method's return value.
    pub(crate) ret: Value,
}

fn type_err(msg: impl Into<String>) -> PyError {
    PyError::new("TypeError", msg)
}

fn value_err(msg: impl Into<String>) -> PyError {
    PyError::new("ValueError", msg)
}

/// Invoke a builtin function. Returns `None` when `name` is not a builtin
/// (the interpreter then looks for a user-defined function).
pub(crate) fn call_builtin(
    name: &str,
    args: &[Value],
    host: &mut dyn Host,
    limits: &Limits,
) -> Option<Result<Value, PyError>> {
    let r = match name {
        "len" => one(args, "len").and_then(|v| match v {
            Value::Str(s) => Ok(Value::Int(s.chars().count() as i64)),
            Value::Bytes(b) => Ok(Value::Int(b.len() as i64)),
            Value::List(l) => Ok(Value::Int(l.len() as i64)),
            Value::Map(m) => Ok(Value::Int(m.len() as i64)),
            other => Err(type_err(format!(
                "object of type '{}' has no len()",
                other.type_name()
            ))),
        }),
        "str" => one(args, "str").map(|v| Value::Str(v.to_string())),
        "repr" => one(args, "repr").map(|v| {
            Value::Str(match v {
                Value::Str(s) => format!("'{s}'"),
                other => other.to_string(),
            })
        }),
        "int" => one(args, "int").and_then(|v| match v {
            Value::Int(i) => Ok(Value::Int(*i)),
            Value::Float(f) => Ok(Value::Int(*f as i64)),
            Value::Bool(b) => Ok(Value::Int(*b as i64)),
            Value::Str(s) => s
                .trim()
                .parse::<i64>()
                .map(Value::Int)
                .map_err(|_| value_err(format!("invalid literal for int(): '{s}'"))),
            other => Err(type_err(format!(
                "int() argument must not be {}",
                other.type_name()
            ))),
        }),
        "float" => one(args, "float").and_then(|v| match v {
            Value::Int(i) => Ok(Value::Float(*i as f64)),
            Value::Float(f) => Ok(Value::Float(*f)),
            Value::Str(s) => s
                .trim()
                .parse::<f64>()
                .map(Value::Float)
                .map_err(|_| value_err(format!("could not convert string to float: '{s}'"))),
            other => Err(type_err(format!(
                "float() argument must not be {}",
                other.type_name()
            ))),
        }),
        "bool" => one(args, "bool").map(|v| Value::Bool(v.truthy())),
        "abs" => one(args, "abs").and_then(|v| match v {
            Value::Int(i) => Ok(Value::Int(i.wrapping_abs())),
            Value::Float(f) => Ok(Value::Float(f.abs())),
            other => Err(type_err(format!(
                "bad operand type for abs(): '{}'",
                other.type_name()
            ))),
        }),
        "min" | "max" => {
            let items: Vec<Value> = if args.len() == 1 {
                match &args[0] {
                    Value::List(l) => l.clone(),
                    other => {
                        return Some(Err(type_err(format!(
                            "'{}' object is not iterable",
                            other.type_name()
                        ))))
                    }
                }
            } else {
                args.to_vec()
            };
            if items.is_empty() {
                return Some(Err(value_err(format!("{name}() of empty sequence"))));
            }
            let mut best = items[0].clone();
            for item in &items[1..] {
                let cmp = match compare(item, &best) {
                    Some(c) => c,
                    None => return Some(Err(type_err("values are not comparable"))),
                };
                let take = if name == "min" {
                    cmp.is_lt()
                } else {
                    cmp.is_gt()
                };
                if take {
                    best = item.clone();
                }
            }
            Ok(best)
        }
        "sum" => one(args, "sum").and_then(|v| match v {
            Value::List(l) => {
                let mut int_total: i64 = 0;
                let mut float_total = 0.0f64;
                let mut is_float = false;
                for item in l {
                    match item {
                        Value::Int(i) => {
                            int_total = int_total.wrapping_add(*i);
                            float_total += *i as f64;
                        }
                        Value::Float(f) => {
                            is_float = true;
                            float_total += f;
                        }
                        other => {
                            return Err(type_err(format!(
                                "unsupported operand type for sum: '{}'",
                                other.type_name()
                            )))
                        }
                    }
                }
                Ok(if is_float {
                    Value::Float(float_total)
                } else {
                    Value::Int(int_total)
                })
            }
            other => Err(type_err(format!(
                "'{}' object is not iterable",
                other.type_name()
            ))),
        }),
        "range" => {
            let (lo, hi, step) = match args {
                [Value::Int(hi)] => (0, *hi, 1),
                [Value::Int(lo), Value::Int(hi)] => (*lo, *hi, 1),
                [Value::Int(lo), Value::Int(hi), Value::Int(step)] => (*lo, *hi, *step),
                _ => return Some(Err(type_err("range() expects 1-3 int arguments"))),
            };
            if step == 0 {
                return Some(Err(value_err("range() step must not be zero")));
            }
            let count = if step > 0 {
                ((hi - lo).max(0) as u64).div_ceil(step as u64)
            } else {
                ((lo - hi).max(0) as u64).div_ceil((-step) as u64)
            };
            if count > limits.max_collection as u64 {
                return Some(Err(PyError::new(
                    "MemoryError",
                    format!("range of {count} elements exceeds the collection limit"),
                )));
            }
            let mut items = Vec::with_capacity(count as usize);
            let mut v = lo;
            for _ in 0..count {
                items.push(Value::Int(v));
                v += step;
            }
            Ok(Value::List(items))
        }
        "sorted" => one(args, "sorted").and_then(|v| match v {
            Value::List(l) => {
                let mut items = l.clone();
                let mut bad = false;
                items.sort_by(|a, b| match compare(a, b) {
                    Some(c) => c,
                    None => {
                        bad = true;
                        std::cmp::Ordering::Equal
                    }
                });
                if bad {
                    Err(type_err("sorted(): values are not comparable"))
                } else {
                    Ok(Value::List(items))
                }
            }
            other => Err(type_err(format!(
                "'{}' object is not iterable",
                other.type_name()
            ))),
        }),
        "reversed" => one(args, "reversed").and_then(|v| match v {
            Value::List(l) => Ok(Value::List(l.iter().rev().cloned().collect())),
            other => Err(type_err(format!(
                "'{}' object is not reversible",
                other.type_name()
            ))),
        }),
        "round" => match args {
            [v] => match v.as_float() {
                Some(f) => Ok(Value::Int(f.round() as i64)),
                None => Err(type_err("round() expects a number")),
            },
            [v, Value::Int(nd)] => match v.as_float() {
                Some(f) => {
                    let scale = 10f64.powi(*nd as i32);
                    Ok(Value::Float((f * scale).round() / scale))
                }
                None => Err(type_err("round() expects a number")),
            },
            _ => Err(type_err("round() expects 1-2 arguments")),
        },
        "type" => one(args, "type").map(|v| Value::Str(v.type_name().to_string())),
        "print" => {
            let line = args
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(" ");
            host.print(&line);
            Ok(Value::None)
        }
        "sleep" => one(args, "sleep").and_then(|v| match v.as_float() {
            Some(s) if s >= 0.0 => {
                host.sleep(s);
                Ok(Value::None)
            }
            Some(_) => Err(value_err("sleep() expects a non-negative number")),
            None => Err(type_err("sleep() expects a number")),
        }),
        "rand" => {
            if !args.is_empty() {
                return Some(Err(type_err("rand() takes no arguments")));
            }
            Ok(Value::Float(host.rand()))
        }
        "hostname" => {
            if !args.is_empty() {
                return Some(Err(type_err("hostname() takes no arguments")));
            }
            Ok(Value::Str(host.hostname()))
        }
        "enumerate" => one(args, "enumerate").and_then(|v| match v {
            Value::List(l) => Ok(Value::List(
                l.iter()
                    .enumerate()
                    .map(|(i, item)| Value::List(vec![Value::Int(i as i64), item.clone()]))
                    .collect(),
            )),
            other => Err(type_err(format!(
                "'{}' object is not iterable",
                other.type_name()
            ))),
        }),
        "zip" => match args {
            [Value::List(a), Value::List(b)] => Ok(Value::List(
                a.iter()
                    .zip(b.iter())
                    .map(|(x, y)| Value::List(vec![x.clone(), y.clone()]))
                    .collect(),
            )),
            _ => Err(type_err("zip() expects two lists")),
        },
        "any" => one(args, "any").and_then(|v| match v {
            Value::List(l) => Ok(Value::Bool(l.iter().any(Value::truthy))),
            other => Err(type_err(format!(
                "'{}' object is not iterable",
                other.type_name()
            ))),
        }),
        "all" => one(args, "all").and_then(|v| match v {
            Value::List(l) => Ok(Value::Bool(l.iter().all(Value::truthy))),
            other => Err(type_err(format!(
                "'{}' object is not iterable",
                other.type_name()
            ))),
        }),
        "bytes" => one(args, "bytes").and_then(|v| match v {
            Value::Int(n) if *n >= 0 && (*n as usize) <= limits.max_collection * 1024 => {
                Ok(Value::Bytes(vec![0u8; *n as usize]))
            }
            Value::Int(_) => Err(value_err("bytes() size out of range")),
            Value::Str(s) => Ok(Value::Bytes(s.as_bytes().to_vec())),
            other => Err(type_err(format!(
                "bytes() argument must not be {}",
                other.type_name()
            ))),
        }),
        _ => return None,
    };
    Some(r)
}

fn one<'a>(args: &'a [Value], name: &str) -> Result<&'a Value, PyError> {
    match args {
        [v] => Ok(v),
        _ => Err(type_err(format!(
            "{name}() takes exactly one argument ({} given)",
            args.len()
        ))),
    }
}

/// Python-style comparison for ordering. `None` when the types are not
/// mutually orderable.
pub(crate) fn compare(a: &Value, b: &Value) -> Option<std::cmp::Ordering> {
    use std::cmp::Ordering;
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Some(x.cmp(y)),
        (Value::Float(_) | Value::Int(_), Value::Float(_) | Value::Int(_)) => {
            a.as_float().unwrap().partial_cmp(&b.as_float().unwrap())
        }
        (Value::Str(x), Value::Str(y)) => Some(x.cmp(y)),
        (Value::Bool(x), Value::Bool(y)) => Some(x.cmp(y)),
        (Value::List(x), Value::List(y)) => {
            for (xi, yi) in x.iter().zip(y.iter()) {
                match compare(xi, yi)? {
                    Ordering::Equal => continue,
                    other => return Some(other),
                }
            }
            Some(x.len().cmp(&y.len()))
        }
        _ => None,
    }
}

/// Invoke a method on a receiver value.
pub(crate) fn call_method(
    recv: Value,
    method: &str,
    args: &[Value],
) -> Result<MethodOutcome, PyError> {
    match recv {
        Value::Str(s) => str_method(s, method, args),
        Value::List(l) => list_method(l, method, args),
        Value::Map(m) => dict_method(m, method, args),
        other => Err(type_err(format!(
            "'{}' object has no method '{method}'",
            other.type_name()
        ))),
    }
}

fn keep(receiver: Value, ret: Value) -> Result<MethodOutcome, PyError> {
    Ok(MethodOutcome { receiver, ret })
}

fn str_method(s: String, method: &str, args: &[Value]) -> Result<MethodOutcome, PyError> {
    let ret = match (method, args) {
        ("upper", []) => Value::Str(s.to_uppercase()),
        ("lower", []) => Value::Str(s.to_lowercase()),
        ("strip", []) => Value::Str(s.trim().to_string()),
        ("startswith", [Value::Str(p)]) => Value::Bool(s.starts_with(p.as_str())),
        ("endswith", [Value::Str(p)]) => Value::Bool(s.ends_with(p.as_str())),
        ("split", []) => Value::List(s.split_whitespace().map(Value::str).collect()),
        ("split", [Value::Str(sep)]) if !sep.is_empty() => {
            Value::List(s.split(sep.as_str()).map(Value::str).collect())
        }
        ("replace", [Value::Str(from), Value::Str(to)]) => {
            Value::Str(s.replace(from.as_str(), to.as_str()))
        }
        ("join", [Value::List(items)]) => {
            let parts: Result<Vec<String>, PyError> = items
                .iter()
                .map(|v| match v {
                    Value::Str(x) => Ok(x.clone()),
                    other => Err(type_err(format!(
                        "sequence item: expected str, {} found",
                        other.type_name()
                    ))),
                })
                .collect();
            Value::Str(parts?.join(&s))
        }
        ("find", [Value::Str(needle)]) => Value::Int(
            s.find(needle.as_str())
                .map(|b| s[..b].chars().count() as i64)
                .unwrap_or(-1),
        ),
        ("count", [Value::Str(needle)]) if !needle.is_empty() => {
            Value::Int(s.matches(needle.as_str()).count() as i64)
        }
        ("format", _) => {
            // Positional formatting only: "{} and {}".format(a, b).
            let mut out = String::new();
            let mut it = args.iter();
            let mut rest = s.as_str();
            while let Some(idx) = rest.find("{}") {
                out.push_str(&rest[..idx]);
                match it.next() {
                    Some(v) => out.push_str(&v.to_string()),
                    None => return Err(value_err("format(): not enough arguments")),
                }
                rest = &rest[idx + 2..];
            }
            out.push_str(rest);
            Value::Str(out)
        }
        _ => {
            return Err(type_err(format!(
                "str method '{method}' with {} args is not supported",
                args.len()
            )))
        }
    };
    keep(Value::Str(s), ret)
}

fn list_method(mut l: Vec<Value>, method: &str, args: &[Value]) -> Result<MethodOutcome, PyError> {
    match (method, args) {
        ("append", [v]) => {
            l.push(v.clone());
            keep(Value::List(l), Value::None)
        }
        ("extend", [Value::List(other)]) => {
            l.extend(other.iter().cloned());
            keep(Value::List(l), Value::None)
        }
        ("pop", []) => match l.pop() {
            Some(v) => keep(Value::List(l), v),
            None => Err(PyError::new("IndexError", "pop from empty list")),
        },
        ("pop", [Value::Int(i)]) => {
            let idx = normalize_index(*i, l.len())
                .ok_or_else(|| PyError::new("IndexError", "pop index out of range"))?;
            let v = l.remove(idx);
            keep(Value::List(l), v)
        }
        ("insert", [Value::Int(i), v]) => {
            let idx = (*i).clamp(0, l.len() as i64) as usize;
            l.insert(idx, v.clone());
            keep(Value::List(l), Value::None)
        }
        ("index", [v]) => match l.iter().position(|x| x == v) {
            Some(i) => keep(Value::List(l), Value::Int(i as i64)),
            None => Err(value_err("value not in list")),
        },
        ("count", [v]) => {
            let n = l.iter().filter(|x| *x == v).count();
            keep(Value::List(l), Value::Int(n as i64))
        }
        ("reverse", []) => {
            l.reverse();
            keep(Value::List(l), Value::None)
        }
        ("sort", []) => {
            let mut bad = false;
            l.sort_by(|a, b| {
                compare(a, b).unwrap_or_else(|| {
                    bad = true;
                    std::cmp::Ordering::Equal
                })
            });
            if bad {
                Err(type_err("sort(): values are not comparable"))
            } else {
                keep(Value::List(l), Value::None)
            }
        }
        _ => Err(type_err(format!(
            "list method '{method}' with {} args is not supported",
            args.len()
        ))),
    }
}

fn dict_method(
    mut m: BTreeMap<String, Value>,
    method: &str,
    args: &[Value],
) -> Result<MethodOutcome, PyError> {
    match (method, args) {
        ("keys", []) => {
            let keys = m.keys().cloned().map(Value::Str).collect();
            keep(Value::Map(m), Value::List(keys))
        }
        ("values", []) => {
            let vals = m.values().cloned().collect();
            keep(Value::Map(m), Value::List(vals))
        }
        ("items", []) => {
            let items = m
                .iter()
                .map(|(k, v)| Value::List(vec![Value::Str(k.clone()), v.clone()]))
                .collect();
            keep(Value::Map(m), Value::List(items))
        }
        ("get", [Value::Str(k)]) => {
            let v = m.get(k).cloned().unwrap_or(Value::None);
            keep(Value::Map(m), v)
        }
        ("get", [Value::Str(k), default]) => {
            let v = m.get(k).cloned().unwrap_or_else(|| default.clone());
            keep(Value::Map(m), v)
        }
        ("pop", [Value::Str(k)]) => match m.remove(k) {
            Some(v) => keep(Value::Map(m), v),
            None => Err(PyError::new("KeyError", format!("'{k}'"))),
        },
        ("update", [Value::Map(other)]) => {
            for (k, v) in other {
                m.insert(k.clone(), v.clone());
            }
            keep(Value::Map(m), Value::None)
        }
        _ => Err(type_err(format!(
            "dict method '{method}' with {} args is not supported",
            args.len()
        ))),
    }
}

/// Convert a possibly-negative Python index into a checked vector index.
pub(crate) fn normalize_index(i: i64, len: usize) -> Option<usize> {
    let len = len as i64;
    let idx = if i < 0 { i + len } else { i };
    if (0..len).contains(&idx) {
        Some(idx as usize)
    } else {
        None
    }
}

#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;
    use crate::host::CapturingHost;

    pub(crate) fn call(name: &str, args: &[Value]) -> Result<Value, PyError> {
        let mut host = CapturingHost::default();
        call_builtin(name, args, &mut host, &Limits::default()).expect("is a builtin")
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::call;
    use super::*;
    use crate::host::CapturingHost;

    #[test]
    fn len_str_int_float() {
        assert_eq!(call("len", &[Value::str("héllo")]).unwrap(), Value::Int(5));
        assert_eq!(
            call("len", &[Value::List(vec![Value::None])]).unwrap(),
            Value::Int(1)
        );
        assert!(call("len", &[Value::Int(3)]).is_err());
        assert_eq!(call("str", &[Value::Int(42)]).unwrap(), Value::str("42"));
        assert_eq!(call("int", &[Value::str(" 7 ")]).unwrap(), Value::Int(7));
        assert_eq!(call("int", &[Value::Float(3.9)]).unwrap(), Value::Int(3));
        assert!(call("int", &[Value::str("x")]).is_err());
        assert_eq!(call("float", &[Value::Int(2)]).unwrap(), Value::Float(2.0));
    }

    #[test]
    fn range_shapes() {
        assert_eq!(
            call("range", &[Value::Int(3)]).unwrap(),
            Value::List(vec![Value::Int(0), Value::Int(1), Value::Int(2)])
        );
        assert_eq!(
            call("range", &[Value::Int(1), Value::Int(4)])
                .unwrap()
                .as_list()
                .unwrap()
                .len(),
            3
        );
        assert_eq!(
            call("range", &[Value::Int(10), Value::Int(0), Value::Int(-3)]).unwrap(),
            Value::List(vec![
                Value::Int(10),
                Value::Int(7),
                Value::Int(4),
                Value::Int(1)
            ])
        );
        assert!(call("range", &[Value::Int(1), Value::Int(2), Value::Int(0)]).is_err());
        assert_eq!(
            call("range", &[Value::Int(-5)]).unwrap(),
            Value::List(vec![])
        );
    }

    #[test]
    fn range_respects_collection_limit() {
        let err = call("range", &[Value::Int(100_000_000)]).unwrap_err();
        assert_eq!(err.kind, "MemoryError");
    }

    #[test]
    fn min_max_sum_sorted() {
        let l = Value::List(vec![Value::Int(3), Value::Int(1), Value::Int(2)]);
        assert_eq!(
            call("min", std::slice::from_ref(&l)).unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            call("max", std::slice::from_ref(&l)).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            call("sum", std::slice::from_ref(&l)).unwrap(),
            Value::Int(6)
        );
        assert_eq!(
            call("sorted", &[l]).unwrap(),
            Value::List(vec![Value::Int(1), Value::Int(2), Value::Int(3)])
        );
        assert_eq!(
            call("max", &[Value::Int(1), Value::Int(9)]).unwrap(),
            Value::Int(9)
        );
        assert!(call("min", &[Value::List(vec![])]).is_err());
        assert!(call(
            "sorted",
            &[Value::List(vec![Value::Int(1), Value::str("x")])]
        )
        .is_err());
    }

    #[test]
    fn print_and_sleep_go_to_host() {
        let mut host = CapturingHost::default();
        call_builtin(
            "print",
            &[Value::str("hi"), Value::Int(2)],
            &mut host,
            &Limits::default(),
        )
        .unwrap()
        .unwrap();
        call_builtin("sleep", &[Value::Float(0.5)], &mut host, &Limits::default())
            .unwrap()
            .unwrap();
        assert_eq!(host.stdout, vec!["hi 2"]);
        assert_eq!(host.slept, 0.5);
    }

    #[test]
    fn unknown_builtin_is_none() {
        let mut host = CapturingHost::default();
        assert!(call_builtin("frobnicate", &[], &mut host, &Limits::default()).is_none());
    }

    #[test]
    fn str_methods() {
        let out = call_method(Value::str("a,b,c"), "split", &[Value::str(",")]).unwrap();
        assert_eq!(out.ret.as_list().unwrap().len(), 3);
        let out = call_method(
            Value::str("-"),
            "join",
            &[Value::List(vec![Value::str("x"), Value::str("y")])],
        )
        .unwrap();
        assert_eq!(out.ret, Value::str("x-y"));
        let out = call_method(
            Value::str("{} + {}"),
            "format",
            &[Value::Int(1), Value::Int(2)],
        )
        .unwrap();
        assert_eq!(out.ret, Value::str("1 + 2"));
        assert!(call_method(Value::str("{} {}"), "format", &[Value::Int(1)]).is_err());
        let out = call_method(Value::str("AbC"), "lower", &[]).unwrap();
        assert_eq!(out.ret, Value::str("abc"));
        let out = call_method(Value::str("hello"), "find", &[Value::str("llo")]).unwrap();
        assert_eq!(out.ret, Value::Int(2));
    }

    #[test]
    fn list_methods_mutate_receiver() {
        let out =
            call_method(Value::List(vec![Value::Int(1)]), "append", &[Value::Int(2)]).unwrap();
        assert_eq!(out.receiver.as_list().unwrap().len(), 2);
        assert_eq!(out.ret, Value::None);

        let out = call_method(out.receiver, "pop", &[]).unwrap();
        assert_eq!(out.ret, Value::Int(2));
        assert_eq!(out.receiver.as_list().unwrap().len(), 1);

        assert!(call_method(Value::List(vec![]), "pop", &[]).is_err());
    }

    #[test]
    fn dict_methods() {
        let d = Value::map([("b", Value::Int(2)), ("a", Value::Int(1))]);
        let out = call_method(d.clone(), "keys", &[]).unwrap();
        assert_eq!(out.ret, Value::List(vec![Value::str("a"), Value::str("b")]));
        let out = call_method(d.clone(), "get", &[Value::str("zz"), Value::Int(9)]).unwrap();
        assert_eq!(out.ret, Value::Int(9));
        let out = call_method(d.clone(), "pop", &[Value::str("a")]).unwrap();
        assert_eq!(out.ret, Value::Int(1));
        assert_eq!(out.receiver.as_map().unwrap().len(), 1);
        assert!(call_method(d, "pop", &[Value::str("zz")]).is_err());
    }

    #[test]
    fn normalize_index_handles_negatives() {
        assert_eq!(normalize_index(0, 3), Some(0));
        assert_eq!(normalize_index(-1, 3), Some(2));
        assert_eq!(normalize_index(3, 3), None);
        assert_eq!(normalize_index(-4, 3), None);
        assert_eq!(normalize_index(0, 0), None);
    }

    #[test]
    fn bytes_builtin() {
        let v = call("bytes", &[Value::Int(16)]).unwrap();
        assert!(matches!(v, Value::Bytes(ref b) if b.len() == 16));
        let v = call("bytes", &[Value::str("ab")]).unwrap();
        assert_eq!(v, Value::Bytes(vec![97, 98]));
        assert!(call("bytes", &[Value::Int(-1)]).is_err());
    }

    #[test]
    fn compare_mixed_numerics() {
        assert_eq!(
            compare(&Value::Int(1), &Value::Float(1.5)),
            Some(std::cmp::Ordering::Less)
        );
        assert_eq!(compare(&Value::str("a"), &Value::Int(1)), None);
    }
}

#[cfg(test)]
mod iterable_builtin_tests {
    use super::tests_support::call;
    use gcx_core::value::Value;

    #[test]
    fn enumerate_pairs() {
        let v = call(
            "enumerate",
            &[Value::List(vec![Value::str("a"), Value::str("b")])],
        )
        .unwrap();
        let l = v.as_list().unwrap();
        assert_eq!(l[0], Value::List(vec![Value::Int(0), Value::str("a")]));
        assert_eq!(l[1], Value::List(vec![Value::Int(1), Value::str("b")]));
        assert!(call("enumerate", &[Value::Int(1)]).is_err());
    }

    #[test]
    fn zip_pairs_to_shorter() {
        let a = Value::List(vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        let b = Value::List(vec![Value::str("x"), Value::str("y")]);
        let v = call("zip", &[a, b]).unwrap();
        assert_eq!(v.as_list().unwrap().len(), 2);
        assert!(call("zip", &[Value::Int(1), Value::Int(2)]).is_err());
    }

    #[test]
    fn any_all_truthiness() {
        let l = Value::List(vec![Value::Int(0), Value::Int(2)]);
        assert_eq!(
            call("any", std::slice::from_ref(&l)).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(call("all", &[l]).unwrap(), Value::Bool(false));
        assert_eq!(
            call("any", &[Value::List(vec![])]).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            call("all", &[Value::List(vec![])]).unwrap(),
            Value::Bool(true)
        );
    }
}
