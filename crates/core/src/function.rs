//! Registered functions.
//!
//! Globus Compute decouples *defining* and *executing* functions (§II): a
//! function is registered once with the web service, receives an immutable
//! `FunctionId`, and can then be invoked many times from anywhere. The
//! allowed-functions feature of multi-user endpoints (§IV-A.4) relies on that
//! immutability.
//!
//! Three body kinds mirror the paper's function types:
//! - [`FunctionBody::PyFn`] — a mini-Python program (see `gcx-pyfn`), the
//!   stand-in for an ordinary pickled Python function;
//! - [`FunctionBody::Shell`] — a `ShellFunction` command template (§III-B);
//! - [`FunctionBody::Mpi`] — an `MPIFunction` command template (§III-C).

use serde::{Deserialize, Serialize};

use crate::clock::TimeMs;
use crate::ids::{FunctionId, IdentityId};
use crate::shellres::DEFAULT_SNIPPET_LINES;
use crate::value::Value;

/// The executable body of a registered function.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FunctionBody {
    /// A mini-Python function: source code compiled and run by `gcx-pyfn` on
    /// the worker. Arguments are bound as `args` / `kwargs`.
    PyFn {
        /// Program source.
        source: String,
    },
    /// A shell command template. `{placeholders}` are substituted from the
    /// invocation kwargs at run time (Listing 2).
    Shell {
        /// Command template, e.g. `echo '{message}'`.
        cmd: String,
        /// Maximum run duration in milliseconds; exceeded → return code 124.
        walltime_ms: Option<u64>,
        /// Number of trailing stdout/stderr lines captured.
        snippet_lines: usize,
    },
    /// An MPI application template; like `Shell` but launched under the
    /// endpoint's MPI launcher with a node partition chosen from the task's
    /// `resource_specification`.
    Mpi {
        /// Application command template (without the launcher prefix).
        cmd: String,
        /// Maximum run duration in milliseconds.
        walltime_ms: Option<u64>,
        /// Number of trailing stdout/stderr lines captured.
        snippet_lines: usize,
    },
}

impl FunctionBody {
    /// A plain mini-Python function body.
    pub fn pyfn(source: impl Into<String>) -> Self {
        FunctionBody::PyFn {
            source: source.into(),
        }
    }

    /// A shell command body with default capture settings.
    pub fn shell(cmd: impl Into<String>) -> Self {
        FunctionBody::Shell {
            cmd: cmd.into(),
            walltime_ms: None,
            snippet_lines: DEFAULT_SNIPPET_LINES,
        }
    }

    /// An MPI command body with default capture settings.
    pub fn mpi(cmd: impl Into<String>) -> Self {
        FunctionBody::Mpi {
            cmd: cmd.into(),
            walltime_ms: None,
            snippet_lines: DEFAULT_SNIPPET_LINES,
        }
    }

    /// True for MPI bodies (they require an MPI-capable engine).
    pub fn requires_mpi(&self) -> bool {
        matches!(self, FunctionBody::Mpi { .. })
    }

    /// Stable content hash of the body. Two registrations of identical code
    /// hash identically, which the SDK uses to avoid re-registering the same
    /// function "on-the-fly" (§III-A).
    pub fn content_hash(&self) -> u64 {
        match self {
            FunctionBody::PyFn { source } => Self::hash_parts("pyfn", source, None, 0),
            FunctionBody::Shell {
                cmd,
                walltime_ms,
                snippet_lines,
            } => Self::hash_parts("shell", cmd, *walltime_ms, *snippet_lines),
            FunctionBody::Mpi {
                cmd,
                walltime_ms,
                snippet_lines,
            } => Self::hash_parts("mpi", cmd, *walltime_ms, *snippet_lines),
        }
    }

    /// [`content_hash`](Self::content_hash) from a body's borrowed fields
    /// (`kind` is `"pyfn"`, `"shell"` or `"mpi"`; a pyfn's are `None`, 0).
    pub fn hash_parts(kind: &str, text: &str, walltime: Option<u64>, lines: usize) -> u64 {
        fnv1a(&[
            kind.as_bytes(),
            text.as_bytes(),
            &walltime.unwrap_or(0).to_le_bytes(),
            &(lines as u64).to_le_bytes(),
        ])
    }

    /// Pack for shipping to the web service.
    pub fn to_value(&self) -> Value {
        match self {
            FunctionBody::PyFn { source } => {
                Value::map([("kind", Value::str("pyfn")), ("source", Value::str(source))])
            }
            FunctionBody::Shell {
                cmd,
                walltime_ms,
                snippet_lines,
            } => Value::map([
                ("kind", Value::str("shell")),
                ("cmd", Value::str(cmd)),
                (
                    "walltime_ms",
                    walltime_ms.map_or(Value::None, |w| Value::Int(w as i64)),
                ),
                ("snippet_lines", Value::Int(*snippet_lines as i64)),
            ]),
            FunctionBody::Mpi {
                cmd,
                walltime_ms,
                snippet_lines,
            } => Value::map([
                ("kind", Value::str("mpi")),
                ("cmd", Value::str(cmd)),
                (
                    "walltime_ms",
                    walltime_ms.map_or(Value::None, |w| Value::Int(w as i64)),
                ),
                ("snippet_lines", Value::Int(*snippet_lines as i64)),
            ]),
        }
    }

    /// Reconstruct from the wire form. `None` if the shape is wrong.
    pub fn from_value(v: &Value) -> Option<Self> {
        let m = v.as_map()?;
        let kind = m.get("kind")?.as_str()?;
        match kind {
            "pyfn" => Some(FunctionBody::PyFn {
                source: m.get("source")?.as_str()?.to_string(),
            }),
            "shell" | "mpi" => {
                let cmd = m.get("cmd")?.as_str()?.to_string();
                let walltime_ms = match m.get("walltime_ms") {
                    Some(Value::Int(w)) if *w >= 0 => Some(*w as u64),
                    Some(Value::None) | None => None,
                    _ => return None,
                };
                let snippet_lines = m.get("snippet_lines")?.as_int()? as usize;
                Some(if kind == "shell" {
                    FunctionBody::Shell {
                        cmd,
                        walltime_ms,
                        snippet_lines,
                    }
                } else {
                    FunctionBody::Mpi {
                        cmd,
                        walltime_ms,
                        snippet_lines,
                    }
                })
            }
            _ => None,
        }
    }
}

/// FNV-1a over multiple byte slices.
fn fnv1a(chunks: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for chunk in chunks {
        for &b in *chunk {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
        // Separator so ("ab","c") != ("a","bc").
        h ^= 0xFF;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// A function as recorded by the web service: immutable body plus ownership
/// metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FunctionRecord {
    /// The function's immutable id.
    pub id: FunctionId,
    /// The identity that registered it.
    pub owner: IdentityId,
    /// The executable body.
    pub body: FunctionBody,
    /// Registration timestamp (cloud clock).
    pub registered_at: TimeMs,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_hash_is_stable_and_discriminating() {
        let a = FunctionBody::pyfn("return 1");
        let b = FunctionBody::pyfn("return 1");
        let c = FunctionBody::pyfn("return 2");
        assert_eq!(a.content_hash(), b.content_hash());
        assert_ne!(a.content_hash(), c.content_hash());
        // Same text, different kind → different hash.
        let sh = FunctionBody::shell("return 1");
        assert_ne!(a.content_hash(), sh.content_hash());
        // Shell vs MPI with the same command differ.
        assert_ne!(
            FunctionBody::shell("hostname").content_hash(),
            FunctionBody::mpi("hostname").content_hash()
        );
    }

    #[test]
    fn walltime_affects_hash() {
        let mut a = FunctionBody::shell("sleep 2");
        let b = a.clone();
        if let FunctionBody::Shell { walltime_ms, .. } = &mut a {
            *walltime_ms = Some(1000);
        }
        assert_ne!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn value_roundtrip_all_kinds() {
        for body in [
            FunctionBody::pyfn("def f():\n  return 1"),
            FunctionBody::shell("echo '{message}'"),
            FunctionBody::mpi("hostname"),
            FunctionBody::Shell {
                cmd: "sleep 2".into(),
                walltime_ms: Some(1000),
                snippet_lines: 10,
            },
        ] {
            let v = body.to_value();
            assert_eq!(FunctionBody::from_value(&v).unwrap(), body);
        }
    }

    #[test]
    fn from_value_rejects_bad_shapes() {
        assert!(FunctionBody::from_value(&Value::Int(1)).is_none());
        let v = Value::map([("kind", Value::str("wasm"))]);
        assert!(FunctionBody::from_value(&v).is_none());
        let v = Value::map([
            ("kind", Value::str("shell")),
            ("cmd", Value::str("x")),
            ("walltime_ms", Value::str("soon")),
            ("snippet_lines", Value::Int(5)),
        ]);
        assert!(FunctionBody::from_value(&v).is_none());
    }

    #[test]
    fn mpi_requires_mpi_engine() {
        assert!(FunctionBody::mpi("a").requires_mpi());
        assert!(!FunctionBody::shell("a").requires_mpi());
        assert!(!FunctionBody::pyfn("a").requires_mpi());
    }
}
