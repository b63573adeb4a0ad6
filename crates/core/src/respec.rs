//! `resource_specification` — the machine-agnostic description of the
//! resources an `MPIFunction` needs (Listing 4 of the paper).
//!
//! The user supplies any two of `num_nodes`, `ranks_per_node`, and
//! `num_ranks`; [`ResourceSpec::normalize`] fills in the third and validates
//! consistency, mirroring Parsl's representation. The `GlobusMPIEngine` uses
//! the normalized spec to carve nodes out of a batch block.

use serde::{Deserialize, Serialize};

use crate::error::{GcxError, GcxResult};
use crate::value::Value;

/// User-facing resource specification (all fields optional, as in the paper's
/// Python dict template).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ResourceSpec {
    /// Nodes required for the application instance.
    pub num_nodes: Option<u32>,
    /// Ranks (application elements) to launch per node.
    pub ranks_per_node: Option<u32>,
    /// Total number of ranks.
    pub num_ranks: Option<u32>,
}

/// A fully-determined spec after normalization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct NormalizedSpec {
    /// Nodes to allocate.
    pub num_nodes: u32,
    /// Ranks launched on each node.
    pub ranks_per_node: u32,
    /// Total ranks (= `num_nodes * ranks_per_node`).
    pub num_ranks: u32,
}

impl ResourceSpec {
    /// Spec asking for `n` whole nodes with one rank each.
    pub fn nodes(n: u32) -> Self {
        Self {
            num_nodes: Some(n),
            ranks_per_node: None,
            num_ranks: None,
        }
    }

    /// Spec asking for `nodes` nodes with `rpn` ranks per node (the form used
    /// in Listing 6).
    pub fn nodes_ranks(nodes: u32, rpn: u32) -> Self {
        Self {
            num_nodes: Some(nodes),
            ranks_per_node: Some(rpn),
            num_ranks: None,
        }
    }

    /// Resolve the spec into a fully-determined [`NormalizedSpec`].
    ///
    /// Rules (matching Parsl's semantics):
    /// - no fields set → 1 node, 1 rank per node;
    /// - any provided field must be ≥ 1;
    /// - a missing field is derived from the other two;
    /// - if all three are set they must agree
    ///   (`num_ranks == num_nodes * ranks_per_node`);
    /// - if only `num_ranks` is given, 1 node is assumed;
    /// - if `num_ranks` and `num_nodes` are given, `num_ranks` must divide
    ///   evenly across nodes.
    pub fn normalize(&self) -> GcxResult<NormalizedSpec> {
        for (name, v) in [
            ("num_nodes", self.num_nodes),
            ("ranks_per_node", self.ranks_per_node),
            ("num_ranks", self.num_ranks),
        ] {
            if v == Some(0) {
                return Err(GcxError::InvalidConfig(format!(
                    "resource_specification: {name} must be >= 1"
                )));
            }
        }

        let (nodes, rpn, ranks) = match (self.num_nodes, self.ranks_per_node, self.num_ranks) {
            (None, None, None) => (1, 1, 1),
            (Some(n), None, None) => (n, 1, n),
            (None, Some(r), None) => (1, r, r),
            (None, None, Some(t)) => (1, t, t),
            (Some(n), Some(r), None) => (n, r, n.checked_mul(r).ok_or_else(overflow)?),
            (Some(n), None, Some(t)) => {
                if t % n != 0 {
                    return Err(GcxError::InvalidConfig(format!(
                        "resource_specification: num_ranks ({t}) is not divisible by num_nodes ({n})"
                    )));
                }
                (n, t / n, t)
            }
            (None, Some(r), Some(t)) => {
                if t % r != 0 {
                    return Err(GcxError::InvalidConfig(format!(
                        "resource_specification: num_ranks ({t}) is not divisible by ranks_per_node ({r})"
                    )));
                }
                (t / r, r, t)
            }
            (Some(n), Some(r), Some(t)) => {
                let expect = n.checked_mul(r).ok_or_else(overflow)?;
                if expect != t {
                    return Err(GcxError::InvalidConfig(format!(
                        "resource_specification: num_nodes ({n}) * ranks_per_node ({r}) = {expect} != num_ranks ({t})"
                    )));
                }
                (n, r, t)
            }
        };

        Ok(NormalizedSpec {
            num_nodes: nodes,
            ranks_per_node: rpn,
            num_ranks: ranks,
        })
    }

    /// Parse a spec out of a `Value::Map` shaped like the paper's Python
    /// dict (Listing 4). Unknown keys are rejected so typos fail loudly.
    pub(crate) fn from_value(v: &Value) -> GcxResult<Self> {
        let m = v.as_map().ok_or_else(|| {
            GcxError::InvalidConfig(format!(
                "resource_specification must be a dict, got {}",
                v.type_name()
            ))
        })?;
        let mut spec = ResourceSpec::default();
        for (k, val) in m {
            let n = val
                .as_int()
                .filter(|n| *n >= 0 && *n <= u32::MAX as i64)
                .ok_or_else(|| {
                    GcxError::InvalidConfig(format!(
                        "resource_specification: {k} must be a non-negative int"
                    ))
                })? as u32;
            match k.as_str() {
                "num_nodes" => spec.num_nodes = Some(n),
                "ranks_per_node" => spec.ranks_per_node = Some(n),
                "num_ranks" => spec.num_ranks = Some(n),
                other => {
                    return Err(GcxError::InvalidConfig(format!(
                        "resource_specification: unknown key '{other}'"
                    )))
                }
            }
        }
        Ok(spec)
    }

    /// Serialize back to the dict form (for shipping inside a task spec).
    pub(crate) fn to_value(self) -> Value {
        let mut pairs: Vec<(&str, Value)> = Vec::new();
        if let Some(n) = self.num_nodes {
            pairs.push(("num_nodes", Value::Int(n as i64)));
        }
        if let Some(r) = self.ranks_per_node {
            pairs.push(("ranks_per_node", Value::Int(r as i64)));
        }
        if let Some(t) = self.num_ranks {
            pairs.push(("num_ranks", Value::Int(t as i64)));
        }
        Value::map(pairs)
    }
}

fn overflow() -> GcxError {
    GcxError::InvalidConfig("resource_specification: rank count overflow".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_spec_defaults_to_one_rank() {
        let n = ResourceSpec::default().normalize().unwrap();
        assert_eq!(
            n,
            NormalizedSpec {
                num_nodes: 1,
                ranks_per_node: 1,
                num_ranks: 1
            }
        );
    }

    #[test]
    fn listing6_shapes() {
        // Listing 6: num_nodes=2, ranks_per_node in {1, 2}.
        for (rpn, total) in [(1, 2), (2, 4)] {
            let n = ResourceSpec::nodes_ranks(2, rpn).normalize().unwrap();
            assert_eq!(n.num_ranks, total);
            assert_eq!(n.num_nodes, 2);
        }
    }

    #[test]
    fn derives_missing_field() {
        let s = ResourceSpec {
            num_nodes: Some(4),
            num_ranks: Some(16),
            ranks_per_node: None,
        };
        assert_eq!(s.normalize().unwrap().ranks_per_node, 4);

        let s = ResourceSpec {
            ranks_per_node: Some(8),
            num_ranks: Some(16),
            num_nodes: None,
        };
        assert_eq!(s.normalize().unwrap().num_nodes, 2);

        let s = ResourceSpec {
            num_ranks: Some(5),
            ..Default::default()
        };
        let n = s.normalize().unwrap();
        assert_eq!((n.num_nodes, n.ranks_per_node), (1, 5));
    }

    #[test]
    fn rejects_inconsistency() {
        let s = ResourceSpec {
            num_nodes: Some(2),
            ranks_per_node: Some(3),
            num_ranks: Some(5),
        };
        assert!(s.normalize().is_err());

        let s = ResourceSpec {
            num_nodes: Some(3),
            num_ranks: Some(7),
            ranks_per_node: None,
        };
        assert!(s.normalize().is_err());

        let s = ResourceSpec {
            ranks_per_node: Some(3),
            num_ranks: Some(7),
            num_nodes: None,
        };
        assert!(s.normalize().is_err());
    }

    #[test]
    fn rejects_zero() {
        assert!(ResourceSpec::nodes(0).normalize().is_err());
        let s = ResourceSpec {
            num_ranks: Some(0),
            ..Default::default()
        };
        assert!(s.normalize().is_err());
    }

    #[test]
    fn value_roundtrip() {
        let s = ResourceSpec::nodes_ranks(2, 4);
        let v = s.to_value();
        assert_eq!(ResourceSpec::from_value(&v).unwrap(), s);
    }

    #[test]
    fn from_value_rejects_unknown_keys_and_bad_types() {
        let v = Value::map([("num_nodez", Value::Int(2))]);
        assert!(ResourceSpec::from_value(&v).is_err());
        let v = Value::map([("num_nodes", Value::str("two"))]);
        assert!(ResourceSpec::from_value(&v).is_err());
        let v = Value::map([("num_nodes", Value::Int(-1))]);
        assert!(ResourceSpec::from_value(&v).is_err());
        assert!(ResourceSpec::from_value(&Value::Int(3)).is_err());
    }

    #[test]
    fn overflow_is_detected() {
        let s = ResourceSpec::nodes_ranks(u32::MAX, 2);
        assert!(s.normalize().is_err());
    }
}
