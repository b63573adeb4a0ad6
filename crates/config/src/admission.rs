//! Admission-control configuration for the cloud service: per-tenant
//! token-bucket rate limits, in-flight quotas, and the brownout threshold
//! that starts shedding low-priority traffic when dispatch lags.
//! Administrators keep this in the same mini-YAML dialect as endpoint
//! configs:
//!
//! ```yaml
//! admission:
//!   enabled: true
//!   rate_per_sec: 500
//!   burst: 1000
//!   max_inflight: 10000
//!   retry_after_cap_ms: 5000
//!   brownout_threshold_ms: 2000
//!   brownout_min_priority: 0
//! ```
//!
//! The spec is a plain data struct (this crate does not depend on
//! `gcx-cloud`); the service takes it as it is, under the name
//! `gcx_cloud::AdmissionConfig`, in `CloudConfig::admission`. Parsed
//! specs are validated against [`AdmissionSpec::schema`] so a typo'd key
//! or a zero bucket fails at load time, not under load.

use gcx_core::error::{GcxError, GcxResult};
use gcx_core::value::Value;

use crate::schema::Schema;
use crate::yaml::parse_yaml;

/// A parsed, validated admission-control spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionSpec {
    /// Master switch. When `false` every submit is admitted (the default,
    /// preserving pre-admission behavior).
    pub enabled: bool,
    /// Steady-state tokens (task submissions) granted per tenant per second.
    pub rate_per_sec: u64,
    /// Bucket capacity: the largest burst a tenant may submit at once.
    pub burst: u64,
    /// Maximum non-terminal tasks a single tenant may have in the service
    /// at once; `0` = unlimited.
    pub max_inflight: u64,
    /// Upper bound on the `retry_after_ms` hint returned with a typed
    /// `Overloaded` rejection.
    pub retry_after_cap_ms: u64,
    /// Brownout trigger: when the oldest undispatched task has waited
    /// longer than this, the service starts shedding low-priority traffic.
    /// `0` disables brownout.
    pub brownout_threshold_ms: u64,
    /// During brownout only tasks with `priority >=` this value are
    /// admitted; everything below is shed with a typed `Overloaded`.
    pub brownout_min_priority: i64,
}

impl Default for AdmissionSpec {
    fn default() -> Self {
        Self {
            enabled: false,
            rate_per_sec: 500,
            burst: 1000,
            max_inflight: 10_000,
            retry_after_cap_ms: 5_000,
            brownout_threshold_ms: 2_000,
            brownout_min_priority: 0,
        }
    }
}

impl AdmissionSpec {
    /// An enabled spec with the default limits.
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }

    /// The validation schema for the `admission:` block.
    pub(crate) fn schema() -> Schema {
        Schema::compile(&Value::map([
            ("type", Value::str("object")),
            ("additionalProperties", Value::Bool(false)),
            (
                "properties",
                Value::map([
                    ("enabled", Value::map([("type", Value::str("boolean"))])),
                    (
                        "rate_per_sec",
                        Value::map([("type", Value::str("integer")), ("minimum", Value::Int(1))]),
                    ),
                    (
                        "burst",
                        Value::map([("type", Value::str("integer")), ("minimum", Value::Int(1))]),
                    ),
                    (
                        "max_inflight",
                        Value::map([("type", Value::str("integer")), ("minimum", Value::Int(0))]),
                    ),
                    (
                        "retry_after_cap_ms",
                        Value::map([("type", Value::str("integer")), ("minimum", Value::Int(1))]),
                    ),
                    (
                        "brownout_threshold_ms",
                        Value::map([("type", Value::str("integer")), ("minimum", Value::Int(0))]),
                    ),
                    (
                        "brownout_min_priority",
                        Value::map([("type", Value::str("integer"))]),
                    ),
                ]),
            ),
        ]))
        .expect("admission schema compiles")
    }

    /// Build a spec from a parsed `admission:` block, validating against
    /// [`AdmissionSpec::schema`]. Absent keys fall back to the defaults.
    pub(crate) fn from_value(v: &Value) -> GcxResult<Self> {
        Self::schema().validate(v)?;
        let d = Self::default();
        let int = |key: &str, fallback: u64| -> u64 {
            v.get(key)
                .and_then(Value::as_int)
                .map(|n| n.max(0) as u64)
                .unwrap_or(fallback)
        };
        Ok(Self {
            enabled: v
                .get("enabled")
                .and_then(Value::as_bool)
                .unwrap_or(d.enabled),
            rate_per_sec: int("rate_per_sec", d.rate_per_sec),
            burst: int("burst", d.burst),
            max_inflight: int("max_inflight", d.max_inflight),
            retry_after_cap_ms: int("retry_after_cap_ms", d.retry_after_cap_ms),
            brownout_threshold_ms: int("brownout_threshold_ms", d.brownout_threshold_ms),
            brownout_min_priority: v
                .get("brownout_min_priority")
                .and_then(Value::as_int)
                .unwrap_or(d.brownout_min_priority),
        })
    }

    /// Parse a YAML document and extract its `admission:` block (or treat
    /// the whole document as the block when the key is absent but the
    /// fields are top-level).
    pub fn from_yaml(text: &str) -> GcxResult<Self> {
        let doc = parse_yaml(text)?;
        let block = match doc.get("admission") {
            Some(b) => b,
            None if doc.as_map().is_some() => &doc,
            _ => return Err(GcxError::Parse("admission spec: expected a mapping".into())),
        };
        Self::from_value(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_disabled() {
        let d = AdmissionSpec::default();
        assert!(!d.enabled);
        assert!(AdmissionSpec::enabled().enabled);
    }

    #[test]
    fn parses_nested_block() {
        let spec = AdmissionSpec::from_yaml(
            "admission:\n  enabled: true\n  rate_per_sec: 50\n  burst: 100\n  max_inflight: 8\n  retry_after_cap_ms: 250\n  brownout_threshold_ms: 100\n  brownout_min_priority: 5\n",
        )
        .unwrap();
        assert_eq!(
            spec,
            AdmissionSpec {
                enabled: true,
                rate_per_sec: 50,
                burst: 100,
                max_inflight: 8,
                retry_after_cap_ms: 250,
                brownout_threshold_ms: 100,
                brownout_min_priority: 5,
            }
        );
    }

    #[test]
    fn parses_top_level_fields() {
        let spec = AdmissionSpec::from_yaml("rate_per_sec: 7\n").unwrap();
        assert_eq!(spec.rate_per_sec, 7);
        assert_eq!(spec.burst, AdmissionSpec::default().burst);
    }

    #[test]
    fn rejects_zero_rate_and_unknown_keys() {
        assert!(AdmissionSpec::from_yaml("admission:\n  rate_per_sec: 0\n").is_err());
        assert!(AdmissionSpec::from_yaml("admission:\n  rate_per_second: 5\n").is_err());
    }
}
