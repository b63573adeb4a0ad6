//! The SLO health plane: a machine-readable health document per replica.
//!
//! Counters and histograms (`gcx_core::metrics`) tell an operator what
//! happened; they do not tell a *client* whether this replica should keep
//! receiving traffic. The health document folds the replica's burn-rate
//! signals — submit p99 versus its target, overload-rejection ratio,
//! brownout state, handover count, heartbeat staleness — into one
//! [`HealthDoc`] with a three-state verdict, served through both metric
//! expositions and the `health` wire method so wire clients and the
//! federated SDK can route away from degraded replicas using data instead
//! of timeouts.
//!
//! The verdict policy is deliberately simple and explicit (see
//! [`HealthDoc::assess`] and the three thresholds below):
//!
//! - **Unhealthy** — the replica is shedding more than the allowed fraction
//!   of submissions (`reject_ratio > reject_ratio_max`). Sending it more
//!   work mostly buys typed rejections; clients should prefer any
//!   non-unhealthy replica.
//! - **Degraded** — the replica still accepts work but is missing its
//!   latency target, is in brownout, or has stale endpoints. Clients may
//!   keep using it, but should prefer an `Ok` replica when one exists.
//! - **Ok** — within SLO on every axis.

use serde::{Deserialize, Serialize};

use crate::value::Value;

/// Target for the submit-path p99 (milliseconds); exceeding it marks the
/// replica Degraded.
const SUBMIT_P99_TARGET_MS: u64 = 1000;

/// Maximum tolerated overload-rejection ratio, in permille of submissions
/// seen; exceeding it marks the replica Unhealthy.
const REJECT_RATIO_MAX_PERMILLE: u64 = 50;

/// An endpoint whose last heartbeat is older than this is counted stale;
/// any stale endpoint marks the replica Degraded.
pub const HEARTBEAT_STALE_MS: u64 = 30_000;

/// The three-state verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HealthStatus {
    Ok,
    Degraded,
    Unhealthy,
}

impl HealthStatus {
    pub fn as_str(&self) -> &'static str {
        match self {
            HealthStatus::Ok => "ok",
            HealthStatus::Degraded => "degraded",
            HealthStatus::Unhealthy => "unhealthy",
        }
    }

    /// Unknown strings degrade to `Degraded` — a peer whose health cannot
    /// be parsed should not be preferred, but is not provably shedding.
    pub(crate) fn parse(s: &str) -> Self {
        match s {
            "ok" => HealthStatus::Ok,
            "unhealthy" => HealthStatus::Unhealthy,
            _ => HealthStatus::Degraded,
        }
    }
}

/// Per-tenant admission ledger entry inside a [`HealthDoc`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantHealth {
    pub tenant: String,
    /// Tasks admitted for this tenant since startup.
    pub admitted: u64,
    /// Tasks rejected (overload / quota / brownout) for this tenant.
    pub rejected: u64,
    /// `rejected / (admitted + rejected)` in permille.
    pub(crate) reject_ratio_permille: u64,
}

impl TenantHealth {
    pub fn new(tenant: impl Into<String>, admitted: u64, rejected: u64) -> Self {
        Self {
            tenant: tenant.into(),
            admitted,
            rejected,
            reject_ratio_permille: ratio_permille(rejected, admitted + rejected),
        }
    }

    fn to_value(&self) -> Value {
        Value::map([
            ("tenant", Value::str(&self.tenant)),
            ("admitted", Value::Int(self.admitted as i64)),
            ("rejected", Value::Int(self.rejected as i64)),
            (
                "reject_ratio_permille",
                Value::Int(self.reject_ratio_permille as i64),
            ),
        ])
    }

    fn from_value(v: &Value) -> Option<Self> {
        Some(Self {
            tenant: v.get("tenant")?.as_str()?.to_string(),
            admitted: v.get("admitted")?.as_int()?.max(0) as u64,
            rejected: v.get("rejected")?.as_int()?.max(0) as u64,
            reject_ratio_permille: v.get("reject_ratio_permille")?.as_int()?.max(0) as u64,
        })
    }
}

/// `num / den` in permille, 0 when the denominator is 0.
pub fn ratio_permille(num: u64, den: u64) -> u64 {
    num.saturating_mul(1000).checked_div(den).unwrap_or(0)
}

/// The machine-readable health document one replica publishes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthDoc {
    /// Replica id within the federation (0 for a standalone service).
    pub replica: u32,
    pub status: HealthStatus,
    /// Observed submit-path p99 (bucket upper bound, milliseconds).
    pub submit_p99_ms: u64,
    pub submit_p99_target_ms: u64,
    /// Overall overload-rejection ratio in permille of submissions seen.
    pub reject_ratio_permille: u64,
    pub reject_ratio_max_permille: u64,
    /// Whether lag-driven brownout shedding is currently active.
    pub brownout: bool,
    /// Federation handovers this replica has performed (dead peers
    /// absorbed) — a burst signals instability around it.
    pub handovers: u64,
    /// Endpoints whose heartbeat is older than the staleness threshold.
    pub stale_endpoints: u64,
    /// Total registered endpoints.
    pub endpoints: u64,
    /// Per-tenant admission ledger, sorted by tenant.
    pub tenants: Vec<TenantHealth>,
}

impl HealthDoc {
    /// Compute the verdict from the raw signals and stamp it, with the
    /// thresholds it was judged by, into the doc.
    pub fn assess(mut self) -> Self {
        self.submit_p99_target_ms = SUBMIT_P99_TARGET_MS;
        self.reject_ratio_max_permille = REJECT_RATIO_MAX_PERMILLE;
        self.status = if self.reject_ratio_permille > REJECT_RATIO_MAX_PERMILLE {
            HealthStatus::Unhealthy
        } else if self.submit_p99_ms > SUBMIT_P99_TARGET_MS
            || self.brownout
            || self.stale_endpoints > 0
        {
            HealthStatus::Degraded
        } else {
            HealthStatus::Ok
        };
        self
    }

    /// Wire form (the `health` method's response).
    pub fn to_value(&self) -> Value {
        Value::map([
            ("replica", Value::Int(self.replica as i64)),
            ("status", Value::str(self.status.as_str())),
            ("submit_p99_ms", Value::Int(self.submit_p99_ms as i64)),
            (
                "submit_p99_target_ms",
                Value::Int(self.submit_p99_target_ms as i64),
            ),
            (
                "reject_ratio_permille",
                Value::Int(self.reject_ratio_permille as i64),
            ),
            (
                "reject_ratio_max_permille",
                Value::Int(self.reject_ratio_max_permille as i64),
            ),
            ("brownout", Value::Bool(self.brownout)),
            ("handovers", Value::Int(self.handovers as i64)),
            ("stale_endpoints", Value::Int(self.stale_endpoints as i64)),
            ("endpoints", Value::Int(self.endpoints as i64)),
            (
                "tenants",
                Value::List(self.tenants.iter().map(TenantHealth::to_value).collect()),
            ),
        ])
    }

    /// Parse the wire form; `None` on any missing or mistyped field (a
    /// malformed health answer means "treat the peer as Degraded", which
    /// callers express by falling back to a default doc).
    pub fn from_value(v: &Value) -> Option<Self> {
        let int = |k: &str| v.get(k).and_then(Value::as_int).map(|i| i.max(0) as u64);
        let tenants = match v.get("tenants") {
            Some(Value::List(items)) => items
                .iter()
                .map(TenantHealth::from_value)
                .collect::<Option<Vec<_>>>()?,
            _ => Vec::new(),
        };
        Some(Self {
            replica: int("replica")? as u32,
            status: HealthStatus::parse(v.get("status")?.as_str()?),
            submit_p99_ms: int("submit_p99_ms")?,
            submit_p99_target_ms: int("submit_p99_target_ms")?,
            reject_ratio_permille: int("reject_ratio_permille")?,
            reject_ratio_max_permille: int("reject_ratio_max_permille")?,
            brownout: v.get("brownout").and_then(Value::as_bool)?,
            handovers: int("handovers")?,
            stale_endpoints: int("stale_endpoints")?,
            endpoints: int("endpoints")?,
            tenants,
        })
    }

    /// JSON rendering for the HTTP-ish expositions.
    pub fn json(&self) -> String {
        let tenants: Vec<String> = self
            .tenants
            .iter()
            .map(|t| {
                format!(
                    "{{\"tenant\":\"{}\",\"admitted\":{},\"rejected\":{},\
                     \"reject_ratio_permille\":{}}}",
                    crate::trace::json_escape(&t.tenant),
                    t.admitted,
                    t.rejected,
                    t.reject_ratio_permille
                )
            })
            .collect();
        format!(
            "{{\"replica\":{},\"status\":\"{}\",\"submit_p99_ms\":{},\
             \"submit_p99_target_ms\":{},\"reject_ratio_permille\":{},\
             \"reject_ratio_max_permille\":{},\"brownout\":{},\"handovers\":{},\
             \"stale_endpoints\":{},\"endpoints\":{},\"tenants\":[{}]}}",
            self.replica,
            self.status.as_str(),
            self.submit_p99_ms,
            self.submit_p99_target_ms,
            self.reject_ratio_permille,
            self.reject_ratio_max_permille,
            self.brownout,
            self.handovers,
            self.stale_endpoints,
            self.endpoints,
            tenants.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_doc() -> HealthDoc {
        HealthDoc {
            replica: 2,
            status: HealthStatus::Ok,
            submit_p99_ms: 12,
            submit_p99_target_ms: 0,
            reject_ratio_permille: 0,
            reject_ratio_max_permille: 0,
            brownout: false,
            handovers: 1,
            stale_endpoints: 0,
            endpoints: 3,
            tenants: vec![TenantHealth::new("alice", 90, 10)],
        }
    }

    #[test]
    fn assess_applies_the_policy_ladder() {
        let ok = base_doc().assess();
        assert_eq!(ok.status, HealthStatus::Ok);
        assert_eq!(ok.submit_p99_target_ms, SUBMIT_P99_TARGET_MS);

        let mut slow = base_doc();
        slow.submit_p99_ms = SUBMIT_P99_TARGET_MS + 1;
        assert_eq!(slow.assess().status, HealthStatus::Degraded);

        let mut browned = base_doc();
        browned.brownout = true;
        assert_eq!(browned.assess().status, HealthStatus::Degraded);

        let mut stale = base_doc();
        stale.stale_endpoints = 1;
        assert_eq!(stale.assess().status, HealthStatus::Degraded);

        let mut shedding = base_doc();
        shedding.reject_ratio_permille = REJECT_RATIO_MAX_PERMILLE + 1;
        // Unhealthy wins even when Degraded conditions also hold.
        shedding.brownout = true;
        assert_eq!(shedding.assess().status, HealthStatus::Unhealthy);
    }

    #[test]
    fn doc_roundtrips_through_wire_value() {
        let doc = base_doc().assess();
        let v = doc.to_value();
        assert_eq!(HealthDoc::from_value(&v), Some(doc));
    }

    #[test]
    fn malformed_values_parse_to_none() {
        assert_eq!(HealthDoc::from_value(&Value::Int(3)), None);
        let mut v = base_doc().assess().to_value();
        if let Value::Map(m) = &mut v {
            m.remove("status");
        }
        assert_eq!(HealthDoc::from_value(&v), None);
    }

    #[test]
    fn unknown_status_degrades() {
        assert_eq!(HealthStatus::parse("splendid"), HealthStatus::Degraded);
    }

    #[test]
    fn tenant_ratio_is_permille() {
        let t = TenantHealth::new("bob", 900, 100);
        assert_eq!(t.reject_ratio_permille, 100);
        assert_eq!(ratio_permille(0, 0), 0);
        assert_eq!(ratio_permille(5, 5), 1000);
    }
}
