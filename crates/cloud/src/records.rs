//! Cloud-side records: endpoints and MEP start requests.

use gcx_auth::AuthPolicy;
use gcx_core::clock::TimeMs;
use gcx_core::error::{GcxError, GcxResult};
use gcx_core::ids::{EndpointId, FunctionId, IdentityId};
use gcx_core::value::Value;

/// How an endpoint is registered with the web service.
#[derive(Debug, Clone)]
pub struct EndpointRecord {
    /// The endpoint's id.
    pub(crate) id: EndpointId,
    /// The identity that registered it (user for single-user endpoints,
    /// administrator for multi-user endpoints).
    pub owner: IdentityId,
    /// Display name.
    pub name: String,
    /// True for administrator-deployed multi-user endpoints (§IV).
    pub(crate) multi_user: bool,
    /// For user endpoints spawned by a MEP: the parent MEP's id.
    pub(crate) parent_mep: Option<EndpointId>,
    /// Allowed-function list (§IV-A.4); `None` = all functions allowed.
    pub(crate) allowed_functions: Option<Vec<FunctionId>>,
    /// Cloud-enforced authentication policy (§IV-A.5).
    pub(crate) policy: AuthPolicy,
    /// Registration time.
    pub registered_at: TimeMs,
    /// Whether the agent currently holds a session.
    pub(crate) connected: bool,
    /// When the agent last heartbeated (service clock); the liveness
    /// monitor marks the endpoint offline once this goes stale.
    pub last_heartbeat_ms: TimeMs,
    /// The agent reported lost batch capacity (a dead block or crashed
    /// nodes) and has not yet reported it re-provisioned. A degraded
    /// endpoint is still *alive* — it keeps heartbeating and is never
    /// marked offline by the liveness monitor on that basis alone.
    pub(crate) degraded: bool,
}

/// Coarse endpoint health as seen by the cloud, distinguishing "endpoint
/// dead" from "endpoint lost capacity, recovering".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndpointHealth {
    /// Connected, no outstanding capacity loss.
    Online,
    /// Connected, but the agent reported lost batch capacity it has not
    /// yet recovered.
    Degraded,
    /// No live session (never connected, disconnected, or declared dead
    /// by the liveness monitor).
    Offline,
}

impl EndpointRecord {
    /// Check the allowed-function list.
    pub(crate) fn function_allowed(&self, f: FunctionId) -> bool {
        match &self.allowed_functions {
            None => true,
            Some(list) => list.contains(&f),
        }
    }
}

/// What a successful endpoint registration returns to the agent.
#[derive(Debug, Clone)]
pub struct EndpointRegistration {
    /// The endpoint id to use in task submissions.
    pub endpoint_id: EndpointId,
    /// Credential for the endpoint's broker queues.
    pub queue_credential: String,
}

/// A *Start Endpoint* request delivered to a multi-user endpoint via its
/// command queue (step 2 of Fig. 1). The cloud pre-registers the user
/// endpoint (so tasks can buffer in its queue immediately) and hands the
/// MEP the credential its spawned agent will connect with.
#[derive(Debug, Clone, PartialEq)]
pub struct MepStartRequest {
    /// The submitting user's identity.
    pub identity: IdentityId,
    /// The submitting user's username (for identity mapping).
    pub(crate) username: String,
    /// The user endpoint configuration (template variables).
    pub user_config: Value,
    /// Hash of the configuration (the (identity, hash) pair keys the UEP).
    pub(crate) config_hash: u64,
    /// The pre-registered user endpoint's id.
    pub uep_endpoint_id: EndpointId,
    /// Credential for the user endpoint's queues.
    pub queue_credential: String,
}

impl MepStartRequest {
    /// Pack for the command queue.
    pub(crate) fn to_value(&self) -> Value {
        Value::map([
            ("identity", Value::str(self.identity.to_string())),
            ("username", Value::str(&self.username)),
            ("user_config", self.user_config.clone()),
            ("config_hash", Value::Int(self.config_hash as i64)),
            (
                "uep_endpoint_id",
                Value::str(self.uep_endpoint_id.to_string()),
            ),
            ("queue_credential", Value::str(&self.queue_credential)),
        ])
    }

    /// Decode from the command queue.
    pub fn from_value(v: &Value) -> GcxResult<Self> {
        let m = v
            .as_map()
            .ok_or_else(|| GcxError::Codec("mep start request must be a map".into()))?;
        let get_str = |k: &str| -> GcxResult<&str> {
            m.get(k)
                .and_then(Value::as_str)
                .ok_or_else(|| GcxError::Codec(format!("missing {k}")))
        };
        Ok(Self {
            identity: IdentityId(
                get_str("identity")?
                    .parse()
                    .map_err(|e| GcxError::Codec(format!("bad identity: {e}")))?,
            ),
            username: get_str("username")?.to_string(),
            user_config: m.get("user_config").cloned().unwrap_or(Value::None),
            config_hash: m
                .get("config_hash")
                .and_then(Value::as_int)
                .ok_or_else(|| GcxError::Codec("missing config_hash".into()))?
                as u64,
            uep_endpoint_id: EndpointId(
                get_str("uep_endpoint_id")?
                    .parse()
                    .map_err(|e| GcxError::Codec(format!("bad uep_endpoint_id: {e}")))?,
            ),
            queue_credential: get_str("queue_credential")?.to_string(),
        })
    }
}

/// Stable hash of a user endpoint configuration. "Globus Compute maintains
/// a mapping between a hash of the configuration and the user endpoint that
/// is spawned" (§IV-B); `Value::Map` is ordered, so the hash is insensitive
/// to key insertion order.
pub(crate) fn config_hash(config: &Value) -> u64 {
    let encoded = gcx_core::codec::encode(config);
    let mut h: u64 = 0xcbf29ce484222325;
    for b in encoded.iter() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowed_functions_check() {
        let f1 = FunctionId::random();
        let f2 = FunctionId::random();
        let mut rec = EndpointRecord {
            id: EndpointId::random(),
            owner: IdentityId::random(),
            name: "ep".into(),
            multi_user: false,
            parent_mep: None,
            allowed_functions: None,
            policy: AuthPolicy::open(),
            registered_at: 0,
            connected: false,
            last_heartbeat_ms: 0,
            degraded: false,
        };
        assert!(rec.function_allowed(f1));
        rec.allowed_functions = Some(vec![f1]);
        assert!(rec.function_allowed(f1));
        assert!(!rec.function_allowed(f2));
        rec.allowed_functions = Some(vec![]);
        assert!(!rec.function_allowed(f1), "empty list allows nothing");
    }

    #[test]
    fn start_request_roundtrip() {
        let req = MepStartRequest {
            identity: IdentityId::random(),
            username: "kyle@uchicago.edu".into(),
            user_config: Value::map([("NODES_PER_BLOCK", Value::Int(4))]),
            config_hash: 42,
            uep_endpoint_id: EndpointId::random(),
            queue_credential: "cred".into(),
        };
        let v = req.to_value();
        assert_eq!(MepStartRequest::from_value(&v).unwrap(), req);
        assert!(MepStartRequest::from_value(&Value::Int(1)).is_err());
    }

    #[test]
    fn config_hash_is_order_insensitive_and_discriminating() {
        let a = Value::map([("a", Value::Int(1)), ("b", Value::Int(2))]);
        let b = Value::map([("b", Value::Int(2)), ("a", Value::Int(1))]);
        let c = Value::map([("a", Value::Int(1)), ("b", Value::Int(3))]);
        assert_eq!(config_hash(&a), config_hash(&b));
        assert_ne!(config_hash(&a), config_hash(&c));
        // Listing 10's note: modifying the config forces a different UEP.
        let d = Value::map([("a", Value::Int(1))]);
        assert_ne!(config_hash(&a), config_hash(&d));
    }
}
