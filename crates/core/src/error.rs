//! The shared error type for the `gcx` workspace.

use std::fmt;

use crate::ids::{EndpointId, FunctionId, TaskId};

/// Convenient result alias used across the workspace.
pub type GcxResult<T> = Result<T, GcxError>;

/// Errors surfaced by any layer of the gcx stack.
///
/// The variants mirror the failure classes a Globus Compute user sees:
/// authentication/authorization failures from the web service, payload-size
/// rejections, missing records, endpoint-side execution failures, and
/// internal plumbing errors.
#[derive(Debug, Clone, PartialEq)]
pub enum GcxError {
    /// The caller's token was missing, expired, or invalid.
    Unauthenticated(String),
    /// The caller is authenticated but not allowed to perform the action
    /// (identity-mapping denial, auth-policy violation, function not in the
    /// endpoint's allowed list, …).
    Forbidden(String),
    /// A referenced task does not exist.
    TaskNotFound(TaskId),
    /// A referenced function does not exist.
    FunctionNotFound(FunctionId),
    /// A referenced endpoint does not exist.
    EndpointNotFound(EndpointId),
    /// The serialized payload exceeded the service limit (10 MB in the
    /// production service, §V of the paper).
    PayloadTooLarge { size: usize, limit: usize },
    /// A user-supplied configuration failed schema validation or template
    /// rendering.
    InvalidConfig(String),
    /// The task's function raised an error while executing on the worker.
    Execution(String),
    /// The task was killed because it exceeded its walltime.
    WalltimeExceeded { limit_ms: u64 },
    /// The batch scheduler rejected or killed a job.
    Scheduler(String),
    /// A message-queue level failure (queue missing, connection closed…).
    Queue(String),
    /// Serialization / deserialization failure in the wire codec.
    Codec(String),
    /// A parse error from one of the mini-languages (pyfn, shell, YAML,
    /// templates, identity-mapping expressions).
    Parse(String),
    /// The task was cancelled before completion.
    Cancelled(TaskId),
    /// The operation timed out waiting for a result or resource.
    Timeout(String),
    /// The component has been shut down and can no longer serve requests.
    ShuttingDown,
    /// A transient infrastructure failure (lost endpoint, dead-lettered
    /// delivery, dropped connection): the task itself is fine and retrying it
    /// elsewhere or later may succeed.
    Transient(String),
    /// The target endpoint is offline (missed heartbeats); tasks routed to it
    /// are requeued or failed with this retryable error.
    EndpointOffline(EndpointId),
    /// A retry budget was exhausted: `attempts` tries all failed, the last
    /// with `last`. Not retryable — the budget is spent.
    RetriesExhausted { attempts: u32, last: String },
    /// A federated replica received a request for a key it does not own;
    /// `owner` is the replica index currently responsible. Clients follow
    /// the redirect (capped by their redirect budget).
    NotOwner { owner: u32 },
    /// The addressed replica is down (killed or draining); retry against
    /// another replica.
    ReplicaUnavailable(u32),
    /// A redirect budget was exhausted while chasing ownership moves across
    /// replicas: `redirects` hops all failed, the last with `last`. Not
    /// retryable — the budget is spent (mirrors [`GcxError::RetriesExhausted`]).
    RedirectsExhausted { redirects: u32, last: String },
    /// The service is shedding load (admission control or brownout) and
    /// declined the request. Retryable — but not before `retry_after_ms`.
    Overloaded { retry_after_ms: u64 },
    /// A bounded queue is at its configured depth and its overflow policy
    /// rejects new publishes. Retryable — the queue drains.
    QueueFull { queue: String },
    /// The task's deadline/TTL elapsed before it completed. Terminal: the
    /// deadline is gone, retrying the same submission cannot meet it.
    DeadlineExceeded(TaskId),
    /// Catch-all for internal invariant violations.
    Internal(String),
}

impl fmt::Display for GcxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GcxError::Unauthenticated(m) => write!(f, "unauthenticated: {m}"),
            GcxError::Forbidden(m) => write!(f, "forbidden: {m}"),
            GcxError::TaskNotFound(id) => write!(f, "task not found: {id}"),
            GcxError::FunctionNotFound(id) => write!(f, "function not found: {id}"),
            GcxError::EndpointNotFound(id) => write!(f, "endpoint not found: {id}"),
            GcxError::PayloadTooLarge { size, limit } => {
                write!(f, "payload of {size} bytes exceeds the {limit} byte limit")
            }
            GcxError::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
            GcxError::Execution(m) => write!(f, "task execution failed: {m}"),
            GcxError::WalltimeExceeded { limit_ms } => {
                write!(f, "walltime of {limit_ms} ms exceeded")
            }
            GcxError::Scheduler(m) => write!(f, "scheduler error: {m}"),
            GcxError::Queue(m) => write!(f, "queue error: {m}"),
            GcxError::Codec(m) => write!(f, "codec error: {m}"),
            GcxError::Parse(m) => write!(f, "parse error: {m}"),
            GcxError::Cancelled(id) => write!(f, "task {id} was cancelled"),
            GcxError::Timeout(m) => write!(f, "timed out: {m}"),
            GcxError::ShuttingDown => write!(f, "component is shutting down"),
            GcxError::Transient(m) => write!(f, "transient failure: {m}"),
            GcxError::EndpointOffline(id) => write!(f, "endpoint {id} is offline"),
            GcxError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts; last error: {last}")
            }
            GcxError::NotOwner { owner } => {
                write!(f, "resource is owned by replica {owner}")
            }
            GcxError::ReplicaUnavailable(r) => write!(f, "replica {r} is unavailable"),
            GcxError::RedirectsExhausted { redirects, last } => {
                write!(f, "gave up after {redirects} redirects; last error: {last}")
            }
            GcxError::Overloaded { retry_after_ms } => {
                write!(f, "service overloaded; retry after {retry_after_ms} ms")
            }
            GcxError::QueueFull { queue } => {
                write!(f, "queue '{queue}' is at capacity")
            }
            GcxError::DeadlineExceeded(id) => {
                write!(f, "task {id} exceeded its deadline")
            }
            GcxError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for GcxError {}

impl GcxError {
    /// True if retrying the same request later could succeed (transient
    /// failures: timeouts, queue hiccups, shutdown races).
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            GcxError::Timeout(_)
                | GcxError::Queue(_)
                | GcxError::ShuttingDown
                | GcxError::Transient(_)
                | GcxError::EndpointOffline(_)
                | GcxError::ReplicaUnavailable(_)
                | GcxError::Overloaded { .. }
                | GcxError::QueueFull { .. }
        )
    }

    /// For [`GcxError::Overloaded`], the server's requested minimum wait
    /// before retrying; `None` for every other variant. Retry loops use this
    /// to stretch their own backoff to at least the server's ask.
    pub fn retry_after_ms(&self) -> Option<u64> {
        match self {
            GcxError::Overloaded { retry_after_ms } => Some(*retry_after_ms),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_human_readable() {
        let e = GcxError::PayloadTooLarge {
            size: 11,
            limit: 10,
        };
        assert_eq!(
            e.to_string(),
            "payload of 11 bytes exceeds the 10 byte limit"
        );
        let e = GcxError::WalltimeExceeded { limit_ms: 1000 };
        assert!(e.to_string().contains("1000 ms"));
    }

    #[test]
    fn retryable_classification() {
        assert!(GcxError::Timeout("x".into()).is_retryable());
        assert!(GcxError::Queue("x".into()).is_retryable());
        assert!(GcxError::Transient("x".into()).is_retryable());
        assert!(GcxError::EndpointOffline(EndpointId::random()).is_retryable());
        assert!(!GcxError::Forbidden("x".into()).is_retryable());
        assert!(!GcxError::Execution("x".into()).is_retryable());
        assert!(!GcxError::RetriesExhausted {
            attempts: 3,
            last: "x".into()
        }
        .is_retryable());
        // A down replica is transient infrastructure; a redirect is its own
        // protocol (the client must change targets, not retry in place), and
        // an exhausted redirect budget is spent.
        assert!(GcxError::ReplicaUnavailable(2).is_retryable());
        assert!(!GcxError::NotOwner { owner: 1 }.is_retryable());
        assert!(!GcxError::RedirectsExhausted {
            redirects: 8,
            last: "x".into()
        }
        .is_retryable());
        // Overload pushback and full queues drain; a blown deadline does not
        // come back.
        assert!(GcxError::Overloaded { retry_after_ms: 50 }.is_retryable());
        assert!(GcxError::QueueFull { queue: "q".into() }.is_retryable());
        assert!(!GcxError::DeadlineExceeded(TaskId::random()).is_retryable());
    }

    #[test]
    fn retry_after_surfaces_only_for_overload() {
        assert_eq!(
            GcxError::Overloaded { retry_after_ms: 75 }.retry_after_ms(),
            Some(75)
        );
        assert_eq!(GcxError::Timeout("x".into()).retry_after_ms(), None);
    }
}
