//! Transport configuration for the cloud service's wire edge: the listen
//! address, the idle timeout and the connection-count cap. The frame-size
//! ceiling is `gcx_core::wire::DEFAULT_MAX_FRAME` on both sides.
//!
//! The spec is a plain data struct (this crate does not depend on
//! `gcx-cloud`); the wire server copies it at listen time.

/// The transport spec for the service's wire edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransportSpec {
    /// TCP listen address; port `0` asks the OS for an ephemeral port
    /// (the bound address is reported back by the server).
    pub listen_addr: String,
    /// A connection with no inbound frames (the client's heartbeats
    /// included) for this long is reaped: its pushes stop and its resources
    /// are released.
    pub idle_timeout_ms: u64,
    /// Maximum concurrently open connections; further accepts are turned
    /// away with a typed `Overloaded` during the handshake. `0` = unlimited.
    pub max_connections: u64,
}

impl Default for TransportSpec {
    fn default() -> Self {
        Self {
            listen_addr: "127.0.0.1:0".into(),
            idle_timeout_ms: 5_000,
            max_connections: 1_024,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let d = TransportSpec::default();
        assert!(d.idle_timeout_ms > 0);
    }
}
