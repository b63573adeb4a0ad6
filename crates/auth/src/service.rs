//! Identities and bearer tokens.
//!
//! Models the slice of Globus Auth that Globus Compute relies on: users hold
//! identities issued by identity providers (the domain part of
//! `user@domain`); clients authenticate with bearer tokens carrying scopes
//! and an expiry; services introspect tokens to recover the identity and
//! when it last authenticated (needed by session-recency policies, §IV-A.5).

use std::collections::HashMap;
use std::sync::Arc;

use gcx_core::clock::{SharedClock, TimeMs};
use gcx_core::error::{GcxError, GcxResult};
use gcx_core::ids::IdentityId;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

/// A Globus identity: `username@domain` issued by an identity provider.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Identity {
    /// Stable id.
    pub id: IdentityId,
    /// Full username, e.g. `kyle@uchicago.edu`.
    pub username: String,
    /// Display name.
    pub(crate) display_name: String,
}

impl Identity {
    /// The identity-provider domain (text after the last `@`).
    pub(crate) fn domain(&self) -> &str {
        self.username.rsplit('@').next().unwrap_or("")
    }

    /// The local part (text before the first `@`).
    pub(crate) fn local_part(&self) -> &str {
        self.username.split('@').next().unwrap_or(&self.username)
    }
}

/// A bearer token (the secret string a client presents).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Token(pub String);

#[derive(Debug, Clone)]
struct TokenRecord {
    identity: IdentityId,
    scopes: Vec<String>,
    issued_at: TimeMs,
    expires_at: TimeMs,
    revoked: bool,
}

/// Introspection result: who the token belongs to and session metadata.
#[derive(Debug, Clone)]
pub struct Introspection {
    /// The authenticated identity.
    pub identity: Identity,
    /// When the token was issued (≈ when the user authenticated).
    pub auth_time: TimeMs,
    /// Scopes granted.
    pub scopes: Vec<String>,
}

struct AuthInner {
    identities: RwLock<HashMap<IdentityId, Identity>>,
    by_username: RwLock<HashMap<String, IdentityId>>,
    tokens: RwLock<HashMap<String, TokenRecord>>,
    clock: SharedClock,
    counter: RwLock<u64>,
}

/// The auth service handle. Cloning shares state.
#[derive(Clone)]
pub struct AuthService {
    inner: Arc<AuthInner>,
}

/// The scope Globus Compute API calls require.
pub const COMPUTE_SCOPE: &str = "compute.api";

impl AuthService {
    /// A fresh auth service on the given clock.
    pub fn new(clock: SharedClock) -> Self {
        Self {
            inner: Arc::new(AuthInner {
                identities: RwLock::new(HashMap::new()),
                by_username: RwLock::new(HashMap::new()),
                tokens: RwLock::new(HashMap::new()),
                clock,
                counter: RwLock::new(0),
            }),
        }
    }

    /// Register (or look up) an identity for `username`.
    pub fn register_identity(&self, username: &str, display_name: &str) -> Identity {
        if let Some(id) = self.inner.by_username.read().get(username) {
            return self.inner.identities.read()[id].clone();
        }
        let identity = Identity {
            id: IdentityId::random(),
            username: username.to_string(),
            display_name: display_name.to_string(),
        };
        self.inner
            .by_username
            .write()
            .insert(username.to_string(), identity.id);
        self.inner
            .identities
            .write()
            .insert(identity.id, identity.clone());
        identity
    }

    /// Look up an identity by id.
    pub fn identity(&self, id: IdentityId) -> GcxResult<Identity> {
        self.inner
            .identities
            .read()
            .get(&id)
            .cloned()
            .ok_or_else(|| GcxError::Unauthenticated(format!("unknown identity {id}")))
    }

    /// Issue a bearer token for `identity` with `scopes`, valid for
    /// `lifetime_ms`.
    pub fn issue_token(
        &self,
        identity: &Identity,
        scopes: &[&str],
        lifetime_ms: u64,
    ) -> GcxResult<Token> {
        if !self.inner.identities.read().contains_key(&identity.id) {
            return Err(GcxError::Unauthenticated("identity not registered".into()));
        }
        let now = self.inner.clock.now_ms();
        let mut counter = self.inner.counter.write();
        *counter += 1;
        // Opaque but unguessable-enough for a simulation: id + counter + uuid.
        let secret = format!("gcx_tok_{}_{}", *counter, gcx_core::ids::Uuid::new_v4());
        self.inner.tokens.write().insert(
            secret.clone(),
            TokenRecord {
                identity: identity.id,
                scopes: scopes.iter().map(|s| s.to_string()).collect(),
                issued_at: now,
                expires_at: now.saturating_add(lifetime_ms),
                revoked: false,
            },
        );
        Ok(Token(secret))
    }

    /// Validate a token and require `scope`. Returns the introspection on
    /// success.
    pub fn introspect(&self, token: &Token, scope: &str) -> GcxResult<Introspection> {
        let tokens = self.inner.tokens.read();
        let rec = tokens
            .get(&token.0)
            .ok_or_else(|| GcxError::Unauthenticated("invalid token".into()))?;
        if rec.revoked {
            return Err(GcxError::Unauthenticated("token revoked".into()));
        }
        let now = self.inner.clock.now_ms();
        if now >= rec.expires_at {
            return Err(GcxError::Unauthenticated("token expired".into()));
        }
        if !rec.scopes.iter().any(|s| s == scope) {
            return Err(GcxError::Forbidden(format!("token lacks scope '{scope}'")));
        }
        let identity = self.identity(rec.identity)?;
        Ok(Introspection {
            identity,
            auth_time: rec.issued_at,
            scopes: rec.scopes.clone(),
        })
    }

    /// Revoke a token.
    pub fn revoke(&self, token: &Token) -> GcxResult<()> {
        match self.inner.tokens.write().get_mut(&token.0) {
            Some(rec) => {
                rec.revoked = true;
                Ok(())
            }
            None => Err(GcxError::Unauthenticated("invalid token".into())),
        }
    }

    /// Convenience: register an identity and issue a long-lived compute
    /// token in one call (the `globus login` flow).
    pub fn login(&self, username: &str) -> GcxResult<(Identity, Token)> {
        let identity = self.register_identity(username, username);
        let token = self.issue_token(&identity, &[COMPUTE_SCOPE], 24 * 3600 * 1000)?;
        Ok((identity, token))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcx_core::clock::{SystemClock, VirtualClock};

    #[test]
    fn identity_parts() {
        let auth = AuthService::new(SystemClock::shared());
        let id = auth.register_identity("kyle@uchicago.edu", "Kyle");
        assert_eq!(id.domain(), "uchicago.edu");
        assert_eq!(id.local_part(), "kyle");
    }

    #[test]
    fn register_is_idempotent() {
        let auth = AuthService::new(SystemClock::shared());
        let a = auth.register_identity("x@y.z", "X");
        let b = auth.register_identity("x@y.z", "X again");
        assert_eq!(a.id, b.id);
    }

    #[test]
    fn token_roundtrip() {
        let auth = AuthService::new(SystemClock::shared());
        let (identity, token) = auth.login("a@b.c").unwrap();
        let intro = auth.introspect(&token, COMPUTE_SCOPE).unwrap();
        assert_eq!(intro.identity.id, identity.id);
        assert!(intro.scopes.contains(&COMPUTE_SCOPE.to_string()));
    }

    #[test]
    fn invalid_token_rejected() {
        let auth = AuthService::new(SystemClock::shared());
        let e = auth
            .introspect(&Token("forged".into()), COMPUTE_SCOPE)
            .unwrap_err();
        assert!(matches!(e, GcxError::Unauthenticated(_)));
    }

    #[test]
    fn scope_enforced() {
        let auth = AuthService::new(SystemClock::shared());
        let id = auth.register_identity("a@b.c", "A");
        let token = auth.issue_token(&id, &["transfer.api"], 10_000).unwrap();
        let e = auth.introspect(&token, COMPUTE_SCOPE).unwrap_err();
        assert!(matches!(e, GcxError::Forbidden(_)));
    }

    #[test]
    fn expiry_on_virtual_clock() {
        let clock = VirtualClock::new();
        let auth = AuthService::new(clock.clone());
        let id = auth.register_identity("a@b.c", "A");
        let token = auth.issue_token(&id, &[COMPUTE_SCOPE], 1_000).unwrap();
        auth.introspect(&token, COMPUTE_SCOPE).unwrap();
        clock.advance(1_001);
        let e = auth.introspect(&token, COMPUTE_SCOPE).unwrap_err();
        assert!(e.to_string().contains("expired"));
    }

    #[test]
    fn revocation() {
        let auth = AuthService::new(SystemClock::shared());
        let (_, token) = auth.login("a@b.c").unwrap();
        auth.revoke(&token).unwrap();
        let e = auth.introspect(&token, COMPUTE_SCOPE).unwrap_err();
        assert!(e.to_string().contains("revoked"));
        assert!(auth.revoke(&Token("nope".into())).is_err());
    }

    #[test]
    fn tokens_are_unique() {
        let auth = AuthService::new(SystemClock::shared());
        let id = auth.register_identity("a@b.c", "A");
        let t1 = auth.issue_token(&id, &[COMPUTE_SCOPE], 1000).unwrap();
        let t2 = auth.issue_token(&id, &[COMPUTE_SCOPE], 1000).unwrap();
        assert_ne!(t1, t2);
    }
}
