//! Authentication policies.
//!
//! "These policies can express required authentication domains or excluded
//! domains, require that users must have authenticated within the given
//! session with a particular identity provider, or have authenticated within
//! a particular period of time" (§IV-A.5). The web service evaluates the
//! policy attached to an endpoint *before* submitting work to it.

use gcx_core::clock::TimeMs;
use gcx_core::error::{GcxError, GcxResult};
use serde::{Deserialize, Serialize};

use crate::service::Identity;

/// A cloud-enforced authentication policy.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AuthPolicy {
    /// If non-empty, the identity's domain must be one of these.
    pub(crate) allowed_domains: Vec<String>,
    /// The identity's domain must not be any of these.
    pub(crate) excluded_domains: Vec<String>,
    /// If set, the user must have authenticated with this identity provider
    /// in the current session.
    pub(crate) required_idp: Option<String>,
    /// If set, the authentication must be more recent than this many ms.
    pub(crate) max_session_age_ms: Option<u64>,
}

impl AuthPolicy {
    /// A policy that admits everyone.
    pub fn open() -> Self {
        Self::default()
    }

    /// A policy restricted to the given domains.
    pub fn domains(allowed: &[&str]) -> Self {
        Self {
            allowed_domains: allowed.iter().map(|s| s.to_string()).collect(),
            ..Default::default()
        }
    }

    /// Evaluate the policy for `identity`, which authenticated at
    /// `auth_time`; `now` is the service clock.
    pub fn evaluate(&self, identity: &Identity, auth_time: TimeMs, now: TimeMs) -> GcxResult<()> {
        let domain = identity.domain();
        if self.excluded_domains.iter().any(|d| d == domain) {
            return Err(GcxError::Forbidden(format!(
                "domain '{domain}' is excluded by the endpoint's authentication policy"
            )));
        }
        if !self.allowed_domains.is_empty() && !self.allowed_domains.iter().any(|d| d == domain) {
            return Err(GcxError::Forbidden(format!(
                "domain '{domain}' is not in the endpoint's allowed domains"
            )));
        }
        if let Some(idp) = &self.required_idp {
            if domain != idp {
                return Err(GcxError::Forbidden(format!(
                    "authentication with identity provider '{idp}' is required"
                )));
            }
        }
        if let Some(max_age) = self.max_session_age_ms {
            let age = now.saturating_sub(auth_time);
            if age > max_age {
                return Err(GcxError::Forbidden(format!(
                    "authentication is {age} ms old; policy requires re-authentication within {max_age} ms"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcx_core::ids::IdentityId;

    fn ident(username: &str) -> Identity {
        Identity {
            id: IdentityId::random(),
            username: username.into(),
            display_name: String::new(),
        }
    }

    #[test]
    fn open_policy_admits_all() {
        AuthPolicy::open()
            .evaluate(&ident("a@anywhere.org"), 0, 1_000_000)
            .unwrap();
    }

    #[test]
    fn allowed_domains() {
        let p = AuthPolicy::domains(&["uchicago.edu", "anl.gov"]);
        p.evaluate(&ident("a@anl.gov"), 0, 0).unwrap();
        let e = p.evaluate(&ident("a@evil.example"), 0, 0).unwrap_err();
        assert!(e.to_string().contains("not in"));
    }

    #[test]
    fn excluded_domains_beat_allowed() {
        let p = AuthPolicy {
            allowed_domains: vec!["uchicago.edu".into()],
            excluded_domains: vec!["uchicago.edu".into()],
            ..Default::default()
        };
        assert!(p.evaluate(&ident("a@uchicago.edu"), 0, 0).is_err());
    }

    #[test]
    fn required_idp() {
        let p = AuthPolicy {
            required_idp: Some("anl.gov".into()),
            ..Default::default()
        };
        p.evaluate(&ident("ops@anl.gov"), 0, 0).unwrap();
        assert!(p.evaluate(&ident("ops@uchicago.edu"), 0, 0).is_err());
    }

    #[test]
    fn session_recency() {
        let p = AuthPolicy {
            max_session_age_ms: Some(3_600_000),
            ..Default::default()
        };
        p.evaluate(&ident("a@b.c"), 1_000, 3_000_000).unwrap();
        let e = p.evaluate(&ident("a@b.c"), 0, 4_000_000).unwrap_err();
        assert!(e.to_string().contains("re-authentication"));
    }
}
