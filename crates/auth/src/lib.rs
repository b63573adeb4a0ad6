//! # gcx-auth
//!
//! The Globus Auth stand-in (§II "Security model", §IV-A.2/5 of the paper):
//!
//! - [`service`] — identities, OAuth2-style bearer tokens with scopes and
//!   expiry, token introspection;
//! - `policy` — authentication policies enforced at the web service
//!   (allowed/excluded identity domains, required identity provider,
//!   session-recency requirements);
//! - `mapping` — the identity-mapping engine multi-user endpoints use to
//!   map a Globus identity onto a local account: expression mappings with
//!   capture groups (Listing 8) and external-callout mappers.

pub(crate) mod mapping;
pub(crate) mod policy;
pub mod service;

pub use mapping::{ExpressionMapping, IdentityMapper, MappingOutcome};
pub use policy::AuthPolicy;
pub use service::{AuthService, Identity, Token};
