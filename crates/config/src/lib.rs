//! # gcx-config
//!
//! Configuration machinery for gcx endpoints, built from scratch:
//!
//! - [`yaml`] — a mini-YAML parser covering the subset used by Globus
//!   Compute endpoint configurations (nested maps, lists, scalars,
//!   comments — see Listings 5 and 9 of the paper);
//! - [`template`] — a Jinja-subset template engine (`{{ VAR }}`,
//!   `{{ VAR|default("…") }}`) used by multi-user endpoint configuration
//!   templates (§IV-A.3);
//! - [`schema`] — a JSON-Schema-subset validator with which administrators
//!   "protect against injections" by constraining the user-supplied template
//!   variables (§IV-A.3).
//!
//! All three operate on [`gcx_core::Value`], so a user config shipped
//! through the cloud as a task payload validates and renders without
//! conversion.

pub mod admission;
pub mod schema;
pub mod template;
pub mod transport;
pub mod yaml;

pub use admission::AdmissionSpec;
pub use schema::Schema;
pub use template::Template;
pub use transport::TransportSpec;
pub use yaml::{parse_yaml, to_yaml};
