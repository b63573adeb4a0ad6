//! # gcx-cloud
//!
//! The Globus Compute *web service* (§II "Web service"): a single, highly
//! available interface that brokers all user–endpoint communication. This
//! in-process reproduction keeps the same moving parts:
//!
//! - a REST-like API object ([`service::WebService`]) with function
//!   registration, endpoint registration, task submission (single and
//!   batched), and status polling — every call authenticated against
//!   `gcx-auth` and metered;
//! - per-endpoint **task queues** and a shared **result queue** on the
//!   `gcx-mq` broker, with AMQPS-style credentials per endpoint;
//! - a content-addressed payload cache ([`blob::CasStore`]) that ships
//!   repeated and large task inputs as 16-byte references, under the
//!   **10 MB payload limit** (§V);
//! - a [`service::ResultProcessor`] pool that consumes results, updates the
//!   task database, and feeds per-user **result streams** (the push channel
//!   behind the executor interface, §III-A);
//! - [`usage::UsageMeter`] counting task invocations per day — the data
//!   behind Fig. 2;
//! - multi-user endpoint routing: submissions to a MEP resolve (identity,
//!   config-hash) → user endpoint, spawning one via the MEP's command queue
//!   when needed (§IV-B);
//! - a [`federation::Federation`] running N replicas of the service behind
//!   one broker: consistent-hash ownership, epoch-guarded forwarding, and
//!   failure handover with exactly-once result ingestion — the "highly
//!   available" part of §II made concrete.

pub mod blob;
pub mod federation;
pub mod records;
pub mod service;
pub mod usage;

pub use blob::{CasStore, Intern};
pub use federation::{Federation, FederationConfig, HashRing, ReplicaDirectory, ReplicaId};
pub use records::{EndpointHealth, EndpointRecord, EndpointRegistration, MepStartRequest};
pub use service::{
    AdmissionConfig, CancelOutcome, CloudConfig, EndpointSession, ResultStream, WebService,
    WireClient, WireClientConfig, WireServer, WireStream,
};
pub use usage::UsageMeter;
