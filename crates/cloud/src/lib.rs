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
//! - task records that are also the payload store: a task input over
//!   64 KiB rides its endpoint's queue as a 16-byte content-hash reference
//!   to the record's copy, and every input is held to the **10 MB payload
//!   limit** (§V);
//! - a result-processor pool that consumes results, updates the
//!   task database, and feeds per-user **result streams** (the push channel
//!   behind the executor interface, §III-A);
//! - [`UsageMeter`], a standalone per-day task-invocation counter that
//!   only the `fig2_usage` bench drives — the shape of Fig. 2;
//! - multi-user endpoint routing: submissions to a MEP resolve (identity,
//!   config-hash) → user endpoint, spawning one via the MEP's command queue
//!   when needed (§IV-B);
//! - a [`federation::Federation`] running N replicas of the service behind
//!   one broker: consistent-hash ownership, epoch-guarded forwarding, and
//!   failure handover with exactly-once result ingestion — the "highly
//!   available" part of §II made concrete.

pub mod federation;
pub(crate) mod records;
pub mod service;
pub(crate) mod usage;

pub use federation::{Federation, FederationConfig, HashRing, ReplicaDirectory, ReplicaId};
pub use records::{EndpointHealth, EndpointRegistration, MepStartRequest};
pub use service::{
    AdmissionConfig, CancelOutcome, CloudConfig, EndpointSession, ResultStream, WebService,
    WireClient, WireClientConfig, WireServer, WireStream,
};
pub use usage::UsageMeter;
