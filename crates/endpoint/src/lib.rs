//! # gcx-endpoint
//!
//! The Globus Compute Agent (§II "Endpoints"): the software a user or
//! administrator deploys on a resource to expose it to the ecosystem.
//!
//! - `config` — endpoint configuration parsed from mini-YAML (Listing 5);
//! - [`provider`] — the Parsl *Provider* abstraction: obtain resources,
//!   check status, release ([`provider::LocalProvider`] for on-host
//!   processes, [`provider::BatchProvider`] over the `gcx-batch` scheduler
//!   simulator, standing in for SlurmProvider/PBSProvider);
//! - [`worker`] — task execution: mini-Python functions, `ShellFunction`s
//!   (with sandboxing and walltime), stream capture;
//! - `engine` — the engine abstraction and events;
//! - [`exec_core`] — the shared execution core: the block-lifecycle state
//!   machine ([`exec_core::BlockTable`]) and the generic dispatch loop every
//!   engine runs on; engines define only a scheduling policy;
//! - [`htex`] — `GlobusComputeEngine`, the pilot-job model wrapping Parsl's
//!   HighThroughputExecutor: an *interchange* dispatching to per-node
//!   *managers*, each multiplexing a set of *workers*;
//! - [`mpi_engine`] — `GlobusMPIEngine` (§III-C.1): dynamic partitioning of
//!   a batch block so multiple MPI applications run concurrently inside one
//!   job, with `$PARSL_MPI_PREFIX` resolution;
//! - [`thread_engine`] — `ThreadEngine`: in-process worker threads for
//!   low-latency single-node endpoints (the funcX non-batch deployment
//!   mode), no provider involved;
//! - [`agent`] — the agent loop connecting an engine to the web service:
//!   pull tasks, execute, return results/exceptions.

pub mod agent;
pub(crate) mod config;
pub(crate) mod engine;
pub mod exec_core;
pub mod htex;
pub mod mpi_engine;
pub mod provider;
pub mod thread_engine;
pub mod worker;

pub use agent::{AgentEnv, EndpointAgent};
pub use config::EndpointConfig;
pub use engine::{Engine, EngineEvent, EngineKind, EngineStatus, ExecutableTask};
pub use htex::GlobusComputeEngine;
pub use mpi_engine::GlobusMpiEngine;
pub use thread_engine::ThreadEngine;
