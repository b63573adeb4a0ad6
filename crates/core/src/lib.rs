//! # gcx-core
//!
//! Core vocabulary types shared by every crate in the `gcx` workspace — the
//! Rust reproduction of the Globus Compute ecosystem described in the SC24
//! paper *"Establishing a High-Performance and Productive Ecosystem for
//! Distributed Execution of Python Functions Using Globus Compute"*.
//!
//! This crate provides:
//!
//! - [`ids`] — UUIDv4 generation and strongly-typed identifiers (tasks,
//!   functions, endpoints, identities, batch jobs…).
//! - [`clock`] — the [`clock::Clock`] abstraction with a wall-clock
//!   implementation and a deterministic virtual clock used by simulations.
//! - [`value`] — the dynamically-typed [`value::Value`] exchanged between
//!   clients, the cloud service, and workers (the stand-in for pickled Python
//!   objects).
//! - [`codec`] — the compact self-describing binary envelope used to "ship"
//!   values over the simulated wire, with byte accounting.
//! - [`payload`] — the encode-once payload plane: refcounted, content-
//!   hashed bytes views that cross every layer without re-serialization.
//! - [`task`] — the task model: specs, states, results, and the legal state
//!   machine transitions.
//! - [`function`] — registered function records and bodies (mini-Python,
//!   shell, MPI).
//! - [`respec`] — the machine-agnostic `resource_specification` used by
//!   `MPIFunction` (mirrors Parsl's representation).
//! - [`shellres`] — `ShellResult`, the return type of shell and MPI
//!   functions.
//! - [`metrics`] — lightweight atomic counters and histograms used by the
//!   benchmark harness to meter bytes over the wire, request counts, etc.
//! - [`trace`] — task-lifecycle tracing: trace/span contexts carried
//!   through the task envelope, and a bounded collector kept as a log of
//!   per-thread rings that reads assemble.
//! - [`expo`] — Prometheus-text and JSON exposition of metrics registries
//!   and trace summaries.
//! - `flight` — the black-box flight recorder: a bounded lock-sharded
//!   ring of recent lifecycle/fault events, dumped on failure.
//! - [`health`] — the SLO health plane: per-replica [`health::HealthDoc`]
//!   with a three-state verdict, served via expositions and the `health`
//!   wire method.
//! - `sharded` — the N-way sharded concurrent map the cloud service's
//!   state stores run on.
//! - [`wire`] — length-prefixed binary framing of the codec and the
//!   [`wire::Transport`] trait (real localhost TCP and a byte-honest
//!   in-memory duplex pipe) the service boundary runs over.
//! - [`error`] — the shared error type.

pub mod clock;
pub mod codec;
pub mod error;
pub mod expo;
pub(crate) mod flight;
pub mod function;
pub mod health;
pub mod ids;
pub mod metrics;
pub mod payload;
pub mod relite;
pub mod respec;
pub mod retry;
pub(crate) mod sharded;
pub mod shellres;
pub mod task;
pub mod trace;
pub mod value;
pub mod wire;

pub use error::{GcxError, GcxResult};
pub use sharded::ShardedMap;
