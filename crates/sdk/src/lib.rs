//! # gcx-sdk
//!
//! The Globus Compute Python SDK, in Rust (§III of the paper):
//!
//! - [`client::Client`] — the traditional interface: submit a task, then
//!   *poll* the REST API for status and results;
//! - [`executor::Executor`] — the paper's headline contribution (§III-A):
//!   an asynchronous, future-based interface. `submit` returns a
//!   [`future::TaskFuture`] immediately; behind the scenes the executor
//!   registers functions on-the-fly (deduplicated by content hash), batches
//!   submissions within a time window to avoid per-task REST requests, and
//!   holds an AMQPS result-stream connection that resolves futures the
//!   moment results reach the service — no polling;
//! - `functions` — [`functions::ShellFunction`] (§III-B) and
//!   [`functions::MpiFunction`] (§III-C) plus plain mini-Python functions.
//!
//! ```no_run
//! # use gcx_sdk::{Executor, PyFunction};
//! # use gcx_core::value::Value;
//! # fn demo(cloud: gcx_cloud::WebService, token: gcx_auth::Token, ep: gcx_core::ids::EndpointId) {
//! // Listing 1, in Rust:
//! let ex = Executor::new(cloud, token, ep).unwrap();
//! let some_task = PyFunction::new("def some_task():\n    return 1\n");
//! let fut = ex.submit(&some_task, vec![], Value::None).unwrap();
//! println!("Result: {:?}", fut.result());
//! # }
//! ```

pub(crate) mod client;
pub(crate) mod executor;
pub(crate) mod functions;
pub(crate) mod future;
pub(crate) mod link;

pub use client::Client;
pub use executor::{Executor, ExecutorConfig};
pub use functions::{Function, MpiFunction, PyFunction, ShellFunction};
pub use future::TaskFuture;
pub use gcx_cloud::{CancelOutcome, WireClientConfig};
pub use link::{Link, WireLink};
