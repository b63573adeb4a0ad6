//! # gcx-proxystore
//!
//! The ProxyStore stand-in (§V-B of the paper): transparent
//! pass-by-reference for task arguments and results.
//!
//! "At its core is the transparent object proxy, a reference-like object
//! that refers to an object in distributed storage. … A proxy is
//! initialized with a factory, a callable object that, when invoked,
//! retrieves the target from remote storage. … Proxied task arguments and
//! results avoids transfer of large objects through the cloud service which
//! improves task latency and circumvents the 10 MB payload limit."
//!
//! - `store` — [`ObjectStore`], the one store type: its link
//!   profile makes it a same-site object store (`LinkProfile::instant()`) or
//!   a remote KV store with a WAN cost model;
//! - `proxy` — proxy markers embedded in [`gcx_core::value::Value`] payloads,
//!   factories that resolve them against a [`StoreRegistry`], and the
//!   worker-side cache ("objects reused by many tasks can be cached in the
//!   worker process");
//! - `exec` — [`ProxyExecutor`], the executor wrapper that
//!   "automatically proxies task arguments and results based on a
//!   user-defined policy (e.g., object size)".

pub(crate) mod exec;
pub(crate) mod proxy;
pub(crate) mod store;

pub use exec::{ProxyExecutor, ProxyPolicy};
pub use proxy::{resolve_value, ProxyCache, StoreRegistry};
pub use store::ObjectStore;
