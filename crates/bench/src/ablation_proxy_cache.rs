//! A3 — §V-B ablation: "objects reused by many tasks can be cached in the
//! worker process."
//!
//! One large model object feeds N tasks. With the worker-side proxy cache
//! the store is read once; without it every task re-fetches. We measure
//! store traffic and completion time with the cache enabled vs disabled.
//! Expected shape (asserted): the cache cuts store traffic by more than
//! N/4; disabled, every task re-fetches the full model over the link.

use std::sync::Arc;
use std::time::Instant;

use gcx_cloud::CloudConfig;
use gcx_core::clock::SystemClock;
use gcx_core::metrics::MetricsRegistry;
use gcx_core::value::Value;
use gcx_mq::LinkProfile;
use gcx_proxystore::{
    resolve_value, ObjectStore, ProxyCache, ProxyExecutor, ProxyPolicy, StoreRegistry,
};
use gcx_sdk::PyFunction;

use crate::{ms_since, row, BenchStack, Row};

const N_TASKS: usize = 16;
const MODEL_BYTES: usize = 4 * 1024 * 1024;

/// Completion time (ms), store bytes read, and the cache's (hits, misses).
fn leg(cache_capacity: usize) -> (f64, u64, (u64, u64)) {
    let registry = StoreRegistry::new();
    let cache = ProxyCache::new(cache_capacity);
    let (r2, c2) = (registry.clone(), cache.clone());
    let stack = BenchStack::build(
        "engine:\n  type: GlobusComputeEngine\n",
        CloudConfig::default(),
        LinkProfile::instant(),
        |_, env| env.arg_transform = Some(Arc::new(move |v: Value| resolve_value(&v, &r2, &c2))),
    );
    // The store sits across a 1 Gbps link: re-fetches are visible.
    let store_metrics = MetricsRegistry::new();
    let store = ObjectStore::new(
        "model-store",
        LinkProfile::wan(2, 1000),
        SystemClock::shared(),
        store_metrics.clone(),
    );
    let pex = ProxyExecutor::new(
        stack.executor(),
        store,
        registry,
        ProxyPolicy {
            min_size: 1024,
            evict_after_result: false,
        },
    );

    let infer = PyFunction::new("def infer(model, x):\n    return len(model) + x\n");
    // Proxy the model ONCE; every task receives the same tiny marker (the
    // ProxyStore pattern for shared read-only inputs).
    let model_proxy = pex.proxy(&Value::Bytes(vec![3u8; MODEL_BYTES]));
    let started = Instant::now();
    let futures: Vec<_> = (0..N_TASKS)
        .map(|i| {
            let args = vec![model_proxy.clone(), Value::Int(i as i64)];
            pex.submit(&infer, args, Value::None).unwrap()
        })
        .collect();
    for (i, fut) in futures.iter().enumerate() {
        assert_eq!(
            pex.result(fut).unwrap(),
            Value::Int(MODEL_BYTES as i64 + i as i64)
        );
    }
    let complete_ms = ms_since(started);
    let bytes_get = store_metrics.counter("proxystore.bytes_get").get();
    pex.close();
    stack.stop();
    (complete_ms, bytes_get, cache.stats())
}

pub(crate) fn run(_smoke: bool, _rep: u64) -> Vec<Row> {
    let on = leg(8);
    let off = leg(0);
    assert!(
        off.1 > on.1 * (N_TASKS as u64 / 4),
        "cache must cut store traffic"
    );
    [("cache enabled", on), ("cache disabled", off)]
        .into_iter()
        .map(|(label, (ms, bytes, (hits, misses)))| {
            row(
                label,
                &[
                    ("complete_ms", ms),
                    ("store_mib_read", bytes as f64 / (1024.0 * 1024.0)),
                    ("cache_hits", hits as f64),
                    ("cache_misses", misses as f64),
                ],
            )
        })
        .collect()
}
