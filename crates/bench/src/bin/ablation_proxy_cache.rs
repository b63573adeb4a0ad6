//! A3 — §V-B ablation: "objects reused by many tasks can be cached in the
//! worker process."
//!
//! One large model object feeds N tasks. With the worker-side proxy cache
//! the store is read once; without it every task re-fetches. We measure
//! store traffic and completion time with the cache enabled vs disabled.
//!
//! Run: `cargo run --release -p gcx-bench --bin ablation_proxy_cache`

use std::sync::Arc;
use std::time::{Duration, Instant};

use gcx_auth::AuthPolicy;
use gcx_bench::{human_bytes, Table};
use gcx_cloud::WebService;
use gcx_core::clock::SystemClock;
use gcx_core::metrics::MetricsRegistry;
use gcx_core::value::Value;
use gcx_endpoint::{AgentEnv, EndpointAgent, EndpointConfig};
use gcx_mq::LinkProfile;
use gcx_proxystore::{
    resolve_value, ObjectStore, ProxyCache, ProxyExecutor, ProxyPolicy, StoreRegistry,
};
use gcx_sdk::{Executor, PyFunction};

const N_TASKS: usize = 16;
const MODEL_BYTES: usize = 4 * 1024 * 1024;

fn run(cache_capacity: usize) -> (Duration, u64, (u64, u64)) {
    let clock = SystemClock::shared();
    let cloud = WebService::with_defaults(clock.clone());
    let (_, token) = cloud.auth().login("cache@bench.dev").unwrap();
    let reg = cloud
        .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
        .unwrap();
    let registry = StoreRegistry::new();
    let cache = ProxyCache::new(cache_capacity);
    let mut env = AgentEnv::local(clock.clone());
    let r2 = registry.clone();
    let c2 = cache.clone();
    env.arg_transform = Some(Arc::new(move |v: Value| resolve_value(&v, &r2, &c2)));
    let config = EndpointConfig::from_yaml("engine:\n  type: GlobusComputeEngine\n").unwrap();
    let agent =
        EndpointAgent::start(&cloud, reg.endpoint_id, &reg.queue_credential, &config, env).unwrap();

    // The store sits across a 1 Gbps link: re-fetches are visible.
    let store_metrics = MetricsRegistry::new();
    let store = ObjectStore::new(
        "model-store",
        LinkProfile::wan(2, 1000),
        clock,
        store_metrics.clone(),
    );
    let ex = Executor::new(cloud.clone(), token, reg.endpoint_id).unwrap();
    let pex = ProxyExecutor::new(
        ex,
        store,
        registry,
        ProxyPolicy {
            min_size: 1024,
            evict_after_result: false,
        },
    );

    let model = Value::Bytes(vec![3u8; MODEL_BYTES]);
    let infer = PyFunction::new("def infer(model, x):\n    return len(model) + x\n");
    // Proxy the model ONCE; every task receives the same tiny marker (the
    // ProxyStore pattern for shared read-only inputs).
    let model_proxy = pex.proxy(&model);
    let started = Instant::now();
    let futures: Vec<_> = (0..N_TASKS)
        .map(|i| {
            pex.submit(
                &infer,
                vec![model_proxy.clone(), Value::Int(i as i64)],
                Value::None,
            )
            .unwrap()
        })
        .collect();
    for (i, fut) in futures.iter().enumerate() {
        assert_eq!(
            pex.result(fut).unwrap(),
            Value::Int(MODEL_BYTES as i64 + i as i64)
        );
    }
    let elapsed = started.elapsed();
    let bytes_get = store_metrics.counter("proxystore.bytes_get").get();
    let stats = cache.stats();
    agent.stop();
    pex.close();
    cloud.shutdown();
    (elapsed, bytes_get, stats)
}

fn main() {
    println!(
        "A3 — worker-side proxy cache: one {} model x {N_TASKS} tasks",
        human_bytes(MODEL_BYTES as u64)
    );
    let (t_on, bytes_on, (hits_on, misses_on)) = run(8);
    let (t_off, bytes_off, (hits_off, misses_off)) = run(0);

    let mut table = Table::new(&[
        "cache",
        "complete (ms)",
        "store bytes read",
        "cache hits",
        "cache misses",
    ]);
    table.row(&[
        "enabled".into(),
        format!("{:.0}", t_on.as_secs_f64() * 1000.0),
        human_bytes(bytes_on),
        hits_on.to_string(),
        misses_on.to_string(),
    ]);
    table.row(&[
        "disabled".into(),
        format!("{:.0}", t_off.as_secs_f64() * 1000.0),
        human_bytes(bytes_off),
        hits_off.to_string(),
        misses_off.to_string(),
    ]);
    table.print();

    println!();
    println!("  expected shape: with the cache, the store is read once per distinct");
    println!("  object; disabled, every task re-fetches the full model over the link.");
    assert!(
        bytes_off > bytes_on * (N_TASKS as u64 / 4),
        "cache must cut store traffic"
    );
}
