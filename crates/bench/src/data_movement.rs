//! E8 — §V: data movement beyond the 10 MB payload limit.
//!
//! Payload sweep across four paths on a simulated WAN (20 ms, 100 Mbps
//! between client/cloud/endpoint; the site-local store is fast):
//!   1. through the cloud (inline / S3-offloaded; rejected above 10 MB,
//!      which is asserted),
//!   2. ProxyStore over a site-local store (client colocated with workers),
//!   3. ProxyStore over a WAN KV store,
//!   4. Globus Transfer staging + path-passing.
//!
//! Expected shape: the cloud path is competitive only for small payloads;
//! ProxyStore and Transfer scale past the limit, with the site-local store
//! cheapest (no WAN crossing for the body).

use std::sync::Arc;
use std::time::{Duration, Instant};

use gcx_cloud::CloudConfig;
use gcx_core::clock::SystemClock;
use gcx_core::error::GcxError;
use gcx_core::metrics::MetricsRegistry;
use gcx_core::value::Value;
use gcx_mq::LinkProfile;
use gcx_proxystore::{
    resolve_value, ObjectStore, ProxyCache, ProxyExecutor, ProxyPolicy, StoreRegistry,
};
use gcx_sdk::{PyFunction, ShellFunction};
use gcx_shell::Vfs;
use gcx_transfer::{TransferService, TransferStatus};

use crate::{ms_since, row, BenchStack, Row};

const WAN: LinkProfile = LinkProfile {
    latency_ms: 20,
    bytes_per_ms: Some(12_500),
}; // 100 Mbps

const MIB: usize = 1024 * 1024;
const SIZES: &[usize] = &[1024, 100 * 1024, MIB, 8 * MIB, 16 * MIB, 64 * MIB];
const F_SRC: &str = "def f(b):\n    return len(b)\n";

/// A stack whose REST and queue links are both the WAN (payloads through
/// the cloud pay for every crossing), with a worker that resolves proxies
/// from `registry` and a filesystem `vfs` a transfer can stage into.
fn wan_stack(registry: &StoreRegistry, vfs: &Vfs) -> BenchStack {
    let config = CloudConfig {
        rest_link: WAN,
        ..CloudConfig::default()
    };
    let engine = "engine:\n  type: GlobusComputeEngine\n  workers_per_node: 2\n";
    BenchStack::build(engine, config, WAN, |_, env| {
        let (registry, cache) = (registry.clone(), ProxyCache::new(8));
        env.vfs = vfs.clone();
        env.arg_transform = Some(Arc::new(move |v: Value| {
            resolve_value(&v, &registry, &cache)
        }));
    })
}

pub(crate) fn run(_smoke: bool, _rep: u64) -> Vec<Row> {
    SIZES
        .iter()
        .map(|&size| {
            let mut cells = Vec::new();
            if let Some(ms) = cloud_path(size) {
                cells.push(("cloud_ms", ms));
            }
            cells.push(("proxy_site_ms", proxy_path(size, LinkProfile::instant())));
            cells.push(("proxy_wan_ms", proxy_path(size, WAN)));
            cells.push(("transfer_ms", transfer_path(size)));
            let label = if size >= MIB {
                format!("{} MiB", size / MIB)
            } else {
                format!("{} KiB", size / 1024)
            };
            row(label, &cells)
        })
        .collect()
}

/// Through the cloud: the time to a result, or `None` when rejected.
fn cloud_path(size: usize) -> Option<f64> {
    let stack = wan_stack(&StoreRegistry::new(), &Vfs::new());
    let ex = stack.executor();
    let started = Instant::now();
    let fut = ex
        .submit(
            &PyFunction::new(F_SRC),
            vec![Value::Bytes(vec![0u8; size])],
            Value::None,
        )
        .unwrap();
    let ms = match fut.result_timeout(Duration::from_secs(120)) {
        Ok(_) => Some(ms_since(started)),
        Err(GcxError::PayloadTooLarge { .. }) => None,
        Err(e) => panic!("cloud path, {size} B: {e}"),
    };
    assert_eq!(ms.is_none(), size > 10 * MIB, "the 10 MB rule, {size} B");
    ex.close();
    stack.stop();
    ms
}

/// ProxyStore over a store behind `store_link`.
fn proxy_path(size: usize, store_link: LinkProfile) -> f64 {
    let registry = StoreRegistry::new();
    let stack = wan_stack(&registry, &Vfs::new());
    let store = ObjectStore::new(
        "store",
        store_link,
        SystemClock::shared(),
        MetricsRegistry::new(),
    );
    let policy = ProxyPolicy {
        min_size: 10 * 1024,
        evict_after_result: false,
    };
    let pex = ProxyExecutor::new(stack.executor(), store, registry, policy);
    let started = Instant::now();
    let fut = pex
        .submit(
            &PyFunction::new(F_SRC),
            vec![Value::Bytes(vec![0u8; size])],
            Value::None,
        )
        .unwrap();
    assert_eq!(pex.result(&fut).unwrap(), Value::Int(size as i64));
    let ms = ms_since(started);
    pex.close();
    stack.stop();
    ms
}

/// Globus Transfer staging, then a ShellFunction reading the staged file.
fn transfer_path(size: usize) -> f64 {
    let vfs = Vfs::new();
    let stack = wan_stack(&StoreRegistry::new(), &vfs);
    let source_fs = Vfs::new();
    source_fs.mkdir_p("/out").unwrap();
    source_fs.write("/out/data.bin", &vec![0u8; size]).unwrap();
    let transfer = TransferService::new(SystemClock::shared(), WAN, MetricsRegistry::new());
    transfer
        .register_endpoint("src", source_fs, "/out")
        .unwrap();
    transfer.register_endpoint("dst", vfs, "/staging").unwrap();
    let ex = stack.executor();
    let started = Instant::now();
    let tid = transfer
        .submit("src", "data.bin", "dst", "data.bin")
        .unwrap();
    assert_eq!(
        transfer.wait(tid, Duration::from_secs(300)).unwrap(),
        TransferStatus::Succeeded
    );
    let wc = ShellFunction::new("wc -c /staging/data.bin");
    let sr = ex.submit(&wc, vec![], Value::None).unwrap().shell_result();
    assert_eq!(sr.unwrap().stdout.trim(), size.to_string());
    let ms = ms_since(started);
    ex.close();
    stack.stop();
    ms
}
