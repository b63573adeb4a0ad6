//! Integration tests for the data-movement paths (§V): the 10 MB cloud
//! limit, S3 offload, ProxyStore pass-by-reference, and Globus Transfer.

use std::sync::Arc;
use std::time::Duration;

use gcx::auth::AuthPolicy;
use gcx::cloud::WebService;
use gcx::core::clock::SystemClock;
use gcx::core::metrics::MetricsRegistry;
use gcx::core::value::Value;
use gcx::endpoint::{AgentEnv, EndpointAgent, EndpointConfig};
use gcx::mq::LinkProfile;
use gcx::proxystore::{
    resolve_value, ObjectStore, ProxyCache, ProxyExecutor, ProxyPolicy, StoreRegistry,
};
use gcx::sdk::{Executor, PyFunction, ShellFunction};
use gcx::shell::Vfs;
use gcx::transfer::{TransferService, TransferStatus};

struct DataStack {
    cloud: WebService,
    token: gcx::auth::Token,
    ep: gcx::core::ids::EndpointId,
    agent: Option<EndpointAgent>,
    registry: StoreRegistry,
    endpoint_vfs: Vfs,
}

impl DataStack {
    fn new() -> Self {
        let cloud = WebService::with_defaults(SystemClock::shared());
        let (_, token) = cloud.auth().login("data@test.org").unwrap();
        let reg = cloud
            .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
            .unwrap();
        let registry = StoreRegistry::new();
        let cache = ProxyCache::new(16);
        let endpoint_vfs = Vfs::new();
        let mut env = AgentEnv::local(SystemClock::shared());
        env.vfs = endpoint_vfs.clone();
        let reg2 = registry.clone();
        env.arg_transform = Some(Arc::new(move |v: Value| resolve_value(&v, &reg2, &cache)));
        let config = EndpointConfig::from_yaml(
            "engine:\n  type: GlobusComputeEngine\n  workers_per_node: 2\n",
        )
        .unwrap();
        let agent =
            EndpointAgent::start(&cloud, reg.endpoint_id, &reg.queue_credential, &config, env)
                .unwrap();
        Self {
            cloud,
            token,
            ep: reg.endpoint_id,
            agent: Some(agent),
            registry,
            endpoint_vfs,
        }
    }
}

impl Drop for DataStack {
    fn drop(&mut self) {
        if let Some(a) = self.agent.take() {
            a.stop();
        }
        self.cloud.shutdown();
    }
}

#[test]
fn proxystore_roundtrip_with_worker_cache() {
    let stack = DataStack::new();
    let ex = Executor::new(stack.cloud.clone(), stack.token.clone(), stack.ep).unwrap();
    let store = ObjectStore::new(
        "mem",
        LinkProfile::instant(),
        SystemClock::shared(),
        MetricsRegistry::new(),
    );
    let pex = ProxyExecutor::new(
        ex,
        store.clone(),
        stack.registry.clone(),
        ProxyPolicy {
            min_size: 1024,
            evict_after_result: false,
        },
    );
    // The same large object feeds many tasks; the worker cache means the
    // store is read far fewer times than there are tasks.
    let model = Value::Bytes(vec![5u8; 256 * 1024]);
    let f = PyFunction::new("def f(model, x):\n    return len(model) + x\n");
    let futs: Vec<_> = (0..8)
        .map(|i| {
            pex.submit(&f, vec![model.clone(), Value::Int(i)], Value::None)
                .unwrap()
        })
        .collect();
    for (i, fut) in futs.iter().enumerate() {
        assert_eq!(pex.result(fut).unwrap(), Value::Int(256 * 1024 + i as i64));
    }
    pex.close();
}

#[test]
fn proxied_results_avoid_the_payload_limit() {
    // A function whose *result* would be fine but whose argument exceeds
    // 10 MB: through the cloud it is rejected; through ProxyStore it works.
    let stack = DataStack::new();
    let big = Value::Bytes(vec![1u8; 11 * 1024 * 1024]);
    let f = PyFunction::new("def f(b):\n    return len(b)\n");

    // Plain executor: rejected by the 10 MB rule.
    let plain = Executor::new(stack.cloud.clone(), stack.token.clone(), stack.ep).unwrap();
    let fut = plain.submit(&f, vec![big.clone()], Value::None).unwrap();
    assert!(fut.result_timeout(Duration::from_secs(10)).is_err());
    plain.close();

    // ProxyStore executor: the marker is tiny, the task succeeds.
    let ex = Executor::new(stack.cloud.clone(), stack.token.clone(), stack.ep).unwrap();
    let store = ObjectStore::new(
        "mem",
        LinkProfile::instant(),
        SystemClock::shared(),
        MetricsRegistry::new(),
    );
    let pex = ProxyExecutor::new(ex, store, stack.registry.clone(), ProxyPolicy::default());
    let fut = pex.submit(&f, vec![big], Value::None).unwrap();
    assert_eq!(pex.result(&fut).unwrap(), Value::Int(11 * 1024 * 1024));
    pex.close();
}

#[test]
fn transfer_stages_files_for_shell_tasks() {
    let stack = DataStack::new();
    // A "remote" facility holds the input data.
    let remote_fs = Vfs::new();
    remote_fs.mkdir_p("/archive").unwrap();
    let content = "line one\nline two\nline three\n";
    remote_fs
        .write("/archive/input.txt", content.as_bytes())
        .unwrap();

    let transfer = TransferService::new(
        SystemClock::shared(),
        LinkProfile::wan(5, 1000),
        MetricsRegistry::new(),
    );
    transfer
        .register_endpoint("remote#archive", remote_fs, "/archive")
        .unwrap();
    transfer
        .register_endpoint("compute#scratch", stack.endpoint_vfs.clone(), "/scratch")
        .unwrap();

    // Move the file to the compute endpoint, out of band.
    let tid = transfer
        .submit(
            "remote#archive",
            "input.txt",
            "compute#scratch",
            "input.txt",
        )
        .unwrap();
    assert_eq!(
        transfer.wait(tid, Duration::from_secs(10)).unwrap(),
        TransferStatus::Succeeded
    );

    // The task references the *path* — the cloud never carries the bytes.
    let ex = Executor::new(stack.cloud.clone(), stack.token.clone(), stack.ep).unwrap();
    let wc = ShellFunction::new("wc -l {path}");
    let fut = ex
        .submit(
            &wc,
            vec![],
            Value::map([("path", Value::str("/scratch/input.txt"))]),
        )
        .unwrap();
    let sr = fut.shell_result().unwrap();
    assert_eq!(sr.stdout.trim(), "3");
    ex.close();
}

#[test]
fn inline_vs_offload_vs_proxy_byte_accounting() {
    let stack = DataStack::new();
    let metrics = stack.cloud.metrics().clone();
    let f = PyFunction::new("def f(b):\n    return len(b)\n");

    // Small payload: rides the queue inline.
    let ex = Executor::new(stack.cloud.clone(), stack.token.clone(), stack.ep).unwrap();
    metrics.reset_counters();
    let fut = ex
        .submit(&f, vec![Value::Bytes(vec![0u8; 1024])], Value::None)
        .unwrap();
    fut.result_timeout(Duration::from_secs(10)).unwrap();
    let inline_queue_bytes = metrics.counter("mq.bytes_published").get();
    assert!(inline_queue_bytes >= 1024, "inline payload rides the queue");

    // 1 MB payload: the task record holds it, the queue carries a
    // content-hash reference instead of the body.
    metrics.reset_counters();
    let fut = ex
        .submit(&f, vec![Value::Bytes(vec![0u8; 1024 * 1024])], Value::None)
        .unwrap();
    fut.result_timeout(Duration::from_secs(10)).unwrap();
    let offload_queue_bytes = metrics.counter("mq.bytes_published").get();
    assert!(
        offload_queue_bytes < 64 * 1024,
        "queue carries a reference: {offload_queue_bytes}"
    );
    assert!(
        metrics.counter("payload.bytes_moved").get() < 64 * 1024,
        "the body must not move through the queue"
    );
    ex.close();

    // Proxied payload: the queue never sees the body — only the small
    // proxy reference.
    let ex = Executor::new(stack.cloud.clone(), stack.token.clone(), stack.ep).unwrap();
    let store = ObjectStore::new(
        "mem",
        LinkProfile::instant(),
        SystemClock::shared(),
        MetricsRegistry::new(),
    );
    let pex = ProxyExecutor::new(
        ex,
        store,
        stack.registry.clone(),
        ProxyPolicy {
            min_size: 10 * 1024,
            evict_after_result: false,
        },
    );
    metrics.reset_counters();
    let fut = pex
        .submit(&f, vec![Value::Bytes(vec![0u8; 1024 * 1024])], Value::None)
        .unwrap();
    assert_eq!(pex.result(&fut).unwrap(), Value::Int(1024 * 1024));
    assert!(metrics.counter("mq.bytes_published").get() < 10 * 1024);
    assert!(metrics.counter("payload.bytes_moved").get() < 10 * 1024);
    pex.close();
}
