//! E8 — §V: data movement beyond the 10 MB payload limit.
//!
//! Payload sweep across four paths on a simulated WAN (20 ms, 100 Mbps
//! between client/cloud/endpoint; the site-local store is fast):
//!   1. through-the-cloud (inline / S3-offloaded; rejected above 10 MB),
//!   2. ProxyStore over a site-local store (client colocated with workers),
//!   3. ProxyStore over a WAN KV store,
//!   4. Globus Transfer staging + path-passing.
//!
//! Run: `cargo run --release -p gcx-bench --bin data_movement`

use std::sync::Arc;
use std::time::{Duration, Instant};

use gcx_auth::AuthPolicy;
use gcx_bench::{human_bytes, Table};
use gcx_cloud::{CloudConfig, WebService};
use gcx_core::clock::SystemClock;
use gcx_core::metrics::MetricsRegistry;
use gcx_core::value::Value;
use gcx_endpoint::{AgentEnv, EndpointAgent, EndpointConfig};
use gcx_mq::{Broker, LinkProfile};
use gcx_proxystore::{
    resolve_value, ObjectStore, ProxyCache, ProxyExecutor, ProxyPolicy, StoreRegistry,
};
use gcx_sdk::{Executor, PyFunction, ShellFunction};
use gcx_shell::Vfs;
use gcx_transfer::{TransferService, TransferStatus};

const WAN: LinkProfile = LinkProfile {
    latency_ms: 20,
    bytes_per_ms: Some(12_500),
}; // 100 Mbps

struct Stack {
    cloud: WebService,
    token: gcx_auth::Token,
    ep: gcx_core::ids::EndpointId,
    agent: Option<EndpointAgent>,
    registry: StoreRegistry,
    vfs: Vfs,
}

impl Stack {
    fn new() -> Self {
        let clock = SystemClock::shared();
        let auth = gcx_auth::AuthService::new(clock.clone());
        // Both the REST link and the queue link are the WAN: payloads
        // through the cloud pay for every crossing.
        let broker = Broker::with_profile(MetricsRegistry::new(), clock.clone(), WAN);
        let cfg = CloudConfig {
            rest_link: WAN,
            ..CloudConfig::default()
        };
        let cloud = WebService::new(cfg, auth, broker, clock.clone());
        let (_, token) = cloud.auth().login("data@bench.dev").unwrap();
        let reg = cloud
            .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
            .unwrap();
        let registry = StoreRegistry::new();
        let cache = ProxyCache::new(8);
        let vfs = Vfs::new();
        let mut env = AgentEnv::local(clock);
        env.vfs = vfs.clone();
        let r2 = registry.clone();
        env.arg_transform = Some(Arc::new(move |v: Value| resolve_value(&v, &r2, &cache)));
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
            vfs,
        }
    }

    fn stop(mut self) {
        if let Some(a) = self.agent.take() {
            a.stop();
        }
        self.cloud.shutdown();
    }
}

fn main() {
    println!("E8 — data movement paths on a 100 Mbps / 20 ms WAN");
    let sizes: Vec<usize> = vec![
        1024,
        100 * 1024,
        1024 * 1024,
        8 * 1024 * 1024,
        16 * 1024 * 1024,
        64 * 1024 * 1024,
    ];
    let mut table = Table::new(&[
        "payload",
        "cloud path",
        "proxy (site)",
        "proxy (wan)",
        "transfer",
    ]);

    let f_src = "def f(b):\n    return len(b)\n";

    for &size in &sizes {
        let mut cells = vec![human_bytes(size as u64)];

        // --- path 1: through the cloud ------------------------------------
        {
            let stack = Stack::new();
            let ex = Executor::new(stack.cloud.clone(), stack.token.clone(), stack.ep).unwrap();
            let f = PyFunction::new(f_src);
            let started = Instant::now();
            let fut = ex
                .submit(&f, vec![Value::Bytes(vec![0u8; size])], Value::None)
                .unwrap();
            let cell = match fut.result_timeout(Duration::from_secs(120)) {
                Ok(_) => format!("{:.0} ms", started.elapsed().as_secs_f64() * 1000.0),
                Err(gcx_core::error::GcxError::PayloadTooLarge { .. }) => "REJECTED >10MB".into(),
                Err(e) => format!("err: {e}"),
            };
            cells.push(cell);
            ex.close();
            stack.stop();
        }

        // --- path 2: ProxyStore, site-local store --------------------------
        {
            let stack = Stack::new();
            let ex = Executor::new(stack.cloud.clone(), stack.token.clone(), stack.ep).unwrap();
            let store = ObjectStore::new(
                "site",
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
            let f = PyFunction::new(f_src);
            let started = Instant::now();
            let fut = pex
                .submit(&f, vec![Value::Bytes(vec![0u8; size])], Value::None)
                .unwrap();
            pex.result(&fut).unwrap();
            cells.push(format!(
                "{:.0} ms",
                started.elapsed().as_secs_f64() * 1000.0
            ));
            pex.close();
            stack.stop();
        }

        // --- path 3: ProxyStore over the WAN --------------------------------
        {
            let stack = Stack::new();
            let clock = SystemClock::shared();
            let ex = Executor::new(stack.cloud.clone(), stack.token.clone(), stack.ep).unwrap();
            let store = ObjectStore::new("wan-kv", WAN, clock, MetricsRegistry::new());
            let pex = ProxyExecutor::new(
                ex,
                store,
                stack.registry.clone(),
                ProxyPolicy {
                    min_size: 10 * 1024,
                    evict_after_result: false,
                },
            );
            let f = PyFunction::new(f_src);
            let started = Instant::now();
            let fut = pex
                .submit(&f, vec![Value::Bytes(vec![0u8; size])], Value::None)
                .unwrap();
            pex.result(&fut).unwrap();
            cells.push(format!(
                "{:.0} ms",
                started.elapsed().as_secs_f64() * 1000.0
            ));
            pex.close();
            stack.stop();
        }

        // --- path 4: Globus Transfer staging --------------------------------
        {
            let stack = Stack::new();
            let source_fs = Vfs::new();
            source_fs.mkdir_p("/out").unwrap();
            source_fs.write("/out/data.bin", &vec![0u8; size]).unwrap();
            let transfer = TransferService::new(SystemClock::shared(), WAN, MetricsRegistry::new());
            transfer
                .register_endpoint("src", source_fs, "/out")
                .unwrap();
            transfer
                .register_endpoint("dst", stack.vfs.clone(), "/staging")
                .unwrap();
            let ex = Executor::new(stack.cloud.clone(), stack.token.clone(), stack.ep).unwrap();
            let wc = ShellFunction::new("wc -c /staging/data.bin");
            let started = Instant::now();
            let tid = transfer
                .submit("src", "data.bin", "dst", "data.bin")
                .unwrap();
            assert_eq!(
                transfer.wait(tid, Duration::from_secs(300)).unwrap(),
                TransferStatus::Succeeded
            );
            let fut = ex.submit(&wc, vec![], Value::None).unwrap();
            let sr = fut.shell_result().unwrap();
            assert_eq!(sr.stdout.trim(), size.to_string());
            cells.push(format!(
                "{:.0} ms",
                started.elapsed().as_secs_f64() * 1000.0
            ));
            ex.close();
            stack.stop();
        }

        table.row(&cells);
    }

    table.print();
    println!();
    println!("  expected shape: the cloud path is competitive only for small payloads");
    println!("  and is REJECTED above 10 MB; ProxyStore/Transfer scale past the limit,");
    println!("  with the site-local store cheapest (no WAN crossing for the body).");
}
