//! A near-real-time analysis campaign (§V and §VI "Real-time analysis").
//!
//! Models the APS→ALCF pattern: an instrument endpoint produces large scan
//! files; Globus Transfer moves them to the compute facility out-of-band;
//! compute tasks analyze them; large analysis products flow back to the
//! client through ProxyStore instead of the 10 MB cloud path.
//!
//! Run with: `cargo run --example beamline_campaign`

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

fn main() {
    let clock = SystemClock::shared();
    let cloud = WebService::with_defaults(clock.clone());
    let (_, token) = cloud.auth().login("beamline@aps.anl.gov").unwrap();

    // Two facilities, two filesystems.
    let aps_fs = Vfs::new();
    let alcf_fs = Vfs::new();

    // The compute endpoint at "ALCF" works against the ALCF filesystem and
    // resolves ProxyStore proxies worker-side.
    let registry = StoreRegistry::new();
    let cache = ProxyCache::new(32);
    let reg = cloud
        .register_endpoint(&token, "alcf-polaris", false, AuthPolicy::open(), None)
        .unwrap();
    let config = EndpointConfig::from_yaml(
        "engine:\n  type: GlobusComputeEngine\n  workers_per_node: 4\n  sandbox: true\n",
    )
    .unwrap();
    let mut env = AgentEnv::local(clock.clone());
    env.vfs = alcf_fs.clone();
    env.hostname = "polaris".into();
    let reg2 = registry.clone();
    let cache2 = cache.clone();
    env.arg_transform = Some(Arc::new(move |v: Value| resolve_value(&v, &reg2, &cache2)));
    let agent =
        EndpointAgent::start(&cloud, reg.endpoint_id, &reg.queue_credential, &config, env).unwrap();

    // Globus Transfer between the facilities (100 Mbps WAN, 20 ms RTT).
    let transfer = TransferService::new(
        clock.clone(),
        LinkProfile::wan(20, 100),
        MetricsRegistry::new(),
    );
    transfer
        .register_endpoint("aps#detector", aps_fs.clone(), "/scans")
        .unwrap();
    transfer
        .register_endpoint("alcf#flows", alcf_fs.clone(), "/staging")
        .unwrap();

    // ProxyStore for large results back to the client.
    let store = ObjectStore::new(
        "campaign-store",
        LinkProfile::instant(),
        clock.clone(),
        MetricsRegistry::new(),
    );
    let ex = Executor::new(cloud.clone(), token, reg.endpoint_id).unwrap();
    let pex = ProxyExecutor::new(ex, store, registry, ProxyPolicy::default());

    // ---- the campaign -----------------------------------------------------
    println!("acquiring scans at the beamline…");
    for scan in 0..3 {
        // 1. The instrument writes a scan file at APS (2 MB).
        let raw: Vec<u8> = (0..2_000_000u32).map(|i| (i % 251) as u8).collect();
        aps_fs
            .write(&format!("/scans/scan{scan}.raw"), &raw)
            .unwrap();

        // 2. Fire-and-forget transfer APS → ALCF.
        let tid = transfer
            .submit(
                "aps#detector",
                &format!("scan{scan}.raw"),
                "alcf#flows",
                &format!("scan{scan}.raw"),
            )
            .unwrap();
        let status = transfer.wait(tid, Duration::from_secs(30)).unwrap();
        assert_eq!(status, TransferStatus::Succeeded);

        // 3. A ShellFunction checks the staged file (path, not payload,
        //    crossed the cloud).
        let stat = ShellFunction::new("wc -c /staging/scan{n}.raw");
        let fut = pex
            .submit(&stat, vec![], Value::map([("n", Value::Int(scan))]))
            .unwrap();
        let sr = fut.shell_result().unwrap();
        assert_eq!(sr.returncode, 0, "stat failed: {}", sr.stderr);
        println!("  scan{scan}: staged {} bytes at ALCF", sr.stdout.trim());

        // 4. An analysis function produces a large product; ProxyStore
        //    carries it back (the 10 MB cloud limit never sees it).
        let analyze = PyFunction::new(
            "def analyze(n):\n    histogram = []\n    for i in range(2048):\n        histogram.append((i * 31 + n) % 251)\n    return {'scan': n, 'histogram': histogram, 'peak': max(histogram)}\n",
        );
        let fut = pex
            .submit(&analyze, vec![Value::Int(scan)], Value::None)
            .unwrap();
        let product = pex.result(&fut).unwrap();
        println!(
            "  scan{scan}: analysis peak={} ({} histogram bins)",
            product.get("peak").unwrap(),
            product.get("histogram").unwrap().as_list().unwrap().len()
        );
    }

    println!(
        "cloud bytes: {} | transfer bytes: {}",
        cloud.metrics().counter("mq.bytes_published").get(),
        3 * 2_000_000,
    );

    agent.stop();
    pex.close();
    cloud.shutdown();
    println!("campaign complete.");
}
