//! An idle stack sleeps. ONE `#[test]` on purpose: it counts the context
//! switches of every thread in the process, so a second test running beside
//! it would move the count.
//!
//! The rule under test (DESIGN §5): a loop blocks on its input, and its
//! timeout is the time to its own nearest due duty; a periodic duty rides a
//! loop that already wakes, not a thread of its own. So a service with
//! eight idle agents, an idle multi-user endpoint, an idle wire client and
//! an idle executor has no timer threads, wakes a few dozen times a second
//! per loop to notice a stop flag (the executor's batcher a thousand: its
//! batch tick), still runs a task the moment one arrives, and stops
//! promptly.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gcx::auth::{AuthPolicy, ExpressionMapping, IdentityMapper};
use gcx::cloud::{WebService, WireClient, WireClientConfig, WireServer};
use gcx::config::{Template, TransportSpec};
use gcx::core::clock::SystemClock;
use gcx::core::function::FunctionBody;
use gcx::core::respec::ResourceSpec;
use gcx::core::task::TaskSpec;
use gcx::core::value::Value;
use gcx::endpoint::{AgentEnv, EndpointAgent, EndpointConfig};
use gcx::mep::{MepSetup, MultiUserEndpoint};
use gcx::sdk::{Executor, PyFunction};

const ENGINES: [&str; 3] = [
    "engine:\n  type: ThreadEngine\n  workers: 1\n",
    "engine:\n  type: GlobusComputeEngine\n  workers_per_node: 1\n",
    "engine:\n  type: GlobusMPIEngine\n  nodes_per_block: 2\n",
];

/// Thread name (as the kernel keeps it: 15 bytes) → (threads, voluntary
/// context switches so far), over every thread of this process.
fn census() -> Option<BTreeMap<String, (usize, u64)>> {
    let mut by_name: BTreeMap<String, (usize, u64)> = BTreeMap::new();
    for task in std::fs::read_dir("/proc/self/task").ok()?.flatten() {
        // A thread may exit between the listing and the read.
        let Ok(status) = std::fs::read_to_string(task.path().join("status")) else {
            continue;
        };
        let field = |key: &str| {
            status
                .lines()
                .find_map(|l| l.strip_prefix(key))
                .map(|v| v.trim().to_string())
        };
        let name = field("Name:")?;
        let switches: u64 = field("voluntary_ctxt_switches:")?.parse().ok()?;
        let entry = by_name.entry(name).or_default();
        entry.0 += 1;
        entry.1 += switches;
    }
    Some(by_name)
}

#[test]
fn an_idle_stack_sleeps_and_still_works() {
    let cloud = WebService::with_defaults(SystemClock::shared());
    let (_, token) = cloud.auth().login("idle@site.org").unwrap();

    // Eight agents across the three engine kinds, none ever given a task.
    let mut agents = Vec::new();
    for i in 0..8 {
        let reg = cloud
            .register_endpoint(&token, &format!("ep{i}"), false, AuthPolicy::open(), None)
            .unwrap();
        let config = EndpointConfig::from_yaml(ENGINES[i % 3]).unwrap();
        let agent = EndpointAgent::start(
            &cloud,
            reg.endpoint_id,
            &reg.queue_credential,
            &config,
            AgentEnv::local(SystemClock::shared()),
        )
        .unwrap();
        agents.push((reg.endpoint_id, agent));
    }
    // One multi-user endpoint that reaps user endpoints idle for 100 ms.
    let (_, admin) = cloud.auth().login("root@site.org").unwrap();
    let mep_reg = cloud
        .register_endpoint(&admin, "mep", true, AuthPolicy::open(), None)
        .unwrap();
    let mut mapper = IdentityMapper::new();
    mapper
        .add_expression(ExpressionMapping::username_capture("site.org"))
        .unwrap();
    let mut setup = MepSetup::new(
        mapper,
        Template::parse(ENGINES[1]).unwrap(),
        Arc::new(|_: &str| AgentEnv::local(SystemClock::shared())),
    );
    setup.idle_shutdown = Some(Duration::from_millis(100));
    let mep = MultiUserEndpoint::start(
        cloud.clone(),
        mep_reg.endpoint_id,
        &mep_reg.queue_credential,
        setup,
    )
    .unwrap();

    // One listener with one idle TCP client on it, beating once a second.
    let server = WireServer::listen(&cloud, TransportSpec::default()).unwrap();
    let client =
        WireClient::connect_tcp(server.addr(), &token.0, WireClientConfig::default()).unwrap();
    // One in-process executor that never submits.
    let idle_ex = Executor::new(cloud.clone(), token.clone(), agents[0].0).unwrap();

    // ---- the census -----------------------------------------------------
    std::thread::sleep(Duration::from_millis(200)); // start-up settles
    if let (Some(before), watched) = (census(), Instant::now()) {
        std::thread::sleep(Duration::from_secs(1));
        let after = census().expect("/proc was readable a second ago");
        let seconds = watched.elapsed().as_secs_f64();

        for gone in [
            "gcx-agent-heart",
            "gcx-liveness",
            "gcx-expiry",
            "gcx-mep-reaper",
            "gcx-wire-heartb",
        ] {
            assert!(!after.contains_key(gone), "timer thread {gone} is back");
        }
        let per_second = |names: &dyn Fn(&str) -> bool| -> f64 {
            let woke: u64 = after
                .iter()
                .filter(|(name, _)| names(name))
                .map(|(name, (_, now))| now - before.get(name).map_or(0, |b| b.1))
                .sum();
            woke as f64 / seconds
        };
        let service = |n: &str| n.starts_with("gcx-cold-path") || n.starts_with("gcx-result-proc");
        let mep_loop = |n: &str| n.starts_with("gcx-mep-");
        let wire = |n: &str| n.starts_with("gcx-wire-");
        let executor = |n: &str| n.starts_with("gcx-executor-");
        let service_rate = per_second(&service);
        let agent_rate = per_second(&|n| {
            n.starts_with("gcx-") && !service(n) && !mep_loop(n) && !wire(n) && !executor(n)
        }) / 8.0;
        // Measured: 120/s and 80/s. At the parent of this change: 200/s and
        // 2 930/s (a 1 kHz heartbeat poll and a 500 us engine tick).
        assert!(service_rate <= 200.0, "service wakes {service_rate:.0}/s");
        assert!(agent_rate <= 250.0, "an idle agent wakes {agent_rate:.0}/s");
        assert!(
            per_second(&mep_loop) <= 100.0,
            "the idle MEP wakes {:.0}/s",
            per_second(&mep_loop)
        );
        // Accept blocks; the server's connection thread and the client's
        // demux each look at their stop flag every 50 ms, and the demux
        // beats once a second. Measured: 37–38/s on 3 threads. At the parent
        // of this change: 173–175/s on 4 (a 10 ms accept poll and a
        // heartbeat thread in 25 ms slices).
        let wire_rate = per_second(&wire);
        assert!(
            wire_rate <= 60.0,
            "an idle wire client wakes {wire_rate:.0}/s"
        );
        // An idle executor: the batcher's 1 ms tick, a timed park that only
        // a full batch or `close()` cuts short (measured 895–924/s; 930–933
        // when it slept instead), and the stream thread's 25 ms stop notice
        // (39–40/s). The ceiling catches a park that spins or a notify
        // storm; ROADMAP item 3's target, once the tick goes, is ≤ 40/s for
        // the whole executor.
        let batcher_rate = per_second(&|n| n.starts_with("gcx-executor-ba"));
        assert!(
            batcher_rate <= 1_100.0,
            "an idle executor's batcher wakes {batcher_rate:.0}/s"
        );
        let stream_rate = per_second(&|n| executor(n) && !n.starts_with("gcx-executor-ba"));
        assert!(
            stream_rate <= 60.0,
            "an idle executor's stream thread wakes {stream_rate:.0}/s"
        );
    } else {
        eprintln!("idle_census: no /proc/self/task here, wake-ups not counted");
    }

    // ---- asleep is not deaf: a task to each engine kind completes --------
    let fid = cloud
        .register_function(&token, FunctionBody::pyfn("def f():\n    return 7\n"))
        .unwrap();
    let mpi_fid = cloud
        .register_function(&token, FunctionBody::mpi("hostname"))
        .unwrap();
    let ids: Vec<_> = agents[..3]
        .iter()
        .enumerate()
        .map(|(i, (ep, _))| {
            let mut spec = TaskSpec::new(if i == 2 { mpi_fid } else { fid }, *ep);
            if i == 2 {
                spec.resource_spec = ResourceSpec::nodes_ranks(1, 1);
            }
            cloud.submit_task(&token, spec).unwrap()
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    for id in ids {
        while !cloud.task_status(&token, id).unwrap().0.is_terminal() {
            assert!(Instant::now() < deadline, "task {id} never finished");
            std::thread::sleep(Duration::from_millis(2));
        }
        let result = cloud.task_status(&token, id).unwrap().1.unwrap();
        assert!(result.ok_value().is_some(), "task {id}: {result:?}");
    }
    // And through the MEP: the command loop spawns a user endpoint, the
    // task runs, and the same loop reaps the endpoint once it has idled.
    let (_, user) = cloud.auth().login("jane@site.org").unwrap();
    let ex = Executor::new(cloud.clone(), user, mep_reg.endpoint_id).unwrap();
    ex.set_user_endpoint_config(Value::map([] as [(&str, Value); 0]));
    let fut = ex
        .submit(
            &PyFunction::new("def f():\n    return 7\n"),
            vec![],
            Value::None,
        )
        .unwrap();
    assert_eq!(
        fut.result_timeout(Duration::from_secs(20)).unwrap(),
        Value::Int(7)
    );
    assert_eq!(mep.total_spawned(), 1);
    let deadline = Instant::now() + Duration::from_secs(5);
    while mep.live_endpoints() > 0 {
        assert!(Instant::now() < deadline, "idle user endpoint never reaped");
        std::thread::sleep(Duration::from_millis(5));
    }
    ex.close();
    idle_ex.close();

    // ---- and it stops promptly -------------------------------------------
    // An agent's stop waits out one 25 ms pull timeout at most; the engine
    // driver is woken by a message and the pump by its channel closing.
    for (ep, agent) in agents.drain(3..) {
        let t = Instant::now();
        agent.stop();
        let took = t.elapsed();
        assert!(
            took < Duration::from_millis(50),
            "idle agent {ep} took {took:?} to stop"
        );
    }
    for (_, agent) in agents {
        agent.stop();
    }
    client.close();
    server.shutdown();
    mep.stop();
    cloud.shutdown();
}
