//! An idle stack sleeps. ONE `#[test]` on purpose: it counts the context
//! switches of every thread in the process, so a second test running beside
//! it would move the count.
//!
//! The rule under test (DESIGN §5): a loop blocks on its input, and its
//! timeout is the time to its own nearest due duty; a periodic duty rides a
//! loop that already wakes, not a thread of its own; and a stop closes or
//! cancels the input, so no loop wakes just to look at a stop flag. So a
//! service with eight idle agents, an idle multi-user endpoint, an idle
//! wire client and an idle executor has no timer threads and wakes only
//! for its duties — the cold path's expiry due, the wire client's beat,
//! the executor's batch tick — still runs a task the moment one arrives,
//! and stops as promptly as it ever did; an idle federation's monitor and
//! rpc loops wait for their next sweep and heartbeat stamp.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gcx::auth::{AuthPolicy, ExpressionMapping, IdentityMapper};
use gcx::cloud::{Federation, WebService, WireClient, WireClientConfig, WireServer};
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
        // The service: the cold path's 25 ms expiry due (≈ 39/s, armed
        // whether or not a sweep is needed) and nothing else; its two
        // result processors park until a result or a cancel.
        // An agent: its puller waits for its 5 s beat. The MEP: with no
        // user endpoint live, no reap is due. Measured 39/s, 0 and 0.
        assert!(service_rate <= 50.0, "service wakes {service_rate:.0}/s");
        assert!(agent_rate <= 5.0, "an idle agent wakes {agent_rate:.0}/s");
        assert!(
            per_second(&mep_loop) <= 5.0,
            "the idle MEP wakes {:.0}/s",
            per_second(&mep_loop)
        );
        // Accept blocks; the client's demux beats once a second, which
        // wakes the server's connection thread; nothing answers the beat.
        // Measured 2/s.
        let wire_rate = per_second(&wire);
        assert!(
            wire_rate <= 5.0,
            "an idle wire client wakes {wire_rate:.0}/s"
        );
        // An idle executor: the batcher's 1 ms tick, a timed park that only
        // a full batch or `close()` cuts short (measured 895–924/s), and the
        // stream thread parked until a result or `close()` (0/s). The
        // batcher's ceiling catches a park that spins or a notify storm;
        // ROADMAP item 3's target, once the tick goes, is ≤ 40/s for the
        // whole executor.
        let batcher_rate = per_second(&|n| n.starts_with("gcx-executor-ba"));
        assert!(
            batcher_rate <= 1_100.0,
            "an idle executor's batcher wakes {batcher_rate:.0}/s"
        );
        let stream_rate = per_second(&|n| executor(n) && !n.starts_with("gcx-executor-ba"));
        assert!(
            stream_rate <= 5.0,
            "an idle executor's stream thread wakes {stream_rate:.0}/s"
        );
    } else {
        eprintln!("idle_census: no /proc/self/task here, wake-ups not counted");
    }

    // ---- an idle federation's monitor and rpc loops, in a window of their
    // own: the replicas' other threads share their names with the service
    // row above ---------------------------------------------------------------
    let fed = Federation::new(2, SystemClock::shared());
    std::thread::sleep(Duration::from_millis(200));
    if let (Some(before), watched) = (census(), Instant::now()) {
        std::thread::sleep(Duration::from_secs(1));
        let after = census().expect("/proc was readable a second ago");
        let seconds = watched.elapsed().as_secs_f64();
        let rate = |name: &str| {
            let (threads, now) = *after.get(name).expect("the thread runs");
            let woke = now - before.get(name).map_or(0, |b| b.1);
            (woke as f64 / seconds, threads)
        };
        // The monitor parks until its next sweep (`heartbeat_timeout_ms /
        // 4`, 7.5 s by default) or a stop. Measured: 0/s.
        let (monitor_rate, _) = rate("gcx-fed-monitor");
        assert!(
            monitor_rate <= 5.0,
            "an idle federation's monitor wakes {monitor_rate:.0}/s"
        );
        // Each replica's rpc loop waits for its next heartbeat stamp, as
        // often as the monitor sweeps. Measured: 0/s.
        let (rpc_rate, replicas) = rate("gcx-fed-rpc");
        assert_eq!(replicas, 2);
        let rpc_rate = rpc_rate / replicas as f64;
        assert!(
            rpc_rate <= 5.0,
            "an idle replica's rpc loop wakes {rpc_rate:.0}/s"
        );
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

    // ---- and it stops promptly -------------------------------------------
    // Every stop closes or cancels the input its thread waits on, so each
    // returns well inside 50 ms, the longest stop-notice slice it replaced:
    // an agent's puller is cancelled, its engine driver woken by a message
    // and its pump by its channel closing.
    let prompt = |what: &str, stop: &mut dyn FnMut()| {
        let t = Instant::now();
        stop();
        let took = t.elapsed();
        assert!(
            took < Duration::from_millis(50),
            "{what} took {took:?} to stop"
        );
    };
    for (ep, agent) in agents.drain(3..) {
        let mut agent = Some(agent);
        prompt(&format!("idle agent {ep}"), &mut || {
            agent.take().unwrap().stop()
        });
    }
    for (_, agent) in agents {
        agent.stop();
    }
    prompt("the wire client", &mut || client.close());
    prompt("the wire server", &mut || server.shutdown());
    let mut idle_ex = Some(idle_ex);
    prompt("the idle executor", &mut || idle_ex.take().unwrap().close());
    let mut mep = Some(mep);
    prompt("the MEP", &mut || mep.take().unwrap().stop());
    prompt("the service", &mut || cloud.shutdown());
    prompt("the federation", &mut || fed.shutdown());
}
