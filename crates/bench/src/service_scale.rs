//! E9 — §I/§VI scale: one web service brokering many endpoints.
//!
//! The production service has served 12,418 endpoints and 44 M tasks. We
//! scale a single in-process service across an increasing endpoint count
//! (scaled down ~100×: threads are endpoints here) and show sustained
//! task throughput through one cloud, which is the paper's architectural
//! claim — the hosted service is the single, highly-available broker.
//! Expected shape: throughput holds (or grows with worker parallelism) as
//! endpoints multiply — the service fans out per-endpoint queues and one
//! shared result pipeline, so endpoint count is not the bottleneck.

use std::time::{Duration, Instant};

use gcx_auth::AuthPolicy;
use gcx_cloud::WebService;
use gcx_core::clock::SystemClock;
use gcx_core::value::Value;
use gcx_endpoint::{AgentEnv, EndpointAgent, EndpointConfig};
use gcx_sdk::{Executor, PyFunction};

use crate::{row, Row};

const TASKS_TOTAL: usize = 1200;

pub(crate) fn run(_smoke: bool, _rep: u64) -> Vec<Row> {
    [1usize, 4, 16, 64]
        .into_iter()
        .map(|n| {
            let (elapsed_s, queue_msgs) = leg(n);
            row(
                format!("{n} endpoints"),
                &[
                    ("total_s", elapsed_s),
                    ("tasks_per_s", TASKS_TOTAL as f64 / elapsed_s),
                    ("queue_msgs", queue_msgs as f64),
                ],
            )
        })
        .collect()
}

/// Wall time (s) and broker messages for the whole workload spread round
/// robin over `n_endpoints` endpoints.
fn leg(n_endpoints: usize) -> (f64, u64) {
    let cloud = WebService::with_defaults(SystemClock::shared());
    let (_, token) = cloud.auth().login("scale@bench.dev").unwrap();
    let config =
        EndpointConfig::from_yaml("engine:\n  type: GlobusComputeEngine\n  workers_per_node: 2\n")
            .unwrap();
    let mut agents = Vec::new();
    let mut executors = Vec::new();
    for i in 0..n_endpoints {
        let reg = cloud
            .register_endpoint(&token, &format!("ep{i}"), false, AuthPolicy::open(), None)
            .unwrap();
        let mut env = AgentEnv::local(SystemClock::shared());
        env.hostname = format!("host{i}");
        agents.push(
            EndpointAgent::start(&cloud, reg.endpoint_id, &reg.queue_credential, &config, env)
                .unwrap(),
        );
        executors.push(Executor::new(cloud.clone(), token.clone(), reg.endpoint_id).unwrap());
    }
    let f = PyFunction::new("def f(x):\n    return x\n");
    cloud.metrics().reset_counters();

    let started = Instant::now();
    let futures: Vec<_> = (0..TASKS_TOTAL)
        .map(|i| {
            executors[i % n_endpoints]
                .submit(&f, vec![Value::Int(i as i64)], Value::None)
                .unwrap()
        })
        .collect();
    for fut in &futures {
        fut.result_timeout(Duration::from_secs(120)).unwrap();
    }
    let elapsed = started.elapsed().as_secs_f64();
    let queue_msgs = cloud.metrics().counter("mq.messages_published").get();

    for ex in executors {
        ex.close();
    }
    for a in agents {
        a.stop();
    }
    cloud.shutdown();
    (elapsed, queue_msgs)
}
