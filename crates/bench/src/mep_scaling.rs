//! E7 — §IV/§VI: multi-user endpoint spawn-on-demand and config-hash reuse.
//!
//! The paper reports that by Aug 2024, 87 MEPs had spawned 1,718 user
//! endpoints (~20 UEPs per MEP). We run one MEP with a population of users
//! and configs shaped to that fan-out and measure:
//!   - cold-start latency (first task on a new config: spawn + run),
//!   - warm latency (subsequent tasks reuse the UEP),
//!   - the UEP-per-MEP fan-out and the cloud's reuse counters.
//!
//! Expected shape (spawns and reuses asserted): exactly one spawn per
//! (user, config hash); every later task reuses its UEP, so warm latency
//! sits below cold start, which pays identity mapping, template render and
//! agent start.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gcx_auth::{AuthPolicy, ExpressionMapping, IdentityMapper};
use gcx_cloud::WebService;
use gcx_config::Template;
use gcx_core::clock::SystemClock;
use gcx_core::value::Value;
use gcx_endpoint::AgentEnv;
use gcx_mep::{MepSetup, MultiUserEndpoint};
use gcx_sdk::{Executor, ExecutorConfig, PyFunction};

use crate::{row, Row};

const USERS: usize = 10;
const CONFIGS_PER_USER: usize = 2; // → 20 UEPs: the paper's ~20x fan-out
const TASKS_PER_CONFIG: usize = 5;

pub(crate) fn run(_smoke: bool, _rep: u64) -> Vec<Row> {
    let cloud = WebService::with_defaults(SystemClock::shared());
    let (_, admin) = cloud.auth().login("admin@site.edu").unwrap();
    let reg = cloud
        .register_endpoint(&admin, "mep", true, AuthPolicy::open(), None)
        .unwrap();

    let mut mapper = IdentityMapper::new();
    mapper
        .add_expression(ExpressionMapping::username_capture("site.edu"))
        .unwrap();
    let template = Template::parse(
        "engine:\n  type: GlobusComputeEngine\n  workers_per_node: {{ WORKERS|default(1) }}\n",
    )
    .unwrap();
    let mep = MultiUserEndpoint::start(
        cloud.clone(),
        reg.endpoint_id,
        &reg.queue_credential,
        MepSetup::new(
            mapper,
            template,
            Arc::new(|user: &str| {
                let mut env = AgentEnv::local(SystemClock::shared());
                env.hostname = format!("n-{user}");
                env
            }),
        ),
    )
    .unwrap();

    let f = PyFunction::new("def f():\n    return 1\n");
    let mut cold = Vec::new();
    let mut warm = Vec::new();
    for u in 0..USERS {
        let (_, token) = cloud.auth().login(&format!("user{u}@site.edu")).unwrap();
        for c in 0..CONFIGS_PER_USER {
            // Immediate flushing so latencies reflect spawn cost, not the
            // submission batching window.
            let ex = Executor::with_config(
                cloud.clone(),
                token.clone(),
                reg.endpoint_id,
                ExecutorConfig {
                    batch_window: Duration::from_millis(0),
                    max_batch: 1,
                    ..ExecutorConfig::default()
                },
            )
            .unwrap();
            ex.set_user_endpoint_config(Value::map([("WORKERS", Value::Int(c as i64 + 1))]));
            for t in 0..TASKS_PER_CONFIG {
                let started = Instant::now();
                let fut = ex.submit(&f, vec![], Value::None).unwrap();
                fut.result_timeout(Duration::from_secs(30)).unwrap();
                let latency_ms = started.elapsed().as_secs_f64() * 1000.0;
                if t == 0 {
                    cold.push(latency_ms);
                } else {
                    warm.push(latency_ms);
                }
            }
            ex.close();
        }
    }

    let spawned = mep.total_spawned();
    let count = |name: &str| cloud.metrics().counter(name).get();
    assert_eq!(spawned, (USERS * CONFIGS_PER_USER) as u64);
    assert_eq!(
        count("mep.uep_reused"),
        (USERS * CONFIGS_PER_USER * (TASKS_PER_CONFIG - 1)) as u64
    );
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let r = row(
        "one MEP (paper: ~19.7 UEPs per MEP, 1718/87)",
        &[
            ("ueps_spawned", spawned as f64),
            ("cold_mean_ms", mean(&cold)),
            ("cold_max_ms", cold.iter().copied().fold(0.0, f64::max)),
            ("warm_mean_ms", mean(&warm)),
            ("spawn_requests", count("mep.uep_spawn_requested") as f64),
            ("uep_reuses", count("mep.uep_reused") as f64),
        ],
    );
    mep.stop();
    cloud.shutdown();
    vec![r]
}
