//! `submit_batch` at the replica that owns the tasks vs. at one that must
//! forward them (three replicas).

use gcx_auth::{AuthPolicy, AuthService};
use gcx_cloud::{CloudConfig, Federation, FederationConfig};
use gcx_core::function::FunctionBody;
use gcx_core::metrics::MetricsRegistry;
use gcx_core::task::TaskSpec;
use gcx_mq::{Broker, LinkProfile};

use super::{clock, small_specs, time_batch, Probe};
use crate::stack::NO_EXPIRY_MS;

const BATCHES: usize = 12;

pub fn run(p: &mut Probe<'_>) {
    let clock = clock();
    let broker = Broker::with_profile(
        MetricsRegistry::new(),
        clock.clone(),
        LinkProfile::instant(),
    );
    let fed = Federation::with_parts(
        FederationConfig {
            replicas: 3,
            heartbeat_timeout_ms: NO_EXPIRY_MS,
            ..FederationConfig::default()
        },
        CloudConfig {
            heartbeat_timeout_ms: NO_EXPIRY_MS,
            ..CloudConfig::default()
        },
        AuthService::new(clock.clone()),
        broker,
        clock,
    );
    let r0 = fed.replica(0).expect("replica 0");
    let (_, token) = fed.auth().login("probe@gcx.dev").expect("login");
    let function = r0
        .register_function(&token, FunctionBody::pyfn("def f(x):\n    return x + 1\n"))
        .expect("register function");
    let endpoint = r0
        .register_endpoint(&token, "probe-ep", false, AuthPolicy::open(), None)
        .expect("register endpoint")
        .endpoint_id;

    // Task ids are random, so draw specs until a batch is all owned by
    // replica 0 (or all by others).
    let mut batches = |owned_by_r0: bool| -> Vec<Vec<TaskSpec>> {
        (0..BATCHES)
            .map(|_| {
                let mut batch = Vec::with_capacity(128);
                while batch.len() < 128 {
                    batch.extend(
                        small_specs(p.rng, function, endpoint, 128)
                            .into_iter()
                            .filter(|s| (fed.owner_of(s.task_id.uuid()) == Some(0)) == owned_by_r0)
                            .take(128 - batch.len()),
                    );
                }
                batch
            })
            .collect()
    };
    let mut submit = |owned_by_r0: bool| {
        time_batch(
            BATCHES * 128,
            || batches(owned_by_r0),
            |batches| {
                for specs in batches {
                    r0.submit_batch(&token, specs).expect("submit_batch");
                }
            },
        )
    };
    let owner = submit(true);
    let forward = submit(false);
    p.out
        .insert("cloud.federation.submit_owner_ns_per_task", owner);
    p.out
        .insert("cloud.federation.submit_forward_ns_per_task", forward);
    fed.shutdown();
}
