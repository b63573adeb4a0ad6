//! E12 — federated cloud: throughput vs replica count, clean and under
//! replica chaos.
//!
//! The paper's hosted service is one logical cloud; the federation layer
//! replicates it for availability. This bench measures what replication
//! costs (and buys): N `CloudService` replicas share one broker and one
//! consistent-hash ring; client threads submit batches round-robin across
//! replica bindings — a non-owner forwards to the owner through broker
//! envelopes — while endpoint session pools drain the task queues.
//!
//! Two legs per replica count:
//! - **clean**: no faults, aggregate tasks/s;
//! - **chaos** (replicas ≥ 2): one replica is killed while half the
//!   workload is in flight; the sweep hands its ownership ranges over,
//!   survivors adopt its orphans from the durable task log, and the run
//!   still completes every task exactly once (asserted on
//!   `cloud.results_processed`).
//!
//! Expected shape: clean throughput holds as replicas multiply (forwarding
//! adds a broker hop for ~1-1/N of submits); the chaos leg completes every
//! task exactly once, paying only the handover window. Every leg asserts
//! exactly-once completion and bounds the duplicates it dropped by what
//! was republished or requeued.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gcx_auth::{AuthPolicy, AuthService};
use gcx_cloud::{CloudConfig, Federation, FederationConfig, WebService};
use gcx_core::clock::SystemClock;
use gcx_core::function::FunctionBody;
use gcx_core::ids::TaskId;
use gcx_core::metrics::MetricsRegistry;
use gcx_core::task::{TaskResult, TaskSpec};
use gcx_core::value::Value;
use gcx_mq::{Broker, LinkProfile};

use crate::{row, Row};

struct Params {
    tasks: usize,
    batch: usize,
    drains: usize,
}

/// Submit `n` tasks in batches, rotating across `bindings`; a binding that
/// answers `ReplicaUnavailable` (it died mid-leg) is skipped.
fn submit_round_robin(
    bindings: &[WebService],
    token: &gcx_auth::Token,
    fid: gcx_core::ids::FunctionId,
    ep: gcx_core::ids::EndpointId,
    n: usize,
    batch: usize,
    offset: usize,
) -> Vec<TaskId> {
    let mut ids = Vec::with_capacity(n);
    let mut submitted = 0usize;
    let mut turn = 0usize;
    while submitted < n {
        let take = batch.min(n - submitted);
        let specs: Vec<TaskSpec> = (0..take)
            .map(|k| {
                let mut spec = TaskSpec::new(fid, ep);
                spec.set_args(
                    vec![Value::Int((offset + submitted + k) as i64)],
                    Value::None,
                );
                spec
            })
            .collect();
        let svc = &bindings[turn % bindings.len()];
        turn += 1;
        match svc.submit_batch(token, specs) {
            Ok(batch_ids) => {
                ids.extend(batch_ids);
                submitted += take;
            }
            // The binding's replica is down or fenced: rotate to the next.
            Err(_) => continue,
        }
    }
    ids
}

/// Poll the union of `task_status_batch` across live replicas until every
/// id is terminal. Non-owners skip foreign tasks, so the union over the
/// directory is the federated view.
fn await_all_terminal(fed: &Federation, token: &gcx_auth::Token, ids: &[TaskId]) {
    let dir = fed.directory();
    let deadline = Instant::now() + Duration::from_secs(300);
    let mut open: HashSet<TaskId> = ids.iter().copied().collect();
    while !open.is_empty() {
        assert!(
            Instant::now() < deadline,
            "{} tasks never reached a terminal state",
            open.len()
        );
        let pending: Vec<TaskId> = open.iter().copied().collect();
        for r in fed.live_replicas() {
            let Some(svc) = dir.get(r) else { continue };
            let Ok(statuses) = svc.task_status_batch(token, &pending) else {
                continue;
            };
            for (id, state, _) in statuses {
                if state.is_terminal() {
                    open.remove(&id);
                }
            }
        }
        if !open.is_empty() {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

/// One leg: `replicas` replicas serving `p.tasks` tasks; when `chaos`,
/// the last replica is killed with half the workload in flight.
fn run_leg(replicas: usize, chaos: bool, p: &Params) -> Row {
    let clock = SystemClock::shared();
    let broker = Broker::with_profile(
        MetricsRegistry::new(),
        clock.clone(),
        LinkProfile::instant(),
    );
    let fed = Federation::with_parts(
        FederationConfig {
            replicas,
            heartbeat_timeout_ms: 400,
        },
        CloudConfig {
            heartbeat_timeout_ms: 600_000,
            ..CloudConfig::default()
        },
        AuthService::new(clock.clone()),
        broker,
        clock,
    );
    let dir = fed.directory();
    let (_, token) = fed.auth().login("federation@bench.dev").unwrap();
    let r0 = dir.get(0).unwrap();
    let fid = r0
        .register_function(&token, FunctionBody::pyfn("def f(x):\n    return x\n"))
        .unwrap();
    let reg = r0
        .register_endpoint(&token, "fed-ep", false, AuthPolicy::open(), None)
        .unwrap();

    // The drain pool rides the shared broker, so it keeps serving (and
    // absorbing republished duplicates) across the kill. Connect through
    // replica 0, which every leg keeps alive.
    let stop = Arc::new(AtomicBool::new(false));
    let mut drain_handles = Vec::new();
    for _ in 0..p.drains {
        let session = r0
            .connect_endpoint(reg.endpoint_id, &reg.queue_credential)
            .unwrap();
        let stop = Arc::clone(&stop);
        drain_handles.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                match session.next_task(Duration::from_millis(10)) {
                    Ok(Some((spec, tag))) => {
                        let _ =
                            session.publish_result(spec.task_id, &TaskResult::ok(Value::Int(1)));
                        let _ = session.ack_task(tag);
                    }
                    Ok(None) => {}
                    Err(_) => break,
                }
            }
        }));
    }

    let mut bindings: Vec<WebService> = (0..replicas as u32).filter_map(|r| dir.get(r)).collect();
    let submit = |bindings: &[WebService], n: usize, offset: usize| {
        submit_round_robin(bindings, &token, fid, reg.endpoint_id, n, p.batch, offset)
    };
    let first = if chaos { p.tasks / 2 } else { p.tasks };
    let started = Instant::now();
    let mut ids = submit(&bindings, first, 0);
    if chaos {
        // Kill the last replica with the first half in flight; the monitor
        // thread declares it dead and hands its ranges over. Wait for the
        // ring to shrink so the second half routes around the corpse.
        fed.kill((replicas - 1) as u32);
        let handover_deadline = Instant::now() + Duration::from_secs(30);
        while fed.live_replicas().len() != replicas - 1 {
            assert!(
                Instant::now() < handover_deadline,
                "handover never completed"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        bindings.pop();
        ids.extend(submit(&bindings, p.tasks - first, first));
    }
    assert_eq!(ids.len(), p.tasks);
    await_all_terminal(&fed, &token, &ids);
    let elapsed_ms = started.elapsed().as_secs_f64() * 1000.0;

    // Exactly-once across the fault: one processed completion per task,
    // however many duplicate deliveries the handover republish produced.
    let count = |name: &str| fed.metrics().counter(name).get();
    let leg = format!(
        "{replicas} replicas, {}",
        if chaos { "chaos" } else { "clean" }
    );
    assert_eq!(
        count("cloud.results_processed"),
        p.tasks as u64,
        "{leg}: completions must be exactly-once"
    );
    // The two places a second result can legitimately come from (FAULTS.md,
    // replica runbook); their sum bounds the duplicates dropped.
    let dropped = count("cloud.duplicate_results_dropped");
    let republished = count("fed.tasks_republished");
    let requeued = count("mq.redeliveries");
    assert!(
        dropped <= republished + requeued,
        "{leg}: {dropped} duplicates from {republished} republished + {requeued} requeued"
    );
    let r = row(
        leg,
        &[
            ("elapsed_ms", elapsed_ms),
            ("tasks_per_s", p.tasks as f64 * 1000.0 / elapsed_ms),
            ("adopted", count("fed.tasks_adopted") as f64),
            ("dup_dropped", dropped as f64),
            ("republished", republished as f64),
            ("requeued", requeued as f64),
        ],
    );

    stop.store(true, Ordering::Relaxed);
    for d in drain_handles {
        let _ = d.join();
    }
    fed.shutdown();
    r
}

pub(crate) fn run(smoke: bool, _rep: u64) -> Vec<Row> {
    let (p, replica_counts) = if smoke {
        let p = Params {
            tasks: 128,
            batch: 16,
            drains: 2,
        };
        (p, &[1, 2][..])
    } else {
        let p = Params {
            tasks: 2048,
            batch: 64,
            drains: 4,
        };
        (p, &[1, 2, 4][..])
    };
    let mut rows = Vec::new();
    for &replicas in replica_counts {
        rows.push(run_leg(replicas, false, &p));
        if replicas >= 2 {
            rows.push(run_leg(replicas, true, &p));
        }
    }
    rows
}
