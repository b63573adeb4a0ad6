//! Federation chaos tests: replica-level faults injected into a
//! multi-replica cloud while a real SDK workload is in flight.
//!
//! The acceptance bar mirrors the single-replica chaos suite, lifted to the
//! federation: every submitted task reaches a terminal state, the SDK
//! observes each result exactly once (duplicates only ever appear in
//! `cloud.duplicate_results_dropped`), and the ownership handover is
//! visible as linked spans inside the task's one trace.
//!
//! All timing runs on a virtual clock: the failure point, the liveness
//! sweep, and the partition window are deterministic. Two environment
//! variables parameterise the suite for CI's seed matrix:
//!
//! - `GCX_CHAOS_SEED` — decimal or `0x`-hex seed for the fault plan;
//! - `GCX_CHAOS_REPLICA_FAULT` — `replica_kill` (default) or
//!   `replica_partition`, selecting how the owner replica fails.

mod common;

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gcx::auth::{AuthPolicy, AuthService};
use gcx::cloud::{CloudConfig, Federation, FederationConfig};
use gcx::core::clock::{SharedClock, VirtualClock};
use gcx::core::metrics::MetricsRegistry;
use gcx::core::retry::RetryPolicy;
use gcx::core::task::{TaskResult, TaskSpec};
use gcx::core::value::Value;
use gcx::mq::{Broker, FaultPlan, LinkProfile, ReplicaFaultRule};
use gcx::sdk::{Client, Executor, ExecutorConfig, PyFunction, TaskFuture};

use common::{assert_observed_exactly, observe};

fn chaos_seed() -> u64 {
    common::chaos_seed(0x0FED_5EED)
}

/// Which replica-level fault the headline scenario injects.
fn fault_is_partition() -> bool {
    matches!(
        std::env::var("GCX_CHAOS_REPLICA_FAULT").as_deref(),
        Ok("replica_partition")
    )
}

fn virtual_federation(
    replicas: usize,
    heartbeat_timeout_ms: u64,
) -> (Arc<VirtualClock>, Federation) {
    let vclock = VirtualClock::new();
    let clock: SharedClock = vclock.clone();
    let broker = Broker::with_profile(
        MetricsRegistry::new(),
        clock.clone(),
        LinkProfile::instant(),
    );
    let fed = Federation::with_parts(
        FederationConfig {
            replicas,
            heartbeat_timeout_ms,
            ..FederationConfig::default()
        },
        CloudConfig::default(),
        AuthService::new(clock.clone()),
        broker,
        clock,
    );
    (vclock, fed)
}

fn answer(spec: &TaskSpec) -> TaskResult {
    let (args, _) = spec.decode_args().unwrap();
    TaskResult::ok(Value::Int(args[0].as_int().unwrap() * 2))
}

/// The headline scenario (the tentpole's acceptance test): a 2-replica
/// federation serves a 24-task workload through a federated executor; the
/// replica owning an in-flight task is killed (or partitioned to death —
/// `GCX_CHAOS_REPLICA_FAULT`) mid-workload. The liveness sweep removes it
/// from the ring, the survivor replays its durable task log (adopting the
/// orphans and republishing the open ones — a deliberate duplicate-delivery
/// window), and queued result envelopes re-route to the adopter. Everything
/// completes with exactly-once result observation, and each adopted task's
/// trace links submit → handover → result.
#[test]
fn owner_replica_dies_mid_flight_tasks_hand_over_exactly_once() {
    const TASKS: usize = 24;
    let (vclock, fed) = virtual_federation(2, 1_000);
    let dir = fed.directory();
    let r0 = dir.get(0).unwrap();
    let r1 = dir.get(1).unwrap();
    let (_, token) = fed.auth().login("fed-chaos@test.org").unwrap();
    let reg = r0
        .register_endpoint(&token, "shared-ep", false, AuthPolicy::open(), None)
        .unwrap();
    // The endpoint session rides the shared broker: it outlives either
    // replica. Connect through the replica that will survive.
    let session = r1
        .connect_endpoint(reg.endpoint_id, &reg.queue_credential)
        .unwrap();

    let ex = Executor::federated(
        dir.clone(),
        token.clone(),
        reg.endpoint_id,
        ExecutorConfig {
            retry: RetryPolicy::fixed(4, 5),
            ..ExecutorConfig::default()
        },
    )
    .unwrap();
    let double = PyFunction::new("def f(x):\n    return x * 2\n");
    let futures: Vec<TaskFuture> = (0..TASKS)
        .map(|i| {
            ex.submit(&double, vec![Value::Int(i as i64)], Value::None)
                .unwrap()
        })
        .collect();
    let resolutions = observe(&futures);

    // Pull every delivery (forwarded submits ship from both replicas'
    // rpc loops, which run on wall time).
    let mut pulled = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(15);
    while pulled.len() < TASKS {
        assert!(
            Instant::now() < deadline,
            "endpoint saw only {} of {TASKS} tasks",
            pulled.len()
        );
        if let Some(d) = session.next_task(Duration::from_millis(20)).unwrap() {
            pulled.push(d);
        }
    }

    // Finish the first third cleanly; the rest are in flight when the
    // fault hits.
    for (spec, tag) in &pulled[..TASKS / 3] {
        session.publish_result(spec.task_id, &answer(spec)).unwrap();
        session.ack_task(*tag).unwrap();
    }
    // Wait until the finished results are actually processed, so the kill
    // cannot race the result pipeline for them.
    let processed = fed.metrics().counter("cloud.results_processed");
    let deadline = Instant::now() + Duration::from_secs(10);
    while (processed.get() as usize) < TASKS / 3 {
        assert!(Instant::now() < deadline, "early results never processed");
        std::thread::sleep(Duration::from_millis(1));
    }

    // The victim is, by construction, the owner of an unfinished in-flight
    // task.
    let mid_flight = pulled[TASKS / 3].0.task_id;
    let victim = fed.owner_of(mid_flight.uuid()).unwrap();
    let now = fed.metrics().tracer().now_ms();
    let plan = if fault_is_partition() {
        // A partition that outlives the heartbeat timeout: the victim is
        // declared dead while its process keeps running as a fenced,
        // stale ex-owner.
        FaultPlan::new(chaos_seed()).with_replica_rule(ReplicaFaultRule::partition(
            victim,
            now + 500,
            now + 60_000,
        ))
    } else {
        FaultPlan::new(chaos_seed()).with_replica_rule(ReplicaFaultRule::kill(victim, now + 500))
    };
    vclock.advance(600);
    assert_eq!(fed.apply_fault_actions(&plan), 1, "the fault must fire");

    // The heartbeat goes stale; the sweep removes the victim from the ring
    // and the survivor adopts its tasks from the durable log.
    vclock.advance(1_500);
    fed.heartbeat_all(); // survivors only: down/partitioned replicas are skipped
    assert_eq!(fed.check_replicas(), 1, "victim must be declared dead");
    assert!(fed.metrics().counter("fed.replicas_dead").get() >= 1);
    assert!(
        fed.metrics().counter("fed.tasks_adopted").get() >= 1,
        "the survivor must adopt the victim's open tasks"
    );

    // Serve everything still outstanding: the original deliveries plus any
    // republished duplicates from the handover replay. Publishing a result
    // twice is exactly the at-least-once behaviour the idempotent ingestion
    // must absorb.
    for (spec, tag) in &pulled[TASKS / 3..] {
        session.publish_result(spec.task_id, &answer(spec)).unwrap();
        session.ack_task(*tag).unwrap();
    }
    let drain_deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < drain_deadline {
        match session.next_task(Duration::from_millis(10)) {
            Ok(Some((spec, tag))) => {
                session
                    .publish_result(spec.task_id, &answer(&spec))
                    .unwrap();
                session.ack_task(tag).unwrap();
            }
            Ok(None) => {
                if resolutions.load(Ordering::SeqCst) >= TASKS {
                    break;
                }
            }
            Err(_) => break,
        }
    }

    for (i, f) in futures.iter().enumerate() {
        assert_eq!(
            f.result_timeout(Duration::from_secs(30)).unwrap(),
            Value::Int(i as i64 * 2),
            "task {i} must complete despite the {} of its owner",
            if fault_is_partition() {
                "partition"
            } else {
                "kill"
            },
        );
    }
    assert_eq!(ex.inflight(), 0);
    assert_observed_exactly(&resolutions, TASKS);

    // Exactly-once at the cloud: one processed completion per task; any
    // extra copies from the republish window were dropped as duplicates.
    assert_eq!(
        fed.metrics().counter("cloud.results_processed").get(),
        TASKS as u64,
        "each task completes exactly once"
    );
    assert_eq!(
        fed.metrics().counter("fed.orphan_results_dropped").get(),
        0,
        "no result may be lost in the handover window"
    );
    // ...and every dropped duplicate is accounted for. A second result for
    // a task has two legitimate sources, both already counted: the death
    // handover republished the open task (`fed.tasks_republished` — one
    // extra delivery, so at most one extra result), or a delivery the
    // victim held unacked (a result off the shared queue, a forwarded
    // result envelope) was requeued by the broker and landed again at the
    // adopter (`mq.redeliveries`). Anything beyond their sum would be a
    // replay bug, not benign dedup (FAULTS.md, replica runbook).
    let m = fed.metrics();
    let duplicates = m.counter("cloud.duplicate_results_dropped").get();
    let republished = m.counter("fed.tasks_republished").get();
    let redelivered = m.counter("mq.redeliveries").get();
    assert!(
        duplicates <= republished + redelivered,
        "{duplicates} duplicate results dropped, but only {republished} tasks were \
         republished and {redelivered} deliveries requeued"
    );

    // The handover is visible inside the task traces: at least one trace
    // carries a `handover` span, and every such trace links submit →
    // handover → result with no orphaned spans and exactly one `result`
    // span (exactly-once, trace edition).
    let traces = fed.tracer().traces();
    let handed_over: Vec<_> = traces
        .iter()
        .filter(|t| t.spans_named("handover").count() >= 1)
        .collect();
    assert!(
        !handed_over.is_empty(),
        "the handover must be visible as spans in the adopted tasks' traces"
    );
    for t in &handed_over {
        assert!(
            t.spans_named("submit").count() >= 1,
            "the adopted task's trace must keep its submit leg"
        );
        assert_eq!(
            t.spans_named("result").count(),
            1,
            "exactly one result span per adopted task"
        );
        assert!(
            t.orphan_spans().is_empty(),
            "handover spans must link into the task's trace, not dangle"
        );
    }
    // Every completed task shows exactly one result span.
    assert_eq!(
        traces
            .iter()
            .map(|t| t.spans_named("result").count())
            .sum::<usize>(),
        TASKS,
        "one result span per task across all traces"
    );

    ex.close();
    drop(session);
    fed.shutdown();
}

/// A killed replica restarts: the fresh incarnation (same id, shared
/// metadata stores) rejoins the ring with an epoch bump and takes back its
/// ownership ranges. Stale SDK handles to the dead incarnation answer
/// `ReplicaUnavailable` — never silently accept work into an orphaned task
/// store — so the polling client rotates, and a post-restart workload
/// spreads across both replicas again and completes exactly once.
#[test]
fn killed_replica_restarts_rejoins_and_serves_again() {
    const BATCH: usize = 12;
    let (vclock, fed) = virtual_federation(2, 1_000);
    let dir = fed.directory();
    let r0 = dir.get(0).unwrap();
    let r1 = dir.get(1).unwrap();
    let (_, token) = fed.auth().login("fed-restart@test.org").unwrap();
    let reg = r0
        .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
        .unwrap();
    let session = r1
        .connect_endpoint(reg.endpoint_id, &reg.queue_credential)
        .unwrap();
    let client = Client::federated(dir.clone(), token.clone()).unwrap();
    let fid = client
        .register_function(&PyFunction::new("def f(x):\n    return x * 2\n"))
        .unwrap();

    let serve = |n: usize| {
        let mut served = 0;
        let deadline = Instant::now() + Duration::from_secs(15);
        while served < n {
            assert!(Instant::now() < deadline, "served only {served} of {n}");
            if let Some((spec, tag)) = session.next_task(Duration::from_millis(20)).unwrap() {
                session
                    .publish_result(spec.task_id, &answer(&spec))
                    .unwrap();
                session.ack_task(tag).unwrap();
                served += 1;
            }
        }
    };

    // Round 1: a clean batch across both replicas.
    let ids: Vec<_> = (0..BATCH)
        .map(|i| {
            client
                .run(
                    fid,
                    reg.endpoint_id,
                    vec![Value::Int(i as i64)],
                    Value::None,
                )
                .unwrap()
        })
        .collect();
    serve(BATCH);
    for (i, r) in client
        .get_batch_results(&ids, Duration::from_millis(5), Duration::from_secs(15))
        .unwrap()
        .into_iter()
        .enumerate()
    {
        assert_eq!(r.unwrap(), Value::Int(i as i64 * 2));
    }

    // Kill replica 0, let the sweep hand its (empty) ranges over, then
    // restart it via the scripted fault plan.
    let now = fed.metrics().tracer().now_ms();
    let plan = FaultPlan::new(chaos_seed())
        .with_replica_rule(ReplicaFaultRule::kill(0, now + 500))
        .with_replica_rule(ReplicaFaultRule::restart(0, now + 5_000));
    vclock.advance(600);
    assert_eq!(fed.apply_fault_actions(&plan), 1);
    vclock.advance(1_500);
    fed.heartbeat_all();
    assert_eq!(fed.check_replicas(), 1);
    assert_eq!(fed.live_replicas(), vec![1]);

    // A stale handle to the dead incarnation is typed-unavailable, and the
    // federated client rotates around it.
    assert!(matches!(
        r0.task_status(&token, gcx::core::ids::TaskId::random()),
        Err(gcx::core::error::GcxError::ReplicaUnavailable(0))
    ));
    let mid = client
        .run(fid, reg.endpoint_id, vec![Value::Int(100)], Value::None)
        .unwrap();
    serve(1);
    assert_eq!(
        client
            .get_result(mid, Duration::from_millis(5), Duration::from_secs(15))
            .unwrap(),
        Value::Int(200)
    );

    vclock.advance(3_500);
    assert_eq!(fed.apply_fault_actions(&plan), 1, "restart must fire");
    fed.heartbeat_all();
    assert_eq!(fed.live_replicas(), vec![0, 1], "replica 0 must rejoin");
    assert_eq!(fed.metrics().counter("fed.replica_restarts").get(), 1);
    // The stale pre-restart handle STAYS unreachable: its task store
    // belongs to the dead incarnation.
    assert!(matches!(
        r0.task_status(&token, gcx::core::ids::TaskId::random()),
        Err(gcx::core::error::GcxError::ReplicaUnavailable(0))
    ));

    // Round 2: ownership is spread across both replicas again and the
    // whole batch completes through the restarted federation.
    let ids2: Vec<_> = (0..BATCH)
        .map(|i| {
            client
                .run(
                    fid,
                    reg.endpoint_id,
                    vec![Value::Int(i as i64)],
                    Value::None,
                )
                .unwrap()
        })
        .collect();
    let owners: std::collections::HashSet<u32> = ids2
        .iter()
        .map(|t| fed.owner_of(t.uuid()).unwrap())
        .collect();
    assert_eq!(owners.len(), 2, "post-restart tasks spread across the ring");
    serve(BATCH);
    for (i, r) in client
        .get_batch_results(&ids2, Duration::from_millis(5), Duration::from_secs(15))
        .unwrap()
        .into_iter()
        .enumerate()
    {
        assert_eq!(r.unwrap(), Value::Int(i as i64 * 2));
    }
    assert_eq!(
        fed.metrics().counter("cloud.results_processed").get(),
        (2 * BATCH + 1) as u64
    );
    assert_eq!(
        fed.metrics()
            .counter("cloud.duplicate_results_dropped")
            .get(),
        0,
        "no fault window here: nothing may be duplicated"
    );

    drop(session);
    fed.shutdown();
}

/// Throughput sanity under chaos is covered by the E12 bench; this test
/// pins the *routing* invariant it relies on: with N replicas every task
/// has exactly one owner at any epoch, and a non-owner consistently
/// redirects rather than serving a split-brain answer.
#[test]
fn non_owners_redirect_consistently_across_epochs() {
    let (vclock, fed) = virtual_federation(3, 1_000);
    let dir = fed.directory();
    let (_, token) = fed.auth().login("fed-routing@test.org").unwrap();
    let r0 = dir.get(0).unwrap();
    let reg = r0
        .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
        .unwrap();
    // Connect the endpoint session through a replica that survives the
    // upcoming kill of replica 2.
    let session = dir
        .get(1)
        .unwrap()
        .connect_endpoint(reg.endpoint_id, &reg.queue_credential)
        .unwrap();
    let client = Client::federated(dir.clone(), token.clone()).unwrap();
    let fid = client
        .register_function(&PyFunction::new("def f(x):\n    return x + 1\n"))
        .unwrap();

    let mut expected = HashMap::new();
    let mut ids = Vec::new();
    for i in 0..18i64 {
        let id = client
            .run(fid, reg.endpoint_id, vec![Value::Int(i)], Value::None)
            .unwrap();
        expected.insert(id, i + 1);
        ids.push(id);
    }
    // A non-owner accepts a submit and *forwards* it to the owner through
    // the broker rpc loop, so the record lands on the owner asynchronously.
    // Wait until every owner can see its task before pinning the routing.
    let settle = Instant::now() + Duration::from_secs(10);
    for id in &ids {
        let owner = dir.get(fed.owner_of(id.uuid()).unwrap()).unwrap();
        while owner.task_status(&token, *id).is_err() {
            assert!(
                Instant::now() < settle,
                "task {id:?} never reached its owner"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    // Exactly one replica answers for each task; the others redirect to it.
    let epoch_before = fed.epoch();
    for id in &ids {
        let owner = fed.owner_of(id.uuid()).unwrap();
        let mut owners_answering = 0;
        for r in dir.live() {
            match dir.get(r).unwrap().task_status(&token, *id) {
                Ok(_) => {
                    assert_eq!(r, owner, "only the ring owner may answer");
                    owners_answering += 1;
                }
                Err(gcx::core::error::GcxError::NotOwner { owner: o }) => {
                    assert_eq!(o, owner, "redirects must name the ring owner");
                }
                Err(e) => panic!("unexpected error from replica {r}: {e}"),
            }
        }
        assert_eq!(owners_answering, 1);
    }

    // Kill one replica: the epoch bumps and ownership stays single-headed
    // among the survivors.
    fed.kill(2);
    vclock.advance(1_500);
    fed.heartbeat_all();
    assert_eq!(fed.check_replicas(), 1);
    assert!(fed.epoch() > epoch_before, "handover must bump the epoch");
    for id in &ids {
        let owner = fed.owner_of(id.uuid()).unwrap();
        assert!(owner != 2, "a dead replica cannot own tasks");
        let mut owners_answering = 0;
        for r in dir.live() {
            match dir.get(r).unwrap().task_status(&token, *id) {
                Ok(_) => owners_answering += 1,
                Err(gcx::core::error::GcxError::NotOwner { owner: o }) => {
                    assert_eq!(o, owner);
                }
                Err(e) => panic!("unexpected error from replica {r}: {e}"),
            }
        }
        assert_eq!(owners_answering, 1, "exactly one owner per task per epoch");
    }

    // And the workload still completes exactly once.
    let mut served = 0;
    let deadline = Instant::now() + Duration::from_secs(15);
    while served < ids.len() {
        assert!(Instant::now() < deadline, "served only {served}");
        if let Some((spec, tag)) = session.next_task(Duration::from_millis(20)).unwrap() {
            let v = expected[&spec.task_id];
            session
                .publish_result(spec.task_id, &TaskResult::ok(Value::Int(v)))
                .unwrap();
            session.ack_task(tag).unwrap();
            served += 1;
        }
    }
    for id in &ids {
        assert_eq!(
            client
                .get_result(*id, Duration::from_millis(5), Duration::from_secs(15))
                .unwrap(),
            Value::Int(expected[id])
        );
    }
    assert_eq!(
        fed.metrics().counter("cloud.results_processed").get(),
        ids.len() as u64
    );

    drop(session);
    fed.shutdown();
}
