//! Chaos tests: scripted failures injected into the full SDK → cloud →
//! broker → endpoint stack, checking the recovery machinery end to end.
//!
//! The acceptance bar for each scenario is the same: every submitted task
//! reaches a terminal state (no hangs, no lost tasks) and the SDK observes
//! each result exactly once (no duplicated side effects).

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gcx::auth::{AuthPolicy, AuthService};
use gcx::batch::{
    BatchScheduler, ClusterSpec, PartitionSpec, ResourceFaultPlan, ResourceFaultRule,
};
use gcx::cloud::service::RESULT_QUEUE;
use gcx::cloud::{CloudConfig, EndpointHealth, WebService};
use gcx::core::clock::{SharedClock, SystemClock, VirtualClock};
use gcx::core::error::GcxError;
use gcx::core::metrics::MetricsRegistry;
use gcx::core::respec::ResourceSpec;
use gcx::core::retry::RetryPolicy;
use gcx::core::shellres::ShellResult;
use gcx::core::task::TaskResult;
use gcx::core::value::Value;
use gcx::endpoint::{AgentEnv, EndpointAgent, EndpointConfig};
use gcx::mq::{Broker, FaultDirection, FaultPlan, FaultRule, LinkProfile};
use gcx::sdk::{Executor, ExecutorConfig, MpiFunction, PyFunction, ShellFunction, TaskFuture};

use common::{assert_observed_exactly, observe};

/// The engine the generic chaos scenarios run on: `GCX_CHAOS_ENGINE` selects
/// `GlobusComputeEngine` (default), `GlobusMPIEngine`, or `ThreadEngine` —
/// all three share the execution core, so the recovery acceptance bar
/// (100% completion, exactly-once observation) is engine-independent and CI
/// runs the seed matrix across every engine. The resource-fault scenario
/// pins its own engines: it scripts batch-layer faults that need specific
/// provider-backed topologies.
fn engine_yaml() -> &'static str {
    match std::env::var("GCX_CHAOS_ENGINE").as_deref() {
        Ok("ThreadEngine") => "engine:\n  type: ThreadEngine\n  workers: 2\n",
        Ok("GlobusMPIEngine") => "engine:\n  type: GlobusMPIEngine\n  nodes_per_block: 2\n",
        _ => "engine:\n  type: GlobusComputeEngine\n  workers_per_node: 2\n",
    }
}

fn virtual_service(heartbeat_timeout_ms: u64) -> (Arc<VirtualClock>, WebService) {
    let vclock = VirtualClock::new();
    let clock: SharedClock = vclock.clone();
    let cfg = CloudConfig {
        heartbeat_timeout_ms,
        ..CloudConfig::default()
    };
    let broker = Broker::with_profile(
        MetricsRegistry::new(),
        clock.clone(),
        LinkProfile::instant(),
    );
    let svc = WebService::new(cfg, AuthService::new(clock.clone()), broker, clock);
    (vclock, svc)
}

/// The headline scenario: an endpoint agent dies mid-workload — after
/// completing some tasks, after publishing-but-not-acking one (the classic
/// duplicate window), and while holding several deliveries it will never
/// finish. The liveness monitor declares it offline and requeues its
/// in-flight tasks; a replacement agent connects and serves the rest. All
/// timing runs on a virtual clock, so the failure point and the recovery
/// sweep are deterministic.
#[test]
fn killed_agent_mid_workload_tasks_reroute_and_complete() {
    const TASKS: i64 = 12;
    let (vclock, svc) = virtual_service(1_000);
    let (_, token) = svc.auth().login("chaos@test.org").unwrap();
    let reg = svc
        .register_endpoint(&token, "doomed", false, AuthPolicy::open(), None)
        .unwrap();

    let ex = Executor::with_config(
        svc.clone(),
        token.clone(),
        reg.endpoint_id,
        ExecutorConfig {
            retry: RetryPolicy::fixed(3, 5),
            ..ExecutorConfig::default()
        },
    )
    .unwrap();
    let double = PyFunction::new("def f(x):\n    return x * 2\n");
    let futures: Vec<TaskFuture> = (0..TASKS)
        .map(|i| {
            ex.submit(&double, vec![Value::Int(i)], Value::None)
                .unwrap()
        })
        .collect();
    let resolutions = observe(&futures);

    // "Agent A": a scripted endpoint session that pulls six deliveries,
    // finishes two cleanly, publishes a third result but crashes before the
    // ack, and hangs holding the other three. The session is kept alive —
    // a hung process does not return its deliveries — so only the liveness
    // sweep can recover them.
    let session_a = svc
        .connect_endpoint(reg.endpoint_id, &reg.queue_credential)
        .unwrap();
    let mut pulled = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(10);
    while pulled.len() < 6 {
        assert!(Instant::now() < deadline, "agent A never saw its 6 tasks");
        if let Some(d) = session_a.next_task(Duration::from_millis(20)).unwrap() {
            pulled.push(d);
        }
    }
    let answer = |spec: &gcx::core::task::TaskSpec| {
        let (args, _) = spec.decode_args().unwrap();
        TaskResult::ok(Value::Int(args[0].as_int().unwrap() * 2))
    };
    for (spec, tag) in &pulled[..2] {
        session_a
            .publish_result(spec.task_id, &answer(spec))
            .unwrap();
        session_a.ack_task(*tag).unwrap();
    }
    session_a
        .publish_result(pulled[2].0.task_id, &answer(&pulled[2].0))
        .unwrap();
    // ...and here agent A stops making progress forever.

    // Agent A's three results reach the executor, whose batcher confirms
    // them on its next pass, and the confirm retires their records — the
    // published-but-unacked task's among them.
    let rerun = pulled[2].0.task_id;
    while svc.task_record(rerun).is_ok() {
        assert!(
            Instant::now() < deadline,
            "the confirmed record never retired"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // The heartbeat goes stale; the liveness sweep declares the endpoint
    // offline and requeues its four unacked deliveries.
    vclock.advance(1_500);
    assert_eq!(
        svc.check_liveness(),
        1,
        "stale endpoint must be declared offline"
    );
    assert_eq!(svc.metrics().counter("cloud.endpoints_offline").get(), 1);
    assert_eq!(
        svc.metrics().counter("cloud.retries").get(),
        4,
        "3 unprocessed + 1 published-but-unacked deliveries requeue"
    );

    // "Agent B": a real replacement agent reconnects and serves everything
    // still queued — the six untouched tasks plus the four requeued ones.
    let config = EndpointConfig::from_yaml(engine_yaml()).unwrap();
    let agent_b = EndpointAgent::start(
        &svc,
        reg.endpoint_id,
        &reg.queue_credential,
        &config,
        AgentEnv::local(vclock.clone()),
    )
    .unwrap();

    for (i, f) in futures.iter().enumerate() {
        assert_eq!(
            f.result_timeout(Duration::from_secs(20)).unwrap(),
            Value::Int(i as i64 * 2),
            "task {i} must complete with the right answer"
        );
    }
    assert_eq!(ex.inflight(), 0);
    assert_observed_exactly(&resolutions, TASKS as usize);
    // The published-but-unacked task ran twice. Its record was retired
    // before agent B reran it, so the second result is the unknown-task
    // drop: the SDK never sees it, and it counts neither as processed nor
    // as a duplicate. Wait until B has acked every delivery (it publishes
    // first) and the processor has taken every result.
    let drained = |queue: &str| {
        let q = svc.broker().queue_stats(queue).unwrap();
        q.ready == 0 && q.unacked == 0
    };
    let task_queue = format!("tasks.{}", reg.endpoint_id);
    let deadline = Instant::now() + Duration::from_secs(10);
    while !(drained(&task_queue) && drained(RESULT_QUEUE)) {
        assert!(Instant::now() < deadline, "agent B's results never drained");
        std::thread::sleep(Duration::from_millis(5));
    }
    let m = svc.metrics();
    assert_eq!(m.counter("cloud.results_processed").get(), TASKS as u64);
    assert_eq!(m.counter("cloud.duplicate_results_dropped").get(), 0);
    assert!(matches!(
        svc.task_record(rerun),
        Err(GcxError::TaskNotFound(_))
    ));

    ex.close();
    agent_b.stop();
    drop(session_a);
    svc.shutdown();
}

/// A seeded fault plan drops task deliveries and duplicates result
/// publishes while a real agent serves a workload. Dropped deliveries are
/// redelivered (and dead-lettered tasks resubmitted by the executor);
/// duplicated results are deduplicated by the cloud. Everything completes,
/// nothing is observed twice.
#[test]
fn workload_completes_under_message_drops_and_duplicates() {
    const TASKS: i64 = 40;
    let svc = WebService::with_defaults(SystemClock::shared());
    let (_, token) = svc.auth().login("faulty@test.org").unwrap();
    let reg = svc
        .register_endpoint(&token, "lossy", false, AuthPolicy::open(), None)
        .unwrap();
    svc.broker().set_fault_plan(Some(
        FaultPlan::new(0xC0FFEE)
            .with_rule(FaultRule::drop("tasks.", FaultDirection::Deliver, 0.15))
            .with_rule(FaultRule::duplicate("results.", 0.20)),
    ));

    let config = EndpointConfig::from_yaml(engine_yaml()).unwrap();
    let agent = EndpointAgent::start(
        &svc,
        reg.endpoint_id,
        &reg.queue_credential,
        &config,
        AgentEnv::local(SystemClock::shared()),
    )
    .unwrap();
    let ex = Executor::with_config(
        svc.clone(),
        token.clone(),
        reg.endpoint_id,
        ExecutorConfig {
            retry: RetryPolicy::fixed(4, 5),
            ..ExecutorConfig::default()
        },
    )
    .unwrap();

    let square = PyFunction::new("def f(x):\n    return x * x\n");
    let futures: Vec<TaskFuture> = (0..TASKS)
        .map(|i| {
            ex.submit(&square, vec![Value::Int(i)], Value::None)
                .unwrap()
        })
        .collect();
    let resolutions = observe(&futures);

    for (i, f) in futures.iter().enumerate() {
        assert_eq!(
            f.result_timeout(Duration::from_secs(30)).unwrap(),
            Value::Int((i * i) as i64),
            "task {i} must survive the fault plan"
        );
    }
    assert_observed_exactly(&resolutions, TASKS as usize);
    assert!(
        svc.metrics().counter("mq.dropped").get() > 0,
        "the fault plan must actually have dropped deliveries"
    );
    assert!(
        svc.metrics().counter("mq.duplicated").get() > 0,
        "the fault plan must actually have duplicated results"
    );
    ex.close();
    agent.stop();
    svc.shutdown();
}

fn chaos_seed() -> u64 {
    common::chaos_seed(0xC4A0_5EED)
}

/// The resource-fault headline scenario (ISSUE 2): a three-partition site
/// runs a mixed plain/Shell/MPI workload while the batch layer injects
/// scripted resource faults —
///
/// - a node crash at t=2 s inside the `mpi` partition, killing a member of
///   an **active MPI partition** (the 2-node application is mid-run);
/// - a whole-job preemption of the `cpu` block at t=1.5 s with four pyfn
///   tasks in flight, plus a seed-dependent chance of the replacement block
///   being preempted again (driving the engine's retry budget into the
///   SDK's resubmission path);
/// - a walltime expiry on the `short` partition (2 s block walltime) under
///   a 60 s shell task.
///
/// Every layer above must recover: the MPI engine repairs its partition
/// table and re-dispatches the lost application, htex re-provisions blocks
/// and requeues stolen tasks, the walltime-killed shell task resolves with
/// return code 124 (never hangs), and the cloud sees the capacity loss as
/// *degraded* — not dead. The workload reaches 100% completion with each
/// result observed exactly once and no node ever double-allocated.
#[test]
fn node_crash_and_preemption_mid_mixed_workload_all_complete() {
    let (vclock, svc) = virtual_service(600_000);
    let clock: SharedClock = vclock.clone();
    let sched = BatchScheduler::new(
        ClusterSpec {
            name: "chaos-site".into(),
            partitions: vec![
                PartitionSpec::sized("cpu", "cn", 2, 24 * 3600 * 1000),
                PartitionSpec::sized("mpi", "mn", 2, 24 * 3600 * 1000),
                PartitionSpec::sized("short", "sn", 1, 24 * 3600 * 1000),
            ],
        },
        clock.clone(),
    );
    // Fire times are relative to each job's start; `during` windows gate on
    // the absolute fire time, so replacement blocks (which start later) are
    // spared the deterministic rules and recovery can make progress.
    sched.set_fault_plan(Some(
        ResourceFaultPlan::new(chaos_seed())
            .with_rule(ResourceFaultRule::node_crash("mpi", 1.0, 2_000, 3_000).during(0, 5_000))
            .with_rule(ResourceFaultRule::preempt("cpu", 1.0, 1_500).during(0, 2_000))
            .with_rule(ResourceFaultRule::preempt("cpu", 0.4, 1_200).during(2_500, 6_000)),
    ));

    let (_, token) = svc.auth().login("resource-chaos@test.org").unwrap();
    let mut agents = Vec::new();
    let mut endpoints = Vec::new();
    let mut engine_metrics = Vec::new();
    for (name, yaml) in [
        (
            "cpu-ep",
            "engine:\n  type: GlobusComputeEngine\n  nodes_per_block: 2\n  workers_per_node: 2\n  provider:\n    type: SlurmProvider\n    partition: cpu\n    walltime: \"00:00:30\"\n",
        ),
        (
            "mpi-ep",
            "engine:\n  type: GlobusMPIEngine\n  nodes_per_block: 2\n  provider:\n    type: SlurmProvider\n    partition: mpi\n    walltime: \"00:01:00\"\n",
        ),
        (
            "short-ep",
            "engine:\n  type: GlobusComputeEngine\n  nodes_per_block: 1\n  workers_per_node: 1\n  provider:\n    type: SlurmProvider\n    partition: short\n    walltime: \"00:00:02\"\n",
        ),
    ] {
        let reg = svc
            .register_endpoint(&token, name, false, AuthPolicy::open(), None)
            .unwrap();
        let mut env = AgentEnv::local(clock.clone());
        env.scheduler = Some(sched.clone());
        engine_metrics.push(env.metrics.clone());
        let agent =
            EndpointAgent::start(&svc, reg.endpoint_id, &reg.queue_credential, &config_of(yaml), env)
                .unwrap();
        agents.push(agent);
        endpoints.push(reg.endpoint_id);
    }
    let (ep_cpu, ep_mpi, ep_short) = (endpoints[0], endpoints[1], endpoints[2]);

    let executor = |ep, attempts| {
        Executor::with_config(
            svc.clone(),
            token.clone(),
            ep,
            ExecutorConfig {
                retry: RetryPolicy::fixed(attempts, 5),
                ..ExecutorConfig::default()
            },
        )
        .unwrap()
    };
    let ex_cpu = executor(ep_cpu, 5);
    let ex_mpi = executor(ep_mpi, 3);
    let ex_short = executor(ep_short, 3);

    // The workload: 6 pyfn tasks (4 slots on the cpu block, mid-sleep when
    // the preemption hits), one 60 s shell command doomed by the 2 s block
    // walltime, and 3 MPI applications — the 2-node one is running when its
    // member node crashes; the 1-rank ones fit the surviving node.
    let double = PyFunction::new("def f(x):\n    sleep(3)\n    return x * 2\n");
    let py_futures: Vec<TaskFuture> = (0..6)
        .map(|i| {
            ex_cpu
                .submit(&double, vec![Value::Int(i)], Value::None)
                .unwrap()
        })
        .collect();
    let long_shell = ShellFunction::new("sleep 60");
    let shell_future = ex_short.submit(&long_shell, vec![], Value::None).unwrap();
    ex_mpi.set_resource_specification(ResourceSpec::nodes_ranks(2, 2));
    let mpi_big = MpiFunction::new("sleep 4");
    let big_future = ex_mpi.submit(&mpi_big, vec![], Value::None).unwrap();
    ex_mpi.set_resource_specification(ResourceSpec::nodes_ranks(1, 1));
    let mpi_small = MpiFunction::new("hostname");
    let small_futures: Vec<TaskFuture> = (0..2)
        .map(|_| ex_mpi.submit(&mpi_small, vec![], Value::None).unwrap())
        .collect();

    let mut all: Vec<TaskFuture> = py_futures.clone();
    all.push(shell_future.clone());
    all.push(big_future.clone());
    all.extend(small_futures.iter().cloned());
    let resolutions = observe(&all);

    // Quiesce before the first tick so every first block starts at t=0 and
    // the scripted fire times are deterministic: 4 pyfn workers + the shell
    // task + the 2-node MPI application's 2 ranks = 7 virtual sleepers.
    // (The 1-rank `hostname` applications never sleep — they are queued
    // behind the 2-node one, which holds the whole block.)
    vclock.wait_for_sleepers(7);

    // Drive virtual time from a helper thread while the main thread waits
    // on the futures, exactly like a wall clock that no task can stall.
    let driving = Arc::new(AtomicBool::new(true));
    let driver = {
        let vclock = vclock.clone();
        let driving = Arc::clone(&driving);
        std::thread::spawn(move || {
            while driving.load(Ordering::SeqCst) {
                vclock.advance(100);
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };

    for (i, f) in py_futures.iter().enumerate() {
        assert_eq!(
            f.result_timeout(Duration::from_secs(60)).unwrap(),
            Value::Int(i as i64 * 2),
            "pyfn task {i} must survive the preemption(s)"
        );
    }
    let shell_v = shell_future
        .result_timeout(Duration::from_secs(60))
        .unwrap();
    let shell_res = ShellResult::from_value(&shell_v).unwrap();
    assert_eq!(
        shell_res.returncode, 124,
        "walltime-killed shell task must report code 124, got {shell_res:?}"
    );
    assert!(
        shell_res.stderr.contains("walltime"),
        "stderr must say why: {:?}",
        shell_res.stderr
    );
    let big_v = big_future.result_timeout(Duration::from_secs(60)).unwrap();
    assert_eq!(
        ShellResult::from_value(&big_v).unwrap().returncode,
        0,
        "the re-dispatched MPI application must complete cleanly"
    );
    for f in &small_futures {
        let v = f.result_timeout(Duration::from_secs(60)).unwrap();
        let sr = ShellResult::from_value(&v).unwrap();
        assert_eq!(sr.returncode, 0);
        assert_eq!(sr.stdout.lines().count(), 1, "1 rank → 1 hostname line");
    }
    assert_observed_exactly(&resolutions, all.len());

    // The faults actually fired (not a vacuous pass) and the scheduler's
    // node accounting survived them: census conservation per partition, the
    // crashed node recovered, and nothing is double-allocated (the census
    // would not balance if a node were in two jobs).
    let stats = sched.fault_stats();
    assert!(stats.nodes_crashed >= 1, "no node crash fired: {stats:?}");
    assert!(stats.jobs_preempted >= 1, "no preemption fired: {stats:?}");
    assert!(
        stats.jobs_timed_out >= 1,
        "no walltime expiry fired: {stats:?}"
    );
    assert!(stats.nodes_recovered >= 1, "crashed node never came back");
    for part in ["cpu", "mpi", "short"] {
        let census = sched.node_census(part).unwrap();
        assert_eq!(
            census.free + census.down + census.busy,
            census.total,
            "census conservation violated on {part}: {census:?}"
        );
    }
    assert_eq!(sched.node_census("mpi").unwrap().down, 0);

    // The engines recorded their recovery work on this site.
    let mpi_metrics = &engine_metrics[1];
    assert!(
        mpi_metrics.counter("mpi.partitions_repaired").get() >= 1,
        "the MPI engine must have repaired its partition table"
    );
    assert!(
        mpi_metrics.counter("mpi.tasks_redispatched").get() >= 1,
        "the lost MPI application must have been re-dispatched"
    );
    assert!(
        engine_metrics[0].counter("htex.tasks_redispatched").get() >= 1,
        "htex must have requeued the tasks stolen from the preempted block"
    );

    // The cloud heard about every capacity loss, and tells "degraded,
    // recovering" apart from "dead": the cpu and mpi endpoints finished
    // their recoveries (re-provisioned blocks), while the short endpoint —
    // whose queue drained when the walltime kill resolved its only task —
    // has no reason to re-provision and stays degraded. Event pumps run
    // just behind result resolution, so poll briefly.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let reports = svc.metrics().counter("cloud.block_loss_reports").get();
        let cpu_h = svc.endpoint_health(ep_cpu).unwrap();
        let mpi_h = svc.endpoint_health(ep_mpi).unwrap();
        let short_h = svc.endpoint_health(ep_short).unwrap();
        if reports >= 3
            && cpu_h == EndpointHealth::Online
            && mpi_h == EndpointHealth::Online
            && short_h == EndpointHealth::Degraded
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "cloud never converged: reports={reports} cpu={cpu_h:?} mpi={mpi_h:?} short={short_h:?}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    ex_cpu.close();
    ex_mpi.close();
    ex_short.close();
    for agent in agents {
        agent.stop();
    }
    driving.store(false, Ordering::SeqCst);
    driver.join().unwrap();
    svc.shutdown();
}

fn config_of(yaml: &str) -> EndpointConfig {
    EndpointConfig::from_yaml(yaml).unwrap()
}

/// Delivery-budget exhaustion surfaces as a typed, retryable failure — and
/// once the client-side budget is spent too, as `RetriesExhausted` — rather
/// than a hang. A nack-everything endpoint guarantees every delivery fails.
#[test]
fn poisoned_endpoint_yields_typed_terminal_errors_not_hangs() {
    let svc = WebService::with_defaults(SystemClock::shared());
    let (_, token) = svc.auth().login("poison@test.org").unwrap();
    let reg = svc
        .register_endpoint(&token, "nacker", false, AuthPolicy::open(), None)
        .unwrap();
    let session = svc
        .connect_endpoint(reg.endpoint_id, &reg.queue_credential)
        .unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let nacker = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                if let Ok(Some((_, tag))) = session.next_task(Duration::from_millis(5)) {
                    let _ = session.nack_task(tag);
                }
            }
        })
    };

    let ex = Executor::with_config(
        svc.clone(),
        token.clone(),
        reg.endpoint_id,
        ExecutorConfig {
            retry: RetryPolicy::fixed(2, 5),
            ..ExecutorConfig::default()
        },
    )
    .unwrap();
    let f = PyFunction::new("def f():\n    return 1\n");
    let futures: Vec<TaskFuture> = (0..3)
        .map(|_| ex.submit(&f, vec![], Value::None).unwrap())
        .collect();
    for fut in &futures {
        let err = fut.result_timeout(Duration::from_secs(15)).unwrap_err();
        assert!(
            matches!(err, GcxError::RetriesExhausted { attempts: 2, .. }),
            "expected RetriesExhausted, got {err:?}"
        );
    }
    assert!(svc.metrics().counter("cloud.tasks_dead_lettered").get() >= 3);
    assert_eq!(svc.metrics().counter("sdk.tasks_resubmitted").get(), 3);
    stop.store(true, Ordering::SeqCst);
    nacker.join().unwrap();
    ex.close();
    svc.shutdown();
}

/// A task whose node dies under it (modeled as a doomed endpoint session
/// nacking its delivery to death) is dead-lettered and resubmitted by the
/// SDK — and the whole episode must land in ONE trace: the resubmission's
/// spans are children of the original trace's root (linked via a `retry`
/// span), not a fresh unlinked trace, and no span is left orphaned.
#[test]
fn retried_task_keeps_one_linked_trace_with_no_orphans() {
    let svc = WebService::with_defaults(SystemClock::shared());
    let tracer = svc.metrics().tracer();
    assert!(tracer.enabled(), "tracing must be on by default");
    let (_, token) = svc.auth().login("trace-chaos@test.org").unwrap();
    let reg = svc
        .register_endpoint(&token, "crashy", false, AuthPolicy::open(), None)
        .unwrap();

    let ex = Executor::with_config(
        svc.clone(),
        token.clone(),
        reg.endpoint_id,
        ExecutorConfig {
            retry: RetryPolicy::fixed(3, 5),
            ..ExecutorConfig::default()
        },
    )
    .unwrap();
    let f = PyFunction::new("def f(x):\n    return x + 1\n");
    let fut = ex.submit(&f, vec![Value::Int(41)], Value::None).unwrap();

    // The doomed "node": nack the delivery to death (the default delivery
    // budget is 3), which dead-letters the task and makes the SDK resubmit
    // it under a fresh task id but the same trace context.
    let doomed = svc
        .connect_endpoint(reg.endpoint_id, &reg.queue_credential)
        .unwrap();
    let mut nacks = 0;
    let deadline = Instant::now() + Duration::from_secs(10);
    while nacks < 3 {
        assert!(
            Instant::now() < deadline,
            "doomed session never got 3 nacks in"
        );
        if let Some((_, tag)) = doomed.next_task(Duration::from_millis(10)).unwrap() {
            doomed.nack_task(tag).unwrap();
            nacks += 1;
        }
    }

    // A healthy agent — sharing the service registry so its engine-side
    // `worker` spans land in the same trace collector — serves the retry.
    let config = EndpointConfig::from_yaml(engine_yaml()).unwrap();
    let mut env = AgentEnv::local(SystemClock::shared());
    env.metrics = svc.metrics().clone();
    let agent =
        EndpointAgent::start(&svc, reg.endpoint_id, &reg.queue_credential, &config, env).unwrap();
    assert_eq!(
        fut.result_timeout(Duration::from_secs(20)).unwrap(),
        Value::Int(42)
    );
    assert_eq!(svc.metrics().counter("sdk.tasks_resubmitted").get(), 1);

    let traces = tracer.traces();
    assert_eq!(traces.len(), 1, "one submission → one trace, even retried");
    let trace = &traces[0];
    let retries: Vec<_> = trace.spans_named("retry").collect();
    assert_eq!(retries.len(), 1, "one dead-letter → one retry span");
    assert_eq!(
        retries[0].parent,
        Some(trace.root),
        "the retry span must be a child of the original root"
    );
    assert_eq!(
        trace.spans_named("submit").count(),
        2,
        "original submission + resubmission, both in the same trace"
    );
    assert!(
        trace.spans_named("worker").count() >= 1,
        "the serving engine's worker span must join the trace"
    );
    assert!(
        trace.orphan_spans().is_empty(),
        "every span must resolve its parent within the trace"
    );

    ex.close();
    agent.stop();
    drop(doomed);
    svc.shutdown();
}
