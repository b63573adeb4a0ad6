//! Connection-chaos tests: faults injected into the *wire* between the SDK
//! and the service — abrupt client death, a partitioned-then-restarted
//! server, a client process restart — while a real workload is in flight.
//!
//! The acceptance bar mirrors the other chaos suites: every submitted task
//! reaches a terminal state with the correct result, the SDK observes each
//! result exactly once, and each task's trace carries exactly one `result`
//! span with nothing dangling. Unlike the virtual-clock suites, the wire
//! layer runs on real sockets and real time; determinism comes from
//! scripting *where* the fault lands, not when the clock ticks.
//!
//! `GCX_CHAOS_TRANSPORT` (decimal or `0x`-hex; falls back to
//! `GCX_CHAOS_SEED`, then a fixed default) seeds the workload shape — task
//! counts and fault points — so CI sweeps a matrix of cut points.

mod common;

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gcx::auth::{AuthPolicy, AuthService};
use gcx::cloud::{CloudConfig, WebService, WireServer};
use gcx::config::TransportSpec;
use gcx::core::clock::SystemClock;
use gcx::core::ids::TaskId;
use gcx::core::metrics::MetricsRegistry;
use gcx::core::retry::RetryPolicy;
use gcx::core::task::{TaskResult, TaskSpec};
use gcx::core::value::Value;
use gcx::core::wire::{
    batch, error_from_value, Frame, FrameType, TcpTransport, Transport, DEFAULT_MAX_FRAME,
};
use gcx::mq::{Broker, LinkProfile};
use gcx::sdk::{Executor, ExecutorConfig, Link, PyFunction, TaskFuture, WireClientConfig};

use common::{assert_observed_exactly, observe};

fn chaos_seed() -> u64 {
    common::seed_from_env("GCX_CHAOS_TRANSPORT").unwrap_or_else(|| common::chaos_seed(0x71A5_0011))
}

/// Tiny deterministic generator (splitmix64) for seed-derived workload
/// shape; avoids dragging a PRNG dependency into the test.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn wire_service() -> WebService {
    let clock = SystemClock::shared();
    let broker = Broker::with_profile(
        MetricsRegistry::new(),
        clock.clone(),
        LinkProfile::instant(),
    );
    WebService::new(
        CloudConfig {
            // The wire layer runs on real time; keep the endpoint liveness
            // sweep far away so only connection faults are in play.
            heartbeat_timeout_ms: 600_000,
            ..CloudConfig::default()
        },
        AuthService::new(clock.clone()),
        broker,
        clock,
    )
}

fn fast_spec() -> TransportSpec {
    TransportSpec {
        heartbeat_interval_ms: 100,
        idle_timeout_ms: 1_000,
        ..TransportSpec::default()
    }
}

fn wire_cfg() -> WireClientConfig {
    WireClientConfig {
        heartbeat_interval: Duration::from_millis(100),
        call_timeout: Duration::from_secs(5),
        ..WireClientConfig::default()
    }
}

/// Every task trace must link submit → result with exactly one `result`
/// span and no dangling spans — the trace-level exactly-once check.
fn assert_traces_linked(svc: &WebService, tasks: usize) {
    let traces: Vec<_> = svc
        .metrics()
        .tracer()
        .traces()
        .into_iter()
        .filter(|t| t.spans_named("submit").count() >= 1)
        .collect();
    assert_eq!(traces.len(), tasks, "one trace per submitted task");
    for t in &traces {
        assert_eq!(
            t.spans_named("result").count(),
            1,
            "exactly one result span per task trace"
        );
        assert!(
            t.orphan_spans().is_empty(),
            "every span must link into its task's trace"
        );
    }
}

/// Once the executor has closed (its batcher's last pass confirmed what was
/// pending), what the service still holds is exactly what no confirmation
/// reached: a result `catch_up` polled, or one whose `Confirm` went out on a
/// connection the cut had already killed. `cloud.tasks_resident` settles on
/// the records that still answer, each of them terminal.
fn assert_resident_is_what_was_never_confirmed(svc: &WebService, futures: &[TaskFuture]) {
    let held = || {
        futures
            .iter()
            .filter(|f| match svc.task_record(f.task_id()) {
                Ok(record) => {
                    assert!(record.state.is_terminal(), "{:?}", record.state);
                    true
                }
                Err(_) => false,
            })
            .count() as u64
    };
    let resident = svc.metrics().gauge("cloud.tasks_resident");
    let deadline = Instant::now() + Duration::from_secs(5);
    while resident.get() != held() {
        assert!(
            Instant::now() < deadline,
            "tasks_resident {} never settled on the {} unconfirmed records",
            resident.get(),
            held()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(resident.get() <= futures.len() as u64);
}

fn drain_queue(svc: &WebService, reg: &gcx::cloud::EndpointRegistration, n: usize) {
    drain_queue_with(svc, reg, n, |x| Value::Int(x * 2));
}

/// Serve `n` queued tasks as an endpoint would, answering `f(first arg)`.
fn drain_queue_with(
    svc: &WebService,
    reg: &gcx::cloud::EndpointRegistration,
    n: usize,
    f: impl Fn(i64) -> Value,
) {
    let session = svc
        .connect_endpoint(reg.endpoint_id, &reg.queue_credential)
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(15);
    let mut served = 0;
    while served < n {
        assert!(Instant::now() < deadline, "served only {served} of {n}");
        if let Some((spec, tag)) = session.next_task(Duration::from_millis(10)).unwrap() {
            session
                .publish_result(
                    spec.task_id,
                    &TaskResult::ok(f(spec.decode_args().unwrap().0[0].as_int().unwrap())),
                )
                .unwrap();
            session.ack_task(tag).unwrap();
            served += 1;
        }
    }
}

/// Scenario 1 — a TCP client is killed mid-batch: it handshakes, submits a
/// seeded batch over the raw wire, and dies without a `Goodbye` (socket
/// severed, frames half-expected). The server must tear the connection
/// down, the accepted batch must still run to completion, and the results
/// must land exactly once.
#[test]
fn tcp_client_killed_mid_batch_tasks_complete_exactly_once() {
    let mut seed = chaos_seed();
    let tasks = 6 + (mix(&mut seed) % 8) as usize; // 6..=13
    let svc = wire_service();
    let server = WireServer::listen(&svc, fast_spec()).unwrap();
    let (_, token) = svc.auth().login("transport-kill@test.org").unwrap();
    let reg = svc
        .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
        .unwrap();
    let fid = svc
        .register_function(
            &token,
            gcx::core::function::FunctionBody::pyfn("def f(x):\n    return x * 2\n"),
        )
        .unwrap();

    // A raw wire client: handshake, submit, die. No SDK conveniences — the
    // point is what the *server* does when the socket vanishes mid-flight.
    let transport = TcpTransport::connect(server.addr(), DEFAULT_MAX_FRAME).unwrap();
    transport.send(&Frame::hello(token.0.clone())).unwrap();
    let ack = transport
        .recv(Duration::from_secs(5))
        .unwrap()
        .expect("hello ack");
    assert_eq!(ack.frame_type, FrameType::HelloAck);

    let specs: Vec<TaskSpec> = (0..tasks)
        .map(|i| {
            let mut spec = TaskSpec::new(fid, reg.endpoint_id);
            spec.set_args(vec![Value::Int(i as i64)], Value::None);
            spec
        })
        .collect();
    transport
        .send(&Frame::request(
            1,
            "submit_batch",
            Value::Bytes(batch::pack_specs(&specs).unwrap()),
        ))
        .unwrap();
    let resp = transport
        .recv(Duration::from_secs(5))
        .unwrap()
        .expect("submit response");
    let Some(Value::Bytes(packed)) = resp.payload.get("ok") else {
        panic!("packed ids in response, got {:?}", resp.payload);
    };
    let ids: Vec<TaskId> = batch::unpack_ids(packed).unwrap();
    assert_eq!(ids.len(), tasks);

    // Kill: sever the socket with the batch in flight. No Goodbye, no
    // stream close, nothing — as SIGKILL would leave it.
    transport.close();

    // The server notices and reaps the connection.
    let deadline = Instant::now() + Duration::from_secs(3);
    while server.conn_count() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        server.conn_count(),
        0,
        "severed connection must be torn down"
    );

    // The accepted batch is not tied to the connection's fate.
    drain_queue(&svc, &reg, tasks);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let statuses = svc.task_status_batch(&token, &ids).unwrap();
        if statuses.len() == tasks && statuses.iter().all(|(_, s, _)| s.is_terminal()) {
            for (id, _, result) in statuses {
                let idx = ids.iter().position(|t| *t == id).unwrap() as i64;
                let result = result.expect("terminal task carries its result");
                match result.ok_value() {
                    Some(v) => assert_eq!(v, Value::Int(idx * 2)),
                    None => panic!("task {id}: unexpected {result:?}"),
                }
            }
            break;
        }
        assert!(Instant::now() < deadline, "tasks did not finish");
        std::thread::sleep(Duration::from_millis(10));
    }

    let m = svc.metrics();
    assert_eq!(m.counter("cloud.results_processed").get(), tasks as u64);
    assert_eq!(m.counter("cloud.duplicate_results_dropped").get(), 0);
    assert_traces_linked(&svc, tasks);
    server.shutdown();
    svc.shutdown();
}

/// Scenario 2 — the server partitions away mid-result-stream and later
/// restarts on the same address: an executor is mid-workload over TCP when
/// every socket dies; results keep landing service-side during the outage;
/// the executor reconnects, resubscribes, catches up, and every future
/// resolves exactly once.
#[test]
fn server_partition_mid_stream_executor_reconnects_exactly_once() {
    let mut seed = chaos_seed();
    let tasks = 10 + (mix(&mut seed) % 8) as usize; // 10..=17
    let before_cut = 2 + (mix(&mut seed) % 3) as usize; // served before the cut
    let during_cut = 2 + (mix(&mut seed) % 3) as usize; // served while partitioned

    // Reserve a port so the restarted server can come back on the address
    // the client keeps dialing.
    let addr = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        probe.local_addr().unwrap().to_string()
    };
    let spec = TransportSpec {
        listen_addr: addr.clone(),
        ..fast_spec()
    };
    let svc = wire_service();
    let server = WireServer::listen(&svc, spec.clone()).unwrap();
    let (_, token) = svc.auth().login("transport-part@test.org").unwrap();
    let reg = svc
        .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
        .unwrap();

    let ex = Executor::over_wire(
        vec![addr],
        &token.0,
        reg.endpoint_id,
        ExecutorConfig {
            retry: RetryPolicy::fixed(40, 50),
            ..ExecutorConfig::default()
        },
        wire_cfg(),
    )
    .unwrap();
    let double = PyFunction::new("def f(x):\n    return x * 2\n");
    let futures: Vec<TaskFuture> = (0..tasks)
        .map(|i| {
            ex.submit(&double, vec![Value::Int(i as i64)], Value::None)
                .unwrap()
        })
        .collect();
    let resolutions = observe(&futures);

    // Wait until the whole workload is submitted server-side, then serve a
    // seeded prefix and confirm those results arrive over the push stream.
    let deadline = Instant::now() + Duration::from_secs(10);
    while svc.metrics().counter("cloud.tasks_submitted").get() < tasks as u64 {
        assert!(Instant::now() < deadline, "submissions did not land");
        std::thread::sleep(Duration::from_millis(5));
    }
    drain_queue(&svc, &reg, before_cut);
    let deadline = Instant::now() + Duration::from_secs(10);
    while resolutions.load(Ordering::SeqCst) < before_cut {
        assert!(Instant::now() < deadline, "pre-cut results did not stream");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Partition: every wire socket dies mid-stream. The service itself
    // stays up — results served during the outage land in the task store.
    server.shutdown();
    drain_queue(&svc, &reg, during_cut);
    std::thread::sleep(Duration::from_millis(300));

    // Heal: same address, fresh listener. The executor's link redials,
    // reopens the stream, and catch-up recovers the outage-window results.
    let server = WireServer::listen(&svc, spec).unwrap();
    drain_queue(&svc, &reg, tasks - before_cut - during_cut);

    for (i, f) in futures.iter().enumerate() {
        assert_eq!(
            f.result_timeout(Duration::from_secs(20)).unwrap(),
            Value::Int(i as i64 * 2),
            "task {i} must survive the partition"
        );
    }
    assert_observed_exactly(&resolutions, tasks);
    assert!(
        ex.metrics().counter("sdk.stream_reconnects").get() >= 1
            || ex.metrics().counter("sdk.wire_reconnects").get() >= 1,
        "the partition must be visible as a reconnect"
    );
    assert_traces_linked(&svc, tasks);
    // Client-side: the kill-and-reconnect must leave exactly one linked
    // trace per task on the SDK's own collector, with the wire legs
    // stamped and nothing dangling — the wire kill must not orphan or
    // duplicate a trace.
    let client_traces = ex.metrics().tracer().traces();
    assert_eq!(
        client_traces.len(),
        tasks,
        "one client-side trace per submitted task"
    );
    for t in &client_traces {
        assert!(
            t.spans_named("wire.send").count() >= 1,
            "client trace missing its wire.send leg"
        );
        assert!(
            t.spans_named("wire.await").count() >= 1,
            "client trace missing its wire.await leg"
        );
        assert!(
            t.orphan_spans().is_empty(),
            "client wire legs must link into their task's trace"
        );
    }
    ex.close();
    assert_resident_is_what_was_never_confirmed(&svc, &futures);
    server.shutdown();
    svc.shutdown();
}

/// Scenario 4 — overload black box: a submit flood over the wire against a
/// tiny bounded task queue trips the typed `QueueFull` rollback; the
/// flight recorder must hold the rejected tasks' last events (one
/// `batch_rollback` per task, by id) and fire its `queue_full` dump
/// trigger exactly once.
#[test]
fn queue_full_flood_dumps_flight_recorder_evidence() {
    let mut seed = chaos_seed();
    let depth = 2 + (mix(&mut seed) % 3) as usize; // 2..=4
    let clock = SystemClock::shared();
    let broker = Broker::with_profile(
        MetricsRegistry::new(),
        clock.clone(),
        LinkProfile::instant(),
    );
    let svc = WebService::new(
        CloudConfig {
            heartbeat_timeout_ms: 600_000,
            task_queue_depth: depth,
            ..CloudConfig::default()
        },
        AuthService::new(clock.clone()),
        broker,
        clock,
    );
    let server = WireServer::listen(&svc, fast_spec()).unwrap();
    let (_, token) = svc.auth().login("transport-flood@test.org").unwrap();
    let reg = svc
        .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
        .unwrap();
    let link = Link::connect(vec![server.addr().to_string()], &token.0, wire_cfg()).unwrap();
    let auth_token = gcx::auth::Token(token.0.clone());
    let fid = link
        .register_function(
            &auth_token,
            gcx::core::function::FunctionBody::pyfn("def f(x):\n    return x\n"),
        )
        .unwrap();

    // One batch larger than the queue bound: the whole batch rolls back
    // with a typed QueueFull that survives the wire.
    let flood: Vec<TaskSpec> = (0..depth * 3)
        .map(|i| {
            let mut spec = TaskSpec::new(fid, reg.endpoint_id);
            spec.set_args(vec![Value::Int(i as i64)], Value::None);
            spec
        })
        .collect();
    let err = link.submit_batch(&auth_token, &flood).unwrap_err();
    assert!(
        matches!(err, gcx::core::error::GcxError::QueueFull { .. }),
        "flood must be refused with a typed QueueFull, got {err:?}"
    );

    // The black box holds the rejected tasks' final events...
    let flight = svc.metrics().flight();
    let rollbacks: Vec<_> = flight
        .events()
        .into_iter()
        .filter(|e| e.component == "cloud.dispatch" && e.event == "batch_rollback")
        .collect();
    assert_eq!(
        rollbacks.len(),
        flood.len(),
        "one rollback event per rejected task"
    );
    // ...attributable by task id, and the dump carries them verbatim.
    let dump = flight.dump();
    for spec in &flood {
        let needle = format!("task={}", spec.task_id);
        assert!(
            rollbacks.iter().any(|e| e.detail.contains(&needle)),
            "no flight event for rejected {needle}"
        );
        assert!(dump.contains(&needle), "dump missing {needle}");
    }
    // The QueueFull storm fired the at-most-once dump trigger.
    assert!(
        flight.triggered_reasons().iter().any(|r| r == "queue_full"),
        "queue_full must trigger a flight dump"
    );
    link.close();
    server.shutdown();
    svc.shutdown();
}

/// Scenario 3 — client restart: a wire client submits a workload and dies;
/// a *new* client (fresh connection, no shared state) picks the task ids up
/// and polls them to completion. The task store, not the connection, is the
/// source of truth.
#[test]
fn restarted_client_resumes_by_polling_exactly_once() {
    let mut seed = chaos_seed();
    let tasks = 6 + (mix(&mut seed) % 6) as usize; // 6..=11
    let svc = wire_service();
    let server = WireServer::listen(&svc, fast_spec()).unwrap();
    let (_, token) = svc.auth().login("transport-restart@test.org").unwrap();
    let reg = svc
        .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
        .unwrap();

    // First life: connect, submit, die abruptly.
    let link = Link::connect(vec![server.addr().to_string()], &token.0, wire_cfg()).unwrap();
    let auth_token = gcx::auth::Token(token.0.clone());
    let fid = link
        .register_function(
            &auth_token,
            gcx::core::function::FunctionBody::pyfn("def f(x):\n    return x * 2\n"),
        )
        .unwrap();
    let specs: Vec<TaskSpec> = (0..tasks)
        .map(|i| {
            let mut spec = TaskSpec::new(fid, reg.endpoint_id);
            spec.set_args(vec![Value::Int(i as i64)], Value::None);
            spec
        })
        .collect();
    let ids = link.submit_batch(&auth_token, &specs).unwrap();
    drop(link); // restart: the old process is gone, ids survive on disk/in the caller

    drain_queue(&svc, &reg, tasks);

    // Second life: a fresh connection resumes by id.
    let link = Link::connect(vec![server.addr().to_string()], &token.0, wire_cfg()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let statuses = link.task_status_batch(&auth_token, &ids).unwrap();
        if statuses.len() == tasks && statuses.iter().all(|(_, s, _)| s.is_terminal()) {
            for (id, _, result) in statuses {
                let idx = ids.iter().position(|t| *t == id).unwrap() as i64;
                let result = result.expect("terminal task carries its result");
                match result.ok_value() {
                    Some(v) => assert_eq!(v, Value::Int(idx * 2)),
                    None => panic!("task {id}: unexpected {result:?}"),
                }
            }
            break;
        }
        assert!(Instant::now() < deadline, "tasks did not finish");
        std::thread::sleep(Duration::from_millis(10));
    }
    link.close();

    let m = svc.metrics();
    assert_eq!(m.counter("cloud.results_processed").get(), tasks as u64);
    assert_eq!(m.counter("cloud.duplicate_results_dropped").get(), 0);
    assert_traces_linked(&svc, tasks);
    server.shutdown();
    svc.shutdown();
}

/// Scenario 5 — the connection dies with a push batch written but not
/// acked. The executor's stream thread is parked (a slow `on_done`), so
/// megabyte results back up through the client's queue and both socket
/// buffers until the server's push thread blocks inside its write, holding
/// an unacked batch. Then every socket is cut. The blocked write must fail
/// (not wedge the shutdown), ack nothing, and after the server returns on
/// the same address the executor must resolve every future exactly once —
/// the results the client never consumed included — with each trace linked.
#[test]
fn connection_killed_mid_push_batch_resolves_every_future_exactly_once() {
    const RESULT_BYTES: usize = 1 << 20;
    let mut seed = chaos_seed();
    // Enough megabyte results to overflow everything between the push
    // thread and the parked stream thread: the client's batch queue (8 + 2
    // in hand) and whatever the kernel lets a loopback socket buffer.
    let sysctl_max = |name: &str, fallback: usize| -> usize {
        std::fs::read_to_string(format!("/proc/sys/net/ipv4/{name}"))
            .ok()
            .and_then(|s| s.split_whitespace().nth(2)?.parse().ok())
            .unwrap_or(fallback)
    };
    let kernel_mib = (sysctl_max("tcp_rmem", 6 << 20) + sysctl_max("tcp_wmem", 4 << 20)) >> 20;
    let tasks = kernel_mib + 10 + 8 + (mix(&mut seed) % 5) as usize;

    let addr = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        probe.local_addr().unwrap().to_string()
    };
    let spec = TransportSpec {
        listen_addr: addr.clone(),
        ..fast_spec()
    };
    let svc = wire_service();
    let server = WireServer::listen(&svc, spec.clone()).unwrap();
    let (_, token) = svc.auth().login("transport-midbatch@test.org").unwrap();
    let reg = svc
        .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
        .unwrap();
    let ex = Executor::over_wire(
        vec![addr],
        &token.0,
        reg.endpoint_id,
        ExecutorConfig {
            retry: RetryPolicy::fixed(40, 50),
            ..ExecutorConfig::default()
        },
        WireClientConfig {
            // Catch-up first asks for every result in one response, which
            // exceeds the frame ceiling here; it then asks task by task.
            call_timeout: Duration::from_secs(1),
            ..wire_cfg()
        },
    )
    .unwrap();
    let blob = PyFunction::new("def f(x):\n    return bytes([x]) * 1048576\n");
    let futures: Vec<TaskFuture> = (0..tasks)
        .map(|i| {
            ex.submit(&blob, vec![Value::Int(i as i64)], Value::None)
                .unwrap()
        })
        .collect();
    let resolutions = observe(&futures);
    // The first future to resolve parks the stream thread until released.
    let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
    let release_rx = Arc::new(std::sync::Mutex::new(Some(release_rx)));
    for f in &futures {
        let release_rx = Arc::clone(&release_rx);
        f.on_done(move |_| {
            if let Some(rx) = release_rx.lock().unwrap().take() {
                let _ = rx.recv_timeout(Duration::from_secs(30));
            }
        });
    }

    let deadline = Instant::now() + Duration::from_secs(10);
    while svc.metrics().counter("cloud.tasks_submitted").get() < tasks as u64 {
        assert!(Instant::now() < deadline, "submissions did not land");
        std::thread::sleep(Duration::from_millis(5));
    }
    drain_queue_with(&svc, &reg, tasks, |x| {
        Value::Bytes(vec![x as u8; RESULT_BYTES])
    });

    // Wait for the pushes to stall with results still on the server: the
    // stream queue holds deliveries that are neither pushed nor acked.
    let stream_backlog = || -> (usize, usize) {
        svc.broker()
            .queue_names()
            .iter()
            .filter(|q| q.starts_with("stream."))
            .map(|q| svc.broker().queue_stats(q).unwrap())
            .fold((0, 0), |(r, u), st| (r + st.ready, u + st.unacked))
    };
    let frames_out = svc.metrics().counter("wire.frames_out");
    let deadline = Instant::now() + Duration::from_secs(15);
    let mut seen = frames_out.get();
    loop {
        std::thread::sleep(Duration::from_millis(250));
        let now = frames_out.get();
        if now == seen && svc.metrics().counter("cloud.results_processed").get() == tasks as u64 {
            break;
        }
        seen = now;
        assert!(
            Instant::now() < deadline,
            "pushes never stalled: frames_out {now}, processed {}, backlog {:?}",
            svc.metrics().counter("cloud.results_processed").get(),
            stream_backlog()
        );
    }
    let (ready, unacked) = stream_backlog();
    assert!(
        unacked >= 1,
        "the push thread must be holding an unacked batch (ready {ready}, unacked {unacked})"
    );
    assert!(
        resolutions.load(Ordering::SeqCst) <= 1,
        "the stream thread is parked"
    );

    // Cut every socket mid-batch; the blocked write must not wedge this.
    server.shutdown();
    let server = WireServer::listen(&svc, spec).unwrap();
    release_tx.send(()).unwrap();

    for (i, f) in futures.iter().enumerate() {
        let got = f.result_timeout(Duration::from_secs(30)).unwrap();
        let Value::Bytes(b) = got else {
            panic!("task {i}: unexpected result")
        };
        assert_eq!(b.len(), RESULT_BYTES, "task {i}");
        assert!(
            b.iter().all(|&x| x == i as u8),
            "task {i} got another task's bytes"
        );
    }
    assert_observed_exactly(&resolutions, tasks);
    assert!(
        ex.metrics().counter("sdk.stream_reconnects").get() >= 1
            || ex.metrics().counter("sdk.wire_reconnects").get() >= 1,
        "the cut must be visible as a reconnect"
    );
    assert_eq!(
        svc.metrics()
            .counter("cloud.duplicate_results_dropped")
            .get(),
        0
    );
    assert_traces_linked(&svc, tasks);
    ex.close();
    assert_resident_is_what_was_never_confirmed(&svc, &futures);
    server.shutdown();
    svc.shutdown();
}

/// Scenario 6 — a peer from before the packed bodies: its `Hello` says
/// version 1, and it must be turned away at the handshake with a typed
/// refusal rather than have its tree-form submits misparsed later.
#[test]
fn version_1_hello_gets_the_typed_refusal() {
    let svc = wire_service();
    let server = WireServer::listen(&svc, fast_spec()).unwrap();
    let (_, token) = svc.auth().login("transport-v1@test.org").unwrap();
    let transport = TcpTransport::connect(server.addr(), DEFAULT_MAX_FRAME).unwrap();
    transport
        .send(&Frame::new(
            FrameType::Hello,
            0,
            Value::map([
                ("version", Value::Int(1)),
                ("token", Value::str(token.0)),
                ("proto", Value::str("gcx-wire")),
            ]),
        ))
        .unwrap();
    let refusal = transport
        .recv(Duration::from_secs(5))
        .unwrap()
        .expect("refusal frame");
    assert_eq!(refusal.frame_type, FrameType::Response);
    let err = error_from_value(refusal.payload.get("err").expect("typed refusal"));
    assert!(
        matches!(&err, gcx::core::error::GcxError::InvalidConfig(m) if m.contains("version")),
        "got {err:?}"
    );
    assert_eq!(server.conn_count(), 0, "a refused peer holds no connection");
    assert!(svc.metrics().counter("wire.handshake_failures").get() >= 1);
    server.shutdown();
    svc.shutdown();
}
