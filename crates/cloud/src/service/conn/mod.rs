//! The service's wire edge: a real protocol boundary in front of
//! [`WebService`](super::WebService).
//!
//! Until this module existed every "client" held an `Arc` to the cloud and
//! called methods in-process. Here the seam becomes a connection:
//!
//! - [`WireServer`] accepts [`gcx_core::wire::Transport`] connections
//!   (localhost TCP or in-memory pipes), authenticates each with a
//!   versioned `Hello` handshake, multiplexes concurrent requests by
//!   correlation id, answers heartbeats, and reaps idle connections;
//! - [`WireClient`] is the matching dialer: one demux thread routes
//!   responses to pending calls and server-push frames to subscriptions,
//!   and sends the heartbeat that keeps the connection alive when it is
//!   due;
//! - a client that took a pushed result it was waiting for says so with a
//!   `Confirm` frame (packed ids, no answer), and a standalone service
//!   forgets those tasks ([`WebService::confirm_taken`](super::WebService::confirm_taken));
//! - result delivery is **server push**: a client opens a stream once and
//!   the server forwards the `(task_id, result)` envelopes that are ready
//!   at each wake-up as one `Push` frame — the wire replacement for handing
//!   the executor a broker consumer. Pushes are never dropped: a slow
//!   subscriber exerts backpressure through the connection.
//!
//! Tasks cross as flat bytes ([`gcx_core::wire::batch`]): a submit is the
//! packed mq message form of its specs, the answer packed uuids, a push the
//! packed result envelopes.
//!
//! Transport metrics (`wire.conns_open`, `wire.frames_in`, `wire.frames_out`,
//! `wire.handshake_failures`, `wire.heartbeat_timeouts`, and the receive
//! buffer's `wire.bytes_reused`) live on the service's metrics registry and
//! surface through the existing Prometheus and JSON expositions.

mod client;
mod server;

pub use client::{WireClient, WireClientConfig, WireStream};
pub use server::WireServer;

use std::sync::Arc;

use gcx_core::error::{GcxError, GcxResult};
use gcx_core::ids::TaskId;
use gcx_core::metrics::{Counter, Gauge, MetricsRegistry};
use gcx_core::task::{TaskResult, TaskState};
use gcx_core::value::Value;
use gcx_core::wire::{Frame, Transport};

use super::CancelOutcome;

/// Wire method names (the `method` field of a `Request` frame).
pub(crate) mod methods {
    pub const REGISTER_FUNCTION: &str = "register_function";
    pub const SUBMIT_BATCH: &str = "submit_batch";
    pub const TASK_STATUS: &str = "task_status";
    pub const TASK_STATUS_BATCH: &str = "task_status_batch";
    pub const CANCEL_TASK: &str = "cancel_task";
    pub const OPEN_STREAM: &str = "open_stream";
    pub const CLOSE_STREAM: &str = "close_stream";
}

/// Pre-resolved handles for the wire metrics, one registry lookup each at
/// server/connection setup instead of per frame.
pub(crate) struct WireMetrics {
    pub(crate) conns_open: Arc<Gauge>,
    pub(crate) frames_in: Arc<Counter>,
    pub(crate) frames_out: Arc<Counter>,
    pub(crate) handshake_failures: Arc<Counter>,
    pub(crate) heartbeat_timeouts: Arc<Counter>,
    /// Bytes the connection's frame reader fed into retained buffer
    /// capacity instead of a fresh allocation (accumulated at teardown).
    pub(crate) bytes_reused: Arc<Counter>,
}

impl WireMetrics {
    pub(crate) fn resolve(registry: &MetricsRegistry) -> Self {
        Self {
            conns_open: registry.gauge("wire.conns_open"),
            frames_in: registry.counter("wire.frames_in"),
            frames_out: registry.counter("wire.frames_out"),
            handshake_failures: registry.counter("wire.handshake_failures"),
            heartbeat_timeouts: registry.counter("wire.heartbeat_timeouts"),
            bytes_reused: registry.counter("wire.bytes_reused"),
        }
    }

    /// Send on `transport`, counting the frame on success.
    pub(crate) fn send_counted(&self, transport: &dyn Transport, frame: &Frame) -> GcxResult<()> {
        transport.send(frame)?;
        self.frames_out.inc();
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Payload packing shared by both ends of the wire
// ---------------------------------------------------------------------------

pub(crate) fn task_id_from_str(s: &str) -> GcxResult<TaskId> {
    s.parse::<gcx_core::ids::Uuid>()
        .map(TaskId)
        .map_err(|e| GcxError::Codec(format!("bad task id '{s}': {e}")))
}

/// `(id, state, result)` → `{id, state, result?}`.
pub(crate) fn status_entry_to_value(
    id: TaskId,
    state: TaskState,
    result: &Option<TaskResult>,
) -> Value {
    let mut fields = vec![
        ("id", Value::str(id.to_string())),
        ("state", Value::str(state.label())),
    ];
    if let Some(result) = result {
        fields.push(("result", result.to_value()));
    }
    Value::map(fields)
}

pub(crate) fn status_entry_from_value(
    v: &Value,
) -> GcxResult<(TaskId, TaskState, Option<TaskResult>)> {
    let id = task_id_from_str(
        v.get("id")
            .and_then(Value::as_str)
            .ok_or_else(|| GcxError::Codec("status entry missing 'id'".into()))?,
    )?;
    let state = TaskState::from_label(
        v.get("state")
            .and_then(Value::as_str)
            .ok_or_else(|| GcxError::Codec("status entry missing 'state'".into()))?,
    )?;
    let result = match v.get("result") {
        Some(rv) => Some(TaskResult::from_value(rv)?),
        None => None,
    };
    Ok((id, state, result))
}

pub(crate) fn cancel_outcome_to_value(outcome: &CancelOutcome) -> Value {
    match outcome {
        CancelOutcome::Cancelled => Value::map([("outcome", Value::str("cancelled"))]),
        CancelOutcome::AlreadyTerminal(state) => Value::map([
            ("outcome", Value::str("already_terminal")),
            ("state", Value::str(state.label())),
        ]),
    }
}

pub(crate) fn cancel_outcome_from_value(v: &Value) -> GcxResult<CancelOutcome> {
    match v.get("outcome").and_then(Value::as_str) {
        Some("cancelled") => Ok(CancelOutcome::Cancelled),
        Some("already_terminal") => Ok(CancelOutcome::AlreadyTerminal(TaskState::from_label(
            v.get("state")
                .and_then(Value::as_str)
                .ok_or_else(|| GcxError::Codec("already_terminal missing 'state'".into()))?,
        )?)),
        _ => Err(GcxError::Codec(format!("bad cancel outcome: {v:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{login, service, T};
    use super::*;
    use gcx_auth::AuthPolicy;
    use gcx_config::TransportSpec;
    use gcx_core::function::FunctionBody;
    use gcx_core::task::{TaskResult, TaskSpec, TaskState};
    use gcx_core::trace::TraceContext;
    use gcx_core::wire::{FrameType, WIRE_VERSION};
    use std::collections::HashSet;
    use std::time::Duration;

    fn fast_spec() -> TransportSpec {
        TransportSpec {
            heartbeat_interval_ms: 100,
            idle_timeout_ms: 1_000,
            ..TransportSpec::default()
        }
    }

    fn client_cfg() -> WireClientConfig {
        WireClientConfig {
            heartbeat_interval: Duration::from_millis(100),
            call_timeout: Duration::from_secs(5),
            ..WireClientConfig::default()
        }
    }

    #[test]
    fn inmem_wire_round_trip_with_server_push() {
        let svc = service();
        let token = login(&svc, "wire@x.y");
        let server = WireServer::inmem(&svc, fast_spec());
        let client = WireClient::over(server.connect_inmem(), &token.0, client_cfg()).unwrap();

        let fid = client
            .register_function(&FunctionBody::pyfn("def f():\n    return 1\n"))
            .unwrap();
        let reg = svc
            .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
            .unwrap();
        let session = svc
            .connect_endpoint(reg.endpoint_id, &reg.queue_credential)
            .unwrap();

        let stream = client.open_stream().unwrap();
        let ids = client
            .submit_batch(&[
                TaskSpec::new(fid, reg.endpoint_id),
                TaskSpec::new(fid, reg.endpoint_id),
            ])
            .unwrap();
        assert_eq!(ids.len(), 2);

        for _ in 0..2 {
            let (spec, tag) = session.next_task(T).unwrap().unwrap();
            session
                .publish_result(spec.task_id, &TaskResult::ok(Value::str("pushed")))
                .unwrap();
            session.ack_task(tag).unwrap();
        }

        let mut got = HashSet::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while got.len() < 2 && std::time::Instant::now() < deadline {
            if let Some((tid, result)) = stream.next(Duration::from_millis(100)).unwrap() {
                assert!(matches!(result, TaskResult::Ok(_)));
                got.insert(tid);
            }
        }
        assert_eq!(got, ids.iter().copied().collect::<HashSet<_>>());

        let (state, result) = client.task_status(ids[0]).unwrap();
        assert_eq!(state, TaskState::Success);
        assert!(result.is_some());

        let statuses = client.task_status_batch(&ids).unwrap();
        assert_eq!(statuses.len(), 2);

        let extra = client
            .submit_batch(&[TaskSpec::new(fid, reg.endpoint_id)])
            .unwrap()[0];
        let outcome = client.cancel_task(extra).unwrap();
        assert!(matches!(
            outcome,
            CancelOutcome::Cancelled | CancelOutcome::AlreadyTerminal(_)
        ));

        drop(stream);
        client.close();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while server.conn_count() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(server.conn_count(), 0);
        // Connection teardown folds the frame reader's buffer-reuse tally
        // into the registry: a multi-frame conversation must have fed
        // bytes into retained capacity.
        assert!(
            svc.metrics().counter("wire.bytes_reused").get() > 0,
            "frame reader must reuse its receive buffer across frames"
        );
        server.shutdown();
        svc.shutdown();
    }

    /// More results than any client-side queue holds, all published before
    /// the stream is read once: every one must still arrive, exactly once.
    /// (The demux thread used to `try_send` pushes into a 1024-deep channel
    /// and drop the rest, stranding their futures.)
    #[test]
    fn results_published_before_the_first_read_all_arrive_exactly_once() {
        const RESULTS: usize = 4096;
        let svc = service();
        let token = login(&svc, "backlog@x.y");
        let server = WireServer::inmem(&svc, fast_spec());
        let client = WireClient::over(server.connect_inmem(), &token.0, client_cfg()).unwrap();
        let fid = client
            .register_function(&FunctionBody::pyfn("def f():\n    return 1\n"))
            .unwrap();
        let reg = svc
            .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
            .unwrap();
        let session = svc
            .connect_endpoint(reg.endpoint_id, &reg.queue_credential)
            .unwrap();

        let stream = client.open_stream().unwrap();
        let mut ids = HashSet::new();
        for _ in 0..RESULTS / 128 {
            let specs: Vec<TaskSpec> = (0..128)
                .map(|_| TaskSpec::new(fid, reg.endpoint_id))
                .collect();
            ids.extend(client.submit_batch(&specs).unwrap());
        }
        assert_eq!(ids.len(), RESULTS);
        for _ in 0..RESULTS {
            let (spec, tag) = session.next_task(T).unwrap().unwrap();
            session
                .publish_result(spec.task_id, &TaskResult::ok(Value::Int(1)))
                .unwrap();
            session.ack_task(tag).unwrap();
        }

        let mut got = HashSet::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        while got.len() < RESULTS {
            assert!(
                std::time::Instant::now() < deadline,
                "only {} of {RESULTS} pushed results arrived",
                got.len()
            );
            if let Some((tid, _)) = stream.next(Duration::from_millis(100)).unwrap() {
                assert!(got.insert(tid), "result for {tid} delivered twice");
            }
        }
        assert_eq!(got, ids);
        assert!(stream.next(Duration::from_millis(100)).unwrap().is_none());
        // Batched: far fewer frames than results crossed the wire.
        assert!(svc.metrics().counter("wire.frames_out").get() < RESULTS as u64);

        drop(stream);
        client.close();
        server.shutdown();
        svc.shutdown();
    }

    #[test]
    fn tcp_wire_round_trip() {
        let svc = service();
        let token = login(&svc, "tcp@x.y");
        let server = WireServer::listen(&svc, fast_spec()).unwrap();
        let client = WireClient::connect_tcp(server.addr(), &token.0, client_cfg()).unwrap();

        let fid = client
            .register_function(&FunctionBody::pyfn("def f():\n    return 1\n"))
            .unwrap();
        let reg = svc
            .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
            .unwrap();
        let session = svc
            .connect_endpoint(reg.endpoint_id, &reg.queue_credential)
            .unwrap();

        let id = client
            .submit_batch(&[TaskSpec::new(fid, reg.endpoint_id)])
            .unwrap()[0];
        let (_, tag) = session.next_task(T).unwrap().unwrap();
        session
            .publish_result(id, &TaskResult::ok(Value::Int(7)))
            .unwrap();
        session.ack_task(tag).unwrap();

        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let (state, result) = client.task_status(id).unwrap();
            if state == TaskState::Success {
                assert_eq!(result.and_then(|r| r.ok_value()), Some(Value::Int(7)));
                break;
            }
            assert!(std::time::Instant::now() < deadline, "task never completed");
            std::thread::sleep(Duration::from_millis(20));
        }

        client.close();
        server.shutdown();
        svc.shutdown();
    }

    #[test]
    fn handshake_rejects_bad_token() {
        let svc = service();
        let server = WireServer::inmem(&svc, fast_spec());
        let err = WireClient::over(server.connect_inmem(), "not-a-token", client_cfg())
            .expect_err("bogus token must be refused");
        assert!(matches!(err, GcxError::Unauthenticated(_)), "{err:?}");
        assert_eq!(svc.metrics().counter("wire.handshake_failures").get(), 1);
        server.shutdown();
        svc.shutdown();
    }

    #[test]
    fn handshake_rejects_version_mismatch() {
        let svc = service();
        let token = login(&svc, "old@x.y");
        let server = WireServer::inmem(&svc, fast_spec());
        let transport = server.connect_inmem();
        transport
            .send(&Frame::new(
                FrameType::Hello,
                0,
                Value::map([
                    ("version", Value::Int(WIRE_VERSION + 1)),
                    ("token", Value::str(token.0.clone())),
                ]),
            ))
            .unwrap();
        let refusal = transport
            .recv(Duration::from_secs(2))
            .unwrap()
            .expect("refusal frame");
        assert_eq!(refusal.frame_type, FrameType::Response);
        let err = gcx_core::wire::error_from_value(refusal.payload.get("err").unwrap());
        assert!(matches!(err, GcxError::InvalidConfig(_)), "{err:?}");
        server.shutdown();
        svc.shutdown();
    }

    #[test]
    fn connection_cap_refuses_with_overloaded() {
        let svc = service();
        let token = login(&svc, "cap@x.y");
        let spec = TransportSpec {
            max_connections: 1,
            ..fast_spec()
        };
        let server = WireServer::inmem(&svc, spec);
        let first = WireClient::over(server.connect_inmem(), &token.0, client_cfg()).unwrap();
        let err = WireClient::over(server.connect_inmem(), &token.0, client_cfg())
            .expect_err("second connection must be refused");
        assert!(matches!(err, GcxError::Overloaded { .. }), "{err:?}");
        first.close();
        server.shutdown();
        svc.shutdown();
    }

    #[test]
    fn idle_connection_is_reaped() {
        let svc = service();
        let token = login(&svc, "idle@x.y");
        let spec = TransportSpec {
            heartbeat_interval_ms: 50,
            idle_timeout_ms: 200,
            ..TransportSpec::default()
        };
        let server = WireServer::inmem(&svc, spec);
        // Handshake by hand so no client heartbeat keeps the link alive.
        let transport = server.connect_inmem();
        transport.send(&Frame::hello(token.0.clone())).unwrap();
        let ack = transport
            .recv(Duration::from_secs(2))
            .unwrap()
            .expect("hello ack");
        assert_eq!(ack.frame_type, FrameType::HelloAck);
        assert_eq!(server.conn_count(), 1);

        let deadline = std::time::Instant::now() + Duration::from_secs(3);
        while server.conn_count() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(25));
        }
        assert_eq!(server.conn_count(), 0, "idle connection never reaped");
        assert!(svc.metrics().counter("wire.heartbeat_timeouts").get() >= 1);
        server.shutdown();
        svc.shutdown();
    }

    #[test]
    fn heartbeats_keep_idle_connection_alive() {
        let svc = service();
        let token = login(&svc, "alive@x.y");
        let spec = TransportSpec {
            heartbeat_interval_ms: 50,
            idle_timeout_ms: 300,
            ..TransportSpec::default()
        };
        let server = WireServer::inmem(&svc, spec);
        let client = WireClient::over(
            server.connect_inmem(),
            &token.0,
            WireClientConfig {
                heartbeat_interval: Duration::from_millis(50),
                ..client_cfg()
            },
        )
        .unwrap();
        // Several idle windows pass; heartbeats alone must hold the link.
        std::thread::sleep(Duration::from_millis(900));
        assert_eq!(server.conn_count(), 1);
        assert!(!client.is_dead());
        client.close();
        server.shutdown();
        svc.shutdown();
    }

    /// A subscriber that stops reading stalls its own connection: the demux
    /// thread waits to hand it a batch instead of reading. That thread also
    /// sends the heartbeat, and must keep sending it while it waits, or the
    /// server would reap a healthy slow reader for silence.
    #[test]
    fn a_stalled_subscriber_keeps_its_connection() {
        const RESULTS: usize = 12; // more push batches than the client queues
        let svc = service();
        let token = login(&svc, "stalled@x.y");
        let spec = TransportSpec {
            heartbeat_interval_ms: 50,
            idle_timeout_ms: 300,
            ..TransportSpec::default()
        };
        let server = WireServer::inmem(&svc, spec);
        let cfg = WireClientConfig {
            heartbeat_interval: Duration::from_millis(50),
            ..client_cfg()
        };
        let client = WireClient::over(server.connect_inmem(), &token.0, cfg).unwrap();
        let fid = client
            .register_function(&FunctionBody::pyfn("def f():\n    return 1\n"))
            .unwrap();
        let reg = svc
            .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
            .unwrap();
        let session = svc
            .connect_endpoint(reg.endpoint_id, &reg.queue_credential)
            .unwrap();
        let stream = client.open_stream().unwrap();
        let specs: Vec<TaskSpec> = (0..RESULTS)
            .map(|_| TaskSpec::new(fid, reg.endpoint_id))
            .collect();
        let ids: HashSet<_> = client.submit_batch(&specs).unwrap().into_iter().collect();
        // One result per push frame, none read.
        let pushed = svc.metrics().counter("wire.frames_out");
        for _ in 0..RESULTS {
            let before = pushed.get();
            let (spec, tag) = session.next_task(T).unwrap().unwrap();
            session
                .publish_result(spec.task_id, &TaskResult::ok(Value::Int(1)))
                .unwrap();
            session.ack_task(tag).unwrap();
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while pushed.get() == before {
                assert!(std::time::Instant::now() < deadline, "never pushed");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        // Three idle timeouts with the demux thread stuck on the stream.
        std::thread::sleep(Duration::from_millis(900));
        assert_eq!(server.conn_count(), 1, "a stalled subscriber was reaped");
        assert!(!client.is_dead());
        let mut got = HashSet::new();
        while got.len() < RESULTS {
            let (id, _) = stream.next(T).unwrap().expect("every result arrives");
            assert!(got.insert(id), "{id} delivered twice");
        }
        assert_eq!(got, ids);
        drop(stream);
        client.close();
        server.shutdown();
        svc.shutdown();
    }

    #[test]
    fn server_shutdown_fails_client_calls_with_retryable_error() {
        let svc = service();
        let token = login(&svc, "down@x.y");
        let server = WireServer::inmem(&svc, fast_spec());
        let client = WireClient::over(server.connect_inmem(), &token.0, client_cfg()).unwrap();
        server.shutdown();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while !client.is_dead() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        let err = client
            .task_status(gcx_core::ids::TaskId(gcx_core::ids::Uuid(1)))
            .expect_err("dead connection must error");
        assert!(matches!(err, GcxError::Transient(_)), "{err:?}");
        client.close();
        svc.shutdown();
    }

    /// The spans of one finished task: no orphans, the root closed, and
    /// every leg in `once` exactly once among the children.
    fn assert_legs(tracer: &gcx_core::trace::Tracer, ctx: &TraceContext, once: &[&str]) {
        let td = tracer.trace(ctx.trace_id).expect("the task's trace");
        assert!(td.orphan_spans().is_empty(), "orphans in {td:?}");
        assert_eq!(tracer.spans_overflowed(), 0);
        let mut legs: Vec<&str> = td.children_of(td.root).iter().map(|s| s.name).collect();
        legs.sort_unstable();
        let mut once = once.to_vec();
        once.sort_unstable();
        assert_eq!(legs, once, "{td:?}");
        assert_eq!(
            td.spans.len(),
            once.len() + 1,
            "only the root has no parent"
        );
    }

    /// Fails if a cheaper tracer got there by recording less: one task,
    /// in process and over the wire, must leave every lifecycle leg exactly
    /// once, linked to a closed root.
    #[test]
    fn traced_task_keeps_every_leg() {
        use gcx_core::trace::{TraceConfig, Tracer};
        let svc = service();
        let token = login(&svc, "legs@x.y");
        let fid = svc
            .register_function(&token, FunctionBody::pyfn("def f():\n    return 1\n"))
            .unwrap();
        let reg = svc
            .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
            .unwrap();
        let session = svc
            .connect_endpoint(reg.endpoint_id, &reg.queue_credential)
            .unwrap();
        // Run the endpoint's side of one task; `running` says whether it
        // reports the Running state (which is what stamps `dispatch`).
        let serve = |running: bool| {
            let (spec, tag) = session.next_task(T).unwrap().unwrap();
            if running {
                session
                    .report_state(spec.task_id, TaskState::Running)
                    .unwrap();
            }
            // The root must visibly close after it opened (ms clock).
            std::thread::sleep(Duration::from_millis(2));
            session
                .publish_result(spec.task_id, &TaskResult::ok(Value::Int(1)))
                .unwrap();
            session.ack_task(tag).unwrap();
            spec.trace.expect("tracing is on by default")
        };
        let closed_root = |tracer: &Tracer, ctx: &TraceContext| {
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            loop {
                let td = tracer.trace(ctx.trace_id).expect("the task's trace");
                let root = td.root_span().expect("a root").clone();
                if td.spans_named("result").count() == 1 {
                    assert!(root.end_ms > root.start_ms, "root left open: {root:?}");
                    return;
                }
                assert!(std::time::Instant::now() < deadline, "no result span");
                std::thread::sleep(Duration::from_millis(5));
            }
        };

        // In process, context minted by the front door.
        let stream = svc.open_result_stream(&token).unwrap();
        for running in [false, true] {
            svc.submit_task(&token, TaskSpec::new(fid, reg.endpoint_id))
                .unwrap();
            let ctx = serve(running);
            closed_root(svc.tracer(), &ctx);
            let mut legs = vec!["submit", "queue", "execute", "result"];
            legs.extend(running.then_some("dispatch"));
            assert_legs(svc.tracer(), &ctx, &legs);
            // `execute` runs from the Running report (or, with none, from
            // nothing) to the agent's publish stamp, where `result` starts.
            let td = svc.tracer().trace(ctx.trace_id).unwrap();
            let leg = |name| td.spans_named(name).next().unwrap();
            assert_eq!(leg("execute").end_ms, leg("result").start_ms);
            let started = running.then(|| leg("dispatch").end_ms);
            let from = started.unwrap_or(leg("execute").end_ms);
            assert_eq!(leg("execute").start_ms, from);
            let pushed = stream.consumer.next(T).unwrap().expect("pushed result");
            assert_eq!(pushed.message.headers.trace, Some(ctx));
            stream.consumer.ack(pushed.tag).unwrap();
        }
        drop(stream);

        // Over the wire, context minted by the client as the SDK does: the
        // server adopts it, and each side keeps its own wire legs.
        let client_side = MetricsRegistry::new();
        client_side.set_tracer(Tracer::new(
            gcx_core::clock::SystemClock::shared(),
            TraceConfig::default(),
        ));
        let server = WireServer::inmem(&svc, fast_spec());
        let client = WireClient::over_with_registry(
            server.connect_inmem(),
            &token.0,
            client_cfg(),
            &client_side,
        )
        .unwrap();
        let pushes = client.open_stream().unwrap();
        let mut spec = TaskSpec::new(fid, reg.endpoint_id);
        let minted = client_side.tracer().start_trace("task").unwrap();
        spec.trace = Some(minted);
        client.submit_batch(&[spec]).unwrap();
        assert_eq!(serve(true), minted);
        closed_root(svc.tracer(), &minted);
        assert_legs(
            svc.tracer(),
            &minted,
            &[
                "submit",
                "queue",
                "dispatch",
                "execute",
                "result",
                "wire.decode",
                "wire.queue",
            ],
        );
        assert!(pushes.next(T).unwrap().is_some(), "pushed over the wire");
        assert_legs(
            &client_side.tracer(),
            &minted,
            &["wire.send", "wire.await", "wire.push"],
        );

        drop(pushes);
        client.close();
        server.shutdown();
        svc.shutdown();
    }
}
