//! What tracing charges a task, counted: an `Executor` submits traced tasks
//! in process to a service whose endpoint is an echo drain (`next_task` →
//! `publish_result` → `ack_task`, as `gcxbench`'s `svc_inmem` runs it), on
//! a `Clock` that counts its readings.
//!
//! - Ring entries per task: 3, one a hop — the batcher's (the root and
//!   `submit`), the agent's `queue`, and the result processor's (`execute`
//!   and the closing `result`). It was 5 while the mint, `execute` and
//!   `result` were entries of their own, and 8 while the service also
//!   adopted every in-process context with a `submit` span of its own.
//! - Over the wire (localhost TCP, the `svc_tcp` path), 2 on the client's
//!   collector — the batcher's hop, now also carrying `wire.send` and
//!   `wire.await`, and `wire.push` — and 3 on the server's: the connection
//!   thread's adoption with `submit`, `wire.decode` and `wire.queue`, then
//!   `queue` and the result processor's. It was 5 and 7.
//! - `Clock::now_ms` readings per task over a 128-task batch: ≈ 4.1 — one
//!   at submit, then `queue`, the echo take's poll stamp, the result's
//!   publish stamp, where it lands, a ring's stamp every 64 entries, and
//!   the batch's and the batched takes' share. It was 4.13 with an entry a
//!   leg (two more ring stamps every 64 tasks), and ≈ 8.4 with the
//!   adoption's, the root close's and a second one at submit.
//!
//! The same stack also keeps every leg: driven by a real `Executor`, each
//! task leaves exactly one `submit`, and `dispatch` starts where `queue`
//! ended.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use gcx_auth::{AuthPolicy, AuthService};
use gcx_cloud::{CloudConfig, WebService, WireClientConfig, WireServer};
use gcx_config::TransportSpec;
use gcx_core::clock::{Clock, SharedClock, SystemClock, TimeMs};
use gcx_core::metrics::MetricsRegistry;
use gcx_core::task::{TaskResult, TaskState};
use gcx_core::value::Value;
use gcx_mq::{Broker, LinkProfile};
use gcx_sdk::{Executor, ExecutorConfig, PyFunction, TaskFuture};

/// Ring entries a traced in-process round trip writes (5 before, 8 before
/// that).
const ENTRIES_PER_TASK: f64 = 3.0;
/// Ring entries a traced round trip over the wire writes on the client's
/// collector (5 before) and on the server's (7 before).
const WIRE_CLIENT_ENTRIES_PER_TASK: f64 = 2.0;
const WIRE_SERVER_ENTRIES_PER_TASK: f64 = 3.0;
/// `Clock::now_ms` readings per task: 4.09–4.11 (4.13 with an entry a leg;
/// 8.28–8.56 while the service also adopted in-process contexts). The result processor's and the stream's takes each stamp the
/// clock once, however many results they find, so a host whose consumers
/// keep up one result at a time reads up to one more per consumer.
const CLOCK_READS_PER_TASK: f64 = 6.5;

const BATCH: usize = 128;
const T: Duration = Duration::from_secs(10);

/// The system clock, counting its readings.
#[derive(Default)]
struct CountingClock {
    reads: AtomicU64,
}

impl Clock for CountingClock {
    fn now_ms(&self) -> TimeMs {
        self.reads.fetch_add(1, Ordering::Relaxed);
        SystemClock.now_ms()
    }

    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// A service on `clock`, one endpoint served by an echo drain (which
/// reports `Running` first if `running`), and an executor on it — over a
/// localhost wire server if `wire`.
struct Stack {
    svc: WebService,
    server: Option<WireServer>,
    executor: Option<Executor>,
    stop: Arc<AtomicBool>,
    drain: Option<JoinHandle<()>>,
}

impl Stack {
    fn new(clock: SharedClock, running: bool) -> Self {
        Self::build(clock, running, false)
    }

    fn build(clock: SharedClock, running: bool, wire: bool) -> Self {
        let broker = Broker::with_profile(
            MetricsRegistry::new(),
            clock.clone(),
            LinkProfile::instant(),
        );
        let auth = AuthService::new(clock.clone());
        let svc = WebService::new(CloudConfig::default(), auth, broker, clock);
        let (_, token) = svc.auth().login("rent@site.org").unwrap();
        let reg = svc
            .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
            .unwrap();
        let session = svc
            .connect_endpoint(reg.endpoint_id, &reg.queue_credential)
            .unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let drain = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let result = TaskResult::ok(Value::Int(1));
                while !stop.load(Ordering::Relaxed) {
                    let Ok(Some((spec, tag))) = session.next_task(Duration::from_millis(20)) else {
                        continue;
                    };
                    if running {
                        // `dispatch` must not be empty on a ms clock.
                        std::thread::sleep(Duration::from_millis(2));
                        session
                            .report_state(spec.task_id, TaskState::Running)
                            .unwrap();
                    }
                    session.publish_result(spec.task_id, &result).unwrap();
                    session.ack_task(tag).unwrap();
                }
            })
        };
        let cfg = ExecutorConfig {
            // Only a full batch ships, in one call.
            batch_window: Duration::from_secs(60),
            max_batch: BATCH,
            ..ExecutorConfig::default()
        };
        let (server, executor) = if wire {
            let server = WireServer::listen(&svc, TransportSpec::default()).unwrap();
            let addrs = vec![server.addr().to_string()];
            let wire_cfg = WireClientConfig::default();
            let executor = Executor::over_wire(addrs, &token.0, reg.endpoint_id, cfg, wire_cfg);
            (Some(server), executor.unwrap())
        } else {
            let executor = Executor::with_config(svc.clone(), token, reg.endpoint_id, cfg);
            (None, executor.unwrap())
        };
        Self {
            svc,
            server,
            executor: Some(executor),
            stop,
            drain: Some(drain),
        }
    }

    /// Submit `n` tasks and wait for every result.
    fn round_trip(&self, n: usize) {
        let f = PyFunction::new("def f(x):\n    return x\n");
        let futures: Vec<TaskFuture> = (0..n)
            .map(|x| {
                let args = vec![Value::Int(x as i64)];
                let executor = self.executor.as_ref().unwrap();
                executor.submit(&f, args, Value::None).unwrap()
            })
            .collect();
        for fut in futures {
            fut.result_timeout(T).unwrap();
        }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        self.executor.take().unwrap().close();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        self.stop.store(true, Ordering::Relaxed);
        self.drain.take().unwrap().join().unwrap();
        self.svc.shutdown();
    }
}

#[test]
fn a_traced_in_process_task_writes_three_entries_and_reads_the_clock_about_four_times() {
    let clock = Arc::new(CountingClock::default());
    let stack = Stack::new(clock.clone(), false);
    let tracer = stack.svc.tracer().clone();
    // Registration, the stream and the rings' first growth are not rent.
    stack.round_trip(BATCH);

    let entries = tracer.entries_written();
    let reads = clock.reads.load(Ordering::Relaxed);
    stack.round_trip(BATCH);
    let reads = (clock.reads.load(Ordering::Relaxed) - reads) as f64 / BATCH as f64;
    let entries = (tracer.entries_written() - entries) as f64 / BATCH as f64;
    println!("per traced task: {entries:.2} ring entries, {reads:.2} clock readings");
    assert!(
        entries <= ENTRIES_PER_TASK,
        "{entries:.2} ring entries a task (bound {ENTRIES_PER_TASK})"
    );
    assert!(
        reads <= CLOCK_READS_PER_TASK,
        "{reads:.2} clock readings a task (bound {CLOCK_READS_PER_TASK})"
    );
}

#[test]
fn an_executor_task_keeps_one_submit_and_dispatch_follows_queue() {
    let stack = Stack::new(SystemClock::shared(), true);
    let tracer = stack.svc.tracer().clone();
    stack.round_trip(BATCH);
    let traces = tracer.traces();
    assert_eq!(traces.len(), BATCH);
    for td in &traces {
        assert!(td.orphan_spans().is_empty(), "{td:?}");
        let mut legs: Vec<&str> = td.children_of(td.root).iter().map(|s| s.name).collect();
        legs.sort_unstable();
        let once = ["dispatch", "execute", "queue", "result", "submit"];
        assert_eq!(legs, once, "{td:?}");
        let leg = |name| td.spans_named(name).next().unwrap();
        assert_eq!(leg("dispatch").start_ms, leg("queue").end_ms, "{td:?}");
        assert!(leg("dispatch").end_ms > leg("dispatch").start_ms, "{td:?}");
        assert_eq!(leg("execute").start_ms, leg("dispatch").end_ms, "{td:?}");
        let root = td.root_span().unwrap();
        assert_eq!(root.end_ms, leg("result").end_ms, "the closing leg's end");
    }
}

#[test]
fn a_traced_wire_task_writes_two_entries_on_the_client_and_three_on_the_server() {
    let stack = Stack::build(SystemClock::shared(), false, true);
    let server = stack.svc.tracer().clone();
    let client = stack.executor.as_ref().unwrap().metrics().tracer();
    stack.round_trip(BATCH);

    let written = || (client.entries_written(), server.entries_written());
    let before = written();
    stack.round_trip(BATCH);
    let after = written();
    let per_task = |a: u64, b: u64| (a - b) as f64 / BATCH as f64;
    let (on_client, on_server) = (per_task(after.0, before.0), per_task(after.1, before.1));
    println!("per traced wire task: {on_client:.2} client entries, {on_server:.2} server entries");
    assert!(
        on_client <= WIRE_CLIENT_ENTRIES_PER_TASK,
        "{on_client:.2} client ring entries a task (bound {WIRE_CLIENT_ENTRIES_PER_TASK})"
    );
    assert!(
        on_server <= WIRE_SERVER_ENTRIES_PER_TASK,
        "{on_server:.2} server ring entries a task (bound {WIRE_SERVER_ENTRIES_PER_TASK})"
    );
    // Every leg of both sides is still there.
    let client_legs = ["submit", "wire.await", "wire.push", "wire.send"];
    let server_legs = [
        "execute",
        "queue",
        "result",
        "submit",
        "wire.decode",
        "wire.queue",
    ];
    for (tracer, once) in [(&client, &client_legs[..]), (&server, &server_legs[..])] {
        let traces = tracer.traces();
        assert_eq!(traces.len(), 2 * BATCH);
        for td in &traces {
            assert!(td.orphan_spans().is_empty(), "{td:?}");
            let mut legs: Vec<&str> = td.children_of(td.root).iter().map(|s| s.name).collect();
            legs.sort_unstable();
            assert_eq!(legs, once, "{td:?}");
        }
    }
}
