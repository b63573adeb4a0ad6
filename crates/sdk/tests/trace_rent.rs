//! What tracing charges a task, counted: an `Executor` submits traced tasks
//! in process to a service whose endpoint is an echo drain (`next_task` →
//! `publish_result` → `ack_task`, as `gcxbench`'s `svc_inmem` runs it), on
//! a `Clock` that counts its readings.
//!
//! - Ring entries per task: 5 — the mint, the SDK's `submit`, `queue`,
//!   `execute` and the closing `result`. It was 8 while the service also
//!   adopted every in-process context with a `submit` span of its own
//!   (which the mint always beat) and a separate entry closed the root.
//! - `Clock::now_ms` readings per task over a 128-task batch: ≈ 5.3 — one
//!   at submit, then `queue`, the echo take's poll stamp, the result's
//!   publish stamp, where it lands, a ring's stamp every 64 entries, and
//!   the batch's and the batched takes' share. It was ≈ 8.4 with the
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
use gcx_cloud::{CloudConfig, WebService};
use gcx_core::clock::{Clock, SharedClock, SystemClock, TimeMs};
use gcx_core::metrics::MetricsRegistry;
use gcx_core::task::{TaskResult, TaskState};
use gcx_core::value::Value;
use gcx_mq::{Broker, LinkProfile};
use gcx_sdk::{Executor, ExecutorConfig, PyFunction, TaskFuture};

/// Ring entries a traced in-process round trip writes (8 before).
const ENTRIES_PER_TASK: f64 = 5.0;
/// `Clock::now_ms` readings per task: 5.16–5.83 over 65 runs (8.28–8.56
/// before). The result processor's and the stream's takes each stamp the
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
/// reports `Running` first if `running`), and an executor on it.
struct Stack {
    svc: WebService,
    executor: Option<Executor>,
    stop: Arc<AtomicBool>,
    drain: Option<JoinHandle<()>>,
}

impl Stack {
    fn new(clock: SharedClock, running: bool) -> Self {
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
        let executor = Executor::with_config(
            svc.clone(),
            token,
            reg.endpoint_id,
            ExecutorConfig {
                // Only a full batch ships, in one call.
                batch_window: Duration::from_secs(60),
                max_batch: BATCH,
                ..ExecutorConfig::default()
            },
        )
        .unwrap();
        Self {
            svc,
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
        self.stop.store(true, Ordering::Relaxed);
        self.drain.take().unwrap().join().unwrap();
        self.svc.shutdown();
    }
}

#[test]
fn a_traced_in_process_task_writes_five_entries_and_reads_the_clock_about_five_times() {
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
