//! Allocation pins for the whole in-process task path, tracing on and off.
//!
//! A task crosses submit → task queue → endpoint session → result queue →
//! result processor → the submitter's result stream. What that must never
//! become again is a path where carrying the task's 24-byte trace context
//! costs more than carrying the task: string-keyed header maps cloned per
//! hand-off, the context formatted to text and parsed back, a `String` per
//! span. This test counts every heap allocation of the process while 2 048
//! tasks make the round trip, at the product's tracing default and with
//! tracing off, and bounds both the total and the difference per task.
//!
//! Own integration-test binary, one `#[test]`: the counting
//! `#[global_allocator]` sees every thread of the process, and the two
//! stacks run one after the other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use gcx_auth::{AuthPolicy, AuthService};
use gcx_cloud::{CloudConfig, WebService};
use gcx_core::clock::SystemClock;
use gcx_core::function::FunctionBody;
use gcx_core::metrics::MetricsRegistry;
use gcx_core::task::{TaskResult, TaskSpec};
use gcx_core::trace::TraceConfig;
use gcx_core::value::Value;
use gcx_mq::{Broker, LinkProfile};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    f();
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

/// Heap allocations per task for the round trip, tracer at the product
/// default. Today 3.15: building the spec is 2.0 (the test's argument list,
/// and the encoded payload, written in a reused buffer and copied out once);
/// the envelope the endpoint publishes 1.0, made the same way; the rest is
/// what a 128-task batch pays once on submit (≈ 19, the endpoint's one
/// buffer of task messages among them). Nothing else allocates: each queue
/// message is a slice of that buffer, and the result stream carries the
/// published envelope as it is. It was 7.15 while the payload was encoded
/// from a cloned `Value` tree into a buffer and then copied (5.0 for the
/// spec) and the envelope was a buffer and its copy (2.0), 11.2 while every
/// task message and every pushed envelope was a buffer and a copy of its
/// own, 13.2 while every trace owned a span block and every submitted task
/// cloned its endpoint's record, and 53.3 when headers were string maps and
/// spans owned their names.
const ALLOCS_PER_TASK: f64 = 3.5;

/// What tracing every task may add per task over tracing none. Today 0.0:
/// a span is an entry appended to its thread's ring (the warm-up grows
/// the rings to their bound). It was 1.0 (the span block), and 37.
const TRACING_ALLOCS_PER_TASK: f64 = 1.0;

const BATCHES: usize = 16;
const BATCH: usize = 128;
const T: Duration = Duration::from_secs(5);

/// Heap allocations per task of `BATCHES × BATCH` round trips through a
/// fresh service with this tracer configuration.
fn round_trip_allocations(trace: TraceConfig) -> f64 {
    let clock = SystemClock::shared();
    let broker = Broker::with_profile(
        MetricsRegistry::new(),
        clock.clone(),
        LinkProfile::instant(),
    );
    let cfg = CloudConfig {
        trace,
        ..CloudConfig::default()
    };
    let svc = WebService::new(cfg, AuthService::new(clock.clone()), broker, clock);
    let (_, token) = svc.auth().login("alloc@test.org").unwrap();
    let fid = svc
        .register_function(&token, FunctionBody::pyfn("def f(x):\n    return x\n"))
        .unwrap();
    let reg = svc
        .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
        .unwrap();
    let session = svc
        .connect_endpoint(reg.endpoint_id, &reg.queue_credential)
        .unwrap();
    let stream = svc.open_result_stream(&token).unwrap();

    // Built once: the endpoint's own work is not what is counted.
    let result = TaskResult::ok(Value::Int(1));
    let mut seq = 0i64;
    let mut round_trip = |batches: usize| {
        for _ in 0..batches {
            let specs: Vec<TaskSpec> = (0..BATCH)
                .map(|_| {
                    seq += 1;
                    let mut spec = TaskSpec::new(fid, reg.endpoint_id);
                    spec.set_args(vec![Value::Int(seq)], Value::None);
                    spec
                })
                .collect();
            svc.submit_batch(&token, specs).unwrap();
            for _ in 0..BATCH {
                let (spec, tag) = session.next_task(T).unwrap().expect("a submitted task");
                session.publish_result(spec.task_id, &result).unwrap();
                session.ack_task(tag).unwrap();
            }
            for _ in 0..BATCH {
                let pushed = stream.consumer.next(T).unwrap().expect("a pushed result");
                let (_, result, _) = TaskResult::from_envelope(&pushed.message.body).unwrap();
                assert!(matches!(result, TaskResult::Ok(_)));
                stream.consumer.ack(pushed.tag).unwrap();
            }
        }
    };

    // Warm up past the trace collector's retention bound (4 096), so maps,
    // queues, buffers and the tracer's rings are at their working size and
    // every new trace overwrites an old one, as in steady state.
    round_trip(2 * BATCHES + 2);
    let allocations = allocations_in(|| round_trip(BATCHES));
    drop(stream);
    drop(session);
    svc.shutdown();
    allocations as f64 / (BATCHES * BATCH) as f64
}

#[test]
fn task_round_trip_allocates_a_small_constant_and_tracing_adds_little() {
    let traced = round_trip_allocations(TraceConfig::default());
    let untraced = round_trip_allocations(TraceConfig {
        sample_every: 0,
        ..TraceConfig::default()
    });
    println!(
        "allocations per task: traced {traced:.2}, untraced {untraced:.2}, tracing's share {:.2}",
        traced - untraced
    );
    assert!(
        traced <= ALLOCS_PER_TASK,
        "a traced task costs {traced:.2} heap allocations end to end (bound {ALLOCS_PER_TASK})"
    );
    assert!(
        traced - untraced <= TRACING_ALLOCS_PER_TASK,
        "tracing adds {:.2} heap allocations per task (bound {TRACING_ALLOCS_PER_TASK}): \
         is the context travelling as text again, or a span allocating?",
        traced - untraced
    );
}
