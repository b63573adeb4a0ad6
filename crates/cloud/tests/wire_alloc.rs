//! Allocation pin for the wire submit path.
//!
//! A submit crosses the wire as the packed flat form of its specs: the
//! client appends each spec to one buffer, the server slices them back out.
//! What that must never become again is a tree per task — the structured
//! form cost 25+ heap allocations per spec per side (map nodes, key strings,
//! formatted ids, payload copies). This test counts heap allocations of a
//! 128-spec submit through `WireServer::inmem` (client and server threads
//! both), subtracts what `WebService::submit_batch` itself allocates for the
//! identical work in-process, and bounds the rest per task by a small
//! constant.
//!
//! Own integration-test binary, one `#[test]`: the counting
//! `#[global_allocator]` sees every thread of the process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use gcx_auth::AuthPolicy;
use gcx_cloud::{WebService, WireClient, WireClientConfig, WireServer};
use gcx_config::TransportSpec;
use gcx_core::clock::SystemClock;
use gcx_core::function::FunctionBody;
use gcx_core::task::TaskSpec;
use gcx_core::value::Value;

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

/// Heap allocations the wire may add per submitted task, client and server
/// together, over what the service does with the batch anyway. Today: one —
/// the server gives each small payload its own allocation rather than pin
/// the receive buffer (`wire::batch`); everything else is per batch.
const WIRE_ALLOCS_PER_TASK: f64 = 2.0;

#[test]
fn wire_submit_allocates_a_small_constant_per_task() {
    const BATCHES: usize = 16;
    const BATCH: usize = 128;
    let svc = WebService::with_defaults(SystemClock::shared());
    let (_, token) = svc.auth().login("alloc@test.org").unwrap();
    let fid = svc
        .register_function(&token, FunctionBody::pyfn("def f(x):\n    return x\n"))
        .unwrap();
    let reg = svc
        .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
        .unwrap();
    let server = WireServer::inmem(&svc, TransportSpec::default());
    let client = WireClient::over(
        server.connect_inmem(),
        &token.0,
        WireClientConfig::default(),
    )
    .unwrap();
    let mut seq = 0i64;
    let mut batches = || -> Vec<Vec<TaskSpec>> {
        (0..BATCHES)
            .map(|_| {
                (0..BATCH)
                    .map(|_| {
                        seq += 1;
                        let mut spec = TaskSpec::new(fid, reg.endpoint_id);
                        spec.set_args(vec![Value::Int(seq)], Value::None);
                        spec
                    })
                    .collect()
            })
            .collect()
    };

    // Warm both paths (maps, queues, buffers reach their working size).
    for specs in batches() {
        client.submit_batch(&specs).unwrap();
        svc.submit_batch(&token, specs).unwrap();
    }

    let local_batches = batches();
    let local = allocations_in(|| {
        for specs in local_batches {
            svc.submit_batch(&token, specs).unwrap();
        }
    });
    let wire_batches = batches();
    let wire = allocations_in(|| {
        for specs in &wire_batches {
            client.submit_batch(specs).unwrap();
        }
    });

    let tasks = (BATCHES * BATCH) as f64;
    let per_task = (wire as f64 - local as f64) / tasks;
    println!(
        "allocations per task: in-process {:.2}, over the wire {:.2}, wire's share {per_task:.2}",
        local as f64 / tasks,
        wire as f64 / tasks,
    );
    assert!(
        per_task <= WIRE_ALLOCS_PER_TASK,
        "the wire adds {per_task:.2} heap allocations per submitted task \
         (bound {WIRE_ALLOCS_PER_TASK}): has a per-task tree crept back in?"
    );
    client.close();
    server.shutdown();
    svc.shutdown();
}
