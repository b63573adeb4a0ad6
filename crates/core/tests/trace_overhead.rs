//! Overhead guard: a disabled or sampled-out span path must cost no heap
//! allocation and write no log entry — untraced tasks pay a branch, not a
//! malloc — and neither does a traced task once its thread's ring has
//! grown: a write is an append of one fixed-size entry, and only an
//! annotation owns heap memory.
//!
//! Lives in its own integration-test binary because it swaps in a counting
//! `#[global_allocator]`, and is ONE `#[test]`: the counter is process-wide,
//! so two tests running on parallel threads would count each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use gcx_core::clock::{SharedClock, VirtualClock};
use gcx_core::trace::{SpanId, TraceConfig, TraceContext, TraceId, Tracer};

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

/// Count allocations performed by `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    f();
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

#[test]
fn tracer_allocation_budget() {
    disabled_tracer_path_is_allocation_free();
    sampled_out_path_is_allocation_free_and_builds_no_entry();
    wire_context_codec_is_allocation_free();
    enabled_path_is_allocation_free_on_a_warm_ring();
}

fn disabled_tracer_path_is_allocation_free() {
    let tracer = Tracer::disabled();
    // A context as it would arrive over the wire on a traced task whose
    // receiving component has tracing off.
    let ctx = TraceContext {
        trace_id: TraceId::random(),
        parent: SpanId::random(),
    };

    let allocs = allocations_in(|| {
        for _ in 0..1000 {
            assert!(tracer.start_trace("task").is_none());
            tracer.adopt_trace_with_span(&ctx, "task", "submit", 0, 1);
            tracer.record_span(Some(&ctx), "queue", 0, 5);
            tracer.record_span(Some(&ctx), "submit", 0, 5);
            tracer.record_span_annotated(Some(&ctx), "retry", 0, 0, || {
                vec![format!("attempt={}", 1)]
            });
            let span = tracer.record_span_annotated(Some(&ctx), "worker", 0, 1, Vec::new);
            assert!(span.is_none());
            tracer.annotate(Some(&ctx), || "never rendered".repeat(8));
            tracer.end_trace_with_span(Some(&ctx), "result", 0, 5);
        }
    });
    assert_eq!(allocs, 0, "disabled tracer must never allocate");
    assert_eq!(tracer.trace_count(), 0);
}

fn sampled_out_path_is_allocation_free_and_builds_no_entry() {
    let clock: SharedClock = VirtualClock::new();
    let tracer = Tracer::new(
        clock,
        TraceConfig {
            sample_every: 0, // sample nothing
            ..TraceConfig::default()
        },
    );

    let allocs = allocations_in(|| {
        for _ in 0..1000 {
            // The sampler hands out no context...
            let ctx = tracer.start_trace("task");
            assert!(ctx.is_none());
            // ...so the whole downstream path no-ops on `None`.
            tracer.record_span(ctx.as_ref(), "submit", 0, 1);
            tracer.record_span(ctx.as_ref(), "worker", 0, 1);
            tracer.annotate(ctx.as_ref(), || "never rendered".to_string());
            tracer.end_trace_with_span(ctx.as_ref(), "result", 0, 1);
        }
    });
    assert_eq!(allocs, 0, "sampled-out submissions must never allocate");
    assert_eq!(tracer.trace_count(), 0, "no trace opened");
}

fn wire_context_codec_is_allocation_free() {
    // The 25-byte trace context rides every traced task message and pushed
    // result entry; encoding it into a body buffer and decoding it back must
    // be pure byte work. An untraced entry (`None` context) writes no
    // context at all, so the sampled-out and tracing-disabled wire paths
    // stay zero-alloc too.
    let ctx = TraceContext {
        trace_id: TraceId::random(),
        parent: SpanId::random(),
    };
    // Pre-sized the way `encode_frame` sizes its body buffer up front.
    let mut buf: Vec<u8> = Vec::with_capacity(64);
    let allocs = allocations_in(|| {
        for _ in 0..1000 {
            buf.clear();
            gcx_core::wire::encode_trace_ctx(&ctx, &mut buf);
            let back = gcx_core::wire::decode_trace_ctx(&buf).unwrap();
            assert_eq!(back, Some(ctx));
            // The context-absent decode (unsampled flag byte) is free too.
            buf[gcx_core::wire::TRACE_CTX_LEN - 1] = 0;
            assert_eq!(gcx_core::wire::decode_trace_ctx(&buf).unwrap(), None);
        }
    });
    assert_eq!(allocs, 0, "wire trace-context codec must never allocate");
}

fn enabled_path_is_allocation_free_on_a_warm_ring() {
    const TRACES: u64 = 1000;
    const LEGS: [&str; 5] = ["submit", "queue", "dispatch", "execute", "result"];
    let clock = VirtualClock::new();
    let tracer = Tracer::new(clock.clone(), TraceConfig::default());
    let lifecycles = |n: u64| {
        for _ in 0..n {
            let ctx = tracer.start_trace("task");
            let (closing, legs) = LEGS.split_last().unwrap();
            for leg in legs {
                tracer.record_span(ctx.as_ref(), leg, 0, 1);
            }
            tracer.end_trace_with_span(ctx.as_ref(), closing, 0, 1);
        }
    };

    // A cold ring grows by doubling towards its bound: a handful of
    // allocations for the whole run, none of them per trace.
    let allocs = allocations_in(|| lifecycles(TRACES));
    assert_eq!(tracer.trace_count(), TRACES as usize, "it does record");
    assert!(allocs <= 32, "{allocs} allocations while the ring grew");
    // Fill the ring (2 × 4 096 entries, 6 a lifecycle here): from then on
    // every write overwrites in place.
    lifecycles(2 * TRACES);
    let allocs = allocations_in(|| lifecycles(TRACES));
    assert_eq!(allocs, 0, "{TRACES} traced lifecycles on a warm ring");

    // However a span is recorded: here the four wire legs and the closing
    // leg on top of the four above, adoption of a held context included. (The ring has
    // wrapped: a trace must open after what was overwritten to be read.)
    clock.advance(1);
    let ctx = tracer.start_trace("task").unwrap();
    for leg in &LEGS[..4] {
        tracer.record_span(Some(&ctx), leg, 0, 1);
    }
    let allocs = allocations_in(|| {
        tracer.adopt_trace_with_span(&ctx, "task", "submit", 0, 1);
        tracer.record_span(Some(&ctx), "wire.decode", 0, 1);
        tracer.record_span(Some(&ctx), "wire.queue", 0, 1);
        tracer.record_span(Some(&ctx), "wire.send", 0, 1);
        tracer.record_span(Some(&ctx), "wire.await", 0, 1);
        tracer.end_trace_with_span(Some(&ctx), "result", 0, 1);
    });
    assert_eq!(allocs, 0, "no write allocates");
    let td = tracer.trace(ctx.trace_id).unwrap();
    assert_eq!(td.spans.len(), 10);
    assert_eq!(tracer.spans_overflowed(), 0);
}
