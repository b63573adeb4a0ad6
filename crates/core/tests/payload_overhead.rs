//! Overhead guards for the zero-copy payload plane.
//!
//! A `Payload` is an encode-once artifact: after the single encode at the
//! submit edge, every layer moves it by reference. These tests pin the two
//! properties that make that true —
//!
//! 1. cloning and slicing payload bytes is refcount work, not heap work;
//! 2. pushing a payload through the binary task-message and result-envelope
//!    formats re-encodes nothing (the codec encode counter stands still).
//!
//! Lives in its own integration-test binary because it swaps in a counting
//! `#[global_allocator]`, which must not leak into other tests — and is one
//! `#[test]`, because the allocation and encode counters are process-wide:
//! a sibling test running on another thread would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use gcx_core::ids::{EndpointId, FunctionId, TaskId};
use gcx_core::payload::{self, Payload};
use gcx_core::task::{TaskResult, TaskSpec};
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

/// Count allocations performed by `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    f();
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

#[test]
fn payload_plane_overhead() {
    payload_clone_and_slice_are_allocation_free();
    wire_roundtrip_performs_zero_reencodes();
    ref_message_carries_no_payload_bytes();
}

fn payload_clone_and_slice_are_allocation_free() {
    let payload = Payload::encode_args(&[Value::Bytes(vec![7u8; 4096])], &Value::None);
    let allocs = allocations_in(|| {
        for _ in 0..1000 {
            let a = payload.clone();
            let b = a.bytes().slice(8..1032);
            assert_eq!(b.len(), 1024);
            assert_eq!(a.hash(), payload.hash());
        }
    });
    assert_eq!(
        allocs, 0,
        "cloning/slicing a payload must be refcount work only"
    );
}

fn wire_roundtrip_performs_zero_reencodes() {
    let mut spec = TaskSpec::new(FunctionId::random(), EndpointId::random());
    spec.set_args(vec![Value::Bytes(vec![3u8; 4096])], Value::None);
    let result = TaskResult::ok(Value::Bytes(vec![9u8; 2048]));
    let task_id = TaskId::random();

    let encodes_before = payload::encode_count();
    for _ in 0..100 {
        // Task leg: spec → mq message body → spec at the endpoint session.
        let body = spec.to_message(true);
        let (back, is_ref) = TaskSpec::from_message(&body).unwrap();
        assert!(!is_ref);
        assert_eq!(back.payload, spec.payload);

        // Result leg: result → envelope → result at the processor and SDK.
        let envelope = result.to_envelope(task_id, Some(42));
        let (id, back, sent) = TaskResult::from_envelope(&envelope).unwrap();
        assert_eq!(id, task_id);
        assert_eq!(back, result);
        assert_eq!(sent, Some(42));
    }
    assert_eq!(
        payload::encode_count() - encodes_before,
        0,
        "framing and unframing payloads must never re-encode them"
    );
}

fn ref_message_carries_no_payload_bytes() {
    let mut spec = TaskSpec::new(FunctionId::random(), EndpointId::random());
    spec.set_args(vec![Value::Bytes(vec![5u8; 256 * 1024])], Value::None);
    let inline = spec.to_message(true);
    let by_ref = spec.to_message(false);
    assert!(
        by_ref.len() < 256,
        "a CAS reference is hash+len, not the body: {} bytes",
        by_ref.len()
    );
    assert!(inline.len() > 256 * 1024);
    let (back, is_ref) = TaskSpec::from_message(&by_ref).unwrap();
    assert!(is_ref);
    assert_eq!(back.payload.hash(), spec.payload.hash());
    assert!(back.payload.is_empty(), "ref payload carries no bytes");
}
