//! Property-based tests dedicated to the wire codec: deep `Value` trees,
//! the `MAX_DEPTH` rejection boundary, and exact size prediction — plus
//! the frame layer on top (`gcx_core::wire`): length-prefixed framing must
//! survive arbitrary read-boundary splits, and truncation, oversized
//! length prefixes, garbage type tags, and byte corruption must all land
//! as typed errors, never a panic or a hang. The packed per-task bodies
//! (`gcx_core::wire::batch`: submit specs, id lists, batched pushes) get the
//! same treatment inside their frames.
//!
//! `prop_core.rs` keeps a shallow smoke round-trip; this suite generates
//! deeper and wider trees and pins the decoder's nesting limit exactly.

use bytes::Bytes;
use gcx_core::codec::{decode, encode, encoded_size};
use gcx_core::error::GcxError;
use gcx_core::ids::{EndpointId, FunctionId, TaskId, Uuid};
use gcx_core::payload::{ContentHash, Payload};
use gcx_core::task::{TaskResult, TaskSpec};
use gcx_core::trace::{SpanId, TraceContext, TraceId};
use gcx_core::value::Value;
use gcx_core::wire::batch::{self, PushBatch};
use gcx_core::wire::{
    encode_frame, error_from_value, error_to_value, Frame, FrameReader, FrameType, FRAME_HEADER,
    TRACE_CTX_LEN,
};
use proptest::prelude::*;

/// The decoder's nesting limit (private `MAX_DEPTH` in `codec.rs`); the
/// boundary test below fails if the two ever drift apart.
const MAX_DEPTH: usize = 64;

/// Arbitrary `Value` leaves, covering every scalar variant and the integer
/// extremes where zigzag/varint encoding is most likely to go wrong.
fn leaf_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::None),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        prop_oneof![
            Just(i64::MIN),
            Just(i64::MAX),
            Just(-1i64),
            Just(0i64),
            Just(1i64)
        ]
        .prop_map(Value::Int),
        // Finite floats only: NaN breaks PartialEq-based roundtrip checks.
        prop::num::f64::NORMAL.prop_map(Value::Float),
        prop_oneof![Just(f64::INFINITY), Just(f64::NEG_INFINITY), Just(0.0f64)]
            .prop_map(Value::Float),
        // Multi-byte UTF-8 included: string lengths are byte lengths.
        prop::collection::vec(
            prop_oneof![any::<char>(), Just('√'), Just('縦'), Just('😀'), Just('\0')],
            0..24,
        )
        .prop_map(|cs| Value::Str(cs.into_iter().collect())),
        prop::collection::vec(any::<u8>(), 0..128).prop_map(Value::Bytes),
    ]
}

/// Trees up to 8 levels deep and ~128 nodes wide.
fn tree_strategy() -> impl Strategy<Value = Value> {
    leaf_strategy().prop_recursive(8, 128, 10, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..10).prop_map(Value::List),
            prop::collection::btree_map("[a-zA-Z0-9_.]{0,12}", inner, 0..10).prop_map(Value::Map),
        ]
    })
}

/// `depth` lists wrapped around a scalar: the innermost value decodes at
/// recursion depth `depth`.
fn nested_lists(depth: usize) -> Value {
    let mut v = Value::Int(7);
    for _ in 0..depth {
        v = Value::List(vec![v]);
    }
    v
}

proptest! {
    /// Every tree round-trips unchanged, and `encoded_size` predicts the
    /// encoder's output length exactly — both on the same generated input,
    /// so a mismatch pinpoints the failing tree.
    #[test]
    fn deep_tree_roundtrip_with_exact_size(v in tree_strategy()) {
        let bytes = encode(&v);
        prop_assert_eq!(bytes.len(), encoded_size(&v), "encoded_size must be exact");
        let back = decode(&bytes).unwrap();
        prop_assert_eq!(&v, &back);
    }

    /// The nesting limit is a hard boundary: values at or below `MAX_DEPTH`
    /// decode, values beyond it are rejected (never a panic or a hang).
    #[test]
    fn nesting_limit_is_exact(depth in 0usize..=(MAX_DEPTH + 16)) {
        let v = nested_lists(depth);
        let bytes = encode(&v);
        match decode(&bytes) {
            Ok(back) => {
                prop_assert!(depth <= MAX_DEPTH, "depth {depth} must be rejected");
                prop_assert_eq!(v, back);
            }
            Err(_) => prop_assert!(depth > MAX_DEPTH, "depth {depth} must be accepted"),
        }
    }

    /// Maps round-trip regardless of construction order (BTreeMap keeps the
    /// wire form canonical), and the re-encode of a decode is bit-identical.
    #[test]
    fn reencode_is_bit_identical(v in tree_strategy()) {
        let bytes = encode(&v);
        let back = decode(&bytes).unwrap();
        prop_assert_eq!(encode(&back), bytes);
    }

    /// Flipping any single byte of a valid encoding never panics the
    /// decoder: it either errors or yields some (different or equal) value.
    #[test]
    fn corrupted_payloads_never_panic(v in tree_strategy(), pos in any::<usize>(), x in any::<u8>()) {
        let mut bytes = encode(&v).to_vec();
        let i = pos % bytes.len(); // always ≥ 1 byte: the version prefix
        bytes[i] ^= x;
        let _ = decode(&bytes);
    }
}

// ---------------------------------------------------------------------------
// Wire-frame properties: the length-prefixed framing layer over the codec.
// ---------------------------------------------------------------------------

/// Small enough that an oversized-prefix case is easy to construct, large
/// enough that no generated tree ever trips it legitimately.
const TEST_MAX_FRAME: usize = 1 << 20;

fn frame_type_strategy() -> impl Strategy<Value = FrameType> {
    prop_oneof![
        Just(FrameType::Hello),
        Just(FrameType::HelloAck),
        Just(FrameType::Request),
        Just(FrameType::Response),
        Just(FrameType::Push),
        Just(FrameType::Heartbeat),
        Just(FrameType::HeartbeatAck),
        Just(FrameType::Goodbye),
        Just(FrameType::Health),
        Just(FrameType::Confirm),
    ]
}

/// Arbitrary trace contexts (span ids are never zero on the wire — zero is
/// the "absent" sentinel the decoder maps to `None`).
fn trace_ctx_strategy() -> impl Strategy<Value = TraceContext> {
    (any::<u64>(), any::<u64>(), 1u64..=u64::MAX).prop_map(|(hi, lo, s)| TraceContext {
        trace_id: TraceId(Uuid(((hi as u128) << 64) | lo as u128)),
        parent: SpanId(s),
    })
}

/// Frames with and without a trace-context segment, so every stream-level
/// property (split survival, truncation patience, corruption safety) also
/// covers the trace-flagged wire form — including round-trip identity of
/// the context itself.
fn frame_strategy() -> impl Strategy<Value = Frame> {
    (
        frame_type_strategy(),
        any::<u64>(),
        tree_strategy(),
        prop::option::of(trace_ctx_strategy()),
    )
        .prop_map(|(t, corr, payload, trace)| Frame::new(t, corr, payload).with_trace(trace))
}

/// A representative sample of typed errors that must survive the wire —
/// including the redirect/backoff variants whose *fields* steer clients.
fn wire_error_strategy() -> impl Strategy<Value = GcxError> {
    prop_oneof![
        any::<u32>().prop_map(|owner| GcxError::NotOwner { owner }),
        any::<u32>().prop_map(GcxError::ReplicaUnavailable),
        (0u64..=u32::MAX as u64).prop_map(|retry_after_ms| GcxError::Overloaded { retry_after_ms }),
        "[ -~]{0,40}".prop_map(GcxError::Transient),
        "[ -~]{0,40}".prop_map(GcxError::Unauthenticated),
        "[ -~]{0,40}".prop_map(GcxError::Timeout),
        "[ -~]{0,40}".prop_map(GcxError::Codec),
        "[ -~]{0,40}".prop_map(GcxError::InvalidConfig),
        // Sizes ride the codec's i64 ints; real ones are bounded by the
        // frame ceiling, so generate within u32 range rather than demand
        // the impossible from usize extremes.
        (0usize..=u32::MAX as usize, 0usize..=u32::MAX as usize)
            .prop_map(|(size, limit)| GcxError::PayloadTooLarge { size, limit }),
        (any::<u32>(), "[ -~]{0,40}")
            .prop_map(|(redirects, last)| GcxError::RedirectsExhausted { redirects, last }),
        Just(GcxError::ShuttingDown),
    ]
}

proptest! {
    /// Frames survive any split of the byte stream across reads: a sequence
    /// of frames fed one `chunk`-byte slice at a time comes out identical
    /// and in order, with nothing left buffered. `chunk = 1` is the
    /// pathological byte-at-a-time transport.
    #[test]
    fn frames_survive_arbitrary_read_splits(
        frames in prop::collection::vec(frame_strategy(), 1..5),
        chunk in 1usize..48,
    ) {
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&encode_frame(f, TEST_MAX_FRAME).unwrap());
        }
        let mut reader = FrameReader::new(TEST_MAX_FRAME);
        let mut got = Vec::new();
        for piece in stream.chunks(chunk) {
            reader.feed(piece);
            while let Some(f) = reader.next_frame().unwrap() {
                got.push(f);
            }
        }
        prop_assert_eq!(&got, &frames);
        prop_assert_eq!(reader.buffered(), 0);
        prop_assert!(reader.next_frame().unwrap().is_none());
    }

    /// A truncated frame is "not yet", never an error: any strict prefix
    /// yields `Ok(None)` forever, and feeding the missing tail completes
    /// the frame intact.
    #[test]
    fn truncated_frames_wait_without_erroring(f in frame_strategy(), cut in any::<usize>()) {
        let bytes = encode_frame(&f, TEST_MAX_FRAME).unwrap();
        let cut = cut % bytes.len(); // 0..len: always a strict prefix
        let mut reader = FrameReader::new(TEST_MAX_FRAME);
        reader.feed(&bytes[..cut]);
        prop_assert!(reader.next_frame().unwrap().is_none());
        prop_assert!(reader.next_frame().unwrap().is_none());
        reader.feed(&bytes[cut..]);
        prop_assert_eq!(reader.next_frame().unwrap(), Some(f));
    }

    /// A length prefix beyond the frame ceiling is a typed error that
    /// permanently poisons the reader — after a framing violation the byte
    /// boundary is unknowable, so even a subsequently-fed valid frame must
    /// keep erroring rather than resynchronize on garbage.
    #[test]
    fn oversized_length_prefix_poisons_typed(
        excess in 1u64..=(u32::MAX as u64 - TEST_MAX_FRAME as u64),
        f in frame_strategy(),
    ) {
        let body_len = (TEST_MAX_FRAME as u64 + excess) as u32;
        let mut reader = FrameReader::new(TEST_MAX_FRAME);
        reader.feed(&body_len.to_be_bytes());
        prop_assert!(matches!(reader.next_frame(), Err(GcxError::Codec(_))));
        reader.feed(&encode_frame(&f, TEST_MAX_FRAME).unwrap());
        prop_assert!(matches!(reader.next_frame(), Err(GcxError::Codec(_))));
    }

    /// A length prefix too small to hold even the frame header is equally
    /// a typed poisoning error, not a hang waiting for negative bytes.
    #[test]
    fn undersized_length_prefix_is_rejected(body_len in 0u32..(FRAME_HEADER as u32)) {
        let mut reader = FrameReader::new(TEST_MAX_FRAME);
        reader.feed(&body_len.to_be_bytes());
        reader.feed(&[0u8; FRAME_HEADER]);
        prop_assert!(matches!(reader.next_frame(), Err(GcxError::Codec(_))));
    }

    /// Garbage type tags — anything whose assigned-tag bits (the low 7,
    /// since the high bit is the trace flag) fall outside 1..=10 — are a
    /// typed error even when length and payload are perfectly valid.
    #[test]
    fn garbage_type_tags_are_typed_errors(f in frame_strategy(), raw in any::<u8>()) {
        // Shift assigned tag bits (1..=10) into the unassigned 11..=20 band,
        // preserving the trace-flag bit; everything else passes through.
        let tag = if (1..=10).contains(&(raw & 0x7F)) { raw + 10 } else { raw };
        let mut bytes = encode_frame(&f, TEST_MAX_FRAME).unwrap();
        bytes[4] = tag; // the type tag sits right after the u32 prefix
        let mut reader = FrameReader::new(TEST_MAX_FRAME);
        reader.feed(&bytes);
        prop_assert!(matches!(reader.next_frame(), Err(GcxError::Codec(_))));
    }

    /// A trace-flagged frame whose body is too short to hold the 25-byte
    /// context segment is a typed error — but NOT a poisoning one: the
    /// length prefix was honored, so the reader consumes the bad frame and
    /// the next valid frame (traced or not) parses intact.
    #[test]
    fn truncated_trace_segments_error_without_poisoning(
        corr in any::<u64>(),
        ctx in trace_ctx_strategy(),
        keep in FRAME_HEADER..(FRAME_HEADER + TRACE_CTX_LEN),
        next in frame_strategy(),
    ) {
        let traced = Frame::new(FrameType::Request, corr, Value::None).with_trace(Some(ctx));
        let full = encode_frame(&traced, TEST_MAX_FRAME).unwrap();
        // Re-frame a strict prefix of the body under a truthful length.
        let mut bytes = (keep as u32).to_be_bytes().to_vec();
        bytes.extend_from_slice(&full[4..4 + keep]);
        let mut reader = FrameReader::new(TEST_MAX_FRAME);
        reader.feed(&bytes);
        prop_assert!(matches!(reader.next_frame(), Err(GcxError::Codec(_))));
        reader.feed(&encode_frame(&next, TEST_MAX_FRAME).unwrap());
        prop_assert_eq!(reader.next_frame().unwrap(), Some(next));
        prop_assert_eq!(reader.buffered(), 0);
    }

    /// Flipping any byte inside the trace-context segment never panics and
    /// never poisons the stream: the frame still decodes — with an absent
    /// or merely different context — and the following frame is untouched.
    #[test]
    fn corrupted_trace_segments_never_poison_a_valid_stream(
        corr in any::<u64>(),
        ctx in trace_ctx_strategy(),
        pos in 0usize..TRACE_CTX_LEN,
        x in 1u8..=255,
        next in frame_strategy(),
    ) {
        let traced = Frame::new(FrameType::Push, corr, Value::None).with_trace(Some(ctx));
        let mut bytes = encode_frame(&traced, TEST_MAX_FRAME).unwrap();
        // The segment sits after the u32 prefix and the 9-byte header.
        bytes[4 + FRAME_HEADER + pos] ^= x;
        let mut reader = FrameReader::new(TEST_MAX_FRAME);
        reader.feed(&bytes);
        let got = reader.next_frame().unwrap().expect("frame must decode");
        prop_assert_eq!(got.frame_type, FrameType::Push);
        prop_assert_eq!(got.corr_id, corr);
        reader.feed(&encode_frame(&next, TEST_MAX_FRAME).unwrap());
        prop_assert_eq!(reader.next_frame().unwrap(), Some(next));
    }

    /// Flipping any byte of a framed stream never panics or hangs the
    /// reader: every outcome is a frame, a typed error, or "need more
    /// bytes" — and the loop provably terminates.
    #[test]
    fn corrupted_frame_streams_never_panic(
        frames in prop::collection::vec(frame_strategy(), 1..4),
        pos in any::<usize>(),
        x in 1u8..=255,
    ) {
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&encode_frame(f, TEST_MAX_FRAME).unwrap());
        }
        let i = pos % stream.len();
        stream[i] ^= x;
        let mut reader = FrameReader::new(TEST_MAX_FRAME);
        reader.feed(&stream);
        // Each iteration consumes a frame or terminates; the stream holds
        // at most `frames.len()` of them, so this is a bounded loop.
        for _ in 0..=frames.len() {
            match reader.next_frame() {
                Ok(Some(_)) => continue,
                Ok(None) | Err(_) => break,
            }
        }
    }

    /// Typed errors round-trip through their wire form with the
    /// discriminating fields intact — `NotOwner { owner }` must come back
    /// pointing at the same replica or redirects break silently.
    #[test]
    fn typed_errors_roundtrip_the_wire(err in wire_error_strategy()) {
        let back = error_from_value(&error_to_value(&err));
        prop_assert_eq!(format!("{err}"), format!("{back}"));
        prop_assert_eq!(
            std::mem::discriminant(&err),
            std::mem::discriminant(&back)
        );
    }
}

// ---------------------------------------------------------------------------
// Packed per-task bodies: submit specs, id lists and batched pushes.
// ---------------------------------------------------------------------------

fn uuid_strategy() -> impl Strategy<Value = Uuid> {
    (any::<u64>(), any::<u64>()).prop_map(|(hi, lo)| Uuid(((hi as u128) << 64) | lo as u128))
}

/// Specs covering every optional section of the flat message form, with
/// payloads on both sides of the ingress copy threshold.
fn spec_strategy() -> impl Strategy<Value = TaskSpec> {
    (
        (uuid_strategy(), uuid_strategy(), uuid_strategy()),
        prop_oneof![
            prop::collection::vec(any::<u8>(), 0..64),
            prop::collection::vec(any::<u8>(), 1000..1100),
        ],
        prop::option::of(trace_ctx_strategy()),
        prop::option::of(any::<u64>()),
        any::<i64>(),
        prop_oneof![Just(Value::None), leaf_strategy()],
    )
        .prop_map(|((t, f, e), payload, trace, deadline_ms, priority, uec)| {
            let mut spec = TaskSpec::new(FunctionId(f), EndpointId(e));
            spec.task_id = TaskId(t);
            spec.payload = Payload::from_vec(payload);
            spec.trace = trace;
            spec.deadline_ms = deadline_ms;
            spec.priority = priority;
            spec.user_endpoint_config = uec;
            spec
        })
}

fn result_strategy() -> impl Strategy<Value = TaskResult> {
    prop_oneof![
        prop::collection::vec(any::<u8>(), 0..200)
            .prop_map(|b| TaskResult::Ok(Payload::from_vec(b))),
        "[ -~]{0,60}".prop_map(TaskResult::Err),
    ]
}

/// One pushed result as the server writes it: trace context, task id, result.
type PushEntry = (Option<TraceContext>, Uuid, TaskResult);

fn push_entries_strategy() -> impl Strategy<Value = Vec<PushEntry>> {
    prop::collection::vec(
        (
            prop::option::of(trace_ctx_strategy()),
            uuid_strategy(),
            result_strategy(),
        ),
        1..12,
    )
}

fn push_body(entries: &[PushEntry]) -> Vec<u8> {
    let mut body = Vec::new();
    for (trace, id, result) in entries {
        batch::write_push_entry(
            &mut body,
            trace.as_ref(),
            &result.to_envelope(TaskId(*id), None),
        );
    }
    body
}

/// Feed `bytes` in `chunk`-sized reads; exactly one frame must pop, and not
/// before the last read (a truncated frame waits, it does not error).
fn read_one_frame_in_chunks(bytes: &[u8], chunk: usize) -> Frame {
    let mut reader = FrameReader::new(TEST_MAX_FRAME);
    let pieces: Vec<&[u8]> = bytes.chunks(chunk).collect();
    for piece in &pieces[..pieces.len() - 1] {
        reader.feed(piece);
        assert!(reader.next_frame().unwrap().is_none(), "frame popped early");
    }
    reader.feed(pieces[pieces.len() - 1]);
    let frame = reader
        .next_frame()
        .unwrap()
        .expect("complete frame decodes");
    assert_eq!(reader.buffered(), 0);
    frame
}

fn bytes_of(v: Option<&Value>) -> Bytes {
    match v {
        Some(Value::Bytes(b)) => Bytes::from(b.clone()),
        other => panic!("expected a bytes body, got {other:?}"),
    }
}

proptest! {
    /// A packed submit request and its packed id response survive the frame
    /// layer under any read split, and unpack to the specs that were packed.
    #[test]
    fn packed_submit_bodies_roundtrip_under_read_splits(
        specs in prop::collection::vec(spec_strategy(), 0..6),
        corr in any::<u64>(),
        chunk in 1usize..64,
    ) {
        let request = Frame::request(
            corr,
            "submit_batch",
            Value::Bytes(batch::pack_specs(&specs).unwrap()),
        );
        let got = read_one_frame_in_chunks(&encode_frame(&request, TEST_MAX_FRAME).unwrap(), chunk);
        let back = batch::unpack_specs(&bytes_of(got.payload.get("params"))).unwrap();
        prop_assert_eq!(&back, &specs);

        let ids: Vec<TaskId> = specs.iter().map(|s| s.task_id).collect();
        let response = Frame::response_ok(corr, Value::Bytes(batch::pack_ids(&ids)));
        let got = read_one_frame_in_chunks(&encode_frame(&response, TEST_MAX_FRAME).unwrap(), chunk);
        prop_assert_eq!(batch::unpack_ids(&bytes_of(got.payload.get("ok"))).unwrap(), ids);
    }

    /// A batched push survives the frame layer under any read split; every
    /// entry comes back with its own trace context and its result intact.
    #[test]
    fn batched_push_bodies_roundtrip_under_read_splits(
        entries in push_entries_strategy(),
        corr in any::<u64>(),
        chunk in 1usize..64,
    ) {
        let push = Frame::new(FrameType::Push, corr, Value::Bytes(push_body(&entries)));
        let got = read_one_frame_in_chunks(&encode_frame(&push, TEST_MAX_FRAME).unwrap(), chunk);
        let mut batch = PushBatch::new(bytes_of(Some(&got.payload)));
        for (trace, id, result) in &entries {
            let (got_trace, envelope) = batch.next_entry().unwrap().expect("entry present");
            prop_assert_eq!(&got_trace, trace);
            let (got_id, got_result, sent_ms) = TaskResult::from_envelope(&envelope).unwrap();
            prop_assert_eq!(got_id, TaskId(*id));
            prop_assert_eq!(&got_result, result);
            prop_assert_eq!(sent_ms, None);
        }
        prop_assert!(batch.next_entry().unwrap().is_none());
    }

    /// A byte flipped anywhere in a packed submit body never panics the
    /// ingress decoder, and whatever it still accepts is self-consistent:
    /// no spec comes out carrying a hash its bytes do not have.
    #[test]
    fn corrupted_submit_bodies_are_typed_and_never_forge_a_hash(
        specs in prop::collection::vec(spec_strategy(), 1..5),
        pos in any::<usize>(),
        x in 1u8..=255,
    ) {
        let mut body = batch::pack_specs(&specs).unwrap();
        let i = pos % body.len();
        body[i] ^= x;
        match batch::unpack_specs(&Bytes::from(body)) {
            Ok(back) => {
                for spec in &back {
                    prop_assert_eq!(ContentHash::of(spec.payload.as_slice()), spec.payload.hash());
                }
            }
            Err(e) => prop_assert!(matches!(e, GcxError::Codec(_)), "untyped: {e:?}"),
        }
    }

    /// Arbitrary bytes in place of a packed body: typed errors, no panics,
    /// and a push batch always terminates.
    #[test]
    fn garbage_bodies_are_typed_errors(garbage in prop::collection::vec(any::<u8>(), 0..300)) {
        let body = Bytes::from(garbage);
        if let Err(e) = batch::unpack_specs(&body) {
            prop_assert!(matches!(e, GcxError::Codec(_)), "untyped: {e:?}");
        }
        if let Err(e) = batch::unpack_ids(&body) {
            prop_assert!(matches!(e, GcxError::Codec(_)), "untyped: {e:?}");
        }
        let mut batch = PushBatch::new(body.clone());
        // Every entry consumes at least two bytes; an error ends the batch.
        for _ in 0..=body.len() {
            match batch.next_entry() {
                Ok(Some((_, envelope))) => { let _ = TaskResult::from_envelope(&envelope); }
                Ok(None) => break,
                Err(e) => prop_assert!(matches!(e, GcxError::Codec(_)), "untyped: {e:?}"),
            }
        }
        prop_assert!(batch.next_entry().unwrap().is_none());
    }

    /// A byte flipped anywhere in a push body never panics the client-side
    /// decode, and the walk over the batch terminates.
    #[test]
    fn corrupted_push_bodies_never_panic(
        entries in push_entries_strategy(),
        pos in any::<usize>(),
        x in 1u8..=255,
    ) {
        let mut body = push_body(&entries);
        let i = pos % body.len();
        body[i] ^= x;
        let len = body.len();
        let mut batch = PushBatch::new(Bytes::from(body));
        for _ in 0..=len {
            match batch.next_entry() {
                Ok(Some((_, envelope))) => { let _ = TaskResult::from_envelope(&envelope); }
                Ok(None) => break,
                Err(e) => prop_assert!(matches!(e, GcxError::Codec(_)), "untyped: {e:?}"),
            }
        }
    }

    /// A push entry whose trace segment is cut short is a defect of that one
    /// frame's payload: the frame itself decodes, the batch reports a typed
    /// error, and the stream is not poisoned — the next frame parses intact.
    #[test]
    fn short_push_entry_trace_segment_does_not_poison_the_stream(
        entries in push_entries_strategy(),
        ctx in trace_ctx_strategy(),
        keep in 0usize..TRACE_CTX_LEN,
        next in frame_strategy(),
    ) {
        let mut body = push_body(&entries);
        let mut cut = Vec::new();
        batch::write_push_entry(&mut cut, Some(&ctx), b"unreachable envelope");
        body.extend_from_slice(&cut[..1 + keep]);
        let push = Frame::new(FrameType::Push, 1, Value::Bytes(body));
        let mut reader = FrameReader::new(TEST_MAX_FRAME);
        reader.feed(&encode_frame(&push, TEST_MAX_FRAME).unwrap());
        let got = reader.next_frame().unwrap().expect("the frame is well-formed");
        let mut batch = PushBatch::new(bytes_of(Some(&got.payload)));
        for _ in &entries {
            prop_assert!(batch.next_entry().unwrap().is_some());
        }
        prop_assert!(matches!(batch.next_entry(), Err(GcxError::Codec(_))));
        prop_assert!(batch.next_entry().unwrap().is_none());
        reader.feed(&encode_frame(&next, TEST_MAX_FRAME).unwrap());
        prop_assert_eq!(reader.next_frame().unwrap(), Some(next));
    }
}
