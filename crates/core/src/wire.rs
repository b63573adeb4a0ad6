//! The wire layer: length-prefixed binary framing of the [`crate::codec`]
//! envelope plus the [`Transport`] abstraction it travels over.
//!
//! Until this module existed the "service boundary" was a struct call: the
//! SDK held an `Arc` to the cloud and every byte-count was an accounting
//! fiction. A frame here is a real byte sequence:
//!
//! ```text
//! +----------------+-----------+------------------+------------------+
//! | u32 BE length  | u8 type   | u64 BE corr id   | payload bytes    |
//! | (type..payload)| tag       | (multiplex key)  | (codec-encoded)  |
//! +----------------+-----------+------------------+------------------+
//! ```
//!
//! The length prefix counts everything after itself (tag + correlation id +
//! payload), so a reader needs exactly `4 + length` bytes to own a frame.
//! The correlation id lets many in-flight requests share one connection:
//! responses and server-push frames carry the id of the request (or
//! subscription) they answer. The payload is a [`Value`] encoded with the
//! existing codec — the wire layer adds framing, never a second
//! serialization format.
//!
//! Trace contexts ride inside the per-task bodies, never in the frame: each
//! packed spec carries its own, and so does each pushed result entry
//! ([`encode_trace_ctx`] / [`decode_trace_ctx`]).
//!
//! Two [`Transport`] implementations exist: [`TcpTransport`] over a real
//! `std::net::TcpStream` (localhost benchmarking with true OS-process
//! clients) and [`InMemTransport`], a byte-honest in-memory duplex pipe
//! (frames are fully serialized into the pipe and re-parsed on the far
//! side) so single-process tests exercise the identical encode/decode path.
//!
//! Two bodies are flat bytes rather than `Value` trees, because they carry
//! one entry per task: the `submit_batch` request/response and the result
//! `Push` (see [`batch`]). Both still travel as a codec `Value::Bytes`
//! inside the frame layout above.
//!
//! Decoding is exhaustively defensive: truncated frames, oversized length
//! prefixes, garbage type tags, and arbitrary payload corruption must all
//! surface as typed [`GcxError`]s — never a panic, never an unbounded
//! buffer, never a hang (see `prop_codec.rs`).

pub mod batch;

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::codec;
use crate::error::{GcxError, GcxResult};
use crate::ids::{EndpointId, FunctionId, TaskId, Uuid};
use crate::trace::{SpanId, TraceContext, TraceId};
use crate::value::Value;

/// Version carried in the `Hello` frame; bumped on incompatible changes,
/// and a peer of any other version is refused at the handshake. Version 2
/// changed the bodies of `submit_batch` (request and response) and `Push` to
/// the packed forms in [`batch`]. Version 3 dropped the frame-level trace
/// segment, the capability lists, the `Health` frame (now a request method)
/// and the heartbeat answer, retiring tags 7 and 9.
pub const WIRE_VERSION: i64 = 3;

/// Default ceiling on a single frame's length field (16 MiB) — comfortably
/// above the service's 10 MB payload limit, small enough that a corrupt or
/// hostile length prefix cannot balloon the read buffer.
pub const DEFAULT_MAX_FRAME: usize = 16 * 1024 * 1024;

/// Bytes of frame header after the length prefix: 1 (type) + 8 (corr id).
pub const FRAME_HEADER: usize = 9;

/// Size of an encoded trace context: 16 (trace uuid, u128 BE) + 8 (span id,
/// u64 BE) + 1 (flags; bit 0 = sampled).
pub const TRACE_CTX_LEN: usize = 25;

/// Frame type tags. The numeric values are wire format — append, never
/// renumber, never reuse. Tags 7 (`HeartbeatAck`) and 9 (`Health`) were
/// retired in version 3 and decode as unknown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FrameType {
    /// Client → server connection opener: `{version, token, proto}`.
    Hello = 1,
    /// Server → client handshake acceptance: `{version, replica, session}`.
    HelloAck = 2,
    /// Client → server method call: `{method, params}`.
    Request = 3,
    /// Server → client answer to the `Request` with the same corr id:
    /// `{ok: value}` or `{err: {...}}` (see [`error_to_value`]).
    Response = 4,
    /// Server → client push on a subscription; corr id names the
    /// subscription's original `Request`.
    Push = 5,
    /// Client → server liveness beat for the server's idle reaper; nothing
    /// answers it.
    Heartbeat = 6,
    /// Orderly close: no further frames follow from the sender.
    Goodbye = 8,
    /// Client → server: the client holds these tasks' results, so a
    /// standalone service may forget them. The payload is the packed
    /// 16-byte task ids ([`batch::pack_ids`]); nothing answers it.
    Confirm = 10,
}

impl FrameType {
    /// Decode a wire tag; unknown tags are a typed codec error (frames from
    /// a future protocol version are rejected, not misparsed).
    pub(crate) fn from_tag(tag: u8) -> GcxResult<Self> {
        Ok(match tag {
            1 => FrameType::Hello,
            2 => FrameType::HelloAck,
            3 => FrameType::Request,
            4 => FrameType::Response,
            5 => FrameType::Push,
            6 => FrameType::Heartbeat,
            8 => FrameType::Goodbye,
            10 => FrameType::Confirm,
            other => return Err(GcxError::Codec(format!("unknown frame type tag {other}"))),
        })
    }
}

/// One framed message: a type tag, a correlation id, and a codec payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    pub frame_type: FrameType,
    pub corr_id: u64,
    pub payload: Value,
}

impl Frame {
    pub fn new(frame_type: FrameType, corr_id: u64, payload: Value) -> Self {
        Self {
            frame_type,
            corr_id,
            payload,
        }
    }

    /// The client's connection opener.
    pub fn hello(token: impl Into<String>) -> Self {
        Frame::new(
            FrameType::Hello,
            0,
            Value::map([
                ("version", Value::Int(WIRE_VERSION)),
                ("token", Value::str(token)),
                ("proto", Value::str("gcx-wire")),
            ]),
        )
    }

    /// A method call frame.
    pub fn request(corr_id: u64, method: &str, params: Value) -> Self {
        Frame::new(
            FrameType::Request,
            corr_id,
            Value::map([("method", Value::str(method)), ("params", params)]),
        )
    }

    /// A successful response to `corr_id`.
    pub fn response_ok(corr_id: u64, value: Value) -> Self {
        Frame::new(FrameType::Response, corr_id, Value::map([("ok", value)]))
    }

    /// A failed response to `corr_id`, carrying the error in typed form so
    /// redirect variants like [`GcxError::NotOwner`] survive the crossing.
    pub fn response_err(corr_id: u64, err: &GcxError) -> Self {
        Frame::new(
            FrameType::Response,
            corr_id,
            Value::map([("err", error_to_value(err))]),
        )
    }
}

/// Append a trace context's 25 bytes to `out` (a packed task message or a
/// pushed result entry). Writes within the buffer's existing capacity when
/// the caller pre-reserved it — the sampled-out and tracing-disabled send
/// paths stay zero-alloc (pinned by `trace_overhead.rs`).
pub fn encode_trace_ctx(ctx: &TraceContext, out: &mut Vec<u8>) {
    out.extend_from_slice(&ctx.trace_id.0 .0.to_be_bytes());
    out.extend_from_slice(&ctx.parent.0.to_be_bytes());
    out.push(1); // bit 0: sampled
}

/// Parse a 25-byte trace context.
///
/// A cleared sampled bit or a zero span id decodes to `Ok(None)` — the
/// sender deliberately (or emptily) carried no sampled context; that is a
/// context-absent entry, not an error. Only bytes that cannot be read at
/// all are a typed error.
pub fn decode_trace_ctx(seg: &[u8]) -> GcxResult<Option<TraceContext>> {
    if seg.len() < TRACE_CTX_LEN {
        return Err(GcxError::Codec(format!(
            "trace context of {} bytes is shorter than {TRACE_CTX_LEN}",
            seg.len()
        )));
    }
    let mut tid = [0u8; 16];
    tid.copy_from_slice(&seg[..16]);
    let mut sid = [0u8; 8];
    sid.copy_from_slice(&seg[16..24]);
    let flags = seg[24];
    let span = u64::from_be_bytes(sid);
    if flags & 1 == 0 || span == 0 {
        return Ok(None);
    }
    Ok(Some(TraceContext {
        trace_id: TraceId(Uuid(u128::from_be_bytes(tid))),
        parent: SpanId(span),
    }))
}

/// Serialize a frame to its wire bytes (length prefix included).
///
/// Refuses to produce a frame whose length field would exceed `max_frame`
/// — the peer would reject it anyway, so the error surfaces at the sender
/// where the payload is still addressable.
pub fn encode_frame(frame: &Frame, max_frame: usize) -> GcxResult<Vec<u8>> {
    let mut out = Vec::new();
    encode_frame_into(frame, max_frame, &mut out)?;
    Ok(out)
}

/// [`encode_frame`] appending to `out`, so a transport can serialize every
/// frame into one retained write buffer. On error `out` is left as it was.
pub(crate) fn encode_frame_into(
    frame: &Frame,
    max_frame: usize,
    out: &mut Vec<u8>,
) -> GcxResult<()> {
    let start = out.len();
    out.extend_from_slice(&[0u8; 4]);
    out.push(frame.frame_type as u8);
    out.extend_from_slice(&frame.corr_id.to_be_bytes());
    codec::encode_to(&frame.payload, out);
    let body_len = out.len() - start - 4;
    match u32::try_from(body_len) {
        Ok(len) if body_len <= max_frame => {
            out[start..start + 4].copy_from_slice(&len.to_be_bytes());
            Ok(())
        }
        _ => {
            out.truncate(start);
            Err(GcxError::PayloadTooLarge {
                size: body_len,
                limit: max_frame,
            })
        }
    }
}

/// Decode one frame body (the bytes *after* the length prefix).
pub(crate) fn decode_frame_body(body: &[u8]) -> GcxResult<Frame> {
    if body.len() < FRAME_HEADER {
        return Err(GcxError::Codec(format!(
            "frame body of {} bytes is shorter than the {FRAME_HEADER}-byte header",
            body.len()
        )));
    }
    let frame_type = FrameType::from_tag(body[0])?;
    let mut corr = [0u8; 8];
    corr.copy_from_slice(&body[1..FRAME_HEADER]);
    let payload = codec::decode(&body[FRAME_HEADER..])?;
    Ok(Frame::new(frame_type, u64::from_be_bytes(corr), payload))
}

/// Incremental frame parser over an arbitrary byte stream.
///
/// Bytes arrive in whatever chunks the transport hands over — a frame may
/// be split across many reads or many frames may share one read. `feed`
/// buffers bytes; `next_frame` yields completed frames in order. A length
/// prefix above `max_frame` poisons the stream with a typed error (after a
/// framing error the byte boundary is unknowable, so the reader refuses to
/// resynchronize and the connection must drop).
#[derive(Debug)]
pub struct FrameReader {
    /// Contiguous, fully initialized storage. `buf[pos..end]` holds received
    /// bytes not yet yielded as frames; `buf[end..]` is spare room that the
    /// next read lands in directly. Frames are parsed *in place* — no
    /// per-frame allocation — and the storage is retained across frames:
    /// after warm-up, incoming reads land in already-owned (and already
    /// zeroed, once, when it grew) memory.
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (bytes of already-yielded frames awaiting
    /// compaction).
    pos: usize,
    /// End of the received bytes.
    end: usize,
    max_frame: usize,
    poisoned: Option<GcxError>,
    bytes_reused: u64,
}

/// Spare room [`FrameReader::fill_from`] grows the storage to when less
/// than half of it is left: enough that a burst of small frames arrives in
/// one system call.
const READ_CHUNK: usize = 64 * 1024;

impl FrameReader {
    pub fn new(max_frame: usize) -> Self {
        Self {
            buf: Vec::new(),
            pos: 0,
            end: 0,
            max_frame,
            poisoned: None,
            bytes_reused: 0,
        }
    }

    /// Make sure at least `min` bytes of spare room follow `end`, growing
    /// the storage to `grow` spare bytes when they do not. Returns whether
    /// the retained storage sufficed (no allocation).
    fn make_room(&mut self, min: usize, grow: usize) -> bool {
        // Compact first: slide the unconsumed tail (typically a partial
        // frame, often nothing) to the front so the storage tracks
        // outstanding bytes, not history.
        if self.pos > 0 {
            self.buf.copy_within(self.pos..self.end, 0);
            self.end -= self.pos;
            self.pos = 0;
        }
        let reused = self.buf.len() - self.end >= min;
        if !reused {
            let grown = (self.end + grow).max(self.buf.len() * 2);
            self.buf.resize(grown, 0);
        }
        reused
    }

    /// Append raw bytes read from the transport.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.poisoned.is_some() {
            return;
        }
        // Bytes landing in retained storage were served without a fresh
        // allocation — the cross-frame reuse this reader exists to provide.
        if self.make_room(bytes.len(), bytes.len()) {
            self.bytes_reused += bytes.len() as u64;
        }
        self.buf[self.end..self.end + bytes.len()].copy_from_slice(bytes);
        self.end += bytes.len();
    }

    /// Read once from `src` straight into the spare room — no intermediate
    /// chunk, no second copy. Returns the byte count (`0` = end of stream).
    pub(crate) fn fill_from(&mut self, src: &mut impl Read) -> std::io::Result<usize> {
        if self.poisoned.is_some() {
            return Err(std::io::ErrorKind::InvalidData.into());
        }
        let reused = self.make_room(READ_CHUNK / 2, READ_CHUNK);
        let n = src.read(&mut self.buf[self.end..])?;
        if reused {
            self.bytes_reused += n as u64;
        }
        self.end += n;
        Ok(n)
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.end - self.pos
    }

    /// Total bytes received into retained storage rather than freshly grown
    /// allocations. After the first few reads warm the buffer up, every
    /// subsequent byte should land here; the `wire.bytes_reused` counter
    /// surfaces this per connection.
    pub(crate) fn bytes_reused(&self) -> u64 {
        self.bytes_reused
    }

    /// Pop the next complete frame, `Ok(None)` if more bytes are needed.
    pub fn next_frame(&mut self) -> GcxResult<Option<Frame>> {
        if let Some(err) = &self.poisoned {
            return Err(err.clone());
        }
        let avail = self.end - self.pos;
        if avail < 4 {
            return Ok(None);
        }
        let len_bytes: [u8; 4] = self.buf[self.pos..self.pos + 4]
            .try_into()
            .expect("4 bytes available");
        let body_len = u32::from_be_bytes(len_bytes) as usize;
        if body_len > self.max_frame {
            return Err(self.poison(GcxError::Codec(format!(
                "frame length {body_len} exceeds the {} byte limit",
                self.max_frame
            ))));
        }
        if body_len < FRAME_HEADER {
            return Err(self.poison(GcxError::Codec(format!(
                "frame length {body_len} is shorter than the {FRAME_HEADER}-byte header"
            ))));
        }
        if avail < 4 + body_len {
            return Ok(None);
        }
        let start = self.pos + 4;
        match decode_frame_body(&self.buf[start..start + body_len]) {
            Ok(frame) => {
                self.consume(start + body_len);
                Ok(Some(frame))
            }
            // The framing itself was sound but the contents are garbage (an
            // unknown tag, an undecodable payload): poison — a peer
            // producing undecodable frames is not trustworthy.
            Err(err) => Err(self.poison(err)),
        }
    }

    /// Refuse everything from here on: after a framing violation the byte
    /// boundary is unknowable.
    fn poison(&mut self, err: GcxError) -> GcxError {
        self.poisoned = Some(err.clone());
        self.pos = 0;
        self.end = 0;
        err
    }

    /// Advance past a fully-parsed frame; when everything received has been
    /// consumed, rewind (keeping the storage for the next read).
    fn consume(&mut self, new_pos: usize) {
        self.pos = new_pos;
        if self.pos == self.end {
            self.pos = 0;
            self.end = 0;
        }
    }
}

/// Serialize a [`GcxError`] into a codec map for a `Response` `err` field.
///
/// Every variant crosses the wire with its discriminating fields so the
/// far side reconstructs the *same* typed error — `NotOwner { owner }`
/// keeps steering redirects, `Overloaded { retry_after_ms }` keeps pacing
/// backoff — instead of collapsing into a string.
pub fn error_to_value(err: &GcxError) -> Value {
    let kv = |code: &str, fields: Vec<(&str, Value)>| {
        let mut m = vec![("code", Value::str(code))];
        m.extend(fields);
        Value::map(m)
    };
    match err {
        GcxError::Unauthenticated(m) => kv("unauthenticated", vec![("msg", Value::str(m))]),
        GcxError::Forbidden(m) => kv("forbidden", vec![("msg", Value::str(m))]),
        GcxError::TaskNotFound(id) => {
            kv("task_not_found", vec![("id", Value::str(id.to_string()))])
        }
        GcxError::FunctionNotFound(id) => kv(
            "function_not_found",
            vec![("id", Value::str(id.to_string()))],
        ),
        GcxError::EndpointNotFound(id) => kv(
            "endpoint_not_found",
            vec![("id", Value::str(id.to_string()))],
        ),
        GcxError::PayloadTooLarge { size, limit } => kv(
            "payload_too_large",
            vec![
                ("size", Value::Int(*size as i64)),
                ("limit", Value::Int(*limit as i64)),
            ],
        ),
        GcxError::InvalidConfig(m) => kv("invalid_config", vec![("msg", Value::str(m))]),
        GcxError::Execution(m) => kv("execution", vec![("msg", Value::str(m))]),
        GcxError::WalltimeExceeded { limit_ms } => kv(
            "walltime_exceeded",
            vec![("limit_ms", Value::Int(*limit_ms as i64))],
        ),
        GcxError::Scheduler(m) => kv("scheduler", vec![("msg", Value::str(m))]),
        GcxError::Queue(m) => kv("queue", vec![("msg", Value::str(m))]),
        GcxError::Codec(m) => kv("codec", vec![("msg", Value::str(m))]),
        GcxError::Parse(m) => kv("parse", vec![("msg", Value::str(m))]),
        GcxError::Cancelled(id) => kv("cancelled", vec![("id", Value::str(id.to_string()))]),
        GcxError::Timeout(m) => kv("timeout", vec![("msg", Value::str(m))]),
        GcxError::ShuttingDown => kv("shutting_down", vec![]),
        GcxError::Transient(m) => kv("transient", vec![("msg", Value::str(m))]),
        GcxError::EndpointOffline(id) => {
            kv("endpoint_offline", vec![("id", Value::str(id.to_string()))])
        }
        GcxError::RetriesExhausted { attempts, last } => kv(
            "retries_exhausted",
            vec![
                ("attempts", Value::Int(*attempts as i64)),
                ("last", Value::str(last)),
            ],
        ),
        GcxError::NotOwner { owner } => kv("not_owner", vec![("owner", Value::Int(*owner as i64))]),
        GcxError::ReplicaUnavailable(r) => kv(
            "replica_unavailable",
            vec![("replica", Value::Int(*r as i64))],
        ),
        GcxError::RedirectsExhausted { redirects, last } => kv(
            "redirects_exhausted",
            vec![
                ("redirects", Value::Int(*redirects as i64)),
                ("last", Value::str(last)),
            ],
        ),
        GcxError::Overloaded { retry_after_ms } => kv(
            "overloaded",
            vec![("retry_after_ms", Value::Int(*retry_after_ms as i64))],
        ),
        GcxError::QueueFull { queue } => kv("queue_full", vec![("queue", Value::str(queue))]),
        GcxError::DeadlineExceeded(id) => kv(
            "deadline_exceeded",
            vec![("id", Value::str(id.to_string()))],
        ),
        GcxError::Internal(m) => kv("internal", vec![("msg", Value::str(m))]),
    }
}

/// Reconstruct a [`GcxError`] from its wire map. Unknown codes and missing
/// fields degrade to [`GcxError::Internal`] — a malformed error report is
/// still an error, just a less specific one; it must never panic.
pub fn error_from_value(v: &Value) -> GcxError {
    let Some(code) = v.get("code").and_then(Value::as_str) else {
        return GcxError::Internal(format!("malformed wire error: {v:?}"));
    };
    let msg = || {
        v.get("msg")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string()
    };
    let int = |k: &str| v.get(k).and_then(Value::as_int).unwrap_or(0);
    let id_str = || v.get("id").and_then(Value::as_str).unwrap_or("");
    let parse_uuid = || id_str().parse::<crate::ids::Uuid>();
    match code {
        "unauthenticated" => GcxError::Unauthenticated(msg()),
        "forbidden" => GcxError::Forbidden(msg()),
        "task_not_found" => match parse_uuid() {
            Ok(u) => GcxError::TaskNotFound(TaskId(u)),
            Err(_) => GcxError::Internal(format!("task_not_found with bad id '{}'", id_str())),
        },
        "function_not_found" => match parse_uuid() {
            Ok(u) => GcxError::FunctionNotFound(FunctionId(u)),
            Err(_) => GcxError::Internal(format!("function_not_found with bad id '{}'", id_str())),
        },
        "endpoint_not_found" => match parse_uuid() {
            Ok(u) => GcxError::EndpointNotFound(EndpointId(u)),
            Err(_) => GcxError::Internal(format!("endpoint_not_found with bad id '{}'", id_str())),
        },
        "payload_too_large" => GcxError::PayloadTooLarge {
            size: int("size").max(0) as usize,
            limit: int("limit").max(0) as usize,
        },
        "invalid_config" => GcxError::InvalidConfig(msg()),
        "execution" => GcxError::Execution(msg()),
        "walltime_exceeded" => GcxError::WalltimeExceeded {
            limit_ms: int("limit_ms").max(0) as u64,
        },
        "scheduler" => GcxError::Scheduler(msg()),
        "queue" => GcxError::Queue(msg()),
        "codec" => GcxError::Codec(msg()),
        "parse" => GcxError::Parse(msg()),
        "cancelled" => match parse_uuid() {
            Ok(u) => GcxError::Cancelled(TaskId(u)),
            Err(_) => GcxError::Internal(format!("cancelled with bad id '{}'", id_str())),
        },
        "timeout" => GcxError::Timeout(msg()),
        "shutting_down" => GcxError::ShuttingDown,
        "transient" => GcxError::Transient(msg()),
        "endpoint_offline" => match parse_uuid() {
            Ok(u) => GcxError::EndpointOffline(EndpointId(u)),
            Err(_) => GcxError::Internal(format!("endpoint_offline with bad id '{}'", id_str())),
        },
        "retries_exhausted" => GcxError::RetriesExhausted {
            attempts: int("attempts").max(0) as u32,
            last: v
                .get("last")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
        },
        "not_owner" => GcxError::NotOwner {
            owner: int("owner").max(0) as u32,
        },
        "replica_unavailable" => GcxError::ReplicaUnavailable(int("replica").max(0) as u32),
        "redirects_exhausted" => GcxError::RedirectsExhausted {
            redirects: int("redirects").max(0) as u32,
            last: v
                .get("last")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
        },
        "overloaded" => GcxError::Overloaded {
            retry_after_ms: int("retry_after_ms").max(0) as u64,
        },
        "queue_full" => GcxError::QueueFull {
            queue: v
                .get("queue")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
        },
        "deadline_exceeded" => match parse_uuid() {
            Ok(u) => GcxError::DeadlineExceeded(TaskId(u)),
            Err(_) => GcxError::Internal(format!("deadline_exceeded with bad id '{}'", id_str())),
        },
        "internal" => GcxError::Internal(msg()),
        other => GcxError::Internal(format!("unknown wire error code '{other}'")),
    }
}

/// A bidirectional frame channel. One logical reader (the connection's
/// demux loop) calls [`Transport::recv`]; any number of threads may
/// [`Transport::send`] concurrently — implementations serialize writers so
/// frames never interleave mid-frame.
pub trait Transport: Send + Sync {
    /// Serialize and send one frame. Errors are connection-fatal.
    fn send(&self, frame: &Frame) -> GcxResult<()>;

    /// [`Transport::send`], unless another writer holds the connection:
    /// then `Ok(false)` and nothing is sent. For a frame whose only job is
    /// to show the peer this side is alive, sent by the connection's reader
    /// — which must never wait behind a write the peer is not reading,
    /// since the peer may be waiting on the reader to read.
    fn try_send(&self, frame: &Frame) -> GcxResult<bool>;

    /// Wait up to `timeout` for the next frame. `Ok(None)` means the
    /// timeout elapsed with the connection still healthy; `Err` means the
    /// connection is dead (closed, reset, or a framing violation).
    fn recv(&self, timeout: Duration) -> GcxResult<Option<Frame>>;

    /// Close both directions; subsequent sends and recvs fail.
    fn close(&self);

    /// Human-readable peer address for logs and metrics.
    fn peer(&self) -> String;

    /// Bytes this transport's frame reader landed in retained buffer
    /// capacity instead of fresh allocations (see
    /// `FrameReader::bytes_reused`). Defaults to 0 for transports without
    /// a frame reader.
    fn bytes_reused(&self) -> u64 {
        0
    }
}

// ---------------------------------------------------------------------------
// TCP transport
// ---------------------------------------------------------------------------

/// Largest write buffer a transport keeps between sends; a frame that grew
/// it further (a bulk payload) gives the memory back afterwards.
const WRITE_BUF_KEEP: usize = 256 * 1024;

/// Serialize `frame` into the retained write buffer and hand the bytes to
/// `write` — one buffer, one write per frame.
fn send_via(
    buf: &mut Vec<u8>,
    frame: &Frame,
    max_frame: usize,
    write: impl FnOnce(&[u8]) -> GcxResult<()>,
) -> GcxResult<()> {
    buf.clear();
    encode_frame_into(frame, max_frame, buf)?;
    let res = write(buf);
    if buf.capacity() > WRITE_BUF_KEEP {
        *buf = Vec::new();
    }
    res
}

/// [`Transport`] over a real `std::net::TcpStream`.
///
/// One socket, read and written through shared references. Writers take
/// the write mutex for the duration of one frame so concurrent callers
/// never interleave bytes; the mutex owns the retained write buffer. The
/// read side lives under its own mutex with a [`FrameReader`] that the
/// socket is read straight into. [`Transport::close`] takes neither lock,
/// so it unblocks a writer stuck on a peer that stopped reading.
pub struct TcpTransport {
    stream: TcpStream,
    writer: Mutex<Vec<u8>>,
    reader: Mutex<TcpReader>,
    closed: AtomicBool,
    max_frame: usize,
    peer: String,
}

struct TcpReader {
    frames: FrameReader,
    /// The `SO_RCVTIMEO` value currently set on the socket, so the option
    /// is only re-issued when the wanted timeout changes.
    timeout: Option<Duration>,
}

impl TcpTransport {
    pub fn new(stream: TcpStream, max_frame: usize) -> GcxResult<Self> {
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "<unknown>".into());
        stream
            .set_nodelay(true)
            .map_err(|e| GcxError::Transient(format!("set_nodelay: {e}")))?;
        Ok(Self {
            stream,
            writer: Mutex::new(Vec::new()),
            reader: Mutex::new(TcpReader {
                frames: FrameReader::new(max_frame),
                timeout: None,
            }),
            closed: AtomicBool::new(false),
            max_frame,
            peer,
        })
    }

    /// Dial `addr` (e.g. `127.0.0.1:41999`).
    pub fn connect(addr: &str, max_frame: usize) -> GcxResult<Self> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| GcxError::Transient(format!("connect {addr}: {e}")))?;
        Self::new(stream, max_frame)
    }
}

impl TcpTransport {
    fn send_locked(&self, buf: &mut Vec<u8>, frame: &Frame) -> GcxResult<()> {
        if self.closed.load(Ordering::Acquire) {
            return Err(GcxError::Transient("connection closed".into()));
        }
        send_via(buf, frame, self.max_frame, |bytes| {
            (&self.stream).write_all(bytes).map_err(|e| {
                self.closed.store(true, Ordering::Release);
                GcxError::Transient(format!("tcp send: {e}"))
            })
        })
    }
}

impl Transport for TcpTransport {
    fn send(&self, frame: &Frame) -> GcxResult<()> {
        self.send_locked(&mut self.writer.lock(), frame)
    }

    fn try_send(&self, frame: &Frame) -> GcxResult<bool> {
        let Some(mut buf) = self.writer.try_lock() else {
            return Ok(false);
        };
        self.send_locked(&mut buf, frame).map(|()| true)
    }

    fn recv(&self, timeout: Duration) -> GcxResult<Option<Frame>> {
        let deadline = Instant::now() + timeout;
        let mut reader = self.reader.lock();
        // The first read of a call waits the caller's own `timeout` — the
        // same value call after call, so no socket option is issued; only a
        // read after a partial frame re-arms with what is left.
        let mut wait = timeout;
        loop {
            if let Some(frame) = reader.frames.next_frame()? {
                return Ok(Some(frame));
            }
            if self.closed.load(Ordering::Acquire) {
                return Err(GcxError::Transient("connection closed".into()));
            }
            // Read timeouts must be nonzero (zero means "block forever").
            wait = wait.max(Duration::from_millis(1));
            if reader.timeout != Some(wait) {
                self.stream
                    .set_read_timeout(Some(wait))
                    .map_err(|e| GcxError::Transient(format!("tcp set_read_timeout: {e}")))?;
                reader.timeout = Some(wait);
            }
            match reader.frames.fill_from(&mut &self.stream) {
                Ok(0) => {
                    self.closed.store(true, Ordering::Release);
                    return Err(GcxError::Transient("connection closed by peer".into()));
                }
                Ok(_) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock
                            | std::io::ErrorKind::TimedOut
                            | std::io::ErrorKind::Interrupted
                    ) => {}
                Err(e) => {
                    self.closed.store(true, Ordering::Release);
                    return Err(GcxError::Transient(format!("tcp recv: {e}")));
                }
            }
            let now = Instant::now();
            if now >= deadline {
                // One last look: the read may have completed a frame.
                return reader.frames.next_frame();
            }
            wait = deadline - now;
        }
    }

    fn close(&self) {
        self.closed.store(true, Ordering::Release);
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }

    fn bytes_reused(&self) -> u64 {
        self.reader.lock().frames.bytes_reused()
    }
}

// ---------------------------------------------------------------------------
// In-memory transport
// ---------------------------------------------------------------------------

/// One direction of the in-memory duplex pipe: a byte buffer plus a
/// condvar for blocking reads. Frames are *serialized into the buffer as
/// bytes* — the in-memory path exercises the identical encode → frame →
/// decode cycle as TCP, so codec bugs cannot hide behind it.
struct Pipe {
    state: Mutex<PipeState>,
    readable: Condvar,
}

struct PipeState {
    bytes: VecDeque<u8>,
    closed: bool,
}

impl Pipe {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(PipeState {
                bytes: VecDeque::new(),
                closed: false,
            }),
            readable: Condvar::new(),
        })
    }

    fn write(&self, bytes: &[u8]) -> GcxResult<()> {
        let mut st = self.state.lock();
        if st.closed {
            return Err(GcxError::Transient("connection closed".into()));
        }
        st.bytes.extend(bytes);
        drop(st);
        self.readable.notify_all();
        Ok(())
    }

    fn close(&self) {
        self.state.lock().closed = true;
        self.readable.notify_all();
    }
}

/// The in-memory [`Transport`]: a pair of byte pipes shared by two halves.
pub struct InMemTransport {
    /// Bytes we write travel down this pipe…
    out: Arc<Pipe>,
    /// …and bytes the peer writes arrive on this one.
    inbound: Arc<Pipe>,
    reader: Mutex<FrameReader>,
    /// Retained write buffer; the lock also keeps whole frames contiguous
    /// in the pipe.
    writer: Mutex<Vec<u8>>,
    max_frame: usize,
    label: String,
}

impl InMemTransport {
    /// Create a connected pair; frames sent on one half arrive (as bytes,
    /// re-parsed) on the other.
    pub fn pair(max_frame: usize) -> (InMemTransport, InMemTransport) {
        let a_to_b = Pipe::new();
        let b_to_a = Pipe::new();
        (
            InMemTransport {
                out: a_to_b.clone(),
                inbound: b_to_a.clone(),
                reader: Mutex::new(FrameReader::new(max_frame)),
                writer: Mutex::new(Vec::new()),
                max_frame,
                label: "inmem:client".into(),
            },
            InMemTransport {
                out: b_to_a,
                inbound: a_to_b,
                reader: Mutex::new(FrameReader::new(max_frame)),
                writer: Mutex::new(Vec::new()),
                max_frame,
                label: "inmem:server".into(),
            },
        )
    }
}

impl Transport for InMemTransport {
    fn send(&self, frame: &Frame) -> GcxResult<()> {
        let mut buf = self.writer.lock();
        send_via(&mut buf, frame, self.max_frame, |bytes| {
            self.out.write(bytes)
        })
    }

    fn try_send(&self, frame: &Frame) -> GcxResult<bool> {
        let Some(mut buf) = self.writer.try_lock() else {
            return Ok(false);
        };
        send_via(&mut buf, frame, self.max_frame, |bytes| {
            self.out.write(bytes)
        })
        .map(|()| true)
    }

    fn recv(&self, timeout: Duration) -> GcxResult<Option<Frame>> {
        let deadline = Instant::now() + timeout;
        let mut reader = self.reader.lock();
        loop {
            if let Some(frame) = reader.next_frame()? {
                return Ok(Some(frame));
            }
            let mut st = self.inbound.state.lock();
            if st.bytes.is_empty() {
                if st.closed {
                    return Err(GcxError::Transient("connection closed by peer".into()));
                }
                let now = Instant::now();
                if now >= deadline {
                    return Ok(None);
                }
                let timed_out = self
                    .inbound
                    .readable
                    .wait_for(&mut st, deadline - now)
                    .timed_out();
                if timed_out && st.bytes.is_empty() {
                    if st.closed {
                        return Err(GcxError::Transient("connection closed by peer".into()));
                    }
                    return Ok(None);
                }
            }
            // `VecDeque<u8>` is a `Read`: the pipe's bytes move straight
            // into the frame reader's spare room.
            reader
                .fill_from(&mut st.bytes)
                .map_err(|e| GcxError::Transient(format!("inmem recv: {e}")))?;
        }
    }

    fn close(&self) {
        self.out.close();
        self.inbound.close();
    }

    fn peer(&self) -> String {
        self.label.clone()
    }

    fn bytes_reused(&self) -> u64 {
        self.reader.lock().bytes_reused()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_reader_reuses_its_buffer_across_frames() {
        let mut reader = FrameReader::new(DEFAULT_MAX_FRAME);
        let frame = Frame::new(FrameType::Request, 7, Value::Bytes(vec![3u8; 256]));
        let bytes = encode_frame(&frame, DEFAULT_MAX_FRAME).unwrap();
        // First feed warms the buffer (fresh allocation, nothing reused yet
        // unless capacity growth overshoots).
        reader.feed(&bytes);
        assert_eq!(reader.next_frame().unwrap().unwrap(), frame);
        let after_first = reader.bytes_reused();
        // Every subsequent same-sized frame must land in retained capacity.
        for i in 0..10u64 {
            reader.feed(&bytes);
            assert_eq!(reader.next_frame().unwrap().unwrap(), frame);
            assert_eq!(
                reader.bytes_reused(),
                after_first + (i + 1) * bytes.len() as u64
            );
        }
        assert_eq!(reader.buffered(), 0);
    }

    #[test]
    fn frame_reader_reuse_survives_split_reads() {
        let mut reader = FrameReader::new(DEFAULT_MAX_FRAME);
        let frame = Frame::new(FrameType::Push, 1, Value::str("split"));
        let bytes = encode_frame(&frame, DEFAULT_MAX_FRAME).unwrap();
        reader.feed(&bytes);
        assert_eq!(reader.next_frame().unwrap().unwrap(), frame);
        // A frame arriving one byte at a time still reuses the buffer and
        // still parses: compaction keeps the partial prefix at the front.
        for b in bytes.iter() {
            reader.feed(std::slice::from_ref(b));
        }
        assert_eq!(reader.next_frame().unwrap().unwrap(), frame);
        assert!(reader.bytes_reused() >= bytes.len() as u64);
    }

    #[test]
    fn fill_from_reads_into_the_reader_and_counts_reuse() {
        let frame = Frame::new(FrameType::Push, 3, Value::Bytes(vec![5u8; 300]));
        let bytes = encode_frame(&frame, DEFAULT_MAX_FRAME).unwrap();
        let mut reader = FrameReader::new(DEFAULT_MAX_FRAME);
        // Two and a half frames in the source: the first fill grows the
        // storage (nothing reused yet) and takes them all in one read.
        let mut src: VecDeque<u8> = bytes.iter().chain(&bytes).copied().collect();
        src.extend(&bytes[..bytes.len() / 2]);
        src.make_contiguous();
        let took = reader.fill_from(&mut src).unwrap();
        assert_eq!(took, 2 * bytes.len() + bytes.len() / 2);
        assert_eq!(reader.bytes_reused(), 0);
        assert_eq!(reader.next_frame().unwrap().unwrap(), frame);
        assert_eq!(reader.next_frame().unwrap().unwrap(), frame);
        assert!(reader.next_frame().unwrap().is_none());
        // The rest lands in retained storage, behind the compacted tail.
        src.extend(&bytes[bytes.len() / 2..]);
        let rest = reader.fill_from(&mut src).unwrap();
        assert_eq!(reader.bytes_reused(), rest as u64);
        assert_eq!(reader.next_frame().unwrap().unwrap(), frame);
        assert_eq!(reader.buffered(), 0);
        // An exhausted source reads as end of stream.
        assert_eq!(reader.fill_from(&mut src).unwrap(), 0);
    }

    fn roundtrip(frame: &Frame) -> Frame {
        let bytes = encode_frame(frame, DEFAULT_MAX_FRAME).unwrap();
        let mut reader = FrameReader::new(DEFAULT_MAX_FRAME);
        reader.feed(&bytes);
        let got = reader.next_frame().unwrap().unwrap();
        assert!(reader.next_frame().unwrap().is_none());
        got
    }

    #[test]
    fn frame_roundtrips_every_type() {
        for (ty, corr) in [
            (FrameType::Hello, 0u64),
            (FrameType::HelloAck, 1),
            (FrameType::Request, 42),
            (FrameType::Response, 42),
            (FrameType::Push, u64::MAX),
            (FrameType::Heartbeat, 7),
            (FrameType::Goodbye, 0),
            (FrameType::Confirm, 0),
        ] {
            let f = Frame::new(ty, corr, Value::map([("k", Value::Int(9))]));
            assert_eq!(roundtrip(&f), f);
        }
    }

    #[test]
    fn unsampled_trace_context_decodes_absent() {
        let ctx = TraceContext {
            trace_id: TraceId(Uuid(0x1234_5678_9abc_def0_0fed_cba9_8765_4321)),
            parent: SpanId(0xdead_beef_cafe_f00d),
        };
        let mut seg = Vec::new();
        encode_trace_ctx(&ctx, &mut seg);
        assert_eq!(seg.len(), TRACE_CTX_LEN);
        assert_eq!(decode_trace_ctx(&seg).unwrap(), Some(ctx));
        // Clear the sampled bit: still a valid segment, just no context.
        seg[24] = 0;
        assert_eq!(decode_trace_ctx(&seg).unwrap(), None);
        // Zero span id: ditto (SpanId is never zero by construction).
        seg[24] = 1;
        for b in &mut seg[16..24] {
            *b = 0;
        }
        assert_eq!(decode_trace_ctx(&seg).unwrap(), None);
    }

    #[test]
    fn split_reads_reassemble() {
        let f = Frame::request(3, "submit", Value::str("x".repeat(300)));
        let bytes = encode_frame(&f, DEFAULT_MAX_FRAME).unwrap();
        let mut reader = FrameReader::new(DEFAULT_MAX_FRAME);
        // Feed one byte at a time; the frame must pop exactly once.
        let mut seen = 0;
        for b in &bytes {
            reader.feed(&[*b]);
            if let Some(got) = reader.next_frame().unwrap() {
                assert_eq!(got, f);
                seen += 1;
            }
        }
        assert_eq!(seen, 1);
    }

    #[test]
    fn oversized_length_prefix_is_typed_and_poisons() {
        let mut reader = FrameReader::new(1024);
        reader.feed(&u32::MAX.to_be_bytes());
        let err = reader.next_frame().unwrap_err();
        assert!(matches!(err, GcxError::Codec(_)));
        // Stream stays poisoned.
        reader.feed(&[0u8; 64]);
        assert!(reader.next_frame().is_err());
    }

    /// Garbage, the version-2 trace flag on a valid tag, and the retired
    /// tags 7 and 9 are all unknown types: a typed error that poisons.
    #[test]
    fn garbage_type_tag_is_typed() {
        let f = Frame::hello("tok");
        for tag in [0xEE, 0x80 | FrameType::Request as u8, 7, 9] {
            let mut bytes = encode_frame(&f, DEFAULT_MAX_FRAME).unwrap();
            bytes[4] = tag; // corrupt the type tag
            let mut reader = FrameReader::new(DEFAULT_MAX_FRAME);
            reader.feed(&bytes);
            assert!(matches!(
                reader.next_frame().unwrap_err(),
                GcxError::Codec(_)
            ));
            reader.feed(&encode_frame(&f, DEFAULT_MAX_FRAME).unwrap());
            assert!(
                reader.next_frame().is_err(),
                "tag {tag}: must stay poisoned"
            );
        }
    }

    #[test]
    fn undersized_length_prefix_is_typed() {
        let mut reader = FrameReader::new(DEFAULT_MAX_FRAME);
        reader.feed(&3u32.to_be_bytes());
        reader.feed(&[1, 2, 3]);
        assert!(matches!(
            reader.next_frame().unwrap_err(),
            GcxError::Codec(_)
        ));
    }

    #[test]
    fn oversized_send_is_refused() {
        let f = Frame::request(1, "m", Value::str("y".repeat(4096)));
        assert!(matches!(
            encode_frame(&f, 256),
            Err(GcxError::PayloadTooLarge { .. })
        ));
        // A refused frame leaves a shared write buffer as it was.
        let mut out = b"earlier frame".to_vec();
        assert!(encode_frame_into(&f, 256, &mut out).is_err());
        assert_eq!(out, b"earlier frame");
    }

    #[test]
    fn errors_roundtrip_typed() {
        let samples = vec![
            GcxError::Unauthenticated("no".into()),
            GcxError::TaskNotFound(TaskId::random()),
            GcxError::PayloadTooLarge {
                size: 11,
                limit: 10,
            },
            GcxError::NotOwner { owner: 3 },
            GcxError::ReplicaUnavailable(1),
            GcxError::Overloaded { retry_after_ms: 75 },
            GcxError::QueueFull { queue: "q1".into() },
            GcxError::RedirectsExhausted {
                redirects: 8,
                last: "x".into(),
            },
            GcxError::ShuttingDown,
            GcxError::DeadlineExceeded(TaskId::random()),
            GcxError::Internal("bug".into()),
        ];
        for err in samples {
            let v = error_to_value(&err);
            assert_eq!(error_from_value(&v), err, "roundtrip of {err:?}");
        }
    }

    #[test]
    fn malformed_wire_error_degrades_to_internal() {
        assert!(matches!(
            error_from_value(&Value::Int(7)),
            GcxError::Internal(_)
        ));
        assert!(matches!(
            error_from_value(&Value::map([("code", Value::str("task_not_found"))])),
            GcxError::Internal(_)
        ));
        assert!(matches!(
            error_from_value(&Value::map([("code", Value::str("from_the_future"))])),
            GcxError::Internal(_)
        ));
    }

    #[test]
    fn inmem_pair_moves_real_bytes() {
        let (a, b) = InMemTransport::pair(DEFAULT_MAX_FRAME);
        let f = Frame::request(9, "ping", Value::Int(1));
        a.send(&f).unwrap();
        let got = b.recv(Duration::from_secs(1)).unwrap().unwrap();
        assert_eq!(got, f);
        // Timeout with no traffic.
        assert!(b.recv(Duration::from_millis(10)).unwrap().is_none());
        // Close propagates as a typed error.
        a.close();
        assert!(b.recv(Duration::from_millis(50)).is_err());
    }

    #[test]
    fn tcp_pair_roundtrips_over_localhost() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let t = TcpTransport::new(stream, DEFAULT_MAX_FRAME).unwrap();
            let f = t.recv(Duration::from_secs(5)).unwrap().unwrap();
            t.send(&Frame::response_ok(f.corr_id, Value::str("pong")))
                .unwrap();
        });
        let client = TcpTransport::connect(&addr, DEFAULT_MAX_FRAME).unwrap();
        client
            .send(&Frame::request(5, "ping", Value::None))
            .unwrap();
        let resp = client.recv(Duration::from_secs(5)).unwrap().unwrap();
        assert_eq!(resp.frame_type, FrameType::Response);
        assert_eq!(resp.corr_id, 5);
        assert_eq!(resp.payload.get("ok").and_then(Value::as_str), Some("pong"));
        server.join().unwrap();
    }
}
