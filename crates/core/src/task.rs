//! The task model: specifications, lifecycle states, and results.
//!
//! A *task* is one invocation of a registered function on an endpoint. The
//! web service buffers tasks until the endpoint is online, the endpoint
//! executes them, and results are buffered in the cloud until retrieved
//! (§II "Functions"). The state machine below captures the legal lifecycle;
//! every transition is checked so illegal updates (e.g. a result arriving
//! for a cancelled task) surface as errors rather than silent corruption.

use std::sync::OnceLock;

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use crate::clock::TimeMs;
use crate::codec;
use crate::error::{GcxError, GcxResult};
use crate::ids::{EndpointId, FunctionId, IdentityId, TaskId, Uuid};
use crate::payload::{ContentHash, Payload};
use crate::respec::ResourceSpec;
use crate::trace::TraceContext;
use crate::value::Value;
use crate::wire;

/// The cached payload for "no arguments at all" — `TaskSpec::new` hands out
/// refcounted clones so constructing bare specs never touches the codec.
fn empty_args_payload() -> Payload {
    static EMPTY: OnceLock<Payload> = OnceLock::new();
    EMPTY
        .get_or_init(|| Payload::encode_args(&[], &Value::map([] as [(&str, Value); 0])))
        .clone()
}

/// A task submission: which function to run, where, with what arguments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskSpec {
    /// Unique id (minted by the SDK at submit time so the client can hold a
    /// future before the round trip completes).
    pub task_id: TaskId,
    /// The registered function to invoke.
    pub function_id: FunctionId,
    /// The target endpoint (a single-user endpoint or a multi-user endpoint).
    pub endpoint_id: EndpointId,
    /// The arguments, encoded **once** at the submit edge as the canonical
    /// `[args, kwargs]` pair (see [`Payload::encode_args`]). Every layer
    /// between the SDK and the worker moves this by reference; only the
    /// worker decodes it back into structured values.
    pub payload: Payload,
    /// MPI resource requirements (empty for non-MPI tasks).
    pub resource_spec: ResourceSpec,
    /// User endpoint configuration for multi-user endpoints (hash of this
    /// selects/spawns the user endpoint, §IV-B); `Value::None` otherwise.
    pub user_endpoint_config: Value,
    /// Trace context linking this task (and any retry of it — the SDK
    /// reuses the spec when it resubmits) to its submission timeline.
    /// `None` for untraced/sampled-out tasks; absent on old wire payloads.
    #[serde(default)]
    pub trace: Option<TraceContext>,
    /// Optional relative deadline (TTL) in milliseconds from submission.
    /// The cloud expires the task once the deadline passes; the endpoint
    /// kills a still-running execution. `None` means no deadline.
    #[serde(default)]
    pub deadline_ms: Option<u64>,
    /// Scheduling priority: higher values are more important. Brownout-mode
    /// load shedding drops the lowest-priority traffic first. Default `0`.
    #[serde(default)]
    pub priority: i64,
}

impl TaskSpec {
    /// A minimal spec invoking `function_id` on `endpoint_id` with no
    /// arguments.
    pub fn new(function_id: FunctionId, endpoint_id: EndpointId) -> Self {
        Self {
            task_id: TaskId::random(),
            function_id,
            endpoint_id,
            payload: empty_args_payload(),
            resource_spec: ResourceSpec::default(),
            user_endpoint_config: Value::None,
            trace: None,
            deadline_ms: None,
            priority: 0,
        }
    }

    /// Encode `(args, kwargs)` into the spec's payload. This is the ONE
    /// encode on the submit path — everything downstream moves the bytes.
    pub fn set_args(&mut self, args: Vec<Value>, kwargs: Value) {
        self.payload = Payload::encode_args(&args, &kwargs);
    }

    /// Decode the payload back into `(args, kwargs)`. Only the consuming
    /// edge (the worker about to execute) should call this.
    pub fn decode_args(&self) -> GcxResult<(Vec<Value>, Value)> {
        self.payload.decode_args()
    }

    /// Pack to a structured `Value`. Nothing on the task path uses this —
    /// queues, the wire, federation envelopes and the task log all carry
    /// `TaskSpec::write_message` bodies — and nothing decodes it: it stays
    /// only because `gcxbench`'s `core.wire.*_frame_batch128` probe frames it
    /// as the tree-shaped reference case (a benchmark-only change retires
    /// both). The payload bytes are copied into the `Value`.
    pub fn to_value(&self) -> Value {
        let mut fields = vec![
            ("task_id", Value::str(self.task_id.to_string())),
            ("function_id", Value::str(self.function_id.to_string())),
            ("endpoint_id", Value::str(self.endpoint_id.to_string())),
            ("payload", Value::Bytes(self.payload.as_slice().to_vec())),
            ("resource_spec", self.resource_spec.to_value()),
            ("user_endpoint_config", self.user_endpoint_config.clone()),
        ];
        if let Some(ctx) = &self.trace {
            fields.push(("trace", Value::str(ctx.encode())));
        }
        if let Some(deadline) = self.deadline_ms {
            fields.push(("deadline_ms", Value::Int(deadline as i64)));
        }
        if self.priority != 0 {
            fields.push(("priority", Value::Int(self.priority)));
        }
        Value::map(fields)
    }

    /// Absolute expiry instant for a task submitted at `submitted_at`
    /// (cloud clock), or `None` when the spec carries no deadline.
    pub fn expires_at(&self, submitted_at: TimeMs) -> Option<TimeMs> {
        self.deadline_ms.map(|d| submitted_at.saturating_add(d))
    }

    /// Serialize to the compact binary message body used on mq task queues.
    ///
    /// Unlike [`TaskSpec::to_value`] this never builds a `Value` tree: raw
    /// UUID bytes, varint scalars, the 25-byte trace context, and the
    /// payload bytes appended verbatim. With `inline_payload = false` only
    /// the content hash and length travel (a reference — the consumer
    /// resolves the bytes from the task's record, see `gcx-cloud`).
    pub fn to_message(&self, inline_payload: bool) -> Bytes {
        let mut out = Vec::new();
        self.write_message(inline_payload, &mut out);
        Bytes::from(out)
    }

    /// Append the [`TaskSpec::to_message`] body to `out` — the wire and the
    /// service's dispatch each pack a whole batch into one buffer this way,
    /// with no per-task allocation.
    pub fn write_message(&self, inline_payload: bool, out: &mut Vec<u8>) {
        out.reserve(self.message_size_hint(inline_payload));
        out.push(SPEC_MSG_VERSION);
        out.extend_from_slice(&self.task_id.uuid().as_bytes());
        out.extend_from_slice(&self.function_id.uuid().as_bytes());
        out.extend_from_slice(&self.endpoint_id.uuid().as_bytes());
        let mut flags = 0u8;
        if self.trace.is_some() {
            flags |= SPEC_HAS_TRACE;
        }
        if self.deadline_ms.is_some() {
            flags |= SPEC_HAS_DEADLINE;
        }
        if self.priority != 0 {
            flags |= SPEC_HAS_PRIORITY;
        }
        let has_respec = self.resource_spec != ResourceSpec::default();
        if has_respec {
            flags |= SPEC_HAS_RESPEC;
        }
        let has_uec = self.user_endpoint_config != Value::None;
        if has_uec {
            flags |= SPEC_HAS_UEC;
        }
        if !inline_payload {
            flags |= SPEC_PAYLOAD_REF;
        }
        out.push(flags);
        if let Some(d) = self.deadline_ms {
            codec::write_varint(out, d);
        }
        if self.priority != 0 {
            codec::write_varint(out, codec::zigzag_encode(self.priority));
        }
        if let Some(ctx) = &self.trace {
            wire::encode_trace_ctx(ctx, out);
        }
        if has_respec {
            let enc = codec::encode(&self.resource_spec.to_value());
            codec::write_varint(out, enc.len() as u64);
            out.extend_from_slice(&enc);
        }
        if has_uec {
            let enc = codec::encode(&self.user_endpoint_config);
            codec::write_varint(out, enc.len() as u64);
            out.extend_from_slice(&enc);
        }
        out.extend_from_slice(&self.payload.hash().to_bytes());
        codec::write_varint(out, self.payload.len() as u64);
        if inline_payload {
            out.extend_from_slice(self.payload.as_slice());
        }
    }

    /// Room [`TaskSpec::write_message`] reserves for this spec's body: all
    /// of it unless the spec carries a resource spec or a user endpoint
    /// config. A buffer sized by the sum of a batch's hints never grows.
    pub fn message_size_hint(&self, inline_payload: bool) -> usize {
        let payload_len = if inline_payload {
            self.payload.len()
        } else {
            0
        };
        SPEC_MSG_FIXED + 64 + payload_len
    }

    /// Decode a [`TaskSpec::to_message`] body. Returns the spec plus
    /// `payload_is_ref`: when `true` the payload bytes were not inlined and
    /// `spec.payload` holds only the content hash (empty bytes) — the caller
    /// must resolve the bytes from the content-addressed store and replace
    /// the payload before handing the spec to a worker.
    ///
    /// An inlined payload is *sliced* out of `body` (refcount bump on the
    /// receive buffer), never copied.
    pub fn from_message(body: &Bytes) -> GcxResult<(Self, bool)> {
        fn need(cur: &[u8], n: usize) -> GcxResult<()> {
            if cur.len() < n {
                return Err(GcxError::Codec("task message truncated".into()));
            }
            Ok(())
        }
        let mut cur: &[u8] = body;
        need(cur, 1)?;
        let version = cur[0];
        cur = &cur[1..];
        if version != SPEC_MSG_VERSION {
            return Err(GcxError::Codec(format!(
                "unknown task message version {version}"
            )));
        }
        fn uuid(cur: &mut &[u8]) -> GcxResult<Uuid> {
            need(cur, 16)?;
            let mut b = [0u8; 16];
            b.copy_from_slice(&cur[..16]);
            *cur = &cur[16..];
            Ok(Uuid::from_bytes(b))
        }
        let task_id = TaskId(uuid(&mut cur)?);
        let function_id = FunctionId(uuid(&mut cur)?);
        let endpoint_id = EndpointId(uuid(&mut cur)?);
        need(cur, 1)?;
        let flags = cur[0];
        cur = &cur[1..];
        let deadline_ms = if flags & SPEC_HAS_DEADLINE != 0 {
            Some(codec::read_varint(&mut cur)?)
        } else {
            None
        };
        let priority = if flags & SPEC_HAS_PRIORITY != 0 {
            codec::zigzag_decode(codec::read_varint(&mut cur)?)
        } else {
            0
        };
        let trace = if flags & SPEC_HAS_TRACE != 0 {
            need(cur, wire::TRACE_CTX_LEN)?;
            let ctx = wire::decode_trace_ctx(&cur[..wire::TRACE_CTX_LEN])?;
            cur = &cur[wire::TRACE_CTX_LEN..];
            ctx
        } else {
            None
        };
        fn codec_section(cur: &mut &[u8]) -> GcxResult<Value> {
            let len = codec::read_varint(cur)? as usize;
            need(cur, len)?;
            let v = codec::decode(&cur[..len])?;
            *cur = &cur[len..];
            Ok(v)
        }
        let resource_spec = if flags & SPEC_HAS_RESPEC != 0 {
            ResourceSpec::from_value(&codec_section(&mut cur)?)
                .map_err(|e| GcxError::Codec(e.to_string()))?
        } else {
            ResourceSpec::default()
        };
        let user_endpoint_config = if flags & SPEC_HAS_UEC != 0 {
            codec_section(&mut cur)?
        } else {
            Value::None
        };
        need(cur, 16)?;
        let mut h = [0u8; 16];
        h.copy_from_slice(&cur[..16]);
        let hash = ContentHash::from_bytes(h);
        cur = &cur[16..];
        let payload_len = codec::read_varint(&mut cur)? as usize;
        let payload_is_ref = flags & SPEC_PAYLOAD_REF != 0;
        let payload = if payload_is_ref {
            Payload::from_parts_unchecked(Bytes::new(), hash)
        } else {
            if cur.len() != payload_len {
                return Err(GcxError::Codec(format!(
                    "task message payload length {} does not match remaining {} bytes",
                    payload_len,
                    cur.len()
                )));
            }
            let off = body.len() - payload_len;
            Payload::from_parts_unchecked(body.slice(off..), hash)
        };
        Ok((
            Self {
                task_id,
                function_id,
                endpoint_id,
                payload,
                resource_spec,
                user_endpoint_config,
                trace,
                deadline_ms,
                priority,
            },
            payload_is_ref,
        ))
    }
}

/// Binary task-message version byte.
const SPEC_MSG_VERSION: u8 = 1;
/// Fixed part of the binary task message: version + 3 UUIDs + flags.
const SPEC_MSG_FIXED: usize = 1 + 48 + 1;
const SPEC_HAS_TRACE: u8 = 0x01;
const SPEC_HAS_DEADLINE: u8 = 0x02;
const SPEC_HAS_RESPEC: u8 = 0x04;
const SPEC_HAS_UEC: u8 = 0x08;
/// Payload bytes omitted; the 16-byte content hash references the task
/// record's copy.
const SPEC_PAYLOAD_REF: u8 = 0x10;
const SPEC_HAS_PRIORITY: u8 = 0x20;

/// Binary result-envelope version byte.
const RESULT_MSG_VERSION: u8 = 1;
/// Fixed part of the binary result envelope: version + task id + flags.
const RESULT_MSG_FIXED: usize = 1 + 16 + 1;
const RESULT_OK: u8 = 0x01;
const RESULT_ERR: u8 = 0x02;
const RESULT_HAS_SENT: u8 = 0x04;

/// Task lifecycle states as reported by the web service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TaskState {
    /// Accepted by the web service; waiting for the endpoint to be online
    /// and to fetch it.
    Received,
    /// Delivered to the endpoint; waiting for resources/worker capacity.
    WaitingForNodes,
    /// Executing on a worker.
    Running,
    /// Finished successfully; result buffered in the cloud.
    Success,
    /// Finished with an error; exception buffered in the cloud.
    Failed,
    /// Cancelled before completion.
    Cancelled,
}

impl TaskState {
    /// Terminal states never transition again.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            TaskState::Success | TaskState::Failed | TaskState::Cancelled
        )
    }

    /// Whether `self → next` is a legal lifecycle transition.
    pub(crate) fn can_transition_to(&self, next: TaskState) -> bool {
        use TaskState::*;
        if self.is_terminal() {
            return false;
        }
        matches!(
            (self, next),
            (Received, WaitingForNodes | Running | Failed | Cancelled)
                | (WaitingForNodes, Running | Failed | Cancelled)
                | (Running, Success | Failed | Cancelled)
        )
    }

    /// Lowercase label matching the REST API's status strings.
    pub fn label(&self) -> &'static str {
        match self {
            TaskState::Received => "received",
            TaskState::WaitingForNodes => "waiting-for-nodes",
            TaskState::Running => "running",
            TaskState::Success => "success",
            TaskState::Failed => "failed",
            TaskState::Cancelled => "cancelled",
        }
    }

    /// Inverse of [`TaskState::label`], for states arriving off the wire.
    pub fn from_label(label: &str) -> GcxResult<Self> {
        Ok(match label {
            "received" => TaskState::Received,
            "waiting-for-nodes" => TaskState::WaitingForNodes,
            "running" => TaskState::Running,
            "success" => TaskState::Success,
            "failed" => TaskState::Failed,
            "cancelled" => TaskState::Cancelled,
            other => return Err(GcxError::Codec(format!("unknown task state '{other}'"))),
        })
    }
}

/// Prefix marking a `TaskResult::Err` as infrastructure-caused and safe to
/// retry (endpoint died, delivery dead-lettered). Kept inside the error
/// string so it survives the wire codec unchanged.
pub(crate) const RETRYABLE_MARKER: &str = "[retryable] ";

/// Prefix marking a `TaskResult::Err` as a deadline/TTL expiry. The marker
/// is followed by the task id, so [`TaskResult::into_result`] can decode a
/// typed [`GcxError::DeadlineExceeded`] on the far side of the wire.
pub(crate) const DEADLINE_MARKER: &str = "[deadline] ";

/// The outcome of a task: an encoded value or an error description.
///
/// The success payload is the function's return value encoded **once** by the
/// worker that produced it ([`TaskResult::ok`]); it travels by reference back
/// through the endpoint, mq, cloud, and SDK, and is only decoded when the
/// user's future resolves ([`TaskResult::into_result`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TaskResult {
    /// Successful completion with the function's encoded return value.
    Ok(Payload),
    /// Failure with the (stringified) exception.
    Err(String),
}

impl TaskResult {
    /// Encode a success value into a result. This is the ONE encode on the
    /// result path, performed where the structured value is produced.
    pub fn ok(v: Value) -> Self {
        TaskResult::Ok(Payload::encode(&v))
    }

    /// Decode the success value, if this is a decodable success.
    pub fn ok_value(&self) -> Option<Value> {
        match self {
            TaskResult::Ok(p) => p.decode().ok(),
            TaskResult::Err(_) => None,
        }
    }

    /// A failure caused by infrastructure rather than the function itself;
    /// decoded by [`TaskResult::into_result`] as a retryable
    /// [`GcxError::Transient`].
    pub fn retryable_err(msg: impl std::fmt::Display) -> Self {
        TaskResult::Err(format!("{RETRYABLE_MARKER}{msg}"))
    }

    /// True if this is a failure carrying the retryable marker.
    pub fn is_retryable_err(&self) -> bool {
        matches!(self, TaskResult::Err(e) if e.starts_with(RETRYABLE_MARKER))
    }

    /// The typed expiry failure for `task_id`; decoded by
    /// [`TaskResult::into_result`] as [`GcxError::DeadlineExceeded`].
    pub fn deadline_err(task_id: TaskId) -> Self {
        TaskResult::Err(format!("{DEADLINE_MARKER}{task_id}"))
    }

    /// True if this is a failure carrying the deadline marker.
    pub fn is_deadline_err(&self) -> bool {
        matches!(self, TaskResult::Err(e) if e.starts_with(DEADLINE_MARKER))
    }
    /// Pack to the structured wire form used by the conn-layer status RPC.
    /// The payload crosses as opaque bytes.
    pub fn to_value(&self) -> Value {
        match self {
            TaskResult::Ok(p) => Value::map([("ok", Value::Bytes(p.as_slice().to_vec()))]),
            TaskResult::Err(e) => Value::map([("err", Value::str(e))]),
        }
    }

    /// Decode the wire form.
    pub fn from_value(v: &Value) -> GcxResult<Self> {
        let m = v
            .as_map()
            .ok_or_else(|| GcxError::Codec("task result must be a map".into()))?;
        if let Some(ok) = m.get("ok") {
            match ok {
                Value::Bytes(b) => Ok(TaskResult::Ok(Payload::from_vec(b.clone()))),
                other => Err(GcxError::Codec(format!(
                    "task result payload must be bytes, got {}",
                    other.type_name()
                ))),
            }
        } else if let Some(err) = m.get("err") {
            Ok(TaskResult::Err(
                err.as_str()
                    .ok_or_else(|| GcxError::Codec("err must be a string".into()))?
                    .to_string(),
            ))
        } else {
            Err(GcxError::Codec("task result missing ok/err".into()))
        }
    }

    /// Serialize to the compact binary envelope used on result and stream
    /// queues: the task id, optional send timestamp, and either the payload
    /// bytes (appended verbatim) or the error string. Never builds a `Value`
    /// tree, and is one allocation: written in a reused buffer, then copied
    /// out at its exact size.
    pub fn to_envelope(&self, task_id: TaskId, sent_ms: Option<u64>) -> Bytes {
        codec::build(|out| self.write_envelope(task_id, sent_ms, out))
    }

    /// Append the [`TaskResult::to_envelope`] body to `out`.
    pub fn write_envelope(&self, task_id: TaskId, sent_ms: Option<u64>, out: &mut Vec<u8>) {
        let body_len = match self {
            TaskResult::Ok(p) => 16 + 10 + p.len(),
            TaskResult::Err(e) => 10 + e.len(),
        };
        out.reserve(RESULT_MSG_FIXED + body_len);
        out.push(RESULT_MSG_VERSION);
        out.extend_from_slice(&task_id.uuid().as_bytes());
        let mut flags = match self {
            TaskResult::Ok(_) => RESULT_OK,
            TaskResult::Err(_) => RESULT_ERR,
        };
        if sent_ms.is_some() {
            flags |= RESULT_HAS_SENT;
        }
        out.push(flags);
        if let Some(ms) = sent_ms {
            codec::write_varint(out, ms);
        }
        match self {
            TaskResult::Ok(p) => {
                out.extend_from_slice(&p.hash().to_bytes());
                codec::write_varint(out, p.len() as u64);
                out.extend_from_slice(p.as_slice());
            }
            TaskResult::Err(e) => {
                codec::write_varint(out, e.len() as u64);
                out.extend_from_slice(e.as_bytes());
            }
        }
    }

    /// Decode a [`TaskResult::to_envelope`] body. A success payload is
    /// *sliced* out of `body` (refcount bump), never copied.
    pub fn from_envelope(body: &Bytes) -> GcxResult<(TaskId, Self, Option<u64>)> {
        fn need(cur: &[u8], n: usize) -> GcxResult<()> {
            if cur.len() < n {
                return Err(GcxError::Codec("result envelope truncated".into()));
            }
            Ok(())
        }
        let mut cur: &[u8] = body;
        need(cur, 18)?;
        let version = cur[0];
        if version != RESULT_MSG_VERSION {
            return Err(GcxError::Codec(format!(
                "unknown result envelope version {version}"
            )));
        }
        let mut id = [0u8; 16];
        id.copy_from_slice(&cur[1..17]);
        let task_id = TaskId(Uuid::from_bytes(id));
        let flags = cur[17];
        cur = &cur[18..];
        let sent_ms = if flags & RESULT_HAS_SENT != 0 {
            Some(codec::read_varint(&mut cur)?)
        } else {
            None
        };
        let result = if flags & RESULT_OK != 0 {
            need(cur, 16)?;
            let mut h = [0u8; 16];
            h.copy_from_slice(&cur[..16]);
            cur = &cur[16..];
            let len = codec::read_varint(&mut cur)? as usize;
            if cur.len() != len {
                return Err(GcxError::Codec(format!(
                    "result envelope payload length {} does not match remaining {} bytes",
                    len,
                    cur.len()
                )));
            }
            let off = body.len() - len;
            TaskResult::Ok(Payload::from_parts_unchecked(
                body.slice(off..),
                ContentHash::from_bytes(h),
            ))
        } else if flags & RESULT_ERR != 0 {
            let len = codec::read_varint(&mut cur)? as usize;
            need(cur, len)?;
            let msg = std::str::from_utf8(&cur[..len])
                .map_err(|e| GcxError::Codec(format!("result envelope error not utf-8: {e}")))?;
            TaskResult::Err(msg.to_string())
        } else {
            return Err(GcxError::Codec(
                "result envelope missing ok/err flag".into(),
            ));
        };
        Ok((task_id, result, sent_ms))
    }

    /// Convert to a `GcxResult<Value>` as the SDK's future resolves it.
    /// Marked errors become retryable [`GcxError::Transient`], everything
    /// else a fatal [`GcxError::Execution`]. This is where the success
    /// payload is finally decoded back into a structured value.
    pub fn into_result(self) -> GcxResult<Value> {
        match self {
            TaskResult::Ok(p) => p.decode(),
            TaskResult::Err(e) => {
                if let Some(msg) = e.strip_prefix(RETRYABLE_MARKER) {
                    return Err(GcxError::Transient(msg.to_string()));
                }
                if let Some(rest) = e.strip_prefix(DEADLINE_MARKER) {
                    // The marker is followed by the task id; a corrupted
                    // payload falls through to a plain execution error.
                    if let Ok(id) = rest.split_whitespace().next().unwrap_or("").parse() {
                        return Err(GcxError::DeadlineExceeded(TaskId(id)));
                    }
                }
                Err(GcxError::Execution(e))
            }
        }
    }
}

/// The web service's durable record of a task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskRecord {
    /// The submitted spec.
    pub spec: TaskSpec,
    /// The submitting identity.
    pub owner: IdentityId,
    /// Current lifecycle state.
    pub state: TaskState,
    /// Result, present once terminal.
    pub result: Option<TaskResult>,
    /// Submission timestamp (cloud clock).
    pub submitted_at: TimeMs,
    /// When the task was shipped to the endpoint's queue, if it has been.
    #[serde(default)]
    pub dispatched_at: Option<TimeMs>,
    /// When execution started (first transition to `Running`), if it has.
    #[serde(default)]
    pub started_at: Option<TimeMs>,
    /// Completion timestamp, once terminal.
    pub(crate) completed_at: Option<TimeMs>,
}

impl TaskRecord {
    /// Create a fresh record in [`TaskState::Received`].
    pub fn new(spec: TaskSpec, owner: IdentityId, now: TimeMs) -> Self {
        Self {
            spec,
            owner,
            state: TaskState::Received,
            result: None,
            submitted_at: now,
            dispatched_at: None,
            started_at: None,
            completed_at: None,
        }
    }

    /// Apply a state transition, enforcing the lifecycle state machine.
    /// Stage timestamps are stamped on first entry (re-deliveries after a
    /// recovery keep the original stamps, matching the trace's first spans).
    pub fn transition(&mut self, next: TaskState, now: TimeMs) -> GcxResult<()> {
        if !self.state.can_transition_to(next) {
            return Err(GcxError::Internal(format!(
                "illegal task transition {} -> {} for {}",
                self.state.label(),
                next.label(),
                self.spec.task_id
            )));
        }
        self.state = next;
        if next == TaskState::Running && self.started_at.is_none() {
            self.started_at = Some(now);
        }
        if next.is_terminal() {
            self.completed_at = Some(now);
        }
        Ok(())
    }

    /// Record a result, moving to `Success`/`Failed` as appropriate.
    pub fn complete(&mut self, result: TaskResult, now: TimeMs) -> GcxResult<()> {
        let next = match &result {
            TaskResult::Ok(_) => TaskState::Success,
            TaskResult::Err(_) => TaskState::Failed,
        };
        self.transition(next, now)?;
        self.result = Some(result);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> TaskSpec {
        let mut s = TaskSpec::new(FunctionId::random(), EndpointId::random());
        s.set_args(
            vec![Value::Int(1), Value::str("x")],
            Value::map([("k", Value::Bool(true))]),
        );
        s.resource_spec = ResourceSpec::nodes_ranks(2, 2);
        s
    }

    #[test]
    fn state_machine_legal_paths() {
        use TaskState::*;
        assert!(Received.can_transition_to(WaitingForNodes));
        assert!(Received.can_transition_to(Running));
        assert!(WaitingForNodes.can_transition_to(Running));
        assert!(Running.can_transition_to(Success));
        assert!(Running.can_transition_to(Failed));
        assert!(Received.can_transition_to(Cancelled));
    }

    #[test]
    fn state_machine_illegal_paths() {
        use TaskState::*;
        assert!(!Success.can_transition_to(Running));
        assert!(!Failed.can_transition_to(Success));
        assert!(!Cancelled.can_transition_to(Running));
        assert!(!Running.can_transition_to(Received));
        assert!(!Success.can_transition_to(Success));
        assert!(
            !WaitingForNodes.can_transition_to(Success),
            "must pass through Running"
        );
    }

    #[test]
    fn record_lifecycle() {
        let mut r = TaskRecord::new(spec(), IdentityId::random(), 100);
        assert_eq!(r.state, TaskState::Received);
        r.transition(TaskState::Running, 110).unwrap();
        r.complete(TaskResult::ok(Value::Int(42)), 120).unwrap();
        assert_eq!(r.state, TaskState::Success);
        assert_eq!(r.completed_at, Some(120));
        // Completing twice is illegal.
        assert!(r.complete(TaskResult::ok(Value::Int(1)), 130).is_err());
    }

    #[test]
    fn record_stamps_stage_timestamps_once() {
        let mut r = TaskRecord::new(spec(), IdentityId::random(), 100);
        assert_eq!((r.dispatched_at, r.started_at), (None, None));
        r.dispatched_at = Some(105);
        r.transition(TaskState::WaitingForNodes, 110).unwrap();
        r.transition(TaskState::Running, 120).unwrap();
        assert_eq!(r.started_at, Some(120));
        r.complete(TaskResult::ok(Value::Int(1)), 130).unwrap();
        assert_eq!(
            (r.submitted_at, r.dispatched_at, r.started_at),
            (100, Some(105), Some(120))
        );
    }

    #[test]
    fn failure_result_becomes_failed_state() {
        let mut r = TaskRecord::new(spec(), IdentityId::random(), 0);
        r.transition(TaskState::Running, 1).unwrap();
        r.complete(TaskResult::Err("boom".into()), 2).unwrap();
        assert_eq!(r.state, TaskState::Failed);
        assert!(matches!(
            r.result.clone().unwrap().into_result(),
            Err(GcxError::Execution(m)) if m == "boom"
        ));
    }

    #[test]
    fn retryable_marker_roundtrip() {
        let r = TaskResult::retryable_err("endpoint went offline");
        assert!(r.is_retryable_err());
        assert!(!TaskResult::Err("boom".into()).is_retryable_err());
        // The marker survives the wire codec and decodes as Transient.
        let back = TaskResult::from_value(&r.to_value()).unwrap();
        match back.into_result() {
            Err(GcxError::Transient(m)) => assert_eq!(m, "endpoint went offline"),
            other => panic!("expected Transient, got {other:?}"),
        }
    }

    #[test]
    fn expiry_instant_is_submission_plus_deadline() {
        assert_eq!(spec().expires_at(100), None);
        let mut d = spec();
        d.deadline_ms = Some(50);
        assert_eq!(d.expires_at(100), Some(150));
    }

    #[test]
    fn deadline_marker_roundtrip() {
        let id = TaskId::random();
        let r = TaskResult::deadline_err(id);
        assert!(r.is_deadline_err());
        assert!(!r.is_retryable_err());
        let back = TaskResult::from_value(&r.to_value()).unwrap();
        match back.into_result() {
            Err(GcxError::DeadlineExceeded(got)) => assert_eq!(got, id),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        // A corrupted marker body degrades to a plain execution error.
        let garbled = TaskResult::Err(format!("{DEADLINE_MARKER}not-a-uuid"));
        assert!(matches!(garbled.into_result(), Err(GcxError::Execution(_))));
    }

    #[test]
    fn result_value_roundtrip() {
        for r in [TaskResult::ok(Value::Int(5)), TaskResult::Err("e".into())] {
            assert_eq!(TaskResult::from_value(&r.to_value()).unwrap(), r);
        }
        assert!(TaskResult::from_value(&Value::map([("neither", Value::None)])).is_err());
    }

    #[test]
    fn labels() {
        assert_eq!(TaskState::WaitingForNodes.label(), "waiting-for-nodes");
        assert_eq!(TaskState::Success.label(), "success");
    }

    #[test]
    fn args_roundtrip_through_spec() {
        let s = spec();
        let (args, kwargs) = s.decode_args().unwrap();
        assert_eq!(args, vec![Value::Int(1), Value::str("x")]);
        assert_eq!(kwargs, Value::map([("k", Value::Bool(true))]));
        // A bare spec decodes to empty args without ever encoding.
        let bare = TaskSpec::new(FunctionId::random(), EndpointId::random());
        let (args, kwargs) = bare.decode_args().unwrap();
        assert!(args.is_empty());
        assert_eq!(kwargs, Value::map([] as [(&str, Value); 0]));
    }

    #[test]
    fn spec_binary_message_roundtrip() {
        let mut s = spec();
        s.trace = Some(TraceContext {
            trace_id: crate::trace::TraceId::random(),
            parent: crate::trace::SpanId::random(),
        });
        s.deadline_ms = Some(12_345);
        s.priority = -3;
        s.user_endpoint_config = Value::map([("worker_init", Value::str("x"))]);
        let body = s.to_message(true);
        let (back, is_ref) = TaskSpec::from_message(&body).unwrap();
        assert!(!is_ref);
        assert_eq!(back, s);
        // The inlined payload is a zero-copy slice of the message body.
        let base = body.as_ptr() as usize;
        let p = back.payload.as_slice().as_ptr() as usize;
        assert!(p >= base && p < base + body.len());
    }

    #[test]
    fn spec_binary_message_ref_payload() {
        let s = spec();
        let body = s.to_message(false);
        assert!(body.len() < s.to_message(true).len());
        let (back, is_ref) = TaskSpec::from_message(&body).unwrap();
        assert!(is_ref);
        assert_eq!(back.payload.hash(), s.payload.hash());
        assert!(back.payload.is_empty());
        assert_eq!(back.task_id, s.task_id);
        assert_eq!(back.function_id, s.function_id);
        assert_eq!(back.endpoint_id, s.endpoint_id);
    }

    #[test]
    fn spec_binary_message_rejects_garbage() {
        assert!(TaskSpec::from_message(&Bytes::from(vec![9u8; 4])).is_err());
        let mut bytes = spec().to_message(true).to_vec();
        bytes.truncate(bytes.len() - 1);
        assert!(TaskSpec::from_message(&Bytes::from(bytes)).is_err());
    }

    #[test]
    fn result_envelope_roundtrip() {
        let id = TaskId::random();
        let val = Value::List(vec![Value::Int(1), Value::str("x")]);
        let r = TaskResult::ok(val.clone());
        let env = r.to_envelope(id, Some(777));
        let (tid, back, sent) = TaskResult::from_envelope(&env).unwrap();
        assert_eq!(tid, id);
        assert_eq!(back, r);
        assert_eq!(sent, Some(777));
        assert_eq!(back.ok_value(), Some(val));

        let e = TaskResult::Err("boom".into());
        let env = e.to_envelope(id, None);
        let (tid, back, sent) = TaskResult::from_envelope(&env).unwrap();
        assert_eq!((tid, back, sent), (id, e, None));
    }

    #[test]
    fn result_envelope_payload_is_sliced_not_copied() {
        let env = TaskResult::ok(Value::Bytes(vec![7u8; 512])).to_envelope(TaskId::random(), None);
        let (_, back, _) = TaskResult::from_envelope(&env).unwrap();
        let TaskResult::Ok(p) = back else {
            panic!("expected ok")
        };
        let base = env.as_ptr() as usize;
        let ptr = p.as_slice().as_ptr() as usize;
        assert!(ptr >= base && ptr < base + env.len());
    }

    #[test]
    fn result_envelope_rejects_garbage() {
        assert!(TaskResult::from_envelope(&Bytes::from(vec![1u8; 3])).is_err());
        let env = TaskResult::ok(Value::Int(1)).to_envelope(TaskId::random(), None);
        let mut v = env.to_vec();
        v[17] = 0; // clear the ok/err flag bits
        assert!(TaskResult::from_envelope(&Bytes::from(v)).is_err());
    }
}
