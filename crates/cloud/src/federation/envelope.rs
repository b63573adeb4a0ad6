//! The bytes the federation puts on its own broker queues, laid out here
//! and nowhere else: the replica-to-replica [`Envelope`] on `fed.rpc.<r>`
//! and the durable [`TaskLogEntry`] on `fed.tasklog.<r>`. Both are a short
//! header (scalars are codec varints) in front of a body the task path
//! already has and already property-tests:
//!
//! ```text
//! envelope   [version][kind][routing task id 16][epoch][hop], then
//!   submit   [identity 16][submitted_at][forwarded_ms][batch::write_specs body, >= 1 spec]
//!   result   [retry][TaskResult::write_envelope body: task id, sent_ms, result]
//!   state    [endpoint id 16][TaskState::label]
//! log entry  [version][tag], then
//!   open     [identity 16][submitted_at][batch::write_specs body, exactly 1 spec]
//!   done     [TaskResult::write_envelope body]
//!   moved | expired   [task id 16]
//! ```
//!
//! A forwarded submit carries every spec one `submit_batch` sends to one
//! owner, so batching falls out of reusing the wire's body. The routing id
//! is the task the envelope is about (a batch's first); a body that
//! disagrees with it is refused. Specs are decoded with
//! [`batch::unpack_specs`], which recomputes every payload's content hash
//! and refuses reference-form bodies: federation ingress and log replay sit
//! behind the same trust boundary as wire ingress. Any defect is a typed
//! `Codec` error for the whole message.

use bytes::Bytes;
use gcx_core::codec::{read_varint, write_varint};
use gcx_core::error::{GcxError, GcxResult};
use gcx_core::ids::{EndpointId, IdentityId, TaskId, Uuid};
use gcx_core::task::{TaskResult, TaskSpec, TaskState};
use gcx_core::wire::batch;

use super::log::TaskLogEntry;

const VERSION: u8 = 1;
const SUBMIT: u8 = 1;
const RESULT: u8 = 2;
const STATE: u8 = 3;
const OPEN: u8 = 1;
const DONE: u8 = 2;
const MOVED: u8 = 3;
const EXPIRED: u8 = 4;

/// One replica-to-replica message.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// The sender's ownership epoch.
    pub epoch: u64,
    /// Replica-to-replica hops taken so far.
    pub hop: u64,
    pub body: Body,
}

/// Who submitted a forwarded batch, and when it was accepted and sent on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Forwarded {
    pub identity: IdentityId,
    pub submitted_at: u64,
    pub forwarded_ms: u64,
}

/// What an [`Envelope`] carries.
#[derive(Debug, Clone, PartialEq)]
pub enum Body {
    /// Validated, deliverable specs (endpoint already resolved) for their
    /// owner to install and ship.
    Submit(Forwarded, Vec<TaskSpec>),
    /// A result some other replica picked off the shared result queue;
    /// `retry` counts the owner's requeues while the record is mid-handover.
    Result {
        task_id: TaskId,
        result: TaskResult,
        sent_ms: Option<u64>,
        retry: u64,
    },
    /// An endpoint's state report.
    State {
        task_id: TaskId,
        endpoint: EndpointId,
        state: TaskState,
    },
}

impl Body {
    /// The task this body is routed by (a submit batch's first).
    pub(crate) fn routing_id(&self) -> Option<TaskId> {
        match self {
            Body::Submit(_, specs) => specs.first().map(|s| s.task_id),
            Body::Result { task_id, .. } | Body::State { task_id, .. } => Some(*task_id),
        }
    }
}

impl Envelope {
    pub fn encode(&self) -> GcxResult<Bytes> {
        let key = self.body.routing_id();
        let key = key.ok_or_else(|| GcxError::Codec("fed envelope: empty submit".into()))?;
        let mut out = vec![VERSION];
        let header = |out: &mut Vec<u8>, kind| {
            out.push(kind);
            out.extend_from_slice(&key.uuid().as_bytes());
            write_varint(out, self.epoch);
            write_varint(out, self.hop);
        };
        match &self.body {
            Body::Submit(from, specs) => {
                header(&mut out, SUBMIT);
                out.extend_from_slice(&from.identity.uuid().as_bytes());
                write_varint(&mut out, from.submitted_at);
                write_varint(&mut out, from.forwarded_ms);
                batch::write_specs(specs, &mut out)?;
            }
            Body::Result {
                task_id,
                result,
                sent_ms,
                retry,
            } => {
                header(&mut out, RESULT);
                write_varint(&mut out, *retry);
                result.write_envelope(*task_id, *sent_ms, &mut out);
            }
            Body::State {
                endpoint, state, ..
            } => {
                header(&mut out, STATE);
                out.extend_from_slice(&endpoint.uuid().as_bytes());
                out.extend_from_slice(state.label().as_bytes());
            }
        }
        Ok(Bytes::from(out))
    }

    /// Decode a message received off an rpc queue. Payloads are slices of
    /// `bytes` (or one copy when small, see [`batch::unpack_specs`]).
    pub fn decode(bytes: &Bytes) -> GcxResult<Self> {
        let cur = &mut &bytes[..];
        let kind = versioned(cur)?;
        let key = TaskId(uuid(cur)?);
        let (epoch, hop) = (read_varint(cur)?, read_varint(cur)?);
        let body = match kind {
            SUBMIT => {
                let from = Forwarded {
                    identity: IdentityId(uuid(cur)?),
                    submitted_at: read_varint(cur)?,
                    forwarded_ms: read_varint(cur)?,
                };
                Body::Submit(from, batch::unpack_specs(&rest(bytes, cur))?)
            }
            RESULT => {
                let retry = read_varint(cur)?;
                let (task_id, result, sent_ms) = TaskResult::from_envelope(&rest(bytes, cur))?;
                Body::Result {
                    task_id,
                    result,
                    sent_ms,
                    retry,
                }
            }
            STATE => Body::State {
                task_id: key,
                endpoint: EndpointId(uuid(cur)?),
                state: TaskState::from_label(&String::from_utf8_lossy(cur))?,
            },
            other => return Err(GcxError::Codec(format!("fed envelope: kind {other}"))),
        };
        if body.routing_id() != Some(key) {
            let why = format!("fed envelope: routed by task {key}, which its body is not about");
            return Err(GcxError::Codec(why));
        }
        Ok(Self { epoch, hop, body })
    }
}

/// The `Open` log entry for a deliverable `spec`, without boxing a copy of
/// it into a [`TaskLogEntry`] first (the submit path appends one per task).
pub(crate) fn open_entry(spec: &TaskSpec, owner: IdentityId, at: u64) -> GcxResult<Bytes> {
    let mut out = vec![VERSION, OPEN];
    out.extend_from_slice(&owner.uuid().as_bytes());
    write_varint(&mut out, at);
    batch::write_specs(std::slice::from_ref(spec), &mut out)?;
    Ok(Bytes::from(out))
}

impl TaskLogEntry {
    /// Pack to the form kept on `fed.tasklog.<r>`.
    pub fn encode(&self) -> GcxResult<Bytes> {
        let tombstone = |tag, task_id: &TaskId| {
            let mut out = vec![VERSION, tag];
            out.extend_from_slice(&task_id.uuid().as_bytes());
            out
        };
        Ok(Bytes::from(match self {
            TaskLogEntry::Open {
                spec,
                owner,
                submitted_at,
            } => return open_entry(spec, *owner, *submitted_at),
            TaskLogEntry::Done { task_id, result } => {
                let mut out = vec![VERSION, DONE];
                result.write_envelope(*task_id, None, &mut out);
                out
            }
            TaskLogEntry::Moved { task_id } => tombstone(MOVED, task_id),
            TaskLogEntry::Expired { task_id } => tombstone(EXPIRED, task_id),
        }))
    }

    /// Decode an entry drained off a task log.
    pub fn decode(bytes: &Bytes) -> GcxResult<Self> {
        let cur = &mut &bytes[..];
        let tag = versioned(cur)?;
        Ok(match tag {
            OPEN => {
                let owner = IdentityId(uuid(cur)?);
                let submitted_at = read_varint(cur)?;
                let mut specs = batch::unpack_specs(&rest(bytes, cur))?;
                let (Some(spec), true) = (specs.pop(), specs.is_empty()) else {
                    return Err(GcxError::Codec("task log: open is one spec".into()));
                };
                TaskLogEntry::Open {
                    spec: Box::new(spec),
                    owner,
                    submitted_at,
                }
            }
            DONE => {
                let (task_id, result, _) = TaskResult::from_envelope(&rest(bytes, cur))?;
                TaskLogEntry::Done { task_id, result }
            }
            MOVED | EXPIRED => {
                let task_id = TaskId(uuid(cur)?);
                if !cur.is_empty() {
                    return Err(GcxError::Codec("task log: trailing bytes".into()));
                }
                match tag {
                    MOVED => TaskLogEntry::Moved { task_id },
                    _ => TaskLogEntry::Expired { task_id },
                }
            }
            other => return Err(GcxError::Codec(format!("task log: tag {other}"))),
        })
    }
}

// Readers over a received message: every read is checked against what is
// left.

fn take<'a>(cur: &mut &'a [u8], n: usize) -> GcxResult<&'a [u8]> {
    if cur.len() < n {
        return Err(GcxError::Codec("federation message truncated".into()));
    }
    let (head, tail) = cur.split_at(n);
    *cur = tail;
    Ok(head)
}

/// Check the version byte; the kind (or tag) byte that follows it.
fn versioned(cur: &mut &[u8]) -> GcxResult<u8> {
    match take(cur, 2)? {
        [VERSION, kind] => Ok(*kind),
        other => Err(GcxError::Codec(format!(
            "federation message version {}",
            other[0]
        ))),
    }
}

fn uuid(cur: &mut &[u8]) -> GcxResult<Uuid> {
    let bytes = take(cur, 16)?.try_into().expect("16 bytes taken");
    Ok(Uuid::from_bytes(bytes))
}

/// What `cur` has not read of `bytes`, as a zero-copy slice.
fn rest(bytes: &Bytes, cur: &[u8]) -> Bytes {
    bytes.slice(bytes.len() - cur.len()..)
}
