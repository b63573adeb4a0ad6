//! The per-task bodies of the wire, as flat bytes.
//!
//! Two messages carry one entry per task and would otherwise cost a `Value`
//! tree per task: the `submit_batch` request (and its id list) and the
//! server-push result stream. Both travel as a single codec `Value::Bytes`
//! whose contents are laid out here:
//!
//! ```text
//! submit params   ([u32 BE len][TaskSpec::to_message(true) body])*
//! submit response ([16-byte task uuid])*
//! push payload    ([0|1][25-byte trace context if 1][varint len][result envelope])*
//! ```
//!
//! The bodies inside are the mq's own flat forms ([`TaskSpec::to_message`],
//! [`TaskResult::to_envelope`](crate::task::TaskResult::to_envelope)), so a
//! task crosses the wire the way it crosses a queue. Decoders slice entries
//! out of the one received buffer; nothing is copied per task.
//!
//! These bytes come from a peer: every length is checked against what is
//! left, and [`unpack_specs`] is the trust boundary for payload hashes.

use bytes::Bytes;

use crate::codec;
use crate::error::{GcxError, GcxResult};
use crate::ids::{TaskId, Uuid};
use crate::payload::{ContentHash, Payload};
use crate::task::TaskSpec;
use crate::trace::TraceContext;
use crate::wire::{decode_trace_ctx, encode_trace_ctx, TRACE_CTX_LEN};

/// A received payload shorter than this gets its own allocation instead of a
/// slice of the batch buffer: a slice keeps the *whole* buffer alive for as
/// long as the task record holding it lives, which for a
/// few argument bytes is a ten-fold overhead. Larger payloads stay zero-copy.
const SLICE_MIN: usize = 1024;

/// Pack `specs` as the `submit_batch` request params.
pub fn pack_specs(specs: &[TaskSpec]) -> GcxResult<Vec<u8>> {
    let mut out = Vec::with_capacity(specs.iter().map(|s| 128 + s.payload.len()).sum());
    write_specs(specs, &mut out)?;
    Ok(out)
}

/// Append the [`pack_specs`] body to `out` (a caller with its own header in
/// front — the federation envelope — packs into one buffer this way).
pub fn write_specs(specs: &[TaskSpec], out: &mut Vec<u8>) -> GcxResult<()> {
    for spec in specs {
        let at = out.len();
        out.extend_from_slice(&[0u8; 4]);
        spec.write_message(true, out);
        let size = out.len() - at - 4;
        let len = u32::try_from(size).map_err(|_| GcxError::PayloadTooLarge {
            size,
            limit: u32::MAX as usize,
        })?;
        out[at..at + 4].copy_from_slice(&len.to_be_bytes());
    }
    Ok(())
}

/// Decode `submit_batch` params received from a peer. A spec's payload is a
/// zero-copy slice of `body`, or one copy when it is small (`SLICE_MIN`).
///
/// This is where a payload's carried [`ContentHash`] stops being a claim:
/// it is recomputed over the received bytes and must match, and a
/// by-reference body (hash only — a form the service emits toward endpoints,
/// never accepts) is refused. Any defect refuses the whole batch with a
/// typed `Codec` error before a single spec reaches the service.
pub fn unpack_specs(body: &Bytes) -> GcxResult<Vec<TaskSpec>> {
    // A task message is at least 67 bytes; the hint is capped so a hostile
    // body cannot size the allocation.
    let mut specs = Vec::with_capacity((body.len() / 64).min(1024));
    let mut at = 0usize;
    while at < body.len() {
        let rest = &body[at..];
        if rest.len() < 4 {
            return Err(GcxError::Codec("submit body: truncated length".into()));
        }
        let len = u32::from_be_bytes(rest[..4].try_into().expect("4 bytes checked")) as usize;
        if rest.len() - 4 < len {
            return Err(GcxError::Codec(format!(
                "submit body: entry of {len} bytes but only {} left",
                rest.len() - 4
            )));
        }
        let (mut spec, is_ref) = TaskSpec::from_message(&body.slice(at + 4..at + 4 + len))?;
        if is_ref {
            return Err(GcxError::Codec(format!(
                "submit body: task {} carries a payload reference, not its bytes",
                spec.task_id
            )));
        }
        if ContentHash::of(spec.payload.as_slice()) != spec.payload.hash() {
            return Err(GcxError::Codec(format!(
                "submit body: task {} payload does not match its content hash",
                spec.task_id
            )));
        }
        if spec.payload.len() < SLICE_MIN {
            spec.payload = Payload::from_parts_unchecked(
                Bytes::copy_from_slice(spec.payload.as_slice()),
                spec.payload.hash(),
            );
        }
        specs.push(spec);
        at += 4 + len;
    }
    Ok(specs)
}

/// Pack task ids as the `submit_batch` response.
pub fn pack_ids(ids: &[TaskId]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ids.len() * 16);
    for id in ids {
        out.extend_from_slice(&id.uuid().as_bytes());
    }
    out
}

/// Decode a `submit_batch` response.
pub fn unpack_ids(body: &[u8]) -> GcxResult<Vec<TaskId>> {
    let ids = body.chunks_exact(16);
    if !ids.remainder().is_empty() {
        return Err(GcxError::Codec(format!(
            "id list of {} bytes is not a multiple of 16",
            body.len()
        )));
    }
    Ok(ids
        .map(|c| TaskId(Uuid::from_bytes(c.try_into().expect("16-byte chunk"))))
        .collect())
}

/// Bytes [`write_push_entry`] appends for an envelope of `envelope_len`.
pub fn push_entry_len(traced: bool, envelope_len: usize) -> usize {
    1 + if traced { TRACE_CTX_LEN } else { 0 }
        + codec::varint_size(envelope_len as u64)
        + envelope_len
}

/// Append one pushed result to a `Push` payload: its trace context (so each
/// result of a batch still links into its own trace) and its envelope.
pub fn write_push_entry(out: &mut Vec<u8>, trace: Option<&TraceContext>, envelope: &[u8]) {
    match trace {
        Some(ctx) => {
            out.push(1);
            encode_trace_ctx(ctx, out);
        }
        None => out.push(0),
    }
    codec::write_varint(out, envelope.len() as u64);
    out.extend_from_slice(envelope);
}

/// A received `Push` payload, yielding its entries one at a time. Each
/// envelope is a zero-copy slice of the payload.
#[derive(Debug, Clone, Default)]
pub struct PushBatch {
    body: Bytes,
    at: usize,
}

impl PushBatch {
    pub fn new(body: Bytes) -> Self {
        Self { body, at: 0 }
    }

    /// The next `(trace context, result envelope)`, `Ok(None)` once the
    /// batch is exhausted. A malformed entry is a typed error and ends the
    /// batch: entry boundaries after it are unknowable. The connection's
    /// framing is untouched — the defect is inside one frame's payload.
    pub fn next_entry(&mut self) -> GcxResult<Option<(Option<TraceContext>, Bytes)>> {
        if self.at >= self.body.len() {
            return Ok(None);
        }
        let parsed = self.parse_entry();
        if parsed.is_err() {
            self.at = self.body.len();
        }
        parsed.map(Some)
    }

    fn parse_entry(&mut self) -> GcxResult<(Option<TraceContext>, Bytes)> {
        let mut cur: &[u8] = &self.body[self.at..];
        let trace = match cur[0] {
            0 => {
                cur = &cur[1..];
                None
            }
            1 => {
                if cur.len() < 1 + TRACE_CTX_LEN {
                    return Err(GcxError::Codec(
                        "push entry: short trace context segment".into(),
                    ));
                }
                let ctx = decode_trace_ctx(&cur[1..1 + TRACE_CTX_LEN])?;
                cur = &cur[1 + TRACE_CTX_LEN..];
                ctx
            }
            other => {
                return Err(GcxError::Codec(format!(
                    "push entry: unknown trace marker {other}"
                )))
            }
        };
        let len = codec::read_varint(&mut cur)?;
        if len > cur.len() as u64 {
            return Err(GcxError::Codec(format!(
                "push entry: envelope of {len} bytes but only {} left",
                cur.len()
            )));
        }
        let start = self.body.len() - cur.len();
        let end = start + len as usize;
        self.at = end;
        Ok((trace, self.body.slice(start..end)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{EndpointId, FunctionId};
    use crate::task::TaskResult;
    use crate::trace::{SpanId, TraceId};
    use crate::value::Value;

    fn spec(i: i64) -> TaskSpec {
        let mut s = TaskSpec::new(FunctionId::random(), EndpointId::random());
        s.set_args(vec![Value::Int(i)], Value::None);
        s
    }

    #[test]
    fn specs_and_ids_round_trip() {
        let specs: Vec<TaskSpec> = (0..5).map(spec).collect();
        let body = Bytes::from(pack_specs(&specs).unwrap());
        assert_eq!(unpack_specs(&body).unwrap(), specs);
        let ids: Vec<TaskId> = specs.iter().map(|s| s.task_id).collect();
        assert_eq!(unpack_ids(&pack_ids(&ids)).unwrap(), ids);
        assert!(unpack_specs(&Bytes::new()).unwrap().is_empty());
        assert!(matches!(unpack_ids(&[0u8; 17]), Err(GcxError::Codec(_))));
    }

    #[test]
    fn forged_hash_and_reference_bodies_are_refused() {
        let mut forged = spec(1);
        forged.payload = Payload::from_parts_unchecked(
            forged.payload.bytes().clone(),
            ContentHash(forged.payload.hash().0 ^ 1),
        );
        let body = Bytes::from(pack_specs(&[spec(0), forged]).unwrap());
        assert!(matches!(unpack_specs(&body), Err(GcxError::Codec(_))));

        let msg = spec(2).to_message(false);
        let mut body = (msg.len() as u32).to_be_bytes().to_vec();
        body.extend_from_slice(&msg);
        assert!(matches!(
            unpack_specs(&Bytes::from(body)),
            Err(GcxError::Codec(_))
        ));
    }

    #[test]
    fn push_batch_yields_entries_then_none() {
        let ctx = TraceContext {
            trace_id: TraceId(Uuid(7)),
            parent: SpanId(9),
        };
        let a = TaskResult::ok(Value::Int(1)).to_envelope(TaskId::random(), None);
        let b = TaskResult::Err("boom".into()).to_envelope(TaskId::random(), Some(5));
        let mut body = Vec::new();
        write_push_entry(&mut body, Some(&ctx), &a);
        write_push_entry(&mut body, None, &b);
        assert_eq!(
            body.len(),
            push_entry_len(true, a.len()) + push_entry_len(false, b.len())
        );
        let mut batch = PushBatch::new(Bytes::from(body));
        assert_eq!(batch.next_entry().unwrap(), Some((Some(ctx), a)));
        assert_eq!(batch.next_entry().unwrap(), Some((None, b)));
        assert_eq!(batch.next_entry().unwrap(), None);
    }

    #[test]
    fn short_trace_segment_is_typed_and_ends_the_batch() {
        let mut batch = PushBatch::new(Bytes::from(vec![1u8, 2, 3]));
        assert!(matches!(batch.next_entry(), Err(GcxError::Codec(_))));
        assert_eq!(batch.next_entry().unwrap(), None);
    }
}
