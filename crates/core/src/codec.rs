//! The wire codec: a compact, self-describing binary encoding of [`Value`].
//!
//! This is the stand-in for the serialization layer (dill + base64 in the
//! production SDK). Every payload that crosses a simulated network boundary —
//! task submissions, queued messages, results — is actually encoded to bytes
//! and decoded on the far side, so byte counts reported by the benchmark
//! harness are real, and codec bugs can't hide behind in-process reference
//! passing.
//!
//! Format (version 1): a one-byte format version, then a tag-length-value
//! tree. Integers are varint-encoded (LEB128) so small values — the common
//! case for task metadata — stay small.

use std::collections::BTreeMap;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::error::{GcxError, GcxResult};
use crate::value::Value;

/// Format version emitted by [`encode`].
pub(crate) const CODEC_VERSION: u8 = 1;

/// Nesting depth limit: protects the decoder against stack exhaustion from
/// hostile payloads.
const MAX_DEPTH: usize = 64;

mod tag {
    pub(crate) const NONE: u8 = 0x00;
    pub(crate) const FALSE: u8 = 0x01;
    pub(crate) const TRUE: u8 = 0x02;
    pub(crate) const INT: u8 = 0x03;
    pub(crate) const FLOAT: u8 = 0x04;
    pub(crate) const STR: u8 = 0x05;
    pub(crate) const BYTES: u8 = 0x06;
    pub(crate) const LIST: u8 = 0x07;
    pub(crate) const MAP: u8 = 0x08;
}

/// Encode a value to its wire representation.
pub fn encode(v: &Value) -> Bytes {
    let mut buf = BytesMut::with_capacity(v.approx_size() + 1);
    buf.put_u8(CODEC_VERSION);
    encode_into(v, &mut buf);
    buf.freeze()
}

/// Append the wire representation of `v` to `out` — what [`encode`] would
/// return, without the intermediate buffer. The frame encoder writes payloads
/// straight into its (reused) write buffer through this.
pub(crate) fn encode_to(v: &Value, out: &mut Vec<u8>) {
    out.reserve(v.approx_size() + 1);
    out.push(CODEC_VERSION);
    encode_into(v, out);
}

/// The number of bytes [`encode`] would produce, without allocating.
pub fn encoded_size(v: &Value) -> usize {
    1 + value_size(v)
}

/// Decode a wire payload produced by [`encode`].
pub fn decode(data: &[u8]) -> GcxResult<Value> {
    let mut cur = data;
    if !cur.has_remaining() {
        return Err(GcxError::Codec("empty payload".into()));
    }
    let version = cur.get_u8();
    if version != CODEC_VERSION {
        return Err(GcxError::Codec(format!(
            "unsupported codec version {version} (expected {CODEC_VERSION})"
        )));
    }
    let v = decode_value(&mut cur, 0)?;
    if cur.has_remaining() {
        return Err(GcxError::Codec(format!(
            "{} trailing bytes after value",
            cur.remaining()
        )));
    }
    Ok(v)
}

fn encode_into<B: BufMut>(v: &Value, buf: &mut B) {
    match v {
        Value::None => buf.put_u8(tag::NONE),
        Value::Bool(false) => buf.put_u8(tag::FALSE),
        Value::Bool(true) => buf.put_u8(tag::TRUE),
        Value::Int(i) => {
            buf.put_u8(tag::INT);
            put_varint(buf, zigzag(*i));
        }
        Value::Float(f) => {
            buf.put_u8(tag::FLOAT);
            buf.put_f64(*f);
        }
        Value::Str(s) => {
            buf.put_u8(tag::STR);
            put_varint(buf, s.len() as u64);
            buf.put_slice(s.as_bytes());
        }
        Value::Bytes(b) => {
            buf.put_u8(tag::BYTES);
            put_varint(buf, b.len() as u64);
            buf.put_slice(b);
        }
        Value::List(items) => {
            buf.put_u8(tag::LIST);
            put_varint(buf, items.len() as u64);
            for item in items {
                encode_into(item, buf);
            }
        }
        Value::Map(m) => {
            buf.put_u8(tag::MAP);
            put_varint(buf, m.len() as u64);
            for (k, item) in m {
                put_varint(buf, k.len() as u64);
                buf.put_slice(k.as_bytes());
                encode_into(item, buf);
            }
        }
    }
}

fn value_size(v: &Value) -> usize {
    match v {
        Value::None | Value::Bool(_) => 1,
        Value::Int(i) => 1 + varint_size(zigzag(*i)),
        Value::Float(_) => 9,
        Value::Str(s) => 1 + varint_size(s.len() as u64) + s.len(),
        Value::Bytes(b) => 1 + varint_size(b.len() as u64) + b.len(),
        Value::List(items) => {
            1 + varint_size(items.len() as u64) + items.iter().map(value_size).sum::<usize>()
        }
        Value::Map(m) => {
            1 + varint_size(m.len() as u64)
                + m.iter()
                    .map(|(k, v)| varint_size(k.len() as u64) + k.len() + value_size(v))
                    .sum::<usize>()
        }
    }
}

fn decode_value(cur: &mut &[u8], depth: usize) -> GcxResult<Value> {
    if depth > MAX_DEPTH {
        return Err(GcxError::Codec("nesting too deep".into()));
    }
    let t = take_u8(cur)?;
    Ok(match t {
        tag::NONE => Value::None,
        tag::FALSE => Value::Bool(false),
        tag::TRUE => Value::Bool(true),
        tag::INT => Value::Int(unzigzag(get_varint(cur)?)),
        tag::FLOAT => {
            if cur.remaining() < 8 {
                return Err(truncated());
            }
            Value::Float(cur.get_f64())
        }
        tag::STR => {
            let bytes = take_bytes(cur)?;
            Value::Str(
                String::from_utf8(bytes)
                    .map_err(|e| GcxError::Codec(format!("invalid utf-8 in str: {e}")))?,
            )
        }
        tag::BYTES => Value::Bytes(take_bytes(cur)?),
        tag::LIST => {
            let n = get_varint(cur)? as usize;
            // Guard against length bombs: each element needs at least 1 byte.
            if n > cur.remaining() {
                return Err(truncated());
            }
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(decode_value(cur, depth + 1)?);
            }
            Value::List(items)
        }
        tag::MAP => {
            let n = get_varint(cur)? as usize;
            if n > cur.remaining() {
                return Err(truncated());
            }
            let mut m = BTreeMap::new();
            for _ in 0..n {
                let key_bytes = take_bytes(cur)?;
                let key = String::from_utf8(key_bytes)
                    .map_err(|e| GcxError::Codec(format!("invalid utf-8 in key: {e}")))?;
                let val = decode_value(cur, depth + 1)?;
                m.insert(key, val);
            }
            Value::Map(m)
        }
        other => return Err(GcxError::Codec(format!("unknown tag 0x{other:02x}"))),
    })
}

fn truncated() -> GcxError {
    GcxError::Codec("truncated payload".into())
}

fn take_u8(cur: &mut &[u8]) -> GcxResult<u8> {
    if !cur.has_remaining() {
        return Err(truncated());
    }
    Ok(cur.get_u8())
}

fn take_bytes(cur: &mut &[u8]) -> GcxResult<Vec<u8>> {
    let len = get_varint(cur)? as usize;
    if cur.remaining() < len {
        return Err(truncated());
    }
    let out = cur[..len].to_vec();
    cur.advance(len);
    Ok(out)
}

/// Append a LEB128 varint to a plain byte vector. Public for the binary
/// task/result message formats in [`crate::task`], which share the codec's
/// integer encoding without going through a `Value` tree.
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Read a LEB128 varint, advancing `cur` past it. Counterpart of
/// [`write_varint`].
pub fn read_varint(cur: &mut &[u8]) -> GcxResult<u64> {
    get_varint(cur)
}

/// Zigzag-map a signed integer for varint encoding (public counterpart of
/// the codec-internal mapping, shared by the binary task message format).
pub(crate) fn zigzag_encode(i: i64) -> u64 {
    zigzag(i)
}

/// Inverse of [`zigzag_encode`].
pub(crate) fn zigzag_decode(u: u64) -> i64 {
    unzigzag(u)
}

fn zigzag(i: i64) -> u64 {
    ((i << 1) ^ (i >> 63)) as u64
}

fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

fn put_varint<B: BufMut>(buf: &mut B, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Bytes [`write_varint`] emits for `v`.
pub(crate) fn varint_size(mut v: u64) -> usize {
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
}

fn get_varint(cur: &mut &[u8]) -> GcxResult<u64> {
    let mut v: u64 = 0;
    for shift in (0..64).step_by(7) {
        let byte = take_u8(cur)?;
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(GcxError::Codec("varint too long".into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: Value) {
        let bytes = encode(&v);
        assert_eq!(bytes.len(), encoded_size(&v), "size prediction for {v:?}");
        let back = decode(&bytes).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(Value::None);
        roundtrip(Value::Bool(true));
        roundtrip(Value::Bool(false));
        roundtrip(Value::Int(0));
        roundtrip(Value::Int(-1));
        roundtrip(Value::Int(i64::MAX));
        roundtrip(Value::Int(i64::MIN));
        roundtrip(Value::Float(3.5));
        roundtrip(Value::Float(f64::INFINITY));
        roundtrip(Value::str("héllo wörld"));
        roundtrip(Value::Bytes(vec![0, 255, 127]));
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(Value::List(vec![
            Value::Int(1),
            Value::str("two"),
            Value::List(vec![Value::None]),
        ]));
        roundtrip(Value::map([
            ("args", Value::List(vec![Value::Int(1)])),
            ("kwargs", Value::map([("x", Value::Float(2.5))])),
        ]));
    }

    #[test]
    fn small_ints_are_small() {
        assert_eq!(encoded_size(&Value::Int(0)), 3); // version + tag + varint
        assert_eq!(encoded_size(&Value::Int(63)), 3);
        assert!(encoded_size(&Value::Int(i64::MAX)) > 5);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(decode(&[]).is_err());
        assert!(decode(&[99]).is_err()); // bad version
        assert!(decode(&[1, 0xEE]).is_err()); // unknown tag
        assert!(decode(&[1, tag::STR, 10, b'a']).is_err()); // truncated str
                                                            // trailing bytes
        let mut good = encode(&Value::Int(1)).to_vec();
        good.push(0);
        assert!(decode(&good).is_err());
    }

    #[test]
    fn rejects_length_bomb() {
        // A list claiming u32::MAX elements with no content must fail fast,
        // not allocate.
        let mut buf = BytesMut::new();
        buf.put_u8(CODEC_VERSION);
        buf.put_u8(tag::LIST);
        put_varint(&mut buf, u32::MAX as u64);
        assert!(decode(&buf).is_err());
    }

    #[test]
    fn rejects_invalid_utf8() {
        let mut buf = BytesMut::new();
        buf.put_u8(CODEC_VERSION);
        buf.put_u8(tag::STR);
        put_varint(&mut buf, 2);
        buf.put_slice(&[0xFF, 0xFE]);
        assert!(decode(&buf).is_err());
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let mut v = Value::Int(1);
        for _ in 0..100 {
            v = Value::List(vec![v]);
        }
        let bytes = encode(&v);
        assert!(matches!(decode(&bytes), Err(GcxError::Codec(_))));
    }

    #[test]
    fn zigzag_roundtrip() {
        for i in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(i)), i);
        }
    }

    #[test]
    fn encoding_is_deterministic_across_map_insert_order() {
        let a = Value::map([("b", Value::Int(2)), ("a", Value::Int(1))]);
        let b = Value::map([("a", Value::Int(1)), ("b", Value::Int(2))]);
        assert_eq!(encode(&a), encode(&b));
    }
}
