//! The payload byte store: a content-addressed dedup cache for task
//! arguments.
//!
//! "Large task inputs are stored in S3" (§II); here they are interned once
//! in [`CasStore`] and shipped as 16-byte references. Anything over the
//! payload limit (10 MB in production, §V) is rejected outright — that
//! limit is what ProxyStore and Globus Transfer exist to route around.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use gcx_core::metrics::{Counter, MetricsRegistry};
use gcx_core::payload::{ContentHash, Payload};
use parking_lot::Mutex;

/// The payload limit the production service enforces (§V).
pub(crate) const DEFAULT_PAYLOAD_LIMIT: usize = 10 * 1024 * 1024;

/// Outcome of [`CasStore::intern`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Intern {
    /// Identical bytes were already interned — the publisher may ship a
    /// 16-byte reference instead of the payload.
    Hit,
    /// Newly stored; references resolve until the entry is evicted.
    Stored,
    /// The hash slot is occupied by *different* bytes (an FNV collision or a
    /// forged hash), or the payload alone exceeds the cache cap. The payload
    /// must travel inline — a reference could alias the wrong bytes.
    Uncacheable,
}

/// The content-addressed dedup cache: payloads interned by content hash
/// with LRU eviction under a byte cap.
///
/// Repeated payloads (the common case for parameter sweeps and repeated
/// function bodies) are stored and forwarded once; publishers ship the
/// 16-byte hash and consumers resolve it here. Collision safety is by
/// byte comparison on intern: an entry is never overwritten with different
/// bytes, and a hash whose slot holds different bytes is reported
/// [`Intern::Uncacheable`] so the publisher inlines the payload.
#[derive(Clone)]
pub struct CasStore {
    inner: Arc<Mutex<CasInner>>,
    max_bytes: usize,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
}

struct CasInner {
    /// hash → (payload, LRU sequence of its last touch).
    map: HashMap<ContentHash, (Payload, u64)>,
    /// LRU order: sequence → hash. Oldest sequence evicts first.
    order: BTreeMap<u64, ContentHash>,
    /// Monotonic touch sequence.
    seq: u64,
    /// Sum of interned payload lengths.
    total: usize,
}

impl CasStore {
    /// A cache holding at most `max_bytes` of payload bytes. Counters
    /// (`blob.cas_hits/misses/evictions`) are resolved once here.
    pub fn new(max_bytes: usize, metrics: MetricsRegistry) -> Self {
        Self {
            inner: Arc::new(Mutex::new(CasInner {
                map: HashMap::new(),
                order: BTreeMap::new(),
                seq: 0,
                total: 0,
            })),
            max_bytes,
            hits: metrics.counter("blob.cas_hits"),
            misses: metrics.counter("blob.cas_misses"),
            evictions: metrics.counter("blob.cas_evictions"),
        }
    }

    /// Intern a payload. `Hit` when identical bytes are already present
    /// (counted in `blob.cas_hits`), `Stored` when newly inserted (counted
    /// in `blob.cas_misses`), `Uncacheable` on collision or oversize.
    pub fn intern(&self, p: &Payload) -> Intern {
        if p.len() > self.max_bytes {
            return Intern::Uncacheable;
        }
        let mut inner = self.inner.lock();
        let hash = p.hash();
        if let Some((existing, seq)) = inner.map.get(&hash) {
            if existing.as_slice() == p.as_slice() {
                let old_seq = *seq;
                inner.touch(hash, old_seq);
                self.hits.inc();
                return Intern::Hit;
            }
            return Intern::Uncacheable;
        }
        inner.insert(hash, p.clone());
        self.misses.inc();
        while inner.total > self.max_bytes {
            inner.evict_oldest();
            self.evictions.inc();
        }
        Intern::Stored
    }

    /// Resolve a hash to its interned payload, refreshing its LRU slot.
    /// `None` after eviction — never stale or mismatched bytes.
    pub fn get(&self, hash: ContentHash) -> Option<Payload> {
        let mut inner = self.inner.lock();
        let (p, seq) = inner.map.get(&hash)?;
        let (p, old_seq) = (p.clone(), *seq);
        inner.touch(hash, old_seq);
        Some(p)
    }

    /// Number of interned payloads.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// True when nothing is interned.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().map.is_empty()
    }

    /// Sum of interned payload bytes.
    pub fn total_bytes(&self) -> usize {
        self.inner.lock().total
    }
}

impl CasInner {
    fn touch(&mut self, hash: ContentHash, old_seq: u64) {
        self.seq += 1;
        let seq = self.seq;
        self.order.remove(&old_seq);
        self.order.insert(seq, hash);
        if let Some(entry) = self.map.get_mut(&hash) {
            entry.1 = seq;
        }
    }

    fn insert(&mut self, hash: ContentHash, p: Payload) {
        self.seq += 1;
        self.total += p.len();
        self.order.insert(self.seq, hash);
        self.map.insert(hash, (p, self.seq));
    }

    fn evict_oldest(&mut self) {
        if let Some((&seq, &hash)) = self.order.iter().next() {
            self.order.remove(&seq);
            if let Some((p, _)) = self.map.remove(&hash) {
                self.total -= p.len();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcx_core::value::Value;

    #[test]
    fn cas_intern_hit_and_get() {
        let m = MetricsRegistry::new();
        let cas = CasStore::new(1 << 20, m.clone());
        let p = Payload::encode(&Value::Bytes(vec![7u8; 128]));
        assert_eq!(cas.intern(&p), Intern::Stored);
        assert_eq!(cas.intern(&p), Intern::Hit);
        assert_eq!(m.counter("blob.cas_hits").get(), 1);
        assert_eq!(m.counter("blob.cas_misses").get(), 1);
        let got = cas.get(p.hash()).unwrap();
        assert_eq!(got, p);
        // The interned payload shares the original allocation.
        assert_eq!(got.as_slice().as_ptr(), p.as_slice().as_ptr());
    }

    #[test]
    fn cas_collision_is_uncacheable_and_preserves_original() {
        let cas = CasStore::new(1 << 20, MetricsRegistry::new());
        let real = Payload::from_vec(vec![1, 2, 3]);
        assert_eq!(cas.intern(&real), Intern::Stored);
        // Forge a different payload claiming the same hash.
        let forged =
            Payload::from_parts_unchecked(bytes::Bytes::from(vec![9u8, 9, 9, 9]), real.hash());
        assert_eq!(cas.intern(&forged), Intern::Uncacheable);
        // The original bytes are untouched.
        assert_eq!(cas.get(real.hash()).unwrap().as_slice(), &[1, 2, 3]);
    }

    #[test]
    fn cas_lru_eviction_under_byte_cap() {
        let m = MetricsRegistry::new();
        let cas = CasStore::new(256, m.clone());
        let a = Payload::from_vec(vec![1u8; 100]);
        let b = Payload::from_vec(vec![2u8; 100]);
        let c = Payload::from_vec(vec![3u8; 100]);
        cas.intern(&a);
        cas.intern(&b);
        // Touch `a` so `b` is the LRU entry when `c` forces an eviction.
        assert_eq!(cas.intern(&a), Intern::Hit);
        cas.intern(&c);
        assert_eq!(m.counter("blob.cas_evictions").get(), 1);
        assert!(cas.get(b.hash()).is_none(), "LRU entry must be evicted");
        assert_eq!(cas.get(a.hash()).unwrap(), a);
        assert_eq!(cas.get(c.hash()).unwrap(), c);
        assert!(cas.total_bytes() <= 256);
    }

    #[test]
    fn cas_oversize_payload_is_uncacheable() {
        let cas = CasStore::new(64, MetricsRegistry::new());
        let big = Payload::from_vec(vec![0u8; 65]);
        assert_eq!(cas.intern(&big), Intern::Uncacheable);
        assert!(cas.is_empty());
    }
}
