//! [`ShardedMap`] — an N-way sharded concurrent hash map.
//!
//! The cloud service's hot path touches a handful of id-keyed stores (tasks,
//! endpoints, functions, result streams) on every submit/result/status call.
//! A single `RwLock<HashMap>` serializes all of that traffic on one lock
//! word; even read-read sharing ping-pongs the reader-count cache line
//! between cores. Sharding by key hash spreads both the lock *and* the cache
//! traffic across `N` independent `RwLock<HashMap>` shards, so unrelated
//! identities proceed in parallel.
//!
//! `ShardedMap::new(1)` degenerates to exactly the old single-lock layout.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use parking_lot::RwLock;

/// Default shard count used by services that don't tune it. 32 comfortably
/// exceeds the core counts we run on while keeping the idle footprint tiny
/// (32 empty `HashMap`s).
pub(crate) const DEFAULT_SHARDS: usize = 32;

/// An N-way sharded `HashMap<K, V>` behind per-shard `RwLock`s.
///
/// Operations on a single key lock only that key's shard. Whole-map scans
/// ([`ShardedMap::for_each`], [`ShardedMap::retain`]) visit shards one at a
/// time, so they never hold more than one lock at once (no lock-order
/// hazards, and writers on other shards are not blocked).
#[derive(Debug)]
pub struct ShardedMap<K, V> {
    shards: Vec<RwLock<HashMap<K, V>>>,
    /// Bitmask when the shard count is a power of two; shard count - 1.
    mask: usize,
}

impl<K: Hash + Eq, V> ShardedMap<K, V> {
    /// A map with `shards` shards. `shards` is rounded up to the next power
    /// of two (minimum 1) so selection is a mask, not a modulo.
    pub(crate) fn new(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        Self {
            shards: (0..n).map(|_| RwLock::new(HashMap::new())).collect(),
            mask: n - 1,
        }
    }

    /// A map with `DEFAULT_SHARDS` shards.
    pub fn with_default_shards() -> Self {
        Self::new(DEFAULT_SHARDS)
    }

    fn shard(&self, key: &K) -> &RwLock<HashMap<K, V>> {
        // fxhash-style multiply-mix: the keys are UUID-backed ids (already
        // uniformly distributed) or small tuples, so a cheap mix beats
        // SipHash here. Fold to usize and mask.
        let mut h = FxHasher::default();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) & self.mask]
    }

    /// Insert, returning the previous value for the key if any.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        self.shard(&key).write().insert(key, value)
    }

    /// Remove, returning the value if present.
    pub fn remove(&self, key: &K) -> Option<V> {
        self.shard(key).write().remove(key)
    }

    /// Whether the key is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.shard(key).read().contains_key(key)
    }

    /// Run `f` on a shared reference to the value (or `None`), under the
    /// shard's read lock. Use this to inspect without cloning.
    pub fn with<R>(&self, key: &K, f: impl FnOnce(Option<&V>) -> R) -> R {
        f(self.shard(key).read().get(key))
    }

    /// Run `f` on a mutable reference to the value (or `None` if absent),
    /// under the shard's write lock.
    pub fn update<R>(&self, key: &K, f: impl FnOnce(Option<&mut V>) -> R) -> R {
        f(self.shard(key).write().get_mut(key))
    }

    /// Run `f` on the entry's value, inserting `default()` first if the key
    /// is absent, under the shard's write lock.
    pub fn update_or_insert_with<R>(
        &self,
        key: K,
        default: impl FnOnce() -> V,
        f: impl FnOnce(&mut V) -> R,
    ) -> R {
        f(self.shard(&key).write().entry(key).or_insert_with(default))
    }

    /// Visit every entry under the shard read locks, one shard at a time.
    /// Entries inserted or removed concurrently in not-yet-visited shards
    /// may or may not be seen — the usual weak-scan semantics.
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        for shard in &self.shards {
            for (k, v) in shard.read().iter() {
                f(k, v);
            }
        }
    }

    /// Retain entries for which `f` returns true, one shard at a time under
    /// the shard write locks.
    pub fn retain(&self, mut f: impl FnMut(&K, &mut V) -> bool) {
        for shard in &self.shards {
            shard.write().retain(|k, v| f(k, v));
        }
    }

    /// Total entries across shards (a sum of per-shard snapshots; exact only
    /// when quiescent).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().is_empty())
    }
}

impl<K: Hash + Eq, V: Clone> ShardedMap<K, V> {
    /// Clone the value for `key` out of its shard.
    pub fn get_cloned(&self, key: &K) -> Option<V> {
        self.shard(key).read().get(key).cloned()
    }

    /// Collect clones of every entry whose value passes `f`.
    pub fn collect_values(&self, mut f: impl FnMut(&K, &V) -> bool) -> Vec<V> {
        let mut out = Vec::new();
        self.for_each(|k, v| {
            if f(k, v) {
                out.push(v.clone());
            }
        });
        out
    }
}

impl<K: Hash + Eq, V> Default for ShardedMap<K, V> {
    fn default() -> Self {
        Self::with_default_shards()
    }
}

/// The fxhash multiply-mix hasher (the rustc-internal one): fast on short
/// keys, good enough dispersion for shard selection.
#[derive(Default)]
struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn basic_map_operations() {
        let m: ShardedMap<u64, String> = ShardedMap::new(8);
        assert!(m.is_empty());
        assert_eq!(m.insert(1, "one".into()), None);
        assert_eq!(m.insert(1, "uno".into()), Some("one".into()));
        m.insert(2, "two".into());
        assert_eq!(m.len(), 2);
        assert!(m.contains_key(&1));
        assert_eq!(m.get_cloned(&1), Some("uno".into()));
        assert_eq!(m.get_cloned(&99), None);
        assert_eq!(m.remove(&1), Some("uno".into()));
        assert_eq!(m.remove(&1), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(ShardedMap::<u64, ()>::new(0).shards.len(), 1);
        assert_eq!(ShardedMap::<u64, ()>::new(1).shards.len(), 1);
        assert_eq!(ShardedMap::<u64, ()>::new(3).shards.len(), 4);
        assert_eq!(ShardedMap::<u64, ()>::new(32).shards.len(), 32);
    }

    #[test]
    fn with_and_update_access_in_place() {
        let m: ShardedMap<u32, Vec<u32>> = ShardedMap::new(4);
        m.insert(7, vec![1]);
        let len = m.with(&7, |v| v.map(Vec::len).unwrap_or(0));
        assert_eq!(len, 1);
        let pushed = m.update(&7, |v| match v {
            Some(v) => {
                v.push(2);
                true
            }
            None => false,
        });
        assert!(pushed);
        assert!(!m.update(&8, |v| v.is_some()));
        m.update_or_insert_with(8, Vec::new, |v| v.push(9));
        assert_eq!(m.get_cloned(&8), Some(vec![9]));
    }

    #[test]
    fn scans_cover_every_shard() {
        let m: ShardedMap<u64, u64> = ShardedMap::new(16);
        for i in 0..1000 {
            m.insert(i, i * 2);
        }
        let mut sum = 0u64;
        m.for_each(|_, v| sum += v);
        assert_eq!(sum, (0..1000u64).map(|i| i * 2).sum());

        m.retain(|k, _| k % 3 == 0);
        assert_eq!(m.len(), (0..1000u64).filter(|k| k % 3 == 0).count());
        assert_eq!(m.collect_values(|_, v| *v >= 1990).len(), 2); // 1992, 1998
    }

    #[test]
    fn single_shard_degenerates_to_one_lock() {
        let m: ShardedMap<u64, u64> = ShardedMap::new(1);
        assert_eq!(m.shards.len(), 1);
        for i in 0..100 {
            m.insert(i, i);
        }
        assert_eq!(m.len(), 100);
    }

    #[test]
    fn concurrent_inserts_land_exactly_once() {
        let m: Arc<ShardedMap<u64, u64>> = Arc::new(ShardedMap::new(8));
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        m.insert(t * 1000 + i, i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.len(), 8000);
        let mut n = 0;
        m.for_each(|_, _| n += 1);
        assert_eq!(n, 8000);
    }

    #[test]
    fn keys_spread_across_shards() {
        let m: ShardedMap<u64, ()> = ShardedMap::new(16);
        for i in 0..1024 {
            m.insert(i, ());
        }
        // Every shard should hold *something* with 1024 uniform keys; a
        // catastrophically bad hash would funnel them into a few shards.
        let mut occupied = 0;
        for shard in &m.shards {
            if !shard.read().is_empty() {
                occupied += 1;
            }
        }
        assert!(occupied >= 12, "only {occupied}/16 shards occupied");
    }
}
