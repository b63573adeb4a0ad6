//! Proxy markers, factories, and the worker-side cache.
//!
//! A proxied object travels through the cloud as a tiny marker value:
//!
//! ```text
//! {"__gcx_proxy__": {"store": "<store name>", "key": "obj-…", "size": N}}
//! ```
//!
//! "The proxy is 'transparent' because it automatically resolves its target
//! object when first used" — in this reproduction, resolution happens when a
//! worker (or the client, for results) calls [`resolve_value`], which walks
//! the payload, finds markers, and fetches through the registered store,
//! consulting the per-worker [`ProxyCache`] first.

use std::collections::HashMap;
use std::sync::Arc;

use gcx_core::codec;
use gcx_core::error::{GcxError, GcxResult};
use gcx_core::value::Value;
use parking_lot::Mutex;

use crate::store::ObjectStore;

/// Marker key identifying a proxy inside a payload.
pub(crate) const PROXY_MARKER: &str = "__gcx_proxy__";

/// The registry mapping store names to live backends (one per process, like
/// ProxyStore's global store registry).
#[derive(Clone, Default)]
pub struct StoreRegistry {
    stores: Arc<Mutex<HashMap<String, Arc<ObjectStore>>>>,
}

impl StoreRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a backend under its name.
    pub(crate) fn register(&self, store: Arc<ObjectStore>) {
        self.stores.lock().insert(store.name().to_string(), store);
    }

    /// Look up a backend.
    pub(crate) fn get(&self, name: &str) -> GcxResult<Arc<ObjectStore>> {
        self.stores
            .lock()
            .get(name)
            .cloned()
            .ok_or_else(|| GcxError::Internal(format!("no store named '{name}' is registered")))
    }
}

/// Replace `value` with a proxy marker after storing its encoded bytes.
pub(crate) fn proxify(value: &Value, store: &ObjectStore) -> Value {
    let encoded = codec::encode(value);
    let size = encoded.len();
    let key = store.put(encoded);
    Value::map([(
        PROXY_MARKER,
        Value::map([
            ("store", Value::str(store.name())),
            ("key", Value::str(key)),
            ("size", Value::Int(size as i64)),
        ]),
    )])
}

/// If `value` is a proxy marker, return `(store, key, size)`.
pub(crate) fn as_proxy(value: &Value) -> Option<(String, String, usize)> {
    let inner = value.get(PROXY_MARKER)?;
    Some((
        inner.get("store")?.as_str()?.to_string(),
        inner.get("key")?.as_str()?.to_string(),
        inner.get("size")?.as_int()? as usize,
    ))
}

/// A bounded worker-side object cache (§V-B: "objects reused by many tasks
/// can be cached in the worker process").
#[derive(Clone)]
pub struct ProxyCache {
    inner: Arc<Mutex<CacheInner>>,
    capacity: usize,
}

struct CacheInner {
    /// Each object with the tick of its last use.
    entries: HashMap<String, (Value, u64)>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl ProxyCache {
    /// A cache holding up to `capacity` resolved objects, evicting the least
    /// recently used.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Arc::new(Mutex::new(CacheInner {
                entries: HashMap::new(),
                tick: 0,
                hits: 0,
                misses: 0,
            })),
            capacity,
        }
    }

    fn get(&self, key: &str) -> Option<Value> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.entries.get_mut(key) {
            Some((v, used)) => {
                *used = tick;
                let v = v.clone();
                inner.hits += 1;
                Some(v)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    fn insert(&self, key: String, value: Value) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        if inner.entries.len() >= self.capacity && !inner.entries.contains_key(&key) {
            let lru = inner
                .entries
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k.clone());
            if let Some(lru) = lru {
                inner.entries.remove(&lru);
            }
        }
        inner.tick += 1;
        let tick = inner.tick;
        inner.entries.insert(key, (value, tick));
    }

    /// (hits, misses) so far.
    pub fn stats(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.hits, inner.misses)
    }
}

/// Recursively resolve every proxy marker inside `value`.
///
/// `cache` may be shared by all workers on a node; pass a zero-capacity
/// cache to disable caching (the A3 ablation).
pub fn resolve_value(
    value: &Value,
    registry: &StoreRegistry,
    cache: &ProxyCache,
) -> GcxResult<Value> {
    if let Some((store_name, key, _)) = as_proxy(value) {
        if let Some(cached) = cache.get(&key) {
            return Ok(cached);
        }
        let store = registry.get(&store_name)?;
        let bytes = store.get(&key)?;
        let resolved = codec::decode(&bytes)?;
        cache.insert(key, resolved.clone());
        return Ok(resolved);
    }
    Ok(match value {
        Value::List(items) => Value::List(
            items
                .iter()
                .map(|v| resolve_value(v, registry, cache))
                .collect::<GcxResult<Vec<_>>>()?,
        ),
        Value::Map(m) => {
            let mut out = std::collections::BTreeMap::new();
            for (k, v) in m {
                out.insert(k.clone(), resolve_value(v, registry, cache)?);
            }
            Value::Map(out)
        }
        other => other.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcx_core::clock::SystemClock;
    use gcx_core::metrics::MetricsRegistry;
    use gcx_mq::LinkProfile;

    fn mem_store(metrics: MetricsRegistry) -> Arc<ObjectStore> {
        ObjectStore::new(
            "mem",
            LinkProfile::instant(),
            SystemClock::shared(),
            metrics,
        )
    }

    fn setup() -> (StoreRegistry, Arc<ObjectStore>) {
        let registry = StoreRegistry::new();
        let store = mem_store(MetricsRegistry::new());
        registry.register(store.clone());
        (registry, store)
    }

    #[test]
    fn proxify_resolve_roundtrip() {
        let (registry, store) = setup();
        let big = Value::Bytes(vec![42u8; 4096]);
        let proxy = proxify(&big, &store);
        assert!(as_proxy(&proxy).is_some());
        assert!(proxy.approx_size() < 256, "marker stays tiny");
        let cache = ProxyCache::new(4);
        let resolved = resolve_value(&proxy, &registry, &cache).unwrap();
        assert_eq!(resolved, big);
    }

    #[test]
    fn nested_proxies_resolve() {
        let (registry, store) = setup();
        let a = proxify(&Value::Int(1), &store);
        let b = proxify(&Value::str("two"), &store);
        let payload = Value::map([("a", a), ("rest", Value::List(vec![b, Value::Int(3)]))]);
        let cache = ProxyCache::new(4);
        let resolved = resolve_value(&payload, &registry, &cache).unwrap();
        assert_eq!(resolved.get("a").unwrap(), &Value::Int(1));
        assert_eq!(
            resolved.get("rest").unwrap().as_list().unwrap()[0],
            Value::str("two")
        );
    }

    #[test]
    fn cache_hits_avoid_store_reads() {
        let metrics = MetricsRegistry::new();
        let registry = StoreRegistry::new();
        let store = mem_store(metrics.clone());
        registry.register(store.clone());
        let proxy = proxify(&Value::Bytes(vec![0u8; 1000]), &store);
        let cache = ProxyCache::new(4);
        for _ in 0..5 {
            resolve_value(&proxy, &registry, &cache).unwrap();
        }
        let (hits, misses) = cache.stats();
        assert_eq!((hits, misses), (4, 1));
        // Only the first resolution touched the store (one encoded object:
        // version + tag + 2-byte varint + 1000 payload bytes).
        assert_eq!(metrics.counter("proxystore.bytes_get").get(), 1004);
    }

    #[test]
    fn zero_capacity_cache_disables_caching() {
        let (registry, store) = setup();
        let proxy = proxify(&Value::Int(5), &store);
        let cache = ProxyCache::new(0);
        resolve_value(&proxy, &registry, &cache).unwrap();
        resolve_value(&proxy, &registry, &cache).unwrap();
        let (hits, misses) = cache.stats();
        assert_eq!(hits, 0);
        assert_eq!(misses, 2);
    }

    #[test]
    fn cache_evicts_oldest() {
        let (registry, store) = setup();
        let cache = ProxyCache::new(2);
        let p1 = proxify(&Value::Int(1), &store);
        let p2 = proxify(&Value::Int(2), &store);
        let p3 = proxify(&Value::Int(3), &store);
        resolve_value(&p1, &registry, &cache).unwrap();
        resolve_value(&p2, &registry, &cache).unwrap();
        resolve_value(&p3, &registry, &cache).unwrap(); // evicts p1
        resolve_value(&p1, &registry, &cache).unwrap(); // miss again
        let (_, misses) = cache.stats();
        assert_eq!(misses, 4);
    }

    #[test]
    fn a_hit_keeps_the_object_cached() {
        let (registry, store) = setup();
        let cache = ProxyCache::new(2);
        let shared = proxify(&Value::Int(0), &store);
        let a = proxify(&Value::Int(1), &store);
        let b = proxify(&Value::Int(2), &store);
        resolve_value(&shared, &registry, &cache).unwrap();
        resolve_value(&a, &registry, &cache).unwrap();
        resolve_value(&shared, &registry, &cache).unwrap(); // hit
        resolve_value(&b, &registry, &cache).unwrap(); // evicts a, not shared
        resolve_value(&shared, &registry, &cache).unwrap();
        assert_eq!(cache.stats(), (2, 3));
    }

    #[test]
    fn missing_store_is_an_error() {
        let registry = StoreRegistry::new();
        let store = mem_store(MetricsRegistry::new());
        let proxy = proxify(&Value::Int(1), &store);
        let cache = ProxyCache::new(4);
        assert!(resolve_value(&proxy, &registry, &cache).is_err());
    }

    #[test]
    fn non_proxy_values_pass_through() {
        let (registry, _) = setup();
        let cache = ProxyCache::new(4);
        let v = Value::map([("plain", Value::Int(1))]);
        assert_eq!(resolve_value(&v, &registry, &cache).unwrap(), v);
    }
}
