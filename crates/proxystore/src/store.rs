//! The object store proxies resolve against.
//!
//! "Proxies can leverage many communication channels and storage systems to
//! fit the specific deployment. For example, TCP, RDMA, object stores, and
//! shared file systems can be used when the client and workers are located
//! within the same site" (§V-B). Here the deployment is a cost model: every
//! put and get pays the store's [`LinkProfile`] on the component clock, the
//! same charge the broker uses, so the data-movement experiment compares
//! like with like. `LinkProfile::instant()` is an object store colocated
//! with the client and workers; a WAN profile is a remote key-value store.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use gcx_core::clock::SharedClock;
use gcx_core::error::{GcxError, GcxResult};
use gcx_core::ids::Uuid;
use gcx_core::metrics::MetricsRegistry;
use gcx_mq::LinkProfile;
use parking_lot::RwLock;

/// A named object store behind a link.
pub struct ObjectStore {
    name: String,
    pub(crate) objects: RwLock<HashMap<String, Bytes>>,
    link: LinkProfile,
    clock: SharedClock,
    metrics: MetricsRegistry,
}

impl ObjectStore {
    /// A store named `name` whose every transfer pays `link` on `clock`.
    pub fn new(
        name: impl Into<String>,
        link: LinkProfile,
        clock: SharedClock,
        metrics: MetricsRegistry,
    ) -> Arc<Self> {
        Arc::new(Self {
            name: name.into(),
            objects: RwLock::new(HashMap::new()),
            link,
            clock,
            metrics,
        })
    }

    /// Store an object, returning its key.
    pub(crate) fn put(&self, data: Bytes) -> String {
        self.link.charge(&self.clock, data.len());
        let key = format!("obj-{}", Uuid::new_v4());
        self.metrics
            .counter("proxystore.bytes_put")
            .add(data.len() as u64);
        self.objects.write().insert(key.clone(), data);
        key
    }

    /// Fetch an object.
    pub(crate) fn get(&self, key: &str) -> GcxResult<Bytes> {
        let data = self
            .objects
            .read()
            .get(key)
            .cloned()
            .ok_or_else(|| GcxError::Internal(format!("no such object '{key}'")))?;
        self.link.charge(&self.clock, data.len());
        self.metrics
            .counter("proxystore.bytes_get")
            .add(data.len() as u64);
        Ok(data)
    }

    /// Evict an object (lifetime management, §V-B's "clean up proxied
    /// objects based on the lifetimes of the tasks").
    pub(crate) fn evict(&self, key: &str) {
        self.objects.write().remove(key);
    }

    /// The registered store name proxies embed.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcx_core::clock::{Clock, SystemClock, VirtualClock};

    #[test]
    fn instant_store_roundtrip() {
        let s = ObjectStore::new(
            "mem",
            LinkProfile::instant(),
            SystemClock::shared(),
            MetricsRegistry::new(),
        );
        let key = s.put(Bytes::from_static(b"payload"));
        assert_eq!(&s.get(&key).unwrap()[..], b"payload");
        assert_eq!(s.objects.read().len(), 1);
        s.evict(&key);
        assert!(s.get(&key).is_err());
        assert!(s.objects.read().is_empty());
        assert_eq!(s.name(), "mem");
    }

    #[test]
    fn wan_store_charges_link() {
        let clock = VirtualClock::new();
        let s = ObjectStore::new(
            "wan",
            LinkProfile::wan(10, 1000), // 10 ms + 125 KB/ms
            clock.clone(),
            MetricsRegistry::new(),
        );
        // put: 10 ms latency + 1 ms transfer = 11 ms.
        let h = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || s.put(Bytes::from(vec![0u8; 125_000])))
        };
        clock.wait_for_sleepers(1);
        clock.advance(11);
        let key = h.join().unwrap();
        assert_eq!(clock.now_ms(), 11);
        // get: the same cost again → 22 ms total.
        let h = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || s.get(&key).unwrap())
        };
        clock.wait_for_sleepers(1);
        clock.advance(11);
        let data = h.join().unwrap();
        assert_eq!(data.len(), 125_000);
        assert_eq!(clock.now_ms(), 22);
    }

    #[test]
    fn metrics_account_bytes() {
        let m = MetricsRegistry::new();
        let s = ObjectStore::new(
            "mem",
            LinkProfile::instant(),
            SystemClock::shared(),
            m.clone(),
        );
        let key = s.put(Bytes::from(vec![0u8; 64]));
        s.get(&key).unwrap();
        s.get(&key).unwrap();
        assert_eq!(m.counter("proxystore.bytes_put").get(), 64);
        assert_eq!(m.counter("proxystore.bytes_get").get(), 128);
    }
}
