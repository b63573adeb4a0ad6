//! `ProxyExecutor` — the auto-proxying executor wrapper.
//!
//! "More sophisticated applications can use the Executor wrapper provided by
//! ProxyStore to wrap their Globus Compute Executor. This wrapper
//! automatically proxies task arguments and results based on a user-defined
//! policy (e.g., object size or type) and will clean up proxied objects
//! based on the lifetimes of the tasks with which the proxies are
//! associated" (§V-B).

use std::sync::Arc;

use gcx_core::error::GcxResult;
use gcx_core::value::Value;
use gcx_sdk::{Executor, Function, TaskFuture};

use crate::proxy::{as_proxy, proxify, resolve_value, ProxyCache, StoreRegistry};
use crate::store::ObjectStore;

/// When to proxy a value instead of shipping it through the cloud.
#[derive(Debug, Clone, Copy)]
pub struct ProxyPolicy {
    /// Proxy any argument/result whose encoded size exceeds this many bytes.
    pub min_size: usize,
    /// Evict proxied arguments once the task completes (lifetime cleanup).
    pub evict_after_result: bool,
}

impl Default for ProxyPolicy {
    fn default() -> Self {
        Self {
            min_size: 10 * 1024,
            evict_after_result: true,
        }
    }
}

/// Wraps a [`gcx_sdk::Executor`], proxying large arguments on submit and
/// resolving proxied results on retrieval.
pub struct ProxyExecutor {
    inner: Executor,
    store: Arc<ObjectStore>,
    registry: StoreRegistry,
    policy: ProxyPolicy,
    client_cache: ProxyCache,
}

impl ProxyExecutor {
    /// Wrap `inner`, proxying through `store` (which must also be
    /// registered in the worker-side registry for resolution).
    pub fn new(
        inner: Executor,
        store: Arc<ObjectStore>,
        registry: StoreRegistry,
        policy: ProxyPolicy,
    ) -> Self {
        registry.register(Arc::clone(&store));
        Self {
            inner,
            store,
            registry,
            policy,
            client_cache: ProxyCache::new(32),
        }
    }

    /// The wrapped executor.
    pub fn inner(&self) -> &Executor {
        &self.inner
    }

    /// Explicitly proxy a value once, for reuse across many submissions
    /// (the shared read-only input pattern: proxy the model once, pass the
    /// marker to every task). The returned marker is tiny and will not be
    /// re-proxied by the size policy.
    pub fn proxy(&self, v: &Value) -> Value {
        proxify(v, &self.store)
    }

    /// Submit with automatic argument proxying. The returned future resolves
    /// proxied results transparently via [`ProxyExecutor::result`].
    pub fn submit(
        &self,
        function: &dyn Function,
        args: Vec<Value>,
        kwargs: Value,
    ) -> GcxResult<TaskFuture> {
        let mut proxied_keys = Vec::new();
        let args = args
            .into_iter()
            .map(|v| self.maybe_proxy(v, &mut proxied_keys))
            .collect();
        let kwargs = match kwargs {
            Value::Map(m) => {
                let mut out = std::collections::BTreeMap::new();
                for (k, v) in m {
                    out.insert(k, self.maybe_proxy(v, &mut proxied_keys));
                }
                Value::Map(out)
            }
            other => other,
        };
        let future = self.inner.submit(function, args, kwargs)?;
        // Lifetime cleanup: evict the task's proxied inputs once it is done.
        if self.policy.evict_after_result && !proxied_keys.is_empty() {
            let store = Arc::clone(&self.store);
            future.on_done(move |_| {
                for key in &proxied_keys {
                    store.evict(key);
                }
            });
        }
        Ok(future)
    }

    fn maybe_proxy(&self, v: Value, keys: &mut Vec<String>) -> Value {
        if gcx_core::codec::encoded_size(&v) > self.policy.min_size {
            let marker = proxify(&v, &self.store);
            if let Some((_, key, _)) = as_proxy(&marker) {
                keys.push(key);
            }
            marker
        } else {
            v
        }
    }

    /// Block on a future, resolving a proxied result if the function
    /// returned one.
    pub fn result(&self, future: &TaskFuture) -> GcxResult<Value> {
        let raw = future.result()?;
        resolve_value(&raw, &self.registry, &self.client_cache)
    }

    /// Close the wrapped executor.
    pub fn close(self) {
        self.inner.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcx_auth::AuthPolicy;
    use gcx_cloud::WebService;
    use gcx_core::clock::SystemClock;
    use gcx_core::metrics::MetricsRegistry;
    use gcx_endpoint::{AgentEnv, EndpointAgent, EndpointConfig};
    use gcx_mq::LinkProfile;
    use gcx_sdk::PyFunction;

    /// Stand up cloud + endpoint with worker-side proxy resolution wired in.
    fn stack() -> (WebService, ProxyExecutor, EndpointAgent, StoreRegistry) {
        let svc = WebService::with_defaults(SystemClock::shared());
        let (_, token) = svc.auth().login("user@site.org").unwrap();
        let reg = svc
            .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
            .unwrap();
        let registry = StoreRegistry::new();
        let config = EndpointConfig::from_yaml("engine:\n  type: GlobusComputeEngine\n").unwrap();
        let mut env = AgentEnv::local(SystemClock::shared());
        let reg2 = registry.clone();
        let cache = ProxyCache::new(16);
        env.arg_transform = Some(Arc::new(move |v: Value| resolve_value(&v, &reg2, &cache)));
        let agent =
            EndpointAgent::start(&svc, reg.endpoint_id, &reg.queue_credential, &config, env)
                .unwrap();
        let ex = Executor::new(svc.clone(), token, reg.endpoint_id).unwrap();
        let store = ObjectStore::new(
            "mem",
            LinkProfile::instant(),
            SystemClock::shared(),
            MetricsRegistry::new(),
        );
        let pex = ProxyExecutor::new(
            ex,
            store,
            registry.clone(),
            ProxyPolicy {
                min_size: 1024,
                evict_after_result: false,
            },
        );
        (svc, pex, agent, registry)
    }

    #[test]
    fn large_args_bypass_the_cloud() {
        let (svc, pex, agent, _registry) = stack();
        let f = PyFunction::new("def f(b):\n    return len(b)\n");
        let payload = vec![7u8; 100 * 1024];
        svc.metrics().reset_counters();
        let fut = pex
            .submit(&f, vec![Value::Bytes(payload)], Value::None)
            .unwrap();
        let n = pex.result(&fut).unwrap();
        assert_eq!(n, Value::Int(100 * 1024));
        // The queue never carried the 100 KB — only the proxy marker.
        let mq_bytes = svc.metrics().counter("mq.bytes_published").get();
        assert!(
            mq_bytes < 10 * 1024,
            "cloud path stayed small: {mq_bytes} bytes"
        );
        agent.stop();
        svc.shutdown();
        pex.close();
    }

    #[test]
    fn small_args_ship_inline() {
        let (svc, pex, agent, _registry) = stack();
        let f = PyFunction::new("def f(x):\n    return x + 1\n");
        let fut = pex.submit(&f, vec![Value::Int(1)], Value::None).unwrap();
        assert_eq!(pex.result(&fut).unwrap(), Value::Int(2));
        assert!(
            pex.store.objects.read().is_empty(),
            "nothing proxied for small args"
        );
        agent.stop();
        svc.shutdown();
        pex.close();
    }

    #[test]
    fn eviction_after_result() {
        let svc = WebService::with_defaults(SystemClock::shared());
        let (_, token) = svc.auth().login("u@x.y").unwrap();
        let reg = svc
            .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
            .unwrap();
        let registry = StoreRegistry::new();
        let config = EndpointConfig::from_yaml("engine:\n  type: GlobusComputeEngine\n").unwrap();
        let mut env = AgentEnv::local(SystemClock::shared());
        let reg2 = registry.clone();
        let cache = ProxyCache::new(16);
        env.arg_transform = Some(Arc::new(move |v: Value| resolve_value(&v, &reg2, &cache)));
        let agent =
            EndpointAgent::start(&svc, reg.endpoint_id, &reg.queue_credential, &config, env)
                .unwrap();
        let ex = Executor::new(svc.clone(), token, reg.endpoint_id).unwrap();
        let store = ObjectStore::new(
            "mem",
            LinkProfile::instant(),
            SystemClock::shared(),
            MetricsRegistry::new(),
        );
        let pex = ProxyExecutor::new(
            ex,
            store.clone(),
            registry,
            ProxyPolicy {
                min_size: 64,
                evict_after_result: true,
            },
        );
        let f = PyFunction::new("def f(b):\n    return len(b)\n");
        let fut = pex
            .submit(&f, vec![Value::Bytes(vec![0u8; 4096])], Value::None)
            .unwrap();
        pex.result(&fut).unwrap();
        // Lifetime cleanup removed the proxied input.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        while !store.objects.read().is_empty() {
            assert!(std::time::Instant::now() < deadline, "input never evicted");
            std::thread::yield_now();
        }
        agent.stop();
        svc.shutdown();
        pex.close();
    }
}
