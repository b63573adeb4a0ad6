//! The web service, decomposed by concern:
//!
//! - [`mod@self`] — configuration, shared state ([`CloudInner`]), service
//!   construction/shutdown, and the pre-resolved metric handles.
//! - `api` — the authenticated REST surface: function registration,
//!   endpoint registration/listing/status, agent connect.
//! - `dispatch` — task submission (single and batched), MEP→UEP
//!   resolution, payload interning (CAS dedup), and the status-polling
//!   path.
//! - `results` — result streams, the result-processor loop, the cold-path
//!   loop (retiring taken results, dead tasks, and the liveness and expiry
//!   sweeps when each is due), and endpoint-side state reports.
//! - `liveness` — heartbeats, degradation reports, and the stale-endpoint
//!   sweep that requeues in-flight tasks.
//! - `session` — [`EndpointSession`], the agent's live connection.
//!
//! Every id-keyed store rides a [`ShardedMap`], so unrelated submits,
//! results, and status polls contend only on their own shard.

mod admission;
mod api;
mod conn;
mod dispatch;
mod fed;
mod liveness;
mod results;
mod session;

pub use admission::AdmissionConfig;
pub use conn::{WireClient, WireClientConfig, WireServer, WireStream};
pub use dispatch::CancelOutcome;
pub use results::ResultStream;
pub use session::EndpointSession;

use admission::AdmissionState;

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use gcx_auth::{AuthService, Token};
use gcx_core::clock::SharedClock;
use gcx_core::function::FunctionRecord;
use gcx_core::health::{HealthDoc, SloPolicy, TenantHealth};
use gcx_core::ids::{EndpointId, FunctionId, IdentityId, TaskId};
use gcx_core::metrics::{Counter, Gauge, Histogram, MetricsRegistry};
use gcx_core::task::TaskRecord;
use gcx_core::trace::{TraceConfig, Tracer};
use gcx_core::GcxResult;
use gcx_core::ShardedMap;
use gcx_mq::Broker;
use parking_lot::{Mutex, RwLock};

use crate::blob::{CasStore, DEFAULT_PAYLOAD_LIMIT};
use crate::federation::FedMembership;
use crate::records::EndpointRecord;
use crate::usage::UsageMeter;

/// The scope required for Globus Compute API calls.
pub const COMPUTE_SCOPE: &str = gcx_auth::service::COMPUTE_SCOPE;

/// The shared result queue every endpoint publishes into.
pub const RESULT_QUEUE: &str = "results.all";

/// Dead-letter queue for tasks whose delivery budget is exhausted. A
/// service-side processor fails each such task with a retryable error so
/// clients see a terminal state instead of a silent black hole.
pub const DEAD_TASKS_QUEUE: &str = "dead.tasks";

/// Threads draining [`RESULT_QUEUE`].
const RESULT_PROCESSORS: usize = 2;

pub(super) fn task_queue_name(ep: EndpointId) -> String {
    format!("tasks.{ep}")
}

pub(super) fn mep_queue_name(ep: EndpointId) -> String {
    format!("mep.{ep}")
}

pub(super) fn stream_queue_name(identity: IdentityId, n: u64) -> String {
    format!("stream.{identity}.{n}")
}

/// Tunables for the web service.
#[derive(Debug, Clone)]
pub struct CloudConfig {
    /// Hard payload limit per task submission / result (10 MB, §V).
    pub payload_limit: usize,
    /// Payloads above this never ride the queues inline ("large task
    /// inputs are stored in S3", §II): they are interned in the
    /// content-addressed dedup cache and ship as a 16-byte reference.
    pub inline_threshold: usize,
    /// Byte cap of the content-addressed payload cache ([`CasStore`]).
    /// Interned payloads above the cap — or whose hash slot collides —
    /// always travel inline. LRU eviction keeps the cache under this
    /// bound; an evicted reference falls back to the task record.
    pub cas_cache_bytes: usize,
    /// Cost model of the client↔service REST link; charged (on the service
    /// clock) per request for the bytes it carries, so experiments see
    /// realistic upload/download time for payloads that ride REST.
    pub rest_link: gcx_mq::LinkProfile,
    /// An endpoint that has not heartbeated for this long is marked offline
    /// and its in-flight tasks are requeued (see [`WebService::check_liveness`]).
    pub heartbeat_timeout_ms: u64,
    /// Delivery budget per task: after this many failed deliveries the task
    /// is dead-lettered and failed with a retryable error instead of cycling
    /// through endpoints forever.
    pub max_task_deliveries: u32,
    /// Tracing limits (sampling, retention, event buffering). The service
    /// installs a [`Tracer`] built from this on its metrics registry, which
    /// the broker, engines, and SDK resolve it from — set `sample_every` to
    /// 0 to disable collection entirely (untraced tasks cost a branch, not
    /// an allocation, so the default is on).
    pub trace: TraceConfig,
    /// Admission control (per-tenant rate limits, in-flight quotas,
    /// brownout shedding). Disabled by default — the pre-admission
    /// behavior.
    pub admission: AdmissionConfig,
    /// Bound on each endpoint task queue's ready depth; `0` = unbounded
    /// (the pre-bounding behavior). Publishes over the bound surface as a
    /// typed retryable [`gcx_core::GcxError::QueueFull`].
    pub task_queue_depth: usize,
    /// Bound on each endpoint task queue's ready bytes; `0` = unbounded.
    pub task_queue_bytes: usize,
    /// Service-level objectives folded into the replica's health document
    /// (see [`WebService::health_doc`]): submit p99 target, tolerated
    /// overload-rejection ratio, heartbeat staleness threshold.
    pub slo: SloPolicy,
}

impl Default for CloudConfig {
    fn default() -> Self {
        Self {
            payload_limit: DEFAULT_PAYLOAD_LIMIT,
            inline_threshold: 64 * 1024,
            cas_cache_bytes: 64 * 1024 * 1024,
            rest_link: gcx_mq::LinkProfile::instant(),
            heartbeat_timeout_ms: 30_000,
            max_task_deliveries: 3,
            trace: TraceConfig::default(),
            admission: AdmissionConfig::default(),
            task_queue_depth: 0,
            task_queue_bytes: 0,
            slo: SloPolicy::default(),
        }
    }
}

/// Pre-resolved counter handles for the service's hot paths; one registry
/// lookup each at construction instead of a read-lock + string compare per
/// API call. (Dynamically named counters, e.g. per-reason block-loss
/// counts, still go through the registry.)
pub(super) struct CloudMetrics {
    pub(super) api_requests: Arc<Counter>,
    pub(super) api_bytes_in: Arc<Counter>,
    pub(super) api_bytes_out: Arc<Counter>,
    pub(super) tasks_submitted: Arc<Counter>,
    pub(super) status_polls: Arc<Counter>,
    pub(super) tasks_cancelled: Arc<Counter>,
    pub(super) results_processed: Arc<Counter>,
    pub(super) duplicate_results_dropped: Arc<Counter>,
    pub(super) tasks_dead_lettered: Arc<Counter>,
    pub(super) retries: Arc<Counter>,
    pub(super) endpoints_offline: Arc<Counter>,
    pub(super) streams_reaped: Arc<Counter>,
    pub(super) block_loss_reports: Arc<Counter>,
    pub(super) block_recovery_reports: Arc<Counter>,
    pub(super) uep_reused: Arc<Counter>,
    pub(super) uep_spawn_requested: Arc<Counter>,
    pub(super) uep_respawn_requested: Arc<Counter>,
    pub(super) tasks_expired: Arc<Counter>,
    pub(super) submits_rejected_overload: Arc<Counter>,
    pub(super) tasks_shed_brownout: Arc<Counter>,
    /// Payload bytes that actually traveled a queue inline. A CAS-hit
    /// reference moves ~0 payload bytes, so `payload.bytes_moved` versus
    /// `cloud.tasks_submitted × payload size` is the dedup win.
    pub(super) payload_bytes_moved: Arc<Counter>,
    pub(super) admission_inflight: Arc<Gauge>,
    /// Task records held: in flight, plus terminal results nobody has
    /// confirmed taking. Each cold-path pass moves it by its own store's
    /// change, so replicas sharing a registry read as their sum.
    pub(super) tasks_resident: Arc<Gauge>,
    pub(super) fed_submits_forwarded: Arc<Counter>,
    pub(super) fed_results_forwarded: Arc<Counter>,
    pub(super) fed_state_forwarded: Arc<Counter>,
    pub(super) fed_submits_ingested: Arc<Counter>,
    pub(super) fed_results_ingested: Arc<Counter>,
    pub(super) fed_tasks_republished: Arc<Counter>,
    pub(super) roundtrip_ms: Arc<Histogram>,
    pub(super) result_transit_ms: Arc<Histogram>,
    pub(super) submit_ms: Arc<Histogram>,
}

impl CloudMetrics {
    fn resolve(registry: &MetricsRegistry) -> Self {
        Self {
            api_requests: registry.counter("api.requests"),
            api_bytes_in: registry.counter("api.bytes_in"),
            api_bytes_out: registry.counter("api.bytes_out"),
            tasks_submitted: registry.counter("cloud.tasks_submitted"),
            status_polls: registry.counter("cloud.status_polls"),
            tasks_cancelled: registry.counter("cloud.tasks_cancelled"),
            results_processed: registry.counter("cloud.results_processed"),
            duplicate_results_dropped: registry.counter("cloud.duplicate_results_dropped"),
            tasks_dead_lettered: registry.counter("cloud.tasks_dead_lettered"),
            retries: registry.counter("cloud.retries"),
            endpoints_offline: registry.counter("cloud.endpoints_offline"),
            streams_reaped: registry.counter("cloud.streams_reaped"),
            block_loss_reports: registry.counter("cloud.block_loss_reports"),
            block_recovery_reports: registry.counter("cloud.block_recovery_reports"),
            uep_reused: registry.counter("mep.uep_reused"),
            uep_spawn_requested: registry.counter("mep.uep_spawn_requested"),
            uep_respawn_requested: registry.counter("mep.uep_respawn_requested"),
            tasks_expired: registry.counter("cloud.tasks_expired"),
            submits_rejected_overload: registry.counter("cloud.submits_rejected_overload"),
            tasks_shed_brownout: registry.counter("cloud.tasks_shed_brownout"),
            payload_bytes_moved: registry.counter("payload.bytes_moved"),
            admission_inflight: registry.gauge("cloud.admission_inflight"),
            tasks_resident: registry.gauge("cloud.tasks_resident"),
            fed_submits_forwarded: registry.counter("fed.submits_forwarded"),
            fed_results_forwarded: registry.counter("fed.results_forwarded"),
            fed_state_forwarded: registry.counter("fed.state_forwarded"),
            fed_submits_ingested: registry.counter("fed.submits_ingested"),
            fed_results_ingested: registry.counter("fed.results_ingested"),
            fed_tasks_republished: registry.counter("fed.tasks_republished"),
            roundtrip_ms: registry.histogram("cloud.task_roundtrip_ms"),
            result_transit_ms: registry.histogram("cloud.result_transit_ms"),
            submit_ms: registry.histogram("cloud.submit_ms"),
        }
    }
}

/// An identity's open result streams, (queue name, credential) each. The
/// list is replaced on open/close and shared by reference with every
/// result's fan-out.
pub(crate) type StreamTargets = Arc<[(String, String)]>;

/// (MEP id, user identity, config hash) → spawned user endpoint.
pub(crate) type UepMap = Arc<RwLock<HashMap<(EndpointId, IdentityId, u64), EndpointId>>>;

/// The metadata stores a federation shares across replicas — the stand-in
/// for the production service's replicated config database (functions,
/// endpoints, credentials, result streams, usage). The task hot
/// path (`CloudInner::tasks`) deliberately stays per-replica
/// shared-nothing; *that* is what the consistent-hash ring partitions.
/// A standalone service builds a private set.
#[derive(Clone, Default)]
pub(crate) struct SharedStores {
    pub(crate) functions: Arc<ShardedMap<FunctionId, FunctionRecord>>,
    pub(crate) endpoints: Arc<ShardedMap<EndpointId, EndpointRecord>>,
    pub(crate) credentials: Arc<ShardedMap<EndpointId, String>>,
    pub(crate) ueps: UepMap,
    pub(crate) streams: Arc<ShardedMap<IdentityId, StreamTargets>>,
    pub(crate) stream_counter: Arc<AtomicU64>,
    pub(crate) spawn_pending: Arc<RwLock<HashSet<EndpointId>>>,
    pub(crate) usage: UsageMeter,
}

pub(super) struct CloudInner {
    pub(super) cfg: CloudConfig,
    pub(super) auth: AuthService,
    pub(super) broker: Broker,
    /// Content-addressed payload dedup cache. Per-replica: CAS references
    /// are only shipped by a standalone service (`fed.is_none()`) — a
    /// federation's replicas don't share this cache, so its tasks always
    /// travel with the payload inline.
    pub(super) cas: CasStore,
    pub(super) usage: UsageMeter,
    pub(super) clock: SharedClock,
    pub(super) metrics: MetricsRegistry,
    pub(super) tracer: Tracer,
    pub(super) m: CloudMetrics,
    pub(super) functions: Arc<ShardedMap<FunctionId, FunctionRecord>>,
    pub(super) endpoints: Arc<ShardedMap<EndpointId, EndpointRecord>>,
    pub(super) credentials: Arc<ShardedMap<EndpointId, String>>,
    pub(super) tasks: ShardedMap<TaskId, TaskRecord>,
    /// Tasks whose results an executor confirmed it holds, with the
    /// identity that confirmed: the cold-path loop retires the records
    /// that are that identity's and terminal (see
    /// [`WebService::confirm_taken`]).
    pub(super) taken: Mutex<Vec<(TaskId, IdentityId)>>,
    /// (MEP id, user identity, config hash) → spawned user endpoint. Cold
    /// (one entry per spawned UEP) and guarded by a read-then-write
    /// double-check, so it stays a plain map.
    pub(super) ueps: UepMap,
    /// Open result streams per identity. Each executor instance gets its
    /// own stream; results fan out to all of an identity's streams.
    pub(super) streams: Arc<ShardedMap<IdentityId, StreamTargets>>,
    pub(super) stream_counter: Arc<AtomicU64>,
    /// UEPs with an outstanding Start Endpoint request (cleared on connect)
    /// — prevents a start-request storm while the agent boots.
    pub(super) spawn_pending: Arc<RwLock<HashSet<EndpointId>>>,
    /// Federation membership (`None` for a standalone service).
    pub(super) fed: Option<FedMembership>,
    /// Admission control: token buckets, in-flight quotas, brownout flag.
    pub(super) admission: AdmissionState,
    pub(super) shutdown: AtomicBool,
    pub(super) processors: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// The Globus Compute web service handle. Cloning shares the service.
#[derive(Clone)]
pub struct WebService {
    pub(super) inner: Arc<CloudInner>,
}

impl WebService {
    /// Bring up the service (auth, broker, payload cache, result processors).
    pub fn new(cfg: CloudConfig, auth: AuthService, broker: Broker, clock: SharedClock) -> Self {
        Self::build(cfg, auth, broker, clock, None, None, None)
    }

    /// Bring up one federated replica: shared metadata stores, a shared
    /// tracer, and a [`FedMembership`] that routes task ownership through
    /// the federation's hash ring. Called by
    /// [`crate::federation::Federation`].
    pub(crate) fn new_federated(
        cfg: CloudConfig,
        auth: AuthService,
        broker: Broker,
        clock: SharedClock,
        fed: FedMembership,
        shared: SharedStores,
        tracer: Tracer,
    ) -> Self {
        Self::build(
            cfg,
            auth,
            broker,
            clock,
            Some(fed),
            Some(shared),
            Some(tracer),
        )
    }

    fn build(
        cfg: CloudConfig,
        auth: AuthService,
        broker: Broker,
        clock: SharedClock,
        fed: Option<FedMembership>,
        shared: Option<SharedStores>,
        tracer: Option<Tracer>,
    ) -> Self {
        let metrics = broker.metrics().clone();
        // Queue declaration is idempotent for a matching credential, so N
        // federated replicas share these two queues safely.
        broker
            .declare_queue(RESULT_QUEUE, Some("cloud-results"))
            .expect("fresh broker");
        broker
            .declare_queue(DEAD_TASKS_QUEUE, Some("cloud-results"))
            .expect("fresh broker");
        let m = CloudMetrics::resolve(&metrics);
        let shared = shared.unwrap_or_default();
        // The registry is shared with the broker (and, when the harness
        // wires it so, the endpoint engines), so installing the tracer here
        // makes one collector visible to every layer of the envelope path.
        // A federation passes its own tracer so spans from every replica
        // land in one collector.
        let tracer = tracer.unwrap_or_else(|| {
            let t = if cfg.trace.sample_every > 0 {
                Tracer::new(clock.clone(), cfg.trace.clone())
            } else {
                Tracer::disabled()
            };
            metrics.set_tracer(t.clone());
            t
        });
        let admission = AdmissionState::new(cfg.admission.clone());
        let cas = CasStore::new(cfg.cas_cache_bytes, metrics.clone());
        let inner = Arc::new(CloudInner {
            cfg,
            auth,
            broker,
            cas,
            usage: shared.usage.clone(),
            clock,
            metrics,
            tracer,
            m,
            functions: shared.functions,
            endpoints: shared.endpoints,
            credentials: shared.credentials,
            tasks: ShardedMap::with_default_shards(),
            taken: Mutex::new(Vec::new()),
            ueps: shared.ueps,
            streams: shared.streams,
            stream_counter: shared.stream_counter,
            spawn_pending: shared.spawn_pending,
            fed,
            admission,
            shutdown: AtomicBool::new(false),
            processors: Mutex::new(Vec::new()),
        });
        let svc = Self { inner };
        for i in 0..RESULT_PROCESSORS {
            let svc2 = svc.clone();
            let handle = std::thread::Builder::new()
                .name(format!("gcx-result-proc-{i}"))
                .spawn(move || svc2.result_processor_loop())
                .expect("spawn result processor");
            svc.inner.processors.lock().push(handle);
        }
        {
            let svc2 = svc.clone();
            let handle = std::thread::Builder::new()
                .name("gcx-cold-path".into())
                .spawn(move || svc2.cold_path_loop())
                .expect("spawn cold-path thread");
            svc.inner.processors.lock().push(handle);
        }
        if svc.inner.fed.is_some() {
            let svc2 = svc.clone();
            let handle = std::thread::Builder::new()
                .name("gcx-fed-rpc".into())
                .spawn(move || svc2.fed_rpc_loop())
                .expect("spawn fed rpc loop");
            svc.inner.processors.lock().push(handle);
        }
        svc
    }

    /// Convenience constructor with defaults on the given clock.
    pub fn with_defaults(clock: SharedClock) -> Self {
        let auth = AuthService::new(clock.clone());
        let broker = Broker::with_profile(
            MetricsRegistry::new(),
            clock.clone(),
            gcx_mq::LinkProfile::instant(),
        );
        Self::new(CloudConfig::default(), auth, broker, clock)
    }

    /// The auth service (to register identities / issue tokens).
    pub fn auth(&self) -> &AuthService {
        &self.inner.auth
    }

    /// The broker (tests/benches inspect queue stats).
    pub fn broker(&self) -> &Broker {
        &self.inner.broker
    }

    /// Metrics registry shared with the broker.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// The usage meter (Fig. 2 data).
    pub fn usage(&self) -> &UsageMeter {
        &self.inner.usage
    }

    /// The content-addressed payload dedup cache (tests/benches inspect
    /// hit/miss/eviction behavior).
    pub fn cas(&self) -> &CasStore {
        &self.inner.cas
    }

    /// The task-lifecycle tracer (disabled when `cfg.trace.sample_every`
    /// is 0). Also reachable through [`WebService::metrics`]'s registry.
    pub fn tracer(&self) -> &Tracer {
        &self.inner.tracer
    }

    /// The replica's machine-readable health document: submit p99 versus
    /// target, overload-rejection ratio, brownout state, handover count,
    /// and heartbeat staleness, with the [`SloPolicy`]-derived three-state
    /// verdict. Served through both expositions and the `Health` wire
    /// frame so clients route on data instead of timeouts.
    pub fn health_doc(&self) -> HealthDoc {
        let now = self.inner.clock.now_ms();
        let slo = &self.inner.cfg.slo;
        let submit = self.inner.m.submit_ms.snapshot();
        let submit_p99_ms = if submit.count == 0 { 0 } else { submit.p99 };
        let tenants: Vec<TenantHealth> = self.inner.admission.tenant_health();
        let (admitted, rejected) = tenants
            .iter()
            .fold((0u64, 0u64), |(a, r), t| (a + t.admitted, r + t.rejected));
        let mut endpoints = 0u64;
        let mut stale_endpoints = 0u64;
        self.inner.endpoints.for_each(|_, rec| {
            endpoints += 1;
            if rec.connected && now.saturating_sub(rec.last_heartbeat_ms) > slo.heartbeat_stale_ms {
                stale_endpoints += 1;
            }
        });
        HealthDoc {
            replica: self.inner.fed.as_ref().map_or(0, |f| f.replica.0),
            status: gcx_core::health::HealthStatus::Ok,
            submit_p99_ms,
            submit_p99_target_ms: 0,
            reject_ratio_permille: gcx_core::health::ratio_permille(rejected, admitted + rejected),
            reject_ratio_max_permille: 0,
            brownout: self.brownout_active(),
            handovers: self.inner.metrics.counter("fed.replicas_dead").get(),
            stale_endpoints,
            endpoints,
            tenants,
        }
        .assess(slo)
    }

    /// Everything a scraper wants, in Prometheus text exposition format:
    /// all counters and histogram buckets, trace leg summaries, and
    /// per-endpoint health gauges.
    pub fn exposition_prometheus(&self) -> String {
        let mut page = gcx_core::expo::PromText::new();
        page.registry(&self.inner.metrics);
        page.trace_summary(&self.inner.tracer);
        self.inner.endpoints.for_each(|_, rec| {
            let id = rec.id.to_string();
            let health = if !rec.connected {
                "offline"
            } else if rec.degraded {
                "degraded"
            } else {
                "online"
            };
            page.gauge(
                "endpoint.up",
                &[("endpoint", id.as_str()), ("health", health)],
                u64::from(rec.connected),
            );
            page.gauge(
                "endpoint.last_heartbeat_ms",
                &[("endpoint", id.as_str())],
                rec.last_heartbeat_ms,
            );
        });
        let health = self.health_doc();
        let replica = health.replica.to_string();
        let labels = [
            ("replica", replica.as_str()),
            ("status", health.status.as_str()),
        ];
        page.gauge(
            "health.up",
            &labels,
            u64::from(health.status != gcx_core::health::HealthStatus::Unhealthy),
        );
        page.gauge("health.submit_p99_ms", &labels, health.submit_p99_ms);
        page.gauge(
            "health.reject_ratio_permille",
            &labels,
            health.reject_ratio_permille,
        );
        page.gauge("health.stale_endpoints", &labels, health.stale_endpoints);
        page.gauge("health.handovers", &labels, health.handovers);
        page.render()
    }

    /// The same snapshot as JSON: counters, histogram quantiles, trace leg
    /// summaries, per-endpoint health, and the flight recorder's ring.
    pub fn exposition_json(&self) -> String {
        let mut body = gcx_core::expo::JsonBody::new();
        body.registry(&self.inner.metrics, &self.inner.tracer);
        let mut endpoints = String::from("[");
        let mut first = true;
        self.inner.endpoints.for_each(|_, rec| {
            if !first {
                endpoints.push(',');
            }
            first = false;
            let health = if !rec.connected {
                "offline"
            } else if rec.degraded {
                "degraded"
            } else {
                "online"
            };
            endpoints.push_str(&format!(
                "{{\"id\":\"{}\",\"health\":\"{health}\",\"last_heartbeat_ms\":{}}}",
                rec.id, rec.last_heartbeat_ms
            ));
        });
        endpoints.push(']');
        body.raw("endpoints", &endpoints);
        let events: Vec<String> = self
            .inner
            .metrics
            .flight()
            .events()
            .iter()
            .map(|e| e.to_json())
            .collect();
        body.raw("events", &format!("[{}]", events.join(",")));
        body.raw("health", &self.health_doc().json());
        body.render()
    }

    /// Stop result processors and release threads. When the
    /// `GCX_FLIGHT_DUMP` environment variable is set (to anything
    /// non-empty), the flight recorder dumps on the way out — the env knob
    /// for grabbing a black-box dump from a run that didn't otherwise
    /// trip a trigger.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        let handles: Vec<_> = std::mem::take(&mut *self.inner.processors.lock());
        for h in handles {
            let _ = h.join();
        }
        if std::env::var("GCX_FLIGHT_DUMP").is_ok_and(|v| !v.is_empty()) {
            self.inner
                .metrics
                .flight()
                .trigger(self.inner.clock.now_ms(), "env");
        }
    }

    pub(super) fn meter_api(&self, bytes_in: usize, bytes_out: usize) {
        self.inner.m.api_requests.inc();
        self.inner.m.api_bytes_in.add(bytes_in as u64);
        self.inner.m.api_bytes_out.add(bytes_out as u64);
        self.inner
            .cfg
            .rest_link
            .charge(&self.inner.clock, bytes_in + bytes_out);
    }

    pub(super) fn authenticate(
        &self,
        token: &Token,
    ) -> GcxResult<gcx_auth::service::Introspection> {
        // A killed or partitioned replica is unreachable from clients; the
        // typed error drives the SDK's rotate-to-next-replica retry. The
        // shutdown check covers stale handles to a *restarted* replica: the
        // membership flags look healthy again, but this inner (and its task
        // store) belongs to the dead incarnation.
        if let Some(fed) = &self.inner.fed {
            if self
                .inner
                .shutdown
                .load(std::sync::atomic::Ordering::SeqCst)
                || fed.is_down()
                || fed.is_partitioned(self.inner.clock.now_ms())
            {
                return Err(gcx_core::GcxError::ReplicaUnavailable(fed.replica.0));
            }
        }
        self.inner.auth.introspect(token, COMPUTE_SCOPE)
    }
}

#[cfg(test)]
pub(super) mod testkit {
    use super::WebService;
    use gcx_auth::Token;
    use gcx_core::clock::SystemClock;
    use std::time::Duration;

    pub fn service() -> WebService {
        WebService::with_defaults(SystemClock::shared())
    }

    pub fn login(svc: &WebService, user: &str) -> Token {
        svc.auth().login(user).unwrap().1
    }

    pub const T: Duration = Duration::from_millis(1000);
}
