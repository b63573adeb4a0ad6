//! `Link` — the SDK's view of the service boundary, and the one place that
//! knows how a request reaches the right replica.
//!
//! - [`Link::Local`] calls the in-process service handle. Against a
//!   federation it also holds the [`ReplicaDirectory`] of handles it may
//!   move to.
//! - [`Link::Wire`] speaks the framed protocol over a
//!   [`Transport`](gcx_core::wire::Transport) — localhost TCP for real
//!   OS-process clients, in-memory pipes for tests — and holds the replica
//!   address list it may redial.
//!
//! Every operation on either arm runs under one follow loop: a typed
//! [`GcxError::NotOwner`] redirect retargets the link to the owning replica,
//! a replica that stops answering (`ReplicaUnavailable`, or a lost wire
//! connection) is retried and then rotated away from under a capped
//! backoff, and a spent budget fails typed with
//! [`GcxError::RedirectsExhausted`]. `Client` and `Executor` call the link
//! and never see a directory, an address list, or which arm they are on.
//!
//! Result delivery is unified by [`ResultFeed`]: a broker consumer on the
//! local path, a server-push [`WireStream`] on the wire path, one `next()`
//! loop in the executor either way. Its receipt is one verb on both arms,
//! [`Link::confirm`].

use std::borrow::Cow;
use std::sync::Arc;
use std::time::Duration;

use gcx_auth::Token;
use gcx_cloud::{
    CancelOutcome, ReplicaDirectory, ResultStream, WebService, WireClient, WireClientConfig,
    WireStream,
};
use gcx_core::clock::SystemClock;
use gcx_core::error::{GcxError, GcxResult};
use gcx_core::function::FunctionBody;
use gcx_core::health::{HealthDoc, HealthStatus};
use gcx_core::ids::{FunctionId, TaskId};
use gcx_core::metrics::MetricsRegistry;
use gcx_core::retry::RetryPolicy;
use gcx_core::task::{TaskResult, TaskSpec, TaskState};
use gcx_core::trace::{TraceConfig, Tracer, WireStamps};
use gcx_mq::Delivery;
use parking_lot::RwLock;

/// How many redirects and rotations one operation may follow before it
/// fails with [`GcxError::RedirectsExhausted`].
const REDIRECT_BUDGET: u32 = 8;

/// Wait before hop `n` leaves a replica that stopped answering: exponential
/// from 2 ms capped at 100 ms (the whole budget is under half a second),
/// no jitter, so federated tests replay identically.
const ROTATION_BACKOFF: RetryPolicy = RetryPolicy {
    max_attempts: REDIRECT_BUDGET + 1,
    base_ms: 2,
    max_ms: 100,
    jitter: 0.0,
    seed: 0,
};

/// The client-process-local registry a wire link runs on. A separate OS
/// process has no service registry to share, so the link brings its own —
/// with tracing enabled (`tracer`, when given, is the connection's own), so
/// the executor's submit spans and the connection's `wire.send`,
/// `wire.await` and `wire.push` legs land in one collector that shares
/// trace ids with the server over the wire.
fn wire_registry(tracer: Option<Tracer>) -> MetricsRegistry {
    let registry = MetricsRegistry::new();
    let tracer =
        tracer.unwrap_or_else(|| Tracer::new(SystemClock::shared(), TraceConfig::default()));
    registry.set_tracer(tracer);
    registry
}

/// How the SDK reaches the service: an in-process handle or a wire
/// connection. Cheap to clone (both arms are `Arc`s).
#[derive(Clone)]
pub enum Link {
    /// Direct in-process calls into the service.
    Local(Arc<LocalLink>),
    /// Framed transport to a wire server (TCP or in-memory).
    Wire(Arc<WireLink>),
}

/// An in-process service handle plus the replica handles it may move to.
pub struct LocalLink {
    current: RwLock<WebService>,
    /// `None` for a standalone service: nowhere to go, errors surface as-is.
    directory: Option<ReplicaDirectory>,
}

impl LocalLink {
    /// Swap the handle, if there is somewhere to go.
    fn move_to(&self, next: Option<WebService>) -> bool {
        next.map(|svc| *self.current.write() = svc).is_some()
    }
}

/// Where one attempt of an operation goes: a snapshot of the link's current
/// replica.
enum Target {
    Local(WebService),
    Wire(WireClient),
}

impl Target {
    fn submit_batch(&self, token: &Token, specs: &[TaskSpec]) -> GcxResult<Vec<TaskId>> {
        match self {
            Target::Local(svc) => svc.submit_batch(token, specs.to_vec()),
            Target::Wire(c) => c.submit_batch(specs),
        }
    }

    fn submit_batch_timed(
        &self,
        token: &Token,
        specs: &[TaskSpec],
    ) -> GcxResult<(Vec<TaskId>, Option<WireStamps>)> {
        match self {
            Target::Local(svc) => Ok((svc.submit_batch(token, specs.to_vec())?, None)),
            Target::Wire(c) => c.submit_batch_timed(specs),
        }
    }
}

impl Link {
    /// A link to a standalone in-process service.
    pub(crate) fn local(cloud: WebService) -> Self {
        Link::Local(Arc::new(LocalLink {
            current: RwLock::new(cloud),
            directory: None,
        }))
    }

    /// A link to an in-process federation, starting at any live replica.
    pub(crate) fn federated(directory: ReplicaDirectory) -> GcxResult<Self> {
        let cloud = directory
            .any_live()
            .ok_or_else(|| GcxError::Transient("no live replica in the federation".into()))?;
        Ok(Link::Local(Arc::new(LocalLink {
            current: RwLock::new(cloud),
            directory: Some(directory),
        })))
    }

    /// Dial a wire server (or the first reachable of several federated
    /// replica addresses, index = replica id).
    pub fn connect(addrs: Vec<String>, token: &str, cfg: WireClientConfig) -> GcxResult<Self> {
        Ok(Link::Wire(WireLink::connect(addrs, token, cfg)?))
    }

    /// The replica handles an in-process federated link may move between.
    fn directory(&self) -> Option<&ReplicaDirectory> {
        match self {
            Link::Local(l) => l.directory.as_ref(),
            Link::Wire(_) => None,
        }
    }

    fn target(&self) -> Target {
        match self {
            Link::Local(l) => Target::Local(l.current.read().clone()),
            Link::Wire(w) => Target::Wire(w.client()),
        }
    }

    /// Whether `err` means "ask another replica" on this link. A lost wire
    /// connection surfaces as `Transient`; in-process there is no
    /// connection to lose. A link with nowhere to go (standalone service,
    /// in-memory wire link) follows nothing.
    fn follows(&self, err: &GcxError) -> bool {
        let elsewhere = matches!(
            err,
            GcxError::NotOwner { .. } | GcxError::ReplicaUnavailable(_)
        );
        match self {
            Link::Local(l) => elsewhere && l.directory.is_some(),
            Link::Wire(w) => {
                (elsewhere || matches!(err, GcxError::Transient(_))) && !w.addrs.is_empty()
            }
        }
    }

    /// Point the link at replica `owner`, as a `NotOwner` redirect asks.
    fn retarget(&self, owner: u32) -> bool {
        match self {
            Link::Local(l) => l.move_to(self.directory().and_then(|dir| dir.get(owner))),
            Link::Wire(w) => w.redial(owner as usize).is_ok(),
        }
    }

    /// Replica `failed` (the current one on the wire arm) stopped
    /// answering: move to the next live replica in ring order. Nothing
    /// live right now keeps the old target, to be retried under the
    /// caller's remaining budget.
    fn rotate(&self, failed: Option<u32>) {
        let moved = match self {
            Link::Local(l) => l.move_to(
                self.directory()
                    .zip(failed)
                    .and_then(|(dir, r)| dir.next_live_after(r)),
            ),
            // A lost connection to a replica that is still up just redials.
            Link::Wire(w) => {
                let current = w.conn.read().0;
                w.redial(current).is_err() && w.rotate()
            }
        };
        if moved {
            self.metrics().counter("sdk.replica_rotations").inc();
        }
    }

    /// Run `op` against the right replica: follow `NotOwner` redirects to
    /// the owner, back off and rotate away from a replica that stopped
    /// answering — at most [`REDIRECT_BUDGET`] hops, then
    /// [`GcxError::RedirectsExhausted`].
    fn follow<T>(&self, op: impl Fn(&Target) -> GcxResult<T>) -> GcxResult<T> {
        let mut hops = 0u32;
        loop {
            let err = match op(&self.target()) {
                Err(e) if self.follows(&e) => e,
                other => return other,
            };
            hops += 1;
            if hops > REDIRECT_BUDGET {
                return Err(GcxError::RedirectsExhausted {
                    redirects: REDIRECT_BUDGET,
                    last: err.to_string(),
                });
            }
            let failed = match err {
                GcxError::NotOwner { owner } if self.retarget(owner) => continue,
                // The owner itself is gone: whoever adopts its tasks will
                // answer once the federation has handed them over.
                GcxError::NotOwner { owner: r } | GcxError::ReplicaUnavailable(r) => Some(r),
                _ => None,
            };
            std::thread::sleep(ROTATION_BACKOFF.backoff(hops));
            self.rotate(failed);
        }
    }

    /// The metrics registry SDK-side counters should live on: the service's
    /// own registry in-process, a client-local registry over the wire.
    pub(crate) fn metrics(&self) -> MetricsRegistry {
        match self {
            Link::Local(l) => l.current.read().metrics().clone(),
            Link::Wire(w) => w.metrics.clone(),
        }
    }

    /// The service's SLO health document: assembled in-process locally,
    /// fetched with a `health` request over the wire.
    pub(crate) fn health(&self) -> GcxResult<HealthDoc> {
        match self.target() {
            Target::Local(svc) => Ok(svc.health_doc()),
            Target::Wire(c) => c.health(),
        }
    }

    pub fn register_function(&self, token: &Token, body: FunctionBody) -> GcxResult<FunctionId> {
        self.follow(|at| match at {
            Target::Local(svc) => svc.register_function(token, body.clone()),
            Target::Wire(c) => c.register_function(&body),
        })
    }

    /// Submit one task: a batch of one (the wire protocol only has the
    /// batch verb).
    pub(crate) fn submit_task(&self, token: &Token, spec: TaskSpec) -> GcxResult<TaskId> {
        let specs = [spec];
        self.follow(|at| at.submit_batch(token, &specs))?
            .pop()
            .ok_or_else(|| GcxError::Internal("submit_batch returned no ids".into()))
    }

    /// Submit a batch. Given by value, the specs move into the in-process
    /// service; a borrowed batch is cloned there. The wire arm only lends
    /// them to the follow loop, which packs them afresh for each re-send.
    /// In-process the batch is never retried here — the executor resubmits
    /// under fresh task ids, its one resubmission mechanism — but a replica
    /// that answered `ReplicaUnavailable` is rotated away from before the
    /// error is returned, so the resubmission lands on a live one.
    pub fn submit_batch<'a>(
        &self,
        token: &Token,
        specs: impl Into<Cow<'a, [TaskSpec]>>,
    ) -> GcxResult<Vec<TaskId>> {
        let specs = specs.into();
        match self {
            Link::Local(_) => Ok(self.submit_batch_timed(token, specs)?.0),
            Link::Wire(_) => self.follow(|at| at.submit_batch(token, &specs)),
        }
    }

    /// [`Link::submit_batch`] for a caller that writes each task's hop
    /// itself (the executor's batcher): over the wire, an accepted call's
    /// `wire.send`/`wire.await` stamps come back instead of being recorded.
    pub(crate) fn submit_batch_timed<'a>(
        &self,
        token: &Token,
        specs: impl Into<Cow<'a, [TaskSpec]>>,
    ) -> GcxResult<(Vec<TaskId>, Option<WireStamps>)> {
        let specs = specs.into();
        match self {
            Link::Local(l) => {
                let svc = l.current.read().clone();
                let out = svc.submit_batch(token, specs.into_owned());
                if let Err(GcxError::ReplicaUnavailable(r)) = &out {
                    self.rotate(Some(*r));
                }
                Ok((out?, None))
            }
            Link::Wire(_) => self.follow(|at| at.submit_batch_timed(token, &specs)),
        }
    }

    pub fn task_status(
        &self,
        token: &Token,
        id: TaskId,
    ) -> GcxResult<(TaskState, Option<TaskResult>)> {
        self.follow(|at| match at {
            Target::Local(svc) => svc.task_status(token, id),
            Target::Wire(c) => c.task_status(id),
        })
    }

    /// One batch status poll, answering for every id the link can reach. A
    /// federation shards the task store by ownership and a replica skips
    /// tasks it does not hold, so the answer is a union: in-process, one
    /// batch call per live replica; over the wire, the connected replica's
    /// shard plus one redirect-following [`Link::task_status`] per gap
    /// (which also covers a batch answer too large for one frame).
    pub fn task_status_batch(
        &self,
        token: &Token,
        ids: &[TaskId],
    ) -> GcxResult<Vec<(TaskId, TaskState, Option<TaskResult>)>> {
        let mut out = Vec::new();
        let mut last_err = None;
        match self.directory() {
            Some(dir) => {
                for svc in dir.live().into_iter().filter_map(|r| dir.get(r)) {
                    match svc.task_status_batch(token, ids) {
                        Ok(part) => out.extend(part),
                        // A replica dying between live() and the call is
                        // routine under chaos; its tasks surface from
                        // whoever adopts them.
                        Err(e) if self.follows(&e) => last_err = Some(e),
                        Err(e) => return Err(e),
                    }
                }
            }
            None => {
                let whole = self.follow(|at| match at {
                    Target::Local(svc) => svc.task_status_batch(token, ids),
                    Target::Wire(c) => c.task_status_batch(ids),
                });
                match whole {
                    Ok(part) => out = part,
                    Err(e) => last_err = Some(e),
                }
            }
        }
        if matches!(self, Link::Wire(_)) && out.len() < ids.len() {
            let answered: std::collections::HashSet<TaskId> =
                out.iter().map(|(id, _, _)| *id).collect();
            for id in ids.iter().filter(|id| !answered.contains(id)) {
                if let Ok((state, result)) = self.task_status(token, *id) {
                    out.push((*id, state, result));
                }
            }
        }
        match last_err {
            Some(e) if out.is_empty() => Err(e),
            _ => Ok(out),
        }
    }

    pub(crate) fn cancel_task(&self, token: &Token, id: TaskId) -> GcxResult<CancelOutcome> {
        self.follow(|at| match at {
            Target::Local(svc) => svc.cancel_task(token, id),
            Target::Wire(c) => c.cancel_task(id),
        })
    }

    /// Open the result feed: a broker consumer locally, a server-push
    /// subscription over the wire.
    pub fn open_stream(&self, token: &Token) -> GcxResult<ResultFeed> {
        self.follow(|at| match at {
            Target::Local(svc) => svc
                .open_result_stream(token)
                .map(|stream| ResultFeed::Local {
                    stream,
                    taken: Vec::new(),
                    tags: Vec::new(),
                }),
            Target::Wire(c) => c.open_stream().map(ResultFeed::Wire),
        })
    }

    /// Say that the caller holds these tasks' results and was waiting for
    /// them; a standalone service then forgets the tasks
    /// ([`WebService::confirm_taken`]). In-process that is the call; over
    /// the wire it is one `Confirm` frame. Nothing answers, and nothing is
    /// retried: an unconfirmed result only keeps its record. The caller
    /// must have no submit of these ids outstanding — the wire arm re-sends
    /// a batch while its call is, and the server may already have forgotten
    /// them.
    pub(crate) fn confirm(&self, token: &Token, ids: &[TaskId]) {
        match self {
            Link::Local(l) => {
                let _ = l.current.read().confirm_taken(token, ids);
            }
            Link::Wire(w) => w.client().confirm(ids),
        }
    }

    /// Tear down the link (closes the wire connection; a no-op locally).
    pub fn close(&self) {
        if let Link::Wire(w) = self {
            w.client().close();
        }
    }
}

/// A wire connection plus the replica addresses it may redial.
pub struct WireLink {
    /// Replica index → listener address. Empty for a link wrapped around an
    /// in-memory transport: nothing to redial, errors surface as-is.
    addrs: Vec<String>,
    token: String,
    cfg: WireClientConfig,
    /// The current connection and the index into `addrs` it was dialed at.
    conn: RwLock<(usize, WireClient)>,
    /// Client-process-local registry (`sdk.*` counters land here when there
    /// is no in-process service).
    metrics: MetricsRegistry,
}

impl WireLink {
    /// Dial the first reachable address. `addrs[i]` must be replica `i`'s
    /// listener for `NotOwner` retargeting to route correctly.
    pub(crate) fn connect(
        addrs: Vec<String>,
        token: &str,
        cfg: WireClientConfig,
    ) -> GcxResult<Arc<Self>> {
        if addrs.is_empty() {
            return Err(GcxError::InvalidConfig("wire link needs an address".into()));
        }
        let metrics = wire_registry(None);
        let mut last = None;
        for (i, addr) in addrs.iter().enumerate() {
            match WireClient::connect_tcp_with_registry(addr, token, cfg.clone(), &metrics) {
                Ok(client) => {
                    return Ok(Arc::new(Self {
                        addrs,
                        token: token.to_string(),
                        cfg,
                        conn: RwLock::new((i, client)),
                        metrics,
                    }));
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| GcxError::Transient("no reachable wire address".into())))
    }

    /// Wrap an already-connected client (used by tests over in-memory
    /// transports, where there is no address to dial). A client that traces
    /// lends the link its collector, as a dialed one shares the link's.
    pub fn over(client: WireClient, cfg: WireClientConfig) -> Arc<Self> {
        let tracer = Some(client.tracer().clone()).filter(Tracer::enabled);
        Arc::new(Self {
            addrs: Vec::new(),
            token: String::new(),
            cfg,
            conn: RwLock::new((0, client)),
            metrics: wire_registry(tracer),
        })
    }

    /// The current connection (an `Arc` clone).
    pub(crate) fn client(&self) -> WireClient {
        self.conn.read().1.clone()
    }

    /// Swap in a fresh connection to `addrs[idx]`.
    fn redial(&self, idx: usize) -> GcxResult<()> {
        let addr = self
            .addrs
            .get(idx)
            .ok_or(GcxError::ReplicaUnavailable(idx as u32))?;
        let fresh = WireClient::connect_tcp_with_registry(
            addr,
            &self.token,
            self.cfg.clone(),
            &self.metrics,
        )?;
        let (_, old) = std::mem::replace(&mut *self.conn.write(), (idx, fresh));
        old.close();
        self.metrics.counter("sdk.wire_reconnects").inc();
        self.metrics.flight().record(
            SystemClock::shared().now_ms(),
            "sdk.link",
            "reconnect",
            format!("replica={idx} addr={addr}"),
        );
        Ok(())
    }

    /// Best-effort move to the next address in ring order, steering away
    /// from replicas whose health plane self-reports `Unhealthy`. If every
    /// reachable replica is unhealthy, the first reachable one wins anyway
    /// (a degraded service beats no service). Returns whether the link
    /// holds a fresh connection.
    fn rotate(&self) -> bool {
        let n = self.addrs.len();
        let start = self.conn.read().0;
        let mut unhealthy_fallback: Option<usize> = None;
        for step in 1..=n {
            let idx = (start + step) % n;
            if self.redial(idx).is_err() {
                continue;
            }
            let unhealthy = matches!(
                self.client().health(),
                Ok(doc) if doc.status == HealthStatus::Unhealthy
            );
            if unhealthy {
                // Route away: remember it as a last resort and keep looking.
                self.metrics.counter("sdk.health_routed").inc();
                unhealthy_fallback.get_or_insert(idx);
                continue;
            }
            return true;
        }
        unhealthy_fallback.is_some_and(|idx| self.redial(idx).is_ok())
    }
}

/// Most results the local feed takes off its stream queue at once.
const FEED_TAKE: usize = 64;

/// A live result subscription, local or wire. `next` yields
/// `(task_id, parsed result)` pairs; an `Err` from `next` means the feed
/// itself broke and must be reopened.
pub enum ResultFeed {
    /// A broker consumer on the stream queue. `next` takes what is ready,
    /// acks the whole take at once and serves it from `taken` (newest
    /// first, so each is a `pop`); both buffers live as long as the feed.
    Local {
        stream: ResultStream,
        taken: Vec<Delivery>,
        tags: Vec<u64>,
    },
    /// Server push: batches arrive whole in `Push` frames.
    Wire(WireStream),
}

impl ResultFeed {
    /// Ends this feed's waits from another thread: `next` then returns
    /// `Err`, as if the feed broke.
    pub(crate) fn canceller(&self) -> Box<dyn Fn() + Send + Sync> {
        match self {
            ResultFeed::Local { stream, .. } => {
                let cancel = stream.consumer.canceller();
                Box::new(move || cancel.cancel())
            }
            ResultFeed::Wire(stream) => Box::new(stream.canceller()),
        }
    }

    /// Wait up to `timeout` (`Duration::MAX`: for ever) for the next result
    /// envelope.
    ///
    /// - `Ok(Some((id, Ok(result))))` — a result arrived;
    /// - `Ok(Some((id, Err(e))))` — an envelope arrived for `id` but its
    ///   result payload would not parse (the task's future should fail);
    /// - `Ok(None)` — nothing yet, feed healthy;
    /// - `Err(_)` — the feed is broken: reconnect and resubscribe.
    pub fn next(
        &mut self,
        timeout: Duration,
    ) -> GcxResult<Option<(TaskId, GcxResult<TaskResult>)>> {
        match self {
            ResultFeed::Local {
                stream,
                taken,
                tags,
            } => {
                if taken.is_empty() && stream.consumer.next_batch(timeout, FEED_TAKE, taken)? > 0 {
                    tags.extend(taken.iter().map(|d| d.tag));
                    let _ = stream.consumer.ack_batch(tags);
                    tags.clear();
                    taken.reverse();
                }
                let Some(delivery) = taken.pop() else {
                    return Ok(None);
                };
                // Binary envelope; the result payload is a zero-copy slice
                // of the delivered message body.
                let parsed = TaskResult::from_envelope(&delivery.message.body)
                    .ok()
                    .map(|(id, result, _sent_ms)| (id, Ok(result)));
                Ok(parsed)
            }
            ResultFeed::Wire(stream) => match stream.next(timeout) {
                Ok(Some((id, result))) => Ok(Some((id, Ok(result)))),
                Ok(None) => Ok(None),
                Err(e) => Err(e),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{Executor, ExecutorConfig};
    use crate::functions::PyFunction;
    use crate::Client;
    use gcx_auth::AuthPolicy;
    use gcx_cloud::{Federation, WireServer};
    use gcx_config::TransportSpec;
    use gcx_core::clock::SystemClock;
    use gcx_core::ids::EndpointId;
    use gcx_core::value::Value;
    use gcx_endpoint::{AgentEnv, EndpointAgent, EndpointConfig};

    fn wire_cfg() -> WireClientConfig {
        WireClientConfig {
            heartbeat_interval: Duration::from_millis(100),
            call_timeout: Duration::from_secs(5),
        }
    }

    fn spec() -> TransportSpec {
        TransportSpec {
            idle_timeout_ms: 1_000,
            ..TransportSpec::default()
        }
    }

    struct WireStack {
        svc: WebService,
        server: WireServer,
        token: String,
        ep: EndpointId,
        agent: Option<EndpointAgent>,
    }

    impl WireStack {
        fn new() -> Self {
            let svc = WebService::with_defaults(SystemClock::shared());
            let (_, token) = svc.auth().login("wire@site.org").unwrap();
            let reg = svc
                .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
                .unwrap();
            let config = EndpointConfig::from_yaml(
                "engine:\n  type: GlobusComputeEngine\n  workers_per_node: 4\n",
            )
            .unwrap();
            // The agent shares the service registry, the deployment shape
            // where its JSON exposition also carries the `wire.*` counters.
            let mut env = AgentEnv::local(SystemClock::shared());
            env.metrics = svc.metrics().clone();
            let agent =
                EndpointAgent::start(&svc, reg.endpoint_id, &reg.queue_credential, &config, env)
                    .unwrap();
            let server = WireServer::listen(&svc, spec()).unwrap();
            Self {
                svc,
                server,
                token: token.0,
                ep: reg.endpoint_id,
                agent: Some(agent),
            }
        }
    }

    impl Drop for WireStack {
        fn drop(&mut self) {
            if let Some(agent) = self.agent.take() {
                agent.stop();
            }
            self.server.shutdown();
            self.svc.shutdown();
        }
    }

    #[test]
    fn executor_over_tcp_wire_end_to_end() {
        let stack = WireStack::new();
        let ex = Executor::over_wire(
            vec![stack.server.addr().to_string()],
            &stack.token,
            stack.ep,
            ExecutorConfig::default(),
            wire_cfg(),
        )
        .unwrap();
        let sq = PyFunction::new("def sq(x):\n    return x * x\n");
        let futures: Vec<_> = (0..20)
            .map(|i| ex.submit(&sq, vec![Value::Int(i)], Value::None).unwrap())
            .collect();
        for (i, f) in futures.iter().enumerate() {
            assert_eq!(
                f.result_timeout(Duration::from_secs(15)).unwrap(),
                Value::Int((i * i) as i64),
                "task {i} over the wire"
            );
        }
        assert_eq!(ex.inflight(), 0);
        // Results arrived by server push, not polling.
        assert_eq!(stack.svc.metrics().counter("cloud.status_polls").get(), 0);
        assert!(stack.svc.metrics().counter("wire.frames_in").get() > 0);
        assert!(stack.svc.metrics().counter("wire.frames_out").get() > 0);
        // The agent's JSON exposition (sharing the service registry)
        // surfaces the wire counters and the conns_open gauge.
        let expo = stack.agent.as_ref().unwrap().exposition_json();
        assert!(expo.contains("\"wire.frames_in\""), "expo: {expo}");
        assert!(expo.contains("\"wire.conns_open\""), "expo: {expo}");
        ex.close();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while stack.server.conn_count() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(
            stack.server.conn_count(),
            0,
            "executor closed its connection"
        );
    }

    #[test]
    fn wire_executor_surfaces_client_side_wire_metrics_and_health() {
        let stack = WireStack::new();
        let ex = Executor::over_wire(
            vec![stack.server.addr().to_string()],
            &stack.token,
            stack.ep,
            ExecutorConfig::default(),
            wire_cfg(),
        )
        .unwrap();
        let sq = PyFunction::new("def sq(x):\n    return x * x\n");
        let f = ex.submit(&sq, vec![Value::Int(3)], Value::None).unwrap();
        assert_eq!(
            f.result_timeout(Duration::from_secs(15)).unwrap(),
            Value::Int(9)
        );
        // The client process's own registry counts its side of the wire...
        let m = ex.metrics();
        assert!(m.counter("wire.frames_out").get() > 0, "client frames out");
        assert!(m.counter("wire.frames_in").get() > 0, "client frames in");
        // ...and its tracer carries the linked trace with client wire legs
        // stamped next to the submit span.
        let traces = m.tracer().traces();
        assert!(!traces.is_empty(), "wire submissions are traced");
        let spans: Vec<&str> = traces
            .iter()
            .flat_map(|t| t.spans.iter().map(|s| s.name))
            .collect();
        assert!(spans.contains(&"wire.send"), "spans: {spans:?}");
        assert!(spans.contains(&"wire.await"), "spans: {spans:?}");
        // The health plane answers over the wire with an assessed document.
        let health = ex.health().unwrap();
        assert!(health.status != gcx_core::health::HealthStatus::Unhealthy);
        ex.close();
    }

    #[test]
    fn polling_client_over_tcp_wire() {
        let stack = WireStack::new();
        let client = Client::over_wire(
            vec![stack.server.addr().to_string()],
            &stack.token,
            wire_cfg(),
        )
        .unwrap();
        let fid = client
            .register_function(&PyFunction::new("def f(x):\n    return x + 5\n"))
            .unwrap();
        let ids: Vec<TaskId> = (0..8)
            .map(|i| {
                client
                    .run(fid, stack.ep, vec![Value::Int(i)], Value::None)
                    .unwrap()
            })
            .collect();
        let results = client
            .get_batch_results(&ids, Duration::from_millis(5), Duration::from_secs(15))
            .unwrap();
        for (i, r) in results.into_iter().enumerate() {
            assert_eq!(r.unwrap(), Value::Int(i as i64 + 5));
        }
        client.close();
    }

    /// A polling client over the wire shares its identity, and so the
    /// result fan-out, with a wire executor: the executor confirms only the
    /// results it was waiting for, so its own tasks are forgotten and the
    /// client's stay to be polled.
    #[test]
    fn polling_client_beside_a_wire_executor_still_reads_its_results() {
        let stack = WireStack::new();
        let addrs = vec![stack.server.addr().to_string()];
        let ex = Executor::over_wire(
            addrs.clone(),
            &stack.token,
            stack.ep,
            ExecutorConfig::default(),
            wire_cfg(),
        )
        .unwrap();
        let client = Client::over_wire(addrs, &stack.token, wire_cfg()).unwrap();
        let f = PyFunction::new("def f(x):\n    return x + 5\n");
        let fid = client.register_function(&f).unwrap();
        let polled: Vec<TaskId> = (0..8)
            .map(|i| {
                client
                    .run(fid, stack.ep, vec![Value::Int(i)], Value::None)
                    .unwrap()
            })
            .collect();
        let futures: Vec<_> = (0..32)
            .map(|i| ex.submit(&f, vec![Value::Int(i)], Value::None).unwrap())
            .collect();
        for (i, fut) in futures.iter().enumerate() {
            assert_eq!(
                fut.result_timeout(Duration::from_secs(15)).unwrap(),
                Value::Int(i as i64 + 5)
            );
        }
        let resident = stack.svc.metrics().gauge("cloud.tasks_resident");
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while resident.get() != polled.len() as u64 {
            assert!(
                std::time::Instant::now() < deadline,
                "{} records held, want the client's {}",
                resident.get(),
                polled.len()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let results = client
            .get_batch_results(&polled, Duration::from_millis(5), Duration::from_secs(15))
            .unwrap();
        for (i, r) in results.into_iter().enumerate() {
            assert_eq!(r.unwrap(), Value::Int(i as i64 + 5));
        }
        for id in &polled {
            let (state, _) = client.task_status(*id).unwrap();
            assert_eq!(state, TaskState::Success);
        }
        ex.close();
        client.close();
    }

    /// A 2-replica federation with a listener per replica (`addrs[i]` =
    /// replica `i`), reachable through either arm of [`Link`]. Nobody
    /// serves the endpoint: submitted tasks stay buffered and cancellable.
    struct Fed2 {
        fed: Federation,
        servers: Vec<WireServer>,
        token: Token,
        ep: EndpointId,
    }

    #[derive(Clone, Copy, Debug)]
    enum Arm {
        Directory,
        Wire,
    }

    impl Fed2 {
        fn new() -> Self {
            let fed = Federation::new(2, SystemClock::shared());
            let dir = fed.directory();
            let servers = (0..2)
                .map(|r| WireServer::listen(&dir.get(r).unwrap(), spec()).unwrap())
                .collect();
            let (_, token) = fed.auth().login("fed@site.org").unwrap();
            let ep = dir
                .get(0)
                .unwrap()
                .register_endpoint(&token, "idle", false, AuthPolicy::open(), None)
                .unwrap()
                .endpoint_id;
            Self {
                fed,
                servers,
                token,
                ep,
            }
        }

        /// Both arms bootstrap on replica 0.
        fn link(&self, arm: Arm) -> Link {
            match arm {
                Arm::Directory => Link::federated(self.fed.directory()).unwrap(),
                Arm::Wire => Link::connect(
                    self.servers.iter().map(|s| s.addr().to_string()).collect(),
                    &self.token.0,
                    wire_cfg(),
                )
                .unwrap(),
            }
        }

        /// Submit a task whose ring owner is `owner` and wait until that
        /// replica holds it (a forwarded submit lands asynchronously).
        fn submit_owned_by(&self, link: &Link, fid: FunctionId, owner: u32) -> TaskId {
            let spec = loop {
                let spec = TaskSpec::new(fid, self.ep);
                if self.fed.owner_of(spec.task_id.uuid()) == Some(owner) {
                    break spec;
                }
            };
            let id = link.submit_task(&self.token, spec).unwrap();
            let holder = self.fed.directory().get(owner).unwrap();
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while holder.task_status(&self.token, id).is_err() {
                assert!(std::time::Instant::now() < deadline, "submit never landed");
                std::thread::sleep(Duration::from_millis(2));
            }
            id
        }

        fn shutdown(self) {
            for server in &self.servers {
                server.shutdown();
            }
            self.fed.shutdown();
        }
    }

    fn noop() -> FunctionBody {
        FunctionBody::pyfn("def f():\n    return 1\n")
    }

    /// Owners alternate and the link stays where its last call ended, so
    /// each status after the first crosses a `NotOwner` redirect (submits
    /// never do: a non-owner forwards them).
    fn redirects_reach_the_owner(arm: Arm) {
        let stack = Fed2::new();
        let link = stack.link(arm);
        let fid = link.register_function(&stack.token, noop()).unwrap();
        let ids: Vec<TaskId> = (0..8)
            .map(|i| stack.submit_owned_by(&link, fid, i % 2))
            .collect();
        for (i, id) in ids.iter().enumerate() {
            let other = stack.fed.directory().get(1 - i as u32 % 2).unwrap();
            assert!(matches!(
                other.task_status(&stack.token, *id),
                Err(GcxError::NotOwner { .. })
            ));
            let status = link.task_status(&stack.token, *id);
            assert!(status.is_ok(), "{arm:?}: {status:?}");
        }
        // One replica alone only knows its own shard; the batch poll
        // answers for all of them.
        let batch = link.task_status_batch(&stack.token, &ids).unwrap();
        assert_eq!(batch.len(), ids.len(), "{arm:?}: union of both shards");
        for id in &ids[..2] {
            let outcome = link.cancel_task(&stack.token, *id);
            assert_eq!(outcome.unwrap(), CancelOutcome::Cancelled, "{arm:?}");
        }
        if let Arm::Wire = arm {
            assert!(
                link.metrics().counter("sdk.wire_reconnects").get() >= 7,
                "every redirect retargets the connection"
            );
        }
        link.close();
        stack.shutdown();
    }

    fn survivor_serves_after_the_current_replica_dies(arm: Arm) {
        let stack = Fed2::new();
        let link = stack.link(arm);
        stack.fed.kill(0);
        let fid = link.register_function(&stack.token, noop()).unwrap();
        let id = stack.submit_owned_by(&link, fid, 1);
        assert!(link.task_status(&stack.token, id).is_ok());
        assert!(
            link.metrics().counter("sdk.replica_rotations").get() >= 1,
            "{arm:?}: the link must have rotated away from the dead replica"
        );
        link.close();
        stack.shutdown();
    }

    fn dead_federation_exhausts_the_budget_typed(arm: Arm) {
        let stack = Fed2::new();
        let link = stack.link(arm);
        stack.fed.kill(0);
        stack.fed.kill(1);
        let err = link
            .task_status(&stack.token, TaskId::random())
            .unwrap_err();
        assert!(
            matches!(err, GcxError::RedirectsExhausted { redirects: 8, .. }),
            "{arm:?}: expected RedirectsExhausted after the budget, got {err:?}"
        );
        link.close();
        stack.shutdown();
    }

    /// The same scenarios through both arms: how a request reaches the
    /// right replica is one mechanism, whatever carries it.
    #[test]
    fn both_arms_follow_redirects_rotate_and_give_up_typed() {
        for arm in [Arm::Directory, Arm::Wire] {
            redirects_reach_the_owner(arm);
            survivor_serves_after_the_current_replica_dies(arm);
            dead_federation_exhausts_the_budget_typed(arm);
        }
    }
}
