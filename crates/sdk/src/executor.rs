//! `Executor` — the asynchronous, future-based interface (§III-A).
//!
//! "The executor interface provides a `submit` method that takes a
//! user-defined python function and its arguments and returns a `future` for
//! subsequent monitoring and retrieval of results. … The Globus Compute
//! Executor abstracts interactions with the Globus Compute REST API,
//! including registering functions 'on-the-fly' and batching of requests
//! within a time period to avoid many individual REST requests to run
//! tasks. The executor also instantiates an AMQPS connection with the
//! Globus Compute web service that streams results directly and immediately
//! as they arrive at the server back to the client."
//!
//! All three mechanisms are implemented here:
//! - on-the-fly registration with a content-hash cache (identical code
//!   registers once);
//! - a batching thread coalescing submissions within
//!   [`ExecutorConfig::batch_window`] (or up to
//!   [`ExecutorConfig::max_batch`]) into single `submit_batch` calls; the
//!   submit that fills a batch wakes it, anything shorter waits for its
//!   1 ms tick;
//! - a result-stream thread consuming the user's AMQPS stream queue and
//!   resolving futures as results arrive — zero polling. Each result it was
//!   waiting for is confirmed, by the batching thread between its own
//!   submit calls and on either link, and a standalone service then
//!   forgets that task (a later status query is `TaskNotFound`).
//!
//! The executor is also the client half of the recovery story: if the result
//! stream breaks it reconnects under [`ExecutorConfig::retry`] backoff and
//! catches up on results it missed via one batched status call, and tasks
//! that come back with *retryable* failures (endpoint died, delivery budget
//! exhausted in transit) are transparently resubmitted under a fresh task id
//! until the client-side retry budget runs out, at which point the future
//! resolves with [`GcxError::RetriesExhausted`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gcx_auth::Token;
use gcx_cloud::{CancelOutcome, ReplicaDirectory, WebService};
use gcx_core::error::{GcxError, GcxResult};
use gcx_core::function::FunctionBody;
use gcx_core::ids::{EndpointId, FunctionId, TaskId};
use gcx_core::metrics::Counter;
use gcx_core::respec::ResourceSpec;
use gcx_core::retry::RetryPolicy;
use gcx_core::task::{TaskResult, TaskSpec};
use gcx_core::trace::TraceContext;
use gcx_core::value::Value;
use parking_lot::{Condvar, Mutex};

use crate::functions::Function;
use crate::future::TaskFuture;
use crate::link::{Link, ResultFeed};

/// Executor tunables.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// How long submissions may wait to be coalesced into one REST request.
    pub batch_window: Duration,
    /// Flush immediately once this many submissions are pending.
    pub max_batch: usize,
    /// Client-side retry budget, shared by two recovery paths: resubmission
    /// of tasks that fail with retryable errors, and reconnection of the
    /// result stream after a broker failure.
    pub retry: RetryPolicy,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        Self {
            batch_window: Duration::from_millis(20),
            max_batch: 128,
            retry: RetryPolicy::default(),
        }
    }
}

struct PendingSubmit {
    spec: TaskSpec,
    enqueued_at: Instant,
    /// Trace stamp of the original `submit()` call (or of the resubmission
    /// decision), so the submit span covers batching wait plus the REST call.
    submitted_ms: u64,
}

/// What the batcher keeps of a task whose spec it handed to the link: enough
/// for the `submit` span, or for `fail_or_retry` if the batch is refused.
struct Shipped {
    task_id: TaskId,
    trace: Option<TraceContext>,
    submitted_ms: u64,
}

/// How often the batcher looks for what no push announces: a partial batch
/// whose window ran out, a lone task under a zero window, a resubmission
/// whose backoff is over, and taken results to confirm.
const TICK: Duration = Duration::from_millis(1);

/// A submitted task the stream thread is still waiting on. The spec is kept
/// so a retryable failure can be resubmitted without involving the caller.
struct Inflight {
    future: TaskFuture,
    spec: TaskSpec,
    /// Submissions so far (1 = the original submit).
    attempts: u32,
}

struct ExecutorShared {
    /// How the executor reaches the service; the link itself follows
    /// redirects and rotates away from dead replicas.
    link: Link,
    token: Token,
    /// Futures awaiting results, keyed by the task id of the *latest*
    /// submission attempt.
    inflight: Mutex<HashMap<TaskId, Inflight>>,
    /// Submissions not yet flushed.
    pending: Mutex<Vec<PendingSubmit>>,
    /// The batcher parks on `pending` between passes. Notified under the
    /// `pending` lock by the push that brings it to `full` and by `close()`.
    batch_ready: Condvar,
    /// `max_batch`, at least 1: a request's ceiling, and the length at
    /// which a push wakes the batcher.
    full: usize,
    /// Resubmissions serving out their backoff; the batcher promotes each to
    /// `pending` once its instant arrives.
    delayed: Mutex<Vec<(Instant, PendingSubmit)>>,
    /// Results the stream thread took while waiting for them, for the
    /// batcher to confirm between its own submit calls. `None` once the
    /// batcher has exited: the stream thread then confirms them itself.
    taken: Mutex<Option<Vec<TaskId>>>,
    /// Content-hash → registered function id (on-the-fly dedup).
    registered: Mutex<HashMap<u64, FunctionId>>,
    shutdown: AtomicBool,
    /// Cancels the stream thread's feed (replaced by each reopened one's);
    /// `None` once `close()` has cancelled it.
    feed_cancel: Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
    /// Hot-path counters, resolved once at construction.
    tasks_resubmitted: Arc<Counter>,
    stream_reconnects: Arc<Counter>,
    /// Retries whose backoff was stretched by a server `retry_after_ms`
    /// hint (admission-control rejections and queue-full backpressure).
    overload_backoffs: Arc<Counter>,
    /// The service's tracer (shared via the metrics registry); disabled
    /// tracers make every span call a no-op.
    tracer: gcx_core::trace::Tracer,
}

/// How long [`Executor::close`] waits for results of already-flushed tasks
/// before failing their futures with [`GcxError::ShuttingDown`].
const SHUTDOWN_GRACE: Duration = Duration::from_secs(5);

/// The future-based executor, bound to one endpoint (like
/// `Executor(endpoint_id=…)` in Listing 1).
pub struct Executor {
    shared: Arc<ExecutorShared>,
    endpoint_id: EndpointId,
    /// MPI resource specification applied to subsequent submissions
    /// (Listing 4/6: `executor.resource_specification = {...}`).
    pub resource_specification: Mutex<ResourceSpec>,
    /// User endpoint configuration for multi-user endpoints (Listing 10:
    /// `gce.user_endpoint_config = uep_conf`).
    pub user_endpoint_config: Mutex<Value>,
    batcher: Option<std::thread::JoinHandle<()>>,
    streamer: Option<std::thread::JoinHandle<()>>,
}

impl Executor {
    /// Create an executor with default batching.
    pub fn new(cloud: WebService, token: Token, endpoint_id: EndpointId) -> GcxResult<Self> {
        Self::with_config(cloud, token, endpoint_id, ExecutorConfig::default())
    }

    /// Create an executor against a federation, bootstrapping from any live
    /// replica in `directory`; its link moves on when the replica it talks
    /// to dies or partitions.
    pub fn federated(
        directory: ReplicaDirectory,
        token: Token,
        endpoint_id: EndpointId,
        cfg: ExecutorConfig,
    ) -> GcxResult<Self> {
        Self::build(Link::federated(directory)?, token, endpoint_id, cfg)
    }

    /// Create an executor with explicit batching configuration.
    pub fn with_config(
        cloud: WebService,
        token: Token,
        endpoint_id: EndpointId,
        cfg: ExecutorConfig,
    ) -> GcxResult<Self> {
        Self::build(Link::local(cloud), token, endpoint_id, cfg)
    }

    /// Create an executor over the wire: real framed transport to one or
    /// more wire-server addresses (`addrs[i]` = replica `i`'s listener).
    /// The result stream arrives as server-push frames; connection loss is
    /// recovered by reconnect + resubscribe under [`ExecutorConfig::retry`].
    pub fn over_wire(
        addrs: Vec<String>,
        token: &str,
        endpoint_id: EndpointId,
        cfg: ExecutorConfig,
        wire_cfg: gcx_cloud::WireClientConfig,
    ) -> GcxResult<Self> {
        let link = Link::connect(addrs, token, wire_cfg)?;
        Self::build(link, Token(token.to_string()), endpoint_id, cfg)
    }

    fn build(
        link: Link,
        token: Token,
        endpoint_id: EndpointId,
        cfg: ExecutorConfig,
    ) -> GcxResult<Self> {
        // Open the result feed up front; failures surface now.
        let stream = link.open_stream(&token)?;
        let registry = link.metrics();
        let tasks_resubmitted = registry.counter("sdk.tasks_resubmitted");
        let stream_reconnects = registry.counter("sdk.stream_reconnects");
        let overload_backoffs = registry.counter("sdk.overload_backoffs");
        let tracer = registry.tracer();
        let shared = Arc::new(ExecutorShared {
            link,
            token,
            inflight: Mutex::new(HashMap::new()),
            pending: Mutex::new(Vec::new()),
            batch_ready: Condvar::new(),
            full: cfg.max_batch.max(1),
            delayed: Mutex::new(Vec::new()),
            taken: Mutex::new(Some(Vec::new())),
            registered: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
            feed_cancel: Mutex::new(Some(stream.canceller())),
            tasks_resubmitted,
            stream_reconnects,
            overload_backoffs,
            tracer,
        });

        let batcher = {
            let shared = Arc::clone(&shared);
            let cfg = cfg.clone();
            std::thread::Builder::new()
                .name("gcx-executor-batcher".into())
                .spawn(move || batcher_loop(&shared, cfg))
                .map_err(|e| GcxError::Internal(format!("spawn batcher: {e}")))?
        };
        let streamer = {
            let shared = Arc::clone(&shared);
            let retry = cfg.retry.clone();
            std::thread::Builder::new()
                .name("gcx-executor-stream".into())
                .spawn(move || stream_loop(&shared, &retry, stream))
                .map_err(|e| GcxError::Internal(format!("spawn streamer: {e}")))?
        };

        Ok(Self {
            shared,
            endpoint_id,
            resource_specification: Mutex::new(ResourceSpec::default()),
            user_endpoint_config: Mutex::new(Value::None),
            batcher: Some(batcher),
            streamer: Some(streamer),
        })
    }

    /// The endpoint this executor targets.
    pub fn endpoint_id(&self) -> EndpointId {
        self.endpoint_id
    }

    /// Set the resource specification (builder style).
    pub fn set_resource_specification(&self, spec: ResourceSpec) {
        *self.resource_specification.lock() = spec;
    }

    /// Set the user endpoint configuration (builder style).
    pub fn set_user_endpoint_config(&self, config: Value) {
        *self.user_endpoint_config.lock() = config;
    }

    /// Submit a function invocation; returns a future immediately.
    ///
    /// The function is registered on first use (content-hash dedup); the
    /// task joins the current batch and ships on the next flush.
    pub fn submit(
        &self,
        function: &dyn Function,
        args: Vec<Value>,
        kwargs: Value,
    ) -> GcxResult<TaskFuture> {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return Err(GcxError::ShuttingDown);
        }
        // The body is built only to register it: a known hash is a lookup.
        let hash = function.content_hash();
        let known = self.shared.registered.lock().get(&hash).copied();
        let function_id = known.map_or_else(|| self.ensure_registered(function.body()), Ok)?;
        let mut spec = TaskSpec::new(function_id, self.endpoint_id);
        // The single encode of the task's arguments: every layer below
        // moves these bytes by reference.
        spec.set_args(args, kwargs);
        spec.resource_spec = *self.resource_specification.lock();
        spec.user_endpoint_config = self.user_endpoint_config.lock().clone();
        // The SDK is the trace root for executor submissions: the context
        // rides the spec through every resubmission attempt. One reading
        // opens the root and starts the `submit` leg.
        let submitted_ms = self.shared.tracer.now_ms();
        spec.trace = self.shared.tracer.start_trace_at("task", submitted_ms);

        let future = TaskFuture::pending(spec.task_id);
        self.shared.inflight.lock().insert(
            spec.task_id,
            Inflight {
                future: future.clone(),
                spec: spec.clone(),
                attempts: 1,
            },
        );
        let mut pending = self.shared.pending.lock();
        // Re-check under the pending lock: the batcher takes this lock for
        // its final drain only after observing the shutdown flag, so a push
        // that lands here is guaranteed to be flushed, and a push that would
        // land after the drain is rejected instead of stranding the task.
        if self.shared.shutdown.load(Ordering::SeqCst) {
            drop(pending);
            self.shared.inflight.lock().remove(&spec.task_id);
            return Err(GcxError::ShuttingDown);
        }
        pending.push(PendingSubmit {
            submitted_ms,
            spec,
            enqueued_at: Instant::now(),
        });
        // The push that fills a batch ships it now: a load unless the
        // batcher is parked. A shorter batch waits for the batcher's tick.
        if pending.len() == self.shared.full {
            self.shared.batch_ready.notify_one();
        }
        Ok(future)
    }

    /// Register (or reuse) a function body, returning its id.
    pub fn ensure_registered(&self, body: FunctionBody) -> GcxResult<FunctionId> {
        let hash = body.content_hash();
        if let Some(id) = self.shared.registered.lock().get(&hash) {
            return Ok(*id);
        }
        let id = self
            .shared
            .link
            .register_function(&self.shared.token, body)?;
        self.shared.registered.lock().insert(hash, id);
        Ok(id)
    }

    /// Number of futures still awaiting results.
    pub fn inflight(&self) -> usize {
        self.shared.inflight.lock().len()
    }

    /// The metrics registry the executor's `sdk.*` counters land in: the
    /// service's registry for a local link, the link's own for a wire
    /// client (a separate OS process has no service registry to share).
    pub fn metrics(&self) -> gcx_core::metrics::MetricsRegistry {
        self.shared.link.metrics()
    }

    /// The connected service's SLO health document — assembled in-process
    /// for a local link, fetched with a `health` wire request otherwise.
    pub fn health(&self) -> GcxResult<gcx_core::health::HealthDoc> {
        self.shared.link.health()
    }

    /// Cancel a submitted task (best effort, like `Future.cancel()`): the
    /// cloud marks it cancelled, the endpoint skips it if it has not
    /// started, and the future resolves with [`GcxError::Cancelled`].
    /// Returns `false` if the task already completed.
    pub fn cancel(&self, future: &TaskFuture) -> GcxResult<bool> {
        if future.done() {
            return Ok(false);
        }
        let task_id = future.task_id();
        match self.shared.link.cancel_task(&self.shared.token, task_id) {
            Ok(CancelOutcome::Cancelled) => {
                self.shared.inflight.lock().remove(&task_id);
                future.resolve(Err(GcxError::Cancelled(task_id)));
                Ok(true)
            }
            // Raced a result (or expiry): the terminal outcome stands and
            // reaches the future through the normal stream path.
            Ok(CancelOutcome::AlreadyTerminal(_)) => Ok(false),
            // Raced a result this executor took since: the service retired
            // the task once the future resolved.
            Err(GcxError::TaskNotFound(_)) if future.done() => Ok(false),
            Err(GcxError::TaskNotFound(_)) => {
                // Not yet flushed from the batcher: cancel locally.
                let mut pending = self.shared.pending.lock();
                if let Some(pos) = pending.iter().position(|p| p.spec.task_id == task_id) {
                    pending.remove(pos);
                    drop(pending);
                    self.shared.inflight.lock().remove(&task_id);
                    future.resolve(Err(GcxError::Cancelled(task_id)));
                    return Ok(true);
                }
                Err(GcxError::TaskNotFound(task_id))
            }
            Err(e) => Err(e),
        }
    }

    /// Flush pending submissions and stop background threads. Outstanding
    /// futures resolve with `ShuttingDown` errors only if their results
    /// never arrived (mirrors `Executor.shutdown(cancel_futures=False)`).
    pub fn close(mut self) {
        self.close_inner();
    }

    fn close_inner(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Under the lock the batcher re-reads the flag with before it
        // parks, so it is either parked now or sees the flag.
        {
            let _pending = self.shared.pending.lock();
            self.shared.batch_ready.notify_one();
        }
        if let Some(h) = self.batcher.take() {
            let _ = h.join();
        }
        // What was flushed has the grace to land on the live feed; then
        // the feed is cancelled, and what never landed fails.
        let deadline = Instant::now() + SHUTDOWN_GRACE;
        let inflight = self.shared.inflight.lock();
        let flushed: Vec<_> = inflight.values().map(|inf| inf.future.clone()).collect();
        drop(inflight);
        for future in flushed {
            let _ = future.result_timeout(deadline.saturating_duration_since(Instant::now()));
        }
        if let Some(cancel) = self.shared.feed_cancel.lock().take() {
            cancel();
        }
        if let Some(h) = self.streamer.take() {
            let _ = h.join();
        }
        for (_, inf) in self.shared.inflight.lock().drain() {
            inf.future.resolve(Err(GcxError::ShuttingDown));
        }
        // Wire links say Goodbye and drop the connection; local is a no-op.
        self.shared.link.close();
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.close_inner();
    }
}

/// One pass: confirm what was taken, promote what served its backoff, then
/// ship a batch if one is due — `pending` holds `max_batch`, its oldest
/// entry has waited `batch_window`, or the executor is closing. With nothing
/// due it parks on `pending` for a tick; the push that fills a batch and
/// `close()` cut the park short.
fn batcher_loop(shared: &ExecutorShared, cfg: ExecutorConfig) {
    let mut confirming = Vec::new();
    let mut shipped: Vec<Shipped> = Vec::new();
    loop {
        send_confirms(shared, &mut confirming);
        let shutting_down = shared.shutdown.load(Ordering::SeqCst);
        // Promote resubmissions whose backoff has elapsed (all of them at
        // shutdown, so nothing is stranded in the delay queue).
        {
            let now = Instant::now();
            let mut delayed = shared.delayed.lock();
            let mut i = 0;
            while i < delayed.len() {
                if shutting_down || delayed[i].0 <= now {
                    let (_, mut p) = delayed.swap_remove(i);
                    p.enqueued_at = now;
                    shared.pending.lock().push(p);
                } else {
                    i += 1;
                }
            }
        }
        let specs: Vec<TaskSpec> = {
            let mut pending = shared.pending.lock();
            let due = !pending.is_empty()
                && (shutting_down
                    || pending.len() >= shared.full
                    || pending
                        .first()
                        .is_some_and(|p| p.enqueued_at.elapsed() >= cfg.batch_window));
            if !due {
                if shutting_down {
                    break;
                }
                // Re-read under the lock `close()` notifies under: a flag
                // set since the top of the pass means no park.
                if !shared.shutdown.load(Ordering::SeqCst) {
                    shared.batch_ready.wait_for(&mut pending, TICK);
                }
                continue;
            }
            // One REST request carries at most max_batch tasks. The specs
            // move to the link; the batcher keeps what it needs of each.
            let n = pending.len().min(shared.full);
            shipped.clear();
            pending
                .drain(..n)
                .map(|p| {
                    shipped.push(Shipped {
                        task_id: p.spec.task_id,
                        trace: p.spec.trace,
                        submitted_ms: p.submitted_ms,
                    });
                    p.spec
                })
                .collect()
        };
        match shared.link.submit_batch(&shared.token, specs) {
            Ok(_) => {
                // Submit leg: submit() call → batch accepted by the REST
                // API (covers the coalescing window).
                let tracer = &shared.tracer;
                let now = tracer.now_ms();
                for s in &shipped {
                    tracer.record_span(s.trace.as_ref(), "submit", s.submitted_ms, now);
                }
            }
            Err(e) => {
                // The whole batch was rejected: fail (or, for retryable
                // rejections, resubmit) each task.
                for s in &shipped {
                    fail_or_retry(shared, &cfg.retry, s.task_id, e.clone());
                }
            }
        }
    }
    // No call of ours is outstanding any more: what the stream thread takes
    // from here on it confirms itself.
    let last = shared.taken.lock().take().unwrap_or_default();
    shared.link.confirm(&shared.token, &last);
}

/// Confirm the results the stream thread took since the last pass. Called
/// only between this thread's own submit calls, so every id it confirms
/// was carried by a call that has returned: the wire link, which re-sends
/// a batch only while its call is outstanding, never names a retired id
/// again. `confirming` is a spare list, swapped with the shared one.
fn send_confirms(shared: &ExecutorShared, confirming: &mut Vec<TaskId>) {
    if let Some(taken) = shared.taken.lock().as_mut() {
        std::mem::swap(taken, confirming);
    }
    if !confirming.is_empty() {
        shared.link.confirm(&shared.token, confirming);
        confirming.clear();
    }
}

/// Resolve futures from the feed, with no timeout, until `close()` cancels
/// it (after its grace).
fn stream_loop(shared: &ExecutorShared, retry: &RetryPolicy, mut stream: ResultFeed) {
    loop {
        match stream.next(Duration::MAX) {
            Ok(Some((task_id, Ok(result)))) => {
                // Taken: the service may forget the task. Only a result
                // this executor was waiting for, so a result pushed to
                // every stream of the identity retires nothing.
                if complete_task(shared, retry, task_id, result) {
                    let mut taken = shared.taken.lock();
                    match taken.as_mut() {
                        Some(taken) => taken.push(task_id),
                        None => {
                            drop(taken);
                            shared.link.confirm(&shared.token, &[task_id]);
                        }
                    }
                }
            }
            Ok(Some((task_id, Err(e)))) => {
                // An envelope arrived for the task but its result would not
                // parse: the future fails rather than hanging forever.
                if let Some(inf) = shared.inflight.lock().remove(&task_id) {
                    inf.future.resolve(Err(e));
                }
            }
            Ok(None) => {}
            Err(_) if shared.feed_cancel.lock().is_none() => return, // `close()` cancelled it
            Err(_) => match reconnect_stream(shared, retry) {
                Some(s) => match &mut *shared.feed_cancel.lock() {
                    Some(cancel) => {
                        *cancel = s.canceller();
                        stream = s;
                    }
                    None => return, // `close()` is past its grace
                },
                None => return,
            },
        }
    }
}

/// The result feed broke (broker restart, queue deleted, replica death, or
/// a severed wire connection). Reopen it under the retry policy's backoff
/// (the link moves to a live replica on its own), then catch up on any
/// results that were published while we were disconnected with one batched
/// status call. Returns `None` once the budget is exhausted (all inflight
/// futures are failed first) or at shutdown.
///
/// Kept out of line: inlined into `stream_loop` it cost `svc_inmem` 1.5% of
/// its tasks/s (EXPERIMENTS.md, PR 13).
#[cold]
#[inline(never)]
fn reconnect_stream(shared: &ExecutorShared, retry: &RetryPolicy) -> Option<ResultFeed> {
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        if !retry.allows(attempt) {
            let err = GcxError::RetriesExhausted {
                attempts: attempt,
                last: "result stream disconnected".into(),
            };
            let mut inflight = shared.inflight.lock();
            for (_, inf) in inflight.drain() {
                inf.future.resolve(Err(err.clone()));
            }
            return None;
        }
        if shared.shutdown.load(Ordering::SeqCst) && shared.inflight.lock().is_empty() {
            return None;
        }
        std::thread::sleep(retry.backoff(attempt));
        if let Ok(stream) = shared.link.open_stream(&shared.token) {
            shared.stream_reconnects.inc();
            catch_up(shared, retry);
            return Some(stream);
        }
    }
}

/// After a reconnect, resolve (or resubmit) every inflight task that reached
/// a terminal state while the stream was down — its result went to the dead
/// queue and will never be streamed again.
fn catch_up(shared: &ExecutorShared, retry: &RetryPolicy) {
    let ids: Vec<TaskId> = shared.inflight.lock().keys().copied().collect();
    if ids.is_empty() {
        return;
    }
    let statuses = shared
        .link
        .task_status_batch(&shared.token, &ids)
        .unwrap_or_default();
    for (task_id, state, result) in statuses {
        if state.is_terminal() {
            if let Some(result) = result {
                complete_task(shared, retry, task_id, result);
            }
        }
    }
}

/// A terminal result arrived for `task_id`: resolve the future, unless the
/// result is a *retryable* failure and the retry budget still allows a
/// resubmission. Returns whether `task_id` was in flight here.
fn complete_task(
    shared: &ExecutorShared,
    retry: &RetryPolicy,
    task_id: TaskId,
    result: TaskResult,
) -> bool {
    match result.into_result() {
        Err(e) if e.is_retryable() => fail_or_retry(shared, retry, task_id, e),
        outcome => {
            let Some(inf) = shared.inflight.lock().remove(&task_id) else {
                return false;
            };
            inf.future.resolve(outcome);
            true
        }
    }
}

/// `task_id` failed with `err`. If the error is retryable and the budget
/// allows another attempt, resubmit the task under a fresh id after the
/// policy's backoff; otherwise resolve the future — with
/// [`GcxError::RetriesExhausted`] when retries ran out, or the error itself
/// when it is fatal. Returns whether `task_id` was in flight here.
fn fail_or_retry(
    shared: &ExecutorShared,
    retry: &RetryPolicy,
    task_id: TaskId,
    err: GcxError,
) -> bool {
    let Some(mut inf) = shared.inflight.lock().remove(&task_id) else {
        return false;
    };
    if !err.is_retryable() {
        inf.future.resolve(Err(err));
        return true;
    }
    if !retry.allows(inf.attempts) || shared.shutdown.load(Ordering::SeqCst) {
        shared.tracer.annotate(inf.spec.trace.as_ref(), || {
            format!("retries exhausted after {} attempts: {err}", inf.attempts)
        });
        // Exhausting the budget against admission control stays typed: the
        // caller should see `Overloaded` (and its retry hint), not a
        // generic retries-exhausted wrapper.
        let last = if matches!(err, GcxError::Overloaded { .. }) {
            err
        } else {
            GcxError::RetriesExhausted {
                attempts: inf.attempts,
                last: err.to_string(),
            }
        };
        inf.future.resolve(Err(last));
        return true;
    }
    // Resubmit under a fresh task id: the old id's record is terminal on the
    // cloud side, so reusing it would let straggler duplicate deliveries of
    // the failed attempt race the new one.
    // An overloaded service names its own price: stretch the policy's
    // backoff to at least the server's `retry_after_ms` hint.
    let mut backoff = retry.backoff(inf.attempts);
    if let Some(hint_ms) = err.retry_after_ms() {
        shared.overload_backoffs.inc();
        backoff = backoff.max(Duration::from_millis(hint_ms));
    }
    inf.attempts += 1;
    inf.spec.task_id = TaskId::random();
    shared.tasks_resubmitted.inc();
    let now = shared.tracer.now_ms();
    let attempt = inf.attempts;
    shared
        .tracer
        .record_span_annotated(inf.spec.trace.as_ref(), "retry", now, now, || {
            vec![format!("attempt {attempt} resubmitted after: {err}")]
        });
    let pending = PendingSubmit {
        spec: inf.spec.clone(),
        enqueued_at: Instant::now(),
        submitted_ms: now,
    };
    shared.inflight.lock().insert(inf.spec.task_id, inf);
    shared
        .delayed
        .lock()
        .push((Instant::now() + backoff, pending));
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::{MpiFunction, PyFunction, ShellFunction};
    use gcx_auth::AuthPolicy;
    use gcx_core::clock::SystemClock;
    use gcx_endpoint::{AgentEnv, EndpointAgent, EndpointConfig};

    struct Stack {
        svc: WebService,
        token: Token,
        ep: EndpointId,
        agent: Option<EndpointAgent>,
    }

    impl Stack {
        fn new(engine_yaml: &str) -> Self {
            let svc = WebService::with_defaults(SystemClock::shared());
            let (_, token) = svc.auth().login("user@site.org").unwrap();
            let reg = svc
                .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
                .unwrap();
            let config = EndpointConfig::from_yaml(engine_yaml).unwrap();
            let agent = EndpointAgent::start(
                &svc,
                reg.endpoint_id,
                &reg.queue_credential,
                &config,
                AgentEnv::local(SystemClock::shared()),
            )
            .unwrap();
            Self {
                svc,
                token,
                ep: reg.endpoint_id,
                agent: Some(agent),
            }
        }

        fn executor(&self) -> Executor {
            Executor::new(self.svc.clone(), self.token.clone(), self.ep).unwrap()
        }
    }

    impl Drop for Stack {
        fn drop(&mut self) {
            if let Some(agent) = self.agent.take() {
                agent.stop();
            }
            self.svc.shutdown();
        }
    }

    #[test]
    fn listing1_submit_and_result() {
        let stack = Stack::new("engine:\n  type: GlobusComputeEngine\n  workers_per_node: 2\n");
        let ex = stack.executor();
        let some_task = PyFunction::new("def some_task():\n    return 1\n");
        let fut = ex.submit(&some_task, vec![], Value::None).unwrap();
        assert_eq!(
            fut.result_timeout(Duration::from_secs(10)).unwrap(),
            Value::Int(1)
        );
        ex.close();
    }

    #[test]
    fn many_futures_resolve() {
        let stack = Stack::new("engine:\n  type: GlobusComputeEngine\n  workers_per_node: 4\n");
        let ex = stack.executor();
        let sq = PyFunction::new("def sq(x):\n    return x * x\n");
        let futures: Vec<TaskFuture> = (0..50)
            .map(|i| ex.submit(&sq, vec![Value::Int(i)], Value::None).unwrap())
            .collect();
        for (i, f) in futures.iter().enumerate() {
            assert_eq!(
                f.result_timeout(Duration::from_secs(15)).unwrap(),
                Value::Int((i * i) as i64)
            );
        }
        assert_eq!(ex.inflight(), 0);
        // The payload plane's counters are readable straight off the
        // executor: for a local link this is the service's own registry.
        let m = ex.metrics();
        assert_eq!(
            m.counter("blob.cas_misses").get() + m.counter("blob.cas_hits").get(),
            0,
            "an argument no longer than its reference is never interned"
        );
        assert!(
            m.counter("payload.bytes_moved").get() > 0,
            "inline-sized payloads count their queue bytes"
        );
        ex.close();
    }

    #[test]
    fn on_the_fly_registration_dedupes() {
        let stack = Stack::new("engine:\n  type: GlobusComputeEngine\n");
        let ex = stack.executor();
        let f = PyFunction::new("def f():\n    return 1\n");
        stack.svc.metrics().reset_counters();
        for _ in 0..10 {
            ex.submit(&f, vec![], Value::None).unwrap();
        }
        // 10 submissions, but the function registered at most once (the
        // counter includes the submit batches, so measure via function ids).
        let id1 = ex.ensure_registered(f.body()).unwrap();
        let id2 = ex.ensure_registered(f.body()).unwrap();
        assert_eq!(id1, id2);
        ex.close();
    }

    /// A submit reads the function's hash; the body is built only to
    /// register it, once however many tasks call the function.
    #[test]
    fn a_function_body_is_built_once_over_many_submits() {
        struct Counted {
            f: PyFunction,
            built: std::sync::atomic::AtomicUsize,
        }
        impl Function for Counted {
            fn body(&self) -> FunctionBody {
                self.built.fetch_add(1, Ordering::Relaxed);
                self.f.body()
            }
            fn content_hash(&self) -> u64 {
                self.f.content_hash()
            }
        }
        let stack = Stack::new("engine:\n  type: GlobusComputeEngine\n");
        let ex = stack.executor();
        let f = Counted {
            f: PyFunction::new("def f(x):\n    return x\n"),
            built: Default::default(),
        };
        let futures: Vec<TaskFuture> = (0..1000)
            .map(|i| ex.submit(&f, vec![Value::Int(i)], Value::None).unwrap())
            .collect();
        for (i, fut) in futures.iter().enumerate() {
            assert_eq!(
                fut.result_timeout(Duration::from_secs(30)).unwrap(),
                Value::Int(i as i64)
            );
        }
        assert_eq!(f.built.load(Ordering::Relaxed), 1);
        ex.close();
    }

    #[test]
    fn batching_coalesces_rest_requests() {
        let stack = Stack::new("engine:\n  type: GlobusComputeEngine\n  workers_per_node: 4\n");
        let ex = Executor::with_config(
            stack.svc.clone(),
            stack.token.clone(),
            stack.ep,
            ExecutorConfig {
                batch_window: Duration::from_millis(50),
                max_batch: 1000,
                ..ExecutorConfig::default()
            },
        )
        .unwrap();
        let f = PyFunction::new("def f(x):\n    return x\n");
        let fid = ex.ensure_registered(f.body()).unwrap();
        let _ = fid;
        stack.svc.metrics().reset_counters();
        let futures: Vec<TaskFuture> = (0..30)
            .map(|i| ex.submit(&f, vec![Value::Int(i)], Value::None).unwrap())
            .collect();
        for fut in &futures {
            fut.result_timeout(Duration::from_secs(10)).unwrap();
        }
        let api_requests = stack.svc.metrics().counter("api.requests").get();
        assert!(
            api_requests <= 3,
            "30 tasks submitted in a 50 ms window must coalesce into few REST calls, got {api_requests}"
        );
        ex.close();
    }

    #[test]
    fn listing2_shellfunction_roundtrip() {
        let stack = Stack::new("engine:\n  type: GlobusComputeEngine\n");
        let ex = stack.executor();
        let sf = ShellFunction::new("echo '{message}'");
        let mut outputs = Vec::new();
        for msg in ["hello", "hola", "bonjour"] {
            let fut = ex
                .submit(&sf, vec![], Value::map([("message", Value::str(msg))]))
                .unwrap();
            let sr = fut.shell_result().unwrap();
            outputs.push(sr.stdout.trim().to_string());
        }
        assert_eq!(outputs, vec!["hello", "hola", "bonjour"]);
        ex.close();
    }

    #[test]
    fn listing3_walltime_returncode_124() {
        let stack = Stack::new("engine:\n  type: GlobusComputeEngine\n");
        let ex = stack.executor();
        let bf = ShellFunction::new("sleep 2").with_walltime(0.2);
        let fut = ex.submit(&bf, vec![], Value::None).unwrap();
        let sr = fut.shell_result().unwrap();
        assert_eq!(sr.returncode, 124);
        ex.close();
    }

    #[test]
    fn listing6_mpifunction_with_resource_spec() {
        let stack = Stack::new("engine:\n  type: GlobusMPIEngine\n  nodes_per_block: 4\n");
        let ex = stack.executor();
        let func = MpiFunction::new("hostname");
        // Listing 6's loop (2 nodes, n ranks each), then other shapes.
        for (nodes, n) in [(2, 1), (2, 2), (1, 1), (4, 1), (4, 2), (3, 4)] {
            ex.set_resource_specification(ResourceSpec::nodes_ranks(nodes, n));
            let fut = ex.submit(&func, vec![], Value::None).unwrap();
            let sr = fut.shell_result().unwrap();
            let lines: Vec<&str> = sr.stdout.lines().collect();
            assert_eq!(
                lines.len(),
                (nodes * n) as usize,
                "{nodes}x{n}: one hostname line per rank"
            );
            let distinct: std::collections::BTreeSet<&str> = lines.into_iter().collect();
            assert_eq!(
                distinct.len(),
                nodes as usize,
                "{nodes}x{n}: ranks span the nodes"
            );
        }
        ex.close();
    }

    #[test]
    fn execution_error_resolves_future_with_err() {
        let stack = Stack::new("engine:\n  type: GlobusComputeEngine\n");
        let ex = stack.executor();
        let bad = PyFunction::new("def f():\n    return 1 / 0\n");
        let fut = ex.submit(&bad, vec![], Value::None).unwrap();
        let err = fut.result_timeout(Duration::from_secs(10)).unwrap_err();
        assert!(matches!(err, GcxError::Execution(m) if m.contains("ZeroDivisionError")));
        ex.close();
    }

    #[test]
    fn batch_rejection_fails_all_futures() {
        let stack = Stack::new("engine:\n  type: GlobusComputeEngine\n");
        // Executor pointed at a nonexistent endpoint: the whole batch is
        // rejected and every future resolves with the error.
        let ex =
            Executor::new(stack.svc.clone(), stack.token.clone(), EndpointId::random()).unwrap();
        let f = PyFunction::new("def f():\n    return 1\n");
        let fut = ex.submit(&f, vec![], Value::None).unwrap();
        let err = fut.result_timeout(Duration::from_secs(5)).unwrap_err();
        assert!(matches!(err, GcxError::EndpointNotFound(_)));
        ex.close();
    }

    #[test]
    fn close_flushes_pending_batch_and_drains_results() {
        let stack = Stack::new("engine:\n  type: GlobusComputeEngine\n  workers_per_node: 2\n");
        let ex = Executor::with_config(
            stack.svc.clone(),
            stack.token.clone(),
            stack.ep,
            ExecutorConfig {
                // A window far longer than the test: only the shutdown path
                // can flush this batch.
                batch_window: Duration::from_secs(60),
                max_batch: 1000,
                ..ExecutorConfig::default()
            },
        )
        .unwrap();
        let f = PyFunction::new("def f(x):\n    return x + 1\n");
        let futures: Vec<TaskFuture> = (0..5)
            .map(|i| ex.submit(&f, vec![Value::Int(i)], Value::None).unwrap())
            .collect();
        // Nothing has shipped yet (the window is a minute long); close()
        // must flush the pending batch and wait out its results.
        ex.close();
        for (i, fut) in futures.iter().enumerate() {
            assert_eq!(
                fut.result_timeout(Duration::from_millis(100)).unwrap(),
                Value::Int(i as i64 + 1),
                "close() must flush the pending batch and drain its results"
            );
        }
    }

    /// A result that lands after `close()` starts still resolves its future
    /// Ok, on an executor with no retry budget and without a reconnect:
    /// `close()` cancels the feed only once its grace is over. Locally and
    /// over the wire.
    #[test]
    fn close_resolves_a_result_that_lands_after_it_starts() {
        close_waits_for_late_result(false);
        close_waits_for_late_result(true);
    }

    fn close_waits_for_late_result(wire: bool) {
        use crate::link::WireLink;
        use gcx_cloud::{WireClient, WireClientConfig, WireServer};
        use gcx_config::TransportSpec;

        let svc = WebService::with_defaults(SystemClock::shared());
        let (_, token) = svc.auth().login("late@site.org").unwrap();
        let reg = svc
            .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
            .unwrap();
        let server = WireServer::inmem(&svc, TransportSpec::default());
        let link = if wire {
            let cfg = WireClientConfig::default();
            let client = WireClient::over(server.connect_inmem(), &token.0, cfg.clone()).unwrap();
            Link::Wire(WireLink::over(client, cfg))
        } else {
            Link::local(svc.clone())
        };
        let cfg = ExecutorConfig {
            retry: RetryPolicy::none(),
            ..ExecutorConfig::default()
        };
        let ex = Executor::build(link, token.clone(), reg.endpoint_id, cfg).unwrap();
        let metrics = ex.metrics();
        let f = PyFunction::new("def f():\n    return 1\n");
        let fut = ex.submit(&f, vec![], Value::None).unwrap();
        let session = svc
            .connect_endpoint(reg.endpoint_id, &reg.queue_credential)
            .unwrap();
        let (spec, tag) = session
            .next_task(Duration::from_secs(10))
            .unwrap()
            .expect("the task reaches the endpoint queue");
        let late = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            session
                .publish_result(spec.task_id, &TaskResult::ok(Value::Int(7)))
                .unwrap();
            session.ack_task(tag).unwrap();
        });
        ex.close();
        late.join().unwrap();
        assert_eq!(
            fut.result_timeout(Duration::ZERO).unwrap(),
            Value::Int(7),
            "wire: {wire}"
        );
        assert_eq!(
            metrics.counter("sdk.stream_reconnects").get(),
            0,
            "wire: {wire}: close() is not a broken feed"
        );
        server.shutdown();
        svc.shutdown();
    }

    /// 4096 futures outstanding over the wire with the stream thread held
    /// up (a slow `on_done` callback) while every result is published: the
    /// connection must hold the backlog, not drop it. (Pushes beyond a
    /// 1024-deep client channel used to be discarded, stranding futures.)
    /// Every result taken is confirmed, so the service then forgets every
    /// task — over an in-memory connection and over TCP alike.
    #[test]
    fn wire_executor_resolves_4096_outstanding_futures() {
        wire_backlog_resolves_and_retires(false);
        wire_backlog_resolves_and_retires(true);
    }

    fn wire_backlog_resolves_and_retires(tcp: bool) {
        use crate::link::WireLink;
        use gcx_cloud::{WireClient, WireClientConfig, WireServer};
        use gcx_config::TransportSpec;

        const TASKS: usize = 4096;
        let svc = WebService::with_defaults(SystemClock::shared());
        let (_, token) = svc.auth().login("backlog@site.org").unwrap();
        let reg = svc
            .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
            .unwrap();
        let wire_cfg = WireClientConfig::default();
        let (server, link) = if tcp {
            let server = WireServer::listen(&svc, TransportSpec::default()).unwrap();
            let addrs = vec![server.addr().to_string()];
            (server, Link::connect(addrs, &token.0, wire_cfg).unwrap())
        } else {
            let server = WireServer::inmem(&svc, TransportSpec::default());
            let client =
                WireClient::over(server.connect_inmem(), &token.0, wire_cfg.clone()).unwrap();
            (server, Link::Wire(WireLink::over(client, wire_cfg)))
        };
        let ex = Executor::build(
            link,
            token.clone(),
            reg.endpoint_id,
            ExecutorConfig::default(),
        )
        .unwrap();

        let inc = PyFunction::new("def f(x):\n    return x + 1\n");
        let futures: Vec<TaskFuture> = (0..TASKS)
            .map(|i| {
                ex.submit(&inc, vec![Value::Int(i as i64)], Value::None)
                    .unwrap()
            })
            .collect();
        // The first result to resolve parks the stream thread until every
        // result has been published behind it.
        let (published_tx, published_rx) = crossbeam_channel::bounded::<()>(1);
        let first = Arc::new(AtomicBool::new(true));
        for f in &futures {
            let (first, published_rx) = (first.clone(), published_rx.clone());
            f.on_done(move |_| {
                if first.swap(false, Ordering::SeqCst) {
                    let _ = published_rx.recv_timeout(Duration::from_secs(30));
                }
            });
        }

        // Submissions first: once the stream thread parks, the connection
        // carries nothing else (requests queue behind the unread pushes).
        let deadline = Instant::now() + Duration::from_secs(30);
        while svc.metrics().counter("cloud.tasks_submitted").get() < TASKS as u64 {
            assert!(Instant::now() < deadline, "submissions did not land");
            std::thread::sleep(Duration::from_millis(5));
        }
        let session = svc
            .connect_endpoint(reg.endpoint_id, &reg.queue_credential)
            .unwrap();
        for _ in 0..TASKS {
            let (spec, tag) = session
                .next_task(Duration::from_secs(10))
                .unwrap()
                .expect("every submitted task reaches the endpoint queue");
            let x = spec.decode_args().unwrap().0[0].as_int().unwrap();
            session
                .publish_result(spec.task_id, &TaskResult::ok(Value::Int(x + 1)))
                .unwrap();
            session.ack_task(tag).unwrap();
        }
        published_tx.send(()).unwrap();

        for (i, f) in futures.iter().enumerate() {
            assert_eq!(
                f.result_timeout(Duration::from_secs(30)).unwrap(),
                Value::Int(i as i64 + 1),
                "future {i} of {TASKS} stranded (tcp: {tcp})"
            );
        }
        assert_eq!(ex.inflight(), 0);
        // Confirmed over the wire: each `Confirm` frame retires its records
        // as the server's connection thread reads it.
        let resident = svc.metrics().gauge("cloud.tasks_resident");
        let deadline = Instant::now() + Duration::from_secs(10);
        while resident.get() != 0 {
            assert!(
                Instant::now() < deadline,
                "tcp: {tcp}: {} records still held",
                resident.get()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        for f in &futures {
            assert!(matches!(
                svc.task_status(&token, f.task_id()),
                Err(GcxError::TaskNotFound(_))
            ));
        }
        ex.close();
        server.shutdown();
        svc.shutdown();
    }

    /// The far half of an in-memory pair, standing in for the wire server:
    /// its HelloAck is already in the pipe, so a client handshakes without
    /// a thread on this side. The stub reads the client's `Hello` first.
    fn stub_server() -> (
        Arc<dyn gcx_core::wire::Transport>,
        gcx_core::wire::InMemTransport,
    ) {
        use gcx_core::wire::{Frame, FrameType, InMemTransport, Transport, WIRE_VERSION};
        let (client, server) = InMemTransport::pair(gcx_core::wire::DEFAULT_MAX_FRAME);
        let ack = Value::map([("version", Value::Int(WIRE_VERSION))]);
        server
            .send(&Frame::new(FrameType::HelloAck, 0, ack))
            .unwrap();
        (Arc::new(client), server)
    }

    fn quiet_wire_cfg() -> gcx_cloud::WireClientConfig {
        gcx_cloud::WireClientConfig {
            // No heartbeat inside a test: every frame out is the test's.
            heartbeat_interval: Duration::from_secs(3600),
            ..gcx_cloud::WireClientConfig::default()
        }
    }

    /// A confirmation is one `Confirm` frame of packed ids.
    #[test]
    fn wire_executor_link_confirms_only_to_a_capable_server() {
        use crate::link::WireLink;
        use gcx_cloud::WireClient;
        use gcx_core::metrics::MetricsRegistry;
        use gcx_core::wire::{batch, FrameType, Transport};

        let token = Token("stub".into());
        let ids = [TaskId::random(), TaskId::random()];
        let (transport, server) = stub_server();
        let registry = MetricsRegistry::new();
        let client =
            WireClient::over_with_registry(transport, &token.0, quiet_wire_cfg(), &registry)
                .unwrap();
        let link = Link::Wire(WireLink::over(client, quiet_wire_cfg()));
        let frames_out = registry.counter("wire.frames_out");
        let before = frames_out.get();
        link.confirm(&token, &ids);
        assert_eq!(frames_out.get(), before + 1);
        let hello = server.recv(Duration::from_secs(5)).unwrap().unwrap();
        assert_eq!(hello.frame_type, FrameType::Hello);
        let frame = server.recv(Duration::from_secs(5)).unwrap().unwrap();
        assert_eq!(frame.frame_type, FrameType::Confirm);
        let Value::Bytes(body) = frame.payload else {
            panic!("a confirm body is packed ids")
        };
        assert_eq!(batch::unpack_ids(&body).unwrap(), ids);
        link.close();
    }

    /// Why the batcher sends the confirmations: a push can beat the answer
    /// to its own `submit_batch`, and the wire link re-sends a batch while
    /// its call is outstanding, so a confirm sent then could let a re-sent
    /// batch run a retired task again. A stub server pushes every result of
    /// a batch and answers the submit only once the futures have resolved:
    /// no `Confirm` may arrive before that answer, and one must after it.
    #[test]
    fn wire_executor_confirms_only_after_its_submit_returns() {
        use crate::link::WireLink;
        use gcx_cloud::WireClient;
        use gcx_core::wire::{batch, Frame, FrameType, Transport};

        const TASKS: usize = 4;
        let (transport, server) = stub_server();
        let (resolved_tx, resolved_rx) = crossbeam_channel::bounded::<()>(1);
        let (report_tx, report_rx) = crossbeam_channel::bounded(1);
        let stub = std::thread::spawn(move || {
            let (mut stream, mut answered, mut early) = (0, false, 0);
            let mut confirmed: Vec<TaskId> = Vec::new();
            // A confirm read before the submit is answered was sent before.
            let mut on_confirm = |frame: Frame, answered: bool| {
                let Value::Bytes(body) = frame.payload else {
                    panic!("a confirm body is packed ids")
                };
                early += usize::from(!answered);
                confirmed.extend(batch::unpack_ids(&body).unwrap());
                if confirmed.len() == TASKS {
                    let _ = report_tx.send((early, confirmed.clone()));
                }
            };
            while let Ok(Some(frame)) = server.recv(Duration::from_secs(10)) {
                let corr = frame.corr_id;
                match frame.frame_type {
                    FrameType::Confirm => on_confirm(frame, answered),
                    FrameType::Request => {
                        let method = frame.payload.get("method").and_then(Value::as_str);
                        let reply = match method.unwrap() {
                            "open_stream" => {
                                stream = corr;
                                Value::map([("stream", Value::Int(corr as i64))])
                            }
                            "register_function" => {
                                Value::map([("id", Value::str(FunctionId::random().to_string()))])
                            }
                            "submit_batch" => {
                                let Some(Value::Bytes(body)) = frame.payload.get("params") else {
                                    panic!("a submit body is packed specs")
                                };
                                let specs = batch::unpack_specs(&body.clone().into()).unwrap();
                                let mut push = Vec::new();
                                for spec in &specs {
                                    let result = TaskResult::ok(Value::Int(7));
                                    let envelope = result.to_envelope(spec.task_id, None);
                                    batch::write_push_entry(&mut push, None, &envelope);
                                }
                                let push = Frame::new(FrameType::Push, stream, Value::Bytes(push));
                                server.send(&push).unwrap();
                                // Taken while the call is outstanding; then
                                // room for many batcher passes.
                                resolved_rx.recv_timeout(Duration::from_secs(10)).unwrap();
                                std::thread::sleep(Duration::from_millis(50));
                                while let Ok(Some(frame)) = server.recv(Duration::ZERO) {
                                    if frame.frame_type == FrameType::Confirm {
                                        on_confirm(frame, false);
                                    }
                                }
                                let ids: Vec<TaskId> = specs.iter().map(|s| s.task_id).collect();
                                answered = true;
                                Value::Bytes(batch::pack_ids(&ids))
                            }
                            _ => Value::map([] as [(&str, Value); 0]),
                        };
                        server.send(&Frame::response_ok(corr, reply)).unwrap();
                    }
                    FrameType::Goodbye => break,
                    _ => {}
                }
            }
        });

        let token = Token("stub".into());
        let client = WireClient::over(transport, &token.0, quiet_wire_cfg()).unwrap();
        let link = Link::Wire(WireLink::over(client, quiet_wire_cfg()));
        let ex = Executor::build(
            link,
            token,
            EndpointId::random(),
            ExecutorConfig {
                // One batch, flushed when the last task joins it.
                batch_window: Duration::from_secs(60),
                max_batch: TASKS,
                ..ExecutorConfig::default()
            },
        )
        .unwrap();
        let f = PyFunction::new("def f():\n    return 7\n");
        let futures: Vec<TaskFuture> = (0..TASKS)
            .map(|_| ex.submit(&f, vec![], Value::None).unwrap())
            .collect();
        for fut in &futures {
            assert_eq!(
                fut.result_timeout(Duration::from_secs(10)).unwrap(),
                Value::Int(7)
            );
        }
        resolved_tx.send(()).unwrap();
        let (early, mut confirmed) = report_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the taken results are confirmed once the submit returns");
        assert_eq!(early, 0, "a confirm crossed an outstanding submit");
        confirmed.sort();
        let mut submitted: Vec<TaskId> = futures.iter().map(TaskFuture::task_id).collect();
        submitted.sort();
        assert_eq!(confirmed, submitted);
        ex.close();
        stub.join().unwrap();
    }

    #[test]
    fn submit_after_close_errors() {
        let stack = Stack::new("engine:\n  type: GlobusComputeEngine\n");
        let ex = stack.executor();
        let shared = Arc::clone(&ex.shared);
        ex.close();
        assert!(shared.shutdown.load(Ordering::SeqCst));
    }

    #[test]
    fn retryable_failures_resubmit_until_budget_exhausted() {
        let svc = WebService::with_defaults(SystemClock::shared());
        let (_, token) = svc.auth().login("user@site.org").unwrap();
        let reg = svc
            .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
            .unwrap();
        // A hostile endpoint that nacks every delivery: the broker
        // dead-letters each task once its delivery budget is spent and the
        // cloud fails it with a retryable error, driving the executor's
        // resubmission path end to end.
        let session = svc
            .connect_endpoint(reg.endpoint_id, &reg.queue_credential)
            .unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let nacker = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    if let Ok(Some((_, tag))) = session.next_task(Duration::from_millis(5)) {
                        let _ = session.nack_task(tag);
                    }
                }
            })
        };
        let ex = Executor::with_config(
            svc.clone(),
            token.clone(),
            reg.endpoint_id,
            ExecutorConfig {
                retry: RetryPolicy::fixed(3, 5),
                ..ExecutorConfig::default()
            },
        )
        .unwrap();
        let f = PyFunction::new("def f():\n    return 1\n");
        let fut = ex.submit(&f, vec![], Value::None).unwrap();
        let err = fut.result_timeout(Duration::from_secs(15)).unwrap_err();
        assert!(
            matches!(err, GcxError::RetriesExhausted { attempts: 3, .. }),
            "expected RetriesExhausted after 3 attempts, got {err:?}"
        );
        assert_eq!(
            svc.metrics().counter("sdk.tasks_resubmitted").get(),
            2,
            "a 3-attempt budget means exactly 2 resubmissions"
        );
        stop.store(true, Ordering::SeqCst);
        nacker.join().unwrap();
        ex.close();
        svc.shutdown();
    }

    #[test]
    fn stream_reconnects_and_catches_up_after_queue_loss() {
        let stack = Stack::new("engine:\n  type: GlobusComputeEngine\n  workers_per_node: 2\n");
        let ex = Executor::with_config(
            stack.svc.clone(),
            stack.token.clone(),
            stack.ep,
            ExecutorConfig {
                retry: RetryPolicy::fixed(5, 10),
                ..ExecutorConfig::default()
            },
        )
        .unwrap();
        let slow = PyFunction::new("def f():\n    sleep(0.05)\n    return 11\n");
        let fut = ex.submit(&slow, vec![], Value::None).unwrap();
        // Sever the AMQPS stream out from under the executor while the task
        // is still running; the result lands while we are disconnected and
        // must be recovered by the post-reconnect catch-up poll (or by the
        // fresh stream, depending on timing — both are correct).
        let stream_queue = stack
            .svc
            .broker()
            .queue_names()
            .into_iter()
            .find(|n| n.starts_with("stream."))
            .expect("executor holds a stream queue");
        stack.svc.broker().delete_queue(&stream_queue).unwrap();
        assert_eq!(
            fut.result_timeout(Duration::from_secs(10)).unwrap(),
            Value::Int(11)
        );
        assert!(
            stack.svc.metrics().counter("sdk.stream_reconnects").get() >= 1,
            "the executor must have reconnected its result stream"
        );
        assert_eq!(ex.inflight(), 0);
        ex.close();
    }

    #[test]
    fn federated_executor_survives_replica_kill_with_handover() {
        use gcx_cloud::{CloudConfig, Federation, FederationConfig};

        let clock: gcx_core::clock::SharedClock = SystemClock::shared();
        let auth = gcx_auth::AuthService::new(clock.clone());
        let broker = gcx_mq::Broker::with_profile(
            gcx_core::metrics::MetricsRegistry::new(),
            clock.clone(),
            gcx_mq::LinkProfile::instant(),
        );
        // A short replica heartbeat timeout so the background sweep detects
        // the kill and runs the handover within test time.
        let fed = Federation::with_parts(
            FederationConfig {
                replicas: 2,
                heartbeat_timeout_ms: 250,
            },
            CloudConfig::default(),
            auth,
            broker,
            clock,
        );
        let dir = fed.directory();
        let r1 = dir.get(1).unwrap();
        let (_, token) = fed.auth().login("fed@site.org").unwrap();
        // The agent connects through the survivor so only the executor's
        // replica dies.
        let reg = r1
            .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
            .unwrap();
        let config = EndpointConfig::from_yaml(
            "engine:\n  type: GlobusComputeEngine\n  workers_per_node: 4\n",
        )
        .unwrap();
        let agent = EndpointAgent::start(
            &r1,
            reg.endpoint_id,
            &reg.queue_credential,
            &config,
            AgentEnv::local(SystemClock::shared()),
        )
        .unwrap();

        // Bootstraps from the lowest live replica: replica 0.
        let ex = Executor::federated(
            dir.clone(),
            token.clone(),
            reg.endpoint_id,
            ExecutorConfig {
                retry: RetryPolicy::fixed(8, 20),
                ..ExecutorConfig::default()
            },
        )
        .unwrap();
        let slow = PyFunction::new("def f(x):\n    sleep(0.05)\n    return x + 1\n");
        let futures: Vec<TaskFuture> = (0..24)
            .map(|i| ex.submit(&slow, vec![Value::Int(i)], Value::None).unwrap())
            .collect();
        // Let the batch flush and some tasks start, then kill the replica
        // the executor is bound to and sever its stream. Recovery needs all
        // three federation mechanisms: the sweep hands replica 0's tasks
        // over to replica 1 (log replay + republish), queued result
        // envelopes re-route to the adopter, and the executor rotates its
        // stream to the survivor.
        std::thread::sleep(Duration::from_millis(100));
        fed.kill(0);
        let stream_queue = fed
            .broker()
            .queue_names()
            .into_iter()
            .find(|n| n.starts_with("stream."))
            .expect("executor holds a stream queue");
        fed.broker().delete_queue(&stream_queue).unwrap();
        for (i, f) in futures.iter().enumerate() {
            assert_eq!(
                f.result_timeout(Duration::from_secs(30)).unwrap(),
                Value::Int(i as i64 + 1),
                "task {i} must complete despite its replica dying"
            );
        }
        assert_eq!(ex.inflight(), 0);
        assert!(
            fed.metrics().counter("sdk.replica_rotations").get() >= 1,
            "the executor must have rotated away from the dead replica"
        );
        assert!(
            fed.metrics().counter("fed.replicas_dead").get() >= 1,
            "the sweep must have declared replica 0 dead"
        );
        ex.close();
        agent.stop();
        fed.shutdown();
    }

    /// A cancel whose `NotOwner` redirect names a replica that has just
    /// died keeps following until the survivor has adopted the task. (The
    /// executor used to follow exactly one hop and surface
    /// `ReplicaUnavailable`.)
    #[test]
    fn federated_cancel_outlives_a_dead_owner() {
        // A virtual clock: the handover happens exactly when this test says.
        let vclock = gcx_core::clock::VirtualClock::new();
        let fed = gcx_cloud::Federation::new(2, vclock.clone());
        let dir = fed.directory();
        let (_, token) = fed.auth().login("fed@site.org").unwrap();
        // Nobody serves the endpoint: submitted tasks stay cancellable.
        let ep = dir
            .get(0)
            .unwrap()
            .register_endpoint(&token, "idle", false, AuthPolicy::open(), None)
            .unwrap()
            .endpoint_id;
        // Bootstraps on replica 0; find a task replica 1 owns and wait for
        // the forwarded submit to land there.
        let ex =
            Executor::federated(dir.clone(), token.clone(), ep, ExecutorConfig::default()).unwrap();
        let f = PyFunction::new("def f():\n    return 1\n");
        let mut others = Vec::new();
        let fut = loop {
            let fut = ex.submit(&f, vec![], Value::None).unwrap();
            if fed.owner_of(fut.task_id().uuid()) == Some(1) {
                break fut;
            }
            others.push(fut);
        };
        let r1 = dir.get(1).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while r1.task_status(&token, fut.task_id()).is_err() {
            assert!(Instant::now() < deadline, "task never reached its owner");
            std::thread::sleep(Duration::from_millis(2));
        }

        fed.kill(1);
        let requests = fed.metrics().counter("api.requests");
        let before = requests.get();
        let returned = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // Hand replica 1's tasks over only once replica 0 has
                // answered the cancel with `NotOwner { 1 }` three times:
                // the cancel's next hop is a 64 ms backoff on the dead
                // owner, so the handover is long finished when it asks
                // replica 0 again (mid-handover the new owner would answer
                // `TaskNotFound`).
                while requests.get() < before + 3 {
                    if returned.load(Ordering::SeqCst) {
                        return; // gave up before the third hop
                    }
                    std::thread::yield_now();
                }
                vclock.advance(31_000);
                fed.heartbeat_all();
                assert_eq!(fed.check_replicas(), 1, "replica 1 declared dead");
            });
            let outcome = ex.cancel(&fut);
            returned.store(true, Ordering::SeqCst);
            assert!(outcome.unwrap(), "the survivor adopted and cancelled it");
        });
        // Nothing left in flight for close() to wait out.
        for other in &others {
            assert!(ex.cancel(other).unwrap());
        }
        ex.close();
        fed.shutdown();
    }

    #[test]
    fn no_polling_happens_on_the_streaming_path() {
        let stack = Stack::new("engine:\n  type: GlobusComputeEngine\n  workers_per_node: 2\n");
        let ex = stack.executor();
        stack.svc.metrics().reset_counters();
        let f = PyFunction::new("def f():\n    return 7\n");
        let fut = ex.submit(&f, vec![], Value::None).unwrap();
        assert_eq!(
            fut.result_timeout(Duration::from_secs(10)).unwrap(),
            Value::Int(7)
        );
        assert_eq!(
            stack.svc.metrics().counter("cloud.status_polls").get(),
            0,
            "the executor path must not poll"
        );
        ex.close();
    }
}
