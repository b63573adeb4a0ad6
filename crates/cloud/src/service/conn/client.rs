//! The dialing side of the wire: a multiplexing client that issues typed
//! requests over one connection, confirms the results it took, keeps the
//! connection alive with heartbeats, and receives server-push result
//! frames. One thread per connection reads it and beats.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam_channel::{bounded, Receiver, RecvTimeoutError, SendTimeoutError, Sender};
use gcx_core::clock::TimeMs;
use gcx_core::error::{GcxError, GcxResult};
use gcx_core::function::FunctionBody;
use gcx_core::health::HealthDoc;
use gcx_core::ids::{FunctionId, TaskId};
use gcx_core::metrics::MetricsRegistry;
use gcx_core::task::{TaskResult, TaskSpec, TaskState};
use gcx_core::trace::{Tracer, WireStamps};
use gcx_core::value::Value;
use gcx_core::wire::batch::{self, PushBatch};
use gcx_core::wire::{
    error_from_value, Frame, FrameType, TcpTransport, Transport, DEFAULT_MAX_FRAME, WIRE_VERSION,
};
use parking_lot::Mutex;

use super::super::CancelOutcome;
use super::{cancel_outcome_from_value, methods, status_entry_from_value, WireMetrics};

/// Push batches a subscription may hold undelivered before the demux thread
/// blocks on it (each is at most one server wake-up's worth of results).
const PUSH_QUEUE_BATCHES: usize = 8;

/// Client-side knobs. The defaults suit tests and localhost benches. The
/// frame ceiling is `DEFAULT_MAX_FRAME`, the same as the server's.
#[derive(Debug, Clone)]
pub struct WireClientConfig {
    /// Cadence of client→server heartbeat frames.
    pub heartbeat_interval: Duration,
    /// How long one request may wait for its response before a typed
    /// `Timeout` (the connection stays usable — a late response is
    /// discarded by correlation id).
    pub call_timeout: Duration,
}

impl Default for WireClientConfig {
    fn default() -> Self {
        Self {
            heartbeat_interval: Duration::from_millis(1_000),
            call_timeout: Duration::from_secs(10),
        }
    }
}

/// A subscription's channel; the receiver lets `close()` empty it.
type PushChannel = (Sender<PushBatch>, Receiver<PushBatch>);

struct Shared {
    transport: Arc<dyn Transport>,
    cfg: WireClientConfig,
    corr: AtomicU64,
    pending: Mutex<HashMap<u64, Sender<GcxResult<Value>>>>,
    subs: Mutex<HashMap<u64, PushChannel>>,
    /// The connection failed (transport error or server goodbye); every
    /// in-flight and future call gets a retryable error.
    dead: AtomicBool,
    /// We closed deliberately; threads exit quietly.
    closed: AtomicBool,
    /// Replica index reported in the server's HelloAck.
    replica: u32,
    /// Wire counters resolved on the caller's registry (frames in/out from
    /// this connection's point of view).
    metrics: WireMetrics,
    /// Tracer from the caller's registry; stamps `wire.send`/`wire.await`
    /// client legs on traced submissions, and `wire.push` on traced
    /// results. No-ops when tracing is off.
    tracer: Tracer,
}

impl Shared {
    /// The connection is lost: close the transport, which ends the demux
    /// thread's wait, and fail everything waiting on it.
    fn mark_dead(&self) {
        if self.dead.swap(true, Ordering::SeqCst) {
            return;
        }
        self.transport.close();
        let pending: Vec<Sender<GcxResult<Value>>> =
            self.pending.lock().drain().map(|(_, tx)| tx).collect();
        for tx in pending {
            let _ = tx.send(Err(GcxError::Transient("wire connection lost".into())));
        }
        // Dropping the senders disconnects every subscription receiver.
        self.subs.lock().clear();
    }
}

/// A connected wire client. Cloning shares the connection; call
/// [`WireClient::close`] once when done (threads also exit on their own if
/// the server closes the connection first).
#[derive(Clone)]
pub struct WireClient {
    shared: Arc<Shared>,
    threads: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl std::fmt::Debug for WireClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireClient")
            .field("peer", &self.shared.transport.peer())
            .field("replica", &self.shared.replica)
            .field("dead", &self.shared.dead.load(Ordering::SeqCst))
            .finish()
    }
}

impl WireClient {
    /// Dial a TCP wire server and run the hello handshake.
    pub fn connect_tcp(addr: &str, token: &str, cfg: WireClientConfig) -> GcxResult<Self> {
        Self::connect_tcp_with_registry(addr, token, cfg, &MetricsRegistry::new())
    }

    /// Like [`WireClient::connect_tcp`], but counting frames and recording
    /// client-side wire spans on the caller's registry.
    pub fn connect_tcp_with_registry(
        addr: &str,
        token: &str,
        cfg: WireClientConfig,
        registry: &MetricsRegistry,
    ) -> GcxResult<Self> {
        let transport = Arc::new(TcpTransport::connect(addr, DEFAULT_MAX_FRAME)?);
        Self::over_with_registry(transport, token, cfg, registry)
    }

    /// Run the handshake over an already-established transport (TCP or the
    /// in-memory half returned by `WireServer::connect_inmem`).
    pub fn over(
        transport: Arc<dyn Transport>,
        token: &str,
        cfg: WireClientConfig,
    ) -> GcxResult<Self> {
        Self::over_with_registry(transport, token, cfg, &MetricsRegistry::new())
    }

    /// Like [`WireClient::over`], but counting frames and recording
    /// client-side wire spans on the caller's registry.
    pub fn over_with_registry(
        transport: Arc<dyn Transport>,
        token: &str,
        cfg: WireClientConfig,
        registry: &MetricsRegistry,
    ) -> GcxResult<Self> {
        let metrics = WireMetrics::resolve(registry);
        let tracer = registry.tracer();
        metrics.send_counted(&*transport, &Frame::hello(token))?;
        let replica = match transport.recv(cfg.call_timeout)? {
            Some(ack) if ack.frame_type == FrameType::HelloAck => {
                metrics.frames_in.inc();
                let version = ack.payload.get("version").and_then(Value::as_int);
                if version != Some(WIRE_VERSION) {
                    transport.close();
                    return Err(GcxError::InvalidConfig(format!(
                        "wire version mismatch: server {version:?}, client {WIRE_VERSION}"
                    )));
                }
                ack.payload
                    .get("replica")
                    .and_then(Value::as_int)
                    .unwrap_or(0)
                    .max(0) as u32
            }
            Some(f) if f.frame_type == FrameType::Response => {
                // The server refused the handshake with a typed error.
                metrics.handshake_failures.inc();
                transport.close();
                let err = f
                    .payload
                    .get("err")
                    .map(error_from_value)
                    .unwrap_or_else(|| GcxError::Internal("malformed handshake refusal".into()));
                return Err(err);
            }
            Some(_) => {
                metrics.handshake_failures.inc();
                transport.close();
                return Err(GcxError::Codec("expected HelloAck".into()));
            }
            None => {
                metrics.handshake_failures.inc();
                transport.close();
                return Err(GcxError::Timeout("no HelloAck".into()));
            }
        };
        let shared = Arc::new(Shared {
            transport,
            cfg,
            corr: AtomicU64::new(1),
            pending: Mutex::new(HashMap::new()),
            subs: Mutex::new(HashMap::new()),
            dead: AtomicBool::new(false),
            closed: AtomicBool::new(false),
            replica,
            metrics,
            tracer,
        });
        let demux = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("gcx-wire-demux".into())
                .spawn(move || demux_loop(shared))
                .expect("spawn wire demux")
        };
        Ok(Self {
            shared,
            threads: Arc::new(Mutex::new(vec![demux])),
        })
    }

    /// True once the connection has failed; calls will return retryable
    /// errors until the owner reconnects.
    pub(crate) fn is_dead(&self) -> bool {
        self.shared.dead.load(Ordering::SeqCst)
    }

    /// Send Goodbye, close the transport, and join the client threads.
    /// Results pushed to a stream and not yet read are dropped.
    pub fn close(&self) {
        if self.shared.closed.swap(true, Ordering::SeqCst) {
            return;
        }
        if !self.is_dead() {
            let _ = self.shared.metrics.send_counted(
                &*self.shared.transport,
                &Frame::new(FrameType::Goodbye, 0, Value::None),
            );
        }
        // Empty each stream's queue, as its drop does, to end a stalled send.
        for (_, (_, rx)) in self.shared.subs.lock().drain() {
            while rx.try_recv().is_ok() {}
        }
        self.shared.mark_dead();
        let handles: Vec<_> = std::mem::take(&mut *self.threads.lock());
        for h in handles {
            let _ = h.join();
        }
    }

    /// One request/response cycle, multiplexed by correlation id.
    pub(crate) fn call(&self, method: &str, params: Value) -> GcxResult<Value> {
        self.call_stamped(method, params, false, |_| {}).0
    }

    /// The client's one correlation-id round trip: [`WireClient::call`],
    /// but, if `traced` (and tracing is on), also returning the stamps of
    /// the client's wire legs — `wire.send` (serialize + hand to the
    /// transport) and `wire.await` (in flight until the response is
    /// demuxed) — for a call that was answered. Untraced, this costs
    /// nothing beyond the plain call. `before_send` runs with the call's
    /// correlation id before the request goes out, for a subscription that
    /// must be registered first.
    fn call_stamped(
        &self,
        method: &str,
        params: Value,
        traced: bool,
        before_send: impl FnOnce(u64),
    ) -> (GcxResult<Value>, Option<WireStamps>) {
        let shared = &self.shared;
        if shared.dead.load(Ordering::SeqCst) {
            return (
                Err(GcxError::Transient("wire connection lost".into())),
                None,
            );
        }
        let corr = shared.corr.fetch_add(1, Ordering::Relaxed);
        before_send(corr);
        let (tx, rx) = bounded(1);
        shared.pending.lock().insert(corr, tx);
        let traced = traced && shared.tracer.enabled();
        let begin_ms = if traced { shared.tracer.now_ms() } else { 0 };
        let frame = Frame::request(corr, method, params);
        if let Err(e) = shared.metrics.send_counted(&*shared.transport, &frame) {
            shared.pending.lock().remove(&corr);
            shared.mark_dead();
            return (Err(e), None);
        }
        let mid_ms = if traced { shared.tracer.now_ms() } else { 0 };
        match rx.recv_timeout(shared.cfg.call_timeout) {
            Ok(result) => {
                let stamps = traced.then(|| WireStamps {
                    begin_ms,
                    mid_ms,
                    end_ms: shared.tracer.now_ms(),
                });
                (result, stamps)
            }
            Err(RecvTimeoutError::Timeout) => {
                shared.pending.lock().remove(&corr);
                let e = GcxError::Timeout(format!(
                    "no response to '{method}' within {:?}",
                    shared.cfg.call_timeout
                ));
                (Err(e), None)
            }
            Err(RecvTimeoutError::Disconnected) => (
                Err(GcxError::Transient("wire connection lost".into())),
                None,
            ),
        }
    }

    /// The tracer this connection stamps its legs on: its registry's.
    pub fn tracer(&self) -> &Tracer {
        &self.shared.tracer
    }

    /// The server's SLO health document, through the `health` method.
    pub fn health(&self) -> GcxResult<HealthDoc> {
        let doc = self.call(methods::HEALTH, Value::None)?;
        HealthDoc::from_value(&doc)
            .ok_or_else(|| GcxError::Codec("health: malformed health document".into()))
    }

    /// Tell the server this client holds these tasks' results: one
    /// `Confirm` frame of packed ids, which nothing answers. A connection
    /// that is already lost drops it, and the server keeps those records.
    /// The caller must have no `submit_batch` of these ids outstanding: the
    /// server may forget an id before a re-sent batch names it again.
    pub fn confirm(&self, ids: &[TaskId]) {
        let shared = &self.shared;
        if ids.is_empty() || self.is_dead() {
            return;
        }
        let frame = Frame::new(FrameType::Confirm, 0, Value::Bytes(batch::pack_ids(ids)));
        if shared
            .metrics
            .send_counted(&*shared.transport, &frame)
            .is_err()
        {
            shared.mark_dead();
        }
    }

    // ---- typed wrappers over the method table -----------------------------

    pub fn register_function(&self, body: &FunctionBody) -> GcxResult<FunctionId> {
        let resp = self.call(
            methods::REGISTER_FUNCTION,
            Value::map([("body", body.to_value())]),
        )?;
        resp.get("id")
            .and_then(Value::as_str)
            .ok_or_else(|| GcxError::Codec("register_function: missing id".into()))?
            .parse::<gcx_core::ids::Uuid>()
            .map(FunctionId)
            .map_err(|e| GcxError::Codec(format!("register_function: bad id: {e}")))
    }

    /// Submit a batch, stamping the call's `wire.send` and `wire.await`
    /// legs on each traced spec's trace (the server links its own legs from
    /// the contexts inside the packed specs).
    pub fn submit_batch(&self, specs: &[TaskSpec]) -> GcxResult<Vec<TaskId>> {
        let (ids, call) = self.submit_batch_timed(specs)?;
        if let Some(call) = call {
            self.record_call(specs, &call);
        }
        Ok(ids)
    }

    /// [`WireClient::submit_batch`] for a caller that writes each task's
    /// hop itself (the executor's batcher): an accepted batch hands the
    /// call's stamps back instead of recording them. A refused one records
    /// them here, as `submit_batch` does.
    pub fn submit_batch_timed(
        &self,
        specs: &[TaskSpec],
    ) -> GcxResult<(Vec<TaskId>, Option<WireStamps>)> {
        let traced = specs.iter().any(|s| s.trace.is_some());
        let params = Value::Bytes(batch::pack_specs(specs)?);
        let (response, call) = self.call_stamped(methods::SUBMIT_BATCH, params, traced, |_| {});
        let ids = response.and_then(|ids| match ids {
            Value::Bytes(ids) => batch::unpack_ids(&ids),
            other => Err(GcxError::Codec(format!(
                "submit_batch: ids must be packed bytes, got {}",
                other.type_name()
            ))),
        });
        match ids {
            Ok(ids) => Ok((ids, call)),
            Err(e) => {
                if let Some(call) = call {
                    self.record_call(specs, &call);
                }
                Err(e)
            }
        }
    }

    fn record_call(&self, specs: &[TaskSpec], call: &WireStamps) {
        for spec in specs {
            self.shared
                .tracer
                .record_wire_call(spec.trace.as_ref(), call);
        }
    }

    pub fn task_status(&self, id: TaskId) -> GcxResult<(TaskState, Option<TaskResult>)> {
        let resp = self.call(
            methods::TASK_STATUS,
            Value::map([("id", Value::str(id.to_string()))]),
        )?;
        let (_, state, result) = status_entry_from_value(&resp)?;
        Ok((state, result))
    }

    pub fn task_status_batch(
        &self,
        ids: &[TaskId],
    ) -> GcxResult<Vec<(TaskId, TaskState, Option<TaskResult>)>> {
        let resp = self.call(
            methods::TASK_STATUS_BATCH,
            Value::map([(
                "ids",
                Value::List(
                    ids.iter()
                        .map(|id| Value::str(id.to_string()))
                        .collect::<Vec<_>>(),
                ),
            )]),
        )?;
        resp.get("entries")
            .and_then(Value::as_list)
            .ok_or_else(|| GcxError::Codec("task_status_batch: missing entries".into()))?
            .iter()
            .map(status_entry_from_value)
            .collect()
    }

    pub fn cancel_task(&self, id: TaskId) -> GcxResult<CancelOutcome> {
        let resp = self.call(
            methods::CANCEL_TASK,
            Value::map([("id", Value::str(id.to_string()))]),
        )?;
        cancel_outcome_from_value(&resp)
    }

    /// Open a server-push result stream for this identity. Results arrive
    /// as `Push` frames demuxed into the returned handle; drop it (or let
    /// the connection die) to end the subscription.
    pub fn open_stream(&self) -> GcxResult<WireStream> {
        // Register the push channel BEFORE the request is sent: the first
        // pushed result may race the open_stream response.
        let (push_tx, push_rx) = bounded(PUSH_QUEUE_BATCHES);
        let sub = (push_tx, push_rx.clone());
        let mut corr = 0;
        let (opened, _) = self.call_stamped(
            methods::OPEN_STREAM,
            Value::map([] as [(&str, Value); 0]),
            false,
            |c| {
                corr = c;
                self.shared.subs.lock().insert(c, sub);
            },
        );
        if let Err(e) = opened {
            self.shared.subs.lock().remove(&corr);
            return Err(e);
        }
        Ok(WireStream {
            client: self.clone(),
            corr,
            rx: push_rx,
            batch: Mutex::new((PushBatch::default(), None)),
        })
    }
}

/// A live server-push subscription: results land here as they complete.
pub struct WireStream {
    client: WireClient,
    corr: u64,
    rx: Receiver<PushBatch>,
    /// The batch being served, and the one clock reading its traced
    /// results' `wire.push` legs share; the channel is touched only once the
    /// batch is spent.
    batch: Mutex<(PushBatch, Option<TimeMs>)>,
}

impl WireStream {
    /// Ends this stream's waits from another thread: once what was pushed
    /// before is served, `next` returns `Err`, as on a lost connection.
    pub fn canceller(&self) -> impl Fn() + Send + Sync + 'static {
        let (shared, corr) = (Arc::clone(&self.client.shared), self.corr);
        // Its sender goes, so its receiver disconnects.
        move || drop(shared.subs.lock().remove(&corr))
    }

    /// Next pushed `(task_id, result)`, waiting up to `timeout`.
    /// `Ok(None)` = nothing yet (connection healthy); `Err` = the stream is
    /// gone (connection lost) and the caller must reconnect + resubscribe.
    pub fn next(&self, timeout: Duration) -> GcxResult<Option<(TaskId, TaskResult)>> {
        let mut served = self.batch.lock();
        let (batch, pushed_ms) = &mut *served;
        loop {
            if let Some((trace, envelope)) = batch.next_entry()? {
                if let Some(ctx) = trace {
                    // The server stamped the result's trace context on its
                    // entry: link the delivery leg back into the originating
                    // trace on the client's collector.
                    let tracer = &self.client.shared.tracer;
                    let now = *pushed_ms.get_or_insert_with(|| tracer.now_ms());
                    tracer.record_span(Some(&ctx), "wire.push", now, now);
                }
                let (id, result, _sent_ms) = TaskResult::from_envelope(&envelope)?;
                return Ok(Some((id, result)));
            }
            match self.rx.recv_timeout(timeout) {
                Ok(next) => (*batch, *pushed_ms) = (next, None),
                // A lost connection drops every subscription's sender, so
                // its streams see `Disconnected`, not a timeout.
                Err(RecvTimeoutError::Timeout) => return Ok(None),
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(GcxError::Transient("wire stream closed".into()));
                }
            }
        }
    }
}

impl Drop for WireStream {
    fn drop(&mut self) {
        self.client.shared.subs.lock().remove(&self.corr);
        // The demux thread may be blocked handing this stream a batch, and
        // it is the thread that must route the close_stream response: make
        // room so it moves on (later pushes find no subscription).
        while self.rx.try_recv().is_ok() {}
        if !self.client.is_dead() && !self.client.shared.closed.load(Ordering::SeqCst) {
            let _ = self.client.call(
                methods::CLOSE_STREAM,
                Value::map([("stream", Value::Int(self.corr as i64))]),
            );
        }
    }
}

/// The connection's one thread: route responses to their callers and
/// pushes to their subscriptions, and send the heartbeat when it is due.
/// Each `recv` waits one heartbeat interval — the same value call after
/// call, so a TCP read timeout is armed once — and ends at once when the
/// transport closes (`close()`, or the connection lost).
fn demux_loop(shared: Arc<Shared>) {
    let interval = shared.cfg.heartbeat_interval;
    let mut beat_due = Instant::now() + interval;
    loop {
        beat_if_due(&shared, &mut beat_due);
        match shared.transport.recv(interval) {
            Ok(Some(frame)) => match frame.frame_type {
                FrameType::Response => {
                    shared.metrics.frames_in.inc();
                    if let Some(tx) = shared.pending.lock().remove(&frame.corr_id) {
                        let mut fields = frame.payload.into_map().unwrap_or_default();
                        let result = if let Some(ok) = fields.remove("ok") {
                            Ok(ok)
                        } else if let Some(err) = fields.get("err") {
                            Err(error_from_value(err))
                        } else {
                            Err(GcxError::Codec("response with neither ok nor err".into()))
                        };
                        let _ = tx.send(result);
                    }
                }
                FrameType::Push => {
                    shared.metrics.frames_in.inc();
                    let Value::Bytes(body) = frame.payload else {
                        // Not a version-2 push body: the peer is confused.
                        shared.mark_dead();
                        return;
                    };
                    let tx = shared.subs.lock().get(&frame.corr_id).map(|s| s.0.clone());
                    if let Some(tx) = tx {
                        let batch = PushBatch::new(Bytes::from(body));
                        deliver_push(&shared, &tx, batch, &mut beat_due);
                    }
                }
                FrameType::Goodbye => {
                    shared.mark_dead();
                    return;
                }
                _ => {
                    shared.mark_dead();
                    return;
                }
            },
            Ok(None) => {}
            Err(_) => {
                if !shared.closed.load(Ordering::SeqCst) {
                    shared.mark_dead();
                }
                return;
            }
        }
    }
}

/// Hand one pushed batch to its subscription, waiting while the
/// subscription's queue is full. Until `close()`, a pushed result is never
/// dropped: a slow consumer stops this thread reading the socket, so the
/// kernel buffers, the server's push thread and finally the stream queue
/// hold the backlog. The wait ends early only when the stream is dropped or
/// the client closes (both empty the stream's queue), and it keeps the
/// heartbeat going: a stalled subscriber stalls its own connection, and the
/// server must not reap it for that. A connection lost meanwhile ends the
/// wait when the next beat falls due.
fn deliver_push(
    shared: &Shared,
    tx: &Sender<PushBatch>,
    mut batch: PushBatch,
    beat_due: &mut Instant,
) {
    loop {
        let wait = beat_due.saturating_duration_since(Instant::now());
        match tx.send_timeout(batch, wait) {
            Ok(()) | Err(SendTimeoutError::Disconnected(_)) => return,
            Err(SendTimeoutError::Timeout(back)) => {
                if shared.closed.load(Ordering::SeqCst) || shared.dead.load(Ordering::SeqCst) {
                    return;
                }
                beat_if_due(shared, beat_due);
                batch = back;
            }
        }
    }
}

/// Send a `Heartbeat` if one is due, and set when the next one is. Skipped
/// while another writer holds the connection (that writer's frame shows the
/// server this side is alive too), so the one reader never waits on a write
/// that needs the reader to read first.
fn beat_if_due(shared: &Shared, due: &mut Instant) {
    let now = Instant::now();
    if now < *due {
        return;
    }
    *due = now + shared.cfg.heartbeat_interval;
    let beat = Frame::new(FrameType::Heartbeat, 0, Value::None);
    match shared.transport.try_send(&beat) {
        Ok(true) => shared.metrics.frames_out.inc(),
        Ok(false) => {}
        Err(_) => {
            if !shared.closed.load(Ordering::SeqCst) {
                shared.mark_dead();
            }
        }
    }
}
