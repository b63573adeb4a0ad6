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
use gcx_core::error::{GcxError, GcxResult};
use gcx_core::function::FunctionBody;
use gcx_core::health::HealthDoc;
use gcx_core::ids::{FunctionId, TaskId};
use gcx_core::metrics::MetricsRegistry;
use gcx_core::task::{TaskResult, TaskSpec, TaskState};
use gcx_core::trace::{TraceContext, Tracer};
use gcx_core::value::Value;
use gcx_core::wire::batch::{self, PushBatch};
use gcx_core::wire::{
    error_from_value, peer_caps, Frame, FrameType, PeerCaps, TcpTransport, Transport,
    DEFAULT_MAX_FRAME, WIRE_VERSION,
};
use parking_lot::Mutex;

use super::super::CancelOutcome;
use super::{cancel_outcome_from_value, methods, status_entry_from_value, WireMetrics};

/// Push batches a subscription may hold undelivered before the demux thread
/// blocks on it (each is at most one server wake-up's worth of results).
const PUSH_QUEUE_BATCHES: usize = 8;

/// How long the demux thread blocks before it looks at `closed`/`dead`
/// again (sooner when a heartbeat falls due).
const STOP_NOTICE: Duration = Duration::from_millis(50);

/// Client-side knobs. The defaults suit tests and localhost benches; the
/// SDK derives them from its `TransportSpec`.
#[derive(Debug, Clone)]
pub struct WireClientConfig {
    /// Cadence of client→server heartbeat frames.
    pub heartbeat_interval: Duration,
    /// How long one request may wait for its response before a typed
    /// `Timeout` (the connection stays usable — a late response is
    /// discarded by correlation id).
    pub call_timeout: Duration,
    /// Frame-size ceiling, mirroring the server's.
    pub max_frame_size: usize,
}

impl Default for WireClientConfig {
    fn default() -> Self {
        Self {
            heartbeat_interval: Duration::from_millis(1_000),
            call_timeout: Duration::from_secs(10),
            max_frame_size: DEFAULT_MAX_FRAME,
        }
    }
}

struct Shared {
    transport: Arc<dyn Transport>,
    cfg: WireClientConfig,
    corr: AtomicU64,
    pending: Mutex<HashMap<u64, Sender<GcxResult<Value>>>>,
    subs: Mutex<HashMap<u64, Sender<PushBatch>>>,
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
    /// client legs on traced submissions. No-ops when tracing is off.
    tracer: Tracer,
    /// Capabilities the server advertised in its HelloAck. Old servers
    /// advertise nothing: we never send them trace-flagged frames, Health
    /// probes or confirmations.
    peer: PeerCaps,
}

impl Shared {
    fn mark_dead(&self) {
        if self.dead.swap(true, Ordering::SeqCst) {
            return;
        }
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
        let transport = Arc::new(TcpTransport::connect(addr, cfg.max_frame_size)?);
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
        let (replica, peer) = match transport.recv(cfg.call_timeout)? {
            Some(ack) if ack.frame_type == FrameType::HelloAck => {
                metrics.frames_in.inc();
                let version = ack.payload.get("version").and_then(Value::as_int);
                if version != Some(WIRE_VERSION) {
                    transport.close();
                    return Err(GcxError::InvalidConfig(format!(
                        "wire version mismatch: server {version:?}, client {WIRE_VERSION}"
                    )));
                }
                let replica = ack
                    .payload
                    .get("replica")
                    .and_then(Value::as_int)
                    .unwrap_or(0)
                    .max(0) as u32;
                (replica, peer_caps(&ack.payload))
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
            peer,
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

    /// Replica index from the handshake (0 for a standalone service).
    pub fn replica(&self) -> u32 {
        self.shared.replica
    }

    /// True when the server advertised the trace capability: our frames may
    /// carry a trace-context segment.
    pub fn peer_traces(&self) -> bool {
        self.shared.peer.trace
    }

    /// True when the server advertised the health capability and will answer
    /// [`WireClient::health`] probes.
    pub fn peer_health(&self) -> bool {
        self.shared.peer.health
    }

    /// True once the connection has failed; calls will return retryable
    /// errors until the owner reconnects.
    pub fn is_dead(&self) -> bool {
        self.shared.dead.load(Ordering::SeqCst)
    }

    /// Send Goodbye, close the transport, and join the client threads.
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
        self.shared.transport.close();
        self.shared.mark_dead();
        let handles: Vec<_> = std::mem::take(&mut *self.threads.lock());
        for h in handles {
            let _ = h.join();
        }
    }

    /// One request/response cycle, multiplexed by correlation id.
    pub fn call(&self, method: &str, params: Value) -> GcxResult<Value> {
        self.call_traced(method, params, &[])
    }

    /// Like [`WireClient::call`], but stamping the client's wire legs —
    /// `wire.send` (serialize + hand to the transport) and `wire.await`
    /// (in flight until the response is demuxed) — onto each trace context
    /// in `ctxs`. The request frame carries the first context so the server
    /// can link its own legs even before decoding the payload. With an
    /// empty `ctxs` (or tracing disabled) this costs nothing beyond the
    /// plain call.
    fn call_traced(&self, method: &str, params: Value, ctxs: &[TraceContext]) -> GcxResult<Value> {
        let shared = &self.shared;
        if shared.dead.load(Ordering::SeqCst) {
            return Err(GcxError::Transient("wire connection lost".into()));
        }
        let corr = shared.corr.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = bounded(1);
        shared.pending.lock().insert(corr, tx);
        let traced = !ctxs.is_empty() && shared.tracer.enabled();
        let t0 = if traced { shared.tracer.now_ms() } else { 0 };
        let mut frame = Frame::request(corr, method, params);
        if shared.peer.trace {
            frame = frame.with_trace(ctxs.first().copied());
        }
        if let Err(e) = shared.metrics.send_counted(&*shared.transport, &frame) {
            shared.pending.lock().remove(&corr);
            shared.mark_dead();
            return Err(e);
        }
        let t1 = if traced { shared.tracer.now_ms() } else { 0 };
        match rx.recv_timeout(shared.cfg.call_timeout) {
            Ok(result) => {
                if traced {
                    let t2 = shared.tracer.now_ms();
                    for ctx in ctxs {
                        shared.tracer.record_span(Some(ctx), "wire.send", t0, t1);
                        shared.tracer.record_span(Some(ctx), "wire.await", t1, t2);
                    }
                }
                result
            }
            Err(RecvTimeoutError::Timeout) => {
                shared.pending.lock().remove(&corr);
                Err(GcxError::Timeout(format!(
                    "no response to '{method}' within {:?}",
                    shared.cfg.call_timeout
                )))
            }
            Err(RecvTimeoutError::Disconnected) => {
                Err(GcxError::Transient("wire connection lost".into()))
            }
        }
    }

    /// Probe the server's SLO health plane with a `Health` frame.
    /// `Ok(None)` when the peer predates the health capability (old wire
    /// version): the caller treats such replicas as opaque, not unhealthy.
    pub fn health(&self) -> GcxResult<Option<HealthDoc>> {
        let shared = &self.shared;
        if !shared.peer.health {
            return Ok(None);
        }
        if shared.dead.load(Ordering::SeqCst) {
            return Err(GcxError::Transient("wire connection lost".into()));
        }
        let corr = shared.corr.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = bounded(1);
        shared.pending.lock().insert(corr, tx);
        let frame = Frame::new(FrameType::Health, corr, Value::None);
        if let Err(e) = shared.metrics.send_counted(&*shared.transport, &frame) {
            shared.pending.lock().remove(&corr);
            shared.mark_dead();
            return Err(e);
        }
        match rx.recv_timeout(shared.cfg.call_timeout) {
            Ok(Ok(doc)) => Ok(HealthDoc::from_value(&doc)),
            Ok(Err(e)) => Err(e),
            Err(RecvTimeoutError::Timeout) => {
                shared.pending.lock().remove(&corr);
                Err(GcxError::Timeout("no response to health probe".into()))
            }
            Err(RecvTimeoutError::Disconnected) => {
                Err(GcxError::Transient("wire connection lost".into()))
            }
        }
    }

    /// Tell the server this client holds these tasks' results: one
    /// `Confirm` frame of packed ids, which nothing answers, and none at all
    /// to a server that did not advertise the capability. A connection that
    /// is already lost drops it, and the server keeps those records. The
    /// caller must have no `submit_batch` of these ids outstanding: the
    /// server may forget an id before a re-sent batch names it again.
    pub fn confirm(&self, ids: &[TaskId]) {
        let shared = &self.shared;
        if !shared.peer.confirm || ids.is_empty() || self.is_dead() {
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

    pub fn submit_batch(&self, specs: &[TaskSpec]) -> GcxResult<Vec<TaskId>> {
        let ctxs: Vec<TraceContext> = specs.iter().filter_map(|s| s.trace).collect();
        let params = Value::Bytes(batch::pack_specs(specs)?);
        match self.call_traced(methods::SUBMIT_BATCH, params, &ctxs)? {
            Value::Bytes(ids) => batch::unpack_ids(&ids),
            other => Err(GcxError::Codec(format!(
                "submit_batch: ids must be packed bytes, got {}",
                other.type_name()
            ))),
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
        let shared = &self.shared;
        if shared.dead.load(Ordering::SeqCst) {
            return Err(GcxError::Transient("wire connection lost".into()));
        }
        let corr = shared.corr.fetch_add(1, Ordering::Relaxed);
        // Register the push channel BEFORE the request is sent: the first
        // pushed result may race the open_stream response.
        let (push_tx, push_rx) = bounded(PUSH_QUEUE_BATCHES);
        shared.subs.lock().insert(corr, push_tx);
        let (tx, rx) = bounded(1);
        shared.pending.lock().insert(corr, tx);
        let send = shared.metrics.send_counted(
            &*shared.transport,
            &Frame::request(
                corr,
                methods::OPEN_STREAM,
                Value::map([] as [(&str, Value); 0]),
            ),
        );
        if let Err(e) = send {
            shared.pending.lock().remove(&corr);
            shared.subs.lock().remove(&corr);
            shared.mark_dead();
            return Err(e);
        }
        let resp = match rx.recv_timeout(shared.cfg.call_timeout) {
            Ok(result) => result,
            Err(RecvTimeoutError::Timeout) => {
                shared.pending.lock().remove(&corr);
                Err(GcxError::Timeout("no response to open_stream".into()))
            }
            Err(RecvTimeoutError::Disconnected) => {
                Err(GcxError::Transient("wire connection lost".into()))
            }
        };
        if let Err(e) = resp {
            shared.subs.lock().remove(&corr);
            return Err(e);
        }
        Ok(WireStream {
            client: self.clone(),
            corr,
            rx: push_rx,
            batch: Mutex::new(PushBatch::default()),
        })
    }
}

/// A live server-push subscription: results land here as they complete.
pub struct WireStream {
    client: WireClient,
    corr: u64,
    rx: Receiver<PushBatch>,
    /// The batch being served; the channel is touched only once it is spent.
    batch: Mutex<PushBatch>,
}

impl WireStream {
    /// Next pushed `(task_id, result)`, waiting up to `timeout`.
    /// `Ok(None)` = nothing yet (connection healthy); `Err` = the stream is
    /// gone (connection lost) and the caller must reconnect + resubscribe.
    pub fn next(&self, timeout: Duration) -> GcxResult<Option<(TaskId, TaskResult)>> {
        let mut batch = self.batch.lock();
        loop {
            if let Some((trace, envelope)) = batch.next_entry()? {
                if let Some(ctx) = trace {
                    // The server stamped the result's trace context on its
                    // entry: link the delivery leg back into the originating
                    // trace on the client's collector.
                    let tracer = &self.client.shared.tracer;
                    let now = tracer.now_ms();
                    tracer.record_span(Some(&ctx), "wire.push", now, now);
                }
                let (id, result, _sent_ms) = TaskResult::from_envelope(&envelope)?;
                return Ok(Some((id, result)));
            }
            match self.rx.recv_timeout(timeout) {
                Ok(next) => *batch = next,
                Err(RecvTimeoutError::Timeout) => {
                    return if self.client.is_dead() {
                        Err(GcxError::Transient("wire connection lost".into()))
                    } else {
                        Ok(None)
                    };
                }
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
/// pushes to their subscriptions, and send the heartbeat when it is due —
/// its `recv` waits no longer than that.
fn demux_loop(shared: Arc<Shared>) {
    let mut beat_due = Instant::now() + shared.cfg.heartbeat_interval;
    loop {
        if shared.closed.load(Ordering::SeqCst) || shared.dead.load(Ordering::SeqCst) {
            return;
        }
        beat_if_due(&shared, &mut beat_due);
        let wait = STOP_NOTICE.min(beat_due.saturating_duration_since(Instant::now()));
        match shared.transport.recv(wait) {
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
                FrameType::Health => {
                    // Health responses echo the probe's correlation id with
                    // the document as the raw payload (no ok/err envelope).
                    shared.metrics.frames_in.inc();
                    if let Some(tx) = shared.pending.lock().remove(&frame.corr_id) {
                        let _ = tx.send(Ok(frame.payload));
                    }
                }
                FrameType::Push => {
                    shared.metrics.frames_in.inc();
                    let Value::Bytes(body) = frame.payload else {
                        // Not a version-2 push body: the peer is confused.
                        shared.mark_dead();
                        return;
                    };
                    let tx = shared.subs.lock().get(&frame.corr_id).cloned();
                    if let Some(tx) = tx {
                        let batch = PushBatch::new(Bytes::from(body));
                        deliver_push(&shared, &tx, batch, &mut beat_due);
                    }
                }
                FrameType::HeartbeatAck => {
                    shared.metrics.frames_in.inc();
                }
                FrameType::Heartbeat => {
                    shared.metrics.frames_in.inc();
                    let ack = Frame::new(FrameType::HeartbeatAck, frame.corr_id, Value::None);
                    send_liveness(&shared, &ack);
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
/// subscription's queue is full. A pushed result is never dropped: a slow
/// consumer stops this thread reading the socket, so the kernel buffers, the
/// server's push thread and finally the stream queue hold the backlog. The
/// wait ends early only when the stream is dropped or the connection goes,
/// and it keeps the heartbeat going: a stalled subscriber stalls its own
/// connection, and the server must not reap it for that.
fn deliver_push(
    shared: &Shared,
    tx: &Sender<PushBatch>,
    mut batch: PushBatch,
    beat_due: &mut Instant,
) {
    loop {
        let wait = STOP_NOTICE.min(beat_due.saturating_duration_since(Instant::now()));
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

/// Send a `Heartbeat` if one is due, and set when the next one is.
fn beat_if_due(shared: &Shared, due: &mut Instant) {
    let now = Instant::now();
    if now < *due {
        return;
    }
    *due = now + shared.cfg.heartbeat_interval;
    let corr = shared.corr.fetch_add(1, Ordering::Relaxed);
    send_liveness(shared, &Frame::new(FrameType::Heartbeat, corr, Value::None));
}

/// Send a frame that only shows the server this side is alive, from the
/// demux thread: skipped while another writer holds the connection (that
/// writer's frame shows it too), so the one reader never waits on a write
/// that needs the reader to read first.
fn send_liveness(shared: &Shared, frame: &Frame) {
    match shared.transport.try_send(frame) {
        Ok(true) => shared.metrics.frames_out.inc(),
        Ok(false) => {}
        Err(_) => {
            if !shared.closed.load(Ordering::SeqCst) {
                shared.mark_dead();
            }
        }
    }
}
