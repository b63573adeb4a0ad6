//! The cloud side of the wire: accept loop, per-connection handshake and
//! demux, request dispatch, result confirmations, and server-push result
//! streaming.

use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use gcx_auth::Token;
use gcx_config::TransportSpec;
use gcx_core::error::{GcxError, GcxResult};
use gcx_core::function::FunctionBody;
use gcx_core::value::Value;
use gcx_core::wire::batch;
use gcx_core::wire::{
    caps_value, peer_caps, Frame, FrameType, InMemTransport, TcpTransport, Transport, WIRE_VERSION,
};
use parking_lot::Mutex;

use super::super::WebService;
use super::{
    cancel_outcome_to_value, methods, status_entry_to_value, task_id_from_str, WireMetrics,
};

/// How often a connection thread wakes to check idle/shutdown when no
/// frames are arriving.
const RECV_SLICE: Duration = Duration::from_millis(50);

/// Ceilings on one `Push` frame: results per batch, and payload bytes per
/// batch (far under any sane `max_frame_size`; a lone larger envelope still
/// travels, as a batch of one). A batch is whatever is ready at wake-up up
/// to these — the push thread never waits to fill one.
const PUSH_BATCH_MAX_RESULTS: usize = 256;
const PUSH_BATCH_MAX_BYTES: usize = 1 << 20;

/// A subscription's push thread: forwards stream-queue deliveries to the
/// connection as `Push` frames until stopped or the queue dies.
struct Subscription {
    stop: Arc<AtomicBool>,
    /// The stream's queue, where the push thread parks.
    queue: String,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Subscription {
    /// Stop the push thread and wait for it. Deleting the stream's queue
    /// wakes a thread parked on it at once; the thread's `ResultStream`
    /// then closes the rest of the stream.
    fn shut(&mut self, svc: &WebService) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = svc.broker().delete_queue(&self.queue);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

struct Conn {
    id: u64,
    transport: Arc<dyn Transport>,
    /// Wall-clock stamp of the last inbound frame; the idle reaper runs on
    /// real time because the wire is real I/O even under a virtual
    /// task-clock.
    last_seen: Mutex<Instant>,
    subs: Mutex<HashMap<u64, Subscription>>,
    /// Whether the peer advertised the `trace` capability in its Hello —
    /// only then may server-push frames carry the trace-context segment
    /// (an old peer would choke on the flagged tag).
    peer_trace: bool,
}

struct ServerInner {
    svc: WebService,
    spec: TransportSpec,
    addr: String,
    shutdown: AtomicBool,
    conn_seq: AtomicU64,
    conns: Mutex<HashMap<u64, Arc<Conn>>>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    m: WireMetrics,
}

impl ServerInner {
    /// Keep `handle` for `shutdown()` to join, and let go of every handle
    /// whose connection has already ended — the list stays as long as the
    /// connections that are open, not as long as the server's history.
    fn retain_thread(&self, handle: std::thread::JoinHandle<()>) {
        let mut threads = self.threads.lock();
        threads.retain(|h| !h.is_finished());
        threads.push(handle);
    }
}

/// A listening wire endpoint for one [`WebService`].
///
/// `listen` binds real localhost TCP; [`WireServer::connect_inmem`] attaches
/// an in-memory duplex connection to the same dispatch machinery (identical
/// frames, identical handshake — only the byte pipe differs). Dropping the
/// handle does NOT stop the server; call [`WireServer::shutdown`].
#[derive(Clone)]
pub struct WireServer {
    inner: Arc<ServerInner>,
}

impl WireServer {
    /// Bind `spec.listen_addr` and start accepting connections.
    pub fn listen(svc: &WebService, spec: TransportSpec) -> GcxResult<Self> {
        let listener = TcpListener::bind(&spec.listen_addr)
            .map_err(|e| GcxError::Transient(format!("bind {}: {e}", spec.listen_addr)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| GcxError::Transient(format!("local_addr: {e}")))?
            .to_string();
        let server = Self::new(svc, spec, addr);
        let inner = server.inner.clone();
        let handle = std::thread::Builder::new()
            .name("gcx-wire-accept".into())
            .spawn(move || accept_loop(inner, listener))
            .expect("spawn wire accept loop");
        server.inner.threads.lock().push(handle);
        Ok(server)
    }

    /// A wire endpoint with no TCP listener: connections attach only via
    /// [`WireServer::connect_inmem`]. Keeps single-process tests and the
    /// benchmark's `--transport inmem` mode off the network while running
    /// the full framed protocol.
    pub fn inmem(svc: &WebService, spec: TransportSpec) -> Self {
        Self::new(svc, spec, "inmem".to_string())
    }

    fn new(svc: &WebService, spec: TransportSpec, addr: String) -> Self {
        let m = WireMetrics::resolve(svc.metrics());
        Self {
            inner: Arc::new(ServerInner {
                svc: svc.clone(),
                spec,
                addr,
                shutdown: AtomicBool::new(false),
                conn_seq: AtomicU64::new(1),
                conns: Mutex::new(HashMap::new()),
                threads: Mutex::new(Vec::new()),
                m,
            }),
        }
    }

    /// The bound address (`127.0.0.1:<port>`), with the OS-assigned port
    /// resolved when `listen_addr` asked for port 0.
    pub fn addr(&self) -> &str {
        &self.inner.addr
    }

    /// The transport spec this server enforces.
    pub fn spec(&self) -> &TransportSpec {
        &self.inner.spec
    }

    /// Open an in-memory connection to this server: the returned client
    /// half speaks the same framed protocol (handshake included) as a TCP
    /// peer would.
    pub fn connect_inmem(&self) -> Arc<InMemTransport> {
        let (client_half, server_half) =
            InMemTransport::pair(self.inner.spec.max_frame_size as usize);
        let inner = self.inner.clone();
        let transport: Arc<dyn Transport> = Arc::new(server_half);
        let handle = std::thread::Builder::new()
            .name("gcx-wire-conn-inmem".into())
            .spawn(move || serve_conn(inner, transport))
            .expect("spawn wire conn");
        self.inner.retain_thread(handle);
        Arc::new(client_half)
    }

    /// Open connections (for tests and gauges).
    pub fn conn_count(&self) -> usize {
        self.inner.conns.lock().len()
    }

    /// Stop accepting, close every connection, and join all threads.
    pub fn shutdown(&self) {
        let first = !self.inner.shutdown.swap(true, Ordering::SeqCst);
        // A listening server's accept loop blocks in `accept`: one loopback
        // connect wakes it to see the flag. Only on the first call — the
        // address may belong to another listener by a second.
        if first {
            if let Ok(mut addr) = self.inner.addr.parse::<SocketAddr>() {
                if addr.ip().is_unspecified() {
                    let loopback: IpAddr = if addr.is_ipv4() {
                        Ipv4Addr::LOCALHOST.into()
                    } else {
                        Ipv6Addr::LOCALHOST.into()
                    };
                    addr.set_ip(loopback);
                }
                let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
            }
        }
        let conns: Vec<Arc<Conn>> = self.inner.conns.lock().values().cloned().collect();
        for conn in conns {
            conn.transport.close();
        }
        let handles: Vec<_> = std::mem::take(&mut *self.inner.threads.lock());
        for h in handles {
            let _ = h.join();
        }
    }
}

/// Block in `accept` until a peer dials; [`WireServer::shutdown`] dials
/// once itself to end the loop.
fn accept_loop(inner: Arc<ServerInner>, listener: TcpListener) {
    loop {
        let accepted = listener.accept();
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                let transport = match TcpTransport::new(stream, inner.spec.max_frame_size as usize)
                {
                    Ok(t) => Arc::new(t) as Arc<dyn Transport>,
                    Err(_) => continue,
                };
                let inner2 = inner.clone();
                let handle = std::thread::Builder::new()
                    .name("gcx-wire-conn".into())
                    .spawn(move || serve_conn(inner2, transport));
                if let Ok(h) = handle {
                    inner.retain_thread(h);
                }
            }
            // Out of descriptors, say: give the host a moment.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Run one connection to completion: handshake, demux loop, cleanup.
fn serve_conn(inner: Arc<ServerInner>, transport: Arc<dyn Transport>) {
    let Some((conn, token)) = handshake(&inner, &transport) else {
        transport.close();
        return;
    };
    let idle_timeout = Duration::from_millis(inner.spec.idle_timeout_ms);
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match transport.recv(RECV_SLICE) {
            Ok(Some(frame)) => {
                inner.m.frames_in.inc();
                *conn.last_seen.lock() = Instant::now();
                match frame.frame_type {
                    FrameType::Heartbeat => {
                        let _ = inner.m.send_counted(
                            transport.as_ref(),
                            &Frame::new(FrameType::HeartbeatAck, frame.corr_id, Value::None),
                        );
                    }
                    FrameType::Request => {
                        handle_request(&inner, &conn, &token, frame.corr_id, frame.payload);
                    }
                    FrameType::Health => {
                        // The SLO health plane over the wire: answer with
                        // this replica's machine-readable health document.
                        let doc = inner.svc.health_doc();
                        let _ = inner.m.send_counted(
                            transport.as_ref(),
                            &Frame::new(FrameType::Health, frame.corr_id, doc.to_value()),
                        );
                    }
                    FrameType::Confirm => {
                        // The peer holds these results. `confirm_taken`
                        // retires only the peer's own terminal tasks, so a
                        // well-formed lie costs nothing; a malformed body is
                        // a violation.
                        let ids = match &frame.payload {
                            Value::Bytes(body) => batch::unpack_ids(body).ok(),
                            _ => None,
                        };
                        let Some(ids) = ids else {
                            protocol_violation(&inner, &conn, "confirm body is not whole ids");
                            break;
                        };
                        let _ = inner.svc.confirm_taken(&token, &ids);
                    }
                    FrameType::Goodbye => break,
                    // A client must not send server-side frame types; drop
                    // the connection (the framing boundary is still intact,
                    // but the peer is confused).
                    other => {
                        protocol_violation(&inner, &conn, &format!("client sent {other:?}"));
                        break;
                    }
                }
            }
            Ok(None) => {
                if conn.last_seen.lock().elapsed() >= idle_timeout {
                    inner.m.heartbeat_timeouts.inc();
                    inner.svc.metrics().flight().record(
                        now_ms(&inner),
                        "wire.server",
                        "idle_reap",
                        format!("conn={} peer={}", conn.id, transport.peer()),
                    );
                    break;
                }
            }
            Err(_) => break,
        }
    }

    // Cleanup: push threads first (they hold the ResultStreams whose Drop
    // deletes the stream queues), then the registry entry and the socket.
    let mut subs = std::mem::take(&mut *conn.subs.lock());
    for sub in subs.values_mut() {
        sub.shut(&inner.svc);
    }
    inner.conns.lock().remove(&conn.id);
    inner.m.conns_open.sub(1);
    inner.m.bytes_reused.add(transport.bytes_reused());
    transport.close();
}

fn now_ms(inner: &Arc<ServerInner>) -> u64 {
    inner.svc.inner.clock.now_ms()
}

/// Record why the connection is being dropped for a frame it must not send.
fn protocol_violation(inner: &Arc<ServerInner>, conn: &Conn, what: &str) {
    inner.svc.metrics().flight().record(
        now_ms(inner),
        "wire.server",
        "protocol_violation",
        format!("conn={} peer={} {what}", conn.id, conn.transport.peer()),
    );
}

/// Run the versioned hello handshake. Returns the registered connection
/// and its bearer token, or `None` after sending a typed refusal.
fn handshake(
    inner: &Arc<ServerInner>,
    transport: &Arc<dyn Transport>,
) -> Option<(Arc<Conn>, Token)> {
    let refuse = |err: GcxError| {
        inner.m.handshake_failures.inc();
        inner.svc.metrics().flight().record(
            now_ms(inner),
            "wire.server",
            "handshake_refused",
            format!("peer={} err={err}", transport.peer()),
        );
        let _ = inner
            .m
            .send_counted(transport.as_ref(), &Frame::response_err(0, &err));
        None
    };
    let hello = match transport.recv(Duration::from_millis(inner.spec.idle_timeout_ms)) {
        Ok(Some(f)) if f.frame_type == FrameType::Hello => {
            inner.m.frames_in.inc();
            f
        }
        Ok(Some(_)) => return refuse(GcxError::Codec("expected Hello frame".into())),
        Ok(None) => return refuse(GcxError::Timeout("no Hello before idle timeout".into())),
        Err(e) => return refuse(e),
    };
    let version = hello.payload.get("version").and_then(Value::as_int);
    if version != Some(WIRE_VERSION) {
        return refuse(GcxError::InvalidConfig(format!(
            "wire version mismatch: client {version:?}, server {WIRE_VERSION}"
        )));
    }
    let token = Token(
        hello
            .payload
            .get("token")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string(),
    );
    if let Err(e) = inner.svc.authenticate(&token) {
        return refuse(e);
    }
    let max = inner.spec.max_connections as usize;
    if max > 0 && inner.conns.lock().len() >= max {
        return refuse(GcxError::Overloaded {
            retry_after_ms: 100,
        });
    }
    let id = inner.conn_seq.fetch_add(1, Ordering::Relaxed);
    let replica = inner.svc.fed().map(|f| f.replica.0).unwrap_or(0);
    // Old clients never send a `caps` key: they see no flagged frames and
    // no Health pushes, and simply ignore the server's own advertisement.
    let peer_trace = peer_caps(&hello.payload).trace;
    let ack = Frame::new(
        FrameType::HelloAck,
        hello.corr_id,
        Value::map([
            ("version", Value::Int(WIRE_VERSION)),
            ("replica", Value::Int(replica as i64)),
            ("session", Value::Int(id as i64)),
            ("caps", caps_value()),
        ]),
    );
    let conn = Arc::new(Conn {
        id,
        transport: transport.clone(),
        last_seen: Mutex::new(Instant::now()),
        subs: Mutex::new(HashMap::new()),
        peer_trace,
    });
    // Registered before the ack goes out: a peer holding a HelloAck is a
    // connection the server already counts.
    inner.m.conns_open.add(1);
    inner.conns.lock().insert(id, conn.clone());
    if inner.m.send_counted(transport.as_ref(), &ack).is_err() {
        inner.conns.lock().remove(&id);
        inner.m.conns_open.sub(1);
        return None;
    }
    Some((conn, token))
}

/// Dispatch one `Request` frame to the service and answer on the same
/// correlation id. Errors cross back typed (see
/// [`gcx_core::wire::error_to_value`]) so `NotOwner` redirects and
/// `Overloaded` pushback keep steering remote clients exactly as they
/// steer in-process ones.
fn handle_request(
    inner: &Arc<ServerInner>,
    conn: &Arc<Conn>,
    token: &Token,
    corr: u64,
    payload: Value,
) {
    // The frame is ours: move the fields out instead of cloning a batch.
    let mut fields = payload.into_map().unwrap_or_default();
    let params = fields.remove("params").unwrap_or(Value::None);
    let method = fields.get("method").and_then(Value::as_str).unwrap_or("");
    let outcome = dispatch_method(inner, conn, token, corr, method, params);
    let frame = match outcome {
        Ok(v) => Frame::response_ok(corr, v),
        Err(e) => Frame::response_err(corr, &e),
    };
    let _ = inner.m.send_counted(conn.transport.as_ref(), &frame);
}

fn dispatch_method(
    inner: &Arc<ServerInner>,
    conn: &Arc<Conn>,
    token: &Token,
    corr: u64,
    method: &str,
    params: Value,
) -> GcxResult<Value> {
    let svc = &inner.svc;
    match method {
        methods::REGISTER_FUNCTION => {
            let body = params
                .get("body")
                .and_then(FunctionBody::from_value)
                .ok_or_else(|| GcxError::Codec("register_function: bad body".into()))?;
            let id = svc.register_function(token, body)?;
            Ok(Value::map([("id", Value::str(id.to_string()))]))
        }
        methods::SUBMIT_BATCH => {
            let t0 = now_ms(inner);
            let Value::Bytes(body) = params else {
                return Err(GcxError::Codec(format!(
                    "submit_batch: params must be packed spec bytes, got {}",
                    params.type_name()
                )));
            };
            // Ingress from a peer: `unpack_specs` verifies every payload
            // against its carried hash and refuses the batch on any defect,
            // before admission, the CAS store or the task store see it.
            let specs = batch::unpack_specs(&Bytes::from(body))?;
            let t1 = now_ms(inner);
            // The specs' contexts link into the service tracer once
            // `submit_batch` adopts them; stamp the server-side wire legs
            // afterwards so every wire task's timeline shows decode and
            // enqueue time. Untraced specs carry no context and cost
            // nothing here.
            let ctxs: Vec<_> = specs.iter().filter_map(|s| s.trace).collect();
            let ids = svc.submit_batch(token, specs)?;
            let t2 = now_ms(inner);
            if !ctxs.is_empty() {
                let tracer = svc.tracer();
                for ctx in &ctxs {
                    tracer.record_span(Some(ctx), "wire.decode", t0, t1);
                    tracer.record_span(Some(ctx), "wire.queue", t1, t2);
                }
            }
            Ok(Value::Bytes(batch::pack_ids(&ids)))
        }
        methods::TASK_STATUS => {
            let id = task_id_from_str(
                params
                    .get("id")
                    .and_then(Value::as_str)
                    .ok_or_else(|| GcxError::Codec("task_status: missing id".into()))?,
            )?;
            let (state, result) = svc.task_status(token, id)?;
            Ok(status_entry_to_value(id, state, &result))
        }
        methods::TASK_STATUS_BATCH => {
            let ids = params
                .get("ids")
                .and_then(Value::as_list)
                .ok_or_else(|| GcxError::Codec("task_status_batch: missing ids".into()))?
                .iter()
                .map(|v| {
                    task_id_from_str(v.as_str().ok_or_else(|| {
                        GcxError::Codec("task_status_batch: non-string id".into())
                    })?)
                })
                .collect::<GcxResult<Vec<_>>>()?;
            let entries = svc.task_status_batch(token, &ids)?;
            Ok(Value::map([(
                "entries",
                Value::List(
                    entries
                        .iter()
                        .map(|(id, state, result)| status_entry_to_value(*id, *state, result))
                        .collect::<Vec<_>>(),
                ),
            )]))
        }
        methods::CANCEL_TASK => {
            let id = task_id_from_str(
                params
                    .get("id")
                    .and_then(Value::as_str)
                    .ok_or_else(|| GcxError::Codec("cancel_task: missing id".into()))?,
            )?;
            let outcome = svc.cancel_task(token, id)?;
            Ok(cancel_outcome_to_value(&outcome))
        }
        methods::OPEN_STREAM => {
            let stream = svc.open_result_stream(token)?;
            let queue = stream.queue_name().to_string();
            let stop = Arc::new(AtomicBool::new(false));
            let handle = spawn_push_loop(inner.clone(), conn.clone(), corr, stream, stop.clone());
            conn.subs.lock().insert(
                corr,
                Subscription {
                    stop,
                    queue,
                    handle: Some(handle),
                },
            );
            Ok(Value::map([("stream", Value::Int(corr as i64))]))
        }
        methods::CLOSE_STREAM => {
            let stream_corr = params
                .get("stream")
                .and_then(Value::as_int)
                .ok_or_else(|| GcxError::Codec("close_stream: missing stream".into()))?
                as u64;
            let closing = conn.subs.lock().remove(&stream_corr);
            if let Some(mut sub) = closing {
                sub.shut(svc);
            }
            Ok(Value::map([] as [(&str, Value); 0]))
        }
        other => Err(GcxError::InvalidConfig(format!(
            "unknown wire method '{other}'"
        ))),
    }
}

/// Forward the subscription's stream queue to the connection as `Push`
/// frames, one per wake-up: one take waits for the first delivery and
/// brings whatever else is already ready (up to the result ceiling), as
/// many as fit the byte ceiling go out in one write, and only then are they
/// acked, with one ack. A failed write acks none of them — the deliveries
/// stay with the queue, exactly as a single unacked result did. What did
/// not fit leads the next batch. With one result outstanding the batch is
/// that one result and nothing waits. The loop ends when the subscription
/// is closed, the connection dies, or the stream queue disappears (liveness
/// reaping, shutdown).
fn spawn_push_loop(
    inner: Arc<ServerInner>,
    conn: Arc<Conn>,
    corr: u64,
    stream: super::super::ResultStream,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("gcx-wire-push".into())
        .spawn(move || {
            let max_bytes = PUSH_BATCH_MAX_BYTES.min(inner.spec.max_frame_size as usize / 2);
            // Reused across batches: the payload buffer (lent to the frame
            // for the send and taken back), the deliveries taken and not yet
            // sent, and the tags of those the write carries.
            let mut body: Vec<u8> = Vec::new();
            let mut taken = Vec::new();
            let mut tags: Vec<u64> = Vec::new();
            while !stop.load(Ordering::SeqCst) && !inner.shutdown.load(Ordering::SeqCst) {
                // Deliveries that did not fit the previous batch wait for
                // nothing: top them up with what is ready now.
                let wait = if taken.is_empty() {
                    Duration::from_millis(50)
                } else {
                    Duration::ZERO
                };
                let room = PUSH_BATCH_MAX_RESULTS - taken.len();
                // An error is the queue deleted (stream reaped or broker gone).
                if stream.consumer.next_batch(wait, room, &mut taken).is_err() {
                    return;
                }
                if taken.is_empty() {
                    continue;
                }
                body.clear();
                for delivery in &taken {
                    // Link each pushed result back to its originating trace:
                    // the envelope's context rides a queue header, and a
                    // trace-capable peer gets it beside the entry.
                    let trace = delivery.message.headers.trace.filter(|_| conn.peer_trace);
                    let envelope = &delivery.message.body;
                    let entry = batch::push_entry_len(trace.is_some(), envelope.len());
                    if !tags.is_empty() && body.len() + entry > max_bytes {
                        break;
                    }
                    // The stream queue carries the binary result envelope;
                    // its bytes go into the batch as they are (one memcpy,
                    // no codec re-walk). The client validates on decode.
                    batch::write_push_entry(&mut body, trace.as_ref(), envelope);
                    tags.push(delivery.tag);
                }
                let frame = Frame::new(FrameType::Push, corr, Value::Bytes(body));
                let sent = inner.m.send_counted(conn.transport.as_ref(), &frame);
                body = match frame.payload {
                    // A lone oversized envelope does not get to keep its
                    // allocation for the life of the subscription.
                    Value::Bytes(b) if b.capacity() <= 2 * PUSH_BATCH_MAX_BYTES => b,
                    _ => Vec::new(),
                };
                if sent.is_err() {
                    // Connection dead: leave the whole batch unacked and
                    // stop pushing.
                    return;
                }
                let _ = stream.consumer.ack_batch(&tags);
                taken.drain(..tags.len());
                tags.clear();
            }
        })
        .expect("spawn wire push loop")
}

#[cfg(test)]
mod tests {
    use super::super::{WireClient, WireClientConfig};
    use super::*;
    use crate::service::testkit::{login, service};

    /// A server that has said Goodbye to 300 clients holds the handles of
    /// the connections still open (plus its accept loop), not 300.
    #[test]
    fn retained_thread_handles_follow_open_connections_not_history() {
        let svc = service();
        let token = login(&svc, "churn@x.y");
        let server = WireServer::listen(&svc, TransportSpec::default()).unwrap();
        let cfg = WireClientConfig::default;
        for round in 0..300 {
            let client = if round % 2 == 0 {
                WireClient::over(server.connect_inmem(), &token.0, cfg()).unwrap()
            } else {
                WireClient::connect_tcp(server.addr(), &token.0, cfg()).unwrap()
            };
            client.close();
            // A connection thread may still be unwinding when the next one
            // is retained; a handful are, never one per round.
            let retained = server.inner.threads.lock().len();
            assert!(retained <= 8, "round {round}: {retained} handles retained");
        }
        server.shutdown();
        svc.shutdown();
    }
}
