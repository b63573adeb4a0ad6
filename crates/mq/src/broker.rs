//! The broker: queues, publish/consume, acks, prefetch, credentials,
//! metering.
//!
//! A queue has one lock. `Queue::state` guards everything that changes
//! per message — the ready deque, the unacked deliveries, each consumer's
//! prefetch window, the policy, the tag and publish counts — so a publish,
//! a take and an ack each take it once, whatever number of messages they
//! carry, and nothing is kept in step across two locks. A delivery has one
//! record, its `unacked` entry; whoever removes the entry (ack, nack,
//! consumer drop, `recover_queue`) lowers the owning consumer's window in
//! the same step.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use gcx_core::clock::{SharedClock, SystemClock};
use gcx_core::error::{GcxError, GcxResult};
use gcx_core::metrics::MetricsRegistry;
use gcx_core::trace::TraceContext;
use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};

use crate::fault::{FaultPlan, PublishOutcome};
use crate::link::LinkProfile;

/// What a message carries beside its body, as values: nothing here is
/// formatted to text or parsed back between publisher and consumer, and
/// cloning it is a copy plus at most one refcount bump.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Headers {
    /// The task's trace context. It lets the broker annotate the trace when
    /// fault injection touches the message, without ever decoding the body.
    pub trace: Option<TraceContext>,
    /// The publisher's clock reading in ms; the consumer uses it as the
    /// queue-transit span's start.
    pub sent_ms: Option<u64>,
    /// Set on a dead-lettered message: the queue it died on.
    pub death_queue: Option<Arc<str>>,
}

impl Headers {
    /// Metered size: what each field cost as a `name: text` pair
    /// (`gcx-trace`, `gcx-sent-ms`, `x-death-queue`; name + text + 4), so
    /// byte counters and byte-bounded queues read as they always have.
    fn wire_size(&self) -> usize {
        // `<uuid>:<16 hex>` under a 9-byte name.
        const TRACE: usize = 9 + 36 + 1 + 16 + 4;
        let decimal_digits = |n: u64| n.checked_ilog10().map_or(1, |d| d as usize + 1);
        self.trace.map_or(0, |_| TRACE)
            + self.sent_ms.map_or(0, |ms| 11 + decimal_digits(ms) + 4)
            + self.death_queue.as_ref().map_or(0, |q| 13 + q.len() + 4)
    }
}

/// A queued message.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// Opaque payload (typically a `gcx_core::codec` envelope).
    pub body: Bytes,
    /// Routing and tracing metadata.
    pub headers: Headers,
    /// True if this delivery follows an unacked predecessor (consumer died).
    pub redelivered: bool,
    /// How many times this message has been handed to a consumer; compared
    /// against the queue's `max_deliveries` policy to decide dead-lettering.
    pub delivery_count: u32,
}

impl Message {
    /// A message with no headers.
    pub fn new(body: Bytes) -> Self {
        Self::with_headers(body, Headers::default())
    }

    /// A message with headers.
    pub fn with_headers(body: Bytes, headers: Headers) -> Self {
        Self {
            body,
            headers,
            redelivered: false,
            delivery_count: 0,
        }
    }

    fn wire_size(&self) -> usize {
        self.body.len() + self.headers.wire_size() + 8 // frame overhead
    }
}

/// A delivery handed to a consumer; must be acked or nacked.
#[derive(Debug)]
pub struct Delivery {
    /// Broker-assigned delivery tag.
    pub tag: u64,
    /// The message.
    pub message: Message,
}

/// Point-in-time queue statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueStats {
    /// Messages waiting for delivery.
    pub ready: usize,
    /// Messages delivered but not yet acked.
    pub unacked: usize,
    /// Total messages ever published.
    pub published: u64,
    /// Broker-clock stamp of the most recent consumer poll (`next` call),
    /// initialized to the declare time. The cloud's liveness sweep uses
    /// this to reap result-stream queues whose consumer vanished without
    /// closing the stream — a queue nobody polls anymore.
    pub last_poll_ms: u64,
}

/// Redelivery limits and capacity bounds for a queue. The default policy
/// (unlimited deliveries, no dead-letter queue, unbounded) matches plain
/// AMQP. A publish that would take a bounded queue over its capacity is
/// refused with a typed [`GcxError::QueueFull`]: the publisher absorbs the
/// backpressure.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueuePolicy {
    /// Maximum times a message may be handed to a consumer before it is
    /// dead-lettered instead of requeued; `0` = unlimited.
    pub(crate) max_deliveries: u32,
    /// Where poisoned messages go. `None` discards them (counted in
    /// `mq.dropped`).
    pub(crate) dead_letter_to: Option<String>,
    /// Maximum ready (undelivered) messages; `0` = unbounded. Unacked
    /// deliveries don't count — prefetch already bounds those.
    pub max_depth: usize,
    /// Maximum total wire bytes across ready messages; `0` = unbounded.
    pub max_bytes: usize,
}

impl QueuePolicy {
    /// Dead-letter to `queue` after `max_deliveries` failed deliveries.
    pub fn dead_letter(max_deliveries: u32, queue: impl Into<String>) -> Self {
        Self {
            max_deliveries,
            dead_letter_to: Some(queue.into()),
            ..Self::default()
        }
    }

    fn exhausted(&self, msg: &Message) -> bool {
        self.max_deliveries > 0 && msg.delivery_count >= self.max_deliveries
    }
}

/// One consumer's prefetch window: how many deliveries it may hold unacked
/// (`0` = unlimited) and how many it holds now.
struct Window {
    prefetch: usize,
    held: usize,
}

/// `unacked`'s hasher. Its keys are delivery tags the broker counts out
/// itself, never a client's choice, so one multiply by 2⁶⁴/φ spreads them
/// over the table and SipHash's flood resistance would buy nothing.
#[derive(Default)]
struct TagHasher(u64);

impl Hasher for TagHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Everything about a queue that changes per message, under its one lock.
struct QueueState {
    ready: VecDeque<Message>,
    /// Running total of `wire_size` across `ready` — kept so capacity checks
    /// and the bytes gauge never walk the deque.
    ready_bytes: usize,
    /// The only record of a delivery: tag → (its consumer's slot, message).
    unacked: HashMap<u64, (usize, Message), BuildHasherDefault<TagHasher>>,
    /// `windows[slot].held` counts the `unacked` entries of the consumer in
    /// `slot`; [`QueueState::hold`] and [`QueueState::release`] are the only
    /// writers of either.
    windows: Vec<Window>,
    /// Slots of dropped consumers, for `consume` to reuse.
    free_slots: Vec<usize>,
    policy: QueuePolicy,
    next_tag: u64,
    published: u64,
    closed: bool,
}

impl QueueState {
    /// Would adding `add_msgs` messages totalling `add_bytes` exceed a bound?
    fn would_overflow(&self, add_msgs: usize, add_bytes: usize) -> bool {
        let QueuePolicy {
            max_depth,
            max_bytes,
            ..
        } = self.policy;
        (max_depth > 0 && self.ready.len() + add_msgs > max_depth)
            || (max_bytes > 0 && self.ready_bytes + add_bytes > max_bytes)
    }

    fn window_open(&self, slot: usize) -> bool {
        let w = &self.windows[slot];
        w.prefetch == 0 || w.held < w.prefetch
    }

    /// Record `msg` as delivered to the consumer in `slot`; returns its tag.
    fn hold(&mut self, slot: usize, msg: Message) -> u64 {
        let tag = self.next_tag;
        self.next_tag += 1;
        self.unacked.insert(tag, (slot, msg));
        self.windows[slot].held += 1;
        tag
    }

    /// Forget delivery `tag`, whoever asks. Returns its message and whether
    /// that opened a prefetch window that was full — the one release a
    /// `next` blocked on its window has anything to learn from.
    fn release(&mut self, tag: u64) -> Option<(Message, bool)> {
        let (slot, msg) = self.unacked.remove(&tag)?;
        let w = &mut self.windows[slot];
        let opened = w.held == w.prefetch;
        w.held -= 1;
        Some((msg, opened))
    }
}

/// Which end of `ready` a message joins.
#[derive(Clone, Copy)]
enum End {
    Back,
    Front,
}

struct Queue {
    name: String,
    credential: Option<String>,
    state: Mutex<QueueState>,
    cond: Condvar,
    /// Broker-clock stamp of the latest `Consumer::next` on this queue
    /// (declare time until first poll); see [`QueueStats::last_poll_ms`].
    last_poll_ms: AtomicU64,
    /// `mq.depth.<queue>` — ready messages, kept in lockstep with `ready`.
    depth_gauge: Arc<gcx_core::metrics::Gauge>,
    /// `mq.bytes.<queue>` — ready wire bytes, kept in lockstep.
    bytes_gauge: Arc<gcx_core::metrics::Gauge>,
}

impl Queue {
    fn stats(&self) -> QueueStats {
        let st = self.state.lock();
        QueueStats {
            ready: st.ready.len(),
            unacked: st.unacked.len(),
            published: st.published,
            last_poll_ms: self.last_poll_ms.load(Ordering::Relaxed),
        }
    }

    fn closed_error(&self) -> GcxError {
        GcxError::Queue(format!("queue '{}' is closed", self.name))
    }

    /// Add to `ready` at `end` (the front only for a requeue), maintaining
    /// the byte total and gauges. Every path that grows `ready` goes
    /// through this.
    fn push_ready(&self, st: &mut QueueState, end: End, msg: Message) {
        let size = msg.wire_size();
        st.ready_bytes += size;
        match end {
            End::Back => st.ready.push_back(msg),
            End::Front => st.ready.push_front(msg),
        }
        self.depth_gauge.add(1);
        self.bytes_gauge.add(size as u64);
    }

    /// Pop the oldest ready message, maintaining totals and gauges.
    fn pop_ready(&self, st: &mut QueueState) -> Option<Message> {
        let msg = st.ready.pop_front()?;
        let size = msg.wire_size();
        st.ready_bytes = st.ready_bytes.saturating_sub(size);
        self.depth_gauge.sub(1);
        self.bytes_gauge.sub(size as u64);
        Some(msg)
    }
}

/// Pre-resolved counter handles for the broker's hot paths. Looking a
/// counter up by name costs a registry read-lock and a string compare on
/// every publish/delivery; resolving each handle once at construction makes
/// metering a single atomic add.
struct MqMetrics {
    dead_lettered: Arc<gcx_core::metrics::Counter>,
    dropped: Arc<gcx_core::metrics::Counter>,
    duplicated: Arc<gcx_core::metrics::Counter>,
    messages_published: Arc<gcx_core::metrics::Counter>,
    bytes_published: Arc<gcx_core::metrics::Counter>,
    messages_delivered: Arc<gcx_core::metrics::Counter>,
    bytes_delivered: Arc<gcx_core::metrics::Counter>,
    redeliveries: Arc<gcx_core::metrics::Counter>,
    acks: Arc<gcx_core::metrics::Counter>,
    queue_full_rejections: Arc<gcx_core::metrics::Counter>,
}

impl MqMetrics {
    fn resolve(registry: &MetricsRegistry) -> Self {
        Self {
            dead_lettered: registry.counter("mq.dead_lettered"),
            dropped: registry.counter("mq.dropped"),
            duplicated: registry.counter("mq.duplicated"),
            messages_published: registry.counter("mq.messages_published"),
            bytes_published: registry.counter("mq.bytes_published"),
            messages_delivered: registry.counter("mq.messages_delivered"),
            bytes_delivered: registry.counter("mq.bytes_delivered"),
            redeliveries: registry.counter("mq.redeliveries"),
            acks: registry.counter("mq.acks"),
            queue_full_rejections: registry.counter("mq.queue_full_rejections"),
        }
    }
}

struct BrokerInner {
    queues: RwLock<HashMap<String, Arc<Queue>>>,
    metrics: MetricsRegistry,
    m: MqMetrics,
    clock: SharedClock,
    link: LinkProfile,
    fault: RwLock<Option<Arc<FaultPlan>>>,
    /// Whether `fault` holds a plan; written under its write lock. Only
    /// chaos tests install one, so a publish or a take reads this flag and
    /// never the lock.
    fault_on: AtomicBool,
}

impl BrokerInner {
    fn find(&self, name: &str) -> GcxResult<Arc<Queue>> {
        let q = self.queues.read().get(name).cloned();
        q.ok_or_else(|| GcxError::Queue(format!("no such queue '{name}'")))
    }

    /// The installed fault plan, if any. A plan installed from another
    /// thread is seen by the next publish or take that starts after it.
    fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        if !self.fault_on.load(Ordering::Acquire) {
            return None;
        }
        self.fault.read().clone()
    }

    /// Record an injected fault (or dead-lettering) on the affected task's
    /// trace — reached through [`Headers::trace`], since the broker never
    /// decodes bodies — and in the flight recorder.
    /// Fault paths are rare, so resolving the tracer from the registry per
    /// event is fine (and necessary: the cloud installs it on the shared
    /// registry after the broker is constructed).
    fn trace_fault(&self, event: &'static str, queue: &str, trace: Option<&TraceContext>) {
        self.metrics
            .tracer()
            .annotate(trace, || format!("mq.{event} on {queue}"));
        let flight = self.metrics.flight();
        flight.record(self.clock.now_ms(), "mq", event, format!("queue={queue}"));
    }

    /// Route a poisoned message to its dead-letter queue, or discard it.
    /// Must be called without any queue state lock held.
    fn dead_letter(&self, source: &str, target: &Option<String>, mut msg: Message) {
        self.m.dead_lettered.inc();
        self.trace_fault("dead_letter", source, msg.headers.trace.as_ref());
        if let Some(q) = target.as_ref().and_then(|dlq| self.find(dlq).ok()) {
            msg.headers.death_queue = Some(Arc::from(source));
            msg.redelivered = false;
            msg.delivery_count = 0;
            let mut st = q.state.lock();
            if !st.closed {
                // The DLQ itself is exempt from capacity bounds: it is
                // the overflow valve, and bouncing between bounded
                // queues could recurse forever.
                q.push_ready(&mut st, End::Back, msg);
                st.published += 1;
                drop(st);
                q.cond.notify_one();
                return;
            }
        }
        // No (usable) dead-letter queue: the message is gone.
        self.m.dropped.inc();
    }

    /// The one way a delivery goes back: each of `tags` still unacked is
    /// released and marked redelivered, then dead-lettered if its delivery
    /// budget is spent, else put at the head of `ready` — highest tag first,
    /// so the head reads in original FIFO (ascending-tag) order. A deleted
    /// queue takes nothing back: its deliveries are released and go with
    /// it. Wakes every parked consumer; returns how many messages are ready
    /// again.
    fn requeue(&self, q: &Queue, mut st: MutexGuard<'_, QueueState>, tags: &mut [u64]) -> usize {
        tags.sort_unstable_by(|a, b| b.cmp(a));
        let mut dead = Vec::new();
        let mut requeued = 0;
        for tag in tags {
            let Some((mut msg, _)) = st.release(*tag) else {
                continue;
            };
            if st.closed {
                continue;
            }
            msg.redelivered = true;
            if st.policy.exhausted(&msg) {
                dead.push(msg);
            } else {
                q.push_ready(&mut st, End::Front, msg);
                requeued += 1;
            }
        }
        let target = if dead.is_empty() {
            None
        } else {
            st.policy.dead_letter_to.clone()
        };
        drop(st);
        for msg in dead {
            self.dead_letter(&q.name, &target, msg);
        }
        q.cond.notify_all();
        requeued
    }
}

/// The broker handle. Cloning shares the broker.
#[derive(Clone)]
pub struct Broker {
    inner: Arc<BrokerInner>,
}

impl Default for Broker {
    fn default() -> Self {
        Self::new()
    }
}

impl Broker {
    /// A broker with a zero-cost link and its own metrics registry.
    pub fn new() -> Self {
        Self::with_profile(
            MetricsRegistry::new(),
            Arc::new(SystemClock),
            LinkProfile::instant(),
        )
    }

    /// A broker with explicit metrics, clock, and link profile.
    pub fn with_profile(metrics: MetricsRegistry, clock: SharedClock, link: LinkProfile) -> Self {
        let m = MqMetrics::resolve(&metrics);
        Self {
            inner: Arc::new(BrokerInner {
                queues: RwLock::new(HashMap::new()),
                metrics,
                m,
                clock,
                link,
                fault: RwLock::new(None),
                fault_on: AtomicBool::new(false),
            }),
        }
    }

    /// The metrics registry (message/byte counters).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// Install (or with `None`, remove) a fault-injection plan. Applies to
    /// every publish and take that starts from this point on; a take
    /// already in progress keeps the plan it started with.
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        let mut slot = self.inner.fault.write();
        self.inner.fault_on.store(plan.is_some(), Ordering::Release);
        *slot = plan.map(Arc::new);
    }

    /// Set the redelivery policy for an existing queue.
    pub fn set_queue_policy(&self, name: &str, policy: QueuePolicy) -> GcxResult<()> {
        self.inner.find(name)?.state.lock().policy = policy;
        Ok(())
    }

    /// Declare a queue. Idempotent if the credential matches; an existing
    /// queue with a different credential is an error.
    pub fn declare_queue(&self, name: &str, credential: Option<&str>) -> GcxResult<()> {
        let mut queues = self.inner.queues.write();
        if let Some(q) = queues.get(name) {
            if q.credential.as_deref() != credential {
                return Err(GcxError::Forbidden(format!(
                    "queue '{name}' exists with a different credential"
                )));
            }
            return Ok(());
        }
        queues.insert(
            name.to_string(),
            Arc::new(Queue {
                name: name.to_string(),
                credential: credential.map(str::to_string),
                state: Mutex::new(QueueState {
                    ready: VecDeque::new(),
                    ready_bytes: 0,
                    unacked: HashMap::default(),
                    windows: Vec::new(),
                    free_slots: Vec::new(),
                    policy: QueuePolicy::default(),
                    next_tag: 1,
                    published: 0,
                    closed: false,
                }),
                cond: Condvar::new(),
                last_poll_ms: AtomicU64::new(self.inner.clock.now_ms()),
                depth_gauge: self.inner.metrics.gauge(&format!("mq.depth.{name}")),
                bytes_gauge: self.inner.metrics.gauge(&format!("mq.bytes.{name}")),
            }),
        );
        Ok(())
    }

    /// Delete a queue, waking all consumers (they see `closed`). Its
    /// `mq.depth.*` / `mq.bytes.*` gauges leave the registry with it.
    pub fn delete_queue(&self, name: &str) -> GcxResult<()> {
        let q = {
            let mut queues = self.inner.queues.write();
            let q = queues
                .remove(name)
                .ok_or_else(|| GcxError::Queue(format!("no such queue '{name}'")))?;
            // Under the map's lock, as `declare_queue` registers them: a
            // queue declared again under this name gets gauges of its own.
            let metrics = &self.inner.metrics;
            metrics.remove_gauge(&format!("mq.depth.{name}"));
            metrics.remove_gauge(&format!("mq.bytes.{name}"));
            q
        };
        {
            let mut st = q.state.lock();
            st.closed = true;
            // Zero the gauges for whoever still holds them.
            q.depth_gauge.sub(st.ready.len() as u64);
            q.bytes_gauge.sub(st.ready_bytes as u64);
            st.ready.clear();
            st.ready_bytes = 0;
        }
        q.cond.notify_all();
        Ok(())
    }

    fn get(&self, name: &str, credential: Option<&str>) -> GcxResult<Arc<Queue>> {
        let q = self.inner.find(name)?;
        if q.credential.is_some() && q.credential.as_deref() != credential {
            return Err(GcxError::Forbidden(format!(
                "bad credential for queue '{name}'"
            )));
        }
        Ok(q)
    }

    /// Publish a message. Blocks for the link cost (latency + size/bandwidth)
    /// and then enqueues; returns once the broker has the message (publisher
    /// confirm semantics).
    ///
    /// Under an installed [`FaultPlan`] the message may be silently lost
    /// after the confirm, duplicated, or charged extra latency — exactly the
    /// failure modes redelivery and retry machinery must absorb.
    pub fn publish(
        &self,
        queue: &str,
        message: Message,
        credential: Option<&str>,
    ) -> GcxResult<()> {
        self.admit(queue, [message], credential)
    }

    /// Publish a whole batch to one queue: one credential check, one link
    /// charge for the combined size, one queue-lock acquisition, and one
    /// consumer wake — versus `messages.len()` of each with per-message
    /// [`Broker::publish`]. This is the broker half of the SDK's batched
    /// submit path and of the result processor's fan-out. `messages` may
    /// be a `Vec` or a `Drain` of a buffer the caller keeps.
    ///
    /// Fault-plan draws still happen per message, so a batch consumes
    /// exactly the same deterministic sequence of outcomes as the same
    /// messages published one at a time.
    pub fn publish_batch<M>(
        &self,
        queue: &str,
        messages: M,
        credential: Option<&str>,
    ) -> GcxResult<()>
    where
        M: AsRef<[Message]> + IntoIterator<Item = Message>,
    {
        if messages.as_ref().is_empty() {
            return Ok(());
        }
        self.admit(queue, messages, credential)
    }

    /// The one way a message gets into a queue; `publish` is the batch of
    /// one. The first pass draws each message's fate, the second enqueues
    /// that many copies of it. Without a fault plan every message is one
    /// copy and nothing is drawn or kept between the passes.
    fn admit<M>(&self, queue: &str, messages: M, credential: Option<&str>) -> GcxResult<()>
    where
        M: AsRef<[Message]> + IntoIterator<Item = Message>,
    {
        let inner = &*self.inner;
        let q = self.get(queue, credential)?;
        let fault = inner.fault_plan();
        // Each message's copy count under a plan; empty without one.
        let mut copies = Vec::new();
        // Bytes sent (every message), bytes metered as published (survivors,
        // once each) and bytes headed for `ready` (survivors, each copy).
        let (mut sent_bytes, mut published_bytes, mut ready_bytes) = (0, 0, 0);
        let (mut accepted, mut total_copies, mut delay_ms) = (0u64, 0u64, 0u64);
        // The first survivor's trace: where a refusal is annotated.
        let mut first_trace = None;
        for message in messages.as_ref() {
            let size = message.wire_size();
            let trace = message.headers.trace.as_ref();
            sent_bytes += size;
            let outcome = match &fault {
                Some(plan) => plan.on_publish(queue, inner.clock.now_ms()),
                None => PublishOutcome::Deliver {
                    extra_copies: 0,
                    extra_delay_ms: 0,
                },
            };
            let n = match outcome {
                PublishOutcome::Deliver {
                    extra_copies,
                    extra_delay_ms,
                } => {
                    delay_ms += extra_delay_ms;
                    let n = 1 + extra_copies;
                    if accepted == 0 {
                        first_trace = message.headers.trace;
                    }
                    accepted += 1;
                    total_copies += n as u64;
                    published_bytes += size;
                    ready_bytes += size * n as usize;
                    if extra_copies > 0 {
                        inner.trace_fault("fault.duplicate", queue, trace);
                    }
                    n
                }
                // Lost in transit after the publisher's confirm.
                PublishOutcome::Drop { extra_delay_ms } => {
                    delay_ms += extra_delay_ms;
                    inner.m.dropped.inc();
                    inner.trace_fault("fault.publish_drop", queue, trace);
                    0
                }
            };
            if fault.is_some() {
                copies.push(n);
            }
        }
        inner.link.charge(&inner.clock, sent_bytes);
        if delay_ms > 0 {
            inner.clock.sleep(Duration::from_millis(delay_ms));
        }
        if accepted == 0 {
            return Ok(());
        }
        let mut st = q.state.lock();
        if st.closed {
            return Err(q.closed_error());
        }
        // All-or-nothing: either every surviving message fits under the
        // bound or none is enqueued, matching the whole-batch error
        // semantics of `submit_batch`.
        if st.would_overflow(total_copies as usize, ready_bytes) {
            drop(st);
            inner.m.queue_full_rejections.add(accepted);
            inner.trace_fault("queue_full", queue, first_trace.as_ref());
            return Err(GcxError::QueueFull {
                queue: q.name.clone(),
            });
        }
        let mut copies = copies.into_iter();
        for message in messages {
            let n = copies.next().unwrap_or(1);
            for _ in 1..n {
                q.push_ready(&mut st, End::Back, message.clone());
            }
            if n > 0 {
                q.push_ready(&mut st, End::Back, message);
            }
        }
        // Counted before the lock is released: a consumer that takes a
        // message must find it already counted as published.
        st.published += total_copies;
        inner.m.messages_published.add(accepted);
        inner.m.bytes_published.add(published_bytes as u64);
        drop(st);
        q.cond.notify_all();
        if total_copies > accepted {
            inner.m.duplicated.add(total_copies - accepted);
        }
        Ok(())
    }

    /// Open a consumer with the given prefetch limit (maximum unacked
    /// deliveries outstanding at once; `0` means unlimited).
    pub fn consume(
        &self,
        queue: &str,
        credential: Option<&str>,
        prefetch: usize,
    ) -> GcxResult<Consumer> {
        let q = self.get(queue, credential)?;
        let window = Window { prefetch, held: 0 };
        let slot = {
            let mut st = q.state.lock();
            match st.free_slots.pop() {
                Some(slot) => {
                    st.windows[slot] = window;
                    slot
                }
                None => {
                    st.windows.push(window);
                    st.windows.len() - 1
                }
            }
        };
        Ok(Consumer {
            queue: q,
            broker: self.inner.clone(),
            slot,
        })
    }

    /// Stats for a queue.
    pub fn queue_stats(&self, name: &str) -> GcxResult<QueueStats> {
        Ok(self.inner.find(name)?.stats())
    }

    /// Names of all queues (sorted), for inspection.
    pub fn queue_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.inner.queues.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Force every unacked delivery on `queue` back to the ready queue in
    /// original FIFO (delivery-tag) order, as if the consumers holding them
    /// had died. Used by the liveness monitor when an endpoint stops
    /// heartbeating but its consumer handle was never dropped (process
    /// freeze, partition). Messages over their delivery budget are
    /// dead-lettered instead. Returns how many messages were requeued.
    ///
    /// A consumer that outlives this finds its prefetch window empty again
    /// and its old tags unknown: it may receive what it once held, and a
    /// late `ack` or `nack` of a recovered tag is an error that changes
    /// nothing.
    pub fn recover_queue(&self, name: &str) -> GcxResult<usize> {
        let q = self.inner.find(name)?;
        let st = q.state.lock();
        let mut tags: Vec<u64> = st.unacked.keys().copied().collect();
        Ok(self.inner.requeue(&q, st, &mut tags))
    }
}

/// A registered consumer. Dropping it requeues all unacked deliveries.
pub struct Consumer {
    queue: Arc<Queue>,
    broker: Arc<BrokerInner>,
    /// Index of this consumer's prefetch window in the queue's state.
    slot: usize,
}

fn unknown_tag(tag: u64) -> GcxError {
    GcxError::Queue(format!("unknown delivery tag {tag}"))
}

impl Consumer {
    /// Receive the next message, waiting up to `timeout`: the take of one.
    /// Returns `Ok(None)` on timeout, `Err` if the queue was deleted.
    ///
    /// Blocks while the prefetch window is full — backpressure exactly like
    /// an AMQP channel with `basic.qos`.
    pub fn next(&self, timeout: Duration) -> GcxResult<Option<Delivery>> {
        let mut taken = None;
        self.take(timeout, 1, &mut |d| taken = Some(d))?;
        Ok(taken)
    }

    /// Take what is ready, up to `max` deliveries, appended to `out`;
    /// returns how many. Waits up to `timeout` for the first exactly as
    /// [`next`](Self::next) does, then keeps taking under the same lock
    /// while messages are ready and the prefetch window is open — it never
    /// waits to fill the batch. `Ok(0)` on timeout, `Err` if the queue was
    /// deleted.
    ///
    /// A take of `k` hands out what `k` successive `next(Duration::ZERO)`
    /// calls would, in the same order: each message is counted, checked
    /// against its delivery budget and (under a fault plan) drawn for as
    /// it would be there.
    pub fn next_batch(
        &self,
        timeout: Duration,
        max: usize,
        out: &mut Vec<Delivery>,
    ) -> GcxResult<usize> {
        if max == 0 {
            return Ok(0);
        }
        self.take(timeout, max, &mut |d| out.push(d))
    }

    /// The one take body; `out` receives each delivery under the lock.
    fn take(
        &self,
        timeout: Duration,
        max: usize,
        out: &mut impl FnMut(Delivery),
    ) -> GcxResult<usize> {
        let (q, broker) = (&*self.queue, &*self.broker);
        // On a virtual clock, waiting on real time would hang forever, so we
        // poll with yields instead of condvar timeouts in that mode.
        let virtual_mode = broker.clock.is_virtual();
        let deadline = Instant::now() + timeout;
        q.last_poll_ms
            .store(broker.clock.now_ms(), Ordering::Relaxed);
        let mut snoozed = false;
        loop {
            let fault = broker.fault_plan();
            // A hard partition blocks deliveries without consuming fault-plan
            // draws, so polling under a partition stays deterministic.
            let partitioned = fault
                .as_ref()
                .is_some_and(|p| p.blocks_deliveries(&q.name, broker.clock.now_ms()));
            let mut st = q.state.lock();
            if st.closed {
                return Err(q.closed_error());
            }
            let (mut taken, mut bytes, mut redelivered) = (0, 0, 0);
            // Set aside for once the lock is down: messages over their
            // delivery budget, and the traces of deliveries the fault plan
            // lost (back in `ready` already, attempt charged).
            let (mut poisoned, mut lost) = (Vec::new(), Vec::new());
            while taken < max && !partitioned && st.window_open(self.slot) {
                let Some(mut msg) = q.pop_ready(&mut st) else {
                    break;
                };
                msg.delivery_count += 1;
                let budget = st.policy.max_deliveries;
                if budget > 0 && msg.delivery_count > budget {
                    poisoned.push(msg);
                    continue;
                }
                let lost_now = fault
                    .as_ref()
                    .is_some_and(|p| p.on_deliver(&q.name, broker.clock.now_ms()));
                if lost_now {
                    msg.redelivered = true;
                    lost.push(msg.headers.trace);
                    q.push_ready(&mut st, End::Back, msg);
                    continue;
                }
                bytes += msg.wire_size() as u64;
                redelivered += u64::from(msg.redelivered);
                let tag = st.hold(self.slot, msg.clone());
                out(Delivery { tag, message: msg });
                taken += 1;
            }
            if taken > 0 || !poisoned.is_empty() || !lost.is_empty() {
                let target = if poisoned.is_empty() {
                    None
                } else {
                    st.policy.dead_letter_to.clone()
                };
                drop(st);
                if taken > 0 {
                    broker.m.messages_delivered.add(taken as u64);
                    broker.m.bytes_delivered.add(bytes);
                    if redelivered > 0 {
                        broker.m.redeliveries.add(redelivered);
                    }
                }
                // A message is lost before it is poisoned, so its trace
                // reads in the order the events happened.
                for trace in lost {
                    broker.m.dropped.inc();
                    broker.trace_fault("fault.deliver_drop", &q.name, trace.as_ref());
                }
                for msg in poisoned {
                    broker.dead_letter(&q.name, &target, msg);
                }
                if taken > 0 {
                    return Ok(taken);
                }
                continue;
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(0);
            }
            if virtual_mode {
                // Bounded spin against wall time.
                drop(st);
                std::thread::yield_now();
                continue;
            }
            // Nothing notifies when a partition window closes, so
            // wait in short slices while one is active.
            let mut remaining = deadline - now;
            if partitioned {
                remaining = remaining.min(Duration::from_millis(10));
            } else if !snoozed {
                // Run dry a few microseconds ahead of the producer?
                // Stay runnable for one scheduling turn before
                // parking: the next publish then finds no waiter and
                // makes no wake syscall.
                snoozed = true;
                drop(st);
                std::thread::yield_now();
                continue;
            }
            q.cond.wait_for(&mut st, remaining);
            snoozed = false;
        }
    }

    /// Acknowledge a delivery: the ack of one.
    pub fn ack(&self, tag: u64) -> GcxResult<()> {
        self.ack_batch(&[tag])
    }

    /// Acknowledge deliveries under one lock: the broker forgets each
    /// message. Only a take blocked on a full prefetch window has anything
    /// to learn from that, so the batch notifies only if it opened a full
    /// window — and then everyone, because the queue's other consumers park
    /// on the same condvar. An unknown tag changes nothing and is reported
    /// after the known ones are released. An empty batch takes no lock.
    pub fn ack_batch(&self, tags: &[u64]) -> GcxResult<()> {
        if tags.is_empty() {
            return Ok(());
        }
        let (mut acked, mut opened, mut unknown) = (0, false, None);
        {
            let mut st = self.queue.state.lock();
            for &tag in tags {
                match st.release(tag) {
                    Some((_, opened_window)) => {
                        acked += 1;
                        opened |= opened_window;
                    }
                    None => {
                        unknown.get_or_insert(tag);
                    }
                }
            }
        }
        if opened {
            self.queue.cond.notify_all();
        }
        self.broker.m.acks.add(acked);
        unknown.map_or(Ok(()), |tag| Err(unknown_tag(tag)))
    }

    /// Negative-acknowledge: requeue the message (redelivered = true), or
    /// dead-letter it if it has exhausted the queue's delivery budget.
    pub fn nack(&self, tag: u64) -> GcxResult<()> {
        let st = self.queue.state.lock();
        if !st.unacked.contains_key(&tag) {
            return Err(unknown_tag(tag));
        }
        self.broker.requeue(&self.queue, st, &mut [tag]);
        Ok(())
    }

    /// Current queue stats (for tests and backpressure decisions).
    pub fn stats(&self) -> QueueStats {
        self.queue.stats()
    }
}

impl Drop for Consumer {
    fn drop(&mut self) {
        // Requeue everything we held but never acked — crash semantics. The
        // slot is free for reuse once this lock is released, and by then
        // nothing in `unacked` names it.
        let mut st = self.queue.state.lock();
        st.free_slots.push(self.slot);
        if st.windows[self.slot].held == 0 {
            return;
        }
        let held = st
            .unacked
            .iter()
            .filter(|(_, (slot, _))| *slot == self.slot);
        let mut tags: Vec<u64> = held.map(|(tag, _)| *tag).collect();
        self.broker.requeue(&self.queue, st, &mut tags);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(text: &str) -> Message {
        Message::new(Bytes::copy_from_slice(text.as_bytes()))
    }

    const T: Duration = Duration::from_millis(500);

    #[test]
    fn publish_consume_ack() {
        let b = Broker::new();
        b.declare_queue("tasks", None).unwrap();
        b.publish("tasks", msg("t1"), None).unwrap();
        let c = b.consume("tasks", None, 0).unwrap();
        let d = c.next(T).unwrap().unwrap();
        assert_eq!(&d.message.body[..], b"t1");
        assert!(!d.message.redelivered);
        c.ack(d.tag).unwrap();
        let stats = b.queue_stats("tasks").unwrap();
        assert_eq!(stats.ready, 0);
        assert_eq!(stats.unacked, 0);
        assert_eq!(stats.published, 1);
    }

    #[test]
    fn fifo_order() {
        let b = Broker::new();
        b.declare_queue("q", None).unwrap();
        for i in 0..5 {
            b.publish("q", msg(&format!("m{i}")), None).unwrap();
        }
        let c = b.consume("q", None, 0).unwrap();
        for i in 0..5 {
            let d = c.next(T).unwrap().unwrap();
            assert_eq!(d.message.body, Bytes::from(format!("m{i}")));
            c.ack(d.tag).unwrap();
        }
    }

    #[test]
    fn timeout_returns_none() {
        let b = Broker::new();
        b.declare_queue("q", None).unwrap();
        let c = b.consume("q", None, 0).unwrap();
        assert!(c.next(Duration::from_millis(30)).unwrap().is_none());
    }

    #[test]
    fn nack_requeues_redelivered() {
        let b = Broker::new();
        b.declare_queue("q", None).unwrap();
        b.publish("q", msg("x"), None).unwrap();
        let c = b.consume("q", None, 0).unwrap();
        let d = c.next(T).unwrap().unwrap();
        c.nack(d.tag).unwrap();
        let d2 = c.next(T).unwrap().unwrap();
        assert!(d2.message.redelivered);
        assert_eq!(&d2.message.body[..], b"x");
        c.ack(d2.tag).unwrap();
    }

    #[test]
    fn dropping_consumer_requeues_unacked() {
        let b = Broker::new();
        b.declare_queue("q", None).unwrap();
        b.publish("q", msg("a"), None).unwrap();
        b.publish("q", msg("b"), None).unwrap();
        {
            let c = b.consume("q", None, 0).unwrap();
            let _d1 = c.next(T).unwrap().unwrap();
            let d2 = c.next(T).unwrap().unwrap();
            c.ack(d2.tag).unwrap();
            // d1 never acked; consumer dropped here.
        }
        let stats = b.queue_stats("q").unwrap();
        assert_eq!(stats.ready, 1, "unacked message must be requeued");
        let c2 = b.consume("q", None, 0).unwrap();
        let d = c2.next(T).unwrap().unwrap();
        assert!(d.message.redelivered);
        assert_eq!(&d.message.body[..], b"a");
    }

    #[test]
    fn prefetch_limits_outstanding() {
        let b = Broker::new();
        b.declare_queue("q", None).unwrap();
        for i in 0..3 {
            b.publish("q", msg(&format!("{i}")), None).unwrap();
        }
        let c = b.consume("q", None, 2).unwrap();
        let d1 = c.next(T).unwrap().unwrap();
        let _d2 = c.next(T).unwrap().unwrap();
        // Window full → next times out even though a message is ready.
        assert!(c.next(Duration::from_millis(30)).unwrap().is_none());
        assert_eq!(c.stats().ready, 1);
        c.ack(d1.tag).unwrap();
        let d3 = c.next(T).unwrap().unwrap();
        assert_eq!(&d3.message.body[..], b"2");
    }

    #[test]
    fn an_ack_that_opens_a_full_window_wakes_the_blocked_next() {
        let b = Broker::new();
        b.declare_queue("q", None).unwrap();
        b.publish("q", msg("a"), None).unwrap();
        b.publish("q", msg("b"), None).unwrap();
        let c = b.consume("q", None, 1).unwrap();
        let first = c.next(T).unwrap().unwrap();
        std::thread::scope(|s| {
            let blocked = s.spawn(|| {
                let d = c.next(Duration::from_secs(5)).unwrap().unwrap();
                (d, std::time::Instant::now())
            });
            // Long enough for `next` to find the window full and park.
            std::thread::sleep(Duration::from_millis(100));
            assert!(!blocked.is_finished(), "window of 1 is full");
            let acked = std::time::Instant::now();
            c.ack(first.tag).unwrap();
            let (d, resumed) = blocked.join().unwrap();
            assert_eq!(&d.message.body[..], b"b");
            let took = resumed.saturating_duration_since(acked);
            assert!(took < Duration::from_millis(50), "resumed {took:?} after");
        });
    }

    #[test]
    fn a_take_returns_what_is_ready_without_waiting_to_fill() {
        let b = Broker::new();
        b.declare_queue("q", None).unwrap();
        for i in 0..3 {
            b.publish("q", msg(&format!("m{i}")), None).unwrap();
        }
        let c = b.consume("q", None, 0).unwrap();
        let mut taken = Vec::new();
        let start = Instant::now();
        assert_eq!(
            c.next_batch(Duration::from_secs(5), 64, &mut taken)
                .unwrap(),
            3
        );
        assert!(start.elapsed() < Duration::from_secs(1), "waited to fill");
        let bodies: Vec<&[u8]> = taken.iter().map(|d| &d.message.body[..]).collect();
        assert_eq!(bodies, [b"m0", b"m1", b"m2"]);
        // A take appends, and an empty queue times out with nothing.
        assert_eq!(c.next_batch(Duration::ZERO, 64, &mut taken).unwrap(), 0);
        assert_eq!(taken.len(), 3);
        assert_eq!(c.stats().unacked, 3);
        assert_eq!(b.metrics().counter("mq.messages_delivered").get(), 3);
    }

    #[test]
    fn a_take_stops_at_a_full_prefetch_window() {
        let b = Broker::new();
        b.declare_queue("q", None).unwrap();
        for i in 0..5 {
            b.publish("q", msg(&format!("{i}")), None).unwrap();
        }
        let c = b.consume("q", None, 2).unwrap();
        let mut taken = Vec::new();
        assert_eq!(c.next_batch(Duration::ZERO, 64, &mut taken).unwrap(), 2);
        assert_eq!(c.next_batch(Duration::ZERO, 64, &mut taken).unwrap(), 0);
        c.ack(taken[0].tag).unwrap();
        assert_eq!(c.next_batch(Duration::ZERO, 64, &mut taken).unwrap(), 1);
        assert_eq!(&taken[2].message.body[..], b"2");
        assert_eq!(c.stats().ready, 2);
    }

    /// A take goes on past a message it dead-letters, as the singles it
    /// stands for would: stopping there would let an action on what it did
    /// take reorder what follows. (Without a fault plan a message meets its
    /// budget in a take only if the budget was lowered while it waited;
    /// `prop_fault::a_take_draws_what_singles_draw` covers lost deliveries.)
    #[test]
    fn a_take_goes_on_past_a_dead_lettered_message() {
        let b = Broker::new();
        b.declare_queue("q", None).unwrap();
        b.declare_queue("dlq", None).unwrap();
        for body in ["a", "b", "c"] {
            b.publish("q", msg(body), None).unwrap();
        }
        let c = b.consume("q", None, 0).unwrap();
        let mut taken = Vec::new();
        c.next_batch(T, 2, &mut taken).unwrap();
        let (a, bee) = (taken.remove(0), taken.remove(0));
        c.nack(a.tag).unwrap();
        let a = c.next(T).unwrap().unwrap();
        c.nack(a.tag).unwrap();
        c.nack(bee.tag).unwrap(); // ready: b (1 delivery), a (2), c
        b.set_queue_policy("q", QueuePolicy::dead_letter(2, "dlq"))
            .unwrap();
        assert_eq!(c.next_batch(Duration::ZERO, 3, &mut taken).unwrap(), 2);
        let bodies: Vec<&[u8]> = taken.iter().map(|d| &d.message.body[..]).collect();
        assert_eq!(bodies, [b"b", b"c"]);
        assert_eq!(b.queue_stats("dlq").unwrap().ready, 1);
    }

    #[test]
    fn a_take_on_a_deleted_queue_errors() {
        let b = Broker::new();
        b.declare_queue("q", None).unwrap();
        b.publish("q", msg("x"), None).unwrap();
        let c = b.consume("q", None, 0).unwrap();
        b.delete_queue("q").unwrap();
        assert!(c.next_batch(Duration::ZERO, 8, &mut Vec::new()).is_err());
    }

    #[test]
    fn a_plan_installed_mid_run_is_seen_by_the_next_take() {
        use crate::fault::{FaultDirection, FaultRule};
        let b = Broker::new();
        b.declare_queue("q", None).unwrap();
        for i in 0..4 {
            b.publish("q", msg(&format!("{i}")), None).unwrap();
        }
        let c = b.consume("q", None, 0).unwrap();
        let mut taken = Vec::new();
        assert_eq!(c.next_batch(Duration::ZERO, 1, &mut taken).unwrap(), 1);
        // A partition, installed from another thread, blocks the next take.
        let b2 = b.clone();
        std::thread::spawn(move || {
            let plan =
                FaultPlan::new(1).with_rule(FaultRule::drop("q", FaultDirection::Deliver, 1.0));
            b2.set_fault_plan(Some(plan));
        })
        .join()
        .unwrap();
        assert_eq!(c.next_batch(Duration::ZERO, 8, &mut taken).unwrap(), 0);
        b.set_fault_plan(None);
        assert_eq!(c.next_batch(Duration::ZERO, 8, &mut taken).unwrap(), 3);
    }

    #[test]
    fn an_ack_batch_with_an_unknown_tag_releases_the_known_ones() {
        let b = Broker::new();
        b.declare_queue("q", None).unwrap();
        for i in 0..3 {
            b.publish("q", msg(&format!("{i}")), None).unwrap();
        }
        let c = b.consume("q", None, 0).unwrap();
        let mut taken = Vec::new();
        c.next_batch(T, 8, &mut taken).unwrap();
        let mut tags: Vec<u64> = taken.iter().map(|d| d.tag).collect();
        tags.insert(1, 999);
        let err = c.ack_batch(&tags).unwrap_err();
        assert!(err.to_string().contains("999"), "{err}");
        assert_eq!(c.stats().unacked, 0);
        assert_eq!(b.metrics().counter("mq.acks").get(), 3);
        assert!(c.ack_batch(&[]).is_ok());
    }

    #[test]
    fn a_requeue_into_a_deleted_queue_drops_the_messages() {
        let b = Broker::new();
        b.declare_queue("q", None).unwrap();
        b.publish("q", msg("held"), None).unwrap();
        let c = b.consume("q", None, 0).unwrap();
        let d = c.next(T).unwrap().unwrap();
        let depth = b.metrics().gauge("mq.depth.q");
        b.delete_queue("q").unwrap();
        assert!(!b.metrics().gauge_snapshot().contains_key("mq.depth.q"));
        assert!(!b.metrics().gauge_snapshot().contains_key("mq.bytes.q"));
        c.nack(d.tag).unwrap();
        drop(c);
        assert_eq!(depth.get(), 0, "phantom depth on a deleted queue");
        assert_eq!(b.metrics().counter("mq.dead_lettered").get(), 0);
    }

    #[test]
    fn credentials_enforced() {
        let b = Broker::new();
        b.declare_queue("secure", Some("secret")).unwrap();
        assert!(b.publish("secure", msg("x"), None).is_err());
        assert!(b.publish("secure", msg("x"), Some("wrong")).is_err());
        b.publish("secure", msg("x"), Some("secret")).unwrap();
        assert!(b.consume("secure", Some("nope"), 0).is_err());
        let c = b.consume("secure", Some("secret"), 0).unwrap();
        assert!(c.next(T).unwrap().is_some());
        // Redeclare with same credential is idempotent; different errors.
        b.declare_queue("secure", Some("secret")).unwrap();
        assert!(b.declare_queue("secure", Some("other")).is_err());
    }

    #[test]
    fn delete_queue_wakes_consumers() {
        let b = Broker::new();
        b.declare_queue("q", None).unwrap();
        let c = b.consume("q", None, 0).unwrap();
        let b2 = b.clone();
        let h = std::thread::spawn(move || c.next(Duration::from_secs(10)));
        std::thread::sleep(Duration::from_millis(50));
        b2.delete_queue("q").unwrap();
        let r = h.join().unwrap();
        assert!(r.is_err(), "consumer must observe closure");
        assert!(b.queue_stats("q").is_err());
        assert!(b.publish("q", msg("x"), None).is_err());
    }

    #[test]
    fn metering_counts_messages_and_bytes() {
        let b = Broker::new();
        b.declare_queue("q", None).unwrap();
        b.publish("q", msg("0123456789"), None).unwrap();
        let published = b.metrics().counter("mq.messages_published").get();
        let bytes = b.metrics().counter("mq.bytes_published").get();
        assert_eq!(published, 1);
        assert!(bytes >= 10, "at least the body size: {bytes}");
        let c = b.consume("q", None, 0).unwrap();
        let d = c.next(T).unwrap().unwrap();
        c.ack(d.tag).unwrap();
        assert_eq!(b.metrics().counter("mq.messages_delivered").get(), 1);
        assert_eq!(b.metrics().counter("mq.acks").get(), 1);
    }

    #[test]
    fn multiple_consumers_share_work_without_duplication() {
        let b = Broker::new();
        b.declare_queue("q", None).unwrap();
        const N: usize = 200;
        for i in 0..N {
            b.publish("q", msg(&format!("{i}")), None).unwrap();
        }
        let mut handles = Vec::new();
        for _ in 0..4 {
            let b = b.clone();
            handles.push(std::thread::spawn(move || {
                let c = b.consume("q", None, 0).unwrap();
                let mut seen = Vec::new();
                while let Some(d) = c.next(Duration::from_millis(100)).unwrap() {
                    seen.push(String::from_utf8(d.message.body.to_vec()).unwrap());
                    c.ack(d.tag).unwrap();
                }
                seen
            }));
        }
        let mut all: Vec<String> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_by_key(|s| s.parse::<usize>().unwrap());
        assert_eq!(all.len(), N, "every message delivered exactly once");
        for (i, s) in all.iter().enumerate() {
            assert_eq!(s, &i.to_string());
        }
    }

    #[test]
    fn bad_tags_rejected() {
        let b = Broker::new();
        b.declare_queue("q", None).unwrap();
        let c = b.consume("q", None, 0).unwrap();
        assert!(c.ack(99).is_err());
        assert!(c.nack(99).is_err());
    }

    #[test]
    fn dropping_consumer_requeues_in_fifo_order() {
        let b = Broker::new();
        b.declare_queue("q", None).unwrap();
        for i in 0..6 {
            b.publish("q", msg(&format!("m{i}")), None).unwrap();
        }
        {
            let c = b.consume("q", None, 0).unwrap();
            for _ in 0..6 {
                c.next(T).unwrap().unwrap(); // hold all six, ack none
            }
        }
        let c2 = b.consume("q", None, 0).unwrap();
        for i in 0..6 {
            let d = c2.next(T).unwrap().unwrap();
            assert_eq!(
                d.message.body,
                Bytes::from(format!("m{i}")),
                "requeue must preserve original FIFO order"
            );
            c2.ack(d.tag).unwrap();
        }
    }

    #[test]
    fn delivery_budget_dead_letters_poison_messages() {
        let b = Broker::new();
        b.declare_queue("q", None).unwrap();
        b.declare_queue("dlq", None).unwrap();
        b.set_queue_policy("q", QueuePolicy::dead_letter(2, "dlq"))
            .unwrap();
        b.publish("q", msg("poison"), None).unwrap();
        let c = b.consume("q", None, 0).unwrap();
        // Two allowed deliveries, each nacked.
        for _ in 0..2 {
            let d = c.next(T).unwrap().unwrap();
            c.nack(d.tag).unwrap();
        }
        // Second nack exhausted the budget: message moved to the DLQ.
        assert!(c.next(Duration::from_millis(30)).unwrap().is_none());
        assert_eq!(b.queue_stats("q").unwrap().ready, 0);
        assert_eq!(b.queue_stats("dlq").unwrap().ready, 1);
        assert_eq!(b.metrics().counter("mq.dead_lettered").get(), 1);
        let dc = b.consume("dlq", None, 0).unwrap();
        let d = dc.next(T).unwrap().unwrap();
        assert_eq!(d.message.headers.death_queue.as_deref(), Some("q"));
        assert_eq!(&d.message.body[..], b"poison");
        dc.ack(d.tag).unwrap();
    }

    #[test]
    fn exhausted_message_without_dlq_is_dropped() {
        let b = Broker::new();
        b.declare_queue("q", None).unwrap();
        b.set_queue_policy(
            "q",
            QueuePolicy {
                max_deliveries: 1,
                dead_letter_to: None,
                ..Default::default()
            },
        )
        .unwrap();
        b.publish("q", msg("x"), None).unwrap();
        let c = b.consume("q", None, 0).unwrap();
        let d = c.next(T).unwrap().unwrap();
        c.nack(d.tag).unwrap();
        assert!(c.next(Duration::from_millis(30)).unwrap().is_none());
        assert_eq!(b.queue_stats("q").unwrap().ready, 0);
        assert_eq!(b.metrics().counter("mq.dropped").get(), 1);
        assert_eq!(b.metrics().counter("mq.dead_lettered").get(), 1);
    }

    #[test]
    fn recover_queue_requeues_unacked_in_order() {
        let b = Broker::new();
        b.declare_queue("q", None).unwrap();
        for i in 0..4 {
            b.publish("q", msg(&format!("m{i}")), None).unwrap();
        }
        // A consumer that "freezes": holds deliveries, never acks, never drops.
        let frozen = b.consume("q", None, 0).unwrap();
        for _ in 0..4 {
            frozen.next(T).unwrap().unwrap();
        }
        assert_eq!(b.queue_stats("q").unwrap().unacked, 4);
        let recovered = b.recover_queue("q").unwrap();
        assert_eq!(recovered, 4);
        assert_eq!(b.queue_stats("q").unwrap().unacked, 0);
        let c2 = b.consume("q", None, 0).unwrap();
        for i in 0..4 {
            let d = c2.next(T).unwrap().unwrap();
            assert!(d.message.redelivered);
            assert_eq!(d.message.body, Bytes::from(format!("m{i}")));
            c2.ack(d.tag).unwrap();
        }
    }

    /// A frozen-then-thawed consumer: `recover_queue` empties its prefetch
    /// window along with its deliveries, so it receives again.
    #[test]
    fn recover_queue_reopens_a_live_consumers_window() {
        let b = Broker::new();
        b.declare_queue("q", None).unwrap();
        b.publish("q", msg("m0"), None).unwrap();
        b.publish("q", msg("m1"), None).unwrap();
        let c = b.consume("q", None, 2).unwrap();
        let stale: Vec<u64> = (0..2).map(|_| c.next(T).unwrap().unwrap().tag).collect();
        assert!(c.next(Duration::from_millis(30)).unwrap().is_none());
        assert_eq!(b.recover_queue("q").unwrap(), 2);
        let fresh: Vec<Delivery> = (0..2).map(|_| c.next(T).unwrap().unwrap()).collect();
        for (i, d) in fresh.iter().enumerate() {
            assert!(d.message.redelivered);
            assert_eq!(d.message.body, Bytes::from(format!("m{i}")));
        }
        // The window is full again, and a pre-recovery tag opens nothing.
        for tag in stale {
            assert!(c.ack(tag).is_err());
            assert!(c.nack(tag).is_err());
        }
        assert_eq!(b.metrics().counter("mq.acks").get(), 0);
        assert_eq!(c.stats().unacked, 2);
        b.publish("q", msg("m2"), None).unwrap();
        assert!(c.next(Duration::from_millis(30)).unwrap().is_none());
        c.ack(fresh[0].tag).unwrap();
        assert_eq!(&c.next(T).unwrap().unwrap().message.body[..], b"m2");
    }

    #[test]
    fn dropping_one_of_two_consumers_returns_only_its_deliveries() {
        let b = Broker::new();
        b.declare_queue("q", None).unwrap();
        for i in 0..6 {
            b.publish("q", msg(&format!("m{i}")), None).unwrap();
        }
        let stays = b.consume("q", None, 0).unwrap();
        let leaves = b.consume("q", None, 0).unwrap();
        // Interleaved: `leaves` holds m1, m3, m5.
        let mut kept = Vec::new();
        for _ in 0..3 {
            kept.push(stays.next(T).unwrap().unwrap().tag);
            leaves.next(T).unwrap().unwrap();
        }
        drop(leaves);
        let stats = b.queue_stats("q").unwrap();
        assert_eq!((stats.ready, stats.unacked), (3, 3));
        for tag in kept {
            stays.ack(tag).unwrap();
        }
        // A consumer opened now may reuse the slot `leaves` gave back.
        let c = b.consume("q", None, 1).unwrap();
        for i in [1, 3, 5] {
            let d = c.next(T).unwrap().unwrap();
            assert!(d.message.redelivered);
            assert_eq!(d.message.body, Bytes::from(format!("m{i}")));
            c.ack(d.tag).unwrap();
        }
    }

    #[test]
    fn fault_plan_drops_publishes() {
        use crate::fault::{FaultDirection, FaultPlan, FaultRule};
        let b = Broker::new();
        b.declare_queue("q", None).unwrap();
        b.set_fault_plan(Some(FaultPlan::new(1).with_rule(FaultRule::drop(
            "q",
            FaultDirection::Publish,
            1.0,
        ))));
        b.publish("q", msg("lost"), None).unwrap(); // confirm succeeds…
        assert_eq!(
            b.queue_stats("q").unwrap().ready,
            0,
            "…but the message is gone"
        );
        assert_eq!(b.metrics().counter("mq.dropped").get(), 1);
        b.set_fault_plan(None);
        b.publish("q", msg("kept"), None).unwrap();
        assert_eq!(b.queue_stats("q").unwrap().ready, 1);
    }

    #[test]
    fn fault_plan_duplicates_publishes() {
        use crate::fault::{FaultPlan, FaultRule};
        let b = Broker::new();
        b.declare_queue("q", None).unwrap();
        b.set_fault_plan(Some(
            FaultPlan::new(1).with_rule(FaultRule::duplicate("q", 1.0)),
        ));
        b.publish("q", msg("twice"), None).unwrap();
        assert_eq!(b.queue_stats("q").unwrap().ready, 2);
        assert_eq!(b.metrics().counter("mq.duplicated").get(), 1);
    }

    #[test]
    fn deliver_drops_charge_the_delivery_budget() {
        use crate::fault::{FaultDirection, FaultPlan, FaultRule};
        let b = Broker::new();
        b.declare_queue("q", None).unwrap();
        b.declare_queue("dlq", None).unwrap();
        b.set_queue_policy("q", QueuePolicy::dead_letter(3, "dlq"))
            .unwrap();
        // 0.999 (not 1.0, which is a partition and stops deliveries outright)
        // with a fixed seed: deterministically drops the first three
        // delivery attempts, exhausting the budget.
        b.set_fault_plan(Some(FaultPlan::new(1).with_rule(FaultRule::drop(
            "q",
            FaultDirection::Deliver,
            0.999,
        ))));
        b.publish("q", msg("x"), None).unwrap();
        let c = b.consume("q", None, 0).unwrap();
        // Every delivery is lost; after 3 charged attempts the message
        // dead-letters, so `next` returns None rather than looping forever.
        assert!(c.next(Duration::from_millis(200)).unwrap().is_none());
        assert_eq!(b.queue_stats("dlq").unwrap().ready, 1);
        assert_eq!(b.metrics().counter("mq.dropped").get(), 3);
    }

    #[test]
    fn publish_batch_delivers_all_in_order() {
        let b = Broker::new();
        b.declare_queue("q", None).unwrap();
        let batch: Vec<Message> = (0..8).map(|i| msg(&format!("m{i}"))).collect();
        b.publish_batch("q", batch, None).unwrap();
        let stats = b.queue_stats("q").unwrap();
        assert_eq!(stats.ready, 8);
        assert_eq!(stats.published, 8);
        assert_eq!(b.metrics().counter("mq.messages_published").get(), 8);
        let c = b.consume("q", None, 0).unwrap();
        for i in 0..8 {
            let d = c.next(T).unwrap().unwrap();
            assert_eq!(d.message.body, Bytes::from(format!("m{i}")));
            c.ack(d.tag).unwrap();
        }
    }

    #[test]
    fn publish_batch_empty_is_noop() {
        let b = Broker::new();
        b.declare_queue("q", None).unwrap();
        b.publish_batch("q", Vec::new(), None).unwrap();
        assert_eq!(b.queue_stats("q").unwrap().published, 0);
        assert_eq!(b.metrics().counter("mq.messages_published").get(), 0);
        // The credential check is skipped for an empty batch — nothing is
        // touched — but a missing queue with actual messages still errors.
        assert!(b.publish_batch("nope", vec![msg("x")], None).is_err());
    }

    #[test]
    fn publish_batch_enforces_credentials() {
        let b = Broker::new();
        b.declare_queue("secure", Some("secret")).unwrap();
        assert!(b.publish_batch("secure", vec![msg("x")], None).is_err());
        b.publish_batch("secure", vec![msg("x"), msg("y")], Some("secret"))
            .unwrap();
        assert_eq!(b.queue_stats("secure").unwrap().ready, 2);
    }

    #[test]
    fn publish_batch_applies_per_message_fault_draws() {
        use crate::fault::{FaultDirection, FaultPlan, FaultRule};
        let b = Broker::new();
        b.declare_queue("q", None).unwrap();
        b.set_fault_plan(Some(FaultPlan::new(1).with_rule(FaultRule::drop(
            "q",
            FaultDirection::Publish,
            1.0,
        ))));
        let batch: Vec<Message> = (0..5).map(|i| msg(&format!("m{i}"))).collect();
        b.publish_batch("q", batch, None).unwrap(); // confirm succeeds…
        assert_eq!(b.queue_stats("q").unwrap().ready, 0, "…all lost in transit");
        assert_eq!(b.metrics().counter("mq.dropped").get(), 5);
        assert_eq!(b.metrics().counter("mq.messages_published").get(), 0);
        b.set_fault_plan(None);
        b.publish_batch("q", vec![msg("kept")], None).unwrap();
        assert_eq!(b.queue_stats("q").unwrap().ready, 1);
    }

    #[test]
    fn publish_batch_meters_bytes_like_singles() {
        let b1 = Broker::new();
        b1.declare_queue("q", None).unwrap();
        for i in 0..4 {
            b1.publish("q", msg(&format!("payload-{i}")), None).unwrap();
        }
        let b2 = Broker::new();
        b2.declare_queue("q", None).unwrap();
        let batch: Vec<Message> = (0..4).map(|i| msg(&format!("payload-{i}"))).collect();
        b2.publish_batch("q", batch, None).unwrap();
        assert_eq!(
            b1.metrics().counter("mq.bytes_published").get(),
            b2.metrics().counter("mq.bytes_published").get(),
            "batched publish must meter the same bytes as singles"
        );
    }

    #[test]
    fn bounded_queue_rejects_new_at_depth() {
        let b = Broker::new();
        b.declare_queue("q", None).unwrap();
        b.set_queue_policy(
            "q",
            QueuePolicy {
                max_depth: 2,
                ..Default::default()
            },
        )
        .unwrap();
        b.publish("q", msg("a"), None).unwrap();
        b.publish("q", msg("b"), None).unwrap();
        let err = b.publish("q", msg("c"), None).unwrap_err();
        assert_eq!(err, GcxError::QueueFull { queue: "q".into() });
        assert!(err.is_retryable());
        assert_eq!(b.queue_stats("q").unwrap().ready, 2);
        assert_eq!(b.metrics().counter("mq.queue_full_rejections").get(), 1);
        // Draining one slot reopens the queue.
        let c = b.consume("q", None, 0).unwrap();
        let d = c.next(T).unwrap().unwrap();
        c.ack(d.tag).unwrap();
        b.publish("q", msg("c"), None).unwrap();
    }

    #[test]
    fn bounded_queue_byte_cap_rejects_large_publish() {
        let b = Broker::new();
        b.declare_queue("q", None).unwrap();
        let one = msg("0123456789").wire_size();
        b.set_queue_policy(
            "q",
            QueuePolicy {
                max_bytes: one * 2,
                ..Default::default()
            },
        )
        .unwrap();
        b.publish("q", msg("0123456789"), None).unwrap();
        b.publish("q", msg("0123456789"), None).unwrap();
        assert!(matches!(
            b.publish("q", msg("0123456789"), None),
            Err(GcxError::QueueFull { .. })
        ));
        // A small message under the remaining byte budget still fails depth?
        // No depth bound here — but bytes are exhausted, so even 1 byte fails.
        assert!(b.publish("q", msg("x"), None).is_err());
    }

    #[test]
    fn bounded_batch_is_all_or_nothing() {
        let b = Broker::new();
        b.declare_queue("q", None).unwrap();
        b.set_queue_policy(
            "q",
            QueuePolicy {
                max_depth: 3,
                ..Default::default()
            },
        )
        .unwrap();
        b.publish("q", msg("resident"), None).unwrap();
        let batch: Vec<Message> = (0..3).map(|i| msg(&format!("m{i}"))).collect();
        assert!(matches!(
            b.publish_batch("q", batch, None),
            Err(GcxError::QueueFull { .. })
        ));
        // Nothing from the rejected batch landed.
        assert_eq!(b.queue_stats("q").unwrap().ready, 1);
        // A batch that fits goes through whole.
        let batch: Vec<Message> = (0..2).map(|i| msg(&format!("m{i}"))).collect();
        b.publish_batch("q", batch, None).unwrap();
        assert_eq!(b.queue_stats("q").unwrap().ready, 3);
    }

    #[test]
    fn depth_and_bytes_gauges_track_queue_contents() {
        let b = Broker::new();
        b.declare_queue("q", None).unwrap();
        let size = msg("0123456789").wire_size() as u64;
        b.publish("q", msg("0123456789"), None).unwrap();
        b.publish("q", msg("0123456789"), None).unwrap();
        assert_eq!(b.metrics().gauge("mq.depth.q").get(), 2);
        assert_eq!(b.metrics().gauge("mq.bytes.q").get(), 2 * size);
        let c = b.consume("q", None, 0).unwrap();
        let d = c.next(T).unwrap().unwrap();
        // Delivered (unacked) messages no longer count against the bound.
        assert_eq!(b.metrics().gauge("mq.depth.q").get(), 1);
        assert_eq!(b.metrics().gauge("mq.bytes.q").get(), size);
        // A nack puts it back.
        c.nack(d.tag).unwrap();
        assert_eq!(b.metrics().gauge("mq.depth.q").get(), 2);
        assert_eq!(b.metrics().gauge("mq.bytes.q").get(), 2 * size);
        drop(c);
        b.delete_queue("q").unwrap();
        assert_eq!(b.metrics().gauge("mq.depth.q").get(), 0);
        assert_eq!(b.metrics().gauge("mq.bytes.q").get(), 0);
    }

    #[test]
    fn unacked_messages_do_not_count_against_depth_bound() {
        let b = Broker::new();
        b.declare_queue("q", None).unwrap();
        b.set_queue_policy(
            "q",
            QueuePolicy {
                max_depth: 1,
                ..Default::default()
            },
        )
        .unwrap();
        b.publish("q", msg("a"), None).unwrap();
        let c = b.consume("q", None, 0).unwrap();
        let d = c.next(T).unwrap().unwrap();
        // "a" is unacked, not ready: the bound has room again.
        b.publish("q", msg("b"), None).unwrap();
        assert!(b.publish("q", msg("c"), None).is_err());
        c.ack(d.tag).unwrap();
    }

    #[test]
    fn headers_travel_with_message() {
        let b = Broker::new();
        b.declare_queue("q", None).unwrap();
        let headers = Headers {
            trace: Some(TraceContext {
                trace_id: gcx_core::trace::TraceId::random(),
                parent: gcx_core::trace::SpanId::random(),
            }),
            sent_ms: Some(1_700_000_000_123),
            death_queue: None,
        };
        let sent = Message::with_headers(Bytes::from_static(b"x"), headers.clone());
        // Metered as the `name: text` pairs these fields replaced.
        assert_eq!(sent.wire_size(), 1 + 8 + (9 + 53 + 4) + (11 + 13 + 4));
        b.publish("q", sent, None).unwrap();
        let c = b.consume("q", None, 0).unwrap();
        let d = c.next(T).unwrap().unwrap();
        assert_eq!(d.message.headers, headers);
    }

    /// The broker never decodes a body: every fault it injects must reach
    /// the task's trace through the context the message carries.
    #[test]
    fn fault_annotation_reaches_the_trace_through_the_header() {
        use crate::fault::{FaultDirection, FaultPlan, FaultRule};
        use gcx_core::trace::{TraceConfig, Tracer};
        let b = Broker::new();
        let tracer = Tracer::new(SystemClock::shared(), TraceConfig::default());
        b.metrics().set_tracer(tracer.clone());
        b.declare_queue("q", None).unwrap();
        let traced = |ctx: &TraceContext| {
            let headers = Headers {
                trace: Some(*ctx),
                ..Headers::default()
            };
            Message::with_headers(Bytes::from_static(b"x"), headers)
        };
        let root_notes = |ctx: &TraceContext| -> Vec<String> {
            let td = tracer.trace(ctx.trace_id).unwrap();
            let notes = &td.root_span().unwrap().annotations;
            notes.iter().map(|(_, n)| n.clone()).collect()
        };

        let dropped = tracer.start_trace("task").unwrap();
        b.set_fault_plan(Some(FaultPlan::new(1).with_rule(FaultRule::drop(
            "q",
            FaultDirection::Publish,
            1.0,
        ))));
        b.publish("q", traced(&dropped), None).unwrap();
        assert_eq!(root_notes(&dropped), ["mq.fault.publish_drop on q"]);

        let duplicated = tracer.start_trace("task").unwrap();
        b.set_fault_plan(Some(
            FaultPlan::new(1).with_rule(FaultRule::duplicate("q", 1.0)),
        ));
        b.publish("q", traced(&duplicated), None).unwrap();
        assert_eq!(root_notes(&duplicated), ["mq.fault.duplicate on q"]);
        let batched = tracer.start_trace("task").unwrap();
        b.publish_batch("q", vec![traced(&batched)], None).unwrap();
        assert_eq!(root_notes(&batched), ["mq.fault.duplicate on q"]);

        // Every delivery attempt is lost until the budget runs out (0.999:
        // 1.0 is a partition, which stops deliveries without a draw).
        let undelivered = tracer.start_trace("task").unwrap();
        b.declare_queue("d", None).unwrap();
        b.declare_queue("dlq", None).unwrap();
        b.set_queue_policy("d", QueuePolicy::dead_letter(2, "dlq"))
            .unwrap();
        b.publish("d", traced(&undelivered), None).unwrap();
        b.set_fault_plan(Some(FaultPlan::new(1).with_rule(FaultRule::drop(
            "d",
            FaultDirection::Deliver,
            0.999,
        ))));
        let c = b.consume("d", None, 0).unwrap();
        assert!(c.next(Duration::from_millis(50)).unwrap().is_none());
        assert_eq!(
            root_notes(&undelivered),
            [
                "mq.fault.deliver_drop on d",
                "mq.fault.deliver_drop on d",
                "mq.dead_letter on d"
            ]
        );

        b.set_fault_plan(None);
        let refused = tracer.start_trace("task").unwrap();
        b.set_queue_policy(
            "q",
            QueuePolicy {
                max_depth: 1,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(b.publish("q", traced(&refused), None).is_err());
        assert_eq!(root_notes(&refused), ["mq.queue_full on q"]);

        // A message with no context annotates nothing and breaks nothing.
        assert!(b.publish("q", msg("plain"), None).is_err());
    }
}
