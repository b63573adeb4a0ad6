//! Task-lifecycle tracing: trace/span contexts and a lock-sharded in-memory
//! collector with bounded retention. (Cold-path *events* — faults,
//! rejections, handovers — go to [`crate::flight`], the one event ring.)
//!
//! The paper's performance story (§V) decomposes task latency into legs —
//! SDK submit, web-service buffering, queue transit, endpoint dispatch,
//! worker execution, result return. This module gives every task a causally
//! linked timeline across all of those layers, in the spirit of Dapper-style
//! low-overhead tracers: a root span is opened at submission, each leg is
//! recorded as a child span stamped from the shared [`Clock`], and fault
//! events (drops, redeliveries, dead-letters) land as annotations on the
//! affected trace.
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when disabled.** A [`Tracer`] is an `Option<Arc<..>>`
//!    inside; every operation on a disabled tracer (or with a `None`
//!    context) returns before allocating anything. Sampled-out submissions
//!    simply never receive a context, so every downstream call no-ops.
//! 2. **Dependency-free.** Spans live in plain `HashMap`s behind sharded
//!    mutexes.
//! 3. **Bounded.** The collector retains at most `capacity` traces (oldest
//!    evicted first) and at most `max_spans_per_trace` spans per trace, so
//!    a soak run cannot grow without limit.
//!
//! [`Clock`]: crate::clock::Clock

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::clock::{SharedClock, TimeMs};
use crate::ids::Uuid;

/// Identifies one end-to-end task timeline (submission through result,
/// including every retry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TraceId(pub Uuid);

impl TraceId {
    /// A fresh random trace id.
    pub fn random() -> Self {
        Self(Uuid::new_v4())
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl FromStr for TraceId {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        s.parse().map(TraceId).map_err(|e| format!("{e}"))
    }
}

/// Identifies one span within a trace. Never zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SpanId(pub u64);

impl SpanId {
    /// A fresh random non-zero span id.
    pub fn random() -> Self {
        Self((Uuid::new_v4().0 as u64) | 1)
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl FromStr for SpanId {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        u64::from_str_radix(s, 16)
            .map(SpanId)
            .map_err(|e| format!("bad span id '{s}': {e}"))
    }
}

/// The context carried through the task envelope: which trace, and which
/// span new child spans should parent to (the root span, for task traces).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TraceContext {
    /// The trace this task belongs to.
    pub trace_id: TraceId,
    /// Parent for spans recorded under this context.
    pub parent: SpanId,
}

impl TraceContext {
    /// Text form (`<trace-uuid>:<span-hex>`) for the task-spec `Value`
    /// tree. Queue messages and wire frames carry the context as a value.
    pub fn encode(&self) -> String {
        format!("{}:{}", self.trace_id, self.parent)
    }

    /// Decode the text form; `None` on any malformation (old peers, manual
    /// payloads) so the envelope path degrades to "untraced", never errors.
    pub fn decode(s: &str) -> Option<Self> {
        let (t, p) = s.split_once(':')?;
        Some(Self {
            trace_id: t.parse().ok()?,
            parent: p.parse().ok()?,
        })
    }
}

/// Collector limits.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Record every Nth submission (1 = all, 0 = none). Sampled-out
    /// submissions never get a context, so their whole path stays free.
    pub sample_every: u64,
    /// Maximum retained traces across all shards; oldest evicted first.
    pub capacity: usize,
    /// Maximum spans kept per trace (excess counted, not stored).
    pub max_spans_per_trace: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            sample_every: 1,
            capacity: 4096,
            max_spans_per_trace: 512,
        }
    }
}

/// One completed span within a trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// This span's id.
    pub id: SpanId,
    /// Parent span (`None` only for the root).
    pub parent: Option<SpanId>,
    /// Leg name ("submit", "queue", "dispatch", "execute", "result", ...).
    pub name: &'static str,
    /// Start, on the tracer's clock.
    pub start_ms: TimeMs,
    /// End, on the tracer's clock.
    pub end_ms: TimeMs,
    /// Timestamped notes (fault injections, redeliveries, attempt counts).
    pub annotations: Vec<(TimeMs, String)>,
}

impl SpanRecord {
    /// A completed, unannotated child of `ctx.parent` with a fresh id.
    fn child(ctx: &TraceContext, name: &'static str, start_ms: TimeMs, end_ms: TimeMs) -> Self {
        Self {
            id: SpanId::random(),
            parent: Some(ctx.parent),
            name,
            start_ms,
            end_ms,
            annotations: Vec::new(),
        }
    }

    /// Span duration (saturating, so clock skew never underflows).
    pub fn duration_ms(&self) -> u64 {
        self.end_ms.saturating_sub(self.start_ms)
    }
}

/// Snapshot of one trace: the root span plus every recorded child.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceData {
    /// The trace id.
    pub trace_id: TraceId,
    /// Label given at `start_trace` ("task", typically).
    pub label: &'static str,
    /// Root span id (also present in `spans` with `parent: None`).
    pub root: SpanId,
    /// All spans, in recording order.
    pub spans: Vec<SpanRecord>,
}

impl TraceData {
    /// The root span.
    pub fn root_span(&self) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.id == self.root)
    }

    /// All spans named `name`.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRecord> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Direct children of `parent`.
    pub fn children_of(&self, parent: SpanId) -> Vec<&SpanRecord> {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .collect()
    }

    /// Spans whose parent id is not present in this trace — none should
    /// exist if context propagation is airtight.
    pub fn orphan_spans(&self) -> Vec<SpanId> {
        self.spans
            .iter()
            .filter(|s| {
                s.parent
                    .is_some_and(|p| !self.spans.iter().any(|o| o.id == p))
            })
            .map(|s| s.id)
            .collect()
    }
}

/// Aggregate duration statistics for one leg across every retained trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LegStats {
    /// Number of spans.
    pub count: u64,
    /// Mean duration in ms.
    pub mean_ms: f64,
    /// Median duration in ms.
    pub p50_ms: u64,
    /// 95th-percentile duration in ms.
    pub p95_ms: u64,
    /// Maximum duration in ms.
    pub max_ms: u64,
}

const SHARDS: usize = 16;
const MAX_ANNOTATIONS: usize = 64;
/// Span slots a trace is created with: the root plus the normal lifecycle
/// (submit, queue, dispatch, execute, result and the four wire legs), so
/// recording a leg never grows the block and evicting a trace frees one.
const LIFECYCLE_SPANS: usize = 10;

#[derive(Default)]
struct Shard {
    traces: HashMap<TraceId, TraceData>,
    order: VecDeque<TraceId>,
}

impl Shard {
    /// Create the entry for `trace_id` with its root span, evicting the
    /// shard's oldest trace if the retention bound is reached.
    fn open(
        &mut self,
        inner: &TracerInner,
        trace_id: TraceId,
        root: SpanId,
        label: &'static str,
        now: TimeMs,
    ) -> &mut TraceData {
        if self.order.len() >= inner.per_shard {
            if let Some(old) = self.order.pop_front() {
                self.traces.remove(&old);
                inner.evicted.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.order.push_back(trace_id);
        let mut spans = Vec::with_capacity(LIFECYCLE_SPANS);
        spans.push(SpanRecord {
            id: root,
            parent: None,
            name: label,
            start_ms: now,
            end_ms: now,
            annotations: Vec::new(),
        });
        self.traces.entry(trace_id).or_insert(TraceData {
            trace_id,
            label,
            root,
            spans,
        })
    }
}

impl TraceData {
    /// Store `span`, or count it against the per-trace cap.
    fn push(&mut self, inner: &TracerInner, span: SpanRecord) {
        if self.spans.len() >= inner.cfg.max_spans_per_trace {
            inner.span_overflow.fetch_add(1, Ordering::Relaxed);
        } else {
            self.spans.push(span);
        }
    }

    fn close_root(&mut self, now: TimeMs) {
        let root = self.root;
        if let Some(span) = self.spans.iter_mut().find(|s| s.id == root) {
            span.end_ms = now;
        }
    }
}

struct TracerInner {
    clock: SharedClock,
    cfg: TraceConfig,
    per_shard: usize,
    submissions: AtomicU64,
    evicted: AtomicU64,
    span_overflow: AtomicU64,
    shards: Vec<Mutex<Shard>>,
}

/// Handle to the tracing subsystem. Cloning shares the collector. A
/// disabled tracer ([`Tracer::disabled`], also the `Default`) carries no
/// state at all: every method returns immediately without allocating.
#[derive(Clone, Default)]
pub struct Tracer(Option<Arc<TracerInner>>);

/// An open span being timed; finish it with [`Tracer::finish`]. Obtained
/// from [`Tracer::span`], which returns `None` for untraced tasks — pass
/// the `Option` straight back to `finish`.
#[derive(Debug)]
pub struct ActiveSpan {
    ctx: TraceContext,
    id: SpanId,
    name: &'static str,
    start_ms: TimeMs,
    notes: Vec<String>,
}

impl ActiveSpan {
    /// Attach a note; stamped with the span's end time at `finish`.
    pub fn note(&mut self, msg: String) {
        self.notes.push(msg);
    }

    /// A child context parented to this span (for nested instrumentation).
    pub fn context(&self) -> TraceContext {
        TraceContext {
            trace_id: self.ctx.trace_id,
            parent: self.id,
        }
    }
}

impl Tracer {
    /// The no-op tracer: never samples, never allocates.
    pub fn disabled() -> Self {
        Self(None)
    }

    /// An enabled tracer stamping spans from `clock`.
    pub fn new(clock: SharedClock, cfg: TraceConfig) -> Self {
        let per_shard = (cfg.capacity / SHARDS).max(1);
        Self(Some(Arc::new(TracerInner {
            clock,
            per_shard,
            submissions: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            span_overflow: AtomicU64::new(0),
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            cfg,
        })))
    }

    /// Whether this tracer records anything at all.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Now on the tracer's clock (0 when disabled).
    pub fn now_ms(&self) -> TimeMs {
        self.0.as_ref().map_or(0, |i| i.clock.now_ms())
    }

    fn shard_index(id: TraceId) -> usize {
        (id.0 .0 as usize) % SHARDS
    }

    fn shard(inner: &TracerInner, id: TraceId) -> &Mutex<Shard> {
        &inner.shards[Self::shard_index(id)]
    }

    /// Begin a new trace, subject to sampling. Returns the context the
    /// caller must thread through the task envelope; `None` means this
    /// submission is untraced and every downstream call will no-op.
    pub fn start_trace(&self, label: &'static str) -> Option<TraceContext> {
        let inner = self.0.as_ref()?;
        let every = inner.cfg.sample_every;
        if every == 0 {
            return None;
        }
        let n = inner.submissions.fetch_add(1, Ordering::Relaxed);
        if n % every != 0 {
            return None;
        }
        let trace_id = TraceId::random();
        let root = SpanId::random();
        let now = inner.clock.now_ms();
        Self::shard(inner, trace_id)
            .lock()
            .open(inner, trace_id, root, label, now);
        Some(TraceContext {
            trace_id,
            parent: root,
        })
    }

    /// Adopt a trace minted by a *remote* peer: idempotently create a
    /// collector entry whose root span is `ctx.parent`, so spans recorded
    /// under the context on this side of a wire land somewhere instead of
    /// being silently dropped (the collector only stores spans for traces
    /// it knows about). Returns `true` only when the entry was newly
    /// created.
    pub fn adopt_trace(&self, ctx: &TraceContext, label: &'static str) -> bool {
        self.adopt(ctx, label, None)
    }

    /// [`adopt_trace`](Self::adopt_trace) plus, only when the entry was
    /// newly created, one child span — under the same lock and lookup.
    /// This is how a once-per-trace leg (the server-side `submit` span) is
    /// stamped without duplicating it when client and server share one
    /// collector (the in-process path) or when a resubmission re-sends an
    /// already-adopted context.
    pub fn adopt_trace_with_span(
        &self,
        ctx: &TraceContext,
        label: &'static str,
        name: &'static str,
        start_ms: TimeMs,
        end_ms: TimeMs,
    ) -> bool {
        self.adopt(ctx, label, Some((name, start_ms, end_ms)))
    }

    fn adopt(
        &self,
        ctx: &TraceContext,
        label: &'static str,
        span: Option<(&'static str, TimeMs, TimeMs)>,
    ) -> bool {
        let Some(inner) = self.0.as_ref() else {
            return false;
        };
        let now = inner.clock.now_ms();
        let mut shard = Self::shard(inner, ctx.trace_id).lock();
        if shard.traces.contains_key(&ctx.trace_id) {
            return false;
        }
        let td = shard.open(inner, ctx.trace_id, ctx.parent, label, now);
        if let Some((name, start_ms, end_ms)) = span {
            td.push(inner, SpanRecord::child(ctx, name, start_ms, end_ms));
        }
        true
    }

    fn push_span(&self, ctx: &TraceContext, span: SpanRecord) {
        let Some(inner) = self.0.as_ref() else {
            return;
        };
        let mut shard = Self::shard(inner, ctx.trace_id).lock();
        if let Some(td) = shard.traces.get_mut(&ctx.trace_id) {
            td.push(inner, span);
        }
    }

    /// Record a completed child span under `ctx`. No-op (and allocation
    /// free) when the tracer is disabled or `ctx` is `None`; allocation
    /// free on an existing trace within its normal lifecycle.
    pub fn record_span(
        &self,
        ctx: Option<&TraceContext>,
        name: &'static str,
        start_ms: TimeMs,
        end_ms: TimeMs,
    ) {
        if let Some(ctx) = ctx.filter(|_| self.enabled()) {
            self.push_span(ctx, SpanRecord::child(ctx, name, start_ms, end_ms));
        }
    }

    /// Record one `name` span ending at `end_ms` per `(context, start)`
    /// item, taking each collector shard's lock once for all of its items
    /// rather than once per span — a flushed batch's `submit` legs.
    pub fn record_spans(
        &self,
        name: &'static str,
        end_ms: TimeMs,
        items: &[(TraceContext, TimeMs)],
    ) {
        let Some(inner) = self.0.as_ref() else {
            return;
        };
        let index = |ctx: &TraceContext| Self::shard_index(ctx.trace_id);
        let present = items
            .iter()
            .fold(0u32, |mask, (ctx, _)| mask | 1 << index(ctx));
        for (i, shard) in inner.shards.iter().enumerate() {
            if present & (1 << i) == 0 {
                continue;
            }
            let mut shard = shard.lock();
            for (ctx, start_ms) in items.iter().filter(|(ctx, _)| index(ctx) == i) {
                if let Some(td) = shard.traces.get_mut(&ctx.trace_id) {
                    td.push(inner, SpanRecord::child(ctx, name, *start_ms, end_ms));
                }
            }
        }
    }

    /// Record a completed child span and close the root span, under one
    /// lock and lookup: the `result` leg and the end of its trace always
    /// travel together. Closing is idempotent, as in
    /// [`end_trace`](Self::end_trace).
    pub fn record_span_and_end(
        &self,
        ctx: Option<&TraceContext>,
        name: &'static str,
        start_ms: TimeMs,
        end_ms: TimeMs,
    ) {
        let (Some(inner), Some(ctx)) = (self.0.as_ref(), ctx) else {
            return;
        };
        let now = inner.clock.now_ms();
        let mut shard = Self::shard(inner, ctx.trace_id).lock();
        if let Some(td) = shard.traces.get_mut(&ctx.trace_id) {
            td.push(inner, SpanRecord::child(ctx, name, start_ms, end_ms));
            td.close_root(now);
        }
    }

    /// Record a completed child span with annotations built lazily — the
    /// closure runs only when the span will actually be stored.
    pub fn record_span_annotated(
        &self,
        ctx: Option<&TraceContext>,
        name: &'static str,
        start_ms: TimeMs,
        end_ms: TimeMs,
        notes: impl FnOnce() -> Vec<String>,
    ) -> Option<SpanId> {
        self.0.as_ref()?;
        let ctx = ctx?;
        let id = SpanId::random();
        self.push_span(
            ctx,
            SpanRecord {
                id,
                parent: Some(ctx.parent),
                name,
                start_ms,
                end_ms,
                annotations: notes().into_iter().map(|n| (end_ms, n)).collect(),
            },
        );
        Some(id)
    }

    /// Open a span starting now; time it with [`Tracer::finish`].
    pub fn span(&self, ctx: Option<&TraceContext>, name: &'static str) -> Option<ActiveSpan> {
        let inner = self.0.as_ref()?;
        let ctx = *ctx?;
        Some(ActiveSpan {
            ctx,
            id: SpanId::random(),
            name,
            start_ms: inner.clock.now_ms(),
            notes: Vec::new(),
        })
    }

    /// Close and record an open span (no-op on `None`).
    pub fn finish(&self, span: Option<ActiveSpan>) {
        let Some(inner) = self.0.as_ref() else {
            return;
        };
        let Some(span) = span else {
            return;
        };
        let end = inner.clock.now_ms();
        self.push_span(
            &span.ctx,
            SpanRecord {
                id: span.id,
                parent: Some(span.ctx.parent),
                name: span.name,
                start_ms: span.start_ms,
                end_ms: end,
                annotations: span.notes.into_iter().map(|n| (end, n)).collect(),
            },
        );
    }

    /// Append a timestamped annotation to the span `ctx` points at (the
    /// root, for task contexts). The message closure runs only when the
    /// annotation will be stored.
    pub fn annotate(&self, ctx: Option<&TraceContext>, msg: impl FnOnce() -> String) {
        let Some(inner) = self.0.as_ref() else {
            return;
        };
        let Some(ctx) = ctx else {
            return;
        };
        let now = inner.clock.now_ms();
        let mut shard = Self::shard(inner, ctx.trace_id).lock();
        if let Some(td) = shard.traces.get_mut(&ctx.trace_id) {
            if let Some(span) = td.spans.iter_mut().find(|s| s.id == ctx.parent) {
                if span.annotations.len() < MAX_ANNOTATIONS {
                    span.annotations.push((now, msg()));
                }
            }
        }
    }

    /// Close the root span (idempotent — re-deliveries after completion
    /// just move the end stamp forward).
    pub fn end_trace(&self, ctx: Option<&TraceContext>) {
        let Some(inner) = self.0.as_ref() else {
            return;
        };
        let Some(ctx) = ctx else {
            return;
        };
        let now = inner.clock.now_ms();
        let mut shard = Self::shard(inner, ctx.trace_id).lock();
        if let Some(td) = shard.traces.get_mut(&ctx.trace_id) {
            td.close_root(now);
        }
    }

    /// Snapshot of one trace.
    pub fn trace(&self, id: TraceId) -> Option<TraceData> {
        let inner = self.0.as_ref()?;
        Self::shard(inner, id).lock().traces.get(&id).cloned()
    }

    /// Snapshot of every retained trace (unordered across shards).
    pub fn traces(&self) -> Vec<TraceData> {
        let Some(inner) = self.0.as_ref() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for shard in &inner.shards {
            out.extend(shard.lock().traces.values().cloned());
        }
        out
    }

    /// Number of retained traces.
    pub fn trace_count(&self) -> usize {
        self.0
            .as_ref()
            .map_or(0, |i| i.shards.iter().map(|s| s.lock().traces.len()).sum())
    }

    /// Traces evicted by the retention bound.
    pub fn traces_evicted(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |i| i.evicted.load(Ordering::Relaxed))
    }

    /// Spans dropped by the per-trace cap.
    pub fn spans_overflowed(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |i| i.span_overflow.load(Ordering::Relaxed))
    }

    /// Durations (ms) of every retained span named `name`.
    pub fn leg_millis(&self, name: &str) -> Vec<u64> {
        let Some(inner) = self.0.as_ref() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for shard in &inner.shards {
            for td in shard.lock().traces.values() {
                out.extend(td.spans_named(name).map(SpanRecord::duration_ms));
            }
        }
        out
    }

    /// Duration statistics per leg name across every retained trace — the
    /// paper's per-leg decomposition table, computed from collected spans.
    pub fn leg_summary(&self) -> BTreeMap<String, LegStats> {
        let Some(inner) = self.0.as_ref() else {
            return BTreeMap::new();
        };
        let mut by_name: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        for shard in &inner.shards {
            for td in shard.lock().traces.values() {
                for s in &td.spans {
                    by_name
                        .entry(s.name.to_string())
                        .or_default()
                        .push(s.duration_ms());
                }
            }
        }
        by_name
            .into_iter()
            .map(|(name, mut ds)| {
                ds.sort_unstable();
                let count = ds.len() as u64;
                let sum: u64 = ds.iter().sum();
                let at = |q: f64| ds[(((ds.len() - 1) as f64) * q).round() as usize];
                (
                    name,
                    LegStats {
                        count,
                        mean_ms: sum as f64 / count as f64,
                        p50_ms: at(0.5),
                        p95_ms: at(0.95),
                        max_ms: *ds.last().unwrap(),
                    },
                )
            })
            .collect()
    }
}

/// Escape a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;

    fn tracer() -> (std::sync::Arc<VirtualClock>, Tracer) {
        let vclock = VirtualClock::new();
        let clock: SharedClock = vclock.clone();
        (vclock, Tracer::new(clock, TraceConfig::default()))
    }

    #[test]
    fn context_encode_roundtrip() {
        let ctx = TraceContext {
            trace_id: TraceId::random(),
            parent: SpanId::random(),
        };
        assert_eq!(TraceContext::decode(&ctx.encode()), Some(ctx));
        assert_eq!(TraceContext::decode("garbage"), None);
        assert_eq!(TraceContext::decode("a:b"), None);
        assert_eq!(TraceContext::decode(""), None);
    }

    #[test]
    fn spans_build_a_linked_timeline() {
        let (vclock, t) = tracer();
        let ctx = t.start_trace("task").unwrap();
        vclock.advance(5);
        t.record_span(Some(&ctx), "submit", 0, 5);
        vclock.advance(10);
        t.record_span(Some(&ctx), "queue", 5, 15);
        t.annotate(Some(&ctx), || "redelivered".to_string());
        t.end_trace(Some(&ctx));

        let td = t.trace(ctx.trace_id).unwrap();
        assert_eq!(td.spans.len(), 3);
        assert!(td.orphan_spans().is_empty());
        assert_eq!(td.children_of(td.root).len(), 2);
        let root = td.root_span().unwrap();
        assert_eq!(root.end_ms, 15);
        assert_eq!(root.annotations.len(), 1);
        assert_eq!(td.spans_named("queue").count(), 1);
        let legs = t.leg_summary();
        assert_eq!(legs["queue"].count, 1);
        assert_eq!(legs["queue"].p50_ms, 10);
    }

    #[test]
    fn sampling_and_disabled_paths_yield_no_context() {
        let vclock = VirtualClock::new();
        let clock: SharedClock = vclock.clone();
        let t = Tracer::new(
            clock,
            TraceConfig {
                sample_every: 2,
                ..TraceConfig::default()
            },
        );
        let taken: Vec<bool> = (0..6).map(|_| t.start_trace("task").is_some()).collect();
        assert_eq!(taken, vec![true, false, true, false, true, false]);
        assert_eq!(t.trace_count(), 3);

        let off = Tracer::disabled();
        assert!(!off.enabled());
        assert!(off.start_trace("task").is_none());
        assert!(off.traces().is_empty());
        off.record_span(None, "x", 0, 1);
        off.finish(off.span(None, "x"));
    }

    #[test]
    fn retention_is_bounded_and_evicts_oldest() {
        let vclock = VirtualClock::new();
        let clock: SharedClock = vclock.clone();
        let t = Tracer::new(
            clock,
            TraceConfig {
                capacity: SHARDS, // one per shard
                ..TraceConfig::default()
            },
        );
        for _ in 0..SHARDS * 4 {
            t.start_trace("task");
        }
        assert!(t.trace_count() <= SHARDS);
        assert!(t.traces_evicted() >= (SHARDS * 2) as u64);
    }

    #[test]
    fn span_cap_is_enforced() {
        let vclock = VirtualClock::new();
        let clock: SharedClock = vclock.clone();
        let t = Tracer::new(
            clock,
            TraceConfig {
                max_spans_per_trace: 3,
                ..TraceConfig::default()
            },
        );
        let ctx = t.start_trace("task").unwrap();
        for i in 0..5 {
            t.record_span(Some(&ctx), "s", i, i + 1);
        }
        assert_eq!(t.trace(ctx.trace_id).unwrap().spans.len(), 3);
        assert_eq!(t.spans_overflowed(), 3);
    }

    #[test]
    fn adopt_trace_is_idempotent_and_links_remote_spans() {
        let (vclock, t) = tracer();
        // A context minted on the far side of a wire: the local collector
        // has never seen it.
        let ctx = TraceContext {
            trace_id: TraceId::random(),
            parent: SpanId::random(),
        };
        t.record_span(Some(&ctx), "early", 0, 1);
        assert!(t.trace(ctx.trace_id).is_none(), "unknown traces drop spans");

        assert!(t.adopt_trace(&ctx, "task"), "first adoption creates entry");
        assert!(!t.adopt_trace(&ctx, "task"), "re-adoption is a no-op");
        vclock.advance(3);
        t.record_span(Some(&ctx), "submit", 0, 3);
        t.end_trace(Some(&ctx));

        let td = t.trace(ctx.trace_id).unwrap();
        assert_eq!(td.root, ctx.parent);
        assert!(td.orphan_spans().is_empty());
        assert_eq!(td.spans_named("submit").count(), 1);
        assert_eq!(td.root_span().unwrap().end_ms, 3);

        // A locally-started trace must not be re-adopted (shared-collector
        // in-process path): the entry already exists.
        let local = t.start_trace("task").unwrap();
        assert!(!t.adopt_trace(&local, "task"));

        // Disabled tracers never adopt.
        assert!(!Tracer::disabled().adopt_trace(&ctx, "task"));
    }

    #[test]
    fn paired_visits_record_what_the_separate_calls_do() {
        let (vclock, t) = tracer();
        let remote = TraceContext {
            trace_id: TraceId::random(),
            parent: SpanId::random(),
        };
        // Adoption and the once-per-trace span travel together...
        assert!(t.adopt_trace_with_span(&remote, "task", "submit", 0, 2));
        // ...and a context this collector already holds gets neither.
        assert!(!t.adopt_trace_with_span(&remote, "task", "submit", 0, 2));
        let local = t.start_trace("task").unwrap();
        assert!(!t.adopt_trace_with_span(&local, "task", "submit", 0, 2));
        assert_eq!(t.trace(local.trace_id).unwrap().spans.len(), 1);

        // One call per flushed batch; contexts the collector has never
        // seen are skipped like `record_span` skips them.
        let unknown = TraceContext {
            trace_id: TraceId::random(),
            parent: SpanId::random(),
        };
        t.record_spans("queue", 9, &[(remote, 2), (local, 3), (unknown, 4)]);
        assert!(t.trace(unknown.trace_id).is_none());

        vclock.advance(12);
        t.record_span_and_end(Some(&remote), "result", 9, 12);
        let td = t.trace(remote.trace_id).unwrap();
        let legs: Vec<_> = td.spans.iter().map(|s| (s.name, s.start_ms)).collect();
        assert_eq!(
            legs,
            [("task", 0), ("submit", 0), ("queue", 2), ("result", 9)]
        );
        assert_eq!(td.root_span().unwrap().end_ms, 12);
        assert!(td.orphan_spans().is_empty());
        let queue = t.trace(local.trace_id).unwrap();
        let queue = queue.spans_named("queue").next().unwrap();
        assert_eq!((queue.start_ms, queue.end_ms), (3, 9));

        // The per-trace cap counts on these paths too.
        let capped = Tracer::new(
            vclock.clone(),
            TraceConfig {
                max_spans_per_trace: 1,
                ..TraceConfig::default()
            },
        );
        assert!(capped.adopt_trace_with_span(&remote, "task", "submit", 0, 1));
        capped.record_spans("queue", 2, &[(remote, 1)]);
        capped.record_span_and_end(Some(&remote), "result", 2, 3);
        assert_eq!(capped.spans_overflowed(), 3);
        assert_eq!(capped.trace(remote.trace_id).unwrap().spans.len(), 1);
    }
}
