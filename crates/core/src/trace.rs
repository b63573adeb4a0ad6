//! Task-lifecycle tracing: trace/span contexts and an in-memory collector
//! kept as a log. (Cold-path *events* — faults, rejections, handovers — go
//! to [`crate::flight`], the one event ring.)
//!
//! The paper's performance story (§V) decomposes task latency into legs —
//! SDK submit, web-service buffering, queue transit, endpoint dispatch,
//! worker execution, result return. Every task gets a causally linked
//! timeline across those layers, Dapper-style: a root span opened at
//! submission, each leg a child span stamped from the shared [`Clock`],
//! fault events (drops, redeliveries, dead-letters) as annotations.
//!
//! 1. **Zero cost when disabled.** A [`Tracer`] is an `Option<Arc<..>>`;
//!    a disabled tracer or a `None` context (what a sampled-out submission
//!    gets) returns before doing anything.
//! 2. **A write is an append.** Each thread owns a ring per tracer; a write
//!    pushes one fixed-size entry to it — no shared lock, lookup or
//!    allocation. Reads are rare, so they do the work: cut all rings at
//!    once and assemble [`TraceData`] from the entries.
//! 3. **Bounded, and whole.** Rings overwrite their oldest entries. A read
//!    returns at most `capacity` traces of at most `max_spans_per_trace`
//!    spans, and never one that an overwrite may have put a hole in.
//!
//! [`Clock`]: crate::clock::Clock

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;
use std::sync::{Arc, Weak};

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
        Self(rand::RngCore::next_u64(&mut rand::thread_rng()) | 1)
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
    /// Record every Nth submission of each submitting thread (1 = all,
    /// 0 = none). Sampled-out submissions never get a context, so their
    /// whole path stays free.
    pub sample_every: u64,
    /// Most traces a read returns, the newest; it also sizes each
    /// thread's ring.
    pub capacity: usize,
    /// Most spans a read returns per trace (it counts the excess).
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
    /// All spans: the root, then the rest by start stamp.
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

/// Ring entries per trace of `TraceConfig::capacity`. Most threads write a
/// task one or two, so their rings hold the newest `capacity` traces whole;
/// the batcher's holds two thirds (`submit`, the adoption and its span). A
/// longer ring reads little more and costs cache: 4 was 4 MiB heavier, no faster.
const RING_ENTRIES_PER_TRACE: usize = 2;
/// How often a ring reads the clock into a [`Kind::Stamp`] entry of its
/// own — what lets a reader date what the ring has overwritten.
const STAMP_EVERY: usize = 64;

/// What one log entry says. A reader sorts a trace's entries in this order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    /// `start_trace`: `span` roots a trace minted here, labelled `name`.
    Mint,
    /// `adopt_trace_with_span`: the same for a trace minted elsewhere.
    Adopt,
    /// A completed child span.
    Span,
    /// `adopt_trace_with_span`'s span: kept if the `Adopt` before it opened the trace.
    SpanIfOpened,
    /// `end_trace`: the root closed at `end_ms`.
    End,
    /// `annotate`: `notes` go on span `span`, stamped `end_ms`.
    Note,
    /// The ring's clock reading: all before it was pushed by `end_ms`.
    Stamp,
}

/// One fixed-size log entry; `notes` is empty (and unallocated) unless the
/// write carried annotations.
#[derive(Debug, Clone)]
struct Entry {
    kind: Kind,
    trace: TraceId,
    span: SpanId,
    parent: SpanId,
    name: &'static str,
    start_ms: TimeMs,
    end_ms: TimeMs,
    notes: Vec<String>,
}

impl Entry {
    fn new(
        kind: Kind,
        ctx: &TraceContext,
        span: SpanId,
        name: &'static str,
        start_ms: TimeMs,
        end_ms: TimeMs,
    ) -> Self {
        Self {
            kind,
            trace: ctx.trace_id,
            span,
            parent: ctx.parent,
            name,
            start_ms,
            end_ms,
            notes: Vec::new(),
        }
    }

    /// The span a `Mint`, `Adopt`, `Span` or `SpanIfOpened` entry records.
    fn to_span(&self) -> SpanRecord {
        let root = matches!(self.kind, Kind::Mint | Kind::Adopt);
        let notes = self.notes.iter().map(|n| (self.end_ms, n.clone()));
        SpanRecord {
            id: self.span,
            parent: (!root).then_some(self.parent),
            name: self.name,
            start_ms: self.start_ms,
            end_ms: self.end_ms,
            annotations: notes.collect(),
        }
    }
}

/// One thread's append-only log for one tracer: a vector grown lazily to
/// the tracer's ring bound, then overwritten oldest first.
#[derive(Default)]
struct Ring {
    entries: Vec<Entry>,
    /// Slot of the next push: the oldest entry's, once `wrapped`.
    next: usize,
    wrapped: bool,
    /// `start_trace` calls this thread has made (sampling counts per thread).
    submissions: u64,
}

impl Ring {
    fn push(&mut self, tracer: &TracerInner, entry: Entry) {
        if self.next.is_multiple_of(STAMP_EVERY) {
            let stamp = Entry {
                kind: Kind::Stamp,
                end_ms: tracer.clock.now_ms(),
                notes: Vec::new(),
                ..entry
            };
            self.put(tracer.bound, stamp);
        }
        self.put(tracer.bound, entry);
    }

    fn put(&mut self, bound: usize, entry: Entry) {
        match self.entries.get_mut(self.next) {
            Some(old) => (*old, self.wrapped) = (entry, true),
            None => self.entries.push(entry),
        }
        self.next = (self.next + 1) & (bound - 1);
    }

    /// The entries still held, oldest first.
    fn survivors(&self) -> impl Iterator<Item = &Entry> {
        let (newer, older) = self.entries.split_at(self.next);
        older.iter().chain(newer)
    }

    /// If this ring has overwritten anything: a time no earlier than the
    /// last overwritten push — the oldest stamp it still holds.
    fn horizon(&self) -> Option<TimeMs> {
        let oldest = self.survivors().find(|e| e.kind == Kind::Stamp);
        self.wrapped
            .then(|| oldest.map_or(TimeMs::MAX, |e| e.end_ms))
    }
}

/// Every ring of one tracer. A reader holds this lock for its whole cut; a
/// writer takes it once, to register its thread's ring.
#[derive(Default)]
struct Rings {
    /// One per live thread that has written.
    live: Vec<Arc<Mutex<Ring>>>,
    /// What the rings of exited threads still held, in order of exit.
    retired: Ring,
    /// Horizon of what exited threads' rings had overwritten.
    lost_before: Option<TimeMs>,
}

struct TracerInner {
    clock: SharedClock,
    cfg: TraceConfig,
    /// Entries a ring holds before it overwrites; a power of two.
    bound: usize,
    rings: Mutex<Rings>,
}

/// The calling thread's rings, one per tracer it has written to. A held
/// `Weak` keeps the tracer's address from being reused, so it is identity.
struct ThreadRings(Vec<(Weak<TracerInner>, Arc<Mutex<Ring>>)>);

thread_local! {
    static RINGS: RefCell<ThreadRings> = const { RefCell::new(ThreadRings(Vec::new())) };
}

impl Drop for ThreadRings {
    /// Thread exit: each ring's entries go to its tracer's retired ring,
    /// so thread churn neither leaks rings nor loses spans.
    fn drop(&mut self) {
        for (tracer, ring) in self.0.drain(..) {
            let Some(tracer) = tracer.upgrade() else {
                continue;
            };
            let mut rings = tracer.rings.lock();
            rings.live.retain(|r| !Arc::ptr_eq(r, &ring));
            let ring = ring.lock();
            rings.lost_before = rings.lost_before.max(ring.horizon());
            for entry in ring.survivors().filter(|e| e.kind != Kind::Stamp) {
                rings.retired.push(&tracer, entry.clone());
            }
        }
    }
}

impl TracerInner {
    /// Run `f` on the calling thread's ring, under that ring's own lock —
    /// the only lock, lookup or shared memory on a write.
    fn write<R>(self: &Arc<Self>, f: impl FnOnce(&mut Ring) -> R) -> R {
        RINGS.with(|rings| {
            let rings = &mut rings.borrow_mut().0;
            let me = Arc::as_ptr(self);
            let at = rings.iter().position(|(t, _)| t.as_ptr() == me);
            let at = at.unwrap_or_else(|| {
                // This thread's first write here; dead tracers' rings go.
                rings.retain(|(t, _)| t.strong_count() > 0);
                let ring = Arc::new(Mutex::new(Ring::default()));
                self.rings.lock().live.push(ring.clone());
                rings.push((Arc::downgrade(self), ring));
                rings.len() - 1
            });
            let mut ring = rings[at].1.lock();
            f(&mut ring)
        })
    }

    fn push(self: &Arc<Self>, entry: Entry) {
        self.write(|ring| ring.push(self, entry));
    }
}

/// What a read assembles from one cut of the log.
#[derive(Default)]
struct View {
    traces: Vec<TraceData>,
    /// Traces the log still opens but a read no longer returns.
    evicted: u64,
    /// Spans beyond `max_spans_per_trace` in the returned traces.
    overflowed: u64,
}

/// Handle to the tracing subsystem. Cloning shares the collector. A
/// disabled tracer ([`Tracer::disabled`], also the `Default`) carries no
/// state at all: every method returns immediately without allocating.
#[derive(Clone, Default)]
pub struct Tracer(Option<Arc<TracerInner>>);

impl Tracer {
    /// The no-op tracer: never samples, never allocates.
    pub fn disabled() -> Self {
        Self(None)
    }

    /// An enabled tracer stamping spans from `clock`.
    pub fn new(clock: SharedClock, cfg: TraceConfig) -> Self {
        Self(Some(Arc::new(TracerInner {
            clock,
            // Room for the newest `capacity` traces, and for a stamp.
            bound: (cfg.capacity * RING_ENTRIES_PER_TRACE)
                .max(2 * STAMP_EVERY)
                .next_power_of_two(),
            cfg,
            rings: Mutex::default(),
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

    /// Begin a new trace, subject to sampling. Returns the context the
    /// caller must thread through the task envelope; `None` means this
    /// submission is untraced and every downstream call will no-op.
    pub fn start_trace(&self, label: &'static str) -> Option<TraceContext> {
        let inner = self.0.as_ref()?;
        let every = inner.cfg.sample_every;
        if every == 0 {
            return None;
        }
        inner.write(|ring| {
            ring.submissions += 1;
            if (ring.submissions - 1) % every != 0 {
                return None;
            }
            let ctx = TraceContext {
                trace_id: TraceId::random(),
                parent: SpanId::random(),
            };
            let now = inner.clock.now_ms();
            let root = Entry::new(Kind::Mint, &ctx, ctx.parent, label, now, now);
            ring.push(inner, root);
            Some(ctx)
        })
    }

    /// Adopt a trace minted by a *remote* peer — open it here with
    /// `ctx.parent` as its root span, so spans recorded under the context
    /// on this side of a wire land somewhere (a read returns spans only
    /// for traces the log opens) — with one child span that a reader keeps
    /// only if this adoption is the open that won. Idempotent: a reader
    /// lets one open win, a mint over an adoption, an earlier adoption over
    /// a later. This is how a once-per-trace leg (the server-side `submit`
    /// span) is stamped without duplicating it when client and server share
    /// one collector (the in-process path) or when a resubmission re-sends
    /// an already-adopted context.
    pub fn adopt_trace_with_span(
        &self,
        ctx: &TraceContext,
        label: &'static str,
        name: &'static str,
        start_ms: TimeMs,
        end_ms: TimeMs,
    ) {
        if let Some(inner) = self.0.as_ref() {
            let now = inner.clock.now_ms();
            let root = Entry::new(Kind::Adopt, ctx, ctx.parent, label, now, now);
            let id = SpanId::random();
            let span = Entry::new(Kind::SpanIfOpened, ctx, id, name, start_ms, end_ms);
            inner.write(|ring| {
                ring.push(inner, root);
                ring.push(inner, span);
            })
        }
    }

    /// Record a completed child span under `ctx`: one append to the calling
    /// thread's ring. No-op when the tracer is disabled or `ctx` is `None`;
    /// allocation free either way.
    pub fn record_span(
        &self,
        ctx: Option<&TraceContext>,
        name: &'static str,
        start_ms: TimeMs,
        end_ms: TimeMs,
    ) {
        self.record_span_annotated(ctx, name, start_ms, end_ms, Vec::new);
    }

    /// Record a completed child span with annotations built lazily — the
    /// closure runs only on an enabled tracer with a context.
    pub fn record_span_annotated(
        &self,
        ctx: Option<&TraceContext>,
        name: &'static str,
        start_ms: TimeMs,
        end_ms: TimeMs,
        notes: impl FnOnce() -> Vec<String>,
    ) -> Option<SpanId> {
        let (inner, ctx, id) = (self.0.as_ref()?, ctx?, SpanId::random());
        let mut span = Entry::new(Kind::Span, ctx, id, name, start_ms, end_ms);
        span.notes = notes();
        inner.push(span);
        Some(id)
    }

    /// Append a timestamped annotation to the span `ctx` points at (the
    /// root, for task contexts). The message closure runs only on an
    /// enabled tracer with a context.
    pub fn annotate(&self, ctx: Option<&TraceContext>, msg: impl FnOnce() -> String) {
        if let (Some(inner), Some(ctx)) = (self.0.as_ref(), ctx) {
            let now = inner.clock.now_ms();
            let mut note = Entry::new(Kind::Note, ctx, ctx.parent, "", now, now);
            note.notes.push(msg());
            inner.push(note);
        }
    }

    /// Close the root span (idempotent — re-deliveries after completion
    /// just move the end stamp forward).
    pub fn end_trace(&self, ctx: Option<&TraceContext>) {
        if let (Some(inner), Some(ctx)) = (self.0.as_ref(), ctx) {
            let now = inner.clock.now_ms();
            inner.push(Entry::new(Kind::End, ctx, ctx.parent, "", now, now));
        }
    }

    /// Assemble what a read returns from one cut of the log: every write
    /// that returned before the cut is in it, none that began after.
    fn read(&self) -> View {
        let Some(inner) = self.0.as_ref() else {
            return View::default();
        };
        // The cut: all rings locked at once, entries copied out ring by
        // ring. An adoption's span directly follows its `Adopt` here.
        let mut log: Vec<Entry> = Vec::new();
        let mut horizon;
        {
            let rings = inner.rings.lock();
            let live: Vec<_> = rings.live.iter().map(|r| r.lock()).collect();
            horizon = rings.lost_before;
            for ring in live.iter().map(|r| &**r).chain([&rings.retired]) {
                horizon = horizon.max(ring.horizon());
                log.extend(ring.survivors().filter(|e| e.kind != Kind::Stamp).cloned());
            }
        }
        // Group by trace, opens first — a mint before an adoption, an
        // earlier adoption before a later: the first one opened the trace.
        let mut by_trace: Vec<(usize, &Entry)> = log.iter().enumerate().collect();
        by_trace.sort_unstable_by_key(|(i, e)| (e.trace, e.kind, e.start_ms, *i));
        let (mut view, mut traces) = (View::default(), Vec::new());
        for entries in by_trace.chunk_by(|a, b| a.1.trace == b.1.trace) {
            let (opened, open) = entries[0];
            if open.kind > Kind::Adopt {
                continue; // spans of a trace nobody opened here
            }
            view.evicted += 1; // until it is returned
            if horizon.is_some_and(|h| open.start_ms <= h) {
                // Whole traces only: an entry of one opened this early
                // may be among those some ring has overwritten.
                continue;
            }
            let mut spans = vec![open.to_span()];
            for &(i, e) in &entries[1..] {
                match e.kind {
                    Kind::Span => spans.push(e.to_span()),
                    Kind::SpanIfOpened if i == opened + 1 => spans.push(e.to_span()),
                    Kind::End => spans[0].end_ms = spans[0].end_ms.max(e.end_ms),
                    Kind::Note => {
                        if let Some(span) = spans.iter_mut().find(|s| s.id == e.span) {
                            span.annotations.push((e.end_ms, e.notes[0].clone()));
                        }
                    }
                    _ => {}
                }
            }
            traces.push((open.start_ms, opened, spans));
        }
        // The newest `capacity`, each root first, then by start stamp; the
        // span cap keeps the earliest.
        traces.sort_unstable_by_key(|t| (t.0, t.1));
        for (_, opened, mut spans) in
            traces.split_off(traces.len().saturating_sub(inner.cfg.capacity))
        {
            spans[1..].sort_by_key(|s| s.start_ms);
            let over = spans.len().saturating_sub(inner.cfg.max_spans_per_trace);
            spans.truncate(spans.len() - over);
            let (trace_id, label, root) = (log[opened].trace, log[opened].name, log[opened].span);
            view.traces.push(TraceData {
                trace_id,
                label,
                root,
                spans,
            });
            view.evicted -= 1;
            view.overflowed += over as u64;
        }
        view
    }

    /// Snapshot of one trace. Like every read this assembles the whole
    /// log: poll it, do not call it in a loop over many ids.
    pub fn trace(&self, id: TraceId) -> Option<TraceData> {
        self.traces().into_iter().find(|td| td.trace_id == id)
    }

    /// Snapshot of every retained trace (unordered).
    pub fn traces(&self) -> Vec<TraceData> {
        self.read().traces
    }

    /// Number of retained traces.
    pub fn trace_count(&self) -> usize {
        self.read().traces.len()
    }

    /// Traces the log still opens that a read no longer returns: beyond
    /// the newest `capacity`, or behind a ring's overwrite horizon.
    pub fn traces_evicted(&self) -> u64 {
        self.read().evicted
    }

    /// Spans of the retained traces dropped by the per-trace cap.
    pub fn spans_overflowed(&self) -> u64 {
        self.read().overflowed
    }

    /// Duration statistics per leg name across every retained trace — the
    /// paper's per-leg decomposition table, computed from collected spans.
    pub fn leg_summary(&self) -> BTreeMap<String, LegStats> {
        let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for td in self.traces() {
            for s in &td.spans {
                by_name.entry(s.name).or_default().push(s.duration_ms());
            }
        }
        let stats = |(name, mut ds): (&str, Vec<u64>)| {
            ds.sort_unstable();
            let at = |q: f64| ds[(((ds.len() - 1) as f64) * q).round() as usize];
            let stats = LegStats {
                count: ds.len() as u64,
                mean_ms: ds.iter().sum::<u64>() as f64 / ds.len() as f64,
                p50_ms: at(0.5),
                p95_ms: at(0.95),
                max_ms: at(1.0),
            };
            (name.to_string(), stats)
        };
        by_name.into_iter().map(stats).collect()
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
        off.record_span_annotated(None, "x", 0, 1, || vec!["never".into()]);
    }

    #[test]
    fn retention_is_bounded_and_evicts_oldest() {
        let vclock = VirtualClock::new();
        let clock: SharedClock = vclock.clone();
        let t = Tracer::new(
            clock,
            TraceConfig {
                capacity: 16,
                ..TraceConfig::default()
            },
        );
        let minted: Vec<_> = (0..64).map(|_| t.start_trace("task").unwrap()).collect();
        assert!(t.trace_count() <= 16);
        assert!(t.traces_evicted() >= 32);
        // What is kept is the newest.
        let mut kept: Vec<_> = t.traces().iter().map(|td| td.trace_id).collect();
        let mut newest: Vec<_> = minted[48..].iter().map(|ctx| ctx.trace_id).collect();
        kept.sort_unstable();
        newest.sort_unstable();
        assert_eq!(kept, newest);
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

        t.adopt_trace_with_span(&ctx, "task", "submit", 0, 1);
        vclock.advance(1);
        t.adopt_trace_with_span(&ctx, "task", "submit", 1, 2);
        assert_eq!(t.trace_count(), 1, "re-adoption is a no-op");
        vclock.advance(2);
        t.record_span(Some(&ctx), "queue", 1, 3);
        t.end_trace(Some(&ctx));

        let td = t.trace(ctx.trace_id).unwrap();
        assert_eq!(td.root, ctx.parent);
        assert!(td.orphan_spans().is_empty());
        assert_eq!(td.spans_named("submit").count(), 1);
        assert_eq!(td.spans_named("queue").count(), 1);
        let root = td.root_span().unwrap();
        assert_eq!((root.start_ms, root.end_ms), (0, 3), "the first adoption's");
        assert_eq!(td.spans.iter().filter(|s| s.parent.is_none()).count(), 1);

        // A locally-started trace must not be re-adopted (shared-collector
        // in-process path): the mint stays its one root.
        let local = t.start_trace("task").unwrap();
        vclock.advance(4);
        t.adopt_trace_with_span(&local, "task", "submit", 3, 7);
        let td = t.trace(local.trace_id).unwrap();
        assert_eq!(td.spans.len(), 1);
        assert_eq!(td.root_span().unwrap().start_ms, 3);
        assert_eq!(t.trace_count(), 2);

        // Disabled tracers never adopt.
        let off = Tracer::disabled();
        off.adopt_trace_with_span(&ctx, "task", "submit", 0, 1);
        assert!(off.trace(ctx.trace_id).is_none());
    }

    #[test]
    fn paired_visits_record_what_the_separate_calls_do() {
        let (vclock, t) = tracer();
        let remote = TraceContext {
            trace_id: TraceId::random(),
            parent: SpanId::random(),
        };
        // Adoption and the once-per-trace span travel together...
        t.adopt_trace_with_span(&remote, "task", "submit", 0, 2);
        // ...and a context this collector already holds gets neither.
        t.adopt_trace_with_span(&remote, "task", "submit", 0, 2);
        let local = t.start_trace("task").unwrap();
        t.adopt_trace_with_span(&local, "task", "submit", 0, 2);
        assert_eq!(t.trace(local.trace_id).unwrap().spans.len(), 1);
        assert_eq!(t.trace(remote.trace_id).unwrap().spans.len(), 2);

        // Contexts the collector has never seen open no trace.
        let unknown = TraceContext {
            trace_id: TraceId::random(),
            parent: SpanId::random(),
        };
        for (ctx, start_ms) in [(remote, 2), (local, 3), (unknown, 4)] {
            t.record_span(Some(&ctx), "queue", start_ms, 9);
        }
        assert!(t.trace(unknown.trace_id).is_none());

        vclock.advance(12);
        t.record_span(Some(&remote), "result", 9, 12);
        t.end_trace(Some(&remote));
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
        capped.adopt_trace_with_span(&remote, "task", "submit", 0, 1);
        capped.record_span(Some(&remote), "queue", 1, 2);
        capped.record_span(Some(&remote), "result", 2, 3);
        capped.end_trace(Some(&remote));
        assert_eq!(capped.spans_overflowed(), 3);
        assert_eq!(capped.trace(remote.trace_id).unwrap().spans.len(), 1);
    }

    /// An adoption on another thread loses to the mint wherever the two
    /// entries sit, and annotations from any thread land in time order.
    #[test]
    fn opens_and_notes_are_ordered_across_rings() {
        let (vclock, t) = tracer();
        let ctx = t.start_trace("task").unwrap();
        vclock.advance(1);
        let on_thread = |f: &(dyn Fn() + Sync)| std::thread::scope(|s| s.spawn(f).join().unwrap());
        on_thread(&|| {
            t.adopt_trace_with_span(&ctx, "task", "submit", 0, 1);
            t.annotate(Some(&ctx), || "second".into());
        });
        vclock.advance(1);
        t.annotate(Some(&ctx), || "third".into());
        let td = t.trace(ctx.trace_id).unwrap();
        assert_eq!(td.spans.len(), 1, "the mint won: {td:?}");
        let notes: Vec<&str> = td.spans[0].annotations.iter().map(|a| &*a.1).collect();
        assert_eq!(notes, ["second", "third"]);
        let stamps: Vec<TimeMs> = td.spans[0].annotations.iter().map(|a| a.0).collect();
        assert_eq!(stamps, [1, 2]);
    }

    /// Connection-thread churn: a thread's exit empties its ring into the
    /// tracer's one retired ring and takes it off the registry.
    #[test]
    fn exited_threads_leave_their_spans_and_no_ring() {
        let cfg = TraceConfig {
            max_spans_per_trace: 1001,
            ..TraceConfig::default()
        };
        let t = Tracer::new(VirtualClock::new(), cfg);
        let ctx = t.start_trace("task").unwrap();
        for _ in 0..1000 {
            let t = t.clone();
            let worker = std::thread::spawn(move || t.record_span(Some(&ctx), "leg", 0, 1));
            worker.join().unwrap();
        }
        let inner = t.0.as_ref().unwrap();
        assert_eq!(inner.rings.lock().live.len(), 1, "this thread's ring only");
        let td = t.trace(ctx.trace_id).unwrap();
        assert_eq!(td.spans_named("leg").count(), 1000);
        assert!(td.orphan_spans().is_empty());
        // A dropped tracer's rings go when their threads next register.
        drop(t);
        let (_, other) = tracer();
        other.start_trace("task");
        RINGS.with(|rings| assert_eq!(rings.borrow().0.len(), 1));
    }
}
