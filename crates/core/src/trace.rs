//! Task-lifecycle tracing: trace/span contexts and an in-memory collector
//! kept as a log. (Cold-path *events* — faults, rejections, handovers — go
//! to the flight recorder, the one event ring.)
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
    pub(crate) fn encode(&self) -> String {
        format!("{}:{}", self.trace_id, self.parent)
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
    pub(crate) id: SpanId,
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
    pub(crate) fn duration_ms(&self) -> u64 {
        self.end_ms.saturating_sub(self.start_ms)
    }
}

/// Snapshot of one trace: the root span plus every recorded child.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceData {
    /// The trace id.
    pub trace_id: TraceId,
    /// Label given at `start_trace` ("task", typically).
    pub(crate) label: &'static str,
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

/// Most ring entries per trace of `TraceConfig::capacity`: what a ring whose
/// thread writes a trace several entries (a test's whole lifecycle, an
/// engine's `queue` and `dispatch`) grows to. One whose thread writes one
/// entry per trace — every hop of the `svc_*` paths: the batcher's, the
/// wire server's, the agent's `queue`, the result processor's — stops at
/// `capacity` entries: it holds the newest `capacity` traces whole either
/// way, and the half it would never need costs every thread cache.
/// A longer ring reads little more: 4 was 4 MiB heavier, no faster.
const RING_ENTRIES_PER_TRACE: usize = 2;
/// How often a ring reads the clock into a [`Kind::Stamp`] entry of its
/// own — what lets a reader date what the ring has overwritten.
const STAMP_EVERY: usize = 64;

/// The leg names product code writes, by index: an entry carries a leg's
/// place here, not its name. Any other name is interned once, after these
/// (`INTERNED`), the first time it is written.
const LEGS: [&str; 16] = [
    "task",
    "submit",
    "wire.send",
    "wire.await",
    "wire.decode",
    "wire.queue",
    "wire.push",
    "queue",
    "dispatch",
    "execute",
    "result",
    "worker",
    "redispatch",
    "retry",
    "forward",
    "handover",
];
/// The legs a hop entry names without a lookup: places in `LEGS`.
mod leg {
    pub(super) const SUBMIT: u8 = 1;
    pub(super) const WIRE_SEND: u8 = 2;
    pub(super) const WIRE_AWAIT: u8 = 3;
    pub(super) const WIRE_DECODE: u8 = 4;
    pub(super) const WIRE_QUEUE: u8 = 5;
    pub(super) const QUEUE: u8 = 7;
    pub(super) const EXECUTE: u8 = 9;
    pub(super) const RESULT: u8 = 10;
    /// What every name past the 255th reads as.
    pub(super) const UNNAMED: u8 = u8::MAX;
}

/// Names written outside `LEGS`, in order of first write (tests', mostly).
static INTERNED: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

/// `name`'s leg index: its place in `LEGS`, else after them in `INTERNED`.
fn leg_index(name: &'static str) -> u8 {
    if let Some(i) = LEGS.iter().position(|l| *l == name) {
        return i as u8;
    }
    let mut interned = INTERNED.lock();
    let at = match interned.iter().position(|l| *l == name) {
        Some(at) => at,
        None if LEGS.len() + interned.len() < usize::from(leg::UNNAMED) => {
            interned.push(name);
            interned.len() - 1
        }
        None => return leg::UNNAMED,
    };
    (LEGS.len() + at) as u8
}

/// Every leg name, by index, as of one read.
struct LegNames(Vec<&'static str>);

impl LegNames {
    fn now() -> Self {
        Self(LEGS.iter().chain(INTERNED.lock().iter()).copied().collect())
    }

    fn get(&self, leg: u8) -> &'static str {
        self.0.get(usize::from(leg)).copied().unwrap_or("(unnamed)")
    }
}

/// Three clock readings around one wire exchange, bounding its two legs:
/// the client's `wire.send` (`begin_ms` → `mid_ms`: serialize and hand to
/// the transport) and `wire.await` (`mid_ms` → `end_ms`: until the answer is
/// demuxed), or the server's `wire.decode` and `wire.queue` (the batch
/// unpacked, then accepted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireStamps {
    /// The exchange's first reading.
    pub begin_ms: TimeMs,
    /// Where its first leg ends and its second starts.
    pub mid_ms: TimeMs,
    /// Its last reading.
    pub end_ms: TimeMs,
}

/// What one log entry says, and what its stamps mean. A hop's stamps are
/// numbered: stamp 0 is `start_ms`, the others offsets from it
/// ([`Entry::stamp`]); any other entry's second stamp, if it has one, is
/// its `end_ms` ([`Entry::end_ms`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// `start_trace`, `open_trace`: a root, labelled `leg`, of a trace
    /// minted here at `start_ms`.
    Mint,
    /// The batcher's hop: a mint at stamp 0 and its `submit` leg to stamp 1.
    MintSubmit,
    /// `MintSubmit` over a wire, with the call's `wire.send` (stamp 2 → 3)
    /// and `wire.await` (stamp 3 → 1).
    MintSubmitWire,
    /// `adopt_trace_with_span`: a root for a trace minted elsewhere, at
    /// `start_ms`, and span `leg2` from there to `end_ms`, which a reader
    /// keeps only if this adoption is the open that won.
    Adopt,
    /// The wire server's hop: an adoption at stamp 0 with its `submit` to
    /// stamp 1, `wire.decode` (stamp 2 → 0) and `wire.queue` (0 → 1).
    AdoptWire,
    /// A completed child span, `start_ms` → `end_ms`.
    Span,
    /// `end_trace_with_span`: a child span whose end also closes the root.
    Close,
    /// The result processor's hop: `execute` (stamp 0 → 1) and the closing
    /// `result` (1 → 2).
    Landed,
    /// `record_span_after_queue`: a child span that ends at `start_ms` and
    /// starts where the trace's first `queue` leg ended.
    AfterQueue,
    /// `annotate`: `notes` go on span `span`, stamped `start_ms`.
    Note,
    /// The ring's clock reading: all before it was pushed by `start_ms`.
    Stamp,
}

impl Kind {
    /// Where a reader sorts an entry among its trace's: opens first, a mint
    /// before an adoption, then spans, then what reads the spans.
    fn rank(self) -> u8 {
        match self {
            Kind::Mint | Kind::MintSubmit | Kind::MintSubmitWire => 0,
            Kind::Adopt | Kind::AdoptWire => 1,
            Kind::Span | Kind::Close | Kind::Landed => 2,
            Kind::AfterQueue => 3,
            Kind::Note | Kind::Stamp => 4,
        }
    }

    fn opens(self) -> bool {
        self.rank() <= 1
    }
}

/// The notes of an annotated write, kept out of line so that an entry
/// stays 64 bytes and only an annotation allocates.
#[derive(Debug, Clone)]
struct Notes(Vec<String>);

/// One fixed-size log entry (64 bytes): one hop's write, whatever spans it
/// stands for. `notes` is `None` — nothing allocated — unless the write
/// carried annotations.
#[derive(Debug, Clone)]
struct Entry {
    trace: TraceId,
    /// What its spans parent to; an open's root; a note's span.
    parent: SpanId,
    /// Its first span's id; a hop's further spans count up from it by 2.
    span: SpanId,
    start_ms: TimeMs,
    notes: Option<Box<Notes>>,
    /// A hop's stamps 1–3, as `i32` offsets from `start_ms`; any other
    /// entry's `end_ms` in the first two words.
    at: [u32; 3],
    kind: Kind,
    /// Its own span's name (an open's label), as a leg index.
    leg: u8,
    /// An adoption's span's name.
    leg2: u8,
}

impl Entry {
    fn new(kind: Kind, ctx: &TraceContext, span: SpanId, leg: u8, start_ms: TimeMs) -> Self {
        Self {
            trace: ctx.trace_id,
            parent: ctx.parent,
            span,
            start_ms,
            notes: None,
            at: [0; 3],
            kind,
            leg,
            leg2: 0,
        }
    }

    /// An entry of one span, `start_ms` → `end_ms`.
    fn spanning(
        kind: Kind,
        ctx: &TraceContext,
        span: SpanId,
        leg: u8,
        start_ms: TimeMs,
        end_ms: TimeMs,
    ) -> Self {
        let mut entry = Self::new(kind, ctx, span, leg, start_ms);
        entry.at = [end_ms as u32, (end_ms >> 32) as u32, 0];
        entry
    }

    /// A hop's entry over `stamps` (at most 4), or `None` if one lies too
    /// far from the first to be an offset.
    fn hop(kind: Kind, ctx: &TraceContext, leg: u8, stamps: &[TimeMs]) -> Option<Self> {
        let (&first, rest) = stamps.split_first()?;
        let mut entry = Self::new(kind, ctx, SpanId::random(), leg, first);
        for (slot, &stamp) in entry.at.iter_mut().zip(rest) {
            *slot = i32::try_from(stamp.wrapping_sub(first) as i64).ok()? as u32;
        }
        Some(entry)
    }

    fn end_ms(&self) -> TimeMs {
        u64::from(self.at[0]) | u64::from(self.at[1]) << 32
    }

    /// A hop's stamp `i`.
    fn stamp(&self, i: usize) -> TimeMs {
        match i {
            0 => self.start_ms,
            i => self
                .start_ms
                .wrapping_add_signed(i64::from(self.at[i - 1] as i32)),
        }
    }

    /// The root an open stands for.
    fn root(&self, names: &LegNames) -> SpanRecord {
        SpanRecord {
            id: self.parent,
            parent: None,
            name: names.get(self.leg),
            start_ms: self.start_ms,
            end_ms: self.start_ms,
            annotations: Vec::new(),
        }
    }

    /// A hop's span `k`.
    fn child(&self, k: u64, name: &'static str, start_ms: TimeMs, end_ms: TimeMs) -> SpanRecord {
        SpanRecord {
            id: SpanId(self.span.0.wrapping_add(2 * k)),
            parent: Some(self.parent),
            name,
            start_ms,
            end_ms,
            annotations: Vec::new(),
        }
    }

    /// The one span of a `Span`, `Close` or `AfterQueue` entry, with its
    /// notes.
    fn own_span(&self, names: &LegNames, start_ms: TimeMs, end_ms: TimeMs) -> SpanRecord {
        let mut span = self.child(0, names.get(self.leg), start_ms, end_ms);
        let notes = self.notes.iter().flat_map(|n| &n.0);
        span.annotations = notes.map(|n| (end_ms, n.clone())).collect();
        span
    }

    /// Append the spans this entry stands for to `spans`, whose first is
    /// the trace's root; `opened` is whether this entry is the open that won.
    fn expand(&self, opened: bool, names: &LegNames, spans: &mut Vec<SpanRecord>) {
        let (s, name) = (|i| self.stamp(i), |leg| names.get(leg));
        match self.kind {
            Kind::Mint | Kind::Stamp => {}
            Kind::MintSubmit => spans.push(self.child(0, name(leg::SUBMIT), s(0), s(1))),
            Kind::MintSubmitWire => spans.extend([
                self.child(0, name(leg::SUBMIT), s(0), s(1)),
                self.child(1, name(leg::WIRE_SEND), s(2), s(3)),
                self.child(2, name(leg::WIRE_AWAIT), s(3), s(1)),
            ]),
            Kind::Adopt => {
                if opened {
                    spans.push(self.child(0, name(self.leg2), self.start_ms, self.end_ms()));
                }
            }
            Kind::AdoptWire => {
                if opened {
                    spans.push(self.child(0, name(leg::SUBMIT), s(0), s(1)));
                }
                spans.extend([
                    self.child(1, name(leg::WIRE_DECODE), s(2), s(0)),
                    self.child(2, name(leg::WIRE_QUEUE), s(0), s(1)),
                ]);
            }
            Kind::Span => spans.push(self.own_span(names, self.start_ms, self.end_ms())),
            Kind::Close => {
                spans[0].end_ms = spans[0].end_ms.max(self.end_ms());
                spans.push(self.own_span(names, self.start_ms, self.end_ms()));
            }
            Kind::Landed => {
                spans[0].end_ms = spans[0].end_ms.max(s(2));
                spans.extend([
                    self.child(0, name(leg::EXECUTE), s(0), s(1)),
                    self.child(1, name(leg::RESULT), s(1), s(2)),
                ]);
            }
            Kind::AfterQueue => {
                let queue = name(leg::QUEUE);
                let queued = spans.iter().filter(|span| span.name == queue);
                let start_ms = queued.map(|span| span.end_ms).min();
                let start_ms = start_ms.unwrap_or(self.start_ms);
                spans.push(self.own_span(names, start_ms, self.start_ms));
            }
            Kind::Note => {
                if let Some(span) = spans.iter_mut().find(|span| span.id == self.span) {
                    let notes = self.notes.iter().flat_map(|n| &n.0);
                    span.annotations
                        .extend(notes.map(|n| (self.start_ms, n.clone())));
                }
            }
        }
    }
}

/// One thread's append-only log for one tracer: a vector grown lazily to
/// its bound, then overwritten oldest first.
#[derive(Default)]
struct Ring {
    entries: Vec<Entry>,
    /// Slot of the next push: the oldest entry's, once `wrapped`.
    next: usize,
    wrapped: bool,
    /// Where `next` wraps: 0 until the ring first fills `TracerInner::base`
    /// slots, then `base`, or `most` if its thread writes a trace more than
    /// one entry.
    bound: usize,
    /// Contexts this thread has asked for, `start_trace` or `draw_trace`
    /// (sampling counts per thread).
    submissions: u64,
    /// Writes pushed here, stamps aside (a retired ring: its threads' writes).
    written: u64,
}

impl Ring {
    /// A write: one entry.
    fn push(&mut self, tracer: &TracerInner, entry: Entry) {
        self.written += 1;
        self.append(tracer, entry);
    }

    /// Append `entry`, preceded every `STAMP_EVERY` slots by a stamp.
    fn append(&mut self, tracer: &TracerInner, entry: Entry) {
        if self.next.is_multiple_of(STAMP_EVERY) {
            let stamp = Entry {
                kind: Kind::Stamp,
                start_ms: tracer.clock.now_ms(),
                notes: None,
                ..entry
            };
            self.put(tracer, stamp);
        }
        self.put(tracer, entry);
    }

    fn put(&mut self, tracer: &TracerInner, entry: Entry) {
        match self.entries.get_mut(self.next) {
            Some(old) => (*old, self.wrapped) = (entry, true),
            None => self.entries.push(entry),
        }
        self.next += 1;
        if self.bound == 0 && self.next == tracer.base {
            self.bound = if self.writes_per_trace_above(1.25) {
                tracer.most
            } else {
                tracer.base
            };
        }
        if self.next == self.bound {
            self.next = 0;
        }
    }

    /// A submission by this ring's thread: a fresh context if it is sampled
    /// (`sample_every` is not 0 here).
    fn sample(&mut self, tracer: &TracerInner) -> Option<TraceContext> {
        self.submissions += 1;
        (self.submissions - 1)
            .is_multiple_of(tracer.cfg.sample_every)
            .then(|| TraceContext {
                trace_id: TraceId::random(),
                parent: SpanId::random(),
            })
    }

    /// Whether the writes this ring holds average more than `per_trace`
    /// entries for each trace they belong to (one look, when it first fills).
    fn writes_per_trace_above(&self, per_trace: f64) -> bool {
        let writes = self.entries.iter().filter(|e| e.kind != Kind::Stamp);
        let mut traces: Vec<TraceId> = writes.map(|e| e.trace).collect();
        let n = traces.len() as f64;
        traces.sort_unstable();
        traces.dedup();
        n > per_trace * traces.len() as f64
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
            .then(|| oldest.map_or(TimeMs::MAX, |e| e.start_ms))
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
    /// Entries a ring holds at one entry per trace: room for the newest
    /// `capacity` traces, and for a stamp.
    base: usize,
    /// Entries a ring holds at most, at `RING_ENTRIES_PER_TRACE`.
    most: usize,
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
            rings.retired.written += ring.written;
            for entry in ring.survivors().filter(|e| e.kind != Kind::Stamp) {
                rings.retired.append(&tracer, entry.clone());
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
        // Powers of two, and room for a stamp.
        let entries = |per_trace: usize| (cfg.capacity * per_trace).max(2 * STAMP_EVERY);
        let base = entries(1).next_power_of_two();
        let most = entries(RING_ENTRIES_PER_TRACE).next_power_of_two();
        // Exited threads' entries, whatever their rings held, retire here.
        let retired = Ring {
            bound: most,
            ..Ring::default()
        };
        Self(Some(Arc::new(TracerInner {
            clock,
            base,
            most,
            cfg,
            rings: Mutex::new(Rings {
                retired,
                ..Rings::default()
            }),
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
        self.open(label, |inner| inner.clock.now_ms())
    }

    /// [`start_trace`](Self::start_trace) with the root opened at `now_ms`,
    /// a reading the caller has already taken.
    pub fn start_trace_at(&self, label: &'static str, now_ms: TimeMs) -> Option<TraceContext> {
        self.open(label, |_| now_ms)
    }

    fn open(
        &self,
        label: &'static str,
        now: impl FnOnce(&TracerInner) -> TimeMs,
    ) -> Option<TraceContext> {
        let inner = self.0.as_ref().filter(|i| i.cfg.sample_every != 0)?;
        inner.write(|ring| {
            let ctx = ring.sample(inner)?;
            let root = Entry::new(Kind::Mint, &ctx, ctx.parent, leg_index(label), now(inner));
            ring.push(inner, root);
            Some(ctx)
        })
    }

    /// Draw the context of a new trace, subject to sampling, and write
    /// nothing: the caller opens the trace later with its first hop —
    /// [`open_submitted`](Self::open_submitted) — or, for a task that never
    /// gets that far, with [`open_trace`](Self::open_trace). Every write of
    /// the trace on this collector must come at or after the root's start.
    pub fn draw_trace(&self) -> Option<TraceContext> {
        let inner = self.0.as_ref().filter(|i| i.cfg.sample_every != 0)?;
        inner.write(|ring| ring.sample(inner))
    }

    /// Open a drawn trace at `start_ms` with its root alone.
    pub fn open_trace(&self, ctx: Option<&TraceContext>, label: &'static str, start_ms: TimeMs) {
        if let (Some(inner), Some(ctx)) = (self.0.as_ref(), ctx) {
            inner.push(Entry::new(
                Kind::Mint,
                ctx,
                ctx.parent,
                leg_index(label),
                start_ms,
            ));
        }
    }

    /// Open a drawn trace at `submitted_ms` together with its `submit` leg,
    /// which ends at `accepted_ms`: the batcher's hop, one entry.
    pub fn open_submitted(
        &self,
        ctx: Option<&TraceContext>,
        label: &'static str,
        submitted_ms: TimeMs,
        accepted_ms: TimeMs,
    ) {
        let stamps = [submitted_ms, accepted_ms];
        self.write_hop(ctx, Kind::MintSubmit, label, &stamps, |ctx, label| {
            vec![
                Entry::new(Kind::Mint, ctx, ctx.parent, label, submitted_ms),
                span_entry(ctx, leg::SUBMIT, submitted_ms, accepted_ms),
            ]
        });
    }

    /// [`open_submitted`](Self::open_submitted) for a batch that crossed a
    /// wire: the `submit` leg ends where the call's `wire.await` does, and
    /// the same entry carries the call's `wire.send` and `wire.await`.
    pub fn open_submitted_over_wire(
        &self,
        ctx: Option<&TraceContext>,
        label: &'static str,
        submitted_ms: TimeMs,
        call: &WireStamps,
    ) {
        let stamps = [submitted_ms, call.end_ms, call.begin_ms, call.mid_ms];
        self.write_hop(ctx, Kind::MintSubmitWire, label, &stamps, |ctx, label| {
            vec![
                Entry::new(Kind::Mint, ctx, ctx.parent, label, submitted_ms),
                span_entry(ctx, leg::SUBMIT, submitted_ms, call.end_ms),
                span_entry(ctx, leg::WIRE_SEND, call.begin_ms, call.mid_ms),
                span_entry(ctx, leg::WIRE_AWAIT, call.mid_ms, call.end_ms),
            ]
        });
    }

    /// A wire call's `wire.send` and `wire.await` legs on a trace already
    /// open here, for a caller with no hop to fold them into (two entries).
    pub fn record_wire_call(&self, ctx: Option<&TraceContext>, call: &WireStamps) {
        if let (Some(inner), Some(ctx)) = (self.0.as_ref(), ctx) {
            inner.write(|ring| {
                ring.push(
                    inner,
                    span_entry(ctx, leg::WIRE_SEND, call.begin_ms, call.mid_ms),
                );
                ring.push(
                    inner,
                    span_entry(ctx, leg::WIRE_AWAIT, call.mid_ms, call.end_ms),
                );
            });
        }
    }

    /// Adopt a trace minted by a *remote* peer — open it here at `start_ms`
    /// with `ctx.parent` as its root span, so spans recorded under the
    /// context on this side of a wire land somewhere (a read returns spans
    /// only for traces the log opens) — with one child span that a reader
    /// keeps only if this adoption is the open that won. Idempotent: a
    /// reader lets one open win, a mint over an adoption, an earlier
    /// adoption over a later. This is how a once-per-trace leg is stamped
    /// without duplicating it when a resubmission re-sends an
    /// already-adopted context. `start_ms` must precede every write of the
    /// trace on this side.
    pub fn adopt_trace_with_span(
        &self,
        ctx: &TraceContext,
        label: &'static str,
        name: &'static str,
        start_ms: TimeMs,
        end_ms: TimeMs,
    ) {
        if let Some(inner) = self.0.as_ref() {
            inner.push(adopt_entry(
                ctx,
                leg_index(label),
                leg_index(name),
                start_ms,
                end_ms,
            ));
        }
    }

    /// The wire server's hop, one entry: adopt the trace at `call.mid_ms`
    /// (the batch decoded) with its `submit` leg to `call.end_ms` (accepted)
    /// as the adopted span, beside `wire.decode` (`begin_ms` → `mid_ms`) and
    /// `wire.queue` (`mid_ms` → `end_ms`), which a re-sent batch records
    /// again.
    pub fn adopt_trace_over_wire(
        &self,
        ctx: &TraceContext,
        label: &'static str,
        call: &WireStamps,
    ) {
        let stamps = [call.mid_ms, call.end_ms, call.begin_ms];
        self.write_hop(Some(ctx), Kind::AdoptWire, label, &stamps, |ctx, label| {
            vec![
                adopt_entry(ctx, label, leg::SUBMIT, call.mid_ms, call.end_ms),
                span_entry(ctx, leg::WIRE_DECODE, call.begin_ms, call.mid_ms),
                span_entry(ctx, leg::WIRE_QUEUE, call.mid_ms, call.end_ms),
            ]
        });
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
        let mut span = Entry::spanning(Kind::Span, ctx, id, leg_index(name), start_ms, end_ms);
        let notes = notes();
        span.notes = (!notes.is_empty()).then(|| Box::new(Notes(notes)));
        inner.push(span);
        Some(id)
    }

    /// Record a child span that ends at `end_ms` and starts where the
    /// trace's first `queue` leg ended — a reader takes the start from the
    /// log, so the writer needs no stamp of its own (the `dispatch` leg:
    /// agent receipt → `Running`). With no `queue` leg it reads as empty.
    pub fn record_span_after_queue(
        &self,
        ctx: Option<&TraceContext>,
        name: &'static str,
        end_ms: TimeMs,
    ) {
        if let (Some(inner), Some(ctx)) = (self.0.as_ref(), ctx) {
            let id = SpanId::random();
            inner.push(Entry::new(
                Kind::AfterQueue,
                ctx,
                id,
                leg_index(name),
                end_ms,
            ));
        }
    }

    /// Record the child span that finishes a trace: its end also closes the
    /// root (idempotent — a later closing span, a re-delivery's, just moves
    /// the root's end forward).
    pub fn end_trace_with_span(
        &self,
        ctx: Option<&TraceContext>,
        name: &'static str,
        start_ms: TimeMs,
        end_ms: TimeMs,
    ) {
        if let (Some(inner), Some(ctx)) = (self.0.as_ref(), ctx) {
            let (id, leg) = (SpanId::random(), leg_index(name));
            inner.push(Entry::spanning(Kind::Close, ctx, id, leg, start_ms, end_ms));
        }
    }

    /// The result processor's hop, one entry: the `execute` leg
    /// (`started_ms` → `sent_ms`) and the `result` leg (`sent_ms` →
    /// `landed_ms`), whose end closes the root as
    /// [`end_trace_with_span`](Self::end_trace_with_span)'s does.
    pub fn end_trace_landed(
        &self,
        ctx: Option<&TraceContext>,
        started_ms: TimeMs,
        sent_ms: TimeMs,
        landed_ms: TimeMs,
    ) {
        let stamps = [started_ms, sent_ms, landed_ms];
        self.write_hop(ctx, Kind::Landed, "task", &stamps, |ctx, _| {
            let (id, leg) = (SpanId::random(), leg::RESULT);
            vec![
                span_entry(ctx, leg::EXECUTE, started_ms, sent_ms),
                Entry::spanning(Kind::Close, ctx, id, leg, sent_ms, landed_ms),
            ]
        });
    }

    /// Write a hop as one entry of `kind` over `stamps` or, should a stamp
    /// lie too far from the first for an offset, as the entries `split`
    /// makes of it (given the context and `label`'s index).
    fn write_hop(
        &self,
        ctx: Option<&TraceContext>,
        kind: Kind,
        label: &'static str,
        stamps: &[TimeMs],
        split: impl FnOnce(&TraceContext, u8) -> Vec<Entry>,
    ) {
        let (Some(inner), Some(ctx)) = (self.0.as_ref(), ctx) else {
            return;
        };
        let label = leg_index(label);
        match Entry::hop(kind, ctx, label, stamps) {
            Some(entry) => inner.push(entry),
            None => {
                let entries = split(ctx, label);
                inner.write(|ring| entries.into_iter().for_each(|e| ring.push(inner, e)));
            }
        }
    }

    /// Append a timestamped annotation to the span `ctx` points at (the
    /// root, for task contexts). The message closure runs only on an
    /// enabled tracer with a context.
    pub fn annotate(&self, ctx: Option<&TraceContext>, msg: impl FnOnce() -> String) {
        if let (Some(inner), Some(ctx)) = (self.0.as_ref(), ctx) {
            let now = inner.clock.now_ms();
            let mut note = Entry::new(Kind::Note, ctx, ctx.parent, 0, now);
            note.notes = Some(Box::new(Notes(vec![msg()])));
            inner.push(note);
        }
    }

    /// Log entries written so far by every thread, the rings' own clock
    /// stamps aside: what tracing has cost the writers, read without
    /// assembling anything.
    pub fn entries_written(&self) -> u64 {
        let Some(inner) = self.0.as_ref() else {
            return 0;
        };
        let rings = inner.rings.lock();
        let live: u64 = rings.live.iter().map(|r| r.lock().written).sum();
        live + rings.retired.written
    }

    /// Assemble what a read returns from one cut of the log: every write
    /// that returned before the cut is in it, none that began after.
    fn read(&self) -> View {
        let Some(inner) = self.0.as_ref() else {
            return View::default();
        };
        // The cut: all rings locked at once, entries copied out ring by ring.
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
        let names = LegNames::now();
        // Group by trace, opens first — a mint before an adoption, an
        // earlier open before a later: the first one opened the trace.
        let mut by_trace: Vec<(usize, &Entry)> = log.iter().enumerate().collect();
        by_trace.sort_unstable_by_key(|(i, e)| (e.trace, e.kind.rank(), e.start_ms, *i));
        let (mut view, mut traces) = (View::default(), Vec::new());
        for entries in by_trace.chunk_by(|a, b| a.1.trace == b.1.trace) {
            let (opened, open) = entries[0];
            if !open.kind.opens() {
                continue; // spans of a trace nobody opened here
            }
            view.evicted += 1; // until it is returned
            if horizon.is_some_and(|h| open.start_ms <= h) {
                // Whole traces only: an entry of one opened this early
                // may be among those some ring has overwritten.
                continue;
            }
            let mut spans = vec![open.root(&names)];
            for &(i, e) in entries {
                e.expand(i == opened, &names, &mut spans);
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
            let open = &log[opened];
            view.traces.push(TraceData {
                trace_id: open.trace,
                label: names.get(open.leg),
                root: open.parent,
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

/// A hop's child span written as an entry of its own.
fn span_entry(ctx: &TraceContext, leg: u8, start_ms: TimeMs, end_ms: TimeMs) -> Entry {
    Entry::spanning(Kind::Span, ctx, SpanId::random(), leg, start_ms, end_ms)
}

/// An adoption: root `label` at `start_ms`, and span `name` to `end_ms`.
fn adopt_entry(ctx: &TraceContext, label: u8, name: u8, start_ms: TimeMs, end_ms: TimeMs) -> Entry {
    let mut entry = Entry::spanning(Kind::Adopt, ctx, SpanId::random(), label, start_ms, end_ms);
    entry.leg2 = name;
    entry
}

/// Escape a string for inclusion in a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
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
    fn spans_build_a_linked_timeline() {
        let (vclock, t) = tracer();
        let ctx = t.start_trace("task").unwrap();
        vclock.advance(5);
        t.record_span(Some(&ctx), "submit", 0, 5);
        vclock.advance(10);
        t.end_trace_with_span(Some(&ctx), "queue", 5, 15);
        t.annotate(Some(&ctx), || "redelivered".to_string());

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
        t.end_trace_with_span(Some(&ctx), "queue", 1, 3);

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
        t.end_trace_with_span(Some(&remote), "result", 9, 12);
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
        capped.end_trace_with_span(Some(&remote), "result", 2, 3);
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

    /// A ring whose thread writes one entry per trace stops at `capacity`
    /// slots; one whose thread writes several grows to twice that.
    #[test]
    fn a_ring_grows_past_capacity_only_for_a_thread_that_writes_a_trace_twice() {
        let cfg = TraceConfig {
            capacity: 256,
            ..TraceConfig::default()
        };
        let t = Tracer::new(VirtualClock::new(), cfg);
        let ring_len = |per_trace: usize| {
            let t = t.clone();
            std::thread::scope(|s| {
                s.spawn(|| {
                    for _ in 0..1000 {
                        let ctx = t.start_trace("task");
                        for _ in 1..per_trace {
                            t.record_span(ctx.as_ref(), "leg", 0, 1);
                        }
                    }
                    RINGS.with(|rings| rings.borrow().0[0].1.lock().entries.len())
                })
                .join()
                .unwrap()
            })
        };
        assert_eq!(ring_len(1), 256);
        assert_eq!(ring_len(2), 512);
        assert_eq!(ring_len(3), 512);
    }

    /// An entry stays small: the notes live out of line, a leg is an index
    /// and a hop's extra stamps are offsets, so a write moves 64 bytes and
    /// only an annotation allocates.
    #[test]
    fn an_entry_is_at_most_64_bytes() {
        assert!(size_of::<Entry>() <= 64, "{} bytes", size_of::<Entry>());
    }

    /// Each span as a reader compares it: ids aside.
    fn legs(td: &TraceData) -> Vec<(&'static str, Option<SpanId>, TimeMs, TimeMs)> {
        let spans = td.spans.iter();
        spans
            .map(|s| (s.name, s.parent, s.start_ms, s.end_ms))
            .collect()
    }

    /// A hop's one entry reads as the separate writes it stands for, stamps
    /// before its first included, and so does one whose stamps are too far
    /// apart for offsets (it is written split).
    #[test]
    fn a_hop_reads_as_the_writes_it_replaces() {
        for far in [0, 1 << 40] {
            let (hop, split) = (tracer().1, tracer().1);
            let ctx = hop.draw_trace().unwrap();
            let call = WireStamps {
                begin_ms: 2,
                mid_ms: 3,
                end_ms: 5 + far,
            };
            hop.open_submitted_over_wire(Some(&ctx), "task", 1, &call);
            // The Running report raced behind the result: execute ends first.
            hop.end_trace_landed(Some(&ctx), 8, 7 + far, 9 + far);
            let entries = if far == 0 { 2 } else { 6 };
            assert_eq!(hop.entries_written(), entries);

            split.open_trace(Some(&ctx), "task", 1);
            split.record_span(Some(&ctx), "submit", 1, 5 + far);
            split.record_span(Some(&ctx), "wire.send", 2, 3);
            split.record_span(Some(&ctx), "wire.await", 3, 5 + far);
            split.record_span(Some(&ctx), "execute", 8, 7 + far);
            split.end_trace_with_span(Some(&ctx), "result", 7 + far, 9 + far);
            let (hop, split) = (hop.trace(ctx.trace_id), split.trace(ctx.trace_id));
            let (hop, split) = (hop.unwrap(), split.unwrap());
            assert_eq!(legs(&hop), legs(&split));
            assert!(hop.orphan_spans().is_empty());
            let mut ids: Vec<SpanId> = hop.spans.iter().map(|s| s.id).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), hop.spans.len(), "{hop:?}");
        }
    }

    /// The wire server's hop: the first adoption's `submit`, and each
    /// re-sent batch's wire legs, as its separate writes read.
    #[test]
    fn an_adoption_over_a_wire_reads_as_its_separate_writes() {
        let (hop, split) = (tracer().1, tracer().1);
        let remote = TraceContext {
            trace_id: TraceId::random(),
            parent: SpanId::random(),
        };
        for (at, t) in [(0, &hop), (0, &split), (10, &hop), (10, &split)] {
            let call = WireStamps {
                begin_ms: at + 1,
                mid_ms: at + 2,
                end_ms: at + 4,
            };
            if std::ptr::eq(t, &hop) {
                t.adopt_trace_over_wire(&remote, "task", &call);
            } else {
                t.adopt_trace_with_span(&remote, "task", "submit", at + 2, at + 4);
                t.record_span(Some(&remote), "wire.decode", at + 1, at + 2);
                t.record_span(Some(&remote), "wire.queue", at + 2, at + 4);
            }
        }
        assert_eq!((hop.entries_written(), split.entries_written()), (2, 6));
        let (hop, split) = (
            hop.trace(remote.trace_id).unwrap(),
            split.trace(remote.trace_id),
        );
        assert_eq!(legs(&hop), legs(&split.unwrap()));
        assert_eq!(hop.spans_named("submit").count(), 1);
        assert_eq!(hop.spans_named("wire.queue").count(), 2);
        assert_eq!(hop.root_span().unwrap().start_ms, 2, "the first adoption's");
    }

    /// A drawn context writes nothing until its hop opens the trace, and
    /// sampling counts draws as it counts mints.
    #[test]
    fn a_drawn_trace_opens_with_its_first_hop() {
        let vclock = VirtualClock::new();
        let cfg = TraceConfig {
            sample_every: 2,
            ..TraceConfig::default()
        };
        let t = Tracer::new(vclock, cfg);
        let drawn: Vec<_> = (0..4).map(|_| t.draw_trace()).collect();
        assert_eq!(drawn.iter().filter(|c| c.is_some()).count(), 2);
        assert_eq!((t.entries_written(), t.trace_count()), (0, 0));
        t.open_submitted(drawn[0].as_ref(), "task", 3, 5);
        t.open_trace(drawn[2].as_ref(), "task", 4);
        let td = t.trace(drawn[0].unwrap().trace_id).unwrap();
        let submit = (Some(td.root), 3, 5);
        assert_eq!(
            legs(&td),
            [("task", None, 3, 3), ("submit", submit.0, 3, 5)]
        );
        assert_eq!(t.trace(drawn[2].unwrap().trace_id).unwrap().spans.len(), 1);
        assert_eq!(t.entries_written(), 2);
    }

    /// `dispatch` starts where the first delivery's `queue` leg ended, read
    /// from the log; with no `queue` leg it is empty at its end.
    #[test]
    fn a_span_after_queue_starts_where_the_first_queue_leg_ended() {
        let (_, t) = tracer();
        let ctx = t.start_trace("task").unwrap();
        t.record_span(Some(&ctx), "queue", 1, 4);
        t.record_span(Some(&ctx), "queue", 1, 6); // a redelivery
        t.record_span_after_queue(Some(&ctx), "dispatch", 9);
        let td = t.trace(ctx.trace_id).unwrap();
        let dispatch = td.spans_named("dispatch").next().unwrap();
        assert_eq!((dispatch.start_ms, dispatch.end_ms), (4, 9));
        assert_eq!(dispatch.parent, Some(ctx.parent));

        let bare = t.start_trace("task").unwrap();
        t.record_span_after_queue(Some(&bare), "dispatch", 7);
        let td = t.trace(bare.trace_id).unwrap();
        let dispatch = td.spans_named("dispatch").next().unwrap();
        assert_eq!((dispatch.start_ms, dispatch.end_ms), (7, 7));
        assert_eq!(t.entries_written(), 6, "a write is one entry");
    }
}
