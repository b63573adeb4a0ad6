//! Harness-side spans: recorded around calls into the program's public
//! functions, kept in preallocated per-thread buffers, written out as JSONL
//! when the run ends. Nothing here reaches inside the program.

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::time::Instant;

/// Spans one thread may record in a run, so a long run cannot grow the
/// buffers without bound. The generator stops recording waves before this
/// is reached; a span that still does not fit is counted as dropped.
pub const SPANS_PER_THREAD: usize = 1 << 18;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    /// Task index within the run (wave number for a `wave` span).
    pub task: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u32,
}

/// What the generator tells the other harness threads: whether the current
/// wave records spans, and which wave span is their parent.
pub struct TraceCtl {
    pub on: AtomicBool,
    pub wave_span: AtomicU32,
    pub epoch: Instant,
}

impl TraceCtl {
    pub fn new() -> Self {
        Self {
            on: AtomicBool::new(false),
            wave_span: AtomicU32::new(0),
            epoch: Instant::now(),
        }
    }

    pub fn recording(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }
}

/// One thread's span buffer. Ids are `slot * SPANS_PER_THREAD + index + 1`,
/// so threads never share a counter.
pub struct SpanBuf {
    epoch: Instant,
    base: u32,
    pub spans: Vec<Span>,
    pub dropped: u64,
}

impl SpanBuf {
    pub fn new(epoch: Instant, slot: u32) -> Self {
        Self {
            epoch,
            base: slot * SPANS_PER_THREAD as u32 + 1,
            spans: Vec::with_capacity(SPANS_PER_THREAD),
            dropped: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span; returns its id (0 if the buffer is full).
    pub fn push(
        &mut self,
        name: &'static str,
        task: u32,
        start: Instant,
        end: Instant,
        parent: u32,
    ) -> u32 {
        if self.spans.len() == SPANS_PER_THREAD {
            self.dropped += 1;
            return 0;
        }
        let id = self.base + self.spans.len() as u32;
        self.spans.push(Span {
            id,
            name,
            task,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
        });
        id
    }

    /// Set the end of a span pushed earlier (a parent closes after its
    /// children are recorded).
    pub fn close(&mut self, id: u32, end: Instant) {
        if let Some(i) = id.checked_sub(self.base) {
            let end_ns = self.ns(end);
            if let Some(span) = self.spans.get_mut(i as usize) {
                span.end_ns = end_ns;
            }
        }
    }
}

/// A span's self time: its duration minus the part of that interval its
/// children cover (children on different threads may overlap each other).
pub fn self_time_ns(parent: &Span, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = parent.start_ns;
    for &(start, end) in children.iter() {
        let start = start.max(cursor);
        let end = end.min(parent.end_ns);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    (parent.end_ns - parent.start_ns).saturating_sub(covered)
}

/// Write every span as one JSON object per line.
pub fn write_jsonl(path: &std::path::Path, bufs: &[&SpanBuf]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for buf in bufs {
        for s in &buf.spans {
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"task\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.id, s.name, s.task, s.start_ns, s.end_ns, s.parent
            )?;
        }
    }
    out.flush()
}
