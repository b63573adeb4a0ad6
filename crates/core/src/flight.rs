//! The black-box flight recorder: a fixed-size, lock-sharded ring buffer of
//! recent lifecycle / fault / admission / handover events.
//!
//! The trace collector (`gcx_core::trace`) answers "how long did each leg of
//! this task take" — but it is bounded and evicting, so by the time a chaos
//! assertion fires or an operator looks at a `QueueFull` storm, the traces
//! that explain it are often gone. The flight recorder is the complementary
//! postmortem instrument: every component records terse events into a small
//! ring (`SHARDS` × [`EVENTS_PER_SHARD`] entries) at near-zero cost, and the
//! whole ring is dumped — once per distinct reason — when something goes
//! wrong. Like an aircraft black box, it is always on and only read after
//! the crash.
//!
//! The recorder rides inside [`crate::metrics::MetricsRegistry`] exactly as
//! the [`crate::trace::Tracer`] does, so every component that already holds
//! a registry handle can record without new plumbing.
//!
//! Dump destinations: [`FlightRecorder::trigger`] writes the dump to stderr
//! and, when the `GCX_FLIGHT_DIR` environment variable names a directory,
//! to `<dir>/flight-<reason>-<ts>.jsonl` — CI uploads those files as
//! artifacts when a chaos job fails.

use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::trace::json_escape;

/// Number of independently-locked shards; recording threads spread across
/// them so the recorder never serializes hot components behind one lock.
pub(crate) const FLIGHT_SHARDS: usize = 8;

/// Events retained per shard; the whole recorder holds at most
/// `FLIGHT_SHARDS * EVENTS_PER_SHARD` of the most recent events.
pub(crate) const EVENTS_PER_SHARD: usize = 128;

/// One recorded event. `seq` totally orders events across shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Global sequence number (monotonic across the whole recorder).
    pub(crate) seq: u64,
    /// Wall/virtual-clock milliseconds supplied by the recording site.
    pub(crate) ts_ms: u64,
    /// Which component recorded this (`"cloud.admission"`, `"fed"`, …).
    pub component: &'static str,
    /// Short machine-readable event name (`"queue_full"`, `"handover"`, …).
    pub event: &'static str,
    /// Free-form detail (task ids, tenant names, counts).
    pub detail: String,
}

impl FlightEvent {
    /// One JSON object, no trailing newline.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"seq\":{},\"ts_ms\":{},\"component\":\"{}\",\"event\":\"{}\",\"detail\":\"{}\"}}",
            self.seq,
            self.ts_ms,
            json_escape(self.component),
            json_escape(self.event),
            json_escape(&self.detail)
        )
    }
}

#[derive(Default)]
struct FlightInner {
    shards: Vec<Mutex<VecDeque<FlightEvent>>>,
    seq: AtomicU64,
    /// Reasons that already produced a dump — each distinct reason fires at
    /// most once per process so an error storm cannot flood stderr/disk.
    triggered: Mutex<BTreeSet<String>>,
}

/// The recorder handle. Cloning shares the ring (it is an `Arc` inside);
/// `Default` yields an empty, ready-to-record instance.
#[derive(Clone)]
pub struct FlightRecorder {
    inner: Arc<FlightInner>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        let inner = FlightInner {
            shards: (0..FLIGHT_SHARDS)
                .map(|_| Mutex::new(VecDeque::with_capacity(EVENTS_PER_SHARD)))
                .collect(),
            seq: AtomicU64::new(0),
            triggered: Mutex::new(BTreeSet::new()),
        };
        Self {
            inner: Arc::new(inner),
        }
    }
}

impl FlightRecorder {
    /// Record one event. Cost: one atomic increment, one shard lock, one
    /// ring push (evicting the shard's oldest entry when full). Call sites
    /// are cold paths — faults, rejections, handovers, lifecycle edges —
    /// never per-task hot loops.
    pub fn record(
        &self,
        ts_ms: u64,
        component: &'static str,
        event: &'static str,
        detail: impl Into<String>,
    ) {
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        let shard = &self.inner.shards[(seq as usize) % FLIGHT_SHARDS];
        let mut ring = shard.lock();
        if ring.len() >= EVENTS_PER_SHARD {
            ring.pop_front();
        }
        ring.push_back(FlightEvent {
            seq,
            ts_ms,
            component,
            event,
            detail: detail.into(),
        });
    }

    /// All retained events, oldest first (totally ordered by `seq`).
    pub fn events(&self) -> Vec<FlightEvent> {
        let mut all: Vec<FlightEvent> = Vec::new();
        for shard in &self.inner.shards {
            all.extend(shard.lock().iter().cloned());
        }
        all.sort_by_key(|e| e.seq);
        all
    }

    /// The full ring as JSON lines (one event object per line, oldest
    /// first), suitable for writing straight to a `.jsonl` artifact.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for e in self.events() {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }

    /// Reasons that have already fired a dump.
    pub fn triggered_reasons(&self) -> Vec<String> {
        self.inner.triggered.lock().iter().cloned().collect()
    }

    /// Dump the ring because something went wrong.
    ///
    /// Fires at most once per distinct `reason` per process (an overload
    /// storm producing thousands of `QueueFull`s yields one dump, not
    /// thousands). The dump goes to stderr, and — when `GCX_FLIGHT_DIR`
    /// names a directory — to `<dir>/flight-<reason>-<ts_ms>.jsonl`.
    /// Returns `true` when this call produced the dump.
    pub fn trigger(&self, ts_ms: u64, reason: &str) -> bool {
        {
            let mut fired = self.inner.triggered.lock();
            if !fired.insert(reason.to_string()) {
                return false;
            }
        }
        let dump = self.dump();
        eprintln!(
            "[gcx-flight] dump triggered: reason={reason} ts_ms={ts_ms} events={}",
            dump.lines().count()
        );
        eprint!("{dump}");
        if let Ok(dir) = std::env::var("GCX_FLIGHT_DIR") {
            if !dir.is_empty() {
                let slug: String = reason
                    .chars()
                    .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
                    .collect();
                let path = std::path::Path::new(&dir).join(format!("flight-{slug}-{ts_ms}.jsonl"));
                // Best-effort: a failed artifact write must never take the
                // process down with it.
                if let Err(e) = std::fs::create_dir_all(&dir)
                    .and_then(|_| std::fs::write(&path, dump.as_bytes()))
                {
                    eprintln!("[gcx-flight] failed to write {}: {e}", path.display());
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_orders_events_across_shards() {
        let fr = FlightRecorder::default();
        for i in 0..50u64 {
            fr.record(i, "test", "tick", format!("n={i}"));
        }
        let events = fr.events();
        assert_eq!(events.len(), 50);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.ts_ms, i as u64);
        }
    }

    #[test]
    fn ring_is_bounded_and_keeps_the_newest() {
        let fr = FlightRecorder::default();
        let total = (FLIGHT_SHARDS * EVENTS_PER_SHARD * 3) as u64;
        for i in 0..total {
            fr.record(i, "test", "tick", "");
        }
        let events = fr.events();
        assert_eq!(events.len(), FLIGHT_SHARDS * EVENTS_PER_SHARD);
        // The retained window is exactly the newest events.
        assert_eq!(events.first().unwrap().seq, total - events.len() as u64);
        assert_eq!(events.last().unwrap().seq, total - 1);
    }

    #[test]
    fn dump_is_json_lines_and_escapes() {
        let fr = FlightRecorder::default();
        fr.record(7, "cloud.admission", "queue_full", "queue=\"tasks\"\nnext");
        let dump = fr.dump();
        assert_eq!(dump.lines().count(), 1);
        let line = dump.lines().next().unwrap();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\\\"tasks\\\""));
        assert!(line.contains("\\n"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn trigger_fires_once_per_reason() {
        let fr = FlightRecorder::default();
        fr.record(1, "test", "boom", "");
        assert!(fr.trigger(2, "queue_full"));
        assert!(!fr.trigger(3, "queue_full"), "same reason must not re-fire");
        assert!(fr.trigger(4, "handover"), "distinct reason fires");
        assert_eq!(
            fr.triggered_reasons(),
            vec!["handover".to_string(), "queue_full".to_string()]
        );
    }

    #[test]
    fn clones_share_one_ring() {
        let fr = FlightRecorder::default();
        let other = fr.clone();
        other.record(1, "test", "shared", "");
        assert_eq!(fr.events().len(), 1);
    }
}
