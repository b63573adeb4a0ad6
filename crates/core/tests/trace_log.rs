//! The trace collector is a log: each thread appends to its own ring and a
//! read cuts all rings at once and assembles traces from the entries. These
//! tests drive it the way the task path does — a trace's spans written by
//! several threads, a reader running throughout — and pin what a read
//! promises: exact, whole, bounded.

use std::collections::HashSet;
use std::sync::mpsc;
use std::sync::{Arc, Barrier, Mutex};

use gcx_core::clock::VirtualClock;
use gcx_core::trace::{SpanId, TraceConfig, TraceContext, TraceData, TraceId, Tracer};

fn names(td: &TraceData) -> Vec<&'static str> {
    td.spans.iter().map(|s| s.name).collect()
}

/// Eight threads in a circle: each mints 2 000 traces and hands every one
/// to its neighbour, which records the rest of the lifecycle and ends it —
/// a pipeline, as the task path is: nobody runs more than 64 traces ahead.
/// A ring holds a fifth of what its thread writes, so they wrap throughout.
#[test]
fn concurrent_writers_and_a_reader_see_whole_traces_only() {
    const WRITERS: usize = 8;
    const TRACES: usize = 2000;
    let clock = VirtualClock::new();
    let cfg = TraceConfig {
        capacity: 512,
        ..TraceConfig::default()
    };
    let tracer = Tracer::new(clock.clone(), cfg.clone());
    // Contexts whose `end_trace` has returned, in that order.
    let ended: Arc<Mutex<Vec<TraceContext>>> = Arc::default();
    // Writers stay until the last read: an exited thread's ring is emptied
    // into the one retired ring, which eight full ones would overflow.
    let last_read = Arc::new(Barrier::new(WRITERS + 1));

    let (senders, receivers): (Vec<_>, Vec<_>) = (0..WRITERS)
        .map(|_| mpsc::sync_channel::<TraceContext>(64))
        .unzip();
    let mut senders: Vec<Option<_>> = senders.into_iter().map(Some).collect();
    let mut writers = Vec::new();
    for (i, inbox) in receivers.into_iter().enumerate() {
        let to_neighbour = senders[(i + 1) % WRITERS].take().unwrap();
        let (tracer, clock, ended) = (tracer.clone(), clock.clone(), ended.clone());
        let last_read = last_read.clone();
        writers.push(std::thread::spawn(move || {
            let finish = |ctx: TraceContext| {
                tracer.record_span(Some(&ctx), "queue", 1, 2);
                tracer.record_span(Some(&ctx), "result", 2, 3);
                clock.advance(1); // so a closed root reads closed
                tracer.end_trace(Some(&ctx));
                ended.lock().unwrap().push(ctx);
            };
            for _ in 0..TRACES {
                let mut ctx = tracer.start_trace("task").unwrap();
                tracer.record_span(Some(&ctx), "submit", 0, 1);
                while let Err(mpsc::TrySendError::Full(back)) = to_neighbour.try_send(ctx) {
                    ctx = back;
                    inbox.try_iter().for_each(&finish);
                    std::thread::yield_now();
                }
                inbox.try_iter().for_each(&finish);
            }
            drop(to_neighbour);
            inbox.iter().for_each(&finish);
            last_read.wait();
        }));
    }

    let check = |ended: &[TraceContext], traces: &[TraceData]| {
        assert!(traces.len() <= cfg.capacity, "{} traces", traces.len());
        let ended: HashSet<TraceId> = ended.iter().map(|ctx| ctx.trace_id).collect();
        for td in traces {
            assert!(td.orphan_spans().is_empty(), "orphans in {td:?}");
            let root = td.root_span().expect("a root");
            let closed = root.end_ms > root.start_ms;
            // Each span at most once, the root first, and never a later
            // leg without the earlier ones: a cut, not a sample.
            let legs = names(td);
            let whole = ["task", "submit", "queue", "result"];
            assert!(whole.starts_with(&legs) && !legs.is_empty(), "torn: {td:?}");
            if closed || ended.contains(&td.trace_id) {
                assert_eq!(legs, whole, "ended, yet: {td:?}");
                assert!(closed, "ended, yet open: {td:?}");
            }
        }
    };
    loop {
        // What had ended before the read began must be read as ended.
        let before = ended.lock().unwrap().clone();
        let traces = tracer.traces();
        check(&before, &traces);
        let legs = tracer.leg_summary();
        assert!(legs.values().all(|l| l.count <= cfg.capacity as u64));
        if before.len() == WRITERS * TRACES {
            // Nothing is being written any more, and there is something
            // to read: what was opened since the busiest ring's horizon.
            assert!(!traces.is_empty());
            break;
        }
    }
    assert_eq!(tracer.spans_overflowed(), 0);
    last_read.wait();
    for w in writers {
        w.join().unwrap();
    }
}

/// One thread's ring overflows long before the other's: a trace that lost
/// an entry there is evicted, never returned with a hole — while the
/// overflowing thread lives, and after it has exited.
#[test]
fn a_trace_that_lost_an_entry_to_an_overwrite_is_evicted_whole() {
    const LEGS: [&str; 6] = ["b1", "b2", "b3", "b4", "b5", "b6"];
    let clock = VirtualClock::new();
    let cfg = TraceConfig {
        capacity: 32, // rings of 128 entries
        ..TraceConfig::default()
    };
    let tracer = Tracer::new(clock.clone(), cfg);
    let (to_busy, inbox) = mpsc::channel::<TraceContext>();
    let (done, acks) = mpsc::channel::<()>();
    let busy = {
        let tracer = tracer.clone();
        std::thread::spawn(move || {
            for ctx in inbox {
                for leg in LEGS {
                    tracer.record_span(Some(&ctx), leg, 1, 2);
                }
                done.send(()).unwrap();
            }
        })
    };
    let whole = |minted: &[TraceContext]| {
        let traces = tracer.traces();
        assert!(!traces.is_empty() && traces.len() <= 32);
        for td in &traces {
            let mut legs = names(td);
            legs.sort_unstable();
            assert_eq!(legs, ["a", "b1", "b2", "b3", "b4", "b5", "b6", "task"]);
        }
        // The busy ring holds 128 entries, 6 a trace: most are gone.
        assert!(tracer.traces_evicted() >= minted.len() as u64 - 32);
        let newest = minted.last().unwrap().trace_id;
        assert!(traces.iter().any(|td| td.trace_id == newest));
    };
    let mut minted = Vec::new();
    for _ in 0..60 {
        clock.advance(1);
        let ctx = tracer.start_trace("task").unwrap();
        tracer.record_span(Some(&ctx), "a", 0, 1);
        to_busy.send(ctx).unwrap();
        acks.recv().unwrap();
        minted.push(ctx);
        if minted.len() > 40 {
            whole(&minted);
        }
    }
    drop(to_busy);
    busy.join().unwrap();
    whole(&minted);
}

/// One `submit` per trace per collector. In process the SDK and the
/// service share one: the SDK's mint is the root and its `submit` the only
/// one, however often the service adopts. Over the wire the server's
/// collector has only adoptions: the first one's span is the `submit`.
#[test]
fn one_submit_per_trace_in_process_and_over_the_wire() {
    let clock = VirtualClock::new();
    let on_thread = |f: &(dyn Fn() + Sync)| std::thread::scope(|s| s.spawn(f).join().unwrap());

    // In process.
    let shared = Tracer::new(clock.clone(), TraceConfig::default());
    let ctx = shared.start_trace("task").unwrap();
    let service_accepts = || shared.adopt_trace_with_span(&ctx, "task", "submit", 0, 1);
    clock.advance(1);
    on_thread(&service_accepts);
    shared.record_span(Some(&ctx), "submit", 0, 1); // the SDK's own
    on_thread(&service_accepts); // the batch re-sent on the same ids
    let td = shared.trace(ctx.trace_id).unwrap();
    assert_eq!(names(&td), ["task", "submit"]);
    assert_eq!(td.root_span().unwrap().start_ms, 0, "the mint's root");
    // An SDK retry under the same context: its `submit`, not the service's.
    shared.record_span(Some(&ctx), "submit", 1, 2);
    on_thread(&service_accepts);
    let td = shared.trace(ctx.trace_id).unwrap();
    assert_eq!(names(&td), ["task", "submit", "submit"]);
    assert_eq!(shared.trace_count(), 1);

    // Over the wire: the server's collector never saw the mint.
    let server = Tracer::new(clock.clone(), TraceConfig::default());
    let remote = TraceContext {
        trace_id: TraceId::random(),
        parent: SpanId::random(),
    };
    let accepts = |start_ms| server.adopt_trace_with_span(&remote, "task", "submit", start_ms, 9);
    on_thread(&|| accepts(1));
    clock.advance(1);
    accepts(2); // re-sent on another connection's thread
    on_thread(&|| accepts(3)); // and retried under the same context
    server.record_span(Some(&remote), "queue", 9, 10);
    let td = server.trace(remote.trace_id).unwrap();
    assert_eq!(names(&td), ["task", "submit", "queue"]);
    let submit = td.spans_named("submit").next().unwrap();
    assert_eq!((submit.start_ms, submit.parent), (1, Some(remote.parent)));
    assert_eq!(td.root_span().unwrap().start_ms, 1, "the first adoption's");
    assert_eq!(server.trace_count(), 1);
}
