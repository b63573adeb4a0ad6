//! A full batch ships at once: the executor's batcher parks on its pending
//! queue between passes, and the submit that fills a batch wakes it instead
//! of leaving the batch for the batcher's next 1 ms tick. A batch short of
//! full still waits for its window (here a minute, so only `close()` ships
//! one).
//!
//! `parking_lot::notifies_forwarded()` counts, process-wide, the notifies
//! that found a waiter, so this file is ONE `#[test]`: a second would race
//! it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use gcx_auth::AuthPolicy;
use gcx_cloud::WebService;
use gcx_core::clock::SystemClock;
use gcx_core::task::{TaskResult, TaskSpec};
use gcx_core::value::Value;
use gcx_sdk::{Executor, ExecutorConfig, Function, PyFunction, TaskFuture};
use parking_lot::notifies_forwarded;

const FULL: usize = 64;
const ROUNDS: usize = 60;

fn submit(ex: &Executor, f: &PyFunction, x: usize) -> TaskFuture {
    ex.submit(f, vec![Value::Int(x as i64)], Value::None)
        .unwrap()
}

fn median(mut v: Vec<Duration>) -> Duration {
    v.sort();
    v[v.len() / 2]
}

#[test]
fn the_submit_that_fills_a_batch_wakes_the_batcher() {
    let svc = WebService::with_defaults(SystemClock::shared());
    let (_, token) = svc.auth().login("batcher@site.org").unwrap();
    let reg = svc
        .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
        .unwrap();
    let ex = Executor::with_config(
        svc.clone(),
        token.clone(),
        reg.endpoint_id,
        ExecutorConfig {
            // Inside this test only a full batch, or close(), ships.
            batch_window: Duration::from_secs(60),
            max_batch: FULL,
            ..ExecutorConfig::default()
        },
    )
    .unwrap();
    let f = PyFunction::new("def f(x):\n    return x\n");
    let fid = ex.ensure_registered(f.body()).unwrap();
    let tracer = svc.metrics().tracer();
    let submitted = svc.metrics().counter("cloud.tasks_submitted");
    let requests = svc.metrics().counter("api.requests");
    let mut futures = Vec::new();

    // ---- nobody serves the endpoint: the parked batcher is the one waiter
    // a submit could wake. Each round times one batch straight into the
    // service (what the call itself costs: ≈ 0.35 ms in a debug build),
    // then fills one through the executor and times it from the filling
    // submit until the service has counted it.
    let (mut woken, mut direct, mut through) = (0, Vec::new(), Vec::new());
    let (mut shipped, requests_before) = (0, requests.get());
    for round in 1..=ROUNDS {
        let specs = (0..FULL)
            .map(|x| {
                let mut spec = TaskSpec::new(fid, reg.endpoint_id);
                spec.set_args(vec![Value::Int(x as i64)], Value::None);
                spec.trace = tracer.start_trace("task");
                spec
            })
            .collect();
        let t = Instant::now();
        svc.submit_batch(&token, specs).unwrap();
        direct.push(t.elapsed());
        shipped += FULL as u64;
        // Let the batcher finish the last round's call and park again.
        thread::sleep(Duration::from_millis(3));

        let before = notifies_forwarded();
        futures.extend((1..FULL).map(|x| submit(&ex, &f, x)));
        let filling = notifies_forwarded();
        assert_eq!(
            filling, before,
            "round {round}: a partial batch woke someone"
        );
        let t = Instant::now();
        futures.push(submit(&ex, &f, 0));
        let forwarded = notifies_forwarded() - filling;
        shipped += FULL as u64;
        while submitted.get() < shipped {
            assert!(
                t.elapsed() < Duration::from_secs(5),
                "round {round}: a full batch never shipped"
            );
            thread::yield_now();
        }
        through.push(t.elapsed());
        // 0 only when the filling push caught the batcher between its
        // tick and its next park, where it finds the batch by itself.
        assert!(
            forwarded <= 1,
            "round {round}: one push forwarded {forwarded}"
        );
        woken += forwarded;
    }
    assert!(
        woken >= (ROUNDS * 3 / 4) as u64,
        "the filling push woke the parked batcher in {woken} of {ROUNDS} rounds"
    );
    // Waiting for the tick would add 0.5 ms at the median.
    let (direct, through) = (median(direct), median(through));
    assert!(
        through < direct + Duration::from_micros(250),
        "a full batch landed {through:?} after its last submit, a direct call takes {direct:?} (medians)"
    );
    assert_eq!(
        requests.get() - requests_before,
        2 * ROUNDS as u64,
        "full batches only"
    );

    // ---- an endpoint answers now: four threads fill batches together ----
    let session = svc
        .connect_endpoint(reg.endpoint_id, &reg.queue_credential)
        .unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let responder = {
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                if let Ok(Some((spec, tag))) = session.next_task(Duration::from_millis(5)) {
                    let x = spec.decode_args().unwrap().0.remove(0);
                    session
                        .publish_result(spec.task_id, &TaskResult::ok(x))
                        .unwrap();
                    session.ack_task(tag).unwrap();
                }
            }
        })
    };
    for fut in &futures {
        fut.result_timeout(Duration::from_secs(30)).unwrap();
    }

    let (submitted_before, requests_before) = (submitted.get(), requests.get());
    let per_thread = 4 * FULL;
    thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let (ex, f) = (&ex, &f);
                s.spawn(move || {
                    (0..per_thread)
                        .map(|i| {
                            let x = t * per_thread + i;
                            (x, submit(ex, f, x))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (x, fut) in h.join().unwrap() {
                assert_eq!(
                    fut.result_timeout(Duration::from_secs(30)).unwrap(),
                    Value::Int(x as i64)
                );
            }
        }
    });
    assert_eq!(submitted.get() - submitted_before, 16 * FULL as u64);
    assert_eq!(
        requests.get() - requests_before,
        16,
        "only full batches ship under a minute-long window"
    );

    // ---- close() ships a partial batch before it returns ----------------
    let before = submitted.get();
    let partial: Vec<_> = (0..FULL / 4).map(|x| submit(&ex, &f, x)).collect();
    thread::sleep(Duration::from_millis(20));
    assert_eq!(submitted.get(), before, "a partial batch shipped early");
    ex.close();
    assert_eq!(submitted.get(), before + (FULL / 4) as u64);
    for (x, fut) in partial.iter().enumerate() {
        assert_eq!(
            fut.result_timeout(Duration::from_millis(100)).unwrap(),
            Value::Int(x as i64),
            "close() waits out the results of what it shipped"
        );
    }
    stop.store(true, Ordering::SeqCst);
    responder.join().unwrap();
    svc.shutdown();
}
