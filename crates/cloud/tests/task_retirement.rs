//! A task record has an end: once the executor that submitted a task
//! confirms it holds the result, the cold-path loop retires the record, and
//! the service then answers `TaskNotFound` for that id. These cases drive
//! the in-process executor; the wire executor's are pinned in the SDK's
//! executor tests. Nothing else confirms — a polling client, a `catch_up`
//! resolution and every federated replica keep today's records — and a
//! retired id is never sent again, so no tombstone is kept.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gcx_auth::{AuthPolicy, AuthService, Token};
use gcx_cloud::service::RESULT_QUEUE;
use gcx_cloud::{CloudConfig, EndpointRegistration, Federation, WebService};
use gcx_core::clock::SystemClock;
use gcx_core::error::GcxError;
use gcx_core::ids::TaskId;
use gcx_core::metrics::MetricsRegistry;
use gcx_core::retry::RetryPolicy;
use gcx_core::task::{TaskResult, TaskState};
use gcx_core::value::Value;
use gcx_mq::{Broker, LinkProfile};
use gcx_sdk::{Client, Executor, ExecutorConfig, PyFunction, TaskFuture};

const T: Duration = Duration::from_secs(30);

fn identity() -> PyFunction {
    PyFunction::new("def f(x):\n    return x\n")
}

/// An endpoint that answers every task with its first argument, on its own
/// thread, until dropped. A recording one remembers every task id it was
/// handed.
struct Echo {
    stop: Arc<AtomicBool>,
    seen: Arc<Mutex<Vec<TaskId>>>,
    thread: Option<JoinHandle<()>>,
}

impl Echo {
    fn start(svc: &WebService, reg: &EndpointRegistration) -> Self {
        Self::spawn(svc, reg, false)
    }

    fn recording(svc: &WebService, reg: &EndpointRegistration) -> Self {
        Self::spawn(svc, reg, true)
    }

    fn spawn(svc: &WebService, reg: &EndpointRegistration, record: bool) -> Self {
        let session = svc
            .connect_endpoint(reg.endpoint_id, &reg.queue_credential)
            .unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let thread = {
            let (stop, seen) = (stop.clone(), seen.clone());
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    let Ok(Some((spec, tag))) = session.next_task(Duration::from_millis(5)) else {
                        continue;
                    };
                    if record {
                        seen.lock().unwrap().push(spec.task_id);
                    }
                    let x = spec.decode_args().unwrap().0.swap_remove(0);
                    session
                        .publish_result(spec.task_id, &TaskResult::ok(x))
                        .unwrap();
                    session.ack_task(tag).unwrap();
                }
            })
        };
        Self {
            stop,
            seen,
            thread: Some(thread),
        }
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// A standalone service with one registered endpoint.
fn standalone(cfg: CloudConfig) -> (WebService, Token, EndpointRegistration) {
    let clock = SystemClock::shared();
    let broker = Broker::with_profile(
        MetricsRegistry::new(),
        clock.clone(),
        LinkProfile::instant(),
    );
    let svc = WebService::new(cfg, AuthService::new(clock.clone()), broker, clock);
    let (_, token) = svc.auth().login("retire@test.org").unwrap();
    let reg = svc
        .register_endpoint(&token, "echo", false, AuthPolicy::open(), None)
        .unwrap();
    (svc, token, reg)
}

fn resident(metrics: &MetricsRegistry) -> u64 {
    metrics.gauge("cloud.tasks_resident").get()
}

/// Wait until `cloud.tasks_resident` reads `want` (a cold-path pass sets
/// it at least every 25 ms).
fn await_resident(metrics: &MetricsRegistry, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while resident(metrics) != want {
        assert!(
            Instant::now() < deadline,
            "cloud.tasks_resident stuck at {}, want {want}",
            resident(metrics)
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn submit_all(ex: &Executor, n: i64) -> Vec<TaskFuture> {
    let f = identity();
    (0..n)
        .map(|i| ex.submit(&f, vec![Value::Int(i)], Value::None).unwrap())
        .collect()
}

fn resolve_all(futures: &[TaskFuture]) {
    for (i, f) in futures.iter().enumerate() {
        assert_eq!(
            f.result_timeout(T).unwrap(),
            Value::Int(i as i64),
            "task {i}"
        );
    }
}

fn not_found(r: Result<impl std::fmt::Debug, GcxError>) -> bool {
    matches!(r, Err(GcxError::TaskNotFound(_)))
}

/// (a) Every task an in-process executor resolved off its stream is
/// forgotten after one cold-path pass.
#[test]
fn executor_results_retire_and_later_queries_are_not_found() {
    let (svc, token, reg) = standalone(CloudConfig::default());
    let _echo = Echo::start(&svc, &reg);
    let ex = Executor::new(svc.clone(), token.clone(), reg.endpoint_id).unwrap();
    let mut ids = Vec::new();
    for _ in 0..16 {
        let futures = submit_all(&ex, 1024);
        resolve_all(&futures);
        ids.extend(futures.iter().map(TaskFuture::task_id));
    }
    await_resident(svc.metrics(), 0);
    let m = svc.metrics();
    assert_eq!(m.counter("cloud.results_processed").get(), 16 * 1024);
    for id in &ids {
        assert!(not_found(svc.task_status(&token, *id)), "{id} still held");
    }
    assert!(svc.task_status_batch(&token, &ids).unwrap().is_empty());
    assert!(not_found(svc.task_record(ids[0])));
    assert!(not_found(svc.cancel_task(&token, ids[0])));
    ex.close();
    svc.shutdown();
}

/// (b) A polling client shares the identity, and so the stream, with an
/// executor: its results are pushed to the executor too, but the executor
/// was not waiting for them, so they stay for the client to poll.
#[test]
fn a_polling_client_beside_an_executor_still_reads_every_result() {
    let (svc, token, reg) = standalone(CloudConfig::default());
    let _echo = Echo::start(&svc, &reg);
    let ex = Executor::new(svc.clone(), token.clone(), reg.endpoint_id).unwrap();
    let client = Client::new(svc.clone(), token.clone());
    let fid = client.register_function(&identity()).unwrap();
    let polled: Vec<TaskId> = (0..64)
        .map(|i| {
            client
                .run(fid, reg.endpoint_id, vec![Value::Int(i)], Value::None)
                .unwrap()
        })
        .collect();
    resolve_all(&submit_all(&ex, 512));
    let results = client
        .get_batch_results(&polled, Duration::from_millis(5), T)
        .unwrap();
    for (i, r) in results.into_iter().enumerate() {
        assert_eq!(r.unwrap(), Value::Int(i as i64));
    }
    await_resident(svc.metrics(), polled.len() as u64);
    for id in &polled {
        assert_eq!(svc.task_status(&token, *id).unwrap().0, TaskState::Success);
    }
    ex.close();
    svc.shutdown();
}

/// (c) A federation never retires: handover replay, adoption and
/// redirect-resends need records.
#[test]
fn federations_keep_their_records() {
    let fed = Federation::new(3, SystemClock::shared());
    let dir = fed.directory();
    let (_, token) = fed.auth().login("fed@test.org").unwrap();
    let r0 = dir.get(0).unwrap();
    let reg = r0
        .register_endpoint(&token, "echo", false, AuthPolicy::open(), None)
        .unwrap();
    let _echo = Echo::start(&r0, &reg);
    let ex = Executor::federated(
        dir.clone(),
        token,
        reg.endpoint_id,
        ExecutorConfig::default(),
    )
    .unwrap();
    let futures = submit_all(&ex, 256);
    resolve_all(&futures);
    // Replicas share one registry: the gauge reads the three stores' sum.
    await_resident(fed.metrics(), 256);
    for f in &futures {
        let owner = fed.owner_of(f.task_id().uuid()).unwrap();
        let record = dir.get(owner).unwrap().task_record(f.task_id()).unwrap();
        assert_eq!(record.state, TaskState::Success);
    }
    ex.close();
    fed.shutdown();
}

/// (d) A result that arrives for a retired id is the unknown-task drop:
/// nothing is pushed and nothing is counted as processed.
#[test]
fn a_result_for_a_retired_task_is_dropped_unseen() {
    let (svc, token, reg) = standalone(CloudConfig::default());
    let ids: Vec<TaskId> = {
        let _echo = Echo::start(&svc, &reg);
        let ex = Executor::new(svc.clone(), token.clone(), reg.endpoint_id).unwrap();
        let futures = submit_all(&ex, 8);
        resolve_all(&futures);
        ex.close();
        futures.iter().map(TaskFuture::task_id).collect()
    };
    await_resident(svc.metrics(), 0);
    let stream = svc.open_result_stream(&token).unwrap();
    let m = svc.metrics();
    let (processed, duplicates) = (
        m.counter("cloud.results_processed").get(),
        m.counter("cloud.duplicate_results_dropped").get(),
    );
    let session = svc
        .connect_endpoint(reg.endpoint_id, &reg.queue_credential)
        .unwrap();
    for id in &ids {
        session
            .publish_result(*id, &TaskResult::ok(Value::Int(-1)))
            .unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let q = svc.broker().queue_stats(RESULT_QUEUE).unwrap();
        if q.ready == 0 && q.unacked == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "results never drained");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(stream
        .consumer
        .next(Duration::from_millis(100))
        .unwrap()
        .is_none());
    assert_eq!(m.counter("cloud.results_processed").get(), processed);
    assert_eq!(
        m.counter("cloud.duplicate_results_dropped").get(),
        duplicates
    );
    assert!(not_found(svc.task_status(&token, ids[0])));
    svc.shutdown();
}

/// (e) The executor's stream is cut while its results land: every future
/// resolves through `catch_up`, and what `catch_up` resolved stays held.
#[test]
fn a_cut_stream_catches_up_and_keeps_what_it_polled() {
    let (svc, token, reg) = standalone(CloudConfig::default());
    let ex = Executor::with_config(
        svc.clone(),
        token.clone(),
        reg.endpoint_id,
        ExecutorConfig {
            // Long enough for every result to land before the reconnect.
            retry: RetryPolicy::fixed(5, 300),
            ..ExecutorConfig::default()
        },
    )
    .unwrap();
    let futures = submit_all(&ex, 64);
    let m = svc.metrics();
    let deadline = Instant::now() + T;
    while m.counter("cloud.tasks_submitted").get() < 64 {
        assert!(Instant::now() < deadline, "submissions never landed");
        std::thread::sleep(Duration::from_millis(2));
    }
    let stream_queue = svc
        .broker()
        .queue_names()
        .into_iter()
        .find(|n| n.starts_with("stream."))
        .expect("the executor holds a stream queue");
    svc.broker().delete_queue(&stream_queue).unwrap();
    let session = svc
        .connect_endpoint(reg.endpoint_id, &reg.queue_credential)
        .unwrap();
    for _ in 0..64 {
        let (spec, tag) = session.next_task(T).unwrap().expect("a submitted task");
        let x = spec.decode_args().unwrap().0.swap_remove(0);
        session
            .publish_result(spec.task_id, &TaskResult::ok(x))
            .unwrap();
        session.ack_task(tag).unwrap();
    }
    resolve_all(&futures);
    assert!(m.counter("sdk.stream_reconnects").get() >= 1);
    assert!(
        m.counter("cloud.status_polls").get() >= 1,
        "catch_up polled"
    );
    // A pass after the last confirm: what is held is what `catch_up` took.
    std::thread::sleep(Duration::from_millis(100));
    let held = futures
        .iter()
        .filter(|f| match svc.task_status(&token, f.task_id()) {
            Ok((state, _)) => {
                assert_eq!(state, TaskState::Success);
                true
            }
            Err(e) => {
                assert!(matches!(e, GcxError::TaskNotFound(_)), "{e:?}");
                false
            }
        })
        .count() as u64;
    assert!(held > 0, "some result was taken by catch_up");
    assert_eq!(resident(m), held);
    ex.close();
    svc.shutdown();
}

/// (f) Why no tombstone is needed: the in-process executor never sends an
/// id twice. A submit refused with a retryable error is resubmitted under
/// fresh ids; the refused attempt's records stay (nobody confirms them),
/// one per resubmission, and were the link to re-send such an id its task
/// would never run.
#[test]
fn a_refused_submit_is_resent_under_fresh_ids() {
    let (svc, token, reg) = standalone(CloudConfig {
        task_queue_depth: 4,
        ..CloudConfig::default()
    });
    let ex = Executor::with_config(
        svc.clone(),
        token.clone(),
        reg.endpoint_id,
        ExecutorConfig {
            max_batch: 4,
            retry: RetryPolicy::fixed(20, 5),
            ..ExecutorConfig::default()
        },
    )
    .unwrap();
    // Nobody drains the queue yet: past the first four, batches bounce.
    let futures = submit_all(&ex, 16);
    let m = svc.metrics();
    let resubmitted = m.counter("sdk.tasks_resubmitted");
    let deadline = Instant::now() + T;
    while resubmitted.get() == 0 {
        assert!(Instant::now() < deadline, "no submit was refused");
        std::thread::sleep(Duration::from_millis(2));
    }
    let echo = Echo::recording(&svc, &reg);
    resolve_all(&futures);
    let seen: Vec<TaskId> = echo.seen.lock().unwrap().clone();
    drop(echo);
    let distinct: HashSet<TaskId> = seen.iter().copied().collect();
    assert_eq!(distinct.len(), seen.len(), "the endpoint saw an id twice");
    assert_eq!(seen.len(), 16, "each task ran once");
    await_resident(m, resubmitted.get());
    for f in futures.iter().filter(|f| !distinct.contains(&f.task_id())) {
        let record = svc.task_record(f.task_id()).unwrap();
        assert_eq!(record.state, TaskState::Failed, "the refused attempt's");
    }
    ex.close();
    svc.shutdown();
}

/// The store stays at in-flight size under load: a minute of an executor
/// kept 4 096 tasks deep. Run with `--ignored`; prints what it saw.
#[test]
#[ignore = "a 60 s soak"]
fn soak_store_stays_at_in_flight_size() {
    const SOAK: Duration = Duration::from_secs(60);
    const DEPTH: usize = 4096;
    // The echo drain never heartbeats: keep the liveness sweep off it.
    let (svc, token, reg) = standalone(CloudConfig {
        heartbeat_timeout_ms: 600_000,
        ..CloudConfig::default()
    });
    let _echo = Echo::start(&svc, &reg);
    let ex = Executor::new(svc.clone(), token, reg.endpoint_id).unwrap();
    let f = identity();
    let rss_kib = || {
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        let line = status.lines().find(|l| l.starts_with("VmRSS:")).unwrap();
        line.split_whitespace()
            .nth(1)
            .unwrap()
            .parse::<u64>()
            .unwrap()
    };
    let start = Instant::now();
    let (mut window, mut done, mut worst, mut samples) = (Vec::new(), 0u64, 0i64, Vec::new());
    let mut next_sample = start;
    while start.elapsed() < SOAK {
        while window.len() < DEPTH {
            window.push(ex.submit(&f, vec![Value::Int(1)], Value::None).unwrap());
        }
        for fut in window.drain(..DEPTH / 2) {
            fut.result_timeout(T).unwrap();
            done += 1;
        }
        if Instant::now() >= next_sample {
            let rate = done as f64 / start.elapsed().as_secs_f64();
            // One cold-path pass is at most 25 ms of tasks (doubled: the
            // gauge lags by up to a pass).
            let bound = (DEPTH as f64 + rate * 0.050) as i64;
            worst = worst.max(resident(svc.metrics()) as i64 - bound);
            samples.push((
                start.elapsed().as_secs(),
                resident(svc.metrics()),
                rss_kib(),
            ));
            next_sample += Duration::from_secs(5);
        }
    }
    println!("(s, tasks_resident, rss KiB): {samples:?}");
    println!(
        "{done} tasks, {:.0}/s; worst excess over in-flight + one pass: {worst}",
        done as f64 / SOAK.as_secs_f64()
    );
    assert!(worst <= 0, "the store outgrew in-flight plus one pass");
    // Warm-up takes ≈ 10 s alone and up to ≈ 30 s on a shared host: judge
    // the second half.
    let warm = samples[samples.len() / 2].2;
    let last = samples.last().unwrap().2;
    assert!(
        last <= warm + warm / 10,
        "RSS grew after warm-up: {warm} → {last} KiB"
    );
    ex.close();
    svc.shutdown();
}
