//! Chaos tests: demand faults. A hot tenant floods the service, queues run
//! into their configured bounds, tasks carry deadlines they cannot meet —
//! and the overload machinery (admission control, typed backpressure,
//! brownout shedding, TTL expiry) must degrade the service *gracefully*.
//!
//! The acceptance bar mirrors `chaos_recovery.rs`: every submission either
//! completes exactly once or fails with a *typed, actionable* error
//! (`Overloaded { retry_after_ms }`, `QueueFull`, `DeadlineExceeded`) — no
//! hangs, no silent drops, no untyped failures, and an innocent quiet
//! tenant is never starved by someone else's flood.
//!
//! Environment knobs (the CI matrix):
//! - `GCX_CHAOS_SEED` — decimal or `0x`-hex seed for the workload shape;
//! - `GCX_CHAOS_ENGINE` — `GlobusComputeEngine` (default) or `ThreadEngine`;
//! - `GCX_CHAOS_ADMISSION` — `on` (default) or `off`: the soak runs in both
//!   modes; with admission off the typed-rejection assertions relax to
//!   "everything completes" (nothing is ever shed).

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gcx::auth::{AuthPolicy, AuthService};
use gcx::cloud::{AdmissionConfig, CloudConfig, WebService};
use gcx::config::AdmissionSpec;
use gcx::core::clock::{SharedClock, SystemClock, VirtualClock};
use gcx::core::error::GcxError;
use gcx::core::metrics::MetricsRegistry;
use gcx::core::retry::RetryPolicy;
use gcx::core::task::{TaskSpec, TaskState};
use gcx::core::value::Value;
use gcx::endpoint::{AgentEnv, EndpointAgent, EndpointConfig};
use gcx::mq::{Broker, LinkProfile};
use gcx::sdk::{Client, Executor, ExecutorConfig, PyFunction};

fn chaos_seed() -> u64 {
    common::chaos_seed(0xC4A0_5EED)
}

fn admission_on() -> bool {
    std::env::var("GCX_CHAOS_ADMISSION").as_deref() != Ok("off")
}

fn engine_yaml() -> &'static str {
    match std::env::var("GCX_CHAOS_ENGINE").as_deref() {
        Ok("ThreadEngine") => "engine:\n  type: ThreadEngine\n  workers: 2\n",
        _ => "engine:\n  type: GlobusComputeEngine\n  workers_per_node: 2\n",
    }
}

/// splitmix64: the workload generator. Deterministic per seed so a CI
/// failure reproduces locally with the same `GCX_CHAOS_SEED`.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn real_service(admission: AdmissionConfig) -> WebService {
    let clock: SharedClock = SystemClock::shared();
    let cfg = CloudConfig {
        admission,
        ..CloudConfig::default()
    };
    let broker = Broker::with_profile(
        MetricsRegistry::new(),
        clock.clone(),
        LinkProfile::instant(),
    );
    WebService::new(cfg, AuthService::new(clock.clone()), broker, clock)
}

/// The YAML `admission:` block is the operator's interface, and the type
/// it parses into is the one the service takes: a new knob cannot exist in
/// one and not the other.
#[test]
fn admission_spec_maps_field_for_field_onto_admission_config() {
    let cfg: AdmissionConfig = AdmissionSpec::from_yaml(
        "admission:\n  enabled: true\n  rate_per_sec: 42\n  burst: 7\n  max_inflight: 3\n  retry_after_cap_ms: 900\n  brownout_threshold_ms: 1500\n  brownout_min_priority: 2\n",
    )
    .unwrap();
    assert_eq!(
        cfg,
        AdmissionConfig {
            enabled: true,
            rate_per_sec: 42,
            burst: 7,
            max_inflight: 3,
            retry_after_cap_ms: 900,
            brownout_threshold_ms: 1500,
            brownout_min_priority: 2,
        }
    );

    // And the mapped config actually governs the service: burst 7 admits
    // exactly 7 back-to-back submissions on a frozen clock.
    let vclock = VirtualClock::new();
    let clock: SharedClock = vclock.clone();
    let broker = Broker::with_profile(
        MetricsRegistry::new(),
        clock.clone(),
        LinkProfile::instant(),
    );
    let svc = WebService::new(
        CloudConfig {
            admission: cfg,
            ..CloudConfig::default()
        },
        AuthService::new(clock.clone()),
        broker,
        clock,
    );
    let (_, token) = svc.auth().login("spec@x.y").unwrap();
    let fid = svc
        .register_function(
            &token,
            gcx::core::function::FunctionBody::pyfn("def f():\n    return 1\n"),
        )
        .unwrap();
    let reg = svc
        .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
        .unwrap();
    // max_inflight 3 is the binding limit here (burst 7 > inflight 3).
    for _ in 0..3 {
        svc.submit_task(&token, TaskSpec::new(fid, reg.endpoint_id))
            .unwrap();
    }
    let err = svc
        .submit_task(&token, TaskSpec::new(fid, reg.endpoint_id))
        .unwrap_err();
    assert!(matches!(err, GcxError::Overloaded { .. }));
    svc.shutdown();
}

/// Flood an *offline* endpoint's bounded task queue. The bound must hold
/// exactly: `depth` tasks buffer, every publish past it fails with a typed
/// retryable `QueueFull`, and the rejected submissions leave no live
/// records behind (nothing to drain beyond the bound, no hung tasks).
#[test]
fn bounded_task_queue_rejects_flood_with_typed_queue_full() {
    const DEPTH: usize = 8;
    const FLOOD: usize = 30;
    let clock: SharedClock = SystemClock::shared();
    let cfg = CloudConfig {
        task_queue_depth: DEPTH,
        ..CloudConfig::default()
    };
    let broker = Broker::with_profile(
        MetricsRegistry::new(),
        clock.clone(),
        LinkProfile::instant(),
    );
    let svc = WebService::new(cfg, AuthService::new(clock.clone()), broker, clock);
    let (_, token) = svc.auth().login("flood@x.y").unwrap();
    let client = Client::new(svc.clone(), token.clone());
    let fid = client
        .register_function(&PyFunction::new("def f():\n    return 1\n"))
        .unwrap();
    let reg = svc
        .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
        .unwrap();

    let mut accepted = Vec::new();
    let mut rejected = 0usize;
    for _ in 0..FLOOD {
        match client.run(fid, reg.endpoint_id, vec![], Value::None) {
            Ok(id) => accepted.push(id),
            Err(GcxError::QueueFull { queue }) => {
                assert!(queue.contains("tasks."), "bound hit on the task queue");
                assert!(
                    GcxError::QueueFull { queue }.is_retryable(),
                    "backpressure must be retryable"
                );
                rejected += 1;
            }
            Err(other) => panic!("expected typed QueueFull, got {other}"),
        }
    }
    assert_eq!(accepted.len(), DEPTH, "the bound admits exactly its depth");
    assert_eq!(rejected, FLOOD - DEPTH);
    let depth_gauge = svc
        .metrics()
        .gauge(&format!("mq.depth.tasks.{}", reg.endpoint_id));
    assert_eq!(depth_gauge.get(), DEPTH as u64, "gauge tracks the bound");

    // Rejected submissions are terminal (typed retryable failure), not
    // orphaned live records a sweep or an operator would find dangling.
    let live: usize = accepted
        .iter()
        .filter(|id| {
            let (state, _) = client.task_status(**id).unwrap();
            !state.is_terminal()
        })
        .count();
    assert_eq!(live, DEPTH, "exactly the buffered tasks are live");

    // The endpoint comes online and drains exactly DEPTH tasks; the flood
    // never exceeded the bound inside the broker.
    let config = EndpointConfig::from_yaml(engine_yaml()).unwrap();
    let agent = EndpointAgent::start(
        &svc,
        reg.endpoint_id,
        &reg.queue_credential,
        &config,
        AgentEnv::local(SystemClock::shared()),
    )
    .unwrap();
    for id in &accepted {
        client
            .get_result(*id, Duration::from_millis(5), Duration::from_secs(10))
            .unwrap();
    }
    assert_eq!(
        svc.metrics().counter("cloud.results_processed").get(),
        DEPTH as u64
    );
    agent.stop();
    svc.shutdown();
}

/// The headline soak: a hot tenant floods a live stack through the
/// `Executor` while a quiet tenant trickles. With admission on, the hot
/// tenant is throttled with typed `Overloaded` + `retry_after_ms` hints
/// that the SDK's retry loop honors; with it off nothing is shed. In both
/// modes every future resolves exactly once and the quiet tenant's work
/// all succeeds.
#[test]
fn hot_tenant_flood_resolves_exactly_once_and_never_starves_quiet_tenant() {
    let admission = AdmissionConfig {
        enabled: admission_on(),
        rate_per_sec: 5_000,
        burst: 5_000,
        // The binding limit: the hot tenant may hold at most 12 live tasks.
        max_inflight: 12,
        retry_after_cap_ms: 200,
        // Brownout is exercised separately on a virtual clock; a wall-clock
        // lag trigger would make this test machine-speed dependent.
        brownout_threshold_ms: 0,
        ..AdmissionConfig::default()
    };
    let svc = real_service(admission);
    let (_, hot_token) = svc.auth().login("hot@soak.org").unwrap();
    let (_, quiet_token) = svc.auth().login("quiet@soak.org").unwrap();
    let reg = svc
        .register_endpoint(&hot_token, "ep", false, AuthPolicy::open(), None)
        .unwrap();
    let config = EndpointConfig::from_yaml(engine_yaml()).unwrap();
    let agent = EndpointAgent::start(
        &svc,
        reg.endpoint_id,
        &reg.queue_credential,
        &config,
        AgentEnv::local(SystemClock::shared()),
    )
    .unwrap();

    let mut rng = Rng(chaos_seed());
    // A generous budget: the point is typed pushback + eventual completion,
    // not exhaustion. Exhaustion resolving typed `Overloaded` is still a
    // pass for the tally below.
    let retry = RetryPolicy {
        max_attempts: 12,
        base_ms: 5,
        max_ms: 250,
        jitter: 0.2,
        seed: rng.next(),
    };
    let hot = Executor::with_config(
        svc.clone(),
        hot_token,
        reg.endpoint_id,
        ExecutorConfig {
            retry: retry.clone(),
            // Admission is all-or-nothing per batch: keep batches under the
            // 12-task quota so throttled work can be re-admitted as the
            // endpoint drains, instead of one 60-task batch that never fits.
            max_batch: 4,
            ..ExecutorConfig::default()
        },
    )
    .unwrap();
    let quiet = Executor::with_config(
        svc.clone(),
        quiet_token,
        reg.endpoint_id,
        ExecutorConfig {
            retry,
            ..ExecutorConfig::default()
        },
    )
    .unwrap();

    // Each hot task holds a worker for a few ms so the tenant's in-flight
    // count genuinely builds past its quota.
    let busy = PyFunction::new("def f(t):\n    sleep(t)\n    return 'hot'\n");
    let ping = PyFunction::new("def f():\n    return 'quiet'\n");
    let resolutions = Arc::new(AtomicUsize::new(0));
    let mut hot_futures = Vec::new();
    for _ in 0..60 {
        let hold_ms = 5 + rng.below(15);
        let fut = hot
            .submit(
                &busy,
                vec![Value::Float(hold_ms as f64 / 1000.0)],
                Value::None,
            )
            .unwrap();
        let r = Arc::clone(&resolutions);
        fut.on_done(move |_| {
            r.fetch_add(1, Ordering::SeqCst);
        });
        hot_futures.push(fut);
        if rng.below(4) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let mut quiet_futures = Vec::new();
    for _ in 0..8 {
        quiet_futures.push(quiet.submit(&ping, vec![], Value::None).unwrap());
        std::thread::sleep(Duration::from_millis(2));
    }

    // The quiet tenant is untouched by the hot tenant's quota pressure.
    for fut in &quiet_futures {
        let v = fut.result_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(v, Value::str("quiet"));
    }
    // Every hot future resolves: success, or a typed overload rejection
    // after the retry budget — never a hang, never an untyped error.
    let mut completed = 0usize;
    let mut shed = 0usize;
    for fut in &hot_futures {
        match fut.result_timeout(Duration::from_secs(60)) {
            Ok(v) => {
                assert_eq!(v, Value::str("hot"));
                completed += 1;
            }
            Err(GcxError::Overloaded { retry_after_ms }) => {
                assert!(retry_after_ms >= 1);
                shed += 1;
            }
            Err(other) => panic!("untyped failure under overload: {other}"),
        }
    }
    assert_eq!(completed + shed, 60);

    // Exactly-once: the on_done tally equals the futures resolved; no
    // double resolution from the retry machinery.
    let deadline = Instant::now() + Duration::from_secs(2);
    while resolutions.load(Ordering::SeqCst) < 60 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(resolutions.load(Ordering::SeqCst), 60);

    let rejected = svc
        .metrics()
        .counter("cloud.submits_rejected_overload")
        .get();
    let backoffs = svc.metrics().counter("sdk.overload_backoffs").get();
    if admission_on() {
        assert!(
            rejected > 0,
            "60 slow tasks against a 12-task quota must push back"
        );
        assert!(
            backoffs > 0,
            "the SDK saw Overloaded and stretched its backoff to the hint"
        );
    } else {
        assert_eq!(rejected, 0, "admission off sheds nothing");
        assert_eq!(shed, 0, "every task completes when nothing is shed");
    }
    hot.close();
    quiet.close();
    agent.stop();
    svc.shutdown();
}

/// Brownout under a seeded mixed-priority burst: once dispatch lag crosses
/// the threshold, *only* sub-threshold-priority traffic is shed, and every
/// rejection carries a retry hint bounded by the configured cap.
#[test]
fn brownout_sheds_exactly_the_low_priority_traffic() {
    let vclock = VirtualClock::new();
    let clock: SharedClock = vclock.clone();
    let broker = Broker::with_profile(
        MetricsRegistry::new(),
        clock.clone(),
        LinkProfile::instant(),
    );
    let svc = WebService::new(
        CloudConfig {
            admission: AdmissionConfig {
                enabled: true,
                rate_per_sec: 1_000_000,
                burst: 1_000_000,
                max_inflight: 0,
                retry_after_cap_ms: 700,
                brownout_threshold_ms: 1_000,
                brownout_min_priority: 3,
            },
            ..CloudConfig::default()
        },
        AuthService::new(clock.clone()),
        broker,
        clock,
    );
    let (_, token) = svc.auth().login("mixed@x.y").unwrap();
    let fid = svc
        .register_function(
            &token,
            gcx::core::function::FunctionBody::pyfn("def f():\n    return 1\n"),
        )
        .unwrap();
    let reg = svc
        .register_endpoint(&token, "dead-ep", false, AuthPolicy::open(), None)
        .unwrap();

    // One task buffers on the never-connecting endpoint; lag builds.
    svc.submit_task(&token, TaskSpec::new(fid, reg.endpoint_id))
        .unwrap();
    vclock.advance(1_500);
    svc.check_expiry();
    assert!(svc.brownout_active());

    let mut rng = Rng(chaos_seed() ^ 0xB120_0000);
    let mut shed = 0u64;
    let mut admitted = 0u64;
    for _ in 0..40 {
        let mut spec = TaskSpec::new(fid, reg.endpoint_id);
        spec.priority = rng.below(6) as i64; // 0..=5 around the threshold of 3
        let low = spec.priority < 3;
        match svc.submit_task(&token, spec) {
            Ok(_) => {
                assert!(!low, "brownout must shed everything below priority 3");
                admitted += 1;
            }
            Err(GcxError::Overloaded { retry_after_ms }) => {
                assert!(low, "priority >= 3 must keep flowing during brownout");
                assert!(
                    (1..=700).contains(&retry_after_ms),
                    "hint within the configured cap: {retry_after_ms}"
                );
                shed += 1;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert_eq!(shed + admitted, 40);
    assert!(shed > 0 && admitted > 0, "seeded mix crosses the threshold");
    assert_eq!(
        svc.metrics().counter("cloud.tasks_shed_brownout").get(),
        shed
    );
    svc.shutdown();
}

/// Deadlines hold end-to-end on a *real* clock: a task buffered on an
/// offline endpoint expires via the background sweep with a terminal,
/// typed `DeadlineExceeded` — no caller-side polling logic required.
#[test]
fn buffered_task_past_ttl_expires_with_typed_deadline_error() {
    let svc = real_service(AdmissionConfig::default());
    let (_, token) = svc.auth().login("ttl@x.y").unwrap();
    let client = Client::new(svc.clone(), token.clone());
    let fid = client
        .register_function(&PyFunction::new("def f():\n    return 1\n"))
        .unwrap();
    let reg = svc
        .register_endpoint(&token, "offline", false, AuthPolicy::open(), None)
        .unwrap();
    let mut spec = TaskSpec::new(fid, reg.endpoint_id);
    spec.deadline_ms = Some(100);
    let id = svc.submit_task(&token, spec).unwrap();

    // The background sweep (25 ms cadence) expires it shortly after the TTL.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (state, result) = client.task_status(id).unwrap();
        if state == TaskState::Cancelled {
            let result = result.expect("expired task carries a result");
            assert!(result.is_deadline_err());
            assert_eq!(
                result.into_result().unwrap_err(),
                GcxError::DeadlineExceeded(id)
            );
            break;
        }
        assert!(Instant::now() < deadline, "TTL never enforced");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(svc.metrics().counter("cloud.tasks_expired").get(), 1);
    svc.shutdown();
}

/// A *running* task past its deadline is killed inside the engine (the
/// worker's slot is reclaimed) while the cloud sweep lands the typed
/// expiry — and the endpoint immediately serves new work again.
#[test]
fn running_task_past_deadline_is_killed_and_worker_recovers() {
    let svc = real_service(AdmissionConfig::default());
    let (_, token) = svc.auth().login("kill@x.y").unwrap();
    let client = Client::new(svc.clone(), token.clone());
    let reg = svc
        .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
        .unwrap();
    let env = AgentEnv::local(SystemClock::shared());
    let engine_metrics = env.metrics.clone();
    let config = EndpointConfig::from_yaml(engine_yaml()).unwrap();
    let agent =
        EndpointAgent::start(&svc, reg.endpoint_id, &reg.queue_credential, &config, env).unwrap();

    // Holds a worker for 1.2 s against a 150 ms deadline.
    let slow = client
        .register_function(&PyFunction::new(
            "def f():\n    sleep(1.2)\n    return 'late'\n",
        ))
        .unwrap();
    let quick = client
        .register_function(&PyFunction::new("def f():\n    return 'ok'\n"))
        .unwrap();
    let mut spec = TaskSpec::new(slow, reg.endpoint_id);
    spec.deadline_ms = Some(150);
    let doomed = svc.submit_task(&token, spec).unwrap();

    let err = client
        .get_result(doomed, Duration::from_millis(5), Duration::from_secs(10))
        .unwrap_err();
    assert_eq!(err, GcxError::DeadlineExceeded(doomed));
    // Two typed expiry paths race: the cloud sweep (Cancelled) and the
    // engine's kill result (Failed). Either way the record is terminal
    // with the deadline error — never a plain untyped failure.
    let (state, result) = client.task_status(doomed).unwrap();
    assert!(matches!(state, TaskState::Cancelled | TaskState::Failed));
    assert!(result.unwrap().is_deadline_err());

    // The engine's own kill fired (backlog or in-flight), reclaiming the
    // slot rather than letting the sleep run to completion unsupervised.
    let deadline = Instant::now() + Duration::from_secs(5);
    let kind = if engine_yaml().contains("ThreadEngine") {
        "thread"
    } else {
        "htex"
    };
    while engine_metrics
        .counter(&format!("{kind}.deadline_kills"))
        .get()
        == 0
    {
        assert!(Instant::now() < deadline, "engine never killed the task");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Fresh work flows immediately after the kill.
    let sentinel = client
        .run(quick, reg.endpoint_id, vec![], Value::None)
        .unwrap();
    let v = client
        .get_result(sentinel, Duration::from_millis(5), Duration::from_secs(10))
        .unwrap();
    assert_eq!(v, Value::str("ok"));

    agent.stop();
    svc.shutdown();
}
