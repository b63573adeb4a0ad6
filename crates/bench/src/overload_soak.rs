//! E13 — overload soak: graceful load shedding vs unprotected meltdown.
//!
//! A hot tenant floods the stack through the `Executor` (small sleeps so
//! in-flight work genuinely accumulates) while a quiet tenant sends
//! latency probes through the polling `Client`. Two legs:
//!
//! - **unprotected**: admission off — every submission is accepted and
//!   buffers in front of the workers; the quiet tenant's probes queue
//!   behind the entire flood.
//! - **admission**: per-tenant in-flight quotas + token buckets on — the
//!   hot tenant is throttled with typed `Overloaded { retry_after_ms }`
//!   rejections its SDK retry loop honors, bounding the backlog the quiet
//!   tenant's probes sit behind.
//!
//! Both legs also submit a slice of tasks with deadlines they cannot meet.
//! Every one of them must end `DeadlineExceeded`, whichever sweep or
//! finish catches it, and every hot task must succeed or be shed with a
//! typed `Overloaded`: both are asserted.
//!
//! The quantities of interest: hot-tenant goodput (completions/s — shed
//! tasks are not good work), quiet-tenant probe p50/p99, shed and expired
//! counts. Expected shape: admission trades a slice of the hot tenant's
//! completions for a quiet-tenant p99 bounded by the in-flight cap rather
//! than by the whole flood's backlog.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gcx_cloud::{AdmissionConfig, CloudConfig};
use gcx_core::error::GcxError;
use gcx_core::retry::RetryPolicy;
use gcx_core::task::TaskSpec;
use gcx_core::value::Value;
use gcx_mq::LinkProfile;
use gcx_sdk::{Client, Executor, ExecutorConfig, PyFunction};
use rand::{Rng, SeedableRng};

use crate::{row, BenchStack, Row};

pub(crate) fn run(smoke: bool, rep: u64) -> Vec<Row> {
    let (tasks, probes) = if smoke { (80, 10) } else { (400, 24) };
    [("unprotected", false), ("admission", true)]
        .into_iter()
        .map(|(leg, on)| run_leg(leg, on, tasks, probes, 0x50AC + rep))
        .collect()
}

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return f64::NAN;
    }
    sorted_ms[((sorted_ms.len() - 1) as f64 * q).round() as usize]
}

fn run_leg(leg: &str, admission_on: bool, tasks: usize, probes: usize, seed: u64) -> Row {
    let admission = AdmissionConfig {
        enabled: admission_on,
        rate_per_sec: 10_000,
        burst: 10_000,
        max_inflight: 32,
        retry_after_cap_ms: 100,
        brownout_threshold_ms: 0,
        ..AdmissionConfig::default()
    };
    let config = CloudConfig {
        admission,
        ..CloudConfig::default()
    };
    // The engine's deadline kills count in the cloud's registry.
    let engine = "engine:\n  type: ThreadEngine\n  workers: 4\n";
    let stack = BenchStack::build(engine, config, LinkProfile::instant(), |cloud, env| {
        env.metrics = cloud.metrics().clone();
    });
    let (cloud, ep) = (&stack.cloud, stack.endpoint);
    let (_, quiet_token) = cloud.auth().login("quiet@soak.dev").unwrap();
    let hot = Executor::with_config(
        cloud.clone(),
        stack.token.clone(),
        ep,
        ExecutorConfig {
            retry: RetryPolicy {
                max_attempts: 10,
                base_ms: 5,
                max_ms: 120,
                jitter: 0.2,
                seed: 13,
            },
            max_batch: 16,
            ..ExecutorConfig::default()
        },
    )
    .unwrap();
    let hot_client = Client::new(cloud.clone(), stack.token.clone());
    let busy = PyFunction::new("def f(t):\n    sleep(t)\n    return 1\n");
    let busy_fid = hot_client.register_function(&busy).unwrap();
    let quiet = Client::new(cloud.clone(), quiet_token);
    let probe_fid = quiet
        .register_function(&PyFunction::new("def f():\n    return 1\n"))
        .unwrap();

    // Quiet tenant: latency probes spread across the whole flood window.
    let stop = Arc::new(AtomicBool::new(false));
    let prober = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut latencies_ms = Vec::with_capacity(probes);
            for _ in 0..probes {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let t0 = Instant::now();
                let id = quiet.run(probe_fid, ep, vec![], Value::None).unwrap();
                quiet
                    .get_result(id, Duration::from_millis(1), Duration::from_secs(60))
                    .unwrap();
                latencies_ms.push(t0.elapsed().as_secs_f64() * 1000.0);
                std::thread::sleep(Duration::from_millis(10));
            }
            latencies_ms
        })
    };

    // Hot tenant: the flood. Every 8th task carries a 1 ms deadline
    // against a multi-ms sleep, which it can never meet.
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let start = Instant::now();
    let mut futures = Vec::with_capacity(tasks);
    let mut doomed = Vec::new();
    for i in 0..tasks {
        let hold = vec![Value::Float((2 + rng.gen_range(0..8)) as f64 / 1000.0)];
        if i % 8 == 7 {
            let mut spec = TaskSpec::new(busy_fid, ep);
            spec.deadline_ms = Some(1);
            spec.set_args(hold, Value::None);
            if let Ok(id) = hot_client.run_spec(spec) {
                doomed.push(id);
            }
            continue;
        }
        futures.push(hot.submit(&busy, hold, Value::None).unwrap());
    }
    let mut completed = 0u64;
    let mut shed = 0u64;
    for fut in &futures {
        match fut.result_timeout(Duration::from_secs(120)) {
            Ok(_) => completed += 1,
            Err(GcxError::Overloaded { .. }) => shed += 1,
            Err(e) => panic!("untyped failure in soak: {e}"),
        }
    }
    let elapsed_ms = start.elapsed().as_secs_f64() * 1000.0;
    stop.store(true, Ordering::SeqCst);
    let mut latencies = prober.join().expect("prober thread");
    latencies.sort_by(f64::total_cmp);

    // The cloud's expiry sweep, the engine's kill sweep and the engine's
    // finish all resolve a doomed task typed; every one must end so.
    let outcomes = hot_client
        .get_batch_results(&doomed, Duration::from_millis(2), Duration::from_secs(60))
        .unwrap();
    for (id, outcome) in doomed.iter().zip(&outcomes) {
        assert!(
            matches!(outcome, Err(GcxError::DeadlineExceeded(_))),
            "{leg}: doomed task {id} ended {outcome:?}"
        );
    }
    let count = |name: &str| cloud.metrics().counter(name).get() as f64;
    let r = row(
        leg,
        &[
            ("elapsed_ms", elapsed_ms),
            ("goodput_per_s", completed as f64 * 1000.0 / elapsed_ms),
            ("shed", shed as f64),
            ("rejected_submits", count("cloud.submits_rejected_overload")),
            ("doomed", doomed.len() as f64),
            (
                "expired",
                count("cloud.tasks_expired") + count("thread.deadline_kills"),
            ),
            ("probe_p50_ms", percentile(&latencies, 0.5)),
            ("probe_p99_ms", percentile(&latencies, 0.99)),
        ],
    );
    hot.close();
    stack.stop();
    r
}
