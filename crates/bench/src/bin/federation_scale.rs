//! E12 — federated cloud: throughput vs replica count, clean and under
//! replica chaos.
//!
//! The paper's hosted service is one logical cloud; the federation layer
//! replicates it for availability. This bench measures what replication
//! costs (and buys): N `CloudService` replicas share one broker and one
//! consistent-hash ring; client threads submit batches round-robin across
//! replica bindings — a non-owner forwards to the owner through broker
//! envelopes — while endpoint session pools drain the task queues.
//!
//! Two legs per replica count:
//! - **clean**: no faults, aggregate tasks/s;
//! - **chaos** (replicas ≥ 2): one replica is killed while half the
//!   workload is in flight; the sweep hands its ownership ranges over,
//!   survivors adopt its orphans from the durable task log, and the run
//!   still completes every task exactly once (asserted on
//!   `cloud.results_processed`).
//!
//! Emits `bench_results/BENCH_federation.json`.
//!
//! Flags: `--tasks N` (total per leg), `--batch B`, `--replicas a,b,c`,
//! `--smoke` (tiny parameters for CI).

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gcx_auth::{AuthPolicy, AuthService};
use gcx_bench::{JsonReport, Table};
use gcx_cloud::{CloudConfig, Federation, FederationConfig, WebService};
use gcx_core::clock::SystemClock;
use gcx_core::function::FunctionBody;
use gcx_core::ids::TaskId;
use gcx_core::metrics::MetricsRegistry;
use gcx_core::task::{TaskResult, TaskSpec};
use gcx_core::value::Value;
use gcx_mq::{Broker, LinkProfile};

#[derive(Clone)]
struct Params {
    tasks: usize,
    batch: usize,
    replica_counts: Vec<usize>,
    drains: usize,
}

fn parse_args() -> Params {
    let mut p = Params {
        tasks: 2048,
        batch: 64,
        replica_counts: vec![1, 2, 4],
        drains: 4,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let need = |i: usize| {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--tasks" => {
                p.tasks = need(i).parse().expect("--tasks");
                i += 2;
            }
            "--batch" => {
                p.batch = need(i).parse().expect("--batch");
                i += 2;
            }
            "--replicas" => {
                p.replica_counts = need(i)
                    .split(',')
                    .map(|s| s.trim().parse().expect("--replicas"))
                    .collect();
                i += 2;
            }
            "--smoke" => {
                p = Params {
                    tasks: 128,
                    batch: 16,
                    replica_counts: vec![1, 2],
                    drains: 2,
                };
                i += 1;
            }
            other => panic!("unknown flag {other:?}"),
        }
    }
    assert!(p.tasks > 0 && p.batch > 0 && !p.replica_counts.is_empty());
    p
}

struct LegOutcome {
    elapsed: Duration,
    adopted: u64,
    duplicates_dropped: u64,
    /// The two places a second result can legitimately come from
    /// (FAULTS.md, replica runbook); their sum bounds `duplicates_dropped`.
    republished: u64,
    redelivered: u64,
}

/// Submit `n` tasks in batches, rotating across `bindings`; a binding that
/// answers `ReplicaUnavailable` (it died mid-leg) is skipped.
fn submit_round_robin(
    bindings: &[WebService],
    token: &gcx_auth::Token,
    fid: gcx_core::ids::FunctionId,
    ep: gcx_core::ids::EndpointId,
    n: usize,
    batch: usize,
    offset: usize,
) -> Vec<TaskId> {
    let mut ids = Vec::with_capacity(n);
    let mut submitted = 0usize;
    let mut turn = 0usize;
    while submitted < n {
        let take = batch.min(n - submitted);
        let specs: Vec<TaskSpec> = (0..take)
            .map(|k| {
                let mut spec = TaskSpec::new(fid, ep);
                spec.set_args(
                    vec![Value::Int((offset + submitted + k) as i64)],
                    Value::None,
                );
                spec
            })
            .collect();
        let svc = &bindings[turn % bindings.len()];
        turn += 1;
        match svc.submit_batch(token, specs) {
            Ok(batch_ids) => {
                ids.extend(batch_ids);
                submitted += take;
            }
            // The binding's replica is down or fenced: rotate to the next.
            Err(_) => continue,
        }
    }
    ids
}

/// Poll the union of `task_status_batch` across live replicas until every
/// id is terminal. Non-owners skip foreign tasks, so the union over the
/// directory is the federated view.
fn await_all_terminal(fed: &Federation, token: &gcx_auth::Token, ids: &[TaskId]) {
    let dir = fed.directory();
    let deadline = Instant::now() + Duration::from_secs(300);
    let mut open: HashSet<TaskId> = ids.iter().copied().collect();
    while !open.is_empty() {
        assert!(
            Instant::now() < deadline,
            "{} tasks never reached a terminal state",
            open.len()
        );
        let pending: Vec<TaskId> = open.iter().copied().collect();
        for r in fed.live_replicas() {
            let Some(svc) = dir.get(r) else { continue };
            let Ok(statuses) = svc.task_status_batch(token, &pending) else {
                continue;
            };
            for (id, state, _) in statuses {
                if state.is_terminal() {
                    open.remove(&id);
                }
            }
        }
        if !open.is_empty() {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

/// One leg: `replicas` replicas serving `p.tasks` tasks; when `chaos`,
/// the last replica is killed with half the workload in flight.
fn run_leg(replicas: usize, chaos: bool, p: &Params) -> LegOutcome {
    let clock = SystemClock::shared();
    let broker = Broker::with_profile(
        MetricsRegistry::new(),
        clock.clone(),
        LinkProfile::instant(),
    );
    let fed = Federation::with_parts(
        FederationConfig {
            replicas,
            heartbeat_timeout_ms: 400,
        },
        CloudConfig {
            heartbeat_timeout_ms: 600_000,
            ..CloudConfig::default()
        },
        AuthService::new(clock.clone()),
        broker,
        clock,
    );
    let dir = fed.directory();
    let (_, token) = fed.auth().login("federation@bench.dev").unwrap();
    let r0 = dir.get(0).unwrap();
    let fid = r0
        .register_function(&token, FunctionBody::pyfn("def f(x):\n    return x\n"))
        .unwrap();
    let reg = r0
        .register_endpoint(&token, "fed-ep", false, AuthPolicy::open(), None)
        .unwrap();

    // The drain pool rides the shared broker, so it keeps serving (and
    // absorbing republished duplicates) across the kill. Connect through
    // replica 0, which every leg keeps alive.
    let stop = Arc::new(AtomicBool::new(false));
    let mut drain_handles = Vec::new();
    for _ in 0..p.drains {
        let session = r0
            .connect_endpoint(reg.endpoint_id, &reg.queue_credential)
            .unwrap();
        let stop = Arc::clone(&stop);
        drain_handles.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                match session.next_task(Duration::from_millis(10)) {
                    Ok(Some((spec, tag))) => {
                        let _ =
                            session.publish_result(spec.task_id, &TaskResult::ok(Value::Int(1)));
                        let _ = session.ack_task(tag);
                    }
                    Ok(None) => {}
                    Err(_) => break,
                }
            }
        }));
    }

    let bindings: Vec<WebService> = (0..replicas as u32).filter_map(|r| dir.get(r)).collect();
    let victim = (replicas - 1) as u32;
    let started = Instant::now();
    let ids = if chaos {
        let mut ids = submit_round_robin(
            &bindings,
            &token,
            fid,
            reg.endpoint_id,
            p.tasks / 2,
            p.batch,
            0,
        );
        // Kill the victim with the first half in flight; the monitor thread
        // declares it dead and hands its ranges over. Wait for the ring to
        // shrink so the second half routes around the corpse.
        fed.kill(victim);
        let handover_deadline = Instant::now() + Duration::from_secs(30);
        while fed.live_replicas().len() != replicas - 1 {
            assert!(
                Instant::now() < handover_deadline,
                "handover never completed"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        let survivors: Vec<WebService> = (0..victim).filter_map(|r| dir.get(r)).collect();
        ids.extend(submit_round_robin(
            &survivors,
            &token,
            fid,
            reg.endpoint_id,
            p.tasks - p.tasks / 2,
            p.batch,
            p.tasks / 2,
        ));
        ids
    } else {
        submit_round_robin(&bindings, &token, fid, reg.endpoint_id, p.tasks, p.batch, 0)
    };
    assert_eq!(ids.len(), p.tasks);
    await_all_terminal(&fed, &token, &ids);
    let elapsed = started.elapsed();

    // Exactly-once across the fault: one processed completion per task,
    // however many duplicate deliveries the handover republish produced.
    let processed = fed.metrics().counter("cloud.results_processed").get();
    assert_eq!(
        processed, p.tasks as u64,
        "replicas={replicas} chaos={chaos}: completions must be exactly-once"
    );
    let count = |name: &str| fed.metrics().counter(name).get();
    let outcome = LegOutcome {
        elapsed,
        adopted: count("fed.tasks_adopted"),
        duplicates_dropped: count("cloud.duplicate_results_dropped"),
        republished: count("fed.tasks_republished"),
        redelivered: count("mq.redeliveries"),
    };
    assert!(
        outcome.duplicates_dropped <= outcome.republished + outcome.redelivered,
        "replicas={replicas} chaos={chaos}: {} duplicates from {} republished + {} requeued",
        outcome.duplicates_dropped,
        outcome.republished,
        outcome.redelivered
    );

    stop.store(true, Ordering::Relaxed);
    for d in drain_handles {
        let _ = d.join();
    }
    fed.shutdown();
    outcome
}

fn main() {
    let p = parse_args();
    println!(
        "E12 — federated cloud scale: {} tasks per leg, batch {}",
        p.tasks, p.batch
    );
    let mut table = Table::new(&[
        "replicas",
        "leg",
        "elapsed_ms",
        "tasks/s",
        "adopted",
        "dup results dropped",
        "republished",
        "requeued",
    ]);
    let mut report = JsonReport::new("BENCH_federation");
    report
        .num("total_tasks", p.tasks as u64)
        .num("batch_size", p.batch as u64);

    for &replicas in &p.replica_counts {
        let clean = run_leg(replicas, false, &p);
        let clean_tps = p.tasks as f64 / clean.elapsed.as_secs_f64();
        table.row(&[
            replicas.to_string(),
            "clean".into(),
            format!("{:.1}", clean.elapsed.as_secs_f64() * 1000.0),
            format!("{clean_tps:.0}"),
            clean.adopted.to_string(),
            clean.duplicates_dropped.to_string(),
            clean.republished.to_string(),
            clean.redelivered.to_string(),
        ]);
        report.float(&format!("clean_r{replicas}_tasks_per_sec"), clean_tps);
        report.float(
            &format!("clean_r{replicas}_elapsed_ms"),
            clean.elapsed.as_secs_f64() * 1000.0,
        );

        if replicas >= 2 {
            let chaos = run_leg(replicas, true, &p);
            let chaos_tps = p.tasks as f64 / chaos.elapsed.as_secs_f64();
            table.row(&[
                replicas.to_string(),
                "chaos".into(),
                format!("{:.1}", chaos.elapsed.as_secs_f64() * 1000.0),
                format!("{chaos_tps:.0}"),
                chaos.adopted.to_string(),
                chaos.duplicates_dropped.to_string(),
                chaos.republished.to_string(),
                chaos.redelivered.to_string(),
            ]);
            report.float(&format!("chaos_r{replicas}_tasks_per_sec"), chaos_tps);
            report.num(&format!("chaos_r{replicas}_tasks_adopted"), chaos.adopted);
            report.num(
                &format!("chaos_r{replicas}_duplicates_dropped"),
                chaos.duplicates_dropped,
            );
            report.num(
                &format!("chaos_r{replicas}_tasks_republished"),
                chaos.republished,
            );
            report.num(
                &format!("chaos_r{replicas}_redeliveries"),
                chaos.redelivered,
            );
        }
    }

    table.print();
    println!();
    println!("  expected shape: clean throughput holds as replicas multiply (forwarding");
    println!("  adds a broker hop for ~1-1/N of submits); the chaos leg completes every");
    println!("  task exactly once, paying only the handover window.");
    let path = report
        .write_to(std::path::Path::new("bench_results"))
        .expect("write BENCH_federation.json");
    println!("  written to {}", path.display());
}
