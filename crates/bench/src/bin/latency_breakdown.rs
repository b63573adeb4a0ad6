//! E11 · Per-leg task-lifecycle latency decomposition from collected
//! trace spans (§II/§III-A: where does a task's round-trip time go?).
//!
//! Phase 1 (clean): drive N tasks through the full SDK → cloud → MQ →
//! endpoint agent → worker stack with tracing on, then decompose each
//! task's round trip into its lifecycle legs from the spans the tracer
//! collected:
//!
//! - `submit`   — `Executor::submit()` → batch accepted by the REST API;
//! - `queue`    — task published to the endpoint queue → agent receipt;
//! - `dispatch` — agent receipt → the engine reports Running;
//! - `execute`  — Running → the agent publishes the result;
//! - `worker`   — the slice of `execute` spent inside the worker itself;
//! - `result`   — result published → landed by the result processor.
//!
//! Phase 2 (faulted): same workload under an injected deliver-drop fault
//! (p=0.5 on the task queues) with a delivery budget of 1, so dropped
//! deliveries dead-letter and the SDK resubmits — the run demonstrates
//! that retries appear as `retry` child spans *inside the original trace*
//! rather than as fresh unlinked traces.
//!
//! Emits `bench_results/BENCH_latency_breakdown.json`. Exits nonzero if
//! any lifecycle leg collected zero spans in the clean phase (a tracing
//! regression: some layer stopped stamping its leg).
//!
//! `--transport tcp` runs the same decomposition with the SDK in a real
//! wire-client role: the executor submits over framed TCP, the trace
//! context rides the frames, and the breakdown gains the wire legs —
//! `wire.send`/`wire.await` on the client's own collector, and
//! `wire.decode`/`wire.queue` on the server's. The two collectors share
//! trace ids over the wire, which is the cross-process story the in-memory
//! run cannot show. The report is then
//! `bench_results/BENCH_latency_breakdown_tcp.json`.
//!
//! Flags: `--tasks N`, `--workers W`, `--transport inmem|tcp`, `--smoke`
//! (tiny parameters for CI).

use std::time::Duration;

use gcx_auth::{AuthPolicy, AuthService};
use gcx_bench::{JsonReport, Table};
use gcx_cloud::{CloudConfig, WebService, WireServer};
use gcx_config::TransportSpec;
use gcx_core::clock::SystemClock;
use gcx_core::metrics::MetricsRegistry;
use gcx_core::retry::RetryPolicy;
use gcx_core::trace::{LegStats, Tracer};
use gcx_core::value::Value;
use gcx_endpoint::{AgentEnv, EndpointAgent, EndpointConfig};
use gcx_mq::{Broker, FaultDirection, FaultPlan, FaultRule, LinkProfile};
use gcx_sdk::{Executor, ExecutorConfig, PyFunction, WireClientConfig};

/// The lifecycle legs every clean run must populate (order = report order).
const LIFECYCLE_LEGS: &[&str] = &["submit", "queue", "dispatch", "execute", "worker", "result"];

/// The wire legs a clean TCP run must additionally populate, split by
/// which collector stamps them.
const WIRE_SERVER_LEGS: &[&str] = &["wire.decode", "wire.queue"];
const WIRE_CLIENT_LEGS: &[&str] = &["wire.send", "wire.await"];

struct Params {
    tasks: usize,
    workers: u32,
    tcp: bool,
}

fn parse_args() -> Params {
    let mut p = Params {
        tasks: 200,
        workers: 4,
        tcp: false,
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
            "--workers" => {
                p.workers = need(i).parse().expect("--workers");
                i += 2;
            }
            "--transport" => {
                p.tcp = match need(i).as_str() {
                    "tcp" => true,
                    "inmem" => false,
                    other => panic!("unknown transport {other:?}"),
                };
                i += 2;
            }
            "--smoke" => {
                p.tasks = 24;
                p.workers = 2;
                i += 1;
            }
            other => panic!("unknown flag {other:?}"),
        }
    }
    assert!(p.tasks > 0 && p.workers > 0);
    p
}

struct RunOutcome {
    svc: WebService,
    agent: EndpointAgent,
    completed: u64,
    failed: u64,
    /// The SDK-process collector, kept alive past executor close so its
    /// wire legs can be decomposed. Only present on `--transport tcp`.
    client_tracer: Option<Tracer>,
}

/// Bring up a full stack (cloud + agent sharing one registry, so engine
/// spans land in the same trace collector as cloud spans), run the
/// workload, and return the still-live service for span inspection.
fn run_stack(p: &Params, faulted: bool) -> RunOutcome {
    let clock = SystemClock::shared();
    let broker = Broker::with_profile(
        MetricsRegistry::new(),
        clock.clone(),
        LinkProfile::instant(),
    );
    if faulted {
        // Deliver-side drops: the message is requeued (charging its
        // delivery budget) instead of reaching the agent; with a budget of
        // one, each drop dead-letters the task and the SDK resubmits it.
        broker.set_fault_plan(Some(FaultPlan::new(11).with_rule(FaultRule::drop(
            "tasks.",
            FaultDirection::Deliver,
            0.5,
        ))));
    }
    let cfg = CloudConfig {
        max_task_deliveries: if faulted { 1 } else { 0 },
        heartbeat_timeout_ms: 600_000,
        ..CloudConfig::default()
    };
    let svc = WebService::new(cfg, AuthService::new(clock.clone()), broker, clock.clone());
    let (_, token) = svc.auth().login("latency@gcx.dev").unwrap();
    let reg = svc
        .register_endpoint(&token, "lat-ep", false, AuthPolicy::open(), None)
        .unwrap();
    let yaml = format!(
        "engine:\n  type: GlobusComputeEngine\n  workers_per_node: {}\n",
        p.workers
    );
    let config = EndpointConfig::from_yaml(&yaml).unwrap();
    let mut env = AgentEnv::local(clock);
    env.metrics = svc.metrics().clone();
    let agent =
        EndpointAgent::start(&svc, reg.endpoint_id, &reg.queue_credential, &config, env).unwrap();

    let ex_cfg = ExecutorConfig {
        retry: RetryPolicy::fixed(10, 5),
        ..ExecutorConfig::default()
    };
    let (ex, server) = if p.tcp {
        let server = WireServer::listen(&svc, TransportSpec::default()).unwrap();
        let ex = Executor::over_wire(
            vec![server.addr().to_string()],
            &token.0,
            reg.endpoint_id,
            ex_cfg,
            WireClientConfig::default(),
        )
        .unwrap();
        (ex, Some(server))
    } else {
        (
            Executor::with_config(svc.clone(), token, reg.endpoint_id, ex_cfg).unwrap(),
            None,
        )
    };
    let f = PyFunction::new("def f(x):\n    return x + 1\n");
    let futures: Vec<_> = (0..p.tasks)
        .map(|i| {
            ex.submit(&f, vec![Value::Int(i as i64)], Value::None)
                .unwrap()
        })
        .collect();
    let mut completed = 0u64;
    let mut failed = 0u64;
    for fut in futures {
        // Under a 50% deliver-drop a task can (rarely, ~2^-10 per task)
        // exhaust even a 10-attempt budget; count it rather than panic.
        match fut.result_timeout(Duration::from_secs(120)) {
            Ok(_) => completed += 1,
            Err(_) => failed += 1,
        }
    }
    // Grab the client collector before the connection goes away: the
    // tracer clone shares the span store, so the legs survive close().
    let client_tracer = p.tcp.then(|| ex.metrics().tracer());
    ex.close();
    if let Some(server) = server {
        server.shutdown();
    }
    RunOutcome {
        svc,
        agent,
        completed,
        failed,
        client_tracer,
    }
}

fn leg_row(table: &mut Table, leg: &str, s: &LegStats) {
    table.row(&[
        leg.to_string(),
        s.count.to_string(),
        format!("{:.2}", s.mean_ms),
        s.p50_ms.to_string(),
        s.p95_ms.to_string(),
        s.max_ms.to_string(),
    ]);
}

fn main() {
    let p = parse_args();
    println!(
        "task-lifecycle latency breakdown: {} tasks, {} workers, transport={}",
        p.tasks,
        p.workers,
        if p.tcp { "tcp" } else { "inmem" }
    );
    let mut report = JsonReport::new(if p.tcp {
        "BENCH_latency_breakdown_tcp"
    } else {
        "BENCH_latency_breakdown"
    });
    report
        .num("tasks", p.tasks as u64)
        .num("workers", p.workers as u64)
        .text("transport", if p.tcp { "tcp" } else { "inmem" });

    // ---- phase 1: clean ---------------------------------------------------
    let clean = run_stack(&p, false);
    assert_eq!(clean.completed, p.tasks as u64, "clean run lost tasks");
    let tracer = clean.svc.tracer().clone();
    let summary = tracer.leg_summary();
    println!("\nclean run ({} traces retained):", tracer.trace_count());
    let mut table = Table::new(&["leg", "spans", "mean_ms", "p50_ms", "p95_ms", "max_ms"]);
    let mut missing = Vec::new();
    for leg in LIFECYCLE_LEGS {
        match summary.get(*leg) {
            Some(s) if s.count > 0 => {
                leg_row(&mut table, leg, s);
                report
                    .num(&format!("clean_{leg}_spans"), s.count)
                    .float(&format!("clean_{leg}_mean_ms"), s.mean_ms)
                    .num(&format!("clean_{leg}_p50_ms"), s.p50_ms)
                    .num(&format!("clean_{leg}_p95_ms"), s.p95_ms)
                    .num(&format!("clean_{leg}_max_ms"), s.max_ms);
            }
            _ => missing.push(*leg),
        }
    }
    if p.tcp {
        // The wire adds four legs to the decomposition: the server's
        // decode/queue slices here, the client's send/await below — all
        // inside the same per-task trace ids, linked across the socket.
        for leg in WIRE_SERVER_LEGS {
            match summary.get(*leg) {
                Some(s) if s.count > 0 => {
                    leg_row(&mut table, leg, s);
                    report
                        .num(&format!("clean_{leg}_spans"), s.count)
                        .float(&format!("clean_{leg}_mean_ms"), s.mean_ms)
                        .num(&format!("clean_{leg}_p95_ms"), s.p95_ms);
                }
                _ => missing.push(*leg),
            }
        }
        let client = clean
            .client_tracer
            .as_ref()
            .expect("tcp run has a client tracer");
        let client_summary = client.leg_summary();
        for leg in WIRE_CLIENT_LEGS {
            match client_summary.get(*leg) {
                Some(s) if s.count > 0 => {
                    leg_row(&mut table, leg, s);
                    report
                        .num(&format!("clean_{leg}_spans"), s.count)
                        .float(&format!("clean_{leg}_mean_ms"), s.mean_ms)
                        .num(&format!("clean_{leg}_p95_ms"), s.p95_ms);
                }
                _ => missing.push(*leg),
            }
        }
        report.num("clean_client_traces", client.trace_count() as u64);
    }
    table.print();
    report.num("clean_completed", clean.completed);
    clean.agent.stop();
    clean.svc.shutdown();

    // ---- phase 2: faulted -------------------------------------------------
    let faulted = run_stack(&p, true);
    let tracer = faulted.svc.tracer().clone();
    let summary = tracer.leg_summary();
    // Retries must appear as child spans of the original submission's
    // trace, not as fresh traces. In-process, a retried trace carries one
    // "submit" span per attempt. Over TCP the retry evidence lives on the
    // *client's* collector — the retry span plus a second `wire.send` leg
    // in the same trace — because the server stamps `submit` only when it
    // first adopts a trace. Either way, no retried trace may leak
    // orphaned spans.
    let (retry_tracer, relink_leg) = match &faulted.client_tracer {
        Some(client) => (client, "wire.send"),
        None => (&tracer, "submit"),
    };
    let retry_spans = retry_tracer
        .leg_summary()
        .get("retry")
        .map_or(0, |s| s.count);
    let mut retried_traces = 0usize;
    let mut relinked = 0usize;
    let mut orphans = 0usize;
    for trace in retry_tracer.traces() {
        if trace.spans_named("retry").count() == 0 {
            continue;
        }
        retried_traces += 1;
        if trace.spans_named(relink_leg).count() > 1 {
            relinked += 1;
        }
        orphans += trace.orphan_spans().len();
    }
    println!(
        "\nfaulted run: {} completed, {} failed, {} retry spans across {} traces ({} re-linked)",
        faulted.completed, faulted.failed, retry_spans, retried_traces, relinked
    );
    let mut table = Table::new(&["leg", "spans", "mean_ms", "p50_ms", "p95_ms", "max_ms"]);
    for (leg, s) in &summary {
        leg_row(&mut table, leg, s);
        report.num(&format!("faulted_{leg}_spans"), s.count);
    }
    table.print();
    report
        .num("faulted_completed", faulted.completed)
        .num("faulted_failed", faulted.failed)
        .num("faulted_retry_spans", retry_spans)
        .num("faulted_retried_traces", retried_traces as u64)
        .num("faulted_relinked_traces", relinked as u64)
        .num("faulted_orphan_spans", orphans as u64);
    assert!(
        retry_spans > 0,
        "a 50% deliver-drop over {} tasks must produce at least one retry span",
        p.tasks
    );
    assert_eq!(
        relinked, retried_traces,
        "every retried trace must carry the resubmission's {relink_leg} span"
    );
    assert_eq!(orphans, 0, "retried traces must not leak orphaned spans");
    faulted.agent.stop();
    faulted.svc.shutdown();

    let path = report
        .write_to(std::path::Path::new("bench_results"))
        .expect("write BENCH_latency_breakdown.json");
    println!("  written to {}", path.display());

    if !missing.is_empty() {
        eprintln!("ERROR: lifecycle legs with zero spans in the clean run: {missing:?}");
        std::process::exit(1);
    }
}
