//! E11 · Per-leg task-lifecycle latency decomposition from collected
//! trace spans (§II/§III-A: where does a task's round-trip time go?).
//!
//! Clean phase: drive N tasks through the full SDK → cloud → MQ →
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
//! Faulted phase: the same workload under an injected deliver-drop fault
//! (p=0.5 on the task queues) with a delivery budget of 1, so dropped
//! deliveries dead-letter and the SDK resubmits. Retries must appear as
//! `retry` child spans *inside the original trace* rather than as fresh
//! unlinked traces.
//!
//! Both phases run in memory and again with the SDK in a real wire-client
//! role: the executor submits over framed TCP, the trace context rides the
//! frames, and the breakdown gains the wire legs — `wire.send`/`wire.await`
//! on the client's own collector, and `wire.decode`/`wire.queue` on the
//! server's. The task's `submit` leg is the executor batcher's, so over TCP
//! it is read from the client's collector too: the server's `submit` is
//! only its adoption of the trace (the batch decoded → accepted). Every run
//! asserts that each leg collected spans (a leg with none is a tracing
//! regression: some layer stopped stamping it) and that every retried
//! trace relinked without orphans.

use std::time::Duration;

use gcx_cloud::{CloudConfig, WireServer};
use gcx_config::TransportSpec;
use gcx_core::retry::RetryPolicy;
use gcx_core::trace::Tracer;
use gcx_core::value::Value;
use gcx_mq::{FaultDirection, FaultPlan, FaultRule, LinkProfile};
use gcx_sdk::{Executor, ExecutorConfig, PyFunction, WireClientConfig};

use crate::{row, BenchStack, Row};

/// The lifecycle legs every clean run must populate (order = report order):
/// the SDK's `submit`, on the collector the executor writes to, then the
/// service's.
const SDK_LEGS: &[&str] = &["submit"];
const SERVICE_LEGS: &[&str] = &["queue", "dispatch", "execute", "worker", "result"];

/// The wire legs a clean TCP run must additionally populate, split by
/// which collector stamps them.
const WIRE_SERVER_LEGS: &[&str] = &["wire.decode", "wire.queue"];
const WIRE_CLIENT_LEGS: &[&str] = &["wire.send", "wire.await"];

pub(crate) fn run(smoke: bool, rep: u64) -> Vec<Row> {
    let (tasks, workers) = if smoke { (24, 2) } else { (200, 4) };
    let mut rows = Vec::new();
    for tcp in [false, true] {
        rows.extend(run_stack(tasks, workers, tcp, None));
        rows.extend(run_stack(tasks, workers, tcp, Some(11 + rep)));
    }
    rows
}

/// The clean phase's rows, one a leg: every leg must have collected spans.
fn clean(transport: &str, server: &Tracer, client: Option<&Tracer>) -> Vec<Row> {
    let sdk = client.unwrap_or(server);
    let mut legs: Vec<(&Tracer, &[&str])> = vec![(sdk, SDK_LEGS), (server, SERVICE_LEGS)];
    if let Some(client) = client {
        legs.push((server, WIRE_SERVER_LEGS));
        legs.push((client, WIRE_CLIENT_LEGS));
    }
    let mut rows = Vec::new();
    for (tracer, names) in legs {
        let summary = tracer.leg_summary();
        for leg in names {
            let s = summary.get(*leg).filter(|s| s.count > 0);
            let s = s.unwrap_or_else(|| panic!("{transport}: no `{leg}` spans"));
            rows.push(row(
                format!("{transport} {leg}"),
                &[
                    ("spans", s.count as f64),
                    ("mean_ms", s.mean_ms),
                    ("p50_ms", s.p50_ms as f64),
                    ("p95_ms", s.p95_ms as f64),
                    ("max_ms", s.max_ms as f64),
                ],
            ));
        }
    }
    rows
}

/// The faulted phase's row: retries must relink into the original trace.
/// In-process, a retried trace carries one `submit` span per attempt. Over
/// TCP the retry evidence lives on the *client's* collector — the retry
/// span plus a second `wire.send` leg in the same trace — because the
/// server stamps `submit` only when it first adopts a trace.
fn faulted(transport: &str, server: &Tracer, client: Option<&Tracer>) -> Vec<(&'static str, f64)> {
    let (tracer, relink_leg) = match client {
        Some(client) => (client, "wire.send"),
        None => (server, "submit"),
    };
    let retry_spans = tracer.leg_summary().get("retry").map_or(0, |s| s.count);
    let (mut retried, mut relinked, mut orphans) = (0, 0, 0);
    for trace in tracer.traces() {
        if trace.spans_named("retry").count() == 0 {
            continue;
        }
        retried += 1;
        if trace.spans_named(relink_leg).count() > 1 {
            relinked += 1;
        }
        orphans += trace.orphan_spans().len();
    }
    assert!(
        retry_spans > 0,
        "{transport}: a 50% deliver-drop must produce at least one retry span"
    );
    assert_eq!(
        relinked, retried,
        "{transport}: every retried trace must carry the resubmission's {relink_leg} span"
    );
    assert_eq!(
        orphans, 0,
        "{transport}: retried traces must not leak orphaned spans"
    );
    vec![
        ("retry_spans", retry_spans as f64),
        ("retried_traces", retried as f64),
        ("relinked_traces", relinked as f64),
    ]
}

/// Run the workload on a fresh stack whose cloud and agent share one
/// registry, so engine spans land in the cloud's collector, and read its
/// rows before the stack stops. `fault_seed` injects the deliver-drop
/// fault.
fn run_stack(tasks: usize, workers: u32, tcp: bool, fault_seed: Option<u64>) -> Vec<Row> {
    let config = CloudConfig {
        max_task_deliveries: if fault_seed.is_some() { 1 } else { 0 },
        heartbeat_timeout_ms: 600_000,
        ..CloudConfig::default()
    };
    let engine = format!("engine:\n  type: GlobusComputeEngine\n  workers_per_node: {workers}\n");
    let stack = BenchStack::build(&engine, config, LinkProfile::instant(), |cloud, env| {
        env.metrics = cloud.metrics().clone();
    });
    if let Some(seed) = fault_seed {
        // Deliver-side drops: the message is requeued (charging its
        // delivery budget) instead of reaching the agent; with a budget of
        // one, each drop dead-letters the task and the SDK resubmits it.
        stack
            .cloud
            .broker()
            .set_fault_plan(Some(FaultPlan::new(seed).with_rule(FaultRule::drop(
                "tasks.",
                FaultDirection::Deliver,
                0.5,
            ))));
    }
    let ex_cfg = ExecutorConfig {
        retry: RetryPolicy::fixed(10, 5),
        ..ExecutorConfig::default()
    };
    let server = tcp.then(|| WireServer::listen(&stack.cloud, TransportSpec::default()).unwrap());
    let ex = match &server {
        Some(server) => Executor::over_wire(
            vec![server.addr().to_string()],
            &stack.token.0,
            stack.endpoint,
            ex_cfg,
            WireClientConfig::default(),
        ),
        None => Executor::with_config(
            stack.cloud.clone(),
            stack.token.clone(),
            stack.endpoint,
            ex_cfg,
        ),
    }
    .unwrap();
    let f = PyFunction::new("def f(x):\n    return x + 1\n");
    let futures: Vec<_> = (0..tasks)
        .map(|i| {
            ex.submit(&f, vec![Value::Int(i as i64)], Value::None)
                .unwrap()
        })
        .collect();
    let (mut completed, mut failed) = (0u64, 0u64);
    for fut in futures {
        // Under a 50% deliver-drop a task can (rarely, ~2^-10 per task)
        // exhaust even a 10-attempt budget; count it rather than panic.
        match fut.result_timeout(Duration::from_secs(120)) {
            Ok(_) => completed += 1,
            Err(_) => failed += 1,
        }
    }
    // The tracer clone shares the span store, so the client's legs survive
    // the connection's close.
    let client = tcp.then(|| ex.metrics().tracer());
    ex.close();
    if let Some(server) = server {
        server.shutdown();
    }
    let transport = if tcp { "tcp" } else { "inmem" };
    let tracer = stack.cloud.tracer();
    let rows = match fault_seed {
        None => {
            assert_eq!(completed, tasks as u64, "{transport}: clean run lost tasks");
            clean(transport, tracer, client.as_ref())
        }
        Some(_) => {
            let mut cells = vec![("completed", completed as f64), ("failed", failed as f64)];
            cells.extend(faulted(transport, tracer, client.as_ref()));
            vec![row(format!("{transport} faulted"), &cells)]
        }
    };
    stack.stop();
    rows
}
