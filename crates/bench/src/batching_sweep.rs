//! E5 — §III-A: "batching of requests within a time period to avoid many
//! individual REST requests to run tasks."
//!
//! Sweep the executor's batch window and cap; report REST request counts,
//! submission time, and end-to-end completion time for a fixed workload.
//! Expected shape: wider windows collapse the submissions into a handful of
//! REST requests; per-task requests (window 0) maximize the request count.

use std::time::{Duration, Instant};

use gcx_core::value::Value;
use gcx_sdk::{Executor, ExecutorConfig, PyFunction};

use crate::{ms_since, row, BenchStack, Row};

const N_TASKS: usize = 400;
const ENGINE: &str = "engine:\n  type: GlobusComputeEngine\n  workers_per_node: 8\n";

pub(crate) fn run(_smoke: bool, _rep: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for (window_ms, max_batch) in [(0u64, 1usize), (1, 16), (5, 64), (20, 128), (50, 512)] {
        let stack = BenchStack::new(ENGINE);
        let ex = Executor::with_config(
            stack.cloud.clone(),
            stack.token.clone(),
            stack.endpoint,
            ExecutorConfig {
                batch_window: Duration::from_millis(window_ms),
                max_batch,
                ..ExecutorConfig::default()
            },
        )
        .unwrap();
        let f = PyFunction::new("def f(x):\n    return x\n");
        ex.ensure_registered(gcx_sdk::Function::body(&f)).unwrap();
        stack.cloud.metrics().reset_counters();

        let started = Instant::now();
        let futures: Vec<_> = (0..N_TASKS)
            .map(|i| {
                ex.submit(&f, vec![Value::Int(i as i64)], Value::None)
                    .unwrap()
            })
            .collect();
        let submit_ms = ms_since(started);
        for fut in &futures {
            fut.result_timeout(Duration::from_secs(60)).unwrap();
        }
        let complete_ms = ms_since(started);

        let reqs = stack.cloud.metrics().counter("api.requests").get() as f64;
        rows.push(row(
            format!("window {window_ms} ms, max {max_batch}"),
            &[
                ("rest_reqs", reqs),
                ("tasks_per_req", N_TASKS as f64 / reqs.max(1.0)),
                ("submit_ms", submit_ms),
                ("complete_ms", complete_ms),
            ],
        ));
        ex.close();
        stack.stop();
    }
    rows
}
