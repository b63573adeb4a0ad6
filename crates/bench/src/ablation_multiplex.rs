//! A2 — §II ablation: "communication with nodes is multiplexed via managers
//! to reduce the number of ports and connections."
//!
//! Fixed worker count (16), varying how many workers sit behind each
//! manager. One-worker-per-manager models unmultiplexed per-worker
//! connections; the paper's design hangs many workers off one manager
//! connection per node. We report connection counts (one manager channel
//! per node, from the topology) and throughput. Expected shape:
//! multiplexing cuts connections 16 → 1 while throughput stays flat — the
//! manager channel is not the bottleneck.

use std::time::{Duration, Instant};

use gcx_core::value::Value;
use gcx_sdk::PyFunction;

use crate::{ms_since, row, BenchStack, Row};

const TOTAL_WORKERS: u32 = 16;
const N_TASKS: usize = 320;

pub(crate) fn run(_smoke: bool, _rep: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for workers_per_node in [1u32, 2, 4, 8, 16] {
        let nodes = TOTAL_WORKERS / workers_per_node;
        let stack = BenchStack::new(&format!(
            "engine:\n  type: GlobusComputeEngine\n  nodes_per_block: {nodes}\n  workers_per_node: {workers_per_node}\n"
        ));
        let ex = stack.executor();
        let f = PyFunction::new("def f(x):\n    sleep(0.002)\n    return x\n");
        let started = Instant::now();
        let futures: Vec<_> = (0..N_TASKS)
            .map(|i| {
                ex.submit(&f, vec![Value::Int(i as i64)], Value::None)
                    .unwrap()
            })
            .collect();
        for fut in &futures {
            fut.result_timeout(Duration::from_secs(60)).unwrap();
        }
        let total_ms = ms_since(started);
        rows.push(row(
            format!("{workers_per_node} workers/manager"),
            &[
                ("managers", nodes as f64),
                ("total_ms", total_ms),
                ("tasks_per_s", N_TASKS as f64 * 1000.0 / total_ms),
            ],
        ));
        ex.close();
        stack.stop();
    }
    rows
}
