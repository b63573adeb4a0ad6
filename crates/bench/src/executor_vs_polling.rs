//! E4 — §III-A: the executor's streaming interface vs the traditional
//! polling client.
//!
//! "This is a far more efficient paradigm in terms of bytes over the wire,
//! time spent waiting for results, and boilerplate code to check for
//! results." We run the same workload (N short tasks) through:
//!   - the polling `Client` at several poll intervals, one task a request,
//!   - the polling `Client` sweeping every open task in one request, and
//!   - the future-based `Executor` (batching + AMQPS result stream),
//!
//! and report total wall time, REST request count, REST bytes and status
//! polls. Expected shape: the executor needs ~1-2 REST requests in total
//! and zero status polls; slow polls waste wall time, fast polls multiply
//! requests.

use std::time::{Duration, Instant};

use gcx_core::value::Value;
use gcx_sdk::{Client, PyFunction};

use crate::{ms_since, row, BenchStack, Row};

const N_TASKS: usize = 120;
const ENGINE: &str = "engine:\n  type: GlobusComputeEngine\n  workers_per_node: 8\n";
/// ~5 ms of simulated compute.
const SRC: &str = "def f(x):\n    sleep(0.005)\n    return x\n";

pub(crate) fn run(_smoke: bool, _rep: u64) -> Vec<Row> {
    let mut rows: Vec<Row> = [200, 50, 10]
        .into_iter()
        .map(|ms| polling(&format!("poll every {ms} ms"), Some(ms)))
        .collect();
    rows.push(polling("batched poll 10 ms", None));
    rows.push(streaming());
    rows
}

fn args(i: usize) -> Vec<Value> {
    vec![Value::Int(i as i64)]
}

/// The polling client: `get_result` per task every `poll_ms`, or (`None`)
/// one `get_batch_results` over every open task every 10 ms.
fn polling(label: &str, poll_ms: Option<u64>) -> Row {
    let stack = BenchStack::new(ENGINE);
    let client = Client::new(stack.cloud.clone(), stack.token.clone());
    let fid = client.register_function(&PyFunction::new(SRC)).unwrap();
    stack.cloud.metrics().reset_counters();
    let started = Instant::now();
    let ids: Vec<_> = (0..N_TASKS)
        .map(|i| {
            client
                .run(fid, stack.endpoint, args(i), Value::None)
                .unwrap()
        })
        .collect();
    let timeout = Duration::from_secs(60);
    match poll_ms {
        Some(ms) => {
            for id in &ids {
                let poll = Duration::from_millis(ms);
                client.get_result(*id, poll, timeout).unwrap();
            }
        }
        None => {
            let poll = Duration::from_millis(10);
            for r in client.get_batch_results(&ids, poll, timeout).unwrap() {
                r.unwrap();
            }
        }
    }
    measured(label, stack, ms_since(started))
}

/// The executor's futures, fed by its result stream.
fn streaming() -> Row {
    let stack = BenchStack::new(ENGINE);
    let ex = stack.executor();
    let f = PyFunction::new(SRC);
    // Pre-register so metrics only count the submit/result flow.
    ex.ensure_registered(gcx_sdk::Function::body(&f)).unwrap();
    stack.cloud.metrics().reset_counters();
    let started = Instant::now();
    let futures: Vec<_> = (0..N_TASKS)
        .map(|i| ex.submit(&f, args(i), Value::None).unwrap())
        .collect();
    for fut in &futures {
        fut.result_timeout(Duration::from_secs(60)).unwrap();
    }
    let total_ms = ms_since(started);
    ex.close();
    measured("executor (stream)", stack, total_ms)
}

/// A leg's row: its wall time and the REST traffic since the reset.
fn measured(label: &str, stack: BenchStack, total_ms: f64) -> Row {
    let m = stack.cloud.metrics();
    let count = |name: &str| m.counter(name).get() as f64;
    let r = row(
        label,
        &[
            ("total_ms", total_ms),
            ("rest_reqs", count("api.requests")),
            (
                "rest_kib",
                (count("api.bytes_in") + count("api.bytes_out")) / 1024.0,
            ),
            ("status_polls", count("cloud.status_polls")),
        ],
    );
    stack.stop();
    r
}
