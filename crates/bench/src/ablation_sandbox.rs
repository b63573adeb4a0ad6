//! A1 — §III-B.2 ablation: per-task sandbox directories.
//!
//! "There is potential for ShellFunctions to interfere with one another,
//! for example, by overwriting files. To mitigate function contention,
//! ShellFunctions can be configured to execute in a sandbox." We run a
//! write-then-read workload with sandboxing off and on and count the tasks
//! that read back someone else's data. Expected shape (asserted): without
//! sandboxing, concurrent tasks overwrite each other's `out.txt`; with
//! per-task sandbox directories every read is clean.

use std::time::Duration;

use gcx_core::shellres::ShellResult;
use gcx_core::value::Value;
use gcx_sdk::ShellFunction;

use crate::{row, BenchStack, Row};

const N_TASKS: usize = 48;

/// Tasks that read back their own tag.
fn clean_tasks(sandbox: bool) -> usize {
    let stack = BenchStack::new(&format!(
        "engine:\n  type: GlobusComputeEngine\n  workers_per_node: 8\n  sandbox: {sandbox}\n"
    ));
    let ex = stack.executor();
    // Write a tag, yield the worker briefly, read the tag back: without a
    // sandbox all tasks fight over one `out.txt`.
    let sf = ShellFunction::new("echo {tag} > out.txt; sleep 0.01; cat out.txt");
    let futures: Vec<_> = (0..N_TASKS)
        .map(|i| {
            ex.submit(&sf, vec![], Value::map([("tag", Value::Int(i as i64))]))
                .unwrap()
        })
        .collect();
    let clean = futures
        .iter()
        .enumerate()
        .filter(|(i, fut)| {
            let sr = fut
                .result_timeout(Duration::from_secs(60))
                .map(|v| ShellResult::from_value(&v).unwrap());
            matches!(sr, Ok(sr) if sr.stdout.trim() == i.to_string())
        })
        .count();
    ex.close();
    stack.stop();
    clean
}

pub(crate) fn run(_smoke: bool, _rep: u64) -> Vec<Row> {
    let clean_off = clean_tasks(false);
    let clean_on = clean_tasks(true);
    assert_eq!(clean_on, N_TASKS, "sandboxing must eliminate contention");
    assert!(
        clean_off < N_TASKS,
        "the contention being mitigated must be observable"
    );
    [("sandbox off", clean_off), ("sandbox on", clean_on)]
        .into_iter()
        .map(|(label, clean)| {
            row(
                label,
                &[
                    ("clean", clean as f64),
                    ("corrupted", (N_TASKS - clean) as f64),
                ],
            )
        })
        .collect()
}
