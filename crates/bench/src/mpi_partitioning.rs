//! E6 — §III-C.1: the `GlobusMPIEngine` "partition\[s\] a batch job
//! dynamically based on user-defined function requirements" so multiple MPI
//! applications run concurrently within a single batch job.
//!
//! Baseline: the pre-MPIEngine world, where each MPI task occupies the whole
//! block (equivalently: one statically-configured endpoint per job shape,
//! used serially). We run the same mixed-size workload both ways on an
//! 8-node block and compare makespan and node utilization. Expected shape:
//! dynamic partitioning wins (asserted: by more than 1.3x) because small
//! apps pack into nodes the big apps leave free; the whole-block baseline
//! serializes everything.

use std::time::Instant;

use gcx_core::respec::ResourceSpec;
use gcx_core::value::Value;
use gcx_sdk::MpiFunction;

use crate::{row, BenchStack, Row};

const ENGINE: &str =
    "engine:\n  type: GlobusMPIEngine\n  nodes_per_block: 8\n  mpi_launcher: mpiexec\n";

/// (nodes, sleep seconds) — a bursty mixed-size MPI workload.
const WORKLOAD: &[(u32, f64)] = &[
    (4, 0.30),
    (2, 0.25),
    (1, 0.20),
    (2, 0.30),
    (8, 0.25),
    (1, 0.15),
    (4, 0.25),
    (2, 0.20),
    (1, 0.25),
    (4, 0.20),
];

/// Makespan (s) and node utilization (useful node-seconds over the
/// node-seconds the block was held).
fn run_workload(force_whole_block: bool) -> (f64, f64) {
    let stack = BenchStack::new(ENGINE);
    let ex = stack.executor();
    let app = MpiFunction::new("sleep {secs}");

    let started = Instant::now();
    let futures: Vec<_> = WORKLOAD
        .iter()
        .map(|(nodes, secs)| {
            let nodes = if force_whole_block { 8 } else { *nodes };
            ex.set_resource_specification(ResourceSpec::nodes(nodes));
            ex.submit(&app, vec![], Value::map([("secs", Value::Float(*secs))]))
                .unwrap()
        })
        .collect();
    for fut in &futures {
        let sr = fut.shell_result().unwrap();
        assert_eq!(sr.returncode, 0);
    }
    let makespan = started.elapsed().as_secs_f64();

    // The app's real size counts, regardless of how many nodes it held.
    let useful: f64 = WORKLOAD
        .iter()
        .map(|(nodes, secs)| *nodes as f64 * secs)
        .sum();
    ex.close();
    stack.stop();
    (makespan, useful / (8.0 * makespan))
}

pub(crate) fn run(_smoke: bool, _rep: u64) -> Vec<Row> {
    let (dyn_makespan, dyn_util) = run_workload(false);
    let (ser_makespan, ser_util) = run_workload(true);
    let speedup = ser_makespan / dyn_makespan;
    assert!(
        speedup > 1.3,
        "dynamic partitioning must beat serialization: {speedup:.2}x"
    );
    vec![
        row(
            "GlobusMPIEngine (dynamic)",
            &[
                ("makespan_s", dyn_makespan),
                ("node_util_pct", dyn_util * 100.0),
                ("speedup", speedup),
            ],
        ),
        row(
            "whole-block serial (baseline)",
            &[
                ("makespan_s", ser_makespan),
                ("node_util_pct", ser_util * 100.0),
            ],
        ),
    ]
}
