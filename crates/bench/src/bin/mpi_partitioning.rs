//! E6 — §III-C.1: the `GlobusMPIEngine` "partition\[s\] a batch job
//! dynamically based on user-defined function requirements" so multiple MPI
//! applications run concurrently within a single batch job.
//!
//! Baseline: the pre-MPIEngine world, where each MPI task occupies the whole
//! block (equivalently: one statically-configured endpoint per job shape,
//! used serially). We run the same mixed-size workload both ways on an
//! 8-node block and compare makespan and node utilization.
//!
//! Run: `cargo run --release -p gcx-bench --bin mpi_partitioning`

use std::time::{Duration, Instant};

use gcx_bench::{BenchStack, Table};
use gcx_core::clock::SystemClock;
use gcx_core::respec::ResourceSpec;
use gcx_core::value::Value;
use gcx_sdk::{Executor, MpiFunction};

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

fn run_workload(specs: &[(u32, f64)], force_whole_block: bool) -> (Duration, f64) {
    let stack = BenchStack::new(ENGINE, SystemClock::shared());
    let ex = Executor::new(stack.cloud.clone(), stack.token.clone(), stack.endpoint).unwrap();
    let app = MpiFunction::new("sleep {secs}");

    let started = Instant::now();
    let futures: Vec<_> = specs
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
    let makespan = started.elapsed();

    // Node-seconds of useful work (the app's real size, regardless of how
    // many nodes the policy held) vs node-seconds the block existed.
    let useful: f64 = specs.iter().map(|(nodes, secs)| *nodes as f64 * secs).sum();
    let held = 8.0 * makespan.as_secs_f64();
    ex.close();
    stack.stop();
    (makespan, useful / held)
}

fn main() {
    println!("E6 — dynamic partitioning vs whole-block serialization (8-node block)");
    println!(
        "  workload: {} MPI apps, sizes {:?} nodes",
        WORKLOAD.len(),
        WORKLOAD.iter().map(|(n, _)| *n).collect::<Vec<_>>()
    );

    let (dyn_makespan, dyn_util) = run_workload(WORKLOAD, false);
    let (ser_makespan, ser_util) = run_workload(WORKLOAD, true);

    let mut table = Table::new(&["policy", "makespan (s)", "node utilization"]);
    table.row(&[
        "GlobusMPIEngine (dynamic)".into(),
        format!("{:.2}", dyn_makespan.as_secs_f64()),
        format!("{:.0}%", dyn_util * 100.0),
    ]);
    table.row(&[
        "whole-block serial (baseline)".into(),
        format!("{:.2}", ser_makespan.as_secs_f64()),
        format!("{:.0}%", ser_util * 100.0),
    ]);
    table.print();

    let speedup = ser_makespan.as_secs_f64() / dyn_makespan.as_secs_f64();
    println!();
    println!("  dynamic partitioning speedup: {speedup:.2}x");
    println!("  expected shape: dynamic wins because small apps pack into nodes the");
    println!("  big apps leave free; the whole-block baseline serializes everything.");
    assert!(
        speedup > 1.3,
        "dynamic partitioning must beat serialization"
    );
}
