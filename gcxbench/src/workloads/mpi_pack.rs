//! The paper's §III-C claim: makespan is set by how the MPI engine packs
//! applications onto the block's nodes, not by per-task overhead.

use gcx_core::value::Value;
use gcx_sdk::{Function, MpiFunction};

use crate::stack::{Backend, Front, Layout};
use crate::stats::Rng;
use crate::workload::{Expect, Generator, Job, MpiBlock, Workload};

/// Node counts of a wave's 24 applications in submission order: 10 x 1,
/// 8 x 2, 4 x 4 and 2 x 8 nodes, interleaved. The order of sizes is fixed
/// because the partitioner's packing (and with it the median completion
/// time) depends on it far more than on anything else; the seed decides which
/// duration each application of a size gets.
const SIZES: [u32; 24] = [
    4, 1, 2, 1, 8, 2, 1, 1, 2, 4, 1, 2, 1, 2, 4, 1, 8, 2, 1, 2, 1, 4, 2, 1,
];

/// Durations of the `count` applications of one size: spread evenly over
/// 50-150 ms, so the useful node-seconds of a wave are the same for every
/// seed.
fn durations(count: usize) -> Vec<f64> {
    (0..count)
        .map(|j| (50.0 + 100.0 * j as f64 / (count - 1) as f64).round() / 1000.0)
        .collect()
}

fn count_of(nodes: u32) -> usize {
    SIZES.iter().filter(|n| **n == nodes).count()
}

/// Node-seconds of application work in one wave.
fn useful_node_seconds() -> f64 {
    [1, 2, 4, 8]
        .iter()
        .map(|&nodes| nodes as f64 * durations(count_of(nodes)).iter().sum::<f64>())
        .sum()
}

fn sleep_then_hostname() -> Box<dyn Function> {
    // One `hostname` line per rank lets the generator check the rank count.
    Box::new(MpiFunction::new("sleep {secs} && hostname"))
}

struct AppMix;

impl Generator for AppMix {
    fn wave(&mut self, rng: &mut Rng, _first_task: u64, out: &mut Vec<Job>) {
        let mut pools: Vec<(u32, Vec<f64>)> = [1, 2, 4, 8]
            .iter()
            .map(|&nodes| {
                let mut secs = durations(count_of(nodes));
                rng.shuffle(&mut secs);
                (nodes, secs)
            })
            .collect();
        for nodes in SIZES {
            let pool = pools.iter_mut().find(|(n, _)| *n == nodes);
            let secs = pool
                .and_then(|(_, secs)| secs.pop())
                .expect("one duration per app");
            out.push(Job {
                args: Vec::new(),
                kwargs: Value::map([("secs", Value::Float(secs))]),
                nodes,
                expect: Expect::RankLines(nodes as usize),
                arg_bytes: 8,
            });
        }
    }
}

pub fn workload() -> Workload {
    Workload {
        name: "mpi_pack",
        why: "24 sleeping MPI apps of 1-8 nodes, seeded durations, submitted at once to GlobusMPIEngine on an 8-node block: sleep-bound, so only packing quality and launch latency move it.",
        layout: Layout {
            front: Front::InProc,
            backend: Backend::Engine(
                "engine:\n  type: GlobusMPIEngine\n  nodes_per_block: 8\n  mpi_launcher: mpiexec\n",
            ),
            batch_window: None,
        },
        function: sleep_then_hostname,
        generator: |_, _, _| Box::new(AppMix),
        wave: 24,
        nominal_waves_per_s: 1.2,
        warmup_waves: 1,
        think_time_us: 0,
        rep_seconds: 3.3,
        mpi_block: Some(MpiBlock {
            nodes: 8.0,
            useful_node_seconds: useful_node_seconds(),
        }),
        cpu_limited: false,
        gated: true,
    }
}
