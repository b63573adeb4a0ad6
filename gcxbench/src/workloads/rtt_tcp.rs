//! Latency, not throughput: every layer once per task, nothing batched.

use std::time::Duration;

use super::{int_args, plus_one};
use crate::stack::{Backend, Front, Layout};
use crate::workload::Workload;

pub fn workload() -> Workload {
    Workload {
        name: "rtt_tcp",
        why: "One task outstanding (after a 0-2 ms pause) over TCP through GlobusComputeEngine, zero batch window: hand-off and wake-up waits dominate, so buying throughput by waiting longer shows as a loss.",
        layout: Layout {
            front: Front::Tcp,
            backend: Backend::Engine(
                "engine:\n  type: GlobusComputeEngine\n  workers_per_node: 2\n",
            ),
            // With the default 20 ms window this loop reads a flat ~21.6 ms.
            batch_window: Some(Duration::ZERO),
        },
        function: plus_one,
        generator: int_args,
        // A wave of one task is one round trip.
        wave: 1,
        // ~1.5 ms round trip + 1 ms mean pause; 1000 samples per stack, so
        // that ten lie beyond its p99.
        nominal_waves_per_s: 400.0,
        warmup_waves: 200,
        // Twice the SDK batcher's 1 ms poll, the longest of the loops a
        // round trip waits on.
        think_time_us: 2000,
        rep_seconds: 2.5,
        mpi_block: None,
        cpu_limited: false,
        gated: true,
    }
}
