//! What a user of Listing 1 gets for small tasks.

use super::{int_args, plus_one};
use crate::stack::{Backend, Front, Layout};
use crate::workload::Workload;

const WAVE: usize = 2048;

pub fn workload() -> Workload {
    Workload {
        name: "stream_full",
        why: "Full in-process stack with a real agent, ThreadEngine (2 workers) and pyfn x+1: endpoint-bound, so agent/engine/worker gains show here and cloud/mq/wire gains should not.",
        layout: Layout {
            front: Front::InProc,
            backend: Backend::Engine("engine:\n  type: ThreadEngine\n  workers: 2\n"),
            batch_window: None,
        },
        function: plus_one,
        generator: int_args,
        wave: WAVE,
        nominal_waves_per_s: 3.0,
        warmup_waves: 1,
        think_time_us: 0,
        rep_seconds: 2.0,
        mpi_block: None,
        cpu_limited: false,
        gated: false,
    }
}
