//! The seven workloads, one module each so a later benchmark change can
//! repair one without touching the others. Each states the layer that does
//! most of its work; `README.md` has the full table. Four are gated (listed
//! in `BENCHMARK.json`); three are diagnostics because identical stacks of
//! theirs run in two regimes (README "Repeatability").

mod bulk_args_tcp;
mod mpi_pack;
mod rtt_tcp;
mod stream_full;
mod svc_fed3;
mod svc_inmem;
mod svc_tcp;

use gcx_core::value::Value;
use gcx_sdk::{Function, PyFunction};

use crate::stack::{Backend, Front, Layout};
use crate::stats::Rng;
use crate::workload::{Expect, Generator, Job, Workload};

pub fn all() -> Vec<Workload> {
    vec![
        svc_inmem::workload(),
        svc_tcp::workload(),
        svc_fed3::workload(),
        stream_full::workload(),
        rtt_tcp::workload(),
        bulk_args_tcp::workload(),
        mpi_pack::workload(),
    ]
}

/// `def f(x): return x + 1` — the small task of the paper's Listing 1.
fn plus_one() -> Box<dyn Function> {
    Box::new(PyFunction::new("def f(x):\n    return x + 1\n"))
}

/// One integer argument per task: the task's run-wide index plus the seeded
/// offset.
struct IntArgs {
    offset: i64,
    wave: usize,
}

fn int_args(_rng: &mut Rng, offset: i64, wave: usize) -> Box<dyn Generator> {
    Box::new(IntArgs { offset, wave })
}

impl Generator for IntArgs {
    fn wave(&mut self, _rng: &mut Rng, first_task: u64, out: &mut Vec<Job>) {
        for i in 0..self.wave as u64 {
            let x = self.offset + (first_task + i) as i64;
            out.push(Job {
                args: vec![Value::Int(x)],
                kwargs: Value::None,
                nodes: 0,
                expect: Expect::Int(x + 1),
                arg_bytes: 8,
            });
        }
    }
}

/// The `svc_*` trio: the same small tasks against an echo drain, differing
/// only in how the SDK reaches the service.
///
/// A wire client keeps at most 1024 undelivered result pushes and silently
/// drops the rest, after which nothing re-fetches them: with more than 1024
/// tasks outstanding over TCP a slow stream thread can strand futures (seen
/// once in ~30 runs at 8192). The trio shares one wave size so that their
/// ratios compare like with like, so all three stay at the safe size.
fn echo_service(
    name: &'static str,
    why: &'static str,
    front: Front,
    nominal_waves_per_s: f64,
) -> Workload {
    Workload {
        name,
        why,
        layout: Layout {
            front,
            backend: Backend::Echo,
            batch_window: None,
        },
        function: plus_one,
        generator: int_args,
        wave: 1024,
        nominal_waves_per_s,
        // As many warm-up tasks as the other stream workloads' single wave.
        warmup_waves: 8,
        think_time_us: 0,
        rep_seconds: 2.0,
        mpi_block: None,
        // Between waves the one-replica stacks are idle, so the burst reads
        // the host. A federation's replicas keep log appliers and forwarders
        // runnable; the burst then reads their contention for the two cores
        // and explains nothing of the wave times.
        cpu_limited: front != Front::Fed3,
        gated: front != Front::Fed3,
    }
}
