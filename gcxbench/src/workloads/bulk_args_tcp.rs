//! The payload plane: per-byte costs, CAS hits beside misses, inline
//! messages beside by-reference ones.

use gcx_core::value::Value;
use gcx_sdk::{Function, PyFunction};

use crate::stack::{Backend, Front, Layout};
use crate::stats::Rng;
use crate::workload::{Expect, Generator, Job, Workload};

const WAVE: usize = 512;

/// (argument size, tasks per wave, hot bodies of that size). The sizes span
/// the service's 64 KiB inline threshold; the shares are 50% / 35% / 15% of
/// a wave and are the same in every wave, so argument bytes per wave do not
/// depend on the seed.
const CLASSES: [(usize, usize, usize); 3] =
    [(4 << 10, 256, 8), (48 << 10, 179, 6), (256 << 10, 77, 2)];

fn byte_len() -> Box<dyn Function> {
    Box::new(PyFunction::new("def f(b):\n    return len(b)\n"))
}

struct BulkArgs {
    /// Per class: the bodies half of the tasks repeat (CAS hits after first
    /// use) and the template the other half stamp a fresh counter into
    /// (CAS misses).
    hot: Vec<Vec<Vec<u8>>>,
    template: Vec<Vec<u8>>,
    unique: u64,
}

impl Generator for BulkArgs {
    fn wave(&mut self, rng: &mut Rng, _first_task: u64, out: &mut Vec<Job>) {
        let start = out.len();
        for (class, &(size, tasks, _)) in CLASSES.iter().enumerate() {
            for i in 0..tasks {
                let body = if i % 2 == 0 {
                    let hot = &self.hot[class];
                    hot[rng.below(hot.len() as u64) as usize].clone()
                } else {
                    let mut body = self.template[class].clone();
                    self.unique += 1;
                    body[..8].copy_from_slice(&self.unique.to_le_bytes());
                    body
                };
                out.push(Job {
                    args: vec![Value::Bytes(body)],
                    kwargs: Value::None,
                    nodes: 0,
                    expect: Expect::Int(size as i64),
                    arg_bytes: size as u64,
                });
            }
        }
        rng.shuffle(&mut out[start..]);
    }
}

pub fn workload() -> Workload {
    Workload {
        name: "bulk_args_tcp",
        why: "One 4 KiB-256 KiB bytes argument per task over TCP, half repeated bodies: encode-once, hashing, frame copies, CAS hit and miss, inline vs by-reference messages do most of the work.",
        layout: Layout {
            front: Front::Tcp,
            backend: Backend::Engine("engine:\n  type: ThreadEngine\n  workers: 2\n"),
            batch_window: None,
        },
        function: byte_len,
        generator: |rng, _, _| {
            Box::new(BulkArgs {
                hot: CLASSES
                    .iter()
                    .map(|&(size, _, hot)| (0..hot).map(|_| rng.bytes(size)).collect())
                    .collect(),
                template: CLASSES.iter().map(|&(size, _, _)| rng.bytes(size)).collect(),
                unique: rng.next_u64() >> 1,
            })
        },
        wave: WAVE,
        nominal_waves_per_s: 4.4,
        warmup_waves: 1,
        think_time_us: 0,
        rep_seconds: 2.0,
        mpi_block: None,
        cpu_limited: false,
        gated: false,
    }
}
