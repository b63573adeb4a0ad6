//! `gcx_pyfn`: compile and call of the small function every stream
//! workload runs.

use std::hint::black_box;

use gcx_core::value::Value;
use gcx_pyfn::{Limits, Program, SystemHost};

use super::{clock, time_op, Probe};

const SOURCE: &str = "def f(x):\n    return x + 1\n";

pub fn run(p: &mut Probe<'_>) {
    p.out.insert(
        "pyfn.compile_ns",
        time_op(|| {
            black_box(Program::compile(black_box(SOURCE)).expect("compile"));
        }),
    );
    let program = Program::compile(SOURCE).expect("compile");
    let mut host = SystemHost::new(clock(), p.rng.next_u64(), "probe-node");
    let x = p.rng.below(1 << 40) as i64;
    p.out.insert(
        "pyfn.call_noop_ns",
        time_op(|| {
            black_box(
                program
                    .call_entry(
                        vec![Value::Int(x)],
                        &Value::None,
                        &mut host,
                        Limits::default(),
                    )
                    .expect("call_entry"),
            );
        }),
    );
}
