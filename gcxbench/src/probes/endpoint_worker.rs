//! `WorkerContext::execute`: the single decode, compile and call.

use std::hint::black_box;

use gcx_core::function::FunctionBody;
use gcx_core::ids::{EndpointId, FunctionId};
use gcx_core::task::TaskSpec;
use gcx_core::value::Value;
use gcx_endpoint::worker::WorkerContext;
use gcx_shell::Vfs;

use super::{clock, time_op, Probe};

pub fn run(p: &mut Probe<'_>) {
    let worker = WorkerContext::new(Vfs::new(), clock(), "probe-node");
    let mut spec = TaskSpec::new(FunctionId::random(), EndpointId::random());
    spec.set_args(vec![Value::Int(p.rng.below(1 << 40) as i64)], Value::None);
    let plus_one = FunctionBody::pyfn("def f(x):\n    return x + 1\n");
    p.out.insert(
        "endpoint.worker.execute_pyfn_noop_us",
        time_op(|| {
            black_box(worker.execute(black_box(&spec), &plus_one));
        }) / 1e3,
    );
    spec.set_args(vec![Value::Bytes(p.rng.bytes(48 << 10))], Value::None);
    let byte_len = FunctionBody::pyfn("def f(b):\n    return len(b)\n");
    p.out.insert(
        "endpoint.worker.execute_pyfn_48k_us",
        time_op(|| {
            black_box(worker.execute(black_box(&spec), &byte_len));
        }) / 1e3,
    );
}
