//! `gcx_core::task`: the flat task message and the result envelope.

use std::hint::black_box;

use gcx_core::ids::{EndpointId, FunctionId};
use gcx_core::task::{TaskResult, TaskSpec};
use gcx_core::value::Value;

use super::{small_specs, time_op, Probe};

pub fn run(p: &mut Probe<'_>) {
    let spec = small_specs(p.rng, FunctionId::random(), EndpointId::random(), 1).remove(0);
    let message = spec.to_message(true);
    p.out.insert(
        "core.task.to_message_ns",
        time_op(|| {
            black_box(black_box(&spec).to_message(true));
        }),
    );
    p.out.insert(
        "core.task.from_message_ns",
        time_op(|| {
            black_box(TaskSpec::from_message(black_box(&message)).expect("from_message"));
        }),
    );
    let result = TaskResult::ok(Value::Int(p.rng.below(1 << 40) as i64));
    let envelope = result.to_envelope(spec.task_id, Some(1));
    p.out.insert(
        "core.task.to_envelope_ns",
        time_op(|| {
            black_box(black_box(&result).to_envelope(spec.task_id, Some(1)));
        }),
    );
    p.out.insert(
        "core.task.from_envelope_ns",
        time_op(|| {
            black_box(TaskResult::from_envelope(black_box(&envelope)).expect("from_envelope"));
        }),
    );
}
