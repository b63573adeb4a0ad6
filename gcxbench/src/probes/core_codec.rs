//! `gcx_core::codec` on the argument list of a small task.

use std::hint::black_box;

use gcx_core::codec;
use gcx_core::value::Value;

use super::{time_op, Probe};

pub fn run(p: &mut Probe<'_>) {
    let args = Value::List(vec![Value::Int(p.rng.below(1 << 40) as i64)]);
    let encoded = codec::encode(&args);
    p.out.insert(
        "core.codec.encode_small_ns",
        time_op(|| {
            black_box(codec::encode(black_box(&args)));
        }),
    );
    p.out.insert(
        "core.codec.decode_small_ns",
        time_op(|| {
            black_box(codec::decode(black_box(&encoded)).expect("decode"));
        }),
    );
}
