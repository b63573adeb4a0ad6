//! `gcx_core::payload`: the single encode, the single decode, the hash.

use std::hint::black_box;

use gcx_core::payload::{ContentHash, Payload};
use gcx_core::value::Value;

use super::{time_op, Probe};

pub fn run(p: &mut Probe<'_>) {
    let args = [Value::Bytes(p.rng.bytes(48 << 10))];
    let payload = Payload::encode_args(&args, &Value::None);
    p.out.insert(
        "core.payload.encode_args_48k_us",
        time_op(|| {
            black_box(Payload::encode_args(black_box(&args), &Value::None));
        }) / 1e3,
    );
    p.out.insert(
        "core.payload.decode_args_48k_us",
        time_op(|| {
            black_box(payload.decode_args().expect("decode_args"));
        }) / 1e3,
    );
    let body = p.rng.bytes(256 << 10);
    let ns = time_op(|| {
        black_box(ContentHash::of(black_box(&body)));
    });
    p.out.insert(
        "core.payload.hash_mib_per_s",
        body.len() as f64 / (1 << 20) as f64 / (ns / 1e9),
    );
}
