//! `gcx_core::wire`: framing of a 128-spec submit request, and one small
//! frame there and back over each transport.

use std::hint::black_box;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use gcx_core::ids::{EndpointId, FunctionId};
use gcx_core::task::TaskSpec;
use gcx_core::value::Value;
use gcx_core::wire::{
    encode_frame, Frame, FrameReader, InMemTransport, TcpTransport, Transport, DEFAULT_MAX_FRAME,
};

use super::{small_specs, time_op, Probe};

/// Send a frame, wait for the peer thread to send it back.
fn ping_pong_us(near: Arc<dyn Transport>, far: Arc<dyn Transport>) -> f64 {
    let echo = std::thread::spawn(move || {
        while let Ok(frame) = far.recv(Duration::from_millis(200)) {
            if let Some(frame) = frame {
                if far.send(&frame).is_err() {
                    break;
                }
            }
        }
    });
    let ping = Frame::request(1, "ping", Value::Int(1));
    let ns = time_op(|| {
        near.send(&ping).expect("send");
        black_box(near.recv(Duration::from_secs(5)).expect("recv"));
    });
    near.close();
    echo.join().expect("echo thread");
    ns / 1e3
}

pub fn run(p: &mut Probe<'_>) {
    let specs = small_specs(p.rng, FunctionId::random(), EndpointId::random(), 128);
    let request = Frame::request(
        7,
        "submit_batch",
        Value::map([(
            "specs",
            Value::List(specs.iter().map(TaskSpec::to_value).collect()),
        )]),
    );
    let bytes = encode_frame(&request, DEFAULT_MAX_FRAME).expect("encode_frame");
    p.out.insert(
        "core.wire.encode_frame_batch128_us",
        time_op(|| {
            black_box(encode_frame(black_box(&request), DEFAULT_MAX_FRAME).expect("encode"));
        }) / 1e3,
    );
    let mut reader = FrameReader::new(DEFAULT_MAX_FRAME);
    p.out.insert(
        "core.wire.decode_frame_batch128_us",
        time_op(|| {
            reader.feed(black_box(&bytes));
            black_box(reader.next_frame().expect("next_frame"));
        }) / 1e3,
    );

    let (a, b) = InMemTransport::pair(DEFAULT_MAX_FRAME);
    p.out.insert(
        "core.wire.inmem_frame_rtt_us",
        ping_pong_us(Arc::new(a), Arc::new(b)),
    );

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind localhost");
    let addr = listener.local_addr().expect("local_addr").to_string();
    let near = TcpTransport::connect(&addr, DEFAULT_MAX_FRAME).expect("connect");
    let (stream, _) = listener.accept().expect("accept");
    let far = TcpTransport::new(stream, DEFAULT_MAX_FRAME).expect("transport");
    p.out.insert(
        "core.wire.tcp_frame_rtt_us",
        ping_pong_us(Arc::new(near), Arc::new(far)),
    );
}
