//! The connection layer: a request/response, a 128-spec submit and the
//! server-push stream over localhost TCP, and the same submit over the
//! in-memory wire (the figure that decides whether in-process can become a
//! transport choice instead of a second link type).

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gcx_cloud::{WireClient, WireServer};
use gcx_config::TransportSpec;
use gcx_core::task::TaskResult;
use gcx_core::value::Value;
use gcx_core::wire::Transport;
use gcx_sdk::{Link, WireClientConfig, WireLink};

use super::{time_batch, time_op, Probe, Service};
use crate::stack::NO_EXPIRY_MS;

const BATCHES: usize = 16;
/// Fewer than the 1024 undelivered pushes a wire client keeps before it
/// starts dropping them: the probe publishes a whole batch, then reads it.
const RESULTS: usize = 768;

fn spec() -> TransportSpec {
    TransportSpec {
        idle_timeout_ms: NO_EXPIRY_MS,
        ..TransportSpec::default()
    }
}

fn submit_ns_per_task(p: &mut Probe<'_>, service: &Service, link: &Link) -> f64 {
    time_batch(
        BATCHES * 128,
        || -> Vec<_> { (0..BATCHES).map(|_| service.specs(p.rng, 128)).collect() },
        |batches| {
            for specs in &batches {
                link.submit_batch(&service.token, specs)
                    .expect("submit_batch");
            }
        },
    )
}

pub fn run(p: &mut Probe<'_>) {
    // TCP.
    let service = Service::new();
    let server = WireServer::listen(&service.svc, spec()).expect("listen");
    let link = Link::connect(
        vec![server.addr().to_string()],
        &service.token.0,
        WireClientConfig::default(),
    )
    .expect("connect");
    let id = link
        .submit_batch(&service.token, &service.specs(p.rng, 1))
        .expect("submit")[0];
    p.out.insert(
        "cloud.conn.call_rtt_us",
        time_op(|| {
            black_box(link.task_status(&service.token, id).expect("task_status"));
        }) / 1e3,
    );
    let ns = submit_ns_per_task(p, &service, &link);
    p.out
        .insert("cloud.conn.submit_batch128_ns_per_task_tcp", ns);

    // Server push: drain what the submits above queued, then time results
    // published service-side until they arrive on the wire stream.
    let session = service.session();
    let mut feed = link.open_stream(&service.token).expect("open_stream");
    let result = TaskResult::ok(Value::Int(1));
    let ns = time_batch(
        RESULTS,
        || {
            while let Ok(Some((_, tag))) = session.next_task(Duration::from_millis(20)) {
                session.ack_task(tag).expect("ack");
            }
            link.submit_batch(&service.token, &service.specs(p.rng, RESULTS))
                .expect("submit");
            (0..RESULTS)
                .map(|_| {
                    let (spec, tag) = session
                        .next_task(Duration::from_secs(1))
                        .expect("next_task")
                        .expect("submitted task");
                    session.ack_task(tag).expect("ack");
                    spec.task_id
                })
                .collect::<Vec<_>>()
        },
        |ids| {
            for id in ids {
                session.publish_result(id, &result).expect("publish_result");
            }
            let deadline = Instant::now() + Duration::from_secs(30);
            let mut seen = 0;
            while seen < RESULTS {
                assert!(Instant::now() < deadline, "pushed results went missing");
                if feed.next(Duration::from_secs(1)).expect("feed").is_some() {
                    seen += 1;
                }
            }
        },
    );
    p.out.insert("cloud.conn.push_ns_per_result_tcp", ns);
    drop(feed);
    link.close();
    server.shutdown();
    service.svc.shutdown();

    // The same submit over the in-memory wire: identical frames and
    // handshake, no socket.
    let service = Service::new();
    let server = WireServer::inmem(&service.svc, spec());
    let transport: Arc<dyn Transport> = server.connect_inmem();
    let cfg = WireClientConfig::default();
    let client = WireClient::over(transport, &service.token.0, cfg.clone()).expect("handshake");
    let link = Link::Wire(WireLink::over(client, cfg));
    let ns = submit_ns_per_task(p, &service, &link);
    p.out
        .insert("cloud.conn.submit_batch128_ns_per_task_inmem_wire", ns);
    link.close();
    server.shutdown();
    service.svc.shutdown();
}
