//! Regression pin for the encode-once payload plane: a steady-state
//! submit → dispatch → execute → result cycle performs exactly one payload
//! encode per task (at the submit edge), one per result (at the worker),
//! and one decode per task (at the worker) — every layer in between moves
//! the bytes by reference. If a future change sneaks a re-encode into the
//! dispatcher, the queues, or the result pipeline, the counters move and
//! this test names the leak. The same cycle is then driven through the wire
//! (`WireServer::inmem`: packed submit, pushed results) and must count the
//! same — framing moves payload bytes, it never re-walks them.
//!
//! One `#[test]` on purpose: the counters are process-wide.

use std::time::{Duration, Instant};

use gcx_auth::AuthPolicy;
use gcx_cloud::{WebService, WireClient, WireClientConfig, WireServer};
use gcx_config::TransportSpec;
use gcx_core::clock::SystemClock;
use gcx_core::function::FunctionBody;
use gcx_core::payload;
use gcx_core::task::{TaskResult, TaskSpec, TaskState};
use gcx_core::value::Value;

const TASKS: usize = 16;

#[test]
fn steady_state_cycle_encodes_each_payload_exactly_once() {
    let svc = WebService::with_defaults(SystemClock::shared());
    let (_, token) = svc.auth().login("pin@test.org").unwrap();
    let fid = svc
        .register_function(&token, FunctionBody::pyfn("def f(x):\n    return x\n"))
        .unwrap();
    let reg = svc
        .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
        .unwrap();
    let session = svc
        .connect_endpoint(reg.endpoint_id, &reg.queue_credential)
        .unwrap();

    // Warm up: the first spec construction populates the process-wide
    // empty-args payload cache, the first submission fills one-time pools.
    let mut warm = TaskSpec::new(fid, reg.endpoint_id);
    warm.set_args(vec![Value::Int(0)], Value::None);
    let warm_id = svc.submit_task(&token, warm).unwrap();
    let (spec, tag) = session
        .next_task(Duration::from_secs(2))
        .unwrap()
        .expect("warmup delivery");
    session
        .publish_result(spec.task_id, &TaskResult::ok(Value::Int(0)))
        .unwrap();
    session.ack_task(tag).unwrap();
    wait_terminal(&svc, &token, &[warm_id]);

    // Steady state, measured: in-process submits, results read from the
    // task store.
    measured_cycle(
        &session,
        (fid, reg.endpoint_id),
        0,
        &|spec| svc.submit_task(&token, spec).unwrap(),
        &|ids| wait_terminal(&svc, &token, ids),
    );

    // The same cycle over the wire: one packed submit per task, results
    // arriving on the server-push stream.
    let server = WireServer::inmem(&svc, TransportSpec::default());
    let client = WireClient::over(
        server.connect_inmem(),
        &token.0,
        WireClientConfig::default(),
    )
    .unwrap();
    let stream = client.open_stream().unwrap();
    measured_cycle(
        &session,
        (fid, reg.endpoint_id),
        100,
        &|spec| client.submit_batch(&[spec]).unwrap()[0],
        &|ids| {
            let mut pushed = std::collections::HashSet::new();
            let deadline = Instant::now() + Duration::from_secs(5);
            while pushed.len() < ids.len() {
                assert!(Instant::now() < deadline, "pushed results went missing");
                if let Some((id, result)) = stream.next(Duration::from_millis(100)).unwrap() {
                    assert!(matches!(result, TaskResult::Ok(_)));
                    pushed.insert(id);
                }
            }
            assert_eq!(pushed, ids.iter().copied().collect());
        },
    );
    drop(stream);
    client.close();
    server.shutdown();

    // The payload plane's counter rides both scrape surfaces.
    assert!(svc
        .exposition_prometheus()
        .contains("gcx_payload_bytes_moved"));
    assert!(svc.exposition_json().contains("payload.bytes_moved"));
    svc.shutdown();
}

/// Submit [`TASKS`] unique payloads through `submit`, serve them as a worker
/// would (one decode, one result encode each), let `collect` see the results
/// back at the client, and pin the counters.
fn measured_cycle(
    session: &gcx_cloud::EndpointSession,
    (fid, ep): (gcx_core::ids::FunctionId, gcx_core::ids::EndpointId),
    salt: u8,
    submit: &dyn Fn(TaskSpec) -> gcx_core::ids::TaskId,
    collect: &dyn Fn(&[gcx_core::ids::TaskId]),
) {
    let encodes = payload::encode_count();
    let decodes = payload::decode_count();
    let mut ids = Vec::new();
    for i in 0..TASKS {
        let mut spec = TaskSpec::new(fid, ep);
        // Unique payloads: no task's bytes can stand in for another's.
        spec.set_args(vec![Value::Bytes(vec![salt + i as u8; 4096])], Value::None);
        ids.push(submit(spec));
    }
    for _ in 0..TASKS {
        let (spec, tag) = session
            .next_task(Duration::from_secs(2))
            .unwrap()
            .expect("delivery");
        // The worker-side single decode.
        let (args, _kwargs) = spec.decode_args().unwrap();
        let Value::Bytes(b) = &args[0] else { panic!() };
        // The worker-side single result encode.
        session
            .publish_result(spec.task_id, &TaskResult::ok(Value::Int(b.len() as i64)))
            .unwrap();
        session.ack_task(tag).unwrap();
    }
    collect(&ids);
    let n = TASKS as u64;
    assert_eq!(
        payload::encode_count() - encodes,
        2 * n,
        "exactly one submit-edge encode and one result encode per task"
    );
    assert_eq!(
        payload::decode_count() - decodes,
        n,
        "exactly one worker-side decode per task"
    );
}

fn wait_terminal(svc: &WebService, token: &gcx_auth::Token, ids: &[gcx_core::ids::TaskId]) {
    let deadline = Instant::now() + Duration::from_secs(5);
    for &id in ids {
        loop {
            let (state, _) = svc.task_status(token, id).unwrap();
            if state == TaskState::Success {
                break;
            }
            assert!(Instant::now() < deadline, "task {id} never completed");
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}
