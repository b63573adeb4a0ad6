//! A closed result stream leaves nothing behind. Each stream is a broker
//! queue with an `mq.depth.*` and an `mq.bytes.*` gauge; closing the stream
//! — in process, or from a wire client — must take the queue and both
//! gauges with it, even while its consumer still holds deliveries. Were it
//! otherwise, every exposition would list every stream ever opened, and the
//! metric set would grow with every executor and every reconnect.

use std::time::Duration;

use gcx_auth::{AuthPolicy, Token};
use gcx_cloud::{EndpointSession, WebService, WireClient, WireClientConfig, WireServer};
use gcx_config::TransportSpec;
use gcx_core::clock::SystemClock;
use gcx_core::function::FunctionBody;
use gcx_core::ids::{EndpointId, FunctionId};
use gcx_core::task::{TaskResult, TaskSpec};
use gcx_core::value::Value;

const STREAMS: usize = 1_000;
/// One stream in this many has a result delivered to it before it closes.
const HOLDING_EVERY: usize = 10;
const T: Duration = Duration::from_secs(10);

struct Stack {
    svc: WebService,
    token: Token,
    fid: FunctionId,
    ep: EndpointId,
    session: EndpointSession,
}

impl Stack {
    fn new() -> Self {
        let svc = WebService::with_defaults(SystemClock::shared());
        let (_, token) = svc.auth().login("streams@test.org").unwrap();
        let fid = svc
            .register_function(&token, FunctionBody::pyfn("def f():\n    return 1\n"))
            .unwrap();
        let reg = svc
            .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
            .unwrap();
        let session = svc
            .connect_endpoint(reg.endpoint_id, &reg.queue_credential)
            .unwrap();
        Self {
            svc,
            token,
            fid,
            ep: reg.endpoint_id,
            session,
        }
    }

    /// Run one task to a result, which fans out to every open stream.
    fn land_one(&self) {
        let id = self
            .svc
            .submit_task(&self.token, TaskSpec::new(self.fid, self.ep))
            .unwrap();
        let (_, tag) = self.session.next_task(T).unwrap().expect("the task");
        self.session
            .publish_result(id, &TaskResult::ok(Value::Int(1)))
            .unwrap();
        self.session.ack_task(tag).unwrap();
    }

    fn gauges(&self) -> Vec<String> {
        self.svc.metrics().gauge_snapshot().into_keys().collect()
    }
}

#[test]
fn closed_result_streams_take_their_queues_and_gauges_with_them() {
    let stack = Stack::new();
    let server = WireServer::inmem(&stack.svc, TransportSpec::default());
    let client = WireClient::over(
        server.connect_inmem(),
        &stack.token.0,
        WireClientConfig::default(),
    )
    .unwrap();
    // Whatever registers lazily on first use is there before the baseline.
    stack.land_one();
    drop(stack.svc.open_result_stream(&stack.token).unwrap());
    drop(client.open_stream().unwrap());
    let (gauges, queues) = (stack.gauges(), stack.svc.broker().queue_names());

    for i in 0..STREAMS {
        let stream = stack.svc.open_result_stream(&stack.token).unwrap();
        if i % HOLDING_EVERY == 0 {
            stack.land_one();
            // Taken and never acked: the consumer holds it as the stream
            // closes, and its requeue must not land in the deleted queue.
            let held = stream.consumer.next(T).unwrap().expect("a pushed result");
            let depth = stack
                .svc
                .metrics()
                .gauge(&format!("mq.depth.{}", stream.queue_name()));
            drop(stream);
            assert_eq!(depth.get(), 0, "stream {i}: a deleted queue reads depth");
            drop(held);
        }
    }
    assert_eq!(stack.gauges(), gauges, "in-process streams left gauges");
    assert_eq!(stack.svc.broker().queue_names(), queues);

    for i in 0..STREAMS {
        let stream = client.open_stream().unwrap();
        if i % HOLDING_EVERY == 0 {
            // A result on its way through the stream's queue as it closes.
            stack.land_one();
        }
        drop(stream);
    }
    assert_eq!(stack.gauges(), gauges, "wire streams left gauges");
    assert_eq!(stack.svc.broker().queue_names(), queues);

    client.close();
    server.shutdown();
    stack.svc.shutdown();
}
