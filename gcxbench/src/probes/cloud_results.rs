//! The result path: published results → result processors → task store →
//! the user's push stream.

use std::time::Duration;

use gcx_core::task::TaskResult;
use gcx_core::value::Value;

use super::{time_batch, Probe, Service};

const TASKS: usize = 2048;

pub fn run(p: &mut Probe<'_>) {
    let service = Service::new();
    let session = service.session();
    let stream = service
        .svc
        .open_result_stream(&service.token)
        .expect("open_result_stream");
    let result = TaskResult::ok(Value::Int(1));
    let ns = time_batch(
        TASKS,
        || {
            for specs in service.specs(p.rng, TASKS).chunks(128) {
                service
                    .svc
                    .submit_batch(&service.token, specs.to_vec())
                    .expect("submit");
            }
            let pulled: Vec<_> = (0..TASKS)
                .map(|_| {
                    session
                        .next_task(Duration::from_secs(1))
                        .expect("next_task")
                        .expect("submitted task")
                })
                .collect();
            for (_, tag) in &pulled {
                session.ack_task(*tag).expect("ack");
            }
            pulled
        },
        |pulled| {
            for (spec, _) in &pulled {
                session
                    .publish_result(spec.task_id, &result)
                    .expect("publish_result");
            }
            for _ in 0..TASKS {
                let delivery = stream
                    .consumer
                    .next(Duration::from_secs(10))
                    .expect("stream")
                    .expect("a pushed result");
                stream.consumer.ack(delivery.tag).expect("ack");
            }
        },
    );
    p.out.insert("cloud.results.land_ns_per_task", ns);
    drop(stream);
    service.svc.shutdown();
}
