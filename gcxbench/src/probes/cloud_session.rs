//! `EndpointSession` on a pre-filled task queue: pull, publish, ack.

use std::time::{Duration, Instant};

use gcx_core::task::TaskResult;
use gcx_core::value::Value;

use super::{Probe, Service, REPS};
use crate::stats;

const TASKS: usize = 2048;

pub fn run(p: &mut Probe<'_>) {
    let service = Service::new();
    let session = service.session();
    let (mut next, mut publish, mut ack) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS {
        for specs in service.specs(p.rng, TASKS).chunks(128) {
            service
                .svc
                .submit_batch(&service.token, specs.to_vec())
                .expect("pre-fill");
        }
        let per_task = |from: Instant| from.elapsed().as_nanos() as f64 / TASKS as f64;

        let from = Instant::now();
        let pulled: Vec<_> = (0..TASKS)
            .map(|_| {
                session
                    .next_task(Duration::from_secs(1))
                    .expect("next_task")
                    .expect("pre-filled queue")
            })
            .collect();
        next.push(per_task(from));

        let result = TaskResult::ok(Value::Int(1));
        let from = Instant::now();
        for (spec, _) in &pulled {
            session
                .publish_result(spec.task_id, &result)
                .expect("publish_result");
        }
        publish.push(per_task(from));

        let from = Instant::now();
        for (_, tag) in &pulled {
            session.ack_task(*tag).expect("ack_task");
        }
        ack.push(per_task(from));
    }
    p.out
        .insert("cloud.session.next_task_ns", stats::median(&next));
    p.out
        .insert("cloud.session.publish_result_ns", stats::median(&publish));
    p.out.insert("cloud.session.ack_ns", stats::median(&ack));
    service.svc.shutdown();
}
