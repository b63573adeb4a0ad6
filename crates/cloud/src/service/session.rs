//! [`EndpointSession`] — an endpoint agent's live connection to the web
//! service: task consumption, state reports, heartbeats, result publishing.

use std::time::Duration;

use gcx_core::error::GcxResult;
use gcx_core::function::FunctionRecord;
use gcx_core::ids::{EndpointId, FunctionId, TaskId};
use gcx_core::task::{TaskResult, TaskSpec, TaskState};
use gcx_mq::{Cancel, Consumer, Message};

use super::dispatch::PAYLOAD_LIMIT;
use super::{WebService, RESULT_QUEUE};
use gcx_core::error::GcxError;

/// An endpoint agent's live session with the web service.
pub struct EndpointSession {
    cloud: WebService,
    endpoint_id: EndpointId,
    tasks: Consumer,
}

impl EndpointSession {
    pub(super) fn new(cloud: WebService, endpoint_id: EndpointId, tasks: Consumer) -> Self {
        Self {
            cloud,
            endpoint_id,
            tasks,
        }
    }

    /// Pull the next task (blocking up to `timeout`). Returns the decoded
    /// spec (a payload reference resolved from the task record) plus the
    /// delivery tag.
    ///
    /// A by-reference delivery whose task is no longer held is stale: its
    /// record goes only once the task's result has landed and been
    /// confirmed (or at shutdown), so this is a redelivery of finished
    /// work. It is acked, counted in `cloud.deliveries_stale`, and the
    /// call takes what else is ready without waiting again.
    pub fn next_task(&self, timeout: Duration) -> GcxResult<Option<(TaskSpec, u64)>> {
        let mut wait = timeout;
        loop {
            let Some(delivery) = self.tasks.next(wait)? else {
                return Ok(None);
            };
            let (mut spec, payload_is_ref) = TaskSpec::from_message(&delivery.message.body)?;
            if payload_is_ref {
                let cloud = &self.cloud;
                match cloud.resolve_payload(spec.task_id, spec.payload.hash()) {
                    Ok(payload) => spec.payload = payload,
                    Err(_) if !cloud.inner.tasks.contains_key(&spec.task_id) => {
                        self.tasks.ack(delivery.tag)?;
                        cloud.inner.m.deliveries_stale.inc();
                        wait = Duration::ZERO;
                        continue;
                    }
                    Err(e) => return Err(e),
                }
            }
            if let Some(ctx) = &spec.trace {
                // Queue-transit leg: publish stamp (header) → now. A
                // redelivery records a second queue span, so recovery
                // round-trips are visible in the timeline.
                let tracer = &self.cloud.inner.tracer;
                let now = tracer.now_ms();
                let sent = delivery.message.headers.sent_ms.unwrap_or(now);
                let redelivered = delivery.message.redelivered;
                let delivery_count = delivery.message.delivery_count;
                tracer.record_span_annotated(Some(ctx), "queue", sent, now, || {
                    if redelivered {
                        vec![format!("redelivered (delivery {delivery_count})")]
                    } else {
                        Vec::new()
                    }
                });
            }
            return Ok(Some((spec, delivery.tag)));
        }
    }

    /// Ends `next_task`'s waits from another thread; acks still work.
    pub fn canceller(&self) -> Cancel {
        self.tasks.canceller()
    }

    /// Call `waker` whenever a `next_task` may find something new: a task
    /// published or requeued to this endpoint, the queue deleted, or the
    /// session cancelled (see [`Consumer::set_waker`]).
    pub fn set_waker(&self, waker: impl Fn() + Send + Sync + 'static) {
        self.tasks.set_waker(waker);
    }

    /// Acknowledge a task delivery (after the result is safely published).
    pub fn ack_task(&self, tag: u64) -> GcxResult<()> {
        self.tasks.ack(tag)
    }

    /// Return a task to the queue (worker lost).
    pub fn nack_task(&self, tag: u64) -> GcxResult<()> {
        self.tasks.nack(tag)
    }

    /// Report a task state transition.
    pub fn report_state(&self, task_id: TaskId, state: TaskState) -> GcxResult<()> {
        self.cloud.report_state(self.endpoint_id, task_id, state)
    }

    /// Tell the service this agent is alive (resets the liveness timer).
    pub fn heartbeat(&self) -> GcxResult<()> {
        self.cloud.heartbeat(self.endpoint_id)
    }

    /// Report lost batch capacity (engine saw a block die or shrink).
    pub fn report_block_lost(&self, reason: &str, _nodes_lost: usize) -> GcxResult<()> {
        self.cloud.report_block_loss(self.endpoint_id, reason)
    }

    /// Report a running block (capacity recovered).
    pub fn report_block_recovered(&self, _nodes: usize) -> GcxResult<()> {
        self.cloud.report_block_recovery(self.endpoint_id)
    }

    /// Whether the task was cancelled while buffered (the agent skips it).
    pub fn task_cancelled(&self, task_id: TaskId) -> bool {
        self.cloud.task_cancelled(task_id)
    }

    /// Publish a task result to the shared result queue as a compact
    /// binary envelope — the already-encoded result payload is memcpy'd
    /// into the frame, never re-walked by the codec.
    pub fn publish_result(&self, task_id: TaskId, result: &TaskResult) -> GcxResult<()> {
        let size = match result {
            TaskResult::Ok(p) => p.len(),
            TaskResult::Err(e) => e.len(),
        };
        let oversized;
        let result = if size > PAYLOAD_LIMIT {
            // Oversized results become failures, like the production 10 MB rule.
            oversized = TaskResult::Err(format!(
                "result of {size} bytes exceeds the {} byte payload limit",
                PAYLOAD_LIMIT
            ));
            &oversized
        } else {
            result
        };
        // The publish stamp rides the envelope: it ends the task's `execute`
        // leg and starts its `result` leg where the result lands.
        let now = self.cloud.inner.clock.now_ms();
        self.cloud.inner.broker.publish(
            RESULT_QUEUE,
            Message::new(result.to_envelope(task_id, Some(now))),
            Some("cloud-results"),
        )
    }

    /// Fetch a function body for execution.
    pub fn fetch_function(&self, id: FunctionId) -> GcxResult<FunctionRecord> {
        self.cloud
            .inner
            .functions
            .get_cloned(&id)
            .ok_or(GcxError::FunctionNotFound(id))
    }
}

impl Drop for EndpointSession {
    fn drop(&mut self) {
        self.cloud.disconnect_endpoint(self.endpoint_id);
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{login, service, T};
    use super::*;
    use gcx_auth::AuthPolicy;
    use gcx_core::function::FunctionBody;
    use gcx_core::value::Value;

    #[test]
    fn tasks_buffer_while_endpoint_offline() {
        let svc = service();
        let token = login(&svc, "u@x.y");
        let fid = svc
            .register_function(&token, FunctionBody::pyfn("def f():\n    return 1\n"))
            .unwrap();
        let reg = svc
            .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
            .unwrap();
        // Submit before the agent ever connects.
        let id = svc
            .submit_task(&token, TaskSpec::new(fid, reg.endpoint_id))
            .unwrap();
        let (state, _) = svc.task_status(&token, id).unwrap();
        assert_eq!(state, TaskState::Received);
        // Now the agent comes online and finds the buffered task.
        let session = svc
            .connect_endpoint(reg.endpoint_id, &reg.queue_credential)
            .unwrap();
        let (got, tag) = session.next_task(T).unwrap().unwrap();
        assert_eq!(got.task_id, id);
        session.ack_task(tag).unwrap();
        svc.shutdown();
    }

    #[test]
    fn nacked_task_is_redelivered_to_a_second_session() {
        let svc = service();
        let token = login(&svc, "u@x.y");
        let fid = svc
            .register_function(&token, FunctionBody::pyfn("def f():\n    return 1\n"))
            .unwrap();
        let reg = svc
            .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
            .unwrap();
        let id = svc
            .submit_task(&token, TaskSpec::new(fid, reg.endpoint_id))
            .unwrap();

        // First agent takes the task but loses its worker and nacks.
        let first = svc
            .connect_endpoint(reg.endpoint_id, &reg.queue_credential)
            .unwrap();
        let (got, tag) = first.next_task(T).unwrap().unwrap();
        assert_eq!(got.task_id, id);
        first.nack_task(tag).unwrap();
        drop(first);

        // A replacement agent picks the same task up, flagged redelivered.
        let second = svc
            .connect_endpoint(reg.endpoint_id, &reg.queue_credential)
            .unwrap();
        let (again, tag2) = second.next_task(T).unwrap().unwrap();
        assert_eq!(again.task_id, id);
        second.report_state(id, TaskState::Running).unwrap();
        second
            .publish_result(id, &TaskResult::ok(Value::Int(7)))
            .unwrap();
        second.ack_task(tag2).unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        loop {
            let (state, _) = svc.task_status(&token, id).unwrap();
            if state == TaskState::Success {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "result never processed"
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        svc.shutdown();
    }

    /// A by-reference task redelivered after its result was confirmed is
    /// stale: the session that takes it acks it, counts it, and answers
    /// with what else is ready — here nothing, and no error.
    #[test]
    fn a_stale_reference_delivery_is_acked_and_skipped() {
        let svc = service();
        let token = login(&svc, "u@x.y");
        let fid = svc
            .register_function(&token, FunctionBody::pyfn("def f(b):\n    return len(b)\n"))
            .unwrap();
        let reg = svc
            .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
            .unwrap();
        let mut spec = TaskSpec::new(fid, reg.endpoint_id);
        spec.set_args(vec![Value::Bytes(vec![1u8; 1024 * 1024])], Value::None);
        let id = svc.submit_task(&token, spec).unwrap();

        // Session A serves the task but drops before it acks.
        let first = svc
            .connect_endpoint(reg.endpoint_id, &reg.queue_credential)
            .unwrap();
        let (got, _unacked) = first.next_task(T).unwrap().unwrap();
        assert_eq!(got.task_id, id);
        first
            .publish_result(id, &TaskResult::ok(Value::Int(1)))
            .unwrap();
        drop(first);

        // The caller takes the result and confirms it: the record goes.
        let deadline = std::time::Instant::now() + T;
        while !svc.task_status(&token, id).unwrap().0.is_terminal() {
            assert!(std::time::Instant::now() < deadline, "never landed");
            std::thread::sleep(Duration::from_millis(2));
        }
        svc.confirm_taken(&token, &[id]).unwrap();

        let second = svc
            .connect_endpoint(reg.endpoint_id, &reg.queue_credential)
            .unwrap();
        assert!(second.next_task(T).unwrap().is_none());
        let stale = svc.metrics().counter("cloud.deliveries_stale");
        assert_eq!(stale.get(), 1);
        let queue = svc
            .broker()
            .queue_stats(&super::super::task_queue_name(reg.endpoint_id))
            .unwrap();
        assert_eq!(
            (queue.ready, queue.unacked),
            (0, 0),
            "the stale delivery was acked"
        );
        svc.shutdown();
    }
}
