//! Result landing: the processor loops draining the shared result and
//! dead-task queues, per-identity result streams, and endpoint-side state
//! reports.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gcx_auth::Token;
use gcx_core::error::{GcxError, GcxResult};
use gcx_core::ids::{EndpointId, IdentityId, TaskId};
use gcx_core::task::{TaskResult, TaskSpec, TaskState};
use gcx_mq::{Broker, Consumer, Message};

use super::{stream_queue_name, StreamTargets, WebService, DEAD_TASKS_QUEUE, RESULT_QUEUE};
use crate::federation::envelope::Body;

/// How long a service loop blocks on an empty queue before it looks at the
/// shutdown flag again.
const STOP_NOTICE: Duration = Duration::from_millis(25);

/// How soon the next retire pass comes after one that found confirmed
/// results. The records confirmed between passes wait in the task store:
/// at ≈ 300k tasks/s a 25 ms gap let them pass ≈ 10k, where its shards
/// double (≈ +7 MiB). Passes are not free either: one every 5 ms added
/// 5–11% to that workload's median latency on a 2-vCPU host, one every
/// 15 ms ≈ 3.5% (EXPERIMENTS.md W9).
const RETIRE_BUSY: Duration = Duration::from_millis(15);

/// Most results a result processor takes per wake-up: its prefetch window.
const PROCESSOR_TAKE: usize = 64;

/// Results landed and not yet published to their owners' streams, in
/// arrival order: each one's stream list and the one message all of those
/// streams get. Whoever lands results owns one and flushes it; the buffers
/// are kept for the owner's lifetime.
#[derive(Default)]
pub(super) struct FanOut {
    landed: Vec<(StreamTargets, Message)>,
    /// One stream's share of a flush, lent to `publish_batch` as a drain.
    batch: Vec<Message>,
}

impl FanOut {
    /// Publish everything landed: one `publish_batch` per stream per run of
    /// results that share a stream list (one run per take when a single
    /// identity's results arrive together), so each stream receives its
    /// results in arrival order.
    pub(super) fn flush(&mut self, broker: &Broker) {
        while let Some((targets, _)) = self.landed.first() {
            let targets = targets.clone();
            let run = self
                .landed
                .iter()
                .take_while(|(t, _)| Arc::ptr_eq(t, &targets))
                .count();
            // Never empty: `finish_task_local` lands nothing for no streams.
            let Some(((last_queue, last_cred), rest)) = targets.split_last() else {
                self.landed.drain(..run);
                continue;
            };
            for (queue, cred) in rest {
                let copies = self.landed[..run].iter().map(|(_, m)| m.clone());
                self.batch.extend(copies);
                let _ = broker.publish_batch(queue, self.batch.drain(..), Some(cred));
            }
            // The last stream takes the messages themselves.
            self.batch
                .extend(self.landed.drain(..run).map(|(_, message)| message));
            let _ = broker.publish_batch(last_queue, self.batch.drain(..), Some(last_cred));
        }
    }
}

impl WebService {
    // ---- result streaming (the executor path) ----------------------------

    /// Open a result stream for the caller: an AMQPS consumer that receives
    /// `(task_id, result)` pairs as they arrive at the service (§III-A).
    /// Every call creates a fresh stream (one per executor instance);
    /// results for the identity fan out to all of its open streams. Drop
    /// the returned [`ResultStream`] to tear the stream down.
    pub fn open_result_stream(&self, token: &Token) -> GcxResult<ResultStream> {
        let who = self.authenticate(token)?;
        let n = self.inner.stream_counter.fetch_add(1, Ordering::Relaxed);
        let qname = stream_queue_name(who.identity.id, n);
        let cred = format!("stream-{}", who.identity.id);
        self.inner.broker.declare_queue(&qname, Some(&cred))?;
        self.inner.streams.update_or_insert_with(
            who.identity.id,
            || Arc::from([]),
            |list| {
                let opened = (qname.clone(), cred.clone());
                *list = list.iter().cloned().chain([opened]).collect();
            },
        );
        let consumer = self.inner.broker.consume(&qname, Some(&cred), 0)?;
        Ok(ResultStream {
            consumer,
            cloud: self.clone(),
            identity: who.identity.id,
            queue_name: qname,
        })
    }

    pub(super) fn close_result_stream(&self, identity: IdentityId, queue_name: &str) {
        // An identity's entry may go empty; it stays in the map (a few
        // bytes) and fans out to nothing.
        self.inner.streams.update(&identity, |list| {
            if let Some(list) = list {
                *list = list
                    .iter()
                    .filter(|(q, _)| q != queue_name)
                    .cloned()
                    .collect();
            }
        });
        let _ = self.inner.broker.delete_queue(queue_name);
    }

    /// The caller holds these tasks' results and was waiting for them: the
    /// cold-path loop's next pass retires each record that is still the
    /// caller's and terminal ([`retire_taken`](Self::retire_taken)), and a
    /// later status query, cancel or `task_record` answers
    /// [`GcxError::TaskNotFound`]. The one entry point for both links: an
    /// in-process call, or a wire `Confirm` frame. The caller must have no
    /// submit of these ids outstanding (the SDK's batcher confirms between
    /// its own calls). A federated replica ignores it: handover replay,
    /// adoption and redirect-resends need records.
    pub fn confirm_taken(&self, token: &Token, ids: &[TaskId]) -> GcxResult<()> {
        if self.inner.fed.is_some() || ids.is_empty() {
            return Ok(());
        }
        let identity = self.authenticate(token)?.identity.id;
        let mut taken = self.inner.taken.lock();
        taken.extend(ids.iter().map(|id| (*id, identity)));
        Ok(())
    }

    // ---- result processing -----------------------------------------------

    /// A result processor: per wake-up it takes what is ready (up to its
    /// prefetch), lands each result, publishes the take's fan-out once per
    /// stream, and only then acks the whole take. A processor that dies
    /// mid-take leaves every result of it unacked, for another to land.
    pub(super) fn result_processor_loop(&self) {
        let consumer =
            match self
                .inner
                .broker
                .consume(RESULT_QUEUE, Some("cloud-results"), PROCESSOR_TAKE)
            {
                Ok(c) => c,
                Err(_) => return,
            };
        let (mut taken, mut tags, mut fan_out) = (Vec::new(), Vec::new(), FanOut::default());
        while !self.inner.shutdown.load(Ordering::SeqCst) {
            match consumer.next_batch(STOP_NOTICE, PROCESSOR_TAKE, &mut taken) {
                Ok(_) => {
                    for delivery in taken.drain(..) {
                        let _ = self.process_result(&delivery.message, &mut fan_out);
                        tags.push(delivery.tag);
                    }
                    fan_out.flush(&self.inner.broker);
                    let _ = consumer.ack_batch(&tags);
                    tags.clear();
                }
                Err(_) => return, // queue closed
            }
        }
    }

    fn process_result(&self, message: &Message, fan_out: &mut FanOut) -> GcxResult<()> {
        // Binary result envelope: the payload bytes inside are sliced out
        // of the message body, never re-decoded through the codec.
        let (task_id, result, sent_ms) = TaskResult::from_envelope(&message.body)?;
        self.finish_task_traced(task_id, result, sent_ms, fan_out)
    }

    /// Land a task's result: state transitions, metrics, and fan-out to the
    /// owner's open result streams, published before this returns.
    /// Idempotent — exactly one caller wins per task id; later results for
    /// a terminal task are counted and dropped, which is what makes
    /// endpoint-side retries safe (a redelivered task may legitimately
    /// produce its result twice).
    pub(super) fn finish_task(&self, task_id: TaskId, result: TaskResult) -> GcxResult<()> {
        let mut fan_out = FanOut::default();
        let landed = self.finish_task_traced(task_id, result, None, &mut fan_out);
        fan_out.flush(&self.inner.broker);
        landed
    }

    /// [`finish_task`](Self::finish_task) plus the result-leg span, its
    /// fan-out left in `fan_out` for the caller to flush: `sent_ms` is the
    /// agent's publish stamp carried in the envelope, so the span covers
    /// result-queue transit and processor pickup.
    ///
    /// Federated routing: any replica's result processor can pick a result
    /// off the shared queue, but only the task's ring owner may land it —
    /// everyone else forwards. An owner that doesn't hold the record yet
    /// (the result raced a handover) requeues the result to its own rpc
    /// queue instead of dropping it.
    pub(super) fn finish_task_traced(
        &self,
        task_id: TaskId,
        result: TaskResult,
        sent_ms: Option<u64>,
        fan_out: &mut FanOut,
    ) -> GcxResult<()> {
        if let Some(fed) = self.fed() {
            let owner = fed.owner(task_id.uuid()).unwrap_or(fed.replica);
            if owner != fed.replica {
                let body = Body::Result {
                    task_id,
                    result,
                    sent_ms,
                    retry: 0,
                };
                return self.fed_forward(owner, body);
            }
            return match self.finish_task_local(task_id, result.clone(), sent_ms, fan_out) {
                Err(GcxError::TaskNotFound(_)) => {
                    self.fed_requeue_orphan_result(task_id, result, sent_ms, 0)
                }
                other => other,
            };
        }
        self.finish_task_local(task_id, result, sent_ms, fan_out)
    }

    /// The non-routing core of [`finish_task_traced`](Self::finish_task_traced):
    /// land the result on this replica's own task store and append its
    /// stream message to `fan_out`. The single idempotency point for
    /// completions — a terminal record swallows any later result for the
    /// same task, and a retired one (its result taken) is
    /// [`GcxError::TaskNotFound`], which the processor drops.
    pub(super) fn finish_task_local(
        &self,
        task_id: TaskId,
        result: TaskResult,
        sent_ms: Option<u64>,
        fan_out: &mut FanOut,
    ) -> GcxResult<()> {
        let now = self.inner.clock.now_ms();

        // None = duplicate delivery of an already-terminal task.
        let (owner, trace, submitted_at, started_at) =
            self.inner.tasks.update(&task_id, |rec| {
                let rec = rec.ok_or(GcxError::TaskNotFound(task_id))?;
                if rec.state.is_terminal() {
                    return Ok((None, rec.spec.trace, rec.submitted_at, None));
                }
                // As reported, before the catch-up below stamps its own.
                let started_at = rec.started_at;
                if rec.state == TaskState::Received || rec.state == TaskState::WaitingForNodes {
                    // The endpoint may complete so fast the Running report races
                    // behind the result.
                    rec.transition(TaskState::Running, now)?;
                }
                rec.complete(result.clone(), now)?;
                Ok((
                    Some(rec.owner),
                    rec.spec.trace,
                    rec.submitted_at,
                    started_at,
                ))
            })?;
        let Some(owner) = owner else {
            // Duplicate delivery after an endpoint retry — drop it.
            self.inner.m.duplicate_results_dropped.inc();
            self.inner
                .tracer
                .annotate(trace.as_ref(), || "duplicate result dropped".into());
            return Ok(());
        };
        self.inner.m.results_processed.inc();
        // First (non-duplicate) completion: return the owner's in-flight
        // admission charge.
        self.admission_release(owner, 1);
        // Durable completion: a handover replay of our log must preserve
        // this result, not resurrect the task.
        self.fed_log_done(task_id, &result);
        self.inner
            .m
            .roundtrip_ms
            .record(now.saturating_sub(submitted_at));
        if let Some(sent) = sent_ms {
            self.inner
                .m
                .result_transit_ms
                .record(now.saturating_sub(sent));
        }
        let tracer = &self.inner.tracer;
        if let Some(sent) = sent_ms {
            // Execute leg: Running stamp → result published by the agent.
            // Stamped here, where the record is open anyway — the session
            // that published may sit on a replica that does not hold it.
            tracer.record_span(trace.as_ref(), "execute", started_at.unwrap_or(sent), sent);
        }
        tracer.record_span(trace.as_ref(), "result", sent_ms.unwrap_or(now), now);
        tracer.end_trace(trace.as_ref());

        // For all of the owner's open streams: one message, whose clones
        // bump the body's refcount and copy the context. The trace context
        // rides a queue header so the wire layer can stamp server-push
        // Result frames with the originating trace without decoding the
        // body.
        let targets = self.inner.streams.get_cloned(&owner);
        if let Some(targets) = targets.filter(|t| !t.is_empty()) {
            let headers = gcx_mq::Headers {
                trace,
                ..Default::default()
            };
            let message = Message::with_headers(result.to_envelope(task_id, None), headers);
            fan_out.landed.push((targets, message));
        }
        Ok(())
    }

    /// The service's one cold-path thread. It drains [`DEAD_TASKS_QUEUE`]:
    /// each message there is a task whose delivery budget ran out (poison
    /// task, or an endpoint that kept dying mid-execution), failed here
    /// with a *retryable* error so SDK-side retry budgets can decide
    /// whether to resubmit. That queue almost never has a message, so the
    /// same loop carries the periodic duties. On every pass, on any clock,
    /// it retires the records whose results were taken
    /// ([`retire_taken`](Self::retire_taken)); a pass that found any brings
    /// the next one forward to [`RETIRE_BUSY`]. Each when it is due, it
    /// sweeps: [`check_liveness`](Self::check_liveness) at a quarter of the
    /// heartbeat timeout, and [`check_expiry`](Self::check_expiry) every
    /// 25 ms while anything can expire or admission is on. On a virtual
    /// clock it sweeps nothing: the harness drives both by hand, and a
    /// background sweep would race the manually-advanced time.
    pub(super) fn cold_path_loop(&self) {
        const EXPIRY_EVERY: Duration = Duration::from_millis(25);
        let liveness_every =
            Duration::from_millis((self.inner.cfg.heartbeat_timeout_ms / 4).max(25));
        let sweeps = !self.inner.clock.is_virtual();
        // A refused or closed queue ends the draining, never the sweeps.
        let mut dead_tasks = self
            .inner
            .broker
            .consume(DEAD_TASKS_QUEUE, Some("cloud-results"), 64)
            .ok();
        let mut liveness_due = Instant::now() + liveness_every;
        let mut expiry_due = Instant::now() + EXPIRY_EVERY;
        let (mut taken, mut resident) = (Vec::new(), 0);
        while !self.inner.shutdown.load(Ordering::SeqCst) {
            let mut wait = if self.retire_taken(&mut taken, &mut resident) {
                RETIRE_BUSY
            } else {
                STOP_NOTICE
            };
            if sweeps {
                // Each sweep rests its full period after it returns.
                if Instant::now() >= expiry_due {
                    if self.inner.admission.sweep_needed() {
                        self.check_expiry();
                    }
                    expiry_due = Instant::now() + EXPIRY_EVERY;
                }
                if Instant::now() >= liveness_due {
                    self.check_liveness();
                    liveness_due = Instant::now() + liveness_every;
                }
                let next_due = expiry_due.min(liveness_due);
                wait = wait.min(next_due.saturating_duration_since(Instant::now()));
            }
            let Some(consumer) = &dead_tasks else {
                std::thread::sleep(wait);
                continue;
            };
            match consumer.next(wait) {
                Ok(Some(delivery)) => {
                    let _ = self.fail_dead_task(&delivery.message);
                    let _ = consumer.ack(delivery.tag);
                }
                Ok(None) => {}
                Err(_) => dead_tasks = None,
            }
        }
        self.inner.m.tasks_resident.sub(resident);
    }

    /// Retire every record whose result an executor confirmed it holds
    /// ([`confirm_taken`](Self::confirm_taken)), if the record is still the
    /// confirming identity's and terminal, and move `cloud.tasks_resident`
    /// to what the store holds now. The records are freed here, off the
    /// task path. `taken` is the caller's spare list, swapped with the
    /// marked one so that neither reallocates; `resident` is this store's
    /// last reading. Returns whether anything had been confirmed.
    fn retire_taken(&self, taken: &mut Vec<(TaskId, IdentityId)>, resident: &mut u64) -> bool {
        std::mem::swap(&mut *self.inner.taken.lock(), taken);
        let confirmed = !taken.is_empty();
        let tasks = &self.inner.tasks;
        for (id, identity) in taken.drain(..) {
            // A terminal record never changes again, so the check still
            // holds at the remove.
            let retire = tasks.with(&id, |rec| {
                rec.is_some_and(|rec| rec.owner == identity && rec.state.is_terminal())
            });
            if retire {
                tasks.remove(&id);
            }
        }
        let now = tasks.len() as u64;
        let gauge = &self.inner.m.tasks_resident;
        if now >= *resident {
            gauge.add(now - *resident);
        } else {
            gauge.sub(*resident - now);
        }
        *resident = now;
        confirmed
    }

    fn fail_dead_task(&self, message: &Message) -> GcxResult<()> {
        let (spec, _) = TaskSpec::from_message(&message.body)?;
        let source = message
            .headers
            .death_queue
            .as_deref()
            .unwrap_or("<unknown>");
        self.inner.m.tasks_dead_lettered.inc();
        let tracer = &self.inner.tracer;
        tracer.annotate(spec.trace.as_ref(), || {
            format!("dead-lettered from {source}: delivery budget exhausted")
        });
        self.inner.metrics.flight().record(
            self.inner.clock.now_ms(),
            "cloud.results",
            "dead_task",
            format!("task_id={} source={source}", spec.task_id),
        );
        self.finish_task(
            spec.task_id,
            TaskResult::retryable_err(format!(
                "task exhausted its {} delivery attempts on {source}",
                self.inner.cfg.max_task_deliveries
            )),
        )
    }

    /// Endpoint-side state report (Received → WaitingForNodes → Running).
    /// In a federation the report is forwarded to the task's ring owner —
    /// the session may be connected to any replica.
    pub(super) fn report_state(
        &self,
        endpoint: EndpointId,
        task_id: TaskId,
        state: TaskState,
    ) -> GcxResult<()> {
        if let Some(fed) = self.fed() {
            let owner = fed.owner(task_id.uuid()).unwrap_or(fed.replica);
            if owner != fed.replica {
                let body = Body::State {
                    task_id,
                    endpoint,
                    state,
                };
                return self.fed_forward(owner, body);
            }
        }
        self.report_state_local(endpoint, task_id, state)
    }

    /// The non-routing core of [`report_state`](Self::report_state).
    pub(super) fn report_state_local(
        &self,
        endpoint: EndpointId,
        task_id: TaskId,
        state: TaskState,
    ) -> GcxResult<()> {
        let now = self.inner.clock.now_ms();
        let mut dispatch_leg = None;
        self.inner.tasks.update(&task_id, |rec| {
            let rec = rec.ok_or(GcxError::TaskNotFound(task_id))?;
            // The task may have been rerouted to a spawned user endpoint.
            let delivered_ep = rec.spec.endpoint_id;
            let target_ok = delivered_ep == endpoint
                || self.inner.endpoints.with(&endpoint, |e| {
                    e.is_some_and(|e| e.parent_mep.is_some() || delivered_ep == endpoint)
                });
            if !target_ok {
                return Err(GcxError::Forbidden(
                    "task does not belong to this endpoint".into(),
                ));
            }
            if rec.state == state || rec.state.is_terminal() {
                return Ok(()); // idempotent
            }
            rec.transition(state, now)?;
            if state == TaskState::Running {
                // Dispatch leg: agent receipt → the engine actually starting
                // the task (queueing inside the endpoint's interchange).
                dispatch_leg = rec.spec.trace.map(|ctx| (ctx, rec.received_at));
            }
            Ok(())
        })?;
        if let Some((ctx, received_at)) = dispatch_leg {
            let tracer = &self.inner.tracer;
            tracer.record_span(Some(&ctx), "dispatch", received_at.unwrap_or(now), now);
        }
        Ok(())
    }
}

/// A live result stream. Dereference to the consumer; dropping it closes
/// and deletes the stream queue.
pub struct ResultStream {
    /// The stream consumer.
    pub consumer: Consumer,
    cloud: WebService,
    identity: IdentityId,
    queue_name: String,
}

impl ResultStream {
    /// Name of this stream's broker queue (`stream.{identity}.{n}`).
    pub fn queue_name(&self) -> &str {
        &self.queue_name
    }
}

impl Drop for ResultStream {
    fn drop(&mut self) {
        self.cloud
            .close_result_stream(self.identity, &self.queue_name);
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{login, service, T};
    use super::*;
    use gcx_auth::AuthPolicy;
    use gcx_core::function::FunctionBody;
    use gcx_core::task::TaskSpec;
    use gcx_core::value::Value;

    #[test]
    fn submit_flows_to_endpoint_and_result_flows_back() {
        let svc = service();
        let token = login(&svc, "user@site.org");
        let fid = svc
            .register_function(&token, FunctionBody::pyfn("def f():\n    return 1\n"))
            .unwrap();
        let reg = svc
            .register_endpoint(&token, "ep1", false, AuthPolicy::open(), None)
            .unwrap();
        let session = svc
            .connect_endpoint(reg.endpoint_id, &reg.queue_credential)
            .unwrap();

        let spec = TaskSpec::new(fid, reg.endpoint_id);
        let task_id = svc.submit_task(&token, spec).unwrap();

        // Endpoint receives the task.
        let (got, tag) = session.next_task(T).unwrap().unwrap();
        assert_eq!(got.task_id, task_id);
        session.report_state(task_id, TaskState::Running).unwrap();
        session
            .publish_result(task_id, &TaskResult::ok(Value::Int(42)))
            .unwrap();
        session.ack_task(tag).unwrap();

        // Poll until the result processor lands it.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        loop {
            let (state, result) = svc.task_status(&token, task_id).unwrap();
            if state == TaskState::Success {
                assert_eq!(result, Some(TaskResult::ok(Value::Int(42))));
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "result never processed"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        svc.shutdown();
    }

    #[test]
    fn result_stream_receives_pushed_results() {
        let svc = service();
        let token = login(&svc, "streamer@x.y");
        let fid = svc
            .register_function(&token, FunctionBody::pyfn("def f():\n    return 1\n"))
            .unwrap();
        let reg = svc
            .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
            .unwrap();
        let session = svc
            .connect_endpoint(reg.endpoint_id, &reg.queue_credential)
            .unwrap();
        let stream = svc.open_result_stream(&token).unwrap();

        let id = svc
            .submit_task(&token, TaskSpec::new(fid, reg.endpoint_id))
            .unwrap();
        let (_, tag) = session.next_task(T).unwrap().unwrap();
        session
            .publish_result(id, &TaskResult::ok(Value::str("pushed")))
            .unwrap();
        session.ack_task(tag).unwrap();

        let delivery = stream
            .consumer
            .next(Duration::from_secs(2))
            .unwrap()
            .expect("streamed result");
        let (got_id, result, _) = TaskResult::from_envelope(&delivery.message.body).unwrap();
        assert_eq!(got_id, id);
        assert_eq!(result.ok_value(), Some(Value::str("pushed")));
        stream.consumer.ack(delivery.tag).unwrap();
        svc.shutdown();
    }

    /// A confirm retires a record only if it is the confirming identity's
    /// and terminal; anything else it names stays.
    #[test]
    fn confirm_retires_only_the_callers_terminal_tasks() {
        let svc = service();
        let alice = login(&svc, "alice@x.y");
        let bob = login(&svc, "bob@x.y");
        let fid = svc
            .register_function(&alice, FunctionBody::pyfn("def f():\n    return 1\n"))
            .unwrap();
        let reg = svc
            .register_endpoint(&alice, "ep", false, AuthPolicy::open(), None)
            .unwrap();
        let session = svc
            .connect_endpoint(reg.endpoint_id, &reg.queue_credential)
            .unwrap();
        let run = |token: &Token| {
            let id = svc
                .submit_task(token, TaskSpec::new(fid, reg.endpoint_id))
                .unwrap();
            let (_, tag) = session.next_task(T).unwrap().unwrap();
            session
                .publish_result(id, &TaskResult::ok(Value::Int(1)))
                .unwrap();
            session.ack_task(tag).unwrap();
            id
        };
        let (done, bobs) = (run(&alice), run(&bob));
        let open = svc
            .submit_task(&alice, TaskSpec::new(fid, reg.endpoint_id))
            .unwrap();
        // Bob names Alice's finished task, Alice her unfinished one and an
        // id nobody submitted.
        svc.confirm_taken(&bob, &[done]).unwrap();
        svc.confirm_taken(&alice, &[open, TaskId::random()])
            .unwrap();
        // A token that does not authenticate confirms nothing.
        assert!(svc.confirm_taken(&Token("forged".into()), &[bobs]).is_err());
        // Bob confirms his own finished task: that one goes.
        let mine = run(&bob);
        svc.confirm_taken(&bob, &[mine]).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while svc.task_record(mine).is_ok() {
            assert!(std::time::Instant::now() < deadline, "never retired");
            std::thread::sleep(Duration::from_millis(5));
        }
        for id in [done, open, bobs] {
            assert!(svc.task_record(id).is_ok(), "{id} was retired");
        }
        let resident = svc.metrics().gauge("cloud.tasks_resident");
        while resident.get() != 3 {
            assert!(std::time::Instant::now() < deadline, "no pass counted 3");
            std::thread::sleep(Duration::from_millis(5));
        }
        svc.shutdown();
    }

    #[test]
    fn exhausted_delivery_budget_fails_task_with_retryable_error() {
        let svc = service(); // max_task_deliveries = 3
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
        let session = svc
            .connect_endpoint(reg.endpoint_id, &reg.queue_credential)
            .unwrap();

        // A poison task: every delivery attempt ends in a nack.
        for _ in 0..3 {
            let (_, tag) = session
                .next_task(T)
                .unwrap()
                .expect("delivery within budget");
            session.nack_task(tag).unwrap();
        }
        assert!(session
            .next_task(Duration::from_millis(50))
            .unwrap()
            .is_none());

        // The dead-task processor fails it with a retryable error.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        loop {
            let (state, result) = svc.task_status(&token, id).unwrap();
            if state == TaskState::Failed {
                let result = result.unwrap();
                assert!(
                    result.is_retryable_err(),
                    "dead-lettered failure must be retryable"
                );
                assert!(matches!(result.into_result(), Err(GcxError::Transient(_))));
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "dead task never failed"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(svc.metrics().counter("cloud.tasks_dead_lettered").get(), 1);
        svc.shutdown();
    }

    #[test]
    fn duplicate_results_are_dropped_idempotently() {
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
        let session = svc
            .connect_endpoint(reg.endpoint_id, &reg.queue_credential)
            .unwrap();
        let (_, tag) = session.next_task(T).unwrap().unwrap();
        // An endpoint retry can publish the same result twice.
        session
            .publish_result(id, &TaskResult::ok(Value::Int(1)))
            .unwrap();
        session
            .publish_result(id, &TaskResult::ok(Value::Int(1)))
            .unwrap();
        session.ack_task(tag).unwrap();

        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        loop {
            if svc
                .metrics()
                .counter("cloud.duplicate_results_dropped")
                .get()
                == 1
            {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "duplicate never observed"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(svc.metrics().counter("cloud.results_processed").get(), 1);
        let (state, _) = svc.task_status(&token, id).unwrap();
        assert_eq!(state, TaskState::Success);
        svc.shutdown();
    }

    #[test]
    fn oversized_result_becomes_failure() {
        let svc = service();
        let token = login(&svc, "u@x.y");
        let fid = svc
            .register_function(&token, FunctionBody::pyfn("def f():\n    return 1\n"))
            .unwrap();
        let reg = svc
            .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
            .unwrap();
        let session = svc
            .connect_endpoint(reg.endpoint_id, &reg.queue_credential)
            .unwrap();
        let id = svc
            .submit_task(&token, TaskSpec::new(fid, reg.endpoint_id))
            .unwrap();
        let (_, tag) = session.next_task(T).unwrap().unwrap();
        let huge = TaskResult::ok(Value::Bytes(vec![0u8; 11 * 1024 * 1024]));
        session.publish_result(id, &huge).unwrap();
        session.ack_task(tag).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        loop {
            let (state, result) = svc.task_status(&token, id).unwrap();
            if state == TaskState::Failed {
                let TaskResult::Err(msg) = result.unwrap() else {
                    panic!()
                };
                assert!(msg.contains("payload limit"));
                break;
            }
            assert!(std::time::Instant::now() < deadline);
            std::thread::sleep(Duration::from_millis(5));
        }
        svc.shutdown();
    }
}
