//! Task dispatch: submission (single and batched), MEP→UEP resolution,
//! payload interning (content-addressed dedup), and the status-polling
//! path.

use std::collections::{BTreeMap, HashMap};

use gcx_auth::{AuthPolicy, Token};
use gcx_core::codec;
use gcx_core::error::{GcxError, GcxResult};
use gcx_core::ids::{EndpointId, IdentityId, TaskId};
use gcx_core::payload::{ContentHash, Payload};
use gcx_core::task::{TaskRecord, TaskResult, TaskSpec, TaskState};
use gcx_core::value::Value;
use gcx_mq::Message;

use super::{mep_queue_name, task_queue_name, WebService};
use crate::blob::Intern;
use crate::federation::envelope::{Body, Forwarded};
use crate::federation::ReplicaId;
use crate::records::{config_hash, EndpointRecord, MepStartRequest};

/// Rough wire overhead of a binary task message beyond its payload bytes
/// (ids, flags, hash, varints) — used for API byte metering so the
/// accounting does not require encoding the spec twice.
const SPEC_WIRE_OVERHEAD: usize = 80;

/// Metered response size of one status entry beyond its result payload.
const STATUS_WIRE_OVERHEAD: usize = 24;

/// Bytes a `TaskResult` occupies in a status response, without walking or
/// re-encoding anything: the payload length is already known.
fn result_wire_size(result: &TaskResult) -> usize {
    match result {
        TaskResult::Ok(p) => 18 + p.len(),
        TaskResult::Err(e) => 2 + e.len(),
    }
}

/// What a [`WebService::cancel_task`] call actually did.
///
/// Cancellation races against result delivery and deadline expiry; when the
/// task was already terminal the cancel is a no-op and the caller sees the
/// state it lost to, rather than an error or a silently overwritten record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The task was live and is now cancelled.
    Cancelled,
    /// The task had already reached this terminal state; nothing changed.
    AlreadyTerminal(TaskState),
}

/// A validated task on its way into a replica's task store and onto its
/// endpoint's queue (see [`WebService::install_and_ship`]).
pub(super) struct Accepted {
    /// The spec as submitted; the task record keeps this.
    pub(super) spec: TaskSpec,
    /// The endpoint whose queue it ships to: `spec.endpoint_id`, or the
    /// user endpoint a multi-user target resolved to.
    pub(super) deliver_to: EndpointId,
    /// Ship the payload bytes (`true`) or only their content hash, a CAS
    /// reference.
    pub(super) inline: bool,
    /// Whether this replica still owes the trace its `submit` span.
    pub(super) submit_leg: SubmitLeg,
}

/// The server-side `submit` span exists exactly once per trace and
/// collector; this says what is left to do about it when the task ships.
#[derive(Clone, Copy)]
pub(super) enum SubmitLeg {
    /// Nothing: another replica's front door took the task in.
    Recorded,
    /// The trace was minted by this call: record the span.
    Owed,
    /// The context came with the spec (an SDK minted it). Adopt it if this
    /// collector has not seen it and record the span only then — a context
    /// minted in process (shared collector) or re-sent by a resubmission
    /// already has one.
    OwedIfNew,
}

impl Accepted {
    /// A spec another replica already validated and resolved: it ships
    /// where it says, payload inline, its `submit` span long recorded.
    pub(super) fn as_resolved(spec: TaskSpec) -> Self {
        Self {
            deliver_to: spec.endpoint_id,
            spec,
            inline: true,
            submit_leg: SubmitLeg::Recorded,
        }
    }
}

impl WebService {
    // ---- task submission -------------------------------------------------

    /// Submit one task (one REST request).
    pub fn submit_task(&self, token: &Token, spec: TaskSpec) -> GcxResult<TaskId> {
        let ids = self.submit_batch(token, vec![spec])?;
        Ok(ids[0])
    }

    /// Submit a batch of tasks in a single REST request (§III-A: the
    /// executor batches submissions "to avoid many individual REST
    /// requests"). The batch is also shipped to each target endpoint's
    /// queue with one batched broker publish — one queue-lock acquisition
    /// and one consumer wake per endpoint, not per task.
    ///
    /// Admission control runs before any validation work: a tenant over
    /// its rate or in-flight quota — or shed by brownout — gets a typed
    /// [`GcxError::Overloaded`] with a `retry_after_ms` hint, all-or-
    /// nothing for the batch.
    pub fn submit_batch(&self, token: &Token, specs: Vec<TaskSpec>) -> GcxResult<Vec<TaskId>> {
        let who = self.authenticate(token)?;
        self.admit_batch(who.identity.id, &specs)?;
        // In-flight charges the batch still holds; `submit_batch_admitted`
        // hands back the ones it settles itself.
        let mut held = specs.len() as u64;
        let out = self.submit_batch_admitted(&who, specs, &mut held);
        if out.is_err() {
            // The batch never landed: return the rest of its charge.
            self.admission_release(who.identity.id, held);
        }
        out
    }

    fn submit_batch_admitted(
        &self,
        who: &gcx_auth::service::Introspection,
        specs: Vec<TaskSpec>,
        held: &mut u64,
    ) -> GcxResult<Vec<TaskId>> {
        let mut bytes_in = 0usize;
        let now = self.inner.clock.now_ms();
        let me = who.identity.id;

        // Validate everything before enqueueing anything (atomic batch).
        // The args payload was encoded once at the submit edge; here it is
        // only measured, hashed (already done), and interned — never
        // re-walked by the codec.
        let mut prepared: Vec<Accepted> = Vec::with_capacity(specs.len());
        for mut spec in specs {
            // SDK submissions arrive with a trace context already minted;
            // direct REST submissions get theirs here (subject to sampling)
            // so the per-leg timeline exists either way. A context minted by
            // a *remote* SDK (one that reached us over the wire) lives in a
            // separate client-side collector; it is adopted when the task
            // ships, so the server-side legs link into one trace here too.
            let submit_leg = if spec.trace.is_some() {
                SubmitLeg::OwedIfNew
            } else if self.inner.tracer.enabled() {
                spec.trace = self.inner.tracer.start_trace("task");
                SubmitLeg::Owed
            } else {
                SubmitLeg::Recorded
            };
            let payload_len = spec.payload.len();
            if payload_len > self.inner.cfg.payload_limit {
                return Err(GcxError::PayloadTooLarge {
                    size: payload_len,
                    limit: self.inner.cfg.payload_limit,
                });
            }
            bytes_in += payload_len + SPEC_WIRE_OVERHEAD;

            // The target's policy and allowed list are checked where the
            // record lives; only a multi-user endpoint's is copied out.
            let function_known = self.inner.functions.contains_key(&spec.function_id);
            let mep = self.inner.endpoints.with(&spec.endpoint_id, |target| {
                let target = target.ok_or(GcxError::EndpointNotFound(spec.endpoint_id))?;
                target.policy.evaluate(&who.identity, who.auth_time, now)?;
                if !function_known {
                    return Err(GcxError::FunctionNotFound(spec.function_id));
                }
                if !target.function_allowed(spec.function_id) {
                    return Err(GcxError::Forbidden(format!(
                        "function {} is not in endpoint {}'s allowed list",
                        spec.function_id, spec.endpoint_id
                    )));
                }
                Ok(target.multi_user.then(|| target.clone()))
            })?;
            // Resolve MEP targets to a user endpoint (spawning if needed).
            let deliver_to = match &mep {
                Some(mep) => {
                    self.resolve_user_endpoint(mep, &who.identity, &spec.user_endpoint_config)?
                }
                None => spec.endpoint_id,
            };
            // Content-addressed dedup: intern the payload and ship a
            // 16-byte reference when the bytes are already cached (a
            // repeat submission) or too large to ride the queue inline.
            // Federated replicas don't share the cache, so their tasks
            // always inline (the owning replica may be a different
            // process). So does a payload no longer than the reference
            // that would replace it: it can never ship smaller, and a
            // cache entry costs far more than its bytes.
            let inline = if self.fed().is_some() || payload_len <= size_of::<ContentHash>() {
                true
            } else {
                match self.inner.cas.intern(&spec.payload) {
                    Intern::Hit => false,
                    Intern::Stored => payload_len <= self.inner.cfg.inline_threshold,
                    Intern::Uncacheable => true,
                }
            };
            prepared.push(Accepted {
                spec,
                deliver_to,
                inline,
                submit_leg,
            });
        }

        self.meter_api(bytes_in, prepared.len() * 36);
        let ids: Vec<TaskId> = prepared.iter().map(|t| t.spec.task_id).collect();

        // Federation: only a task's ring owner installs its record, appends
        // to the durable log, and ships to the endpoint queue. Tasks owned
        // elsewhere are set aside as deliverable specs, grouped by owner,
        // and never touch this replica's task store.
        let mut forwards: BTreeMap<ReplicaId, Vec<Accepted>> = BTreeMap::new();
        if let Some(fed) = self.fed() {
            let mut local = Vec::with_capacity(prepared.len());
            for task in prepared {
                match fed.owner(task.spec.task_id.uuid()) {
                    Some(owner) if owner != fed.replica => {
                        forwards.entry(owner).or_default().push(task)
                    }
                    _ => local.push(task),
                }
            }
            prepared = local;
        }

        // Task ids are client-chosen and a wire client resends a batch in
        // place when its connection drops mid-call, so a submit must be
        // idempotent on the id: a task we already accepted from this caller
        // is acknowledged again, and ships and counts nothing.
        let mut resent = 0u64;
        let (installed, shipped) =
            self.install_and_ship(me, now, prepared, &mut |task_id, holder| {
                if holder != me {
                    return Err(GcxError::Forbidden(format!(
                        "task id {task_id} belongs to another identity"
                    )));
                }
                self.admission_release(me, 1);
                *held -= 1;
                resent += 1;
                Ok(())
            });
        let forwarded = shipped.and_then(|()| {
            for (owner, group) in forwards {
                let forwarded_at = self.inner.clock.now_ms();
                let mut specs = Vec::with_capacity(group.len());
                for task in group {
                    self.stamp_submit(task.submit_leg, &task.spec, now, forwarded_at);
                    let mut wire_spec = task.spec;
                    wire_spec.endpoint_id = task.deliver_to;
                    specs.push(wire_spec);
                }
                let n = specs.len() as u64;
                let from = Forwarded {
                    identity: me,
                    submitted_at: now,
                    forwarded_ms: forwarded_at,
                };
                self.fed_forward(owner, Body::Submit(from, specs))?;
                // The owning replica tracks these tasks' lifecycle; they
                // never flow through our local completion paths, so drop
                // their in-flight charge here.
                self.admission_release(me, n);
                *held -= n;
            }
            Ok(())
        });
        if let Err(e) = forwarded {
            self.roll_back_batch(&installed, &e);
            return Err(e);
        }
        // Accepted: count what is new (a refused batch counts nothing).
        let fresh = ids.len() as u64 - resent;
        self.inner.usage.record_tasks(now, fresh);
        self.inner.m.tasks_submitted.add(fresh);
        self.inner
            .m
            .submit_ms
            .record(self.inner.clock.now_ms().saturating_sub(now));
        Ok(ids)
    }

    /// Settle the server-side `submit` span (`start_ms` → `end_ms`) a task
    /// is owed, in one visit to the collector.
    fn stamp_submit(&self, leg: SubmitLeg, spec: &TaskSpec, start_ms: u64, end_ms: u64) {
        let tracer = &self.inner.tracer;
        match (leg, &spec.trace) {
            (SubmitLeg::Owed, ctx) => tracer.record_span(ctx.as_ref(), "submit", start_ms, end_ms),
            (SubmitLeg::OwedIfNew, Some(ctx)) => {
                tracer.adopt_trace_with_span(ctx, "task", "submit", start_ms, end_ms);
            }
            _ => {}
        }
    }

    /// The queue message for a deliverable spec: the compact binary body
    /// (one buffer fill, no `Value` tree — an inlined payload is memcpy'd
    /// into the frame, a CAS reference ships only the content hash), plus,
    /// for a traced task, headers that let the broker annotate the trace on
    /// fault injection and the receiving session time the queue-transit leg
    /// without decoding the body.
    fn task_message(&self, spec: &TaskSpec, inline: bool, sent_ms: u64) -> Message {
        let headers = gcx_mq::Headers {
            trace: spec.trace,
            sent_ms: spec.trace.map(|_| sent_ms),
            death_queue: None,
        };
        Message::with_headers(spec.to_message(inline), headers)
    }

    /// The one way a task gets into this replica, whoever validated it: the
    /// front door ([`Self::submit_batch`]), another replica's front door (a
    /// forwarded submit) or a dead owner's (an adopted open task). Installs
    /// each record if its id is absent, notes deadlines for the expiry
    /// sweep, appends the federation's `Open` log entry, and ships to each
    /// target endpoint's queue with one batched publish.
    ///
    /// An id that is already held installs and ships nothing; `on_resident`
    /// (given the id and the identity holding it) says whether that is fine
    /// or stops the batch. Returns the ids installed here and whether
    /// everything shipped — on an error, what to do with the installed
    /// records is the caller's call (it knows whether anyone is still
    /// waiting on an answer).
    pub(super) fn install_and_ship(
        &self,
        identity: IdentityId,
        submitted_at: u64,
        tasks: Vec<Accepted>,
        on_resident: &mut dyn FnMut(TaskId, IdentityId) -> GcxResult<()>,
    ) -> (Vec<TaskId>, GcxResult<()>) {
        // Everything ships in this same call, so one "dispatched" stamp
        // (taken after the REST link charge) serves the whole batch; it is
        // also the queue-transit span's start, carried in a header.
        let shipped = self.inner.clock.now_ms();
        let mut installed = Vec::with_capacity(tasks.len());
        let mut by_endpoint: HashMap<EndpointId, Vec<Message>> = HashMap::new();
        for Accepted {
            spec,
            deliver_to,
            inline,
            submit_leg,
        } in tasks
        {
            let task_id = spec.task_id;
            let mut record = TaskRecord::new(spec.clone(), identity, submitted_at);
            record.dispatched_at = Some(shipped);
            let mut record = Some(record);
            let holder = self.inner.tasks.update_or_insert_with(
                task_id,
                || record.take().expect("taken at most once"),
                |rec| rec.owner,
            );
            if record.is_some() {
                if let Err(e) = on_resident(task_id, holder) {
                    return (installed, Err(e));
                }
                continue;
            }
            installed.push(task_id);
            self.stamp_submit(submit_leg, &spec, submitted_at, shipped);
            if spec.deadline_ms.is_some() {
                self.inner.admission.note_deadline_task();
            }
            let mut wire_spec = spec;
            wire_spec.endpoint_id = deliver_to;
            self.fed_log_open(&wire_spec, identity, submitted_at);
            if inline {
                self.inner
                    .m
                    .payload_bytes_moved
                    .add(wire_spec.payload.len() as u64);
            }
            let message = self.task_message(&wire_spec, inline, shipped);
            by_endpoint.entry(deliver_to).or_default().push(message);
        }
        let ship = || -> GcxResult<()> {
            for (deliver_to, messages) in by_endpoint {
                let credential = self
                    .inner
                    .credentials
                    .get_cloned(&deliver_to)
                    .ok_or(GcxError::EndpointNotFound(deliver_to))?;
                self.inner.broker.publish_batch(
                    &task_queue_name(deliver_to),
                    messages,
                    Some(&credential),
                )?;
            }
            Ok(())
        };
        (installed, ship())
    }

    /// The caller sees a whole-batch error (typically a bounded queue's
    /// typed `QueueFull` pushback), so no record the batch installed may
    /// linger as a live orphan: fail everything that is still non-terminal
    /// with the same retryable error. Messages that did ship before the
    /// failure produce results that land on these terminal records and are
    /// dropped as duplicates.
    fn roll_back_batch(&self, installed: &[TaskId], e: &GcxError) {
        let at = self.inner.clock.now_ms();
        let failed = TaskResult::retryable_err(e.to_string());
        let flight = self.inner.metrics.flight();
        for id in installed {
            self.inner.tasks.update(id, |rec| {
                if let Some(rec) = rec {
                    if !rec.state.is_terminal() {
                        let _ = rec.complete(failed.clone(), at);
                    }
                }
            });
            flight.record(
                at,
                "cloud.dispatch",
                "batch_rollback",
                format!("task={id} err={e}"),
            );
        }
        if matches!(e, GcxError::QueueFull { .. }) {
            flight.trigger(at, "queue_full");
        }
    }

    /// Resolve a CAS payload reference for an endpoint session: the dedup
    /// cache first, then the task record (which always retains the full
    /// payload) when the cache entry was evicted between ship and receipt.
    /// Both misses is a retryable fault — the spec can be redelivered.
    pub(super) fn resolve_payload(&self, task_id: TaskId, hash: ContentHash) -> GcxResult<Payload> {
        if let Some(p) = self.inner.cas.get(hash) {
            return Ok(p);
        }
        self.inner
            .tasks
            .with(&task_id, |rec| rec.map(|r| r.spec.payload.clone()))
            .ok_or_else(|| {
                GcxError::Transient(format!(
                    "payload {hash} for task {task_id} not resolvable: evicted from the \
                     dedup cache and no local task record"
                ))
            })
    }

    /// Resolve the user endpoint for (MEP, identity, config-hash), creating
    /// and starting one when none exists (§IV-B).
    fn resolve_user_endpoint(
        &self,
        mep: &EndpointRecord,
        identity: &gcx_auth::Identity,
        user_config: &Value,
    ) -> GcxResult<EndpointId> {
        let hash = config_hash(user_config);
        let key = (mep.id, identity.id, hash);
        if let Some(existing) = self.inner.ueps.read().get(&key).copied() {
            self.inner.m.uep_reused.inc();
            // If the UEP was reaped (idle shutdown) and no restart is in
            // flight, ask the MEP to start it again — tasks are already
            // buffering on its queue.
            let connected = self
                .inner
                .endpoints
                .with(&existing, |r| r.map(|r| r.connected).unwrap_or(false));
            if !connected && self.inner.spawn_pending.write().insert(existing) {
                let credential = self
                    .inner
                    .credentials
                    .get_cloned(&existing)
                    .ok_or(GcxError::EndpointNotFound(existing))?;
                let req = MepStartRequest {
                    identity: identity.id,
                    username: identity.username.clone(),
                    user_config: user_config.clone(),
                    config_hash: hash,
                    uep_endpoint_id: existing,
                    queue_credential: credential,
                };
                let mep_credential = self
                    .inner
                    .credentials
                    .get_cloned(&mep.id)
                    .ok_or(GcxError::EndpointNotFound(mep.id))?;
                self.inner.broker.publish(
                    &mep_queue_name(mep.id),
                    Message::new(codec::encode(&req.to_value())),
                    Some(&mep_credential),
                )?;
                self.inner.m.uep_respawn_requested.inc();
            }
            return Ok(existing);
        }
        let mut ueps = self.inner.ueps.write();
        if let Some(existing) = ueps.get(&key) {
            return Ok(*existing);
        }
        // Pre-register the user endpoint so tasks can buffer immediately.
        let uep_id = EndpointId::random();
        let credential = format!("uepcred-{}", gcx_core::ids::Uuid::new_v4());
        self.inner
            .broker
            .declare_queue(&task_queue_name(uep_id), Some(&credential))?;
        self.apply_task_queue_policy(uep_id)?;
        self.inner.endpoints.insert(
            uep_id,
            EndpointRecord {
                id: uep_id,
                owner: identity.id,
                name: format!("{}/uep-{:x}", mep.name, hash),
                multi_user: false,
                parent_mep: Some(mep.id),
                allowed_functions: mep.allowed_functions.clone(),
                policy: AuthPolicy::open(),
                registered_at: self.inner.clock.now_ms(),
                connected: false,
                last_heartbeat_ms: 0,
                degraded: false,
            },
        );
        self.inner.credentials.insert(uep_id, credential.clone());
        ueps.insert(key, uep_id);
        drop(ueps);
        self.inner.spawn_pending.write().insert(uep_id);

        // Fig. 1 step 2: issue the Start Endpoint request to the MEP.
        let req = MepStartRequest {
            identity: identity.id,
            username: identity.username.clone(),
            user_config: user_config.clone(),
            config_hash: hash,
            uep_endpoint_id: uep_id,
            queue_credential: credential,
        };
        let mep_credential = self
            .inner
            .credentials
            .get_cloned(&mep.id)
            .ok_or(GcxError::EndpointNotFound(mep.id))?;
        self.inner.broker.publish(
            &mep_queue_name(mep.id),
            Message::new(codec::encode(&req.to_value())),
            Some(&mep_credential),
        )?;
        self.inner.m.uep_spawn_requested.inc();
        Ok(uep_id)
    }

    /// The user endpoints spawned under a MEP (for tests/benches).
    pub fn user_endpoints_of(&self, mep: EndpointId) -> Vec<EndpointId> {
        self.inner
            .ueps
            .read()
            .iter()
            .filter(|((m, _, _), _)| *m == mep)
            .map(|(_, uep)| *uep)
            .collect()
    }

    // ---- task status (the polling path) ----------------------------------

    /// Poll a task's status. This is the traditional REST path the executor
    /// interface replaces; every call is metered so benchmarks can compare
    /// request counts and bytes against streaming. A task whose result an
    /// executor confirmed taking has been retired, and answers
    /// [`GcxError::TaskNotFound`] like an id never submitted.
    pub fn task_status(
        &self,
        token: &Token,
        id: TaskId,
    ) -> GcxResult<(TaskState, Option<TaskResult>)> {
        let who = self.authenticate(token)?;
        let entry = self.inner.tasks.with(&id, |rec| {
            rec.map(|rec| (rec.owner, rec.state, rec.result.clone()))
        });
        let (owner, state, result) = match entry {
            Some(found) => found,
            // We don't hold the record: in a federation that usually means
            // another replica owns it — redirect the client there.
            None => return Err(self.fed_missing_task_error(id)),
        };
        if owner != who.identity.id {
            return Err(GcxError::Forbidden("not your task".into()));
        }
        let out_bytes = STATUS_WIRE_OVERHEAD + result.as_ref().map(result_wire_size).unwrap_or(0);
        self.meter_api(36, out_bytes);
        self.inner.m.status_polls.inc();
        Ok((state, result))
    }

    /// Batched status poll: one REST request covering many tasks (the
    /// production `get_batch_result` API). Tasks owned by other identities
    /// are skipped rather than failing the whole batch.
    pub fn task_status_batch(
        &self,
        token: &Token,
        ids: &[TaskId],
    ) -> GcxResult<Vec<(TaskId, TaskState, Option<TaskResult>)>> {
        let who = self.authenticate(token)?;
        let mut out = Vec::with_capacity(ids.len());
        let mut bytes_out = 0usize;
        for id in ids {
            let entry = self.inner.tasks.with(id, |rec| {
                rec.filter(|rec| rec.owner == who.identity.id)
                    .map(|rec| (*id, rec.state, rec.result.clone()))
            });
            if let Some((id, state, result)) = entry {
                bytes_out +=
                    STATUS_WIRE_OVERHEAD + result.as_ref().map(result_wire_size).unwrap_or(0);
                out.push((id, state, result));
            }
        }
        self.meter_api(ids.len() * 36, bytes_out);
        self.inner.m.status_polls.add(ids.len() as u64);
        Ok(out)
    }

    /// Cancel a task (best-effort, like the production API): tasks that
    /// have not reached a worker never run; tasks already running finish
    /// but their results are discarded by the result processor.
    ///
    /// Cancelling a task that already reached a terminal state is an
    /// idempotent no-op — the existing state and result are left intact
    /// and the caller learns what it raced against via
    /// [`CancelOutcome::AlreadyTerminal`] — or, once the record is retired
    /// (see [`Self::task_status`]), [`GcxError::TaskNotFound`].
    pub fn cancel_task(&self, token: &Token, id: TaskId) -> GcxResult<CancelOutcome> {
        let who = self.authenticate(token)?;
        self.meter_api(36, 8);
        let now = self.inner.clock.now_ms();
        let (outcome, owner) = self.inner.tasks.update(&id, |rec| {
            let rec = rec.ok_or_else(|| self.fed_missing_task_error(id))?;
            if rec.owner != who.identity.id {
                return Err(GcxError::Forbidden("not your task".into()));
            }
            if rec.state.is_terminal() {
                // Lost the race against a result (or a prior cancel/expiry):
                // never overwrite the terminal record.
                return Ok((CancelOutcome::AlreadyTerminal(rec.state), rec.owner));
            }
            rec.transition(TaskState::Cancelled, now)?;
            rec.result = Some(TaskResult::Err(format!("task {id} was cancelled")));
            Ok((CancelOutcome::Cancelled, rec.owner))
        })?;
        if outcome == CancelOutcome::Cancelled {
            self.inner.m.tasks_cancelled.inc();
            self.admission_release(owner, 1);
            // Make the cancellation durable: without a `Done` entry a
            // handover replay would resurrect (and republish) the task.
            self.fed_log_done(id, &TaskResult::Err(format!("task {id} was cancelled")));
        }
        Ok(outcome)
    }

    /// Whether a task has been cancelled (endpoint-side check before
    /// spending cycles on it).
    pub(super) fn task_cancelled(&self, id: TaskId) -> bool {
        self.inner.tasks.with(&id, |rec| {
            rec.map(|r| r.state == TaskState::Cancelled)
                .unwrap_or(false)
        })
    }

    /// Full task record (internal/test use). [`GcxError::TaskNotFound`]
    /// once retired (see [`Self::task_status`]).
    pub fn task_record(&self, id: TaskId) -> GcxResult<TaskRecord> {
        self.inner
            .tasks
            .get_cloned(&id)
            .ok_or(GcxError::TaskNotFound(id))
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{login, service, T};
    use super::*;
    use gcx_core::function::FunctionBody;
    use gcx_core::ids::FunctionId;

    #[test]
    fn payload_limit_enforced_on_submit() {
        let svc = service();
        let token = login(&svc, "u@x.y");
        let fid = svc
            .register_function(&token, FunctionBody::pyfn("def f(b):\n    return len(b)\n"))
            .unwrap();
        let reg = svc
            .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
            .unwrap();
        let mut spec = TaskSpec::new(fid, reg.endpoint_id);
        spec.set_args(
            vec![Value::Bytes(vec![0u8; 11 * 1024 * 1024])],
            Value::map([] as [(&str, Value); 0]),
        );
        let e = svc.submit_task(&token, spec).unwrap_err();
        assert!(matches!(e, GcxError::PayloadTooLarge { .. }));
        svc.shutdown();
    }

    #[test]
    fn large_args_ship_as_cas_reference_and_resolve() {
        let svc = service();
        let token = login(&svc, "u@x.y");
        let fid = svc
            .register_function(&token, FunctionBody::pyfn("def f(b):\n    return len(b)\n"))
            .unwrap();
        let reg = svc
            .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
            .unwrap();
        let session = svc
            .connect_endpoint(reg.endpoint_id, &reg.queue_credential)
            .unwrap();
        let payload = vec![7u8; 1024 * 1024]; // 1 MB: above inline, below limit
        let mut spec = TaskSpec::new(fid, reg.endpoint_id);
        spec.set_args(
            vec![Value::Bytes(payload.clone())],
            Value::map([] as [(&str, Value); 0]),
        );
        svc.submit_task(&token, spec).unwrap();
        assert_eq!(svc.cas().len(), 1, "args interned in the dedup cache");
        let (got, tag) = session.next_task(T).unwrap().unwrap();
        let (args, _) = got.decode_args().unwrap();
        assert_eq!(args, vec![Value::Bytes(payload)], "resolved transparently");
        session.ack_task(tag).unwrap();
        // The queue message itself stayed small: only the content hash rode
        // the queue, and `payload.bytes_moved` saw none of the megabyte.
        let mq_bytes = svc.metrics().counter("mq.bytes_published").get();
        assert!(
            mq_bytes < 128 * 1024,
            "queue payload should be a reference: {mq_bytes}"
        );
        assert!(
            svc.metrics().counter("payload.bytes_moved").get() < 1024,
            "reference shipping must not count payload bytes as moved"
        );
        svc.shutdown();
    }

    #[test]
    fn duplicate_args_dedup_through_the_cas_cache() {
        let svc = service();
        let token = login(&svc, "u@x.y");
        let fid = svc
            .register_function(&token, FunctionBody::pyfn("def f(b):\n    return len(b)\n"))
            .unwrap();
        let reg = svc
            .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
            .unwrap();
        let session = svc
            .connect_endpoint(reg.endpoint_id, &reg.queue_credential)
            .unwrap();
        let args = vec![Value::Bytes(vec![3u8; 4096])];
        let kwargs = Value::map([] as [(&str, Value); 0]);
        // First submission travels inline (and primes the cache); the next
        // four are hash-only references to the same interned bytes.
        let mut ids = Vec::new();
        for _ in 0..5 {
            let mut spec = TaskSpec::new(fid, reg.endpoint_id);
            spec.set_args(args.clone(), kwargs.clone());
            ids.push(svc.submit_task(&token, spec).unwrap());
        }
        assert_eq!(svc.metrics().counter("blob.cas_misses").get(), 1);
        assert_eq!(svc.metrics().counter("blob.cas_hits").get(), 4);
        let moved = svc.metrics().counter("payload.bytes_moved").get();
        let payload_len = {
            let mut s = TaskSpec::new(fid, reg.endpoint_id);
            s.set_args(args.clone(), kwargs.clone());
            s.payload.len() as u64
        };
        assert_eq!(moved, payload_len, "only the first copy moves");
        // Every delivery resolves to identical args regardless of how it
        // traveled.
        for id in &ids {
            let (got, tag) = session.next_task(T).unwrap().unwrap();
            assert_eq!(got.task_id, *id);
            let (a, _) = got.decode_args().unwrap();
            assert_eq!(a, args);
            session.ack_task(tag).unwrap();
        }
        svc.shutdown();
    }

    #[test]
    fn arguments_no_longer_than_a_reference_are_never_interned() {
        let svc = service();
        let token = login(&svc, "u@x.y");
        let fid = svc
            .register_function(&token, FunctionBody::pyfn("def f(n):\n    return n\n"))
            .unwrap();
        let reg = svc
            .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
            .unwrap();
        for n in 0..1_000 {
            let mut spec = TaskSpec::new(fid, reg.endpoint_id);
            spec.set_args(vec![Value::Int(n)], Value::map([] as [(&str, Value); 0]));
            assert!(spec.payload.len() <= size_of::<ContentHash>());
            svc.submit_task(&token, spec).unwrap();
        }
        assert_eq!(svc.cas().len(), 0);
        assert_eq!(svc.metrics().counter("blob.cas_misses").get(), 0);
        assert_eq!(svc.metrics().counter("blob.cas_hits").get(), 0);
        svc.shutdown();
    }

    #[test]
    fn submit_validates_function_endpoint_policy_and_allowlist() {
        let svc = service();
        let token = login(&svc, "user@uchicago.edu");
        let fid = svc
            .register_function(&token, FunctionBody::pyfn("def f():\n    return 1\n"))
            .unwrap();
        let other_fid = svc
            .register_function(&token, FunctionBody::pyfn("def g():\n    return 2\n"))
            .unwrap();

        // Unknown endpoint.
        let e = svc
            .submit_task(&token, TaskSpec::new(fid, EndpointId::random()))
            .unwrap_err();
        assert!(matches!(e, GcxError::EndpointNotFound(_)));

        // Unknown function.
        let reg = svc
            .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
            .unwrap();
        let e = svc
            .submit_task(&token, TaskSpec::new(FunctionId::random(), reg.endpoint_id))
            .unwrap_err();
        assert!(matches!(e, GcxError::FunctionNotFound(_)));

        // Policy rejection.
        let reg2 = svc
            .register_endpoint(
                &token,
                "anl-only",
                false,
                AuthPolicy::domains(&["anl.gov"]),
                None,
            )
            .unwrap();
        let e = svc
            .submit_task(&token, TaskSpec::new(fid, reg2.endpoint_id))
            .unwrap_err();
        assert!(matches!(e, GcxError::Forbidden(_)));

        // Allowed-function list (§IV-A.4).
        let reg3 = svc
            .register_endpoint(
                &token,
                "gateway",
                false,
                AuthPolicy::open(),
                Some(vec![fid]),
            )
            .unwrap();
        svc.submit_task(&token, TaskSpec::new(fid, reg3.endpoint_id))
            .unwrap();
        let e = svc
            .submit_task(&token, TaskSpec::new(other_fid, reg3.endpoint_id))
            .unwrap_err();
        assert!(matches!(e, GcxError::Forbidden(_)));
        svc.shutdown();
    }

    #[test]
    fn batch_submission_is_one_api_request() {
        let svc = service();
        let token = login(&svc, "u@x.y");
        let fid = svc
            .register_function(&token, FunctionBody::pyfn("def f():\n    return 1\n"))
            .unwrap();
        let reg = svc
            .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
            .unwrap();
        svc.metrics().reset_counters();
        let specs: Vec<TaskSpec> = (0..50)
            .map(|_| TaskSpec::new(fid, reg.endpoint_id))
            .collect();
        let ids = svc.submit_batch(&token, specs).unwrap();
        assert_eq!(ids.len(), 50);
        assert_eq!(svc.metrics().counter("api.requests").get(), 1);
        assert_eq!(svc.metrics().counter("cloud.tasks_submitted").get(), 50);
        // The whole batch rides one broker publish per target endpoint, and
        // every task still lands on the queue.
        assert_eq!(svc.metrics().counter("mq.messages_published").get(), 50);
        assert_eq!(
            svc.broker()
                .queue_stats(&task_queue_name(reg.endpoint_id))
                .unwrap()
                .ready,
            50
        );
        svc.shutdown();
    }

    /// Task ids are client-chosen and a wire client resends a batch in
    /// place after a connection cut, so the same batch may arrive twice.
    #[test]
    fn resubmitting_a_batch_is_idempotent_on_task_id() {
        use super::super::{AdmissionConfig, CloudConfig};
        use gcx_core::clock::SystemClock;

        let clock = SystemClock::shared();
        let svc = WebService::new(
            CloudConfig {
                admission: AdmissionConfig::enabled(),
                ..CloudConfig::default()
            },
            gcx_auth::AuthService::new(clock.clone()),
            gcx_mq::Broker::with_profile(
                gcx_core::metrics::MetricsRegistry::new(),
                clock.clone(),
                gcx_mq::LinkProfile::instant(),
            ),
            clock,
        );
        let token = login(&svc, "u@x.y");
        let fid = svc
            .register_function(&token, FunctionBody::pyfn("def f():\n    return 1\n"))
            .unwrap();
        let reg = svc
            .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
            .unwrap();
        let specs: Vec<TaskSpec> = (0..8)
            .map(|_| TaskSpec::new(fid, reg.endpoint_id))
            .collect();
        let first = svc.submit_batch(&token, specs.clone()).unwrap();
        let again = svc.submit_batch(&token, specs.clone()).unwrap();
        assert_eq!(first, again, "the resend is acknowledged with the same ids");
        let queued = || {
            let stats = svc.broker().queue_stats(&task_queue_name(reg.endpoint_id));
            stats.unwrap().ready
        };
        let submitted = svc.metrics().counter("cloud.tasks_submitted");
        let charged = svc.metrics().gauge("cloud.admission_inflight");
        assert_eq!(queued(), 8, "one queue message per task");
        assert_eq!(submitted.get(), 8, "counted once");
        assert_eq!(charged.get(), 8, "one admission charge per task");

        // Someone else's id is refused typed, and the record stays theirs.
        let before = svc.task_record(first[0]).unwrap();
        let mallory = login(&svc, "mallory@x.y");
        let e = svc.submit_batch(&mallory, specs).unwrap_err();
        assert!(matches!(e, GcxError::Forbidden(_)), "{e:?}");
        let after = svc.task_record(first[0]).unwrap();
        assert_eq!((after.owner, after.state), (before.owner, before.state));
        assert_eq!((queued(), submitted.get(), charged.get()), (8, 8, 8));
        svc.shutdown();
    }

    #[test]
    fn batch_delivers_in_submission_order() {
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
        let specs: Vec<TaskSpec> = (0..10)
            .map(|_| TaskSpec::new(fid, reg.endpoint_id))
            .collect();
        let ids = svc.submit_batch(&token, specs).unwrap();
        for expected in &ids {
            let (got, tag) = session.next_task(T).unwrap().unwrap();
            assert_eq!(got.task_id, *expected);
            session.ack_task(tag).unwrap();
        }
        svc.shutdown();
    }

    #[test]
    fn usage_meter_counts_submissions() {
        let svc = service();
        let token = login(&svc, "u@x.y");
        let fid = svc
            .register_function(&token, FunctionBody::pyfn("def f():\n    return 1\n"))
            .unwrap();
        let reg = svc
            .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
            .unwrap();
        for _ in 0..7 {
            svc.submit_task(&token, TaskSpec::new(fid, reg.endpoint_id))
                .unwrap();
        }
        assert_eq!(svc.usage().total(), 7);
        svc.shutdown();
    }

    #[test]
    fn mep_submission_spawns_and_reuses_uep() {
        let svc = service();
        let admin = login(&svc, "admin@site.org");
        let user = login(&svc, "user@site.org");
        let fid = svc
            .register_function(&user, FunctionBody::pyfn("def f():\n    return 1\n"))
            .unwrap();
        let mep = svc
            .register_endpoint(&admin, "mep", true, AuthPolicy::open(), None)
            .unwrap();
        let commands = svc
            .connect_mep_commands(mep.endpoint_id, &mep.queue_credential)
            .unwrap();

        let config = Value::map([("ACCOUNT_ID", Value::str("123"))]);
        let mut spec = TaskSpec::new(fid, mep.endpoint_id);
        spec.user_endpoint_config = config.clone();
        svc.submit_task(&user, spec).unwrap();

        // The MEP sees exactly one start request.
        let d = commands.next(T).unwrap().expect("start request");
        let req = MepStartRequest::from_value(&codec::decode(&d.message.body).unwrap()).unwrap();
        assert_eq!(req.username, "user@site.org");
        commands.ack(d.tag).unwrap();

        // Same config → same UEP, no second start request.
        let mut spec2 = TaskSpec::new(fid, mep.endpoint_id);
        spec2.user_endpoint_config = config;
        svc.submit_task(&user, spec2).unwrap();
        assert!(commands
            .next(std::time::Duration::from_millis(50))
            .unwrap()
            .is_none());
        assert_eq!(svc.user_endpoints_of(mep.endpoint_id).len(), 1);

        // Different config → new UEP.
        let mut spec3 = TaskSpec::new(fid, mep.endpoint_id);
        spec3.user_endpoint_config = Value::map([("ACCOUNT_ID", Value::str("999"))]);
        svc.submit_task(&user, spec3).unwrap();
        assert!(commands.next(T).unwrap().is_some());
        assert_eq!(svc.user_endpoints_of(mep.endpoint_id).len(), 2);

        // Both tasks for the first config are buffered on the same UEP queue.
        let uep_id = req.uep_endpoint_id;
        let uep_session = svc.connect_endpoint(uep_id, &req.queue_credential).unwrap();
        let (t1, tag1) = uep_session.next_task(T).unwrap().unwrap();
        let (t2, tag2) = uep_session.next_task(T).unwrap().unwrap();
        assert_eq!(t1.endpoint_id, uep_id);
        assert_eq!(t2.endpoint_id, uep_id);
        uep_session.ack_task(tag1).unwrap();
        uep_session.ack_task(tag2).unwrap();
        svc.shutdown();
    }

    #[test]
    fn task_status_hides_other_users_tasks() {
        let svc = service();
        let alice = login(&svc, "alice@x.y");
        let bob = login(&svc, "bob@x.y");
        let fid = svc
            .register_function(&alice, FunctionBody::pyfn("def f():\n    return 1\n"))
            .unwrap();
        let reg = svc
            .register_endpoint(&alice, "ep", false, AuthPolicy::open(), None)
            .unwrap();
        let id = svc
            .submit_task(&alice, TaskSpec::new(fid, reg.endpoint_id))
            .unwrap();
        assert!(svc.task_status(&alice, id).is_ok());
        assert!(matches!(
            svc.task_status(&bob, id),
            Err(GcxError::Forbidden(_))
        ));
        svc.shutdown();
    }
}
