//! Federation plumbing on the web service: the per-replica rpc loop,
//! forwarding, durable task-log appends, and ownership adoption/rebalance
//! helpers.
//!
//! What travels between replicas is an [`Envelope`] (bytes laid out in
//! [`crate::federation::envelope`]): `submit` | `result` | `state`, each
//! carrying the sender's ownership epoch and a hop count. A receiver that
//! is not the key's owner passes it on through `FedCore::route` (one more
//! hop, capped at the federation's `MAX_FORWARD_HOPS`, stale epochs
//! counted) — this is how writes addressed to a replica that lost a range
//! after a handover converge on the new owner instead of corrupting state
//! on the stale one.
//!
//! A task owned here gets in one way however it arrived: forwarded specs
//! and a dead owner's open tasks go through the front door's
//! `install_and_ship` (see `dispatch.rs`), so they get the same record,
//! deadline bookkeeping, `Open` log entry and batched publish as a task
//! submitted here.

use std::time::Duration;

use bytes::Bytes;
use gcx_core::error::{GcxError, GcxResult};
use gcx_core::ids::{IdentityId, TaskId};
use gcx_core::task::{TaskRecord, TaskResult, TaskSpec};
use gcx_mq::{Consumer, Message};

use super::dispatch::Accepted;
use super::results::FanOut;
use super::WebService;
use crate::federation::envelope::{open_entry, Body, Envelope};
use crate::federation::log::{fed_log_queue, TaskLogEntry, FED_CRED};
use crate::federation::{heartbeat_every, FedMembership, ReplicaId};

/// An orphaned result (owner has no record yet — handover race) is
/// requeued to the owner's own rpc queue this many times before being
/// dropped as unrecoverable.
const MAX_ORPHAN_RETRIES: u64 = 1000;

impl WebService {
    pub(super) fn fed(&self) -> Option<&FedMembership> {
        self.inner.fed.as_ref()
    }

    /// The error for a task record we don't hold: a federated replica that
    /// is not the ring owner redirects the client ([`GcxError::NotOwner`]);
    /// everyone else reports the task unknown.
    pub(super) fn fed_missing_task_error(&self, id: TaskId) -> GcxError {
        if let Some(fed) = self.inner.fed.as_ref() {
            if let Some(owner) = fed.owner(id.uuid()) {
                if owner != fed.replica {
                    return GcxError::NotOwner { owner: owner.0 };
                }
            }
        }
        GcxError::TaskNotFound(id)
    }

    // ---- durable task log ------------------------------------------------

    /// Append to this replica's task log; standalone, `entry` is never
    /// built.
    fn fed_log_append(&self, entry: impl FnOnce() -> GcxResult<Bytes>) {
        let Some(fed) = &self.inner.fed else { return };
        if let Ok(body) = entry() {
            let _ = self.inner.broker.publish(
                &fed_log_queue(fed.replica),
                Message::new(body),
                Some(FED_CRED),
            );
        }
    }

    /// Append an `Open` entry for a task this replica just became
    /// responsible for. `wire_spec` is the deliverable spec (endpoint id
    /// already rewritten to the resolved UEP where applicable), so a
    /// handover replay can republish it as-is.
    pub(super) fn fed_log_open(&self, wire_spec: &TaskSpec, owner: IdentityId, submitted_at: u64) {
        self.fed_log_append(|| open_entry(wire_spec, owner, submitted_at));
    }

    pub(super) fn fed_log_done(&self, task_id: TaskId, result: &TaskResult) {
        self.fed_log_append(|| {
            let result = result.clone();
            TaskLogEntry::Done { task_id, result }.encode()
        });
    }

    fn fed_log_moved(&self, task_id: TaskId) {
        self.fed_log_append(|| TaskLogEntry::Moved { task_id }.encode());
    }

    /// Expiry tombstone: keeps a deadline-expired task dead across a
    /// handover replay instead of resurrecting it past its deadline.
    pub(super) fn fed_log_expired(&self, task_id: TaskId) {
        self.fed_log_append(|| TaskLogEntry::Expired { task_id }.encode());
    }

    // ---- envelope senders ------------------------------------------------

    /// Send `body` to `to` under the current epoch, hop 0.
    fn fed_send(&self, to: ReplicaId, body: Body) -> GcxResult<()> {
        let fed = self.inner.fed.as_ref().expect("federated");
        let env = Envelope {
            epoch: fed.epoch(),
            hop: 0,
            body,
        };
        fed.core.send(&self.inner.broker, to, &env)
    }

    /// Forward to the owner what this replica accepted or picked up but
    /// does not own: the validated specs of one `submit_batch` (endpoints
    /// already resolved, one envelope per owner), a result off the shared
    /// result queue, or an endpoint's state report. Counts *tasks*.
    pub(super) fn fed_forward(&self, to: ReplicaId, body: Body) -> GcxResult<()> {
        let m = &self.inner.m;
        let (counter, tasks) = match &body {
            Body::Submit(_, specs) => (&m.fed_submits_forwarded, specs.len()),
            Body::Result { .. } => (&m.fed_results_forwarded, 1),
            Body::State { .. } => (&m.fed_state_forwarded, 1),
        };
        counter.add(tasks as u64);
        self.fed_send(to, body)
    }

    // ---- the rpc loop ----------------------------------------------------

    /// Consume this replica's `fed.rpc.<r>` queue until shutdown cancels
    /// `consumer`, and stamp the replica's federation heartbeat when one is
    /// due — a killed replica's loop is gone and a partitioned one is
    /// skipped, so its heartbeat goes stale like a crashed agent's.
    pub(super) fn fed_rpc_loop(&self, consumer: Consumer) {
        let Some(fed) = self.inner.fed.clone() else {
            return;
        };
        let beat_every = heartbeat_every(fed.core.heartbeat_timeout_ms).as_millis() as u64;
        let (mut fan_out, mut beat_due) = (FanOut::default(), 0);
        loop {
            let now = self.inner.clock.now_ms();
            if fed.is_partitioned(now) {
                // Take nothing, and beat once the partition heals; nothing
                // announces that, so look every 5 ms (a cancel still ends it).
                beat_due = 0;
                match consumer.next_batch(Duration::from_millis(5), 0, &mut Vec::new()) {
                    Ok(_) => continue,
                    Err(_) => return,
                }
            }
            if now >= beat_due {
                fed.heartbeat(now);
                beat_due = now + beat_every;
            }
            match consumer.next(Duration::from_millis(beat_due - now)) {
                Ok(Some(delivery)) => {
                    let handled =
                        self.fed_handle_envelope(&fed, &delivery.message.body, &mut fan_out);
                    fan_out.flush(&self.inner.broker, &self.inner.streams);
                    if let Err(e) = handled {
                        // Nothing to hand the failure to: a refused envelope
                        // names no task we can trust.
                        self.inner.metrics.flight().record(
                            now,
                            "fed",
                            "envelope_refused",
                            format!("error={e}"),
                        );
                    }
                    let _ = consumer.ack(delivery.tag);
                }
                Ok(None) => {}
                Err(_) => return, // cancelled, or the queue is gone
            }
        }
    }

    /// Act on the part of a received envelope this replica owns; the rest
    /// (the ring moved since it was addressed) is sent on by `route`. What
    /// lands leaves its fan-out in `fan_out`.
    fn fed_handle_envelope(
        &self,
        fed: &FedMembership,
        bytes: &Bytes,
        fan_out: &mut FanOut,
    ) -> GcxResult<()> {
        let env = Envelope::decode(bytes)?;
        let (mine, _) = fed.core.route(&self.inner.broker, env, Some(fed.replica));
        match mine {
            None => Ok(()),
            Some(Body::Submit(from, specs)) => {
                let now = self.inner.clock.now_ms();
                for spec in &specs {
                    let tracer = &self.inner.tracer;
                    tracer.record_span(spec.trace.as_ref(), "forward", from.forwarded_ms, now);
                }
                let ingested = self.fed_ingest(from.identity, from.submitted_at, specs, fan_out);
                self.inner.m.fed_submits_ingested.add(ingested as u64);
                Ok(())
            }
            Some(Body::Result {
                task_id,
                result,
                sent_ms,
                retry,
            }) => match self.finish_task_local(task_id, result.clone(), sent_ms, None, fan_out) {
                Err(GcxError::TaskNotFound(_)) => {
                    self.fed_requeue_orphan_result(task_id, result, sent_ms, retry)
                }
                Ok(()) => {
                    self.inner.m.fed_results_ingested.inc();
                    Ok(())
                }
                Err(e) => Err(e),
            },
            // A state report for a task we don't hold (handover race) is
            // advisory: drop it, the result will still land.
            Some(Body::State {
                task_id,
                endpoint,
                state,
            }) => match self.report_state_local(endpoint, task_id, state) {
                Err(GcxError::TaskNotFound(_)) => Ok(()),
                other => other,
            },
        }
    }

    /// Take in specs another replica validated — a forwarded submit, or a
    /// dead owner's open task — through the front door's install-and-ship.
    /// Whoever submitted them was told `Ok` long ago, so a ship failure
    /// (a full queue, an endpoint whose credential is gone) cannot be an
    /// error return: it lands as each task's retryable *result*, which
    /// fans out to the submitter's streams like any other. Returns how many
    /// tasks were new here (a repeated forward installs nothing).
    fn fed_ingest(
        &self,
        identity: IdentityId,
        submitted_at: u64,
        specs: Vec<TaskSpec>,
        fan_out: &mut FanOut,
    ) -> usize {
        // Always inline: this replica's CAS is not reachable from the
        // endpoint's connected replica.
        let tasks = specs.into_iter().map(Accepted::as_resolved).collect();
        let (installed, shipped) =
            self.install_and_ship(identity, submitted_at, tasks, &mut |_, _| Ok(()));
        if let Err(e) = shipped {
            for id in &installed {
                let failed = TaskResult::retryable_err(&e);
                let _ = self.finish_task_local(*id, failed, None, None, fan_out);
            }
        }
        installed.len()
    }

    /// A result arrived for a task we own but don't hold yet (its record
    /// is mid-handover): requeue it to our own rpc queue with a bumped
    /// retry count so it lands once the adoption installs the record.
    pub(super) fn fed_requeue_orphan_result(
        &self,
        task_id: TaskId,
        result: TaskResult,
        sent_ms: Option<u64>,
        retry: u64,
    ) -> GcxResult<()> {
        let Some(fed) = self.inner.fed.as_ref() else {
            return Ok(());
        };
        if retry >= MAX_ORPHAN_RETRIES {
            self.inner
                .metrics
                .counter("fed.orphan_results_dropped")
                .inc();
            self.inner.metrics.flight().record(
                self.inner.clock.now_ms(),
                "fed",
                "orphan_result_dropped",
                format!("task_id={task_id} retries={retry}"),
            );
            return Ok(());
        }
        self.inner
            .metrics
            .counter("fed.orphan_result_retries")
            .inc();
        // A real wall-clock pause (virtual-clock safe): gives the
        // handover replay a chance to install the record before the next
        // attempt, instead of spinning hot on our own queue.
        std::thread::sleep(Duration::from_millis(1));
        self.fed_send(
            fed.replica,
            Body::Result {
                task_id,
                result,
                sent_ms,
                retry: retry + 1,
            },
        )
    }

    // ---- handover / rebalance hooks (called by `Federation`) -------------

    /// Adopt a task record replayed from another replica's log (death
    /// handover) or shed by a live replica (rebalance), and record a
    /// `handover` span on the task's trace.
    ///
    /// `republish` (death handover) treats an open task as new work: the
    /// old owner's publish may never have happened and its delivery state
    /// is gone, so the task goes through [`Self::fed_ingest`] — the possible
    /// duplicate delivery is made safe by idempotent result ingestion.
    /// Everything else is a record carried over as it stands (a terminal
    /// one, or one a live replica already shipped), logged to *our* log so
    /// a second failure replays correctly.
    pub(crate) fn fed_adopt_record(
        &self,
        incoming: TaskRecord,
        from: ReplicaId,
        now: u64,
        republish: bool,
    ) {
        let Some(fed) = self.inner.fed.clone() else {
            return;
        };
        let trace = incoming.spec.trace;
        let adopted = if republish && !incoming.state.is_terminal() {
            let (owner, at) = (incoming.owner, incoming.submitted_at);
            let mut fan_out = FanOut::default();
            let fresh = self.fed_ingest(owner, at, vec![incoming.spec], &mut fan_out) > 0;
            fan_out.flush(&self.inner.broker, &self.inner.streams);
            if fresh {
                self.inner.m.fed_tasks_republished.inc();
            }
            fresh
        } else {
            self.fed_carry_over(incoming)
        };
        if !adopted {
            return;
        }
        self.inner
            .tracer
            .record_span_annotated(trace.as_ref(), "handover", now, now, || {
                vec![format!(
                    "ownership moved {from} -> {} (epoch {})",
                    fed.replica,
                    fed.epoch()
                )]
            });
    }

    /// Install `incoming` as it stands unless we already hold something at
    /// least as advanced: a terminal incoming record (a completion the dead
    /// replica logged but nobody saw) beats a non-terminal resident one.
    fn fed_carry_over(&self, incoming: TaskRecord) -> bool {
        let task_id = incoming.spec.task_id;
        let incoming_terminal = incoming.state.is_terminal();
        let fresh = std::cell::Cell::new(false);
        let installed = self.inner.tasks.update_or_insert_with(
            task_id,
            || {
                fresh.set(true);
                self.inner.m.tasks_resident.add(1);
                incoming.clone()
            },
            |existing| {
                if fresh.get() {
                    return true;
                }
                if !existing.state.is_terminal() && incoming_terminal {
                    *existing = incoming.clone();
                    return true;
                }
                false
            },
        );
        if !installed {
            return false;
        }
        self.fed_log_open(&incoming.spec, incoming.owner, incoming.submitted_at);
        if !incoming_terminal {
            if incoming.spec.deadline_ms.is_some() {
                self.inner.admission.note_deadline_task();
            }
        } else if let Some(result) = &incoming.result {
            self.fed_log_done(task_id, result);
        }
        true
    }

    /// Shed every task this replica no longer owns (after a ring change),
    /// logging a `Moved` tombstone for each so a replay of our log never
    /// resurrects them. Returns the shed records for re-adoption.
    pub(crate) fn fed_extract_misplaced(&self) -> Vec<TaskRecord> {
        let Some(fed) = self.inner.fed.clone() else {
            return Vec::new();
        };
        let mut moved = Vec::new();
        self.inner.tasks.retain(|id, rec| {
            if fed.is_mine(id.uuid()) {
                true
            } else {
                moved.push(rec.clone());
                false
            }
        });
        self.inner.m.tasks_resident.sub(moved.len() as u64);
        for rec in &moved {
            self.fed_log_moved(rec.spec.task_id);
        }
        moved
    }
}
