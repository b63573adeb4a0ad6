//! The broker-durable per-replica task log that makes failure handover
//! possible.
//!
//! Each replica appends an entry to its own `fed.tasklog.<r>` queue for
//! every ownership-relevant task event: `Open` when it becomes responsible
//! for a task, `Done` when the task reaches a terminal state, and `Moved`
//! when a rebalance shipped the task to another replica's log. The queue
//! is never consumed in steady state — the broker *is* the durable store
//! (the stand-in for the production service's database/raft log). When a
//! replica dies, the federation drains its log and replays it: tasks with
//! an `Open` but no `Done`/`Moved` are the orphans the survivors must
//! adopt; `Done` entries carry the result so completions survive the
//! owner's death.

use gcx_core::ids::{IdentityId, TaskId};
use gcx_core::task::{TaskRecord, TaskResult, TaskSpec};

use super::ring::ReplicaId;

/// Credential guarding the federation-internal queues (rpc + task log).
pub const FED_CRED: &str = "fed-internal";

/// The replica-to-replica RPC queue: forwarded submits/results/state
/// reports addressed to `replica`.
pub fn fed_rpc_queue(replica: ReplicaId) -> String {
    format!("fed.rpc.{}", replica.0)
}

/// The durable task log owned by `replica`.
pub fn fed_log_queue(replica: ReplicaId) -> String {
    format!("fed.tasklog.{}", replica.0)
}

/// One durable task-log entry. Its byte form is laid out in
/// [`super::envelope`].
#[derive(Debug, Clone, PartialEq)]
pub enum TaskLogEntry {
    /// The writing replica became responsible for this task (fresh submit,
    /// forwarded submit, or adoption during handover). The spec is boxed to
    /// keep the enum near the size of its tombstone variants.
    Open {
        spec: Box<TaskSpec>,
        owner: IdentityId,
        submitted_at: u64,
    },
    /// The task reached a terminal state with this result.
    Done { task_id: TaskId, result: TaskResult },
    /// A rebalance moved the task to another replica's log; this log is no
    /// longer authoritative for it.
    Moved { task_id: TaskId },
    /// The task's deadline passed before it completed; an expiry tombstone
    /// so a handover replay keeps the task dead instead of resurrecting and
    /// re-running it after its deadline.
    Expired { task_id: TaskId },
}

/// Fold a drained log into the records a surviving replica must adopt:
/// every task that was opened and not moved away, with `Done` results
/// installed as terminal state. Entries must be in append order (the
/// broker preserves it).
pub(crate) fn replay(entries: &[TaskLogEntry], now: u64) -> Vec<TaskRecord> {
    use std::collections::BTreeMap;
    let mut records: BTreeMap<TaskId, TaskRecord> = BTreeMap::new();
    for entry in entries {
        match entry {
            TaskLogEntry::Open {
                spec,
                owner,
                submitted_at,
            } => {
                let mut rec = TaskRecord::new(spec.as_ref().clone(), *owner, *submitted_at);
                rec.dispatched_at = Some(*submitted_at);
                records.entry(spec.task_id).or_insert(rec);
            }
            TaskLogEntry::Done { task_id, result } => {
                if let Some(rec) = records.get_mut(task_id) {
                    if !rec.state.is_terminal() {
                        let _ = rec.transition(gcx_core::task::TaskState::Running, now);
                        let _ = rec.complete(result.clone(), now);
                    }
                }
            }
            TaskLogEntry::Moved { task_id } => {
                records.remove(task_id);
            }
            TaskLogEntry::Expired { task_id } => {
                if let Some(rec) = records.get_mut(task_id) {
                    if !rec.state.is_terminal() {
                        let _ = rec.transition(gcx_core::task::TaskState::Cancelled, now);
                        rec.result = Some(TaskResult::deadline_err(*task_id));
                    }
                }
            }
        }
    }
    records.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcx_core::ids::{EndpointId, FunctionId};
    use gcx_core::value::Value;

    fn spec() -> TaskSpec {
        TaskSpec::new(FunctionId::random(), EndpointId::random())
    }

    #[test]
    fn entries_roundtrip() {
        let s = spec();
        let entries = [
            TaskLogEntry::Open {
                spec: Box::new(s.clone()),
                owner: IdentityId::random(),
                submitted_at: 42,
            },
            TaskLogEntry::Done {
                task_id: s.task_id,
                result: TaskResult::ok(Value::Int(7)),
            },
            TaskLogEntry::Moved { task_id: s.task_id },
            TaskLogEntry::Expired { task_id: s.task_id },
        ];
        for e in &entries {
            assert_eq!(&TaskLogEntry::decode(&e.encode().unwrap()).unwrap(), e);
        }
    }

    #[test]
    fn replay_expired_tombstone_keeps_task_dead() {
        let owner = IdentityId::random();
        let s = spec();
        let entries = vec![
            TaskLogEntry::Open {
                spec: Box::new(s.clone()),
                owner,
                submitted_at: 1,
            },
            TaskLogEntry::Expired { task_id: s.task_id },
        ];
        let records = replay(&entries, 10);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].state, gcx_core::task::TaskState::Cancelled);
        assert!(records[0]
            .result
            .as_ref()
            .is_some_and(TaskResult::is_deadline_err));

        // A result that landed before the expiry tombstone wins: the
        // tombstone never overwrites a terminal record.
        let entries = vec![
            TaskLogEntry::Open {
                spec: Box::new(s.clone()),
                owner,
                submitted_at: 1,
            },
            TaskLogEntry::Done {
                task_id: s.task_id,
                result: TaskResult::ok(Value::Int(9)),
            },
            TaskLogEntry::Expired { task_id: s.task_id },
        ];
        let records = replay(&entries, 10);
        assert_eq!(records[0].result, Some(TaskResult::ok(Value::Int(9))));
    }

    #[test]
    fn replay_keeps_orphans_installs_results_and_drops_moved() {
        let owner = IdentityId::random();
        let (a, b, c) = (spec(), spec(), spec());
        let entries = vec![
            TaskLogEntry::Open {
                spec: Box::new(a.clone()),
                owner,
                submitted_at: 1,
            },
            TaskLogEntry::Open {
                spec: Box::new(b.clone()),
                owner,
                submitted_at: 2,
            },
            TaskLogEntry::Open {
                spec: Box::new(c.clone()),
                owner,
                submitted_at: 3,
            },
            TaskLogEntry::Done {
                task_id: b.task_id,
                result: TaskResult::ok(Value::Int(1)),
            },
            TaskLogEntry::Moved { task_id: c.task_id },
        ];
        let mut records = replay(&entries, 10);
        records.sort_by_key(|r| r.submitted_at);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].spec.task_id, a.task_id);
        assert!(!records[0].state.is_terminal(), "orphan stays open");
        assert_eq!(records[1].spec.task_id, b.task_id);
        assert!(records[1].state.is_terminal(), "done entry installs result");
        assert_eq!(records[1].result, Some(TaskResult::ok(Value::Int(1))));
    }
}
