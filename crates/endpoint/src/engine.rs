//! What an engine is given and what it reports: the tasks it runs, the
//! events it emits, its status, and where those events go.

use std::sync::Arc;

use crossbeam_channel::Sender;
use gcx_core::error::GcxResult;
use gcx_core::function::FunctionRecord;
use gcx_core::ids::TaskId;
use gcx_core::task::{TaskResult, TaskSpec, TaskState};
use gcx_core::value::Value;

use crate::agent::AgentLink;

/// Which engine implementation is running. The kind names the scheduling
/// policy, labels metrics (`htex.*` / `mpi.*` / `thread.*`), and appears in
/// [`EngineStatus`] so operators can tell engines apart in expositions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// `GlobusComputeEngine` — the pilot-job/htex model.
    #[default]
    Htex,
    /// `GlobusMPIEngine` — dynamic node partitioning.
    Mpi,
    /// `ThreadEngine` — in-process worker threads, no provider.
    Thread,
}

impl EngineKind {
    /// The metric-name prefix (and display label) for this engine kind.
    pub(crate) fn as_str(&self) -> &'static str {
        match self {
            EngineKind::Htex => "htex",
            EngineKind::Mpi => "mpi",
            EngineKind::Thread => "thread",
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A payload transform applied worker-side to task arguments before
/// execution. This is the hook `gcx-proxystore` uses to resolve transparent
/// proxies inside the worker process (§V-B) without the endpoint crate
/// depending on the proxy implementation.
pub(crate) type ValueTransform = Arc<dyn Fn(Value) -> GcxResult<Value> + Send + Sync>;

/// A task ready for execution: the spec plus its resolved function and the
/// broker delivery tag (acked only after the result is published).
#[derive(Debug, Clone)]
pub struct ExecutableTask {
    /// The submitted spec (arguments restored).
    pub spec: TaskSpec,
    /// The resolved function record.
    pub function: FunctionRecord,
    /// Broker delivery tag.
    pub tag: u64,
}

/// Events an engine emits while executing tasks.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineEvent {
    /// A task changed state (WaitingForNodes, Running).
    State(TaskId, TaskState),
    /// A task finished; `tag` is echoed so the agent can ack the delivery.
    Done {
        /// The finished task.
        task_id: TaskId,
        /// Delivery tag to ack.
        tag: u64,
        /// The outcome.
        result: TaskResult,
    },
    /// The engine lost provisioned capacity (a whole block, or member
    /// nodes of one). The agent forwards this to the cloud so liveness
    /// accounting can tell "endpoint dead" from "endpoint lost capacity,
    /// recovering".
    BlockLost {
        /// Why the capacity went away (`walltime`, `preempted`, …).
        reason: &'static str,
        /// Worker slots or nodes lost.
        nodes_lost: usize,
    },
    /// The engine (re-)gained a running block of `nodes` nodes.
    BlockProvisioned {
        /// Nodes in the newly running block.
        nodes: usize,
    },
}

/// Point-in-time engine load. Every engine reports the same parity fields,
/// whatever its scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStatus {
    /// Which engine implementation produced this status.
    pub(crate) kind: EngineKind,
    /// Tasks queued inside the engine.
    pub queued: usize,
    /// Tasks currently executing.
    pub running: usize,
    /// Total worker slots currently connected.
    pub capacity: usize,
    /// Provisioned blocks currently alive.
    pub(crate) blocks: usize,
    /// Member nodes lost to crashes/preemption/walltime over the engine's
    /// lifetime.
    pub(crate) nodes_lost_total: u64,
    /// Tasks requeued after losing their resources, over the lifetime.
    pub redispatches_total: u64,
}

/// Where an engine's driver sends what happens to its tasks and, for an
/// endpoint agent, where it takes them from. A `Sender<EngineEvent>`
/// converts into one: the events go down that channel, and tasks come in
/// through [`Engine::submit`](crate::Engine::submit).
pub struct EngineIo(pub(crate) Io);

pub(crate) enum Io {
    /// Events go down a channel; tasks come in through `Engine::submit`.
    Channel(Sender<EngineEvent>),
    /// An agent's session: the driver takes the endpoint's tasks from its
    /// queue and settles every event with the service itself.
    Agent(AgentLink),
}

impl From<Sender<EngineEvent>> for EngineIo {
    fn from(events: Sender<EngineEvent>) -> Self {
        Self(Io::Channel(events))
    }
}
