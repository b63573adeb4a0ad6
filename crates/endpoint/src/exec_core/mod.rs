//! The shared execution core: one block-lifecycle state machine under
//! pluggable scheduling policies.
//!
//! The paper's endpoint architecture (§III) defines multiple engines —
//! `GlobusComputeEngine` (pilot-job htex) and `GlobusMPIEngine` (dynamic
//! node partitioning) — over one shared idea: a batch block's lifecycle
//! (pending → running → lost/expired) with task recovery layered on top.
//! `ExecCore` implements that shared idea exactly once. It owns:
//!
//! - the task backlog and in-flight table (keyed by a per-launch id so a
//!   zombie launch of a since-requeued task can never resolve the retry);
//! - block lifecycle via [`BlockTable`] (census diffing, loss
//!   classification, capped-backoff replacement through the
//!   [`BlockSupervisor`](crate::provider::BlockSupervisor));
//! - lost-task recovery: a walltime kill resolves Shell/MPI bodies with
//!   return code 124 (§III-B.3 — the command ran and was killed, which is
//!   a *result*); every other loss requeues within the retry budget and
//!   then fails as a typed retryable error;
//! - event emission (all [`EngineEvent`] sends route through one helper,
//!   so shutdown-disconnect tolerance is uniform), redispatch trace legs,
//!   and drain/shutdown ordering.
//!
//! What an engine *defines* is only its `SchedPolicy`: how capacity maps
//! to launches. `SlotPool` (htex) round-robins tasks into per-manager
//! bounded channels; `NodePartitioner` (MPI) greedily packs node slices;
//! `InlineSlots` (ThreadEngine) feeds in-process worker threads with no
//! provider at all. Adding an engine means writing a policy, not another
//! reap/recover/backoff loop.

pub(crate) mod block_table;

pub use block_table::{BlockEvent, BlockShape, BlockTable};

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam_channel::{Receiver, RecvTimeoutError, Sender};
use gcx_core::clock::SharedClock;
use gcx_core::error::{GcxError, GcxResult};
use gcx_core::function::FunctionBody;
use gcx_core::metrics::{Counter, MetricsRegistry};
use gcx_core::shellres::ShellResult;
use gcx_core::task::{TaskResult, TaskState};

use crate::engine::{EngineEvent, EngineKind, EngineStatus, ExecutableTask};
use crate::provider::{BlockEndReason, BlockHandle};
use crate::worker::WorkerContext;

/// A task inside the core: the executable payload plus its retry count.
#[derive(Debug, Clone)]
pub(crate) struct CoreTask {
    /// The task as submitted.
    pub(crate) task: ExecutableTask,
    /// How many times it has been requeued after a resource loss.
    pub(crate) retries: u8,
    /// Absolute expiry on the engine's clock, stamped at submit from the
    /// spec's relative `deadline_ms`. A task past this instant is killed
    /// wherever it sits (backlog or in flight) and resolves with a typed
    /// deadline error.
    pub(crate) expires_at_ms: Option<u64>,
}

/// Messages driving the core loop. Submissions come from the engine
/// handle; `Finished` comes from whatever thread ran the launch.
pub(crate) enum CoreMsg {
    /// A newly submitted task.
    Submit(Box<CoreTask>),
    /// A launch completed (or failed retryably, e.g. a worker panic).
    Finished {
        /// The launch this outcome belongs to. If the id is no longer in
        /// the in-flight table, fault recovery already resolved the task
        /// and this outcome is stale — it is counted and discarded.
        launch_id: u64,
        /// What happened.
        outcome: LaunchOutcome,
    },
    /// Carries nothing: [`CoreEngine::shutdown`] sends it so a driver
    /// blocked with no timeout sees the shutdown flag now.
    Wake,
}

/// How a launch ended, as reported by the executing side.
pub(crate) enum LaunchOutcome {
    /// The task produced a result (success or a task-level error).
    Done(TaskResult),
    /// The launch itself failed (worker panic); requeue within the retry
    /// budget with this failure message.
    Retry(String),
}

/// The resources one launch holds, recorded in the in-flight table so a
/// block or node loss can be mapped back to the launches it killed.
#[derive(Debug, Clone)]
pub(crate) struct Assignment {
    /// The block the launch runs on (`None` for blockless engines).
    pub(crate) block: Option<BlockHandle>,
    /// The nodes the launch occupies.
    pub nodes: Vec<String>,
}

/// A policy's verdict on placing one queued task.
pub(crate) enum LaunchDecision {
    /// Launched; the core records the assignment in its in-flight table.
    Launched(Assignment),
    /// No capacity right now — the task stays queued.
    NoCapacity,
    /// The task can never be placed (e.g. an oversized MPI request); it
    /// fails immediately with this result.
    Reject(TaskResult),
}

/// What an engine defines: how tasks map onto provisioned capacity. All
/// lifecycle, recovery, and bookkeeping callbacks arrive on the single
/// core thread, so implementations need no internal locking for their
/// scheduling state.
pub(crate) trait SchedPolicy: Send + 'static {
    /// Greedy packing: scan past queued tasks that do not fit and try
    /// later ones (dynamic partitioning). Strict-FIFO engines stop at the
    /// first task they cannot place.
    const GREEDY: bool = false;

    /// Worker slots (htex/thread) or member nodes (MPI) attached now.
    fn capacity(&self) -> usize;

    /// A requested block reached Running on `nodes`.
    fn on_block_up(&mut self, block: BlockHandle, nodes: &[String]) {
        let _ = (block, nodes);
    }

    /// Member nodes of a running block died; the block survives with
    /// `remaining` members. In-flight launches hit by the loss have
    /// already been reclaimed via [`SchedPolicy::reclaim`].
    fn on_nodes_lost(&mut self, block: BlockHandle, dead: &HashSet<String>, remaining: &[String]) {
        let _ = (block, dead, remaining);
    }

    /// A block ended or was released; drop everything attached to it.
    fn on_block_down(&mut self, block: BlockHandle) {
        let _ = block;
    }

    /// Try to place one queued task. On success the launch must
    /// eventually produce a `CoreMsg::Finished` for `launch_id` (unless
    /// its resources are lost first).
    fn try_launch(&mut self, launch_id: u64, task: &CoreTask) -> LaunchDecision;

    /// A launch's resources come back: `dead` is `None` on completion, or
    /// the crashed node set on a loss (surviving nodes return to the
    /// pool).
    fn reclaim(&mut self, assignment: &Assignment, dead: Option<&HashSet<String>>) {
        let _ = (assignment, dead);
    }

    /// After a node loss left an idle block with `remaining` members:
    /// should the core release it and re-request a full-size block? (A
    /// degraded block may be too small for queued work that would
    /// otherwise wait forever.)
    fn block_unviable(&self, remaining: usize, backlog: &VecDeque<CoreTask>) -> bool {
        let _ = (remaining, backlog);
        false
    }

    /// Stop workers and join live threads (zombies may be detached).
    fn shutdown(&mut self);
}

/// Submit-time validation hook run on the caller's thread (the MPI engine
/// rejects malformed `resource_specification`s synchronously).
pub(crate) type Validator = Arc<dyn Fn(&ExecutableTask) -> GcxResult<()> + Send + Sync>;

/// Engine-wide construction parameters.
pub(crate) struct CoreConfig {
    /// Which engine this core drives (labels, metric prefixes).
    pub(crate) kind: EngineKind,
    /// Requeues allowed per task after resource loss.
    pub max_retries: u8,
    /// Name for the core's driver thread.
    pub(crate) thread_name: &'static str,
    /// The engine's clock: stamps task expiry at submit and drives the
    /// deadline sweep.
    pub(crate) clock: SharedClock,
}

#[derive(Default)]
struct CoreShared {
    queued: AtomicUsize,
    running: AtomicUsize,
    capacity: AtomicUsize,
    blocks: AtomicUsize,
    nodes_lost: AtomicU64,
    redispatches: AtomicU64,
    shutdown: AtomicBool,
}

/// Pre-resolved handles for the core's hot-path counters.
struct CoreCounters {
    redispatched: Arc<Counter>,
    walltime_kills: Arc<Counter>,
    stale_discarded: Arc<Counter>,
    deadline_kills: Arc<Counter>,
}

impl CoreCounters {
    fn new(metrics: &MetricsRegistry, kind: EngineKind) -> Self {
        let k = kind.as_str();
        Self {
            redispatched: metrics.counter(&format!("{k}.tasks_redispatched")),
            walltime_kills: metrics.counter(&format!("{k}.walltime_kills")),
            stale_discarded: metrics.counter(&format!("{k}.stale_results_discarded")),
            deadline_kills: metrics.counter(&format!("{k}.deadline_kills")),
        }
    }
}

/// The non-generic engine handle: submit/status/shutdown over a running
/// [`ExecCore`] driver thread. The public engines wrap this.
pub(crate) struct CoreEngine {
    kind: EngineKind,
    tx: Sender<CoreMsg>,
    shared: Arc<CoreShared>,
    driver: Option<std::thread::JoinHandle<()>>,
    validate: Option<Validator>,
    clock: SharedClock,
}

impl CoreEngine {
    /// Spawn the driver thread for `policy` and return the handle.
    ///
    /// `channel` is the core's message channel; the policy keeps the
    /// sender side to report `Finished` outcomes from its workers.
    /// `table` is `None` for engines that provision nothing.
    pub(crate) fn start<P: SchedPolicy>(
        cfg: CoreConfig,
        policy: P,
        table: Option<BlockTable>,
        metrics: MetricsRegistry,
        events: Sender<EngineEvent>,
        channel: (Sender<CoreMsg>, Receiver<CoreMsg>),
        validate: Option<Validator>,
    ) -> Self {
        let (tx, rx) = channel;
        let shared = Arc::new(CoreShared::default());
        let core = ExecCore::new(
            &cfg,
            policy,
            table,
            metrics,
            events,
            Arc::clone(&shared),
            rx,
        );
        let driver = std::thread::Builder::new()
            .name(cfg.thread_name.into())
            .spawn(move || core.run())
            .expect("spawn engine core");
        Self {
            kind: cfg.kind,
            tx,
            shared,
            driver: Some(driver),
            validate,
            clock: cfg.clock,
        }
    }

    /// Queue a task (non-blocking). Runs the validator, if any, on the
    /// caller's thread so malformed tasks are rejected synchronously.
    pub(crate) fn submit(&self, task: ExecutableTask) -> GcxResult<()> {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return Err(GcxError::ShuttingDown);
        }
        if let Some(validate) = &self.validate {
            validate(&task)?;
        }
        // Deadlines are relative on the wire (clock-skew safe); pin the
        // absolute expiry to this engine's clock on arrival.
        let expires_at_ms = task
            .spec
            .deadline_ms
            .map(|d| self.clock.now_ms().saturating_add(d));
        self.shared.queued.fetch_add(1, Ordering::SeqCst);
        self.tx
            .send(CoreMsg::Submit(Box::new(CoreTask {
                task,
                retries: 0,
                expires_at_ms,
            })))
            .map_err(|_| GcxError::ShuttingDown)
    }

    /// Point-in-time load, including the lifetime parity counters.
    pub(crate) fn status(&self) -> EngineStatus {
        EngineStatus {
            kind: self.kind,
            queued: self.shared.queued.load(Ordering::SeqCst),
            running: self.shared.running.load(Ordering::SeqCst),
            capacity: self.shared.capacity.load(Ordering::SeqCst),
            blocks: self.shared.blocks.load(Ordering::SeqCst),
            nodes_lost_total: self.shared.nodes_lost.load(Ordering::SeqCst),
            redispatches_total: self.shared.redispatches.load(Ordering::SeqCst),
        }
    }

    /// Stop the driver (policy workers are joined, blocks cancelled).
    pub(crate) fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let _ = self.tx.send(CoreMsg::Wake);
        if let Some(h) = self.driver.take() {
            let _ = h.join();
        }
    }
}

impl Drop for CoreEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The idle driver's wait while something transient is due soon: a pending
/// block coming up, or a backlog waiting on the supervisor's backoff gate.
/// Also the fixed cadence on a virtual clock, where time moves without a
/// message. Messages never wait for it.
const HOUSEKEEPING_INTERVAL: Duration = Duration::from_micros(500);

/// The idle driver's wait while blocks are merely running: how late a node
/// loss or a walltime kill on an otherwise quiet engine may be noticed.
const BLOCK_POLL_INTERVAL: Duration = Duration::from_millis(10);

/// How often a driver whose channel has no sender left looks at the
/// shutdown flag when no other duty is due.
const STOP_NOTICE_INTERVAL: Duration = Duration::from_millis(25);

struct InFlight {
    task: CoreTask,
    assignment: Assignment,
}

/// The generic dispatch loop: queueing, matching, in-flight tracking,
/// recovery, events — everything that is not scheduling policy.
struct ExecCore<P: SchedPolicy> {
    kind: EngineKind,
    max_retries: u8,
    policy: P,
    table: Option<BlockTable>,
    metrics: MetricsRegistry,
    counters: CoreCounters,
    events: Sender<EngineEvent>,
    shared: Arc<CoreShared>,
    rx: Receiver<CoreMsg>,
    backlog: VecDeque<CoreTask>,
    /// Launch id → what is running where. Whoever removes an entry owns
    /// delivering its outcome — a lost task is resolved the moment the
    /// loss is observed, never when a stranded execution happens to
    /// finish, and a stranded execution's late result is discarded.
    in_flight: HashMap<u64, InFlight>,
    launch_seq: u64,
    clock: SharedClock,
    /// Latched once any deadline-carrying task arrives; gates the sweep so
    /// deadline-free workloads pay nothing on the hot loop.
    deadlines_present: bool,
    next_deadline_sweep_ms: u64,
}

impl<P: SchedPolicy> ExecCore<P> {
    fn new(
        cfg: &CoreConfig,
        policy: P,
        table: Option<BlockTable>,
        metrics: MetricsRegistry,
        events: Sender<EngineEvent>,
        shared: Arc<CoreShared>,
        rx: Receiver<CoreMsg>,
    ) -> Self {
        Self {
            kind: cfg.kind,
            max_retries: cfg.max_retries,
            policy,
            table,
            counters: CoreCounters::new(&metrics, cfg.kind),
            metrics,
            events,
            shared,
            rx,
            backlog: VecDeque::new(),
            in_flight: HashMap::new(),
            launch_seq: 0,
            clock: cfg.clock.clone(),
            deadlines_present: false,
            next_deadline_sweep_ms: 0,
        }
    }

    fn run(mut self) {
        loop {
            // Shut down promptly even with launches in flight: their
            // results are lost, matching an agent killed mid-task.
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let mut progressed = false;

            while let Ok(msg) = self.rx.try_recv() {
                progressed = true;
                self.on_msg(msg);
            }

            progressed |= self.kill_expired();
            progressed |= self.poll_blocks();

            // Scale out while a backlog exists. Requests go through the
            // supervisor's backoff gate inside the table.
            if !self.backlog.is_empty() {
                if let Some(table) = &mut self.table {
                    progressed |= table.try_grow();
                }
            }

            progressed |= self.dispatch();
            self.publish_gauges();

            if !progressed {
                // Nothing to do until a message arrives: block on the
                // channel so a `Submit` or `Finished` is handled the moment
                // it is sent, for no longer than the nearest due duty.
                let wait = self.idle_wait();
                let received = match wait {
                    Some(wait) => self.rx.recv_timeout(wait),
                    None => self.rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
                };
                match received {
                    Ok(msg) => self.on_msg(msg),
                    Err(RecvTimeoutError::Timeout) => {}
                    // No sender is left, so no message can ever arrive (the
                    // engine handle holds one until it has joined this
                    // thread): keep the cadence without spinning on the
                    // dead channel.
                    Err(RecvTimeoutError::Disconnected) => {
                        std::thread::sleep(wait.unwrap_or(STOP_NOTICE_INTERVAL));
                    }
                }
            }
        }
        // Shutdown ordering: stop the workers first (policies join live
        // threads and detach zombies stranded in virtual-clock sleeps),
        // then release every block.
        self.policy.shutdown();
        if let Some(table) = &mut self.table {
            table.shutdown();
        }
    }

    /// How long a pass that found nothing to do may block on the channel:
    /// the time to the driver's nearest due duty, `None` when it has none
    /// (no block to poll, no deadline to enforce, no scale-out to retry) and
    /// only a message can give it work.
    fn idle_wait(&self) -> Option<Duration> {
        if self.clock.is_virtual() {
            return Some(HOUSEKEEPING_INTERVAL);
        }
        let (pending, running, can_grow) = self
            .table
            .as_ref()
            .map_or((0, 0, false), |t| (t.pending(), t.blocks(), t.can_grow()));
        if pending > 0 || (can_grow && !self.backlog.is_empty()) {
            return Some(HOUSEKEEPING_INTERVAL);
        }
        let block_poll = (running > 0).then_some(BLOCK_POLL_INTERVAL);
        let holds_tasks = !self.backlog.is_empty() || !self.in_flight.is_empty();
        let sweep = (self.deadlines_present && holds_tasks).then(|| {
            let now = self.clock.now_ms();
            Duration::from_millis(self.next_deadline_sweep_ms.saturating_sub(now).max(1))
        });
        [block_poll, sweep].into_iter().flatten().min()
    }

    fn on_msg(&mut self, msg: CoreMsg) {
        match msg {
            CoreMsg::Submit(task) => {
                self.emit(EngineEvent::State(
                    task.task.spec.task_id,
                    TaskState::WaitingForNodes,
                ));
                self.deadlines_present |= task.expires_at_ms.is_some();
                self.backlog.push_back(*task);
            }
            CoreMsg::Finished { launch_id, outcome } => self.finish(launch_id, outcome),
            CoreMsg::Wake => {}
        }
    }

    /// The one place every engine event goes through: tolerates a
    /// disconnected receiver during shutdown.
    fn emit(&self, event: EngineEvent) {
        let _ = self.events.send(event);
    }

    fn publish_gauges(&self) {
        self.shared
            .capacity
            .store(self.policy.capacity(), Ordering::SeqCst);
        self.shared.blocks.store(
            self.table.as_ref().map_or(0, |t| t.blocks()),
            Ordering::SeqCst,
        );
    }

    /// Kill every task past its deadline, wherever it sits. Backlogged
    /// tasks are dropped before ever launching; in-flight tasks have their
    /// launch entry stolen (the stranded execution's late result is
    /// discarded as stale) and their resources reclaimed. Both resolve with
    /// the typed deadline marker the cloud decodes into
    /// [`GcxError::DeadlineExceeded`]. Throttled to ~10 ms granularity and
    /// skipped entirely until a deadline-carrying task has been seen.
    fn kill_expired(&mut self) -> bool {
        if !self.deadlines_present {
            return false;
        }
        let now = self.clock.now_ms();
        if now < self.next_deadline_sweep_ms {
            return false;
        }
        self.next_deadline_sweep_ms = now + 10;
        let mut killed = false;

        let mut i = 0;
        while i < self.backlog.len() {
            let expired = self.backlog[i].expires_at_ms.is_some_and(|t| now > t);
            if !expired {
                i += 1;
                continue;
            }
            let task = self.backlog.remove(i).expect("index in bounds");
            self.shared.queued.fetch_sub(1, Ordering::SeqCst);
            self.resolve_expired(&task);
            killed = true;
        }

        let hit: Vec<u64> = self
            .in_flight
            .iter()
            .filter(|(_, e)| e.task.expires_at_ms.is_some_and(|t| now > t))
            .map(|(id, _)| *id)
            .collect();
        for launch_id in hit {
            let entry = self.in_flight.remove(&launch_id).expect("entry present");
            self.shared.running.fetch_sub(1, Ordering::SeqCst);
            self.policy.reclaim(&entry.assignment, None);
            self.resolve_expired(&entry.task);
            killed = true;
        }
        killed
    }

    /// Emit the typed deadline result for an expired task.
    fn resolve_expired(&self, task: &CoreTask) {
        let task_id = task.task.spec.task_id;
        self.counters.deadline_kills.inc();
        self.metrics
            .tracer()
            .annotate(task.task.spec.trace.as_ref(), || {
                "deadline exceeded: killed by the engine".to_string()
            });
        self.emit(EngineEvent::Done {
            task_id,
            tag: task.task.tag,
            result: TaskResult::deadline_err(task_id),
        });
    }

    /// Fold block-table transitions into recovery, policy callbacks, and
    /// engine events.
    fn poll_blocks(&mut self) -> bool {
        let events = match &mut self.table {
            Some(table) => table.poll(),
            None => return false,
        };
        if events.is_empty() {
            return false;
        }
        for ev in events {
            match ev {
                BlockEvent::Provisioned { block, nodes } => {
                    self.policy.on_block_up(block, &nodes);
                    self.emit(EngineEvent::BlockProvisioned { nodes: nodes.len() });
                }
                BlockEvent::NodesLost {
                    block,
                    dead,
                    remaining,
                } => {
                    self.shared
                        .nodes_lost
                        .fetch_add(dead.len() as u64, Ordering::SeqCst);
                    self.reclaim_lost(block, Some(&dead), BlockEndReason::NodeFail);
                    self.policy.on_nodes_lost(block, &dead, &remaining);
                    self.emit(EngineEvent::BlockLost {
                        reason: BlockEndReason::NodeFail.as_str(),
                        nodes_lost: dead.len(),
                    });
                    self.maybe_replace_block(block, remaining.len());
                }
                BlockEvent::Died {
                    block,
                    reason,
                    nodes,
                } => {
                    self.shared
                        .nodes_lost
                        .fetch_add(nodes.len() as u64, Ordering::SeqCst);
                    self.reclaim_lost(block, None, reason);
                    self.policy.on_block_down(block);
                    self.emit(EngineEvent::BlockLost {
                        reason: reason.as_str(),
                        nodes_lost: nodes.len(),
                    });
                }
            }
        }
        true
    }

    /// Steal every in-flight launch hit by a loss and resolve it now.
    /// `dead` of `None` means the whole block ended (every launch on it is
    /// hit); otherwise only launches whose slice intersects `dead`.
    fn reclaim_lost(
        &mut self,
        block: BlockHandle,
        dead: Option<&HashSet<String>>,
        reason: BlockEndReason,
    ) {
        let hit: Vec<u64> = self
            .in_flight
            .iter()
            .filter(|(_, e)| {
                e.assignment.block == Some(block)
                    && dead.is_none_or(|d| e.assignment.nodes.iter().any(|n| d.contains(n)))
            })
            .map(|(id, _)| *id)
            .collect();
        for launch_id in hit {
            let entry = self.in_flight.remove(&launch_id).expect("entry present");
            self.shared.running.fetch_sub(1, Ordering::SeqCst);
            self.policy.reclaim(&entry.assignment, dead);
            self.recover_lost_task(entry.task, reason);
        }
    }

    /// After node loss, ask the policy whether the degraded block can
    /// still serve the queued work; if not (and it is idle), release it so
    /// the normal acquisition path requests a full-size replacement.
    fn maybe_replace_block(&mut self, block: BlockHandle, remaining: usize) {
        let busy = self
            .in_flight
            .values()
            .any(|e| e.assignment.block == Some(block));
        if busy || !self.policy.block_unviable(remaining, &self.backlog) {
            return;
        }
        if let Some(table) = &mut self.table {
            table.release(block);
        }
        self.metrics
            .counter(&format!("{}.blocks_replaced", self.kind.as_str()))
            .inc();
        self.policy.on_block_down(block);
    }

    /// A launch reported its outcome. If recovery already claimed the
    /// entry, the outcome is stale and discarded.
    fn finish(&mut self, launch_id: u64, outcome: LaunchOutcome) {
        let Some(entry) = self.in_flight.remove(&launch_id) else {
            self.counters.stale_discarded.inc();
            return;
        };
        self.shared.running.fetch_sub(1, Ordering::SeqCst);
        self.policy.reclaim(&entry.assignment, None);
        match outcome {
            LaunchOutcome::Done(result) => self.emit(EngineEvent::Done {
                task_id: entry.task.task.spec.task_id,
                tag: entry.task.task.tag,
                result,
            }),
            LaunchOutcome::Retry(msg) => self.requeue_or_fail(entry.task, &msg),
        }
    }

    /// Resolve a task whose resources died. A walltime kill resolves
    /// Shell/MPI bodies with return code 124 — the §III-B.3 contract: the
    /// command ran and was killed, which is a *result*, not an
    /// infrastructure error. Everything else re-enters the queue within
    /// the retry budget.
    fn recover_lost_task(&mut self, task: CoreTask, reason: BlockEndReason) {
        if reason == BlockEndReason::Walltime {
            if let FunctionBody::Shell { cmd, .. } | FunctionBody::Mpi { cmd, .. } =
                &task.task.function.body
            {
                let sr = ShellResult {
                    returncode: 124,
                    stdout: String::new(),
                    stderr: "killed: batch job walltime exceeded".to_string(),
                    cmd: cmd.clone(),
                };
                self.counters.walltime_kills.inc();
                self.metrics
                    .tracer()
                    .annotate(task.task.spec.trace.as_ref(), || {
                        "walltime kill: resolved with returncode 124".to_string()
                    });
                self.emit(EngineEvent::Done {
                    task_id: task.task.spec.task_id,
                    tag: task.task.tag,
                    result: TaskResult::ok(sr.to_value()),
                });
                return;
            }
        }
        self.requeue_or_fail(task, "RuntimeError: task lost when its batch job ended");
    }

    /// Requeue within the retry budget (stamping a zero-length
    /// `redispatch` trace leg), else fail as a typed retryable error the
    /// SDK may resubmit.
    fn requeue_or_fail(&mut self, mut task: CoreTask, fail_msg: &str) {
        let tracer = self.metrics.tracer();
        if task.retries < self.max_retries {
            task.retries += 1;
            self.shared.queued.fetch_add(1, Ordering::SeqCst);
            self.shared.redispatches.fetch_add(1, Ordering::SeqCst);
            self.counters.redispatched.inc();
            let now = tracer.now_ms();
            let attempt = task.retries;
            tracer.record_span_annotated(
                task.task.spec.trace.as_ref(),
                "redispatch",
                now,
                now,
                || vec![format!("engine redispatch {attempt}: {fail_msg}")],
            );
            self.backlog.push_back(task);
        } else {
            tracer.annotate(task.task.spec.trace.as_ref(), || {
                format!("engine retries exhausted: {fail_msg}")
            });
            self.emit(EngineEvent::Done {
                task_id: task.task.spec.task_id,
                tag: task.task.tag,
                result: TaskResult::retryable_err(format!("{fail_msg} (retries exhausted)")),
            });
        }
    }

    /// Hand backlog tasks to the policy: strict FIFO stops at the first
    /// unplaceable task; greedy policies scan the whole backlog in
    /// arrival order (dynamic partitioning — a small task may start while
    /// a blocked larger one waits).
    fn dispatch(&mut self) -> bool {
        if self.backlog.is_empty() {
            return false;
        }
        let mut progressed = false;
        let mut waiting = VecDeque::new();
        while let Some(task) = self.backlog.pop_front() {
            match self.policy.try_launch(self.launch_seq, &task) {
                LaunchDecision::Launched(assignment) => {
                    let launch_id = self.launch_seq;
                    self.launch_seq += 1;
                    self.shared.queued.fetch_sub(1, Ordering::SeqCst);
                    self.shared.running.fetch_add(1, Ordering::SeqCst);
                    self.emit(EngineEvent::State(
                        task.task.spec.task_id,
                        TaskState::Running,
                    ));
                    self.in_flight
                        .insert(launch_id, InFlight { task, assignment });
                    progressed = true;
                }
                LaunchDecision::Reject(result) => {
                    self.shared.queued.fetch_sub(1, Ordering::SeqCst);
                    self.emit(EngineEvent::Done {
                        task_id: task.task.spec.task_id,
                        tag: task.task.tag,
                        result,
                    });
                    progressed = true;
                }
                LaunchDecision::NoCapacity => {
                    if P::GREEDY {
                        waiting.push_back(task);
                    } else {
                        self.backlog.push_front(task);
                        break;
                    }
                }
            }
        }
        if P::GREEDY {
            // Unplaced tasks keep their arrival order ahead of anything
            // that raced into the channel meanwhile.
            waiting.append(&mut self.backlog);
            self.backlog = waiting;
        }
        progressed
    }
}

// ---------------------------------------------------------------------------
// Shared worker plumbing (htex + thread engines)
// ---------------------------------------------------------------------------

/// One task handed to a pool worker thread.
pub(crate) struct WorkerMsg {
    pub(crate) launch_id: u64,
    pub(crate) task: ExecutableTask,
}

/// The worker loop shared by slot-based engines: execute under a panic
/// supervision boundary, stamp the `worker` trace leg, report the outcome
/// to the core. A worker whose manager died drops the task silently — the
/// core already recovered it through the in-flight table.
pub(crate) fn run_worker(
    rx: Receiver<WorkerMsg>,
    alive: Option<Arc<AtomicBool>>,
    ctx: WorkerContext,
    finished: Sender<CoreMsg>,
    metrics: MetricsRegistry,
    panics: Arc<Counter>,
) {
    let tracer = metrics.tracer();
    while let Ok(WorkerMsg { launch_id, task }) = rx.recv() {
        if let Some(alive) = &alive {
            if !alive.load(Ordering::SeqCst) {
                continue;
            }
        }
        let span_start = tracer.now_ms();
        // Supervision boundary: a panic in user-facing code must not kill
        // the worker. The thread survives (an in-place restart) and the
        // task re-enters the queue within its retry budget.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ctx.execute(&task.spec, &task.function.body)
        }));
        {
            let node = &ctx.hostname;
            tracer.record_span_annotated(
                task.spec.trace.as_ref(),
                "worker",
                span_start,
                tracer.now_ms(),
                || vec![format!("node {node}")],
            );
        }
        let outcome = match outcome {
            Ok(result) => LaunchOutcome::Done(result),
            Err(panic) => {
                panics.inc();
                LaunchOutcome::Retry(format!(
                    "RuntimeError: worker panicked while executing task: {}",
                    panic_message(&*panic)
                ))
            }
        };
        if finished
            .send(CoreMsg::Finished { launch_id, outcome })
            .is_err()
        {
            return;
        }
    }
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = panic.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcx_core::clock::SystemClock;

    /// Never launches anything; counts the driver's passes (each one
    /// publishes the capacity gauge once).
    struct CountPasses(Arc<AtomicU64>);

    impl SchedPolicy for CountPasses {
        fn capacity(&self) -> usize {
            self.0.fetch_add(1, Ordering::Relaxed);
            0
        }
        fn try_launch(&mut self, _: u64, _: &CoreTask) -> LaunchDecision {
            LaunchDecision::NoCapacity
        }
        fn shutdown(&mut self) {}
    }

    /// utime + stime of the calling thread where the kernel reports them,
    /// in `USER_HZ` ticks (10 ms on Linux).
    fn thread_cpu_ticks() -> Option<u64> {
        let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
        // Fields after the parenthesised thread name; utime and stime are
        // the 14th and 15th of the line, 12th and 13th after the name.
        let mut fields = stat.rsplit_once(')')?.1.split_whitespace().skip(11);
        let utime: u64 = fields.next()?.parse().ok()?;
        let stime: u64 = fields.next()?.parse().ok()?;
        Some(utime + stime)
    }

    /// `recv_timeout` on a channel with no sender left returns at once, so
    /// a driver that treated `Disconnected` like `Timeout` would spin. With
    /// a sender left, an engine that has no block, no deadline and no
    /// backlog has no duty due: its driver blocks until a message, and a
    /// bare shutdown flag is not one.
    #[test]
    fn a_driver_with_no_sender_left_does_not_spin() {
        const WATCHED: Duration = Duration::from_millis(50);
        for keep_sender in [false, true] {
            let passes = Arc::new(AtomicU64::new(0));
            let (tx, rx) = crossbeam_channel::unbounded::<CoreMsg>();
            let (events, _events_rx) = crossbeam_channel::unbounded();
            let shared = Arc::new(CoreShared::default());
            let core = ExecCore::new(
                &CoreConfig {
                    kind: EngineKind::Thread,
                    max_retries: 0,
                    thread_name: "unused",
                    clock: SystemClock::shared(),
                },
                CountPasses(Arc::clone(&passes)),
                None,
                MetricsRegistry::new(),
                events,
                Arc::clone(&shared),
                rx,
            );
            let tx = keep_sender.then_some(tx);
            let driver = std::thread::spawn(move || {
                core.run();
                thread_cpu_ticks()
            });
            std::thread::sleep(WATCHED);
            let watched_passes = passes.load(Ordering::Relaxed);
            shared.shutdown.store(true, Ordering::SeqCst);
            if let Some(tx) = &tx {
                // The flag alone wakes nobody: the driver is still parked.
                std::thread::sleep(STOP_NOTICE_INTERVAL * 2);
                assert!(!driver.is_finished(), "an idle driver has no timeout");
                assert!(tx.send(CoreMsg::Wake).is_ok());
            }
            let cpu_ticks = driver.join().expect("driver exits on shutdown");

            if keep_sender {
                // One pass at start-up, then parked.
                assert!(watched_passes <= 2, "{watched_passes} passes idle");
            } else {
                // One pass per stop-notice interval is 2 in the watched
                // 50 ms; a spinning driver makes hundreds of thousands.
                assert!(watched_passes < 100, "{watched_passes} in {WATCHED:?}");
            }
            // Spinning for the watched 50 ms is 5 ticks of CPU; idling is 0,
            // or 1 when a tick happens to land on a wake-up.
            if let Some(ticks) = cpu_ticks {
                assert!(ticks <= 2, "driver burned {ticks} ticks in {WATCHED:?}");
            }
        }
    }
}
