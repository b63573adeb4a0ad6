//! `GlobusComputeEngine` — the pilot-job engine (§II "Endpoints").
//!
//! "When started it creates an *interchange* locally to manage execution of
//! functions, and deploys a *manager* on each provisioned resource. For each
//! manager, it will deploy a set of *worker* processes … When a task is
//! ready to be executed, it is sent by the interchange to an available
//! manager (one that is online and with available capacity). The workers
//! then retrieve these tasks, execute them … Communication with nodes is
//! multiplexed via managers to reduce the number of ports and connections."
//!
//! Mapping to this reproduction:
//! - the interchange is the shared [`ExecCore`](crate::exec_core) dispatch
//!   loop; block lifecycle, lost-task recovery, and redispatch live there,
//!   not here;
//! - what this module defines is the `SlotPool` scheduling policy: a
//!   manager is one bounded channel per node (the single multiplexed
//!   "connection"), behind which `workers_per_node` worker threads execute
//!   tasks — the `htex.connections_opened` counter vs
//!   `htex.worker_threads` counter is exactly the multiplexing saving the
//!   paper describes, and the A2 ablation measures it.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crossbeam_channel::{bounded, unbounded, Sender, TrySendError};
use gcx_core::clock::SharedClock;
use gcx_core::error::GcxResult;
use gcx_core::metrics::MetricsRegistry;
use gcx_shell::Vfs;

use crate::engine::{
    Engine, EngineEvent, EngineKind, EngineStatus, ExecutableTask, ValueTransform,
};
use crate::exec_core::{
    run_worker, Assignment, BlockShape, BlockTable, CoreConfig, CoreEngine, CoreMsg, CoreTask,
    LaunchDecision, SchedPolicy, WorkerMsg,
};
use crate::provider::{BlockHandle, BlockSupervisor, Provider};
use crate::worker::WorkerContext;

/// Configuration for [`GlobusComputeEngine`].
#[derive(Debug, Clone)]
pub struct HtexConfig {
    /// Nodes per provisioned block.
    pub nodes_per_block: u32,
    /// Maximum concurrent blocks.
    pub max_blocks: u32,
    /// Worker processes per node ("one worker per node, one worker per GPU,
    /// or one worker per core").
    pub workers_per_node: u32,
    /// Per-task sandbox directories for ShellFunctions (§III-B.2).
    pub sandbox: bool,
    /// How many times a task lost to a dying block is requeued before it is
    /// failed.
    pub max_retries: u8,
}

impl Default for HtexConfig {
    fn default() -> Self {
        Self {
            nodes_per_block: 1,
            max_blocks: 1,
            workers_per_node: 1,
            sandbox: false,
            max_retries: 1,
        }
    }
}

/// The pilot-job engine: the shared core under a `SlotPool` policy.
pub struct GlobusComputeEngine {
    core: CoreEngine,
}

impl GlobusComputeEngine {
    /// Start the engine: interchange thread plus provider-driven scaling.
    ///
    /// `events` receives [`EngineEvent`]s; the caller (the endpoint agent)
    /// publishes results and acks deliveries.
    pub fn start(
        cfg: HtexConfig,
        provider: Arc<dyn Provider>,
        vfs: Vfs,
        clock: SharedClock,
        metrics: MetricsRegistry,
        events: Sender<EngineEvent>,
        transform: Option<ValueTransform>,
    ) -> Self {
        let supervisor =
            BlockSupervisor::new(provider, clock.clone(), metrics.clone(), EngineKind::Htex);
        let table = BlockTable::new(
            supervisor,
            BlockShape {
                nodes_per_block: cfg.nodes_per_block,
                max_blocks: cfg.max_blocks,
            },
        );
        let channel = unbounded::<CoreMsg>();
        let policy = SlotPool {
            workers_per_node: cfg.workers_per_node,
            sandbox: cfg.sandbox,
            vfs,
            clock: clock.clone(),
            metrics: metrics.clone(),
            finished: channel.0.clone(),
            transform,
            managers: Vec::new(),
            zombies: Vec::new(),
            rr_cursor: 0,
        };
        let core = CoreEngine::start(
            CoreConfig {
                kind: EngineKind::Htex,
                max_retries: cfg.max_retries,
                thread_name: "gcx-interchange",
                clock: clock.clone(),
            },
            policy,
            Some(table),
            metrics,
            events,
            channel,
            None,
        );
        Self { core }
    }
}

impl Engine for GlobusComputeEngine {
    fn submit(&self, task: ExecutableTask) -> GcxResult<()> {
        self.core.submit(task)
    }

    fn status(&self) -> EngineStatus {
        self.core.status()
    }

    fn shutdown(&mut self) {
        self.core.shutdown();
    }
}

/// One manager: the per-node multiplexed connection plus its workers.
struct Manager {
    node: String,
    block: BlockHandle,
    task_tx: Sender<WorkerMsg>,
    alive: Arc<AtomicBool>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

/// Slot-per-worker scheduling: round-robin tasks into per-manager bounded
/// channels (capacity `workers_per_node`, like HTEX's per-manager prefetch
/// window). Loss recovery is the core's job — when a manager's node dies
/// the policy only tears the manager down; tasks on it are recovered
/// through the core's in-flight table, and a worker that picks a task off
/// a dead manager's channel drops it silently.
struct SlotPool {
    workers_per_node: u32,
    sandbox: bool,
    vfs: Vfs,
    clock: SharedClock,
    metrics: MetricsRegistry,
    finished: Sender<CoreMsg>,
    transform: Option<ValueTransform>,
    managers: Vec<Manager>,
    /// Worker threads of dead managers. Not joined during operation — a
    /// worker stranded in a long (virtual-clock) execution must not stall
    /// the core; its task was already recovered and it exits on its own
    /// once the execution returns.
    zombies: Vec<std::thread::JoinHandle<()>>,
    rr_cursor: usize,
}

impl SlotPool {
    fn spawn_manager(&mut self, block: BlockHandle, node: String) {
        // One bounded channel per manager: the multiplexed connection.
        let (task_tx, task_rx) = bounded::<WorkerMsg>(self.workers_per_node as usize);
        let alive = Arc::new(AtomicBool::new(true));
        self.metrics.counter("htex.connections_opened").inc();
        let panics = self.metrics.counter("htex.worker_panics");

        let mut workers = Vec::new();
        for w in 0..self.workers_per_node {
            let rx = task_rx.clone();
            let alive2 = Arc::clone(&alive);
            let finished = self.finished.clone();
            let metrics = self.metrics.clone();
            let panics = Arc::clone(&panics);
            let ctx = {
                let mut c = WorkerContext::new(self.vfs.clone(), self.clock.clone(), node.clone());
                c.sandbox = self.sandbox;
                c.resolver = self.transform.clone();
                c
            };
            self.metrics.counter("htex.worker_threads").inc();
            let handle = std::thread::Builder::new()
                .name(format!("gcx-worker-{node}-{w}"))
                .spawn(move || run_worker(rx, Some(alive2), ctx, finished, metrics, panics))
                .expect("spawn worker");
            workers.push(handle);
        }
        self.managers.push(Manager {
            node,
            block,
            task_tx,
            alive,
            workers,
        });
    }

    /// Tear down every manager matching `pred`: flip `alive` so its
    /// workers drop whatever is still on the channel, close the channel,
    /// and detach the worker threads as zombies.
    fn drop_managers(&mut self, pred: impl Fn(&Manager) -> bool) {
        let (dead, kept): (Vec<Manager>, Vec<Manager>) = std::mem::take(&mut self.managers)
            .into_iter()
            .partition(pred);
        self.managers = kept;
        for m in dead {
            m.alive.store(false, Ordering::SeqCst);
            drop(m.task_tx);
            self.zombies.extend(m.workers);
            self.metrics.counter("htex.managers_lost").inc();
        }
    }
}

impl SchedPolicy for SlotPool {
    fn capacity(&self) -> usize {
        self.managers.len() * self.workers_per_node as usize
    }

    fn on_block_up(&mut self, block: BlockHandle, nodes: &[String]) {
        for node in nodes {
            self.spawn_manager(block, node.clone());
        }
    }

    fn on_nodes_lost(&mut self, block: BlockHandle, dead: &HashSet<String>, _remaining: &[String]) {
        self.drop_managers(|m| m.block == block && dead.contains(&m.node));
    }

    fn on_block_down(&mut self, block: BlockHandle) {
        self.drop_managers(|m| m.block == block);
    }

    fn try_launch(&mut self, launch_id: u64, task: &CoreTask) -> LaunchDecision {
        let n = self.managers.len();
        if n == 0 {
            return LaunchDecision::NoCapacity;
        }
        let mut msg = Some(WorkerMsg {
            launch_id,
            task: task.task.clone(),
        });
        for i in 0..n {
            let idx = (self.rr_cursor + i) % n;
            match self.managers[idx]
                .task_tx
                .try_send(msg.take().expect("present"))
            {
                Ok(()) => {
                    self.rr_cursor = (idx + 1) % n;
                    self.metrics.counter("htex.tasks_dispatched").inc();
                    let m = &self.managers[idx];
                    return LaunchDecision::Launched(Assignment {
                        block: Some(m.block),
                        nodes: vec![m.node.clone()],
                    });
                }
                Err(TrySendError::Full(back)) | Err(TrySendError::Disconnected(back)) => {
                    msg = Some(back);
                }
            }
        }
        LaunchDecision::NoCapacity
    }

    fn block_unviable(
        &self,
        remaining: usize,
        _backlog: &std::collections::VecDeque<CoreTask>,
    ) -> bool {
        // A block that lost every node serves nothing; release it so the
        // scale-out path can request a full replacement. Partially degraded
        // blocks keep their surviving managers.
        remaining == 0
    }

    fn shutdown(&mut self) {
        // Close manager channels and join workers of live managers. Zombie
        // workers (from dead blocks) are detached — they may be stranded in
        // a virtual-clock sleep nobody will advance.
        for m in self.managers.drain(..) {
            m.alive.store(false, Ordering::SeqCst);
            drop(m.task_tx);
            for w in m.workers {
                let _ = w.join();
            }
        }
        drop(self.zombies.drain(..));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::{BlockEndReason, BlockState, LocalProvider};
    use crossbeam_channel::Receiver;
    use gcx_core::clock::SystemClock;
    use gcx_core::error::GcxError;
    use gcx_core::function::{FunctionBody, FunctionRecord};
    use gcx_core::ids::{EndpointId, FunctionId, IdentityId};
    use gcx_core::task::{TaskResult, TaskSpec, TaskState};
    use gcx_core::value::Value;
    use std::time::Duration;

    fn exec_task(body: FunctionBody, args: Vec<Value>, tag: u64) -> ExecutableTask {
        let mut spec = TaskSpec::new(FunctionId::random(), EndpointId::random());
        spec.set_args(args, Value::None);
        ExecutableTask {
            spec,
            function: FunctionRecord {
                id: FunctionId::random(),
                owner: IdentityId::random(),
                body,
                registered_at: 0,
            },
            tag,
        }
    }

    fn engine(cfg: HtexConfig) -> (GlobusComputeEngine, Receiver<EngineEvent>) {
        let (tx, rx) = unbounded();
        let e = GlobusComputeEngine::start(
            cfg,
            Arc::new(LocalProvider::new("host")),
            Vfs::new(),
            SystemClock::shared(),
            MetricsRegistry::new(),
            tx,
            None,
        );
        (e, rx)
    }

    fn wait_done(rx: &Receiver<EngineEvent>, n: usize) -> Vec<(u64, TaskResult)> {
        let mut done = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while done.len() < n {
            match rx.recv_timeout(deadline.saturating_duration_since(std::time::Instant::now())) {
                Ok(EngineEvent::Done { tag, result, .. }) => done.push((tag, result)),
                Ok(_) => {}
                Err(_) => panic!("timed out with {}/{} results", done.len(), n),
            }
        }
        done
    }

    #[test]
    fn executes_pyfn_tasks() {
        let (mut e, rx) = engine(HtexConfig::default());
        e.submit(exec_task(
            FunctionBody::pyfn("def f(x):\n    return x + 1\n"),
            vec![Value::Int(41)],
            7,
        ))
        .unwrap();
        let done = wait_done(&rx, 1);
        assert_eq!(done[0], (7, TaskResult::ok(Value::Int(42))));
        e.shutdown();
    }

    #[test]
    fn emits_lifecycle_states() {
        let (mut e, rx) = engine(HtexConfig::default());
        e.submit(exec_task(
            FunctionBody::pyfn("def f():\n    return 0\n"),
            vec![],
            1,
        ))
        .unwrap();
        let mut saw_waiting = false;
        let mut saw_running = false;
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            match rx.recv_timeout(deadline.saturating_duration_since(std::time::Instant::now())) {
                Ok(EngineEvent::State(_, TaskState::WaitingForNodes)) => saw_waiting = true,
                Ok(EngineEvent::State(_, TaskState::Running)) => saw_running = true,
                Ok(EngineEvent::Done { .. }) => break,
                Ok(_) => {}
                Err(_) => panic!("timeout"),
            }
        }
        assert!(saw_waiting && saw_running);
        e.shutdown();
    }

    #[test]
    fn many_tasks_across_workers() {
        let cfg = HtexConfig {
            nodes_per_block: 2,
            max_blocks: 2,
            workers_per_node: 2,
            ..Default::default()
        };
        let (mut e, rx) = engine(cfg);
        for i in 0..40 {
            e.submit(exec_task(
                FunctionBody::pyfn("def f(x):\n    return x * x\n"),
                vec![Value::Int(i)],
                i as u64,
            ))
            .unwrap();
        }
        let mut done = wait_done(&rx, 40);
        done.sort_by_key(|(tag, _)| *tag);
        for (i, (tag, result)) in done.iter().enumerate() {
            assert_eq!(*tag, i as u64);
            assert_eq!(*result, TaskResult::ok(Value::Int((i * i) as i64)));
        }
        let st = e.status();
        assert_eq!(st.queued, 0);
        assert_eq!(st.running, 0);
        assert!(
            st.capacity >= 4,
            "two blocks × 2 nodes × 2 workers expected ≥ 4, got {}",
            st.capacity
        );
        assert_eq!(st.kind, EngineKind::Htex);
        e.shutdown();
    }

    #[test]
    fn scales_out_only_up_to_max_blocks() {
        let metrics = MetricsRegistry::new();
        let (tx, rx) = unbounded();
        let mut e = GlobusComputeEngine::start(
            HtexConfig {
                nodes_per_block: 1,
                max_blocks: 3,
                workers_per_node: 1,
                ..Default::default()
            },
            Arc::new(LocalProvider::new("host")),
            Vfs::new(),
            SystemClock::shared(),
            metrics.clone(),
            tx,
            None,
        );
        for i in 0..30 {
            e.submit(exec_task(
                FunctionBody::pyfn("def f():\n    sleep(0.01)\n    return 1\n"),
                vec![],
                i,
            ))
            .unwrap();
        }
        wait_done(&rx, 30);
        assert!(metrics.counter("htex.blocks_requested").get() <= 3);
        e.shutdown();
    }

    #[test]
    fn multiplexing_counts_connections_per_manager_not_worker() {
        let metrics = MetricsRegistry::new();
        let (tx, rx) = unbounded();
        let mut e = GlobusComputeEngine::start(
            HtexConfig {
                nodes_per_block: 2,
                max_blocks: 1,
                workers_per_node: 8,
                ..Default::default()
            },
            Arc::new(LocalProvider::new("host")),
            Vfs::new(),
            SystemClock::shared(),
            metrics.clone(),
            tx,
            None,
        );
        e.submit(exec_task(
            FunctionBody::pyfn("def f():\n    return 1\n"),
            vec![],
            0,
        ))
        .unwrap();
        wait_done(&rx, 1);
        assert_eq!(
            metrics.counter("htex.connections_opened").get(),
            2,
            "one per node/manager"
        );
        assert_eq!(
            metrics.counter("htex.worker_threads").get(),
            16,
            "8 per manager"
        );
        e.shutdown();
    }

    #[test]
    fn tasks_lost_to_dead_block_are_retried_then_fail() {
        // A provider whose blocks die shortly after starting: they survive
        // two state polls (long enough for the core to dispatch) and then
        // report Done, losing whatever was in flight.
        struct DyingProvider {
            inner: LocalProvider,
            polls: parking_lot::Mutex<std::collections::HashMap<gcx_core::ids::JobId, u32>>,
        }
        impl Provider for DyingProvider {
            fn submit_block(&self, n: u32) -> GcxResult<BlockHandle> {
                self.inner.submit_block(n)
            }
            fn block_state(&self, b: BlockHandle) -> GcxResult<BlockState> {
                let mut polls = self.polls.lock();
                let count = polls.entry(b.0).or_insert(0);
                *count += 1;
                if *count > 2 {
                    return Ok(BlockState::Done(BlockEndReason::Cancelled));
                }
                self.inner.block_state(b)
            }
            fn cancel_block(&self, b: BlockHandle) -> GcxResult<()> {
                let _ = self.inner.cancel_block(b);
                Ok(())
            }
            fn kind(&self) -> &'static str {
                "dying"
            }
        }

        let (tx, rx) = unbounded();
        let mut e = GlobusComputeEngine::start(
            HtexConfig {
                max_retries: 1,
                ..Default::default()
            },
            Arc::new(DyingProvider {
                inner: LocalProvider::new("host"),
                polls: parking_lot::Mutex::new(Default::default()),
            }),
            Vfs::new(),
            SystemClock::shared(),
            MetricsRegistry::new(),
            tx,
            None,
        );
        e.submit(exec_task(
            FunctionBody::pyfn("def f():\n    sleep(0.05)\n    return 1\n"),
            vec![],
            9,
        ))
        .unwrap();
        let done = wait_done(&rx, 1);
        // Every block dies, so after the retry budget the task fails loudly.
        let (tag, result) = &done[0];
        assert_eq!(*tag, 9);
        assert!(matches!(result, TaskResult::Err(m) if m.contains("batch job ended")));
        let st = e.status();
        assert!(st.redispatches_total >= 1, "got {}", st.redispatches_total);
        e.shutdown();
    }

    #[test]
    fn panicking_worker_is_supervised_and_keeps_serving() {
        // A transform that panics on a marker argument stands in for any
        // panic escaping user-facing code inside the worker.
        let transform: ValueTransform = Arc::new(|v| {
            if v == Value::str("boom") {
                panic!("injected worker panic");
            }
            Ok(v)
        });
        let metrics = MetricsRegistry::new();
        let (tx, rx) = unbounded();
        let mut e = GlobusComputeEngine::start(
            HtexConfig {
                max_retries: 1,
                ..Default::default()
            }, // 1 worker total
            Arc::new(LocalProvider::new("host")),
            Vfs::new(),
            SystemClock::shared(),
            metrics.clone(),
            tx,
            Some(transform),
        );
        e.submit(exec_task(
            FunctionBody::pyfn("def f(x):\n    return x\n"),
            vec![Value::str("boom")],
            1,
        ))
        .unwrap();
        let done = wait_done(&rx, 1);
        // Retried once (panics again), then failed loudly.
        assert!(
            matches!(&done[0].1, TaskResult::Err(m) if m.contains("panicked") && m.contains("injected worker panic")),
            "got {:?}",
            done[0].1
        );
        assert_eq!(
            metrics.counter("htex.worker_panics").get(),
            2,
            "initial try + 1 retry"
        );

        // The sole worker survived the panics and still executes tasks.
        e.submit(exec_task(
            FunctionBody::pyfn("def f(x):\n    return x\n"),
            vec![Value::Int(5)],
            2,
        ))
        .unwrap();
        let done = wait_done(&rx, 1);
        assert_eq!(done[0], (2, TaskResult::ok(Value::Int(5))));
        e.shutdown();
    }

    #[test]
    fn submit_after_shutdown_errors() {
        let (mut e, _rx) = engine(HtexConfig::default());
        e.shutdown();
        let err = e
            .submit(exec_task(
                FunctionBody::pyfn("def f():\n    return 1\n"),
                vec![],
                0,
            ))
            .unwrap_err();
        assert!(matches!(err, GcxError::ShuttingDown));
    }
}
