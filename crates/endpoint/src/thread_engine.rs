//! `ThreadEngine` — in-process worker threads, no provider or blocks.
//!
//! The funcX non-batch deployment mode: an endpoint on a login node,
//! workstation, or container executes functions directly in local worker
//! threads. There is no pilot job to wait for, so the task path is
//! submit → core dispatch → worker — the lowest-latency engine, which is
//! exactly what the `run_all` engine-parity check measures against htex on
//! the instant link.
//!
//! The engine is the shared [`ExecCore`](crate::exec_core) under the
//! `InlineSlots` policy with no [`BlockTable`](crate::exec_core::BlockTable)
//! at all: capacity is constant, nothing can be lost to the batch layer, and
//! the only recovery path left is worker-panic redispatch — which it
//! inherits from the core unchanged.

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
    run_worker, Assignment, CoreConfig, CoreEngine, CoreMsg, CoreTask, LaunchDecision, SchedPolicy,
    WorkerMsg,
};
use crate::worker::WorkerContext;

/// Configuration for [`ThreadEngine`].
#[derive(Debug, Clone)]
pub struct ThreadEngineConfig {
    /// Worker threads (the endpoint's constant capacity).
    pub workers: u32,
    /// Retries for tasks whose worker panicked.
    pub max_retries: u8,
}

impl Default for ThreadEngineConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            max_retries: 1,
        }
    }
}

/// The in-process engine: the shared core under an `InlineSlots` policy.
pub struct ThreadEngine {
    core: CoreEngine,
}

impl ThreadEngine {
    /// Start `cfg.workers` local worker threads. No provider is involved:
    /// capacity exists from the first loop iteration.
    pub fn start(
        cfg: ThreadEngineConfig,
        vfs: Vfs,
        clock: SharedClock,
        metrics: MetricsRegistry,
        events: Sender<EngineEvent>,
        transform: Option<ValueTransform>,
    ) -> Self {
        let channel = unbounded::<CoreMsg>();
        // One shared bounded queue: its capacity is the worker count, the
        // same prefetch window a single htex manager would get.
        let (task_tx, task_rx) = bounded::<WorkerMsg>(cfg.workers as usize);
        let panics = metrics.counter("thread.worker_panics");
        let mut workers = Vec::new();
        for w in 0..cfg.workers {
            let rx = task_rx.clone();
            let finished = channel.0.clone();
            let metrics2 = metrics.clone();
            let panics = Arc::clone(&panics);
            let ctx = {
                let mut c = WorkerContext::new(vfs.clone(), clock.clone(), format!("inproc-{w}"));
                c.resolver = transform.clone();
                c
            };
            metrics.counter("thread.worker_threads").inc();
            let handle = std::thread::Builder::new()
                .name(format!("gcx-thread-worker-{w}"))
                .spawn(move || run_worker(rx, None, ctx, finished, metrics2, panics))
                .expect("spawn thread worker");
            workers.push(handle);
        }
        let policy = InlineSlots {
            workers: cfg.workers,
            metrics: metrics.clone(),
            task_tx: Some(task_tx),
            handles: workers,
        };
        let core = CoreEngine::start(
            CoreConfig {
                kind: EngineKind::Thread,
                max_retries: cfg.max_retries,
                thread_name: "gcx-thread-engine",
                clock,
            },
            policy,
            None,
            metrics,
            events,
            channel,
            None,
        );
        Self { core }
    }
}

impl Engine for ThreadEngine {
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

/// Constant-capacity scheduling into one shared worker queue.
struct InlineSlots {
    workers: u32,
    metrics: MetricsRegistry,
    task_tx: Option<Sender<WorkerMsg>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl SchedPolicy for InlineSlots {
    fn capacity(&self) -> usize {
        self.workers as usize
    }

    fn try_launch(&mut self, launch_id: u64, task: &CoreTask) -> LaunchDecision {
        let Some(tx) = &self.task_tx else {
            return LaunchDecision::NoCapacity;
        };
        match tx.try_send(WorkerMsg {
            launch_id,
            task: task.task.clone(),
        }) {
            Ok(()) => {
                self.metrics.counter("thread.tasks_dispatched").inc();
                LaunchDecision::Launched(Assignment {
                    block: None,
                    nodes: Vec::new(),
                })
            }
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                LaunchDecision::NoCapacity
            }
        }
    }

    fn shutdown(&mut self) {
        drop(self.task_tx.take());
        for w in self.handles.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn engine(cfg: ThreadEngineConfig) -> (ThreadEngine, Receiver<EngineEvent>) {
        let (tx, rx) = unbounded();
        let e = ThreadEngine::start(
            cfg,
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
    fn executes_tasks_without_a_provider() {
        let (mut e, rx) = engine(ThreadEngineConfig::default());
        for i in 0..20 {
            e.submit(exec_task(
                FunctionBody::pyfn("def f(x):\n    return x * 2\n"),
                vec![Value::Int(i)],
                i as u64,
            ))
            .unwrap();
        }
        let mut done = wait_done(&rx, 20);
        done.sort_by_key(|(tag, _)| *tag);
        for (i, (tag, result)) in done.iter().enumerate() {
            assert_eq!(*tag, i as u64);
            assert_eq!(*result, TaskResult::ok(Value::Int((i * 2) as i64)));
        }
        let st = e.status();
        assert_eq!(st.kind, EngineKind::Thread);
        assert_eq!(st.queued, 0);
        assert_eq!(st.running, 0);
        assert_eq!(st.capacity, 4);
        assert_eq!(st.blocks, 0, "no provider, no blocks");
        e.shutdown();
    }

    #[test]
    fn emits_lifecycle_states_like_other_engines() {
        let (mut e, rx) = engine(ThreadEngineConfig {
            workers: 1,
            ..Default::default()
        });
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
    fn panicking_worker_is_supervised() {
        let transform: ValueTransform = Arc::new(|v| {
            if v == Value::str("boom") {
                panic!("injected worker panic");
            }
            Ok(v)
        });
        let metrics = MetricsRegistry::new();
        let (tx, rx) = unbounded();
        let mut e = ThreadEngine::start(
            ThreadEngineConfig {
                workers: 1,
                max_retries: 1,
            },
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
        assert!(
            matches!(&done[0].1, TaskResult::Err(m) if m.contains("panicked") && m.contains("injected worker panic")),
            "got {:?}",
            done[0].1
        );
        assert_eq!(metrics.counter("thread.worker_panics").get(), 2);
        // The worker survived and still serves tasks.
        e.submit(exec_task(
            FunctionBody::pyfn("def f(x):\n    return x\n"),
            vec![Value::Int(3)],
            2,
        ))
        .unwrap();
        let done = wait_done(&rx, 1);
        assert_eq!(done[0], (2, TaskResult::ok(Value::Int(3))));
        e.shutdown();
    }

    #[test]
    fn submit_after_shutdown_errors() {
        let (mut e, _rx) = engine(ThreadEngineConfig::default());
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
