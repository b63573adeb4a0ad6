//! Cross-engine parity: every provider-backed engine runs the *same*
//! execution core, so the same failure must resolve to the same user-visible
//! outcome regardless of engine.
//!
//! The canonical case is a batch block hitting its walltime under a running
//! command (§III-B.3): the command genuinely ran and was killed by the batch
//! system, so both `GlobusComputeEngine` and `GlobusMPIEngine` must resolve
//! the task as a *result* with return code 124 and the same stderr shape —
//! not as an error, and not differently per engine. A lost function task
//! (one with no shell semantics to resolve) must likewise fail with the
//! identical retryable error from either engine.

use std::sync::Arc;
use std::time::Duration;

use crossbeam_channel::{unbounded, Receiver};
use gcx_batch::{BatchScheduler, ClusterSpec};
use gcx_core::clock::{SystemClock, VirtualClock};
use gcx_core::function::{FunctionBody, FunctionRecord};
use gcx_core::ids::{EndpointId, FunctionId, IdentityId};
use gcx_core::metrics::MetricsRegistry;
use gcx_core::respec::ResourceSpec;
use gcx_core::shellres::ShellResult;
use gcx_core::task::{TaskResult, TaskSpec};
use gcx_core::value::Value;
use gcx_endpoint::htex::HtexConfig;
use gcx_endpoint::mpi_engine::MpiEngineConfig;
use gcx_endpoint::provider::{
    BatchProvider, BlockEndReason, BlockHandle, BlockState, LocalProvider, Provider,
};
use gcx_endpoint::thread_engine::ThreadEngineConfig;
use gcx_endpoint::{Engine, EngineEvent, ExecutableTask};
use gcx_shell::Vfs;

fn task(body: FunctionBody, spec: ResourceSpec, tag: u64) -> ExecutableTask {
    let mut tspec = TaskSpec::new(FunctionId::random(), EndpointId::random());
    tspec.resource_spec = spec;
    ExecutableTask {
        spec: tspec,
        function: FunctionRecord {
            id: FunctionId::random(),
            owner: IdentityId::random(),
            body,
            registered_at: 0,
        },
        tag,
    }
}

fn wait_done(rx: &Receiver<EngineEvent>) -> TaskResult {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match rx.recv_timeout(deadline.saturating_duration_since(std::time::Instant::now())) {
            Ok(EngineEvent::Done { result, .. }) => return result,
            Ok(_) => {}
            Err(_) => panic!("timed out waiting for a result"),
        }
    }
}

/// An `htex` or `mpi` engine over `provider` on the system clock: one
/// block of `nodes_per_block` nodes, one worker per node.
fn start_engine(
    kind: &str,
    nodes_per_block: u32,
    max_retries: u8,
    provider: Arc<dyn Provider>,
    events: crossbeam_channel::Sender<EngineEvent>,
) -> Engine {
    match kind {
        "htex" => Engine::globus_compute(
            HtexConfig {
                nodes_per_block,
                max_blocks: 1,
                workers_per_node: 1,
                sandbox: false,
                max_retries,
            },
            provider,
            Vfs::new(),
            SystemClock::shared(),
            MetricsRegistry::new(),
            events,
            None,
        ),
        "mpi" => Engine::globus_mpi(
            MpiEngineConfig {
                nodes_per_block,
                max_retries,
                ..Default::default()
            },
            provider,
            Vfs::new(),
            SystemClock::shared(),
            MetricsRegistry::new(),
            events,
            None,
        ),
        other => panic!("unknown engine {other}"),
    }
}

/// A 1-second-walltime Slurm block on a virtual clock, shared harness for
/// both engines: submit `body`, wait until its virtual sleep is parked,
/// expire the block, return the resolved result.
fn run_under_walltime_kill(engine_kind: &str, body: FunctionBody) -> TaskResult {
    let clock = VirtualClock::new();
    let sched = BatchScheduler::new(ClusterSpec::simple(2), clock.clone());
    let provider = Arc::new(BatchProvider::slurm(sched, "cpu", "a", 1_000));
    let (tx, rx) = unbounded();
    let result = match engine_kind {
        "htex" => {
            let mut e = Engine::globus_compute(
                HtexConfig {
                    nodes_per_block: 1,
                    max_blocks: 1,
                    workers_per_node: 1,
                    sandbox: false,
                    max_retries: 0,
                },
                provider,
                Vfs::new(),
                clock.clone(),
                MetricsRegistry::new(),
                tx,
                None,
            );
            e.submit(task(body, ResourceSpec::default(), 1)).unwrap();
            clock.wait_for_sleepers(1);
            clock.advance(1_000); // block walltime expires at t=1000
            let r = wait_done(&rx);
            e.shutdown();
            r
        }
        "mpi" => {
            let mut e = Engine::globus_mpi(
                MpiEngineConfig {
                    nodes_per_block: 1,
                    max_retries: 0,
                    ..Default::default()
                },
                provider,
                Vfs::new(),
                clock.clone(),
                MetricsRegistry::new(),
                tx,
                None,
            );
            e.submit(task(body, ResourceSpec::nodes(1), 1)).unwrap();
            clock.wait_for_sleepers(1);
            clock.advance(1_000);
            let r = wait_done(&rx);
            e.shutdown();
            r
        }
        other => panic!("unknown engine {other}"),
    };
    result
}

#[test]
fn walltime_killed_shell_work_resolves_identically_across_engines() {
    // htex runs a ShellFunction; the MPI engine runs an MPI application.
    // Both are commands the batch system killed at the walltime, so both
    // resolve as ShellResults — rc 124, identical stderr.
    let htex = run_under_walltime_kill("htex", FunctionBody::shell("sleep 100"));
    let mpi = run_under_walltime_kill("mpi", FunctionBody::mpi("sleep 100"));

    let unwrap_shell = |r: &TaskResult| -> ShellResult {
        let Some(v) = r.ok_value() else {
            panic!("walltime kill must resolve as a result, got {r:?}")
        };
        ShellResult::from_value(&v).unwrap()
    };
    let h = unwrap_shell(&htex);
    let m = unwrap_shell(&mpi);

    assert_eq!(h.returncode, 124);
    assert_eq!(m.returncode, 124);
    assert_eq!(
        h.stderr, m.stderr,
        "engines must report the same walltime-kill stderr"
    );
    assert_eq!(h.stderr, "killed: batch job walltime exceeded");
    // Both preserve the user's command, unchanged by engine plumbing.
    assert_eq!(h.cmd, "sleep 100");
    assert_eq!(m.cmd, "sleep 100");
}

#[test]
fn lost_function_task_fails_identically_across_engines() {
    // A Python function has no shell exit semantics to resolve, so a
    // walltime-killed block loses it: with the retry budget exhausted both
    // engines emit the same typed retryable error the SDK can resubmit.
    let body = || FunctionBody::pyfn("def f():\n    sleep(100)\n    return 1\n");
    let htex = run_under_walltime_kill("htex", body());
    let mpi = run_under_walltime_kill("mpi", body());

    let msg = |r: &TaskResult| -> String {
        match r {
            TaskResult::Err(m) => m.clone(),
            other => panic!("expected a lost-task error, got {other:?}"),
        }
    };
    let h = msg(&htex);
    let m = msg(&mpi);
    assert_eq!(h, m, "engines must report the same lost-task error");
    assert!(
        h.contains("batch job ended") && h.contains("retries exhausted"),
        "got: {h}"
    );
    assert!(htex.is_retryable_err() && mpi.is_retryable_err());
}

/// A provider whose *first* block dies shortly after provisioning; every
/// later block is a healthy [`LocalProvider`] block. The core must recover
/// the in-flight task, requeue it, and complete it on the replacement.
struct DieOnceProvider {
    inner: LocalProvider,
    first: parking_lot::Mutex<Option<gcx_core::ids::JobId>>,
    polls: std::sync::atomic::AtomicU32,
}

impl Provider for DieOnceProvider {
    fn submit_block(&self, n: u32) -> gcx_core::error::GcxResult<BlockHandle> {
        let handle = self.inner.submit_block(n)?;
        self.first.lock().get_or_insert(handle.0);
        Ok(handle)
    }
    fn block_state(&self, b: BlockHandle) -> gcx_core::error::GcxResult<BlockState> {
        if *self.first.lock() == Some(b.0) {
            let count = self
                .polls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if count > 2 {
                return Ok(BlockState::Done(BlockEndReason::Cancelled));
            }
        }
        self.inner.block_state(b)
    }
    fn cancel_block(&self, b: BlockHandle) -> gcx_core::error::GcxResult<()> {
        let _ = self.inner.cancel_block(b);
        Ok(())
    }
    fn kind(&self) -> &'static str {
        "die-once"
    }
}

#[test]
fn redispatch_budget_recovers_the_task_on_either_engine() {
    // One retry in the budget: the first block dies under the task, the
    // core requeues it, a replacement block provisions after backoff, and
    // the task completes — identically from either engine's surface.
    for kind in ["htex", "mpi"] {
        let provider = Arc::new(DieOnceProvider {
            inner: LocalProvider::new("host"),
            first: parking_lot::Mutex::new(None),
            polls: std::sync::atomic::AtomicU32::new(0),
        });
        let (tx, rx) = unbounded();
        let body = FunctionBody::pyfn("def f():\n    sleep(0.05)\n    return 7\n");
        let mut e = start_engine(kind, 1, 1, provider, tx);
        let spec = if kind == "mpi" {
            ResourceSpec::nodes(1)
        } else {
            ResourceSpec::default()
        };
        e.submit(task(body, spec, 9)).unwrap();
        let result = wait_done(&rx);
        assert_eq!(
            result,
            TaskResult::ok(Value::Int(7)),
            "engine {kind}: redispatched task must complete"
        );
        let st = e.status();
        assert!(
            st.redispatches_total >= 1,
            "engine {kind}: expected a recorded redispatch, status {st:?}"
        );
        e.shutdown();
    }
}

/// A [`LocalProvider`] whose running blocks the test can degrade (one node
/// leaves the census) or end at the walltime, whenever it says so.
struct SwitchProvider {
    inner: LocalProvider,
    drop_first_node: std::sync::atomic::AtomicBool,
    walltime_hit: std::sync::atomic::AtomicBool,
}

impl Provider for SwitchProvider {
    fn submit_block(&self, n: u32) -> gcx_core::error::GcxResult<BlockHandle> {
        self.inner.submit_block(n)
    }
    fn block_state(&self, b: BlockHandle) -> gcx_core::error::GcxResult<BlockState> {
        use std::sync::atomic::Ordering::SeqCst;
        Ok(match self.inner.block_state(b)? {
            BlockState::Running(_) if self.walltime_hit.load(SeqCst) => {
                BlockState::Done(BlockEndReason::Walltime)
            }
            BlockState::Running(mut nodes) if self.drop_first_node.load(SeqCst) => {
                nodes.remove(0);
                BlockState::Running(nodes)
            }
            other => other,
        })
    }
    fn cancel_block(&self, b: BlockHandle) -> gcx_core::error::GcxResult<()> {
        let _ = self.inner.cancel_block(b);
        Ok(())
    }
    fn kind(&self) -> &'static str {
        "switch"
    }
}

/// The next block event within `within`, skipping task events.
fn wait_block_event(rx: &Receiver<EngineEvent>, within: Duration) -> EngineEvent {
    let deadline = std::time::Instant::now() + within;
    loop {
        match rx.recv_timeout(deadline.saturating_duration_since(std::time::Instant::now())) {
            Ok(ev @ (EngineEvent::BlockProvisioned { .. } | EngineEvent::BlockLost { .. })) => {
                return ev
            }
            Ok(_) => {}
            Err(_) => panic!("no block event within {within:?}"),
        }
    }
}

#[test]
fn an_idle_engine_still_notices_what_happens_to_its_block() {
    // On a real clock the driver sleeps until a message or its next due
    // duty. With a block up and no task anywhere, the only thing that can
    // show it a lost node or a walltime kill is its own block poll — no
    // message comes. Both engines, same cadence, same events.
    const NOTICED_WITHIN: Duration = Duration::from_millis(500);
    use std::sync::atomic::Ordering::SeqCst;
    for kind in ["htex", "mpi"] {
        let provider = Arc::new(SwitchProvider {
            inner: LocalProvider::new("host"),
            drop_first_node: false.into(),
            walltime_hit: false.into(),
        });
        let (tx, rx) = unbounded();
        let mut e = start_engine(kind, 2, 1, provider.clone(), tx);
        // Before its first task the engine holds no block and nothing wakes
        // it; the task brings the block up (a pending block is polled at
        // the short cadence) and completes.
        std::thread::sleep(Duration::from_millis(30));
        let spec = if kind == "mpi" {
            ResourceSpec::nodes(1)
        } else {
            ResourceSpec::default()
        };
        let body = FunctionBody::pyfn("def f():\n    return 7\n");
        e.submit(task(body, spec, 1)).unwrap();
        assert!(
            matches!(
                wait_block_event(&rx, NOTICED_WITHIN),
                EngineEvent::BlockProvisioned { nodes: 2 }
            ),
            "engine {kind}: block never came up"
        );
        assert_eq!(wait_done(&rx), TaskResult::ok(Value::Int(7)));

        // Idle now. A node leaves the census...
        std::thread::sleep(Duration::from_millis(30));
        provider.drop_first_node.store(true, SeqCst);
        match wait_block_event(&rx, NOTICED_WITHIN) {
            EngineEvent::BlockLost { reason, nodes_lost } => {
                assert_eq!((reason, nodes_lost), ("node-failure", 1), "engine {kind}");
            }
            other => panic!("engine {kind}: expected a node loss, got {other:?}"),
        }
        // ...and then the batch system ends the block at its walltime.
        provider.walltime_hit.store(true, SeqCst);
        match wait_block_event(&rx, NOTICED_WITHIN) {
            EngineEvent::BlockLost { reason, .. } => assert_eq!(reason, "walltime", "{kind}"),
            other => panic!("engine {kind}: expected a walltime loss, got {other:?}"),
        }
        e.shutdown();
    }
}

#[test]
fn a_deadline_on_an_otherwise_idle_engine_is_enforced_on_time() {
    // One task, asleep far past its deadline, nothing else going on: no
    // message arrives between the launch and the expiry, so the kill comes
    // from the driver waking for its own next deadline sweep (at most 10 ms
    // after the expiry), on every engine — the ThreadEngine has no block
    // poll to ride.
    const DEADLINE_MS: u64 = 60;
    for kind in ["thread", "htex", "mpi"] {
        let (tx, rx) = unbounded();
        let provider = Arc::new(LocalProvider::new("host"));
        let mut e = match kind {
            "thread" => Engine::thread(
                ThreadEngineConfig {
                    workers: 1,
                    max_retries: 0,
                },
                Vfs::new(),
                SystemClock::shared(),
                MetricsRegistry::new(),
                tx,
                None,
            ),
            _ => start_engine(kind, 1, 0, provider, tx),
        };
        let (body, spec) = if kind == "mpi" {
            (FunctionBody::mpi("sleep 0.5"), ResourceSpec::nodes(1))
        } else {
            (
                FunctionBody::pyfn("def f():\n    sleep(0.5)\n    return 1\n"),
                ResourceSpec::default(),
            )
        };
        let mut doomed = task(body, spec, 1);
        doomed.spec.deadline_ms = Some(DEADLINE_MS);
        let submitted = std::time::Instant::now();
        e.submit(doomed).unwrap();
        let result = wait_done(&rx);
        let took = submitted.elapsed();
        assert!(result.is_deadline_err(), "engine {kind}: got {result:?}");
        assert!(
            took >= Duration::from_millis(DEADLINE_MS),
            "engine {kind}: killed early, after {took:?}"
        );
        // Expiry + one sweep period + scheduling slack; the task itself
        // would have run for 500 ms.
        assert!(
            took < Duration::from_millis(DEADLINE_MS + 10 + 90),
            "engine {kind}: killed late, after {took:?}"
        );
        e.shutdown();
    }
}

#[test]
fn shutdown_of_an_idle_engine_does_not_wait_for_a_tick() {
    // An idle driver is parked on its channel with no timeout (thread
    // engine; any engine before its first block) — shutdown has to wake it
    // with a message, or it would never return.
    for kind in ["thread", "htex", "mpi"] {
        let (tx, _rx) = unbounded();
        let config = gcx_endpoint::EndpointConfig::from_yaml(match kind {
            "thread" => "engine:\n  type: ThreadEngine\n  workers: 1\n",
            "htex" => "engine:\n  type: GlobusComputeEngine\n",
            _ => "engine:\n  type: GlobusMPIEngine\n",
        })
        .unwrap();
        let env = gcx_endpoint::AgentEnv::local(SystemClock::shared());
        let mut e = gcx_endpoint::agent::build_engine(&config, &env, tx).unwrap();
        std::thread::sleep(Duration::from_millis(30)); // the driver is parked
        let t = std::time::Instant::now();
        e.shutdown();
        let took = t.elapsed();
        assert!(
            took < Duration::from_millis(50),
            "idle {kind} engine took {took:?} to shut down"
        );
    }
}
