//! `GlobusMPIEngine` — dynamic partitioning of a batch block for
//! concurrent MPI applications (§III-C.1).
//!
//! "Unlike Python functions that are expected to run on a single node …
//! MPI applications require multiple MPI ranks launched across multiple
//! nodes … In a many-task paradigm, as is the case with Globus Compute, the
//! runtime backend must be capable of executing multiple MPI applications
//! with varied requirements concurrently within a single batch job.
//! `GlobusMPIEngine` implements advanced functionality to partition a batch
//! job dynamically based on user-defined function requirements."
//!
//! Block lifecycle, partition-table repair around crashed nodes, and
//! lost-task recovery live in the shared [`exec_core`](crate::exec_core);
//! what this module defines is the `NodePartitioner` policy. The engine
//! holds one pilot block of `nodes_per_block` nodes and carves node subsets
//! out of it per task according to the task's normalized
//! `resource_specification`. Tasks whose requirement does not fit the
//! currently free nodes wait; smaller tasks may start ahead of a blocked
//! larger one (greedy packing — that *is* the dynamic-partitioning win the
//! `mpi_partitioning` benchmark measures against whole-block serialization).
//!
//! When executing, the supplied command is prefixed with
//! `$PARSL_MPI_PREFIX`, which resolves to the configured launcher prefix
//! (e.g. `mpiexec -n 4 -host node-001,node-002`).

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

use crossbeam_channel::{unbounded, Sender};
use gcx_core::clock::SharedClock;
use gcx_core::function::FunctionBody;
use gcx_core::metrics::MetricsRegistry;
use gcx_core::respec::NormalizedSpec;
use gcx_core::shellres::ShellResult;
use gcx_core::task::TaskResult;
use gcx_shell::mpi::{LauncherKind, MpiLaunchPlan, MpiLauncher};
use gcx_shell::{format_command, ShellExecutor, Vfs};

use crate::engine::{EngineIo, EngineKind, ExecutableTask, ValueTransform};
use crate::exec_core::{
    Assignment, BlockShape, BlockTable, CoreConfig, CoreMsg, CoreTask, Engine, LaunchDecision,
    LaunchOutcome, SchedPolicy,
};
use crate::provider::{BlockHandle, BlockSupervisor, Provider};
use crate::worker::WorkerContext;

/// Configuration for [`Engine::globus_mpi`].
#[derive(Debug, Clone)]
pub struct MpiEngineConfig {
    /// Nodes in the shared batch block (Listing 5's `nodes_per_block`).
    pub nodes_per_block: u32,
    /// The MPI launcher (`mpi_launcher: srun` in Listing 5).
    pub launcher: LauncherKind,
    /// Retries for tasks lost to a dying block.
    pub max_retries: u8,
}

impl Default for MpiEngineConfig {
    fn default() -> Self {
        Self {
            nodes_per_block: 4,
            launcher: LauncherKind::Mpiexec,
            max_retries: 1,
        }
    }
}

impl Engine {
    /// `GlobusMPIEngine`: the shared core under a `NodePartitioner` policy,
    /// over a provider that is asked for one block of `nodes_per_block`
    /// nodes, re-acquired if it dies.
    pub fn globus_mpi(
        cfg: MpiEngineConfig,
        provider: Arc<dyn Provider>,
        vfs: Vfs,
        clock: SharedClock,
        metrics: MetricsRegistry,
        io: impl Into<EngineIo>,
        transform: Option<ValueTransform>,
    ) -> Self {
        let supervisor =
            BlockSupervisor::new(provider, clock.clone(), metrics.clone(), EngineKind::Mpi);
        let table = BlockTable::new(
            supervisor,
            BlockShape {
                nodes_per_block: cfg.nodes_per_block,
                max_blocks: 1,
            },
        );
        let channel = unbounded::<CoreMsg>();
        let policy = NodePartitioner {
            nodes_per_block: cfg.nodes_per_block,
            launcher: cfg.launcher,
            vfs,
            clock: clock.clone(),
            metrics: metrics.clone(),
            finished: channel.0.clone(),
            transform,
            block: None,
            free: Vec::new(),
            members: 0,
        };
        Engine::start(
            CoreConfig {
                kind: EngineKind::Mpi,
                max_retries: cfg.max_retries,
                thread_name: "gcx-mpi-scheduler",
                clock,
            },
            policy,
            Some(table),
            metrics,
            io.into(),
            channel,
        )
    }
}

/// Greedy dynamic partitioning over one pilot block: every queued task
/// whose node requirement fits the currently free subset starts, in
/// arrival order. Crashed nodes simply leave the partition (the core hands
/// back each hit launch's slice via [`SchedPolicy::reclaim`], survivors
/// rejoining the free pool — the partition-table repair of PR 2).
struct NodePartitioner {
    nodes_per_block: u32,
    launcher: LauncherKind,
    vfs: Vfs,
    clock: SharedClock,
    metrics: MetricsRegistry,
    finished: Sender<CoreMsg>,
    transform: Option<ValueTransform>,
    block: Option<BlockHandle>,
    /// Nodes of the running block not currently assigned to a task.
    free: Vec<String>,
    /// Full live membership count (free + in flight).
    members: usize,
}

impl SchedPolicy for NodePartitioner {
    const GREEDY: bool = true;

    fn capacity(&self) -> usize {
        self.members
    }

    fn on_block_up(&mut self, block: BlockHandle, nodes: &[String]) {
        self.block = Some(block);
        self.free = nodes.to_vec();
        self.members = nodes.len();
    }

    fn on_nodes_lost(&mut self, _block: BlockHandle, dead: &HashSet<String>, remaining: &[String]) {
        self.free.retain(|n| !dead.contains(n));
        self.members = remaining.len();
    }

    fn on_block_down(&mut self, _block: BlockHandle) {
        self.block = None;
        self.free.clear();
        self.members = 0;
    }

    fn try_launch(&mut self, launch_id: u64, task: &CoreTask) -> LaunchDecision {
        let spec = match task.task.spec.resource_spec.normalize() {
            Ok(spec) => spec,
            // The one refusal of a malformed resource_specification.
            Err(e) => return LaunchDecision::Reject(TaskResult::Err(format!("ValueError: {e}"))),
        };
        let need = spec.num_nodes as usize;
        if need > self.nodes_per_block as usize {
            return LaunchDecision::Reject(TaskResult::Err(format!(
                "ValueError: resource_specification requests {need} nodes but the endpoint's block has only {}",
                self.nodes_per_block
            )));
        }
        if need > self.free.len() {
            return LaunchDecision::NoCapacity;
        }
        let nodes: Vec<String> = self.free.drain(..need).collect();
        self.metrics.counter("mpi.tasks_launched").inc();
        self.spawn_launch(launch_id, task.task.clone(), spec, nodes.clone());
        LaunchDecision::Launched(Assignment {
            block: self.block,
            nodes,
        })
    }

    fn reclaim(&mut self, assignment: &Assignment, dead: Option<&HashSet<String>>) {
        match dead {
            None => self.free.extend(assignment.nodes.iter().cloned()),
            Some(dead) => {
                // Partition repair: the slice's survivors return to the
                // free pool; crashed nodes leave the partition for good —
                // if the batch system later revives them they rejoin the
                // *cluster's* free pool, never a running job's.
                self.free.extend(
                    assignment
                        .nodes
                        .iter()
                        .filter(|n| !dead.contains(*n))
                        .cloned(),
                );
                self.metrics.counter("mpi.partitions_repaired").inc();
            }
        }
    }

    fn block_unviable(&self, remaining: usize, backlog: &VecDeque<CoreTask>) -> bool {
        // A degraded block may be too small for the queued work (a task
        // needing more nodes than remain would wait forever).
        remaining < self.nodes_per_block as usize
            && backlog.iter().any(|t| {
                t.task
                    .spec
                    .resource_spec
                    .normalize()
                    .map(|s| s.num_nodes as usize > remaining)
                    .unwrap_or(false)
            })
    }

    fn shutdown(&mut self) {
        // Launch threads are detached: they drain into a dead channel,
        // which matches an agent being killed mid-task.
    }
}

impl NodePartitioner {
    /// Run one launch on its node slice in a dedicated thread, reporting
    /// the result back to the core.
    fn spawn_launch(
        &self,
        launch_id: u64,
        task: ExecutableTask,
        spec: NormalizedSpec,
        nodes: Vec<String>,
    ) {
        let finished = self.finished.clone();
        let vfs = self.vfs.clone();
        let clock = self.clock.clone();
        let launcher_kind = self.launcher;
        let transform = self.transform.clone();
        let tracer = self.metrics.tracer();
        let task_id = task.spec.task_id;
        std::thread::Builder::new()
            .name(format!("gcx-mpi-launch-{task_id}"))
            .spawn(move || {
                let span_start = tracer.now_ms();
                let result =
                    run_mpi_task(&task, &spec, &nodes, launcher_kind, vfs, clock, transform);
                tracer.record_span_annotated(
                    task.spec.trace.as_ref(),
                    "worker",
                    span_start,
                    tracer.now_ms(),
                    || vec![format!("nodes {}", nodes.join(","))],
                );
                let _ = finished.send(CoreMsg::Finished {
                    launch_id,
                    outcome: LaunchOutcome::Done(result),
                });
            })
            .expect("spawn mpi launch");
    }
}

/// Execute one task on its assigned node partition.
fn run_mpi_task(
    task: &ExecutableTask,
    spec: &NormalizedSpec,
    nodes: &[String],
    launcher_kind: LauncherKind,
    vfs: Vfs,
    clock: SharedClock,
    transform: Option<ValueTransform>,
) -> TaskResult {
    match &task.function.body {
        FunctionBody::Mpi {
            cmd,
            walltime_ms,
            snippet_lines,
        } => {
            let kwargs = match task.spec.decode_args() {
                Ok((_, k)) => k,
                Err(e) => return TaskResult::Err(format!("ValueError: bad task payload: {e}")),
            };
            let kwargs = match &transform {
                Some(t) => match t(kwargs) {
                    Ok(v) => v,
                    Err(e) => return TaskResult::Err(format!("ProxyError: {e}")),
                },
                None => kwargs,
            };
            let app_cmd = match format_command(cmd, &kwargs) {
                Ok(c) => c,
                Err(e) => return TaskResult::Err(format!("ValueError: {e}")),
            };
            let plan = MpiLaunchPlan {
                nodes: nodes.to_vec(),
                num_ranks: spec.num_ranks,
                launcher: launcher_kind,
            };
            let shell = ShellExecutor::new(vfs, clock);
            let launcher = MpiLauncher::new(shell);
            let env = std::collections::BTreeMap::new();
            match launcher.run(&plan, &app_cmd, &env, "/", *walltime_ms) {
                Ok(out) => {
                    let result = ShellResult {
                        returncode: out.returncode,
                        stdout: ShellResult::snippet(&out.stdout, *snippet_lines),
                        stderr: ShellResult::snippet(&out.stderr, *snippet_lines),
                        // §III-C.1: the executed command is the supplied
                        // command prefixed with the resolved launcher prefix.
                        cmd: format!("{} {app_cmd}", plan.prefix()),
                    };
                    TaskResult::ok(result.to_value())
                }
                Err(e) => TaskResult::Err(format!("OSError: {e}")),
            }
        }
        // Non-MPI bodies run on the first node of the (single-node) slice.
        other => {
            let mut ctx = WorkerContext::new(vfs, clock, nodes[0].clone());
            ctx.resolver = transform;
            ctx.execute(&task.spec, other)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineEvent;
    use crate::provider::{BatchProvider, LocalProvider};
    use crossbeam_channel::Receiver;
    use gcx_batch::{BatchScheduler, ClusterSpec};
    use gcx_core::clock::{SystemClock, VirtualClock};
    use gcx_core::function::FunctionRecord;
    use gcx_core::ids::{EndpointId, FunctionId, IdentityId};
    use gcx_core::respec::ResourceSpec;
    use gcx_core::task::TaskSpec;
    use gcx_core::value::Value;
    use std::time::Duration;

    fn mpi_task(cmd: &str, spec: ResourceSpec, tag: u64) -> ExecutableTask {
        let mut tspec = TaskSpec::new(FunctionId::random(), EndpointId::random());
        tspec.resource_spec = spec;
        ExecutableTask {
            spec: tspec,
            function: FunctionRecord {
                id: FunctionId::random(),
                owner: IdentityId::random(),
                body: FunctionBody::mpi(cmd),
                registered_at: 0,
            },
            tag,
        }
    }

    fn engine(nodes: u32) -> (Engine, Receiver<EngineEvent>) {
        let (tx, rx) = unbounded();
        let e = Engine::globus_mpi(
            MpiEngineConfig {
                nodes_per_block: nodes,
                ..Default::default()
            },
            Arc::new(LocalProvider::new("exp")),
            Vfs::new(),
            SystemClock::shared(),
            MetricsRegistry::new(),
            tx,
            None,
        );
        (e, rx)
    }

    fn wait_results(rx: &Receiver<EngineEvent>, n: usize) -> Vec<(u64, TaskResult)> {
        let mut done = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while done.len() < n {
            match rx.recv_timeout(deadline.saturating_duration_since(std::time::Instant::now())) {
                Ok(EngineEvent::Done { tag, result, .. }) => done.push((tag, result)),
                Ok(_) => {}
                Err(_) => panic!("timed out with {}/{n} results", done.len()),
            }
        }
        done
    }

    fn shell_result(r: &TaskResult) -> ShellResult {
        let Some(v) = r.ok_value() else {
            panic!("expected ok, got {r:?}")
        };
        ShellResult::from_value(&v).unwrap()
    }

    #[test]
    fn listing6_hostname_over_two_nodes() {
        let (mut e, rx) = engine(4);
        // n=1: 2 nodes × 1 rank; n=2: 2 nodes × 2 ranks — Listing 6's loop.
        e.submit(mpi_task("hostname", ResourceSpec::nodes_ranks(2, 1), 1))
            .unwrap();
        let r1 = wait_results(&rx, 1);
        let sr = shell_result(&r1[0].1);
        assert_eq!(sr.stdout.lines().count(), 2);
        e.submit(mpi_task("hostname", ResourceSpec::nodes_ranks(2, 2), 2))
            .unwrap();
        let r2 = wait_results(&rx, 1);
        let sr2 = shell_result(&r2[0].1);
        assert_eq!(sr2.stdout.lines().count(), 4);
        // Alternating node pattern like Listing 7.
        let lines: Vec<&str> = sr2.stdout.lines().collect();
        assert_eq!(lines[0], lines[2]);
        assert_eq!(lines[1], lines[3]);
        assert_ne!(lines[0], lines[1]);
        e.shutdown();
    }

    #[test]
    fn cmd_records_launcher_prefix() {
        let (mut e, rx) = engine(2);
        e.submit(mpi_task("hostname", ResourceSpec::nodes(2), 0))
            .unwrap();
        let done = wait_results(&rx, 1);
        let sr = shell_result(&done[0].1);
        assert!(
            sr.cmd.starts_with("mpiexec -n 2 -host "),
            "resolved $PARSL_MPI_PREFIX must lead the cmd: {}",
            sr.cmd
        );
        assert!(sr.cmd.ends_with(" hostname"));
        e.shutdown();
    }

    #[test]
    fn concurrent_mpi_apps_share_the_block() {
        // Two 2-node sleep tasks on a 4-node block must overlap: total wall
        // time well under the serial 2×sleep.
        let (mut e, rx) = engine(4);
        let start = std::time::Instant::now();
        e.submit(mpi_task("sleep 0.4", ResourceSpec::nodes(2), 1))
            .unwrap();
        e.submit(mpi_task("sleep 0.4", ResourceSpec::nodes(2), 2))
            .unwrap();
        wait_results(&rx, 2);
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_millis(700),
            "2×400 ms tasks on disjoint nodes must overlap; took {elapsed:?}"
        );
        e.shutdown();
    }

    #[test]
    fn small_task_starts_while_large_waits() {
        let (mut e, rx) = engine(4);
        // Occupy 3 nodes.
        e.submit(mpi_task("sleep 0.5", ResourceSpec::nodes(3), 1))
            .unwrap();
        // 4-node task cannot start yet; 1-node task can (dynamic partitioning).
        e.submit(mpi_task("sleep 0.1", ResourceSpec::nodes(4), 2))
            .unwrap();
        e.submit(mpi_task("hostname", ResourceSpec::nodes(1), 3))
            .unwrap();
        let first = wait_results(&rx, 1);
        assert_eq!(first[0].0, 3, "the 1-node task must finish first");
        wait_results(&rx, 2);
        e.shutdown();
    }

    #[test]
    fn oversized_request_fails_fast() {
        let (mut e, rx) = engine(2);
        e.submit(mpi_task("hostname", ResourceSpec::nodes(8), 5))
            .unwrap();
        let done = wait_results(&rx, 1);
        assert!(matches!(&done[0].1, TaskResult::Err(m) if m.contains("8 nodes")));
        e.shutdown();
    }

    /// A resource specification that does not normalize is taken like any
    /// task and fails in the one refusal path, with a `ValueError` result;
    /// the engine goes on serving.
    #[test]
    fn invalid_resource_spec_fails_with_a_value_error() {
        let (mut e, rx) = engine(2);
        let bad = ResourceSpec {
            num_nodes: Some(2),
            ranks_per_node: Some(2),
            num_ranks: Some(5),
        };
        e.submit(mpi_task("hostname", bad, 0)).unwrap();
        let done = wait_results(&rx, 1);
        assert_eq!(done[0].0, 0);
        assert!(
            matches!(&done[0].1, TaskResult::Err(m) if m.starts_with("ValueError: ")),
            "{:?}",
            done[0].1
        );
        e.submit(mpi_task("hostname", ResourceSpec::nodes(1), 1))
            .unwrap();
        let done = wait_results(&rx, 1);
        assert_eq!(shell_result(&done[0].1).stdout.lines().count(), 1);
        e.shutdown();
    }

    #[test]
    fn non_mpi_function_runs_on_one_node() {
        let (mut e, rx) = engine(2);
        let mut task = mpi_task("unused", ResourceSpec::default(), 7);
        task.function.body = FunctionBody::pyfn("def f():\n    return hostname()\n");
        e.submit(task).unwrap();
        let done = wait_results(&rx, 1);
        let Some(Value::Str(host)) = done[0].1.ok_value() else {
            panic!()
        };
        assert!(host.starts_with("exp-"));
        e.shutdown();
    }

    #[test]
    fn mpi_walltime_returns_124() {
        let (mut e, rx) = engine(2);
        let mut task = mpi_task("sleep 10", ResourceSpec::nodes(2), 9);
        if let FunctionBody::Mpi { walltime_ms, .. } = &mut task.function.body {
            *walltime_ms = Some(200);
        }
        e.submit(task).unwrap();
        let done = wait_results(&rx, 1);
        let sr = shell_result(&done[0].1);
        assert_eq!(sr.returncode, 124);
        e.shutdown();
    }

    #[test]
    fn nodes_are_returned_after_completion() {
        let (mut e, rx) = engine(2);
        for i in 0..6 {
            e.submit(mpi_task("hostname", ResourceSpec::nodes(2), i))
                .unwrap();
        }
        wait_results(&rx, 6);
        let st = e.status();
        assert_eq!(st.running, 0);
        assert_eq!(st.queued, 0);
        assert_eq!(st.capacity, 2);
        assert_eq!(st.kind, EngineKind::Mpi);
        e.shutdown();
    }

    #[test]
    fn block_walltime_kill_resolves_mpi_task_with_124() {
        // Batch block with a short walltime dies under a long task: the
        // command ran and was killed by the batch system, so the task
        // resolves immediately with return code 124 (§III-B.3) — it does
        // not hang until the zombie launch's virtual sleeps elapse.
        let clock = VirtualClock::new();
        let sched = BatchScheduler::new(ClusterSpec::simple(2), clock.clone());
        let provider = Arc::new(BatchProvider::slurm(sched, "cpu", "a", 1_000));
        let (tx, rx) = unbounded();
        let mut e = Engine::globus_mpi(
            MpiEngineConfig {
                nodes_per_block: 2,
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
        e.submit(mpi_task("sleep 100", ResourceSpec::nodes(2), 1))
            .unwrap();
        clock.wait_for_sleepers(2);
        clock.advance(1_000); // block walltime expires at t=1000
        let done = wait_results(&rx, 1);
        let sr = shell_result(&done[0].1);
        assert_eq!(sr.returncode, 124);
        assert!(sr.stderr.contains("walltime"), "stderr: {}", sr.stderr);
        e.shutdown();
    }

    #[test]
    fn node_crash_repairs_partition_and_replaces_block() {
        use gcx_batch::{ResourceFaultPlan, ResourceFaultRule};
        // A node inside the active MPI partition crashes mid-task. The
        // engine must repair its partition table (requeue the task, reclaim
        // survivors), notice the degraded block cannot host the 2-node
        // retry, replace the block, and complete the task on the new one.
        let clock = VirtualClock::new();
        let sched = BatchScheduler::new(ClusterSpec::simple(2), clock.clone());
        sched.set_fault_plan(Some(ResourceFaultPlan::new(7).with_rule(
            // Only the first block's job is in flight during [0, 600).
            ResourceFaultRule::node_crash("cpu", 1.0, 500, 200).during(0, 600),
        )));
        let metrics = MetricsRegistry::new();
        let provider = Arc::new(BatchProvider::slurm(sched, "cpu", "a", 60_000));
        let (tx, rx) = unbounded();
        let mut e = Engine::globus_mpi(
            MpiEngineConfig {
                nodes_per_block: 2,
                max_retries: 1,
                ..Default::default()
            },
            provider,
            Vfs::new(),
            clock.clone(),
            metrics.clone(),
            tx,
            None,
        );
        e.submit(mpi_task("sleep 5", ResourceSpec::nodes(2), 1))
            .unwrap();
        clock.wait_for_sleepers(2); // both ranks asleep on attempt one
        clock.advance(500); // the crash fires
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            match rx.recv_timeout(left) {
                Ok(EngineEvent::BlockLost { reason, nodes_lost }) => {
                    assert_eq!(reason, "node-failure");
                    assert_eq!(nodes_lost, 1);
                    break;
                }
                Ok(_) => {}
                Err(_) => panic!("engine never reported the node loss"),
            }
        }
        // Crashed node is back at t=700; the supervisor backoff gate is at
        // most 500 + 300 = 800. Advance to 800 so the replacement block can
        // be requested and started, then let the retry's sleeps elapse.
        clock.advance(300);
        clock.wait_for_sleepers(4); // 2 zombie ranks + 2 retry ranks
        clock.advance(5_000);
        let done = wait_results(&rx, 1);
        let sr = shell_result(&done[0].1);
        assert_eq!(sr.returncode, 0);
        assert_eq!(metrics.counter("mpi.partitions_repaired").get(), 1);
        assert_eq!(metrics.counter("mpi.tasks_redispatched").get(), 1);
        assert_eq!(metrics.counter("mpi.blocks_replaced").get(), 1);
        e.shutdown();
    }
}
