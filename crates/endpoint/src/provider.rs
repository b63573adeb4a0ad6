//! The Provider abstraction (§II): "The Provider abstracts different
//! computing resources … The abstraction exposes an interface to obtain
//! resources, check the status of requests, and to release resources."
//!
//! [`BlockSupervisor`] layers a small recovery state machine on top: it
//! gates block re-provisioning behind a capped exponential backoff (a
//! [`RetryPolicy`] on the endpoint's clock) so an engine that keeps losing
//! blocks to walltime, preemption, or node failure re-requests capacity
//! without hammering the scheduler.

use gcx_batch::{BatchScheduler, JobRequest, JobState};
use gcx_core::clock::{SharedClock, TimeMs};
use gcx_core::error::{GcxError, GcxResult};
use gcx_core::ids::JobId;
use gcx_core::metrics::MetricsRegistry;
use gcx_core::retry::RetryPolicy;
use std::sync::Arc;

use crate::engine::EngineKind;

/// Why a block ended — engines use this to pick recovery semantics (a
/// walltime kill resolves shell tasks with return code 124; other losses
/// requeue or fail retryably).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockEndReason {
    /// The pilot released it normally.
    Completed,
    /// Cancelled by the engine/user.
    Cancelled,
    /// Killed by the scheduler for exceeding its walltime.
    Walltime,
    /// Evicted whole by the scheduler.
    Preempted,
    /// Lost every node to hardware failure.
    NodeFail,
    /// The provider could not say (e.g. the block was never tracked).
    Unknown,
}

impl BlockEndReason {
    /// Short human-readable label for events and logs.
    pub(crate) fn as_str(&self) -> &'static str {
        match self {
            BlockEndReason::Completed => "completed",
            BlockEndReason::Cancelled => "cancelled",
            BlockEndReason::Walltime => "walltime",
            BlockEndReason::Preempted => "preempted",
            BlockEndReason::NodeFail => "node-failure",
            BlockEndReason::Unknown => "unknown",
        }
    }
}

/// State of one provisioned block (pilot job).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockState {
    /// Waiting in the scheduler queue.
    Pending,
    /// Running on these nodes. The list can *shrink* across polls when the
    /// scheduler's fault plan crashes a member node.
    Running(Vec<String>),
    /// Gone, and why.
    Done(BlockEndReason),
}

/// Handle to one provisioned block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockHandle(pub JobId);

/// Obtain/inspect/release blocks of nodes.
pub trait Provider: Send + Sync {
    /// Request a block of `num_nodes` nodes.
    fn submit_block(&self, num_nodes: u32) -> GcxResult<BlockHandle>;

    /// Check a block's state.
    fn block_state(&self, block: BlockHandle) -> GcxResult<BlockState>;

    /// Release a block.
    fn cancel_block(&self, block: BlockHandle) -> GcxResult<()>;

    /// Human-readable kind (`local`, `slurm`, `pbs`).
    fn kind(&self) -> &'static str;
}

/// Provider for on-host execution: nodes are immediate and synthetic.
pub struct LocalProvider {
    hostname: String,
    counter: std::sync::atomic::AtomicU32,
    active: parking_lot::Mutex<std::collections::HashMap<JobId, Vec<String>>>,
}

impl LocalProvider {
    /// A local provider naming nodes `<hostname>-N`.
    pub fn new(hostname: impl Into<String>) -> Self {
        Self {
            hostname: hostname.into(),
            counter: std::sync::atomic::AtomicU32::new(0),
            active: parking_lot::Mutex::new(std::collections::HashMap::new()),
        }
    }
}

impl Provider for LocalProvider {
    fn submit_block(&self, num_nodes: u32) -> GcxResult<BlockHandle> {
        let id = JobId::random();
        let base = self
            .counter
            .fetch_add(num_nodes, std::sync::atomic::Ordering::Relaxed);
        let nodes = (0..num_nodes)
            .map(|i| format!("{}-{}", self.hostname, base + i))
            .collect();
        self.active.lock().insert(id, nodes);
        Ok(BlockHandle(id))
    }

    fn block_state(&self, block: BlockHandle) -> GcxResult<BlockState> {
        Ok(match self.active.lock().get(&block.0) {
            Some(nodes) => BlockState::Running(nodes.clone()),
            None => BlockState::Done(BlockEndReason::Cancelled),
        })
    }

    fn cancel_block(&self, block: BlockHandle) -> GcxResult<()> {
        self.active
            .lock()
            .remove(&block.0)
            .map(|_| ())
            .ok_or_else(|| GcxError::Scheduler(format!("unknown block {}", block.0)))
    }

    fn kind(&self) -> &'static str {
        "local"
    }
}

/// Provider over the batch scheduler simulator (SlurmProvider /
/// PBSProProvider stand-in).
pub struct BatchProvider {
    scheduler: BatchScheduler,
    partition: String,
    account: String,
    walltime_ms: u64,
    flavor: &'static str,
}

impl BatchProvider {
    /// A Slurm-flavoured provider.
    pub fn slurm(
        scheduler: BatchScheduler,
        partition: impl Into<String>,
        account: impl Into<String>,
        walltime_ms: u64,
    ) -> Self {
        Self {
            scheduler,
            partition: partition.into(),
            account: account.into(),
            walltime_ms,
            flavor: "slurm",
        }
    }

    /// A PBSPro-flavoured provider (identical mechanics, different label —
    /// exactly the situation the Provider abstraction exists for).
    pub(crate) fn pbs(
        scheduler: BatchScheduler,
        partition: impl Into<String>,
        account: impl Into<String>,
        walltime_ms: u64,
    ) -> Self {
        Self {
            scheduler,
            partition: partition.into(),
            account: account.into(),
            walltime_ms,
            flavor: "pbs",
        }
    }
}

impl Provider for BatchProvider {
    fn submit_block(&self, num_nodes: u32) -> GcxResult<BlockHandle> {
        let id = self.scheduler.submit(JobRequest {
            num_nodes,
            walltime_ms: self.walltime_ms,
            partition: self.partition.clone(),
            account: self.account.clone(),
        })?;
        Ok(BlockHandle(id))
    }

    fn block_state(&self, block: BlockHandle) -> GcxResult<BlockState> {
        let info = self.scheduler.status(block.0)?;
        Ok(match info.state {
            JobState::Pending => BlockState::Pending,
            JobState::Running => BlockState::Running(info.nodes),
            JobState::Completed => BlockState::Done(BlockEndReason::Completed),
            JobState::Cancelled => BlockState::Done(BlockEndReason::Cancelled),
            JobState::TimedOut => BlockState::Done(BlockEndReason::Walltime),
            JobState::Preempted => BlockState::Done(BlockEndReason::Preempted),
            JobState::NodeFail => BlockState::Done(BlockEndReason::NodeFail),
        })
    }

    fn cancel_block(&self, block: BlockHandle) -> GcxResult<()> {
        // Completed/timed-out jobs are fine to "cancel" — idempotent release.
        match self.scheduler.status(block.0)?.state {
            JobState::Pending | JobState::Running => self.scheduler.cancel(block.0),
            _ => Ok(()),
        }
    }

    fn kind(&self) -> &'static str {
        self.flavor
    }
}

// ---------------------------------------------------------------------------
// Block supervision
// ---------------------------------------------------------------------------

struct SupervisorState {
    /// Consecutive losses since the last block reached Running.
    losses: u32,
    /// No submissions before this instant (backoff gate).
    next_submit_at: TimeMs,
}

/// Block-provisioning state machine shared by both engines: submissions go
/// through `request_block`, which refuses to re-hit
/// the scheduler until a capped exponential backoff (reset whenever a block
/// reaches `Running`) has elapsed after each loss.
pub struct BlockSupervisor {
    provider: Arc<dyn Provider>,
    clock: SharedClock,
    metrics: MetricsRegistry,
    backoff: RetryPolicy,
    kind: EngineKind,
    state: parking_lot::Mutex<SupervisorState>,
}

impl BlockSupervisor {
    /// Default re-provisioning backoff: 250 ms doubling to a 4 s cap, with
    /// deterministic jitter. The attempt budget is irrelevant here — a
    /// supervisor retries for as long as its engine wants capacity.
    pub(crate) fn default_backoff() -> RetryPolicy {
        RetryPolicy {
            max_attempts: u32::MAX,
            base_ms: 250,
            max_ms: 4_000,
            jitter: 0.2,
            seed: 0xB10C,
        }
    }

    /// Supervise `provider` for an engine of `kind`, emitting counters as
    /// `<kind>.blocks_lost` / `<kind>.blocks_reprovisioned`.
    pub(crate) fn new(
        provider: Arc<dyn Provider>,
        clock: SharedClock,
        metrics: MetricsRegistry,
        kind: EngineKind,
    ) -> Self {
        Self::with_backoff(provider, clock, metrics, kind, Self::default_backoff())
    }

    /// As `new`, with an explicit backoff policy.
    pub fn with_backoff(
        provider: Arc<dyn Provider>,
        clock: SharedClock,
        metrics: MetricsRegistry,
        kind: EngineKind,
        backoff: RetryPolicy,
    ) -> Self {
        Self {
            provider,
            clock,
            metrics,
            backoff,
            kind,
            state: parking_lot::Mutex::new(SupervisorState {
                losses: 0,
                next_submit_at: 0,
            }),
        }
    }

    /// The supervised provider (pass-through access for polling/cancel).
    pub(crate) fn provider(&self) -> &Arc<dyn Provider> {
        &self.provider
    }

    /// Request a block, unless the backoff gate is closed — then `None`.
    /// A provider-side submission error also counts as a loss (so a broken
    /// scheduler is retried with backoff, not hammered).
    pub(crate) fn request_block(&self, num_nodes: u32) -> Option<BlockHandle> {
        {
            let st = self.state.lock();
            if self.clock.now_ms() < st.next_submit_at {
                return None;
            }
        }
        match self.provider.submit_block(num_nodes) {
            Ok(handle) => {
                self.metrics
                    .counter(&format!("{}.blocks_requested", self.kind.as_str()))
                    .inc();
                if self.state.lock().losses > 0 {
                    self.metrics
                        .counter(&format!("{}.blocks_reprovisioned", self.kind.as_str()))
                        .inc();
                }
                Some(handle)
            }
            Err(_) => {
                self.note_lost(BlockEndReason::Unknown);
                None
            }
        }
    }

    /// A block reached `Running`: the resource layer is healthy again.
    pub(crate) fn note_running(&self) {
        self.state.lock().losses = 0;
    }

    /// A block (pending or running) was lost. Arms the backoff gate.
    pub(crate) fn note_lost(&self, reason: BlockEndReason) {
        let mut st = self.state.lock();
        st.losses = st.losses.saturating_add(1);
        let wait = self.backoff.backoff_ms(st.losses);
        st.next_submit_at = self.clock.now_ms().saturating_add(wait);
        drop(st);
        self.metrics
            .counter(&format!("{}.blocks_lost", self.kind.as_str()))
            .inc();
        self.metrics
            .counter(&format!(
                "{}.blocks_lost_{}",
                self.kind.as_str(),
                reason.as_str()
            ))
            .inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcx_batch::{ClusterSpec, ResourceFaultPlan, ResourceFaultRule};
    use gcx_core::clock::VirtualClock;

    #[test]
    fn local_provider_immediate_nodes() {
        let p = LocalProvider::new("laptop");
        let b = p.submit_block(3).unwrap();
        let BlockState::Running(nodes) = p.block_state(b).unwrap() else {
            panic!("local blocks run immediately")
        };
        assert_eq!(nodes, vec!["laptop-0", "laptop-1", "laptop-2"]);
        let b2 = p.submit_block(1).unwrap();
        let BlockState::Running(nodes2) = p.block_state(b2).unwrap() else {
            panic!()
        };
        assert_eq!(nodes2, vec!["laptop-3"], "node names never repeat");
        p.cancel_block(b).unwrap();
        assert_eq!(
            p.block_state(b).unwrap(),
            BlockState::Done(BlockEndReason::Cancelled)
        );
        assert!(p.cancel_block(b).is_err());
        assert_eq!(p.kind(), "local");
    }

    #[test]
    fn batch_provider_lifecycle() {
        let clock = VirtualClock::new();
        let sched = BatchScheduler::new(ClusterSpec::simple(2), clock.clone());
        let p = BatchProvider::slurm(sched, "cpu", "acct", 60_000);
        let b1 = p.submit_block(2).unwrap();
        assert!(matches!(p.block_state(b1).unwrap(), BlockState::Running(_)));
        // Cluster is full → next block queues.
        let b2 = p.submit_block(1).unwrap();
        assert_eq!(p.block_state(b2).unwrap(), BlockState::Pending);
        p.cancel_block(b1).unwrap();
        clock.advance(1);
        assert!(matches!(p.block_state(b2).unwrap(), BlockState::Running(_)));
        assert_eq!(p.kind(), "slurm");
    }

    #[test]
    fn batch_provider_walltime_surfaces_as_done() {
        let clock = VirtualClock::new();
        let sched = BatchScheduler::new(ClusterSpec::simple(1), clock.clone());
        let p = BatchProvider::pbs(sched, "cpu", "acct", 5_000);
        let b = p.submit_block(1).unwrap();
        clock.advance(5_000);
        assert_eq!(
            p.block_state(b).unwrap(),
            BlockState::Done(BlockEndReason::Walltime)
        );
        // Releasing an already-dead block is idempotent.
        p.cancel_block(b).unwrap();
        assert_eq!(p.kind(), "pbs");
    }

    #[test]
    fn batch_provider_surfaces_fault_reasons() {
        let clock = VirtualClock::new();
        let sched = BatchScheduler::new(ClusterSpec::simple(1), clock.clone());
        sched.set_fault_plan(Some(
            ResourceFaultPlan::new(1).with_rule(ResourceFaultRule::preempt("", 1.0, 2_000)),
        ));
        let p = BatchProvider::slurm(sched, "cpu", "acct", 60_000);
        let b = p.submit_block(1).unwrap();
        clock.advance(2_000);
        assert_eq!(
            p.block_state(b).unwrap(),
            BlockState::Done(BlockEndReason::Preempted)
        );
    }

    #[test]
    fn batch_provider_propagates_validation() {
        let clock = VirtualClock::new();
        let sched = BatchScheduler::new(ClusterSpec::simple(2), clock);
        let p = BatchProvider::slurm(sched, "nope", "acct", 60_000);
        assert!(p.submit_block(1).is_err());
    }

    #[test]
    fn supervisor_gates_resubmission_behind_backoff() {
        let clock = VirtualClock::new();
        let sched = BatchScheduler::new(ClusterSpec::simple(1), clock.clone());
        let provider: Arc<dyn Provider> =
            Arc::new(BatchProvider::slurm(sched, "cpu", "acct", 60_000));
        let metrics = MetricsRegistry::new();
        let sup = BlockSupervisor::with_backoff(
            provider,
            clock.clone(),
            metrics.clone(),
            EngineKind::Htex,
            RetryPolicy::fixed(u32::MAX, 1_000),
        );
        let b = sup.request_block(1).expect("first request goes through");
        sup.note_running();
        sup.note_lost(BlockEndReason::Walltime);
        assert!(
            sup.request_block(1).is_none(),
            "backoff gate must be closed right after a loss"
        );
        clock.advance(999);
        assert!(sup.request_block(1).is_none());
        clock.advance(1);
        // Gate open again; the old block still holds the node, so release it.
        sup.provider().cancel_block(b).unwrap();
        assert!(sup.request_block(1).is_some());
        assert_eq!(metrics.counter("htex.blocks_lost").get(), 1);
        assert_eq!(metrics.counter("htex.blocks_reprovisioned").get(), 1);
    }

    #[test]
    fn supervisor_backoff_doubles_then_resets_on_running() {
        let clock = VirtualClock::new();
        let provider: Arc<dyn Provider> = Arc::new(LocalProvider::new("h"));
        let sup = BlockSupervisor::with_backoff(
            provider,
            clock.clone(),
            MetricsRegistry::new(),
            EngineKind::Htex,
            RetryPolicy::fixed(u32::MAX, 100),
        );
        sup.note_lost(BlockEndReason::NodeFail);
        sup.note_lost(BlockEndReason::NodeFail); // 2nd consecutive loss → 200 ms
        clock.advance(199);
        assert!(sup.request_block(1).is_none());
        clock.advance(1);
        assert!(sup.request_block(1).is_some());
        sup.note_running(); // healthy → streak resets
        sup.note_lost(BlockEndReason::Walltime); // back to base backoff
        clock.advance(100);
        assert!(sup.request_block(1).is_some());
    }
}
