//! Property-based tests for the execution core's block-lifecycle state
//! machine ([`BlockTable`]): under arbitrary provider behaviour —
//! out-of-order promotions, mid-run node crashes, whole-block deaths,
//! submission failures — the table
//!
//! - never double-frees a block (a `Died` block never produces another
//!   event and is no longer tracked),
//! - conserves nodes (membership only shrinks, and every shrink is
//!   reported exactly once as `NodesLost` with `dead + remaining ==
//!   previous membership`),
//! - keeps its census consistent with the provider's, and
//! - never exceeds `max_blocks` in tracked blocks.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU32, Ordering};

use gcx_core::clock::SystemClock;
use gcx_core::error::{GcxError, GcxResult};
use gcx_core::ids::JobId;
use gcx_core::metrics::MetricsRegistry;
use gcx_core::retry::RetryPolicy;
use gcx_endpoint::exec_core::{BlockEvent, BlockShape, BlockTable};
use gcx_endpoint::provider::{BlockEndReason, BlockHandle, BlockState, BlockSupervisor, Provider};
use gcx_endpoint::EngineKind;
use proptest::prelude::*;

/// A provider whose blocks do exactly what the test script says: submitted
/// blocks start `Pending` and only change state through [`ScriptedProvider`]
/// mutators, so the proptest drives every lifecycle edge explicitly.
#[derive(Default)]
struct ScriptedProvider {
    counter: AtomicU32,
    /// Reserved node names and current state per block, in submission order.
    blocks: parking_lot::Mutex<Vec<(BlockHandle, Vec<String>, BlockState)>>,
    /// When set, the next `submit_block` fails (a scheduler rejection).
    fail_next: AtomicU32,
}

impl ScriptedProvider {
    /// Promote the `i % pending`-th still-pending block to Running.
    fn promote(&self, i: usize) {
        let mut blocks = self.blocks.lock();
        let pending: Vec<usize> = blocks
            .iter()
            .enumerate()
            .filter(|(_, (_, _, st))| matches!(st, BlockState::Pending))
            .map(|(idx, _)| idx)
            .collect();
        if pending.is_empty() {
            return;
        }
        let idx = pending[i % pending.len()];
        let nodes = blocks[idx].1.clone();
        blocks[idx].2 = BlockState::Running(nodes);
    }

    /// Crash one node of the `i % running`-th running block.
    fn crash_node(&self, i: usize, j: usize) {
        let mut blocks = self.blocks.lock();
        let running: Vec<usize> = blocks
            .iter()
            .enumerate()
            .filter(|(_, (_, _, st))| matches!(st, BlockState::Running(n) if !n.is_empty()))
            .map(|(idx, _)| idx)
            .collect();
        if running.is_empty() {
            return;
        }
        let idx = running[i % running.len()];
        if let BlockState::Running(nodes) = &mut blocks[idx].2 {
            nodes.remove(j % nodes.len());
        }
    }

    /// End the `i % live`-th non-terminal block with `reason`.
    fn kill(&self, i: usize, reason: BlockEndReason) {
        let mut blocks = self.blocks.lock();
        let live: Vec<usize> = blocks
            .iter()
            .enumerate()
            .filter(|(_, (_, _, st))| !matches!(st, BlockState::Done(_)))
            .map(|(idx, _)| idx)
            .collect();
        if live.is_empty() {
            return;
        }
        let idx = live[i % live.len()];
        blocks[idx].2 = BlockState::Done(reason);
    }

    /// The provider's current census for `block`, if Running.
    fn census(&self, block: BlockHandle) -> Option<Vec<String>> {
        self.blocks.lock().iter().find_map(|(b, _, st)| match st {
            BlockState::Running(nodes) if *b == block => Some(nodes.clone()),
            _ => None,
        })
    }
}

impl Provider for ScriptedProvider {
    fn submit_block(&self, num_nodes: u32) -> GcxResult<BlockHandle> {
        if self.fail_next.swap(0, Ordering::Relaxed) != 0 {
            return Err(GcxError::Scheduler("scripted submission failure".into()));
        }
        let base = self.counter.fetch_add(num_nodes, Ordering::Relaxed);
        let handle = BlockHandle(JobId::random());
        let nodes = (0..num_nodes).map(|i| format!("n{}", base + i)).collect();
        self.blocks
            .lock()
            .push((handle, nodes, BlockState::Pending));
        Ok(handle)
    }

    fn block_state(&self, block: BlockHandle) -> GcxResult<BlockState> {
        self.blocks
            .lock()
            .iter()
            .find(|(b, _, _)| *b == block)
            .map(|(_, _, st)| st.clone())
            .ok_or_else(|| GcxError::Scheduler("unknown block".into()))
    }

    fn cancel_block(&self, block: BlockHandle) -> GcxResult<()> {
        let mut blocks = self.blocks.lock();
        if let Some(entry) = blocks.iter_mut().find(|(b, _, _)| *b == block) {
            entry.2 = BlockState::Done(BlockEndReason::Cancelled);
        }
        Ok(())
    }

    fn kind(&self) -> &'static str {
        "scripted"
    }
}

#[derive(Debug, Clone)]
enum Op {
    Grow,
    FailNextSubmitThenGrow,
    Promote(usize),
    CrashNode(usize, usize),
    Kill(usize, u8),
    ReleaseRunning(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => Just(Op::Grow),
        1 => Just(Op::FailNextSubmitThenGrow),
        3 => (0usize..8).prop_map(Op::Promote),
        2 => ((0usize..8), (0usize..8)).prop_map(|(i, j)| Op::CrashNode(i, j)),
        2 => ((0usize..8), (0u8..4)).prop_map(|(i, r)| Op::Kill(i, r)),
        1 => (0usize..8).prop_map(Op::ReleaseRunning),
    ]
}

fn reason_for(r: u8) -> BlockEndReason {
    match r {
        0 => BlockEndReason::Walltime,
        1 => BlockEndReason::Preempted,
        2 => BlockEndReason::NodeFail,
        _ => BlockEndReason::Unknown,
    }
}

/// Zero-backoff supervisor so `try_grow` is never gated by time — the
/// proptest exercises the table's transitions, not the backoff schedule
/// (that is covered by the supervisor's own unit tests).
fn table(provider: std::sync::Arc<ScriptedProvider>, shape: BlockShape) -> BlockTable {
    let supervisor = BlockSupervisor::with_backoff(
        provider,
        SystemClock::shared(),
        MetricsRegistry::new(),
        EngineKind::Htex,
        RetryPolicy::none(),
    );
    BlockTable::new(supervisor, shape)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Apply a random op sequence; after every op, poll once and check the
    /// state-machine invariants listed in the module docs.
    #[test]
    fn block_table_conserves_nodes_and_never_double_frees(
        nodes_per_block in 1u32..4,
        max_blocks in 1u32..4,
        ops in prop::collection::vec(op_strategy(), 1..50),
    ) {
        let provider = std::sync::Arc::new(ScriptedProvider::default());
        let mut table = table(provider.clone(), BlockShape { nodes_per_block, max_blocks });

        let mut died: HashSet<BlockHandle> = HashSet::new();
        let mut membership: HashMap<BlockHandle, usize> = HashMap::new();

        for op in ops {
            match op {
                Op::Grow => {
                    // A table that says it cannot grow never does: the
                    // driver stops polling for the backoff gate on that
                    // answer. (One that can may still be refused by the
                    // provider — a submit failure armed by an earlier op.)
                    let could = table.can_grow();
                    let grew = table.try_grow();
                    prop_assert!(could || !grew, "grew past max_blocks");
                }
                Op::FailNextSubmitThenGrow => {
                    provider.fail_next.store(1, Ordering::Relaxed);
                    // A failed submission must not leak a tracked block.
                    prop_assert!(!table.try_grow());
                }
                Op::Promote(i) => provider.promote(i),
                Op::CrashNode(i, j) => provider.crash_node(i, j),
                Op::Kill(i, r) => provider.kill(i, reason_for(r)),
                Op::ReleaseRunning(i) => {
                    // Releasing cancels at the provider and forgets the block
                    // without an event; later polls must not resurrect it.
                    let mut live: Vec<BlockHandle> = membership.keys().copied().collect();
                    live.sort_by_key(|b| b.0);
                    if !live.is_empty() {
                        let block = live[i % live.len()];
                        table.release(block);
                        membership.remove(&block);
                    }
                }
            }

            for event in table.poll() {
                match event {
                    BlockEvent::Provisioned { block, nodes } => {
                        prop_assert!(!died.contains(&block), "provisioned after death");
                        prop_assert_eq!(nodes.len() as u32, nodes_per_block);
                        membership.insert(block, nodes.len());
                    }
                    BlockEvent::NodesLost { block, dead, remaining } => {
                        prop_assert!(!died.contains(&block), "nodes lost after death");
                        prop_assert!(!dead.is_empty(), "empty NodesLost event");
                        for d in &dead {
                            prop_assert!(!remaining.contains(d), "node both dead and remaining");
                        }
                        let before = membership.get(&block).copied().unwrap_or(0);
                        prop_assert_eq!(
                            dead.len() + remaining.len(), before,
                            "membership leak: {} dead + {} remaining != {} before",
                            dead.len(), remaining.len(), before
                        );
                        membership.insert(block, remaining.len());
                    }
                    BlockEvent::Died { block, nodes, .. } => {
                        prop_assert!(died.insert(block), "double-free: second Died for block");
                        if let Some(before) = membership.remove(&block) {
                            prop_assert_eq!(nodes.len(), before, "Died census mismatch");
                        } else {
                            prop_assert!(nodes.is_empty(), "pending block died with nodes");
                        }
                    }
                }
            }

            // ---- invariants over the folded state ----
            prop_assert!(
                table.blocks() + table.pending() <= max_blocks as usize,
                "tracked blocks exceed max_blocks"
            );
            prop_assert_eq!(
                table.nodes(),
                membership.values().sum::<usize>(),
                "table node count diverged from event-folded membership"
            );
            for (block, count) in &membership {
                // Dead blocks are untracked; running ones match the
                // provider's census exactly.
                prop_assert!(!died.contains(block));
                let members = table.members(*block).map(<[String]>::to_vec);
                prop_assert_eq!(members.as_ref().map(Vec::len), Some(*count));
                prop_assert_eq!(members, provider.census(*block));
            }
            for block in &died {
                prop_assert!(table.members(*block).is_none(), "dead block still tracked");
            }
        }
    }

    /// `release` is the policy-initiated teardown path: it must cancel at
    /// the provider, forget the block, and never emit a `Died` event for it
    /// on later polls (the caller already accounted for the loss).
    #[test]
    fn released_blocks_never_produce_events(
        nodes_per_block in 1u32..4,
        kill_instead in any::<bool>(),
    ) {
        let provider = std::sync::Arc::new(ScriptedProvider::default());
        let mut table = table(provider.clone(), BlockShape { nodes_per_block, max_blocks: 1 });
        prop_assert!(table.try_grow());
        provider.promote(0);
        let events = table.poll();
        prop_assert_eq!(events.len(), 1);
        let BlockEvent::Provisioned { block, .. } = events[0].clone() else {
            panic!("expected Provisioned");
        };

        if kill_instead {
            // Baseline: an unreleased block that dies *does* produce Died.
            provider.kill(0, BlockEndReason::Walltime);
            let died_of_walltime = matches!(
                table.poll().as_slice(),
                [BlockEvent::Died { reason: BlockEndReason::Walltime, .. }]
            );
            prop_assert!(died_of_walltime);
        } else {
            table.release(block);
            prop_assert!(provider.census(block).is_none(), "release did not cancel");
            for _ in 0..3 {
                prop_assert!(table.poll().is_empty(), "event after release");
            }
            prop_assert_eq!(table.blocks() + table.pending(), 0);
        }
    }
}
