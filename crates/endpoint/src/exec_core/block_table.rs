//! The block-lifecycle state machine shared by every provider-backed
//! engine.
//!
//! A block moves through pending → running → dead; a *running* block can
//! additionally degrade when the batch layer reports fewer member nodes
//! than the table last saw (a node crash inside a live pilot job). The
//! table owns the [`BlockSupervisor`], so every observed loss arms the
//! capped-backoff re-provisioning gate and every promotion to Running
//! resets it — engines never talk to the supervisor directly.
//!
//! The table reports what happened as [`BlockEvent`]s; the execution core
//! turns those into in-flight task recovery, `BlockLost`/`BlockProvisioned`
//! engine events, and policy callbacks. The table itself never touches
//! tasks — it is a pure resource-census machine, which is what makes it
//! property-testable in isolation (see `tests/exec_core_props.rs`).

use std::collections::HashSet;

use crate::provider::{BlockEndReason, BlockHandle, BlockState, BlockSupervisor};

/// How many nodes per block, and how many blocks at most.
#[derive(Debug, Clone, Copy)]
pub struct BlockShape {
    /// Nodes requested per block.
    pub nodes_per_block: u32,
    /// Maximum concurrent blocks (pending + running).
    pub max_blocks: u32,
}

/// What one [`BlockTable::poll`] observed about a block.
#[derive(Debug, Clone)]
pub enum BlockEvent {
    /// A requested block reached Running on these nodes.
    Provisioned {
        /// The block.
        block: BlockHandle,
        /// Its member nodes.
        nodes: Vec<String>,
    },
    /// Member nodes of a still-running block died; the block stays up,
    /// degraded to `remaining`.
    NodesLost {
        /// The degraded block.
        block: BlockHandle,
        /// Nodes that disappeared from the census.
        dead: HashSet<String>,
        /// Surviving membership.
        remaining: Vec<String>,
    },
    /// A block ended (pending blocks die with an empty `nodes` list).
    Died {
        /// The dead block.
        block: BlockHandle,
        /// Why it ended.
        reason: BlockEndReason,
        /// Last known membership.
        nodes: Vec<String>,
    },
}

/// Pending/running/degraded/dead transitions for every block an engine
/// holds, driven by [`BlockSupervisor`] polls.
pub struct BlockTable {
    supervisor: BlockSupervisor,
    shape: BlockShape,
    pending: Vec<BlockHandle>,
    running: Vec<(BlockHandle, Vec<String>)>,
}

impl BlockTable {
    /// An empty table over `supervisor`, requesting blocks of `shape`.
    pub fn new(supervisor: BlockSupervisor, shape: BlockShape) -> Self {
        Self {
            supervisor,
            shape,
            pending: Vec::new(),
            running: Vec::new(),
        }
    }

    /// Request one more block if under `max_blocks` and the supervisor's
    /// backoff gate is open. Returns whether a request was made.
    pub fn try_grow(&mut self) -> bool {
        if !self.can_grow() {
            return false;
        }
        match self.supervisor.request_block(self.shape.nodes_per_block) {
            Some(handle) => {
                self.pending.push(handle);
                true
            }
            None => false,
        }
    }

    /// Whether the table is under `max_blocks`, so that only the
    /// supervisor's backoff gate stands between a backlog and a request.
    pub fn can_grow(&self) -> bool {
        self.running.len() + self.pending.len() < self.shape.max_blocks as usize
    }

    /// Poll every tracked block once and fold the observations into
    /// transitions. Each event corresponds to exactly one transition; a
    /// block that reaches [`BlockEvent::Died`] is removed from the table
    /// and can never produce another event (no double-free).
    pub fn poll(&mut self) -> Vec<BlockEvent> {
        let mut events = Vec::new();

        let mut still_pending = Vec::new();
        for block in std::mem::take(&mut self.pending) {
            match self.supervisor.provider().block_state(block) {
                Ok(BlockState::Pending) => still_pending.push(block),
                Ok(BlockState::Running(nodes)) => {
                    self.supervisor.note_running();
                    self.running.push((block, nodes.clone()));
                    events.push(BlockEvent::Provisioned { block, nodes });
                }
                Ok(BlockState::Done(reason)) => {
                    self.supervisor.note_lost(reason);
                    events.push(BlockEvent::Died {
                        block,
                        reason,
                        nodes: Vec::new(),
                    });
                }
                Err(_) => {
                    self.supervisor.note_lost(BlockEndReason::Unknown);
                    events.push(BlockEvent::Died {
                        block,
                        reason: BlockEndReason::Unknown,
                        nodes: Vec::new(),
                    });
                }
            }
        }
        self.pending = still_pending;

        let mut still_running = Vec::new();
        for (block, members) in std::mem::take(&mut self.running) {
            match self.supervisor.provider().block_state(block) {
                Ok(BlockState::Running(current)) => {
                    let live: HashSet<&str> = current.iter().map(String::as_str).collect();
                    let dead: HashSet<String> = members
                        .iter()
                        .filter(|n| !live.contains(n.as_str()))
                        .cloned()
                        .collect();
                    if !dead.is_empty() {
                        // Node crash inside a live block. Crashed nodes
                        // leave the census for good — if the batch system
                        // later revives them they rejoin the *cluster's*
                        // free pool, never a running job's.
                        self.supervisor.note_lost(BlockEndReason::NodeFail);
                        events.push(BlockEvent::NodesLost {
                            block,
                            dead,
                            remaining: current.clone(),
                        });
                    }
                    still_running.push((block, current));
                }
                Ok(BlockState::Pending) => still_running.push((block, members)),
                Ok(BlockState::Done(reason)) => {
                    self.supervisor.note_lost(reason);
                    events.push(BlockEvent::Died {
                        block,
                        reason,
                        nodes: members,
                    });
                }
                Err(_) => {
                    self.supervisor.note_lost(BlockEndReason::Unknown);
                    events.push(BlockEvent::Died {
                        block,
                        reason: BlockEndReason::Unknown,
                        nodes: members,
                    });
                }
            }
        }
        self.running = still_running;

        events
    }

    /// Release a tracked block without counting it as a loss: cancel it at
    /// the provider and forget it. Used when the policy declares a degraded
    /// block unviable — the loss that degraded it already armed the backoff
    /// gate, so the replacement request is gated but not double-penalized.
    pub fn release(&mut self, block: BlockHandle) {
        let _ = self.supervisor.provider().cancel_block(block);
        self.pending.retain(|b| *b != block);
        self.running.retain(|(b, _)| *b != block);
    }

    /// Cancel every tracked block (shutdown path).
    pub fn shutdown(&mut self) {
        for block in self.pending.drain(..) {
            let _ = self.supervisor.provider().cancel_block(block);
        }
        for (block, _) in self.running.drain(..) {
            let _ = self.supervisor.provider().cancel_block(block);
        }
    }

    /// Blocks currently Running.
    pub fn blocks(&self) -> usize {
        self.running.len()
    }

    /// Blocks requested but not yet Running.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Total member nodes across running blocks.
    pub fn nodes(&self) -> usize {
        self.running.iter().map(|(_, n)| n.len()).sum()
    }

    /// Member nodes of one running block, if tracked.
    pub fn members(&self, block: BlockHandle) -> Option<&[String]> {
        self.running
            .iter()
            .find(|(b, _)| *b == block)
            .map(|(_, n)| n.as_slice())
    }

    /// The supervisor (stats access for expositions).
    pub fn supervisor(&self) -> &BlockSupervisor {
        &self.supervisor
    }
}
