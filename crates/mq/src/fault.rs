//! Deterministic fault injection for the broker.
//!
//! A [`FaultPlan`] is a scripted set of [`FaultRule`]s the broker consults on
//! every publish and every delivery: messages can be dropped, duplicated, or
//! delayed, and whole queues can be partitioned for a window of (broker
//! clock) time. All randomness comes from a SplitMix64 stream seeded by the
//! plan, advanced only when a probabilistic rule actually fires a draw — so
//! a test that scripts the same event sequence over a virtual clock sees the
//! same faults every run.
//!
//! Semantics:
//!
//! - **Publish drop** — the message is lost after the publisher's confirm
//!   (lost in transit to the queue). The publisher does not see an error;
//!   recovery is the consumer-side redelivery/retry machinery's job.
//! - **Deliver drop** — the delivery is lost on the way to the consumer: the
//!   message returns to the back of the queue with its delivery count
//!   charged, so repeated losses eventually dead-letter it.
//! - **Duplicate** — the queue receives an extra copy (at-least-once
//!   delivery, exactly what AMQP permits).
//! - **Delay** — the publisher is charged extra link time.
//! - **Partition** — a rule with `drop_p >= 1.0` on the deliver direction
//!   blocks deliveries outright (no draws consumed), simulating a network
//!   partition until its window closes.

use gcx_core::retry::splitmix64;
use std::sync::atomic::{AtomicU64, Ordering};

/// Which side of the broker a rule applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDirection {
    /// Client → queue (publishes).
    Publish,
    /// Queue → consumer (deliveries).
    Deliver,
    /// Both directions.
    Both,
}

impl FaultDirection {
    fn covers_publish(self) -> bool {
        matches!(self, FaultDirection::Publish | FaultDirection::Both)
    }

    fn covers_deliver(self) -> bool {
        matches!(self, FaultDirection::Deliver | FaultDirection::Both)
    }
}

/// One scripted fault: which queues, which direction, what misbehaviour,
/// and when.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    /// Applies to queues whose name starts with this prefix ("" = all).
    pub(crate) queue_prefix: String,
    /// Which side of the broker misbehaves.
    pub(crate) direction: FaultDirection,
    /// Probability a message is dropped (`>= 1.0` = always, a partition).
    pub(crate) drop_p: f64,
    /// Probability a published message is enqueued twice.
    pub(crate) duplicate_p: f64,
    /// Extra latency charged to every matching publish, in ms.
    pub(crate) extra_delay_ms: u64,
    /// Active windows `[start_ms, end_ms)` on the broker clock; empty =
    /// always active.
    pub(crate) windows: Vec<(u64, u64)>,
}

impl FaultRule {
    /// A rule matching `queue_prefix` in `direction` with no faults; chain
    /// the field setters or use the shorthand constructors below.
    pub fn new(queue_prefix: impl Into<String>, direction: FaultDirection) -> Self {
        Self {
            queue_prefix: queue_prefix.into(),
            direction,
            drop_p: 0.0,
            duplicate_p: 0.0,
            extra_delay_ms: 0,
            windows: Vec::new(),
        }
    }

    /// Drop matching messages with probability `p`.
    pub fn drop(queue_prefix: impl Into<String>, direction: FaultDirection, p: f64) -> Self {
        Self {
            drop_p: p,
            ..Self::new(queue_prefix, direction)
        }
    }

    /// Duplicate matching publishes with probability `p`.
    pub fn duplicate(queue_prefix: impl Into<String>, p: f64) -> Self {
        Self {
            duplicate_p: p,
            ..Self::new(queue_prefix, FaultDirection::Publish)
        }
    }

    /// Add `ms` of latency to every matching publish.
    pub fn delay(queue_prefix: impl Into<String>, ms: u64) -> Self {
        Self {
            extra_delay_ms: ms,
            ..Self::new(queue_prefix, FaultDirection::Publish)
        }
    }

    /// Sever matching queues in both directions for `[from_ms, until_ms)`.
    pub fn partition(queue_prefix: impl Into<String>, from_ms: u64, until_ms: u64) -> Self {
        Self {
            drop_p: 1.0,
            windows: vec![(from_ms, until_ms)],
            ..Self::new(queue_prefix, FaultDirection::Both)
        }
    }

    /// Restrict the rule to `[start_ms, end_ms)`; may be called repeatedly
    /// for multiple windows.
    pub fn during(mut self, start_ms: u64, end_ms: u64) -> Self {
        self.windows.push((start_ms, end_ms));
        self
    }

    fn active(&self, queue: &str, now_ms: u64) -> bool {
        queue.starts_with(&self.queue_prefix)
            && (self.windows.is_empty()
                || self.windows.iter().any(|&(s, e)| (s..e).contains(&now_ms)))
    }
}

/// A scripted replica-level fault (federated-cloud chaos): the federation
/// layer polls [`FaultPlan::replica_actions_due`] on its clock and applies
/// each due action to the named replica. The broker itself ignores these —
/// they script *process* faults, not message faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaAction {
    /// Hard-kill the replica: it stops heartbeating and serving requests;
    /// the liveness sweep declares it dead and hands its ranges over.
    Kill,
    /// Sever the replica from its peers until `until_ms` (broker clock):
    /// heartbeats and inter-replica processing stop, but the process stays
    /// up and resumes (possibly as a stale ex-owner) when the window closes.
    Partition { until_ms: u64 },
    /// Restart a previously killed replica with fresh (empty) state; it
    /// re-seeds metadata from a survivor and rejoins the ring.
    Restart,
}

/// One scheduled [`ReplicaAction`]: which replica, when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaFaultRule {
    /// Replica index the action applies to.
    pub replica: u32,
    /// When the action fires (broker clock, ms).
    pub(crate) at_ms: u64,
    /// What happens.
    pub action: ReplicaAction,
}

impl ReplicaFaultRule {
    /// Kill `replica` at `at_ms`.
    pub fn kill(replica: u32, at_ms: u64) -> Self {
        Self {
            replica,
            at_ms,
            action: ReplicaAction::Kill,
        }
    }

    /// Partition `replica` for `[at_ms, until_ms)`.
    pub fn partition(replica: u32, at_ms: u64, until_ms: u64) -> Self {
        Self {
            replica,
            at_ms,
            action: ReplicaAction::Partition { until_ms },
        }
    }

    /// Restart `replica` at `at_ms`.
    pub fn restart(replica: u32, at_ms: u64) -> Self {
        Self {
            replica,
            at_ms,
            action: ReplicaAction::Restart,
        }
    }
}

/// What the broker should do with one publish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PublishOutcome {
    /// Enqueue `1 + extra_copies` copies after charging `extra_delay_ms`.
    Deliver {
        extra_copies: u32,
        extra_delay_ms: u64,
    },
    /// Lose the message in transit (after charging `extra_delay_ms`).
    Drop { extra_delay_ms: u64 },
}

/// A seeded script of fault rules. Cheap to share; the broker holds one
/// behind an `Arc`.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
    replica_rules: Vec<ReplicaFaultRule>,
    draws: AtomicU64,
}

impl Clone for FaultPlan {
    fn clone(&self) -> Self {
        Self {
            seed: self.seed,
            rules: self.rules.clone(),
            replica_rules: self.replica_rules.clone(),
            draws: AtomicU64::new(self.draws.load(Ordering::Relaxed)),
        }
    }
}

impl FaultPlan {
    /// An empty plan drawing from `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            rules: Vec::new(),
            replica_rules: Vec::new(),
            draws: AtomicU64::new(0),
        }
    }

    /// Add a rule.
    pub fn with_rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Add a scheduled replica action.
    pub fn with_replica_rule(mut self, rule: ReplicaFaultRule) -> Self {
        self.replica_rules.push(rule);
        self
    }

    /// Replica actions due in `(after_ms, now_ms]`, in schedule order. The
    /// federation driver polls this with a watermark so each action fires
    /// exactly once; draw-free, so polling never perturbs message faults.
    pub fn replica_actions_due(&self, after_ms: u64, now_ms: u64) -> Vec<ReplicaFaultRule> {
        let mut due: Vec<ReplicaFaultRule> = self
            .replica_rules
            .iter()
            .filter(|r| r.at_ms > after_ms && r.at_ms <= now_ms)
            .copied()
            .collect();
        due.sort_by_key(|r| (r.at_ms, r.replica));
        due
    }

    /// One uniform draw in `[0, 1)`; consumed only for probabilistic rules.
    fn draw(&self) -> f64 {
        let n = self.draws.fetch_add(1, Ordering::Relaxed);
        let bits = splitmix64(self.seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        (bits >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli trial that never consumes a draw for the degenerate
    /// certainties, keeping partitions draw-free.
    fn chance(&self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.draw() < p
        }
    }

    /// Decide the fate of a publish to `queue` at `now_ms`.
    pub(crate) fn on_publish(&self, queue: &str, now_ms: u64) -> PublishOutcome {
        let mut extra_delay_ms = 0;
        let mut extra_copies = 0;
        let mut dropped = false;
        for rule in &self.rules {
            if !rule.direction.covers_publish() || !rule.active(queue, now_ms) {
                continue;
            }
            extra_delay_ms += rule.extra_delay_ms;
            if self.chance(rule.drop_p) {
                dropped = true;
            }
            if self.chance(rule.duplicate_p) {
                extra_copies += 1;
            }
        }
        if dropped {
            PublishOutcome::Drop { extra_delay_ms }
        } else {
            PublishOutcome::Deliver {
                extra_copies,
                extra_delay_ms,
            }
        }
    }

    /// True if a delivery popped from `queue` at `now_ms` should be lost.
    pub(crate) fn on_deliver(&self, queue: &str, now_ms: u64) -> bool {
        self.rules
            .iter()
            .filter(|r| r.direction.covers_deliver() && r.active(queue, now_ms))
            .any(|r| self.chance(r.drop_p))
    }

    /// True if deliveries from `queue` are certainly blocked at `now_ms`
    /// (an active deliver-side rule with `drop_p >= 1.0`). Pure — consumers
    /// may poll it without consuming draws.
    pub(crate) fn blocks_deliveries(&self, queue: &str, now_ms: u64) -> bool {
        self.rules
            .iter()
            .any(|r| r.direction.covers_deliver() && r.active(queue, now_ms) && r.drop_p >= 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_transparent() {
        let plan = FaultPlan::new(1);
        assert_eq!(
            plan.on_publish("tasks.ep", 0),
            PublishOutcome::Deliver {
                extra_copies: 0,
                extra_delay_ms: 0
            }
        );
        assert!(!plan.on_deliver("tasks.ep", 0));
        assert!(!plan.blocks_deliveries("tasks.ep", 0));
    }

    #[test]
    fn partitions_are_windowed_and_draw_free() {
        let plan = FaultPlan::new(9).with_rule(FaultRule::partition("tasks.", 100, 200));
        assert!(!plan.blocks_deliveries("tasks.ep", 99));
        assert!(plan.blocks_deliveries("tasks.ep", 100));
        assert!(plan.blocks_deliveries("tasks.ep", 199));
        assert!(!plan.blocks_deliveries("tasks.ep", 200));
        assert!(
            !plan.blocks_deliveries("results.ep", 150),
            "prefix must match"
        );
        // Certain drops must not consume RNG draws (poll loops hit them).
        assert!(matches!(
            plan.on_publish("tasks.ep", 150),
            PublishOutcome::Drop { .. }
        ));
        assert!(plan.on_deliver("tasks.ep", 150));
        assert_eq!(plan.draws.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn probabilistic_drops_are_seed_deterministic() {
        let run = |seed| {
            let plan =
                FaultPlan::new(seed).with_rule(FaultRule::drop("q", FaultDirection::Publish, 0.5));
            (0..64)
                .map(|_| matches!(plan.on_publish("q", 0), PublishOutcome::Drop { .. }))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7), "same seed, same fault sequence");
        assert_ne!(run(7), run(8), "different seed, different sequence");
        let drops = run(7).iter().filter(|d| **d).count();
        assert!((16..=48).contains(&drops), "≈half dropped, got {drops}");
    }

    #[test]
    fn duplicates_and_delays_accumulate() {
        let plan = FaultPlan::new(3)
            .with_rule(FaultRule::duplicate("q", 1.0))
            .with_rule(FaultRule::delay("q", 25));
        match plan.on_publish("q", 0) {
            PublishOutcome::Deliver {
                extra_copies,
                extra_delay_ms,
            } => {
                assert_eq!(extra_copies, 1);
                assert_eq!(extra_delay_ms, 25);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn replica_actions_fire_once_per_watermark_window() {
        let plan = FaultPlan::new(5)
            .with_replica_rule(ReplicaFaultRule::kill(1, 100))
            .with_replica_rule(ReplicaFaultRule::partition(2, 150, 400))
            .with_replica_rule(ReplicaFaultRule::restart(1, 300));
        assert!(plan.replica_actions_due(0, 99).is_empty());
        let first = plan.replica_actions_due(0, 200);
        assert_eq!(
            first,
            vec![
                ReplicaFaultRule::kill(1, 100),
                ReplicaFaultRule::partition(2, 150, 400)
            ],
            "due actions arrive in schedule order"
        );
        // Advancing the watermark makes the window half-open: nothing
        // re-fires, the restart fires exactly once.
        assert_eq!(
            plan.replica_actions_due(200, 1_000),
            vec![ReplicaFaultRule::restart(1, 300)]
        );
        // Replica schedules never consume RNG draws.
        assert_eq!(plan.draws.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn windows_can_stack() {
        let rule = FaultRule::drop("q", FaultDirection::Deliver, 1.0)
            .during(0, 10)
            .during(20, 30);
        let plan = FaultPlan::new(0).with_rule(rule);
        assert!(plan.blocks_deliveries("q", 5));
        assert!(!plan.blocks_deliveries("q", 15));
        assert!(plan.blocks_deliveries("q", 25));
    }
}
