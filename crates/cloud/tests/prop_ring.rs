//! Property tests for the federation's consistent-hash ring (`HashRing`):
//! the two invariants failure handover leans on.
//!
//! 1. **Load balance.** With the default virtual-node count, no replica's
//!    share of a key population strays far from the fair share — otherwise
//!    one replica would own most tasks and its death would orphan most of
//!    the fleet.
//! 2. **Minimal movement.** A membership change only moves keys whose arc
//!    the joining replica takes over (join) or the leaving replica donates
//!    (leave). Survivor→survivor moves would invalidate the handover
//!    protocol, which replays exactly the dead replica's task log.

use gcx_cloud::{HashRing, ReplicaId};
use gcx_core::ids::Uuid;
use proptest::prelude::*;

/// Deterministic key population: seeds drive splitmix-style uuids through
/// the same fold the production ring uses.
fn keys(seed: u64, n: usize) -> Vec<Uuid> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let hi = state;
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            Uuid((u128::from(hi) << 64) | u128::from(state))
        })
        .collect()
}

fn ring_of(n: u32) -> HashRing {
    let mut ring = HashRing::default();
    for r in 0..n {
        ring.add(ReplicaId(r));
    }
    ring
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// With 128 vnodes per replica, every replica's load stays within a
    /// factor of the fair share across 1–8 replicas. The bound (max ≤ 2×
    /// fair, min ≥ fair/3) is loose enough to be seed-independent yet tight
    /// enough that a broken point distribution (e.g. unsalted vnodes) fails.
    #[test]
    fn load_stays_near_fair_share(
        replicas in 1u32..=8,
        seed in any::<u64>(),
    ) {
        const KEYS: usize = 4096;
        let ring = ring_of(replicas);
        let mut counts = vec![0usize; replicas as usize];
        for id in keys(seed, KEYS) {
            counts[ring.owner(id).unwrap().0 as usize] += 1;
        }
        let fair = KEYS as f64 / f64::from(replicas);
        for (r, &c) in counts.iter().enumerate() {
            prop_assert!(
                (c as f64) <= fair * 2.0,
                "replica {r} owns {c} of {KEYS} keys (fair share {fair:.0})"
            );
            prop_assert!(
                (c as f64) >= fair / 3.0,
                "replica {r} owns only {c} of {KEYS} keys (fair share {fair:.0})"
            );
        }
    }

    /// A replica joining moves keys *to the joiner only*: no key changes
    /// owner between two survivors.
    #[test]
    fn join_moves_keys_only_to_the_joiner(
        replicas in 1u32..8,
        seed in any::<u64>(),
    ) {
        let mut ring = ring_of(replicas);
        let ids = keys(seed, 2048);
        let before: Vec<ReplicaId> = ids.iter().map(|id| ring.owner(*id).unwrap()).collect();
        let joiner = ReplicaId(replicas);
        ring.add(joiner);
        let mut moved = 0usize;
        for (id, old) in ids.iter().zip(&before) {
            let new = ring.owner(*id).unwrap();
            if new != *old {
                prop_assert_eq!(new, joiner, "key moved between two survivors on join");
                moved += 1;
            }
        }
        // The joiner takes roughly its fair share of the arcs — and never
        // more than twice it (same tolerance as the balance bound).
        let fair = ids.len() as f64 / f64::from(replicas + 1);
        prop_assert!(
            (moved as f64) <= fair * 2.0,
            "join moved {moved} keys, more than twice the fair share {fair:.0}"
        );
    }

    /// A replica leaving moves *only the leaver's* keys, each to some
    /// survivor. This is exactly the handover contract: replaying the dead
    /// replica's log re-homes every orphan, and nothing else budges.
    #[test]
    fn leave_moves_only_the_leavers_keys(
        replicas in 2u32..=8,
        victim_ix in 0u32..8,
        seed in any::<u64>(),
    ) {
        let victim = ReplicaId(victim_ix % replicas);
        let mut ring = ring_of(replicas);
        let ids = keys(seed, 2048);
        let before: Vec<ReplicaId> = ids.iter().map(|id| ring.owner(*id).unwrap()).collect();
        ring.remove(victim);
        for (id, old) in ids.iter().zip(&before) {
            let new = ring.owner(*id).unwrap();
            if *old == victim {
                prop_assert!(new != victim, "orphaned key still maps to the dead replica");
            } else {
                prop_assert_eq!(new, *old, "key not owned by the leaver moved");
            }
        }
    }

    /// Join followed by the same leave is a no-op for every key: ownership
    /// is a pure function of the member set, not of membership history.
    #[test]
    fn membership_history_does_not_matter(
        replicas in 1u32..8,
        seed in any::<u64>(),
    ) {
        let mut ring = ring_of(replicas);
        let ids = keys(seed, 1024);
        let before: Vec<ReplicaId> = ids.iter().map(|id| ring.owner(*id).unwrap()).collect();
        let extra = ReplicaId(replicas + 7);
        ring.add(extra);
        ring.remove(extra);
        for (id, old) in ids.iter().zip(&before) {
            prop_assert_eq!(ring.owner(*id).unwrap(), *old);
        }
    }
}
