//! The consistent-hash ring that assigns ownership of id-keyed resources
//! (tasks, endpoints, functions) to cloud replicas.
//!
//! Each replica contributes `vnodes` points to a 64-bit ring; a key is
//! owned by the replica whose point is the first at or clockwise of the
//! key's hash. Virtual nodes keep the load spread tight (the funcX fabric
//! papers' federation argument assumes roughly even task placement), and
//! consistent hashing keeps key movement minimal when the membership
//! changes: only keys whose arc was donated by the joining/leaving replica
//! change owner, which is what makes failure handover tractable — the
//! survivors adopt *ranges*, not a full reshuffle.

use std::collections::BTreeSet;
use std::fmt;

use gcx_core::ids::Uuid;
use gcx_core::retry::splitmix64;

/// Index of one cloud replica in a federation. Small and dense (0..n) so
/// it can double as a queue-name suffix and a fault-plan target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReplicaId(pub u32);

impl fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Default virtual-node count per replica. 128 points keeps the max/min
/// load ratio under ~2 for small clusters (see `prop_ring` tests) while
/// membership changes stay O(vnodes · log points).
pub const DEFAULT_VNODES: u32 = 128;

/// Fold a 128-bit id onto the 64-bit ring. Both halves go through
/// splitmix64 so ids that share a half (e.g. time-ordered uuids) still
/// scatter.
pub(crate) fn key_point(id: Uuid) -> u64 {
    let raw = id.0;
    splitmix64((raw >> 64) as u64 ^ splitmix64(raw as u64))
}

fn vnode_point(replica: ReplicaId, vnode: u32) -> u64 {
    // Salt keeps replica points disjoint from key points even for tiny
    // inputs; splitmix64 is a bijection so distinct (replica, vnode)
    // pairs can only collide across replicas, which `add` tolerates by
    // ordered insertion.
    const RING_SALT: u64 = 0x9e37_79b9_7f4a_7c15;
    splitmix64(((replica.0 as u64) << 32 | vnode as u64).wrapping_add(RING_SALT))
}

/// A consistent-hash ring with virtual nodes.
#[derive(Debug, Clone)]
pub struct HashRing {
    vnodes: u32,
    /// Sorted ring points: (position, owner).
    points: Vec<(u64, ReplicaId)>,
    members: BTreeSet<ReplicaId>,
}

impl HashRing {
    /// An empty ring whose future members each contribute `vnodes` points
    /// (0 is clamped to 1).
    pub fn new(vnodes: u32) -> Self {
        Self {
            vnodes: vnodes.max(1),
            points: Vec::new(),
            members: BTreeSet::new(),
        }
    }

    /// Add a replica's virtual nodes. Idempotent.
    pub fn add(&mut self, replica: ReplicaId) {
        if !self.members.insert(replica) {
            return;
        }
        for v in 0..self.vnodes {
            let p = (vnode_point(replica, v), replica);
            let at = self.points.partition_point(|q| *q < p);
            self.points.insert(at, p);
        }
    }

    /// Remove a replica's virtual nodes. Idempotent.
    pub fn remove(&mut self, replica: ReplicaId) {
        if !self.members.remove(&replica) {
            return;
        }
        self.points.retain(|(_, r)| *r != replica);
    }

    /// The replica owning ring position `point`, or `None` on an empty
    /// ring: the first point at or clockwise of `point`, wrapping.
    pub(crate) fn owner_of_point(&self, point: u64) -> Option<ReplicaId> {
        if self.points.is_empty() {
            return None;
        }
        let at = self.points.partition_point(|(p, _)| *p < point);
        let (_, owner) = self.points[at % self.points.len()];
        Some(owner)
    }

    /// The replica owning the resource with id `id`.
    pub fn owner(&self, id: Uuid) -> Option<ReplicaId> {
        self.owner_of_point(key_point(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_ring_owns_nothing() {
        let ring = HashRing::new(DEFAULT_VNODES);
        assert!(ring.members.is_empty());
        assert_eq!(ring.owner(Uuid::new_v4()), None);
    }

    #[test]
    fn single_member_owns_everything() {
        let mut ring = HashRing::new(DEFAULT_VNODES);
        ring.add(ReplicaId(3));
        for _ in 0..64 {
            assert_eq!(ring.owner(Uuid::new_v4()), Some(ReplicaId(3)));
        }
    }

    #[test]
    fn add_remove_are_idempotent() {
        let mut ring = HashRing::new(8);
        ring.add(ReplicaId(0));
        ring.add(ReplicaId(0));
        assert_eq!(ring.points.len(), 8);
        ring.remove(ReplicaId(0));
        ring.remove(ReplicaId(0));
        assert!(ring.members.is_empty());
        assert_eq!(ring.points.len(), 0);
    }

    #[test]
    fn ownership_is_deterministic_across_instances() {
        let build = || {
            let mut r = HashRing::new(DEFAULT_VNODES);
            r.add(ReplicaId(0));
            r.add(ReplicaId(1));
            r.add(ReplicaId(2));
            r
        };
        let (a, b) = (build(), build());
        for _ in 0..128 {
            let id = Uuid::new_v4();
            assert_eq!(a.owner(id), b.owner(id));
        }
    }

    #[test]
    fn leave_only_moves_keys_owned_by_the_leaver() {
        let mut ring = HashRing::new(DEFAULT_VNODES);
        for r in 0..4 {
            ring.add(ReplicaId(r));
        }
        let ids: Vec<Uuid> = (0..512).map(|_| Uuid::new_v4()).collect();
        let before: Vec<_> = ids.iter().map(|id| ring.owner(*id).unwrap()).collect();
        ring.remove(ReplicaId(2));
        for (id, old) in ids.iter().zip(&before) {
            let new = ring.owner(*id).unwrap();
            if *old != ReplicaId(2) {
                assert_eq!(new, *old, "key not owned by the leaver moved");
            } else {
                assert_ne!(new, ReplicaId(2));
            }
        }
    }
}
