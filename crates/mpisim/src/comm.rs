//! Communicators: ordered groups of world ranks.

use std::sync::Arc;

/// Immutable communicator metadata. Cheap to clone (an `Arc` inside).
#[derive(Clone, Debug)]
pub struct Comm {
    inner: Arc<CommMeta>,
}

#[derive(Debug)]
struct CommMeta {
    id: u16,
    /// World ranks of the members, in communicator-rank order.
    ranks: Vec<usize>,
}

impl Comm {
    /// Construct communicator metadata directly. Normal code receives
    /// communicators from [`crate::World`] / [`crate::Rank::split`]; this
    /// constructor also builds the metadata-only view of a group a rank
    /// is not part of.
    pub fn new(id: u16, ranks: Vec<usize>) -> Comm {
        debug_assert!(!ranks.is_empty(), "empty communicator");
        Comm { inner: Arc::new(CommMeta { id, ranks }) }
    }

    /// Dense id of this communicator within its world.
    pub fn id(&self) -> u16 {
        self.inner.id
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.inner.ranks.len()
    }

    /// World rank of communicator rank `r`.
    pub fn world_rank(&self, r: usize) -> usize {
        self.inner.ranks[r]
    }

    /// Communicator rank of world rank `w`, if a member.
    pub fn rank_of(&self, w: usize) -> Option<usize> {
        // Membership lists are small and setup-time only; linear scan is
        // fine and keeps the struct lean.
        self.inner.ranks.iter().position(|&x| x == w)
    }

    /// Member world ranks in communicator order.
    pub fn ranks(&self) -> &[usize] {
        &self.inner.ranks
    }

    /// Whether world rank `w` is a member.
    pub fn contains(&self, w: usize) -> bool {
        self.rank_of(w).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_mapping_roundtrips() {
        let c = Comm::new(3, vec![10, 4, 7]);
        assert_eq!(c.size(), 3);
        assert_eq!(c.world_rank(0), 10);
        assert_eq!(c.world_rank(2), 7);
        assert_eq!(c.rank_of(4), Some(1));
        assert_eq!(c.rank_of(5), None);
        assert!(c.contains(7));
        assert!(!c.contains(11));
        assert_eq!(c.id(), 3);
    }
}
