//! Process-group formation: mapping operations onto disjoint groups.
//!
//! The paper expresses group sizes as the fraction `α` of processes
//! dedicated to the decoupled operation (Eq. 2–4), and realises it as
//! "one out of every `k` processes" — e.g. α = 6.25 % means every 16th
//! rank joins the decoupled group. Spreading the decoupled ranks across
//! the machine (instead of packing them at one end) keeps every producer
//! close to a consumer and balances NIC load, so we follow the same
//! pattern.

use crate::transport::{Group, Transport};

/// Role of a rank with respect to one stream channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Generates stream elements.
    Producer,
    /// Receives stream elements and applies the attached operator.
    Consumer,
    /// Takes no part in the channel.
    Bystander,
}

impl Role {
    /// This rank's role on a reply channel running the other way
    /// (producers consume, consumers produce, bystanders stay out).
    pub fn reverse(self) -> Role {
        match self {
            Role::Producer => Role::Consumer,
            Role::Consumer => Role::Producer,
            Role::Bystander => Role::Bystander,
        }
    }
}

/// Deterministic assignment of ranks to the compute group vs the
/// decoupled group.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GroupSpec {
    /// One out of `every` ranks joins the decoupled (consumer) group.
    pub every: usize,
}

impl GroupSpec {
    /// Build a spec from the paper's α (fraction of processes in the
    /// decoupled group). `α = 0.0625` → every 16th rank.
    pub fn from_alpha(alpha: f64) -> GroupSpec {
        assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0, 1), got {alpha}");
        let every = (1.0 / alpha).round() as usize;
        GroupSpec { every: every.max(2) }
    }

    /// The α this spec realises.
    pub fn alpha(&self) -> f64 {
        1.0 / self.every as f64
    }

    /// Role of a world rank: the last rank of each block of `every` joins
    /// the decoupled group.
    pub fn role_of(&self, world_rank: usize) -> Role {
        if world_rank % self.every == self.every - 1 {
            Role::Consumer
        } else {
            Role::Producer
        }
    }

    /// The world ranks of `0..n` split by role: `(producers, consumers)`,
    /// each ascending.
    pub fn members(&self, n: usize) -> (Vec<usize>, Vec<usize>) {
        (0..n).partition(|&r| self.role_of(r) == Role::Producer)
    }

    /// Split `comm` into (producer group, consumer group). Collective over
    /// `comm`. The group this rank belongs to is a real communicator
    /// (usable for collectives); the *other* group is metadata-only (rank
    /// list and sizes — which is all MPI would let you know about a group
    /// you are not part of). Both groups must be non-empty — a world too
    /// small for the spec panics with a clear message.
    pub fn split<TP: Transport>(
        &self,
        rank: &mut TP,
        comm: &TP::Group,
    ) -> (TP::Group, TP::Group, Role) {
        let me = rank.world_rank();
        let role = self.role_of(me);
        let color = match role {
            Role::Producer => 0i64,
            Role::Consumer => 1,
            Role::Bystander => unreachable!("GroupSpec assigns no bystanders"),
        };
        let mine =
            rank.split(comm, Some(color), me as i64).expect("split with Some color yields a comm");
        let other_ranks: Vec<usize> =
            comm.ranks().iter().copied().filter(|&w| self.role_of(w) != role).collect();
        // Metadata-only view of the opposite group (never used to address
        // collectives).
        let other = TP::Group::meta(other_ranks);
        let (producers, consumers) = if color == 0 { (mine, other) } else { (other, mine) };
        assert!(
            !producers.ranks().is_empty() && !consumers.ranks().is_empty(),
            "GroupSpec {{ every: {} }} needs at least {} ranks, got {}",
            self.every,
            self.every,
            comm.size()
        );
        (producers, consumers, role)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_roundtrip_matches_paper_fractions() {
        assert_eq!(GroupSpec::from_alpha(0.125).every, 8);
        assert_eq!(GroupSpec::from_alpha(0.0625).every, 16);
        assert_eq!(GroupSpec::from_alpha(0.03125).every, 32);
        let s = GroupSpec { every: 16 };
        assert!((s.alpha() - 0.0625).abs() < 1e-12);
    }

    #[test]
    fn roles_spread_consumers_across_blocks() {
        let s = GroupSpec { every: 4 };
        let roles: Vec<Role> = (0..8).map(|r| s.role_of(r)).collect();
        assert_eq!(
            roles,
            vec![
                Role::Producer,
                Role::Producer,
                Role::Producer,
                Role::Consumer,
                Role::Producer,
                Role::Producer,
                Role::Producer,
                Role::Consumer,
            ]
        );
        assert_eq!(s.members(32).1.len(), 8);
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0, 1)")]
    fn silly_alpha_is_rejected() {
        let _ = GroupSpec::from_alpha(1.5);
    }
}
