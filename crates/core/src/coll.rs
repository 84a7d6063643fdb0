//! Collectives, `split` and the group type for backends that only move
//! messages.
//!
//! A backend with point-to-point messaging and a clock gets the rest of
//! [`Transport`] from here: [`RankGroup`] is its `Transport::Group`, one
//! [`CollState`] is a field of its rank, and each of its five trait
//! collectives begins a [`Round`] on that state and calls the function of
//! the same name below. The functions use only `send` and `recv`. The
//! simulator does not come through this module: `mpisim` models the cost
//! of its own collectives, which are the paper's reference baselines.
//!
//! Every collective runs over one overlay of *virtual* ranks (group ranks
//! rotated so the root is 0) in one of two shapes, chosen per group from
//! the one number the backend hands [`CollState::new`]: groups at or
//! below that size use a **star** (every member exchanges directly with
//! the root: one level, which wins when ranks outnumber cores and every
//! tree level costs a context switch), larger groups a **binomial tree**
//! (`O(log size)` levels on the critical path instead of the root's
//! `size-1` exchanges). Either way a reduce plus a broadcast is
//! `2(size-1)` directed messages.

use std::collections::HashMap;
use std::sync::Arc;

use mpisim::msg::NS_MPISTREAM_COLL;

use crate::transport::{Group, Src, Tag, Transport};
use crate::wire::Wire;

/// Group id of the world group.
const WORLD_ID: u64 = 0;
/// Group id marking metadata-only groups (never collective targets).
const META_ID: u64 = u64::MAX;

/// An ordered set of world ranks plus the id its collectives are tagged
/// with. The id of a split product is *derived*, not registered: every
/// member hashes the same `(parent, seq, color)` triple (`split_id`),
/// so neither threads nor processes need a shared registry.
#[derive(Clone, Debug)]
pub struct RankGroup {
    id: u64,
    ranks: Arc<Vec<usize>>,
}

impl RankGroup {
    /// The group of all `nprocs` ranks, in rank order.
    pub fn world(nprocs: usize) -> RankGroup {
        RankGroup { id: WORLD_ID, ranks: Arc::new((0..nprocs).collect()) }
    }
}

impl Group for RankGroup {
    fn ranks(&self) -> &[usize] {
        &self.ranks
    }

    fn rank_of(&self, w: usize) -> Option<usize> {
        // Membership lists are small and setup-time only; linear scan.
        self.ranks.iter().position(|&x| x == w)
    }

    fn meta(ranks: Vec<usize>) -> RankGroup {
        RankGroup { id: META_ID, ranks: Arc::new(ranks) }
    }
}

/// Deterministic split-cell id: splitmix64 finalization over the triple
/// every member of one cell knows; the reserved world/meta ids are
/// remapped.
fn split_id(parent: u64, seq: u32, color: i64) -> u64 {
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let h =
        mix(mix(mix(parent.wrapping_add(0x9E37_79B9_7F4A_7C15)) ^ u64::from(seq)) ^ color as u64);
    match h {
        WORLD_ID => 1,
        META_ID => META_ID - 1,
        other => other,
    }
}

/// Tag for collective `seq` on the group with `id`. The id is folded
/// into both the 16-bit channel field and the sequence field: hashed
/// split ids can alias in the low 16 bits, and mixing bits 16..48 into
/// `seq` keeps concurrently outstanding collectives of two such groups
/// on distinct tags (within one group, call order still makes `seq`
/// unique — the MPI contract).
fn coll_tag(id: u64, seq: u32) -> Tag {
    Tag::internal(NS_MPISTREAM_COLL, id as u16, seq.wrapping_add((id >> 16) as u32))
}

/// Children of virtual rank `v` among `size`, ascending (the
/// deterministic fold and gather order). Star: the root owns everyone.
/// Tree: `v + 2^k` for every `2^k` below `v`'s lowest set bit (all of
/// them for the root) that stays inside the group.
fn children(v: usize, size: usize, flat: bool) -> Vec<usize> {
    if flat {
        return if v == 0 { (1..size).collect() } else { Vec::new() };
    }
    let lsb = if v == 0 { usize::MAX } else { v & v.wrapping_neg() };
    std::iter::successors(Some(1usize), |k| k.checked_mul(2))
        .take_while(|&k| k < lsb && v + k < size)
        .map(|k| v + k)
        .collect()
}

/// Parent of virtual rank `v != 0`. Tree: clear the lowest set bit.
fn parent(v: usize, flat: bool) -> usize {
    if flat {
        0
    } else {
        v & (v - 1)
    }
}

/// One rank's collective bookkeeping.
pub struct CollState {
    /// Per-group collective sequence numbers (identical call order on a
    /// group keeps them in agreement, as MPI requires).
    seq: HashMap<u64, u32>,
    flat_threshold: usize,
}

impl CollState {
    /// Groups of at most `flat_threshold` members use the star, larger
    /// ones the binomial tree: `0` is trees everywhere, `usize::MAX` the
    /// star everywhere. Every rank of a world must pass the same number,
    /// so that the members of a group agree on its shape.
    pub fn new(flat_threshold: usize) -> CollState {
        CollState { seq: HashMap::new(), flat_threshold }
    }

    /// Begin the next collective on `group`, of which world rank `me` is
    /// a member.
    pub fn begin<'g>(&mut self, group: &'g RankGroup, me: usize) -> Round<'g> {
        assert!(group.id != META_ID, "collective on a metadata-only group");
        let my_gr = group.rank_of(me).expect("collective on a group we are not in");
        let next = self.seq.entry(group.id).or_insert(0);
        let seq = *next;
        *next += 1;
        Round { group, seq, my_gr, root: 0, flat: group.size() <= self.flat_threshold }
    }
}

/// One collective on one group, as one member sees it: the tag, this
/// rank's place in the overlay, and the overlay's shape.
#[derive(Clone, Copy)]
pub struct Round<'g> {
    group: &'g RankGroup,
    seq: u32,
    my_gr: usize,
    /// Group rank at virtual rank 0 (non-zero only inside [`bcast`]).
    root: usize,
    flat: bool,
}

impl Round<'_> {
    fn tag(&self) -> Tag {
        coll_tag(self.group.id, self.seq)
    }

    fn size(&self) -> usize {
        self.group.size()
    }

    fn my_v(&self) -> usize {
        (self.my_gr + self.size() - self.root) % self.size()
    }

    fn world(&self, v: usize) -> usize {
        self.group.ranks[(v + self.root) % self.size()]
    }

    /// World ranks of this rank's children, ascending by virtual rank.
    fn children(&self) -> impl Iterator<Item = usize> + '_ {
        children(self.my_v(), self.size(), self.flat).into_iter().map(|c| self.world(c))
    }

    /// World rank of this rank's parent; `None` at the root.
    fn parent(&self) -> Option<usize> {
        let v = self.my_v();
        (v != 0).then(|| self.world(parent(v, self.flat)))
    }
}

/// Reduce up to the root: fold the children's accumulators (ascending, a
/// fixed deterministic order) into ours by value — payloads move up the
/// tree, they are not cloned — then forward to the parent under a
/// modelled size of `bytes(&acc)`. `Some(total)` at the root, `None`
/// elsewhere.
fn reduce_up<TP: Transport, A: Wire + Send + 'static>(
    tp: &mut TP,
    round: &Round,
    bytes: impl Fn(&A) -> u64,
    mut acc: A,
    fold: impl Fn(&mut A, A),
) -> Option<A> {
    for c in round.children() {
        let (child, _info) = tp.recv::<A>(Src::Rank(c), round.tag());
        fold(&mut acc, child);
    }
    match round.parent() {
        None => Some(acc),
        Some(p) => {
            tp.send(p, round.tag(), bytes(&acc), acc);
            None
        }
    }
}

/// Broadcast down from the root, which passes `Some`. Safe on the same
/// tag as a preceding [`reduce_up`] over the same overlay: between any
/// rank pair the two phases flow in opposite directions, so directed
/// receives cannot cross-match.
fn bcast_down<TP: Transport, T: Wire + Clone + Send + 'static>(
    tp: &mut TP,
    round: &Round,
    bytes: u64,
    value: Option<T>,
) -> T {
    let val = match round.parent() {
        None => value.expect("the root supplies the broadcast value"),
        Some(p) => tp.recv::<T>(Src::Rank(p), round.tag()).0,
    };
    for c in round.children() {
        tp.send(c, round.tag(), bytes, val.clone());
    }
    val
}

/// [`Transport::barrier`]: an empty reduce and broadcast.
pub fn barrier<TP: Transport>(tp: &mut TP, round: &Round) {
    let done = reduce_up(tp, round, |_| 1, (), |_, ()| {});
    bcast_down(tp, round, 1, done)
}

/// [`Transport::allreduce`]: reduce to group rank 0, broadcast the total
/// back down the same overlay. `op` must be associative and commutative
/// (the Transport contract); for floats the fold order — linear in the
/// star, tree-shaped otherwise — may differ bitwise between shapes and
/// from the simulator's (DESIGN.md §11).
pub fn allreduce<TP: Transport, T: Wire + Clone + Send + 'static>(
    tp: &mut TP,
    round: &Round,
    bytes: u64,
    value: T,
    op: impl Fn(&mut T, &T),
) -> T {
    let total = reduce_up(tp, round, |_| bytes, value, |acc, child| op(acc, &child));
    bcast_down(tp, round, bytes, total)
}

/// [`Transport::allgatherv`]. In the tree, child `c` of `v` owns the
/// contiguous group-rank range from `c` up to its next sibling; in the
/// star each child owns just itself. Either way appending the children's
/// vectors in ascending order keeps the accumulator contiguous and
/// group-rank-ordered, and rank 0 ends up with the full vector.
pub fn allgatherv<TP: Transport, T: Wire + Clone + Send + 'static>(
    tp: &mut TP,
    round: &Round,
    bytes: u64,
    value: T,
) -> Vec<T> {
    let gathered = reduce_up(
        tp,
        round,
        |acc: &Vec<T>| bytes * acc.len() as u64,
        vec![value],
        |acc, mut sub| acc.append(&mut sub),
    );
    bcast_down(tp, round, bytes * round.size() as u64, gathered)
}

/// [`Transport::bcast`]: the overlay rotated so that group rank `root`
/// sits at virtual rank 0.
pub fn bcast<TP: Transport, T: Wire + Clone + Send + 'static>(
    tp: &mut TP,
    round: &Round,
    root: usize,
    bytes: u64,
    value: Option<T>,
) -> T {
    assert!(root < round.size(), "bcast root {root} out of range for group of {}", round.size());
    bcast_down(tp, &Round { root, ..*round }, bytes, value)
}

/// [`Transport::split`]. The `Option` itself is gathered — no sentinel,
/// so every `i64` (including `i64::MIN`) is a legal color, distinct from
/// non-participation.
pub fn split<TP: Transport>(
    tp: &mut TP,
    round: &Round,
    color: Option<i64>,
    key: i64,
) -> Option<RankGroup> {
    let me = tp.world_rank();
    let mut entries = allgatherv(tp, round, 24, (color, key, me));
    let my_color = color?;
    // Members with my color, ordered by (key, world_rank) — the
    // MPI_Comm_split contract. `None` entries match no Some color.
    entries.retain(|&(c, _, _)| c == Some(my_color));
    entries.sort_unstable_by_key(|&(_, k, w)| (k, w));
    let ranks = Arc::new(entries.iter().map(|&(_, _, w)| w).collect());
    Some(RankGroup { id: split_id(round.group.id, round.seq, my_color), ranks })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reduce and broadcast each cross every edge once, `2(size-1)`
    /// messages, only if every virtual rank but the root hangs under
    /// exactly one parent, which the upward phase must reach first.
    #[test]
    fn every_rank_has_one_smaller_parent_in_both_shapes() {
        for (size, flat) in (1..=130).flat_map(|s| [(s, false), (s, true)]) {
            let mut listed = vec![0; size];
            for v in 0..size {
                for c in children(v, size, flat) {
                    assert_eq!(parent(c, flat), v, "size {size} flat {flat}: child {c} of {v}");
                    assert!(v < c, "size {size} flat {flat}: parent {v} of {c}");
                    listed[c] += 1;
                }
            }
            assert_eq!(listed[0], 0, "size {size} flat {flat}: the root is nobody's child");
            assert!(listed[1..].iter().all(|&n| n == 1), "size {size} flat {flat}: {listed:?}");
        }
    }

    /// What `allgatherv`'s ordering rests on: a rank followed by its
    /// children's subtrees, ascending, is a contiguous ascending range.
    #[test]
    fn tree_children_own_the_range_up_to_their_next_sibling() {
        fn gathered(v: usize, size: usize) -> Vec<usize> {
            let subtrees = children(v, size, false).into_iter().flat_map(|c| gathered(c, size));
            std::iter::once(v).chain(subtrees).collect()
        }
        for size in 1..=130 {
            assert_eq!(gathered(0, size), (0..size).collect::<Vec<_>>());
        }
        assert_eq!(children(0, 6, false), vec![1, 2, 4]);
        assert_eq!(gathered(2, 6), vec![2, 3]);
        assert_eq!(gathered(4, 6), vec![4, 5]);
    }

    #[test]
    fn coll_tags_differ_for_ids_that_alias_in_the_low_16_bits() {
        let id = split_id(WORLD_ID, 0, 1);
        for bit in 16..48 {
            let alias = id ^ (1 << bit);
            assert_eq!(id as u16, alias as u16);
            for seq in [0, 1, 77, u32::MAX] {
                assert_ne!(coll_tag(id, seq), coll_tag(alias, seq), "bit {bit} seq {seq}");
            }
        }
    }

    #[test]
    fn split_ids_dodge_the_reserved_values() {
        let mut ids = std::collections::HashSet::new();
        for parent in [WORLD_ID, 1, split_id(WORLD_ID, 0, 0), META_ID - 1] {
            for seq in 0..40 {
                for color in [i64::MIN, -1, 0, 1, 2, i64::MAX] {
                    let id = split_id(parent, seq, color);
                    assert!(id != WORLD_ID && id != META_ID, "({parent}, {seq}, {color})");
                    // Distinct cells, splits and parents get distinct ids.
                    assert!(ids.insert(id), "({parent}, {seq}, {color}) repeats an id");
                }
            }
        }
    }
}
