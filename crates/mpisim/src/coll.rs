//! Collective operations, implemented with real point-to-point messages.
//!
//! All collectives use classic binomial-tree algorithms (the MPICH
//! defaults for small/medium payloads), so their cost scales as
//! `O(log P)` rounds and `O(P)` messages and their *semantics* are exact:
//! data is really combined, leaves really exit early, and a late rank
//! really delays exactly the subtree that waits on it — the imbalance
//! behaviour at the heart of the paper.
//!
//! Non-blocking variants follow the progress model of mainstream MPI
//! without progress threads: a rank contributes what it can at `start`
//! (leaf sends are posted immediately and overlap with whatever the caller
//! does next), and the remaining tree steps run inside `wait`.

use crate::comm::Comm;
use crate::msg::{Src, Tag, NS_MPISIM_COLL};
use crate::rank::Rank;

/// Binomial-tree topology helper in *virtual* rank space (root at 0).
#[derive(Debug, Clone)]
struct Binomial {
    /// Virtual ranks we receive from, in combining order.
    children: Vec<usize>,
    /// Virtual rank we send our partial to (None for the root).
    parent: Option<usize>,
}

fn binomial(vrank: usize, size: usize) -> Binomial {
    let mut children = Vec::new();
    let mut parent = None;
    let mut mask = 1usize;
    while mask < size {
        if vrank & mask != 0 {
            parent = Some(vrank & !mask);
            break;
        }
        let child = vrank | mask;
        if child < size {
            children.push(child);
        }
        mask <<= 1;
    }
    Binomial { children, parent }
}

#[inline]
fn to_vrank(crank: usize, root: usize, size: usize) -> usize {
    (crank + size - root) % size
}

#[inline]
fn from_vrank(vrank: usize, root: usize, size: usize) -> usize {
    (vrank + root) % size
}

/// Non-blocking reduce in progress. See [`Rank::ireduce_start`].
#[must_use = "ireduce must be completed with ireduce_wait"]
pub struct IReduceReq<T> {
    comm: Comm,
    tag: Tag,
    bytes: u64,
    tree: Binomial,
    root: usize,
    /// Our value if it was not already sent at start (interior/root), or
    /// None for leaves (value already in flight).
    pending: Option<T>,
    leaf_send: Option<crate::rank::SendReq>,
}

/// Non-blocking allgatherv in progress. See [`Rank::iallgatherv_start`].
#[must_use = "iallgatherv must be completed with iallgatherv_wait"]
pub struct IAllgathervReq<T> {
    comm: Comm,
    tag: Tag,
    bytes: u64,
    own: Option<T>,
    send: Option<crate::rank::SendReq>,
}

impl Rank<'_> {
    fn coll_tag(&mut self, comm: &Comm) -> Tag {
        let seq = self.next_seq(comm);
        Tag::internal(NS_MPISIM_COLL, comm.id(), seq)
    }

    fn crank(&self, comm: &Comm) -> usize {
        comm.rank_of(self.world_rank())
            .unwrap_or_else(|| panic!("rank {} not in comm {}", self.world_rank(), comm.id()))
    }

    /// Reduce `value` over `comm` onto communicator rank `root` using `op`
    /// (must be associative; applied in deterministic tree order). Returns
    /// `Some(result)` at the root, `None` elsewhere.
    pub fn reduce<T: Send + 'static>(
        &mut self,
        comm: &Comm,
        root: usize,
        bytes: u64,
        value: T,
        op: impl Fn(&mut T, &T),
    ) -> Option<T> {
        let tag = self.coll_tag(comm);
        self.reduce_with_tag(comm, root, bytes, value, op, tag)
    }

    fn reduce_with_tag<T: Send + 'static>(
        &mut self,
        comm: &Comm,
        root: usize,
        bytes: u64,
        value: T,
        op: impl Fn(&mut T, &T),
        tag: Tag,
    ) -> Option<T> {
        let n = comm.size();
        let me = self.crank(comm);
        let vr = to_vrank(me, root, n);
        let tree = binomial(vr, n);
        let mut acc = value;
        for &child_vr in &tree.children {
            let child = comm.world_rank(from_vrank(child_vr, root, n));
            let (part, _) = self.recv::<T>(Src::Rank(child), tag);
            op(&mut acc, &part);
        }
        match tree.parent {
            Some(parent_vr) => {
                let parent = comm.world_rank(from_vrank(parent_vr, root, n));
                let req = self.isend(parent, tag, bytes, acc);
                self.wait_send(req);
                None
            }
            None => Some(acc),
        }
    }

    /// Broadcast from communicator rank `root`. The root passes
    /// `Some(value)`, all others `None`; everyone returns the value.
    pub fn bcast<T: Clone + Send + 'static>(
        &mut self,
        comm: &Comm,
        root: usize,
        bytes: u64,
        value: Option<T>,
    ) -> T {
        let tag = self.coll_tag(comm);
        self.bcast_with_tag(comm, root, bytes, value, tag)
    }

    fn bcast_with_tag<T: Clone + Send + 'static>(
        &mut self,
        comm: &Comm,
        root: usize,
        bytes: u64,
        value: Option<T>,
        tag: Tag,
    ) -> T {
        let n = comm.size();
        let me = self.crank(comm);
        let vr = to_vrank(me, root, n);
        let val = if vr == 0 {
            value.expect("bcast root must supply a value")
        } else {
            // Find the bit at which we receive from our parent.
            let mut mask = 1usize;
            while mask < n && vr & mask == 0 {
                mask <<= 1;
            }
            let parent = comm.world_rank(from_vrank(vr & !mask, root, n));
            let (v, _) = self.recv::<T>(Src::Rank(parent), tag);
            v
        };
        // Forward down the tree: highest bit below our own set bit first.
        let mut mask = 1usize;
        while mask < n && vr & mask == 0 {
            mask <<= 1;
        }
        mask >>= 1;
        let mut reqs = Vec::new();
        while mask > 0 {
            let child_vr = vr | mask;
            if child_vr < n {
                let child = comm.world_rank(from_vrank(child_vr, root, n));
                reqs.push(self.isend(child, tag, bytes, val.clone()));
            }
            mask >>= 1;
        }
        self.wait_send_all(reqs);
        val
    }

    /// Allreduce: reduce to rank 0, then broadcast.
    pub fn allreduce<T: Clone + Send + 'static>(
        &mut self,
        comm: &Comm,
        bytes: u64,
        value: T,
        op: impl Fn(&mut T, &T),
    ) -> T {
        let tag_r = self.coll_tag(comm);
        let tag_b = self.coll_tag(comm);
        let part = self.reduce_with_tag(comm, 0, bytes, value, op, tag_r);
        self.bcast_with_tag(comm, 0, bytes, part, tag_b)
    }

    /// Synchronize all members of `comm` (binomial gather + broadcast of
    /// empty messages).
    pub fn barrier(&mut self, comm: &Comm) {
        let tag_r = self.coll_tag(comm);
        let tag_b = self.coll_tag(comm);
        let token = self.reduce_with_tag(comm, 0, 0, (), |_, _| (), tag_r);
        let _: () = self.bcast_with_tag(comm, 0, 0, token, tag_b);
    }

    /// Gather each member's `value` at communicator rank `root` (flat
    /// algorithm — every rank sends directly to the root, which is both
    /// what naive applications do and the source of the incast the paper
    /// discusses). Returns values in communicator-rank order at the root.
    pub fn gatherv<T: Send + 'static>(
        &mut self,
        comm: &Comm,
        root: usize,
        bytes: u64,
        value: T,
    ) -> Option<Vec<T>> {
        let tag = self.coll_tag(comm);
        let n = comm.size();
        let me = self.crank(comm);
        if me == root {
            let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
            slots[me] = Some(value);
            for _ in 0..n - 1 {
                // First-come-first-served assembly.
                let (v, info) = self.recv::<T>(Src::Any, tag);
                let cr = comm.rank_of(info.src).expect("sender is a member");
                debug_assert!(slots[cr].is_none(), "duplicate gather contribution");
                slots[cr] = Some(v);
            }
            Some(slots.into_iter().map(|s| s.expect("all contributions arrived")).collect())
        } else {
            let dst = comm.world_rank(root);
            let req = self.isend(dst, tag, bytes, value);
            self.wait_send(req);
            None
        }
    }

    /// Allgatherv: flat gather at rank 0, then binomial broadcast of the
    /// concatenated vector.
    pub fn allgatherv<T: Clone + Send + 'static>(
        &mut self,
        comm: &Comm,
        bytes: u64,
        value: T,
    ) -> Vec<T> {
        let tag_b = self.coll_tag(comm);
        let total = bytes * comm.size() as u64;
        let gathered = self.gatherv(comm, 0, bytes, value);
        self.bcast_with_tag(comm, 0, total, gathered, tag_b)
    }

    /// Start a non-blocking reduce towards communicator rank 0. Leaf ranks
    /// inject their contribution immediately (overlapping whatever the
    /// caller does until [`Rank::ireduce_wait`]); interior ranks combine at
    /// wait time, matching the progress behaviour of MPI implementations
    /// without asynchronous progress.
    pub fn ireduce_start<T: Send + 'static>(
        &mut self,
        comm: &Comm,
        bytes: u64,
        value: T,
    ) -> IReduceReq<T> {
        let tag = self.coll_tag(comm);
        let n = comm.size();
        let me = self.crank(comm);
        let vr = to_vrank(me, 0, n);
        let tree = binomial(vr, n);
        if let (true, Some(parent_vr)) = (tree.children.is_empty(), tree.parent) {
            let parent = comm.world_rank(from_vrank(parent_vr, 0, n));
            let req = self.isend(parent, tag, bytes, value);
            IReduceReq {
                comm: comm.clone(),
                tag,
                bytes,
                tree,
                root: 0,
                pending: None,
                leaf_send: Some(req),
            }
        } else {
            IReduceReq {
                comm: comm.clone(),
                tag,
                bytes,
                tree,
                root: 0,
                pending: Some(value),
                leaf_send: None,
            }
        }
    }

    /// Complete a non-blocking reduce. Returns `Some(result)` at
    /// communicator rank 0.
    pub fn ireduce_wait<T: Send + 'static>(
        &mut self,
        req: IReduceReq<T>,
        op: impl Fn(&mut T, &T),
    ) -> Option<T> {
        let IReduceReq { comm, tag, bytes, tree, root, pending, leaf_send } = req;
        if let Some(send) = leaf_send {
            self.wait_send(send);
            return None;
        }
        let n = comm.size();
        let mut acc = pending.expect("interior rank holds its value");
        for &child_vr in &tree.children {
            let child = comm.world_rank(from_vrank(child_vr, root, n));
            let (part, _) = self.recv::<T>(Src::Rank(child), tag);
            op(&mut acc, &part);
        }
        match tree.parent {
            Some(parent_vr) => {
                let parent = comm.world_rank(from_vrank(parent_vr, root, n));
                let s = self.isend(parent, tag, bytes, acc);
                self.wait_send(s);
                None
            }
            None => Some(acc),
        }
    }

    /// Start a non-blocking allgatherv: non-root ranks inject their block
    /// towards rank 0 immediately.
    pub fn iallgatherv_start<T: Send + 'static>(
        &mut self,
        comm: &Comm,
        bytes: u64,
        value: T,
    ) -> IAllgathervReq<T> {
        let tag = self.coll_tag(comm);
        let me = self.crank(comm);
        if me == 0 {
            IAllgathervReq { comm: comm.clone(), tag, bytes, own: Some(value), send: None }
        } else {
            let dst = comm.world_rank(0);
            let send = self.isend(dst, tag, bytes, value);
            IAllgathervReq { comm: comm.clone(), tag, bytes, own: None, send: Some(send) }
        }
    }

    /// Complete a non-blocking allgatherv: rank 0 assembles, then a
    /// binomial broadcast distributes the concatenation.
    pub fn iallgatherv_wait<T: Clone + Send + 'static>(
        &mut self,
        req: IAllgathervReq<T>,
    ) -> Vec<T> {
        let IAllgathervReq { comm, tag, bytes, own, send } = req;
        let n = comm.size();
        let me = self.crank(&comm);
        let total = bytes * n as u64;
        let tag_b = Tag(tag.0 ^ (1 << 47)); // distinct broadcast phase tag
        if me == 0 {
            let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
            slots[0] = own;
            for _ in 0..n - 1 {
                let (v, info) = self.recv::<T>(Src::Any, tag);
                let cr = comm.rank_of(info.src).expect("sender is a member");
                slots[cr] = Some(v);
            }
            let all: Vec<T> = slots.into_iter().map(|s| s.expect("all blocks arrived")).collect();
            self.bcast_with_tag(&comm, 0, total, Some(all), tag_b)
        } else {
            if let Some(s) = send {
                self.wait_send(s);
            }
            self.bcast_with_tag::<Vec<T>>(&comm, 0, total, None, tag_b)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial_tree_shape_is_consistent() {
        for size in 1..40usize {
            let mut indegree = vec![0usize; size];
            for vr in 0..size {
                let b = binomial(vr, size);
                if vr == 0 {
                    assert!(b.parent.is_none());
                } else {
                    assert!(b.parent.is_some());
                }
                for &c in &b.children {
                    assert!(c < size);
                    let cb = binomial(c, size);
                    assert_eq!(cb.parent, Some(vr), "child's parent must be us");
                    indegree[c] += 1;
                }
            }
            // Every non-root has exactly one parent referencing it.
            for (vr, deg) in indegree.iter().enumerate() {
                assert_eq!(*deg, usize::from(vr != 0), "vr={vr} size={size}");
            }
        }
    }

    #[test]
    fn vrank_roundtrip() {
        for size in 1..16 {
            for root in 0..size {
                for r in 0..size {
                    assert_eq!(from_vrank(to_vrank(r, root, size), root, size), r);
                }
                assert_eq!(to_vrank(root, root, size), 0);
            }
        }
    }
}
