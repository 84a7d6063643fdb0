//! The building blocks of a matching index, shared by every mailbox that
//! implements MPI's two matching rules: no overtaking per `(src, tag)`,
//! and first-come-first-served among the candidates of a wildcard receive.
//!
//! - [`Slab`] stores envelopes under consecutive arrival ids, so arrival
//!   order *is* id order and the store needs no hashing at all.
//! - [`IdQueue`] is one key's arrival-ordered ids. A mailbox keeps one per
//!   tag or per `(src, tag)`; an envelope taken through some other queue
//!   stays behind here as a tombstone, dropped once it reaches the front
//!   and compacted away once half the queue is dead.
//!
//! They are pieces, not an engine: the simulator's mailbox (`Mailbox` in
//! this module's parent) adds availability in virtual time and waiters on
//! top of them, the native backend's (`native::mailbox`) a lock-free
//! staging stack and a park. `mpistream` re-exports this module, because
//! the native backend sees the simulator only through `mpistream`.

use std::collections::VecDeque;

/// A store keyed by consecutive arrival ids: a sliding window of slots in
/// which slot `id - base` holds the entry, `None` once removed. The
/// window's fully-removed prefix is popped as it forms, so memory is the
/// span from the oldest live entry to the newest — the live count as long
/// as nothing is left behind for good (DESIGN.md §10 has the measured
/// spans). Everything is O(1), `remove` amortized.
pub struct Slab<T> {
    base: u64,
    slots: VecDeque<Option<T>>,
    live: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Slab<T> {
        Slab { base: 0, slots: VecDeque::new(), live: 0 }
    }
}

// The per-message methods carry `#[inline]`: both mailboxes call them on
// every message, and without the hint the native mailbox ran 6 % slower
// (`native_fine` on a 2-vCPU x86-64 host).
impl<T> Slab<T> {
    /// Store `v` under the next arrival id and return that id.
    #[inline]
    pub fn insert(&mut self, v: T) -> u64 {
        let id = self.base + self.slots.len() as u64;
        self.slots.push_back(Some(v));
        self.live += 1;
        id
    }

    #[inline]
    pub fn get(&self, id: u64) -> Option<&T> {
        let i = usize::try_from(id.checked_sub(self.base)?).ok()?;
        self.slots.get(i)?.as_ref()
    }

    #[inline]
    pub fn contains(&self, id: u64) -> bool {
        self.get(id).is_some()
    }

    #[inline]
    pub fn remove(&mut self, id: u64) -> Option<T> {
        let i = usize::try_from(id.checked_sub(self.base)?).ok()?;
        let v = self.slots.get_mut(i)?.take()?;
        self.live -= 1;
        while matches!(self.slots.front(), Some(None)) {
            self.slots.pop_front();
            self.base += 1;
        }
        Some(v)
    }

    /// Live entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Slots held: the ids from the oldest live entry to the newest.
    pub fn span(&self) -> usize {
        self.slots.len()
    }

    /// Live entries with their ids, in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        let base = self.base;
        self.slots.iter().enumerate().filter_map(move |(i, s)| Some((base + i as u64, s.as_ref()?)))
    }

    /// Remove every entry, yielding them in arrival order. Ids keep
    /// counting on from where they were.
    pub fn drain(&mut self) -> impl Iterator<Item = T> + '_ {
        self.base += self.slots.len() as u64;
        self.live = 0;
        self.slots.drain(..).flatten()
    }
}

/// One key's ids in arrival order, possibly with tombstones: ids whose
/// entries left the [`Slab`] through another queue. Tombstones are popped
/// when they reach the front and compacted away outright when they make
/// up half the queue, so the queue holds at most 2 × live + 1 ids even
/// when it is only ever consumed from the other side (a credit tag
/// drained purely by directed receives, say).
#[derive(Default)]
pub struct IdQueue {
    ids: VecDeque<u64>,
    dead: usize,
}

impl IdQueue {
    #[inline]
    pub fn push(&mut self, id: u64) {
        self.ids.push_back(id);
    }

    /// The first id still live in `slab`, popping the dead ones before it.
    #[inline]
    pub fn front<T>(&mut self, slab: &Slab<T>) -> Option<u64> {
        while let Some(&id) = self.ids.front() {
            if slab.contains(id) {
                return Some(id);
            }
            self.ids.pop_front();
            self.dead -= 1;
        }
        None
    }

    /// `id`, queued here, has just been removed from `slab`: pop it if it
    /// is the front (taken through this queue), else leave a tombstone.
    #[inline]
    pub fn remove<T>(&mut self, id: u64, slab: &Slab<T>) {
        if self.ids.front() == Some(&id) {
            self.ids.pop_front();
            return;
        }
        self.dead += 1;
        if self.dead * 2 > self.ids.len() {
            self.ids.retain(|&i| slab.contains(i));
            self.dead = 0;
        }
    }

    /// Ids held, tombstones included.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_ids_count_on_and_the_window_slides() {
        let mut slab = Slab::default();
        let ids: Vec<u64> = (0..4).map(|v| slab.insert(v)).collect();
        assert_eq!(ids, [0, 1, 2, 3]);
        assert_eq!(slab.remove(1), Some(1));
        assert_eq!(slab.remove(1), None);
        assert_eq!((slab.len(), slab.span()), (3, 4), "a hole is not a prefix");
        assert_eq!(slab.remove(0), Some(0));
        assert_eq!((slab.len(), slab.span()), (2, 2), "the dead prefix is popped");
        assert_eq!(slab.iter().collect::<Vec<_>>(), [(2, &2), (3, &3)]);
        assert_eq!(slab.drain().collect::<Vec<_>>(), [2, 3]);
        assert!(slab.is_empty());
        assert_eq!(slab.insert(9), 4, "ids keep counting after a drain");
    }

    /// The space bound the docs claim, on the worst case: a queue whose
    /// every id is taken through the other side, in an order that keeps
    /// putting the tombstones behind its front.
    #[test]
    fn a_queue_consumed_only_from_the_other_side_stays_linear() {
        const N: u64 = 1_000;
        let mut slab = Slab::default();
        let mut q = IdQueue::default();
        for v in 0..N {
            q.push(slab.insert(v));
        }
        // Odd ids first (one source's directed receives), then even ones.
        let order = (0..N).filter(|i| i % 2 == 1).chain((0..N).filter(|i| i % 2 == 0));
        for id in order {
            assert_eq!(slab.remove(id), Some(id));
            q.remove(id, &slab);
            assert!(q.len() <= 2 * slab.len() + 1, "{} ids held for {} live", q.len(), slab.len());
        }
        assert_eq!(q.front(&slab), None);
        assert!(q.is_empty());
        assert_eq!((slab.len(), slab.span()), (0, 0), "the window ends empty");
    }
}
