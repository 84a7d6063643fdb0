//! Per-rank mailboxes for the native backend, and the match index they
//! and socket ranks share.
//!
//! The index, [`Matcher`], is built from the simulator's building blocks
//! ([`mpistream::index`]): envelopes live in a [`Slab`] keyed by arrival
//! sequence, with one [`IdQueue`] per tag for `Src::Any` matching and one
//! per `(src, tag)` for directed receives. The simulator's in-flight
//! machinery (messages whose availability lies in the virtual future) has
//! no native counterpart — a message is available the moment `push` lands
//! it — so that whole layer is the simulator's alone, and here FCFS order
//! *is* arrival order.
//!
//! A `Matcher` is single-threaded: it has one owner, and no atomics or
//! locks of its own. A [`Mailbox`] wraps one under a mutex that only the
//! owning rank thread takes, and feeds it from a lock-free staging stack
//! that any thread may push onto (below). A socket rank needs none of
//! that: its one thread is the only writer of its own mail, so it owns a
//! bare `Matcher` and inserts the frames it reads but does not take at
//! once (`socket::SocketLinks`).
//!
//! ## The MPSC split
//!
//! A mailbox has many producers (any rank may `push`) but exactly **one
//! consumer** — the owning rank thread is the only caller of
//! `take`/`try_take`/`take_deadline`/`probe`/`wait_change`. That asymmetry
//! shapes the whole design:
//!
//! - **Producers** push onto a lock-free Treiber stack (one
//!   `compare_exchange` on the staging head) and never touch the match
//!   index. N producers hammering one rank — the incast pattern — contend
//!   only on a single cache line, not on a mutex serializing the whole
//!   index.
//! - **The consumer** owns the index mutex outright (it is uncontended by
//!   construction), takes from the index first — staged envelopes are
//!   always *younger* than indexed ones, so index-first preserves FCFS —
//!   and drains the staging stack only on an index miss, with one atomic
//!   `swap` plus a list reversal to restore arrival order.
//!
//! The linearization point of arrival is the staging CAS; drains preserve
//! that order, so wildcard matching remains exactly FCFS.
//!
//! ## The index, sized for the per-message budget
//!
//! Arrival ids are consecutive, so the envelope store is a sliding window
//! of slots indexed by `id - base` — no hashing at all on the store. The
//! per-tag and per-`(src, tag)` queues sit in maps behind desim's
//! fixed-key multiplicative hasher; a take through one queue leaves a
//! tombstone in the other, popped lazily when it reaches the front and
//! compacted outright when tombstones hit half a queue. And a
//! receive that misses the index entirely takes its match *straight off
//! the drain* — the first staged envelope in arrival order that matches is
//! handed to the caller without ever touching the index, which is the
//! common case for directed receives on an otherwise-empty mailbox
//! (credit waits, pingpong turnarounds, tree-collective hops).
//!
//! ## Parking: one wake per park, none lost
//!
//! Blocking waits use an eventcount-style protocol instead of sleeping
//! under the index lock. The consumer takes the small park mutex,
//! publishes `parked = true`, re-checks its wake condition — staging
//! non-empty for `take`, version moved for `wait_change` — and only then
//! waits on the condvar (which releases the mutex); awake again, it clears
//! `parked` and goes round its loop. A producer makes its push visible
//! first, then *claims the wake*: it swaps `parked` to false, and only the
//! producer whose swap returned true locks-and-drops the park mutex and
//! notifies. Every other push into the same park reads false and returns
//! after its CAS — no lock, no `futex_wake`. (A flag that stays up until
//! the consumer next *runs* charges that syscall to the whole burst a
//! producer sends after waking it; on one CPU that is the entire credit
//! window.) One consumer per mailbox, so `notify_one` is enough.
//!
//! All the accesses are `SeqCst`, which closes the store-buffering race:
//! a producer sees `parked` or the consumer's re-check sees the push —
//! never neither. Locking the park mutex before the notify closes the
//! other gap: the consumer holds it from publishing `parked` until it is
//! inside the wait, so the claimant's notify cannot fire in between. What
//! the claim adds is that a push may now find the flag already cleared by
//! *another producer*, and three interleavings need an argument:
//!
//! 1. *A claims and is preempted before its notify; B pushes, reads
//!    false, returns.* The consumer sleeps until A runs again — delayed by
//!    A's preemption exactly as a lone producer's notify would be — and
//!    the notify is still owed: A passes through `park` only once the
//!    consumer is inside the wait. Woken, the consumer clears `parked`
//!    and then drains. B's swap read A's claim, not that clear, so it —
//!    and B's CAS before it — came first: the drain takes B's envelope
//!    too. (A push that reads the consumer's own clear instead precedes
//!    the consumer's next publish-and-re-check, which therefore sees it.)
//! 2. *A's notify arrives late: the consumer already woke (a timeout, or
//!    its re-check saw the push and it never slept), found no match and
//!    parked again.* A spurious wake — one extra trip round the loop. It
//!    cannot be a lost one, because the second park republished `parked`
//!    *before* its own re-check, so pushes after that re-check claim
//!    afresh.
//! 3. *The woken consumer finds an envelope for a different tag and parks
//!    again while the matching push is in flight.* That push's CAS either
//!    precedes the re-check of the second park (the consumer sees it and
//!    does not sleep) or follows it, and then its swap reads the
//!    republished flag and claims a fresh wake.
//!
//! `wait_change` shares `parked` and the same argument, with `version`
//! in place of the staging head. The first push into a park still wakes
//! at once: wakes are never deferred or batched, and there is no
//! spin-before-park — where the benchmark pins both ranks to one CPU a
//! spin only burns the producer's time slice, and no measured workload
//! could justify a constant for the multi-core case.
//!
//! A monotone `version` counter (bumped on every push) lets
//! `wait_for_mail` detect "something changed since I last looked". The
//! caller's snapshot of the counter advances *only* inside
//! [`Mailbox::wait_change`] — never on individual polls — so a push that
//! lands anywhere in a multi-poll round (e.g. `operate2` polling two
//! streams in turn) still wakes the next wait instead of being absorbed
//! into a later poll's observation. The cost is at most one spurious
//! re-poll; the benefit is that the wake-up cannot be lost.
//!
//! Deadline takes recompute the remaining time from the caller's absolute
//! `deadline` on every pass around the wait loop, so a spurious condvar
//! wake can neither extend the wait (the deadline is a fixed instant)
//! nor truncate it (the loop keeps waiting until the instant passes).
//!
//! This module is public so the crate's stress-test battery can hammer a
//! bare mailbox from many real threads; it is not a stable API.

use std::any::Any;
use std::collections::HashMap;
use std::hash::Hash;
use std::ptr;

use crate::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
use crate::sync::boxed;
use crate::sync::cell::RaceCell;
use crate::sync::{Condvar, Instant, Mutex};

use desim::FixedState;
use mpistream::index::{IdQueue, Slab};
use mpistream::{MsgInfo, Src, Tag};

pub struct Env {
    pub src: usize,
    pub tag: Tag,
    pub bytes: u64,
    pub payload: Box<dyn Any + Send>,
}

/// One staged envelope on the producers' Treiber stack. The `next` link
/// is a [`RaceCell`]: it is written without synchronization of its own
/// (by the pushing producer before the CAS publishes the node, and by
/// the draining consumer during reversal), with the happens-before
/// argument carried entirely by the staging head's atomics — exactly
/// what the model checker's race detector verifies under
/// `--cfg schedcheck`.
struct Node {
    env: Env,
    next: RaceCell<*mut Node>,
}

type Queues<K> = HashMap<K, IdQueue, FixedState>;

/// The match index of one rank's mail, for a single-threaded owner.
/// Each side is materialized only on first use: a rank drained purely by
/// wildcard receives (an incast sink) never maintains the `(src, tag)`
/// side, and one drained purely by directed receives (a producer waiting
/// on credits, a pingpong turnaround) never maintains the per-tag side.
/// Building a side on demand is one pass over the live slab — amortized
/// against never paying for it at all on the per-message hot path.
///
/// A [`Mailbox`] keeps one under its mutex, fed from its staging stack; a
/// socket rank, the only writer of its own mail, owns one outright.
#[derive(Default)]
pub struct Matcher {
    slab: Slab<Env>,
    by_tag: Option<Queues<Tag>>,
    by_src_tag: Option<Queues<(usize, Tag)>>,
    /// Envelopes inserted so far.
    version: u64,
}

/// One side of the index, built from the live slab.
fn queues<K: Hash + Eq>(slab: &Slab<Env>, key: impl Fn(&Env) -> K) -> Queues<K> {
    let mut qs = Queues::default();
    for (id, env) in slab.iter() {
        qs.entry(key(env)).or_default().push(id);
    }
    qs
}

/// First live id under `key`; a queue with none left is dropped.
fn front<K: Hash + Eq>(qs: &mut Queues<K>, key: K, slab: &Slab<Env>) -> Option<u64> {
    let id = qs.get_mut(&key)?.front(slab);
    if id.is_none() {
        qs.remove(&key);
    }
    id
}

/// `id` just left the slab: pop it from, or tombstone it in, `key`'s queue.
fn forget<K: Hash + Eq>(qs: &mut Option<Queues<K>>, key: K, id: u64, slab: &Slab<Env>) {
    let Some(qs) = qs else { return };
    if let Some(q) = qs.get_mut(&key) {
        q.remove(id, slab);
        if q.is_empty() {
            qs.remove(&key);
        }
    }
}

impl Matcher {
    /// Index `env` as the youngest envelope.
    pub fn insert(&mut self, env: Env) {
        let (src, tag) = (env.src, env.tag);
        let id = self.slab.insert(env);
        if let Some(bt) = &mut self.by_tag {
            bt.entry(tag).or_default().push(id);
        }
        if let Some(bst) = &mut self.by_src_tag {
            bst.entry((src, tag)).or_default().push(id);
        }
        self.version += 1;
    }

    /// Id of the first envelope matching `(src, tag)`.
    fn find(&mut self, src: Src, tag: Tag) -> Option<u64> {
        let slab = &self.slab;
        if slab.is_empty() {
            return None;
        }
        match src {
            Src::Any => {
                front(self.by_tag.get_or_insert_with(|| queues(slab, |e| e.tag)), tag, slab)
            }
            Src::Rank(r) => {
                let bst = self.by_src_tag.get_or_insert_with(|| queues(slab, |e| (e.src, e.tag)));
                front(bst, (r, tag), slab)
            }
        }
    }

    /// Remove and return the first envelope matching `(src, tag)`, in
    /// insertion order. `find` left its id at the front of the matched
    /// queue, so `forget` pops it there and tombstones it on the other
    /// side, if that is built.
    pub fn take(&mut self, src: Src, tag: Tag) -> Option<Env> {
        let id = self.find(src, tag)?;
        let env = self.slab.remove(id).expect("found id has an envelope");
        forget(&mut self.by_tag, tag, id, &self.slab);
        forget(&mut self.by_src_tag, (env.src, tag), id, &self.slab);
        Some(env)
    }

    /// Metadata of the first envelope matching `(src, tag)`, left in place.
    pub fn probe(&mut self, src: Src, tag: Tag) -> Option<MsgInfo> {
        let id = self.find(src, tag)?;
        let env = self.slab.get(id).expect("found id has an envelope");
        Some(MsgInfo { src: env.src, tag: env.tag, bytes: env.bytes })
    }

    /// How many envelopes have been inserted: it moves on every
    /// [`Matcher::insert`] and on nothing else.
    pub fn version(&self) -> u64 {
        self.version
    }
}

pub struct Mailbox {
    /// Producers' staging stack: newest envelope at the head.
    stage: AtomicPtr<Node>,
    /// Bumped on every push; `wait_for_mail`'s change signal.
    version: AtomicU64,
    /// The owning consumer's match index. Uncontended by construction —
    /// producers never lock it.
    inner: Mutex<Matcher>,
    /// Eventcount state: the consumer raises `parked` under `park`; the
    /// producer that swaps it back to false owes the park its one notify,
    /// issued after passing through `park`.
    parked: AtomicBool,
    park: Mutex<()>,
    cv: Condvar,
    /// Notifies issued, for the one-per-park unit tests.
    #[cfg(test)]
    notifies: std::sync::atomic::AtomicUsize,
}

// SAFETY: the raw `Node` pointers are only ever created from `Box`es and
// traverse threads through the atomic head; every node is owned by exactly
// one side at a time (producers until the CAS lands, then the staging
// stack, then the drainer). `Env` is `Send` (its payload is
// `Box<dyn Any + Send>`), so moving nodes across threads is sound.
unsafe impl Send for Mailbox {}
unsafe impl Sync for Mailbox {}

impl Default for Mailbox {
    fn default() -> Mailbox {
        Mailbox::new()
    }
}

impl Mailbox {
    pub fn new() -> Mailbox {
        Mailbox {
            stage: AtomicPtr::new(ptr::null_mut()),
            version: AtomicU64::new(0),
            inner: Mutex::new(Matcher::default()),
            parked: AtomicBool::new(false),
            park: Mutex::new(()),
            cv: Condvar::new(),
            #[cfg(test)]
            notifies: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// Land an envelope (any thread). Lock-free except for the notify path,
    /// which only the first push into a park takes.
    pub fn push(&self, env: Env) {
        self.publish(env);
        if self.parked.swap(false, Ordering::SeqCst) {
            self.wake();
        }
    }

    /// Seeded bug for the model checker (`schedcheck_models.rs`): claim the
    /// park's one wake, then never deliver it.
    #[cfg(schedcheck)]
    #[doc(hidden)]
    pub fn push_claiming_the_wake_without_notifying(&self, env: Env) {
        self.publish(env);
        self.parked.swap(false, Ordering::SeqCst);
    }

    /// Make `env` visible to the consumer: the staging CAS (arrival's
    /// linearization point), then the version bump.
    fn publish(&self, env: Env) {
        let node = boxed::into_raw(Box::new(Node { env, next: RaceCell::new(ptr::null_mut()) }));
        let mut head = self.stage.load(Ordering::Relaxed);
        loop {
            // SAFETY: `node` is ours until the CAS succeeds.
            unsafe { (*node).next.set(head) };
            match self.stage.compare_exchange_weak(head, node, Ordering::SeqCst, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(h) => head = h,
            }
        }
        self.version.fetch_add(1, Ordering::SeqCst);
    }

    /// Deliver the wake this producer claimed. The consumer holds `park`
    /// from raising `parked` until it is inside the wait, so passing
    /// through the mutex first puts the notify after the point where it
    /// could be missed. Dropping the guard *before* notifying keeps the
    /// woken thread from immediately blocking on a mutex we still hold.
    fn wake(&self) {
        drop(self.park.lock().unwrap());
        self.cv.notify_one();
        #[cfg(test)]
        self.notifies.fetch_add(1, Ordering::Relaxed);
    }

    /// Detach the staged chain and restore arrival order (the stack is
    /// LIFO; reversal yields the CAS linearization order).
    fn drain_reversed(&self) -> *mut Node {
        let mut head = self.stage.swap(ptr::null_mut(), Ordering::SeqCst);
        let mut prev: *mut Node = ptr::null_mut();
        while !head.is_null() {
            // SAFETY: the swap gave us exclusive ownership of the chain.
            let next = unsafe { (*head).next.get() };
            unsafe { (*head).next.set(prev) };
            prev = head;
            head = next;
        }
        prev
    }

    /// Move everything staged into the index.
    fn drain_into(&self, inner: &mut Matcher) {
        let mut head = self.drain_reversed();
        while !head.is_null() {
            // SAFETY: each node is consumed exactly once.
            let node = unsafe { boxed::from_raw(head) };
            head = node.next.get();
            inner.insert(node.env);
        }
    }

    /// Drain staging, handing the first match for `(src, tag)` straight to
    /// the caller and indexing everything else. Only sound when the index
    /// holds no match (the caller's `Matcher::take` just missed): staged
    /// envelopes are younger than indexed ones, so the oldest match overall
    /// is the first match in the drained chain. The hot receive path —
    /// waiter already posted, message arrives — thus skips the index
    /// entirely.
    fn drain_match(&self, inner: &mut Matcher, src: Src, tag: Tag) -> Option<Env> {
        let mut head = self.drain_reversed();
        let mut hit: Option<Env> = None;
        while !head.is_null() {
            // SAFETY: each node is consumed exactly once.
            let node = unsafe { boxed::from_raw(head) };
            head = node.next.get();
            let env = node.env;
            let matches = hit.is_none()
                && env.tag == tag
                && match src {
                    Src::Any => true,
                    Src::Rank(r) => env.src == r,
                };
            if matches {
                hit = Some(env);
            } else {
                inner.insert(env);
            }
        }
        hit
    }

    /// Non-blocking take (owning rank only). Deliberately does *not*
    /// report the mailbox version: polls must not advance the caller's
    /// `wait_change` snapshot, or a push landing between two polls of one
    /// multiplexing round would be absorbed and the subsequent park could
    /// sleep forever (lost wake-up).
    pub fn try_take(&self, src: Src, tag: Tag) -> Option<Env> {
        let mut inner = self.inner.lock().unwrap();
        // Index first: staged envelopes are younger than indexed ones, so
        // this preserves FCFS and keeps the hot path off the shared
        // staging cache line entirely.
        if let Some(env) = inner.take(src, tag) {
            return Some(env);
        }
        self.drain_match(&mut inner, src, tag)
    }

    /// Blocking take (owning rank only).
    pub fn take(&self, src: Src, tag: Tag) -> Env {
        let mut inner = self.inner.lock().unwrap();
        if let Some(env) = inner.take(src, tag) {
            return env;
        }
        // The index holds no match from here on: only our own drains feed
        // it, and `drain_match` indexes non-matching envelopes only. So
        // the loop needs just drain + park.
        loop {
            if let Some(env) = self.drain_match(&mut inner, src, tag) {
                return env;
            }
            // Eventcount park: publish intent, re-check for a push that
            // raced the drain, then sleep. Producers never need `inner`,
            // so holding it across the wait starves nobody.
            let mut g = self.park.lock().unwrap();
            self.parked.store(true, Ordering::SeqCst);
            if self.stage.load(Ordering::SeqCst).is_null() {
                g = self.cv.wait(g).unwrap();
            }
            self.parked.store(false, Ordering::SeqCst);
            drop(g);
        }
    }

    /// Blocking take that gives up at the wall-clock `deadline` (owning
    /// rank only). The remaining wait is recomputed from the absolute
    /// deadline on every pass, so spurious wakes neither extend nor
    /// truncate the timeout.
    pub fn take_deadline(&self, src: Src, tag: Tag, deadline: Instant) -> Option<Env> {
        let mut inner = self.inner.lock().unwrap();
        if let Some(env) = inner.take(src, tag) {
            return Some(env);
        }
        loop {
            if let Some(env) = self.drain_match(&mut inner, src, tag) {
                return Some(env);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let mut g = self.park.lock().unwrap();
            self.parked.store(true, Ordering::SeqCst);
            if self.stage.load(Ordering::SeqCst).is_null() {
                let (guard, _timeout) = self.cv.wait_timeout(g, deadline - now).unwrap();
                g = guard;
            }
            self.parked.store(false, Ordering::SeqCst);
            drop(g);
        }
    }

    /// Metadata of the first available match, without consuming it (owning
    /// rank only). Like [`Mailbox::try_take`], never exposes the version.
    pub fn probe(&self, src: Src, tag: Tag) -> Option<MsgInfo> {
        let mut inner = self.inner.lock().unwrap();
        inner.probe(src, tag).or_else(|| {
            self.drain_into(&mut inner);
            inner.probe(src, tag)
        })
    }

    /// Park until the mailbox version moves past `seen`, then return the
    /// new version — the caller's snapshot for its *next* polling round.
    /// Because `seen` was taken when the previous `wait_change` returned
    /// (not during any poll since), every push after that instant makes
    /// the version differ and the call return immediately. The signal
    /// cannot be lost between a failed poll and the park; at worst the
    /// caller re-polls once for a message it already consumed.
    pub fn wait_change(&self, seen: u64) -> u64 {
        loop {
            let v = self.version.load(Ordering::SeqCst);
            if v != seen {
                return v;
            }
            let mut g = self.park.lock().unwrap();
            self.parked.store(true, Ordering::SeqCst);
            if self.version.load(Ordering::SeqCst) == seen {
                g = self.cv.wait(g).unwrap();
            }
            self.parked.store(false, Ordering::SeqCst);
            drop(g);
        }
    }

    /// Current version, as a round-start snapshot. Native ranks get
    /// theirs from `wait_change`, starting from the shared initial 0.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::SeqCst)
    }
}

impl Drop for Mailbox {
    fn drop(&mut self) {
        // Free anything still staged (undrained pushes at teardown). A
        // `swap` rather than `get_mut` so the same code type-checks
        // against the schedcheck shadow `AtomicPtr`, which has no
        // `get_mut`; under the model this is also what proves to the
        // SC203 leak tracker that every staged node is reclaimed.
        let mut head = self.stage.swap(ptr::null_mut(), Ordering::SeqCst);
        while !head.is_null() {
            // SAFETY: drop has exclusive access; each node freed once.
            let node = unsafe { boxed::from_raw(head) };
            head = node.next.get();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(src: usize, tag: Tag, v: u32) -> Env {
        Env { src, tag, bytes: 8, payload: Box::new(v) }
    }

    fn val(e: Env) -> u32 {
        *e.payload.downcast::<u32>().unwrap()
    }

    #[test]
    fn wildcard_takes_in_arrival_order_across_sources() {
        let mb = Mailbox::new();
        let t = Tag::user(7);
        mb.push(env(2, t, 20));
        mb.push(env(0, t, 0));
        mb.push(env(2, t, 21));
        assert_eq!(val(mb.take(Src::Any, t)), 20);
        assert_eq!(val(mb.take(Src::Any, t)), 0);
        assert_eq!(val(mb.take(Src::Any, t)), 21);
        assert!(mb.try_take(Src::Any, t).is_none());
    }

    #[test]
    fn directed_take_skips_other_sources_and_tombstones() {
        let mb = Mailbox::new();
        let t = Tag::user(1);
        mb.push(env(0, t, 1));
        mb.push(env(1, t, 2));
        mb.push(env(0, t, 3));
        // Wildcard consumes src 0's first message, leaving a tombstone in
        // the (0, t) FIFO.
        assert_eq!(val(mb.take(Src::Any, t)), 1);
        assert_eq!(val(mb.take(Src::Rank(0), t)), 3);
        assert_eq!(val(mb.take(Src::Rank(1), t)), 2);
    }

    #[test]
    fn tags_do_not_cross_match() {
        let mb = Mailbox::new();
        mb.push(env(0, Tag::user(1), 1));
        assert!(mb.try_take(Src::Any, Tag::user(2)).is_none());
        assert!(mb.probe(Src::Any, Tag::user(1)).is_some());
        assert_eq!(val(mb.take(Src::Any, Tag::user(1))), 1);
    }

    #[test]
    fn deadline_take_times_out_empty() {
        let mb = Mailbox::new();
        let before = Instant::now();
        let got =
            mb.take_deadline(Src::Any, Tag::user(1), before + std::time::Duration::from_millis(20));
        assert!(got.is_none());
        assert!(before.elapsed() >= std::time::Duration::from_millis(20));
    }

    #[test]
    fn version_moves_on_push_only() {
        let mb = Mailbox::new();
        let v0 = mb.version();
        mb.push(env(0, Tag::user(1), 1));
        let v1 = mb.wait_change(v0); // returns immediately: version moved
        assert!(v1 > v0);
    }

    /// The lost-wakeup regression: a push landing *between* two polls of a
    /// multiplexing round must still wake the next `wait_change`, because
    /// polls never advance the caller's snapshot.
    #[test]
    fn push_between_polls_is_not_absorbed() {
        let mb = Mailbox::new();
        let ta = Tag::user(1);
        let tb = Tag::user(2);
        let seen = mb.version(); // round-start snapshot
        assert!(mb.try_take(Src::Any, ta).is_none()); // poll stream A
        mb.push(env(0, tb, 7)); // producer lands B's message mid-round
        assert!(mb.try_take(Src::Any, ta).is_none()); // poll A again: no match
                                                      // The park must return immediately — the mid-round push moved the
                                                      // version past the round-start snapshot.
        let new = mb.wait_change(seen);
        assert!(new > seen);
        assert_eq!(val(mb.take(Src::Any, tb)), 7);
    }

    /// Teardown regression (PR 6): envelopes still sitting in the
    /// staging stack when the mailbox is dropped — pushed, never drained
    /// — must have their payloads freed, wherever they ended up (staged,
    /// indexed, or handed out). The schedcheck model proves this for
    /// every interleaving; this test pins the std build by counting
    /// payload drops directly.
    #[test]
    fn drop_frees_staged_and_indexed_envelopes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let counted = |drops: &Arc<AtomicUsize>| Env {
            src: 0,
            tag: Tag::user(1),
            bytes: 1,
            payload: Box::new(Counted(Arc::clone(drops))),
        };

        // All three staged, none drained: Drop's swap loop frees them.
        let mb = Mailbox::new();
        for _ in 0..3 {
            mb.push(counted(&drops));
        }
        drop(mb);
        assert_eq!(drops.load(Ordering::SeqCst), 3, "staged envelopes leaked at teardown");

        // Mixed fates: one consumed by the taker, two left behind in the
        // index (the take drained them), all freed by the end.
        drops.store(0, Ordering::SeqCst);
        let mb = Mailbox::new();
        for _ in 0..3 {
            mb.push(counted(&drops));
        }
        let taken = mb.take(Src::Any, Tag::user(1));
        drop(taken);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        drop(mb);
        assert_eq!(drops.load(Ordering::SeqCst), 3, "indexed envelopes leaked at teardown");
    }

    fn notifies(mb: &Mailbox) -> usize {
        mb.notifies.load(Ordering::Relaxed)
    }

    /// A consumer that parked and is being kept off the CPU, seen from
    /// the producers' side: the flag is up and stays up until one of
    /// them claims it. The whole burst pays for one notify, not one each
    /// (which is what a `parked.load()` in `push` costs); pushes at a
    /// consumer that is not parked pay for none.
    #[test]
    fn a_burst_into_one_park_notifies_once() {
        let mb = Mailbox::new();
        let t = Tag::user(1);
        mb.push(env(0, t, 0));
        assert_eq!(notifies(&mb), 0, "nobody is parked");
        for park in 1..=3 {
            mb.parked.store(true, Ordering::SeqCst);
            for i in 0..64 {
                mb.push(env(0, t, i));
            }
            assert_eq!(notifies(&mb), park, "one notify per park, however long the burst");
            assert!(!mb.parked.load(Ordering::SeqCst), "the claim clears the flag");
        }
    }

    /// The same count against a real consumer thread blocked on a tag that
    /// arrives last: every non-matching push finds it parked again (the
    /// test waits for that), wakes it exactly once, and it re-parks.
    #[test]
    fn each_park_of_a_real_consumer_is_notified_once() {
        let mb = Mailbox::new();
        let wanted = Tag::user(9);
        // The consumer holds `park` from raising the flag until it is
        // inside the wait, so flag up + one pass through the mutex means
        // it is asleep on the condvar.
        let wait_until_parked = || {
            while !mb.parked.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            drop(mb.park.lock().unwrap());
        };
        std::thread::scope(|s| {
            let consumer = s.spawn(|| val(mb.take(Src::Any, wanted)));
            for other in 1..=3u32 {
                wait_until_parked();
                mb.push(env(0, Tag::user(other), other));
                assert_eq!(notifies(&mb), other as usize);
            }
            wait_until_parked();
            mb.push(env(0, wanted, 42));
            assert_eq!(consumer.join().unwrap(), 42);
        });
        assert_eq!(notifies(&mb), 4, "three parks woken for nothing, one for the match");
    }

    /// Index-first matching must not reorder a staged-but-undrained
    /// envelope ahead of an older indexed one (FCFS across the drain
    /// boundary).
    #[test]
    fn fcfs_holds_across_the_staging_boundary() {
        let mb = Mailbox::new();
        let t = Tag::user(3);
        mb.push(env(0, t, 1));
        // Force a drain: the first take moves everything into the index.
        assert_eq!(val(mb.take(Src::Any, t)), 1);
        mb.push(env(1, t, 2)); // indexed on next miss
        mb.push(env(0, t, 3));
        assert_eq!(val(mb.take(Src::Any, t)), 2);
        // 3 is now indexed; a fresh push stages 4 behind it.
        mb.push(env(1, t, 4));
        assert_eq!(val(mb.take(Src::Any, t)), 3);
        assert_eq!(val(mb.take(Src::Any, t)), 4);
    }

    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// A receive's source is `None` for `Src::Any`.
    #[derive(Clone, Debug)]
    enum Op {
        Push { src: usize, tag: usize },
        TryTake { src: Option<usize>, tag: usize },
        Probe { src: Option<usize>, tag: usize },
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        let src = || (0usize..4).prop_map(|s| (s < 3).then_some(s));
        prop_oneof![
            4 => (0usize..3, 0usize..2).prop_map(|(src, tag)| Op::Push { src, tag }),
            3 => (src(), 0usize..2).prop_map(|(src, tag)| Op::TryTake { src, tag }),
            1 => (src(), 0usize..2).prop_map(|(src, tag)| Op::Probe { src, tag }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Random pushes, takes and probes, wildcard and directed, against
        /// a linear scan in arrival order (the simulator's naive reference
        /// mailbox with every envelope available at once). Pushes between
        /// takes land some matches straight off the staging drain and
        /// leave others in the index for a later take.
        #[test]
        fn index_matches_a_linear_scan(ops in prop::collection::vec(op_strategy(), 1..150)) {
            let tags = [Tag::user(1), Tag::internal(2, 0, 7)];
            let sel = |src: Option<usize>| src.map_or(Src::Any, Src::Rank);
            // (src, tag, id) in arrival order; `bytes` carries the id.
            let mut scan: VecDeque<(usize, Tag, u64)> = VecDeque::new();
            let first = |scan: &VecDeque<(usize, Tag, u64)>, src: Option<usize>, tag: Tag| {
                scan.iter().position(|&(s, t, _)| t == tag && src.is_none_or(|r| r == s))
            };
            let mb = Mailbox::new();
            for (id, op) in (0u64..).zip(ops) {
                match op {
                    Op::Push { src, tag } => {
                        let tag = tags[tag];
                        mb.push(Env { src, tag, bytes: id, payload: Box::new(()) });
                        scan.push_back((src, tag, id));
                    }
                    Op::TryTake { src, tag } => {
                        let want = first(&scan, src, tags[tag]).and_then(|i| scan.remove(i));
                        let got = mb.try_take(sel(src), tags[tag]).map(|e| (e.src, e.tag, e.bytes));
                        prop_assert_eq!(got, want);
                    }
                    Op::Probe { src, tag } => {
                        let want = first(&scan, src, tags[tag]).map(|i| scan[i]);
                        let got = mb.probe(sel(src), tags[tag]).map(|m| (m.src, m.tag, m.bytes));
                        prop_assert_eq!(got, want);
                    }
                }
            }
            // What is left drains in arrival order per tag.
            for tag in tags {
                while let Some(e) = mb.try_take(Src::Any, tag) {
                    let i = first(&scan, None, tag).expect("the scan holds it too");
                    prop_assert_eq!(Some((e.src, e.tag, e.bytes)), scan.remove(i));
                }
            }
            prop_assert!(scan.is_empty());
        }
    }
}
