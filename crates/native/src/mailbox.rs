//! Per-rank mail for the native backend, and the match index it shares
//! with socket ranks.
//!
//! The index, [`Matcher`], is built from the simulator's building blocks
//! ([`mpistream::index`]): envelopes live in a [`Slab`] keyed by arrival
//! sequence, with one [`IdQueue`] per tag for `Src::Any` matching and one
//! per `(src, tag)` for directed receives. The simulator's in-flight
//! machinery (messages whose availability lies in the virtual future) has
//! no native counterpart — a message is available the moment it is
//! staged — so that whole layer is the simulator's alone, and here FCFS
//! order *is* arrival order.
//!
//! ## One receiver, two owners
//!
//! A rank's mail has many producers (any rank may send to it) and exactly
//! one consumer, the rank's own thread. It is split along that line:
//!
//! - **[`Inbox`]** is the shared part: a lock-free Treiber stack that any
//!   thread stages messages onto (one `compare_exchange` on its head), and
//!   the rank's [`Bell`]. N producers hammering one rank — the incast
//!   pattern — contend on one cache line and never touch the index.
//! - **[`Receiver`]** is the owner's part: the [`Matcher`] and the
//!   *drained chain*, the staged nodes already detached from the inbox
//!   and not yet looked at, oldest first. No atomics, no lock.
//!
//! A native rank owns its `Receiver` outright (`ThreadLinks`), so a
//! receive takes no mutex. A [`Mailbox`] is the same pair for code that
//! shares one handle between threads: an `Inbox` and a `Mutex<Receiver>`
//! that only the owning thread locks. A socket rank needs neither: its
//! one thread is the only writer of its own mail, so it owns a bare
//! `Matcher` and inserts the frames it reads but does not take at once
//! (`socket::SocketLinks`).
//!
//! ## One allocation per message
//!
//! A staged node is one `Box`: a `repr(C)` header — `next`, `src`, `tag`,
//! `bytes` and a `&'static` table for the value's type (its `TypeId`, how
//! to turn it into an [`Env`], how to drop it) — followed by the value
//! itself. A typed send (`Inbox::send`, what `ThreadLinks::send` calls)
//! stages the value as it is; [`Mailbox::push`] stages an [`Env`]'s boxed
//! payload as the value, so both kinds share the one stack. A typed
//! receive compares the `TypeId` and moves the value out of its node; a
//! node of another type becomes an `Env` and is downcast, which is how a
//! mismatch still panics with the receiver's message.
//!
//! ## Read up to the first match
//!
//! A receive looks in the matcher first: everything it holds is older
//! than anything still staged, so index-first preserves FCFS. Otherwise
//! it walks the staged nodes in arrival order — the drained chain, which
//! one atomic `swap` of the stack head plus a list reversal refills when
//! it runs out — and stops at the first node that matches, which it hands
//! to the caller where it lies. Only the nodes it passes over on the way
//! become `Env`s in the matcher, and only they pay for a box; the rest of
//! the chain waits for the next receive. [`Receiver::probe`] and
//! [`Receiver::wait_change`] serve everything into the matcher first.
//! The linearization point of arrival is the staging CAS, and matcher,
//! drained chain and stack hold disjoint, consecutive stretches of that
//! order, so wildcard matching remains exactly FCFS.
//!
//! ## The index, sized for the per-message budget
//!
//! Arrival ids are consecutive, so the envelope store is a sliding window
//! of slots indexed by `id - base` — no hashing at all on the store. The
//! per-tag and per-`(src, tag)` queues sit in maps behind desim's
//! fixed-key multiplicative hasher; a take through one queue leaves a
//! tombstone in the other, popped lazily when it reaches the front and
//! compacted outright when tombstones hit half a queue.
//!
//! ## Sleeping: one wake per park, none lost
//!
//! A receiver that found nothing sleeps on its inbox's [`Bell`] through
//! [`Bell::wait`], the loop a socket rank waits in too. It raises the
//! bell, looks again — a look that finds nothing has read the stack to
//! its end — and only if there is still nothing calls `FUTEX_WAIT`;
//! awake, it lowers the bell and goes round its loop. A producer makes its push visible first (the CAS)
//! and then rings: a load of the bell and, if raised, a swap back to 0;
//! only the producer whose swap claimed it issues `FUTEX_WAKE`, and every
//! other push into the same park returns after its load. All accesses
//! are `SeqCst`, which closes the store-buffering race — a producer sees
//! the bell raised or the receiver's second look sees the push, never
//! neither — and since the claim changes the word the receiver sleeps
//! on, a wake that lands before its `FUTEX_WAIT` still ends it. The
//! interleavings the claim adds:
//!
//! 1. *A claims and is preempted before its wake; B pushes, reads the
//!    lowered bell, returns.* The receiver either has not reached
//!    `FUTEX_WAIT` (the word is no longer `RAISED`, so the wait returns
//!    at once) or sleeps until A runs again — delayed by A's preemption
//!    exactly as a lone producer's wake would be. Woken, it drains: B's
//!    load read A's claim, so B's CAS came before it and the drain takes
//!    B's node too.
//! 2. *A's wake arrives late: the receiver already woke (a timeout, or
//!    its second look saw the push), found no match and raised the bell
//!    again.* A spurious wake, one extra trip round the loop; pushes
//!    after the second raise claim afresh.
//! 3. *The woken receiver finds a node for a different tag and parks
//!    again while the matching push is in flight.* That push's CAS
//!    either precedes the second look (the receiver does not sleep) or
//!    follows it, and then its load sees the raised bell and it claims a
//!    fresh wake.
//!
//! The first push into a park wakes at once: wakes are never deferred or
//! batched, and there is no spin before the sleep — where the benchmark
//! pins both ranks to one CPU a spin only burns the producer's time
//! slice.
//!
//! ## `version`
//!
//! [`Receiver::version`] is the matcher's insert count, as on a socket
//! rank: it moves when a receive passes a message over or `wait_change`
//! serves one, and on nothing else. `wait_change(seen)` serves the stack
//! into the matcher and returns as soon as the count differs from
//! `seen`, sleeping while it does not. The caller's snapshot advances
//! *only* there — never on a poll — so a message that lands anywhere in a
//! multi-poll round (e.g. `operate2` polling two streams in turn) is
//! either taken by a poll, or passed over into the matcher by one (the
//! count moved), or still staged when the wait serves it (the count
//! moves then). At worst the caller re-polls once; the wake cannot be
//! lost.
//!
//! Deadline waits recompute the remaining time from the caller's absolute
//! deadline on every pass round the loop, so a spurious wake can neither
//! extend the wait (the deadline is a fixed instant) nor truncate it.
//!
//! This module is public so the crate's stress-test battery can hammer a
//! bare mailbox from many real threads; it is not a stable API.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::hash::Hash;
use std::mem::ManuallyDrop;
use std::ptr::{self, NonNull};

use crate::sync::atomic::{AtomicPtr, Ordering};
use crate::sync::boxed;
use crate::sync::cell::RaceCell;
use crate::sync::futex::Bell;
use crate::sync::{Instant, Mutex, MutexGuard};
use crate::Until;

use desim::FixedState;
use mpistream::index::{IdQueue, Slab};
use mpistream::{MsgInfo, Src, Tag};

pub struct Env {
    pub src: usize,
    pub tag: Tag,
    pub bytes: u64,
    pub payload: Box<dyn Any + Send>,
}

impl Env {
    fn new(payload: Payload, info: MsgInfo) -> Env {
        Env { src: info.src, tag: info.tag, bytes: info.bytes, payload }
    }

    fn info(&self) -> MsgInfo {
        MsgInfo { src: self.src, tag: self.tag, bytes: self.bytes }
    }
}

/// An envelope's payload: the value of a node that [`Mailbox::push`]
/// staged.
type Payload = Box<dyn Any + Send>;

/// What a staged node's header knows about the value behind it. One
/// static table per value type.
struct ValueType {
    id: TypeId,
    /// Move the value into an envelope and free the node.
    into_env: unsafe fn(*mut Header) -> Env,
    /// Drop the value and free the node.
    free: unsafe fn(*mut Header),
}

/// The start of every staged node, whatever its value. The `next` link
/// is a [`RaceCell`]: it is written without synchronization of its own
/// (by the pushing producer before the CAS publishes the node, and by
/// the draining receiver during reversal), with the happens-before
/// argument carried entirely by the staging head's atomics — exactly
/// what the model checker's race detector verifies under
/// `--cfg schedcheck`.
#[repr(C)]
struct Header {
    next: RaceCell<*mut Header>,
    src: usize,
    tag: Tag,
    bytes: u64,
    ty: &'static ValueType,
}

impl Header {
    fn info(&self) -> MsgInfo {
        MsgInfo { src: self.src, tag: self.tag, bytes: self.bytes }
    }

    fn matches(&self, src: Src, tag: Tag) -> bool {
        self.tag == tag
            && match src {
                Src::Any => true,
                Src::Rank(r) => self.src == r,
            }
    }
}

/// A staged message in one allocation: the header, then the value. A
/// pointer to a node is a pointer to its header (`repr(C)`, header
/// first), and the header's table says which `Node<T>` it is.
#[repr(C)]
struct Node<T> {
    header: Header,
    value: T,
}

impl<T: Send + 'static> Node<T> {
    const TYPE: &'static ValueType =
        &ValueType { id: TypeId::of::<T>(), into_env: boxed_into_env::<T>, free: free::<T> };
}

impl<T> Node<T> {
    /// A node for `value`, ready to stage; `ty` is `T`'s table.
    fn raw(info: MsgInfo, value: T, ty: &'static ValueType) -> *mut Header {
        let MsgInfo { src, tag, bytes } = info;
        let header = Header { next: RaceCell::new(ptr::null_mut()), src, tag, bytes, ty };
        boxed::into_raw(Box::new(Node { header, value })).cast()
    }

    /// Free the node behind `p`, moving its value out.
    ///
    /// # Safety
    /// `p` came from [`Node::<T>::raw`], is owned by the caller, and is
    /// not used again.
    unsafe fn reclaim(p: *mut Header) -> (T, MsgInfo) {
        // SAFETY: per the contract, a `Node<T>` minted by `raw`.
        let node = unsafe { boxed::from_raw(p.cast::<Node<T>>()) };
        let Node { header, value } = *node;
        (value, header.info())
    }
}

/// The table of a node [`Mailbox::push`] staged: the payload box goes
/// back into an envelope as it is.
static PAYLOAD: ValueType =
    ValueType { id: TypeId::of::<Payload>(), into_env: payload_into_env, free: free::<Payload> };

/// # Safety
/// As [`Node::reclaim`], for a `Node<T>`.
unsafe fn boxed_into_env<T: Send + 'static>(p: *mut Header) -> Env {
    // SAFETY: forwarded.
    let (value, info) = unsafe { Node::<T>::reclaim(p) };
    Env::new(Box::new(value), info)
}

/// # Safety
/// As [`Node::reclaim`], for a `Node<Payload>`.
unsafe fn payload_into_env(p: *mut Header) -> Env {
    // SAFETY: forwarded.
    let (payload, info) = unsafe { Node::<Payload>::reclaim(p) };
    Env::new(payload, info)
}

/// # Safety
/// As [`Node::reclaim`], for a `Node<T>`.
unsafe fn free<T>(p: *mut Header) {
    // SAFETY: forwarded.
    drop(unsafe { boxed::from_raw(p.cast::<Node<T>>()) });
}

/// A node off the drained chain, owned: dropping it drops its value.
struct Staged(NonNull<Header>);

impl Staged {
    fn header(&self) -> &Header {
        // SAFETY: a live node that this handle owns.
        unsafe { self.0.as_ref() }
    }

    fn into_env(self) -> Env {
        let this = ManuallyDrop::new(self);
        // SAFETY: the table belongs to this node, which `this` owns and
        // never touches again.
        unsafe { (this.header().ty.into_env)(this.0.as_ptr()) }
    }

    /// The value, moved out of the node if it is a `T`; the node as an
    /// envelope if it is not.
    fn downcast<T: 'static>(self) -> Result<(T, MsgInfo), Env> {
        if self.header().ty.id != TypeId::of::<T>() {
            return Err(self.into_env());
        }
        let this = ManuallyDrop::new(self);
        // SAFETY: its table says this is a `Node<T>`; `this` owns it and
        // never touches it again.
        Ok(unsafe { Node::<T>::reclaim(this.0.as_ptr()) })
    }
}

impl Drop for Staged {
    fn drop(&mut self) {
        // SAFETY: the node's own table; nothing uses it after this.
        unsafe { (self.header().ty.free)(self.0.as_ptr()) }
    }
}

/// A message a receive took, where it found it: an envelope out of the
/// matcher, or a node off the drained chain whose value has not moved
/// yet.
pub struct Taken(Found);

enum Found {
    Indexed(Env),
    Staged(Staged),
}

impl Taken {
    /// The message as an envelope; a typed value is boxed on the way.
    pub(crate) fn into_env(self) -> Env {
        match self.0 {
            Found::Indexed(env) => env,
            Found::Staged(node) => node.into_env(),
        }
    }

    /// The value as a `T` — moved out of its node when it was sent as
    /// one, else downcast out of its envelope — with what the message
    /// says about itself; `Err` with the latter if it holds anything
    /// else.
    #[inline]
    pub fn downcast<T: 'static>(self) -> Result<(T, MsgInfo), MsgInfo> {
        let env = match self.0 {
            Found::Indexed(env) => env,
            Found::Staged(node) => match node.downcast::<T>() {
                Ok(got) => return Ok(got),
                Err(env) => env,
            },
        };
        let info = env.info();
        env.payload.downcast::<T>().map(|v| (*v, info)).map_err(|_| info)
    }
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
/// A [`Receiver`] keeps one for the messages its receives passed over; a
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

/// The shared part of one rank's mail: the staging stack that any thread
/// may push onto, and the bell its owner sleeps on.
pub struct Inbox {
    /// Producers' staging stack: newest node at the head.
    stage: AtomicPtr<Header>,
    bell: Bell,
    /// `FUTEX_WAKE`s issued, for the one-per-park unit tests.
    #[cfg(test)]
    wakes: std::sync::atomic::AtomicUsize,
}

// SAFETY: the raw node pointers are only ever created from `Box`es and
// traverse threads through the atomic head; every node is owned by exactly
// one side at a time (its producer until the CAS lands, then the staging
// stack, then the receiver that drained it). Every value staged is `Send`.
unsafe impl Send for Inbox {}
// SAFETY: as above; shared access goes through the atomic head (a CAS to
// push, a swap to drain) and the bell, both safe from any thread.
unsafe impl Sync for Inbox {}

impl Default for Inbox {
    fn default() -> Inbox {
        Inbox::new()
    }
}

impl Inbox {
    pub fn new() -> Inbox {
        Inbox {
            stage: AtomicPtr::new(ptr::null_mut()),
            bell: Bell::in_process(),
            #[cfg(test)]
            wakes: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// Stage `value` as a message `info` describes (any thread): one
    /// allocation, the node with the value inside it.
    #[inline]
    pub fn send<T: Send + 'static>(&self, info: MsgInfo, value: T) {
        self.publish(Node::raw(info, value, Node::<T>::TYPE));
        self.ring();
    }

    /// Stage an envelope (any thread): its payload box rides in the node
    /// as the value.
    pub(crate) fn push(&self, env: Env) {
        self.publish(Node::raw(env.info(), env.payload, &PAYLOAD));
        self.ring();
    }

    /// Make `node` visible to the receiver: the staging CAS, arrival's
    /// linearization point.
    fn publish(&self, node: *mut Header) {
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
    }

    /// Wake the receiver if it is parked and no other push has claimed
    /// the wake.
    fn ring(&self) {
        let _woke = self.bell.ring();
        #[cfg(test)]
        self.wakes.fetch_add(usize::from(_woke), Ordering::Relaxed);
    }

    /// Detach the staged chain and restore arrival order (the stack is
    /// LIFO; reversal yields the CAS linearization order). A load first,
    /// so looking at an empty stack costs no read-modify-write.
    fn drain(&self) -> *mut Header {
        if self.stage.load(Ordering::SeqCst).is_null() {
            return ptr::null_mut();
        }
        let mut head = self.stage.swap(ptr::null_mut(), Ordering::SeqCst);
        let mut prev: *mut Header = ptr::null_mut();
        while !head.is_null() {
            // SAFETY: the swap gave us exclusive ownership of the chain.
            let next = unsafe { (*head).next.get() };
            // SAFETY: as above: `head` is a live node of that chain.
            unsafe { (*head).next.set(prev) };
            prev = head;
            head = next;
        }
        prev
    }
}

/// Free every node of the chain that starts at `head`.
///
/// # Safety
/// The caller owns the chain — null, or staged nodes linked through
/// `next` — and uses none of it again.
unsafe fn free_chain(mut head: *mut Header) {
    while let Some(node) = NonNull::new(head) {
        // SAFETY: the caller owns the chain; each node is freed once.
        head = unsafe { node.as_ref().next.get() };
        drop(Staged(node));
    }
}

impl Drop for Inbox {
    fn drop(&mut self) {
        // Free anything still staged (undrained pushes at teardown). A
        // `swap` rather than `get_mut` so the same code type-checks
        // against the schedcheck shadow `AtomicPtr`, which has no
        // `get_mut`; under the model this is also what proves to the
        // SC203 leak tracker that every staged node is reclaimed.
        // SAFETY: the swap detached the chain, and `self` is going.
        unsafe { free_chain(self.stage.swap(ptr::null_mut(), Ordering::SeqCst)) };
    }
}

/// The owner's part of one rank's mail: the match index, and the nodes
/// drained from the [`Inbox`] that no receive has looked at yet. Every
/// method takes the inbox it drains; it must be the same one each time.
pub struct Receiver {
    matcher: Matcher,
    /// Detached staged nodes, oldest first: younger than everything in
    /// `matcher`, older than everything still on the inbox's stack.
    drained: *mut Header,
}

// SAFETY: the drained chain is owned by the receiver alone, and every
// value on it is `Send`.
unsafe impl Send for Receiver {}

impl Default for Receiver {
    fn default() -> Receiver {
        Receiver { matcher: Matcher::default(), drained: ptr::null_mut() }
    }
}

impl Receiver {
    /// The oldest staged node: the drained chain's head, refilled from
    /// the inbox when it runs out.
    fn next(&mut self, inbox: &Inbox) -> Option<Staged> {
        if self.drained.is_null() {
            self.drained = inbox.drain();
        }
        let node = NonNull::new(self.drained)?;
        // SAFETY: the chain is ours; the node leaves it here.
        self.drained = unsafe { node.as_ref().next.get() };
        Some(Staged(node))
    }

    /// The first message matching `(src, tag)` that has arrived: out of
    /// the matcher, else the first staged node that matches, every node
    /// passed over on the way indexed. `None` has read the stack to its
    /// end, as a look before a sleep must.
    fn take_now(&mut self, inbox: &Inbox, src: Src, tag: Tag) -> Option<Taken> {
        if let Some(env) = self.matcher.take(src, tag) {
            return Some(Taken(Found::Indexed(env)));
        }
        while let Some(node) = self.next(inbox) {
            if node.header().matches(src, tag) {
                return Some(Taken(Found::Staged(node)));
            }
            self.matcher.insert(node.into_env());
        }
        None
    }

    /// Move everything staged into the matcher.
    fn serve(&mut self, inbox: &Inbox) {
        while let Some(node) = self.next(inbox) {
            self.matcher.insert(node.into_env());
        }
    }

    /// The first message for `(src, tag)` in arrival order, waiting for
    /// one as `until` says: `None` only when `until` ran out. A poll
    /// (`Until::Now`) deliberately does not report the version: polls
    /// must not advance the caller's `wait_change` snapshot.
    #[inline]
    pub fn recv(&mut self, inbox: &Inbox, src: Src, tag: Tag, until: Until) -> Option<Taken> {
        inbox.bell.wait(until, || self.take_now(inbox, src, tag))
    }

    /// Metadata of the first match that has arrived, not consumed.
    pub fn probe(&mut self, inbox: &Inbox, src: Src, tag: Tag) -> Option<MsgInfo> {
        self.matcher.probe(src, tag).or_else(|| {
            self.serve(inbox);
            self.matcher.probe(src, tag)
        })
    }

    /// Wait until the version differs from `seen`, and return it — the
    /// caller's snapshot for its *next* polling round. Because `seen` was
    /// taken when the previous `wait_change` returned (not during any
    /// poll since), a message that arrived after that instant and is not
    /// taken yet makes this return at once.
    pub fn wait_change(&mut self, inbox: &Inbox, seen: u64) -> u64 {
        let changed = inbox.bell.wait(Until::Forever, || {
            self.serve(inbox);
            Some(self.version()).filter(|&v| v != seen)
        });
        changed.expect("a wait without a deadline ends with a change")
    }

    /// How many messages have gone into the matcher: the count
    /// [`Receiver::wait_change`] waits on.
    pub fn version(&self) -> u64 {
        self.matcher.version()
    }
}

impl Drop for Receiver {
    fn drop(&mut self) {
        // SAFETY: the drained chain is the receiver's alone.
        unsafe { free_chain(self.drained) };
    }
}

/// One rank's mail behind a shared handle: an [`Inbox`] that any thread
/// pushes onto and a [`Receiver`] that only the owning thread locks, so
/// its mutex is never contended.
pub struct Mailbox {
    inbox: Inbox,
    rx: Mutex<Receiver>,
}

impl Default for Mailbox {
    fn default() -> Mailbox {
        Mailbox::new()
    }
}

impl Mailbox {
    pub fn new() -> Mailbox {
        Mailbox { inbox: Inbox::new(), rx: Mutex::new(Receiver::default()) }
    }

    /// Land an envelope (any thread). Lock-free; only the first push into
    /// a park makes a system call.
    pub fn push(&self, env: Env) {
        self.inbox.push(env);
    }

    /// Seeded bug for the model checker (`schedcheck_models.rs`): claim
    /// the parked receiver's one wake, then never deliver it.
    #[cfg(schedcheck)]
    #[doc(hidden)]
    pub fn push_claiming_the_wake_without_notifying(&self, env: Env) {
        self.inbox.publish(Node::raw(env.info(), env.payload, &PAYLOAD));
        self.inbox.bell.claim();
    }

    fn rx(&self) -> MutexGuard<'_, Receiver> {
        self.rx.lock().expect("the owning thread panicked in a receive")
    }

    fn recv(&self, src: Src, tag: Tag, until: Until) -> Option<Env> {
        let taken = self.rx().recv(&self.inbox, src, tag, until);
        taken.map(Taken::into_env)
    }

    /// Non-blocking take (owning thread only). Like every poll, it leaves
    /// the caller's `wait_change` snapshot alone.
    pub fn try_take(&self, src: Src, tag: Tag) -> Option<Env> {
        self.recv(src, tag, Until::Now)
    }

    /// Blocking take (owning thread only).
    pub fn take(&self, src: Src, tag: Tag) -> Env {
        let env = self.recv(src, tag, Until::Forever);
        env.expect("a receive without a deadline waits until it matches")
    }

    /// Blocking take that gives up at the wall-clock `deadline` (owning
    /// thread only).
    pub fn take_deadline(&self, src: Src, tag: Tag, deadline: Instant) -> Option<Env> {
        self.recv(src, tag, Until::At(deadline))
    }

    /// [`Receiver::probe`] (owning thread only).
    pub fn probe(&self, src: Src, tag: Tag) -> Option<MsgInfo> {
        self.rx().probe(&self.inbox, src, tag)
    }

    /// [`Receiver::wait_change`] (owning thread only): at worst the
    /// caller re-polls once for a message it already consumed.
    pub fn wait_change(&self, seen: u64) -> u64 {
        self.rx().wait_change(&self.inbox, seen)
    }

    /// [`Receiver::version`]: native ranks get their snapshot from
    /// `wait_change`, starting from the initial 0.
    pub fn version(&self) -> u64 {
        self.rx().version()
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

    fn wakes(mb: &Mailbox) -> usize {
        mb.inbox.wakes.load(Ordering::Relaxed)
    }

    /// A receiver that raised its bell and is being kept off the CPU,
    /// seen from the producers' side: the bell stays raised until one of
    /// them claims it. The whole burst pays for one `FUTEX_WAKE`, not one
    /// each; pushes at a receiver that is not parked pay for none.
    #[test]
    fn a_burst_into_one_park_notifies_once() {
        let mb = Mailbox::new();
        let t = Tag::user(1);
        mb.push(env(0, t, 0));
        assert_eq!(wakes(&mb), 0, "nobody is parked");
        for park in 1..=3 {
            mb.inbox.bell.raise();
            for i in 0..64 {
                mb.push(env(0, t, i));
            }
            assert_eq!(wakes(&mb), park, "one wake per park, however long the burst");
            assert!(!mb.inbox.bell.is_raised(), "the claim lowers the bell");
        }
    }

    /// The state of this process's thread named `name`, from its `stat`.
    #[cfg(target_os = "linux")]
    fn thread_state(name: &str) -> Option<char> {
        for task in std::fs::read_dir("/proc/self/task").ok()? {
            let dir = task.ok()?.path();
            if std::fs::read_to_string(dir.join("comm")).ok()?.trim_end() == name {
                let stat = std::fs::read_to_string(dir.join("stat")).ok()?;
                // The state follows the parenthesised thread name.
                return stat.rsplit_once(") ")?.1.chars().next();
            }
        }
        None
    }

    /// The same count against a real consumer thread blocked on a tag that
    /// arrives last: every non-matching push finds it asleep (the test
    /// waits for that), wakes it exactly once, and it sleeps again.
    #[cfg(target_os = "linux")]
    #[test]
    fn each_park_of_a_real_consumer_is_notified_once() {
        let mb = Mailbox::new();
        let wanted = Tag::user(9);
        const NAME: &str = "mailbox-owner";
        // Between raising the bell and `FUTEX_WAIT` the consumer does
        // nothing that sleeps, so bell raised and thread sleeping means
        // it is inside the wait.
        let wait_until_asleep = || {
            while !(mb.inbox.bell.is_raised() && thread_state(NAME) == Some('S')) {
                std::thread::yield_now();
            }
        };
        std::thread::scope(|s| {
            let consumer = std::thread::Builder::new()
                .name(NAME.into())
                .spawn_scoped(s, || val(mb.take(Src::Any, wanted)))
                .unwrap();
            for other in 1..=3u32 {
                wait_until_asleep();
                mb.push(env(0, Tag::user(other), other));
                assert_eq!(wakes(&mb), other as usize);
            }
            wait_until_asleep();
            mb.push(env(0, wanted, 42));
            assert_eq!(consumer.join().unwrap(), 42);
        });
        assert_eq!(wakes(&mb), 4, "three parks woken for nothing, one for the match");
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

    fn info(src: usize, tag: Tag, bytes: u64) -> MsgInfo {
        MsgInfo { src, tag, bytes }
    }

    fn fields(m: MsgInfo) -> (usize, Tag, u64) {
        (m.src, m.tag, m.bytes)
    }

    fn staged(inbox: &Inbox) -> bool {
        !inbox.stage.load(Ordering::SeqCst).is_null()
    }

    /// A typed receive through a bare `Inbox` and `Receiver`, as a
    /// native rank makes it.
    fn recv_u64(inbox: &Inbox, rx: &mut Receiver, src: Src, tag: Tag) -> Option<(u64, MsgInfo)> {
        rx.recv(inbox, src, tag, Until::Now).map(|t| t.downcast::<u64>().expect("a u64"))
    }

    /// A receive stops at its first match: what it passed over is in the
    /// matcher, what lies behind the match waits on the drained chain,
    /// and what came later is still staged. Arrival order holds across
    /// all three, for typed values and envelopes alike.
    #[test]
    fn matcher_drained_chain_and_stack_keep_arrival_order() {
        let (inbox, mut rx) = (Inbox::new(), Receiver::default());
        let (ta, tb) = (Tag::user(1), Tag::user(2));
        inbox.send(info(0, ta, 8), 1u64);
        inbox.push(Env { src: 1, tag: ta, bytes: 8, payload: Box::new(2u64) });
        inbox.send(info(0, tb, 8), 3u64);
        inbox.send(info(1, ta, 8), 4u64);
        assert_eq!(recv_u64(&inbox, &mut rx, Src::Any, tb).unwrap().0, 3);
        assert_eq!(rx.version(), 2, "two passed over into the matcher");
        assert!(!rx.drained.is_null(), "one left on the drained chain");
        inbox.send(info(0, ta, 8), 5u64);
        assert!(staged(&inbox), "one staged");
        let got: Vec<u64> =
            std::iter::from_fn(|| recv_u64(&inbox, &mut rx, Src::Any, ta).map(|(v, _)| v))
                .collect();
        assert_eq!(got, [1, 2, 4, 5]);
        assert_eq!(rx.version(), 2, "a receive that matches at once indexes nothing");
    }

    /// The value rides in its node: a typed receive gets it back with
    /// what the message says about itself, wherever it was found, and a
    /// receive for another type gets `Err` — from the node and from the
    /// matcher alike.
    #[test]
    fn a_typed_receive_checks_the_type_wherever_it_finds_the_message() {
        let (inbox, mut rx) = (Inbox::new(), Receiver::default());
        let (ta, tb) = (Tag::user(1), Tag::user(2));
        inbox.send(info(3, ta, 40), 7u64);
        inbox.send(info(4, tb, 16), "seven");
        let staged = rx.recv(&inbox, Src::Any, tb, Until::Now).unwrap();
        assert_eq!(fields(staged.downcast::<u64>().unwrap_err()), (4, tb, 16));
        let indexed = rx.recv(&inbox, Src::Rank(3), ta, Until::Now).unwrap();
        let (v, m) = indexed.downcast::<u64>().unwrap();
        assert_eq!((v, fields(m)), (7, (3, ta, 40)));
        inbox.send(info(5, ta, 8), 1u32);
        inbox.send(info(5, tb, 8), 2u32);
        let staged = rx.recv(&inbox, Src::Any, tb, Until::Now).unwrap();
        assert!(staged.downcast::<u64>().is_err(), "a u32 is no u64");
        let indexed = rx.recv(&inbox, Src::Any, ta, Until::Now).unwrap();
        let (v, m) = indexed.downcast::<u32>().unwrap();
        assert_eq!((v, fields(m)), (1, (5, ta, 8)));
    }

    /// Typed values left anywhere at teardown are dropped exactly once:
    /// indexed (passed over), on the drained chain (behind a match), and
    /// still staged (sent after the last receive).
    #[test]
    fn teardown_drops_typed_values_wherever_they_wait() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;

        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let counted = || Counted(Arc::clone(&drops));
        let (ta, tb) = (Tag::user(1), Tag::user(2));
        let (inbox, mut rx) = (Inbox::new(), Receiver::default());
        inbox.send(info(0, ta, 1), counted()); // passed over: indexed
        inbox.send(info(0, tb, 1), counted()); // taken
        inbox.send(info(0, ta, 1), counted()); // behind the match: drained
        let taken = rx.recv(&inbox, Src::Any, tb, Until::Now).unwrap();
        drop(taken.downcast::<Counted>().unwrap());
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        inbox.send(info(0, ta, 1), counted()); // staged
        assert_eq!((rx.version(), rx.drained.is_null(), staged(&inbox)), (1, false, true));
        drop(rx);
        assert_eq!(drops.load(Ordering::SeqCst), 3, "indexed or drained values leaked");
        drop(inbox);
        assert_eq!(drops.load(Ordering::SeqCst), 4, "staged values leaked");
    }

    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// A receive's source is `None` for `Src::Any`.
    #[derive(Clone, Debug)]
    enum Op {
        Push { src: usize, tag: usize },
        Send { src: usize, tag: usize },
        TryTake { src: Option<usize>, tag: usize },
        Recv { src: Option<usize>, tag: usize },
        Probe { src: Option<usize>, tag: usize },
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        let src = || (0usize..4).prop_map(|s| (s < 3).then_some(s));
        prop_oneof![
            2 => (0usize..3, 0usize..2).prop_map(|(src, tag)| Op::Push { src, tag }),
            2 => (0usize..3, 0usize..2).prop_map(|(src, tag)| Op::Send { src, tag }),
            2 => (src(), 0usize..2).prop_map(|(src, tag)| Op::TryTake { src, tag }),
            2 => (src(), 0usize..2).prop_map(|(src, tag)| Op::Recv { src, tag }),
            1 => (src(), 0usize..2).prop_map(|(src, tag)| Op::Probe { src, tag }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Random envelope pushes and typed sends, envelope takes, typed
        /// receives and probes, wildcard and directed, against a linear
        /// scan in arrival order (the simulator's naive reference mailbox
        /// with every envelope available at once). A receive stops at its
        /// first match, so the matcher, the drained chain and the stack
        /// each hold some messages between operations; the value is the
        /// message's id, in a node of its own or in an envelope's box.
        #[test]
        fn index_matches_a_linear_scan(ops in prop::collection::vec(op_strategy(), 1..150)) {
            let tags = [Tag::user(1), Tag::internal(2, 0, 7)];
            let sel = |src: Option<usize>| src.map_or(Src::Any, Src::Rank);
            // (src, tag, id) in arrival order; `bytes` carries the id.
            let mut scan: VecDeque<(usize, Tag, u64)> = VecDeque::new();
            let first = |scan: &VecDeque<(usize, Tag, u64)>, src: Option<usize>, tag: Tag| {
                scan.iter().position(|&(s, t, _)| t == tag && src.is_none_or(|r| r == s))
            };
            let env_of = |e: Env| {
                let v = *e.payload.downcast::<u64>().expect("a u64 payload");
                assert_eq!(v, e.bytes, "the value is the id");
                (e.src, e.tag, e.bytes)
            };
            let mb = Mailbox::new();
            for (id, op) in (0u64..).zip(ops) {
                match op {
                    Op::Push { src, tag } => {
                        let tag = tags[tag];
                        mb.push(Env { src, tag, bytes: id, payload: Box::new(id) });
                        scan.push_back((src, tag, id));
                    }
                    Op::Send { src, tag } => {
                        let tag = tags[tag];
                        mb.inbox.send(MsgInfo { src, tag, bytes: id }, id);
                        scan.push_back((src, tag, id));
                    }
                    Op::TryTake { src, tag } => {
                        let want = first(&scan, src, tags[tag]).and_then(|i| scan.remove(i));
                        let got = mb.try_take(sel(src), tags[tag]).map(env_of);
                        prop_assert_eq!(got, want);
                    }
                    Op::Recv { src, tag } => {
                        let want = first(&scan, src, tags[tag]).and_then(|i| scan.remove(i));
                        let mut rx = mb.rx.lock().unwrap();
                        let got = recv_u64(&mb.inbox, &mut rx, sel(src), tags[tag]).map(|(v, m)| {
                            assert_eq!(v, m.bytes, "the value is the id");
                            fields(m)
                        });
                        prop_assert_eq!(got, want);
                    }
                    Op::Probe { src, tag } => {
                        let want = first(&scan, src, tags[tag]).map(|i| scan[i]);
                        let got = mb.probe(sel(src), tags[tag]).map(fields);
                        prop_assert_eq!(got, want);
                    }
                }
            }
            // What is left drains in arrival order per tag.
            for tag in tags {
                while let Some(e) = mb.try_take(Src::Any, tag) {
                    let i = first(&scan, None, tag).expect("the scan holds it too");
                    prop_assert_eq!(Some(env_of(e)), scan.remove(i));
                }
            }
            prop_assert!(scan.is_empty());
        }
    }
}
