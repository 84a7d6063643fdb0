//! Messages, tags and per-rank mailboxes.
//!
//! Payloads travel as `Box<dyn Any + Send>` carrying *real* Rust values —
//! the applications built on the simulator compute on genuine data — while
//! the *modelled* wire size is carried separately in `Envelope::bytes` and
//! drives all timing.
//!
//! # Matching semantics (the contract every index must preserve)
//!
//! A receive for `(src, tag)` at virtual time `now` matches the **first
//! envelope in arrival order that is available** (`available_at <= now`).
//! If every matching envelope is still in flight, the receive parks and is
//! woken at the earliest `available_at` among them (ties broken by earliest
//! arrival). Arrival order is NIC drain order, so this is FCFS — the
//! mechanism the decoupling model uses to absorb imbalance.
//!
//! # Indexing
//!
//! The seed implementation kept one `VecDeque` and linearly scanned it per
//! receive. Under incast (the Fig. 5 master draining thousands of
//! rx-serialized producers) almost every receive found *nothing available
//! yet* and rescanned the entire backlog to compute the earliest
//! availability — an O(N²) drain. This version maintains:
//!
//! - `envs`: live envelopes in an [`index::Slab`] under consecutive
//!   arrival seqs (arrival order == seq order), a sliding window with no
//!   hashing; the orphan drain reads it in seq order.
//! - `by_tag`: per-`Tag` index with a `ready` set (landed envelopes, by
//!   seq — `first()` is the FCFS match) and a `pending` min-heap of
//!   `(available_at, seq)` (earliest landing first). Queries promote
//!   newly landed entries `pending → ready`; virtual time is monotone, so
//!   promotion is one-way.
//! - `by_src_tag`: per-`(src, tag)` arrival-order [`index::IdQueue`]. Per-link
//!   delivery is non-overtaking — `MailboxInner::insert` clamps each
//!   envelope's availability to a per-source floor, covering both the
//!   gap-calendar `LinkClock` (which can book an out-of-call-order request
//!   into an earlier idle slot) and fault-window delays — so the front is
//!   simultaneously the FCFS match *and* the earliest-available one — no
//!   second heap needed.
//! - `inflight`: mailbox-wide `(available_at, seq)` min-heap answering
//!   `park_until_change`'s "when does the next in-flight message land?".
//!
//! # Wake-up protocol
//!
//! Parked receivers stay registered (with the earliest wake hint already
//! scheduled for them) until they deregister themselves on resolution;
//! `push` schedules a kernel wake only when a new envelope's availability
//! *improves* a waiter's hint. Persistence is a lazy-clock correctness
//! requirement and the hint check is the incast cheapener — see the
//! comment on `MailboxInner::waiters` and DESIGN.md §10.
//!
//! Removals touching a structure that cannot delete in O(1) leave a
//! tombstone (the seq is simply gone from `envs`); tombstones are dropped
//! lazily during queries and each structure is rebuilt when more than half
//! of it is stale, keeping amortized cost O(log n) and memory O(live) in
//! the indexes, O(span from the oldest live envelope) in `envs`.
//! Index map entries are garbage-collected when they empty out —
//! collective tags are unique per call, so the maps would otherwise grow
//! without bound.
//!
//! A proptest (`indexed_mailbox_matches_naive_reference`) drives this
//! implementation and the seed's linear scan through randomized
//! interleavings — including in-flight (`available_at > now`) cases — and
//! asserts identical matches, wake hints and final queue states.

use std::any::Any;
use std::cmp::Reverse;
#[allow(clippy::disallowed_types)] // lookup-only maps: see `MailboxInner`
use std::collections::HashMap;
use std::collections::{BTreeSet, BinaryHeap};

use desim::{Ctx, FixedState, Pid, SimTime};
use parking_lot::Mutex;

pub mod index;

use index::{IdQueue, Slab};

/// Wire tag. User tags occupy the low 32 bits; library-internal traffic
/// (collectives, streams) sets the top bit and namespaces the rest so it
/// can never collide with application tags. Every backend shares this
/// type (`mpistream` re-exports it), so a channel's tags mean the same
/// thing in the simulator, on native threads and over sockets.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Tag(pub u64);

// The tag space, all of it: the namespace byte of every internal tag
// (bits 48..56) and the codes a stream channel puts in the sequence field.

/// `mpisim`'s own cost-modelled collectives ([`crate::coll`]).
pub const NS_MPISIM_COLL: u8 = 1;
/// Stream channels (`mpistream::StreamChannel`); the channel id is the
/// 16-bit field and one of the `CODE_*` values the sequence field.
pub const NS_STREAM: u8 = 2;
/// The message-only collectives of the real backends (`mpistream::coll`).
pub const NS_MPISTREAM_COLL: u8 = 3;
/// Stream payload batches.
pub const CODE_DATA: u32 = 0;
/// Stream flow-control credits, consumer to producer.
pub const CODE_CREDIT: u32 = 1;
/// Replica-group traffic (VSR prepare/commit/view-change, `crates/replica`).
pub const CODE_REPL: u32 = 2;
/// Takeover announcements and term acknowledgements between a replica
/// primary and the producers (`crates/replica`).
pub const CODE_TAKEOVER: u32 = 3;

impl Tag {
    /// A plain application tag.
    pub const fn user(t: u32) -> Tag {
        Tag(t as u64)
    }

    /// An internal tag in namespace `ns` (collectives, streams, ...) with a
    /// per-communicator or per-channel id and a sequence number.
    pub const fn internal(ns: u8, chan: u16, seq: u32) -> Tag {
        Tag(1 << 63 | (ns as u64) << 48 | (chan as u64) << 32 | seq as u64)
    }

    /// Classify this tag for backend-independent tooling (profilers,
    /// sanitizers) that observes traffic without knowing who built the
    /// tag. Stream payload and credit tags are recognised from their
    /// namespace bits, so a blocked receive can be attributed to
    /// wait-for-data vs wait-for-credit from the tag alone.
    pub fn kind(&self) -> TagKind {
        if self.0 >> 63 == 0 {
            return TagKind::User(self.0 as u32);
        }
        let ns = ((self.0 >> 48) & 0xFF) as u8;
        let channel = ((self.0 >> 32) & 0xFFFF) as u16;
        let seq = self.0 as u32;
        match (ns, seq) {
            (NS_STREAM, CODE_DATA) => TagKind::StreamData { channel },
            (NS_STREAM, CODE_CREDIT) => TagKind::StreamCredit { channel },
            _ => TagKind::Internal { ns, channel, seq },
        }
    }
}

/// What a [`Tag`] means on the wire (see [`Tag::kind`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TagKind {
    /// A plain application tag ([`Tag::user`]).
    User(u32),
    /// Stream payload traffic on `channel`.
    StreamData { channel: u16 },
    /// Stream flow-control credits on `channel`.
    StreamCredit { channel: u16 },
    /// Library-internal traffic in some other namespace (collectives, ...).
    Internal { ns: u8, channel: u16, seq: u32 },
}

/// Source selector for receives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Src {
    /// Match only messages from this world rank.
    Rank(usize),
    /// Match a message from any source — the first *available* one, which
    /// is the mechanism the decoupling model uses to absorb imbalance.
    Any,
}

/// Metadata delivered along with a received payload.
#[derive(Clone, Copy, Debug)]
pub struct MsgInfo {
    /// World rank of the sender.
    pub src: usize,
    /// The message's wire tag.
    pub tag: Tag,
    /// Modelled wire size in bytes.
    pub bytes: u64,
}

pub(crate) struct Envelope {
    pub src: usize,
    pub tag: Tag,
    pub bytes: u64,
    /// When the last byte has been drained by the receiver NIC.
    pub available_at: SimTime,
    pub payload: Box<dyn Any + Send>,
    /// Sender's vector clock at send time, stamped by the happens-before
    /// sanitizer (`None` when the run does not check).
    pub clock: Option<std::sync::Arc<Vec<u64>>>,
}

/// Per-`Tag` index (serves `Src::Any`).
#[derive(Default)]
struct TagIndex {
    /// Seqs of matching envelopes known to have landed. `first()` is the
    /// earliest arrival — the FCFS match. Kept tombstone-free: removals
    /// that find their seq here delete it eagerly (O(log n)).
    ready: BTreeSet<u64>,
    /// `(available_at, seq)` of matching envelopes not yet promoted to
    /// `ready`. The top is the earliest landing, ties by earliest arrival.
    pending: BinaryHeap<Reverse<(u64, u64)>>,
    /// Tombstones currently buried in `pending`.
    stale: usize,
}

/// Outcome of a match query.
enum Found {
    /// This seq is the match, available now.
    Ready(u64),
    /// Matches exist but all are in flight; earliest lands at this time.
    InFlight(SimTime),
    /// No matching envelope queued at all.
    Missing,
}

// The three hash maps are looked up by key on every message and never
// iterated: their order cannot leak. Their hasher is desim's fixed-key
// one, not a per-process SipHash: the keys are tags and ranks the
// simulator makes itself.
#[allow(clippy::disallowed_types)]
#[derive(Default)]
struct MailboxInner {
    /// Live envelopes by arrival seq.
    envs: Slab<Envelope>,
    by_tag: HashMap<Tag, TagIndex, FixedState>,
    /// Per-`(src, tag)` arrival order (serves `Src::Rank`). Per-link
    /// non-overtaking delivery makes the front both the FCFS match and
    /// the earliest-available one.
    by_src_tag: HashMap<(usize, Tag), IdQueue, FixedState>,
    /// `(available_at, seq)` of possibly-in-flight envelopes, lazily
    /// pruned (landed and tombstoned entries drop during queries/inserts).
    inflight: BinaryHeap<Reverse<(u64, u64)>>,
    /// Maintained sum of live envelopes' modelled bytes.
    bytes: u64,
    /// Parked receivers as `(pid, earliest wake hint scheduled for it)`,
    /// kept sorted by pid (insertion via binary search — O(log n)
    /// membership and a deterministic wake order). Registrations persist
    /// until the waiter explicitly deregisters: under a lazy clock
    /// (`SimConfig::lazy_time`) pushes execute out of virtual-time order,
    /// so a push may carry a far-future availability while a virtually
    /// earlier one arrives later in execution order — consuming the
    /// registration on the first push would leave the second with nobody
    /// to wake, and the waiter's local clock would snap to the stale
    /// far-future hint when it finally fires. The hint (`u64::MAX` when
    /// none is scheduled) lets a push skip the kernel entirely unless it
    /// genuinely improves the waiter's earliest wake-up.
    waiters: Vec<(Pid, u64)>,
    /// Per-source availability floor enforcing non-overtaking delivery:
    /// each source's pushes arrive in its program order, and clamping
    /// `available_at` to the source's previous one keeps `by_src_tag`'s
    /// front-is-earliest invariant even when the rx link's gap calendar
    /// (see `desim::LinkClock`) books a later message into an earlier idle
    /// slot. A no-op whenever rx occupancy completes in send order.
    src_floor: HashMap<usize, u64, FixedState>,
}

impl MailboxInner {
    /// Append an envelope, updating every index. O(log n) amortized.
    /// Returns the (possibly floor-clamped) availability time.
    fn insert(&mut self, now: SimTime, mut env: Envelope) -> SimTime {
        let floor = self.src_floor.entry(env.src).or_insert(0);
        env.available_at = SimTime(env.available_at.0.max(*floor));
        *floor = env.available_at.0;
        let (at, src, tag) = (env.available_at, env.src, env.tag);
        self.bytes += env.bytes;
        let seq = self.envs.insert(env);
        self.by_tag.entry(tag).or_default().pending.push(Reverse((at.0, seq)));
        self.by_src_tag.entry((src, tag)).or_default().push(seq);
        if at > now {
            self.inflight.push(Reverse((at.0, seq)));
        }
        // The inflight heap is only consumed by `park_until_change`; if
        // nobody calls that, prune here so it tracks O(live) memory.
        if self.inflight.len() > 2 * self.envs.len() + 32 {
            let keep: Vec<_> = self
                .inflight
                .drain()
                .filter(|&Reverse((at, s))| at > now.0 && self.envs.contains(s))
                .collect();
            self.inflight = keep.into();
        }
        at
    }

    /// Move every landed `pending` entry of `ti` into `ready`, dropping
    /// tombstones on the way. One-way because virtual time is monotone.
    fn promote(envs: &Slab<Envelope>, ti: &mut TagIndex, now: SimTime) {
        while let Some(&Reverse((at, seq))) = ti.pending.peek() {
            if !envs.contains(seq) {
                ti.pending.pop();
                ti.stale -= 1;
            } else if at <= now.0 {
                ti.pending.pop();
                ti.ready.insert(seq);
            } else {
                break;
            }
        }
    }

    /// The match for `(src, tag)` at `now` — see the module docs for the
    /// exact semantics. Compacts tombstones and garbage-collects emptied
    /// index entries as a side effect.
    fn find(&mut self, now: SimTime, src: Src, tag: Tag) -> Found {
        match src {
            Src::Any => {
                let Some(ti) = self.by_tag.get_mut(&tag) else { return Found::Missing };
                Self::promote(&self.envs, ti, now);
                if let Some(&seq) = ti.ready.first() {
                    return Found::Ready(seq);
                }
                match ti.pending.peek() {
                    Some(&Reverse((at, _))) => Found::InFlight(SimTime(at)),
                    None => {
                        self.by_tag.remove(&tag);
                        Found::Missing
                    }
                }
            }
            Src::Rank(r) => {
                let Some(q) = self.by_src_tag.get_mut(&(r, tag)) else { return Found::Missing };
                let Some(seq) = q.front(&self.envs) else {
                    self.by_src_tag.remove(&(r, tag));
                    return Found::Missing;
                };
                let at = self.envs.get(seq).expect("front is live").available_at;
                if at <= now {
                    Found::Ready(seq)
                } else {
                    Found::InFlight(at)
                }
            }
        }
    }

    /// Remove `seq` from every structure (tombstoning where O(1) deletion
    /// is impossible) and return its envelope.
    fn take_seq(&mut self, seq: u64) -> Envelope {
        let env = self.envs.remove(seq).expect("seq valid under lock");
        self.bytes -= env.bytes;
        let mut gc_tag = false;
        if let Some(ti) = self.by_tag.get_mut(&env.tag) {
            if !ti.ready.remove(&seq) {
                ti.stale += 1;
                if ti.stale * 2 > ti.pending.len() {
                    let envs = &self.envs;
                    let keep: Vec<_> =
                        ti.pending.drain().filter(|&Reverse((_, s))| envs.contains(s)).collect();
                    ti.pending = keep.into();
                    ti.stale = 0;
                }
            }
            gc_tag = ti.ready.is_empty() && ti.pending.is_empty();
        }
        if gc_tag {
            self.by_tag.remove(&env.tag);
        }
        let key = (env.src, env.tag);
        if let Some(q) = self.by_src_tag.get_mut(&key) {
            q.remove(seq, &self.envs);
            if q.is_empty() {
                self.by_src_tag.remove(&key);
            }
        }
        env
    }

    /// Register `me` for wake-ups on mailbox changes. Idempotent; an
    /// existing registration keeps its hint.
    fn register_waiter(&mut self, me: Pid) {
        if let Err(at) = self.waiters.binary_search_by_key(&me, |&(p, _)| p) {
            self.waiters.insert(at, (me, u64::MAX));
        }
    }

    /// Drop `me`'s registration (no-op when absent). Called by the waiter
    /// itself once its receive resolves or it stops parking here.
    fn deregister_waiter(&mut self, me: Pid) {
        if let Ok(at) = self.waiters.binary_search_by_key(&me, |&(p, _)| p) {
            self.waiters.remove(at);
        }
    }

    /// Record that a wake-up at `at` was scheduled for `me`, so later
    /// pushes with worse (later) availabilities skip the kernel.
    fn note_hint(&mut self, me: Pid, at: u64) {
        if let Ok(i) = self.waiters.binary_search_by_key(&me, |&(p, _)| p) {
            let h = &mut self.waiters[i].1;
            *h = (*h).min(at);
        }
    }

    /// Forget `me`'s hint (the event backing it was consumed by a wake).
    fn clear_hint(&mut self, me: Pid) {
        if let Ok(i) = self.waiters.binary_search_by_key(&me, |&(p, _)| p) {
            self.waiters[i].1 = u64::MAX;
        }
    }

    /// Earliest `available_at` strictly after `now` among live envelopes.
    fn next_landing(&mut self, now: SimTime) -> Option<SimTime> {
        while let Some(&Reverse((at, seq))) = self.inflight.peek() {
            if at <= now.0 || !self.envs.contains(seq) {
                self.inflight.pop();
            } else {
                return Some(SimTime(at));
            }
        }
        None
    }
}

/// A rank's incoming message queue with `(src, tag)` matching.
#[derive(Default)]
pub(crate) struct Mailbox {
    inner: Mutex<MailboxInner>,
}

impl Mailbox {
    pub fn new() -> Self {
        Self::default()
    }

    /// Deposit an envelope and schedule wake-ups at its availability time
    /// for every registered waiter whose current hint it improves.
    /// Registrations persist (see `MailboxInner::waiters`): the waiters
    /// deregister themselves once their receives resolve.
    pub fn push(&self, ctx: &Ctx, env: Envelope) {
        let kernel = ctx.kernel();
        let now = kernel.now();
        let (at, wake): (SimTime, Vec<Pid>) = {
            let mut inner = self.inner.lock();
            let at = inner.insert(now, env);
            let mut wake = Vec::new();
            for (pid, hint) in inner.waiters.iter_mut() {
                if at.0 < *hint {
                    *hint = at.0;
                    wake.push(*pid);
                }
            }
            (at, wake)
        };
        let at = at.max(now);
        for pid in wake {
            kernel.schedule_at(at, pid);
        }
    }

    /// Take a matching envelope if one is available at `now`.
    pub fn try_take(&self, now: SimTime, src: Src, tag: Tag) -> Option<Envelope> {
        let mut inner = self.inner.lock();
        match inner.find(now, src, tag) {
            Found::Ready(seq) => Some(inner.take_seq(seq)),
            _ => None,
        }
    }

    /// Blocking receive: waits until a matching envelope is available.
    pub fn take(&self, ctx: &mut Ctx, src: Src, tag: Tag) -> Envelope {
        let me = ctx.pid();
        loop {
            {
                let mut inner = self.inner.lock();
                // Any event backing our previous hint has fired (or will
                // fire spuriously); start the hint bookkeeping afresh.
                inner.clear_hint(me);
                match inner.find(ctx.now(), src, tag) {
                    Found::Ready(seq) => {
                        inner.deregister_waiter(me);
                        return inner.take_seq(seq);
                    }
                    Found::InFlight(at) => {
                        // In flight: wake when it lands (and stay registered
                        // in case an earlier match arrives meanwhile).
                        inner.register_waiter(me);
                        inner.note_hint(me, at.0);
                        drop(inner);
                        ctx.wake_self_at(at);
                    }
                    Found::Missing => inner.register_waiter(me),
                }
            }
            ctx.suspend("mpi-recv");
        }
    }

    /// Blocking receive with an absolute deadline: waits until a matching
    /// envelope is available or virtual time reaches `deadline`, whichever
    /// comes first. A message that is available exactly at the deadline is
    /// still delivered; `None` means the deadline passed with no match.
    /// This is the failure-detection primitive: a consumer that stops
    /// hearing from a producer can bound its wait instead of hanging.
    pub fn take_deadline(
        &self,
        ctx: &mut Ctx,
        src: Src,
        tag: Tag,
        deadline: SimTime,
    ) -> Option<Envelope> {
        let me = ctx.pid();
        loop {
            {
                let mut inner = self.inner.lock();
                inner.clear_hint(me);
                let now = ctx.now();
                match inner.find(now, src, tag) {
                    Found::Ready(seq) => {
                        inner.deregister_waiter(me);
                        return Some(inner.take_seq(seq));
                    }
                    Found::InFlight(at) => {
                        if now >= deadline {
                            inner.deregister_waiter(me);
                            return None;
                        }
                        inner.register_waiter(me);
                        let wake = at.min(deadline);
                        inner.note_hint(me, wake.0);
                        drop(inner);
                        ctx.wake_self_at(wake);
                    }
                    Found::Missing => {
                        if now >= deadline {
                            inner.deregister_waiter(me);
                            return None;
                        }
                        inner.register_waiter(me);
                        inner.note_hint(me, deadline.0);
                        drop(inner);
                        ctx.wake_self_at(deadline);
                    }
                }
            }
            ctx.suspend("mpi-recv-deadline");
        }
    }

    /// Register the calling process for a wake-up on the next mailbox
    /// change (new arrival, or an in-flight message becoming available),
    /// then suspend once. Spurious wake-ups possible; callers rescan.
    pub fn park_until_change(&self, ctx: &mut Ctx) {
        let me = ctx.pid();
        {
            let mut inner = self.inner.lock();
            inner.register_waiter(me);
            inner.clear_hint(me);
            // If something is already in flight, make sure we wake when it
            // lands even if no new send occurs.
            if let Some(at) = inner.next_landing(ctx.now()) {
                inner.note_hint(me, at.0);
                drop(inner);
                ctx.wake_self_at(at);
            }
        }
        ctx.suspend("mpi-waitany");
        // The caller rescans its predicate now and re-parks if needed;
        // processes are token-passing, so nothing can push between this
        // deregistration and a re-registration.
        self.inner.lock().deregister_waiter(me);
    }

    /// Whether a matching message is available at `now` (non-destructive).
    pub fn probe(&self, now: SimTime, src: Src, tag: Tag) -> Option<MsgInfo> {
        let mut inner = self.inner.lock();
        match inner.find(now, src, tag) {
            Found::Ready(seq) => inner.envs.get(seq).map(|env| MsgInfo {
                src: env.src,
                tag: env.tag,
                bytes: env.bytes,
            }),
            _ => None,
        }
    }

    /// Sources (and send clocks) of every *other* available envelope
    /// matching `tag` — the rival candidates a wildcard receive could
    /// equally have matched. Used by the happens-before sanitizer right
    /// after an `Src::Any` match.
    pub fn available_rivals(
        &self,
        now: SimTime,
        tag: Tag,
        exclude_src: usize,
    ) -> Vec<(usize, Option<std::sync::Arc<Vec<u64>>>)> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let Some(ti) = inner.by_tag.get_mut(&tag) else { return Vec::new() };
        let envs = &inner.envs;
        MailboxInner::promote(envs, ti, now);
        // `ready` iterates in seq (arrival) order — the order the old
        // linear scan reported rivals in.
        ti.ready
            .iter()
            .map(|&seq| envs.get(seq).expect("ready holds live seqs"))
            .filter(|e| e.src != exclude_src)
            .map(|e| (e.src, e.clock.clone()))
            .collect()
    }

    /// Drain the queue, returning `(src, tag, bytes, available_at)` of
    /// every parked envelope in arrival order — the sanitizer's orphan
    /// scan at finalize.
    pub fn drain_meta(&self) -> Vec<(usize, Tag, u64, SimTime)> {
        let mut inner = self.inner.lock();
        inner.by_tag.clear();
        inner.by_src_tag.clear();
        inner.inflight.clear();
        inner.bytes = 0;
        inner.envs.drain().map(|e| (e.src, e.tag, e.bytes, e.available_at)).collect()
    }

    /// Total modelled bytes parked in the queue (memory accounting). O(1)
    /// via a maintained counter.
    pub fn queued_bytes(&self) -> u64 {
        self.inner.lock().bytes
    }

    /// Test-only insert that bypasses the kernel (no waiter wake-ups).
    #[cfg(test)]
    fn push_raw(&self, env: Envelope) {
        self.inner.lock().insert(SimTime::ZERO, env);
    }

    /// Queue depth.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.inner.lock().envs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(src: usize, tag: Tag, bytes: u64, at: u64) -> Envelope {
        Envelope { src, tag, bytes, available_at: SimTime(at), payload: Box::new(src), clock: None }
    }

    #[test]
    fn tags_never_collide_across_namespaces() {
        let user = Tag::user(7);
        let coll = Tag::internal(NS_MPISIM_COLL, 0, 7);
        let stream = Tag::internal(NS_STREAM, 0, 7);
        assert_ne!(user, coll);
        assert_ne!(coll, stream);
        // Same namespace, different seq/comm differ too.
        assert_ne!(Tag::internal(1, 0, 1), Tag::internal(1, 0, 2));
        assert_ne!(Tag::internal(1, 1, 1), Tag::internal(1, 0, 1));
    }

    /// One tag from every namespace decodes to what its builder meant, and
    /// no two namespaces share a byte.
    #[test]
    fn every_namespace_decodes_through_kind() {
        let namespaces = [NS_MPISIM_COLL, NS_STREAM, NS_MPISTREAM_COLL];
        for (i, a) in namespaces.iter().enumerate() {
            assert!(namespaces[i + 1..].iter().all(|b| a != b), "namespace byte {a} reused");
        }
        let internal = |ns, channel, seq| TagKind::Internal { ns, channel, seq };
        let cases = [
            (Tag::user(u32::MAX), TagKind::User(u32::MAX)),
            (Tag::internal(NS_MPISIM_COLL, 4, 9), internal(NS_MPISIM_COLL, 4, 9)),
            (Tag::internal(NS_MPISTREAM_COLL, 0xBEEF, 2), internal(NS_MPISTREAM_COLL, 0xBEEF, 2)),
            (Tag::internal(NS_STREAM, 7, CODE_DATA), TagKind::StreamData { channel: 7 }),
            (Tag::internal(NS_STREAM, 7, CODE_CREDIT), TagKind::StreamCredit { channel: 7 }),
            (Tag::internal(NS_STREAM, 7, CODE_REPL), internal(NS_STREAM, 7, CODE_REPL)),
            (Tag::internal(NS_STREAM, 7, CODE_TAKEOVER), internal(NS_STREAM, 7, CODE_TAKEOVER)),
        ];
        for (tag, kind) in cases {
            assert_eq!(tag.kind(), kind, "{tag:?}");
        }
    }

    #[test]
    fn find_prefers_earliest_available_match() {
        let mb = Mailbox::new();
        mb.push_raw(mk(3, Tag::user(1), 8, 500));
        mb.push_raw(mk(1, Tag::user(1), 8, 100));
        mb.push_raw(mk(2, Tag::user(1), 8, 300));
        let env = mb.try_take(SimTime(1_000), Src::Any, Tag::user(1)).unwrap();
        assert_eq!(env.src, 3, "first available in queue (arrival) order wins FCFS");
        let env = mb.try_take(SimTime(1_000), Src::Rank(2), Tag::user(1)).unwrap();
        assert_eq!(env.src, 2);
        // src 1's message was available all along (monotone virtual time
        // means real queries never go backwards, but landed stays landed).
        let env = mb.try_take(SimTime(1_000), Src::Any, Tag::user(1)).unwrap();
        assert_eq!(env.src, 1);
        assert_eq!(mb.len(), 0);
    }

    #[test]
    fn in_flight_messages_do_not_match_yet() {
        let mb = Mailbox::new();
        mb.push_raw(mk(1, Tag::user(1), 8, 100));
        assert!(mb.try_take(SimTime(0), Src::Any, Tag::user(1)).is_none());
        assert!(mb.try_take(SimTime(99), Src::Rank(1), Tag::user(1)).is_none());
        assert_eq!(mb.len(), 1);
        assert!(mb.try_take(SimTime(100), Src::Any, Tag::user(1)).is_some());
    }

    #[test]
    fn probe_is_nondestructive() {
        let mb = Mailbox::new();
        mb.push_raw(mk(4, Tag::user(9), 128, 10));
        assert!(mb.probe(SimTime(5), Src::Any, Tag::user(9)).is_none());
        let info = mb.probe(SimTime(10), Src::Any, Tag::user(9)).unwrap();
        assert_eq!(info.src, 4);
        assert_eq!(info.bytes, 128);
        assert_eq!(mb.len(), 1);
        assert_eq!(mb.queued_bytes(), 128);
    }

    #[test]
    fn counters_track_pushes_and_takes() {
        let mb = Mailbox::new();
        mb.push_raw(mk(1, Tag::user(1), 100, 0));
        mb.push_raw(mk(2, Tag::user(2), 50, 0));
        assert_eq!(mb.len(), 2);
        assert_eq!(mb.queued_bytes(), 150);
        mb.try_take(SimTime(1), Src::Any, Tag::user(1)).unwrap();
        assert_eq!(mb.len(), 1);
        assert_eq!(mb.queued_bytes(), 50);
        mb.try_take(SimTime(1), Src::Rank(2), Tag::user(2)).unwrap();
        assert_eq!(mb.len(), 0);
        assert_eq!(mb.queued_bytes(), 0);
    }

    #[test]
    fn index_entries_are_garbage_collected() {
        let mb = Mailbox::new();
        // Unique tags per push, like collectives: the index maps must not
        // accumulate empty entries after the messages are consumed.
        for i in 0..100u32 {
            mb.push_raw(mk(1, Tag::internal(1, 0, i), 8, 0));
        }
        for i in 0..100u32 {
            assert!(mb.try_take(SimTime(1), Src::Any, Tag::internal(1, 0, i)).is_some());
        }
        let inner = mb.inner.lock();
        assert!(inner.by_tag.is_empty(), "by_tag leaked {} entries", inner.by_tag.len());
        assert!(inner.by_src_tag.is_empty(), "by_src_tag leaked entries");
        assert!(inner.envs.is_empty());
    }

    #[test]
    fn cross_index_removals_leave_consistent_state() {
        let mb = Mailbox::new();
        let t = Tag::user(1);
        // Interleave takes through both the Any and the Rank path so each
        // index sees removals it did not perform itself.
        for i in 0..50 {
            mb.push_raw(mk(i % 5, t, 8, i as u64));
        }
        let mut got = 0;
        for round in 0..50u64 {
            let env = if round % 2 == 0 {
                mb.try_take(SimTime(1_000), Src::Any, t)
            } else {
                mb.try_take(SimTime(1_000), Src::Rank((got % 5) as usize), t)
            };
            if env.is_some() {
                got += 1;
            }
        }
        // Drain whatever remains via the wildcard path.
        while mb.try_take(SimTime(1_000), Src::Any, t).is_some() {
            got += 1;
        }
        assert_eq!(got, 50);
        assert_eq!(mb.len(), 0);
        assert_eq!(mb.queued_bytes(), 0);
    }

    /// The seed's linear-scan mailbox, kept verbatim as the reference
    /// oracle for the equivalence proptest below.
    mod naive {
        use super::super::{Src, Tag};
        use desim::SimTime;
        use std::collections::VecDeque;

        pub struct Env {
            pub src: usize,
            pub tag: Tag,
            pub available_at: SimTime,
            pub id: u64,
        }

        #[derive(Default)]
        pub struct NaiveMailbox {
            pub queue: VecDeque<Env>,
        }

        impl NaiveMailbox {
            pub fn find(&self, now: SimTime, src: Src, tag: Tag) -> Option<(usize, SimTime)> {
                let mut best: Option<(usize, SimTime)> = None;
                for (i, env) in self.queue.iter().enumerate() {
                    if env.tag != tag {
                        continue;
                    }
                    if let Src::Rank(r) = src {
                        if env.src != r {
                            continue;
                        }
                    }
                    if env.available_at <= now {
                        return Some((i, env.available_at));
                    }
                    match best {
                        Some((_, t)) if t <= env.available_at => {}
                        _ => best = Some((i, env.available_at)),
                    }
                }
                best
            }

            pub fn try_take(&mut self, now: SimTime, src: Src, tag: Tag) -> Option<Env> {
                match self.find(now, src, tag) {
                    Some((i, at)) if at <= now => self.queue.remove(i),
                    _ => None,
                }
            }

            /// The wake-up time a blocking take would use: `Some(at)` when
            /// every match is still in flight, `None` when nothing matches.
            pub fn wake_hint(&self, now: SimTime, src: Src, tag: Tag) -> Option<SimTime> {
                match self.find(now, src, tag) {
                    Some((_, at)) if at > now => Some(at),
                    _ => None,
                }
            }
        }
    }

    use proptest::prelude::*;

    #[derive(Clone, Debug)]
    enum Op {
        /// Push from `src` with `tag_idx`; availability is `now + delta`
        /// per-src-monotone (the production invariant: per-link delivery
        /// is non-overtaking).
        Push {
            src: usize,
            tag_idx: usize,
            delta: u64,
        },
        /// Advance virtual time (queries are monotone, like the kernel).
        Advance {
            by: u64,
        },
        TryTakeAny {
            tag_idx: usize,
        },
        TryTakeRank {
            src: usize,
            tag_idx: usize,
        },
        Probe {
            src_sel: usize,
            tag_idx: usize,
        },
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            3 => (0usize..4, 0usize..3, 0u64..2_000).prop_map(|(src, tag_idx, delta)| Op::Push {
                src,
                tag_idx,
                delta
            }),
            2 => (0u64..1_500).prop_map(|by| Op::Advance { by }),
            3 => (0usize..3).prop_map(|tag_idx| Op::TryTakeAny { tag_idx }),
            2 => (0usize..4, 0usize..3)
                .prop_map(|(src, tag_idx)| Op::TryTakeRank { src, tag_idx }),
            1 => (0usize..5, 0usize..3).prop_map(|(src_sel, tag_idx)| Op::Probe {
                src_sel,
                tag_idx
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Randomized interleavings of pushes (including in-flight
        /// `available_at > now` cases), takes through both paths, time
        /// advances and probes produce identical envelope orders and wake
        /// hints from the indexed mailbox and the seed's linear scan.
        #[test]
        fn indexed_mailbox_matches_naive_reference(ops in prop::collection::vec(op_strategy(), 1..120)) {
            let tags = [Tag::user(1), Tag::user(2), Tag::internal(2, 0, 7)];
            let mb = Mailbox::new();
            let mut naive = naive::NaiveMailbox::default();
            let mut now = SimTime(0);
            let mut next_id = 0u64;
            // Per-src availability floors: production delivery per link is
            // non-overtaking, which the Src::Rank index relies on.
            let mut floors = [0u64; 4];

            for op in ops {
                match op {
                    Op::Push { src, tag_idx, delta } => {
                        let at = floors[src].max(now.0) + delta;
                        floors[src] = at;
                        let id = next_id;
                        next_id += 1;
                        mb.push_raw(Envelope {
                            src,
                            tag: tags[tag_idx],
                            bytes: id, // bytes double as the identity check
                            available_at: SimTime(at),
                            payload: Box::new(id),
                            clock: None,
                        });
                        naive.queue.push_back(naive::Env {
                            src,
                            tag: tags[tag_idx],
                            available_at: SimTime(at),
                            id,
                        });
                    }
                    Op::Advance { by } => now = SimTime(now.0 + by),
                    Op::TryTakeAny { tag_idx } => {
                        let a = mb.try_take(now, Src::Any, tags[tag_idx]);
                        let b = naive.try_take(now, Src::Any, tags[tag_idx]);
                        prop_assert_eq!(a.as_ref().map(|e| e.bytes), b.as_ref().map(|e| e.id));
                        let wa = {
                            let mut inner = mb.inner.lock();
                            match inner.find(now, Src::Any, tags[tag_idx]) {
                                Found::InFlight(at) => Some(at),
                                _ => None,
                            }
                        };
                        prop_assert_eq!(wa, naive.wake_hint(now, Src::Any, tags[tag_idx]));
                    }
                    Op::TryTakeRank { src, tag_idx } => {
                        let a = mb.try_take(now, Src::Rank(src), tags[tag_idx]);
                        let b = naive.try_take(now, Src::Rank(src), tags[tag_idx]);
                        prop_assert_eq!(a.as_ref().map(|e| e.bytes), b.as_ref().map(|e| e.id));
                        let wa = {
                            let mut inner = mb.inner.lock();
                            match inner.find(now, Src::Rank(src), tags[tag_idx]) {
                                Found::InFlight(at) => Some(at),
                                _ => None,
                            }
                        };
                        prop_assert_eq!(wa, naive.wake_hint(now, Src::Rank(src), tags[tag_idx]));
                    }
                    Op::Probe { src_sel, tag_idx } => {
                        let src = if src_sel == 4 { Src::Any } else { Src::Rank(src_sel) };
                        let a = mb.probe(now, src, tags[tag_idx]);
                        let b = naive.find(now, src, tags[tag_idx]);
                        let b_avail = match b {
                            Some((i, at)) if at <= now => Some(naive.queue[i].src),
                            _ => None,
                        };
                        prop_assert_eq!(a.map(|i| i.src), b_avail);
                    }
                }
            }

            // Final states agree: same depth, and draining everything via
            // the wildcard path yields the same envelope sequence.
            prop_assert_eq!(mb.len(), naive.queue.len());
            let end = SimTime(u64::MAX);
            for tag in tags {
                loop {
                    let a = mb.try_take(end, Src::Any, tag);
                    let b = naive.try_take(end, Src::Any, tag);
                    prop_assert_eq!(a.as_ref().map(|e| e.bytes), b.as_ref().map(|e| e.id));
                    if a.is_none() {
                        break;
                    }
                }
            }
            prop_assert_eq!(mb.len(), 0);
        }
    }
}
