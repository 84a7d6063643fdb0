//! The transport abstraction: what the stream runtime needs from a
//! message-passing substrate.
//!
//! The paper's MPIStream library is layered *on top of* MPI — it uses
//! point-to-point sends with tag matching, `MPI_ANY_SOURCE` receives, a
//! handful of collectives for setup, and nothing else. [`Transport`]
//! captures exactly that surface, so the stream runtime ([`crate::Stream`],
//! [`crate::StreamChannel`], [`crate::run_decoupled`], `operate2`) is
//! generic over *where* it executes:
//!
//! - [`crate::SimTransport`] (an alias for `mpisim::Rank`) runs stream
//!   programs inside the deterministic discrete-event simulator, on a
//!   virtual clock with a modelled network.
//! - `native::NativeRank` (the `crates/native` backend) runs the same
//!   programs on real OS threads, one per rank, each draining a
//!   lock-free staging stack into its own indexed mailbox, on the wall
//!   clock.
//! - `socket::SocketRank` (the `crates/socket` backend) runs them as one
//!   OS process per rank: payloads cross the [`Wire`] codec as frames
//!   through a shared-memory ring per link and land in that same
//!   mailbox.
//!
//! The two real backends implement this trait once, together:
//! `native::MailboxRank` owns identity, the wall clock, receives and
//! [`Transport::wait_for_mail`] on the rank's own mailbox, channel ids
//! and the five collectives, and each backend supplies only how a
//! message leaves and how a received payload becomes a value. The
//! collectives and `split` come from [`crate::coll`], whose functions
//! use only `send` and `recv`; the one choice left to the backend is the
//! group size up to which they use a star instead of a binomial tree.
//! The simulator implements the collectives itself, cost-modelled: they
//! are the paper's reference baselines.
//!
//! Instrumentation crosses the line through one provided method,
//! [`Transport::observe`], which the stream runtime calls with an
//! [`Event`] at each point a sanitizer or profiler may care about. It is
//! a no-op unless a backend or wrapper overrides it: the simulator routes
//! the sanitizer events to its checker, `streamprof::Profiled` records
//! spans and counters.
//!
//! The trait deliberately exposes the *semantics* the backends share and
//! nothing any of them is forced to fake: time is a monotone [`SimTime`]
//! whose meaning (virtual vs wall nanoseconds) belongs to the backend;
//! [`Transport::send`] returns once the message is injected (delivery is
//! asynchronous); receives match on `(source, tag)` with [`Src::Any`]
//! selecting the first *available* message — the FCFS mechanism the
//! decoupling model uses to absorb producer imbalance.

pub use desim::{SimDuration, SimTime};
// The message vocabulary is the simulator's, for every backend: one tag
// layout (with the whole tag space in `mpisim::msg`), one `Src`, one
// `MsgInfo`.
pub use mpisim::{MsgInfo, Src, Tag, TagKind};

use crate::wire::Wire;

/// An ordered set of world ranks — the backend's communicator type.
///
/// Mirrors what MPI lets a library know about a group: the member list in
/// group-rank order, plus membership queries. A group obtained from
/// [`Transport::split`] is *addressable* (usable for collectives on the
/// backend that made it); [`Group::meta`] builds a metadata-only view of
/// ranks this process is **not** a member of — pure rank-list bookkeeping,
/// never a collective target.
pub trait Group: Clone {
    /// Member world ranks in group-rank order.
    fn ranks(&self) -> &[usize];

    /// Group rank of world rank `w`, if a member.
    fn rank_of(&self, w: usize) -> Option<usize>;

    /// Metadata-only group from a rank list (see the trait docs).
    fn meta(ranks: Vec<usize>) -> Self;

    /// Number of members.
    fn size(&self) -> usize {
        self.ranks().len()
    }

    /// Whether world rank `w` is a member.
    fn contains(&self, w: usize) -> bool {
        self.rank_of(w).is_some()
    }
}

/// A message-passing substrate the stream runtime can execute on.
///
/// One value of a `Transport` impl is one *process* (an MPI rank): it
/// knows its world rank, can exchange tagged point-to-point messages with
/// peers, and can take part in the small collective subset channel setup
/// needs (allgather, broadcast, barrier, allreduce, split).
///
/// ## Contract
///
/// - **Injection, not delivery.** [`Transport::send`] blocks only until
///   the message is handed to the substrate (sender-side overhead); it
///   never waits for the receiver. This is `MPI_Isend` + wait-for-buffer,
///   the call pattern the stream layer is built on.
/// - **FCFS wildcard matching.** A [`Src::Any`] receive takes the first
///   message *available* at the receiver among those matching the tag;
///   ties and ordering across sources are backend-defined (virtual arrival
///   time in the simulator, lock-acquisition order natively). Per
///   `(source, tag)` pair, message order is preserved (non-overtaking).
/// - **Monotone clock.** [`Transport::now`] never goes backwards. The
///   unit is nanoseconds; whether they are virtual or wall-clock is the
///   backend's business, and deadline receives interpret deadlines on the
///   same clock.
/// - **Collective call order.** As in MPI, every member of a group must
///   invoke the same collectives in the same order.
///
/// What the trait does **not** promise: determinism (that is a property of
/// the simulator backend, not of the abstraction), fault injection, or a
/// performance model. Code that needs those names the backend explicitly.
pub trait Transport {
    /// The backend's communicator type.
    type Group: Group;

    // ---------------------------------------------------------------
    // Identity and time
    // ---------------------------------------------------------------

    /// This process's world rank.
    fn world_rank(&self) -> usize;

    /// Total number of processes.
    fn world_size(&self) -> usize;

    /// The group of all processes (MPI_COMM_WORLD).
    fn world_group(&self) -> Self::Group;

    /// Current time on the backend's clock (virtual or wall nanoseconds).
    fn now(&self) -> SimTime;

    /// Model `secs` seconds of computation (advances the virtual clock in
    /// the simulator; burns or sleeps real time natively).
    fn compute(&mut self, secs: f64);

    // ---------------------------------------------------------------
    // Point-to-point
    // ---------------------------------------------------------------

    /// Send `value` to world rank `dst` under `tag`, with a modelled wire
    /// size of `bytes`. Returns once injected (see the trait docs).
    ///
    /// Every payload carries the [`Wire`] bound so it is representable as
    /// a length-prefixed `Tag` + bytes frame. In-memory backends bypass
    /// the codec and move the value zero-copy; process-separated backends
    /// (the `socket` crate) encode here and decode at the receiver.
    fn send<T: Wire + Send + 'static>(&mut self, dst: usize, tag: Tag, bytes: u64, value: T);

    /// Blockingly receive the first available message matching
    /// `(src, tag)`.
    fn recv<T: Wire + Send + 'static>(&mut self, src: Src, tag: Tag) -> (T, MsgInfo);

    /// Receive a matching message if one is already available; never
    /// blocks.
    fn try_recv<T: Wire + Send + 'static>(&mut self, src: Src, tag: Tag) -> Option<(T, MsgInfo)>;

    /// Blockingly receive, giving up at `deadline` (on the backend's
    /// clock). `None` means the deadline passed with nothing deliverable.
    fn recv_deadline<T: Wire + Send + 'static>(
        &mut self,
        src: Src,
        tag: Tag,
        deadline: SimTime,
    ) -> Option<(T, MsgInfo)>;

    /// Metadata of the first available matching message, without
    /// consuming it; never blocks.
    fn probe(&mut self, src: Src, tag: Tag) -> Option<MsgInfo>;

    /// Suspend until this process's mailbox changes — a new message
    /// arrives or an in-flight one becomes available. May wake
    /// spuriously; callers re-check their condition. The building block
    /// for multiplexing over several message sources (see `operate2`).
    fn wait_for_mail(&mut self);

    // ---------------------------------------------------------------
    // Collective subset (channel setup + app-side reductions)
    // ---------------------------------------------------------------

    /// Synchronize all members of `group`.
    fn barrier(&mut self, group: &Self::Group);

    /// All-reduce `value` over `group` with `op` (must be associative and
    /// commutative; combine order is backend-defined).
    fn allreduce<T: Wire + Clone + Send + 'static>(
        &mut self,
        group: &Self::Group,
        bytes: u64,
        value: T,
        op: impl Fn(&mut T, &T),
    ) -> T;

    /// Gather every member's `value`; all members receive the vector in
    /// group-rank order.
    fn allgatherv<T: Wire + Clone + Send + 'static>(
        &mut self,
        group: &Self::Group,
        bytes: u64,
        value: T,
    ) -> Vec<T>;

    /// Broadcast from group rank `root` (which passes `Some`, everyone
    /// else `None`).
    fn bcast<T: Wire + Clone + Send + 'static>(
        &mut self,
        group: &Self::Group,
        root: usize,
        bytes: u64,
        value: Option<T>,
    ) -> T;

    /// Collective split of `group` (MPI_Comm_split): members with the
    /// same `color` form a new group ordered by `(key, world_rank)`;
    /// `color = None` yields `None` (MPI_UNDEFINED).
    fn split(&mut self, group: &Self::Group, color: Option<i64>, key: i64) -> Option<Self::Group>;

    /// Allocate a world-unique 16-bit id (stream channels build their tag
    /// namespace from it). Not collective — callers that need agreement
    /// allocate on one rank and broadcast.
    fn alloc_channel_id(&mut self) -> u16;

    /// Take note of `ev` (see [`Event`]). A no-op unless the backend
    /// carries a checker or a wrapper records a profile; a wrapper
    /// forwards every event to the transport it wraps.
    fn observe(&mut self, _ev: Event) {}
}

/// What the stream runtime reports through [`Transport::observe`]. The
/// first three feed a sanitizer and are reported *before* the send they
/// describe: on a threaded backend the peer can act on a message the
/// instant `send` returns, so a later report would race any cross-rank
/// ledger built on them. The rest feed a profiler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// A stream channel's flow-control parameters (`window` in elements),
    /// reported by every member when the channel is created.
    RegisterChannel { id: u16, window: Option<u64>, credit_tag: Tag },
    /// `elems` stream elements are about to be sent towards `consumer`.
    DataSent { id: u16, consumer: usize, elems: u64 },
    /// `elems` elements' worth of credit is about to be granted to
    /// `producer`.
    CreditIssued { id: u16, producer: usize, elems: u64 },
    /// Open a named application span.
    Begin(&'static str),
    /// Close the innermost open span of that name.
    End(&'static str),
    /// `elems`/`bytes` of stream payload sent on `channel`.
    StreamSend { channel: u16, elems: u64, bytes: u64 },
    /// `elems`/`bytes` of stream payload received on `channel`.
    StreamRecv { channel: u16, elems: u64, bytes: u64 },
    /// The credit window right after a send: `outstanding` of `window`
    /// elements un-acknowledged towards one consumer.
    CreditOccupancy { channel: u16, outstanding: u64, window: u64 },
    /// One committed replication round on `channel`: a checkpoint of
    /// `bytes` reached quorum `latency_ns` after its prepare was sent
    /// (`crates/replica`; virtual nanoseconds on sim, wall clock on the
    /// real backends).
    ReplCommit { channel: u16, bytes: u64, latency_ns: u64 },
}

/// Run `f` under a named profiling span: [`Event::Begin`] and
/// [`Event::End`] around the call. Free on unprofiled backends; under a
/// profiler the span lands on this rank's timeline.
pub fn prof_scoped<TP: Transport, R>(
    rank: &mut TP,
    cat: &'static str,
    f: impl FnOnce(&mut TP) -> R,
) -> R {
    rank.observe(Event::Begin(cat));
    let r = f(rank);
    rank.observe(Event::End(cat));
    r
}

#[cfg(test)]
mod tests {
    use super::Tag;

    #[test]
    fn tag_layout_separates_user_and_internal_space() {
        // One type, not a look-alike: this line fails to compile otherwise.
        let _: mpisim::Tag = crate::Tag::user(1);
        assert_eq!(Tag::user(7).0, 7);
        let t = Tag::internal(2, 0x0102, 1);
        assert_eq!(t.0 >> 63, 1);
        assert_eq!((t.0 >> 48) & 0xFF, 2);
        assert_eq!((t.0 >> 32) & 0xFFFF, 0x0102);
        assert_eq!(t.0 & 0xFFFF_FFFF, 1);
        assert_ne!(Tag::user(u32::MAX).0 >> 63, 1);
    }
}
