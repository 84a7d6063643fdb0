//! # native — the stream runtime on real OS threads
//!
//! A [`Transport`] backend that runs every rank as
//! an OS thread on the host, so stream programs written against
//! `mpistream` execute in *actual* parallel instead of inside the
//! discrete-event simulator. The paper's decoupling pipeline — producer
//! groups streaming to consumer groups over FCFS channels — is exercised
//! against a real memory hierarchy, real locks and the wall clock.
//!
//! ## What this backend is (and is not)
//!
//! - **Same programs.** `run_decoupled`, `Stream`, `StreamChannel`,
//!   `operate2` all work unchanged; the cross-backend equivalence suite
//!   checks that fault-free payload sets match the simulator exactly.
//! - **Real concurrency, wall-clock time.** [`Transport::now`] is
//!   nanoseconds since [`NativeWorld::run`] began; deadline receives
//!   sleep on a futex with a wall-clock timeout. `compute(secs)` sleeps
//!   `secs × compute_scale` — it models occupancy, it does not simulate a
//!   machine.
//! - **No determinism.** FCFS arrival order depends on OS scheduling.
//!   Anything order-sensitive must be order-normalized before comparison
//!   (the equivalence tests sort payload sets for exactly this reason).
//! - **No fault model, no performance model.** There is no fault
//!   injection, no modelled network, no sanitizer. A rank that panics
//!   aborts the whole run when its thread is joined, but peers blocked on
//!   it will wait until then — bound native runs with an external timeout
//!   (as `ci.sh` does).
//!
//! ## One rank type for both real backends
//!
//! [`MailboxRank`] implements [`Transport`] for this crate and for the
//! `socket` crate alike. It owns everything the two share: identity, the
//! [`WallClock`], the [`Transport::wait_for_mail`] snapshot, the
//! collectives, and channel ids. Its [`Links`] parameter supplies the
//! rest — how a message leaves, how a receive finds its match and turns
//! it into a value, and how the rank waits for mail. Here that is
//! [`ThreadLinks`]: a send stages the value itself, in one allocation
//! with its header, on the peer's [`mailbox::Inbox`]; nothing is encoded
//! or boxed. The rank owns its side of its own mail, a
//! [`mailbox::Receiver`], so a receive takes no lock: it reads the staged
//! messages in arrival order up to the first match and moves the value
//! out of its node, and if nothing matches it sleeps on the inbox's
//! futex bell until a sender rings it.
//!
//! Both backends match with one index, [`mailbox::Matcher`], built from
//! the simulator's own pieces ([`mpistream::index`]) — an arrival-ordered
//! store, a per-tag queue for wildcard matches, a per-`(src, tag)` FIFO
//! for directed ones — and sleep on one bell type,
//! [`sync::futex::Bell`]. The matcher holds only the messages a receive
//! passed over; N producers stage onto a lock-free stack and never touch
//! it (see [`mailbox`] for the full design: the node layout, the drained
//! chain, the bell protocol that cannot lose a wake, and the version a
//! rank snapshots once per polling round inside `wait_for_mail`).
//!
//! Collectives, `split` and the group type are [`mpistream::coll`]'s,
//! run over those mailboxes. The backend hands it one number, the flat
//! threshold: groups up to that size use the star, larger ones the
//! binomial tree ([`NativeWorld::with_coll_flat_threshold`]; DESIGN.md
//! §13 has the measured crossover behind the default).
//!
//! ```
//! use mpistream::{run_decoupled, ChannelConfig, GroupSpec, Transport};
//! use native::NativeWorld;
//!
//! // Each rank returns its endpoint's stream statistics, in rank order.
//! let stats = NativeWorld::new(8).run(|rank| {
//!     let world = rank.world_group();
//!     run_decoupled::<u64, _, _, _>(
//!         rank,
//!         &world,
//!         GroupSpec { every: 4 },
//!         ChannelConfig::default(),
//!         |rank, p| {
//!             for step in 0..10 {
//!                 p.stream.isend(rank, step);
//!             }
//!         },
//!         |rank, c| {
//!             let mut seen = 0;
//!             c.stream.operate(rank, |_, _| seen += 1);
//!             assert_eq!(seen, 30); // 3 producers x 10 elements each
//!         },
//!     )
//! });
//! // Ranks 3 and 7 are the consumers.
//! assert_eq!((stats[3].elements, stats[7].elements), (30, 30));
//! ```

// Every `unsafe` block says why it is sound: the staged nodes are
// type-erased allocations handed between threads.
#![deny(clippy::undocumented_unsafe_blocks)]

use std::panic::resume_unwind;
use std::sync::Arc;
use std::time::Duration;

use desim::SimTime;
use mpistream::coll::{self, CollState, RankGroup};
use mpistream::{MsgInfo, Src, Tag, Transport, Wire};

pub mod mailbox;
pub mod sync;

use mailbox::{Inbox, Receiver};
use sync::{thread, Instant};

/// Default flat-collective threshold: group sizes at or below this use
/// the star geometry. Set from a flat-versus-tree sweep of barrier +
/// allreduce + allgatherv rounds on a one-core host, recorded in
/// `results/BENCH_native.json` (flat beat the tree at every size up to
/// 64, ratio 0.41–0.76 — with ranks far outnumbering cores, every tree
/// level is a forced context switch while the star's hub drains its one
/// mailbox in arrival order; see DESIGN.md §13). Sizes past the
/// measured range fall back to the tree's `O(log n)` critical path.
/// Override per-world with [`NativeWorld::with_coll_flat_threshold`].
const DEFAULT_FLAT_THRESHOLD: usize = 64;

/// A native world: `nprocs` ranks, each on its own OS thread.
pub struct NativeWorld {
    nprocs: usize,
    compute_scale: f64,
    coll_flat_threshold: usize,
}

impl NativeWorld {
    /// A world of `nprocs` ranks.
    pub fn new(nprocs: usize) -> NativeWorld {
        assert!(nprocs > 0, "a world needs at least one rank");
        NativeWorld { nprocs, compute_scale: 1.0, coll_flat_threshold: DEFAULT_FLAT_THRESHOLD }
    }

    /// Wall-clock seconds slept per modelled compute second (default 1.0).
    /// Scaled-down runs of simulator-sized workloads set this below 1 so
    /// `compute(secs)` costs go down proportionally.
    pub fn with_compute_scale(mut self, scale: f64) -> NativeWorld {
        assert!(scale.is_finite() && scale >= 0.0, "compute_scale must be finite and >= 0");
        self.compute_scale = scale;
        self
    }

    /// Largest group size that uses the flat (star) collective geometry;
    /// bigger groups switch to the binomial tree. `0` forces trees
    /// everywhere, `usize::MAX` forces flat everywhere. Defaults to the
    /// measured crossover baked into the crate.
    pub fn with_coll_flat_threshold(mut self, threshold: usize) -> NativeWorld {
        self.coll_flat_threshold = threshold;
        self
    }

    /// Run `body` once per rank, each on its own thread, join them all,
    /// and return what each rank's body returned, in world-rank order. A
    /// panicking rank propagates after every thread has exited — peers
    /// blocked on the dead rank block the join, so bound native runs with
    /// an external timeout.
    pub fn run<R, F>(&self, body: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut NativeRank) -> R + Send + Sync,
    {
        let clock = WallClock::start(self.compute_scale);
        let inboxes: Arc<[Inbox]> = (0..self.nprocs).map(|_| Inbox::new()).collect();
        thread::scope(|scope| {
            let body = &body;
            let (nprocs, flat) = (self.nprocs, self.coll_flat_threshold);
            let ranks: Vec<_> = (0..nprocs)
                .map(|r| {
                    let links =
                        ThreadLinks { inboxes: Arc::clone(&inboxes), rx: Receiver::default() };
                    scope.spawn(move || body(&mut MailboxRank::new(r, nprocs, clock, flat, links)))
                })
                .collect();
            ranks.into_iter().map(|rank| rank.join().unwrap_or_else(|p| resume_unwind(p))).collect()
        })
    }
}

/// One native rank: the per-thread handle [`NativeWorld::run`] passes to
/// the body.
pub type NativeRank = MailboxRank<ThreadLinks>;

/// The [`Links`] of a native rank: every rank's [`Inbox`], shared by the
/// world's threads, and the [`Receiver`] of this rank's own.
pub struct ThreadLinks {
    /// Every rank's [`Inbox`], indexed by world rank.
    inboxes: Arc<[Inbox]>,
    /// This rank's side of its own mail: nobody else touches it.
    rx: Receiver,
}

impl Links for ThreadLinks {
    #[inline]
    fn send<T: Wire + Send + 'static>(&mut self, dst: usize, info: MsgInfo, v: T) {
        self.inboxes[dst].send(info, v);
    }

    // The receive and the two waits are `#[inline]` so that, in the
    // rank's monomorphized receive, `until` folds away and a native
    // receive is one direct `Receiver` call and a type check.
    #[inline]
    fn recv<T: Wire + Send + 'static>(
        &mut self,
        me: usize,
        src: Src,
        tag: Tag,
        until: Until,
    ) -> Option<(T, MsgInfo)> {
        let taken = self.rx.recv(&self.inboxes[me], src, tag, until)?;
        Some(taken.downcast::<T>().unwrap_or_else(|info| {
            panic!(
                "rank {me}: payload type mismatch receiving tag {:?} from {} (expected {})",
                info.tag,
                info.src,
                std::any::type_name::<T>()
            )
        }))
    }

    #[inline]
    fn probe(&mut self, me: usize, src: Src, tag: Tag) -> Option<MsgInfo> {
        self.rx.probe(&self.inboxes[me], src, tag)
    }

    #[inline]
    fn wait_change(&mut self, me: usize, seen: u64) -> u64 {
        self.rx.wait_change(&self.inboxes[me], seen)
    }
}

/// How long a receive may wait for its message.
#[derive(Clone, Copy, Debug)]
pub enum Until {
    /// Not at all: take what has arrived.
    Now,
    /// Until this wall-clock instant.
    At(Instant),
    /// For as long as it takes.
    Forever,
}

/// What a backend hands [`MailboxRank`]: how a message leaves this rank,
/// how the first match for a receive is found and becomes a value, and
/// how this rank waits for its mail. Matching follows one index,
/// [`mailbox::Matcher`], on every backend; what differs is where the
/// messages wait before a receive reaches them — staged by senders on
/// other threads onto the rank's [`mailbox::Inbox`] (native) or on the
/// rank's inbound links (socket) — and a receive on either reads them in
/// arrival order up to its first match, indexing the ones it passes
/// over. Everything else is the rank's, the same for every backend.
pub trait Links {
    /// Deliver `v` to world rank `dst` (in range); `info` is what the
    /// receiver will see, its `src` the sending rank.
    fn send<T: Wire + Send + 'static>(&mut self, dst: usize, info: MsgInfo, v: T);

    /// The value of the first message for world rank `me` that matches
    /// `(src, tag)`, in arrival order, with what it says about itself,
    /// waiting for one as `until` says: `None` only when `until` ran out.
    /// [`Receiver::recv`] is the contract.
    fn recv<T: Wire + Send + 'static>(
        &mut self,
        me: usize,
        src: Src,
        tag: Tag,
        until: Until,
    ) -> Option<(T, MsgInfo)>;

    /// [`Receiver::probe`] of `me`'s mail: metadata of the first match,
    /// not consumed, without waiting.
    fn probe(&mut self, me: usize, src: Src, tag: Tag) -> Option<MsgInfo>;

    /// [`Receiver::wait_change`] of `me`'s mail: wait until its version
    /// differs from `seen`, and return the new one.
    fn wait_change(&mut self, me: usize, seen: u64) -> u64;
}

/// A rank of a real backend, generic over its [`Links`]: the one
/// [`Transport`] implementation behind [`NativeRank`] and
/// `socket::SocketRank`.
pub struct MailboxRank<L> {
    rank: usize,
    nprocs: usize,
    world: RankGroup,
    clock: WallClock,
    coll: CollState,
    /// Mailbox version at the last `wait_for_mail` return — a polling-
    /// round snapshot, deliberately *not* advanced by `try_recv`/`probe`
    /// (see `wait_for_mail` for why).
    mail_seen: u64,
    /// Channel ids this rank has allocated (see `alloc_channel_id`).
    channels: u32,
    links: L,
}

impl<L: Links> MailboxRank<L> {
    /// World rank `rank` of `nprocs`, on `clock`. Groups of up to `flat`
    /// members use the star collectives ([`CollState::new`]); every rank
    /// of a world must pass the same.
    pub fn new(rank: usize, nprocs: usize, clock: WallClock, flat: usize, links: L) -> Self {
        MailboxRank {
            rank,
            nprocs,
            world: RankGroup::world(nprocs),
            clock,
            coll: CollState::new(flat),
            mail_seen: 0,
            channels: 0,
            links,
        }
    }

    /// The rank's links, for what a backend does once the body has
    /// returned.
    pub fn into_links(self) -> L {
        self.links
    }
}

/// The clock of a real-backend rank: [`Transport::now`] reads nanoseconds
/// since the world began and [`Transport::compute`] sleeps `secs ×
/// compute_scale`.
#[derive(Clone, Copy, Debug)]
pub struct WallClock {
    epoch: Instant,
    compute_scale: f64,
}

impl WallClock {
    /// A clock whose epoch is now.
    pub fn start(compute_scale: f64) -> WallClock {
        WallClock { epoch: Instant::now(), compute_scale }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> SimTime {
        SimTime(u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }

    /// The instant at which `deadline` (read on this clock) falls.
    pub fn instant(&self, deadline: SimTime) -> Instant {
        self.epoch + Duration::from_nanos(deadline.0)
    }

    /// Model `secs` of computation: sleep `secs × compute_scale`.
    pub fn compute(&self, secs: f64) {
        let scaled = secs * self.compute_scale;
        if scaled.is_finite() && scaled > 0.0 {
            thread::sleep(Duration::from_secs_f64(scaled));
        }
    }
}

impl<L: Links> Transport for MailboxRank<L> {
    type Group = RankGroup;

    fn world_rank(&self) -> usize {
        self.rank
    }

    fn world_size(&self) -> usize {
        self.nprocs
    }

    fn world_group(&self) -> RankGroup {
        self.world.clone()
    }

    fn now(&self) -> SimTime {
        self.clock.now()
    }

    fn compute(&mut self, secs: f64) {
        self.clock.compute(secs);
    }

    fn send<T: Wire + Send + 'static>(&mut self, dst: usize, tag: Tag, bytes: u64, value: T) {
        assert!(dst < self.nprocs, "send to out-of-range rank {dst}");
        self.links.send(dst, MsgInfo { src: self.rank, tag, bytes }, value);
    }

    fn recv<T: Wire + Send + 'static>(&mut self, src: Src, tag: Tag) -> (T, MsgInfo) {
        let got = self.links.recv(self.rank, src, tag, Until::Forever);
        got.expect("a receive without a deadline waits until it matches")
    }

    fn try_recv<T: Wire + Send + 'static>(&mut self, src: Src, tag: Tag) -> Option<(T, MsgInfo)> {
        self.links.recv(self.rank, src, tag, Until::Now)
    }

    fn recv_deadline<T: Wire + Send + 'static>(
        &mut self,
        src: Src,
        tag: Tag,
        deadline: SimTime,
    ) -> Option<(T, MsgInfo)> {
        self.links.recv(self.rank, src, tag, Until::At(self.clock.instant(deadline)))
    }

    fn probe(&mut self, src: Src, tag: Tag) -> Option<MsgInfo> {
        self.links.probe(self.rank, src, tag)
    }

    fn wait_for_mail(&mut self) {
        // `mail_seen` is the version at the *previous* return from here
        // (initially 0, matching the mailbox's initial version); polls in
        // between never touch it. So a push landing anywhere in the
        // caller's polling round — even between polls of two different
        // streams in one `operate2` pass — keeps the version ahead of the
        // snapshot and this returns immediately instead of parking past a
        // message it never re-examined. Worst case is one spurious
        // re-poll; a lost wake-up is impossible.
        self.mail_seen = self.links.wait_change(self.rank, self.mail_seen);
    }

    fn barrier(&mut self, group: &RankGroup) {
        let round = self.coll.begin(group, self.rank);
        coll::barrier(self, &round)
    }

    fn allreduce<T: Wire + Clone + Send + 'static>(
        &mut self,
        group: &RankGroup,
        bytes: u64,
        value: T,
        op: impl Fn(&mut T, &T),
    ) -> T {
        let round = self.coll.begin(group, self.rank);
        coll::allreduce(self, &round, bytes, value, op)
    }

    fn allgatherv<T: Wire + Clone + Send + 'static>(
        &mut self,
        group: &RankGroup,
        bytes: u64,
        value: T,
    ) -> Vec<T> {
        let round = self.coll.begin(group, self.rank);
        coll::allgatherv(self, &round, bytes, value)
    }

    fn bcast<T: Wire + Clone + Send + 'static>(
        &mut self,
        group: &RankGroup,
        root: usize,
        bytes: u64,
        value: Option<T>,
    ) -> T {
        let round = self.coll.begin(group, self.rank);
        coll::bcast(self, &round, root, bytes, value)
    }

    fn split(&mut self, group: &RankGroup, color: Option<i64>, key: i64) -> Option<RankGroup> {
        let round = self.coll.begin(group, self.rank);
        coll::split(self, &round, color, key)
    }

    fn alloc_channel_id(&mut self) -> u16 {
        // Rank r hands out r, r + n, r + 2n, ...: world-unique with no
        // shared state, so threads and processes allocate alike.
        let id = self.channels as usize * self.nprocs + self.rank;
        self.channels += 1;
        u16::try_from(id).expect("too many channels")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpistream::Group;

    /// Rank `r` sleeps `(n - r)` × 5 ms, so rank 0 finishes last: a world
    /// that collected results in completion order would return them
    /// reversed.
    #[test]
    fn results_come_back_in_rank_order() {
        const N: usize = 4;
        let results = NativeWorld::new(N).run(|rank| {
            let r = rank.world_rank();
            thread::sleep(Duration::from_millis(5 * (N - r) as u64));
            r
        });
        assert_eq!(results, (0..N).collect::<Vec<_>>());
    }

    #[test]
    fn ping_pong_round_trips() {
        NativeWorld::new(2).run(|rank| {
            let t = Tag::user(1);
            if rank.world_rank() == 0 {
                rank.send(1, t, 8, 41u64);
                let (v, info) = rank.recv::<u64>(Src::Rank(1), t);
                assert_eq!(v, 42);
                assert_eq!(info.src, 1);
            } else {
                let (v, _) = rank.recv::<u64>(Src::Any, t);
                rank.send(0, t, 8, v + 1);
            }
        });
    }

    /// Every rank of a 5-rank world allocates 3 ids; all 15 are distinct.
    #[test]
    fn channel_ids_are_world_unique() {
        NativeWorld::new(5).run(|rank| {
            let mine: Vec<u16> = (0..3).map(|_| rank.alloc_channel_id()).collect();
            let world = rank.world_group();
            let mut all: Vec<u16> = rank.allgatherv(&world, 6, mine).concat();
            all.sort_unstable();
            all.dedup();
            assert_eq!(all.len(), 15);
        });
    }

    /// The two collective geometries are interchangeable: force flat
    /// everywhere (`usize::MAX`) and trees everywhere (`0`) on the same
    /// world and demand identical results from every collective.
    #[test]
    fn flat_and_tree_collectives_agree() {
        for threshold in [0, usize::MAX] {
            NativeWorld::new(6).with_coll_flat_threshold(threshold).run(|rank| {
                let world = rank.world_group();
                let sum = rank.allreduce(&world, 8, rank.world_rank() as u64, |a, b| *a += b);
                assert_eq!(sum, 15);
                let all = rank.allgatherv(&world, 8, rank.world_rank());
                assert_eq!(all, (0..6).collect::<Vec<_>>());
                let v = rank.bcast(&world, 4, 8, (rank.world_rank() == 4).then_some(7u8));
                assert_eq!(v, 7);
                rank.barrier(&world);
                let g = rank.split(&world, Some((rank.world_rank() % 2) as i64), 0).unwrap();
                assert_eq!(g.size(), 3);
            });
        }
    }

    #[test]
    fn split_forms_color_groups_with_distinct_ids() {
        NativeWorld::new(6).run(|rank| {
            let world = rank.world_group();
            let me = rank.world_rank();
            let g = rank.split(&world, Some((me % 2) as i64), me as i64).unwrap();
            let expect: Vec<usize> = (0..6).filter(|r| r % 2 == me % 2).collect();
            assert_eq!(g.ranks(), &expect[..]);
            // Collectives address the new group without cross-talk.
            let sum = rank.allreduce(&g, 8, 1u32, |a, b| *a += b);
            assert_eq!(sum, 3);
        });
    }

    /// `Some(i64::MIN)` is a legal color, distinct from `None` — the old
    /// sentinel encoding collapsed the two, so MIN-colored members would
    /// have absorbed non-participants and deadlocked on first collective.
    #[test]
    fn split_min_color_is_distinct_from_none() {
        NativeWorld::new(4).run(|rank| {
            let world = rank.world_group();
            let me = rank.world_rank();
            let color = if me < 2 { Some(i64::MIN) } else { None };
            let g = rank.split(&world, color, me as i64);
            assert_eq!(g.is_some(), me < 2);
            if let Some(g) = g {
                assert_eq!(g.ranks(), &[0, 1]);
                let sum = rank.allreduce(&g, 8, 1u32, |a, b| *a += b);
                assert_eq!(sum, 2);
            }
        });
    }

    #[test]
    fn split_none_yields_no_group() {
        NativeWorld::new(3).run(|rank| {
            let world = rank.world_group();
            let color = if rank.world_rank() == 2 { None } else { Some(0) };
            let g = rank.split(&world, color, 0);
            assert_eq!(g.is_some(), rank.world_rank() != 2);
            if let Some(g) = g {
                assert_eq!(g.ranks(), &[0, 1]);
            }
        });
    }

    #[test]
    fn deadline_recv_times_out_on_the_wall_clock() {
        NativeWorld::new(1).run(|rank| {
            let deadline = rank.now() + desim::SimDuration::from_millis(15);
            let got = rank.recv_deadline::<u64>(Src::Any, Tag::user(9), deadline);
            assert!(got.is_none());
            assert!(rank.now() >= deadline);
        });
    }

    #[test]
    fn clock_is_monotone_and_compute_advances_it() {
        NativeWorld::new(1).run(|rank| {
            let t0 = rank.now();
            rank.compute(5e-3);
            let t1 = rank.now();
            assert!(t1 > t0);
            assert!(t1.since(t0) >= desim::SimDuration::from_millis(4));
        });
    }
}
