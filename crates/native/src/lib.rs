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
//!   nanoseconds since [`NativeWorld::run`] began; deadline receives park
//!   on a condvar with a wall-clock timeout. `compute(secs)` sleeps
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
//! [`WallClock`], receive matching on the rank's own [`Mailbox`], the
//! [`Transport::wait_for_mail`] snapshot, the collectives, and channel
//! ids. Its [`Links`] parameter supplies the rest — how a message leaves,
//! how a received payload becomes a value, and how the rank waits for
//! mail. Here that is [`ThreadLinks`]: a send moves the boxed value into
//! the peer's mailbox, nothing is encoded, and a receive that finds
//! nothing parks on the mailbox until a sender's push wakes it.
//!
//! Each mailbox mirrors the simulator's PR-3 matching structure — per-tag
//! ordered index for wildcard matches, per-`(src, tag)` FIFO for directed
//! ones — fed through a lock-free MPSC staging stack so N producers never
//! serialize on the consumer's index (see [`mailbox`] for the full
//! design: Treiber staging, an eventcount park protocol that cannot lose
//! wake-ups, and a version counter snapshotted once per polling round
//! inside `wait_for_mail`).
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

use std::panic::resume_unwind;
use std::sync::Arc;
use std::time::Duration;

use desim::SimTime;
use mpistream::coll::{self, CollState, RankGroup};
use mpistream::{MsgInfo, Src, Tag, Transport, Wire};

pub mod mailbox;
pub mod sync;

use mailbox::{Env, Mailbox};
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
        let mailboxes: Arc<[Mailbox]> = (0..self.nprocs).map(|_| Mailbox::new()).collect();
        thread::scope(|scope| {
            let body = &body;
            let (nprocs, flat) = (self.nprocs, self.coll_flat_threshold);
            let ranks: Vec<_> = (0..nprocs)
                .map(|r| {
                    let links = ThreadLinks(Arc::clone(&mailboxes));
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

/// The [`Links`] of a native rank: every mailbox of the world, shared by
/// its threads.
pub struct ThreadLinks(Arc<[Mailbox]>);

impl Links for ThreadLinks {
    fn send<T: Wire + Send + 'static>(&mut self, dst: usize, info: MsgInfo, v: T) {
        let MsgInfo { src, tag, bytes } = info;
        self.0[dst].push(Env { src, tag, bytes, payload: Box::new(v) });
    }

    // The three waits are `#[inline]` so that, in the rank's
    // monomorphized receive, `until` folds away and a native receive is
    // one direct `Mailbox` call.
    #[inline]
    fn take(&mut self, me: usize, src: Src, tag: Tag, until: Until) -> Option<Env> {
        let inbox = &self.0[me];
        match until {
            Until::Now => inbox.try_take(src, tag),
            Until::At(deadline) => inbox.take_deadline(src, tag, deadline),
            Until::Forever => Some(inbox.take(src, tag)),
        }
    }

    #[inline]
    fn probe(&mut self, me: usize, src: Src, tag: Tag) -> Option<MsgInfo> {
        self.0[me].probe(src, tag)
    }

    #[inline]
    fn wait_change(&mut self, me: usize, seen: u64) -> u64 {
        self.0[me].wait_change(seen)
    }

    fn unpack<T: Wire + Send + 'static>(me: usize, env: Env) -> T {
        *env.payload.downcast::<T>().unwrap_or_else(|_| {
            panic!(
                "rank {me}: payload type mismatch receiving tag {:?} from {} (expected {})",
                env.tag,
                env.src,
                std::any::type_name::<T>()
            )
        })
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
/// how a received payload becomes a value, and how this rank waits for
/// its mail. Matching is the rank's [`Mailbox`] on every backend; what
/// differs is who fills it — a sender's `push` on another thread (native,
/// which parks until then) or the rank itself, reading its links when a
/// receive misses (socket). Everything else is the rank's, the same for
/// every backend.
pub trait Links {
    /// Deliver `v` to world rank `dst` (in range); `info` is what the
    /// receiver will see, its `src` the sending rank.
    fn send<T: Wire + Send + 'static>(&mut self, dst: usize, info: MsgInfo, v: T);

    /// The value `env` carries, received by world rank `me`.
    fn unpack<T: Wire + Send + 'static>(me: usize, env: Env) -> T;

    /// The first message in world rank `me`'s mailbox that matches
    /// `(src, tag)`, in arrival order, waiting for one as `until` says:
    /// `None` only when `until` ran out. [`Mailbox::take`] and its
    /// siblings are the contract.
    fn take(&mut self, me: usize, src: Src, tag: Tag, until: Until) -> Option<Env>;

    /// [`Mailbox::probe`] of `me`'s mail: metadata of the first match,
    /// not consumed, without waiting.
    fn probe(&mut self, me: usize, src: Src, tag: Tag) -> Option<MsgInfo>;

    /// [`Mailbox::wait_change`] of `me`'s mail: wait until its version
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

    fn unpack<T: Wire + Send + 'static>(&self, env: Env) -> (T, MsgInfo) {
        let info = MsgInfo { src: env.src, tag: env.tag, bytes: env.bytes };
        (L::unpack(self.rank, env), info)
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
        let env = self.links.take(self.rank, src, tag, Until::Forever);
        self.unpack(env.expect("a receive without a deadline waits until it matches"))
    }

    fn try_recv<T: Wire + Send + 'static>(&mut self, src: Src, tag: Tag) -> Option<(T, MsgInfo)> {
        let env = self.links.take(self.rank, src, tag, Until::Now)?;
        Some(self.unpack(env))
    }

    fn recv_deadline<T: Wire + Send + 'static>(
        &mut self,
        src: Src,
        tag: Tag,
        deadline: SimTime,
    ) -> Option<(T, MsgInfo)> {
        let until = Until::At(self.clock.instant(deadline));
        let env = self.links.take(self.rank, src, tag, until)?;
        Some(self.unpack(env))
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
