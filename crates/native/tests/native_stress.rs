//! Concurrency stress battery for the native backend.
//!
//! Every optimization in the native mailbox is a concurrency change to
//! real-thread code — the same code where review already caught a
//! lost-wakeup race — so this battery is load-bearing, not decoration. It
//! hammers the lock-free staging path from many real producer threads,
//! drives the eventcount park protocol through polling races, pins the
//! deadline-recompute semantics under spurious wakes, audits the batched
//! credit protocol for window overruns, and repeats the tree collectives
//! enough times that a single mis-matched hop would deadlock or
//! mis-reduce.
//!
//! Iteration counts scale with `NATIVE_STRESS_ITERS` (a multiplier,
//! default 1): CI runs the defaults, local soaks crank it up, e.g.
//! `NATIVE_STRESS_ITERS=20 cargo test --release -p native --test
//! native_stress`. Tests that would *hang* on a lost wake-up run under a
//! watchdog that aborts the process instead of letting CI time out
//! silently.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mpistream::coll::RankGroup;
use mpistream::transport::SimTime;
use mpistream::{
    ChannelConfig, Event, Group, GroupSpec, MsgInfo, Role, RoutePolicy, Src, Stream, StreamChannel,
    Tag, Transport, Wire,
};
use native::mailbox::{Env, Mailbox};
use native::{NativeRank, NativeWorld};
use proptest::prelude::*;

/// `n` scaled by the `NATIVE_STRESS_ITERS` multiplier (default 1).
fn iters(n: u64) -> u64 {
    let scale: u64 =
        std::env::var("NATIVE_STRESS_ITERS").ok().and_then(|v| v.parse().ok()).unwrap_or(1);
    n * scale.max(1)
}

fn env_msg(src: usize, tag: Tag, seq: u64) -> Env {
    Env { src, tag, bytes: 8, payload: Box::new(seq) }
}

fn seq_of(env: Env) -> (usize, u64) {
    let src = env.src;
    (src, *env.payload.downcast::<u64>().expect("u64 payload"))
}

/// Run `f` under a watchdog: if it has not finished within `secs`, abort
/// the process with a diagnostic. A lost wake-up manifests as a hang; an
/// abort turns that into a loud, fast CI failure instead of a timeout.
fn with_watchdog<R>(label: &'static str, secs: u64, f: impl FnOnce() -> R) -> R {
    let done = Arc::new(AtomicBool::new(false));
    let d2 = Arc::clone(&done);
    std::thread::spawn(move || {
        let start = Instant::now();
        while !d2.load(Ordering::Acquire) {
            if start.elapsed() > Duration::from_secs(secs) {
                eprintln!("watchdog: `{label}` exceeded {secs}s — lost wake-up or deadlock");
                std::process::abort();
            }
            std::thread::sleep(Duration::from_millis(100));
        }
    });
    let r = f();
    done.store(true, Ordering::Release);
    r
}

// ---------------------------------------------------------------------
// MPSC staging: many producers, one draining owner
// ---------------------------------------------------------------------

/// The incast shape at full contention: N real threads hammer one
/// mailbox's staging stack while the owner blocking-takes everything.
/// Checks conservation (every message exactly once) and per-source FIFO
/// (the CAS linearization must survive the stack reversal and the
/// index/drain-match split).
#[test]
fn mpsc_hammer_conserves_and_orders_per_source() {
    let producers = 8usize;
    let per = iters(20_000);
    let mb = Arc::new(Mailbox::new());
    let tag = Tag::user(1);
    with_watchdog("mpsc_hammer", 120, || {
        std::thread::scope(|s| {
            for p in 0..producers {
                let mb = Arc::clone(&mb);
                s.spawn(move || {
                    for i in 0..per {
                        mb.push(env_msg(p, tag, i));
                    }
                });
            }
            let mut next = vec![0u64; producers];
            for _ in 0..per * producers as u64 {
                let (src, seq) = seq_of(mb.take(Src::Any, tag));
                assert_eq!(seq, next[src], "per-source FIFO violated for src {src}");
                next[src] += 1;
            }
            assert!(next.iter().all(|&n| n == per), "every source fully delivered");
        });
    });
    assert!(mb.try_take(Src::Any, tag).is_none(), "no stragglers");
}

/// Wildcard and directed receives interleaved against live producers:
/// directed takes tombstone the per-tag order and wildcard takes
/// tombstone the per-source order — both lazily compacted — so mixing
/// them under load exercises exactly the bookkeeping the sharded index
/// rewrite changed.
#[test]
fn directed_and_wildcard_interleave_without_loss() {
    let producers = 4usize;
    let per = iters(10_000); // per producer, alternating two tags
    let (ta, tb) = (Tag::user(1), Tag::user(2));
    let mb = Arc::new(Mailbox::new());
    with_watchdog("directed_wildcard_interleave", 120, || {
        std::thread::scope(|s| {
            for p in 0..producers {
                let mb = Arc::clone(&mb);
                s.spawn(move || {
                    for i in 0..per {
                        let tag = if i % 2 == 0 { ta } else { tb };
                        mb.push(env_msg(p, tag, i));
                    }
                });
            }
            // Directed drain of tag B, round-robin over sources, racing
            // the producers; each source's B-sequence must ascend.
            let b_per = per / 2;
            let mut last_b = vec![None::<u64>; producers];
            for _ in 0..b_per {
                for (p, last) in last_b.iter_mut().enumerate() {
                    let (src, seq) = seq_of(mb.take(Src::Rank(p), tb));
                    assert_eq!(src, p);
                    assert!(last.is_none_or(|l| seq > l), "directed FIFO violated");
                    *last = Some(seq);
                }
            }
            // Wildcard drain of tag A; per-source order must ascend.
            let a_per = per - b_per;
            let mut last_a = vec![None::<u64>; producers];
            for _ in 0..a_per * producers as u64 {
                let (src, seq) = seq_of(mb.take(Src::Any, ta));
                assert!(last_a[src].is_none_or(|l| seq > l), "wildcard FIFO violated");
                last_a[src] = Some(seq);
            }
        });
    });
    assert!(mb.try_take(Src::Any, ta).is_none());
    assert!(mb.try_take(Src::Any, tb).is_none());
}

// ---------------------------------------------------------------------
// The eventcount under polling races (no lost wake-ups, no absorbed
// pushes)
// ---------------------------------------------------------------------

/// The `operate2` pattern driven straight at the mailbox: poll several
/// tags, then park on `wait_change` with a round-start snapshot. A push
/// landing *between* two polls of one round must still wake the park. A
/// lost wake-up hangs the loop — the watchdog converts that into an
/// abort.
#[test]
fn polling_rounds_never_sleep_past_a_push() {
    let total = iters(50_000);
    let tags = [Tag::user(1), Tag::user(2), Tag::user(3)];
    let mb = Arc::new(Mailbox::new());
    with_watchdog("polling_rounds", 120, || {
        std::thread::scope(|s| {
            {
                let mb = Arc::clone(&mb);
                s.spawn(move || {
                    for i in 0..total {
                        mb.push(env_msg(0, tags[(i % 3) as usize], i));
                        if i % 64 == 0 {
                            // Give the consumer a chance to park so pushes
                            // land in every phase of its round.
                            std::thread::yield_now();
                        }
                    }
                });
            }
            let mut got = 0u64;
            let mut seen = 0u64; // matches the mailbox's initial version
            while got < total {
                loop {
                    let mut round = 0;
                    for t in tags {
                        while mb.try_take(Src::Any, t).is_some() {
                            round += 1;
                        }
                    }
                    got += round;
                    if round == 0 {
                        break;
                    }
                }
                if got < total {
                    seen = mb.wait_change(seen);
                }
            }
        });
    });
}

/// A wake storm against one wake per park: every round, N producers
/// each fire a burst of filler envelopes at a consumer blocked on a tag
/// that is pushed only after the last burst has landed. The fillers
/// claim the consumer's wakes for nothing — it finds no match and parks
/// again, over and over, while later fillers read an already-cleared
/// flag and skip the notify — and the one push that matters must still
/// find a raised flag or an awake consumer. A lost wake-up hangs the
/// round; the watchdog converts that into an abort.
#[test]
fn wake_storm_never_sleeps_past_the_last_tag() {
    let producers = 4usize;
    let burst = 16u64;
    let rounds = iters(2_000);
    let filler = Tag::user(1);
    let wanted = |round: u64| Tag::user(1_000 + u32::try_from(round).expect("round fits a tag"));
    let mb = Mailbox::new();
    let bursts_landed = std::sync::Barrier::new(producers);
    with_watchdog("wake_storm", 120, || {
        std::thread::scope(|s| {
            for p in 0..producers {
                let (mb, bursts_landed) = (&mb, &bursts_landed);
                s.spawn(move || {
                    for round in 0..rounds {
                        for i in 0..burst {
                            mb.push(env_msg(p, filler, round * burst + i));
                        }
                        bursts_landed.wait();
                        if round % producers as u64 == p as u64 {
                            mb.push(env_msg(p, wanted(round), round));
                        }
                    }
                });
            }
            let mut next = vec![0u64; producers];
            for round in 0..rounds {
                let (_, seq) = seq_of(mb.take(Src::Any, wanted(round)));
                assert_eq!(seq, round);
                // This round's fillers all preceded the wanted push.
                for _ in 0..burst * producers as u64 {
                    let (src, seq) = seq_of(mb.try_take(Src::Any, filler).expect("a filler"));
                    assert_eq!(seq, next[src], "per-source FIFO violated for src {src}");
                    next[src] += 1;
                }
            }
        });
    });
    assert!(mb.try_take(Src::Any, filler).is_none(), "no stragglers");
}

// ---------------------------------------------------------------------
// Deadline semantics under spurious wakes
// ---------------------------------------------------------------------

/// Non-matching pushes wake a parked deadline take over and over; each
/// wake must *recompute the remaining time* against the absolute
/// deadline. Re-waiting the full timeout per wake would never expire
/// under this spam (the old bug); giving up early would truncate. The
/// deadline must land in between.
#[test]
fn spurious_wakes_neither_extend_nor_truncate_deadlines() {
    let mb = Arc::new(Mailbox::new());
    let deadline = Duration::from_millis(300);
    let stop = Arc::new(AtomicBool::new(false));
    with_watchdog("deadline_spurious_wakes", 60, || {
        std::thread::scope(|s| {
            {
                let (mb, stop) = (Arc::clone(&mb), Arc::clone(&stop));
                s.spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Acquire) {
                        // Wrong tag: wakes the parked take, never matches.
                        mb.push(env_msg(1, Tag::user(9), i));
                        i += 1;
                        std::thread::sleep(Duration::from_millis(5));
                    }
                });
            }
            let t0 = Instant::now();
            let got = mb.take_deadline(Src::Any, Tag::user(1), t0 + deadline);
            let elapsed = t0.elapsed();
            stop.store(true, Ordering::Release);
            assert!(got.is_none(), "nothing matching was ever pushed");
            assert!(elapsed >= deadline, "deadline truncated: {elapsed:?} < {deadline:?}");
            assert!(
                elapsed < deadline + Duration::from_secs(2),
                "deadline extended by spurious wakes: {elapsed:?}"
            );
        });
    });
}

/// The positive half: a matching message that arrives mid-wait (behind a
/// screen of non-matching wakes) is delivered promptly, well before the
/// deadline.
#[test]
fn matching_message_beats_the_deadline_despite_spurious_wakes() {
    let mb = Arc::new(Mailbox::new());
    with_watchdog("deadline_delivery", 60, || {
        std::thread::scope(|s| {
            {
                let mb = Arc::clone(&mb);
                s.spawn(move || {
                    for i in 0..10u64 {
                        mb.push(env_msg(1, Tag::user(9), i)); // spurious
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    mb.push(env_msg(2, Tag::user(1), 42)); // the real one
                });
            }
            let t0 = Instant::now();
            let got = mb.take_deadline(Src::Any, Tag::user(1), t0 + Duration::from_secs(30));
            let (src, seq) = seq_of(got.expect("delivered"));
            assert_eq!((src, seq), (2, 42));
            assert!(t0.elapsed() < Duration::from_secs(10), "delivery was prompt");
        });
    });
}

// ---------------------------------------------------------------------
// Batched credits: no credit overrun, end-to-end on real threads
// ---------------------------------------------------------------------

/// Per-(channel, producer, consumer) credit ledger fed by the sanitizer
/// events of `Transport::observe`. The invariants of the credit protocol, batched or
/// not: a producer never has more than `window` elements outstanding
/// towards one consumer, and a consumer never acknowledges elements it
/// was never sent.
#[derive(Default)]
struct CreditLedger {
    windows: Mutex<HashMap<u16, u64>>,
    outstanding: Mutex<HashMap<(u16, usize, usize), i64>>,
    violations: Mutex<Vec<String>>,
}

impl CreditLedger {
    fn violation(&self, msg: String) {
        self.violations.lock().unwrap().push(msg);
    }

    fn data_sent(&self, id: u16, producer: usize, consumer: usize, elems: u64) {
        let mut out = self.outstanding.lock().unwrap();
        let o = out.entry((id, producer, consumer)).or_insert(0);
        *o += elems as i64;
        if let Some(&w) = self.windows.lock().unwrap().get(&id) {
            if *o > w as i64 {
                self.violation(format!(
                    "channel {id}: producer {producer} has {o} outstanding towards \
                     consumer {consumer}, window {w}"
                ));
            }
        }
    }

    fn credit_issued(&self, id: u16, producer: usize, consumer: usize, elems: u64) {
        let mut out = self.outstanding.lock().unwrap();
        let o = out.entry((id, producer, consumer)).or_insert(0);
        *o -= elems as i64;
        if *o < 0 {
            self.violation(format!(
                "channel {id}: consumer {consumer} acknowledged {} elements never sent \
                 by producer {producer}",
                -*o
            ));
        }
    }
}

/// A [`Transport`] wrapper that forwards everything to the wrapped
/// [`NativeRank`] and routes the sanitizer events into a [`CreditLedger`]
/// — the native analogue of the simulator's `World::with_check`.
struct Audited<'a> {
    inner: &'a mut NativeRank,
    ledger: Arc<CreditLedger>,
}

impl Transport for Audited<'_> {
    type Group = RankGroup;

    fn world_rank(&self) -> usize {
        self.inner.world_rank()
    }
    fn world_size(&self) -> usize {
        self.inner.world_size()
    }
    fn world_group(&self) -> RankGroup {
        self.inner.world_group()
    }
    fn now(&self) -> SimTime {
        self.inner.now()
    }
    fn compute(&mut self, secs: f64) {
        self.inner.compute(secs);
    }
    fn send<T: Wire + Send + 'static>(&mut self, dst: usize, tag: Tag, bytes: u64, value: T) {
        self.inner.send(dst, tag, bytes, value);
    }
    fn recv<T: Wire + Send + 'static>(&mut self, src: Src, tag: Tag) -> (T, MsgInfo) {
        self.inner.recv(src, tag)
    }
    fn try_recv<T: Wire + Send + 'static>(&mut self, src: Src, tag: Tag) -> Option<(T, MsgInfo)> {
        self.inner.try_recv(src, tag)
    }
    fn recv_deadline<T: Wire + Send + 'static>(
        &mut self,
        src: Src,
        tag: Tag,
        deadline: SimTime,
    ) -> Option<(T, MsgInfo)> {
        self.inner.recv_deadline(src, tag, deadline)
    }
    fn probe(&mut self, src: Src, tag: Tag) -> Option<MsgInfo> {
        self.inner.probe(src, tag)
    }
    fn wait_for_mail(&mut self) {
        self.inner.wait_for_mail();
    }
    fn barrier(&mut self, group: &RankGroup) {
        self.inner.barrier(group);
    }
    fn allreduce<T: Wire + Clone + Send + 'static>(
        &mut self,
        group: &RankGroup,
        bytes: u64,
        value: T,
        op: impl Fn(&mut T, &T),
    ) -> T {
        self.inner.allreduce(group, bytes, value, op)
    }
    fn allgatherv<T: Wire + Clone + Send + 'static>(
        &mut self,
        group: &RankGroup,
        bytes: u64,
        value: T,
    ) -> Vec<T> {
        self.inner.allgatherv(group, bytes, value)
    }
    fn bcast<T: Wire + Clone + Send + 'static>(
        &mut self,
        group: &RankGroup,
        root: usize,
        bytes: u64,
        value: Option<T>,
    ) -> T {
        self.inner.bcast(group, root, bytes, value)
    }
    fn split(&mut self, group: &RankGroup, color: Option<i64>, key: i64) -> Option<RankGroup> {
        self.inner.split(group, color, key)
    }
    fn alloc_channel_id(&mut self) -> u16 {
        self.inner.alloc_channel_id()
    }

    fn observe(&mut self, ev: Event) {
        let me = self.inner.world_rank();
        match ev {
            Event::RegisterChannel { id, window: Some(w), .. } => {
                self.ledger.windows.lock().unwrap().insert(id, w);
            }
            Event::DataSent { id, consumer, elems } => {
                self.ledger.data_sent(id, me, consumer, elems)
            }
            Event::CreditIssued { id, producer, elems } => {
                self.ledger.credit_issued(id, producer, me, elems)
            }
            _ => {}
        }
    }
}

/// A credited, aggregated stream pipeline on real threads with the credit
/// hooks audited, across the batch spectrum: unbatched (1), mid-window
/// (4), and the maximum the validator allows for credits 8 / aggregation
/// 2 (7). Conservation plus a clean ledger means the batched
/// acknowledgement path neither overruns the window nor invents credit.
#[test]
fn batched_credits_never_overrun_the_window() {
    for credit_batch in [1usize, 4, 7] {
        let per = iters(3_000);
        let nprocs = 6usize;
        let every = 3usize; // producers {0,1,3,4}, consumers {2,5}
        let ledger = Arc::new(CreditLedger::default());
        let l2 = Arc::clone(&ledger);
        let per_rank = with_watchdog("batched_credit_audit", 240, move || {
            NativeWorld::new(nprocs).run(move |rank| {
                let mut rank = Audited { inner: rank, ledger: Arc::clone(&l2) };
                let comm = rank.world_group();
                let spec = GroupSpec { every };
                let role = spec.role_of(rank.world_rank());
                let ch = StreamChannel::create(
                    &mut rank,
                    &comm,
                    role,
                    ChannelConfig {
                        element_bytes: 64,
                        aggregation: 2,
                        credits: Some(8),
                        route: RoutePolicy::RoundRobin,
                        credit_batch,
                        ..ChannelConfig::default()
                    },
                );
                let mut stream: Stream<u64> = Stream::attach(ch);
                match role {
                    Role::Producer => {
                        let me = rank.world_rank() as u64;
                        for i in 0..per {
                            stream.isend(&mut rank, (me << 32) | i);
                        }
                        stream.terminate(&mut rank);
                        Vec::new()
                    }
                    Role::Consumer => {
                        let mut got = Vec::new();
                        stream.operate(&mut rank, |_, v| got.push(v));
                        got
                    }
                    Role::Bystander => unreachable!(),
                }
            })
        });
        let violations = ledger.violations.lock().unwrap();
        assert!(violations.is_empty(), "credit_batch {credit_batch}: {violations:?}");
        let mut got = per_rank.concat();
        got.sort_unstable();
        let mut want: Vec<u64> =
            [0u64, 1, 3, 4].iter().flat_map(|&p| (0..per).map(move |i| (p << 32) | i)).collect();
        want.sort_unstable();
        assert_eq!(got, want, "credit_batch {credit_batch}: conservation");
        // Whatever credit was still pending at termination, nothing ended
        // negative: the consumer never acknowledged phantom elements.
        let out = ledger.outstanding.lock().unwrap();
        assert!(out.values().all(|&o| o >= 0), "negative outstanding: {out:?}");
    }
}

// ---------------------------------------------------------------------
// Tree collectives under repetition
// ---------------------------------------------------------------------

/// Many rounds of the full collective subset on a non-power-of-two world
/// *and* on split subgroups, with analytic expected values every round. A
/// single cross-matched tree hop (wrong parent/child pairing, tag
/// aliasing between reduce and bcast phases, a stale registry id) either
/// deadlocks (watchdog) or fails an equality.
#[test]
fn tree_collectives_survive_repetition_and_splits() {
    let rounds = iters(200);
    let nprocs = 9usize; // odd: exercises clipped binomial trees
    with_watchdog("tree_collective_repetition", 240, move || {
        NativeWorld::new(nprocs).run(move |rank| {
            let world = rank.world_group();
            let me = rank.world_rank() as u64;
            let n = nprocs as u64;
            let sub = rank
                .split(&world, Some((rank.world_rank() % 2) as i64), me as i64)
                .expect("every rank participates");
            let subsize = sub.size() as u64;
            let my_sub = sub.rank_of(rank.world_rank()).unwrap() as u64;
            for r in 0..rounds {
                rank.barrier(&world);
                let sum = rank.allreduce(&world, 8, me + r, |a, b| *a += b);
                assert_eq!(sum, n * (n - 1) / 2 + n * r);
                let all = rank.allgatherv(&world, 8, (me, r));
                assert_eq!(all.len(), nprocs);
                assert!(all.iter().enumerate().all(|(i, &(w, rr))| w == i as u64 && rr == r));
                let root = (r % n) as usize;
                let got = rank.bcast(&world, root, 8, (rank.world_rank() == root).then_some(r));
                assert_eq!(got, r);
                // The same subset on the split cell: ids and tags must not
                // cross-talk with the world's collectives.
                let ssum = rank.allreduce(&sub, 8, my_sub, |a, b| *a += b);
                assert_eq!(ssum, subsize * (subsize - 1) / 2);
            }
        });
    });
}

// ---------------------------------------------------------------------
// Randomized interleavings (vendored proptest)
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Random pipelines against a bare mailbox: random producer counts,
    /// message counts, tag spreads and a randomized consumption plan
    /// mixing blocking wildcard takes, blocking directed takes, polls and
    /// probes. Conservation and per-(source, tag) FIFO must hold on every
    /// interleaving the OS scheduler happens to produce.
    #[test]
    fn randomized_interleavings_conserve_and_order(
        producers in 1usize..5,
        per in 1u64..400,
        ntags in 1u32..4,
        plan_seed in any::<u64>(),
    ) {
        let mb = Arc::new(Mailbox::new());
        std::thread::scope(|s| {
            for p in 0..producers {
                let mb = Arc::clone(&mb);
                s.spawn(move || {
                    for i in 0..per {
                        mb.push(env_msg(p, Tag::user(1 + (i % ntags as u64) as u32), i));
                        if i % 17 == 0 {
                            std::thread::yield_now();
                        }
                    }
                });
            }
            // Remaining counts per (src, tag) and per tag — blocking takes
            // are only issued where a message is still owed, so the plan
            // can never deadlock.
            let mut per_src_tag = vec![vec![0u64; ntags as usize]; producers];
            for counts in per_src_tag.iter_mut() {
                for (t, c) in counts.iter_mut().enumerate() {
                    *c = (per + (ntags as u64 - 1) - t as u64) / ntags as u64;
                }
            }
            let mut per_tag: Vec<u64> = (0..ntags as usize)
                .map(|t| per_src_tag.iter().map(|c| c[t]).sum())
                .collect();
            let mut last = vec![vec![None::<u64>; ntags as usize]; producers];
            let mut state = plan_seed;
            let step = |s: &mut u64| {
                *s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                *s >> 33
            };
            while per_tag.iter().any(|&c| c > 0) {
                let r = step(&mut state);
                let tag_idx = (r % ntags as u64) as usize;
                let tag = Tag::user(1 + tag_idx as u32);
                match r % 5 {
                    // Blocking wildcard take on a tag still owed messages.
                    0 | 1 if per_tag[tag_idx] > 0 => {
                        let (src, seq) = seq_of(mb.take(Src::Any, tag));
                        prop_assert!(last[src][tag_idx].is_none_or(|l| seq > l));
                        last[src][tag_idx] = Some(seq);
                        per_src_tag[src][tag_idx] -= 1;
                        per_tag[tag_idx] -= 1;
                    }
                    // Blocking directed take where that source still owes.
                    2 => {
                        let p = (r / 7) as usize % producers;
                        if per_src_tag[p][tag_idx] > 0 {
                            let (src, seq) = seq_of(mb.take(Src::Rank(p), tag));
                            prop_assert_eq!(src, p);
                            prop_assert!(last[p][tag_idx].is_none_or(|l| seq > l));
                            last[p][tag_idx] = Some(seq);
                            per_src_tag[p][tag_idx] -= 1;
                            per_tag[tag_idx] -= 1;
                        }
                    }
                    // Poll: consume only if something is ready.
                    3 => {
                        if let Some(env) = mb.try_take(Src::Any, tag) {
                            let (src, seq) = seq_of(env);
                            prop_assert!(last[src][tag_idx].is_none_or(|l| seq > l));
                            last[src][tag_idx] = Some(seq);
                            per_src_tag[src][tag_idx] -= 1;
                            per_tag[tag_idx] -= 1;
                        }
                    }
                    // Probe: must never consume.
                    _ => {
                        if let Some(info) = mb.probe(Src::Any, tag) {
                            prop_assert_eq!(info.tag, tag);
                            prop_assert!(per_tag[tag_idx] > 0, "probe saw a message nobody owes");
                        }
                    }
                }
            }
            prop_assert!(per_src_tag.iter().all(|c| c.iter().all(|&x| x == 0)));
        });
        // Fully drained: nothing left on any tag.
        for t in 0..ntags {
            prop_assert!(mb.try_take(Src::Any, Tag::user(1 + t)).is_none());
        }
    }
}
