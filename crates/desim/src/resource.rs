//! Deterministic FIFO service resources.
//!
//! A [`FifoServer`] models a device that serves requests at a fixed rate —
//! a NIC, an I/O server, a metadata server. Requests are served in arrival
//! order; because the completion time of a request is fully determined at
//! request time (no preemption, no priorities), the server can compute it
//! immediately and the requester simply advances (or records) to it. This
//! keeps the model *open-loop fast*: no extra scheduler events per request.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::sim::Ctx;
use crate::time::{SimDuration, SimTime};

/// A `k`-server FIFO queueing station with a per-server byte rate and a
/// fixed per-request overhead.
///
/// `k = 1` models a strictly serial device (a metadata server, a file
/// lock-like bottleneck); `k > 1` models striped devices (e.g. OSTs of a
/// parallel filesystem, served round-robin by earliest-free).
#[derive(Clone)]
pub struct FifoServer {
    inner: Arc<Mutex<ServerInner>>,
    /// Bytes per second each server lane sustains.
    rate: f64,
    /// Fixed setup cost charged per request (seek, RPC, lock grant...).
    per_request: SimDuration,
}

struct ServerInner {
    /// Earliest time each lane becomes free, as a min-heap.
    free_at: BinaryHeap<Reverse<u64>>,
    /// Total bytes ever accepted (for conservation checks).
    bytes_served: u64,
    requests: u64,
}

impl FifoServer {
    /// Create a station with `lanes` parallel servers, each serving at
    /// `bytes_per_sec`, charging `per_request` setup per request.
    pub fn new(lanes: usize, bytes_per_sec: f64, per_request: SimDuration) -> Self {
        assert!(lanes > 0, "need at least one lane");
        assert!(bytes_per_sec > 0.0, "rate must be positive");
        let mut free_at = BinaryHeap::with_capacity(lanes);
        for _ in 0..lanes {
            free_at.push(Reverse(0));
        }
        FifoServer {
            inner: Arc::new(Mutex::new(ServerInner { free_at, bytes_served: 0, requests: 0 })),
            rate: bytes_per_sec,
            per_request,
        }
    }

    /// Submit a request of `bytes` at time `now`; returns the completion
    /// time. Does **not** block the caller — callers decide whether to wait
    /// (blocking I/O) or just remember the completion (asynchronous DMA).
    pub fn submit(&self, now: SimTime, bytes: u64) -> SimTime {
        let mut inner = self.inner.lock();
        let Reverse(free) = inner.free_at.pop().expect("server has lanes");
        let start = free.max(now.as_nanos());
        let service = self.per_request + SimDuration::from_bytes_at(bytes, self.rate);
        let done = start + service.as_nanos();
        inner.free_at.push(Reverse(done));
        inner.bytes_served += bytes;
        inner.requests += 1;
        SimTime(done)
    }

    /// Submit and block the calling process until the request completes.
    ///
    /// Service order is call order, so any lazy local lead is committed
    /// first (see [`Ctx::commit_lag`]); callers using raw
    /// [`FifoServer::submit`] under a lazy config must do the same.
    pub fn serve(&self, ctx: &mut Ctx, bytes: u64) -> SimTime {
        ctx.commit_lag();
        let done = self.submit(ctx.now(), bytes);
        let wait = done.since(ctx.now());
        ctx.advance(wait);
        done
    }

    /// Total bytes accepted so far.
    pub fn bytes_served(&self) -> u64 {
        self.inner.lock().bytes_served
    }

    /// Total requests accepted so far.
    pub fn requests(&self) -> u64 {
        self.inner.lock().requests
    }
}

/// A running tally of availability for a *single* serial device, cheaper
/// than [`FifoServer`] when `k = 1` and contention bookkeeping is done by
/// the caller. Used for per-rank NIC tx/rx serialization.
///
/// Unlike a plain high-water mark, the clock remembers recent *idle gaps*
/// so that a request arriving out of call order — a decoupled local clock
/// (see `SimConfig::lazy_time`) lets a process book future occupancy before
/// a peer books an earlier slot — is served in the gap where a causally
/// ordered execution would have served it, instead of queueing behind work
/// that arrives later in virtual time. A booking costs a binary search
/// over the gap list, not a walk: gaps that end before the request could
/// are skipped by the search, and with in-call-order arrivals that is all
/// of them, so results match the plain tally. Old gaps may be forgotten
/// (treated as busy, see `LinkClock::GAP_CAP`), which only ever delays a
/// booking and stays deterministic.
#[derive(Debug, Default, Clone)]
pub struct LinkClock {
    free_at: u64,
    /// Idle intervals `(start, end)` strictly before `free_at`, ascending
    /// and disjoint by construction (new gaps open at the old `free_at`).
    /// A deque: the oldest gap leaves at the front, new ones join at the
    /// back.
    gaps: VecDeque<(u64, u64)>,
    /// Gaps examined so far, by the search and by the scan after it.
    #[cfg(test)]
    probes: std::cell::Cell<u64>,
}

impl LinkClock {
    /// A booking at the tail that finds exactly this many gaps forgets the
    /// oldest before it adds its own. Not a bound: a booking that splits a
    /// gap in two at this length takes the list past it, and from then on
    /// nothing is forgotten (Fig. 5's busiest link remembers 5.8 K gaps at
    /// 32 ranks, 1.9 M at 1,024). Kept that way because forgetting changes
    /// which bookings are delayed, i.e. simulated results; what makes the
    /// long list affordable is that no booking walks it.
    ///
    /// Sized generously: under a lazy clock one process can book its
    /// *entire* flow before a peer executes at all, so the calendar must
    /// cover a whole flow's worth of idle slivers or the peer's early
    /// traffic queues behind the far future (and per-sender non-overtaking
    /// then drags the rest of its flow along). 1024 gaps is 16 KiB per
    /// link, and the list only grows while the link is idle at booking
    /// time — saturated links never lengthen it.
    const GAP_CAP: usize = 1024;

    pub fn new() -> Self {
        Self::default()
    }

    /// Occupy the link for `service` starting no earlier than `now`;
    /// returns the completion time.
    pub fn occupy(&mut self, now: SimTime, service: SimDuration) -> SimTime {
        let n = now.as_nanos();
        let s = service.as_nanos();
        // Earliest remembered gap that can hold the request. A gap that
        // ends before `n + s` cannot, and ends ascend: search past those.
        // What the scan still visits ends late enough but opens after `n`
        // and is shorter than `s`.
        let first = self.gaps.partition_point(|&(_, ge)| {
            self.probe();
            ge < n + s
        });
        for i in first..self.gaps.len() {
            self.probe();
            let (gs, ge) = self.gaps[i];
            let start = gs.max(n);
            if start + s <= ge {
                match (start > gs, start + s < ge) {
                    (false, false) => {
                        self.gaps.remove(i);
                    }
                    (false, true) => self.gaps[i] = (start + s, ge),
                    (true, false) => self.gaps[i] = (gs, start),
                    (true, true) => {
                        self.gaps[i] = (gs, start);
                        self.gaps.insert(i + 1, (start + s, ge));
                    }
                }
                return SimTime(start + s);
            }
        }
        // Tail: after everything booked so far.
        if n > self.free_at {
            if self.gaps.len() == Self::GAP_CAP {
                self.gaps.pop_front();
            }
            self.gaps.push_back((self.free_at, n));
        }
        let start = self.free_at.max(n);
        self.free_at = start + s;
        SimTime(self.free_at)
    }

    /// When the link next becomes free (ignoring remembered gaps).
    #[inline]
    pub fn free_at(&self) -> SimTime {
        SimTime(self.free_at)
    }

    #[inline]
    fn probe(&self) {
        #[cfg(test)]
        self.probes.set(self.probes.get() + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{SimConfig, Simulation};
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// The calendar as it was before ISSUE 24 — every gap walked on every
    /// booking, the oldest gap forgotten with `Vec::remove(0)` — kept as
    /// the reference model [`LinkClock`] must agree with call by call.
    #[derive(Default)]
    struct LinearClock {
        free_at: u64,
        gaps: Vec<(u64, u64)>,
    }

    impl LinearClock {
        fn occupy(&mut self, now: SimTime, service: SimDuration) -> SimTime {
            let n = now.as_nanos();
            let s = service.as_nanos();
            for i in 0..self.gaps.len() {
                let (gs, ge) = self.gaps[i];
                let start = gs.max(n);
                if start + s <= ge {
                    match (start > gs, start + s < ge) {
                        (false, false) => {
                            self.gaps.remove(i);
                        }
                        (false, true) => self.gaps[i] = (start + s, ge),
                        (true, false) => self.gaps[i] = (gs, start),
                        (true, true) => {
                            self.gaps[i] = (gs, start);
                            self.gaps.insert(i + 1, (start + s, ge));
                        }
                    }
                    return SimTime(start + s);
                }
            }
            if n > self.free_at {
                if self.gaps.len() == LinkClock::GAP_CAP {
                    self.gaps.remove(0);
                }
                self.gaps.push((self.free_at, n));
            }
            let start = self.free_at.max(n);
            self.free_at = start + s;
            SimTime(self.free_at)
        }
    }

    /// One booking, phrased relative to the calendar it meets so that the
    /// interesting cases are hit on purpose rather than by luck.
    #[derive(Clone, Debug)]
    enum Booking {
        /// In call order: `idle` after everything booked (0 = back to back,
        /// > 0 opens a gap and, at `GAP_CAP`, evicts the oldest).
        Tail { idle: u64, service: u64 },
        /// Into remembered gap `pick`: `lead` ns into it (`early` ns
        /// *before* it when `lead` is 0), leaving `slack` ns at its end —
        /// 0/0 is the exact fit, lead only the tail, slack only the head,
        /// both a middle split; an oversize `lead + slack` does not fit
        /// and falls through to later gaps or the tail.
        Gap { pick: prop::sample::Index, early: u64, lead: u64, slack: u64 },
        /// Anywhere in the booked past, any size.
        Anywhere { at: u64, service: u64 },
    }

    fn booking() -> impl Strategy<Value = Booking> {
        // `x.min(1)` over `0..3` is a factor that is 0 one time in three:
        // that is how the zero cases (back to back, no lead, no slack) are
        // made common.
        prop_oneof![
            3 => (0u64..3, 1u64..4_000, 0u64..3_000)
                .prop_map(|(z, idle, service)| Booking::Tail { idle: idle * z.min(1), service }),
            4 => (any::<prop::sample::Index>(), 0u64..2_000, 0u64..3, 0u64..3, 1u64..1_500)
                .prop_map(|(pick, early, l, k, ns)| Booking::Gap {
                    pick,
                    early,
                    lead: ns * l.min(1),
                    slack: (ns / 2 + 1) * k.min(1),
                }),
            2 => (0u64..1_000_000, 0u64..6_000).prop_map(|(at, service)| Booking::Anywhere {
                at: at * 1_000,
                service,
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        /// The searched calendar returns what the walked one returned, for
        /// every call of every sequence, and ends in the same state — with
        /// few gaps and with more than `GAP_CAP` of them.
        #[test]
        fn link_clock_matches_its_linear_reference(
            prefill in prop_oneof![0usize..6, (LinkClock::GAP_CAP - 4)..(LinkClock::GAP_CAP + 40)],
            bookings in prop::collection::vec(booking(), 1..160),
        ) {
            let (mut link, mut model) = (LinkClock::new(), LinearClock::default());
            let opening = (0..prefill)
                .map(|i| Booking::Tail { idle: 500 + (i as u64 % 7) * 300, service: 700 });
            for b in opening.chain(bookings) {
                let (now, service) = match b {
                    Booking::Tail { idle, service } => (model.free_at + idle, service),
                    Booking::Gap { .. } if model.gaps.is_empty() => (model.free_at, 1),
                    Booking::Gap { pick, early, lead, slack } => {
                        let (gs, ge) = model.gaps[pick.index(model.gaps.len())];
                        let at = if lead == 0 { gs.saturating_sub(early) } else { gs + lead };
                        (at, (ge - gs).saturating_sub(lead + slack))
                    }
                    Booking::Anywhere { at, service } => (at % (model.free_at + 1), service),
                };
                let (now, service) = (SimTime(now), SimDuration::from_nanos(service));
                prop_assert_eq!(link.occupy(now, service), model.occupy(now, service));
            }
            prop_assert_eq!(link.free_at().as_nanos(), model.free_at);
            prop_assert_eq!(Vec::from(link.gaps), model.gaps);
        }
    }

    #[test]
    fn full_calendar_costs_a_search_not_a_walk() {
        // A calendar at GAP_CAP, then 1,000 more in-order bookings that
        // each open a gap (so each also forgets the oldest one).
        let mut link = LinkClock::new();
        let mut t = 0u64;
        let mut book = |link: &mut LinkClock| {
            t += 2_000;
            link.occupy(SimTime(t), SimDuration::from_micros(1));
            t += 1_000;
        };
        for _ in 0..LinkClock::GAP_CAP {
            book(&mut link);
        }
        assert_eq!(link.gaps.len(), LinkClock::GAP_CAP);
        for _ in 0..1_000 {
            let (oldest, newest) = (link.gaps[0], link.gaps.back().unwrap() as *const (u64, u64));
            let before = link.probes.get();
            book(&mut link);
            // log2(1,024) + 2. The walk this replaced examined all 1,024
            // gaps on each of these calls: this assertion fails there.
            let probes = link.probes.get() - before;
            assert!(probes <= 12, "{probes} gap probes for one in-order booking");
            // The oldest gap went, and nothing moved to fill its place:
            // yesterday's newest gap is still where it was.
            assert_eq!(link.gaps.len(), LinkClock::GAP_CAP);
            assert!(link.gaps[0].0 > oldest.0);
            assert_eq!(&link.gaps[LinkClock::GAP_CAP - 2] as *const (u64, u64), newest);
        }
    }

    #[test]
    fn single_lane_serializes_requests() {
        let srv = FifoServer::new(1, 1e9, SimDuration::ZERO); // 1 GB/s
        let t1 = srv.submit(SimTime(0), 1_000_000); // 1 MB -> 1 ms
        let t2 = srv.submit(SimTime(0), 1_000_000);
        assert_eq!(t1, SimTime(1_000_000));
        assert_eq!(t2, SimTime(2_000_000));
        assert_eq!(srv.bytes_served(), 2_000_000);
    }

    #[test]
    fn two_lanes_serve_in_parallel() {
        let srv = FifoServer::new(2, 1e9, SimDuration::ZERO);
        let t1 = srv.submit(SimTime(0), 1_000_000);
        let t2 = srv.submit(SimTime(0), 1_000_000);
        let t3 = srv.submit(SimTime(0), 1_000_000);
        assert_eq!(t1, SimTime(1_000_000));
        assert_eq!(t2, SimTime(1_000_000));
        assert_eq!(t3, SimTime(2_000_000)); // queues behind the earliest lane
    }

    #[test]
    fn per_request_overhead_is_charged() {
        let srv = FifoServer::new(1, 1e9, SimDuration::from_micros(50));
        let t = srv.submit(SimTime(0), 0);
        assert_eq!(t, SimTime(50_000));
    }

    #[test]
    fn idle_server_starts_at_request_time() {
        let srv = FifoServer::new(1, 1e9, SimDuration::ZERO);
        let t = srv.submit(SimTime(5_000_000), 1_000);
        assert_eq!(t, SimTime(5_001_000));
    }

    #[test]
    fn serve_blocks_the_calling_process() {
        let mut sim = Simulation::new(SimConfig::default());
        let srv = FifoServer::new(1, 1e9, SimDuration::ZERO);
        let finish = Arc::new(AtomicU64::new(0));
        for i in 0..2 {
            let srv = srv.clone();
            let finish = finish.clone();
            sim.spawn(format!("c{i}"), move |ctx| {
                srv.serve(ctx, 1_000_000);
                finish.fetch_max(ctx.now().as_nanos(), Ordering::SeqCst);
            });
        }
        sim.run_expect();
        // Two 1 MB requests on a serial 1 GB/s device: last finishes at 2 ms.
        assert_eq!(finish.load(Ordering::SeqCst), 2_000_000);
    }

    #[test]
    fn link_clock_accumulates_busy_time() {
        let mut link = LinkClock::new();
        let t1 = link.occupy(SimTime(0), SimDuration::from_micros(10));
        let t2 = link.occupy(SimTime(0), SimDuration::from_micros(10));
        let t3 = link.occupy(SimTime(100_000), SimDuration::from_micros(10));
        assert_eq!(t1, SimTime(10_000));
        assert_eq!(t2, SimTime(20_000));
        assert_eq!(t3, SimTime(110_000)); // link idle 20us..100us
    }

    #[test]
    fn link_clock_books_late_arrivals_into_idle_gaps() {
        let mut link = LinkClock::new();
        // A future booking leaves the link idle before it.
        let t1 = link.occupy(SimTime(100_000), SimDuration::from_micros(10));
        assert_eq!(t1, SimTime(110_000));
        // An earlier arrival (a lazily-clocked peer ran behind in execution
        // order) is served in the idle gap, not queued behind the future.
        let t2 = link.occupy(SimTime(5_000), SimDuration::from_micros(10));
        assert_eq!(t2, SimTime(15_000));
        // A request too large for the remaining gap queues at the tail.
        let t3 = link.occupy(SimTime(20_000), SimDuration::from_micros(90));
        assert_eq!(t3, SimTime(200_000));
        // The split leftovers are themselves reusable.
        let t4 = link.occupy(SimTime(16_000), SimDuration::from_micros(4));
        assert_eq!(t4, SimTime(20_000));
    }

    #[test]
    fn link_clock_forgets_oldest_gaps_beyond_cap() {
        let mut link = LinkClock::new();
        // Create GAP_CAP + 8 disjoint gaps of 1us each.
        let mut t = 0u64;
        for _ in 0..(LinkClock::GAP_CAP + 8) {
            t += 2_000;
            link.occupy(SimTime(t), SimDuration::from_micros(1));
            t += 1_000;
        }
        // The earliest surviving gap starts at 8 * 3000 (the first eight
        // were forgotten); a very early arrival lands there rather than at
        // the forgotten front.
        let t_early = link.occupy(SimTime(0), SimDuration::from_micros(1));
        assert_eq!(t_early, SimTime(8 * 3_000 + 1_000));
    }
}
