//! Deterministic FIFO service resources.
//!
//! A [`FifoServer`] models a device that serves requests at a fixed rate —
//! a NIC, an I/O server, a metadata server. Requests are served in arrival
//! order; because the completion time of a request is fully determined at
//! request time (no preemption, no priorities), the server can compute it
//! immediately and the requester simply advances (or records) to it. This
//! keeps the model *open-loop fast*: no extra scheduler events per request.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
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

    /// Earliest time any lane is free (diagnostic).
    pub fn earliest_free(&self) -> SimTime {
        SimTime(self.inner.lock().free_at.peek().map(|Reverse(t)| *t).unwrap_or(0))
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
/// that arrives later in virtual time. With in-call-order arrivals the gap
/// list is never hit on the fast path and results match the plain tally.
/// The gap list is bounded (`LinkClock::GAP_CAP`); the oldest gaps are
/// forgotten (treated as busy), which only ever delays a booking, keeps
/// memory constant, and stays deterministic.
#[derive(Debug, Default, Clone)]
pub struct LinkClock {
    free_at: u64,
    /// Idle intervals `(start, end)` strictly before `free_at`, ascending
    /// and disjoint by construction (new gaps open at the old `free_at`).
    gaps: Vec<(u64, u64)>,
}

impl LinkClock {
    /// Most idle gaps remembered; beyond this the oldest is forgotten.
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
        // Earliest remembered gap that can hold the request.
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
        // Tail: after everything booked so far.
        if n > self.free_at {
            if self.gaps.len() == Self::GAP_CAP {
                self.gaps.remove(0);
            }
            self.gaps.push((self.free_at, n));
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{SimConfig, Simulation};
    use std::sync::atomic::{AtomicU64, Ordering};

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
