//! Property-based tests of engine invariants.

use std::sync::Arc;

use desim::{FifoServer, SimConfig, SimDuration, SimTime, Simulation};
use parking_lot::Mutex;
use proptest::prelude::*;

mod common;
use common::Queue;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Virtual time observed by any single process is monotonically
    /// non-decreasing across arbitrary advance patterns.
    #[test]
    fn per_process_clock_is_monotone(steps in prop::collection::vec(
        prop::collection::vec(0u64..50_000, 1..20), 1..8)
    ) {
        let mut sim = Simulation::new(SimConfig::default());
        let violations = Arc::new(Mutex::new(0usize));
        for (i, proc_steps) in steps.into_iter().enumerate() {
            let violations = violations.clone();
            sim.spawn(format!("p{i}"), move |ctx| {
                let mut last = ctx.now();
                for ns in proc_steps {
                    ctx.advance(SimDuration::from_nanos(ns));
                    if ctx.now() < last {
                        *violations.lock() += 1;
                    }
                    last = ctx.now();
                }
            });
        }
        sim.run_expect();
        prop_assert_eq!(*violations.lock(), 0);
    }

    /// End time equals the max total advance over processes when they do
    /// not interact.
    #[test]
    fn end_time_is_max_of_independent_processes(durs in prop::collection::vec(0u64..1_000_000, 1..20)) {
        let mut sim = Simulation::new(SimConfig::default());
        for (i, d) in durs.iter().enumerate() {
            let d = *d;
            sim.spawn(format!("p{i}"), move |ctx| {
                ctx.advance(SimDuration::from_nanos(d));
            });
        }
        let out = sim.run_expect();
        prop_assert_eq!(out.end_time.as_nanos(), durs.into_iter().max().unwrap());
    }

    /// Channels conserve messages: everything sent is received exactly once
    /// and in send order per producer (single consumer).
    #[test]
    fn channel_conserves_messages(
        payloads in prop::collection::vec(prop::collection::vec(any::<u32>(), 0..30), 1..6)
    ) {
        let mut sim = Simulation::new(SimConfig::default());
        let ch: Queue<(usize, u32)> = Queue::new();
        let n_producers = payloads.len();
        let expected: Vec<Vec<u32>> = payloads.clone();
        let total: usize = payloads.iter().map(Vec::len).sum();
        for (i, items) in payloads.into_iter().enumerate() {
            let ch = ch.clone();
            sim.spawn(format!("prod{i}"), move |ctx| {
                for v in items {
                    ctx.advance(SimDuration::from_nanos(1));
                    ch.send(ctx, (i, v));
                }
            });
        }
        let got = Arc::new(Mutex::new(vec![Vec::new(); n_producers]));
        {
            let ch = ch.clone();
            let got = got.clone();
            sim.spawn("consumer", move |ctx| {
                for _ in 0..total {
                    let (i, v) = ch.recv(ctx);
                    got.lock()[i].push(v);
                }
            });
        }
        sim.run_expect();
        prop_assert_eq!(&*got.lock(), &expected);
    }

    /// A FIFO server never serves more than `lanes * rate * horizon` bytes:
    /// bandwidth conservation.
    #[test]
    fn fifo_server_respects_aggregate_bandwidth(
        sizes in prop::collection::vec(1u64..5_000_000, 1..40),
        lanes in 1usize..4,
    ) {
        let rate = 1e9; // 1 GB/s per lane
        let srv = FifoServer::new(lanes, rate, SimDuration::ZERO);
        let mut t_done = SimTime::ZERO;
        for s in &sizes {
            t_done = t_done.max(srv.submit(SimTime::ZERO, *s));
        }
        let total: u64 = sizes.iter().sum();
        let horizon = t_done.as_secs_f64();
        let max_bytes = lanes as f64 * rate * horizon;
        prop_assert!(total as f64 <= max_bytes * 1.0001 + 1.0,
            "served {total} bytes in {horizon}s on {lanes} lanes");
        prop_assert_eq!(srv.bytes_served(), total);
    }

    /// Simulations are reproducible: running the same random scenario twice
    /// yields the identical end time.
    #[test]
    fn random_scenarios_are_reproducible(
        seed in any::<u64>(),
        n in 2usize..12,
        iters in 1usize..10,
    ) {
        fn run(seed: u64, n: usize, iters: usize) -> u64 {
            let mut sim = Simulation::new(SimConfig { seed, ..SimConfig::default() });
            let ch: Queue<u64> = Queue::new();
            for i in 0..n {
                let ch = ch.clone();
                sim.spawn(format!("p{i}"), move |ctx| {
                    use rand::Rng;
                    for _ in 0..iters {
                        let w: u64 = ctx.rng().gen_range(1..10_000);
                        ctx.advance(SimDuration::from_nanos(w));
                        if i % 2 == 0 {
                            ch.send(ctx, w);
                        } else {
                            let _ = ch.try_recv();
                        }
                    }
                });
            }
            sim.run_expect().end_time.as_nanos()
        }
        prop_assert_eq!(run(seed, n, iters), run(seed, n, iters));
    }
}
