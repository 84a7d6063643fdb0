//! The bench scenarios ([`bench_harness::scenarios`]) on the two backends
//! that run them in-process.
//!
//! On the simulator a noise-free world is deterministic for a fixed seed,
//! so each scenario's message count and virtual end time are pinned
//! exactly, to the nanosecond: a drift is a change to the timing model,
//! the stream protocol or the scenario, never noise. On `NativeWorld` each
//! scenario runs once and is checked by its own asserts: drained sums,
//! stream conservation, exactly one tree root.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bench_harness::scenarios as sc;
use mpisim::{MachineConfig, NoiseModel, World};
use native::{NativeRank, NativeWorld};

const SEED: u64 = 0xE26_1BE7;
// Incast messages and tree partials (`WIDTH` u64s) are 64 KiB.
const BYTES: u64 = 64 << 10;
const WIDTH: usize = 8 << 10;

/// Run `body` on a noise-free simulated world of `nprocs` ranks: messages
/// sent, virtual end time in ns, and the sum of what the ranks returned.
fn sim(
    seed: u64,
    nprocs: usize,
    body: impl Fn(&mut mpisim::Rank) -> u64 + Send + Sync + 'static,
) -> (u64, u64, u64) {
    let total = Arc::new(AtomicU64::new(0));
    let t = total.clone();
    let out = World::new(MachineConfig { noise: NoiseModel::none(), ..MachineConfig::default() })
        .with_seed(seed)
        .run_expect(nprocs, move |rank| {
            t.fetch_add(body(rank), Ordering::Relaxed);
        });
    (out.msgs_sent, out.sim.end_time.as_nanos(), total.load(Ordering::Relaxed))
}

/// Run `body` once on `nprocs` native threads: the sum of what the ranks
/// returned.
fn native(nprocs: usize, body: impl Fn(&mut NativeRank) -> u64 + Send + Sync) -> u64 {
    let total = AtomicU64::new(0);
    NativeWorld::new(nprocs).run(|rank| {
        total.fetch_add(body(rank), Ordering::Relaxed);
    });
    total.into_inner()
}

#[test]
fn incast() {
    let got = sim(SEED, 513, |rank| {
        sc::incast_rank(rank, 512, 2, BYTES);
        0
    });
    assert_eq!(got, (1_024, 6_444_203, 0));
    native(65, |rank| {
        sc::incast_rank(rank, 64, 200, BYTES);
        0
    });
}

#[test]
fn pingpong() {
    let got = sim(SEED, 2, |rank| {
        sc::pingpong_rank(rank, 2_000);
        0
    });
    assert_eq!(got, (4_000, 4_800_000, 0));
    native(2, |rank| {
        sc::pingpong_rank(rank, 10_000);
        0
    });
}

#[test]
fn fanin() {
    let got = sim(SEED, 129, |rank| {
        sc::fanin_rank(rank, 128, 4, 8, 4 << 10);
        0
    });
    assert_eq!(got, (512, 205_874, 0));
    native(17, |rank| {
        sc::fanin_rank(rank, 16, 100, 8, 4 << 10);
        0
    });
}

#[test]
fn stream() {
    let got: Vec<_> =
        (0..2).map(|s| sim(SEED ^ s, 6, |rank| sc::stream_rank(rank, 4, 500, 1))).collect();
    assert_eq!(got, [(2_023, 408_102, 2_000), (2_023, 408_102, 2_000)]);
    assert_eq!(native(6, |rank| sc::stream_rank(rank, 4, 5_000, 8)), 20_000);
}

#[test]
fn agg_incast() {
    assert_eq!(sim(SEED, 512, |rank| sc::agg_incast_rank(rank, 8, WIDTH)), (2_555, 133_693, 1));
    assert_eq!(native(64, |rank| sc::agg_incast_rank(rank, 8, WIDTH)), 1);
}

#[test]
fn coll_on_native() {
    native(16, |rank| {
        sc::coll_rank(rank, 50);
        0
    });
}
