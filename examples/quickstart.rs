//! Quickstart — the paper's Listing 1, in Rust.
//!
//! An application alternates `Calculation()` with an analysis of the
//! workload distribution across processes (min / max / median), a common
//! load-balancing step. Conventionally every process would stop and take
//! part in three reductions; decoupled, the computation group streams
//! workload updates to a small analysis group that processes them
//! on-the-fly, first-come-first-served. The program itself is
//! `apps::portable::quickstart`, the same one every backend runs.
//!
//! Run with: `cargo run --release --example quickstart`

use apps::analysis::min_max_median;
use apps::portable::quickstart;
use mpisim::{MachineConfig, World};

fn main() {
    const RANKS: usize = 32;
    const STEPS: usize = 50;
    const EVERY: usize = 16; // one analysis rank per 16 (α = 6.25 %)

    let world = World::new(MachineConfig::default()).with_seed(42);
    // Each rank's report comes back from the world, in rank order.
    let (outcome, reports) = world.run_expect(RANKS, |rank| quickstart(rank, STEPS, EVERY));
    for (rank, mut report) in reports.into_iter().enumerate() {
        if !report.received.is_empty() {
            let d = min_max_median(&mut report.received);
            println!(
                "analysis rank {rank:>2}: {:>5} updates  min={:<5} median={:<5} max={:<5}",
                d.samples, d.min, d.median, d.max
            );
        }
    }

    println!(
        "\nsimulated makespan: {:.6} s  ({} messages, {} bytes total)",
        outcome.elapsed_secs(),
        outcome.msgs_sent,
        outcome.bytes_sent
    );
}
