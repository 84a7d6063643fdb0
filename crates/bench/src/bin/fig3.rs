//! Figure 3: conventional vs non-blocking vs decoupled execution — the
//! conceptual schedule comparison, regenerated quantitatively from the
//! performance model (Eqs. 1–4) across an imbalance sweep, and
//! cross-checked with a micro-simulation.
//!
//! `cargo run --release -p bench-harness --bin fig3`.

use bench_harness::Table;
use mpisim::{MachineConfig, NoiseModel, World};
use mpistream::{run_decoupled, ChannelConfig, GroupSpec};
use perfmodel::{figure3, Beta, Complexity, Scenario};

fn scenario(t_sigma: f64) -> Scenario {
    Scenario {
        t_w0: 10e-3,
        t_w1: 4e-3,
        complexity: Complexity::Divisible,
        t_sigma,
        data_d: 4 << 20,
        overhead_o: 1e-6,
        p: 16,
        beta: Beta::new(0.05, (1u64 << 20) as f64),
        op1_optimization: 8.0,
    }
}

/// Micro-simulation of the same two-operation app (see the
/// model-vs-simulation integration tests for the full validation).
fn micro_sim(t_sigma: f64) -> (f64, f64) {
    let machine = MachineConfig { noise: NoiseModel::none(), ..MachineConfig::default() };
    let elements = 100usize;
    let op0 = 10e-3 / elements as f64;
    let op1 = 4e-3 / elements as f64;

    let world = World::new(machine.clone()).with_seed(5);
    let conv = world
        .run_expect(16, move |rank| {
            let comm = rank.comm_world();
            let straggle = if rank.world_rank() == 0 { t_sigma / 10e-3 } else { 0.0 };
            for _ in 0..elements {
                rank.compute_exact(op0 * (1.0 + straggle));
            }
            rank.barrier(&comm);
            for _ in 0..elements {
                rank.compute_exact(op1);
            }
            rank.barrier(&comm);
        })
        .elapsed_secs();

    let world = World::new(machine).with_seed(5);
    let dec = world
        .run_expect(16, move |rank| {
            let comm = rank.comm_world();
            run_decoupled::<u64, _, _, _>(
                rank,
                &comm,
                GroupSpec { every: 8 },
                ChannelConfig { element_bytes: 4 << 10, ..ChannelConfig::default() },
                move |rank, pc| {
                    let straggle = if rank.world_rank() == 0 { t_sigma / 10e-3 } else { 0.0 };
                    for i in 0..elements {
                        rank.compute_exact(op0 * (1.0 + straggle));
                        pc.stream.isend(rank, i as u64);
                    }
                },
                move |rank, cc| {
                    // Total Op1 work (16 ranks x 100 x op1) splits over 2
                    // consumers (700 elements each) and runs 8x faster on
                    // the dedicated group (the model's op1_optimization).
                    let per_elem = 16.0 * 100.0 * op1 / 2.0 / 700.0 / 8.0;
                    cc.stream.operate(rank, move |rank, _| rank.compute_exact(per_elem));
                },
            );
        })
        .elapsed_secs();
    (conv, dec)
}

fn main() -> std::io::Result<()> {
    let mut table = Table::new(
        "Fig. 3 — schedule comparison vs imbalance (model, ms; sim in ())",
        "sigma_pct",
        &["conventional", "nonblocking", "decoupled", "sim_conv", "sim_dec"],
    );
    for pct in [0usize, 10, 25, 50, 100] {
        let t_sigma = 10e-3 * pct as f64 / 100.0;
        let f = figure3(&scenario(t_sigma), 1.0 / 8.0, 16e3);
        let (sim_c, sim_d) = micro_sim(t_sigma);
        println!(
            "Tσ = {pct:>3}% of Op0: conventional {:.2}ms  nonblocking {:.2}ms  \
             decoupled {:.2}ms   | sim: conv {:.2}ms dec {:.2}ms",
            f.conventional * 1e3,
            f.nonblocking * 1e3,
            f.decoupled * 1e3,
            sim_c * 1e3,
            sim_d * 1e3
        );
        table.push(
            pct,
            vec![
                f.conventional * 1e3,
                f.nonblocking * 1e3,
                f.decoupled * 1e3,
                sim_c * 1e3,
                sim_d * 1e3,
            ],
        );
    }
    table.finish("fig3_schedules")
}
