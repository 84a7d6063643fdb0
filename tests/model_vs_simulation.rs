//! Cross-validation of the analytic performance model (perfmodel,
//! Eqs. 1–4) against the simulator: the model's qualitative predictions
//! must hold in simulated runs of a matching synthetic application.

use mpisim::{MachineConfig, NoiseModel, World};
use mpistream::{run_decoupled, ChannelConfig, GroupSpec};
use perfmodel::{Beta, Complexity, Scenario};

/// Synthetic two-operation app matching the model's structure. The total
/// workload (`total_elements` of Op0, each feeding one Op1 element) is
/// fixed; the producer group splits Op0 evenly (so the model's `1/(1−α)`
/// inflation appears), and the consumer group executes Op1 at
/// `op1_cost / op1_optimization` per element (the paper's
/// application-specific optimization of the decoupled operation).
fn simulate_decoupled(
    p: usize,
    every: usize,
    total_elements: usize,
    op0_cost: f64,
    op1_cost: f64,
    op1_optimization: f64,
    agg: usize,
) -> f64 {
    let machine = MachineConfig { noise: NoiseModel::none(), ..MachineConfig::default() };
    let world = World::new(machine).with_seed(7);
    let (out, _) = world.run_expect(p, move |rank| {
        let comm = rank.comm_world();
        let n_cons = GroupSpec { every }.members(p).1.len();
        let n_prod = p - n_cons;
        let mine = total_elements.div_ceil(n_prod);
        run_decoupled::<u64, _, _, _>(
            rank,
            &comm,
            GroupSpec { every },
            ChannelConfig { element_bytes: 4 << 10, aggregation: agg, ..ChannelConfig::default() },
            move |rank, pc| {
                for i in 0..mine {
                    rank.compute_exact(op0_cost);
                    pc.stream.isend(rank, i as u64);
                }
            },
            move |rank, cc| {
                let cost = op1_cost / op1_optimization;
                cc.stream.operate(rank, move |rank, _| rank.compute_exact(cost));
            },
        );
    });
    out.elapsed_secs()
}

/// Conventional version: every rank runs its share of Op0, synchronizes,
/// then runs its share of Op1 (unoptimized), and synchronizes again.
fn simulate_conventional(p: usize, total_elements: usize, op0_cost: f64, op1_cost: f64) -> f64 {
    let machine = MachineConfig { noise: NoiseModel::none(), ..MachineConfig::default() };
    let world = World::new(machine).with_seed(7);
    let mine = total_elements.div_ceil(p);
    let (out, _) = world.run_expect(p, move |rank| {
        let comm = rank.comm_world();
        for _ in 0..mine {
            rank.compute_exact(op0_cost);
        }
        rank.barrier(&comm);
        for _ in 0..mine {
            rank.compute_exact(op1_cost);
        }
        rank.barrier(&comm);
    });
    out.elapsed_secs()
}

/// The model scenario matching the synthetic app above.
fn scenario(p: usize, total_elements: usize, op0: f64, op1: f64, opt: f64) -> Scenario {
    Scenario {
        t_w0: total_elements as f64 / p as f64 * op0,
        t_w1: total_elements as f64 / p as f64 * op1,
        complexity: Complexity::Divisible,
        t_sigma: 0.0,
        data_d: (total_elements * (4 << 10)) as u64,
        overhead_o: 1e-6,
        p,
        beta: Beta::new(0.05, 1e6),
        op1_optimization: opt,
    }
}

#[test]
fn decoupling_beats_conventional_when_the_model_says_so() {
    // MapReduce-flavoured: Op1 is substantial but runs 15x faster on the
    // dedicated group (batch processing).
    let (p, total, op0, op1, opt) = (32, 3_200, 20e-6, 30e-6, 15.0);
    let scn = scenario(p, total, op0, op1, opt);
    assert!(
        scn.decoupled(1.0 / 8.0, 4096.0) < scn.conventional(),
        "scenario chosen so the model predicts a win"
    );
    let t_conv = simulate_conventional(p, total, op0, op1);
    let t_dec = simulate_decoupled(p, 8, total, op0, op1, opt, 1);
    assert!(t_dec < t_conv, "simulation must agree with the model: dec {t_dec} vs conv {t_conv}");
}

#[test]
fn model_and_simulation_prefer_the_same_group_fraction() {
    // With a light (optimized) Op1, both should prefer a small decoupled
    // group over dedicating half the machine.
    let (p, total, op0, op1, opt) = (32, 6_400, 20e-6, 10e-6, 10.0);
    let scn = scenario(p, total, op0, op1, opt);
    let model_small = scn.predict(0.125, 4096.0);
    let model_half = scn.predict(0.5, 4096.0);
    let sim_small = simulate_decoupled(p, 8, total, op0, op1, opt, 1);
    let sim_half = simulate_decoupled(p, 2, total, op0, op1, opt, 1);
    assert_eq!(
        model_small < model_half,
        sim_small < sim_half,
        "model ({model_small:.4} vs {model_half:.4}) and simulation \
         ({sim_small:.4} vs {sim_half:.4}) disagree on alpha"
    );
    assert!(sim_small < sim_half);
}

#[test]
fn granularity_tradeoff_appears_in_simulation() {
    // Eq. 4: very fine granularity pays per-element overhead; moderate
    // aggregation amortises it.
    let fine = simulate_decoupled(16, 8, 2_000, 2e-6, 2e-6, 10.0, 1);
    let moderate = simulate_decoupled(16, 8, 2_000, 2e-6, 2e-6, 10.0, 32);
    assert!(
        moderate < fine,
        "moderate batching ({moderate}) should beat per-element messages ({fine})"
    );
}

#[test]
fn imbalance_absorption_matches_the_model_qualitatively() {
    // One straggler doubles its Op0 time. Conventionally everyone waits
    // for it at the stage barrier and then pays Op1 serially after; the
    // decoupled consumer overlaps Op1 with the straggler's tail.
    let machine = MachineConfig { noise: NoiseModel::none(), ..MachineConfig::default() };
    let elements = 100usize;
    let (fast, slow_f, op1) = (50e-6, 2.0, 40e-6);

    let world = World::new(machine.clone()).with_seed(3);
    let t_conv = world
        .run_expect(16, move |rank| {
            let comm = rank.comm_world();
            let cost = if rank.world_rank() == 0 { fast * slow_f } else { fast };
            for _ in 0..elements {
                rank.compute_exact(cost);
            }
            rank.barrier(&comm);
            for _ in 0..elements {
                rank.compute_exact(op1);
            }
            rank.barrier(&comm);
        })
        .0
        .elapsed_secs();

    let world = World::new(machine).with_seed(3);
    let t_dec = world
        .run_expect(16, move |rank| {
            let comm = rank.comm_world();
            run_decoupled::<u64, _, _, _>(
                rank,
                &comm,
                GroupSpec { every: 4 }, // 12 producers, 4 consumers
                ChannelConfig { element_bytes: 4 << 10, ..ChannelConfig::default() },
                move |rank, pc| {
                    let cost = if rank.world_rank() == 0 { fast * slow_f } else { fast };
                    for i in 0..elements {
                        rank.compute_exact(cost);
                        pc.stream.isend(rank, i as u64);
                    }
                },
                move |rank, cc| {
                    cc.stream.operate(rank, move |rank, _| rank.compute_exact(op1));
                },
            );
        })
        .0
        .elapsed_secs();

    // Conventional: 10ms straggler + 4ms Op1 ≈ 14ms. Decoupled: the
    // consumers chew through Op1 (3 producers x 100 x 40us = 12ms each)
    // while producers compute; the straggler's tail overlaps too.
    assert!(t_dec < t_conv, "imbalance absorption failed: dec {t_dec} vs conv {t_conv}");
}
