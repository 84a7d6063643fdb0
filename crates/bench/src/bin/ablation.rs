//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. stream granularity S (Eq. 4's pipelining-vs-overhead trade-off),
//! 2. group fraction α (MapReduce),
//! 3. credit-based flow control (memory bound vs throughput).
//!
//! `cargo run --release -p bench-harness --bin ablation`.

use bench_harness::{configs, Table};
use mpisim::{MachineConfig, NoiseModel, World};
use mpistream::{run_decoupled, ChannelConfig, GroupSpec, RoutePolicy};
use perfmodel::{Beta, Complexity, Scenario};

const P: usize = 128;

/// Synthetic pipeline whose op sizes mirror Eq. 4's regime.
fn pipeline_time(aggregation: usize, credits: Option<usize>) -> f64 {
    let machine = MachineConfig { noise: NoiseModel::none(), ..MachineConfig::default() };
    let world = World::new(machine).with_seed(11);
    world
        .run_expect(64, move |rank| {
            let comm = rank.comm_world();
            run_decoupled::<u64, _, _, _>(
                rank,
                &comm,
                GroupSpec { every: 8 },
                ChannelConfig {
                    element_bytes: 4 << 10,
                    aggregation,
                    credits,
                    route: RoutePolicy::Static,
                    credit_batch: 1,
                    failure_timeout: None,
                    replicas: 0,
                    replication_patience: None,
                },
                |rank, pc| {
                    for i in 0..2_000u64 {
                        rank.compute_exact(3e-6);
                        pc.stream.isend(rank, i);
                    }
                },
                |rank, cc| {
                    cc.stream.operate(rank, |rank, _| rank.compute_exact(2e-6));
                },
            );
        })
        .0
        .elapsed_secs()
}

fn granularity_sweep() -> std::io::Result<()> {
    let mut table = Table::new(
        "Ablation 1 — stream aggregation (granularity S), synthetic pipeline",
        "batch",
        &["sim_secs", "model_secs"],
    );
    let scn = Scenario {
        t_w0: 2_000.0 / 56.0 * 64.0 * 3e-6, // per-producer op0
        t_w1: 2_000.0 * 2e-6 / 8.0,
        complexity: Complexity::Divisible,
        t_sigma: 0.0,
        data_d: 2_000 * 56 / 64 * (4 << 10),
        overhead_o: 1.2e-6,
        p: 64,
        beta: Beta::new(0.05, (256u64 << 10) as f64),
        op1_optimization: 1.0,
    };
    for batch in [1usize, 2, 4, 8, 16, 32, 64, 128, 256] {
        let sim = pipeline_time(batch, None);
        let model = scn.predict(1.0 / 8.0, (batch * (4 << 10)) as f64);
        println!("batch {batch:>4}: sim {sim:.4}s  model {model:.4}s");
        table.push(batch, vec![sim, model]);
    }
    table.finish("ablation_granularity")
}

fn alpha_sweep() -> std::io::Result<()> {
    let mut table = Table::new(
        "Ablation 2 — group fraction alpha (MapReduce, P=128), time (s)",
        "every",
        &["mapreduce_secs"],
    );
    for every in [4usize, 8, 16, 32, 64] {
        let cfg = configs::fig5(P, every);
        let t = apps::mapreduce::run_decoupled(P, &cfg).outcome.elapsed_secs();
        println!("alpha = 1/{every:>2}: {t:.3}s");
        table.push(every, vec![t]);
    }
    table.finish("ablation_alpha")
}

fn credits_sweep() -> std::io::Result<()> {
    let mut table = Table::new(
        "Ablation 3 — credit window (flow control): time vs memory bound",
        "credits",
        &["secs"],
    );
    // Windows must admit at least one aggregated batch (8 elements here).
    for credits in [8usize, 16, 64, 256, 0] {
        let c = if credits == 0 { None } else { Some(credits) };
        let t = pipeline_time(8, c);
        let label = if credits == 0 { "unbounded".to_string() } else { credits.to_string() };
        println!("credits {label:>9}: {t:.4}s");
        table.push(credits, vec![t]);
    }
    table.finish("ablation_credits")
}

fn main() -> std::io::Result<()> {
    granularity_sweep()?;
    alpha_sweep()?;
    credits_sweep()
}
