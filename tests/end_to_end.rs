//! End-to-end integration: the full stack (engine → machine → streams →
//! applications) produces correct results and clean resource accounting.

use apps::cg::{run_blocking, run_decoupled as cg_decoupled, serial_solve, CgConfig};
use apps::mapreduce::{
    run_decoupled as mr_decoupled, run_reference as mr_reference, MapReduceConfig,
};
use apps::pic::{
    run_comm_decoupled, run_comm_reference, run_io_decoupled, run_io_reference, IoMode, PicConfig,
};
use mpisim::{MachineConfig, NoiseModel};
use streamprof::{Clock, Trace};
use workloads::{Corpus, CorpusConfig};

fn quiet_machine() -> MachineConfig {
    MachineConfig { noise: NoiseModel::none(), ..MachineConfig::default() }
}

#[test]
fn mapreduce_pipeline_is_exact_under_noise() {
    // Noise perturbs timing but must never perturb results.
    let cfg = MapReduceConfig {
        corpus: CorpusConfig {
            n_files: 24,
            vocab: 300,
            tokens_per_gb: 3_000,
            min_file_bytes: 16 << 20,
            max_file_bytes: 64 << 20,
            ..CorpusConfig::default()
        },
        alpha_every: 4,
        ..MapReduceConfig::default()
    };
    let oracle = Corpus::new(cfg.corpus.clone()).serial_histogram();
    assert_eq!(mr_reference(12, &cfg).histogram, oracle);
    assert_eq!(mr_decoupled(12, &cfg).histogram, oracle);
}

#[test]
fn cg_full_stack_converges_with_noise_and_imbalance() {
    let cfg = CgConfig { n_local: 6, iterations: 40, alpha_every: 4, ..CgConfig::default() };
    let (serial_res, serial_err) = serial_solve(12, cfg.iterations);
    let par = run_blocking(8, &cfg); // 2x2x2 of 6^3 = 12^3 global
                                     // Near the convergence plateau the residual norm is dominated by
                                     // floating-point reduction order, so compare convergence level and the
                                     // (stable) solution error rather than exact residuals.
    assert!(par.residual < serial_res * 10.0 + 1e-9, "{} vs {serial_res}", par.residual);
    assert!(
        (par.solution_error - serial_err).abs() < 1e-6,
        "{} vs {serial_err}",
        par.solution_error
    );
    let dec = cg_decoupled(8, &cfg);
    assert!(dec.residual < 1e-8);
}

#[test]
fn pic_comm_under_noise_conserves_particles() {
    let cfg = PicConfig {
        actual_per_rank: 48,
        iterations: 3,
        alpha_every: 4,
        dt: 0.3,
        ..PicConfig::default()
    };
    // Reference on 8 ranks and decoupled on 8 ranks (6 compute) each
    // conserve their own initial populations.
    let r = run_comm_reference(8, &cfg);
    let d = run_comm_decoupled(8, &cfg);
    assert!(r.final_particles > 0);
    assert!(d.final_particles > 0);
}

#[test]
fn pic_io_bytes_are_conserved_across_all_variants() {
    let cfg = PicConfig {
        machine: quiet_machine(),
        actual_per_rank: 48,
        iterations: 3,
        alpha_every: 4,
        dt: 0.2,
        io_buffer_bytes: 32 << 20,
        ..PicConfig::default()
    };
    let coll = run_io_reference(8, &cfg, IoMode::Collective);
    let shared = run_io_reference(8, &cfg, IoMode::Shared);
    assert_eq!(coll.bytes_written, shared.bytes_written);
    let dec = run_io_decoupled(8, &cfg);
    assert!(dec.bytes_written > 0);
}

#[test]
fn identical_seeds_reproduce_full_application_runs() {
    let cfg =
        PicConfig { actual_per_rank: 32, iterations: 3, alpha_every: 4, ..PicConfig::default() };
    let a = run_comm_decoupled(8, &cfg);
    let b = run_comm_decoupled(8, &cfg);
    assert_eq!(a.outcome.elapsed_secs(), b.outcome.elapsed_secs());
    assert_eq!(a.outcome.msgs_sent, b.outcome.msgs_sent);
    assert_eq!(a.final_particles, b.final_particles);
}

#[test]
fn message_accounting_is_consistent_per_rank() {
    let cfg = MapReduceConfig {
        machine: quiet_machine(),
        corpus: CorpusConfig {
            n_files: 8,
            vocab: 100,
            tokens_per_gb: 1_000,
            min_file_bytes: 8 << 20,
            max_file_bytes: 16 << 20,
            ..CorpusConfig::default()
        },
        alpha_every: 4,
        ..MapReduceConfig::default()
    };
    let res = mr_decoupled(8, &cfg);
    let total: u64 = res.outcome.per_rank_msgs.iter().sum();
    assert_eq!(total, res.outcome.msgs_sent);
    assert!(res.outcome.bytes_sent > 0);
}

#[test]
fn traces_cover_the_full_makespan_reasonably() {
    use apps::pic::comm_decoupled_rank;
    let cfg = PicConfig {
        machine: quiet_machine(),
        actual_per_rank: 64,
        iterations: 3,
        alpha_every: 4,
        ..PicConfig::default()
    };
    let (outcome, _) =
        cfg.world().with_trace(true).run_expect(8, move |rank| comm_decoupled_rank(rank, 8, &cfg));
    let trace = &outcome.sim.trace;
    assert!(!trace.is_empty());
    // The trace horizon is within the run's makespan.
    assert!(trace.horizon() <= outcome.sim.end_time);
    // Compute spans exist on compute ranks (0..5 are producers for
    // every=4? ranks 3 and 7 are consumers) — check one known producer.
    assert!(trace.spans().iter().any(|s| s.pid == 0 && s.tag == "comp"));
    // Gantt and CSV render without panicking.
    let adapted = Trace::from_desim(trace, Clock::Virtual);
    let gantt = adapted.to_gantt(60);
    assert!(gantt.contains('C'));
    let csv = adapted.to_csv();
    assert!(csv.lines().count() > 1);
}
