//! Mini-iPIC3D particle pipeline: communication and I/O, reference vs
//! decoupled — plus the Fig. 2 style timeline trace.
//!
//! Run with: `cargo run --release --example particle_pipeline`

use apps::pic::{
    run_comm_decoupled, run_comm_decoupled_traced, run_comm_reference, run_comm_reference_traced,
    run_io_decoupled, run_io_reference, IoMode, PicConfig,
};
use streamprof::{Clock, Trace};

fn main() {
    let cfg = PicConfig { iterations: 6, alpha_every: 8, ..PicConfig::default() };
    let nprocs = 64;

    println!("== particle communication ({nprocs} ranks, {} steps) ==", cfg.iterations);
    let r = run_comm_reference(nprocs, &cfg);
    println!(
        "reference (6-neighbour forwarding + termination allreduce): {:.3} s, {} msgs",
        r.outcome.elapsed_secs(),
        r.outcome.msgs_sent
    );
    let d = run_comm_decoupled(nprocs, &cfg);
    println!(
        "decoupled (stream -> aggregate by destination -> one pass) : {:.3} s, {} msgs",
        d.outcome.elapsed_secs(),
        d.outcome.msgs_sent
    );

    println!("\n== particle I/O ({nprocs} ranks, dump every step) ==");
    let coll = run_io_reference(nprocs, &cfg, IoMode::Collective);
    println!(
        "MPI_File_write_all flavour   : {:.3} s  ({:.2} GB written)",
        coll.outcome.elapsed_secs(),
        coll.bytes_written as f64 / 1e9
    );
    let shared = run_io_reference(nprocs, &cfg, IoMode::Shared);
    println!(
        "MPI_File_write_shared flavour: {:.3} s  ({:.2} GB written)",
        shared.outcome.elapsed_secs(),
        shared.bytes_written as f64 / 1e9
    );
    let dec = run_io_decoupled(nprocs, &cfg);
    println!(
        "decoupled I/O group          : {:.3} s  ({:.2} GB written)",
        dec.outcome.elapsed_secs(),
        dec.bytes_written as f64 / 1e9
    );

    // The Fig. 2 timelines: 7 ranks, compute (C) vs communication (M).
    println!("\n== execution timelines (Fig. 2; C = compute, M = comm, . = idle) ==");
    let tcfg = PicConfig { iterations: 3, alpha_every: 7, actual_per_rank: 128, ..cfg };
    let tr = run_comm_reference_traced(7, &tcfg);
    println!("reference:\n{}", render(&tr.outcome.sim.trace));
    let td = run_comm_decoupled_traced(7, &tcfg);
    println!("decoupled (rank 6 is the communication group):\n{}", render(&td.outcome.sim.trace));
}

fn render(trace: &desim::Trace) -> String {
    Trace::from_desim(trace, Clock::Virtual).to_gantt(100)
}
