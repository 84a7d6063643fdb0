//! Figure 2: execution-timeline traces of the mini-iPIC3D particle
//! compute/communication on 7 ranks — reference (top) vs decoupled
//! (bottom, rank P6 hosting the communication group).
//!
//! `cargo run --release -p bench-harness --bin fig2`. Writes the span CSVs
//! under `results/` and prints ASCII Gantt charts (C = compute, M =
//! communication, . = idle). With `--chrome-trace`, additionally writes
//! `fig2_{reference,decoupled}.trace.json` — Chrome-trace files openable
//! in `chrome://tracing` / Perfetto.

use apps::pic::{comm_decoupled_rank, comm_reference_rank, PicConfig};
use bench_harness::write_artifact;
use streamprof::{Clock, Trace};

fn main() -> std::io::Result<()> {
    let chrome = std::env::args().any(|a| a == "--chrome-trace");
    let cfg = PicConfig {
        actual_per_rank: 256,
        iterations: 4,
        alpha_every: 7, // 7 ranks: 6 compute + 1 communication (the paper's G1)
        dt: 0.3,
        ..PicConfig::default()
    };

    let traced = cfg.world().with_trace(true);
    let c = cfg.clone();
    let (reference, _) = traced.run_expect(7, move |rank| comm_reference_rank(rank, 7, &c));
    let ref_trace = Trace::from_desim(&reference.sim.trace, Clock::Virtual);
    println!(
        "reference implementation ({} steps, makespan {:.3}s):",
        cfg.iterations,
        reference.elapsed_secs()
    );
    let g = ref_trace.to_gantt(100);
    println!("{g}");
    write_artifact("fig2_reference.csv", &ref_trace.to_csv())?;
    if chrome {
        write_artifact("fig2_reference.trace.json", &ref_trace.to_chrome_json())?;
    }

    let (decoupled, _) = traced.run_expect(7, move |rank| comm_decoupled_rank(rank, 7, &cfg));
    let dec_trace = Trace::from_desim(&decoupled.sim.trace, Clock::Virtual);
    println!(
        "decoupled implementation (makespan {:.3}s; P6 = communication group):",
        decoupled.elapsed_secs()
    );
    let g = dec_trace.to_gantt(100);
    println!("{g}");
    write_artifact("fig2_decoupled.csv", &dec_trace.to_csv())?;
    if chrome {
        write_artifact("fig2_decoupled.trace.json", &dec_trace.to_chrome_json())?;
    }

    // The figure's claim: the decoupled run is shorter and its compute
    // ranks spend a larger fraction of the timeline computing.
    println!(
        "makespan: reference {:.3}s vs decoupled {:.3}s",
        reference.elapsed_secs(),
        decoupled.elapsed_secs()
    );
    Ok(())
}
