//! Figure 8: weak-scaling particle I/O in the mini-iPIC3D code —
//! `write_all` (RefColl) vs `write_shared` (RefShared) vs the decoupled
//! I/O group, plus the decoupled group with writer aggregation (fan-in-4
//! spill blocks: one file open per block instead of per I/O rank).
//!
//! `cargo run --release -p bench-harness --bin fig8` (env: MAX_PROCS;
//! the committed artifact stops at 4,096, below the paper's 8,192).

use apps::pic::{run_io_decoupled, run_io_reference, IoMode, PicConfig};
use bench_harness::{configs, run_weak_scaling, FigRow};

fn main() -> std::io::Result<()> {
    let cfg = configs::fig8();
    let agg_cfg = PicConfig { io_writer_fan_in: Some(4), ..cfg.clone() };
    run_weak_scaling(
        "fig8_pic_io",
        "Fig. 8 — iPIC3D particle I/O weak scaling, execution time (s)",
        &["RefColl", "RefShared", "Decoupling", "DecAgg_k4"],
        1024,
        |p| {
            let c = run_io_reference(p, &cfg, IoMode::Collective);
            let s = run_io_reference(p, &cfg, IoMode::Shared);
            let d = run_io_decoupled(p, &cfg);
            let a = run_io_decoupled(p, &agg_cfg);
            FigRow {
                note: format!(
                    "RefColl {:.3}  RefShared {:.3}  Decoupling {:.3}  DecAgg {:.3}  \
                     ({:.1} GB written each; opens {} -> {})",
                    c.op_secs,
                    s.op_secs,
                    d.op_secs,
                    a.op_secs,
                    c.bytes_written as f64 / 1e9,
                    d.meta_ops,
                    a.meta_ops,
                ),
                values: vec![c.op_secs, s.op_secs, d.op_secs, a.op_secs],
            }
        },
    )
}
