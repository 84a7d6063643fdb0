//! Figure 7: weak-scaling particle communication in the mini-iPIC3D code —
//! 6-neighbour iterative forwarding vs decoupled two-hop streaming.
//!
//! `cargo run --release -p bench-harness --bin fig7`.

use apps::pic::{run_comm_decoupled, run_comm_reference};
use bench_harness::{configs, run_weak_scaling, FigRow};

fn main() -> std::io::Result<()> {
    let cfg = configs::fig7();
    run_weak_scaling(
        "fig7_pic_comm",
        "Fig. 7 — iPIC3D particle communication weak scaling, execution time (s)",
        &["reference", "decoupling"],
        1024,
        |p| {
            let r = run_comm_reference(p, &cfg);
            let d = run_comm_decoupled(p, &cfg);
            FigRow {
                note: format!(
                    "reference {:.3}  decoupled {:.3}  (particles {} / {})",
                    r.op_secs, d.op_secs, r.final_particles, d.final_particles
                ),
                values: vec![r.op_secs, d.op_secs],
            }
        },
    )
}
