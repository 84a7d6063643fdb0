//! Figure 6: weak-scaling CG solver — blocking vs non-blocking halo
//! exchange vs decoupled boundary streaming.
//!
//! `cargo run --release -p bench-harness --bin fig6`. The default runs 50
//! CG iterations (report scales linearly); `FULL_SCALE=1` runs the
//! paper's 300.

use apps::cg::{run_blocking, run_decoupled, run_nonblocking};
use bench_harness::{configs, full_scale, run_weak_scaling, FigRow};

fn main() -> std::io::Result<()> {
    let iters = if full_scale() { 300 } else { 50 };
    let cfg = configs::fig6(iters);
    run_weak_scaling(
        "fig6_cg",
        &format!("Fig. 6 — CG weak scaling ({iters} iterations), execution time (s)"),
        &["blocking", "nonblocking", "decoupling"],
        1024,
        |p| {
            let b = run_blocking(p, &cfg);
            let n = run_nonblocking(p, &cfg);
            let d = run_decoupled(p, &cfg);
            FigRow {
                note: format!(
                    "blocking {:.3}  nonblocking {:.3}  decoupled {:.3}  \
                     (residuals {:.2e}/{:.2e}/{:.2e})",
                    b.outcome.elapsed_secs(),
                    n.outcome.elapsed_secs(),
                    d.outcome.elapsed_secs(),
                    b.residual,
                    n.residual,
                    d.residual
                ),
                values: vec![
                    b.outcome.elapsed_secs(),
                    n.outcome.elapsed_secs(),
                    d.outcome.elapsed_secs(),
                ],
            }
        },
    )
}
