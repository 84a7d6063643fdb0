//! Figure 5: weak-scaling MapReduce word histogram — reference vs
//! decoupled at α = 12.5 / 6.25 / 3.125 %, plus the tree-aggregated
//! pipeline (producer-side combiners + a fan-in-8 reduction tree between
//! the local reducers and the master) at α = 6.25 %.
//!
//! `cargo run --release -p bench-harness --bin fig5` (env: MAX_PROCS,
//! FULL_SCALE=1 for the paper's 8,192).
//!
//! `FIG5_EXTENDED=1` switches to the extended-scale sweep *past* the
//! paper's 8,192 ranks (1,024 up to a default ceiling of 16,384;
//! MAX_PROCS raises it): the same pipeline at 8x coarser stream
//! granularity — identical modelled bytes per mapper, an eighth of the
//! simulator events — so 16K+ rank worlds stay affordable on one host.
//! One sweep emits two tables: `fig5_extended.{csv,svg}` (execution
//! time, flat vs tree-aggregated) and `fig5_master_drain.{csv,svg}`
//! (the master's pipeline-flush tail — the incast the aggregation
//! operators exist to kill).

use apps::mapreduce::{run_decoupled, run_reference, MapReduceConfig};
use bench_harness::{configs, max_procs, proc_sweep, run_weak_scaling, FigRow, Table};

/// The tree-aggregated variant: merge 8 same-reducer chunks before they
/// enter the map-output channel, and interpose a fan-in-8 reduction tree
/// between the local reducers and the master.
fn agg(mut cfg: MapReduceConfig) -> MapReduceConfig {
    cfg.combine_every = 8;
    cfg.tree_fan_in = Some(8);
    cfg
}

/// 8x coarser stream granularity: same modelled bytes per mapper, 1/8th
/// the simulator events — the extended sweep's affordability knob. The
/// decoupled-vs-aggregated comparison is unaffected (both sides coarsen
/// identically).
fn coarse(mut cfg: MapReduceConfig) -> MapReduceConfig {
    cfg.chunk_tokens *= 8;
    cfg.element_bytes *= 8;
    cfg.master_element_bytes *= 8;
    cfg
}

fn standard_sweep() -> std::io::Result<()> {
    run_weak_scaling(
        "fig5_mapreduce",
        "Fig. 5 — MapReduce weak scaling, execution time (s)",
        &["reference", "dec_a12.5%", "dec_a6.25%", "dec_a3.125%", "agg_a6.25%"],
        1024,
        |p| {
            let t_ref = run_reference(p, &configs::fig5(p, 16)).outcome.elapsed_secs();
            let d8 = run_decoupled(p, &configs::fig5(p, 8)).outcome.elapsed_secs();
            let d16 = run_decoupled(p, &configs::fig5(p, 16)).outcome.elapsed_secs();
            let d32 = run_decoupled(p, &configs::fig5(p, 32)).outcome.elapsed_secs();
            let da = run_decoupled(p, &agg(configs::fig5(p, 16))).outcome.elapsed_secs();
            FigRow {
                values: vec![t_ref, d8, d16, d32, da],
                note: format!(
                    "ref {t_ref:.3}  a=1/8 {d8:.3}  a=1/16 {d16:.3}  a=1/32 {d32:.3}  \
                     agg {da:.3}"
                ),
            }
        },
    )
}

fn extended_sweep() -> std::io::Result<()> {
    let max = max_procs(16_384);
    let procs: Vec<usize> = proc_sweep(max).into_iter().filter(|&p| p >= 1024).collect();
    let mut times = Table::new(
        "Fig. 5 (extended) — MapReduce weak scaling past 8,192 ranks, execution time (s)",
        "procs",
        &["dec_a6.25%", "agg_a6.25%"],
    );
    let mut drain = Table::new(
        "Fig. 5 (extended) — master pipeline-flush tail (s): flat incast vs combine + tree",
        "procs",
        &["flat", "agg_k8"],
    );
    let rows = desim::sweep::par_map(procs, |p| {
        let flat = run_decoupled(p, &coarse(configs::fig5(p, 16)));
        let tree = run_decoupled(p, &agg(coarse(configs::fig5(p, 16))));
        (p, flat, tree)
    });
    for (p, flat, tree) in rows {
        println!(
            "P={p}: flat {:.3}s (drain {:.3}s)  agg {:.3}s (drain {:.3}s)",
            flat.outcome.elapsed_secs(),
            flat.master_drain_secs,
            tree.outcome.elapsed_secs(),
            tree.master_drain_secs,
        );
        times.push(p, vec![flat.outcome.elapsed_secs(), tree.outcome.elapsed_secs()]);
        drain.push(p, vec![flat.master_drain_secs, tree.master_drain_secs]);
    }
    times.finish("fig5_extended")?;
    drain.finish("fig5_master_drain")
}

fn main() -> std::io::Result<()> {
    if std::env::var("FIG5_EXTENDED").map(|v| v == "1").unwrap_or(false) {
        extended_sweep()
    } else {
        standard_sweep()
    }
}
