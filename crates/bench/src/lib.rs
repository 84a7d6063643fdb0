//! Shared utilities for the figure-regeneration harnesses.
//!
//! Each `--bin figN` sweeps the paper's process counts (32 … 8,192),
//! prints the series the corresponding figure plots, and writes a CSV
//! under `results/`. Scale is controlled by environment variables:
//!
//! - `MAX_PROCS` — largest world size in the sweep (default 1024; the
//!   paper's full 8192 works but takes longer).
//! - `FULL_SCALE=1` — shorthand for `MAX_PROCS=8192` plus the paper's
//!   iteration counts where applicable.

use std::fmt::Write as _;
use std::path::PathBuf;

pub mod plot;
pub mod scenarios;

/// Standard weak-scaling sweep: powers of two from 32 to `max`.
pub fn proc_sweep(max: usize) -> Vec<usize> {
    let mut v = Vec::new();
    let mut p = 32;
    while p <= max {
        v.push(p);
        p *= 2;
    }
    v
}

/// The sweep ceiling from the environment (see module docs).
pub fn max_procs(default: usize) -> usize {
    if full_scale() {
        return 8192;
    }
    std::env::var("MAX_PROCS").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Whether the full paper-scale run was requested.
pub fn full_scale() -> bool {
    std::env::var("FULL_SCALE").map(|v| v == "1").unwrap_or(false)
}

/// A results table: one labelled series per column, one process count per
/// row. Renders both an aligned console table and CSV.
pub struct Table {
    pub title: String,
    pub x_label: String,
    pub columns: Vec<String>,
    pub rows: Vec<(usize, Vec<f64>)>,
}

impl Table {
    pub fn new(title: &str, x_label: &str, columns: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            x_label: x_label.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn push(&mut self, x: usize, values: Vec<f64>) {
        assert_eq!(values.len(), self.columns.len());
        self.rows.push((x, values));
    }

    /// Aligned console rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "\n== {} ==", self.title);
        let _ = write!(out, "{:>10}", self.x_label);
        for c in &self.columns {
            let _ = write!(out, "{c:>16}");
        }
        let _ = writeln!(out);
        for (x, vals) in &self.rows {
            let _ = write!(out, "{x:>10}");
            for v in vals {
                let _ = write!(out, "{v:>16.4}");
            }
            let _ = writeln!(out);
        }
        out
    }

    /// CSV rendering (`x,col1,col2,...`).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{}", self.x_label);
        for c in &self.columns {
            let _ = write!(out, ",{c}");
        }
        let _ = writeln!(out);
        for (x, vals) in &self.rows {
            let _ = write!(out, "{x}");
            for v in vals {
                let _ = write!(out, ",{v:.6}");
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Write the CSV and an SVG chart under `results/<name>.{csv,svg}`
    /// (workspace root) and print the table.
    pub fn finish(&self, name: &str) {
        print!("{}", self.render());
        let dir = results_dir();
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join(format!("{name}.csv"));
        match std::fs::write(&path, self.to_csv()) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
        let svg_path = dir.join(format!("{name}.svg"));
        match std::fs::write(&svg_path, plot::render_svg(self)) {
            Ok(()) => println!("wrote {}", svg_path.display()),
            Err(e) => eprintln!("could not write {}: {e}", svg_path.display()),
        }
    }
}

/// One scale point of a figure sweep: the column values for the table row
/// plus the human-readable progress note printed as `P=<procs>: <note>`.
pub struct FigRow {
    pub values: Vec<f64>,
    pub note: String,
}

/// The boilerplate every `figN` binary shares: read the sweep ceiling
/// from the environment, simulate each scale point in parallel on
/// `SWEEP_JOBS` threads (each point is an independent simulation), print
/// the rows in order, and render the table to console + `results/`.
pub fn run_weak_scaling(
    csv_name: &str,
    title: &str,
    columns: &[&str],
    default_max: usize,
    point: impl Fn(usize) -> FigRow + Sync,
) {
    let max = max_procs(default_max);
    let mut table = Table::new(title, "procs", columns);
    let rows = desim::sweep::par_map(proc_sweep(max), |p| (p, point(p)));
    for (p, row) in rows {
        println!("P={p}: {}", row.note);
        table.push(p, row.values);
    }
    table.finish(csv_name);
}

/// The workspace root (falls back to CWD).
pub fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// `results/` next to the workspace root (falls back to CWD).
/// `RESULTS_DIR` overrides the destination — CI smokes of the figure
/// binaries redirect there so a partial sweep cannot clobber the
/// committed full-scale artifacts.
pub fn results_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("RESULTS_DIR") {
        if !dir.is_empty() {
            return PathBuf::from(dir);
        }
    }
    workspace_root().join("results")
}

/// Write a raw text artifact under `results/`.
pub fn write_artifact(name: &str, content: &str) {
    let dir = results_dir();
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(name);
    match std::fs::write(&path, content) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_paper_points() {
        assert_eq!(proc_sweep(8192), vec![32, 64, 128, 256, 512, 1024, 2048, 4096, 8192]);
        assert_eq!(proc_sweep(100), vec![32, 64]);
    }

    #[test]
    fn table_renders_and_serialises() {
        let mut t = Table::new("demo", "procs", &["a", "b"]);
        t.push(32, vec![1.5, 2.5]);
        t.push(64, vec![1.0, 3.25]);
        let csv = t.to_csv();
        assert!(csv.starts_with("procs,a,b\n"));
        assert!(csv.contains("32,1.500000,2.500000"));
        let txt = t.render();
        assert!(txt.contains("demo"));
        assert!(txt.contains("1.0000"));
    }
}

/// The experiment configurations used by both the figure binaries and
/// `benchmark/`'s `sim_fig5` workload, in one place so they stay consistent.
pub mod configs {
    use apps::cg::CgConfig;
    use apps::mapreduce::MapReduceConfig;
    use apps::pic::PicConfig;
    use workloads::CorpusConfig;

    /// Fig. 5: weak-scaling MapReduce. The corpus grows with P
    /// (~0.56 files/rank of 256 MB–1 GB ≈ the paper's 2.9 TB at 8,192).
    pub fn fig5(p: usize, alpha_every: usize) -> MapReduceConfig {
        MapReduceConfig {
            corpus: CorpusConfig {
                n_files: (p * 9 / 16).max(4),
                vocab: 20_000,
                exponent: 1.0,
                // ~45k actual tokens per rank => ~350 streamed chunks per
                // map rank at 128 tokens/chunk.
                tokens_per_gb: 75_000,
                min_file_bytes: 256 << 20,
                max_file_bytes: 1 << 30,
                seed: 0x5EED,
            },
            map_secs_per_gb: 4.0,
            // 1 MB stream elements x ~350 chunks ≈ the paper's ~354 MB of
            // intermediate data per rank.
            element_bytes: 1 << 20,
            chunk_tokens: 128,
            alpha_every,
            pair_bytes: 8,
            // Lifts the 20k actual vocabulary to web-log key volumes
            // (keysets ~2 MB, dense union vectors ~10 MB).
            wire_scale: 60.0,
            dense_fold_secs_per_mb: 0.05,
            master_element_bytes: 8 << 10,
            ..MapReduceConfig::default()
        }
    }

    /// Fig. 6: weak-scaling CG (120³ nominal cells/rank; iterations from
    /// `iters`, the paper uses 300). The machine gets a visible OS-noise
    /// level (~1.5 % duty): Fig. 6's blocking-vs-overlap separation is an
    /// idle-wave effect — serialized halo waits harvest and propagate
    /// noise that overlap hides (Peng et al., HPCC'16, the paper's \[5\]).
    pub fn fig6(iters: usize) -> CgConfig {
        use desim::SimDuration;
        use mpisim::{MachineConfig, NoiseModel};
        CgConfig {
            n_local: 6,
            iterations: iters,
            alpha_every: 16,
            machine: MachineConfig {
                noise: NoiseModel {
                    jitter_cv: 0.05,
                    spike_rate_hz: 30.0,
                    spike_mean: SimDuration::from_micros(500),
                },
                ..MachineConfig::default()
            },
            ..CgConfig::default()
        }
    }

    /// Fig. 7: particle communication (GEM-like skew, α = 6.25 %).
    pub fn fig7() -> PicConfig {
        PicConfig {
            actual_per_rank: 96,
            iterations: 10,
            alpha_every: 16,
            dt: 0.3,
            ..PicConfig::default()
        }
    }

    /// Fig. 8: particle I/O (dump every step, α = 6.25 %).
    pub fn fig8() -> PicConfig {
        PicConfig {
            actual_per_rank: 96,
            iterations: 4,
            alpha_every: 16,
            dt: 0.2,
            io_buffer_bytes: 1 << 30,
            ..PicConfig::default()
        }
    }
}
