//! Regenerate the SVG chart for an existing `results/<name>.csv` (useful
//! when a long sweep predates a plotting change).
//!
//! `cargo run --release -p bench-harness --bin svgify -- fig7_pic_comm ...`

use bench_harness::{plot, results_dir, write_artifact, Table};

fn main() -> std::io::Result<()> {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if names.is_empty() {
        eprintln!("usage: svgify <result-name> [<result-name> ...]");
        std::process::exit(2);
    }
    for name in names {
        let csv_path = results_dir().join(format!("{name}.csv"));
        let csv = match std::fs::read_to_string(&csv_path) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("skipping {}: {e}", csv_path.display());
                continue;
            }
        };
        let mut lines = csv.lines();
        let header: Vec<&str> = match lines.next() {
            Some(h) => h.split(',').collect(),
            None => {
                eprintln!("skipping {name}: empty csv");
                continue;
            }
        };
        let cols: Vec<&str> = header[1..].to_vec();
        let mut table = Table::new(&name, header[0], &cols);
        for line in lines {
            let mut parts = line.split(',');
            let x: usize = match parts.next().and_then(|v| v.parse().ok()) {
                Some(x) => x,
                None => continue,
            };
            let vals: Vec<f64> = parts.map(|v| v.parse().unwrap_or(f64::NAN)).collect();
            if vals.len() == cols.len() {
                table.push(x, vals);
            }
        }
        write_artifact(&format!("{name}.svg"), &plot::render_svg(&table))?;
    }
    Ok(())
}
