//! `streambench` — the repo's benchmark driver (see `../README.md`).
//!
//! One binary, three ways in:
//!
//! - no subcommand: the driver. Pins itself to one CPU, runs the chosen
//!   workload as several *launches* (child processes of this binary),
//!   pools their slices, checks their outputs and prints every metric.
//! - `launch`: one launch — set-up, warm-up, timed slices — reporting as
//!   text lines on stdout. For the socket workloads `SocketWorld`
//!   re-executes this binary with the same arguments once per rank; those
//!   children come through here again, reach the same `SocketWorld::run`
//!   first, run their rank body inside it and never return.
//! - `selfcheck`: the A/A harness behind `selfcheck.sh`.

mod alloc;
mod cal;
mod driver;
mod golden;
mod host;
mod probes;
mod stats;
mod traced;
mod workloads;

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use workloads::LaunchArgs;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The benchmark's directory (`golden.json`, `out/`): where `run.sh` says
/// it is, else where this package was built from.
pub fn bench_dir() -> PathBuf {
    std::env::var_os("STREAMBENCH_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// The value following `flag` in `args`, if the flag is there.
pub fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn launch_main(args: &[String]) -> ExitCode {
    let a = match LaunchArgs::parse(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("streambench launch: {e}");
            return ExitCode::from(2);
        }
    };
    let report = workloads::run_launch(&a);
    let mut out = std::io::stdout().lock();
    for line in report {
        // A closed pipe means the driver is gone; nothing left to tell.
        if writeln!(out, "{line}").is_err() {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("launch") => launch_main(&args[1..]),
        Some("selfcheck") => driver::selfcheck(&args[1..]),
        _ => driver::run(&args),
    }
}
