//! Quickstart on the native threaded backend — the same decoupled program
//! as `quickstart`, written once against the `Transport` trait and
//! executed either inside the discrete-event simulator or on real OS
//! threads (one per rank) on the host.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart_native -- --backend native
//! cargo run --release --example quickstart_native -- --backend sim
//! cargo run --release --example quickstart_native -- --backend socket
//! cargo run --release --example quickstart_native -- --backend both
//! cargo run --release --example quickstart_native -- --trace out.trace.json
//! ```
//!
//! In `both` mode the per-consumer payload fingerprints from the two
//! backends are compared: the program streams only deterministic values
//! over static routing, so each analysis rank must consume the same
//! multiset of updates no matter which backend delivered them.
//!
//! `--trace <path>` records the run through `streamprof` and writes a
//! Chrome-trace JSON (open in `chrome://tracing` or Perfetto) — on the
//! sim backend the spans carry virtual time, on the native backend wall
//! clock, same file format either way. In `both` mode the backend name
//! is suffixed onto the path (`out.sim.trace.json`, `out.native.trace.json`).
//!
//! `--backend socket` runs the same program across real OS processes
//! (one per rank, Unix-domain sockets between them). Each child records
//! its own wall-clock spans; the launcher merges every rank's spans into
//! one Chrome trace, so the file looks exactly like the native one —
//! except the timelines come from separate address spaces.

use std::collections::BTreeMap;

use apps::portable::{fingerprint, quickstart, PortableReport};
use mpisim::{MachineConfig, World};
use mpistream::transport::SimTime;
use native::NativeWorld;
use streamprof::{Clock, ProfSink, Profiled};

const RANKS: usize = 16;
const STEPS: usize = 50;
const EVERY: usize = 8; // one analysis rank per 8

/// Every rank's report, in rank order.
type Reports = Vec<PortableReport>;

fn write_trace(path: &str, sink: ProfSink) {
    let trace = sink.take();
    std::fs::write(path, trace.to_chrome_json()).expect("write trace file");
    println!("wrote {path} ({} spans, {} clock)", trace.spans().len(), trace.clock().label());
}

fn run_sim(trace: Option<&str>) -> Reports {
    let prof = trace.map(|_| ProfSink::new(Clock::Virtual));
    let prof2 = prof.clone();
    let world = World::new(MachineConfig::default()).with_seed(42);
    let (outcome, reports) = world.run_expect(RANKS, move |rank| match &prof2 {
        Some(p) => quickstart(&mut Profiled::new(rank, p.clone()), STEPS, EVERY),
        None => quickstart(rank, STEPS, EVERY),
    });
    println!("sim:    virtual makespan {:.6} s", outcome.elapsed_secs());
    if let (Some(path), Some(p)) = (trace, prof) {
        write_trace(path, p);
    }
    reports
}

fn run_native(trace: Option<&str>) -> Reports {
    let prof = trace.map(|_| ProfSink::new(Clock::Wall));
    let start = std::time::Instant::now();
    // Modelled compute is milliseconds per rank; sleep it at full scale.
    let reports = NativeWorld::new(RANKS).run(|rank| match &prof {
        Some(p) => quickstart(&mut Profiled::new(rank, p.clone()), STEPS, EVERY),
        None => quickstart(rank, STEPS, EVERY),
    });
    println!("native: wall-clock {:.6} s on {RANKS} threads", start.elapsed().as_secs_f64());
    if let (Some(path), Some(p)) = (trace, prof) {
        write_trace(path, p);
    }
    reports
}

/// The span categories the portable program can emit. Spans cross the
/// process boundary as owned strings; re-interning against this set
/// recovers the `&'static str` the sink API wants without leaking in
/// the common case.
const KNOWN_CATS: &[&str] =
    &["compute", "send", "coll", "recv", "combine", "wait-mail", "wait-data", "wait-credit"];

fn intern_cat(cat: String) -> &'static str {
    match KNOWN_CATS.iter().find(|k| **k == cat) {
        Some(k) => k,
        None => Box::leak(cat.into_boxed_str()),
    }
}

fn run_socket(trace: Option<&str>) -> Reports {
    let start = std::time::Instant::now();
    // Children re-exec this binary with the same argv, so each rank sees
    // the same `--backend socket --trace ...` flags and knows to record.
    let tracing = trace.is_some();
    let results = socket::SocketWorld::new("quickstart_native_example", RANKS).run(|rank| {
        if tracing {
            let p = ProfSink::new(Clock::Wall);
            let rep = quickstart(&mut Profiled::new(rank, p.clone()), STEPS, EVERY);
            let spans: Vec<(String, u64, u64)> = p
                .take()
                .spans()
                .iter()
                .map(|s| (s.cat.to_string(), s.start.as_nanos(), s.end.as_nanos()))
                .collect();
            (rep.sent, rep.received, spans)
        } else {
            let rep = quickstart(rank, STEPS, EVERY);
            (rep.sent, rep.received, Vec::new())
        }
    });
    println!(
        "socket: wall-clock {:.6} s across {} processes",
        start.elapsed().as_secs_f64(),
        RANKS
    );
    if let Some(path) = trace {
        // Merge every rank's wall-clock spans into one sink: same file
        // format as the native trace, timelines from separate processes.
        let merged = ProfSink::new(Clock::Wall);
        for (me, (_, _, spans)) in results.iter().enumerate() {
            for (cat, s, e) in spans {
                merged.record_span(me, intern_cat(cat.clone()), SimTime(*s), SimTime(*e));
            }
        }
        write_trace(path, merged);
    }
    results.into_iter().map(|(sent, received, _)| PortableReport { sent, received }).collect()
}

/// Per-consumer fingerprints: `rank -> (updates consumed, fingerprint)`.
fn consumer_fingerprints(reports: &Reports) -> BTreeMap<usize, (usize, u64)> {
    reports
        .iter()
        .enumerate()
        .filter(|(_, rep)| !rep.received.is_empty())
        .map(|(r, rep)| (r, (rep.received.len(), fingerprint(&rep.received))))
        .collect()
}

fn show(label: &str, reports: &Reports) {
    for (rank, (n, fp)) in consumer_fingerprints(reports) {
        println!("{label} analysis rank {rank:>2}: {n:>5} updates  fingerprint {fp:#018x}");
    }
}

/// `out.trace.json` + `sim` -> `out.sim.trace.json` (suffix before the
/// conventional `.trace.json` double extension, else before `.json`).
fn suffixed(path: &str, backend: &str) -> String {
    for ext in [".trace.json", ".json"] {
        if let Some(stem) = path.strip_suffix(ext) {
            return format!("{stem}.{backend}{ext}");
        }
    }
    format!("{path}.{backend}")
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let backend = args
        .iter()
        .position(|a| a == "--backend")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("both")
        .to_string();
    let trace = args.iter().position(|a| a == "--trace").and_then(|i| args.get(i + 1)).cloned();

    match backend.as_str() {
        "sim" => show("sim:   ", &run_sim(trace.as_deref())),
        "native" => show("native:", &run_native(trace.as_deref())),
        "socket" => show("socket:", &run_socket(trace.as_deref())),
        "both" => {
            let sim_trace = trace.as_deref().map(|p| suffixed(p, "sim"));
            let native_trace = trace.as_deref().map(|p| suffixed(p, "native"));
            let sim = run_sim(sim_trace.as_deref());
            let native = run_native(native_trace.as_deref());
            show("sim:   ", &sim);
            show("native:", &native);
            let same = consumer_fingerprints(&sim) == consumer_fingerprints(&native);
            println!(
                "\nper-consumer payload multisets {}",
                if same { "MATCH across backends" } else { "DIFFER across backends" }
            );
            assert!(same, "backends disagree on consumed payloads");
        }
        other => {
            eprintln!("unknown backend {other:?}: use --backend sim|native|socket|both");
            std::process::exit(2);
        }
    }
}
