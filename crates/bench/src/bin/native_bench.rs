//! Native-backend perf-regression harness: wall-clock throughput of the
//! thread backend (`crates/native`) on the portable benchmark scenarios,
//! emitting machine-readable `BENCH_native.json`.
//!
//! The scenario bodies live in [`bench_harness::scenarios`] and are shared
//! with `engine_bench` in pattern; here every rank is a real OS thread, so
//! the numbers measure the native mailbox, the collective topology and the
//! credit protocol against actual contention:
//!
//! - **incast** — N producer threads push into rank 0's single mailbox
//!   (`Src::Any` drain). The producer-side serialization hot spot.
//! - **pingpong** — two threads alternating; per-message latency with an
//!   empty mailbox (park/wake round-trips dominate).
//! - **fanin** — `try_recv` polling over many tags + `wait_for_mail`
//!   parking; probe misses and wake-up churn.
//! - **coll** — barrier/allreduce/allgatherv rounds; gather-all versus
//!   binomial-tree topology is exactly what this times.
//! - **stream** — the full mpistream protocol (credits, aggregation,
//!   RoundRobin) end to end, with a batched credit return path.
//! - **agg_incast** — the incast reduction routed through the fan-in-k
//!   tree-aggregation operators; every thread contributes a 64 KiB
//!   partial and blocks merge through per-block channels instead of all
//!   landing in one mailbox.
//!
//! Unlike the simulator the native backend is not deterministic in time,
//! so the JSON reports wall-clock throughput (kmsgs/s, kelems/s) next to
//! exact *analytic* message/element counts. `--check` gates against a
//! baseline: counts must match exactly (a drift is a scenario change),
//! the fastest of three runs' wall time must stay within
//! `NATIVE_BENCH_MAX_RATIO` (default 4.0) of the baseline's, and — the
//! acceptance bar for the mailbox overhaul —
//! the baseline artifact itself must record an incast throughput at least
//! `NATIVE_BENCH_MIN_SPEEDUP` times its embedded `"pre"` capture, taken
//! on the pre-overhaul backend with `--pre <json>` (default 3.0 for full
//! captures, 1.5 for quick ones, whose tiny incast is spawn-dominated).
//! The speedup gate reads only the committed artifact, so it holds on
//! any host; the wall-ratio gate compares the live run to the baseline's
//! wall times and absorbs host variance. `--audit <json>` applies just
//! the artifact-side gate to the committed full capture without running
//! a single scenario — the cheap, host-independent CI check.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bench_harness::{results_dir, scenarios as sc};
use native::NativeWorld;

/// One scenario's measured numbers.
struct Metrics {
    wall_secs: f64,
    msgs: u64,
    elems: u64,
}

impl Metrics {
    fn kmsgs_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.msgs as f64 / self.wall_secs / 1e3
        } else {
            0.0
        }
    }

    fn kelems_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.elems as f64 / self.wall_secs / 1e3
        } else {
            0.0
        }
    }

    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"wall_ms\": {:.3}, \"msgs\": {}, \"elems\": {}, ",
                "\"kmsgs_per_sec_wall\": {:.2}, \"kelems_per_sec_wall\": {:.2}}}"
            ),
            self.wall_secs * 1e3,
            self.msgs,
            self.elems,
            self.kmsgs_per_sec(),
            self.kelems_per_sec(),
        )
    }
}

/// Time one native world run; traffic counts come from the shape.
fn measure(shape: sc::Shape, body: impl Fn(&mut native::NativeRank) + Send + Sync) -> Metrics {
    let t0 = Instant::now();
    NativeWorld::new(shape.nprocs).run(body);
    Metrics { wall_secs: t0.elapsed().as_secs_f64(), msgs: shape.msgs, elems: shape.elems }
}

fn incast(producers: usize, per_producer: u64) -> Metrics {
    measure(sc::incast_shape(producers, per_producer), move |rank| {
        sc::incast_rank(rank, producers, per_producer, 64 << 10)
    })
}

fn pingpong(rounds: u64) -> Metrics {
    measure(sc::pingpong_shape(rounds), move |rank| sc::pingpong_rank(rank, rounds))
}

fn fanin(producers: usize, per_producer: u64, tags: u32) -> Metrics {
    measure(sc::fanin_shape(producers, per_producer), move |rank| {
        sc::fanin_rank(rank, producers, per_producer, tags, 4 << 10)
    })
}

fn coll(ranks: usize, iters: u64) -> Metrics {
    measure(sc::coll_shape(ranks, iters), move |rank| sc::coll_rank(rank, iters))
}

/// Time the coll scenario with the flat/tree threshold pinned (0 forces
/// binomial trees everywhere, `usize::MAX` forces the flat star).
fn coll_threshold(ranks: usize, iters: u64, threshold: usize) -> Metrics {
    let shape = sc::coll_shape(ranks, iters);
    let t0 = Instant::now();
    NativeWorld::new(shape.nprocs)
        .with_coll_flat_threshold(threshold)
        .run(move |rank| sc::coll_rank(rank, iters));
    Metrics { wall_secs: t0.elapsed().as_secs_f64(), msgs: shape.msgs, elems: shape.elems }
}

/// `--coll-sweep`: both collective geometries across group sizes — the
/// measurement behind the default flat threshold (DESIGN.md §13). Both
/// geometries send the same 2(size-1) messages per op; what differs is
/// the critical path (star: one hub; tree: log2(size) levels of context
/// switches), so wall time is the whole story. Returns the measured rows
/// `(ranks, flat_ms, tree_ms)` plus the recommended flat threshold — the
/// largest swept size at which the star is still at least as fast as the
/// binomial tree — so the artifact can record the tuning, not just the
/// raw table.
fn coll_sweep(iters: u64) -> (Vec<(usize, f64, f64)>, usize) {
    println!("coll geometry sweep: {iters} barrier+allreduce+allgatherv rounds per cell");
    println!("  ranks   flat ms   tree ms   flat/tree");
    let mut rows = Vec::new();
    for &ranks in &[2usize, 4, 8, 16, 32, 64] {
        let flat = coll_threshold(ranks, iters, usize::MAX);
        let tree = coll_threshold(ranks, iters, 0);
        println!(
            "  {ranks:>5} {:>9.1} {:>9.1} {:>10.2}",
            flat.wall_secs * 1e3,
            tree.wall_secs * 1e3,
            flat.wall_secs / tree.wall_secs
        );
        rows.push((ranks, flat.wall_secs * 1e3, tree.wall_secs * 1e3));
    }
    // Recommend the largest size at which the star still wins; a single
    // noisy cell (tiny groups are spawn-dominated) must not truncate the
    // walk, so take the max rather than stopping at the first tree win.
    let recommended = rows
        .iter()
        .filter(|&&(_, flat_ms, tree_ms)| flat_ms <= tree_ms)
        .map(|&(ranks, _, _)| ranks)
        .max()
        .unwrap_or_else(|| rows.first().map_or(2, |r| r.0));
    println!("  recommended flat threshold: {recommended}");
    (rows, recommended)
}

/// The incast reduction through the tree-aggregation operators: 64 KiB
/// partials merged down a fan-in-`k` tree to rank 0.
fn agg_incast(ranks: usize, fan_in: usize) -> Metrics {
    const WIDTH: usize = 8 << 10; // u64s per partial = 64 KiB payloads
    let shape = sc::agg_incast_shape(ranks, fan_in);
    let roots = Arc::new(AtomicU64::new(0));
    let r = roots.clone();
    let m = measure(shape, move |rank| {
        let n = sc::agg_incast_rank(rank, fan_in, WIDTH);
        r.fetch_add(n, Ordering::Relaxed);
    });
    assert_eq!(roots.load(Ordering::Relaxed), 1, "agg_incast must elect exactly one root");
    m
}

fn stream(producers: usize, consumers: usize, per_producer: u64, credit_batch: usize) -> Metrics {
    let shape = sc::stream_shape(producers, consumers, per_producer);
    let processed = Arc::new(AtomicU64::new(0));
    let p = processed.clone();
    let m = measure(shape, move |rank| {
        let n = sc::stream_rank(rank, producers, per_producer, credit_batch);
        p.fetch_add(n, Ordering::Relaxed);
    });
    assert_eq!(processed.load(Ordering::Relaxed), shape.elems, "stream scenario lost elements");
    m
}

/// Pull a JSON number field out of a flat `{...}` object (same no-dep
/// parsing as `engine_bench`).
fn field(obj: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": ");
    let start = obj.find(&key)? + key.len();
    let rest = &obj[start..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// Slice one scenario's `{...}` object out of a section of the JSON.
fn scenario_obj<'a>(json: &'a str, name: &str) -> Option<&'a str> {
    let key = format!("\"{name}\": {{");
    let start = json.find(&key)? + key.len() - 1;
    let end = json[start..].find('}')? + start;
    Some(&json[start..=end])
}

/// The fastest of `runs` runs of one scenario. `--check` asks for three:
/// on a shared host a single quick run can read many times its usual wall
/// time, which the ratio gate then reports as a regression; the minimum is
/// what the code can do. The counts must repeat in every run.
fn fastest_of(runs: usize, mut run: impl FnMut() -> Metrics) -> Metrics {
    let mut best = run();
    for _ in 1..runs {
        let m = run();
        assert_eq!((m.msgs, m.elems), (best.msgs, best.elems), "counts differ between runs");
        if m.wall_secs < best.wall_secs {
            best = m;
        }
    }
    best
}

/// Gate this run against a prior capture. Exact counts, bounded wall
/// ratio, and the committed artifact's own incast speedup over its `"pre"`
/// section. Returns the number of violations, printing each.
fn check_against(baseline: &str, mode: &str, scenarios: &[(&str, Metrics)]) -> u32 {
    if !baseline.contains(&format!("\"mode\": \"{mode}\"")) {
        eprintln!("check: baseline mode differs from --{mode} run; re-capture the baseline");
        return 1;
    }
    let max_ratio: f64 =
        std::env::var("NATIVE_BENCH_MAX_RATIO").ok().and_then(|v| v.parse().ok()).unwrap_or(4.0);
    // The acceptance bar (3x) is defined at the full workload; the quick
    // incast is small enough that thread spawn/join dominates the wall
    // time, so its embedded pre capture can only document a smaller win.
    let default_speedup = if mode == "full" { 3.0 } else { 1.5 };
    let min_speedup: f64 = std::env::var("NATIVE_BENCH_MIN_SPEEDUP")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default_speedup);
    let mut violations = 0;
    // Split off the "pre" section so scenario lookups hit the current
    // capture, not the embedded pre-overhaul one (same scenario names).
    let pre_at = baseline.find("\"pre\":");
    let current = &baseline[..pre_at.unwrap_or(baseline.len())];
    for (name, m) in scenarios {
        let Some(obj) = scenario_obj(current, name) else {
            eprintln!("check: baseline has no scenario \"{name}\"");
            violations += 1;
            continue;
        };
        let (Some(b_msgs), Some(b_elems), Some(b_wall)) =
            (field(obj, "msgs"), field(obj, "elems"), field(obj, "wall_ms"))
        else {
            eprintln!("check: baseline scenario \"{name}\" is missing fields");
            violations += 1;
            continue;
        };
        if m.msgs as f64 != b_msgs || m.elems as f64 != b_elems {
            eprintln!(
                "check: {name}: counts ({} msgs, {} elems) != baseline ({b_msgs}, {b_elems}); \
                 the scenario workload changed — re-capture the baseline",
                m.msgs, m.elems
            );
            violations += 1;
        }
        let wall_ms = m.wall_secs * 1e3;
        if b_wall > 0.0 && wall_ms > b_wall * max_ratio {
            eprintln!("check: {name}: wall {wall_ms:.0} ms > {max_ratio}x baseline {b_wall:.0} ms");
            violations += 1;
        }
    }
    // Acceptance bar: the artifact must document the overhaul's incast
    // speedup over the pre-overhaul capture embedded at `"pre"`.
    match pre_at.map(|i| &baseline[i..]) {
        None => {
            eprintln!("check: baseline has no \"pre\" section (capture one with --pre)");
            violations += 1;
        }
        Some(pre) => {
            let post_rate = scenario_obj(current, "incast")
                .and_then(|o| field(o, "kmsgs_per_sec_wall"))
                .unwrap_or(0.0);
            let pre_rate = scenario_obj(pre, "incast")
                .and_then(|o| field(o, "kmsgs_per_sec_wall"))
                .unwrap_or(f64::INFINITY);
            let speedup = post_rate / pre_rate;
            if speedup < min_speedup {
                eprintln!(
                    "check: baseline incast speedup {speedup:.2}x (post {post_rate:.0} vs pre \
                     {pre_rate:.0} kmsgs/s) is below the required {min_speedup}x"
                );
                violations += 1;
            } else {
                println!("check: baseline incast speedup {speedup:.2}x over pre-overhaul capture");
            }
        }
    }
    violations
}

/// `--audit`: validate a committed artifact without running anything.
/// The speedup gate reads only numbers recorded inside the artifact, so
/// this enforces the overhaul's acceptance bar (full-mode incast at
/// least `NATIVE_BENCH_MIN_SPEEDUP`x its embedded pre-overhaul capture)
/// on any host, in milliseconds — CI runs it against the committed
/// full baseline while the live quick gate absorbs host variance.
fn audit(artifact: &str) -> u32 {
    let min_speedup: f64 =
        std::env::var("NATIVE_BENCH_MIN_SPEEDUP").ok().and_then(|v| v.parse().ok()).unwrap_or(3.0);
    if !artifact.contains("\"mode\": \"full\"") {
        eprintln!("audit: artifact is not a full-mode capture");
        return 1;
    }
    let Some(pre_at) = artifact.find("\"pre\":") else {
        eprintln!("audit: artifact has no \"pre\" section (capture one with --pre)");
        return 1;
    };
    let post_rate = scenario_obj(&artifact[..pre_at], "incast")
        .and_then(|o| field(o, "kmsgs_per_sec_wall"))
        .unwrap_or(0.0);
    let pre_rate = scenario_obj(&artifact[pre_at..], "incast")
        .and_then(|o| field(o, "kmsgs_per_sec_wall"))
        .unwrap_or(f64::INFINITY);
    let speedup = post_rate / pre_rate;
    if speedup < min_speedup {
        eprintln!(
            "audit: incast speedup {speedup:.2}x (post {post_rate:.0} vs pre {pre_rate:.0} \
             kmsgs/s) is below the required {min_speedup}x"
        );
        return 1;
    }
    println!("audit: incast speedup {speedup:.2}x over pre-overhaul capture (>= {min_speedup}x)");
    0
}

fn main() {
    let mut quick = false;
    let mut check = false;
    let mut out_path: Option<std::path::PathBuf> = None;
    let mut baseline_path: Option<std::path::PathBuf> = None;
    let mut pre_path: Option<std::path::PathBuf> = None;
    let mut audit_path: Option<std::path::PathBuf> = None;
    let mut notes: Option<String> = None;
    let mut sweep = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--check" => check = true,
            "--coll-sweep" => sweep = true,
            "--out" => out_path = Some(args.next().expect("--out needs a path").into()),
            "--baseline" => {
                baseline_path = Some(args.next().expect("--baseline needs a path").into())
            }
            "--pre" => pre_path = Some(args.next().expect("--pre needs a path").into()),
            "--audit" => audit_path = Some(args.next().expect("--audit needs a path").into()),
            "--notes" => notes = Some(args.next().expect("--notes needs a string")),
            other => {
                eprintln!(
                    "unknown flag {other} (expected --quick/--check/--coll-sweep/--out <p>\
                     /--baseline <p>/--pre <p>/--audit <p>/--notes <s>)"
                );
                std::process::exit(2);
            }
        }
    }
    if sweep {
        let (rows, recommended) = coll_sweep(if quick { 50 } else { 200 });
        // Auto-emit the tuning result into the artifact notes so the
        // committed capture records the recommendation, not just a table
        // scrolled off a terminal.
        let auto = format!("recommended flat threshold: {recommended}");
        let note = match &notes {
            Some(n) => format!("{n}; {auto}"),
            None => auto,
        };
        let out_path = out_path.unwrap_or_else(|| results_dir().join("BENCH_coll_sweep.json"));
        let mut json = String::new();
        json.push_str("{\n  \"schema\": \"native_bench_coll_sweep/v1\",\n");
        json.push_str(&format!(
            "  \"notes\": \"{}\",\n",
            note.replace('\\', "\\\\").replace('"', "\\\"")
        ));
        json.push_str(&format!("  \"recommended_flat_threshold\": {recommended},\n"));
        json.push_str("  \"rows\": [\n");
        for (i, (ranks, flat_ms, tree_ms)) in rows.iter().enumerate() {
            let sep = if i + 1 < rows.len() { "," } else { "" };
            json.push_str(&format!(
                "    {{\"ranks\": {ranks}, \"flat_ms\": {flat_ms:.3}, \"tree_ms\": {tree_ms:.3}}}{sep}\n"
            ));
        }
        json.push_str("  ]\n}\n");
        match std::fs::write(&out_path, &json) {
            Ok(()) => println!("wrote {}", out_path.display()),
            Err(e) => {
                eprintln!("could not write {}: {e}", out_path.display());
                std::process::exit(1);
            }
        }
        return;
    }
    if let Some(ap) = &audit_path {
        let artifact = match std::fs::read_to_string(ap) {
            Ok(content) => content,
            Err(e) => {
                eprintln!("could not read {}: {e}", ap.display());
                std::process::exit(1);
            }
        };
        std::process::exit(if audit(&artifact) > 0 { 1 } else { 0 });
    }
    if check && baseline_path.is_none() {
        eprintln!("--check needs --baseline <path> to compare against");
        std::process::exit(2);
    }
    let out_path = out_path.unwrap_or_else(|| results_dir().join("BENCH_native.json"));

    // Full mode carries the acceptance workload (incast at 256 real
    // producer threads); quick mode is the CI smoke, sized to finish in
    // seconds even on the pre-overhaul backend.
    let (inc_n, inc_k) = if quick { (64, 200) } else { (256, 2_000) };
    let pp_rounds = if quick { 10_000 } else { 50_000 };
    let (fan_n, fan_k, fan_tags) = if quick { (16, 100, 8) } else { (64, 250, 16) };
    let (coll_n, coll_iters) = if quick { (16, 50) } else { (64, 200) };
    let (st_p, st_c, st_k, st_b) = if quick { (4, 2, 5_000, 8) } else { (8, 4, 25_000, 8) };
    let (agg_n, agg_k) = if quick { (64, 8) } else { (256, 8) };

    let mode = if quick { "quick" } else { "full" };
    let runs = if check { 3 } else { 1 };
    println!("native_bench ({mode} mode, fastest of {runs})");
    let scenarios: Vec<(&str, Metrics)> = vec![
        ("incast", {
            println!("  incast: {inc_n} producer threads x {inc_k} msgs ...");
            fastest_of(runs, || incast(inc_n, inc_k))
        }),
        ("pingpong", {
            println!("  pingpong: {pp_rounds} rounds ...");
            fastest_of(runs, || pingpong(pp_rounds))
        }),
        ("fanin", {
            println!("  fanin: {fan_n} producers x {fan_k} msgs over {fan_tags} tags ...");
            fastest_of(runs, || fanin(fan_n, fan_k, fan_tags))
        }),
        ("coll", {
            println!("  coll: {coll_n} ranks x {coll_iters} rounds ...");
            fastest_of(runs, || coll(coll_n, coll_iters))
        }),
        ("stream", {
            println!("  stream: {st_p}p/{st_c}c x {st_k} elems, credit_batch {st_b} ...");
            fastest_of(runs, || stream(st_p, st_c, st_k, st_b))
        }),
        ("agg_incast", {
            println!("  agg_incast: {agg_n} ranks, fan-in {agg_k}, 64 KiB partials ...");
            fastest_of(runs, || agg_incast(agg_n, agg_k))
        }),
    ];

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"schema\": \"native_bench/v1\",\n  \"mode\": \"{mode}\",\n"));
    if let Some(n) = &notes {
        json.push_str(&format!(
            "  \"notes\": \"{}\",\n",
            n.replace('\\', "\\\\").replace('"', "\\\"")
        ));
    }
    json.push_str("  \"scenarios\": {\n");
    for (i, (name, m)) in scenarios.iter().enumerate() {
        let sep = if i + 1 < scenarios.len() { "," } else { "" };
        json.push_str(&format!("    \"{name}\": {}{sep}\n", m.json()));
        println!(
            "  {name}: {:.0} ms wall, {:.0} kmsgs/s, {:.0} kelems/s",
            m.wall_secs * 1e3,
            m.kmsgs_per_sec(),
            m.kelems_per_sec(),
        );
    }
    json.push_str("  }");
    let read_or_die = |p: &std::path::PathBuf| match std::fs::read_to_string(p) {
        Ok(content) => content,
        Err(e) => {
            eprintln!("could not read {}: {e}", p.display());
            std::process::exit(if check { 1 } else { 2 });
        }
    };
    // Splice a pre-overhaul capture verbatim: before/after in one file,
    // and the material for the --check speedup gate.
    if let Some(pp) = &pre_path {
        let content = read_or_die(pp);
        json.push_str(",\n  \"pre\": ");
        for (i, line) in content.trim().lines().enumerate() {
            if i > 0 {
                json.push_str("\n  ");
            }
            json.push_str(line);
        }
    }
    json.push_str("\n}\n");

    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("wrote {}", out_path.display()),
        Err(e) => {
            eprintln!("could not write {}: {e}", out_path.display());
            std::process::exit(1);
        }
    }
    if check {
        let baseline = read_or_die(baseline_path.as_ref().unwrap());
        let violations = check_against(&baseline, mode, &scenarios);
        if violations > 0 {
            eprintln!("check: {violations} regression(s) against the baseline");
            std::process::exit(1);
        }
        println!("check: all scenarios within bounds of the baseline");
    }
}
