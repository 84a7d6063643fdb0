//! Engine perf-regression harness: microbenchmarks of the simulation
//! engine's hot paths, emitting machine-readable `BENCH_engine.json`.
//!
//! Four scenarios, each a self-contained deterministic world (fixed seed,
//! zero noise) timed in *wall clock* — virtual time measures the modelled
//! machine, wall time measures the simulator:
//!
//! - **incast** — one consumer drains N producers' large messages via
//!   `Src::Any` (the Fig. 5 master pattern). Large messages keep arrivals
//!   rx-NIC-serialized behind the consumer, so every receive exercises the
//!   mailbox's nothing-available-yet path — the quadratic hot spot this
//!   harness exists to watch.
//! - **pingpong** — two ranks alternating small sends; isolates per-event
//!   kernel overhead (token passing, heap churn) with a near-empty mailbox.
//! - **fanin** — a consumer polling many tags over `try_recv` +
//!   `wait_for_mail` while producers fan in; exercises probe misses and
//!   `park_until_change` wake-ups.
//! - **chaos** — a fault-free slice of the DST stream pipeline (credits,
//!   RoundRobin) across a few seeds; end-to-end engine throughput with the
//!   full mpistream protocol on top.
//! - **agg_incast** — the same all-to-one reduction as incast but routed
//!   through the fan-in-k tree-aggregation operators; gates the
//!   hierarchical-aggregation win (virtual end time far below the flat
//!   incast at the same rank count) so it stays a fact, not an anecdote.
//!
//! Per scenario we report wall-clock, messages, kernel event counters
//! ([`desim::EventStats`]), events per delivered message, and virtual end
//! time. `--quick` shrinks the workloads for the CI smoke step; `--baseline
//! <path>` splices a previously captured JSON verbatim under `"baseline"`
//! so before/after rides in one artifact; `--out <path>` overrides the
//! default `BENCH_engine.json` at the workspace root.
//!
//! `--check` turns the run into a regression *gate* against the baseline
//! (same mode required): per scenario, virtual end time and message count
//! must match the baseline exactly — the timing model is deterministic, so
//! any drift is a behaviour change, not noise — and the fastest of three
//! runs' wall time must stay within `ENGINE_BENCH_MAX_RATIO` (default 3.0)
//! of the baseline's. The generous wall ratio absorbs host-to-host
//! variance while still catching a reintroduced quadratic hot path, which
//! regresses by 10–50x.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bench_harness::{scenarios as sc, workspace_root};
use desim::EventStats;
use mpisim::{MachineConfig, NoiseModel, Src, Tag, World};
use mpistream::{ChannelConfig, Role, RoutePolicy, Stream, StreamChannel};

const SEED: u64 = 0xE26_1BE7;

/// One scenario's measured numbers.
struct Metrics {
    wall_secs: f64,
    msgs: u64,
    events: EventStats,
    sim_end_secs: f64,
}

impl Metrics {
    fn json(&self) -> String {
        let events_per_msg =
            if self.msgs > 0 { self.events.fired as f64 / self.msgs as f64 } else { 0.0 };
        let kmsgs_per_sec =
            if self.wall_secs > 0.0 { self.msgs as f64 / self.wall_secs / 1e3 } else { 0.0 };
        format!(
            concat!(
                "{{\"wall_ms\": {:.3}, \"msgs\": {}, ",
                "\"events_scheduled\": {}, \"events_coalesced\": {}, \"events_fired\": {}, ",
                "\"events_per_msg\": {:.3}, \"kmsgs_per_sec_wall\": {:.2}, ",
                "\"sim_end_ms\": {:.3}}}"
            ),
            self.wall_secs * 1e3,
            self.msgs,
            self.events.scheduled,
            self.events.coalesced,
            self.events.fired,
            events_per_msg,
            kmsgs_per_sec,
            self.sim_end_secs * 1e3,
        )
    }
}

fn quiet_world(seed: u64) -> World {
    World::new(MachineConfig { noise: NoiseModel::none(), ..MachineConfig::default() })
        .with_seed(seed)
}

/// The fastest of `runs` runs of one scenario. `--check` asks for three:
/// on a shared host a single quick run can read many times its usual wall
/// time, and the minimum is what the code can do. Everything but the wall
/// time is deterministic and must repeat in every run.
fn fastest_of(runs: usize, mut run: impl FnMut() -> Metrics) -> Metrics {
    let mut best = run();
    for _ in 1..runs {
        let m = run();
        assert_eq!(
            (m.msgs, m.events, m.sim_end_secs),
            (best.msgs, best.events, best.sim_end_secs),
            "simulated figures differ between runs"
        );
        if m.wall_secs < best.wall_secs {
            best = m;
        }
    }
    best
}

/// Time `run`, which returns a finished world outcome.
fn measure(run: impl FnOnce() -> mpisim::WorldOutcome) -> Metrics {
    let t0 = Instant::now();
    let out = run();
    let wall_secs = t0.elapsed().as_secs_f64();
    Metrics {
        wall_secs,
        msgs: out.msgs_sent,
        events: out.sim.events,
        sim_end_secs: out.sim.end_time.as_secs_f64(),
    }
}

/// The Fig. 5 master: rank 0 drains `producers * per_producer` large
/// messages via `Src::Any` while the rx NIC serializes arrivals.
fn incast(producers: usize, per_producer: u64) -> Metrics {
    const BYTES: u64 = 64 << 10;
    measure(move || {
        quiet_world(SEED).run_expect(producers + 1, move |rank| {
            let me = rank.world_rank();
            if me == 0 {
                let total = producers as u64 * per_producer;
                let mut sum = 0u64;
                for _ in 0..total {
                    let (v, _info) = rank.recv::<u64>(Src::Any, Tag::user(1));
                    sum = sum.wrapping_add(v);
                }
                assert!(sum > 0);
            } else {
                for i in 0..per_producer {
                    rank.send(0, Tag::user(1), BYTES, (me as u64) << 32 | i);
                }
            }
        })
    })
}

/// Two ranks alternating small messages: per-event kernel overhead.
fn pingpong(rounds: u64) -> Metrics {
    measure(move || {
        quiet_world(SEED).run_expect(2, move |rank| {
            let me = rank.world_rank();
            let peer = 1 - me;
            for i in 0..rounds {
                if me == 0 {
                    rank.send(peer, Tag::user(7), 8, i);
                    let (v, _) = rank.recv::<u64>(Src::Rank(peer), Tag::user(7));
                    assert_eq!(v, i);
                } else {
                    let (v, _) = rank.recv::<u64>(Src::Rank(peer), Tag::user(7));
                    rank.send(peer, Tag::user(7), 8, v);
                }
            }
        })
    })
}

/// A consumer polling `tags` distinct tags over `try_recv`, sleeping on
/// `wait_for_mail` between passes, while `producers` ranks fan in.
fn fanin(producers: usize, per_producer: u64, tags: u32) -> Metrics {
    measure(move || {
        quiet_world(SEED).run_expect(producers + 1, move |rank| {
            let me = rank.world_rank();
            if me == 0 {
                let total = producers as u64 * per_producer;
                let mut got = 0u64;
                while got < total {
                    let mut progressed = false;
                    for t in 1..=tags {
                        while rank.try_recv::<u64>(Src::Any, Tag::user(t)).is_some() {
                            got += 1;
                            progressed = true;
                        }
                    }
                    if !progressed && got < total {
                        rank.wait_for_mail();
                    }
                }
            } else {
                let tag = 1 + (me as u32 - 1) % tags;
                for i in 0..per_producer {
                    rank.send(0, Tag::user(tag), 4 << 10, i);
                }
            }
        })
    })
}

/// Fault-free slice of the chaos stream pipeline: 4 producers, 2
/// consumers, credit window 32, RoundRobin routing.
fn chaos_throughput(per_producer: u64, seeds: u64) -> Metrics {
    const N_PRODUCERS: usize = 4;
    const N_CONSUMERS: usize = 2;
    let mut total =
        Metrics { wall_secs: 0.0, msgs: 0, events: EventStats::default(), sim_end_secs: 0.0 };
    for seed in 0..seeds {
        let m = measure(move || {
            let config = ChannelConfig {
                element_bytes: 512,
                aggregation: 2,
                credits: Some(32),
                route: RoutePolicy::RoundRobin,
                credit_batch: 1,
                failure_timeout: None,
                replicas: 0,
                replication_patience: None,
            };
            let processed = Arc::new(AtomicU64::new(0));
            let p = processed.clone();
            let out = quiet_world(SEED ^ seed).run_expect(N_PRODUCERS + N_CONSUMERS, move |rank| {
                let comm = rank.comm_world();
                let me = rank.world_rank();
                let role = if me < N_PRODUCERS { Role::Producer } else { Role::Consumer };
                let ch = StreamChannel::create(rank, &comm, role, config.clone());
                let mut stream: Stream<u64> = Stream::attach(ch);
                match role {
                    Role::Producer => {
                        for i in 0..per_producer {
                            stream.isend(rank, (me as u64) << 32 | i);
                        }
                        stream.terminate(rank);
                    }
                    Role::Consumer => {
                        let outcome = stream.operate_outcome(rank, |_, _| {});
                        p.fetch_add(outcome.processed, Ordering::Relaxed);
                    }
                    Role::Bystander => unreachable!(),
                }
            });
            assert_eq!(
                processed.load(Ordering::Relaxed),
                per_producer * N_PRODUCERS as u64,
                "chaos scenario lost elements"
            );
            out
        });
        total.wall_secs += m.wall_secs;
        total.msgs += m.msgs;
        total.events.scheduled += m.events.scheduled;
        total.events.coalesced += m.events.coalesced;
        total.events.fired += m.events.fired;
        total.sim_end_secs += m.sim_end_secs;
    }
    total
}

/// The incast pattern routed through the tree-aggregation operators:
/// every rank contributes a 64 KiB partial, merged down a fan-in-`k`
/// reduction tree to rank 0. Same all-to-one semantics as `incast`, but
/// the virtual end time must reflect the flattened hierarchy.
fn agg_incast(ranks: usize, fan_in: usize) -> Metrics {
    const WIDTH: usize = 8 << 10; // u64s per partial = 64 KiB payloads
    measure(move || {
        let roots = Arc::new(AtomicU64::new(0));
        let r = roots.clone();
        let out = quiet_world(SEED).run_expect(ranks, move |rank| {
            let n = sc::agg_incast_rank(rank, fan_in, WIDTH);
            r.fetch_add(n, Ordering::Relaxed);
        });
        assert_eq!(roots.load(Ordering::Relaxed), 1, "agg_incast must elect exactly one root");
        out
    })
}

/// Pull a JSON number field out of `obj` (a flat `{...}` emitted by
/// [`Metrics::json`]) without a JSON dependency.
fn field(obj: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": ");
    let start = obj.find(&key)? + key.len();
    let rest = &obj[start..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// Slice one scenario's `{...}` object out of a full engine_bench JSON.
fn scenario_obj<'a>(json: &'a str, name: &str) -> Option<&'a str> {
    let key = format!("\"{name}\": {{");
    let start = json.find(&key)? + key.len() - 1;
    let end = json[start..].find('}')? + start;
    Some(&json[start..=end])
}

/// Gate the measured scenarios against a prior capture: exact virtual
/// times and message counts (determinism — any drift is a model change),
/// bounded wall-time ratio (a reintroduced hot path). Returns the number
/// of violations, printing each.
fn check_against(baseline: &str, mode: &str, scenarios: &[(&str, Metrics)]) -> u32 {
    if !baseline.contains(&format!("\"mode\": \"{mode}\"")) {
        eprintln!("check: baseline mode differs from --{mode} run; re-capture the baseline");
        return 1;
    }
    let max_ratio: f64 =
        std::env::var("ENGINE_BENCH_MAX_RATIO").ok().and_then(|v| v.parse().ok()).unwrap_or(3.0);
    let mut violations = 0;
    for (name, m) in scenarios {
        let Some(obj) = scenario_obj(baseline, name) else {
            eprintln!("check: baseline has no scenario \"{name}\"");
            violations += 1;
            continue;
        };
        let (Some(b_sim), Some(b_msgs), Some(b_wall)) =
            (field(obj, "sim_end_ms"), field(obj, "msgs"), field(obj, "wall_ms"))
        else {
            eprintln!("check: baseline scenario \"{name}\" is missing fields");
            violations += 1;
            continue;
        };
        let sim_ms = m.sim_end_secs * 1e3;
        // Emitted with 3 decimals; compare at that resolution.
        if format!("{sim_ms:.3}") != format!("{b_sim:.3}") {
            eprintln!("check: {name}: virtual end {sim_ms:.3} ms != baseline {b_sim:.3} ms");
            violations += 1;
        }
        if m.msgs as f64 != b_msgs {
            eprintln!("check: {name}: {} msgs != baseline {b_msgs}", m.msgs);
            violations += 1;
        }
        let wall_ms = m.wall_secs * 1e3;
        if b_wall > 0.0 && wall_ms > b_wall * max_ratio {
            eprintln!("check: {name}: wall {wall_ms:.0} ms > {max_ratio}x baseline {b_wall:.0} ms");
            violations += 1;
        }
    }
    violations
}

fn main() {
    let mut quick = false;
    let mut check = false;
    let mut out_path: Option<std::path::PathBuf> = None;
    let mut baseline_path: Option<std::path::PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--check" => check = true,
            "--out" => out_path = Some(args.next().expect("--out needs a path").into()),
            "--baseline" => {
                baseline_path = Some(args.next().expect("--baseline needs a path").into())
            }
            other => {
                eprintln!(
                    "unknown flag {other} (expected --quick/--check/--out <p>/--baseline <p>)"
                );
                std::process::exit(2);
            }
        }
    }
    if check && baseline_path.is_none() {
        eprintln!("--check needs --baseline <path> to compare against");
        std::process::exit(2);
    }
    let out_path = out_path.unwrap_or_else(|| workspace_root().join("BENCH_engine.json"));

    // Workload sizes: `--quick` is the CI smoke (seconds), full mode is the
    // recorded trajectory. The incast producer count in full mode is the
    // acceptance bar from the paper reproduction (Fig. 5 master at 4k).
    let (inc_n, inc_k) = if quick { (512, 2) } else { (4096, 8) };
    let pp_rounds = if quick { 2_000 } else { 20_000 };
    let (fan_n, fan_k, fan_tags) = if quick { (128, 4, 8) } else { (1024, 8, 16) };
    let (chaos_elems, chaos_seeds) = if quick { (500, 2) } else { (2_000, 4) };
    let (agg_n, agg_k) = if quick { (512, 8) } else { (4096, 8) };

    let mode = if quick { "quick" } else { "full" };
    let runs = if check { 3 } else { 1 };
    println!("engine_bench ({mode} mode, fastest of {runs})");
    let scenarios: Vec<(&str, Metrics)> = vec![
        ("incast", {
            println!("  incast: {inc_n} producers x {inc_k} msgs of 64 KiB ...");
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
        ("chaos", {
            println!("  chaos: {chaos_seeds} seeds x {chaos_elems} elems/producer ...");
            fastest_of(runs, || chaos_throughput(chaos_elems, chaos_seeds))
        }),
        ("agg_incast", {
            println!("  agg_incast: {agg_n} ranks, fan-in {agg_k}, 64 KiB partials ...");
            fastest_of(runs, || agg_incast(agg_n, agg_k))
        }),
    ];

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"schema\": \"engine_bench/v1\",\n  \"mode\": \"{mode}\",\n"));
    json.push_str("  \"scenarios\": {\n");
    for (i, (name, m)) in scenarios.iter().enumerate() {
        let sep = if i + 1 < scenarios.len() { "," } else { "" };
        json.push_str(&format!("    \"{name}\": {}{sep}\n", m.json()));
        println!(
            "  {name}: {:.0} ms wall, {} msgs, {:.1} events/msg",
            m.wall_secs * 1e3,
            m.msgs,
            if m.msgs > 0 { m.events.fired as f64 / m.msgs as f64 } else { 0.0 },
        );
    }
    json.push_str("  }");
    let baseline = baseline_path.as_ref().map(|bp| match std::fs::read_to_string(bp) {
        Ok(content) => content,
        Err(e) => {
            eprintln!("could not read baseline {}: {e}", bp.display());
            std::process::exit(if check { 1 } else { 2 });
        }
    });
    if let Some(content) = &baseline {
        // Splice the prior capture verbatim: before/after in one file.
        json.push_str(",\n  \"baseline\": ");
        let trimmed = content.trim();
        for (i, line) in trimmed.lines().enumerate() {
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
        let violations = check_against(baseline.as_deref().unwrap(), mode, &scenarios);
        if violations > 0 {
            eprintln!("check: {violations} regression(s) against the baseline");
            std::process::exit(1);
        }
        println!("check: all scenarios match the baseline (wall within ratio)");
    }
}
