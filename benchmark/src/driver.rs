//! The driver: launches, pooling, checks, and the printed result.

use std::collections::BTreeMap;
use std::os::unix::process::CommandExt;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use crate::cal::{calibrated_ns, Calibrator, Kernel};
use crate::host::{self, mono_ns};
use crate::probes;
use crate::stats::{median, quantile, quartiles, tail_percentile};
use crate::traced::{intern, Agg};
use crate::workloads::{LaunchArgs, Slices, Workload, Wrap, ALL, DEFAULT_SEED, SIM_RANKS};

/// Launches pooled into one end-to-end run. Each is a process of its own,
/// so that whatever is fixed for a process's lifetime (address-space and
/// heap layout, which physical pages it got) averages out inside a run,
/// and so that a run holds a dozen set-up samples rather than one.
const LAUNCHES: u32 = 12;
/// `--seconds` when not given: `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 20;
/// Timed slices of a `--quick` launch.
const QUICK_SLICES: u32 = 8;
/// A launch that has not finished this long after its slice budget is
/// reported as wedged and killed.
const LAUNCH_GRACE: Duration = Duration::from_secs(60);

/// `(name, unit, bound)`: what `--trace 0` reports for every workload.
pub const END_TO_END: [(&str, &str, f64); 3] =
    [("ops_per_s", "1/s", 0.15), ("setup_s", "s", 0.25), ("peak_rss_mb", "MiB", 0.10)];

/// `(name, unit)`: what `--trace 1` reports, in `BENCHMARK.json`'s order.
/// README.md says how each is measured and what it should move.
pub const PER_LAYER: [(&str, &str); 64] = [
    ("core.isend_self_ns", "ns/elem"),
    ("core.operate_self_ns", "ns/elem"),
    ("core.data_msgs_per_elem", "count"),
    ("core.credit_msgs_per_elem", "count"),
    ("core.credit_wait_share.native_fine", "ratio"),
    ("core.credit_wait_share.socket_fine", "ratio"),
    ("core.credit_wait_share.socket_bulk", "ratio"),
    ("core.data_wait_share.native_fine", "ratio"),
    ("core.data_wait_share.socket_fine", "ratio"),
    ("core.data_wait_share.socket_bulk", "ratio"),
    ("core.wire.encode_ns.u64", "ns"),
    ("core.wire.decode_ns.u64", "ns"),
    ("core.wire.encode_ns_per_kib.f64", "ns/KiB"),
    ("core.wire.decode_ns_per_kib.f64", "ns/KiB"),
    ("core.wire.encode_allocs.f64", "count"),
    ("core.channel_create_us.native", "us"),
    ("core.channel_create_us.socket", "us"),
    ("native.send_ns", "ns/msg"),
    ("native.recv_ns", "ns/msg"),
    ("native.mailbox.push_take_ns", "ns"),
    ("native.mailbox.handoff_ns", "ns"),
    ("native.ctx_switches_per_elem", "count"),
    ("native.allocs_per_elem", "count"),
    ("native.world_launch_us", "us"),
    ("socket.send_ns.small", "ns/msg"),
    ("socket.send_ns.bulk", "ns/msg"),
    ("socket.recv_ns.small", "ns/msg"),
    ("socket.recv_ns.bulk", "ns/msg"),
    ("socket.frame.write_ns.small", "ns/frame"),
    ("socket.frame.write_ns.bulk", "ns/frame"),
    ("socket.frame.read_ns.small", "ns/frame"),
    ("socket.frame.read_ns.bulk", "ns/frame"),
    ("socket.frame.write_calls_per_frame", "count"),
    ("socket.frame.read_calls_per_frame", "count"),
    ("socket.reader.handoff_ns", "ns/frame"),
    ("socket.allocs_per_elem.producer", "count"),
    ("socket.allocs_per_elem.consumer", "count"),
    ("socket.allocs_per_elem.bulk_producer", "count"),
    ("socket.allocs_per_elem.bulk_consumer", "count"),
    ("socket.ctx_switches_per_elem", "count"),
    ("socket.ctx_switches_per_rtt", "count"),
    ("socket.minor_faults_per_elem.bulk", "count"),
    ("socket.world_launch_ms", "ms"),
    ("socket.rtt_p50_us", "us"),
    ("socket.rtt_p99_us", "us"),
    ("desim.events_fired", "count"),
    ("desim.events_per_msg", "count"),
    ("mpisim.msgs_sent", "count"),
    ("apps.fig5.virtual_makespan_s", "s"),
    ("desim.host_us_per_msg.p32", "us"),
    ("desim.host_us_per_msg.p64", "us"),
    ("desim.scaling_ratio", "ratio"),
    ("desim.ctx_switches_per_msg", "count"),
    ("desim.spawn_us_per_rank", "us"),
    ("mpisim.pingpong_host_us_per_msg", "us"),
    ("replica.vsr.commit_us", "us"),
    ("replica.vsr.msgs_per_commit", "count"),
    ("streamprof.o_us.native", "us"),
    ("streamprof.o_us.socket", "us"),
    ("streamprof.trace_overhead_ratio", "ratio"),
    ("host.cal_ms", "ms"),
    ("host.cal_spread", "ratio"),
    ("host.raw_ops_per_s", "1/s"),
    ("host.slice_p90_over_p50", "ratio"),
];

/// The per-layer metrics that need the simulator's scaling-point pass.
const SCALING_METRICS: [&str; 2] = ["desim.host_us_per_msg.p64", "desim.scaling_ratio"];

// ---------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------

struct Opts {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
}

const USAGE: &str = "usage: run.sh [--workload <name>] [--seed <u64>] [--seconds <n>] \
                     [--trace [0|1]] [--quick]\n\
                     workloads: socket_fine socket_bulk socket_pingpong native_fine sim_fig5 \
                     (default: all five)";

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workloads: ALL.to_vec(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                let w =
                    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
                o.workloads = vec![w];
            }
            "--seed" => o.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&o.seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--trace" => {
                // `--trace 0|1` for the harness, bare `--trace` by hand.
                o.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => o.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(o)
}

// ---------------------------------------------------------------------
// One launch
// ---------------------------------------------------------------------

#[derive(Clone, Copy)]
struct SliceSample {
    wall_ns: u64,
    cal_before: u64,
    cal_after: u64,
    ops: u64,
    failed: u64,
}

/// A launch's parsed report (see `workloads::Report` for the lines).
#[derive(Default)]
struct LaunchResult {
    slices: Vec<SliceSample>,
    /// Calibrated seconds from the driver's spawn call to the end of the
    /// warm-up slice.
    setup_s: f64,
    rss_mib: Vec<f64>,
    aggs: BTreeMap<(usize, &'static str), Agg>,
    spans: Vec<(usize, &'static str, u64, u64)>,
    vals: BTreeMap<String, f64>,
}

struct Driver {
    cal_msg: Calibrator,
    cal_bulk: Calibrator,
    exe: PathBuf,
    out_dir: PathBuf,
    tmp_dir: PathBuf,
    launches_made: u32,
}

impl Driver {
    fn new() -> Result<Driver, String> {
        let out_dir = crate::bench_dir().join("out");
        // Socket worlds bind their sockets under $TMPDIR; keep that inside
        // the benchmark's own directory (and short: a socket path holds
        // 108 bytes, which is why `run.sh` passes a relative directory).
        let tmp_dir = out_dir.join("tmp");
        std::fs::create_dir_all(&tmp_dir)
            .map_err(|e| format!("cannot create {}: {e}", tmp_dir.display()))?;
        let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
        // `cal_bulk` allocates: it runs under the same allocator policy
        // here as in the timing rank of the workload it calibrates.
        host::pin_malloc_thresholds();
        Ok(Driver {
            cal_msg: Calibrator::new(Kernel::Msg),
            cal_bulk: Calibrator::new(Kernel::Bulk),
            exe,
            out_dir,
            tmp_dir,
            launches_made: 0,
        })
    }

    /// Run one launch as a child process, bounded by a wall-clock
    /// timeout, and parse what it reports.
    fn launch(&mut self, spec: &LaunchArgs) -> Result<LaunchResult, String> {
        let w = spec.workload;
        self.launches_made += 1;
        let progress =
            self.out_dir.join(format!("progress-{}-{}", std::process::id(), self.launches_made));
        let _ = std::fs::remove_file(&progress);
        // Its slice budget (a generous second per slice when counted).
        let budget = match spec.slices {
            Slices::Count(n) => Duration::from_secs(u64::from(n)),
            Slices::Budget(ns) => Duration::from_nanos(ns),
        };
        let mut cmd = Command::new(&self.exe);
        cmd.arg("launch")
            .args(spec.to_args())
            .env("STREAMBENCH_PROGRESS", &progress)
            .env("TMPDIR", &self.tmp_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            // Its own process group, so a wedged launch can be killed
            // together with the rank processes it spawned.
            .process_group(0);

        let cal0 = match w.kernel() {
            Kernel::Msg => self.cal_msg.run(),
            Kernel::Bulk => self.cal_bulk.run(),
        };
        let t0 = mono_ns();
        let child = cmd.spawn().map_err(|e| format!("cannot spawn a launch: {e}"))?;
        let pid = child.id();
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = std::thread::spawn(move || {
            let _ = tx.send(child.wait_with_output());
        });
        let timeout = budget + LAUNCH_GRACE;
        let waited = rx.recv_timeout(timeout);
        if waited.is_err() {
            host::kill_group(pid);
        }
        // The launch itself is reaped by the waiter, killed or not.
        waiter.join().map_err(|_| "the launch waiter thread panicked".to_string())?;
        let at = std::fs::read_to_string(&progress).unwrap_or_default();
        let _ = std::fs::remove_file(&progress);
        let output = match waited {
            Ok(output) => output.map_err(|e| format!("waiting for a launch: {e}"))?,
            Err(_) => {
                self.remove_scratch_of(pid);
                return Err(format!(
                    "{} launch {} wedged in slice {} (no result {} s after its spawn): killed",
                    w.name(),
                    self.launches_made,
                    at.trim(),
                    timeout.as_secs()
                ));
            }
        };
        if !output.status.success() {
            self.remove_scratch_of(pid);
            return Err(format!(
                "{} launch {} ended with {} in slice {}",
                w.name(),
                self.launches_made,
                output.status,
                at.trim()
            ));
        }
        let text = String::from_utf8_lossy(&output.stdout);
        parse_report(&text, t0, cal0).map_err(|e| format!("{} launch report: {e}", w.name()))
    }

    /// A killed socket launcher leaves its `mpws-<pid>-*` scratch
    /// directory behind; the launcher's own guard only runs on unwind.
    fn remove_scratch_of(&self, pid: u32) {
        let prefix = format!("mpws-{pid}-");
        let Ok(entries) = std::fs::read_dir(&self.tmp_dir) else { return };
        for e in entries.flatten() {
            if e.file_name().to_string_lossy().starts_with(&prefix) {
                let _ = std::fs::remove_dir_all(e.path());
            }
        }
    }
}

fn parse_report(text: &str, t0: u64, cal0: u64) -> Result<LaunchResult, String> {
    let mut r = LaunchResult::default();
    let mut setup = None;
    for line in text.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        let bad = || format!("malformed line {line:?}");
        let int = |i: usize| -> Result<u64, String> {
            f.get(i).and_then(|v| v.parse().ok()).ok_or_else(bad)
        };
        match f.first().copied() {
            Some("slice") => r.slices.push(SliceSample {
                wall_ns: int(2)?,
                cal_before: int(3)?,
                cal_after: int(4)?,
                ops: int(5)?,
                failed: int(6)?,
            }),
            Some("setup") => setup = Some((int(1)?, int(2)?)),
            Some("rss") => r.rss_mib.push(f.get(1).and_then(|v| v.parse().ok()).ok_or_else(bad)?),
            Some("agg") => {
                let name = f.get(2).and_then(|n| intern(n)).ok_or_else(bad)?;
                let agg = Agg { count: int(3)?, total_ns: int(4)?, self_ns: int(5)? };
                r.aggs.insert((int(1)? as usize, name), agg);
            }
            Some("span") => {
                let name = f.get(2).and_then(|n| intern(n)).ok_or_else(bad)?;
                r.spans.push((int(1)? as usize, name, int(3)?, int(4)?));
            }
            Some("val") => {
                let key = f.get(1).ok_or_else(bad)?;
                let v: f64 = f.get(2).and_then(|v| v.parse().ok()).ok_or_else(bad)?;
                r.vals.insert((*key).to_string(), v);
            }
            _ => return Err(bad()),
        }
    }
    let (end, cal_after) = setup.ok_or("no setup line")?;
    r.setup_s = calibrated_ns(end.saturating_sub(t0), cal0, cal_after) / 1e9;
    if r.slices.is_empty() || r.rss_mib.is_empty() {
        return Err("no slice or rss lines".into());
    }
    if r.vals.get("stray_elems").is_some_and(|&n| n != 0.0) {
        return Err("elements arrived after the last slice".into());
    }
    Ok(r)
}

// ---------------------------------------------------------------------
// Pooling launches into a run
// ---------------------------------------------------------------------

/// The pooled slices of one or more launches of one workload.
struct Pooled {
    /// Calibrated ops/s of every timed slice.
    rates: Vec<f64>,
    /// The same slices on the raw wall clock.
    raw_rates: Vec<f64>,
    wall_ms: Vec<f64>,
    cal_ms: Vec<f64>,
    setups: Vec<f64>,
    /// Per launch, the largest `VmHWM` among its processes.
    peak_rss_mib: Vec<f64>,
    attempted: u64,
    failed: u64,
}

fn pool(launches: &[LaunchResult]) -> Pooled {
    let mut p = Pooled {
        rates: Vec::new(),
        raw_rates: Vec::new(),
        wall_ms: Vec::new(),
        cal_ms: Vec::new(),
        setups: Vec::new(),
        peak_rss_mib: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    for l in launches {
        for s in &l.slices {
            let ns = calibrated_ns(s.wall_ns, s.cal_before, s.cal_after);
            p.rates.push(s.ops as f64 * 1e9 / ns);
            p.raw_rates.push(s.ops as f64 * 1e9 / s.wall_ns as f64);
            p.wall_ms.push(s.wall_ns as f64 / 1e6);
            p.cal_ms.extend([s.cal_before as f64 / 1e6, s.cal_after as f64 / 1e6]);
            p.attempted += s.ops;
            p.failed += s.failed;
        }
        // Warm-up operations are checked too; they count when they fail.
        let warm_up_failed = l.vals.get("warm_up_failed").map_or(0, |&n| n as u64);
        p.attempted += warm_up_failed;
        p.failed += warm_up_failed;
        p.setups.push(l.setup_s);
        p.peak_rss_mib.push(l.rss_mib.iter().copied().fold(0.0, f64::max));
    }
    p
}

impl Pooled {
    fn ops_per_s(&self) -> f64 {
        median(&self.rates)
    }

    fn end_to_end(&self) -> [f64; 3] {
        // Memory is the lower quartile of the launch peaks (the third
        // smallest of twelve). Luck only ever adds to what the program
        // needs (which arena a thread drew, which file pages fault-around
        // mapped), so the low side is the steady one; but the minimum is
        // one lucky launch: five sixths of `native_fine`'s peak are pages
        // of the binary, and over ten runs of the same build its minimum
        // moved by 7.5 % where the quartile moved by 3 % (README.md).
        let low = quantile(&self.peak_rss_mib, 0.25);
        [self.ops_per_s(), median(&self.setups), low]
    }
}

/// An uninstrumented launch of `w` at its usual size.
fn plain(workload: Workload, seed: u64, slices: Slices) -> LaunchArgs {
    LaunchArgs { workload, seed, slices, wrap: Wrap::Plain, sim_ranks: SIM_RANKS }
}

/// One end-to-end run of `w`: [`LAUNCHES`] plain launches sharing the
/// `seconds` budget (one launch of [`QUICK_SLICES`] slices when `quick`).
fn measure(
    d: &mut Driver,
    w: Workload,
    seed: u64,
    seconds: u64,
    quick: bool,
) -> Result<Pooled, String> {
    let (n, slices) = if quick {
        (1, Slices::Count(QUICK_SLICES))
    } else {
        (LAUNCHES, Slices::Budget(seconds * 1_000_000_000 / u64::from(LAUNCHES)))
    };
    let spec = plain(w, seed, slices);
    let launches = (0..n).map(|_| d.launch(&spec)).collect::<Result<Vec<_>, _>>()?;
    Ok(pool(&launches))
}

// ---------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------

type Layers = BTreeMap<&'static str, f64>;

fn agg_of(l: &LaunchResult, rank: usize, name: &str) -> Agg {
    intern(name).and_then(|n| l.aggs.get(&(rank, n))).copied().unwrap_or_default()
}

/// Mean ns per span over `names`, all ranks.
fn mean_ns(l: &LaunchResult, names: &[&str]) -> f64 {
    let mut all = Agg::default();
    for ((_, name), agg) in &l.aggs {
        if names.contains(name) {
            all.total_ns += agg.total_ns;
            all.count += agg.count;
        }
    }
    all.mean_ns()
}

fn val(l: &LaunchResult, key: &str) -> f64 {
    l.vals.get(key).copied().unwrap_or(f64::NAN)
}

fn ops_and_wall(l: &LaunchResult) -> (f64, f64) {
    let ops: u64 = l.slices.iter().map(|s| s.ops).sum();
    let wall: u64 = l.slices.iter().map(|s| s.wall_ns).sum();
    (ops as f64, wall as f64)
}

/// The shares of slice wall time the producer (rank 0 in every stream
/// workload) spent parked for credit and the consumer (rank 1) for data.
fn wait_shares(
    l: &LaunchResult,
    credit_name: &'static str,
    data_name: &'static str,
    out: &mut Layers,
) {
    let (_, wall) = ops_and_wall(l);
    let credit = agg_of(l, 0, "recv.wait.credit").total_ns;
    let data = agg_of(l, 1, "recv.wait.data").total_ns + agg_of(l, 1, "wait_for_mail").total_ns;
    out.insert(credit_name, credit as f64 / wall);
    out.insert(data_name, data as f64 / wall);
}

fn layers_native_fine(l: &LaunchResult, out: &mut Layers) {
    let (n, _) = ops_and_wall(l);
    out.insert("core.isend_self_ns", agg_of(l, 0, "stream.isend").self_ns as f64 / n);
    out.insert("core.operate_self_ns", agg_of(l, 1, "stream.operate").self_ns as f64 / n);
    out.insert("native.send_ns", mean_ns(l, &["send.data", "send.credit", "send.other"]));
    out.insert(
        "native.recv_ns",
        mean_ns(l, &["recv.hit.data", "recv.hit.credit", "recv.hit.other"]),
    );
    out.insert("native.ctx_switches_per_elem", val(l, "ctx.process") / n);
    out.insert("native.allocs_per_elem", val(l, "allocs.process") / n);
    out.insert("core.channel_create_us.native", val(l, "channel_create_ns") / 1e3);
    wait_shares(l, "core.credit_wait_share.native_fine", "core.data_wait_share.native_fine", out);
}

fn layers_socket_fine(l: &LaunchResult, out: &mut Layers) {
    let (n, _) = ops_and_wall(l);
    out.insert("core.data_msgs_per_elem", agg_of(l, 0, "send.data").count as f64 / n);
    out.insert("core.credit_msgs_per_elem", agg_of(l, 1, "send.credit").count as f64 / n);
    out.insert("socket.send_ns.small", agg_of(l, 0, "send.data").mean_ns());
    out.insert("socket.recv_ns.small", agg_of(l, 1, "recv.hit.data").mean_ns());
    out.insert("socket.allocs_per_elem.producer", val(l, "allocs.producer") / n);
    out.insert("socket.allocs_per_elem.consumer", val(l, "allocs.consumer") / n);
    out.insert(
        "socket.ctx_switches_per_elem",
        (val(l, "ctx.producer") + val(l, "ctx.consumer")) / n,
    );
    let up = val(l, "world_up_ns.0").max(val(l, "world_up_ns.1"));
    out.insert("socket.world_launch_ms", (up - val(l, "launch_call_ns")) / 1e6);
    out.insert("core.channel_create_us.socket", val(l, "channel_create_ns") / 1e3);
    wait_shares(l, "core.credit_wait_share.socket_fine", "core.data_wait_share.socket_fine", out);
}

fn layers_socket_bulk(l: &LaunchResult, out: &mut Layers) {
    let (n, _) = ops_and_wall(l);
    out.insert("socket.send_ns.bulk", agg_of(l, 0, "send.data").mean_ns());
    out.insert("socket.recv_ns.bulk", agg_of(l, 1, "recv.hit.data").mean_ns());
    out.insert("socket.allocs_per_elem.bulk_producer", val(l, "allocs.producer") / n);
    out.insert("socket.allocs_per_elem.bulk_consumer", val(l, "allocs.consumer") / n);
    out.insert(
        "socket.minor_faults_per_elem.bulk",
        (val(l, "faults.producer") + val(l, "faults.consumer")) / n,
    );
    wait_shares(l, "core.credit_wait_share.socket_bulk", "core.data_wait_share.socket_bulk", out);
}

fn layers_socket_pingpong(l: &LaunchResult, out: &mut Layers) {
    let (n, _) = ops_and_wall(l);
    out.insert("socket.ctx_switches_per_rtt", (val(l, "ctx.ping") + val(l, "ctx.echo")) / n);
    out.insert("socket.rtt_p50_us", val(l, "rtt_p50_us"));
    out.insert("socket.rtt_p99_us", val(l, "rtt_p99_us"));
}

fn layers_sim_fig5(l: &LaunchResult, out: &mut Layers) {
    let (msgs, _) = ops_and_wall(l);
    out.insert("desim.events_fired", val(l, "sim.events_fired"));
    out.insert("desim.events_per_msg", val(l, "sim.events_fired") / val(l, "sim.msgs_sent"));
    out.insert("mpisim.msgs_sent", val(l, "sim.msgs_sent"));
    out.insert("apps.fig5.virtual_makespan_s", val(l, "sim.makespan_ns") / 1e9);
    let rate = pool(std::slice::from_ref(l)).ops_per_s();
    out.insert("desim.host_us_per_msg.p32", 1e6 / rate);
    out.insert("desim.ctx_switches_per_msg", val(l, "ctx.process") / msgs);
}

/// Write the kept spans of a traced launch as a Chrome trace, through
/// `streamprof`'s exporter.
fn write_chrome_trace(d: &Driver, w: Workload, l: &LaunchResult) -> Result<(), String> {
    let sink = streamprof::ProfSink::new(streamprof::Clock::Wall);
    let origin = l.spans.iter().map(|s| s.2).min().unwrap_or(0);
    for &(rank, name, start, end) in &l.spans {
        sink.record_span(rank, name, desim::SimTime(start - origin), desim::SimTime(end - origin));
    }
    let path = d.out_dir.join(format!("trace-{}.json", w.name()));
    std::fs::write(&path, sink.take().to_chrome_json())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Slices of a traced launch whose workload was not asked for: enough
/// for its layer figures to exist, no more.
const SIDE_SLICES: u32 = 3;
/// World size of the simulator's scaling point. (A 128-rank world sends
/// 32x the messages of the 32-rank one and takes 20 s; a traced run has
/// to fit the same time budget as any other.)
const SCALING_RANKS: usize = 64;

/// The part of a traced run that does not depend on which workloads were
/// asked for: every layer figure has one fixed source, so all five
/// workloads are launched traced (the `chosen` ones for their share of
/// `seconds`, the others for [`SIDE_SLICES`]), then the profiled
/// launches, the simulator's scaling point and the probes. Returns the
/// layer figures and each chosen workload's traced slices.
fn trace_suite(
    d: &mut Driver,
    chosen: &[Workload],
    seed: u64,
    seconds: u64,
    quick: bool,
) -> Result<(Layers, Vec<Pooled>), String> {
    let mut out = Layers::new();
    let mut traced = Vec::new();
    for w in ALL {
        let slices = match (chosen.contains(&w), quick) {
            (false, _) => Slices::Count(SIDE_SLICES),
            (true, true) => Slices::Count(QUICK_SLICES / 2),
            (true, false) => Slices::Budget(seconds * 1_000_000_000 * 35 / 100),
        };
        let l = d.launch(&LaunchArgs { wrap: Wrap::Traced, ..plain(w, seed, slices) })?;
        match w {
            Workload::NativeFine => layers_native_fine(&l, &mut out),
            Workload::SocketFine => layers_socket_fine(&l, &mut out),
            Workload::SocketBulk => layers_socket_bulk(&l, &mut out),
            Workload::SocketPingpong => layers_socket_pingpong(&l, &mut out),
            Workload::SimFig5 => layers_sim_fig5(&l, &mut out),
        }
        write_chrome_trace(d, w, &l)?;
        if chosen.contains(&w) {
            traced.push(pool(&[l]));
        }
    }

    for (w, key) in [
        (Workload::NativeFine, "streamprof.o_us.native"),
        (Workload::SocketFine, "streamprof.o_us.socket"),
    ] {
        let spec = LaunchArgs { wrap: Wrap::Profiled, ..plain(w, seed, Slices::Count(2)) };
        out.insert(key, val(&d.launch(&spec)?, "o_us"));
    }

    if !quick {
        // The scaling point: the same program on twice the ranks, one world.
        let spec = LaunchArgs {
            sim_ranks: SCALING_RANKS,
            ..plain(Workload::SimFig5, seed, Slices::Count(1))
        };
        let scaled = 1e6 / pool(&[d.launch(&spec)?]).ops_per_s();
        out.insert(SCALING_METRICS[0], scaled);
        out.insert(SCALING_METRICS[1], scaled / out["desim.host_us_per_msg.p32"]);
    }

    for (name, value) in probes::run_all(&mut d.cal_msg, quick) {
        out.insert(name, value);
    }
    Ok((out, traced))
}

/// The part of a traced run that belongs to one chosen workload: an
/// untraced reference launch for the tracing overhead and the `host.*`
/// figures. Returns the workload's complete layer table and the slices
/// (traced and not) whose outputs were checked.
fn trace_one(
    d: &mut Driver,
    w: Workload,
    seed: u64,
    seconds: u64,
    quick: bool,
    shared: &Layers,
    traced: Pooled,
) -> Result<(Layers, Pooled), String> {
    let slices = if quick {
        Slices::Count(QUICK_SLICES / 2)
    } else {
        Slices::Budget(seconds * 1_000_000_000 * 25 / 100)
    };
    let mut untraced = pool(&[d.launch(&plain(w, seed, slices))?]);
    let mut out = shared.clone();
    out.insert("streamprof.trace_overhead_ratio", traced.ops_per_s() / untraced.ops_per_s());
    out.insert("host.cal_ms", median(&untraced.cal_ms));
    out.insert(
        "host.cal_spread",
        quantile(&untraced.cal_ms, 0.9) / quantile(&untraced.cal_ms, 0.1),
    );
    out.insert("host.raw_ops_per_s", median(&untraced.raw_rates));
    out.insert(
        "host.slice_p90_over_p50",
        quantile(&untraced.wall_ms, 0.9) / quantile(&untraced.wall_ms, 0.5),
    );
    untraced.attempted += traced.attempted;
    untraced.failed += traced.failed;
    Ok((out, untraced))
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

/// A JSON number: all the digits of a finite value. A figure that could
/// not be computed is reported as a failed run by the caller, never here.
fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value");
    format!("{v}")
}

fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_num(*v))
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn print_metric(name: &str, value: f64, unit: &str, note: &str) {
    println!("{name:<40} {value:>18.6} {unit:<8} {note}");
}

/// Print one workload's end-to-end result; returns whether it was correct.
fn report_end_to_end(w: Workload, p: &Pooled) -> bool {
    let n = p.rates.len();
    let tail = tail_percentile(n).map_or_else(
        || "too few slices for a tail".to_string(),
        |pct| {
            // A slow slice is a low rate: the tail of interest is the low side.
            let slow = quantile(&p.rates, 1.0 - f64::from(pct) / 100.0);
            format!("p{pct} slowest slice {slow:.1}")
        },
    );
    let values = p.end_to_end();
    let notes = [
        format!("median of {n} slices; {tail}; raw {:.1}", median(&p.raw_rates)),
        format!("median of {} launches", p.setups.len()),
        "lower quartile of the launch peaks (per launch: largest VmHWM among its processes)"
            .to_string(),
    ];
    for (((name, unit, _), v), note) in END_TO_END.iter().zip(values).zip(&notes) {
        print_metric(name, v, unit, note);
    }
    println!("{:<40} {:>18}", "ops_attempted", p.attempted);
    println!("{:<40} {:>18}", "ops_failed", p.failed);
    let correct = p.failed == 0 && values.iter().all(|v| v.is_finite() && *v > 0.0);
    let metrics: Vec<(&str, f64, &str)> =
        END_TO_END.iter().zip(values).map(|((n, u, _), v)| (*n, v, *u)).collect();
    if correct {
        println!("{}", result_json(true, p.attempted, p.failed, &metrics));
    } else {
        eprintln!("{}: FAILED ({} of {} operations failed)", w.name(), p.failed, p.attempted);
    }
    correct
}

fn report_layers(w: Workload, layers: &Layers, checked: &Pooled, quick: bool) -> bool {
    let mut metrics = Vec::new();
    let mut complete = true;
    for (name, unit) in PER_LAYER {
        match layers.get(name) {
            Some(v) if v.is_finite() => {
                print_metric(name, *v, unit, "");
                metrics.push((name, *v, unit));
            }
            // The scaling point is the one thing a quick run leaves out.
            None if quick && SCALING_METRICS.contains(&name) => {
                println!("{name:<40} {:>18} {unit:<8} skipped by --quick", "-");
            }
            other => {
                eprintln!("{}: per-layer metric {name} has no finite value ({other:?})", w.name());
                complete = false;
            }
        }
    }
    println!("{:<40} {:>18}", "ops_attempted", checked.attempted);
    println!("{:<40} {:>18}", "ops_failed", checked.failed);
    let correct = complete && checked.failed == 0;
    if correct {
        println!("{}", result_json(true, checked.attempted, checked.failed, &metrics));
    } else {
        eprintln!("{}: FAILED", w.name());
    }
    correct
}

pub fn run(args: &[String]) -> ExitCode {
    let opts = match parse_opts(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("streambench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run_opts(&opts) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("streambench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_opts(opts: &Opts) -> Result<bool, String> {
    let facts = host::host_facts();
    let cpu = host::pin_to_lowest_cpu().map_err(|e| format!("cannot pin to one CPU: {e}"))?;
    let mut d = Driver::new()?;
    println!(
        "# host: nproc={} cpu=\"{}\" kernel={} pinned_cpu={cpu}",
        facts.nproc, facts.cpu_model, facts.kernel
    );
    let mut all_correct = true;
    let header = |w: Workload| {
        println!(
            "# workload={} seed={} seconds={} trace={} mode={}",
            w.name(),
            opts.seed,
            opts.seconds,
            u8::from(opts.trace),
            if opts.quick { "quick (never compare with a full run)" } else { "full" },
        );
    };
    if opts.trace {
        let (shared, traced) =
            trace_suite(&mut d, &opts.workloads, opts.seed, opts.seconds, opts.quick)?;
        for (&w, traced) in opts.workloads.iter().zip(traced) {
            header(w);
            let (layers, checked) =
                trace_one(&mut d, w, opts.seed, opts.seconds, opts.quick, &shared, traced)?;
            all_correct &= report_layers(w, &layers, &checked, opts.quick);
        }
    } else {
        for &w in &opts.workloads {
            header(w);
            let p = measure(&mut d, w, opts.seed, opts.seconds, opts.quick)?;
            println!("# host.cal_ms={:.4}", median(&p.cal_ms));
            all_correct &= report_end_to_end(w, &p);
        }
    }
    Ok(all_correct)
}

// ---------------------------------------------------------------------
// selfcheck: two interleaved sets of runs of the same build
// ---------------------------------------------------------------------

/// `selfcheck [--runs <n>] [--seconds <n>] [--workload <name>]`: runs
/// A1 B1 A2 B2 ... of every workload, then compares set A with set B.
pub fn selfcheck(args: &[String]) -> ExitCode {
    let runs: usize = crate::flag_value(args, "--runs").and_then(|v| v.parse().ok()).unwrap_or(5);
    let seconds: u64 = crate::flag_value(args, "--seconds")
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_SECONDS);
    let workloads: Vec<Workload> = match crate::flag_value(args, "--workload") {
        Some(name) => match Workload::parse(name) {
            Some(w) => vec![w],
            None => {
                eprintln!("selfcheck: unknown workload {name:?}");
                return ExitCode::from(2);
            }
        },
        None => ALL.to_vec(),
    };
    match selfcheck_run(&workloads, runs.max(2), seconds) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("selfcheck: {e}");
            ExitCode::FAILURE
        }
    }
}

fn selfcheck_run(workloads: &[Workload], runs: usize, seconds: u64) -> Result<bool, String> {
    let facts = host::host_facts();
    let cpu = host::pin_to_lowest_cpu().map_err(|e| format!("cannot pin to one CPU: {e}"))?;
    let mut d = Driver::new()?;
    println!(
        "# selfcheck: 2 sets x {runs} runs x {seconds} s, same build; host nproc={} cpu=\"{}\" \
         kernel={} pinned_cpu={cpu}",
        facts.nproc, facts.cpu_model, facts.kernel
    );
    println!(
        "{:<16} {:<12} {:>3} {:>14} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "set", "q1", "median", "q3", "IQR/med", "A-vs-B"
    );
    let mut pass = true;
    for &w in workloads {
        // [set][metric] -> one value per run; metric 3 is the raw rate.
        let mut sets = [vec![Vec::new(); 4], vec![Vec::new(); 4]];
        for i in 0..2 * runs {
            let seed = DEFAULT_SEED + i as u64;
            let p = measure(&mut d, w, seed, seconds, false)?;
            if p.failed != 0 {
                return Err(format!("{}: {} operations failed", w.name(), p.failed));
            }
            let values = p.end_to_end();
            println!(
                "# {} run {} (set {}, seed {seed}): ops_per_s {:.1} (raw {:.1}, {} slices) \
                 setup_s {:.4} peak_rss_mb {:.3} cal_ms {:.3}",
                w.name(),
                i / 2 + 1,
                ["A", "B"][i % 2],
                values[0],
                median(&p.raw_rates),
                p.rates.len(),
                values[1],
                values[2],
                median(&p.cal_ms),
            );
            for (m, v) in values.into_iter().chain([median(&p.raw_rates)]).enumerate() {
                sets[i % 2][m].push(v);
            }
        }
        let names = ["ops_per_s", "setup_s", "peak_rss_mb", "(raw ops/s)"];
        for (m, name) in names.iter().enumerate() {
            let (a, b) = (&sets[0][m], &sets[1][m]);
            let (ma, mb) = (median(a), median(b));
            let diff = (ma - mb).abs() / ma;
            // The raw rate is shown for comparison and never gated.
            let limit = END_TO_END.get(m).map(|(_, _, bound)| bound / 2.0);
            let ok = limit.is_none_or(|l| diff <= l);
            pass &= ok;
            for (label, set) in [("A", a), ("B", b)] {
                let (q1, med, q3) = quartiles(set);
                println!(
                    "{:<16} {:<12} {:>3} {:>14.4} {:>14.4} {:>14.4} {:>7.2}% {:>6.2}%  {}",
                    w.name(),
                    name,
                    label,
                    q1,
                    med,
                    q3,
                    (q3 - q1) / med * 100.0,
                    diff * 100.0,
                    match (limit, ok) {
                        (None, _) => "not gated".to_string(),
                        (Some(l), true) => format!("ok (limit {:.1}%)", l * 100.0),
                        (Some(l), false) => format!("FAIL (limit {:.1}%)", l * 100.0),
                    }
                );
            }
        }
    }
    println!("# selfcheck: {}", if pass { "PASS" } else { "FAIL" });
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the tables above name the same metrics, with
    /// the same units and bounds, in the same order.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let section = |key: &str| -> Vec<String> {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let open = start + text[start..].find('[').expect("a list");
            let close = open + text[open..].find(']').expect("a closed list");
            text[open + 1..close]
                .split('}')
                .map(|e| e.trim_matches(|c: char| c == ',' || c.is_whitespace()).to_string())
                .filter(|e| !e.is_empty())
                .collect()
        };
        let e2e = section("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, (name, unit, bound)) in e2e.iter().zip(END_TO_END) {
            assert!(entry.contains(&format!("\"name\": \"{name}\"")), "{entry}");
            assert!(entry.contains(&format!("\"unit\": \"{unit}\"")), "{entry}");
            assert!(entry.contains(&format!("\"bound\": {bound}")), "{entry}");
        }
        let layers = section("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, (name, unit)) in layers.iter().zip(PER_LAYER) {
            assert!(entry.contains(&format!("\"name\": \"{name}\"")), "{entry}");
            assert!(entry.contains(&format!("\"unit\": \"{unit}\"")), "{entry}");
        }
        let workloads = section("workloads");
        assert_eq!(workloads.len(), ALL.len());
        for (entry, w) in workloads.iter().zip(ALL) {
            assert!(entry.contains(&format!("\"name\": \"{}\"", w.name())), "{entry}");
        }
        assert!(text.contains(&format!("\"run_seconds\": {DEFAULT_SECONDS}")));
    }

    #[test]
    fn options_parse_the_harness_and_the_by_hand_forms() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse_opts(&args("--workload sim_fig5 --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(o.workloads, vec![Workload::SimFig5]);
        assert_eq!((o.seed, o.seconds, o.trace, o.quick), (7, 3, true, false));
        let o = parse_opts(&args("--trace 0 --quick")).unwrap();
        assert_eq!((o.workloads.len(), o.trace, o.quick), (5, false, true));
        assert!(parse_opts(&args("--quick --trace")).unwrap().trace);
        assert!(parse_opts(&args("--workload nope")).is_err());
        assert!(parse_opts(&args("--seconds 0")).is_err());
        assert!(parse_opts(&args("--frobnicate")).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_json(true, 10, 0, &[("ops_per_s", 1.25, "1/s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"ops_per_s\": {\"value\": 1.25, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn reports_parse_and_setup_is_calibrated() {
        let nominal = crate::cal::NOMINAL_NS as u64;
        let text = format!(
            "setup 2000000100 {nominal}\nslice 1 50000000 {nominal} {nominal} 20000 0\n\
             rss 4.5\nagg 0 send.data 3 300 300\nspan 1 fold 10 20\nval ctx.producer 12\n"
        );
        let r = parse_report(&text, 100, nominal).unwrap();
        assert_eq!(r.setup_s, 2.0);
        assert_eq!(r.slices.len(), 1);
        assert_eq!(r.aggs[&(0, "send.data")].count, 3);
        assert_eq!(r.spans, vec![(1, "fold", 10, 20)]);
        assert_eq!(r.vals["ctx.producer"], 12.0);
        let p = pool(&[r]);
        assert_eq!(p.ops_per_s(), 400_000.0);
        assert!(parse_report("slice 1 2", 0, 1).is_err());
        assert!(parse_report("rss 1.0\n", 0, 1).is_err());
    }
}
