//! The five workloads, as one *launch* each: set-up, an untimed warm-up
//! slice, then timed slices of a fixed operation count, every slice
//! bracketed by the reference kernel. A launch is its own process (the
//! driver pools several per run) and reports as text lines on stdout —
//! see [`Report`] — so rank processes of a socket world, rank threads of
//! a native world and the simulator all answer in one format.

use std::cell::Cell;
use std::sync::Mutex;

use bench_harness::scenarios::pingpong_rank;
use mpistream::{ChannelConfig, Role, Src, Stream, StreamChannel, Tag, Transport, Wire};
use native::NativeWorld;
use socket::SocketWorld;
use streamprof::{Clock, ProfSink, Profiled};

use crate::alloc;
use crate::cal::{Calibrator, Kernel};
use crate::golden::Golden;
use crate::host::{self, mono_ns, peak_rss_mib, switches_and_faults};
use crate::traced::{Instrument, Traced, END_SLICE};

/// The seed every golden value was recorded at.
pub const DEFAULT_SEED: u64 = 20170814;

const PRODUCER: usize = 0;
const CONSUMER: usize = 1;
/// Slice hand-shake from the timing rank to its peer: `(slice, ops)`,
/// `(END_SLICE, 0)` meaning stop.
const CTL: Tag = Tag::user(0x5342);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SocketFine,
    SocketBulk,
    SocketPingpong,
    NativeFine,
    SimFig5,
}

pub const ALL: [Workload; 5] = [
    Workload::SocketFine,
    Workload::SocketBulk,
    Workload::SocketPingpong,
    Workload::NativeFine,
    Workload::SimFig5,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::SocketFine => "socket_fine",
            Workload::SocketBulk => "socket_bulk",
            Workload::SocketPingpong => "socket_pingpong",
            Workload::NativeFine => "native_fine",
            Workload::SimFig5 => "sim_fig5",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The reference kernel its slices are timed against.
    pub fn kernel(self) -> Kernel {
        match self {
            Workload::SocketBulk => Kernel::Bulk,
            _ => Kernel::Msg,
        }
    }

    /// Operations in one slice (for `sim_fig5`: worlds; its op count is
    /// the messages the world sent).
    pub fn slice_ops(self) -> u64 {
        match self {
            Workload::SocketFine => 20_000,
            Workload::SocketBulk => 1_000,
            Workload::SocketPingpong => 3_000,
            Workload::NativeFine => 100_000,
            Workload::SimFig5 => 1,
        }
    }

    fn channel(self) -> ChannelConfig {
        match self {
            Workload::SocketBulk => ChannelConfig {
                element_bytes: 64 << 10,
                aggregation: 1,
                credits: Some(8),
                credit_batch: 1,
                ..ChannelConfig::default()
            },
            _ => ChannelConfig {
                element_bytes: 8,
                aggregation: 1,
                credits: Some(64),
                credit_batch: 16,
                ..ChannelConfig::default()
            },
        }
    }
}

/// How the ranks of a launch are instrumented.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wrap {
    /// Not at all: the end-to-end measurement.
    Plain,
    /// [`Traced`]: spans and counts around every call into a layer.
    Traced,
    /// `streamprof::Profiled`, its trace fed to `streamprof::fit` for the
    /// paper's Eq. 4 per-element overhead `o`.
    Profiled,
}

/// How many timed slices a launch runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Slices {
    Count(u32),
    /// Until this many ns have passed since the first timed slice began
    /// (and at least [`MIN_SLICES`]).
    Budget(u64),
}

pub const MIN_SLICES: u32 = 4;

/// World size of `sim_fig5`: the smallest published point of Fig. 5.
pub const SIM_RANKS: usize = 32;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaunchArgs {
    pub workload: Workload,
    pub seed: u64,
    pub slices: Slices,
    pub wrap: Wrap,
    /// World size of the simulated workload ([`SIM_RANKS`]; more for the
    /// traced run's scaling point).
    pub sim_ranks: usize,
}

impl LaunchArgs {
    /// The `launch` subcommand's arguments that mean `self`.
    pub fn to_args(self) -> Vec<String> {
        let (slices_flag, slices) = match self.slices {
            Slices::Count(n) => ("--slices", u64::from(n)),
            Slices::Budget(ns) => ("--budget-ms", ns / 1_000_000),
        };
        let wrap = match self.wrap {
            Wrap::Plain => "plain",
            Wrap::Traced => "traced",
            Wrap::Profiled => "profiled",
        };
        [
            ("--workload", self.workload.name().to_string()),
            ("--seed", self.seed.to_string()),
            (slices_flag, slices.to_string()),
            ("--wrap", wrap.to_string()),
            ("--sim-ranks", self.sim_ranks.to_string()),
        ]
        .into_iter()
        .flat_map(|(flag, value)| [flag.to_string(), value])
        .collect()
    }

    /// The inverse of [`LaunchArgs::to_args`].
    pub fn parse(args: &[String]) -> Result<LaunchArgs, String> {
        let need = |flag: &str| {
            crate::flag_value(args, flag).ok_or_else(|| format!("launch needs {flag}"))
        };
        let num = |flag: &str| -> Result<u64, String> {
            need(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
        };
        let workload = need("--workload")?;
        let workload =
            Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
        let slices = match crate::flag_value(args, "--slices") {
            Some(n) => Slices::Count(n.parse().map_err(|e| format!("--slices: {e}"))?),
            None => Slices::Budget(num("--budget-ms")? * 1_000_000),
        };
        let wrap = match need("--wrap")? {
            "plain" => Wrap::Plain,
            "traced" => Wrap::Traced,
            "profiled" => Wrap::Profiled,
            other => return Err(format!("unknown --wrap {other:?}")),
        };
        Ok(LaunchArgs {
            workload,
            seed: num("--seed")?,
            slices,
            wrap,
            sim_ranks: num("--sim-ranks")? as usize,
        })
    }
}

/// Report lines of one launch (whitespace-separated, kind first):
///
/// ```text
/// slice <idx> <wall_ns> <cal_before_ns> <cal_after_ns> <ops> <failed>
/// setup <warm_up_end_mono_ns> <cal_after_ns>
/// rss <MiB>                                  one per process
/// agg <rank> <name> <count> <total_ns> <self_ns>
/// span <rank> <name> <start_ns> <end_ns>
/// val <key> <number>
/// ```
pub type Report = Vec<String>;

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A stream element type: made from the seed and the element's index,
/// folded to a digest by the operator, with the digest also computable
/// without building the element (the analytic side of the check).
trait Payload: Wire + Send + 'static {
    type Gen: Send + Sync;
    fn gen(seed: u64) -> Self::Gen;
    fn make(gen: &Self::Gen, i: u64) -> Self;
    fn digest(&self) -> u64;
    /// `make(gen, i).digest()`, overridden where that can be had without
    /// building the element.
    fn expected(gen: &Self::Gen, i: u64) -> u64 {
        Self::make(gen, i).digest()
    }
}

impl Payload for u64 {
    type Gen = u64;
    fn gen(seed: u64) -> u64 {
        seed
    }
    fn make(seed: &u64, i: u64) -> u64 {
        splitmix64(seed ^ i)
    }
    fn digest(&self) -> u64 {
        *self
    }
}

/// Doubles per bulk element: 64 KiB, `ChannelConfig`'s default granularity.
pub const BULK_LEN: usize = 8_192;
const BULK_POOL: usize = 16;

/// Bulk elements are clones of a small seeded pool, stamped with their
/// index in position 0: filling 8,192 fresh values per element would
/// cost the producer more than the send it is there to measure.
struct BulkGen {
    seed: u64,
    pool: Vec<Vec<f64>>,
}

/// An f64 holding a 53-bit integer exactly (so never a NaN).
fn unit(x: u64) -> f64 {
    (x >> 11) as f64
}

impl Payload for Vec<f64> {
    type Gen = BulkGen;
    fn gen(seed: u64) -> BulkGen {
        let pool = (0..BULK_POOL as u64)
            .map(|p| (0..BULK_LEN as u64).map(|j| unit(splitmix64(seed ^ (p << 32 | j)))).collect())
            .collect();
        BulkGen { seed, pool }
    }
    fn make(gen: &BulkGen, i: u64) -> Vec<f64> {
        let mut v = gen.pool[i as usize % BULK_POOL].clone();
        v[0] = unit(splitmix64(gen.seed ^ i));
        v
    }
    fn digest(&self) -> u64 {
        let n = self.len();
        (n as u64)
            .wrapping_add(self[0].to_bits())
            .wrapping_add(self[n / 2].to_bits())
            .wrapping_add(self[n - 1].to_bits())
    }
    fn expected(gen: &BulkGen, i: u64) -> u64 {
        let p = &gen.pool[i as usize % BULK_POOL];
        (BULK_LEN as u64)
            .wrapping_add(unit(splitmix64(gen.seed ^ i)).to_bits())
            .wrapping_add(p[BULK_LEN / 2].to_bits())
            .wrapping_add(p[BULK_LEN - 1].to_bits())
    }
}

// ---------------------------------------------------------------------
// The slice loop of the timing rank
// ---------------------------------------------------------------------

struct Slicer {
    cal: Calibrator,
    plan: Slices,
    lines: Report,
    first_start: u64,
    done: u32,
    progress: Option<String>,
    /// `Some(rank)` in a traced launch: slices and reference-kernel runs
    /// go on that rank's timeline in the Chrome trace.
    timeline: Option<usize>,
}

impl Slicer {
    fn new(a: &LaunchArgs, rank: usize) -> Slicer {
        Slicer {
            timeline: (a.wrap == Wrap::Traced).then_some(rank),
            cal: Calibrator::new(a.workload.kernel()),
            plan: a.slices,
            lines: Vec::new(),
            first_start: 0,
            done: 0,
            progress: std::env::var("STREAMBENCH_PROGRESS").ok(),
        }
    }

    /// Say which slice is about to run, where the driver's watchdog can
    /// read it if this launch wedges. A file, not a pipe: writing it
    /// wakes nobody on the one CPU everything shares.
    fn note_progress(&self, slice: u32) {
        if let Some(path) = &self.progress {
            let _ = std::fs::write(path, format!("{slice}\n"));
        }
    }

    /// One run of the reference kernel, ns; its allocator calls stay out
    /// of a traced launch's counts.
    fn reference(&mut self) -> u64 {
        alloc::uncounted(|| self.cal.run())
    }

    /// The untimed slice 0. Set-up time ends when `run` returns; `check`
    /// then says how many of its operations failed.
    fn warm_up<R>(&mut self, run: impl FnOnce() -> R, check: impl FnOnce(R) -> u64) {
        self.note_progress(0);
        let r = run();
        let end = mono_ns();
        let cal_after = self.reference();
        self.lines.push(format!("setup {end} {cal_after}"));
        self.lines.push(format!("val warm_up_failed {}", check(r)));
    }

    fn more(&self) -> bool {
        match self.plan {
            Slices::Count(n) => self.done < n,
            Slices::Budget(ns) => self.done < MIN_SLICES || mono_ns() - self.first_start < ns,
        }
    }

    /// One timed slice: `run(slice)` between two reference-kernel runs,
    /// then `check` (untimed) turns its result into `(ops, failed)`.
    fn timed<R>(&mut self, run: impl FnOnce(u32) -> R, check: impl FnOnce(u32, R) -> (u64, u64)) {
        let slice = self.done + 1;
        self.note_progress(slice);
        let cal_before = self.reference();
        let t0 = mono_ns();
        if self.done == 0 {
            self.first_start = t0;
        }
        let r = run(slice);
        let wall = mono_ns() - t0;
        let cal_after = self.reference();
        let (ops, failed) = check(slice, r);
        self.lines.push(format!("slice {slice} {wall} {cal_before} {cal_after} {ops} {failed}"));
        if let Some(rank) = self.timeline {
            let t1 = t0 + wall;
            self.lines.push(format!("span {rank} cal {} {t0}", t0 - cal_before));
            self.lines.push(format!("span {rank} slice {t0} {t1}"));
            self.lines.push(format!("span {rank} cal {t1} {}", t1 + cal_after));
        }
        self.done = slice;
    }
}

/// Kernel and allocator counters of this process, for before/after
/// deltas over the timed slices of a traced launch.
#[derive(Clone, Copy)]
struct Counters {
    ctx: u64,
    allocs: u64,
    faults: u64,
}

impl Counters {
    fn snap() -> Counters {
        let (ctx, faults) = switches_and_faults();
        Counters { ctx, allocs: alloc::calls(), faults }
    }

    fn report_since(self, then: Counters, who: &str, lines: &mut Report) {
        lines.push(format!("val ctx.{who} {}", self.ctx - then.ctx));
        lines.push(format!("val allocs.{who} {}", self.allocs - then.allocs));
        lines.push(format!("val faults.{who} {}", self.faults - then.faults));
    }
}

// ---------------------------------------------------------------------
// Stream workloads (socket_fine, socket_bulk, native_fine)
// ---------------------------------------------------------------------

/// Where a rank runs, as far as process-wide counters go.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Proc {
    /// A process of its own (socket ranks): reports its own counters.
    Own,
    /// One of several rank threads of the launch process (native): only
    /// the timing rank reports, for the whole process.
    Shared,
}

fn stream_rank<TP: Instrument, P: Payload>(
    rank: &mut TP,
    a: &LaunchArgs,
    proc: Proc,
    golden: &Golden,
) -> Report {
    let me = rank.world_rank();
    let role = if me == PRODUCER { Role::Producer } else { Role::Consumer };
    let world = rank.world_group();
    let t0 = mono_ns();
    rank.begin("channel.create");
    let ch = StreamChannel::create(rank, &world, role, a.workload.channel());
    rank.end();
    let create_ns = mono_ns() - t0;
    let mut stream: Stream<P> = Stream::attach(ch);
    let gen = P::gen(a.seed);
    let n = a.workload.slice_ops();
    let counting = a.wrap == Wrap::Traced;

    if me == PRODUCER {
        let mut lines = Report::new();
        let mut next = 0u64;
        let mut at_first: Option<Counters> = None;
        loop {
            let ((slice, ops), _) = rank.recv::<(u32, u64)>(Src::Rank(CONSUMER), CTL);
            rank.start_slice(slice);
            if ops == 0 {
                break;
            }
            if slice == 1 && counting && proc == Proc::Own {
                at_first = Some(Counters::snap());
            }
            for _ in 0..ops {
                let elem = P::make(&gen, next);
                next += 1;
                rank.begin("stream.isend");
                stream.isend(rank, elem);
                rank.end();
            }
        }
        if let Some(then) = at_first {
            Counters::snap().report_since(then, "producer", &mut lines);
        }
        rank.begin("stream.terminate");
        stream.terminate(rank);
        rank.end();
        return lines;
    }

    let mut slicer = Slicer::new(a, me);
    let run = |rank: &mut TP, stream: &mut Stream<P>, slice: u32| {
        rank.start_slice(slice);
        rank.send(PRODUCER, CTL, 16, (slice, n));
        let (sum, got) = (Cell::new(0u64), Cell::new(0u64));
        rank.begin("stream.operate");
        stream.operate_while(
            rank,
            || got.get() < n,
            |r, elem| {
                r.begin("fold");
                sum.set(sum.get().wrapping_add(elem.digest()));
                got.set(got.get() + 1);
                r.end();
            },
        );
        rank.end();
        (sum.get(), got.get())
    };
    let check = |slice: u32, (sum, got): (u64, u64)| {
        let first = u64::from(slice) * n;
        let want = (first..first + n).fold(0u64, |s, i| s.wrapping_add(P::expected(&gen, i)));
        let ok = got == n && sum == want && golden.slice_checksum_ok(a, slice, sum);
        (n, if ok { 0 } else { n })
    };

    slicer.warm_up(|| run(rank, &mut stream, 0), |r| check(0, r).1);
    let at_first = counting.then(Counters::snap);
    while slicer.more() {
        slicer.timed(|slice| run(rank, &mut stream, slice), check);
    }
    rank.start_slice(END_SLICE);
    let mut lines = slicer.lines;
    if let Some(then) = at_first {
        let who = if proc == Proc::Own { "consumer" } else { "process" };
        Counters::snap().report_since(then, who, &mut lines);
    }
    rank.send(PRODUCER, CTL, 16, (END_SLICE, 0u64));
    // The producer's Term closes the stream; nothing may arrive before it.
    let stray = stream.operate(rank, |_, _| {});
    lines.push(format!("val stray_elems {stray}"));
    lines.push(format!("val channel_create_ns {create_ns}"));
    lines
}

// ---------------------------------------------------------------------
// socket_pingpong
// ---------------------------------------------------------------------

fn pingpong<TP: Instrument>(rank: &mut TP, a: &LaunchArgs, golden: &Golden) -> Report {
    let n = a.workload.slice_ops();
    let traced = a.wrap == Wrap::Traced;
    if rank.world_rank() != 0 {
        let mut lines = Report::new();
        let mut at_first: Option<Counters> = None;
        loop {
            let ((slice, ops), _) = rank.recv::<(u32, u64)>(Src::Rank(0), CTL);
            rank.start_slice(slice);
            if ops == 0 {
                break;
            }
            if slice == 1 && traced {
                at_first = Some(Counters::snap());
            }
            pingpong_rank(rank, ops);
        }
        if let Some(then) = at_first {
            Counters::snap().report_since(then, "echo", &mut lines);
        }
        return lines;
    }

    let mut slicer = Slicer::new(a, 0);
    let mut rtt_ns: Vec<u64> = Vec::new();
    let mut run = |rank: &mut TP, slice: u32| {
        rank.start_slice(slice);
        rank.send(1, CTL, 16, (slice, n));
        if traced && slice > 0 {
            // One call per round trip so each can be timed; the echo side
            // cannot tell the difference.
            for _ in 0..n {
                let t = mono_ns();
                pingpong_rank(rank, 1);
                rtt_ns.push(mono_ns() - t);
            }
        } else {
            pingpong_rank(rank, n);
        }
    };
    // `pingpong_rank` asserts every echo itself; what is left to check is
    // that the frozen round count is the one the golden file was made at.
    let check = |slice: u32, ()| {
        let ok = golden.slice_checksum_ok(a, slice, n * (n - 1) / 2);
        (n, if ok { 0 } else { n })
    };
    slicer.warm_up(|| run(rank, 0), |()| 0);
    let at_first = traced.then(Counters::snap);
    while slicer.more() {
        slicer.timed(|slice| run(rank, slice), check);
    }
    rank.start_slice(END_SLICE);
    let mut lines = slicer.lines;
    if let Some(then) = at_first {
        Counters::snap().report_since(then, "ping", &mut lines);
    }
    rank.send(1, CTL, 16, (END_SLICE, 0u64));
    if !rtt_ns.is_empty() {
        let us: Vec<f64> = rtt_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        lines.push(format!("val rtt_p50_us {}", crate::stats::quantile(&us, 0.50)));
        lines.push(format!("val rtt_p99_us {}", crate::stats::quantile(&us, 0.99)));
    }
    lines
}

// ---------------------------------------------------------------------
// Wrapping a rank, and the two real-backend runners
// ---------------------------------------------------------------------

fn rank_body<I: Instrument>(rank: &mut I, a: &LaunchArgs, proc: Proc, golden: &Golden) -> Report {
    match a.workload {
        Workload::SocketFine | Workload::NativeFine => stream_rank::<I, u64>(rank, a, proc, golden),
        Workload::SocketBulk => stream_rank::<I, Vec<f64>>(rank, a, proc, golden),
        Workload::SocketPingpong => pingpong(rank, a, golden),
        Workload::SimFig5 => unreachable!("the simulated workload has no rank body of ours"),
    }
}

/// Run the workload's rank body on `rank` under the launch's
/// instrumentation.
fn instrumented<TP: Instrument>(
    rank: &mut TP,
    a: &LaunchArgs,
    proc: Proc,
    golden: &Golden,
    sink: &ProfSink,
) -> Report {
    match a.wrap {
        Wrap::Plain => rank_body(rank, a, proc, golden),
        Wrap::Traced => {
            alloc::set_counting(true);
            let me = rank.world_rank();
            let mut traced = Traced::new(rank);
            let mut lines = rank_body(&mut traced, a, proc, golden);
            let (totals, kept) = traced.finish();
            for (name, agg) in totals {
                lines.push(format!(
                    "agg {me} {name} {} {} {}",
                    agg.count, agg.total_ns, agg.self_ns
                ));
            }
            for s in kept {
                lines.push(format!("span {me} {} {} {}", s.name, s.start, s.end));
            }
            lines
        }
        Wrap::Profiled => {
            sink.set_enabled(false); // until the first timed slice
            rank_body(&mut Profiled::new(rank, sink.clone()), a, proc, golden)
        }
    }
}

/// Eq. 4's per-element overhead `o` from a profiled launch's trace.
fn fitted_o_line(trace: &streamprof::Trace, lines: &mut Report) {
    if let Some(fit) = streamprof::fit(trace) {
        lines.push(format!("val o_us {}", fit.overhead_o * 1e6));
    }
}

/// `fit` tells producers from consumers by their stream counters, and a
/// socket producer's process holds its own alone: replay its trace with
/// the consumer's counters entered as the mirror of what was sent (that
/// the consumer received exactly that is checked by the workload).
fn with_mirrored_consumer(trace: &streamprof::Trace) -> streamprof::Trace {
    let sink = ProfSink::new(trace.clock());
    for s in trace.spans() {
        sink.record_span(s.pid, s.cat, s.start, s.end);
    }
    for (&(pid, chan), m) in trace.streams() {
        sink.stream_send(pid, chan, m.elems_sent, m.bytes_sent);
        sink.stream_recv(CONSUMER, chan, m.elems_sent, m.bytes_sent);
    }
    sink.take()
}

fn socket_launch(a: &LaunchArgs) -> Report {
    let golden = Golden::load();
    let sink = ProfSink::new(Clock::Wall);
    let call_ns = mono_ns();
    let per_rank: Vec<Report> = SocketWorld::new("streambench", 2).run(|rank| {
        let mut lines = Report::new();
        if a.wrap == Wrap::Traced {
            // World launch: the launcher's call to the first barrier exit.
            let world = rank.world_group();
            rank.barrier(&world);
            lines.push(format!("val world_up_ns.{} {}", rank.world_rank(), mono_ns()));
        }
        lines.extend(instrumented(rank, a, Proc::Own, &golden, &sink));
        if a.wrap == Wrap::Profiled && rank.world_rank() == PRODUCER {
            fitted_o_line(&with_mirrored_consumer(&sink.take()), &mut lines);
        }
        lines.push(format!("rss {}", peak_rss_mib()));
        lines
    });
    let mut lines: Report = per_rank.into_iter().flatten().collect();
    lines.push(format!("val launch_call_ns {call_ns}"));
    lines.push(format!("rss {}", peak_rss_mib()));
    lines
}

fn native_launch(a: &LaunchArgs) -> Report {
    let golden = Golden::load();
    let sink = ProfSink::new(Clock::Wall);
    let all = Mutex::new(Report::new());
    NativeWorld::new(2).run(|rank| {
        let lines = instrumented(rank, a, Proc::Shared, &golden, &sink);
        all.lock().expect("a rank thread panicked").extend(lines);
    });
    let mut lines = all.into_inner().expect("a rank thread panicked");
    if a.wrap == Wrap::Profiled {
        fitted_o_line(&sink.take(), &mut lines);
    }
    lines.push(format!("rss {}", peak_rss_mib()));
    lines
}

// ---------------------------------------------------------------------
// sim_fig5
// ---------------------------------------------------------------------

/// What one simulated world must reproduce exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct SimFacts {
    makespan_ns: u64,
    events_fired: u64,
    msgs_sent: u64,
    histogram_checksum: u64,
}

fn histogram_checksum(h: &[u64]) -> u64 {
    h.iter()
        .enumerate()
        .fold(0u64, |s, (word, &count)| s.wrapping_add(splitmix64(word as u64).wrapping_mul(count)))
}

fn sim_launch(a: &LaunchArgs) -> Report {
    let golden = Golden::load();
    let mut cfg = bench_harness::configs::fig5(a.sim_ranks, 16);
    // The seed drives the simulated machine's noise (so virtual timing
    // and message interleaving), not the corpus: every seed then maps the
    // same words, and host work per world differs by well under a
    // percent. At the default seed this is the published configuration.
    cfg.seed ^= a.seed ^ DEFAULT_SEED;
    let world = || {
        let r = apps::mapreduce::run_decoupled(a.sim_ranks, &cfg);
        let facts = SimFacts {
            makespan_ns: r.outcome.sim.end_time.as_nanos(),
            events_fired: r.outcome.sim.events.fired,
            msgs_sent: r.outcome.msgs_sent,
            histogram_checksum: histogram_checksum(&r.histogram),
        };
        (facts, r.histogram)
    };
    let published = a.seed == DEFAULT_SEED && a.sim_ranks == SIM_RANKS;
    let oracle = std::cell::OnceCell::new();
    let last: Cell<Option<SimFacts>> = Cell::new(None);
    let check = |_slice: u32, (facts, histogram): (SimFacts, Vec<u64>)| {
        // The word counts against a serial count of the same corpus; the
        // simulation's own figures against the golden file at the default
        // seed, and against the previous world of this launch always (the
        // simulator is deterministic).
        let oracle =
            oracle.get_or_init(|| workloads::Corpus::new(cfg.corpus.clone()).serial_histogram());
        let mut ok = histogram == *oracle;
        if published {
            ok &= golden.sim_facts_ok(
                facts.makespan_ns,
                facts.events_fired,
                facts.msgs_sent,
                facts.histogram_checksum,
            );
        }
        ok &= last.replace(Some(facts)).is_none_or(|prev| prev == facts);
        (facts.msgs_sent, if ok { 0 } else { facts.msgs_sent })
    };

    let mut slicer = Slicer::new(a, 0);
    // The scaling point is a single, larger world: no warm-up copy of it.
    slicer.warm_up(|| (a.sim_ranks == SIM_RANKS).then(world), |r| r.map_or(0, |r| check(0, r).1));
    let then = Counters::snap();
    while slicer.more() {
        slicer.timed(|_| world(), check);
    }
    let mut lines = slicer.lines;
    if a.wrap == Wrap::Traced {
        Counters::snap().report_since(then, "process", &mut lines);
    }
    if let Some(f) = last.get() {
        lines.push(format!("val sim.makespan_ns {}", f.makespan_ns));
        lines.push(format!("val sim.events_fired {}", f.events_fired));
        lines.push(format!("val sim.msgs_sent {}", f.msgs_sent));
        lines.push(format!("val sim.histogram_checksum {}", f.histogram_checksum));
    }
    lines.push(format!("rss {}", peak_rss_mib()));
    lines
}

/// Run one launch in this process and return its report. For the socket
/// workloads the rank processes re-execute this binary with the same
/// arguments, reach this same call, and never return from it.
pub fn run_launch(a: &LaunchArgs) -> Report {
    // Two workloads pin a part of glibc malloc's policy that is otherwise
    // settled by luck, once per process; the other three never come near
    // either and keep the defaults (README.md, "Allocator policy").
    match a.workload {
        Workload::SocketBulk => host::pin_malloc_thresholds(),
        Workload::SimFig5 => host::single_malloc_arena(),
        _ => {}
    }
    match a.workload {
        Workload::SocketFine | Workload::SocketBulk | Workload::SocketPingpong => socket_launch(a),
        Workload::NativeFine => native_launch(a),
        Workload::SimFig5 => sim_launch(a),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_digests_match_their_analytic_form() {
        for seed in [DEFAULT_SEED, 7] {
            let g = <u64 as Payload>::gen(seed);
            let b = <Vec<f64> as Payload>::gen(seed);
            for i in [0u64, 1, 15, 16, 17, 99_999] {
                assert_eq!(
                    <u64 as Payload>::make(&g, i).digest(),
                    <u64 as Payload>::expected(&g, i)
                );
                let v = <Vec<f64> as Payload>::make(&b, i);
                assert_eq!(v.len(), BULK_LEN);
                assert_eq!(v.digest(), <Vec<f64> as Payload>::expected(&b, i));
            }
        }
        // Inputs follow the seed.
        assert_ne!(<u64 as Payload>::make(&1, 0), <u64 as Payload>::make(&2, 0));
    }

    #[test]
    fn launch_arguments_round_trip() {
        for (slices, wrap) in [
            (Slices::Count(3), Wrap::Traced),
            (Slices::Budget(1_500_000_000), Wrap::Plain),
            (Slices::Count(2), Wrap::Profiled),
        ] {
            let a = LaunchArgs {
                workload: Workload::SocketBulk,
                seed: u64::MAX,
                slices,
                wrap,
                sim_ranks: 64,
            };
            assert_eq!(LaunchArgs::parse(&a.to_args()), Ok(a));
        }
        assert!(LaunchArgs::parse(&["--workload".into(), "socket_fine".into()]).is_err());
    }

    #[test]
    fn workload_names_round_trip() {
        for w in ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("socket"), None);
    }
}
