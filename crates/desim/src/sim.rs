//! Simulation construction and execution, plus the per-process [`Ctx`].
//!
//! [`Simulation::run`] launches every process as a fiber on the calling
//! thread, lets the kernel switch between them until the last one exits,
//! and frees their stacks itself. A process's panic is contained in its
//! fiber and becomes the run's [`SimError`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::fault::{FaultKind, FaultPlan};
use crate::fiber;
use crate::kernel::{EventStats, Kernel, Pid, ProcKill, SimAbort, SpanNote};
use crate::time::{SimDuration, SimTime};
use crate::trace::{Span, Trace, TraceSink};

/// Configuration knobs for one simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Master seed; each process derives its own RNG from `(seed, pid)`.
    pub seed: u64,
    /// Record tagged spans (see [`Ctx::trace_begin`]).
    pub trace: bool,
    /// Stack size of each process's fiber (at least 64 KiB). Simulated
    /// ranks mostly keep data on the heap, so the default is small to allow
    /// thousands of processes; a stack is only backed by memory as far as
    /// it is touched.
    pub stack_size: usize,
    /// Seeded failure schedule (see [`FaultPlan`]). The default empty plan
    /// injects nothing and costs nothing.
    pub fault_plan: FaultPlan,
    /// Decouple each process's local clock from the event heap: `advance`
    /// accumulates a local lead ("lag") instead of scheduling a wake-up, and
    /// the lead is reconciled at the next suspension point. Virtual-time
    /// results are preserved wherever inter-process ordering is mediated by
    /// timestamps (messages with availability times, timed wake-ups); what
    /// changes is the *execution* interleaving of independent compute
    /// stretches — and the per-advance heap event they no longer cost.
    /// Ignored (forced off) when the fault plan kills or pauses processes,
    /// since preempting a process mid-`advance` requires its local time to
    /// be on the heap.
    pub lazy_time: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0x5eed_1234,
            trace: false,
            stack_size: 512 * 1024,
            fault_plan: FaultPlan::default(),
            lazy_time: false,
        }
    }
}

/// Per-process statistics gathered during the run.
#[derive(Clone, Debug, Default)]
pub struct ProcStats {
    pub name: String,
    /// Virtual time spent in `advance` (modelled computation / service).
    pub busy: SimDuration,
    /// Virtual time at which the process body returned.
    pub finished_at: SimTime,
    /// True when the process was removed by fault injection rather than
    /// returning from its body.
    pub killed: bool,
}

/// The result of a completed simulation.
#[derive(Clone, Debug, Default)]
pub struct SimOutcome {
    /// Virtual time when the last process exited.
    pub end_time: SimTime,
    /// Per-process stats, indexed by pid.
    pub proc_stats: Vec<ProcStats>,
    /// Pids removed by fault injection, in pid order.
    pub killed: Vec<Pid>,
    /// Recorded spans (empty unless `SimConfig::trace`).
    pub trace: Trace,
    /// Kernel event-traffic counters (heap scheduling efficiency).
    pub events: EventStats,
}

/// A failed simulation: deadlock or a panicking process.
#[derive(Clone, Debug)]
pub struct SimError(pub String);

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "simulation failed: {}", self.0)
    }
}

impl std::error::Error for SimError {}

type ProcBody = Box<dyn FnOnce(&mut Ctx) + Send + 'static>;

/// A discrete-event simulation under construction. Spawn processes, then
/// [`Simulation::run`].
pub struct Simulation {
    kernel: Arc<Kernel>,
    config: SimConfig,
    trace: TraceSink,
    pending: Vec<(Pid, String, ProcBody)>,
}

impl Simulation {
    pub fn new(config: SimConfig) -> Self {
        Simulation::with_fibers(config, fiber::Kind::HOST)
    }

    /// A simulation whose processes run as fibers of `kind`; tests use it
    /// to run the thread fallback on hosts that have stack fibers.
    pub(crate) fn with_fibers(config: SimConfig, kind: fiber::Kind) -> Self {
        let trace = TraceSink::new(config.trace);
        Simulation { kernel: Kernel::new(kind), config, trace, pending: Vec::new() }
    }

    /// Shared kernel handle (usable to pre-build primitives that need it).
    pub fn kernel(&self) -> Arc<Kernel> {
        self.kernel.clone()
    }

    /// Register a simulated process. Bodies start at virtual time zero in
    /// spawn order. Returns the process id.
    pub fn spawn(
        &mut self,
        name: impl Into<String>,
        body: impl FnOnce(&mut Ctx) + Send + 'static,
    ) -> Pid {
        let name = name.into();
        let pid = self.kernel.register_proc(name.clone());
        self.pending.push((pid, name, Box::new(body)));
        pid
    }

    /// Spawn the hidden process that executes the fault plan's kills (and
    /// records fault trace spans). Pause windows are handled inside the
    /// scheduler; kills need an actor that is *at* the kill time, which is
    /// exactly what a simulated process is. The injector gets the highest
    /// pid, so application pids are unaffected.
    fn install_fault_injector(&mut self) {
        let plan = self.config.fault_plan.clone();
        if !plan.has_process_faults() {
            return;
        }
        let trace = self.trace.clone();
        self.spawn("fault-injector", move |ctx| {
            for action in plan.timeline() {
                while ctx.now() < action.at {
                    ctx.wake_self_at(action.at);
                    ctx.suspend("fault-injector: waiting for next fault time");
                }
                match action.kind {
                    FaultKind::Kill(pid) => {
                        ctx.kernel().kill(pid);
                        let now = ctx.now();
                        trace.record(Span { pid, tag: "fault-kill", start: now, end: now });
                    }
                    FaultKind::Pause { pid, until } => {
                        trace.record(Span {
                            pid,
                            tag: "fault-pause",
                            start: ctx.now(),
                            end: until,
                        });
                    }
                }
            }
        });
    }

    /// Execute the simulation to completion.
    pub fn run(mut self) -> Result<SimOutcome, SimError> {
        install_quiet_abort_hook();
        self.install_fault_injector();
        let Simulation { kernel, config, trace, pending } = self;
        kernel.set_pauses(config.fault_plan.pause_windows());
        let nprocs = pending.len();
        if nprocs == 0 {
            return Ok(SimOutcome::default());
        }
        let stats: Arc<Mutex<Vec<ProcStats>>> =
            Arc::new(Mutex::new(vec![ProcStats::default(); nprocs]));
        // Kills and pauses preempt processes at heap-event granularity, which
        // lazy local clocks deliberately skip — so they force eventful mode.
        let lazy = config.lazy_time && !config.fault_plan.has_process_faults();

        // Every process gets its t=0 activation up front, in pid order: the
        // heap's FIFO tie-break is what starts bodies in spawn order.
        for (pid, _, _) in &pending {
            kernel.schedule_at(SimTime::ZERO, *pid);
        }
        let env = ProcEnv {
            kernel: kernel.clone(),
            trace: trace.clone(),
            stats: stats.clone(),
            seed: config.seed,
            nprocs,
            lazy,
        };
        let launched: Vec<fiber::Launched> = pending
            .into_iter()
            .map(|(pid, name, body)| {
                kernel.launch(pid, config.stack_size, env.clone().process(pid, name, body))
            })
            .collect();
        drop(env);
        kernel.run_to_completion();
        // Every process has exited: free the stacks on this, the runner's,
        // stack.
        drop(launched);
        if let Some(reason) = kernel.abort_reason() {
            return Err(SimError(reason));
        }
        let proc_stats =
            Arc::try_unwrap(stats).map(|m| m.into_inner()).unwrap_or_else(|arc| arc.lock().clone());
        let killed =
            proc_stats.iter().enumerate().filter(|(_, s)| s.killed).map(|(pid, _)| pid).collect();
        Ok(SimOutcome {
            // The horizon covers lazy local clocks that outran the heap.
            end_time: SimTime(kernel.now().0.max(kernel.horizon())),
            proc_stats,
            killed,
            trace: trace.take(),
            events: kernel.event_stats(),
        })
    }

    /// [`Simulation::run`], panicking on failure. Convenient in tests.
    pub fn run_expect(self) -> SimOutcome {
        match self.run() {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }
}

/// What every process of one world shares.
#[derive(Clone)]
struct ProcEnv {
    kernel: Arc<Kernel>,
    trace: TraceSink,
    stats: Arc<Mutex<Vec<ProcStats>>>,
    seed: u64,
    nprocs: usize,
    lazy: bool,
}

impl ProcEnv {
    /// The fiber body of process `pid`: run `body` under `catch_unwind`,
    /// record the outcome, and return the fiber to hand the CPU to. Panics
    /// are contained here, so none reaches the fiber's entry frame.
    fn process(self, pid: Pid, name: String, body: ProcBody) -> fiber::Body {
        Box::new(move || {
            let ProcEnv { kernel, trace, stats, seed, nprocs, lazy } = self;
            // The first switch to us is our t=0 activation, unless the run
            // aborted (or we were killed) before it.
            let entry = catch_unwind(AssertUnwindSafe(|| {
                kernel.check_abort();
                kernel.check_killed(pid);
            }));
            if let Err(payload) = entry {
                drop(body);
                if payload.downcast_ref::<ProcKill>().is_some() {
                    // Killed before the body ever ran.
                    stats.lock()[pid] = ProcStats {
                        name,
                        busy: SimDuration::ZERO,
                        finished_at: kernel.now(),
                        killed: true,
                    };
                }
                return kernel.proc_exit(pid);
            }
            let mut ctx = Ctx {
                kernel: kernel.clone(),
                pid,
                nprocs,
                rng: derive_rng(seed, pid),
                trace,
                busy: SimDuration::ZERO,
                open_spans: Vec::new(),
                last_span: None,
                lag: 0,
                lazy,
            };
            match catch_unwind(AssertUnwindSafe(|| body(&mut ctx))) {
                Ok(()) => {
                    // `ctx.now()` includes any unreconciled lazy lead; fold
                    // it into the outcome's end time via the horizon.
                    let finished_at = ctx.now();
                    kernel.raise_horizon(finished_at.0);
                    stats.lock()[pid] =
                        ProcStats { name, busy: ctx.busy, finished_at, killed: false };
                }
                Err(payload) => {
                    if payload.downcast_ref::<ProcKill>().is_some() {
                        // Removed by fault injection: a clean (if abrupt)
                        // exit, not a failure.
                        stats.lock()[pid] = ProcStats {
                            name,
                            busy: ctx.busy,
                            finished_at: kernel.now(),
                            killed: true,
                        };
                    } else if payload.downcast_ref::<SimAbort>().is_none() {
                        let msg = panic_message(payload.as_ref());
                        kernel.mark_failed(format!("process {pid} `{name}` panicked: {msg}"));
                    }
                    // Otherwise a simulation-wide abort is in progress.
                }
            }
            drop(ctx);
            kernel.proc_exit(pid)
        })
    }
}

fn derive_rng(seed: u64, pid: Pid) -> StdRng {
    // SplitMix64-style mix so neighbouring pids get unrelated streams.
    let mut z = seed ^ (pid as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Install (once) a panic hook that silences the internal [`SimAbort`] and
/// [`ProcKill`] unwinds used to tear simulations (and killed processes)
/// down, while delegating every other panic to the previous hook.
fn install_quiet_abort_hook() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<SimAbort>().is_none()
                && info.payload().downcast_ref::<ProcKill>().is_none()
            {
                prev(info);
            }
        }));
    });
}

/// Handle through which a process body interacts with the simulation.
///
/// A `Ctx` is exclusive to its process: it is handed to the body as
/// `&mut Ctx` and carries the process's RNG, busy-time accounting and open
/// trace spans.
pub struct Ctx {
    kernel: Arc<Kernel>,
    pid: Pid,
    nprocs: usize,
    rng: StdRng,
    trace: TraceSink,
    busy: SimDuration,
    open_spans: Vec<(&'static str, SimTime)>,
    /// The most recent span opened or closed, handed to the kernel each
    /// time this process blocks (for deadlock reports): a span itself
    /// takes no lock.
    last_span: Option<SpanNote>,
    /// Local lead over the kernel clock accumulated by `advance` in lazy
    /// mode ("decoupled local clock"): this process is at `kernel.now() +
    /// lag` while the heap never saw the intermediate steps. Always zero in
    /// eventful mode.
    lag: u64,
    /// Lazy local clocks on for this run (see `SimConfig::lazy_time`).
    lazy: bool,
}

impl Ctx {
    /// This process's id (dense, spawn order).
    #[inline]
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Total number of processes in the simulation.
    #[inline]
    pub fn num_procs(&self) -> usize {
        self.nprocs
    }

    /// Current virtual time (this process's local clock: the kernel clock
    /// plus any lazy lead).
    #[inline]
    pub fn now(&self) -> SimTime {
        SimTime(self.kernel.now().0 + self.lag)
    }

    /// Spend `dt` of virtual time computing (other processes run meanwhile).
    pub fn advance(&mut self, dt: SimDuration) {
        self.busy += dt;
        if self.lazy {
            // Decoupled local clock: no heap event, no hand-off — just run
            // ahead locally. Reconciled at the next `suspend`.
            self.lag += dt.0;
        } else {
            self.kernel.advance(self.pid, dt, self.last_span);
        }
    }

    /// [`Ctx::advance`] with float seconds.
    pub fn advance_secs(&mut self, secs: f64) {
        self.advance(SimDuration::from_secs_f64(secs));
    }

    /// Convert any lazily accumulated local lead into a real kernel advance,
    /// so the kernel clock catches up to this process's local clock (other
    /// processes run during the interval, exactly as under eventful time).
    ///
    /// Primitives mediated by *timestamps* (message availability, timed
    /// wake-ups, the gap-aware [`crate::LinkClock`]) tolerate lazy clocks
    /// as-is. Primitives mediated by *call order* — locks, FIFO grant
    /// queues, [`crate::FifoServer`] — must call this first, or a lazily
    /// leading process books/acquires ahead of peers that are earlier in
    /// virtual time. No-op in eventful mode or when there is no lead.
    pub fn commit_lag(&mut self) {
        if self.lag > 0 {
            let lead = std::mem::take(&mut self.lag);
            self.kernel.advance(self.pid, SimDuration(lead), self.last_span);
        }
    }

    /// Suspend until some event wakes this process. May wake spuriously;
    /// callers loop on their predicate. `why` shows up in deadlock reports.
    pub fn suspend(&mut self, why: &'static str) {
        if self.lag == 0 {
            self.kernel.suspend(self.pid, why, self.last_span);
            return;
        }
        // Reconcile the lazy lead commit-free: waiting and computing overlap
        // from this process's point of view. If the wake-up lands before our
        // local clock (kernel still behind `local`), the wait was already
        // covered by locally-accounted time and the remainder stays as lag;
        // if it lands after, the local clock snaps forward to the wake-up.
        // Crucially the lead is *not* converted into a kernel `advance`
        // first: that would deliver (and swallow) the very wake-up events
        // this suspension is waiting for.
        let local = self.kernel.now().0 + self.lag;
        self.kernel.suspend(self.pid, why, self.last_span);
        self.lag = local.saturating_sub(self.kernel.now().0);
    }

    /// Schedule a wake-up for this process at absolute virtual time `at`.
    pub fn wake_self_at(&self, at: SimTime) {
        self.kernel.schedule_at(at, self.pid);
    }

    /// Terminate this process *as if killed by a fault*: it unwinds
    /// immediately and is reported in
    /// [`SimOutcome::killed`](crate::SimOutcome::killed), exactly like a
    /// [`FaultPlan::kill`](crate::FaultPlan::kill) victim.
    ///
    /// This is the execution half of
    /// [`FaultPlan::kill_at_element`](crate::FaultPlan::kill_at_element):
    /// an application layer that counts consumed elements calls this at
    /// the scheduled cursor, giving deterministic element-granular deaths
    /// with no injector involvement.
    pub fn exit_killed(&mut self) -> ! {
        std::panic::panic_any(ProcKill)
    }

    /// The shared kernel (for building synchronization primitives: wake
    /// another process with [`Kernel::schedule_at`]).
    pub fn kernel(&self) -> &Arc<Kernel> {
        &self.kernel
    }

    /// Deterministic per-process random number generator.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Open a trace span tagged `tag`. Nestable; close with
    /// [`Ctx::trace_end`] in LIFO order.
    ///
    /// The most recent span is always noted (deadlock reports show each
    /// blocked process's); the span is *recorded* only when the simulation
    /// runs with `SimConfig::trace`.
    pub fn trace_begin(&mut self, tag: &'static str) {
        let now = self.now();
        self.open_spans.push((tag, now));
        self.last_span = Some(SpanNote { tag, start: now.0, end: None });
    }

    /// Close the innermost open span with tag `tag` and record it.
    pub fn trace_end(&mut self, tag: &'static str) {
        let idx = self
            .open_spans
            .iter()
            .rposition(|(t, _)| *t == tag)
            .unwrap_or_else(|| panic!("trace_end(\"{tag}\") without matching trace_begin"));
        let (_, start) = self.open_spans.remove(idx);
        let now = self.now();
        self.last_span = Some(SpanNote { tag, start: start.0, end: Some(now.0) });
        if self.trace.enabled() {
            self.trace.record(Span { pid: self.pid, tag, start, end: now });
        }
    }

    /// Run `f` inside a span tagged `tag`.
    pub fn traced<R>(&mut self, tag: &'static str, f: impl FnOnce(&mut Ctx) -> R) -> R {
        self.trace_begin(tag);
        let r = f(self);
        self.trace_end(tag);
        r
    }
}
