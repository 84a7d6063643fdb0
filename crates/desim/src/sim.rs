//! Simulation construction and execution, plus the per-process [`Ctx`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::fault::{FaultKind, FaultPlan};
use crate::kernel::{EventStats, Kernel, Pid, ProcKill, SimAbort};
use crate::raw_thread;
use crate::time::{SimDuration, SimTime};
use crate::trace::{Span, Trace, TraceSink};

/// Configuration knobs for one simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Master seed; each process derives its own RNG from `(seed, pid)`.
    pub seed: u64,
    /// Record tagged spans (see [`Ctx::trace_begin`]).
    pub trace: bool,
    /// Stack size for process threads. Simulated ranks mostly keep data on
    /// the heap, so the default is small to allow thousands of processes.
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
        let trace = TraceSink::new(config.trace);
        Simulation { kernel: Kernel::new(), config, trace, pending: Vec::new() }
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
        // heap's FIFO tie-break is what starts bodies in spawn order, so OS
        // thread creation below need not be ordered — or even finished —
        // before the simulation starts (an activation token set before its
        // thread first waits stays set until consumed).
        for (pid, _, _) in &pending {
            kernel.schedule_at(SimTime::ZERO, *pid);
        }

        // Large worlds create their threads from a small helper pool that
        // overlaps with the running simulation; small worlds spawn inline.
        // Worlds at raw-thread scale also switch spawn paths — see
        // `raw_thread` for the VMA arithmetic that makes 16K+ ranks fit.
        let raw = raw_thread::use_raw_threads(nprocs);
        let spawners = spawner_threads(nprocs);
        let mut handles = Vec::with_capacity(nprocs);
        let spawner_handles = if spawners <= 1 {
            for (pid, name, body) in pending {
                handles.push(spawn_proc_thread(
                    kernel.clone(),
                    trace.clone(),
                    stats.clone(),
                    config.seed,
                    nprocs,
                    config.stack_size,
                    lazy,
                    raw,
                    pid,
                    name,
                    body,
                ));
            }
            Vec::new()
        } else {
            let chunk_len = nprocs.div_ceil(spawners);
            let mut rest = pending;
            let mut spawner_handles = Vec::with_capacity(spawners);
            while !rest.is_empty() {
                let tail = rest.split_off(rest.len().min(chunk_len));
                let chunk = std::mem::replace(&mut rest, tail);
                let kernel = kernel.clone();
                let trace = trace.clone();
                let stats = stats.clone();
                let seed = config.seed;
                let stack_size = config.stack_size;
                spawner_handles.push(std::thread::spawn(move || {
                    chunk
                        .into_iter()
                        .map(|(pid, name, body)| {
                            spawn_proc_thread(
                                kernel.clone(),
                                trace.clone(),
                                stats.clone(),
                                seed,
                                nprocs,
                                stack_size,
                                lazy,
                                raw,
                                pid,
                                name,
                                body,
                            )
                        })
                        .collect::<Vec<_>>()
                }));
            }
            spawner_handles
        };

        kernel.run_to_completion();
        for sh in spawner_handles {
            handles.extend(sh.join().expect("spawner thread panicked"));
        }
        for h in handles {
            h.join();
        }
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

/// How many helper threads to use for OS-thread creation. Inline spawning
/// is fine for small worlds; thousand-rank worlds spend most of their
/// startup in serial `thread::spawn` calls, so those get a pool bounded by
/// the host's parallelism.
fn spawner_threads(nprocs: usize) -> usize {
    if nprocs < 256 {
        return 1;
    }
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    cores.min(8).min(nprocs.div_ceil(64)).max(1)
}

/// One simulated process's backing OS thread, on either spawn path.
enum ProcHandle {
    Std(std::thread::JoinHandle<()>),
    Raw(raw_thread::RawJoinHandle),
}

impl ProcHandle {
    fn join(self) {
        match self {
            // Std threads that unwound with SimAbort report Err; that is
            // fine. Raw threads contain their panics internally.
            ProcHandle::Std(h) => drop(h.join()),
            ProcHandle::Raw(h) => h.join(),
        }
    }
}

/// Create the OS thread backing one simulated process. The thread parks on
/// the process token until its t=0 activation (or a later hand-off) wakes
/// it, so thread creation order is irrelevant to simulation order. `raw`
/// selects the `pthread_create` path that halves per-thread VMA cost for
/// huge worlds (see `raw_thread`); the process body is identical on both.
#[allow(clippy::too_many_arguments)]
fn spawn_proc_thread(
    kernel: Arc<Kernel>,
    trace: TraceSink,
    stats: Arc<Mutex<Vec<ProcStats>>>,
    seed: u64,
    nprocs: usize,
    stack_size: usize,
    lazy: bool,
    raw: bool,
    pid: Pid,
    name: String,
    body: ProcBody,
) -> ProcHandle {
    let thread_name = format!("sim-{pid}-{name}");
    let run = move || {
        // Wait for our t=0 activation before touching anything.
        let entry = catch_unwind(AssertUnwindSafe(|| {
            kernel.entry_wait(pid);
        }));
        if let Err(payload) = entry {
            if payload.downcast_ref::<ProcKill>().is_some() {
                // Killed before the body ever ran.
                {
                    let mut st = stats.lock();
                    st[pid] = ProcStats {
                        name,
                        busy: SimDuration::ZERO,
                        finished_at: kernel.now(),
                        killed: true,
                    };
                }
                kernel.proc_exit(pid);
            }
            return; // aborted (or killed) before start
        }
        let mut ctx = Ctx {
            kernel: kernel.clone(),
            pid,
            nprocs,
            rng: derive_rng(seed, pid),
            trace,
            busy: SimDuration::ZERO,
            open_spans: Vec::new(),
            lag: 0,
            lazy,
        };
        let result = catch_unwind(AssertUnwindSafe(|| body(&mut ctx)));
        match result {
            Ok(()) => {
                // `ctx.now()` includes any unreconciled lazy lead; fold
                // it into the outcome's end time via the horizon.
                let finished_at = ctx.now();
                kernel.raise_horizon(finished_at.0);
                {
                    let mut st = stats.lock();
                    st[pid] = ProcStats { name, busy: ctx.busy, finished_at, killed: false };
                }
                // May unwind with SimAbort on deadlock; the quiet hook
                // keeps that silent.
                kernel.proc_exit(pid);
            }
            Err(payload) => {
                if payload.downcast_ref::<ProcKill>().is_some() {
                    // Removed by fault injection: a clean (if abrupt)
                    // exit, not a failure.
                    {
                        let mut st = stats.lock();
                        st[pid] = ProcStats {
                            name,
                            busy: ctx.busy,
                            finished_at: kernel.now(),
                            killed: true,
                        };
                    }
                    kernel.proc_exit(pid);
                    return;
                }
                if payload.downcast_ref::<SimAbort>().is_some() {
                    // Simulation-wide abort already in progress.
                    return;
                }
                let msg = panic_message(payload.as_ref());
                kernel.mark_failed(format!("process {pid} `{name}` panicked: {msg}"));
            }
        }
    };
    if raw {
        return ProcHandle::Raw(
            raw_thread::spawn(stack_size, Box::new(run))
                .expect("failed to spawn simulation thread"),
        );
    }
    ProcHandle::Std(
        std::thread::Builder::new()
            .name(thread_name)
            .stack_size(stack_size)
            .spawn(run)
            .expect("failed to spawn simulation thread"),
    )
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
            self.kernel.advance(self.pid, dt);
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
            self.kernel.advance(self.pid, SimDuration(lead));
        }
    }

    /// Suspend until some event wakes this process. May wake spuriously;
    /// callers loop on their predicate. `why` shows up in deadlock reports.
    pub fn suspend(&mut self, why: &'static str) {
        if self.lag == 0 {
            self.kernel.suspend(self.pid, why);
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
        self.kernel.suspend(self.pid, why);
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
    /// Span begin/end times are always noted to the kernel (so deadlock
    /// reports can show each process's most recent span); the span is
    /// *recorded* only when the simulation runs with `SimConfig::trace`.
    pub fn trace_begin(&mut self, tag: &'static str) {
        let now = self.now();
        self.open_spans.push((tag, now));
        self.kernel.note_span(self.pid, tag, now.0, None);
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
        self.kernel.note_span(self.pid, tag, start.0, Some(now.0));
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
