//! The simulation kernel: virtual clock, event heap and coroutine scheduling.
//!
//! # Execution model
//!
//! Every simulated process is a fiber — a stackful coroutine with a stack
//! of its own (`fiber.rs`) — on the thread that runs the simulation, so
//! **exactly one simulated process executes at any moment**. The running
//! process, when it suspends, pops the next event from the heap, advances
//! the virtual clock to that event's timestamp and switches to the event's
//! owner; the last process to exit switches back to the runner. This gives
//! a sequential, fully deterministic simulation (events at equal timestamps
//! fire in schedule order) while letting process bodies be written as
//! ordinary imperative Rust.
//!
//! # Wake-up semantics
//!
//! An event is nothing more than "wake process *p* at time *t*". A process
//! may be woken spuriously (e.g. a stale wake-up scheduled by a sender whose
//! message the process already consumed), so **every blocking primitive must
//! re-check its predicate in a loop** after [`Kernel::suspend`] returns.
//! This is the same discipline as condition variables.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::fiber::{self, Fiber};
use crate::time::{SimDuration, SimTime};

/// Identifier of a simulated process (dense, assigned in spawn order).
pub type Pid = usize;

/// A scheduled wake-up: `(time, seq, pid)` ordered by time then FIFO.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    time: u64,
    seq: u64,
    pid: Pid,
}

/// Event-traffic counters of one run — the denominator of the engine's
/// efficiency metric (events per delivered message, `benchmark/`'s
/// `desim.events_per_msg`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventStats {
    /// Wake-ups accepted into the heap.
    pub scheduled: u64,
    /// Wake-ups coalesced away because an identical `(time, pid)` event
    /// was already pending (lazy-deduplicated heap).
    pub coalesced: u64,
    /// Events actually popped and delivered to a process.
    pub fired: u64,
}

/// Membership checks only, once per scheduled event — never iterated, so
/// hash order cannot leak into simulation behaviour. Fixed-key hasher
/// ([`crate::hash`]): the keys are the kernel's own.
#[allow(clippy::disallowed_types)]
type PendingSet = std::collections::HashSet<(u64, Pid), crate::FixedState>;

/// [`Sched::running`] while the runner, not a process, holds the CPU.
const RUNNER: Pid = Pid::MAX;

/// The most recent trace span a process opened (and possibly closed),
/// remembered even when no trace sink is recording so deadlock reports can
/// show where each process last was without re-running under trace.
#[derive(Clone, Copy)]
struct SpanNote {
    tag: &'static str,
    start: u64,
    /// `None` while the span is still open.
    end: Option<u64>,
}

struct ProcMeta {
    name: String,
    /// Boxed so its address survives `procs` growing: a suspended
    /// process's context is saved there.
    fiber: Box<Fiber>,
    done: bool,
    /// Set by [`Kernel::kill`]; the process unwinds with [`ProcKill`] at
    /// its next scheduling point.
    killed: bool,
    /// Human-readable description of what the process is blocked on,
    /// reported on deadlock.
    blocked_on: &'static str,
    /// Most recent trace span, for deadlock diagnosis.
    last_span: Option<SpanNote>,
}

struct Sched {
    now: u64,
    seq: u64,
    heap: BinaryHeap<Reverse<Event>>,
    /// `(time, pid)` pairs currently in the heap. A second wake-up for an
    /// identical pair is coalesced away (wake-ups are spurious-tolerant,
    /// so one delivery is as good as two).
    pending: PendingSet,
    procs: Vec<ProcMeta>,
    live: usize,
    /// The process holding the CPU, or [`RUNNER`].
    running: Pid,
    /// Fault-plan pause windows as `(pid, from_ns, until_ns)`: events for
    /// `pid` inside the window are deferred to `until_ns`.
    pauses: Vec<(Pid, u64, u64)>,
    stats: EventStats,
}

impl Sched {
    /// Pop the next deliverable event, advance the clock to it and return
    /// its owner. Skips events of exited processes and defers events that
    /// fall in a pause window (kill wake-ups are exempt so a paused process
    /// can still be killed promptly).
    fn pop_runnable(&mut self) -> Option<Pid> {
        loop {
            let Reverse(ev) = self.heap.pop()?;
            self.pending.remove(&(ev.time, ev.pid));
            if self.procs[ev.pid].done {
                continue; // stale event for an exited process
            }
            if !self.pauses.is_empty() && !self.procs[ev.pid].killed {
                if let Some(resume) = self.pause_resume(ev.pid, ev.time) {
                    self.push_event(resume, ev.pid);
                    continue;
                }
            }
            debug_assert!(ev.time >= self.now, "event heap went backwards");
            self.now = ev.time;
            self.stats.fired += 1;
            return Some(ev.pid);
        }
    }

    /// Append a wake-up event for `pid` at `time` (callers clamp `time` to
    /// `now` themselves where needed). A `(time, pid)` pair already in the
    /// heap is coalesced: one wake-up at that instant is indistinguishable
    /// from two under the spurious-wake-up discipline.
    fn push_event(&mut self, time: u64, pid: Pid) {
        if !self.pending.insert((time, pid)) {
            self.stats.coalesced += 1;
            return;
        }
        let seq = self.seq;
        self.seq += 1;
        self.stats.scheduled += 1;
        self.heap.push(Reverse(Event { time, seq, pid }));
    }

    /// Record that `to` (a pid or [`RUNNER`]) takes the CPU from `from`,
    /// and return both fibers for [`Kernel::switch`]. Panics unless `from`
    /// is the one running: a process may only suspend itself.
    fn hand_over(&mut self, kernel: &Kernel, from: Pid, to: Pid) -> (*const Fiber, *const Fiber) {
        assert_eq!(self.running, from, "pid {from} suspended while another process runs");
        self.running = to;
        let fiber = |pid: Pid| -> *const Fiber {
            if pid == RUNNER {
                &kernel.runner
            } else {
                &*self.procs[pid].fiber
            }
        };
        (fiber(from), fiber(to))
    }

    /// If `t` falls inside a pause window of `pid`, the time it resumes.
    fn pause_resume(&self, pid: Pid, t: u64) -> Option<u64> {
        let mut resume: Option<u64> = None;
        for &(p, from, until) in &self.pauses {
            if p == pid && from <= t && t < until {
                resume = Some(resume.map_or(until, |u| u.max(until)));
            }
        }
        resume
    }
}

/// Shared simulation kernel. One per [`crate::Simulation`]; handed to every
/// process through its [`crate::Ctx`].
pub struct Kernel {
    state: Mutex<Sched>,
    /// Mirror of `Sched::now`, published (Release) at every clock advance
    /// while the state lock is held and read (Acquire) by [`Kernel::now`].
    /// Only the running process observes it between hand-offs, and the
    /// switch orders the store before the next process's loads, so readers
    /// always see the clock of the event that woke them.
    now_cache: AtomicU64,
    /// High-water mark of decoupled local clocks (see `Ctx::advance` in lazy
    /// mode): each process raises it to its final local time on exit, so the
    /// outcome's end time covers work that never became heap events. Plain
    /// `fetch_max`; no other state depends on it.
    horizon: AtomicU64,
    /// The context of the thread inside `Simulation::run` while a process
    /// runs.
    runner: Fiber,
    aborted: AtomicBool,
    abort_reason: Mutex<Option<String>>,
    /// External diagnostic sources appended to deadlock reports (e.g. the
    /// mpisim sanitizer's in-flight credit table). Each callback must not
    /// touch kernel state: it runs while a deadlock is being reported.
    diagnostics: Mutex<Vec<DiagnosticSource>>,
}

/// A callback contributing extra lines to deadlock reports; returns `None`
/// when it has nothing to say.
pub type DiagnosticSource = Arc<dyn Fn() -> Option<String> + Send + Sync>;

/// Panic payload used to unwind suspended processes when the simulation
/// aborts (deadlock or a sibling process panicked). `Simulation::run`
/// recognises it and converts it into a single, readable error.
pub(crate) struct SimAbort;

/// Panic payload used to unwind a single process killed by fault injection
/// (see [`Kernel::kill`]). `Simulation::run` recognises it and treats the
/// unwind as a clean (but killed) exit rather than a failure.
pub(crate) struct ProcKill;

impl Kernel {
    pub(crate) fn new(kind: fiber::Kind) -> Arc<Kernel> {
        Arc::new(Kernel {
            state: Mutex::new(Sched {
                now: 0,
                seq: 0,
                heap: BinaryHeap::new(),
                pending: PendingSet::default(),
                procs: Vec::new(),
                live: 0,
                running: RUNNER,
                pauses: Vec::new(),
                stats: EventStats::default(),
            }),
            now_cache: AtomicU64::new(0),
            horizon: AtomicU64::new(0),
            runner: Fiber::new(kind),
            aborted: AtomicBool::new(false),
            abort_reason: Mutex::new(None),
            diagnostics: Mutex::new(Vec::new()),
        })
    }

    pub(crate) fn register_proc(&self, name: String) -> Pid {
        let mut s = self.state.lock();
        let pid = s.procs.len();
        s.procs.push(ProcMeta {
            name,
            fiber: Box::new(Fiber::new(self.runner.kind())),
            done: false,
            killed: false,
            blocked_on: "start",
            last_span: None,
        });
        s.live += 1;
        pid
    }

    /// Prepare process `pid` to run `body` as a fiber when first switched
    /// to (see [`fiber::launch`]). The runner owns what this returns and
    /// drops it after `run_to_completion`.
    pub(crate) fn launch(&self, pid: Pid, stack_size: usize, body: fiber::Body) -> fiber::Launched {
        fiber::launch(&self.state.lock().procs[pid].fiber, stack_size, body)
    }

    /// Current virtual time. Lock-free: reads the published clock mirror
    /// (see `now_cache`), which is exact for the running process.
    pub fn now(&self) -> SimTime {
        SimTime(self.now_cache.load(Ordering::Acquire))
    }

    /// Number of registered processes.
    pub fn num_procs(&self) -> usize {
        self.state.lock().procs.len()
    }

    /// Schedule a wake-up for `pid` at absolute time `at`. May be called
    /// from any running process (or from `Simulation::run` before start).
    pub fn schedule_at(&self, at: SimTime, pid: Pid) {
        let mut s = self.state.lock();
        // Floating-point cost models can round a hair into the past; clamp
        // to `now` so the heap never goes backwards.
        let time = at.0.max(s.now);
        s.push_event(time, pid);
    }

    /// Event-traffic counters so far (see [`EventStats`]).
    pub fn event_stats(&self) -> EventStats {
        self.state.lock().stats
    }

    /// Raise the lazy-clock high-water mark to at least `t` (monotone).
    pub(crate) fn raise_horizon(&self, t: u64) {
        self.horizon.fetch_max(t, Ordering::Relaxed);
    }

    /// The lazy-clock high-water mark (0 unless lazy local clocks ran).
    pub(crate) fn horizon(&self) -> u64 {
        self.horizon.load(Ordering::Relaxed)
    }

    /// Suspend the calling process `me` until some event wakes it.
    ///
    /// The caller transfers control to the owner of the next event in the
    /// heap. Returns when `me` is next switched to — which may be
    /// *spurious*; callers must loop on their predicate. `why` is reported
    /// if a deadlock is detected while `me` is suspended here. Panics
    /// unless `me` is the running process and this is the simulation's
    /// thread.
    pub fn suspend(&self, me: Pid, why: &'static str) {
        self.check_abort();
        // One lock section: record why we block, pop the next event, publish
        // the clock, and pick both fibers for the hand-off. When our own
        // wake-up is next we return without switching.
        let hand = {
            let mut s = self.state.lock();
            s.procs[me].blocked_on = why;
            match s.pop_runnable() {
                Some(p) => {
                    self.now_cache.store(s.now, Ordering::Release);
                    if p == me {
                        None // our own wake-up is the next event: keep running
                    } else {
                        Some(s.hand_over(self, me, p))
                    }
                }
                None => {
                    // No event can ever fire again and `me` is about to
                    // block: every live process is now suspended with
                    // nothing to wake it.
                    drop(s);
                    self.abort(format!(
                        "deadlock: no scheduled events and all processes blocked\n{}",
                        self.blocked_report()
                    ));
                }
            }
        };
        if let Some((from, to)) = hand {
            self.switch(from, to);
            self.check_abort();
            self.check_killed(me);
        }
        self.check_abort();
    }

    /// Advance the calling process's local time by `dt` (a "compute" step).
    /// Other processes run during the interval.
    pub fn advance(&self, me: Pid, dt: SimDuration) {
        if dt == SimDuration::ZERO {
            return;
        }
        enum Step {
            Done,
            Again,
            Hand(*const Fiber, *const Fiber),
            Dead,
        }
        self.check_abort();
        let mut target: Option<u64> = None;
        loop {
            let step = {
                let mut s = self.state.lock();
                let t = match target {
                    Some(t) => t,
                    None => {
                        // First iteration: schedule the wake-up under the
                        // same lock that pops the next event, so the common
                        // case (our own wake-up is next) is one lock round
                        // trip and no switch.
                        let t = s.now + dt.0;
                        s.push_event(t, me);
                        s.procs[me].blocked_on = "advance";
                        target = Some(t);
                        t
                    }
                };
                match s.pop_runnable() {
                    Some(p) => {
                        self.now_cache.store(s.now, Ordering::Release);
                        if p != me {
                            let (from, to) = s.hand_over(self, me, p);
                            Step::Hand(from, to)
                        } else if s.now >= t {
                            Step::Done
                        } else {
                            Step::Again // spurious early wake-up for `me`
                        }
                    }
                    None => Step::Dead,
                }
            };
            match step {
                Step::Done => return,
                Step::Again => continue,
                Step::Hand(from, to) => {
                    self.switch(from, to);
                    self.check_abort();
                    self.check_killed(me);
                    if self.now_cache.load(Ordering::Acquire) >= target.unwrap() {
                        return;
                    }
                }
                Step::Dead => self.abort(format!(
                    "deadlock: no scheduled events and all processes blocked\n{}",
                    self.blocked_report()
                )),
            }
        }
    }

    /// Move the CPU between the fibers [`Sched::hand_over`] picked. Called
    /// with the `Sched` guard dropped: every fiber runs on this one thread,
    /// so a guard held into the switch would deadlock the next fiber's
    /// first lock.
    fn switch(&self, from: *const Fiber, to: *const Fiber) {
        // SAFETY: `hand_over` checked that `from` is the running fiber, and
        // picked `to` off the heap (or the runner), so it is suspended in a
        // switch or launched and not yet started. Both slots live as long
        // as `self`: the runner's is a field, and a process's is boxed in
        // `procs`, which never shrinks. Stacks are freed only after
        // `run_to_completion` returns, when every fiber has exited.
        unsafe { fiber::switch(&*from, &*to) }
    }

    /// Called by the process wrapper as `me` exits, whether its body
    /// returned, was killed or unwound from an abort. Returns the fiber to
    /// hand the CPU to: the next event's owner, or the runner when the last
    /// process exits or the run has aborted.
    pub(crate) fn proc_exit(&self, me: Pid) -> *const Fiber {
        let mut s = self.state.lock();
        s.procs[me].done = true;
        s.live -= 1;
        let next = if s.live == 0 || self.aborted.load(Ordering::SeqCst) {
            RUNNER
        } else {
            match s.pop_runnable() {
                Some(p) => {
                    self.now_cache.store(s.now, Ordering::Release);
                    p
                }
                None => {
                    let live = s.live;
                    drop(s);
                    self.mark_failed(format!(
                        "deadlock: process `{}` exited with {} live processes \
                         blocked and no scheduled events\n{}",
                        self.proc_name(me),
                        live,
                        self.blocked_report()
                    ));
                    s = self.state.lock();
                    RUNNER
                }
            }
        };
        s.hand_over(self, me, next).1
    }

    /// Kick off the simulation: switch to the owner of the earliest event,
    /// and return once every process has exited. After an abort, resume
    /// each live process once, in pid order, so it unwinds (or, never
    /// started, drops its body) and runs its destructors before the runner
    /// frees its stack.
    pub(crate) fn run_to_completion(&self) {
        self.runner.bind_runner();
        let first = {
            let mut s = self.state.lock();
            if s.live == 0 {
                return;
            }
            match s.pop_runnable() {
                Some(p) => {
                    self.now_cache.store(s.now, Ordering::Release);
                    Some(s.hand_over(self, RUNNER, p))
                }
                None => None,
            }
        };
        match first {
            Some((from, to)) => self.switch(from, to),
            // Cannot happen through `Simulation::run` (it schedules a t=0
            // activation per process), but fail gracefully: this is the
            // runner, so record the failure without unwinding the caller.
            None => self
                .mark_failed("simulation started with live processes but no initial events".into()),
        }
        for pid in 0..self.num_procs() {
            let hand = {
                let mut s = self.state.lock();
                (!s.procs[pid].done).then(|| s.hand_over(self, RUNNER, pid))
            };
            if let Some((from, to)) = hand {
                debug_assert!(
                    self.aborted.load(Ordering::SeqCst),
                    "live process after a clean run"
                );
                self.switch(from, to);
            }
        }
    }

    /// Mark `victim` for death. It unwinds with `ProcKill` the next time
    /// it is scheduled (a wake-up at the current virtual time is queued so
    /// a suspended victim dies "now" in virtual time); `Simulation::run`
    /// records it as killed rather than failed. Killing an already-exited
    /// process is a no-op. This is the primitive behind
    /// [`FaultPlan::kill`](crate::FaultPlan::kill), exposed for custom
    /// harnesses that inject failures from a supervising process.
    pub fn kill(&self, victim: Pid) {
        let mut s = self.state.lock();
        assert!(victim < s.procs.len(), "kill of unknown pid {victim}");
        if s.procs[victim].done || s.procs[victim].killed {
            return;
        }
        s.procs[victim].killed = true;
        let now = s.now;
        s.push_event(now, victim);
    }

    /// Install the fault plan's pause windows; called once before the run.
    pub(crate) fn set_pauses(&self, pauses: Vec<(Pid, u64, u64)>) {
        self.state.lock().pauses = pauses;
    }

    /// Unwind the calling process if it has been killed.
    pub(crate) fn check_killed(&self, me: Pid) {
        if self.state.lock().procs[me].killed {
            std::panic::panic_any(ProcKill);
        }
    }

    /// Record `reason`, mark the simulation aborted and unwind the caller.
    /// The runner resumes every other live process once it gets the CPU
    /// back, so each unwinds in turn.
    pub(crate) fn abort(&self, reason: String) -> ! {
        self.mark_failed(reason);
        std::panic::panic_any(SimAbort);
    }

    pub(crate) fn check_abort(&self) {
        if self.aborted.load(Ordering::SeqCst) {
            std::panic::panic_any(SimAbort);
        }
    }

    pub(crate) fn abort_reason(&self) -> Option<String> {
        self.abort_reason.lock().clone()
    }

    /// Record `reason` (the first one wins) and mark the simulation
    /// aborted: every process unwinds with [`SimAbort`] at its next
    /// scheduling point.
    pub(crate) fn mark_failed(&self, reason: String) {
        {
            let mut r = self.abort_reason.lock();
            if r.is_none() {
                *r = Some(reason);
            }
        }
        self.aborted.store(true, Ordering::SeqCst);
    }

    /// Remember `pid`'s most recent trace span. Called by
    /// [`crate::Ctx::trace_begin`]/[`crate::Ctx::trace_end`] whether or not a
    /// trace sink is recording, so deadlock reports can show where each
    /// process last was without re-running under trace.
    pub(crate) fn note_span(&self, pid: Pid, tag: &'static str, start: u64, end: Option<u64>) {
        self.state.lock().procs[pid].last_span = Some(SpanNote { tag, start, end });
    }

    /// Register a diagnostic source whose output is appended to deadlock
    /// reports. The callback runs while a deadlock is being reported and must
    /// not call back into the kernel; returning `None` contributes nothing.
    pub fn add_diagnostics(&self, source: Arc<dyn Fn() -> Option<String> + Send + Sync>) {
        self.diagnostics.lock().push(source);
    }

    fn proc_name(&self, pid: Pid) -> String {
        self.state.lock().procs[pid].name.clone()
    }

    fn blocked_report(&self) -> String {
        let mut out = String::new();
        {
            let s = self.state.lock();
            for (pid, p) in s.procs.iter().enumerate() {
                if !p.done {
                    let span = match p.last_span {
                        None => String::from("none"),
                        Some(SpanNote { tag, start, end: None }) => {
                            format!("{tag} (open since {})", SimTime(start))
                        }
                        Some(SpanNote { tag, start, end: Some(end) }) => {
                            format!("{tag} ({} .. {})", SimTime(start), SimTime(end))
                        }
                    };
                    out.push_str(&format!(
                        "  pid {} `{}` blocked on: {} [last span: {span}]\n",
                        pid, p.name, p.blocked_on
                    ));
                }
            }
        }
        for source in self.diagnostics.lock().iter() {
            if let Some(text) = source() {
                for line in text.lines() {
                    out.push_str("  ");
                    out.push_str(line);
                    out.push('\n');
                }
            }
        }
        out
    }
}
