//! schedcheck — an in-house, loom-style bounded model checker and
//! data-race sanitizer for the native backend's lock-free core.
//!
//! A model is an ordinary closure that uses the shadow primitives from
//! this crate (re-exported through `native`'s `crate::sync` facade under
//! `--cfg schedcheck`) instead of `std`'s. [`Checker::model`] runs the
//! closure over and over on real OS threads, but every shadow operation
//! is a *schedule point* where exactly one thread is allowed to proceed
//! — so each run is a deterministic function of the decision sequence,
//! and DFS over those decisions enumerates distinct interleavings.
//! Exploration is bounded by a preemption budget (CHESS-style): the
//! first schedules explored are the nearly-sequential ones where most
//! concurrency bugs already manifest, and `SCHEDCHECK_PREEMPTIONS=2`
//! covers every bug this repo has actually shipped.
//!
//! What it detects (streamcheck catalogue codes, see DESIGN.md §14):
//!
//! | code  | violation |
//! |-------|-----------|
//! | SC201 | data race: two unordered accesses (≥1 write) to a [`cell::RaceCell`], per vector-clock happens-before over the modeled Acquire/Release/Relaxed edges |
//! | SC202 | deadlock / lost wakeup: no enabled transition while threads are still parked (condvar waits with no pending notify are called out explicitly) |
//! | SC203 | node leak or double free through [`boxed::into_raw`] / [`boxed::from_raw`] |
//!
//! Every violation carries a **replayable trace**: the comma-separated
//! decision indices of the failing schedule. Feed it to
//! [`Checker::replay`] to re-run exactly that interleaving under a
//! debugger.
//!
//! Honest limits: values are sequentially consistent regardless of
//! `Ordering` (orderings only shape happens-before, so races are found
//! but store-buffering weirdness is not); `compare_exchange_weak` never
//! fails spuriously; plain `Condvar::wait` has no spurious wakes
//! (`wait_timeout`'s always-enabled expiry models them where they
//! matter). Model code must be deterministic apart from shadow-sync
//! state — no real time, no hash-order-dependent branching.

mod clock;
mod exec;
pub mod futex;
mod shadow;

pub use shadow::atomic;
pub use shadow::boxed;
pub use shadow::cell;
pub use shadow::thread;
pub use shadow::{Condvar, LockResult, Mutex, MutexGuard, NeverPoison, WaitTimeoutResult};

/// Virtual-clock time types (shadowing `std::time::Instant`).
pub mod time {
    pub use crate::shadow::Instant;
    pub use std::time::Duration;
}

/// Violation codes, aligned with the streamcheck lint catalogue.
pub mod codes {
    /// Data race on a `RaceCell` (unsafe shared location).
    pub const SC201: &str = "SC201";
    /// Deadlock or lost wakeup: no enabled transition remains.
    pub const SC202: &str = "SC202";
    /// Node leak or double free through `boxed::into_raw`/`from_raw`.
    pub const SC203: &str = "SC203";
    /// A model thread panicked (assertion failure inside the model).
    pub const PANIC: &str = "SC2-PANIC";
    /// Checker-internal error (non-deterministic model, step-limit hit).
    pub const INTERNAL: &str = "SC2-INTERNAL";
}

/// A failing schedule, with everything needed to reproduce it.
#[derive(Clone, Debug)]
pub struct Violation {
    /// One of [`codes`].
    pub code: &'static str,
    pub message: String,
    /// Comma-separated decision indices — pass to [`Checker::replay`].
    pub trace: String,
    /// Human-readable schedule log (one line per decision).
    pub log: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}: {}", self.code, self.message)?;
        writeln!(f, "replay trace: \"{}\"", self.trace)?;
        write!(f, "schedule log:\n{}", self.log)
    }
}

/// Result of exploring a model.
#[derive(Debug)]
pub struct Outcome {
    /// Distinct complete schedules executed.
    pub schedules: u64,
    pub violation: Option<Violation>,
    /// True if exploration stopped at `max_schedules` with unexplored
    /// schedules remaining.
    pub capped: bool,
}

impl Outcome {
    /// Assert the model is clean and was meaningfully explored.
    /// Panics with the full violation report otherwise.
    pub fn expect_clean(&self, min_schedules: u64) {
        if let Some(v) = &self.violation {
            panic!("schedcheck violation after {} schedules:\n{v}", self.schedules);
        }
        assert!(
            self.schedules >= min_schedules,
            "explored only {} schedules (wanted >= {min_schedules}); \
             model too small or bounds too tight",
            self.schedules
        );
    }
}

/// The exploration driver. Construct, tune bounds, then run a model.
///
/// ```
/// use schedcheck::{Checker, atomic::{AtomicU64, Ordering}};
/// use std::sync::Arc;
///
/// let out = Checker::new().max_schedules(500).model(|| {
///     let n = Arc::new(AtomicU64::new(0));
///     let n2 = Arc::clone(&n);
///     let t = schedcheck::thread::spawn(move || {
///         n2.fetch_add(1, Ordering::AcqRel);
///     });
///     n.fetch_add(1, Ordering::AcqRel);
///     t.join().unwrap();
///     assert_eq!(n.load(Ordering::Acquire), 2);
/// });
/// out.expect_clean(2);
/// ```
#[derive(Clone, Debug)]
pub struct Checker {
    preemptions: usize,
    max_schedules: u64,
    max_steps: usize,
}

impl Default for Checker {
    fn default() -> Self {
        Self::new()
    }
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

impl Checker {
    /// Defaults: preemption bound from `SCHEDCHECK_PREEMPTIONS` (2),
    /// schedule cap from `SCHEDCHECK_MAX_SCHEDULES` (20 000), 200 000
    /// schedule points per execution.
    pub fn new() -> Self {
        Checker {
            preemptions: env_usize("SCHEDCHECK_PREEMPTIONS", 2),
            max_schedules: env_usize("SCHEDCHECK_MAX_SCHEDULES", 20_000) as u64,
            max_steps: 200_000,
        }
    }

    /// Preemption budget per execution (CHESS bound). Switches away
    /// from a thread that could have kept running spend budget; forced
    /// switches (the runner blocked) are free.
    pub fn preemptions(mut self, n: usize) -> Self {
        self.preemptions = n;
        self
    }

    /// Stop after this many schedules even if the DFS tree is larger
    /// (`Outcome::capped` reports whether anything was left).
    pub fn max_schedules(mut self, n: u64) -> Self {
        self.max_schedules = n;
        self
    }

    /// Per-execution schedule-point limit (livelock backstop).
    pub fn max_steps(mut self, n: usize) -> Self {
        self.max_steps = n;
        self
    }

    /// Explore the model. Returns after the first violation, after the
    /// DFS tree is exhausted, or after `max_schedules` schedules.
    pub fn model<F>(&self, f: F) -> Outcome
    where
        F: Fn() + Send + Sync + 'static,
    {
        let f: std::sync::Arc<dyn Fn() + Send + Sync> = std::sync::Arc::new(f);
        let mut path: Vec<exec::Choice> = Vec::new();
        let mut schedules = 0u64;
        loop {
            let res = exec::run_once(
                &f,
                self.preemptions,
                self.max_steps,
                exec::Mode::Dfs,
                std::mem::take(&mut path),
            );
            schedules += 1;
            if res.violation.is_some() {
                return Outcome { schedules, violation: res.violation, capped: false };
            }
            path = res.path;
            let more = exec::backtrack(&mut path);
            if !more {
                return Outcome { schedules, violation: None, capped: false };
            }
            if schedules >= self.max_schedules {
                return Outcome { schedules, violation: None, capped: true };
            }
        }
    }

    /// [`Self::model`], panicking with the full report on violation.
    pub fn check<F>(&self, f: F)
    where
        F: Fn() + Send + Sync + 'static,
    {
        self.model(f).expect_clean(1);
    }

    /// Re-run one exact schedule from a violation's `trace` string.
    /// Returns the violation it reproduces (if it still fires).
    pub fn replay<F>(&self, trace: &str, f: F) -> Option<Violation>
    where
        F: Fn() + Send + Sync + 'static,
    {
        let forced: Vec<usize> = trace.split(',').filter_map(|s| s.trim().parse().ok()).collect();
        let f: std::sync::Arc<dyn Fn() + Send + Sync> = std::sync::Arc::new(f);
        let res = exec::run_once(
            &f,
            // Replay must not re-bound the schedule it is reproducing.
            usize::MAX,
            self.max_steps,
            exec::Mode::Forced(forced),
            Vec::new(),
        );
        res.violation
    }
}
