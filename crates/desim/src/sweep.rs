//! Deterministic parallel parameter sweeps.
//!
//! A sweep runs many *independent* simulations — one per seed, per scale
//! point, per fault plan — and each run is a pure function of its
//! configuration (see the crate docs). Runs therefore parallelize across
//! OS threads without touching determinism: [`par_map`] preserves input
//! order in its output and every run computes exactly what it would have
//! computed serially, so per-seed results (fingerprints, makespans,
//! schedules) are byte-identical at any job count.
//!
//! The worker count comes from the `SWEEP_JOBS` environment variable via
//! [`jobs`]; harnesses (the chaos suite, the figure sweeps) read it once
//! and fan out with [`par_map`]. Only *whole runs* are parallelized —
//! inside one simulation the kernel still executes exactly one process at
//! a time.

use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

/// Worker threads a sweep should use.
///
/// Reads `SWEEP_JOBS` (clamped to at least 1); when unset or unparsable,
/// defaults to the host's available parallelism capped at 8 — sweeps are
/// CPU-bound, and each simulation runs all its ranks as fibers on one
/// thread, so one worker per core keeps every core busy and more would
/// only time-slice them.
pub fn jobs() -> usize {
    match std::env::var("SWEEP_JOBS") {
        Ok(v) => v.trim().parse::<usize>().unwrap_or(1).max(1),
        Err(_) => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .min(8),
    }
}

/// Map `f` over `items` on [`jobs`] worker threads, returning results in
/// input order.
///
/// Items are claimed from a shared atomic cursor, so scheduling is
/// first-come-first-served, but each result lands at its item's index —
/// output order (and content, for pure `f`) is independent of the job
/// count and of thread timing. With one job (or one item) no threads are
/// spawned at all. A panic in `f` propagates to the caller, so `assert!`s
/// inside sweep bodies keep working under parallel execution.
pub fn par_map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let workers = jobs().min(items.len());
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let n = items.len();
    let items: Vec<Mutex<Option<T>>> = items.into_iter().map(|it| Mutex::new(Some(it))).collect();
    let slots: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = items[i].lock().take().expect("each index is claimed once");
                *slots[i].lock() = Some(f(item));
            });
        }
    });
    slots.into_iter().map(|s| s.into_inner().expect("worker filled every slot")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_input_order() {
        let out = par_map((0..100u64).collect(), |x| x * x);
        assert_eq!(out, (0..100u64).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        assert_eq!(par_map(Vec::<u64>::new(), |x| x), Vec::<u64>::new());
        assert_eq!(par_map(vec![7u64], |x| x + 1), vec![8]);
    }

    #[test]
    fn par_map_runs_simulations_identically_at_any_job_count() {
        use crate::sim::{SimConfig, Simulation};
        use crate::time::SimDuration;
        use rand::Rng;
        let run = |seed: u64| {
            let mut sim = Simulation::new(SimConfig { seed, ..SimConfig::default() });
            for p in 0..4u64 {
                sim.spawn(format!("p{p}"), move |ctx| {
                    for _ in 0..8 {
                        let jitter = ctx.rng().gen_range(0u64..1_000);
                        ctx.advance(SimDuration::from_nanos(1_000 + jitter));
                    }
                });
            }
            sim.run_expect().end_time.as_nanos()
        };
        let serial: Vec<u64> = (0..8u64).map(run).collect();
        let parallel = par_map((0..8u64).collect(), run);
        assert_eq!(serial, parallel);
    }
}
