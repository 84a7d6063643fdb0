//! World construction: spawn `P` simulated ranks and run them.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use desim::{Ctx, FaultPlan, LinkClock, SimConfig, SimError, SimOutcome, SimTime, Simulation};
use parking_lot::Mutex;

use crate::comm::Comm;
use crate::config::MachineConfig;
use crate::msg::Mailbox;
use crate::rank::Rank;

pub(crate) struct NicState {
    pub tx: LinkClock,
    pub rx: LinkClock,
}

/// [`Shared::link_state`]'s map, keyed by `(src, dst)`.
#[allow(clippy::disallowed_types)] // looked up per message, never iterated; fixed-key hasher
pub(crate) type LinkStates =
    std::collections::HashMap<(usize, usize), (u64, SimTime), desim::FixedState>;

/// State shared by every rank of a world.
pub(crate) struct Shared {
    pub config: MachineConfig,
    pub nprocs: usize,
    pub mailboxes: Vec<Mailbox>,
    pub nics: Vec<Mutex<NicState>>,
    pub comms: Mutex<Vec<Comm>>,
    /// Rendezvous state for `Rank::split` operations, keyed by
    /// `(parent_comm_id, seq)`.
    pub splits: Mutex<BTreeMap<(u16, u32), SplitState>>,
    pub msgs_sent: AtomicU64,
    pub bytes_sent: AtomicU64,
    pub per_rank_msgs: Vec<AtomicU64>,
    /// World-unique id source for stream channels (and other layered
    /// libraries needing a tag namespace of their own).
    pub channel_ids: AtomicU64,
    /// The run's failure schedule; ranks consult it per message when it has
    /// link faults. Kills/pauses are executed by the desim kernel.
    pub fault: FaultPlan,
    /// Per-link `(next msg seq, availability floor)`, touched only when the
    /// plan has link faults. The floor keeps per-link delivery availability
    /// monotone even when a fault window's extra delay ends mid-stream, so
    /// the surviving messages still obey non-overtaking.
    pub link_state: Mutex<LinkStates>,
    /// Messages lost to link faults.
    pub msgs_dropped: AtomicU64,
    /// The happens-before sanitizer, when this run checks (see
    /// [`World::with_check`] and the [`crate::check`] module).
    pub sanitizer: Option<Arc<crate::check::Sanitizer>>,
}

pub(crate) struct SplitState {
    /// (color, key, world_rank) deposited by each arrived member.
    pub entries: Vec<(i64, i64, usize)>,
    /// pids waiting for the split to complete.
    pub waiters: Vec<desim::Pid>,
    /// Latest arrival time, for the synchronization release.
    pub last_arrival: desim::SimTime,
    /// Result: world_rank -> comm (None color yields no comm).
    pub result: Option<BTreeMap<usize, Option<Comm>>>,
    /// How many members have picked their result up (for GC).
    pub picked: usize,
}

impl Shared {
    pub fn register_comm(&self, ranks: Vec<usize>) -> Comm {
        let mut comms = self.comms.lock();
        let id = u16::try_from(comms.len()).expect("too many communicators");
        let comm = Comm::new(id, ranks);
        comms.push(comm.clone());
        comm
    }

    pub fn world_comm(&self) -> Comm {
        self.comms.lock()[0].clone()
    }
}

/// Aggregate result of a world run.
#[derive(Debug)]
pub struct WorldOutcome {
    /// The underlying simulation outcome (end time, per-proc stats, trace).
    pub sim: SimOutcome,
    /// Total point-to-point messages sent (including library-internal).
    pub msgs_sent: u64,
    /// Total modelled bytes sent.
    pub bytes_sent: u64,
    /// Messages sent per world rank.
    pub per_rank_msgs: Vec<u64>,
    /// Messages lost to injected link faults (0 on fault-free runs).
    pub msgs_dropped: u64,
    /// Findings of the happens-before sanitizer: empty unless the run
    /// opted in with [`World::with_check`] and something was actually
    /// wrong.
    pub san_reports: Vec<crate::check::SanReport>,
}

impl WorldOutcome {
    /// Virtual makespan of the run in seconds — the headline number every
    /// figure in the paper reports.
    pub fn elapsed_secs(&self) -> f64 {
        self.sim.end_time.as_secs_f64()
    }
}

/// A simulated machine running one SPMD program on `P` ranks.
pub struct World {
    pub config: MachineConfig,
    pub seed: u64,
    pub trace: bool,
    /// Seeded failure schedule applied to this run (see [`FaultPlan`]).
    /// Fault pids are world ranks. Empty (the default) injects nothing.
    pub fault_plan: FaultPlan,
    /// Run the happens-before sanitizer (see [`World::with_check`]).
    pub check: bool,
}

impl Default for World {
    fn default() -> Self {
        World {
            config: MachineConfig::default(),
            seed: 0xC0FFEE,
            trace: false,
            fault_plan: FaultPlan::default(),
            check: false,
        }
    }
}

impl World {
    pub fn new(config: MachineConfig) -> Self {
        World { config, ..World::default() }
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Attach a failure schedule; rank `r` in the plan is world rank `r`.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Enable the happens-before sanitizer for this run: wildcard-receive
    /// race detection, an orphan-message scan at finalize, and stream
    /// credit-window auditing. Findings land in
    /// [`WorldOutcome::san_reports`] and enrich deadlock reports. The
    /// sanitizer only observes: the run's events, messages and simulated
    /// times are those of the same run without it.
    pub fn with_check(mut self) -> Self {
        self.check = true;
        self
    }

    /// Run `body` as an SPMD program on `nprocs` ranks and return the
    /// outcome beside what each rank's body returned, in world-rank order.
    /// The body receives a [`Rank`] handle; world rank and sizes are
    /// available on it.
    ///
    /// This is the tolerant form: the entry of a rank that the fault plan
    /// killed is `None` (exactly the ranks in `outcome.sim.killed`), every
    /// other entry is `Some`. A deadlock or a panicking rank is the `Err`.
    pub fn run<R, F>(
        &self,
        nprocs: usize,
        body: F,
    ) -> Result<(WorldOutcome, Vec<Option<R>>), SimError>
    where
        R: Send + 'static,
        F: Fn(&mut Rank) -> R + Send + Sync + 'static,
    {
        assert!(nprocs > 0, "world needs at least one rank");
        let sanitizer =
            if self.check { Some(Arc::new(crate::check::Sanitizer::new(nprocs))) } else { None };
        let shared = Arc::new(Shared {
            config: self.config.clone(),
            nprocs,
            mailboxes: (0..nprocs).map(|_| Mailbox::new()).collect(),
            nics: (0..nprocs)
                .map(|_| Mutex::new(NicState { tx: LinkClock::new(), rx: LinkClock::new() }))
                .collect(),
            comms: Mutex::new(Vec::new()),
            splits: Mutex::new(BTreeMap::new()),
            msgs_sent: AtomicU64::new(0),
            bytes_sent: AtomicU64::new(0),
            per_rank_msgs: (0..nprocs).map(|_| AtomicU64::new(0)).collect(),
            channel_ids: AtomicU64::new(0),
            fault: self.fault_plan.clone(),
            link_state: Mutex::default(),
            msgs_dropped: AtomicU64::new(0),
            sanitizer,
        });
        // Communicator 0 is the world.
        shared.register_comm((0..nprocs).collect());

        let mut sim = Simulation::new(SimConfig {
            seed: self.seed,
            trace: self.trace,
            fault_plan: self.fault_plan.clone(),
            // Rank interactions are mediated by message availability times
            // and timed wake-ups, so decoupled local clocks (no heap event
            // per compute step) preserve results while skipping most of the
            // kernel's context switches. desim forces this off by itself
            // when the fault plan kills or pauses ranks.
            lazy_time: true,
            ..SimConfig::default()
        });
        // Deadlock reports include the sanitizer's credit-state table, so a
        // credit-exhaustion hang is diagnosable from the error alone.
        if let Some(san) = shared.sanitizer.clone() {
            sim.kernel().add_diagnostics(Arc::new(move || san.deadlock_diag()));
        }
        let body = Arc::new(body);
        // One slot per rank, filled when its body returns; a killed rank's
        // body never does.
        let results: Arc<[Mutex<Option<R>>]> = (0..nprocs).map(|_| Mutex::new(None)).collect();
        for r in 0..nprocs {
            let shared = shared.clone();
            let body = body.clone();
            let results = results.clone();
            sim.spawn(format!("rank{r}"), move |ctx: &mut Ctx| {
                let result = body(&mut Rank::new(ctx, shared, r));
                *results[r].lock() = Some(result);
            });
        }
        let sim_outcome = sim.run()?;
        // Orphan scan: anything still parked in a mailbox was never matched
        // by a receive. On faulty runs orphans addressed to (or sent by)
        // killed ranks are expected; callers filter by their fault plan.
        if let Some(san) = shared.sanitizer.as_ref() {
            for (dst, mb) in shared.mailboxes.iter().enumerate() {
                for (src, tag, bytes, at) in mb.drain_meta() {
                    san.orphan(dst, src, tag, bytes, at.0);
                }
            }
        }
        let san_reports = shared.sanitizer.as_ref().map(|s| s.reports()).unwrap_or_default();
        let outcome = WorldOutcome {
            sim: sim_outcome,
            msgs_sent: shared.msgs_sent.load(Ordering::Relaxed),
            bytes_sent: shared.bytes_sent.load(Ordering::Relaxed),
            per_rank_msgs: shared.per_rank_msgs.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
            msgs_dropped: shared.msgs_dropped.load(Ordering::Relaxed),
            san_reports,
        };
        Ok((outcome, results.iter().map(|slot| slot.lock().take()).collect()))
    }

    /// [`World::run`] for a run in which every rank must finish: returns
    /// each rank's result in world-rank order, and panics on simulation
    /// failure or, naming the rank, if the fault plan killed one. A run
    /// that kills ranks uses [`World::run`].
    pub fn run_expect<R, F>(&self, nprocs: usize, body: F) -> (WorldOutcome, Vec<R>)
    where
        R: Send + 'static,
        F: Fn(&mut Rank) -> R + Send + Sync + 'static,
    {
        let (outcome, results) = self.run(nprocs, body).unwrap_or_else(|e| panic!("{e}"));
        let results = results
            .into_iter()
            .enumerate()
            .map(|(r, v)| v.unwrap_or_else(|| panic!("rank {r} was killed and has no result")))
            .collect();
        (outcome, results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rank `r` returns only after rank `r + 1` has, so rank 0 finishes
    /// last, in simulated and in host time alike: a world that collected
    /// results in completion order would return them reversed. (A longer
    /// `compute` on lower ranks would not do: with lazy local clocks each
    /// body runs to its end before the next one starts.)
    #[test]
    fn results_come_back_in_rank_order() {
        const N: usize = 8;
        let tag = crate::Tag::user(1);
        let (_, results) = World::new(MachineConfig::ideal()).run_expect(N, move |rank| {
            let r = rank.world_rank();
            if r + 1 < N {
                rank.recv::<()>(crate::Src::Rank(r + 1), tag);
            }
            if r > 0 {
                rank.send(r - 1, tag, 8, ());
            }
            r
        });
        assert_eq!(results, (0..N).collect::<Vec<_>>());
    }
}
