//! Deterministic chaos testing (DST) of the decoupled stream pipeline.
//!
//! Every test here derives a random fault schedule — producer kills, link
//! drops on the victims' links, bounded delay spikes — from a seed, runs a
//! producer/consumer streaming pipeline under it, and checks three
//! invariants:
//!
//! 1. **No deadlock**: the run completes; every rank either finishes its
//!    body or is killed by the plan.
//! 2. **Conservation for survivors**: every element a surviving producer
//!    injected is delivered exactly once — per consumer, `delivered`
//!    equals the producer's `Term` claim, and the claims across consumers
//!    sum to the producer's element count. Killed producers end as `Dead`
//!    verdicts with partial delivery and no claim.
//! 3. **Replay determinism**: the same seed reproduces the identical
//!    fingerprint — end time, kill list, drop count, per-producer
//!    accounting and an order-insensitive payload checksum.
//!
//! The sweep size is tunable for CI smoke runs: `CHAOS_SEEDS` (count) and
//! `CHAOS_SEED_START` (first seed) — see `ci.sh`. Seeds run in parallel
//! on `SWEEP_JOBS` threads (see [`desim::sweep`]); each run is a pure
//! function of its seed, so fingerprints are byte-identical at any job
//! count and invariants are still checked in seed order.

use std::ops::ControlFlow;

use mpisim::{FaultPlan, LinkFault, MachineConfig, NoiseModel, SimDuration, SimTime, World};
use mpistream::{ChannelConfig, ProducerState, Role, RoutePolicy, Stream, StreamChannel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use replica::{run_replicated, ReplicaRole, ReplicatedProducer};

/// Elements stream for at least `PER_ELEM_SECS * MIN_ELEMS` = 1.5ms of
/// virtual time; kills land strictly inside [100us, 1ms], so a victim is
/// always killed mid-stream (before it can send its `Term`).
const PER_ELEM_SECS: f64 = 10e-6;
const MIN_ELEMS: u64 = 150;
const MAX_ELEMS: u64 = 400;

/// No link fault opens before this: channel creation (an untimed
/// collective at t=0) completes within a few microseconds on the quiet
/// machine, and faulting its handshake would model a mid-bootstrap crash
/// this harness does not target.
const CREATE_GRACE_NS: u64 = 50_000;

/// Failure-detection timeout. Consumer patience is twice this, and it must
/// exceed the longest *legitimate* silence: under Static routing a
/// producer pinned to the other consumer sends a given consumer nothing
/// until its final `Term` at ~4ms (`MAX_ELEMS * PER_ELEM_SECS` plus delay
/// spikes), which must not read as death. 2 * 3ms = 6ms clears that with
/// margin, while victims (killed by 1ms) are still detected.
const FAILURE_TIMEOUT_MS: u64 = 3;

/// One seed's randomized world + fault schedule.
#[derive(Clone, Debug)]
struct Schedule {
    n_producers: usize,
    n_consumers: usize,
    per_producer: u64,
    aggregation: usize,
    credits: Option<usize>,
    route: RoutePolicy,
    plan: FaultPlan,
    /// Producer ranks the plan kills (sorted).
    kills: Vec<usize>,
}

fn schedule(seed: u64) -> Schedule {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD57_C0DE);
    let n_producers = rng.gen_range(2usize..=5);
    let n_consumers = rng.gen_range(1usize..=2);
    let per_producer = rng.gen_range(MIN_ELEMS..=MAX_ELEMS);
    let aggregation = rng.gen_range(1usize..=4);
    let credits = if rng.gen_bool(0.5) { None } else { Some(rng.gen_range(8usize..=64)) };
    let route = if rng.gen_bool(0.5) { RoutePolicy::RoundRobin } else { RoutePolicy::Static };

    let mut plan = FaultPlan::new(seed);
    let n_kills = rng.gen_range(0usize..=2).min(n_producers - 1); // >= 1 survivor
    let mut victims: Vec<usize> = (0..n_producers).collect();
    let mut kills = Vec::new();
    for _ in 0..n_kills {
        let v = victims.swap_remove(rng.gen_range(0..victims.len()));
        let at = SimTime(rng.gen_range(100_000u64..=1_000_000));
        plan = plan.kill(v, at);
        // Half the victims also die "messily": part of their stream data
        // is randomly dropped. The drop window opens only after
        // `CREATE_GRACE` — channel creation is an untimed collective, so
        // losing its handshake traffic would hang the world, which is a
        // test-harness artifact rather than a protocol defect. Only
        // victims' links lose data, so surviving producers keep an exact
        // conservation obligation.
        if rng.gen_bool(0.5) {
            let from = SimTime(rng.gen_range(CREATE_GRACE_NS..at.0));
            for c in 0..n_consumers {
                plan = plan.link(
                    LinkFault::new(v, n_producers + c)
                        .window(from, SimTime(u64::MAX))
                        .drop_prob(rng.gen_range(0.05f64..0.5)),
                );
            }
        }
        kills.push(v);
    }
    // Bounded delay spikes on arbitrary data links: far below the
    // consumer patience (see `FAILURE_TIMEOUT_MS`), so they slow the
    // stream without ever causing a false death verdict. Again windowed
    // past channel creation: a spike there could stall the collective
    // beyond a kill time and hang it.
    for _ in 0..rng.gen_range(0usize..=2) {
        let p = rng.gen_range(0..n_producers);
        let c = n_producers + rng.gen_range(0..n_consumers);
        let from = rng.gen_range(CREATE_GRACE_NS..1_500_000);
        let until = from + rng.gen_range(50_000u64..=300_000);
        plan = plan.link(
            LinkFault::new(p, c)
                .window(SimTime(from), SimTime(until))
                .delay(SimDuration::from_micros(rng.gen_range(10u64..=150))),
        );
    }
    kills.sort_unstable();
    Schedule { n_producers, n_consumers, per_producer, aggregation, credits, route, plan, kills }
}

/// Everything observable about one run, totally ordered for replay
/// comparison.
#[derive(Clone, Debug, PartialEq)]
struct Fingerprint {
    end_ns: u64,
    killed: Vec<usize>,
    msgs_dropped: u64,
    /// (consumer rank, producer rank, delivered, claim, died) — sorted.
    reports: Vec<(usize, usize, u64, Option<u64>, bool)>,
    /// (consumer rank, processed, order-insensitive checksum) — sorted.
    consumed: Vec<(usize, u64, u64)>,
    /// Producer ranks whose `terminate()` returned (survivors) — sorted.
    clean: Vec<usize>,
    /// Sanitizer finding codes (SC101/SC102/SC103) — sorted.
    san_codes: Vec<&'static str>,
}

#[inline]
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x
}

fn run_chaos(seed: u64) -> (Schedule, Fingerprint) {
    let s = schedule(seed);
    // The happens-before sanitizer rides along on every chaos run: the
    // stream protocol must produce zero reports on fault-free schedules,
    // and never a race or credit overrun even under kills and link drops
    // (orphans from a victim's in-flight messages are legitimate).
    let world = World::new(MachineConfig { noise: NoiseModel::none(), ..MachineConfig::default() })
        .with_seed(seed)
        .with_fault_plan(s.plan.clone())
        .with_check();
    let nprocs = s.n_producers + s.n_consumers;
    let (n_producers, per_producer) = (s.n_producers, s.per_producer);
    let config = ChannelConfig {
        element_bytes: 512,
        aggregation: s.aggregation,
        credits: s.credits,
        route: s.route,
        credit_batch: 1,
        failure_timeout: Some(SimDuration::from_millis(FAILURE_TIMEOUT_MS)),
        replicas: 0,
        replication_patience: None,
    };
    // A consumer returns (processed, checksum, per-producer reports); a
    // producer returns `None`, and only if it survived.
    let run = world.run(nprocs, move |rank| {
        let comm = rank.comm_world();
        let me = rank.world_rank();
        let role = if me < n_producers { Role::Producer } else { Role::Consumer };
        let ch = StreamChannel::create(rank, &comm, role, config.clone());
        let mut stream: Stream<u64> = Stream::attach(ch);
        match role {
            Role::Producer => {
                for i in 0..per_producer {
                    rank.compute_exact(PER_ELEM_SECS);
                    stream.isend(rank, (me as u64) << 32 | i);
                }
                stream.terminate(rank);
                None
            }
            Role::Consumer => {
                let mut processed = 0u64;
                let mut checksum = 0u64;
                let outcome = stream.operate_outcome(rank, |_, v| {
                    processed += 1;
                    checksum = checksum.wrapping_add(mix64(v));
                });
                assert_eq!(outcome.processed, processed);
                let reports = outcome
                    .producers
                    .iter()
                    .map(|r| (r.rank, r.delivered, r.claimed, r.state == ProducerState::Dead))
                    .collect::<Vec<_>>();
                Some((processed, checksum, reports))
            }
            Role::Bystander => unreachable!(),
        }
    });
    let (out, ranks) = run.expect("a killed rank is not a failed simulation");
    let mut clean = Vec::new();
    let mut reports = Vec::new();
    let mut consumed = Vec::new();
    for (r, ended) in ranks.into_iter().enumerate() {
        match ended {
            Some(None) => clean.push(r),
            Some(Some((processed, checksum, rs))) => {
                consumed.push((r, processed, checksum));
                for (p, delivered, claim, died) in rs {
                    reports.push((r, p, delivered, claim, died));
                }
            }
            None => {}
        }
    }
    clean.sort_unstable();
    reports.sort_unstable();
    consumed.sort_unstable();
    let mut killed = out.sim.killed.clone();
    killed.sort_unstable();
    let mut san_codes: Vec<&'static str> = out.san_reports.iter().map(|r| r.code()).collect();
    san_codes.sort_unstable();
    (
        s,
        Fingerprint {
            end_ns: out.sim.end_time.as_nanos(),
            killed,
            msgs_dropped: out.msgs_dropped,
            reports,
            consumed,
            clean,
            san_codes,
        },
    )
}

/// Check invariants 1 and 2 for one seed's run.
fn check_invariants(seed: u64, s: &Schedule, fp: &Fingerprint) {
    // 1. Completion: every rank accounted for — killed exactly per plan,
    //    every survivor's terminate() returned, every consumer reported.
    assert_eq!(fp.killed, s.kills, "seed {seed}: kill list mismatch");
    let survivors: Vec<usize> = (0..s.n_producers).filter(|p| !s.kills.contains(p)).collect();
    assert_eq!(fp.clean, survivors, "seed {seed}: survivors must terminate cleanly");
    assert_eq!(fp.consumed.len(), s.n_consumers, "seed {seed}: every consumer completes");

    // 2. Conservation. Per consumer: survivors are Terminated with
    //    delivered == claimed; victims are Dead with no claim and at most
    //    their pre-kill output delivered.
    let mut delivered_from_survivor = vec![0u64; s.n_producers];
    for &(c, p, delivered, claim, died) in &fp.reports {
        if survivors.contains(&p) {
            assert!(!died, "seed {seed}: consumer {c} declared live producer {p} dead");
            let claim = claim.unwrap_or_else(|| {
                panic!("seed {seed}: consumer {c} missing Term claim of survivor {p}")
            });
            assert_eq!(
                delivered, claim,
                "seed {seed}: consumer {c} lost elements of surviving producer {p}"
            );
            delivered_from_survivor[p] += delivered;
        } else {
            assert!(died, "seed {seed}: consumer {c} never detected killed producer {p}");
            assert_eq!(claim, None, "seed {seed}: a victim cannot have claimed a total");
            assert!(
                delivered < s.per_producer,
                "seed {seed}: victim {p} was killed mid-stream yet delivered everything"
            );
        }
    }
    for &p in &survivors {
        assert_eq!(
            delivered_from_survivor[p], s.per_producer,
            "seed {seed}: surviving producer {p}'s elements not conserved"
        );
    }
    // Per consumer, the processed total is exactly the sum of attributed
    // deliveries (nothing double-counted, nothing unattributed).
    for &(c, processed, _) in &fp.consumed {
        let attributed: u64 =
            fp.reports.iter().filter(|&&(rc, ..)| rc == c).map(|&(_, _, d, _, _)| d).sum();
        assert_eq!(processed, attributed, "seed {seed}: consumer {c} attribution gap");
    }

    // 3. Sanitizer: the stream protocol must never trip the happens-before
    //    checker — no wildcard races (internal receives are protocol-
    //    ordered) and no credit overruns, under any fault schedule. On a
    //    fault-free schedule there are no findings at all; with faults,
    //    only orphans (a victim's undrained in-flight traffic) may remain.
    assert!(
        !fp.san_codes.iter().any(|&c| c == "SC101" || c == "SC103"),
        "seed {seed}: sanitizer flagged the protocol: {:?}",
        fp.san_codes
    );
    if s.plan.is_empty() {
        assert!(
            fp.san_codes.is_empty(),
            "seed {seed}: fault-free run has sanitizer findings: {:?}",
            fp.san_codes
        );
    }
}

fn sweep_range() -> (u64, u64) {
    let start = std::env::var("CHAOS_SEED_START").ok().and_then(|v| v.parse().ok()).unwrap_or(0);
    let count = std::env::var("CHAOS_SEEDS").ok().and_then(|v| v.parse().ok()).unwrap_or(250);
    (start, count)
}

/// The main sweep: hundreds of seeded fault schedules, each checked for
/// completion and conservation.
#[test]
fn chaos_sweep_holds_invariants_across_seeds() {
    let (start, count) = sweep_range();
    let seeds: Vec<u64> = (start..start + count).collect();
    let runs = desim::sweep::par_map(seeds, |seed| (seed, run_chaos(seed)));
    let mut runs_with_kills = 0u64;
    let mut runs_with_drops = 0u64;
    for (seed, (s, fp)) in &runs {
        check_invariants(*seed, s, fp);
        runs_with_kills += u64::from(!fp.killed.is_empty());
        runs_with_drops += u64::from(fp.msgs_dropped > 0);
    }
    // Meta-check on full sweeps: the harness must actually exercise
    // faults, or the invariants above pass vacuously.
    if count >= 100 {
        assert!(runs_with_kills > count / 4, "suspiciously few kill schedules");
        assert!(runs_with_drops > count / 20, "suspiciously few lossy schedules");
    }
}

/// Invariant 3: identical seeds replay to identical fingerprints —
/// including virtual end time, kill/drop accounting and payload checksums.
#[test]
fn chaos_runs_replay_identically() {
    let (start, count) = sweep_range();
    // A slice of the sweep, re-run and compared bit-for-bit. The two
    // replays of a seed deliberately land on *different* worker threads
    // (all first runs, then all second runs), so this also certifies that
    // parallel dispatch leaves fingerprints untouched.
    let seeds: Vec<u64> = (start..start + count).step_by((count as usize / 10).max(1)).collect();
    let first = desim::sweep::par_map(seeds.clone(), |seed| run_chaos(seed).1);
    let second = desim::sweep::par_map(seeds.clone(), |seed| run_chaos(seed).1);
    for ((seed, a), b) in seeds.iter().zip(first).zip(second) {
        assert_eq!(a, b, "seed {seed}: fingerprint diverged between replays");
    }
}

/// Fault-free seeds (no kill, no link fault) must conserve *everything*:
/// all producers terminate, nothing is dropped, and both consumers'
/// accounting matches the injected totals exactly.
#[test]
fn chaos_fault_free_schedules_conserve_everything() {
    let (start, count) = sweep_range();
    // Schedules are a cheap pure function of the seed, so fault-free
    // seeds are selected up front and only those runs are paid for.
    let seeds: Vec<u64> = (start..start + count).filter(|&s| schedule(s).plan.is_empty()).collect();
    let seen = seeds.len() as u64;
    let runs = desim::sweep::par_map(seeds, |seed| (seed, run_chaos(seed)));
    for (seed, (s, fp)) in &runs {
        assert_eq!(fp.msgs_dropped, 0, "seed {seed}");
        assert_eq!(fp.killed, Vec::<usize>::new(), "seed {seed}");
        assert_eq!(fp.san_codes, Vec::<&str>::new(), "seed {seed}: sanitizer findings");
        let total: u64 = fp.consumed.iter().map(|&(_, p, _)| p).sum();
        assert_eq!(total, s.per_producer * s.n_producers as u64, "seed {seed}");
    }
    // With the default range a healthy share of schedules is fault-free.
    if count >= 100 {
        assert!(seen > 0, "no fault-free schedule in the sweep range");
    }
}

// ---------------------------------------------------------------------------
// Consumer-death chaos.
//
// An *unreplicated* channel reacts to a consumer kill with bounded loss:
// producers convict the silent consumer after the failure timeout, drop
// (Static) or re-route (RoundRobin) its traffic, and terminate cleanly —
// the pipeline never hangs, but the victim's elements die with it. That
// contract is pinned first. `crates/replica` upgrades the same kill to
// exactly-once: the replica-group sweep below asserts that for every
// seeded kill schedule the survivors' folded state equals the full
// payload multiset — nothing lost, nothing folded twice.
//
// Replicated runs do not enable the happens-before sanitizer: its
// per-link credit ledger assumes the rank that received a batch is the
// rank that acknowledges it, which a takeover violates by design.
// ---------------------------------------------------------------------------

/// Order-insensitive checksum of the full expected payload multiset.
fn expected_checksum(n_producers: usize, per_producer: u64) -> u64 {
    let mut sum = 0u64;
    for p in 0..n_producers as u64 {
        for i in 0..per_producer {
            sum = sum.wrapping_add(mix64(p << 32 | i));
        }
    }
    sum
}

/// Regression pin for unreplicated channels: a consumer killed at an
/// exact element cursor terminates the pipeline instead of hanging it,
/// and the loss accounting matches the route policy — Static drops the
/// victim's pinned tail into `StreamStats::lost`, RoundRobin re-routes
/// it to the survivor and loses only what was in flight at the kill.
#[test]
fn chaos_unreplicated_consumer_kill_terminates_with_bounded_loss() {
    for route in [RoutePolicy::Static, RoutePolicy::RoundRobin] {
        let (n_producers, n_consumers, per_producer) = (3usize, 2usize, 200u64);
        let victim = n_producers + 1; // consumer index 1
        let plan = FaultPlan::new(40).kill_at_element(victim, 25);
        let world =
            World::new(MachineConfig { noise: NoiseModel::none(), ..MachineConfig::default() })
                .with_seed(40)
                .with_fault_plan(plan);
        let config = ChannelConfig {
            element_bytes: 512,
            aggregation: 2,
            credits: Some(8),
            route,
            credit_batch: 1,
            failure_timeout: Some(SimDuration::from_millis(FAILURE_TIMEOUT_MS)),
            replicas: 0,
            replication_patience: None,
        };
        // A producer returns the elements it dropped on the floor after
        // conviction; a consumer returns (processed, per-producer
        // (delivered, claim, died)).
        let run = world.run(n_producers + n_consumers, move |rank| {
            let comm = rank.comm_world();
            let me = rank.world_rank();
            let role = if me < n_producers { Role::Producer } else { Role::Consumer };
            let ch = StreamChannel::create(rank, &comm, role, config.clone());
            let mut stream: Stream<u64> = Stream::attach(ch);
            match role {
                Role::Producer => {
                    for i in 0..per_producer {
                        rank.compute_exact(PER_ELEM_SECS);
                        stream.isend(rank, (me as u64) << 32 | i);
                    }
                    stream.terminate(rank);
                    (Some(stream.stats().lost), None)
                }
                Role::Consumer => {
                    let mut processed = 0u64;
                    let outcome = stream.operate_outcome(rank, |r, _| {
                        processed += 1;
                        if r.fault_plan().element_kill(r.world_rank()) == Some(processed) {
                            r.exit_killed();
                        }
                    });
                    let reports = outcome
                        .producers
                        .iter()
                        .map(|p| (p.delivered, p.claimed, p.state == ProducerState::Dead))
                        .collect::<Vec<_>>();
                    (None, Some((outcome.processed, reports)))
                }
                Role::Bystander => unreachable!(),
            }
        });
        let (out, ranks) = run.expect("a killed rank is not a failed simulation");
        // The run completed — that is the headline regression — with
        // exactly the planned kill and every producer terminating.
        assert_eq!(out.sim.killed, vec![victim], "{route:?}");
        let survivors: Vec<_> = ranks.into_iter().flatten().collect();
        let lost: Vec<u64> = survivors.iter().filter_map(|(lost, _)| *lost).collect();
        let survivor: Vec<_> = survivors.into_iter().filter_map(|(_, report)| report).collect();
        assert_eq!(lost.len(), n_producers, "{route:?}: every producer must terminate");
        assert_eq!(survivor.len(), 1, "{route:?}: only the surviving consumer reports");
        // No producer died, so the survivor's accounting must balance
        // exactly: everything addressed to it arrived.
        let (processed, reports) = &survivor[0];
        for &(delivered, claim, died) in reports {
            assert!(!died, "{route:?}: no producer was killed");
            assert_eq!(Some(delivered), claim, "{route:?}: survivor lost addressed elements");
        }
        // The victim's share is gone: the stream conserves strictly less
        // than the injected total.
        let total = per_producer * n_producers as u64;
        assert!(*processed < total, "{route:?}: the victim's elements cannot all survive");
        let dropped: u64 = lost.iter().sum();
        match route {
            // Producer 1 is pinned to the dead consumer: its tail is
            // dropped and accounted, not silently vanished.
            RoutePolicy::Static => assert!(dropped > 0, "Static must account dropped elements"),
            // Re-routing forwards the tail to the survivor instead.
            RoutePolicy::RoundRobin => {
                assert_eq!(dropped, 0, "RoundRobin re-routes, it never drops")
            }
        }
    }
}

/// What a replicated seed's fault schedule kills.
#[derive(Clone, Copy, Debug, PartialEq)]
enum RepKill {
    Nothing,
    /// The view-0 primary, at this exact folded-element cursor.
    Primary {
        at_element: u64,
    },
    /// A standby (group offset 1 or 2), at a wall-clock instant inside
    /// the streaming window.
    Standby {
        offset: usize,
    },
}

/// One seed's randomized replicated world + kill schedule.
#[derive(Clone, Debug)]
struct RepSchedule {
    n_producers: usize,
    per_producer: u64,
    aggregation: usize,
    credits: usize,
    kill: RepKill,
    plan: FaultPlan,
}

fn rep_schedule(seed: u64) -> RepSchedule {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_C0DE);
    let n_producers = rng.gen_range(2usize..=4);
    let per_producer = rng.gen_range(MIN_ELEMS..=MAX_ELEMS);
    let aggregation = rng.gen_range(1usize..=4);
    let credits = rng.gen_range(8usize..=64);
    let primary = n_producers; // consumers[0] is the view-0 primary
    let total = per_producer * n_producers as u64;
    let (kill, plan) = match rng.gen_range(0u32..4) {
        0 => (RepKill::Nothing, FaultPlan::new(seed)),
        // A standby death must be invisible (quorum stays 2 of 3). The
        // kill instant lands inside the streaming window: producers
        // stream for at least MIN_ELEMS * PER_ELEM_SECS = 1.5ms.
        1 => {
            let offset = rng.gen_range(1usize..=2);
            let at = SimTime(rng.gen_range(100_000u64..=1_000_000));
            (RepKill::Standby { offset }, FaultPlan::new(seed).kill(primary + offset, at))
        }
        // The headline case: the primary dies at an exact element
        // cursor, mid-stream, and the successor must replay from the
        // last committed checkpoint.
        _ => {
            let at_element = rng.gen_range(1..=total * 3 / 4);
            (
                RepKill::Primary { at_element },
                FaultPlan::new(seed).kill_at_element(primary, at_element),
            )
        }
    };
    RepSchedule { n_producers, per_producer, aggregation, credits, kill, plan }
}

/// Everything observable about one replicated run, totally ordered.
/// (rank, role code, view, folded state, commits).
type RepOutcomeRow = (usize, u8, u64, u64, u64);
/// (rank, sent, resent, takeovers, view).
type RepFinishRow = (usize, u64, u64, u64, u64);

#[derive(Clone, Debug, PartialEq)]
struct RepFingerprint {
    end_ns: u64,
    killed: Vec<usize>,
    /// Sorted by rank.
    outcomes: Vec<RepOutcomeRow>,
    /// Sorted by rank.
    finishes: Vec<RepFinishRow>,
}

fn run_replicated_chaos(seed: u64) -> (RepSchedule, RepFingerprint) {
    let s = rep_schedule(seed);
    let world = World::new(MachineConfig { noise: NoiseModel::none(), ..MachineConfig::default() })
        .with_seed(seed)
        .with_fault_plan(s.plan.clone());
    let nprocs = s.n_producers + 3;
    let (n_producers, per_producer) = (s.n_producers, s.per_producer);
    let config = ChannelConfig {
        element_bytes: 512,
        aggregation: s.aggregation,
        credits: Some(s.credits),
        route: RoutePolicy::Static,
        credit_batch: 1,
        failure_timeout: Some(SimDuration::from_millis(FAILURE_TIMEOUT_MS)),
        replicas: 2,
        replication_patience: None,
    };
    let run = world.run(nprocs, move |rank| {
        let comm = rank.comm_world();
        let me = rank.world_rank();
        let role = if me < n_producers { Role::Producer } else { Role::Consumer };
        let ch = StreamChannel::create(rank, &comm, role, config.clone());
        match role {
            Role::Producer => {
                let mut p: ReplicatedProducer<u64> = ReplicatedProducer::new(ch);
                for i in 0..per_producer {
                    rank.compute_exact(PER_ELEM_SECS);
                    p.push(rank, (me as u64) << 32 | i);
                }
                let f = p.finish(rank);
                let row: RepFinishRow = (me, f.sent, f.resent, f.takeovers, f.view);
                (Some(row), None)
            }
            Role::Consumer => {
                let mut folded = 0u64;
                let o = run_replicated::<u64, u64, _, _>(rank, &ch, 0, |r, acc, v| {
                    folded += 1;
                    if r.fault_plan().element_kill(r.world_rank()) == Some(folded) {
                        r.exit_killed();
                    }
                    *acc = acc.wrapping_add(mix64(v));
                    ControlFlow::Continue(())
                });
                let role_code = match o.role {
                    ReplicaRole::Primary => 1u8,
                    ReplicaRole::Standby => 2,
                    ReplicaRole::Died => 3,
                };
                let row: RepOutcomeRow = (me, role_code, o.view, o.state, o.commits);
                (None, Some(row))
            }
            Role::Bystander => unreachable!(),
        }
    });
    let (out, ranks) = run.expect("a killed rank is not a failed simulation");
    let mut killed = out.sim.killed.clone();
    killed.sort_unstable();
    let survivors: Vec<_> = ranks.into_iter().flatten().collect();
    let mut outcomes: Vec<RepOutcomeRow> = survivors.iter().filter_map(|(_, o)| *o).collect();
    outcomes.sort_unstable();
    let mut finishes: Vec<RepFinishRow> = survivors.iter().filter_map(|(f, _)| *f).collect();
    finishes.sort_unstable();
    (s, RepFingerprint { end_ns: out.sim.end_time.as_nanos(), killed, outcomes, finishes })
}

/// Exactly-once invariants for one replicated seed.
fn check_rep_invariants(seed: u64, s: &RepSchedule, fp: &RepFingerprint) {
    let expect = expected_checksum(s.n_producers, s.per_producer);
    let primary = s.n_producers;
    // Which consumer must end as primary, in which view, and who died.
    let (planned_kills, head, view) = match s.kill {
        RepKill::Nothing => (vec![], primary, 0),
        RepKill::Standby { offset } => (vec![primary + offset], primary, 0),
        RepKill::Primary { .. } => (vec![primary], primary + 1, 1),
    };
    assert_eq!(fp.killed, planned_kills, "seed {seed}: kill list mismatch");
    assert_eq!(fp.outcomes.len(), 3 - planned_kills.len(), "seed {seed}: survivor count");
    for &(rank, role_code, v, state, commits) in &fp.outcomes {
        assert_eq!(v, view, "seed {seed}: rank {rank} finished in the wrong view");
        assert_eq!(
            state, expect,
            "seed {seed}: rank {rank} diverges from the payload multiset — \
             an element was lost or folded twice"
        );
        if rank == head {
            assert_eq!(role_code, 1, "seed {seed}: rank {rank} must end as primary");
            assert!(commits > 0, "seed {seed}: a primary must commit checkpoints");
        } else {
            assert_eq!(role_code, 2, "seed {seed}: rank {rank} must end as a standby");
        }
    }
    // Every producer injected its full flow and followed the takeover.
    let mut resent = 0u64;
    for &(p, sent, re, takeovers, v) in &fp.finishes {
        assert_eq!(sent, s.per_producer, "seed {seed}: producer {p} short flow");
        assert_eq!(v, view, "seed {seed}: producer {p} missed the view change");
        if view == 0 {
            assert_eq!(takeovers, 0, "seed {seed}: producer {p} saw a phantom takeover");
            assert_eq!(re, 0, "seed {seed}: nothing to replay without a takeover");
        }
        resent += re;
    }
    assert_eq!(fp.finishes.len(), s.n_producers, "seed {seed}: every producer finishes");
    if matches!(s.kill, RepKill::Primary { .. }) {
        // The element being folded at the kill was received but not yet
        // committed, so its batch was never credited: at least that much
        // must have been replayed to the successor.
        assert!(resent > 0, "seed {seed}: a mid-fold kill must leave a tail to replay");
    }
}

/// The replicated sweep: for every seeded consumer-kill schedule the
/// surviving replicas fold *exactly* the injected payload multiset.
#[test]
fn chaos_replicated_consumer_kills_replay_exactly_once() {
    let (start, count) = sweep_range();
    let seeds: Vec<u64> = (start..start + count).collect();
    let runs = desim::sweep::par_map(seeds, |seed| (seed, run_replicated_chaos(seed)));
    let mut primary_kills = 0u64;
    let mut standby_kills = 0u64;
    for (seed, (s, fp)) in &runs {
        check_rep_invariants(*seed, s, fp);
        primary_kills += u64::from(matches!(s.kill, RepKill::Primary { .. }));
        standby_kills += u64::from(matches!(s.kill, RepKill::Standby { .. }));
    }
    // Meta-check on full sweeps: the schedule generator must actually
    // exercise both failover and quorum-loss-tolerance.
    if count >= 100 {
        assert!(primary_kills > count / 4, "suspiciously few primary kills");
        assert!(standby_kills > count / 8, "suspiciously few standby kills");
    }
}

/// Replicated runs replay identically: failover timing, replayed tails
/// and committed state are a pure function of the seed.
#[test]
fn chaos_replicated_runs_replay_identically() {
    let (start, count) = sweep_range();
    let seeds: Vec<u64> = (start..start + count).step_by((count as usize / 10).max(1)).collect();
    let first = desim::sweep::par_map(seeds.clone(), |seed| run_replicated_chaos(seed).1);
    let second = desim::sweep::par_map(seeds.clone(), |seed| run_replicated_chaos(seed).1);
    for ((seed, a), b) in seeds.iter().zip(first).zip(second) {
        assert_eq!(a, b, "seed {seed}: replicated fingerprint diverged between replays");
    }
}

// ---------------------------------------------------------------------------
// Golden fingerprints: parent-versus-change identity.
//
// The replay tests above compare a seed with its own re-run, which a
// refactor that shifts every virtual time by the same amount passes. The
// golden file pins what each seed produced at the commit that last
// regenerated it, so "the stream protocol is byte-identical" is checked,
// not asserted.
// ---------------------------------------------------------------------------

/// One line per seed: `seed`, then the digests of the unreplicated and the
/// replicated fingerprint. Lines starting with `#` are comments.
const GOLDEN: &str = include_str!("../../../tests/golden/chaos_fingerprints.txt");

/// 64-bit FNV-1a of a fingerprint's `Debug` text — a fixed function, unlike
/// `DefaultHasher`, whose output may change between toolchains.
fn digest(fingerprint: &impl std::fmt::Debug) -> u64 {
    let text = format!("{fingerprint:?}");
    text.bytes()
        .fold(0xCBF2_9CE4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3))
}

/// Every seed of the sweep range the golden file covers reproduces the
/// committed digests. To regenerate after an *intended* protocol change,
/// copy the file the failure names over the golden (run the default
/// 250-seed range first).
#[test]
fn chaos_fingerprints_match_golden() {
    let (start, count) = sweep_range();
    let seeds: Vec<u64> = (start..start + count).collect();
    let actual = desim::sweep::par_map(seeds, |seed| {
        let (plain, replicated) = (run_chaos(seed).1, run_replicated_chaos(seed).1);
        format!("{seed} {:016x} {:016x}", digest(&plain), digest(&replicated))
    });
    // Keyed by seed; the `#` comment line lands under a key no seed has.
    let golden: std::collections::HashMap<&str, &str> =
        GOLDEN.lines().filter_map(|line| Some((line.split_once(' ')?.0, line))).collect();
    let drifted: Vec<&String> = actual
        .iter()
        .filter(|line| {
            let (seed, _) = line.split_once(' ').expect("`seed digest digest`");
            golden.get(seed).is_some_and(|g| *g != line.as_str())
        })
        .collect();
    if !drifted.is_empty() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/chaos_fingerprints.actual");
        std::fs::write(path, actual.join("\n") + "\n").expect("write actual fingerprints");
        panic!(
            "{} of {count} seeds drifted from tests/golden/chaos_fingerprints.txt \
             (first: `{}`); actual lines written to {path}",
            drifted.len(),
            drifted[0]
        );
    }
}
