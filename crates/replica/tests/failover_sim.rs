//! Simulator integration tests of replicated consumer failover: a
//! replica group drains a stream while the fault plan kills ranks at
//! exact element cursors, and the surviving state must fold every
//! injected element exactly once.
//!
//! These runs deliberately do *not* enable the happens-before sanitizer:
//! its per-link credit ledger assumes the rank that received a batch is
//! the rank that acknowledges it, which a takeover violates by design
//! (the successor acknowledges elements its predecessor received).

use std::ops::ControlFlow;

use mpisim::{FaultPlan, MachineConfig, NoiseModel, SimDuration, SimTime, World};
use mpistream::{ChannelConfig, Role, RoutePolicy, StreamChannel};
use replica::{run_replicated, ProducerFinish, ReplicaOutcome, ReplicaRole, ReplicatedProducer};

const PER_ELEM_SECS: f64 = 2e-6;

#[inline]
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x
}

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

fn config(replicas: usize) -> ChannelConfig {
    ChannelConfig {
        element_bytes: 512,
        aggregation: 4,
        credits: Some(32),
        route: RoutePolicy::Static,
        credit_batch: 1,
        failure_timeout: Some(SimDuration::from_millis(3)),
        replicas,
        // Default derivation: 4 * failure_timeout = 12ms patience.
        replication_patience: None,
    }
}

/// What a rank of these worlds returns.
enum Ended {
    Producer(ProducerFinish),
    Consumer(ReplicaOutcome<u64>),
}

/// Every surviving rank's [`Ended`], split by role, in rank order.
#[allow(clippy::type_complexity)]
fn by_role(
    ranks: Vec<Option<Ended>>,
) -> (Vec<(usize, ReplicaOutcome<u64>)>, Vec<(usize, ProducerFinish)>) {
    let (mut outcomes, mut finishes) = (Vec::new(), Vec::new());
    for (r, ended) in ranks.into_iter().enumerate() {
        match ended {
            Some(Ended::Producer(f)) => finishes.push((r, f)),
            Some(Ended::Consumer(o)) => outcomes.push((r, o)),
            None => {}
        }
    }
    (outcomes, finishes)
}

/// Run `n_producers + 3` ranks: producers stream `per_producer` elements
/// each into a 3-member replica group folding the mix64 checksum.
/// Returns `(killed ranks, consumer outcomes, producer reports)`.
#[allow(clippy::type_complexity)]
fn run(
    n_producers: usize,
    per_producer: u64,
    plan: FaultPlan,
) -> (Vec<usize>, Vec<(usize, ReplicaOutcome<u64>)>, Vec<(usize, ProducerFinish)>) {
    let world = World::new(MachineConfig { noise: NoiseModel::none(), ..MachineConfig::default() })
        .with_seed(7)
        .with_fault_plan(plan);
    let nprocs = n_producers + 3;
    let run = world.run(nprocs, move |rank| {
        let comm = rank.comm_world();
        let me = rank.world_rank();
        let role = if me < n_producers { Role::Producer } else { Role::Consumer };
        let ch = StreamChannel::create(rank, &comm, role, config(2));
        match role {
            Role::Producer => {
                let mut p: ReplicatedProducer<u64> = ReplicatedProducer::new(ch);
                for i in 0..per_producer {
                    rank.compute_exact(PER_ELEM_SECS);
                    p.push(rank, (me as u64) << 32 | i);
                }
                Ended::Producer(p.finish(rank))
            }
            Role::Consumer => {
                let mut folded = 0u64;
                let outcome = run_replicated::<u64, u64, _, _>(rank, &ch, 0, |r, acc, v| {
                    folded += 1;
                    if r.fault_plan().element_kill(r.world_rank()) == Some(folded) {
                        r.exit_killed();
                    }
                    *acc = acc.wrapping_add(mix64(v));
                    ControlFlow::Continue(())
                });
                Ended::Consumer(outcome)
            }
            Role::Bystander => unreachable!(),
        }
    });
    let (out, ranks) = run.expect("a killed rank is not a failed simulation");
    let (outcomes, finishes) = by_role(ranks);
    (out.sim.killed, outcomes, finishes)
}

#[test]
fn replicated_run_completes_without_faults() {
    let (n_producers, per_producer) = (2, 120);
    let (killed, outcomes, finishes) = run(n_producers, per_producer, FaultPlan::new(1));
    assert_eq!(killed, Vec::<usize>::new());
    assert_eq!(outcomes.len(), 3);
    let expect = expected_checksum(n_producers, per_producer);
    // consumers[0] (rank 2) finishes as the view-0 primary; the standbys
    // end with the identical committed state.
    let (r0, primary) = &outcomes[0];
    assert_eq!(*r0, n_producers);
    assert_eq!(primary.role, ReplicaRole::Primary);
    assert_eq!(primary.view, 0);
    assert_eq!(primary.state, expect);
    assert!(primary.commits > 0, "the primary must have replicated checkpoints");
    for (_, o) in &outcomes[1..] {
        assert_eq!(o.role, ReplicaRole::Standby);
        assert_eq!(o.state, expect, "standby state must match the primary's");
        assert_eq!(o.checkpoint, primary.checkpoint);
    }
    // The committed cursors account for every element, per producer.
    for p in 0..n_producers as u64 {
        assert!(primary.checkpoint.cursors.contains(&(p, per_producer)));
        assert!(primary.checkpoint.claims.contains(&(p, per_producer)));
    }
    for (p, f) in &finishes {
        assert_eq!(f.sent, per_producer, "producer {p}");
        assert_eq!(f.resent, 0, "no takeover, nothing to replay");
        assert_eq!(f.takeovers, 0);
        assert_eq!(f.view, 0);
    }
}

#[test]
fn primary_death_fails_over_with_exactly_once_replay() {
    let (n_producers, per_producer) = (3, 150);
    let primary_rank = n_producers; // consumers[0]
                                    // Killed while folding its 97th element: checkpoints below the kill
                                    // are committed, the tail is mid-flight — the worst spot.
    let plan = FaultPlan::new(2).kill_at_element(primary_rank, 97);
    let (killed, outcomes, finishes) = run(n_producers, per_producer, plan);
    assert_eq!(killed, vec![primary_rank]);
    assert_eq!(outcomes.len(), 2, "the killed primary reports nothing");
    let expect = expected_checksum(n_producers, per_producer);
    // consumers[1] is the primary of view 1.
    let (r1, successor) = &outcomes[0];
    assert_eq!(*r1, primary_rank + 1);
    assert_eq!(successor.role, ReplicaRole::Primary);
    assert_eq!(successor.view, 1);
    assert_eq!(
        successor.state, expect,
        "exactly-once violated: the surviving state's checksum diverges"
    );
    assert!(successor.commits > 0, "the successor must commit the replayed tail");
    let (r2, standby) = &outcomes[1];
    assert_eq!(*r2, primary_rank + 2);
    assert_eq!(standby.role, ReplicaRole::Standby);
    assert_eq!(standby.state, expect);
    assert_eq!(standby.checkpoint, successor.checkpoint);
    for p in 0..n_producers as u64 {
        assert!(successor.checkpoint.cursors.contains(&(p, per_producer)));
    }
    // Every producer finished its flow in the new view.
    let mut replayed = 0u64;
    for (p, f) in &finishes {
        assert_eq!(f.sent, per_producer, "producer {p}");
        assert_eq!(f.view, 1, "producer {p} must have followed the takeover");
        replayed += f.resent;
    }
    // The kill lands mid-stream with a 32-element credit window, so some
    // uncommitted suffix must have been replayed.
    assert!(replayed > 0, "a mid-stream kill must leave an uncommitted tail to replay");
}

#[test]
fn standby_death_does_not_stall_the_stream() {
    let (n_producers, per_producer) = (2, 100);
    let standby_rank = n_producers + 2; // consumers[2]
                                        // A standby dying must not stall the primary: quorum is still 2 of 3.
    let plan = FaultPlan::new(3).kill(standby_rank, SimTime(200_000));
    let (killed, outcomes, finishes) = run(n_producers, per_producer, plan);
    assert_eq!(killed, vec![standby_rank]);
    let expect = expected_checksum(n_producers, per_producer);
    let (r0, primary) = &outcomes[0];
    assert_eq!(*r0, n_producers);
    assert_eq!(primary.role, ReplicaRole::Primary);
    assert_eq!(primary.view, 0, "a standby death must not force a view change");
    assert_eq!(primary.state, expect);
    for (_, f) in &finishes {
        assert_eq!(f.sent, per_producer);
        assert_eq!(f.takeovers, 0);
    }
}

/// The replication hot path reports itself to the profiler: every
/// quorum round-trip lands as a `repl-commit` span, and the per-channel
/// counters record commits, checkpoint bytes and prepare→commit
/// latency. On the simulator the extra `now()` reads are pure, so
/// profiling perturbs nothing.
#[test]
fn replication_reports_commit_latency_to_the_profiler() {
    use streamprof::{Clock, ProfSink, Profiled};
    let sink = ProfSink::new(Clock::Virtual);
    let (n_producers, per_producer) = (2usize, 60u64);
    let world = World::new(MachineConfig { noise: NoiseModel::none(), ..MachineConfig::default() })
        .with_seed(11);
    let s = sink.clone();
    world.run_expect(n_producers + 3, move |rank| {
        let comm = rank.comm_world();
        let me = rank.world_rank();
        let role = if me < n_producers { Role::Producer } else { Role::Consumer };
        let ch = StreamChannel::create(rank, &comm, role, config(2));
        match role {
            Role::Producer => {
                let mut p: ReplicatedProducer<u64> = ReplicatedProducer::new(ch);
                for i in 0..per_producer {
                    rank.compute_exact(PER_ELEM_SECS);
                    p.push(rank, (me as u64) << 32 | i);
                }
                p.finish(rank);
            }
            Role::Consumer => {
                let mut prof = Profiled::new(rank, s.clone());
                run_replicated::<u64, u64, _, _>(&mut prof, &ch, 0, |_, acc, v| {
                    *acc = acc.wrapping_add(mix64(v));
                    ControlFlow::Continue(())
                });
            }
            Role::Bystander => unreachable!(),
        }
    });
    let trace = sink.take();
    let primary_rank = n_producers;
    let m = trace
        .streams()
        .iter()
        .find(|((pid, _), _)| *pid == primary_rank)
        .map(|(_, m)| *m)
        .expect("the primary recorded stream metrics");
    assert!(m.repl_commits > 0, "every released credit batch rides on a commit");
    assert!(m.repl_bytes > 0, "checkpoint bytes must be accounted");
    assert!(m.repl_commit_latency() > 0.0, "a quorum round-trip takes simulated time");
    assert!(
        trace.spans().iter().any(|sp| sp.pid == primary_rank && sp.cat == "repl-commit"),
        "the prepare→commit window must land on the timeline as a span"
    );
}

/// A primary that is merely *slow* — not dead — is deposed by a spurious
/// view change while replay batches are still queued on its data tag.
/// With every replica stalling once, the primary role walks the whole
/// group and returns to ranks that already served: a re-elected primary
/// restores the committed checkpoint, but its queue still holds batches
/// addressed to its earlier reign, and the producers' fresh replay
/// resends that very suffix. The takeover quarantine (lifted by each
/// producer's post-announce `Mark`) must drop the stale copies so every
/// element folds into the surviving state exactly once.
#[test]
#[allow(clippy::type_complexity)]
fn deposed_alive_reelection_does_not_double_fold() {
    let (n_producers, per_producer) = (2usize, 200u64);
    // Group of 4 consumers (replicas = 3, quorum 3): one rank can stall
    // while the other three still elect, so the role can leave a rank
    // and come back without ever losing a majority.
    let world = World::new(MachineConfig { noise: NoiseModel::none(), ..MachineConfig::default() })
        .with_seed(13);
    let nprocs = n_producers + 4;
    // Stall for 5x the 12ms replication patience: far past the point
    // where the standbys must suspect the (live) primary.
    let stall_secs = 0.060;
    let (out, ranks) = world.run_expect(nprocs, move |rank| {
        let comm = rank.comm_world();
        let me = rank.world_rank();
        let role = if me < n_producers { Role::Producer } else { Role::Consumer };
        let ch = StreamChannel::create(rank, &comm, role, config(3));
        match role {
            Role::Producer => {
                let mut p: ReplicatedProducer<u64> = ReplicatedProducer::new(ch);
                for i in 0..per_producer {
                    rank.compute_exact(PER_ELEM_SECS);
                    p.push(rank, (me as u64) << 32 | i);
                }
                Ended::Producer(p.finish(rank))
            }
            Role::Consumer => {
                let mut folded = 0u64;
                let mut stalled = false;
                let outcome = run_replicated::<u64, u64, _, _>(rank, &ch, 0, |r, acc, v| {
                    folded += 1;
                    if folded == 5 && !stalled {
                        // Stall mid-reign, exactly once per rank: long
                        // enough to be deposed, alive enough to return.
                        stalled = true;
                        r.compute_exact(stall_secs);
                    }
                    *acc = acc.wrapping_add(mix64(v));
                    ControlFlow::Continue(())
                });
                Ended::Consumer(outcome)
            }
            Role::Bystander => unreachable!(),
        }
    });
    assert_eq!(out.sim.killed, Vec::<usize>::new(), "nobody dies — every deposition is spurious");
    let expect = expected_checksum(n_producers, per_producer);
    let (outcomes, finishes) = by_role(ranks.into_iter().map(Some).collect());
    assert_eq!(outcomes.len(), 4, "all four replicas must finish");
    let final_view = outcomes.iter().map(|(_, o)| o.view).max().unwrap();
    assert!(final_view >= 2, "the stalls must force repeated view changes, got {final_view}");
    for (r, o) in &outcomes {
        assert_ne!(o.role, ReplicaRole::Died, "rank {r} only stalled, never died");
        assert_eq!(
            o.state, expect,
            "exactly-once violated on rank {r}: stale pre-deposition batches were re-folded"
        );
    }
    let mut takeovers = 0u64;
    for (p, f) in &finishes {
        assert_eq!(f.sent, per_producer, "producer {p}");
        takeovers = takeovers.max(f.takeovers);
    }
    assert!(takeovers >= 2, "the primary role must have moved repeatedly, got {takeovers}");
}

#[test]
fn kill_before_any_commit_replays_from_zero() {
    let (n_producers, per_producer) = (2, 80);
    let primary_rank = n_producers;
    // Killed while folding its very first element: nothing committed,
    // the successor starts from cursor zero and producers replay all.
    let plan = FaultPlan::new(4).kill_at_element(primary_rank, 1);
    let (killed, outcomes, finishes) = run(n_producers, per_producer, plan);
    assert_eq!(killed, vec![primary_rank]);
    let expect = expected_checksum(n_producers, per_producer);
    let (_, successor) = &outcomes[0];
    assert_eq!(successor.role, ReplicaRole::Primary);
    assert_eq!(successor.state, expect);
    for (_, f) in &finishes {
        assert_eq!(f.sent, per_producer);
        assert_eq!(f.view, 1);
    }
}
