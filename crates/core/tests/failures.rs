//! Failure detection and recovery at the stream layer: consumers that
//! complete `operate_outcome` with reported loss instead of hanging when a
//! producer dies, and producers that re-route around a dead consumer.

use mpisim::{FaultPlan, MachineConfig, SimDuration, SimTime, World};
use mpistream::{ChannelConfig, ProducerState, Role, RoutePolicy, Stream, StreamChannel};

fn ideal() -> World {
    World::new(MachineConfig::ideal())
}

/// The headline recovery scenario: one of two producers is killed
/// mid-stream. The consumer must not hang on the `Term` that will never
/// arrive — it completes `operate_outcome` and reports the dead producer
/// with partial delivery, while the surviving producer's flow is complete.
#[test]
fn consumer_completes_with_reported_loss_after_producer_kill() {
    // Rank 1 dies at 250us, roughly halfway through its 500us send loop.
    let world = ideal().with_fault_plan(FaultPlan::new(7).kill(1, SimTime(250_000)));
    let run = world.run(3, move |rank| {
        let comm = rank.comm_world();
        let role = if rank.world_rank() < 2 { Role::Producer } else { Role::Consumer };
        let ch = StreamChannel::create(
            rank,
            &comm,
            role,
            ChannelConfig {
                element_bytes: 256,
                failure_timeout: Some(SimDuration::from_millis(2)),
                replicas: 0,
                replication_patience: None,
                ..ChannelConfig::default()
            },
        );
        let mut stream: Stream<u64> = Stream::attach(ch);
        match role {
            Role::Producer => {
                let me = rank.world_rank() as u64;
                for i in 0..100u64 {
                    rank.compute_exact(5e-6);
                    stream.isend(rank, me << 32 | i);
                }
                stream.terminate(rank);
                None
            }
            Role::Consumer => {
                let mut got = Vec::new();
                let outcome = stream.operate_outcome(rank, |_, v| got.push(v));
                Some((outcome, got))
            }
            Role::Bystander => unreachable!(),
        }
    });
    let (out, ranks) = run.expect("the world completes");
    assert_eq!(out.sim.killed, vec![1]);
    let Some(Some((outcome, got))) = &ranks[2] else { panic!("consumer finished") };
    assert!(!outcome.complete());
    assert_eq!(outcome.dead(), vec![1]);
    let r0 = outcome.producers[0];
    assert_eq!(r0.rank, 0);
    assert_eq!(r0.state, ProducerState::Terminated);
    assert_eq!(r0.claimed, Some(100));
    assert_eq!(r0.delivered, 100);
    assert_eq!(r0.lost(), 0);
    let r1 = outcome.producers[1];
    assert_eq!(r1.rank, 1);
    assert_eq!(r1.state, ProducerState::Dead);
    assert_eq!(r1.claimed, None, "a dead producer never got to claim a total");
    assert!(
        r1.delivered > 0 && r1.delivered < 100,
        "rank 1 died mid-stream, delivered {}",
        r1.delivered
    );
    assert_eq!(outcome.processed, 100 + r1.delivered);
    assert_eq!(got.len() as u64, outcome.processed);
}

/// Producer-side recovery: under RoundRobin, a producer whose credit
/// window on a killed consumer stays exhausted past the failure timeout
/// declares it dead and re-routes everything else to the surviving
/// consumer. Nothing is abandoned (`stats.lost == 0`) and the survivor's
/// accounting is exact.
#[test]
fn round_robin_producer_reroutes_around_dead_consumer() {
    // Rank 1 (consumer index 0) dies at 100us.
    let world = ideal().with_fault_plan(FaultPlan::new(3).kill(1, SimTime(100_000)));
    let run = world.run(3, move |rank| {
        let comm = rank.comm_world();
        let role = if rank.world_rank() == 0 { Role::Producer } else { Role::Consumer };
        let ch = StreamChannel::create(
            rank,
            &comm,
            role,
            ChannelConfig {
                element_bytes: 256,
                credits: Some(4),
                route: RoutePolicy::RoundRobin,
                failure_timeout: Some(SimDuration::from_millis(2)),
                replicas: 0,
                replication_patience: None,
                ..ChannelConfig::default()
            },
        );
        let mut stream: Stream<u64> = Stream::attach(ch);
        match role {
            Role::Producer => {
                for i in 0..200u64 {
                    rank.compute_exact(2e-6);
                    stream.isend(rank, i);
                }
                stream.terminate(rank);
                (Some(stream.stats()), None)
            }
            Role::Consumer => (None, Some(stream.operate_outcome(rank, |_, _| {}))),
            Role::Bystander => unreachable!(),
        }
    });
    let (out, ranks) = run.expect("the world completes");
    let (Some((Some(stats), _)), Some((_, Some(outcome)))) = (&ranks[0], &ranks[2]) else {
        panic!("the producer and the surviving consumer finished")
    };
    assert_eq!(out.sim.killed, vec![1]);
    assert_eq!(stats.lost, 0, "RoundRobin re-routes instead of dropping");
    // The survivor's view of rank 0 is clean: it terminated, and every
    // element claimed for this consumer arrived.
    assert!(outcome.complete());
    let r0 = outcome.producers[0];
    assert_eq!(r0.claimed, Some(r0.delivered));
    // Pre-kill the survivor got about half of the first ~50 elements; all
    // of the post-detection traffic lands here, so well over half of the
    // 200 total must have arrived.
    assert!(
        outcome.processed > 120,
        "expected the bulk of 200 elements after re-route, got {}",
        outcome.processed
    );
    // What was not delivered here went to the dead consumer before the
    // verdict — bounded by the pre-kill share plus the credit window.
    assert!(outcome.processed < 200);
}

/// Under Static routing elements are pinned to their consumer: when it
/// dies they cannot be re-routed, so the producer drops them and counts
/// the loss, and the other consumer sees a clean zero-element flow.
#[test]
fn static_producer_drops_and_counts_elements_for_dead_consumer() {
    // Rank 1 (consumer index 0, the Static target of producer 0) dies.
    let world = ideal().with_fault_plan(FaultPlan::new(9).kill(1, SimTime(100_000)));
    let run = world.run(3, move |rank| {
        let comm = rank.comm_world();
        let role = if rank.world_rank() == 0 { Role::Producer } else { Role::Consumer };
        let ch = StreamChannel::create(
            rank,
            &comm,
            role,
            ChannelConfig {
                element_bytes: 256,
                credits: Some(4),
                route: RoutePolicy::Static,
                failure_timeout: Some(SimDuration::from_millis(2)),
                replicas: 0,
                replication_patience: None,
                ..ChannelConfig::default()
            },
        );
        let mut stream: Stream<u64> = Stream::attach(ch);
        match role {
            Role::Producer => {
                for i in 0..200u64 {
                    rank.compute_exact(2e-6);
                    stream.isend(rank, i);
                }
                stream.terminate(rank);
                (Some(stream.stats()), None)
            }
            Role::Consumer => (None, Some(stream.operate_outcome(rank, |_, _| {}))),
            Role::Bystander => unreachable!(),
        }
    });
    let (_, ranks) = run.expect("the world completes");
    let (Some((Some(stats), _)), Some((_, Some(outcome)))) = (&ranks[0], &ranks[2]) else {
        panic!("the producer and the surviving consumer finished")
    };
    assert!(stats.lost > 0, "pinned elements for a dead consumer are lost");
    assert_eq!(stats.elements + stats.lost, 200, "every element sent or counted lost");
    // The unrelated consumer is untouched: the producer terminates with a
    // zero claim towards it.
    assert!(outcome.complete());
    assert_eq!(outcome.processed, 0);
    assert_eq!(outcome.producers[0].claimed, Some(0));
}

/// Without faults, `operate_outcome` is `operate` plus reporting: all
/// producers terminate cleanly and the accounting is exact, even with a
/// failure timeout armed.
#[test]
fn fault_free_outcome_reports_clean_completion() {
    let world = ideal();
    let (_, ranks) = world.run_expect(3, move |rank| {
        let comm = rank.comm_world();
        let role = if rank.world_rank() < 2 { Role::Producer } else { Role::Consumer };
        let ch = StreamChannel::create(
            rank,
            &comm,
            role,
            ChannelConfig {
                element_bytes: 128,
                aggregation: 4,
                credits: Some(16),
                failure_timeout: Some(SimDuration::from_millis(1)),
                replicas: 0,
                replication_patience: None,
                ..ChannelConfig::default()
            },
        );
        let mut stream: Stream<u64> = Stream::attach(ch);
        match role {
            Role::Producer => {
                for i in 0..50u64 {
                    rank.compute_exact(5e-6);
                    stream.isend(rank, i);
                }
                stream.terminate(rank);
                None
            }
            Role::Consumer => Some(stream.operate_outcome(rank, |_, _| {})),
            Role::Bystander => unreachable!(),
        }
    });
    let Some(outcome) = &ranks[2] else { panic!("consumer finished") };
    assert!(outcome.complete());
    assert_eq!(outcome.processed, 100);
    assert_eq!(outcome.dead(), Vec::<usize>::new());
    assert_eq!(outcome.lost(), 0);
    for (i, r) in outcome.producers.iter().enumerate() {
        assert_eq!(r.rank, i);
        assert_eq!(r.state, ProducerState::Terminated);
        assert_eq!(r.claimed, Some(50));
        assert_eq!(r.delivered, 50);
    }
}

/// A producer killed *before it sends anything* still ends as a clean
/// `Dead` verdict with zero delivery — the consumer's initial grace period
/// starts at attach time, not at first contact.
#[test]
fn producer_killed_before_first_send_reports_zero_delivery() {
    let world = ideal().with_fault_plan(FaultPlan::new(1).kill(0, SimTime(10_000)));
    let run = world.run(3, move |rank| {
        let comm = rank.comm_world();
        let role = if rank.world_rank() < 2 { Role::Producer } else { Role::Consumer };
        let ch = StreamChannel::create(
            rank,
            &comm,
            role,
            ChannelConfig {
                element_bytes: 128,
                failure_timeout: Some(SimDuration::from_millis(1)),
                replicas: 0,
                replication_patience: None,
                ..ChannelConfig::default()
            },
        );
        let mut stream: Stream<u64> = Stream::attach(ch);
        match role {
            Role::Producer => {
                // Rank 0 stalls past its own death; rank 1 streams fine.
                if rank.world_rank() == 0 {
                    rank.compute_exact(1e-3);
                }
                for i in 0..20u64 {
                    rank.compute_exact(5e-6);
                    stream.isend(rank, i);
                }
                stream.terminate(rank);
                None
            }
            Role::Consumer => Some(stream.operate_outcome(rank, |_, _| {})),
            Role::Bystander => unreachable!(),
        }
    });
    let (_, ranks) = run.expect("the world completes");
    let Some(Some(outcome)) = &ranks[2] else { panic!("consumer finished") };
    assert_eq!(outcome.dead(), vec![0]);
    assert_eq!(outcome.producers[0].delivered, 0);
    assert_eq!(outcome.producers[0].claimed, None);
    assert_eq!(outcome.producers[1].delivered, 20);
    assert_eq!(outcome.processed, 20);
}
