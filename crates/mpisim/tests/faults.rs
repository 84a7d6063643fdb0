//! Fault-injection semantics at the MPI layer: deadline receives, link
//! drops/delays, killed ranks, and the determinism of all of the above.

use std::sync::Arc;

use mpisim::{
    FaultPlan, LinkFault, MachineConfig, NoiseModel, SimDuration, SimTime, Src, Tag, World,
};
use parking_lot::Mutex;

fn quiet_world() -> World {
    World::new(MachineConfig { noise: NoiseModel::none(), ..MachineConfig::default() })
}

#[test]
fn recv_timeout_returns_none_when_nothing_arrives() {
    let world = World::new(MachineConfig::ideal());
    world.run_expect(2, |rank| {
        if rank.world_rank() == 1 {
            let before = rank.now();
            let got = rank.recv_deadline::<u64>(
                Src::Rank(0),
                Tag::user(5),
                rank.now() + SimDuration::from_millis(2),
            );
            assert!(got.is_none());
            assert_eq!(rank.now().since(before), SimDuration::from_millis(2));
        }
        // Rank 0 sends nothing at all.
    });
}

#[test]
fn recv_timeout_delivers_message_that_arrives_in_time() {
    let world = quiet_world();
    world.run_expect(2, |rank| {
        if rank.world_rank() == 0 {
            rank.compute_exact(1e-4);
            rank.send(1, Tag::user(5), 64, 77u64);
        } else {
            let got = rank.recv_deadline::<u64>(
                Src::Rank(0),
                Tag::user(5),
                rank.now() + SimDuration::from_secs(1),
            );
            let (v, info) = got.expect("message arrives well before the deadline");
            assert_eq!(v, 77);
            assert_eq!(info.src, 0);
        }
    });
}

#[test]
fn recv_deadline_in_the_past_only_drains_available_messages() {
    let world = World::new(MachineConfig::ideal());
    world.run_expect(1, |rank| {
        // Deadline already passed and the mailbox is empty: immediate None,
        // no time advances.
        let before = rank.now();
        let got = rank.recv_deadline::<u64>(Src::Any, Tag::user(9), SimTime::ZERO);
        assert!(got.is_none());
        assert_eq!(rank.now(), before);
    });
}

#[test]
fn dropped_messages_never_arrive_and_are_counted() {
    // Certain drop on the 0 -> 1 link: the receive must time out.
    let world =
        quiet_world().with_fault_plan(FaultPlan::new(3).link(LinkFault::new(0, 1).drop_prob(1.0)));
    let (out, _) = world.run_expect(2, |rank| {
        if rank.world_rank() == 0 {
            rank.send(1, Tag::user(5), 64, 1u64);
            rank.send(1, Tag::user(5), 64, 2u64);
        } else {
            let got = rank.recv_deadline::<u64>(
                Src::Rank(0),
                Tag::user(5),
                rank.now() + SimDuration::from_millis(1),
            );
            assert!(got.is_none(), "dropped message must not arrive");
        }
    });
    assert_eq!(out.msgs_dropped, 2);
    // Sends are still counted as sent (the sender spent the NIC time).
    assert_eq!(out.msgs_sent, 2);
}

#[test]
fn partial_drops_preserve_surviving_payloads_in_order() {
    // 50% drops on 0 -> 1; whatever survives must arrive in send order.
    let world =
        quiet_world().with_fault_plan(FaultPlan::new(11).link(LinkFault::new(0, 1).drop_prob(0.5)));
    let (out, mut per_rank) = world.run_expect(2, |rank| {
        const N: u64 = 64;
        let mut got = Vec::new();
        if rank.world_rank() == 0 {
            for i in 0..N {
                rank.send(1, Tag::user(5), 256, i);
            }
        } else {
            while let Some((v, _)) = rank.recv_deadline::<u64>(
                Src::Rank(0),
                Tag::user(5),
                rank.now() + SimDuration::from_millis(5),
            ) {
                got.push(v);
            }
        }
        got
    });
    let got = per_rank.swap_remove(1);
    assert_eq!(got.len() as u64 + out.msgs_dropped, 64);
    assert!(out.msgs_dropped > 10, "seeded 50% drops lost {} of 64", out.msgs_dropped);
    assert!(got.len() > 10, "seeded 50% drops kept {} of 64", got.len());
    assert!(got.windows(2).all(|w| w[0] < w[1]), "survivors out of order: {got:?}");
}

#[test]
fn delay_spike_window_slows_messages_without_reordering() {
    // Rank 1's (value, arrival time) of each of 20 messages from rank 0.
    let arrivals = |plan: FaultPlan| {
        let (_, mut per_rank) = quiet_world().with_fault_plan(plan).run_expect(2, |rank| {
            let mut times = Vec::new();
            if rank.world_rank() == 0 {
                for i in 0..20u64 {
                    rank.compute_exact(1e-5);
                    rank.send(1, Tag::user(5), 256, i);
                }
            } else {
                for _ in 0..20 {
                    let (v, _) = rank.recv::<u64>(Src::Rank(0), Tag::user(5));
                    times.push((v, rank.now()));
                }
            }
            times
        });
        per_rank.swap_remove(1)
    };
    // +1ms on messages whose arrival falls in [50us, 150us).
    let spiked = arrivals(
        FaultPlan::new(5).link(
            LinkFault::new(0, 1)
                .window(SimTime(50_000), SimTime(150_000))
                .delay(SimDuration::from_millis(1)),
        ),
    );
    let base = arrivals(FaultPlan::default());
    // Values still arrive in send order (non-overtaking preserved).
    let order: Vec<u64> = spiked.iter().map(|&(v, _)| v).collect();
    assert_eq!(order, (0..20).collect::<Vec<_>>());
    // And the spike made the affected tail strictly later than fault-free.
    assert!(spiked.last().unwrap().1 > base.last().unwrap().1, "delay spike had no effect");
}

#[test]
fn killed_rank_is_reported_and_survivors_finish() {
    let world = World::new(MachineConfig::ideal())
        .with_fault_plan(FaultPlan::new(1).kill(1, SimTime(50_000)));
    let run = world.run(3, |rank| {
        if rank.world_rank() == 1 {
            // Would run for 1ms, but dies at 50us.
            for _ in 0..100 {
                rank.compute_exact(1e-5);
            }
        } else {
            rank.compute_exact(1e-4);
        }
        rank.world_rank()
    });
    let (out, results) = run.expect("a killed rank is not a failed simulation");
    assert_eq!(out.sim.killed, vec![1]);
    // The killed rank has no result; every survivor returned its own.
    assert_eq!(results, [Some(0), None, Some(2)]);
}

#[test]
#[should_panic(expected = "rank 1 was killed")]
fn run_expect_names_a_killed_rank() {
    let world = World::new(MachineConfig::ideal())
        .with_fault_plan(FaultPlan::new(1).kill(1, SimTime(50_000)));
    world.run_expect(3, |rank| {
        rank.compute_exact(1e-3);
        rank.world_rank()
    });
}

#[test]
fn fault_injected_world_replays_bit_identically() {
    let run = || {
        let world = World::default().with_seed(123).with_fault_plan(
            FaultPlan::new(42)
                .kill(2, SimTime(200_000))
                .link(LinkFault::new(0, 1).drop_prob(0.3))
                .link(
                    LinkFault::new(1, 0)
                        .window(SimTime(0), SimTime(100_000))
                        .delay(SimDuration::from_micros(40)),
                ),
        );
        // Rank 2 dies mid-loop, so what each rank received is logged as
        // it happens rather than returned at the end.
        let log = Arc::new(Mutex::new(Vec::new()));
        let l = log.clone();
        let run = world.run(3, move |rank| {
            let me = rank.world_rank();
            for i in 0..50u64 {
                rank.compute(1e-6);
                let peer = (me + 1) % 3;
                rank.send(peer, Tag::user(7), 128, (me as u64) << 32 | i);
                if let Some((v, info)) = rank.recv_deadline::<u64>(
                    Src::Any,
                    Tag::user(7),
                    rank.now() + SimDuration::from_micros(50),
                ) {
                    l.lock().push((me, v, info.src, rank.now().as_nanos()));
                }
            }
        });
        let (out, _) = run.expect("a killed rank is not a failed simulation");
        let events = log.lock().clone();
        (out.sim.end_time, out.sim.killed.clone(), out.msgs_dropped, events)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed + same plan must replay identically");
    assert_eq!(a.1, vec![2]);
    assert!(a.2 > 0, "expected some seeded drops");
}
