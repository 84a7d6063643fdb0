//! Fault-injection semantics at the MPI layer: deadline receives, link
//! drops/delays, killed ranks, and the determinism of all of the above.

use std::sync::atomic::{AtomicU64, Ordering};
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
    let out = world.run_expect(2, |rank| {
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
    let received = Arc::new(Mutex::new(Vec::new()));
    let rx = received.clone();
    let out = world.run_expect(2, move |rank| {
        const N: u64 = 64;
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
                rx.lock().push(v);
            }
        }
    });
    let got = received.lock().clone();
    assert_eq!(got.len() as u64 + out.msgs_dropped, 64);
    assert!(out.msgs_dropped > 10, "seeded 50% drops lost {} of 64", out.msgs_dropped);
    assert!(got.len() > 10, "seeded 50% drops kept {} of 64", got.len());
    assert!(got.windows(2).all(|w| w[0] < w[1]), "survivors out of order: {got:?}");
}

#[test]
fn delay_spike_window_slows_messages_without_reordering() {
    let fault_free = |_: ()| {
        let world = quiet_world();
        let times = Arc::new(Mutex::new(Vec::new()));
        let t = times.clone();
        world.run_expect(2, move |rank| {
            if rank.world_rank() == 0 {
                for i in 0..20u64 {
                    rank.compute_exact(1e-5);
                    rank.send(1, Tag::user(5), 256, i);
                }
            } else {
                for _ in 0..20 {
                    let (v, _) = rank.recv::<u64>(Src::Rank(0), Tag::user(5));
                    t.lock().push((v, rank.now()));
                }
            }
        });
        let v = times.lock().clone();
        v
    };
    let spiked = {
        // +1ms on messages whose arrival falls in [50us, 150us).
        let world = quiet_world().with_fault_plan(
            FaultPlan::new(5).link(
                LinkFault::new(0, 1)
                    .window(SimTime(50_000), SimTime(150_000))
                    .delay(SimDuration::from_millis(1)),
            ),
        );
        let times = Arc::new(Mutex::new(Vec::new()));
        let t = times.clone();
        world.run_expect(2, move |rank| {
            if rank.world_rank() == 0 {
                for i in 0..20u64 {
                    rank.compute_exact(1e-5);
                    rank.send(1, Tag::user(5), 256, i);
                }
            } else {
                for _ in 0..20 {
                    let (v, _) = rank.recv::<u64>(Src::Rank(0), Tag::user(5));
                    t.lock().push((v, rank.now()));
                }
            }
        });
        let v = times.lock().clone();
        v
    };
    let base = fault_free(());
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
    let done = Arc::new(AtomicU64::new(0));
    let d = done.clone();
    let out = world.run_expect(3, move |rank| {
        if rank.world_rank() == 1 {
            // Would run for 1ms, but dies at 50us.
            for _ in 0..100 {
                rank.compute_exact(1e-5);
            }
        } else {
            rank.compute_exact(1e-4);
            d.fetch_add(1, Ordering::SeqCst);
        }
    });
    assert_eq!(out.sim.killed, vec![1]);
    assert_eq!(done.load(Ordering::SeqCst), 2);
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
        let log = Arc::new(Mutex::new(Vec::new()));
        let l = log.clone();
        let out = world.run_expect(3, move |rank| {
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
        let events = log.lock().clone();
        (out.sim.end_time, out.sim.killed.clone(), out.msgs_dropped, events)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed + same plan must replay identically");
    assert_eq!(a.1, vec![2]);
    assert!(a.2 > 0, "expected some seeded drops");
}
