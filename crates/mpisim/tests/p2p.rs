//! Point-to-point semantics and timing-model tests.

use mpisim::{MachineConfig, NoiseModel, Src, Tag, World};

fn quiet(cfg: MachineConfig) -> MachineConfig {
    MachineConfig { noise: NoiseModel::none(), ..cfg }
}

#[test]
fn typed_payloads_roundtrip() {
    let world = World::new(MachineConfig::ideal());
    world.run_expect(2, |rank| {
        if rank.world_rank() == 0 {
            rank.send(1, Tag::user(1), 16, vec![1.0f64, 2.0]);
            rank.send(1, Tag::user(2), 4, 42u32);
            rank.send(1, Tag::user(3), 11, String::from("hello world"));
        } else {
            let (v, _) = rank.recv::<Vec<f64>>(Src::Rank(0), Tag::user(1));
            assert_eq!(v, vec![1.0, 2.0]);
            let (n, _) = rank.recv::<u32>(Src::Rank(0), Tag::user(2));
            assert_eq!(n, 42);
            let (s, info) = rank.recv::<String>(Src::Rank(0), Tag::user(3));
            assert_eq!(s, "hello world");
            assert_eq!(info.src, 0);
            assert_eq!(info.bytes, 11);
        }
    });
}

#[test]
fn messages_from_one_source_do_not_overtake() {
    // A big message followed by a tiny one on the same (src, dst) pair must
    // be received in order: NIC serialization enforces non-overtaking.
    let world = World::new(quiet(MachineConfig::default()));
    world.run_expect(2, |rank| {
        if rank.world_rank() == 0 {
            let r1 = rank.isend(1, Tag::user(9), 100 << 20, 1u32); // 100 MB
            let r2 = rank.isend(1, Tag::user(9), 1, 2u32); // 1 B
            rank.wait_send_all(vec![r1, r2]);
        } else {
            let (a, _) = rank.recv::<u32>(Src::Rank(0), Tag::user(9));
            let (b, _) = rank.recv::<u32>(Src::Rank(0), Tag::user(9));
            assert_eq!((a, b), (1, 2));
        }
    });
}

#[test]
fn any_source_takes_first_available() {
    // Rank 2 waits on AnySource; rank 1 is "late", rank 0 is "early".
    // FCFS must deliver rank 0's message first even though rank 1 has a
    // lower... (both match; availability decides).
    let world = World::new(quiet(MachineConfig::default()));
    let (_, mut per_rank) = world.run_expect(3, |rank| {
        let mut got = Vec::new();
        match rank.world_rank() {
            0 => {
                rank.compute_exact(1e-6);
                rank.send(2, Tag::user(5), 8, 0u64);
            }
            1 => {
                rank.compute_exact(5e-3); // much later
                rank.send(2, Tag::user(5), 8, 1u64);
            }
            _ => {
                for _ in 0..2 {
                    let (v, info) = rank.recv::<u64>(Src::Any, Tag::user(5));
                    got.push((v, info.src));
                }
            }
        }
        got
    });
    assert_eq!(per_rank.swap_remove(2), vec![(0, 0), (1, 1)]);
}

#[test]
fn latency_and_bandwidth_govern_delivery_time() {
    let cfg = quiet(MachineConfig {
        inter_latency: mpisim::SimDuration::from_micros(2),
        tx_bandwidth: 1e9,
        rx_bandwidth: 1e9,
        send_overhead: mpisim::SimDuration::ZERO,
        recv_overhead: mpisim::SimDuration::ZERO,
        ranks_per_node: 1, // force inter-node
        ..MachineConfig::default()
    });
    let world = World::new(cfg);
    let (_, finished) = world.run_expect(2, |rank| {
        if rank.world_rank() == 0 {
            // 1 MB at 1 GB/s = 1 ms per NIC stage, plus 2 us latency.
            rank.send(1, Tag::user(1), 1_000_000, ());
        } else {
            let (_, _) = rank.recv::<()>(Src::Rank(0), Tag::user(1));
        }
        rank.now().as_nanos()
    });
    let t = finished[1];
    // tx 1ms + latency 2us + rx 1ms = 2.002 ms.
    assert_eq!(t, 2_002_000);
}

#[test]
fn intra_node_is_faster_than_inter_node() {
    fn transfer_time(ranks_per_node: usize) -> u64 {
        let cfg = quiet(MachineConfig { ranks_per_node, ..MachineConfig::default() });
        let world = World::new(cfg);
        let (_, finished) = world.run_expect(2, |rank| {
            if rank.world_rank() == 0 {
                rank.send(1, Tag::user(1), 1 << 20, ());
            } else {
                let _ = rank.recv::<()>(Src::Rank(0), Tag::user(1));
            }
            rank.now().as_nanos()
        });
        finished[1]
    }
    let same_node = transfer_time(2);
    let cross_node = transfer_time(1);
    assert!(same_node < cross_node, "intra-node {same_node} should beat inter-node {cross_node}");
}

#[test]
fn incast_serializes_on_receiver_nic() {
    // N senders push 1 MB each to rank 0 simultaneously; the receiver NIC
    // drains them one after another, so total time ~ N * (1MB / rx_bw).
    const N: usize = 8;
    let cfg = quiet(MachineConfig {
        tx_bandwidth: 10e9,
        rx_bandwidth: 10e9,
        ranks_per_node: 1,
        ..MachineConfig::default()
    });
    let world = World::new(cfg);
    let (_, finished) = world.run_expect(N + 1, |rank| {
        if rank.world_rank() == 0 {
            for _ in 0..N {
                let _ = rank.recv::<()>(Src::Any, Tag::user(3));
            }
        } else {
            rank.send(0, Tag::user(3), 1 << 20, ());
        }
        rank.now().as_nanos()
    });
    let t = finished[0] as f64 / 1e9;
    let serial = N as f64 * (1 << 20) as f64 / 10e9;
    assert!(t >= serial, "incast time {t} must cover serial drain {serial}");
    assert!(t < serial * 1.5, "incast time {t} unreasonably above {serial}");
}

#[test]
fn probe_and_try_recv() {
    let world = World::new(quiet(MachineConfig::default()));
    world.run_expect(2, |rank| {
        if rank.world_rank() == 0 {
            rank.send(1, Tag::user(8), 64, 7i64);
        } else {
            assert!(rank.try_recv::<i64>(Src::Any, Tag::user(8)).is_none(), "nothing arrived yet");
            // Give the message time to arrive.
            rank.compute_exact(1e-3);
            let info = rank.probe(Src::Any, Tag::user(8)).expect("message should be visible");
            assert_eq!(info.src, 0);
            let (v, _) = rank.try_recv::<i64>(Src::Any, Tag::user(8)).expect("message is takeable");
            assert_eq!(v, 7);
            assert!(rank.probe(Src::Any, Tag::user(8)).is_none());
        }
    });
}

#[test]
#[should_panic(expected = "payload type mismatch")]
fn type_mismatch_panics_with_clear_message() {
    let world = World::new(MachineConfig::ideal());
    world.run_expect(2, |rank| {
        if rank.world_rank() == 0 {
            rank.send(1, Tag::user(1), 8, 1u64);
        } else {
            let _ = rank.recv::<String>(Src::Rank(0), Tag::user(1));
        }
    });
}

#[test]
fn message_counters_account_traffic() {
    let world = World::new(MachineConfig::ideal());
    let (out, _) = world.run_expect(2, |rank| {
        if rank.world_rank() == 0 {
            for _ in 0..5 {
                rank.send(1, Tag::user(1), 100, ());
            }
        } else {
            for _ in 0..5 {
                let _ = rank.recv::<()>(Src::Rank(0), Tag::user(1));
            }
        }
    });
    assert_eq!(out.msgs_sent, 5);
    assert_eq!(out.bytes_sent, 500);
    assert_eq!(out.per_rank_msgs, vec![5, 0]);
}

#[test]
fn compute_noise_is_deterministic_per_seed_and_perturbs_time() {
    fn run(seed: u64) -> f64 {
        let world = World::new(MachineConfig::default()).with_seed(seed);
        world
            .run_expect(4, |rank| {
                for _ in 0..50 {
                    rank.compute(1e-4);
                }
            })
            .0
            .elapsed_secs()
    }
    let a = run(1);
    let b = run(1);
    let c = run(2);
    assert_eq!(a, b);
    assert_ne!(a, c);
    // Noise should make makespan exceed the nominal 5 ms.
    assert!(a > 5e-3, "noise must add time, got {a}");
}
