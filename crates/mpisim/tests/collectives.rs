//! Collective correctness and timing-shape tests.

use mpisim::{MachineConfig, NoiseModel, Tag, World};

fn ideal_world() -> World {
    World::new(MachineConfig::ideal())
}

fn quiet_world() -> World {
    World::new(MachineConfig { noise: NoiseModel::none(), ..MachineConfig::default() })
}

#[test]
fn allreduce_sums_over_many_sizes() {
    for n in [1usize, 2, 3, 4, 5, 7, 8, 13, 16, 33] {
        let world = ideal_world();
        world.run_expect(n, move |rank| {
            let comm = rank.comm_world();
            let sum = rank.allreduce(&comm, 8, rank.world_rank() as u64 + 1, |a, b| *a += b);
            let expect = (n * (n + 1) / 2) as u64;
            assert_eq!(sum, expect, "n={n}");
        });
    }
}

#[test]
fn reduce_returns_only_at_root() {
    let world = ideal_world();
    world.run_expect(9, |rank| {
        let comm = rank.comm_world();
        let r = rank.reduce(&comm, 3, 8, rank.world_rank() as i64, |a, b| *a = (*a).max(*b));
        if rank.world_rank() == 3 {
            assert_eq!(r, Some(8));
        } else {
            assert_eq!(r, None);
        }
    });
}

#[test]
fn reduce_with_min_and_vector_ops() {
    let world = ideal_world();
    world.run_expect(6, |rank| {
        let comm = rank.comm_world();
        let v = vec![rank.world_rank() as f64, 10.0 - rank.world_rank() as f64];
        let r = rank.reduce(&comm, 0, 16, v, |a, b| {
            for (x, y) in a.iter_mut().zip(b) {
                *x = x.min(*y);
            }
        });
        if rank.world_rank() == 0 {
            assert_eq!(r, Some(vec![0.0, 5.0]));
        }
    });
}

#[test]
fn bcast_from_every_root() {
    for root in 0..5usize {
        let world = ideal_world();
        world.run_expect(5, move |rank| {
            let comm = rank.comm_world();
            let val = if rank.world_rank() == root { Some(format!("from {root}")) } else { None };
            let got = rank.bcast(&comm, root, 32, val);
            assert_eq!(got, format!("from {root}"));
        });
    }
}

#[test]
fn gatherv_orders_by_comm_rank() {
    let world = ideal_world();
    world.run_expect(7, |rank| {
        let comm = rank.comm_world();
        let mine = vec![rank.world_rank(); rank.world_rank() + 1]; // variable sizes
        let got = rank.gatherv(&comm, 2, mine.len() as u64 * 8, mine);
        if rank.world_rank() == 2 {
            let got = got.unwrap();
            for (i, block) in got.iter().enumerate() {
                assert_eq!(block, &vec![i; i + 1]);
            }
        } else {
            assert!(got.is_none());
        }
    });
}

#[test]
fn allgatherv_gives_everyone_everything() {
    let world = ideal_world();
    world.run_expect(6, |rank| {
        let comm = rank.comm_world();
        let got = rank.allgatherv(&comm, 8, rank.world_rank() * 10);
        assert_eq!(got, vec![0, 10, 20, 30, 40, 50]);
    });
}

#[test]
fn barrier_holds_everyone_until_last_arrival() {
    let world = quiet_world();
    let (_, released) = world.run_expect(8, |rank| {
        // Rank r computes r ms; the barrier must not release anyone before
        // the slowest (7 ms) has arrived.
        rank.compute_exact(rank.world_rank() as f64 * 1e-3);
        let comm = rank.comm_world();
        rank.barrier(&comm);
        rank.now().as_nanos()
    });
    assert!(
        released.into_iter().min() >= Some(7_000_000),
        "someone left the barrier before the slowest rank arrived"
    );
}

#[test]
fn allreduce_scales_logarithmically_not_linearly() {
    // Timing-shape test: allreduce time at P=64 should be well below
    // 8x the time at P=8 (binomial tree: log2(64)/log2(8) = 2x rounds).
    fn allreduce_time(p: usize) -> f64 {
        let world = quiet_world();
        let (out, _) = world.run_expect(p, |rank| {
            let comm = rank.comm_world();
            for _ in 0..10 {
                let _ = rank.allreduce(&comm, 8, 1u64, |a, b| *a += b);
            }
        });
        out.elapsed_secs()
    }
    let t8 = allreduce_time(8);
    let t64 = allreduce_time(64);
    assert!(t64 > t8, "more ranks must cost more");
    assert!(t64 < t8 * 4.0, "t64={t64} should grow ~log, t8={t8}");
}

#[test]
fn ireduce_matches_blocking_reduce_result() {
    let world = ideal_world();
    world.run_expect(10, |rank| {
        let comm = rank.comm_world();
        let req = rank.ireduce_start(&comm, 8, rank.world_rank() as u64);
        rank.compute_exact(1e-4);
        let r = rank.ireduce_wait(req, |a, b| *a += b);
        if rank.world_rank() == 0 {
            assert_eq!(r, Some(45));
        } else {
            assert_eq!(r, None);
        }
    });
}

#[test]
fn ireduce_leaf_sends_overlap_compute() {
    // Interior ranks receive children data that was sent before their own
    // compute finished; overall time should be close to compute + O(log P)
    // combine, far below compute * 2.
    let world = quiet_world();
    let (out, _) = world.run_expect(16, |rank| {
        let comm = rank.comm_world();
        let req = rank.ireduce_start(&comm, 1 << 20, vec![rank.world_rank() as u64; 1]);
        rank.compute_exact(5e-3);
        let _ = rank.ireduce_wait(req, |a, b| {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        });
    });
    let t = out.elapsed_secs();
    assert!(t < 6e-3, "ireduce should overlap, took {t}");
}

#[test]
fn iallgatherv_matches_blocking_allgatherv() {
    let world = ideal_world();
    world.run_expect(9, |rank| {
        let comm = rank.comm_world();
        let req = rank.iallgatherv_start(&comm, 8, rank.world_rank() as u32);
        rank.compute_exact(1e-5);
        let all = rank.iallgatherv_wait::<u32>(req);
        assert_eq!(all, (0..9u32).collect::<Vec<_>>());
    });
}

#[test]
fn collectives_work_on_subcommunicators() {
    let world = ideal_world();
    world.run_expect(8, |rank| {
        let wcomm = rank.comm_world();
        let color = (rank.world_rank() % 2) as i64;
        let sub = rank.split(&wcomm, Some(color), rank.world_rank() as i64).unwrap();
        assert_eq!(sub.size(), 4);
        let sum = rank.allreduce(&sub, 8, rank.world_rank() as u64, |a, b| *a += b);
        let expect: u64 = (0..8u64).filter(|r| r % 2 == rank.world_rank() as u64 % 2).sum();
        assert_eq!(sum, expect);
    });
}

#[test]
fn split_with_none_color_returns_no_comm() {
    let world = ideal_world();
    world.run_expect(5, |rank| {
        let wcomm = rank.comm_world();
        let color = if rank.world_rank() == 4 { None } else { Some(0i64) };
        let sub = rank.split(&wcomm, color, 0);
        if rank.world_rank() == 4 {
            assert!(sub.is_none());
        } else {
            let sub = sub.unwrap();
            assert_eq!(sub.size(), 4);
            assert_eq!(sub.ranks(), &[0, 1, 2, 3]);
        }
    });
}

#[test]
fn split_key_controls_ordering() {
    let world = ideal_world();
    world.run_expect(4, |rank| {
        let wcomm = rank.comm_world();
        // Reverse the order with descending keys.
        let key = -(rank.world_rank() as i64);
        let sub = rank.split(&wcomm, Some(0), key).unwrap();
        assert_eq!(sub.ranks(), &[3, 2, 1, 0]);
        assert_eq!(sub.rank_of(rank.world_rank()), Some(3 - rank.world_rank()));
    });
}

#[test]
fn interleaved_collectives_and_p2p_do_not_cross_talk() {
    let world = ideal_world();
    world.run_expect(4, |rank| {
        let comm = rank.comm_world();
        // User p2p with a tag value that internal traffic must not collide
        // with, interleaved between collectives.
        if rank.world_rank() == 0 {
            rank.send(1, Tag::user(0), 8, 111u64);
        }
        let s = rank.allreduce(&comm, 8, 1u64, |a, b| *a += b);
        assert_eq!(s, 4);
        if rank.world_rank() == 1 {
            let (v, _) = rank.recv::<u64>(mpisim::Src::Rank(0), Tag::user(0));
            assert_eq!(v, 111);
        }
        let s2 = rank.allreduce(&comm, 8, 2u64, |a, b| *a += b);
        assert_eq!(s2, 8);
    });
}

#[test]
fn reduce_is_deterministic_for_floats() {
    // Tree order is fixed, so float reduction is bitwise reproducible.
    fn run() -> f64 {
        let world = ideal_world();
        let (_, sums) = world.run_expect(13, |rank| {
            let comm = rank.comm_world();
            let x = 0.1 * (rank.world_rank() as f64 + 1.0);
            rank.allreduce(&comm, 8, x, |a, b| *a += b)
        });
        sums[0]
    }
    assert_eq!(run().to_bits(), run().to_bits());
}
