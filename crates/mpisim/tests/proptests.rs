//! Property-based tests: collectives against fold oracles, p2p
//! conservation, timing monotonicity.

use std::sync::Arc;

use mpisim::{MachineConfig, Src, Tag, World};
use proptest::prelude::*;

fn ideal() -> World {
    World::new(MachineConfig::ideal())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// allreduce(sum) equals the serial fold for arbitrary inputs and
    /// world sizes, on every rank.
    #[test]
    fn allreduce_sum_matches_oracle(values in prop::collection::vec(-1_000_000i64..1_000_000, 2..20)) {
        let n = values.len();
        let expect: i64 = values.iter().sum();
        let values = Arc::new(values);
        ideal().run_expect(n, move |rank| {
            let comm = rank.comm_world();
            let mine = values[rank.world_rank()];
            let got = rank.allreduce(&comm, 8, mine, |a, b| *a += b);
            assert_eq!(got, expect);
        });
    }

    /// reduce(max) at an arbitrary root equals the serial max.
    #[test]
    fn reduce_max_matches_oracle(
        values in prop::collection::vec(any::<i32>(), 2..20),
        root_sel in any::<prop::sample::Index>(),
    ) {
        let n = values.len();
        let root = root_sel.index(n);
        let expect = *values.iter().max().unwrap();
        let values = Arc::new(values);
        ideal().run_expect(n, move |rank| {
            let comm = rank.comm_world();
            let mine = values[rank.world_rank()];
            let got = rank.reduce(&comm, root, 4, mine, |a, b| *a = (*a).max(*b));
            if rank.world_rank() == root {
                assert_eq!(got, Some(expect));
            } else {
                assert_eq!(got, None);
            }
        });
    }

    /// allgatherv returns every rank's block in rank order, for variable
    /// block sizes.
    #[test]
    fn allgatherv_matches_oracle(blocks in prop::collection::vec(
        prop::collection::vec(any::<u16>(), 0..8), 2..12)
    ) {
        let n = blocks.len();
        let expect: Vec<Vec<u16>> = blocks.clone();
        let blocks = Arc::new(blocks);
        ideal().run_expect(n, move |rank| {
            let comm = rank.comm_world();
            let mine = blocks[rank.world_rank()].clone();
            let bytes = mine.len() as u64 * 2;
            let got = rank.allgatherv(&comm, bytes, mine);
            assert_eq!(got, expect);
        });
    }

    /// Arbitrary random point-to-point traffic: every sent message is
    /// received exactly once with its payload intact.
    #[test]
    fn p2p_traffic_is_conserved(
        // (src, dst_offset, value) triples over a fixed 6-rank world.
        traffic in prop::collection::vec((0usize..6, 1usize..6, any::<u64>()), 0..40)
    ) {
        const N: usize = 6;
        // Expected per-receiver multiset.
        let mut expected: Vec<Vec<u64>> = vec![Vec::new(); N];
        for &(src, off, v) in &traffic {
            expected[(src + off) % N].push(v);
        }
        let mut outgoing: Vec<Vec<(usize, u64)>> = vec![Vec::new(); N];
        for &(src, off, v) in &traffic {
            outgoing[src].push((((src + off) % N), v));
        }
        let expected = Arc::new(expected);
        let expected2 = expected.clone();
        let outgoing = Arc::new(outgoing);
        let (_, mut got) = ideal().run_expect(N, move |rank| {
            let me = rank.world_rank();
            for &(dst, v) in &outgoing[me] {
                rank.send(dst, Tag::user(9), 8, v);
            }
            (0..expected2[me].len())
                .map(|_| rank.recv::<u64>(Src::Any, Tag::user(9)).0)
                .collect::<Vec<u64>>()
        });
        let mut want = (*expected).clone();
        for r in 0..N {
            got[r].sort_unstable();
            want[r].sort_unstable();
        }
        prop_assert_eq!(got, want);
    }

    /// Splits partition the world: every rank lands in exactly one
    /// subcommunicator and sizes add up.
    #[test]
    fn split_partitions_the_world(colors in prop::collection::vec(0i64..4, 2..16)) {
        let n = colors.len();
        let colors = Arc::new(colors);
        let colors2 = colors.clone();
        let (_, sizes) = ideal().run_expect(n, move |rank| {
            let comm = rank.comm_world();
            let me = rank.world_rank();
            let sub = rank.split(&comm, Some(colors2[me]), me as i64).unwrap();
            assert!(sub.contains(me));
            sub.size()
        });
        for (me, size) in sizes.into_iter().enumerate() {
            let c = colors[me];
            let expect = colors.iter().filter(|&&x| x == c).count();
            prop_assert_eq!(size, expect, "rank {} color {}", me, c);
        }
    }

    /// More bytes never arrive earlier: delivery time is monotone in
    /// message size (fixed machine, one sender/receiver pair).
    #[test]
    fn delivery_time_is_monotone_in_size(sizes in prop::collection::vec(1u64..10_000_000, 2..10)) {
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        let mut times: Vec<(u64, u64)> = Vec::new();
        for &s in &sorted {
            let world = World::new(MachineConfig {
                noise: mpisim::NoiseModel::none(),
                ..MachineConfig::default()
            });
            let (_, finished) = world.run_expect(2, move |rank| {
                if rank.world_rank() == 0 {
                    rank.send(1, Tag::user(1), s, ());
                } else {
                    let _ = rank.recv::<()>(Src::Rank(0), Tag::user(1));
                }
                rank.now().as_nanos()
            });
            times.push((s, finished[1]));
        }
        for w in times.windows(2) {
            prop_assert!(w[1].1 >= w[0].1, "bigger message arrived earlier: {w:?}");
        }
    }
}
