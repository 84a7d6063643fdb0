//! Sim-backed integration tests of the tree-aggregation operators:
//! combiners in front of a decoupled channel and full reduction trees
//! over the simulated machine.

use mpisim::{MachineConfig, NoiseModel, World};
use mpistream::{
    plan_tree, run_decoupled, tree_reduce, ChannelConfig, Combiner, CombinerStats, GroupSpec,
    Transport,
};

fn quiet() -> World {
    World::new(MachineConfig { noise: NoiseModel::none(), ..MachineConfig::default() })
}

#[test]
fn combiner_amortizes_messages_and_preserves_sums() {
    // 3 producers push 40 elements each through a combiner that flushes
    // every 8: the consumer must see 3 x 5 pre-reduced elements carrying
    // the exact total.
    let (_, per_rank) = quiet().run_expect(4, |rank| {
        let comm = rank.comm_world();
        let mut got = Vec::new();
        run_decoupled::<u64, _, _, _>(
            rank,
            &comm,
            GroupSpec { every: 4 },
            ChannelConfig::default(),
            |rank, p| {
                let mut comb = Combiner::new(p.stream, 8);
                for i in 1..=40u64 {
                    comb.push(rank, p.stream, 0, i, |acc, e| *acc += e);
                }
                let stats = comb.finish(rank, p.stream);
                assert_eq!(stats, CombinerStats { folded: 40, emitted: 5 });
                assert_eq!(stats.fold_factor(), 8.0);
            },
            |rank, c| {
                c.stream.operate(rank, |_, e| got.push(e));
            },
        );
        got
    });
    let got = per_rank.concat();
    assert_eq!(got.len(), 15);
    assert_eq!(got.iter().sum::<u64>(), 3 * (40 * 41 / 2));
}

#[test]
fn combiner_partial_slots_flush_on_finish() {
    // 37 elements at flush_every 8 leaves a 5-element remainder that
    // finish() must still deliver.
    let (_, per_rank) = quiet().run_expect(2, |rank| {
        let comm = rank.comm_world();
        let mut got = Vec::new();
        run_decoupled::<u64, _, _, _>(
            rank,
            &comm,
            GroupSpec { every: 2 },
            ChannelConfig::default(),
            |rank, p| {
                let mut comb = Combiner::new(p.stream, 8);
                for i in 1..=37u64 {
                    comb.push(rank, p.stream, 0, i, |acc, e| *acc += e);
                }
                let stats = comb.finish(rank, p.stream);
                assert_eq!(stats, CombinerStats { folded: 37, emitted: 5 });
            },
            |rank, c| {
                c.stream.operate(rank, |_, e| got.push(e));
            },
        );
        got
    });
    let got = per_rank.concat();
    assert_eq!(got.len(), 5);
    assert_eq!(got.iter().sum::<u64>(), 37 * 38 / 2);
}

#[test]
fn combiner_keyed_routing_keeps_slots_separate() {
    // Two consumers; producers bucket odd/even keys to different slots.
    // Each consumer's merged elements must carry only its own keys.
    let (_, per_rank) = quiet().run_expect(6, |rank| {
        let comm = rank.comm_world();
        let mut got = Vec::new();
        run_decoupled::<u64, _, _, _>(
            rank,
            &comm,
            GroupSpec { every: 3 },
            ChannelConfig::default(),
            |rank, p| {
                let mut comb = Combiner::new(p.stream, 4);
                for i in 0..16u64 {
                    let slot = (i % 2) as usize;
                    // Keep parity visible in the merged value: sums of
                    // same-parity values stay in that parity class only
                    // if we track counts, so encode parity in low bit.
                    comb.push(rank, p.stream, slot, i, |acc, e| *acc += e & !1);
                }
                let stats = comb.finish(rank, p.stream);
                assert_eq!(stats, CombinerStats { folded: 16, emitted: 4 });
            },
            |rank, c| {
                c.stream.operate(rank, |_, e| got.push(e));
            },
        );
        got
    });
    let got: Vec<(usize, u64)> = per_rank
        .iter()
        .enumerate()
        .flat_map(|(me, got)| got.iter().map(move |&e| (me, e)))
        .collect();
    // 4 producers (ranks 0,1,3,4) x 2 slots x 2 flushes.
    assert_eq!(got.len(), 16);
    // Static routing maps slot i -> consumer i: the odd slot's merged
    // elements keep the low bit set, the even slot's never do.
    let consumers: Vec<usize> = {
        let mut c: Vec<usize> = got.iter().map(|&(m, _)| m).collect();
        c.sort_unstable();
        c.dedup();
        c
    };
    assert_eq!(consumers.len(), 2);
    for &(me, e) in got.iter() {
        let slot = if me == consumers[0] { 0 } else { 1 };
        assert_eq!((e & 1) as usize, slot, "merged element crossed consumer slots");
    }
}

#[test]
fn tree_reduce_sums_to_the_root_at_various_shapes() {
    for (n, k) in [(2usize, 2usize), (5, 2), (8, 4), (16, 4), (27, 3), (64, 8)] {
        let (_, per_rank) = quiet().run_expect(n, move |rank| {
            let comm = rank.comm_world();
            let me = rank.world_rank();
            let leaves: Vec<usize> = (0..rank.world_size()).collect();
            tree_reduce(
                rank,
                &comm,
                &leaves,
                k,
                &ChannelConfig::default(),
                Some(me as u64 + 1),
                |_, acc, e| *acc += e,
            )
        });
        let roots: Vec<(usize, u64)> =
            per_rank.into_iter().enumerate().filter_map(|(me, sum)| Some((me, sum?))).collect();
        assert_eq!(roots.len(), 1, "exactly one root at n={n} k={k}");
        let (root, sum) = roots[0];
        assert_eq!(root, 0);
        assert_eq!(sum, (n as u64) * (n as u64 + 1) / 2, "n={n} k={k}");
    }
}

#[test]
fn tree_reduce_over_sparse_leaves_with_bystanders() {
    // Only odd ranks contribute; even ranks flow through the collective
    // splits with no endpoints and must get None back.
    let (_, results) = quiet().run_expect(12, |rank| {
        let comm = rank.comm_world();
        let me = rank.world_rank();
        let leaves: Vec<usize> = (0..12).filter(|r| r % 2 == 1).collect();
        let partial = leaves.contains(&me).then_some(1u64 << me);
        tree_reduce(rank, &comm, &leaves, 3, &ChannelConfig::default(), partial, |_, acc, e| {
            *acc |= e
        })
    });
    for (me, got) in results.into_iter().enumerate() {
        if me == 1 {
            // Root = first leaf; OR of one-hot partials proves every leaf
            // contributed exactly once.
            assert_eq!(got, Some(0b1010_1010_1010));
        } else {
            assert_eq!(got, None, "rank {me} must not hold a result");
        }
    }
}

#[test]
fn tree_merge_order_is_deterministic_for_noncommutative_folds() {
    // Concatenating merge: the result depends on arrival order, which the
    // per-block FCFS drain makes deterministic in the quiet simulator.
    // Two identical runs must agree.
    let run = || {
        let (_, per_rank) = quiet().run_expect(9, |rank| {
            let comm = rank.comm_world();
            let me = rank.world_rank();
            let leaves: Vec<usize> = (0..9).collect();
            tree_reduce(
                rank,
                &comm,
                &leaves,
                3,
                &ChannelConfig::default(),
                Some(vec![me]),
                |_, acc, mut e| acc.append(&mut e),
            )
        });
        let out: Vec<Vec<usize>> = per_rank.into_iter().flatten().collect();
        assert_eq!(out.len(), 1);
        out[0].clone()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "tree merge order must be deterministic");
    let mut sorted = a.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..9).collect::<Vec<_>>(), "every leaf exactly once");
}

#[test]
fn merge_can_charge_modelled_compute() {
    // The merge closure receives the transport, so applications can bill
    // virtual seconds per merge; the root's clock must reflect them.
    let (_, per_rank) = quiet().run_expect(8, |rank| {
        let comm = rank.comm_world();
        let leaves: Vec<usize> = (0..8).collect();
        let got = tree_reduce(
            rank,
            &comm,
            &leaves,
            2,
            &ChannelConfig::default(),
            Some(1u64),
            |rank, acc, e| {
                rank.compute(1e-3);
                *acc += e;
            },
        );
        got.map(|_| Transport::now(rank).as_secs_f64())
    });
    // Root merges once per stage (fan-in 2, depth 3): at least 3 ms of
    // modelled merge time must have accrued on its critical path.
    assert_eq!(per_rank.iter().filter(|e| e.is_some()).count(), 1, "exactly one root");
    let elapsed = per_rank[0].expect("rank 0 is the root and reduces");
    assert!(elapsed >= 3e-3, "merge compute not billed: {elapsed}");
}

#[test]
fn plan_message_count_matches_observed_stream_traffic() {
    // data_messages() is the analytic count bench gates rely on: check it
    // against an actual run by counting merges at receivers (every data
    // message is either merged into an accumulator or seeds an empty
    // one; seeds only happen at non-leaf ranks, which don't exist here —
    // all receivers enter with their own partial).
    let (_, per_rank) = quiet().run_expect(13, |rank| {
        let comm = rank.comm_world();
        let me = rank.world_rank();
        let leaves: Vec<usize> = (0..13).collect();
        let mut merges = 0u64;
        tree_reduce(
            rank,
            &comm,
            &leaves,
            4,
            &ChannelConfig::default(),
            Some(me as u64),
            |_, acc, e| {
                merges += 1;
                *acc += e;
            },
        );
        merges
    });
    let plan = plan_tree(&(0..13).collect::<Vec<_>>(), 4);
    assert_eq!(per_rank.iter().sum::<u64>(), plan.data_messages());
    assert_eq!(plan.data_messages(), 12);
}
