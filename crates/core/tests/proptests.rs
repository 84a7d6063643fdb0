//! Property-based tests of the stream library: conservation, termination
//! and routing invariants under randomized configurations.

use std::sync::Arc;

use mpisim::{FaultPlan, MachineConfig, SimDuration, World};
use mpistream::{ChannelConfig, GroupSpec, Role, RoutePolicy, Stream, StreamChannel};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Every element injected by any producer is processed exactly once,
    /// across random world sizes, group fractions, aggregation factors,
    /// credit windows and routing policies.
    #[test]
    fn streams_conserve_elements(
        every in 2usize..6,
        blocks in 1usize..4,       // world = every * blocks
        per_producer in prop::collection::vec(0usize..40, 1..24),
        aggregation in 1usize..9,
        credits_raw in 0usize..4,  // 0 = unbounded, else 16*credits
        round_robin in any::<bool>(),
    ) {
        let nprocs = every * blocks;
        let credits = if credits_raw == 0 { None } else { Some(credits_raw * 16) };
        let route = if round_robin { RoutePolicy::RoundRobin } else { RoutePolicy::Static };
        // Element counts per producer (cycled if fewer entries given).
        let cnt = per_producer;
        let world = World::new(MachineConfig::default()).with_seed(42);
        // Each rank returns (elements sent, elements received).
        let (_, per_rank) = world.run_expect(nprocs, move |rank| {
            let comm = rank.comm_world();
            let spec = GroupSpec { every };
            let role = spec.role_of(rank.world_rank());
            let ch = StreamChannel::create(
                rank,
                &comm,
                role,
                ChannelConfig {
                    element_bytes: 1 << 10,
                    aggregation,
                    credits,
                    route,
                    credit_batch: 1,
                    failure_timeout: None,
                    replicas: 0,
                    replication_patience: None,
                },
            );
            let mut stream: Stream<(usize, u32)> = Stream::attach(ch);
            match role {
                Role::Producer => {
                    let me = rank.world_rank();
                    let n = cnt[me % cnt.len()];
                    for i in 0..n {
                        stream.isend(rank, (me, i as u32));
                    }
                    stream.terminate(rank);
                    (n as u64, Vec::new())
                }
                Role::Consumer => {
                    let mut got = Vec::new();
                    stream.operate(rank, |_, e| got.push(e));
                    (0, got)
                }
                Role::Bystander => unreachable!(),
            }
        });

        let sent_total: u64 = per_rank.iter().map(|(n, _)| n).sum();
        let mut dedup: Vec<(usize, u32)> =
            per_rank.into_iter().flat_map(|(_, got)| got).collect();
        prop_assert_eq!(dedup.len() as u64, sent_total);
        // No duplicates.
        dedup.sort_unstable();
        let before = dedup.len();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), before, "duplicate delivery detected");
    }

    /// Keyed routing sends equal keys to the same consumer regardless of
    /// how producers interleave, for any group shape.
    #[test]
    fn keyed_routing_is_stable(
        every in 2usize..5,
        blocks in 2usize..4,
        keys in prop::collection::vec(any::<u64>(), 1..50),
    ) {
        let nprocs = every * blocks;
        let keys = Arc::new(keys);
        let ks = keys.clone();
        let world = World::new(MachineConfig::default()).with_seed(7);
        let (_, per_rank) = world.run_expect(nprocs, move |rank| {
            let comm = rank.comm_world();
            let spec = GroupSpec { every };
            let role = spec.role_of(rank.world_rank());
            let ch = StreamChannel::create(rank, &comm, role, ChannelConfig::default());
            let mut stream: Stream<u64> = Stream::attach(ch);
            match role {
                Role::Producer => {
                    for &k in ks.iter() {
                        stream.isend_keyed(rank, k, k);
                    }
                    stream.terminate(rank);
                    Vec::new()
                }
                Role::Consumer => {
                    let mut got = Vec::new();
                    stream.operate(rank, |_, k| got.push(k));
                    got
                }
                Role::Bystander => unreachable!(),
            }
        });
        let mut owner = std::collections::BTreeMap::new();
        for (me, got) in per_rank.into_iter().enumerate() {
            for k in got {
                if let Some(prev) = owner.insert(k, me) {
                    prop_assert_eq!(prev, me, "key {} split across consumers", k);
                }
            }
        }
        // Every key was delivered somewhere.
        for k in keys.iter() {
            prop_assert!(owner.contains_key(k));
        }
    }

    /// An *empty* fault plan is inert: attaching one (whatever its seed)
    /// and arming a failure timeout must leave every endpoint's
    /// `StreamStats` byte-identical to a run without the fault layer, over
    /// random stream shapes. The fault machinery may only change behaviour
    /// when a fault actually fires.
    #[test]
    fn fault_free_plan_leaves_stream_stats_identical(
        every in 2usize..6,
        blocks in 1usize..4,
        per_producer in 0usize..60,
        aggregation in 1usize..9,
        plan_seed in any::<u64>(),
        with_timeout in any::<bool>(),
    ) {
        let nprocs = every * blocks;
        let run = |plan: Option<FaultPlan>, timeout: Option<SimDuration>| {
            let mut world = World::new(MachineConfig::default()).with_seed(99);
            if let Some(p) = plan {
                world = world.with_fault_plan(p);
            }
            let (_, stats) = world.run_expect(nprocs, move |rank| {
                let comm = rank.comm_world();
                let spec = GroupSpec { every };
                let role = spec.role_of(rank.world_rank());
                let ch = StreamChannel::create(
                    rank,
                    &comm,
                    role,
                    ChannelConfig {
                        element_bytes: 1 << 10,
                        aggregation,
                        credits: Some(64),
                        route: RoutePolicy::Static,
                        credit_batch: 1,
                        failure_timeout: timeout,
                        replicas: 0,
                        replication_patience: None,
                    },
                );
                let mut stream: Stream<u64> = Stream::attach(ch);
                match role {
                    Role::Producer => {
                        for i in 0..per_producer {
                            rank.compute(1e-6);
                            stream.isend(rank, i as u64);
                        }
                        stream.terminate(rank);
                    }
                    Role::Consumer => {
                        stream.operate(rank, |_, _| {});
                    }
                    Role::Bystander => unreachable!(),
                }
                stream.stats()
            });
            stats
        };
        let timeout = if with_timeout { Some(SimDuration::from_secs(1)) } else { None };
        let bare = run(None, None);
        let planned = run(Some(FaultPlan::new(plan_seed)), timeout);
        prop_assert_eq!(bare, planned, "empty FaultPlan (seed {}) perturbed stats", plan_seed);
    }

    /// The group split is a partition consistent with `role_of`, for any
    /// spec and world that fits it.
    #[test]
    fn group_split_is_consistent(every in 2usize..9, blocks in 1usize..5) {
        let nprocs = every * blocks;
        // (world rank, is-producer, producer-group size, consumer-group size).
        type SplitObs = (usize, bool, usize, usize);
        let world = World::new(MachineConfig::ideal());
        let (_, seen) = world.run_expect(nprocs, move |rank| {
            let comm = rank.comm_world();
            let spec = GroupSpec { every };
            let (producers, consumers, role) = spec.split(rank, &comm);
            let me = rank.world_rank();
            assert_eq!(role, spec.role_of(me));
            match role {
                Role::Producer => assert!(producers.contains(me)),
                Role::Consumer => assert!(consumers.contains(me)),
                Role::Bystander => unreachable!(),
            }
            let obs: SplitObs = (me, role == Role::Consumer, producers.size(), consumers.size());
            obs
        });
        let n_consumers = seen.iter().filter(|(_, c, _, _)| *c).count();
        prop_assert_eq!(n_consumers, blocks, "one consumer per block of `every`");
        for &(_, _, np, nc) in seen.iter() {
            prop_assert_eq!(np + nc, nprocs);
            prop_assert_eq!(nc, blocks);
        }
    }
}
