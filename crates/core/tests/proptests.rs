//! Property-based tests of the stream library: conservation, termination
//! and routing invariants under randomized configurations.

use std::sync::Arc;

use mpisim::{FaultPlan, MachineConfig, SimDuration, World};
use mpistream::{ChannelConfig, GroupSpec, Role, RoutePolicy, Stream, StreamChannel, StreamStats};
use parking_lot::Mutex;
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
        let counts = Arc::new(per_producer);
        let received: Arc<Mutex<Vec<(usize, u32)>>> = Arc::new(Mutex::new(Vec::new()));
        let sent_total = Arc::new(Mutex::new(0u64));

        let (rcv, snt, cnt) = (received.clone(), sent_total.clone(), counts.clone());
        let world = World::new(MachineConfig::default()).with_seed(42);
        world.run_expect(nprocs, move |rank| {
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
                    *snt.lock() += n as u64;
                }
                Role::Consumer => {
                    stream.operate(rank, |_, e| rcv.lock().push(e));
                }
                Role::Bystander => unreachable!(),
            }
        });

        let got = received.lock();
        prop_assert_eq!(got.len() as u64, *sent_total.lock());
        // No duplicates.
        let mut dedup: Vec<(usize, u32)> = got.clone();
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
        let owner: Arc<Mutex<std::collections::BTreeMap<u64, usize>>> =
            Arc::new(Mutex::new(std::collections::BTreeMap::new()));
        let (own, ks) = (owner.clone(), keys.clone());
        let world = World::new(MachineConfig::default()).with_seed(7);
        world.run_expect(nprocs, move |rank| {
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
                }
                Role::Consumer => {
                    let me = rank.world_rank();
                    stream.operate(rank, |_, k| {
                        let mut map = own.lock();
                        if let Some(prev) = map.insert(k, me) {
                            assert_eq!(prev, me, "key {k} split across consumers");
                        }
                    });
                }
                Role::Bystander => unreachable!(),
            }
        });
        // Every key was delivered somewhere.
        let owner = owner.lock();
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
            let stats: Arc<Mutex<Vec<(usize, StreamStats)>>> =
                Arc::new(Mutex::new(Vec::new()));
            let st = stats.clone();
            let mut world = World::new(MachineConfig::default()).with_seed(99);
            if let Some(p) = plan {
                world = world.with_fault_plan(p);
            }
            world.run_expect(nprocs, move |rank| {
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
                st.lock().push((rank.world_rank(), stream.stats()));
            });
            let mut v = stats.lock().clone();
            v.sort_unstable_by_key(|&(r, _)| r);
            v
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
        let seen: Arc<Mutex<Vec<SplitObs>>> = Arc::new(Mutex::new(Vec::new()));
        let s2 = seen.clone();
        let world = World::new(MachineConfig::ideal());
        world.run_expect(nprocs, move |rank| {
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
            s2.lock().push((
                me,
                role == Role::Consumer,
                producers.size(),
                consumers.size(),
            ));
        });
        let seen = seen.lock();
        let n_consumers = seen.iter().filter(|(_, c, _, _)| *c).count();
        prop_assert_eq!(n_consumers, blocks, "one consumer per block of `every`");
        for &(_, _, np, nc) in seen.iter() {
            prop_assert_eq!(np + nc, nprocs);
            prop_assert_eq!(nc, blocks);
        }
    }
}
