//! Static-pass coverage: every lint fires on its target defect and stays
//! silent on valid topologies; a battery of seeded mutations of a known-good
//! topology is each flagged; and (property) randomly-shaped pipelines the
//! checker certifies deadlock-free do complete in real simulation.

use mpisim::{MachineConfig, SimDuration, World};
use mpistream::{ChannelConfig, GroupSpec, Role, RoutePolicy, Stream, StreamChannel};
use proptest::prelude::*;
use streamcheck::{check, ChannelDecl, Drain, GroupDecl, Report, Routing, Topology};

fn has(report: &Report, code: &str, severity: streamcheck::Severity) -> bool {
    report.findings.iter().any(|f| f.code == code && f.severity == severity)
}

fn errors_with(report: &Report, code: &str) -> usize {
    report.errors().filter(|f| f.code == code).count()
}

/// A valid two-group, one-channel pipeline (the Fig. 1 shape): ranks 0..6
/// compute, ranks 6..8 analyze, one credit-bounded channel between them.
fn fig1() -> Topology {
    Topology::new(8)
        .group(GroupDecl::new("compute", (0..6).collect()))
        .group(GroupDecl::new("analysis", (6..8).collect()))
        .channel(ChannelDecl::new(
            "results",
            (0..6).collect(),
            (6..8).collect(),
            ChannelConfig { credits: Some(32), ..ChannelConfig::default() },
        ))
}

#[test]
fn valid_pipeline_is_clean_and_certified() {
    let report = check(&fig1());
    assert!(report.is_clean(), "unexpected findings:\n{}", report.to_text());
    assert!(report.certified_deadlock_free);
    assert!(report.to_text().contains("certified deadlock-free"));
    assert!(report.to_json().contains("\"certified_deadlock_free\":true"));
}

// ---- SC001: group partition ----

#[test]
fn sc001_overlapping_groups() {
    let mut topo = fig1();
    topo.groups[1].ranks.push(5); // rank 5 in both groups
    let report = check(&topo);
    assert_eq!(errors_with(&report, "SC001"), 1, "{}", report.to_text());
    assert!(!report.certified_deadlock_free);
}

#[test]
fn sc001_non_covering_groups() {
    let mut topo = fig1();
    topo.groups[0].ranks.retain(|&r| r != 3); // rank 3 ownerless
    let report = check(&topo);
    assert_eq!(errors_with(&report, "SC001"), 1, "{}", report.to_text());
}

#[test]
fn sc001_empty_group_and_out_of_range() {
    let topo = Topology::new(2)
        .group(GroupDecl::new("a", vec![0, 1]))
        .group(GroupDecl::new("b", vec![]))
        .group(GroupDecl::new("c", vec![7]));
    let report = check(&topo);
    assert!(errors_with(&report, "SC001") >= 2, "{}", report.to_text());
}

#[test]
fn channel_only_topology_skips_partition_lints() {
    let mut topo = fig1();
    topo.groups.clear();
    assert!(check(&topo).is_clean());
}

// ---- SC002: dataflow cycles ----

/// Request/reply between two groups where both directions are
/// credit-bounded: the windows can fill all the way around the loop.
#[test]
fn sc002_bounded_cycle_is_error() {
    let bounded = ChannelConfig { credits: Some(8), ..ChannelConfig::default() };
    let topo = Topology::new(4)
        .group(GroupDecl::new("g0", vec![0, 1]))
        .group(GroupDecl::new("g1", vec![2, 3]))
        .channel(ChannelDecl::new("fwd", vec![0, 1], vec![2, 3], bounded.clone()))
        .channel(ChannelDecl::new("rev", vec![2, 3], vec![0, 1], bounded));
    let report = check(&topo);
    assert_eq!(errors_with(&report, "SC002"), 1, "{}", report.to_text());
    assert!(!report.certified_deadlock_free);
}

/// The same loop with the reverse direction unbounded (the cg/pic shape):
/// back-pressure cannot propagate around, so it is an info, not an error.
#[test]
fn sc002_mixed_cycle_is_info_only() {
    let bounded = ChannelConfig { credits: Some(8), ..ChannelConfig::default() };
    let unbounded = ChannelConfig { credits: None, ..ChannelConfig::default() };
    let topo = Topology::new(4)
        .group(GroupDecl::new("g0", vec![0, 1]))
        .group(GroupDecl::new("g1", vec![2, 3]))
        .channel(ChannelDecl::new("fwd", vec![0, 1], vec![2, 3], bounded))
        .channel(ChannelDecl::new("rev", vec![2, 3], vec![0, 1], unbounded));
    let report = check(&topo);
    assert_eq!(errors_with(&report, "SC002"), 0, "{}", report.to_text());
    assert!(has(&report, "SC002", streamcheck::Severity::Info));
    // Cyclic: clean but not *certified*.
    assert!(report.is_clean());
    assert!(!report.certified_deadlock_free);
}

#[test]
fn sc002_self_loop_is_detected() {
    let bounded = ChannelConfig { credits: Some(4), ..ChannelConfig::default() };
    let topo = Topology::new(2).channel(
        ChannelDecl::new("loop", vec![0], vec![0, 1], bounded).keyed(vec![Some(0), Some(1)]),
    );
    let report = check(&topo);
    assert_eq!(errors_with(&report, "SC002"), 1, "{}", report.to_text());
}

// ---- SC003: termination reachability ----

#[test]
fn sc003_dropped_term_blocking_drain_is_error() {
    let mut topo = fig1();
    let ch = topo.channels.pop().unwrap();
    let report = check(&topo.channel(ch.drop_term(2)));
    assert_eq!(errors_with(&report, "SC003"), 1, "{}", report.to_text());
}

#[test]
fn sc003_dropped_term_fault_tolerant_drain_is_warning() {
    let mut topo = fig1();
    let mut ch = topo.channels.pop().unwrap();
    ch.config.failure_timeout = Some(SimDuration::from_millis(10));
    let report = check(&topo.channel(ch.drain(Drain::OperateOutcome).drop_term(2)));
    assert_eq!(errors_with(&report, "SC003"), 0, "{}", report.to_text());
    assert!(has(&report, "SC003", streamcheck::Severity::Warning));
}

#[test]
fn sc003_outcome_drain_without_timeout_still_hangs() {
    let mut topo = fig1();
    let ch = topo.channels.pop().unwrap();
    let report = check(&topo.channel(ch.drain(Drain::OperateOutcome).drop_term(2)));
    assert_eq!(errors_with(&report, "SC003"), 1, "{}", report.to_text());
}

#[test]
fn sc003_pinned_routing_with_timeout_notes_loss_accounting() {
    let mut topo = fig1();
    topo.channels[0].config.failure_timeout = Some(SimDuration::from_millis(10));
    let report = check(&topo);
    assert!(has(&report, "SC003", streamcheck::Severity::Info), "{}", report.to_text());
    assert!(report.is_clean());
}

// ---- SC004: routing totality ----

#[test]
fn sc004_keyed_hole_is_error() {
    let mut topo = fig1();
    let ch = topo.channels.pop().unwrap();
    let report = check(&topo.channel(ch.keyed(vec![Some(0), None])));
    assert_eq!(errors_with(&report, "SC004"), 1, "{}", report.to_text());
}

#[test]
fn sc004_out_of_range_bucket_is_error() {
    let mut topo = fig1();
    let ch = topo.channels.pop().unwrap();
    let report = check(&topo.channel(ch.keyed(vec![Some(0), Some(5)])));
    assert_eq!(errors_with(&report, "SC004"), 1, "{}", report.to_text());
}

#[test]
fn sc004_empty_consumers_is_error() {
    let topo = Topology::new(2).channel(ChannelDecl::new(
        "void",
        vec![0, 1],
        vec![],
        ChannelConfig::default(),
    ));
    assert_eq!(errors_with(&check(&topo), "SC004"), 1);
}

#[test]
fn sc004_untargeted_consumer_is_info() {
    let mut topo = fig1();
    let ch = topo.channels.pop().unwrap();
    // Both keys route to consumer 0; consumer 1 (rank 7) only drains Terms.
    let report = check(&topo.channel(ch.keyed(vec![Some(0), Some(0)])));
    assert!(report.is_clean(), "{}", report.to_text());
    assert!(has(&report, "SC004", streamcheck::Severity::Info));
}

// ---- SC005: configuration ----

#[test]
fn sc005_each_invalid_config_is_an_error() {
    let cases: Vec<ChannelConfig> = vec![
        ChannelConfig { element_bytes: 0, ..ChannelConfig::default() },
        ChannelConfig { aggregation: 0, ..ChannelConfig::default() },
        ChannelConfig { credits: Some(0), ..ChannelConfig::default() },
        ChannelConfig { credits: Some(4), aggregation: 8, ..ChannelConfig::default() },
        ChannelConfig { failure_timeout: Some(SimDuration::ZERO), ..ChannelConfig::default() },
    ];
    for config in cases {
        let topo =
            Topology::new(2).channel(ChannelDecl::new("bad", vec![0], vec![1], config.clone()));
        let report = check(&topo);
        assert_eq!(errors_with(&report, "SC005"), 1, "{config:?}\n{}", report.to_text());
    }
}

#[test]
fn sc005_patience_below_twice_timeout_is_error() {
    let t = SimDuration::from_millis(10);
    let mut topo = fig1();
    topo.channels[0].config.failure_timeout = Some(t);
    topo.channels[0].consumer_patience = Some(t); // < 2t
    let report = check(&topo);
    assert_eq!(errors_with(&report, "SC005"), 1, "{}", report.to_text());

    // Exactly 2t satisfies the hierarchy.
    let mut ok = fig1();
    ok.channels[0].config.failure_timeout = Some(t);
    let ok = Topology { channels: vec![ok.channels[0].clone().patience(t + t)], ..ok };
    assert!(check(&ok).is_clean());
}

// ---- SC006: batched credit flush vs the window's stall margin ----

#[test]
fn sc006_credit_batch_above_stall_margin_is_error() {
    // Window 8, aggregation 2 → stall margin 8 - 2 + 1 = 7; a batch of 8
    // can withhold the flush a stalled producer is waiting for.
    let bad = ChannelConfig {
        credits: Some(8),
        aggregation: 2,
        credit_batch: 8,
        ..ChannelConfig::default()
    };
    let topo = Topology::new(2).channel(ChannelDecl::new("bad", vec![0], vec![1], bad.clone()));
    let report = check(&topo);
    assert_eq!(errors_with(&report, "SC006"), 1, "{}", report.to_text());
    assert_eq!(errors_with(&report, "SC005"), 0, "promoted out of SC005:\n{}", report.to_text());

    // Exactly the margin is legal.
    let ok = ChannelConfig { credit_batch: 7, ..bad };
    let topo = Topology::new(2).channel(ChannelDecl::new("ok", vec![0], vec![1], ok));
    assert!(check(&topo).is_clean(), "{}", check(&topo).to_text());
}

/// `validate()` short-circuits on its first error; the SC006 relation is
/// computed from the fields directly, so both must be reported at once.
#[test]
fn sc006_fires_alongside_other_config_errors() {
    let config = ChannelConfig {
        credits: Some(8),
        credit_batch: 9,
        failure_timeout: Some(SimDuration::ZERO),
        replicas: 0,
        replication_patience: None,
        ..ChannelConfig::default()
    };
    let topo = Topology::new(2).channel(ChannelDecl::new("bad", vec![0], vec![1], config));
    let report = check(&topo);
    assert_eq!(errors_with(&report, "SC005"), 1, "{}", report.to_text());
    assert_eq!(errors_with(&report, "SC006"), 1, "{}", report.to_text());
}

// ---- SC007: replica-group sanity (crates/replica) ----

/// A correctly replicated pipeline: two producers, a three-member
/// replica group (primary + two standbys), timeouts on the t/2t/4t
/// hierarchy.
fn replicated() -> Topology {
    let cfg = ChannelConfig {
        credits: Some(32),
        failure_timeout: Some(SimDuration::from_millis(10)),
        replicas: 2,
        ..ChannelConfig::default()
    };
    Topology::new(5)
        .group(GroupDecl::new("producers", vec![0, 1]))
        .group(GroupDecl::new("replicas", vec![2, 3, 4]))
        .channel(ChannelDecl::new("rep", vec![0, 1], vec![2, 3, 4], cfg))
}

#[test]
fn sc007_replicated_base_is_clean_and_certified() {
    let report = check(&replicated());
    assert!(report.is_clean(), "{}", report.to_text());
    assert!(report.certified_deadlock_free);
}

#[test]
fn sc007_group_size_mismatch_is_error() {
    let mut topo = replicated();
    topo.channels[0].consumers.pop(); // 2 consumers for replicas = 2
    topo.groups[1].ranks.pop(); // keep the partition lints quiet
    let report = check(&topo);
    assert_eq!(errors_with(&report, "SC007"), 1, "{}", report.to_text());
}

#[test]
fn sc007_non_static_routing_is_error() {
    let mut topo = replicated();
    topo.channels[0].routing = Routing::RoundRobin;
    let report = check(&topo);
    assert_eq!(errors_with(&report, "SC007"), 1, "{}", report.to_text());
}

#[test]
fn sc007_missing_timeout_is_error() {
    let mut topo = replicated();
    topo.channels[0].config.failure_timeout = None;
    let report = check(&topo);
    assert_eq!(errors_with(&report, "SC007"), 1, "{}", report.to_text());
}

#[test]
fn sc007_patience_below_the_failover_hierarchy_is_error() {
    let mut topo = replicated();
    // Consumer patience is 2t = 20ms; a 15ms failover patience would
    // depose primaries that are merely waiting out the t/2t detectors.
    topo.channels[0].config.replication_patience = Some(SimDuration::from_millis(15));
    let report = check(&topo);
    assert_eq!(errors_with(&report, "SC007"), 1, "{}", report.to_text());

    // At exactly twice the consumer patience the hierarchy holds.
    let mut ok = replicated();
    ok.channels[0].config.replication_patience = Some(SimDuration::from_millis(40));
    assert!(check(&ok).is_clean(), "{}", check(&ok).to_text());
}

#[test]
fn sc007_pair_group_is_warning_only() {
    // Two members replicate state but cannot out-vote a death: flagged,
    // yet not an error — the replication itself still works.
    let mut topo = replicated();
    topo.world = 4; // keep the partition covering: rank 4 leaves the world
    topo.channels[0].config.replicas = 1;
    topo.channels[0].consumers.pop();
    topo.groups[1].ranks.pop();
    let report = check(&topo);
    assert!(report.is_clean(), "{}", report.to_text());
    assert!(has(&report, "SC007", streamcheck::Severity::Warning), "{}", report.to_text());
}

// ---- Mutation battery: one clean base, every seeded defect flagged ----

/// The Fig. 5 mapreduce shape: mappers -> reducers (keyed) -> master.
fn fig5() -> Topology {
    let cfg =
        ChannelConfig { element_bytes: 4 << 10, credits: Some(64), ..ChannelConfig::default() };
    Topology::new(8)
        .group(GroupDecl::new("mappers", (0..5).collect()))
        .group(GroupDecl::new("reducers", (5..7).collect()))
        .group(GroupDecl::new("master", vec![7]))
        .channel(
            ChannelDecl::new("words", (0..5).collect(), vec![5, 6], cfg.clone())
                .keyed(vec![Some(0), Some(1)]),
        )
        .channel(ChannelDecl::new("counts", vec![5, 6], vec![7], cfg))
}

#[test]
fn mutation_battery_every_defect_is_flagged() {
    assert!(check(&fig5()).is_clean(), "base must be clean:\n{}", check(&fig5()).to_text());

    type Mutation = (&'static str, Box<dyn Fn(Topology) -> Topology>);
    let mutations: Vec<Mutation> = vec![
        (
            "dropped Term",
            Box::new(|mut t: Topology| {
                let ch = t.channels.remove(0).drop_term(2);
                t.channels.insert(0, ch);
                t
            }),
        ),
        (
            "zero credit window",
            Box::new(|mut t| {
                t.channels[0].config.credits = Some(0);
                t
            }),
        ),
        (
            "credit window below one batch",
            Box::new(|mut t| {
                t.channels[0].config.aggregation = 16;
                t.channels[0].config.credits = Some(8);
                t
            }),
        ),
        (
            "keyed routing hole",
            Box::new(|mut t| {
                t.channels[0].routing = Routing::Keyed { buckets: vec![Some(0), None] };
                t
            }),
        ),
        (
            "keyed bucket out of range",
            Box::new(|mut t| {
                t.channels[0].routing = Routing::Keyed { buckets: vec![Some(0), Some(9)] };
                t
            }),
        ),
        (
            "zero stream granularity",
            Box::new(|mut t| {
                t.channels[1].config.element_bytes = 0;
                t
            }),
        ),
        (
            "zero aggregation",
            Box::new(|mut t| {
                t.channels[1].config.aggregation = 0;
                t
            }),
        ),
        (
            "zero failure timeout",
            Box::new(|mut t| {
                t.channels[0].config.failure_timeout = Some(SimDuration::ZERO);
                t
            }),
        ),
        (
            "overlapping groups",
            Box::new(|mut t| {
                t.groups[1].ranks.push(0);
                t
            }),
        ),
        (
            "non-covering groups",
            Box::new(|mut t| {
                t.groups[0].ranks.retain(|&r| r != 4);
                t
            }),
        ),
        (
            "empty consumer set",
            Box::new(|mut t| {
                t.channels[1].consumers.clear();
                t
            }),
        ),
        (
            "patience below 2x timeout",
            Box::new(|mut t| {
                let d = SimDuration::from_millis(10);
                t.channels[0].config.failure_timeout = Some(d);
                t.channels[0].consumer_patience = Some(d);
                t
            }),
        ),
        (
            "credit batch above the window's stall margin",
            Box::new(|mut t| {
                // fig5's window is 64 with aggregation 1: margin 64.
                t.channels[0].config.credit_batch = 65;
                t
            }),
        ),
        (
            "credit-bounded dataflow cycle",
            Box::new(|t| {
                let back = ChannelConfig { credits: Some(16), ..ChannelConfig::default() };
                t.channel(ChannelDecl::new("feedback", vec![7], vec![0, 1, 2, 3, 4], back))
            }),
        ),
        (
            "replica group understaffed",
            Box::new(|mut t| {
                // counts lists one consumer; a 3-member group needs 3.
                t.channels[1].config.replicas = 2;
                t
            }),
        ),
        (
            "replicated channel routed keyed",
            Box::new(|mut t| {
                // words is keyed across its 2 consumers; declaring them a
                // replica group makes that a split of replicated state.
                t.channels[0].config.replicas = 1;
                t
            }),
        ),
    ];

    assert!(mutations.len() >= 10);
    for (name, mutate) in mutations {
        let report = check(&mutate(fig5()));
        assert!(!report.is_clean(), "mutation `{name}` was not flagged:\n{}", report.to_text());
    }
}

// ---- Extraction from a live channel ----

#[test]
fn from_channel_extracts_the_real_configuration() {
    let world = World::new(MachineConfig::default()).with_seed(11);
    let (_, mut decls) = world.run_expect(4, |rank| {
        let comm = rank.comm_world();
        let spec = GroupSpec { every: 2 };
        let role = spec.role_of(rank.world_rank());
        let cfg = ChannelConfig {
            credits: Some(48),
            route: RoutePolicy::RoundRobin,
            ..ChannelConfig::default()
        };
        let ch = StreamChannel::create(rank, &comm, role, cfg);
        let decl = ChannelDecl::from_channel("live", &ch);
        let mut stream: Stream<u64> = Stream::attach(ch);
        match role {
            Role::Producer => {
                stream.isend(rank, 7);
                stream.terminate(rank);
            }
            Role::Consumer => {
                stream.operate(rank, |_, _| {});
            }
            Role::Bystander => unreachable!(),
        }
        decl
    });
    // Rank 0's view of the channel.
    let decl = decls.swap_remove(0);
    assert_eq!(decl.producers, vec![0, 2]);
    assert_eq!(decl.consumers, vec![1, 3]);
    assert_eq!(decl.config.credits, Some(48));
    assert_eq!(decl.routing, Routing::RoundRobin);
    let topo = Topology::new(4)
        .group(GroupDecl::new("producers", vec![0, 2]))
        .group(GroupDecl::new("consumers", vec![1, 3]))
        .channel(decl);
    let report = check(&topo);
    assert!(report.is_clean(), "{}", report.to_text());
    assert!(report.certified_deadlock_free);
}

// ---- Property: certified topologies complete in simulation ----

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// For random pipeline shapes and channel configurations that the
    /// static pass certifies deadlock-free, the real simulation terminates
    /// and conserves elements. (If the checker ever certified a deadlocking
    /// shape, `run_expect` would panic with the deadlock report.)
    #[test]
    fn certified_pipelines_complete(
        every in 2usize..5,
        blocks in 1usize..4,
        per_producer in 1usize..30,
        aggregation in 1usize..6,
        credits_raw in 0usize..4,
        round_robin in any::<bool>(),
    ) {
        let nprocs = every * blocks;
        let cfg = ChannelConfig {
            element_bytes: 1 << 10,
            aggregation,
            // Keep the window at least one batch so the base is valid.
            credits: if credits_raw == 0 { None } else { Some(credits_raw * aggregation.max(8)) },
            route: if round_robin { RoutePolicy::RoundRobin } else { RoutePolicy::Static },
            credit_batch: 1,
            failure_timeout: None,
            replicas: 0,
            replication_patience: None,
        };
        let spec = GroupSpec { every };
        let (producers, consumers) = spec.members(nprocs);
        let topo = Topology::new(nprocs)
            .group(GroupDecl::new("producers", producers.clone()))
            .group(GroupDecl::new("consumers", consumers.clone()))
            .channel(ChannelDecl::new("pipe", producers.clone(), consumers, cfg.clone()));
        let report = check(&topo);
        prop_assert!(report.is_clean(), "{}", report.to_text());
        prop_assert!(report.certified_deadlock_free);

        let world = World::new(MachineConfig::default()).with_seed(5);
        let (_, received) = world.run_expect(nprocs, move |rank| {
            let comm = rank.comm_world();
            let role = spec.role_of(rank.world_rank());
            let ch = StreamChannel::create(rank, &comm, role, cfg.clone());
            let mut stream: Stream<u32> = Stream::attach(ch);
            match role {
                Role::Producer => {
                    for i in 0..per_producer {
                        stream.isend(rank, i as u32);
                    }
                    stream.terminate(rank);
                    0
                }
                Role::Consumer => stream.operate(rank, |_, _| {}),
                Role::Bystander => unreachable!(),
            }
        });
        prop_assert_eq!(received.iter().sum::<u64>(), (producers.len() * per_producer) as u64);
    }
}
