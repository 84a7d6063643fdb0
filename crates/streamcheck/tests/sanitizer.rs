//! Dynamic-pass coverage: the happens-before sanitizer (always compiled,
//! opted in per run via `World::with_check()`) catches a constructed
//! wildcard race, stays silent when the candidates are causally ordered,
//! reports orphaned messages at finalize, reports nothing on a clean stream
//! pipeline, and annotates credit-exhaustion deadlock reports with its
//! credit-state table. Off means off (a run without `with_check` reports
//! nothing), and on only observes (the checked run's events, messages and
//! end time equal the unchecked run's).

use mpisim::{MachineConfig, Rank, SanReport, Src, Tag, World};
use mpistream::{ChannelConfig, GroupSpec, Role, Stream, StreamChannel};

const TAG: Tag = Tag::user(7);
const BATON: Tag = Tag::user(8);

/// Ranks 1 and 2 send to rank 0 concurrently (no communication between
/// them); rank 0 waits until both are in its mailbox, then receives with
/// `Src::Any`. The two candidates are causally unordered: whichever the
/// wildcard picks, the outcome depends on timing — the race SC101 exists
/// precisely because a rerun with different noise could deliver the other.
/// The same program run without `with_check` reports nothing.
#[test]
fn wildcard_race_is_detected() {
    fn racy(rank: &mut Rank) {
        match rank.world_rank() {
            0 => {
                rank.compute(1.0); // let both rivals land in the mailbox
                let _: (u32, _) = rank.recv(Src::Any, TAG);
                let _: (u32, _) = rank.recv(Src::Any, TAG);
            }
            me => rank.send(0, TAG, 64, me as u32),
        }
    }
    let (unchecked, _) = World::new(MachineConfig::default()).with_seed(3).run_expect(3, racy);
    assert!(unchecked.san_reports.is_empty(), "unchecked: {:?}", unchecked.san_reports);

    let world = World::new(MachineConfig::default()).with_seed(3).with_check();
    let (outcome, _) = world.run_expect(3, racy);
    let races: Vec<&SanReport> = outcome
        .san_reports
        .iter()
        .filter(|r| matches!(r, SanReport::WildcardRace { .. }))
        .collect();
    assert_eq!(races.len(), 1, "expected exactly one race: {:?}", outcome.san_reports);
    if let SanReport::WildcardRace { receiver, chosen_src, rival_src, .. } = races[0] {
        assert_eq!(*receiver, 0);
        let mut pair = [*chosen_src, *rival_src];
        pair.sort_unstable();
        assert_eq!(pair, [1, 2]);
    }
    assert!(races[0].to_json().contains("\"code\":\"SC101\""));
}

/// Same shape, but rank 2 only sends after hearing from rank 1, so the two
/// candidates are causally ordered (rank 1's send happens-before rank 2's).
/// Both sit in rank 0's mailbox when the wildcard matches — and that is
/// fine: vector clocks prove the order, so no race is reported.
#[test]
fn causally_ordered_candidates_are_not_a_race() {
    let world = World::new(MachineConfig::default()).with_seed(3).with_check();
    let (outcome, _) = world.run_expect(3, |rank| match rank.world_rank() {
        0 => {
            rank.compute(1.0);
            let _: (u32, _) = rank.recv(Src::Any, TAG);
            let _: (u32, _) = rank.recv(Src::Any, TAG);
        }
        1 => {
            rank.send(0, TAG, 64, 1u32);
            rank.send(2, BATON, 8, 0u8); // hand the baton to rank 2
        }
        _ => {
            let _: (u8, _) = rank.recv(Src::Rank(1), BATON);
            rank.send(0, TAG, 64, 2u32);
        }
    });
    assert!(outcome.san_reports.is_empty(), "ordered sends misreported: {:?}", outcome.san_reports);
}

/// A message nobody ever receives is sitting in the mailbox at finalize —
/// SC102, the decoupled equivalent of an unmatched isend.
#[test]
fn orphan_message_is_reported_at_finalize() {
    let world = World::new(MachineConfig::default()).with_seed(3).with_check();
    let (outcome, _) = world.run_expect(2, |rank| {
        if rank.world_rank() == 1 {
            rank.send(0, TAG, 128, 42u64);
        }
    });
    assert_eq!(outcome.san_reports.len(), 1, "{:?}", outcome.san_reports);
    match &outcome.san_reports[0] {
        SanReport::Orphan { dst, src, .. } => {
            assert_eq!((*dst, *src), (0, 1));
        }
        other => panic!("expected an orphan report, got {other:?}"),
    }
}

/// A healthy credit-windowed stream pipeline produces zero sanitizer
/// reports: internal wildcard receives, credit traffic and termination are
/// all recognised as protocol, not defects. The checked run and the
/// unchecked run of the same pipeline are the same simulation.
#[test]
fn clean_stream_pipeline_has_zero_reports() {
    fn pipeline(rank: &mut Rank) {
        let comm = rank.comm_world();
        let spec = GroupSpec { every: 3 };
        let role = spec.role_of(rank.world_rank());
        let ch = StreamChannel::create(
            rank,
            &comm,
            role,
            ChannelConfig { credits: Some(8), aggregation: 2, ..ChannelConfig::default() },
        );
        let mut stream: Stream<u64> = Stream::attach(ch);
        match role {
            Role::Producer => {
                for i in 0..40 {
                    stream.isend(rank, i);
                }
                stream.terminate(rank);
            }
            Role::Consumer => {
                stream.operate(rank, |_, _| {});
            }
            Role::Bystander => unreachable!(),
        }
    }
    let world = World::new(MachineConfig::default()).with_seed(9);
    let (unchecked, _) = world.run_expect(6, pipeline);
    let (checked, _) = world.with_check().run_expect(6, pipeline);
    for outcome in [&unchecked, &checked] {
        assert!(
            outcome.san_reports.is_empty(),
            "clean pipeline misreported: {:?}",
            outcome.san_reports
        );
    }
    assert_eq!(checked.sim.end_time, unchecked.sim.end_time);
    assert_eq!(checked.sim.events, unchecked.sim.events);
    assert_eq!(checked.msgs_sent, unchecked.msgs_sent);
    assert_eq!(checked.bytes_sent, unchecked.bytes_sent);
    assert_eq!(checked.per_rank_msgs, unchecked.per_rank_msgs);
}

/// A producer that exhausts its credit window against a consumer that never
/// drains deadlocks; the desim deadlock report must carry the sanitizer's
/// credit-state table so the hang is diagnosable from the error alone.
#[test]
fn credit_deadlock_report_includes_credit_table() {
    let world = World::new(MachineConfig::default()).with_seed(5).with_check();
    let err = world
        .run(2, |rank| {
            let comm = rank.comm_world();
            let spec = GroupSpec { every: 2 };
            let role = spec.role_of(rank.world_rank());
            let ch = StreamChannel::create(
                rank,
                &comm,
                role,
                ChannelConfig { credits: Some(4), ..ChannelConfig::default() },
            );
            let mut stream: Stream<u32> = Stream::attach(ch);
            match role {
                Role::Producer => {
                    for i in 0..8 {
                        stream.isend(rank, i); // blocks at the 5th element
                    }
                    stream.terminate(rank);
                }
                Role::Consumer => {
                    // Never drains the stream: waits on a tag nobody sends.
                    let _: (u8, _) = rank.recv(Src::Rank(0), Tag::user(999));
                }
                Role::Bystander => unreachable!(),
            }
        })
        .expect_err("this pipeline must deadlock");
    let report = err.to_string();
    assert!(report.contains("deadlock"), "unexpected error: {report}");
    assert!(
        report.contains("streamcheck sanitizer credit state"),
        "credit table missing from deadlock report:\n{report}"
    );
    assert!(report.contains("window full"), "window-full marker missing:\n{report}");
    // Satellite: the report also names each blocked process's last span.
    assert!(report.contains("last span"), "span annotation missing:\n{report}");
}
