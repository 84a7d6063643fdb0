//! The consumer endpoint's per-producer state (credit ledger, element
//! cursors, `Term` claims, quarantine) seen only through its public
//! surface, on a channel whose producers sit on sparse world ranks
//! ({3, 17, 40} of 64) so that "world rank" and "position in the channel"
//! cannot be confused. The checkpoint bytes were printed by the commit
//! *before* the state moved from four hash maps to one slot per producer,
//! so the goldens check "same bytes" instead of asserting it.

use desim::SimDuration;
use mpisim::{MachineConfig, NoiseModel, World};
use mpistream::{
    ChannelConfig, ConsumerCheckpoint, Role, StepEvent, Stream, StreamChannel, StreamMsg,
    Transport, Wait, Wire,
};

const RANKS: usize = 64;
const PRODUCERS: [usize; 3] = [3, 17, 40];
const CONSUMER: usize = 9;
/// User tag of the consumer's "carry on" message to a waiting producer.
const GO: mpisim::Tag = mpisim::Tag::user(7);

fn quiet() -> World {
    World::new(MachineConfig { noise: NoiseModel::none(), ..MachineConfig::default() })
}

fn role_of(w: usize) -> Role {
    if PRODUCERS.contains(&w) {
        Role::Producer
    } else if w == CONSUMER {
        Role::Consumer
    } else {
        Role::Bystander
    }
}

fn config() -> ChannelConfig {
    ChannelConfig {
        element_bytes: 8,
        credits: Some(16),
        credit_batch: 4,
        ..ChannelConfig::default()
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// One blocking step with a deadline far enough out never to fire.
fn step(
    stream: &mut Stream<u32>,
    rank: &mut mpisim::Rank,
    op: impl FnMut(&mut mpisim::Rank, u32),
) -> mpistream::StepEvent {
    let deadline = Transport::now(rank) + SimDuration::from_secs(3600);
    stream
        .step(rank, Wait::Until(deadline), op)
        .expect("a message arrives long before the deadline")
}

/// Producer 3 sends five elements and terminates, 17 terminates having
/// sent nothing (`Term { sent: 0 }` is a claim, and no cursor), 40 stays
/// silent until told to go: the checkpoint taken then, and the one after
/// 40 has sent two elements and terminated, are byte-identical to what the
/// hash-map endpoint produced, and restoring either into a fresh endpoint
/// reproduces it.
#[test]
fn checkpoint_bytes_match_the_parent_commit_golden() {
    let (_, mut per_rank) = quiet().run_expect(RANKS, |rank| {
        let comm = rank.comm_world();
        let role = role_of(rank.world_rank());
        let ch = StreamChannel::create(rank, &comm, role, config());
        match role {
            Role::Producer => {
                let mut s: Stream<u32> = Stream::attach(ch);
                match rank.world_rank() {
                    3 => (0..5).for_each(|i| s.isend(rank, i)),
                    17 => {}
                    _ => {
                        let _ = rank.recv::<u8>(mpisim::Src::Rank(CONSUMER), GO);
                        (0..2).for_each(|i| s.isend(rank, 100 + i));
                    }
                }
                s.terminate(rank);
                Vec::new()
            }
            Role::Consumer => {
                let mut s: Stream<u32> = Stream::attach(ch.clone());
                let mut terms = 0;
                while terms < 2 {
                    terms += usize::from(step(&mut s, rank, |_, _| {}).term);
                }
                let mid = s.consumer_checkpoint();
                assert_eq!(mid.cursors, [(3, 5)]);
                assert_eq!(mid.claims, [(3, 5), (17, 0)]);
                assert_eq!((s.cursor_of(17), s.claim_of(17)), (0, Some(0)));
                assert_eq!((s.cursor_of(40), s.claim_of(40)), (0, None));
                assert_eq!((s.cursor_of(CONSUMER), s.claim_of(CONSUMER)), (0, None));
                assert!(!s.all_terminated());

                rank.send(40, GO, 8, 0u8);
                assert_eq!(s.operate(rank, |_, _| {}), 2);
                let end = s.consumer_checkpoint();
                assert_eq!(end.cursors, [(3, 5), (40, 2)]);
                assert_eq!(end.claims, [(3, 5), (17, 0), (40, 2)]);

                let frames = [&mid, &end].map(|ckpt| {
                    let mut fresh: Stream<u32> = Stream::attach(ch.clone());
                    fresh.restore_consumer(ckpt);
                    assert_eq!(&fresh.consumer_checkpoint(), ckpt);
                    assert_eq!(fresh.all_terminated(), ckpt.claims.len() == PRODUCERS.len());
                    assert_eq!(ConsumerCheckpoint::from_frame(&ckpt.to_frame()).unwrap(), *ckpt);
                    hex(&ckpt.to_frame())
                });
                s.free(rank);
                frames.to_vec()
            }
            Role::Bystander => Vec::new(),
        }
    });
    let frames = per_rank.swap_remove(CONSUMER);
    assert_eq!(
        frames[0],
        "010000000000000003000000000000000500000000000000\
         0200000000000000030000000000000005000000000000001100000000000000\
         0000000000000000\
         050000000000000005000000000000002800000000000000"
    );
    assert_eq!(
        frames[1],
        "0200000000000000030000000000000005000000000000002800000000000000\
         0200000000000000\
         0300000000000000030000000000000005000000000000001100000000000000\
         000000000000000028000000000000000200000000000000\
         070000000000000007000000000000003800000000000000"
    );
}

/// With credits held (the replicated consumer's commit-before-credit
/// gate), the parked ledger drains in ascending world-rank order with
/// zero entries skipped, whichever way it is drained: `release_credits`
/// sends one message per producer — the sends leave one rank back to
/// back, so they arrive in the order they were issued — and
/// `take_pending_credits` returns the pairs.
#[test]
fn held_credits_drain_in_ascending_rank_order_and_skip_zero_entries() {
    let (_, per_rank) = quiet().run_expect(RANKS, |rank| {
        let comm = rank.comm_world();
        let me = rank.world_rank();
        let role = role_of(me);
        let ch = StreamChannel::create(rank, &comm, role, config());
        match role {
            Role::Producer => {
                let credit_tag = ch.credit_tag();
                let mut s: Stream<u32> = Stream::attach(ch);
                // 40 first and most, 3 last and least: neither arrival
                // order nor amount is ascending in rank.
                let (delay, n) = match me {
                    3 => (3e-3, 1),
                    17 => (2e-3, 2),
                    _ => (1e-3, 3),
                };
                rank.compute_exact(delay);
                (0..n).for_each(|i| s.isend(rank, i));
                let (acked, _) =
                    Transport::recv::<u64>(rank, mpistream::Src::Rank(CONSUMER), credit_tag);
                let arrival = (Transport::now(rank).0, me, acked);
                let _ = rank.recv::<u8>(mpisim::Src::Rank(CONSUMER), GO);
                // 17 goes silent for the second round.
                if me != 17 {
                    s.isend(rank, 9);
                }
                let _ = rank.recv::<u8>(mpisim::Src::Rank(CONSUMER), GO);
                s.terminate(rank);
                Some(arrival)
            }
            Role::Consumer => {
                let mut s: Stream<u32> = Stream::attach(ch);
                s.hold_credits(true);
                for _ in 0..6 {
                    assert_eq!(step(&mut s, rank, |_, _| {}).elems, 1);
                }
                s.release_credits(rank);
                assert!(s.take_pending_credits().is_empty(), "release drained the ledger");
                for p in PRODUCERS {
                    rank.send(p, GO, 8, 0u8);
                }
                for _ in 0..2 {
                    step(&mut s, rank, |_, _| {});
                }
                assert_eq!(s.take_pending_credits(), [(3, 1), (40, 1)], "17 granted nothing");
                assert!(s.take_pending_credits().is_empty());
                for p in PRODUCERS {
                    rank.send(p, GO, 8, 0u8);
                }
                s.operate(rank, |_, _| {});
                None
            }
            Role::Bystander => None,
        }
    });
    let mut arrivals: Vec<(u64, usize, u64)> = per_rank.into_iter().flatten().collect();
    arrivals.sort_unstable();
    let in_time_order: Vec<(usize, u64)> = arrivals.iter().map(|&(_, p, n)| (p, n)).collect();
    assert_eq!(in_time_order, [(3, 1), (17, 2), (40, 3)]);
}

/// A quarantined producer's traffic — data, stale markers, even its
/// `Term` — is dropped until a `Mark` at or past the awaited value
/// arrives; other producers are untouched, and a quarantine on `u64::MAX`
/// never lifts.
#[test]
fn quarantine_drops_until_a_matching_mark() {
    quiet().run_expect(RANKS, |rank| {
        let comm = rank.comm_world();
        let me = rank.world_rank();
        let role = role_of(me);
        let ch = StreamChannel::create(rank, &comm, role, config());
        match role {
            Role::Producer => {
                let tag = ch.data_tag();
                let raw = |rank: &mut mpisim::Rank, msg: StreamMsg<u32>| {
                    Transport::send(rank, CONSUMER, tag, 8, msg);
                };
                let _ = rank.recv::<u8>(mpisim::Src::Rank(CONSUMER), GO);
                match me {
                    3 => {
                        raw(rank, StreamMsg::Data(vec![30]));
                        raw(rank, StreamMsg::Term { sent: 1 });
                    }
                    17 => {
                        raw(rank, StreamMsg::Data(vec![1])); // dropped
                        raw(rank, StreamMsg::Mark(4)); // stale: below the awaited 5
                        raw(rank, StreamMsg::Data(vec![2])); // dropped
                        raw(rank, StreamMsg::Mark(6)); // lifts
                        raw(rank, StreamMsg::Data(vec![3, 4]));
                        raw(rank, StreamMsg::Term { sent: 2 });
                    }
                    _ => {
                        raw(rank, StreamMsg::Mark(u64::MAX - 1)); // never enough
                        raw(rank, StreamMsg::Data(vec![40]));
                        raw(rank, StreamMsg::Term { sent: 1 });
                    }
                }
            }
            Role::Consumer => {
                let mut s: Stream<u32> = Stream::attach(ch);
                s.hold_credits(true);
                s.quarantine_until_mark(17, 5);
                s.quarantine_until_mark(40, u64::MAX);
                assert!(!s.is_quarantined(3) && s.is_quarantined(17) && s.is_quarantined(40));
                assert!(!s.is_quarantined(CONSUMER), "a rank outside the channel is never muted");
                for p in PRODUCERS {
                    rank.send(p, GO, 8, 0u8);
                }
                let mut folded = Vec::new();
                let mut terms = Vec::new();
                for _ in 0..11 {
                    let ev = step(&mut s, rank, |_, v| folded.push(v));
                    if ev.term {
                        terms.push(ev.src);
                    }
                }
                folded.sort_unstable();
                terms.sort_unstable();
                assert_eq!(folded, [3, 4, 30]);
                assert_eq!(terms, [3, 17], "a quarantined Term is neither counted nor reported");
                assert!(!s.is_quarantined(17) && s.is_quarantined(40));
                assert_eq!((s.cursor_of(17), s.claim_of(17)), (2, Some(2)));
                assert_eq!((s.cursor_of(40), s.claim_of(40)), (0, None));
                assert!(s.take_pending_credits().is_empty(), "a Term drops the parked credit");
                assert!(!s.all_terminated());
            }
            Role::Bystander => {}
        }
    });
}

/// One script — data, a silent gap, a quarantined stale batch, the `Mark`
/// that lifts the quarantine, data, a quarantined `Term`, real `Term`s —
/// drained one message at a time in the given [`Wait`] mode. Returns the
/// events, the folded elements and how many steps came back empty.
fn drive_script(
    wait: impl Fn(&mpisim::Rank) -> Wait + Send + Sync + 'static,
) -> (Vec<StepEvent>, Vec<u32>, usize) {
    let (_, per_rank) = quiet().run_expect(RANKS, move |rank| {
        let comm = rank.comm_world();
        let me = rank.world_rank();
        let role = role_of(me);
        let ch = StreamChannel::create(rank, &comm, role, config());
        match role {
            Role::Producer => {
                // (virtual millisecond, message): one message per
                // millisecond over all producers, nothing at 2 ms.
                let script: Vec<(u64, StreamMsg<u32>)> = match me {
                    3 => vec![(1, StreamMsg::Data(vec![1, 2])), (7, StreamMsg::Term { sent: 2 })],
                    17 => vec![
                        (3, StreamMsg::Data(vec![9])), // stale: dropped
                        (4, StreamMsg::Mark(5)),       // lifts
                        (5, StreamMsg::Data(vec![3])),
                        (8, StreamMsg::Term { sent: 1 }),
                    ],
                    _ => vec![(6, StreamMsg::Term { sent: 0 })], // muted forever
                };
                let mut at = 0;
                for (ms, msg) in script {
                    rank.compute_exact((ms - at) as f64 * 1e-3);
                    at = ms;
                    Transport::send(rank, CONSUMER, ch.data_tag(), 8, msg);
                }
                None
            }
            Role::Consumer => {
                let mut s: Stream<u32> = Stream::attach(ch);
                s.hold_credits(true);
                s.quarantine_until_mark(17, 5);
                s.quarantine_until_mark(40, u64::MAX);
                let (mut events, mut folded, mut empty) = (Vec::new(), Vec::new(), 0);
                while events.len() < 7 {
                    let wait = wait(rank);
                    match s.step(rank, wait, |_, v| folded.push(v)) {
                        Some(ev) => events.push(ev),
                        None => {
                            empty += 1;
                            match wait {
                                Wait::Block => panic!("a blocking step always consumes a message"),
                                Wait::Poll => Transport::wait_for_mail(rank),
                                Wait::Until(t) => assert_eq!(Transport::now(rank), t),
                            }
                        }
                    }
                }
                assert_eq!(
                    (s.claim_of(3), s.claim_of(17), s.claim_of(40)),
                    (Some(2), Some(1), None)
                );
                assert!(!s.all_terminated(), "the quarantined Term was not counted");
                Some((events, folded, empty))
            }
            Role::Bystander => None,
        }
    });
    per_rank.into_iter().flatten().next().expect("the consumer reports")
}

/// The consumer engine is one function: whichever way `step` waits, the
/// same script yields the same events — in particular `term: false` for
/// the quarantined `Term` — and the same folded elements. Only the empty
/// steps differ: none when blocking, one per silent stretch otherwise.
#[test]
fn step_reports_the_same_events_in_every_wait_mode() {
    let ev = |src, elems, term| StepEvent { src, elems, term };
    let expected = [
        ev(3, 2, false),
        ev(17, 0, false), // stale batch
        ev(17, 0, false), // Mark
        ev(17, 1, false),
        ev(40, 0, false), // quarantined Term
        ev(3, 0, true),
        ev(17, 0, true),
    ];
    let (events, folded, empty) = drive_script(|_| Wait::Block);
    assert_eq!((events.as_slice(), folded.as_slice(), empty), (&expected[..], &[1, 2, 3][..], 0));
    let (events, folded, empty) = drive_script(|_| Wait::Poll);
    assert_eq!((events.as_slice(), folded.as_slice()), (&expected[..], &[1, 2, 3][..]));
    assert_eq!(empty, 7, "every message is preceded by exactly one empty poll");
    let tick = SimDuration::from_micros(1500);
    let (events, folded, empty) =
        drive_script(move |rank| Wait::Until(Transport::now(rank) + tick));
    assert_eq!((events.as_slice(), folded.as_slice()), (&expected[..], &[1, 2, 3][..]));
    assert!(empty >= 1, "the 2 ms gap outlasts a 1.5 ms deadline");
}

/// Data on the channel's tag from a rank that is not one of its producers
/// is a protocol bug, named as such.
#[test]
#[should_panic(expected = "stream data from a channel producer")]
fn data_from_a_rank_outside_the_channel_panics() {
    quiet().run_expect(RANKS, |rank| {
        let comm = rank.comm_world();
        let me = rank.world_rank();
        let ch = StreamChannel::create(rank, &comm, role_of(me), config());
        if me == 5 {
            Transport::send(rank, CONSUMER, ch.data_tag(), 8, StreamMsg::Data(vec![1u32]));
        } else if me == CONSUMER {
            let mut s: Stream<u32> = Stream::attach(ch);
            s.operate_outcome(rank, |_, _| {});
        }
    });
}
