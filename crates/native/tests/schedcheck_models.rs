//! Model tests for the native backend's lock-free core, driven by the
//! `schedcheck` bounded model checker. Compiled (and meaningful) only
//! under `RUSTFLAGS='--cfg schedcheck'`, where the `native::sync` facade
//! routes every atomic, lock, park and raw-node hand-off through the
//! checker's shadow types:
//!
//! ```sh
//! RUSTFLAGS='--cfg schedcheck' CARGO_TARGET_DIR=target/schedcheck \
//!     cargo test -p native --test schedcheck_models
//! ```
//!
//! Each clean model asserts ≥ 1,000 distinct schedules explored at a
//! preemption bound ≥ 2 with zero SC201–SC203 violations; the seeded
//! regressions assert the checker catches real historical bugs in a
//! handful of schedules. A failure prints a replayable schedule trace
//! (`Checker::replay`).
#![cfg(schedcheck)]

use std::sync::Arc;

use mpistream::{Src, Tag, Transport};
use native::mailbox::{Env, Mailbox};
use native::sync::Instant;
use native::NativeWorld;
use schedcheck::{codes, Checker, Outcome};

fn env(src: usize, tag: Tag, v: u32) -> Env {
    Env { src, tag, bytes: 8, payload: Box::new(v) }
}

fn val(e: Env) -> u32 {
    *e.payload.downcast::<u32>().unwrap()
}

/// Preemption bound ≥ `min_preemptions` (≥ 2 everywhere; the env var
/// `SCHEDCHECK_PREEMPTIONS` may raise it further), schedule cap low
/// enough to keep CI time bounded. Models whose state space is too
/// small to clear the 1,000-schedule acceptance floor at bound 2 ask
/// for a deeper bound instead of padding themselves with noise ops.
fn checker_with(max_schedules: u64, min_preemptions: usize) -> Checker {
    let p = std::env::var("SCHEDCHECK_PREEMPTIONS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .map_or(min_preemptions, |p| p.max(min_preemptions));
    Checker::new().max_schedules(max_schedules).preemptions(p.max(2))
}

fn checker(max_schedules: u64) -> Checker {
    checker_with(max_schedules, 2)
}

fn assert_clean_and_explored(out: &Outcome) {
    if let Some(v) = &out.violation {
        panic!("model must be clean, got: {v}");
    }
    assert!(
        out.schedules >= 1_000,
        "acceptance floor: ≥ 1,000 distinct schedules (got {})",
        out.schedules
    );
}

// ---------------------------------------------------------------------
// 1. MPSC staging: concurrent pushes, reverse drain, per-source FIFO
// ---------------------------------------------------------------------

/// Two producers race their Treiber-stack pushes while the consumer
/// blocks in `take`. Under every schedule: all four envelopes arrive,
/// per-source order is FIFO (the CAS linearization order survives the
/// LIFO drain's reversal), and every staged node is reclaimed (the
/// checker's end-of-execution leak audit covers SC203 implicitly).
#[test]
fn mpsc_push_and_reverse_drain_is_clean() {
    let out = checker(4_000).model(|| {
        let mb = Arc::new(Mailbox::new());
        let t = Tag::user(1);
        let producers: Vec<_> = (0..2)
            .map(|src| {
                let mb = Arc::clone(&mb);
                schedcheck::thread::spawn(move || {
                    mb.push(env(src, t, (src * 10) as u32));
                    mb.push(env(src, t, (src * 10 + 1) as u32));
                })
            })
            .collect();
        let mut per_src = [Vec::new(), Vec::new()];
        for _ in 0..4 {
            let e = mb.take(Src::Any, t);
            per_src[e.src].push(val(e));
        }
        assert_eq!(per_src[0], [0, 1], "src 0 must stay FIFO");
        assert_eq!(per_src[1], [10, 11], "src 1 must stay FIFO");
        for p in producers {
            p.join().unwrap();
        }
    });
    assert_clean_and_explored(&out);
}

// ---------------------------------------------------------------------
// 2. Eventcount park vs concurrent push
// ---------------------------------------------------------------------

/// The park protocol's whole point: a push may land at *any* point
/// around the consumer's publish-parked / re-check / wait sequence, and
/// the consumer must never sleep through it. The checker proves there is
/// no schedule where `take` parks past the only push (that would be an
/// SC202 deadlock: the producer is finished, nobody will ever notify).
#[test]
fn eventcount_park_vs_concurrent_push_is_clean() {
    // Bound 3: with one wake per park most pushes are a CAS, an add and a
    // swap, and bound 2 exhausts this model at 919 schedules.
    let out = checker_with(4_000, 3).model(|| {
        let mb = Arc::new(Mailbox::new());
        let (ta, tb) = (Tag::user(1), Tag::user(2));
        let p1 = {
            let mb = Arc::clone(&mb);
            schedcheck::thread::spawn(move || mb.push(env(0, ta, 7)))
        };
        let p2 = {
            let mb = Arc::clone(&mb);
            schedcheck::thread::spawn(move || mb.push(env(1, tb, 9)))
        };
        // Directed blocking takes in a fixed order: each may have to
        // park while the other producer's envelope sits staged.
        assert_eq!(val(mb.take(Src::Any, ta)), 7);
        assert_eq!(val(mb.take(Src::Any, tb)), 9);
        p1.join().unwrap();
        p2.join().unwrap();
    });
    assert_clean_and_explored(&out);
}

// ---------------------------------------------------------------------
// 2b. One wake per park: the claim, when the claimed wake is for nothing
// ---------------------------------------------------------------------

/// `push` wakes a parked consumer once per park: the producer that swaps
/// `parked` back to false owes the notify, every other push into that
/// park returns after its CAS. The interleavings this adds are the ones
/// where the claimed wake is for an envelope the consumer does *not*
/// want: it wakes (or never slept), finds only `tag_a`, and parks again
/// while the `tag_b` push is somewhere between its CAS and its swap — or
/// has already read the flag another producer cleared. Whatever the
/// order, the consumer must end up with `tag_b`'s envelope; a schedule
/// where it sleeps through it is an SC202.
#[test]
fn wake_claimed_for_a_non_matching_envelope_is_clean() {
    let out = checker(4_000).model(|| {
        let mb = Arc::new(Mailbox::new());
        let (ta, tb) = (Tag::user(1), Tag::user(2));
        let p1 = {
            let mb = Arc::clone(&mb);
            schedcheck::thread::spawn(move || {
                mb.push(env(0, ta, 1));
                mb.push(env(0, ta, 2));
            })
        };
        let p2 = {
            let mb = Arc::clone(&mb);
            schedcheck::thread::spawn(move || mb.push(env(1, tb, 9)))
        };
        assert_eq!(val(mb.take(Src::Any, tb)), 9);
        p1.join().unwrap();
        p2.join().unwrap();
    });
    assert_clean_and_explored(&out);
}

/// The same race through the other park: a `wait_for_mail`-style round
/// (`try_take`, then `wait_change` on the snapshot the previous wait
/// returned) shares `parked` with `take`, with `version` in place of the
/// staging head as the re-checked condition.
#[test]
fn wake_claimed_for_a_non_matching_envelope_is_clean_through_wait_change() {
    let out = checker(4_000).model(|| {
        let mb = Arc::new(Mailbox::new());
        let (ta, tb) = (Tag::user(1), Tag::user(2));
        let p1 = {
            let mb = Arc::clone(&mb);
            schedcheck::thread::spawn(move || {
                mb.push(env(0, ta, 1));
                mb.push(env(0, ta, 2));
            })
        };
        let p2 = {
            let mb = Arc::clone(&mb);
            schedcheck::thread::spawn(move || mb.push(env(1, tb, 9)))
        };
        // A rank's snapshot starts at the mailbox's initial version.
        let mut seen = 0;
        let got = loop {
            match mb.try_take(Src::Any, tb) {
                Some(e) => break val(e),
                None => seen = mb.wait_change(seen),
            }
        };
        assert_eq!(got, 9);
        p1.join().unwrap();
        p2.join().unwrap();
    });
    assert_clean_and_explored(&out);
}

// ---------------------------------------------------------------------
// 3. take_deadline under timeouts and spurious wakes
// ---------------------------------------------------------------------

/// `wait_timeout` is modeled as an always-enabled timeout transition, so
/// the checker exercises every placement of a (possibly spurious) wake:
/// the deadline take must either return the racing push or time out —
/// never deadlock, never return the wrong envelope — and on an empty
/// mailbox it must *always* time out.
#[test]
fn take_deadline_under_spurious_wakes_is_clean() {
    let out = checker_with(6_000, 3).model(|| {
        let mb = Arc::new(Mailbox::new());
        let t = Tag::user(3);
        let p = {
            let mb = Arc::clone(&mb);
            schedcheck::thread::spawn(move || mb.push(env(0, t, 5)))
        };
        let deadline = Instant::now() + std::time::Duration::from_millis(10);
        match mb.take_deadline(Src::Rank(0), t, deadline) {
            Some(e) => assert_eq!(val(e), 5),
            // Timed out before the push landed; the staged node is
            // reclaimed by Mailbox::drop (the leak audit checks).
            None => assert!(Instant::now() >= deadline),
        }
        // An empty tag must always time out, under every schedule.
        let deadline = Instant::now() + std::time::Duration::from_millis(5);
        assert!(mb.take_deadline(Src::Any, Tag::user(9), deadline).is_none());
        p.join().unwrap();
    });
    assert_clean_and_explored(&out);
}

// ---------------------------------------------------------------------
// 4. Batched credit return
// ---------------------------------------------------------------------

/// The stream runtime's credit protocol in miniature: a producer sends
/// `window` data envelopes then blocks for a batched credit; the
/// consumer takes the batch and returns one credit carrying the whole
/// count. Two mailboxes, traffic in both directions, parks on both
/// sides — the shape that found PR 6's eventcount bugs.
#[test]
fn batched_credit_return_is_clean() {
    let out = checker_with(6_000, 3).model(|| {
        let data_mb = Arc::new(Mailbox::new());
        let credit_mb = Arc::new(Mailbox::new());
        let (data, credit) = (Tag::user(1), Tag::user(2));
        let consumer = {
            let (data_mb, credit_mb) = (Arc::clone(&data_mb), Arc::clone(&credit_mb));
            schedcheck::thread::spawn(move || {
                let mut batch = 0u32;
                for i in 0..2 {
                    let e = data_mb.take(Src::Rank(0), data);
                    assert_eq!(val(e), i, "data must stay FIFO");
                    batch += 1;
                }
                credit_mb.push(env(1, credit, batch));
            })
        };
        data_mb.push(env(0, data, 0));
        data_mb.push(env(0, data, 1));
        let got = credit_mb.take(Src::Rank(1), credit);
        assert_eq!(val(got), 2, "one credit envelope returns the whole batch");
        consumer.join().unwrap();
    });
    assert_clean_and_explored(&out);
}

// ---------------------------------------------------------------------
// 5. Replication: commit-before-credit-return
// ---------------------------------------------------------------------

/// `crates/replica`'s integration invariant in miniature: a credit is a
/// durability acknowledgement, so the producer may drop its replay
/// buffer on receiving one — the elements then exist *only* in the
/// replica snapshot. Modeled as a [`cell::RaceCell`]: the standby's
/// snapshot install is the write, the producer's post-credit read of
/// the surviving state is the read, and the only thing ordering them is
/// the protocol itself (Prepare → PrepareOk → credit, each a mailbox
/// hand-off). With the primary crediting strictly after the quorum ack,
/// every schedule is clean.
#[test]
fn commit_before_credit_return_is_clean() {
    let out = checker_with(6_000, 3).model(|| {
        let data_mb = Arc::new(Mailbox::new());
        let prepare_mb = Arc::new(Mailbox::new());
        let ok_mb = Arc::new(Mailbox::new());
        let credit_mb = Arc::new(Mailbox::new());
        let (data, prep, ok, credit) = (Tag::user(1), Tag::user(2), Tag::user(3), Tag::user(4));
        let durable = Arc::new(schedcheck::cell::RaceCell::new(0u32));

        let standby = {
            let (prepare_mb, ok_mb, durable) =
                (Arc::clone(&prepare_mb), Arc::clone(&ok_mb), Arc::clone(&durable));
            schedcheck::thread::spawn(move || {
                let batch = val(prepare_mb.take(Src::Rank(1), prep));
                durable.set(batch); // install the replicated snapshot
                ok_mb.push(env(2, ok, batch));
            })
        };
        let primary = {
            let (data_mb, prepare_mb, ok_mb, credit_mb) = (
                Arc::clone(&data_mb),
                Arc::clone(&prepare_mb),
                Arc::clone(&ok_mb),
                Arc::clone(&credit_mb),
            );
            schedcheck::thread::spawn(move || {
                let batch = val(data_mb.take(Src::Rank(0), data));
                prepare_mb.push(env(1, prep, batch));
                // Commit-before-credit-return: the quorum ack *must*
                // come back before the credit goes out.
                assert_eq!(val(ok_mb.take(Src::Rank(2), ok)), batch);
                credit_mb.push(env(1, credit, batch));
            })
        };
        // The producer: send a batch, wait for its credit, drop the
        // replay buffer — the data now lives only in the snapshot.
        data_mb.push(env(0, data, 2));
        assert_eq!(val(credit_mb.take(Src::Rank(1), credit)), 2);
        assert_eq!(durable.get(), 2, "the credited elements must already be durable");
        standby.join().unwrap();
        primary.join().unwrap();
    });
    assert_clean_and_explored(&out);
}

/// The invariant violated on purpose: the primary returns the credit
/// *before* waiting for the quorum ack (the exact reordering
/// `crates/replica`'s consumer loop forbids). Now nothing orders the
/// standby's snapshot install against the producer's post-credit read,
/// and the checker must find the SC201 race — the schedule where a
/// producer discards its replay buffer while the checkpoint that
/// covers it hasn't reached the standby.
#[test]
fn credit_before_quorum_ack_is_caught_as_a_race() {
    let model = || {
        let prepare_mb = Arc::new(Mailbox::new());
        let ok_mb = Arc::new(Mailbox::new());
        let credit_mb = Arc::new(Mailbox::new());
        let (prep, ok, credit) = (Tag::user(2), Tag::user(3), Tag::user(4));
        let durable = Arc::new(schedcheck::cell::RaceCell::new(0u32));

        let standby = {
            let (prepare_mb, ok_mb, durable) =
                (Arc::clone(&prepare_mb), Arc::clone(&ok_mb), Arc::clone(&durable));
            schedcheck::thread::spawn(move || {
                let batch = val(prepare_mb.take(Src::Rank(1), prep));
                durable.set(batch);
                ok_mb.push(env(2, ok, batch));
            })
        };
        let primary = {
            let (prepare_mb, ok_mb, credit_mb) =
                (Arc::clone(&prepare_mb), Arc::clone(&ok_mb), Arc::clone(&credit_mb));
            schedcheck::thread::spawn(move || {
                prepare_mb.push(env(1, prep, 2));
                // BUG: the credit outruns the quorum ack.
                credit_mb.push(env(1, credit, 2));
                let _ = ok_mb.take(Src::Rank(2), ok);
            })
        };
        assert_eq!(val(credit_mb.take(Src::Rank(1), credit)), 2);
        let _ = durable.get(); // races with the standby's install
        standby.join().unwrap();
        primary.join().unwrap();
    };
    let out = checker(6_000).model(model);
    let v = out.violation.expect("the early credit must surface as a data race");
    assert_eq!(v.code, codes::SC201, "wrong code: {v}");
    assert!(v.message.contains("RaceCell"), "should name the racing cell: {v}");
    let replayed = checker(6_000)
        .replay(&v.trace, model)
        .expect("the reported trace must replay to a violation");
    assert_eq!(replayed.code, v.code);
}

// ---------------------------------------------------------------------
// 6. Small binomial-tree collective, end to end
// ---------------------------------------------------------------------

/// A whole `NativeWorld` under the model: three ranks allreduce over the
/// binomial tree (flat threshold forced to 0), exercising scoped rank
/// threads, collective tagging, directed receives and the park protocol
/// together. The state space is huge; the bounded search explores a
/// capped sample and must find nothing.
#[test]
fn small_tree_collective_is_clean() {
    let out = checker(2_000).model(|| {
        NativeWorld::new(3).with_coll_flat_threshold(0).run(|rank| {
            let world = rank.world_group();
            let sum = rank.allreduce(&world, 8, rank.world_rank() as u64 + 1, |a, b| *a += b);
            assert_eq!(sum, 6);
        });
    });
    assert_clean_and_explored(&out);
}

// ---------------------------------------------------------------------
// Seeded regressions: the checker must catch real historical bugs
// ---------------------------------------------------------------------

/// PR 6's `mail_seen` bug, reintroduced verbatim: a polling round that
/// re-snapshots the version *after* its polls absorbs a push that landed
/// mid-round, and the next `wait_change` parks forever — the producer is
/// long done, so no notify is coming. The checker must flag the lost
/// wakeup (SC202) within a handful of schedules, and the reported trace
/// must replay to the same violation.
#[test]
fn mail_seen_poll_absorption_bug_is_caught() {
    let model = || {
        let mb = Arc::new(Mailbox::new());
        let (ta, tb) = (Tag::user(1), Tag::user(2));
        let p = {
            let mb = Arc::clone(&mb);
            schedcheck::thread::spawn(move || mb.push(env(0, tb, 7)))
        };
        // Round-start snapshot, then poll stream A.
        let _seen = mb.version();
        assert!(mb.try_take(Src::Any, ta).is_none());
        // BUG (PR 6): advancing the snapshot on a poll. A push landing
        // before this line is absorbed into `seen` without stream A's
        // poll ever having seen it.
        let seen = mb.version();
        assert!(mb.try_take(Src::Any, ta).is_none()); // poll A again
        mb.wait_change(seen); // parks forever in the buggy interleaving
        let _ = mb.take(Src::Any, tb);
        p.join().unwrap();
    };
    let out = checker(4_000).model(model);
    let v = out.violation.expect("the absorbed push must be caught as a lost wakeup");
    assert_eq!(v.code, codes::SC202, "wrong code: {v}");
    assert!(v.message.contains("lost wakeup"), "should flag the park: {v}");
    assert!(
        out.schedules <= 1_000,
        "a 2-preemption bug should surface in a handful of schedules, took {}",
        out.schedules
    );
    let replayed = checker(4_000)
        .replay(&v.trace, model)
        .expect("the reported trace must replay to a violation");
    assert_eq!(replayed.code, v.code);
}

/// The claim's own failure mode, seeded: a producer that clears `parked`
/// — taking on the park's one wake — and then never notifies. The
/// *other* producer, which is correct, reads the cleared flag and rightly
/// returns without a notify of its own, so the consumer sleeps on a
/// staged `tag_b` envelope with nobody left to wake it. The checker must
/// report the lost wakeup (SC202) within a handful of schedules, with a
/// trace that replays.
#[test]
fn claimed_wake_that_is_never_delivered_is_caught() {
    let model = || {
        let mb = Arc::new(Mailbox::new());
        let (ta, tb) = (Tag::user(1), Tag::user(2));
        let p1 = {
            let mb = Arc::clone(&mb);
            schedcheck::thread::spawn(move || {
                // BUG: swaps `parked` to false, skips lock + notify.
                mb.push_claiming_the_wake_without_notifying(env(0, ta, 1));
            })
        };
        let p2 = {
            let mb = Arc::clone(&mb);
            schedcheck::thread::spawn(move || mb.push(env(1, tb, 9)))
        };
        assert_eq!(val(mb.take(Src::Any, tb)), 9);
        p1.join().unwrap();
        p2.join().unwrap();
    };
    let out = checker(4_000).model(model);
    let v = out.violation.expect("the undelivered wake must be caught as a lost wakeup");
    assert_eq!(v.code, codes::SC202, "wrong code: {v}");
    assert!(v.message.contains("lost wakeup"), "should flag the park: {v}");
    assert!(
        out.schedules <= 1_000,
        "a 2-preemption bug should surface in a handful of schedules, took {}",
        out.schedules
    );
    let replayed = checker(4_000)
        .replay(&v.trace, model)
        .expect("the reported trace must replay to a violation");
    assert_eq!(replayed.code, v.code);
}

/// The PR 6 `Mailbox::drop` fix, proven rather than spot-checked: nodes
/// still staged at teardown (pushed, never taken) are reclaimed in every
/// schedule — no SC203 leak. Deleting the `Drop` impl makes this fail.
#[test]
fn mailbox_drop_reclaims_staged_nodes_in_every_schedule() {
    let out = checker(4_000).model(|| {
        let mb = Arc::new(Mailbox::new());
        let t = Tag::user(1);
        let p = {
            let mb = Arc::clone(&mb);
            schedcheck::thread::spawn(move || {
                mb.push(env(0, t, 1));
                mb.push(env(0, t, 2));
            })
        };
        // Consume at most one; the rest must die staged or indexed.
        let _ = mb.try_take(Src::Any, t);
        p.join().unwrap();
    });
    if let Some(v) = &out.violation {
        panic!("teardown must reclaim staged nodes, got: {v}");
    }
}
