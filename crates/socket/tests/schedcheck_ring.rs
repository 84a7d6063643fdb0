//! Model tests for a socket link's shared-memory ring (`socket::ring`)
//! and the world page's doorbells (`socket::page`), driven by the
//! `schedcheck` bounded model checker. Compiled (and meaningful) only
//! under `RUSTFLAGS='--cfg schedcheck'`, where the `native::sync` facade
//! both are written against routes every position, flag and bell access
//! through the checker's shadow atomics:
//!
//! ```sh
//! RUSTFLAGS='--cfg schedcheck' CARGO_TARGET_DIR=target/schedcheck \
//!     cargo test -p socket --test schedcheck_ring
//! ```
//!
//! The rings and the bells are the real ones (`ring::local_pair` and
//! `page::Page::local`, in one process at the real capacity); only
//! `FUTEX_WAIT`/`FUTEX_WAKE` are shadowed, by a mutex and condvar that
//! go with each bell (`native::sync::futex`). What the models supply is
//! the rank around them: a thread waits by the rule of
//! `Inbound::progress` ([`wait`]). Each clean model must explore ≥ 1,000
//! distinct schedules at a preemption bound ≥ 2 with no violation; the
//! seeded mutant — a writer that publishes and never claims the reader's
//! bell — must be caught as a lost wake-up (SC202) with a trace that
//! replays.
#![cfg(schedcheck)]

use std::borrow::Cow;
use std::io::{self, Read};
use std::sync::Arc;

use schedcheck::{codes, Checker, Outcome};
use socket::frame::{self, FrameReader};
use socket::page::{Page, Slot};
use socket::ring::{self, RingReader, RingWriter, RING_BYTES};

/// Preemption bound ≥ `min_preemptions` (≥ 2; `SCHEDCHECK_PREEMPTIONS`
/// may raise it), and a schedule cap that bounds CI time.
fn checker(max_schedules: u64, min_preemptions: usize) -> Checker {
    let p = std::env::var("SCHEDCHECK_PREEMPTIONS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .map_or(min_preemptions, |p| p.max(min_preemptions));
    Checker::new().max_schedules(max_schedules).preemptions(p.max(2))
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

/// A rank's wait, by the rule of `Inbound::progress`: `look` serves what
/// the rank waits on and says whether anything moved; if nothing did,
/// raise the bell, look again, and sleep only if there is still nothing.
fn wait(bell: &Slot, mut look: impl FnMut() -> bool) {
    if look() {
        return;
    }
    bell.park();
    if !look() {
        bell.sleep(None);
    }
    bell.unpark();
}

/// Byte `i` of a stream: recognisable at every position.
fn byte(i: usize) -> u8 {
    (i % 251) as u8
}

/// One read of the stream from `from`, which has delivered `got` bytes
/// so far: check what came, and ring the writer's bell if the read
/// claimed its wake. Returns how many bytes came (0: none).
fn read(from: &mut RingReader, buf: &mut [u8], got: usize, writer: &Slot) -> usize {
    match from.read(buf) {
        Ok(n) => {
            assert!(n > 0, "EOF on a ring nobody closed");
            for (k, b) in buf[..n].iter().enumerate() {
                assert_eq!(*b, byte(got + k), "stream byte {} is wrong", got + k);
            }
            if from.take_wake() {
                writer.ring();
            }
            n
        }
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => 0,
        Err(e) => panic!("ring read: {e}"),
    }
}

/// Read `len` bytes of the stream from `from` in reads of at most
/// `chunk`, waiting on `me` whenever the ring is empty.
fn receive(from: &mut RingReader, len: usize, chunk: usize, me: &Slot, writer: &Slot) {
    let mut buf = vec![0u8; chunk];
    let mut got = 0;
    while got < len {
        wait(me, || {
            let n = read(from, &mut buf, got, writer);
            got += n;
            n > 0
        });
    }
}

/// Publish `pieces` (lengths) of the stream into `to` one after another,
/// ringing the reader's bell after each, as `OutLink::publish` does.
/// Each piece must fit: these models never fill the ring.
fn send(to: &mut RingWriter, pieces: &[usize], reader: &Slot) {
    let mut at = 0;
    for &len in pieces {
        let piece: Vec<u8> = (at..at + len).map(byte).collect();
        assert_eq!(to.publish(&piece), len, "a piece that fits must go whole");
        reader.ring();
        at += len;
    }
}

// ---------------------------------------------------------------------
// 1. Publish-and-ring against park-and-re-check
// ---------------------------------------------------------------------

/// A writer publishes three pieces while the reader reads, parks on its
/// bell over the empty ring and sleeps. Whatever the interleaving,
/// either the writer finds the bell raised and claims it, or the
/// reader's second look sees the bytes: a schedule where the reader
/// sleeps past the last piece is an SC202.
#[test]
fn publish_and_claim_against_park_and_recheck_is_clean() {
    // Bound 4: a publish is a handful of schedule points.
    let out = checker(4_000, 4).model(|| {
        let page = Arc::new(Page::local(2));
        let (mut writer, mut reader) = ring::local_pair();
        let w = {
            let page = Arc::clone(&page);
            schedcheck::thread::spawn(move || send(&mut writer, &[3, 1, 2], page.slot(0)))
        };
        receive(&mut reader, 6, 16, page.slot(0), page.slot(1));
        w.join().unwrap();
    });
    assert_clean_and_explored(&out);
}

// ---------------------------------------------------------------------
// 2. Restart at the front against a concurrent read
// ---------------------------------------------------------------------

/// The reader takes two bytes at a time, so it is often half-way through
/// what the writer published when the writer's next publish looks at the
/// ring: the writer restarts at the front only if the ring is empty, and
/// the reader must jump its `tail` to the new front, never read the gap,
/// and never see a byte overwritten before it read it — the stream
/// arrives exactly, in order, under every schedule.
#[test]
fn restart_at_the_front_against_a_concurrent_read_is_clean() {
    // Bound 4, like the model above.
    let out = checker(4_000, 4).model(|| {
        let page = Arc::new(Page::local(2));
        let (mut writer, mut reader) = ring::local_pair();
        let w = {
            let page = Arc::clone(&page);
            schedcheck::thread::spawn(move || send(&mut writer, &[3, 3, 2, 3], page.slot(0)))
        };
        receive(&mut reader, 11, 2, page.slot(0), page.slot(1));
        w.join().unwrap();
    });
    assert_clean_and_explored(&out);
}

// ---------------------------------------------------------------------
// 3. Ring-full waits in both directions
// ---------------------------------------------------------------------

/// Two ranks each send the other more than a whole ring before they
/// receive anything, the way two ranks flooding each other do: a rank
/// publishes what fits of its stream, reads what its inbound ring holds
/// (its wait makes progress on its own links), and when neither moved it
/// raises `writer_parked` on its outbound ring and waits on its one
/// bell — for room and for bytes at once. Each side's room comes only
/// from the other's reads, so both reverse wake-ups are needed.
#[test]
fn ring_full_waits_in_both_directions_are_clean() {
    const LEN: usize = RING_BYTES + RING_BYTES / 2;
    let out = checker(4_000, 2).model(|| {
        let page = Arc::new(Page::local(2));
        let (a_out, b_in) = ring::local_pair();
        let (b_out, a_in) = ring::local_pair();
        let b = {
            let page = Arc::clone(&page);
            schedcheck::thread::spawn(move || {
                exchange(b_out, b_in, LEN, page.slot(1), page.slot(0));
            })
        };
        exchange(a_out, a_in, LEN, page.slot(0), page.slot(1));
        b.join().unwrap();
    });
    assert_clean_and_explored(&out);
}

/// Send `len` bytes of the stream on `out` and receive as many on `inn`,
/// interleaved as a rank's blocked `send` interleaves them.
fn exchange(mut out: RingWriter, mut inn: RingReader, len: usize, me: &Slot, peer: &Slot) {
    let stream: Vec<u8> = (0..len).map(byte).collect();
    let mut buf = vec![0u8; RING_BYTES / 4];
    let (mut sent, mut got) = (0, 0);
    while sent < len || got < len {
        wait(me, || {
            let mut moved = false;
            if sent < len {
                let n = out.publish(&stream[sent..]);
                if n > 0 {
                    peer.ring();
                }
                sent += n;
                moved |= n > 0 || (sent < len && !out.park());
            }
            let n = if got < len { read(&mut inn, &mut buf, got, peer) } else { 0 };
            got += n;
            moved || n > 0
        });
        out.unpark();
    }
}

// ---------------------------------------------------------------------
// 4. A dial races a park
// ---------------------------------------------------------------------

/// Rank 0 waits on its bell for two things: rank 1's bytes on a link it
/// already has, and a link that rank 2 dials (the dial count in rank 0's
/// slot, then a ring). Rank 0 takes the new link only once it has seen
/// the count move, as `Inbound::serve` accepts only then. The dial is
/// the only thing that rings for it: when rank 1's bytes come first,
/// only the dial's own ring can wake rank 0 for the link.
#[test]
fn a_dial_racing_a_park_is_clean() {
    let out = checker(4_000, 2).model(|| {
        let page = Arc::new(Page::local(3));
        let (mut writer, mut reader) = ring::local_pair();
        let w = {
            let page = Arc::clone(&page);
            schedcheck::thread::spawn(move || send(&mut writer, &[2], page.slot(0)))
        };
        let d = {
            let page = Arc::clone(&page);
            schedcheck::thread::spawn(move || page.slot(0).dial())
        };
        let (me, peer) = (page.slot(0), page.slot(1));
        let mut buf = [0u8; 16];
        let (mut got, mut accepted) = (0, false);
        while got < 2 || !accepted {
            wait(me, || {
                let dialled = !accepted && me.dials() != 0;
                accepted |= dialled;
                let n = read(&mut reader, &mut buf, got, peer);
                got += n;
                dialled || n > 0
            });
        }
        w.join().unwrap();
        d.join().unwrap();
    });
    assert_clean_and_explored(&out);
}

// ---------------------------------------------------------------------
// 5. A death mark races a room wait
// ---------------------------------------------------------------------

/// Rank 1 has filled rank 0's ring and waits for room that will never
/// come: rank 0 has died. The launcher marks it dead and rings every
/// bell (`Page::kill`). Whatever the interleaving, either the writer's
/// second look sees the mark or the launcher's ring claims its bell —
/// the wait ends, with the ring still full.
#[test]
fn a_death_mark_racing_a_room_wait_is_clean() {
    // Bound 5: bound 4 exhausts this model at 974 schedules.
    let out = checker(4_000, 5).model(|| {
        let page = Arc::new(Page::local(2));
        let (mut writer, _reader) = ring::local_pair();
        assert_eq!(writer.publish(&vec![0; RING_BYTES]), RING_BYTES);
        let launcher = {
            let page = Arc::clone(&page);
            schedcheck::thread::spawn(move || page.kill(0))
        };
        let (me, reader) = (page.slot(1), page.slot(0));
        while !reader.is_dead() {
            wait(me, || reader.is_dead() || writer.publish(&[1]) > 0 || !writer.park());
            writer.unpark();
        }
        assert_eq!(writer.publish(&[1]), 0, "nobody freed room");
        launcher.join().unwrap();
    });
    assert_clean_and_explored(&out);
}

// ---------------------------------------------------------------------
// 6. A frame lent from the ring, waited for there
// ---------------------------------------------------------------------

/// The reader has a lent frame in hand (half the ring) when the writer
/// starts on the next, three quarters of the ring: more than the free
/// space. The writer publishes it in quarter-ring pieces and waits for
/// room; the reader waits for the frame to be whole in the ring, never
/// copying a piece out, and lends it from there. Only the reader's
/// release of the frame before, when it starts waiting, makes room for
/// the last piece, so that release must claim the writer's wake: a
/// schedule where both sleep is an SC202.
#[test]
fn a_frame_waited_for_in_the_ring_is_clean() {
    // Bound 3: bound 2 exhausts this model at 298 schedules.
    let out = checker(4_000, 3).model(|| {
        let page = Arc::new(Page::local(2));
        let (mut writer, ring) = ring::local_pair();
        let mut reader = FrameReader::new(ring);
        let lead = frame_bytes(RING_BYTES / 2, 1);
        let next = frame_bytes(RING_BYTES / 4 * 3, 2);
        assert_eq!(writer.publish(&lead), lead.len());
        let w = {
            let page = Arc::clone(&page);
            let next = next.clone();
            schedcheck::thread::spawn(move || {
                let (me, reader) = (page.slot(1), page.slot(0));
                let mut sent = 0;
                while sent < next.len() {
                    wait(me, || {
                        let piece = (next.len() - sent).min(RING_BYTES / 4);
                        let n = writer.publish(&next[sent..sent + piece]);
                        if n > 0 {
                            reader.ring();
                        }
                        sent += n;
                        n > 0 || (sent < next.len() && !writer.park())
                    });
                    writer.unpark();
                }
            })
        };
        let (me, peer) = (page.slot(0), page.slot(1));
        let (tag, _, payload) = reader.lend_frame().expect("whole").expect("live");
        assert!(tag == 1 && matches!(payload, Cow::Borrowed(_)), "the lead frame is lent");
        let mut done = false;
        while !done {
            wait(me, || {
                done = match reader.lend_frame() {
                    Ok(Some((tag, _, payload))) => {
                        assert!(matches!(payload, Cow::Borrowed(_)), "lent from the ring");
                        assert!(tag == 2 && payload[..] == next[frame::FRAME_OVERHEAD..]);
                        true
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => false,
                    other => panic!("frame read: {:?}", other.map(|f| f.map(|f| f.0))),
                };
                if reader.get_mut().take_wake() {
                    peer.ring();
                }
                done
            });
        }
        w.join().unwrap();
    });
    assert_clean_and_explored(&out);
}

/// A frame of `len` bytes on the wire, tag `tag`, payload recognisable.
fn frame_bytes(len: usize, tag: u64) -> Vec<u8> {
    let payload: Vec<u8> = (0..len - frame::FRAME_OVERHEAD).map(byte).collect();
    let mut wire = Vec::new();
    frame::write_frame(&mut wire, tag, 0, &payload).expect("write to memory");
    wire
}

// ---------------------------------------------------------------------
// Seeded mutant: the wake is never claimed
// ---------------------------------------------------------------------

/// A writer that publishes and never claims the reader's bell: the
/// reader that parked on the empty ring, looked again too early and went
/// to sleep is never woken. The checker must report the lost wake-up
/// (SC202) within a handful of schedules, with a trace that replays.
#[test]
fn a_publish_that_never_claims_the_wake_is_caught() {
    let model = || {
        let page = Page::local(2);
        let (mut writer, mut reader) = ring::local_pair();
        let w = schedcheck::thread::spawn(move || {
            // BUG: publishes, never rings the reader's bell.
            assert_eq!(writer.publish(&[byte(0), byte(1)]), 2);
        });
        receive(&mut reader, 2, 16, page.slot(0), page.slot(1));
        w.join().unwrap();
    };
    let out = checker(4_000, 2).model(model);
    let v = out.violation.expect("the unclaimed wake must be caught as a lost wakeup");
    assert_eq!(v.code, codes::SC202, "wrong code: {v}");
    assert!(v.message.contains("lost wakeup"), "should flag the park: {v}");
    assert!(
        out.schedules <= 1_000,
        "a 2-preemption bug should surface in a handful of schedules, took {}",
        out.schedules
    );
    let replayed = checker(4_000, 2)
        .replay(&v.trace, model)
        .expect("the reported trace must replay to a violation");
    assert_eq!(replayed.code, v.code);
}
