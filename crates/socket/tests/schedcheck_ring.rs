//! Model tests for a socket link's shared-memory ring (`socket::ring`),
//! driven by the `schedcheck` bounded model checker. Compiled (and
//! meaningful) only under `RUSTFLAGS='--cfg schedcheck'`, where the
//! `native::sync` facade the ring is written against routes every
//! position and park-flag access through the checker's shadow atomics:
//!
//! ```sh
//! RUSTFLAGS='--cfg schedcheck' CARGO_TARGET_DIR=target/schedcheck \
//!     cargo test -p socket --test schedcheck_ring
//! ```
//!
//! The rings are the real ones (`ring::local_pair`, both ends in one
//! process at the real capacity); what the models supply is the socket
//! beside each ring. A thread's `poll` over its sockets is a
//! [`Doorbell`]: a wake-up byte written to any of them rings it, and a
//! thread that finds nothing to do sleeps on it until one has. Each
//! clean model must explore ≥ 1,000 distinct schedules at a preemption
//! bound ≥ 2 with no violation; the seeded mutant — a writer that
//! publishes but never claims the parked reader's wake — must be caught
//! as a lost wake-up (SC202) with a trace that replays.
#![cfg(schedcheck)]

use std::io::{self, Read};
use std::sync::Arc;

use schedcheck::{codes, Checker, Condvar, Mutex, Outcome};
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

/// One thread's `poll` over its sockets: wake-up bytes written to any
/// of them, counted; a wait takes them all.
struct Doorbell {
    bytes: Mutex<u32>,
    rung: Condvar,
}

impl Doorbell {
    fn new() -> Arc<Doorbell> {
        Arc::new(Doorbell { bytes: Mutex::new(0), rung: Condvar::new() })
    }

    /// A wake-up byte arrives on one of the sockets.
    fn ring(&self) {
        *self.bytes.lock().unwrap() += 1;
        self.rung.notify_one();
    }

    /// `poll` with no timeout, then drain what arrived.
    fn wait(&self) {
        let mut bytes = self.bytes.lock().unwrap();
        while *bytes == 0 {
            bytes = self.rung.wait(bytes).unwrap();
        }
        *bytes = 0;
    }
}

/// Byte `i` of a stream: recognisable at every position.
fn byte(i: usize) -> u8 {
    (i % 251) as u8
}

/// Read `len` bytes of the stream from `from`, as a rank's progress loop
/// does: take what the ring holds; if nothing, park on it, look again,
/// and sleep on `bell` only if it is still empty. `peer` is the writer's
/// doorbell, rung when a read claimed its wake.
fn receive(from: &mut RingReader, len: usize, chunk: usize, bell: &Doorbell, peer: &Doorbell) {
    let mut buf = vec![0u8; chunk];
    let mut got = 0;
    while got < len {
        match from.read(&mut buf) {
            Ok(n) => {
                assert!(n > 0, "EOF on a ring nobody closed");
                for (k, b) in buf[..n].iter().enumerate() {
                    assert_eq!(*b, byte(got + k), "stream byte {} is wrong", got + k);
                }
                got += n;
                if from.take_wake() {
                    peer.ring();
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if from.park() {
                    bell.wait();
                }
                from.unpark();
            }
            Err(e) => panic!("ring read: {e}"),
        }
    }
}

/// Publish `pieces` (lengths) of the stream into `to` one after another,
/// ringing the reader's doorbell `peer` whenever a publish claimed its
/// wake. Each piece must fit: these models never fill the ring.
fn send(to: &mut RingWriter, pieces: &[usize], peer: &Doorbell) {
    let mut at = 0;
    for &len in pieces {
        let piece: Vec<u8> = (at..at + len).map(byte).collect();
        assert_eq!(to.publish(&piece), len, "a piece that fits must go whole");
        if to.take_wake() {
            peer.ring();
        }
        at += len;
    }
}

// ---------------------------------------------------------------------
// 1. Publish-and-claim against park-and-re-check
// ---------------------------------------------------------------------

/// A writer publishes three pieces while the reader reads, parks on the
/// empty ring and sleeps. Whatever the interleaving, either the writer
/// sees `reader_parked` and rings, or the reader's second look sees the
/// bytes: a schedule where the reader sleeps past the last piece is an
/// SC202.
#[test]
fn publish_and_claim_against_park_and_recheck_is_clean() {
    // Bound 4: a publish is a handful of schedule points, and bound 3
    // exhausts this model at 890 schedules.
    let out = checker(4_000, 4).model(|| {
        let (mut writer, mut reader) = ring::local_pair();
        let bell = Doorbell::new();
        let unused = Doorbell::new();
        let w = {
            let bell = Arc::clone(&bell);
            schedcheck::thread::spawn(move || send(&mut writer, &[3, 1, 2], &bell))
        };
        receive(&mut reader, 6, 16, &bell, &unused);
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
    // Bound 4: bound 2 exhausts this model at 272 schedules.
    let out = checker(4_000, 4).model(|| {
        let (mut writer, mut reader) = ring::local_pair();
        let bell = Doorbell::new();
        let unused = Doorbell::new();
        let w = {
            let bell = Arc::clone(&bell);
            schedcheck::thread::spawn(move || send(&mut writer, &[3, 3, 2, 3], &bell))
        };
        receive(&mut reader, 11, 2, &bell, &unused);
        w.join().unwrap();
    });
    assert_clean_and_explored(&out);
}

// ---------------------------------------------------------------------
// 3. Ring-full waits in both directions
// ---------------------------------------------------------------------

/// Two threads each send the other more than a whole ring before they
/// receive anything, the way two ranks flooding each other do: a thread
/// publishes what fits of its stream, reads what its inbound ring holds
/// (its wait makes progress on its own links), and when neither moved it
/// parks on both — as a writer waiting for room and as a reader waiting
/// for bytes — and sleeps on its one doorbell. Each side's room comes
/// only from the other's reads, so both reverse wake-ups are needed.
#[test]
fn ring_full_waits_in_both_directions_are_clean() {
    const LEN: usize = RING_BYTES + RING_BYTES / 2;
    let out = checker(4_000, 2).model(|| {
        let (a_out, b_in) = ring::local_pair();
        let (b_out, a_in) = ring::local_pair();
        let bells = [Doorbell::new(), Doorbell::new()];
        let b = {
            let bells = bells.clone();
            schedcheck::thread::spawn(move || exchange(b_out, b_in, LEN, &bells[1], &bells[0]))
        };
        exchange(a_out, a_in, LEN, &bells[0], &bells[1]);
        b.join().unwrap();
    });
    assert_clean_and_explored(&out);
}

/// Send `len` bytes of the stream on `out` and receive as many on `inn`,
/// interleaved as a rank's blocked `send` interleaves them.
fn exchange(mut out: RingWriter, mut inn: RingReader, len: usize, me: &Doorbell, peer: &Doorbell) {
    let stream: Vec<u8> = (0..len).map(byte).collect();
    let mut buf = vec![0u8; RING_BYTES / 4];
    let (mut sent, mut got) = (0, 0);
    while sent < len || got < len {
        let mut moved = false;
        if sent < len {
            let n = out.publish(&stream[sent..]);
            sent += n;
            moved |= n > 0;
            if out.take_wake() {
                peer.ring();
            }
        }
        match inn.read(&mut buf) {
            Ok(n) => {
                assert!(buf[..n] == stream[got..got + n], "stream bytes from {got} are wrong");
                got += n;
                moved |= n > 0;
                if inn.take_wake() {
                    peer.ring();
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(e) => panic!("ring read: {e}"),
        }
        if !moved {
            let stuck_out = sent == len || out.park();
            let stuck_in = got == len || inn.park();
            if stuck_out && stuck_in {
                me.wait();
            }
            out.unpark();
            inn.unpark();
        }
    }
}

// ---------------------------------------------------------------------
// Seeded mutant: the wake is never claimed
// ---------------------------------------------------------------------

/// A writer that publishes and never looks at `reader_parked`: the
/// reader that parked on the empty ring, looked again too early and went
/// to sleep is never rung. The checker must report the lost wake-up
/// (SC202) within a handful of schedules, with a trace that replays.
#[test]
fn a_publish_that_never_claims_the_wake_is_caught() {
    let model = || {
        let (mut writer, mut reader) = ring::local_pair();
        let bell = Doorbell::new();
        let unused = Doorbell::new();
        let w = schedcheck::thread::spawn(move || {
            // BUG: publishes, never claims, never rings.
            assert_eq!(writer.publish_without_claiming(&[byte(0), byte(1)]), 2);
        });
        receive(&mut reader, 2, 16, &bell, &unused);
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
