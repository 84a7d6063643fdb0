//! Cross-backend pin of `recv_deadline` semantics (ISSUE 9 satellite).
//!
//! Two drift risks appear once frames cross a real wire:
//!
//! 1. **Half-read frames.** On the socket backend a deadline can expire
//!    while a frame is only partially written by the peer. The receive
//!    must report `Timeout` (i.e. `None`) and leave the link intact —
//!    the frame simply completes later and is delivered by the next
//!    receive. The framing state belongs to the link, not to the
//!    receive, so consumer timeouts can never desynchronize the byte
//!    stream. The test here drives the standalone `socket::reader_loop`
//!    (a reader thread feeding a mailbox: the benchmark's hand-off probe,
//!    which no rank uses); `crates/socket/tests/progress.rs` pins the
//!    same scenario on a live `SocketRank`, whose one thread reads its
//!    own links.
//! 2. **Spurious wakes.** A native rank parks on the mailbox
//!    eventcount, which wakes on *every* mailbox change; a socket rank's
//!    `poll` wakes on every readable link. The deadline is absolute: a
//!    stream of non-matching arrivals must not extend the wait (a
//!    per-wake relative recomputation would spin forever under steady
//!    unrelated traffic).

use std::io::Write;
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mpistream::transport::SimTime;
use mpistream::{Src, Tag, Transport, Wire};
use native::mailbox::{Env, Mailbox};
use socket::frame;

/// A deadline expiring while a frame is half-read returns Timeout
/// without corrupting the link: the completed frame (and everything
/// after it) is still delivered in order.
#[test]
fn socket_half_read_frame_times_out_cleanly() {
    let (mut tx, rx) = UnixStream::pair().expect("socketpair");
    let mailbox = Arc::new(Mailbox::new());
    let reader_box = Arc::clone(&mailbox);
    let reader = std::thread::spawn(move || socket::reader_loop(rx, 3, &reader_box, false));

    let tag = Tag::user(42);
    // One full frame's bytes, delivered in two halves around a timeout.
    let mut whole = Vec::new();
    frame::write_frame(&mut whole, tag.0, 64, &99u64.to_frame()).unwrap();
    let cut = whole.len() - 5; // split mid-payload
    tx.write_all(&whole[..cut]).unwrap();

    // The frame is in flight but incomplete: a bounded take must time
    // out (None), not deliver garbage and not kill the reader.
    let got = mailbox.take_deadline(Src::Rank(3), tag, Instant::now() + Duration::from_millis(100));
    assert!(got.is_none(), "half-read frame must not be deliverable");

    // Finish the frame, plus a second one right behind it: both arrive,
    // in order, on the same link.
    tx.write_all(&whole[cut..]).unwrap();
    frame::write_frame(&mut tx, tag.0, 64, &100u64.to_frame()).unwrap();
    let first = mailbox.take_deadline(Src::Rank(3), tag, Instant::now() + Duration::from_secs(30));
    let env = first.expect("completed frame is delivered");
    assert_eq!(unframe(env), (3, 99));
    let second = mailbox.take_deadline(Src::Rank(3), tag, Instant::now() + Duration::from_secs(30));
    assert_eq!(unframe(second.expect("second frame follows")), (3, 100));

    drop(tx); // clean EOF at a frame boundary
    reader.join().expect("reader exits cleanly on EOF");
}

fn unframe(env: Env) -> (usize, u64) {
    let buf = env.payload.downcast::<Vec<u8>>().expect("socket frames carry bytes");
    (env.src, u64::from_frame(&buf).expect("valid u64 frame"))
}

/// The deadline is absolute across spurious wakes: steady non-matching
/// traffic (each push wakes every parked receiver) must not postpone the
/// timeout. This is the `Mailbox` contract native ranks park on; a
/// socket rank recomputes its `poll` timeout from the same absolute
/// deadline on every pass instead.
#[test]
fn deadline_is_absolute_under_spurious_wakes() {
    let mailbox = Arc::new(Mailbox::new());
    let noise_box = Arc::clone(&mailbox);
    let noise = std::thread::spawn(move || {
        // 2s of unrelated arrivals at 20ms intervals — each one a wake.
        for i in 0..100u64 {
            noise_box.push(Env { src: 0, tag: Tag::user(7), bytes: 8, payload: Box::new(i) });
            std::thread::sleep(Duration::from_millis(20));
        }
    });

    let start = Instant::now();
    let got = mailbox.take_deadline(Src::Any, Tag::user(999), start + Duration::from_millis(200));
    let elapsed = start.elapsed();
    assert!(got.is_none(), "no matching message ever arrives");
    assert!(elapsed >= Duration::from_millis(200), "woke before the deadline: {elapsed:?}");
    // A per-wake relative recomputation would ride the noise for ~2s.
    assert!(elapsed < Duration::from_secs(1), "deadline extended by spurious wakes: {elapsed:?}");
    noise.join().unwrap();
}

/// End-to-end over real processes: `recv_deadline` on a `SocketRank`
/// times out on silence, and the *same* `(src, tag)` receive later
/// succeeds once the peer actually sends — the timed-out receive leaves
/// no residue. Matches the native backend's behavior for the same
/// program shape.
#[test]
fn socket_recv_deadline_times_out_then_delivers() {
    let reports = socket::SocketWorld::for_test("socket_recv_deadline_times_out_then_delivers", 2)
        .run(|rank| {
            let tag = Tag::user(5);
            let world = rank.world_group();
            if rank.world_rank() == 0 {
                // Nothing sent yet: a 100ms deadline receive must miss.
                let deadline = SimTime(rank.now().0 + 100_000_000);
                let early = rank.recv_deadline::<u64>(Src::Rank(1), tag, deadline);
                assert!(early.is_none(), "timed out receive must return None");
                rank.barrier(&world); // now release the sender
                let (v, info) = rank.recv::<u64>(Src::Rank(1), tag);
                assert_eq!(info.src, 1);
                v
            } else {
                rank.barrier(&world); // rank 0 has already timed out
                rank.send(0, tag, 8, 77u64);
                0
            }
        });
    assert_eq!(reports, vec![77, 0]);
}
