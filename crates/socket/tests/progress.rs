//! A socket rank makes progress on its own links wherever it can block.
//!
//! A rank process has one thread, so nothing reads its inbound rings
//! while it waits — unless the wait itself does. These worlds wedge if
//! any wait forgets to: ranks that flood each other before receiving
//! (blocked `send`), frames four times a ring's size crossing both ways
//! at once (published in pieces, each writer woken by the reader that
//! freed its room), a rank whose body returns while a peer is still
//! writing to it (close barrier), a reader that dies while its writer
//! waits for room (death-tolerant: the wait ends on EOF), a deadline
//! that expires mid-frame (the link's framing state must survive the
//! timeout), a rank asleep with no link at all that only a dial can wake,
//! and a deadline on such a rank (the futex timeout). Each is a real
//! process world; the children re-run their test under `--exact`.

use std::io::Write;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use mpistream::{Src, Tag, Transport, Wire};
use socket::{frame, RawLink, SocketWorld};

const FLOOD: usize = 64;
const CHUNK: usize = 64 << 10;
const DATA: Tag = Tag::user(1);
const BIG: usize = 1 << 20;
const EXCHANGE: usize = 8;

/// Message `i` of a flood from rank `src`: recognisable at every byte.
fn chunk(src: usize, i: usize) -> Vec<u8> {
    (0..CHUNK).map(|b| (src * 131 + i * 7 + b) as u8).collect()
}

/// Send [`FLOOD`] chunks to `dst` before receiving anything, then take
/// as many from `src` and check each. Every link's kernel buffer is far
/// smaller than the 4 MiB flood, so every rank blocks inside `send`.
fn flood<TP: Transport>(rank: &mut TP, dst: usize, src: usize) -> usize {
    let me = rank.world_rank();
    for i in 0..FLOOD {
        rank.send(dst, DATA, CHUNK as u64, chunk(me, i));
    }
    for i in 0..FLOOD {
        let (got, _) = rank.recv::<Vec<u8>>(Src::Rank(src), DATA);
        assert!(got == chunk(src, i), "rank {me}: message {i} from rank {src} is corrupt");
    }
    FLOOD
}

#[test]
fn two_ranks_flooding_each_other_both_finish() {
    let got = SocketWorld::for_test("two_ranks_flooding_each_other_both_finish", 2).run(|rank| {
        let peer = 1 - rank.world_rank();
        flood(rank, peer, peer)
    });
    assert_eq!(got, vec![FLOOD; 2]);
}

#[test]
fn a_ring_of_three_floods_finishes() {
    let got = SocketWorld::for_test("a_ring_of_three_floods_finishes", 3).run(|rank| {
        let me = rank.world_rank();
        flood(rank, (me + 1) % 3, (me + 2) % 3)
    });
    assert_eq!(got, vec![FLOOD; 3]);
}

/// Rank 1 writes 2 MiB that rank 0 never receives, and rank 0's body
/// returns at once: rank 0 must keep reading in its close barrier, or
/// rank 1 never finishes sending and the launcher never gets its result.
#[test]
fn a_peer_still_writing_to_a_finished_rank_finishes() {
    let got =
        SocketWorld::for_test("a_peer_still_writing_to_a_finished_rank_finishes", 2).run(|rank| {
            let me = rank.world_rank();
            if me == 1 {
                for i in 0..32 {
                    rank.send(0, DATA, CHUNK as u64, chunk(me, i));
                }
            }
            me
        });
    assert_eq!(got, vec![0, 1]);
}

/// Message `i` of an exchange from rank `src`: 1 MiB, four times a
/// link's ring, recognisable at every byte.
fn big(src: usize, i: usize) -> Vec<u8> {
    (0..BIG).map(|b| (src * 131 + i * 7 + b * 3) as u8).collect()
}

/// Two ranks send each other eight 1 MiB messages before either
/// receives. No frame fits its ring, so each is published in pieces, and
/// both writers wait for room at once: each gets it only because its own
/// wait reads the other's ring and the reader that frees room sends the
/// wake-up back on the writer's socket. Either piece missing wedges it.
#[test]
fn frames_larger_than_the_ring_cross_both_ways_at_once() {
    let got = SocketWorld::for_test("frames_larger_than_the_ring_cross_both_ways_at_once", 2).run(
        |rank| {
            let me = rank.world_rank();
            let peer = 1 - me;
            for i in 0..EXCHANGE {
                rank.send(peer, DATA, BIG as u64, big(me, i));
            }
            for i in 0..EXCHANGE {
                let (got, _) = rank.recv::<Vec<u8>>(Src::Rank(peer), DATA);
                assert!(got == big(peer, i), "rank {me}: message {i} from rank {peer} is corrupt");
            }
            EXCHANGE
        },
    );
    assert_eq!(got, vec![EXCHANGE; 2]);
}

/// Rank 0 takes one message, so its link from rank 1 is accepted and
/// mapped, then stops reading and dies while rank 1 is still sending:
/// rank 1 fills the ring and parks, and no wake-up will ever come. Its
/// wait must end on the link's EOF instead, mark rank 0 dead and drop
/// the rest of its sends, so it finishes within a bounded time.
#[test]
fn a_writer_whose_reader_dies_with_the_ring_full_finishes() {
    let started = Instant::now();
    let got = SocketWorld::for_test("a_writer_whose_reader_dies_with_the_ring_full_finishes", 2)
        .death_tolerant()
        .run_tolerant(|rank| {
            if rank.world_rank() == 0 {
                rank.recv::<Vec<u8>>(Src::Rank(1), DATA);
                std::thread::sleep(Duration::from_millis(300));
                std::process::exit(3);
            }
            for i in 0..FLOOD {
                rank.send(0, DATA, CHUNK as u64, chunk(1, i));
            }
            FLOOD
        });
    assert_eq!(got, vec![None, Some(FLOOD)]);
    let took = started.elapsed();
    assert!(took < Duration::from_secs(10), "the writer took {took:?} to finish");
}

/// A deadline that expires while half a frame is in: the receive times
/// out no earlier than its deadline, and the link's framing survives —
/// the frame completes later and is delivered, followed by the next one.
/// Rank 1 dials rank 0 by hand (a `RawLink`, whose ring takes exactly
/// the bytes it is given) to control exactly which bytes are sent when;
/// its real link carries the hand-shakes.
#[test]
fn a_half_frame_on_a_live_rank_times_out_then_delivers() {
    const HALF: Tag = Tag::user(42);
    const SIGNAL: Tag = Tag::user(43);
    let got = SocketWorld::for_test("a_half_frame_on_a_live_rank_times_out_then_delivers", 2).run(
        |rank| {
            if rank.world_rank() == 1 {
                let dir = PathBuf::from(std::env::var("MPISTREAM_SOCKET_DIR").unwrap());
                let mut link = RawLink::dial(&dir.join("rank0.sock"), 1).unwrap();
                let mut whole = Vec::new();
                frame::write_frame(&mut whole, HALF.0, 8, &99u64.to_frame()).unwrap();
                let cut = whole.len() / 2;
                link.write_all(&whole[..cut]).unwrap();
                rank.send(0, SIGNAL, 0, ()); // the half frame is on its way
                rank.recv::<()>(Src::Rank(0), SIGNAL); // rank 0 has timed out
                link.write_all(&whole[cut..]).unwrap();
                frame::write_frame(&mut link, HALF.0, 8, &100u64.to_frame()).unwrap();
                return Vec::new();
            }
            rank.recv::<()>(Src::Rank(1), SIGNAL);
            let deadline = rank.now() + mpistream::transport::SimDuration::from_millis(100);
            let early = rank.recv_deadline::<u64>(Src::Rank(1), HALF, deadline);
            assert!(early.is_none(), "half a frame must not be delivered");
            assert!(rank.now() >= deadline, "timed out before the deadline");
            rank.send(1, SIGNAL, 0, ());
            (0..2).map(|_| rank.recv::<u64>(Src::Rank(1), HALF).0).collect()
        },
    );
    assert_eq!(got[0], vec![99, 100]);
}

/// Rank 0 sleeps in a receive from any source before anyone has dialled
/// it: no inbound link, nothing to read, so only the dial itself — the
/// count in its slot and the ring that comes with it — can wake it. Rank
/// 1 dials 300 ms later and sends.
#[test]
fn a_dial_wakes_a_rank_that_has_no_links() {
    let got = SocketWorld::for_test("a_dial_wakes_a_rank_that_has_no_links", 2).run(|rank| {
        if rank.world_rank() == 1 {
            std::thread::sleep(Duration::from_millis(300));
            rank.send(0, DATA, 8, 7u64);
            return 0;
        }
        rank.recv::<u64>(Src::Any, DATA).0
    });
    assert_eq!(got, vec![7, 0]);
}

/// A deadline on a rank with no links: nothing can ring it, so the wait
/// ends on the futex timeout, no earlier than the deadline and long
/// before a wedge.
#[test]
fn a_deadline_on_a_rank_with_no_links_times_out() {
    let got =
        SocketWorld::for_test("a_deadline_on_a_rank_with_no_links_times_out", 1).run(|rank| {
            let started = Instant::now();
            let deadline = rank.now() + mpistream::transport::SimDuration::from_millis(100);
            let got = rank.recv_deadline::<u64>(Src::Any, DATA, deadline);
            let took = started.elapsed();
            assert!(got.is_none(), "nobody sent anything");
            assert!(took >= Duration::from_millis(100), "timed out after {took:?}");
            assert!(took < Duration::from_secs(2), "timed out after {took:?}");
            took.as_millis() as u64
        });
    assert!(got[0] >= 100, "{got:?}");
}
