//! The send path at the ring's edges: a rank's `send` encodes each frame
//! straight into the peer's ring and publishes it once, waiting for room
//! whenever the ring is full. Two ranks of a world in this process
//! ([`socket::local_world`]), each on a thread of its own, so the writer
//! blocks until the reader frees room: every value arrives as it was
//! sent, and the bytes the ring carries are exactly `write_frame`'s.

use std::io::{self, Read};

use mpistream::{MsgInfo, Src, Tag, Wire};
use native::{Links, Until};
use socket::frame::{write_frame, FRAME_OVERHEAD, LINK_BUF_BYTES};
use socket::ring::{RingReader, RING_BYTES};
use socket::{local_world, SocketLinks};

/// One message of the ring-edge sequence, by the type it travels as:
/// each encodes to a chosen number of bytes.
#[derive(Clone, Debug, PartialEq)]
enum Edge {
    Unit,
    Byte(u8),
    Word(u64),
    /// A count and the bytes: 8 + len.
    Bytes(Vec<u8>),
}

impl Edge {
    /// A payload that encodes to exactly `len` bytes.
    fn of_len(len: usize) -> Edge {
        match len {
            0 => Edge::Unit,
            1 => Edge::Byte(0x5A),
            _ => Edge::Bytes((0..len - 8).map(|i| (i * 7 + len) as u8).collect()),
        }
    }

    fn to_frame(&self) -> Vec<u8> {
        match self {
            Edge::Unit => ().to_frame(),
            Edge::Byte(b) => b.to_frame(),
            Edge::Word(w) => w.to_frame(),
            Edge::Bytes(v) => v.to_frame(),
        }
    }

    fn send(self, links: &mut SocketLinks, dst: usize, info: MsgInfo) {
        match self {
            Edge::Unit => links.send(dst, info, ()),
            Edge::Byte(b) => links.send(dst, info, b),
            Edge::Word(w) => links.send(dst, info, w),
            Edge::Bytes(v) => links.send(dst, info, v),
        }
    }

    /// Rank `me` receives the message `self` says comes next, as its
    /// type.
    fn recv(&self, links: &mut SocketLinks, me: usize, src: usize, tag: Tag) -> Edge {
        let from = Src::Rank(src);
        let got = match self {
            Edge::Unit => links.recv::<()>(me, from, tag, Until::Forever).map(|_| Edge::Unit),
            Edge::Byte(_) => links.recv(me, from, tag, Until::Forever).map(|m| Edge::Byte(m.0)),
            Edge::Word(_) => links.recv(me, from, tag, Until::Forever).map(|m| Edge::Word(m.0)),
            Edge::Bytes(_) => links.recv(me, from, tag, Until::Forever).map(|m| Edge::Bytes(m.0)),
        };
        got.expect("a wait without a deadline ends with the frame")
    }
}

/// Payloads at the sizes where the send path changes course — empty,
/// one byte, either side of the reader's buffer, a frame of exactly
/// the ring, one byte more than the ring, 1 MiB — each behind a `u64`
/// frame, three times over, so frames wrap the ring, are published
/// in pieces and restart at its front.
fn edge_sequence() -> Vec<Edge> {
    let sizes = [
        0,
        1,
        LINK_BUF_BYTES - 1,
        LINK_BUF_BYTES + 1,
        RING_BYTES - FRAME_OVERHEAD,
        RING_BYTES + 1,
        1 << 20,
    ];
    (0..3)
        .flat_map(|round| sizes.iter().map(move |&len| (round, len)))
        .flat_map(|(round, len)| [Edge::Word(round * 10 + len as u64), Edge::of_len(len)])
        .collect()
}

/// Rank 1 sends [`edge_sequence`] on its own thread, waiting for room
/// whenever the ring is full, while rank 0 receives it, each message
/// as its type: every value arrives as it was sent.
#[test]
fn the_send_path_delivers_every_size_across_the_ring_edges() {
    let (_, mut ranks) = local_world(2);
    let mut sender = ranks.pop().expect("rank 1");
    let tag = Tag::user(5);
    let sent = edge_sequence();
    let to_send = sent.clone();
    let writer = std::thread::spawn(move || {
        for m in to_send {
            m.send(&mut sender, 0, MsgInfo { src: 1, tag, bytes: 8 });
        }
    });
    for want in &sent {
        assert_eq!(&want.recv(&mut ranks[0], 0, 1, tag), want);
    }
    writer.join().expect("the sender");
}

/// The bytes the ring carries for [`edge_sequence`] are, byte for
/// byte, each message's `write_frame` of its `to_frame`: the encoder
/// writing into the ring changes nothing on the wire.
#[test]
fn the_send_path_writes_exactly_the_frames_of_write_frame() {
    let (page, mut ranks) = local_world(2);
    let mut sender = ranks.pop().expect("rank 1");
    let (tag, bytes) = (Tag::user(6), 24);
    let sent = edge_sequence();
    let mut want = Vec::new();
    for m in &sent {
        write_frame(&mut want, tag.0, bytes, &m.to_frame()).expect("write to memory");
    }
    let writer = std::thread::spawn(move || {
        for m in sent {
            m.send(&mut sender, 0, MsgInfo { src: 1, tag, bytes });
        }
    });
    // Rank 0's side, by hand: wait for the ring to be opened (its dial),
    // then read it to the expected length, waking the writer when a read
    // frees room it waits for.
    let me = page.slot(0);
    me.bell().wait(Until::Forever, || (me.dials() > 0).then_some(()));
    let mut ring = RingReader::open(&page, 0, 1).expect("map the ring");
    let mut got = vec![0u8; want.len()];
    let mut have = 0;
    while have < want.len() {
        have += me
            .bell()
            .wait(Until::Forever, || match ring.read(&mut got[have..]) {
                Ok(n) => {
                    if ring.take_wake() {
                        page.slot(1).ring();
                    }
                    Some(n)
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
                Err(e) => panic!("ring read: {e}"),
            })
            .expect("a wait without a deadline ends with bytes");
    }
    writer.join().expect("the sender");
    assert!(got == want, "the ring's bytes differ from write_frame's");
}
