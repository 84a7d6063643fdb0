//! The framed connection protocol (DESIGN.md §16).
//!
//! Every directed link starts with a **preamble** identifying the
//! protocol and the sender, then carries a sequence of self-delimiting
//! **frames**:
//!
//! ```text
//! preamble:  [ MAGIC "MPWS" : 4B ][ VERSION : u8 ][ src rank : u32 LE ]
//! frame:     [ len : u32 LE ][ tag : u64 LE ][ bytes : u64 LE ][ payload ]
//! ```
//!
//! `len` counts everything after itself (16 header bytes + payload) and
//! is capped at [`MAX_FRAME_BYTES`], so a corrupt prefix is rejected
//! before any allocation. `tag` is the [`Tag`](mpistream::Tag) bit
//! pattern; `bytes` is the *modelled* wire size the sender declared
//! (what `MsgInfo::bytes` reports, kept distinct from the encoded
//! payload's physical size so fingerprints agree with the in-memory
//! backends). The payload is the [`Wire`](mpistream::Wire) encoding of
//! exactly one value.
//!
//! On a rank's link a frame costs **one copy** into the peer's
//! shared-memory ring ([`crate::ring`]) to send — the sender builds
//! prefix, header and payload in one buffer (`begin_frame` /
//! `finish_frame`) — and, through a [`FrameReader`] over the ring's
//! reading end, at most one to receive
//! ([`FrameReader::lend_frame`]). At a frame boundary the reader looks
//! at the ring first: a frame too large for its buffer but not for the
//! ring is waited for in the ring and, once whole, lent where it lies
//! there, with no copy at all. Anything else is a refill: the ring's
//! bytes, up to the buffer's size, are copied into the buffer, and every
//! complete frame in it is lent from there, where the receiving rank
//! decodes it. The preamble travels on the link's socket, with the
//! ring's descriptor beside it; [`write_frame`] and [`read_frame`] speak
//! the same format over any `Write` and `Read`.
//!
//! All functions here speak `io::Result`: a malformed peer produces an
//! `InvalidData` error at the reader, never a panic inside the codec.

use std::borrow::Cow;
use std::io::{self, Read, Write};
use std::ops::Range;
use std::os::unix::net::UnixStream;

use mpistream::MAX_FRAME_BYTES;

use crate::ring::{RingReader, RING_BYTES};

/// Connection preamble magic.
pub const MAGIC: [u8; 4] = *b"MPWS";
/// Protocol version byte; bumped on any change to the link protocol
/// (2: frames travel through a shared-memory ring whose descriptor
/// comes with the preamble; 3: wake-ups go through the world page's
/// futex doorbells, and the socket closes after the preamble).
pub const VERSION: u8 = 3;
/// Length of the connection preamble: magic, version, sender rank.
pub(crate) const PREAMBLE_BYTES: usize = 4 + 1 + 4;
/// Fixed frame header past the length prefix: tag + modelled bytes.
pub const HEADER_BYTES: usize = 16;
/// Everything a frame carries in front of its payload: the `u32` length
/// prefix plus the header. Also the size of the smallest legal frame.
pub const FRAME_OVERHEAD: usize = 4 + HEADER_BYTES;
/// Capacity of a [`FrameReader`]'s buffer: what one `read` can take from
/// its source, and the largest frame that is parsed out of the buffer.
/// A larger frame from a ring is lent where it lies in the ring, if it
/// fits the ring; from any other source, or larger than the ring, it
/// gets its own allocation.
pub const LINK_BUF_BYTES: usize = 64 << 10;

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Write the connection preamble for a link whose sender is world rank
/// `src`.
pub fn write_preamble(w: &mut impl Write, src: usize) -> io::Result<()> {
    w.write_all(&MAGIC)?;
    w.write_all(&[VERSION])?;
    w.write_all(&(src as u32).to_le_bytes())
}

/// Read and validate a connection preamble; returns the sender's world
/// rank.
pub fn read_preamble(r: &mut impl Read) -> io::Result<usize> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(invalid(format!("bad connection magic {magic:02x?}")));
    }
    let mut ver = [0u8; 1];
    r.read_exact(&mut ver)?;
    if ver[0] != VERSION {
        return Err(invalid(format!("protocol version {} (expected {VERSION})", ver[0])));
    }
    let mut src = [0u8; 4];
    r.read_exact(&mut src)?;
    Ok(u32::from_le_bytes(src) as usize)
}

/// Start a frame in `buf`: clear it and reserve the [`FRAME_OVERHEAD`]
/// bytes in front of the payload, which the caller then appends (the
/// [`Wire`](mpistream::Wire) encoder writes straight behind them).
pub(crate) fn begin_frame(buf: &mut Vec<u8>) {
    buf.clear();
    buf.resize(FRAME_OVERHEAD, 0);
}

/// Finish the frame started by [`begin_frame`]: check the size cap and
/// patch length prefix, tag and modelled byte count in place. Afterwards
/// `buf` is the frame exactly as it goes on the wire, ready for one
/// `write_all`. An oversize payload is `InvalidData` — reported before
/// the caller has written anything anywhere.
pub(crate) fn finish_frame(buf: &mut [u8], tag: u64, bytes: u64) -> io::Result<()> {
    assert!(buf.len() >= FRAME_OVERHEAD, "finish_frame on a buffer begin_frame did not start");
    let len = buf.len() - 4;
    if len > MAX_FRAME_BYTES {
        return Err(invalid(format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES} cap")));
    }
    buf[0..4].copy_from_slice(&(len as u32).to_le_bytes());
    buf[4..12].copy_from_slice(&tag.to_le_bytes());
    buf[12..20].copy_from_slice(&bytes.to_le_bytes());
    Ok(())
}

/// Write one frame: tag, modelled byte count, encoded payload — as one
/// buffer and one `write_all`, so a writer that accepts it whole sees a
/// single `write` call (short writes and `Interrupted` are `write_all`'s
/// to retry). The size cap is checked before anything is written.
pub fn write_frame(w: &mut impl Write, tag: u64, bytes: u64, payload: &[u8]) -> io::Result<()> {
    let mut buf = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
    begin_frame(&mut buf);
    buf.extend_from_slice(payload);
    finish_frame(&mut buf, tag, bytes)?;
    w.write_all(&buf)
}

fn eof_inside_a_frame() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "link closed inside a frame")
}

/// `read`, retrying `Interrupted`.
fn read_some(r: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    loop {
        match r.read(buf) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            other => return other,
        }
    }
}

/// The length a frame's four-byte prefix declares, checked against the
/// header size and [`MAX_FRAME_BYTES`].
#[inline]
fn frame_len(prefix: &[u8]) -> io::Result<usize> {
    let len = u32::from_le_bytes(prefix.try_into().expect("a four-byte prefix")) as usize;
    if !(HEADER_BYTES..=MAX_FRAME_BYTES).contains(&len) {
        return Err(invalid(format!(
            "frame length {len} outside [{HEADER_BYTES}, {MAX_FRAME_BYTES}]"
        )));
    }
    Ok(len)
}

/// Tag and modelled byte count of the frame whose first
/// [`FRAME_OVERHEAD`] bytes `frame` starts with.
#[inline]
fn header(frame: &[u8]) -> (u64, u64) {
    let tag = u64::from_le_bytes(frame[4..12].try_into().expect("exact slice"));
    let bytes = u64::from_le_bytes(frame[12..20].try_into().expect("exact slice"));
    (tag, bytes)
}

/// What a [`FrameReader`] reads from. Any `Read` serves as it is
/// (`impl Source for T {}`); a shared-memory ring also lends its unread
/// bytes, so a frame too large for the reader's buffer is parsed where
/// it lies in the ring.
pub trait Source: Read {
    /// The ring this source is, if it is one.
    fn ring(&mut self) -> Option<&mut RingReader> {
        None
    }
}

impl Source for RingReader {
    fn ring(&mut self) -> Option<&mut RingReader> {
        Some(self)
    }
}

impl Source for UnixStream {}

impl Source for &[u8] {}

/// A frame larger than the reader's buffer, being read straight into its
/// own allocation: its header, its payload, and how many payload bytes
/// have arrived so far.
struct Big {
    tag: u64,
    bytes: u64,
    payload: Vec<u8>,
    have: usize,
}

/// One frame as the state machine hands it out: tag, modelled byte
/// count, and the payload — borrowed from the buffer it was parsed out
/// of, or the frame's own allocation when it was larger than the buffer.
pub type LentFrame<'a> = (u64, u64, Cow<'a, [u8]>);

/// The framing state machine, over a caller-owned buffer of at least
/// [`FRAME_OVERHEAD`] bytes whose unconsumed bytes are `buf[win]`, and
/// the frame too large for it that is under way, if any.
///
/// Invariants: `buf[win]` always starts at a frame boundary; every
/// `read` lands behind it (after the tail has been moved to the front),
/// and is only issued while the frame at the front is incomplete — so it
/// always has room, because a frame that does not fit the buffer leaves
/// through its own allocation (`big`) first. The length prefix is
/// validated as soon as its four bytes are in, before any allocation and
/// before waiting for more bytes. EOF is clean (`Ok(None)`) only with
/// `win` empty and no `big`, i.e. when not one byte of a frame has been
/// consumed. Any error from `r` — `WouldBlock` from a non-blocking
/// source included — leaves all three consistent, so the next call
/// resumes where this one stopped. A frame that fits the buffer is lent
/// in place: its bytes stay valid until the next call.
fn next_frame<'a>(
    r: &mut impl Read,
    buf: &'a mut [u8],
    win: &mut Range<usize>,
    big: &mut Option<Big>,
) -> io::Result<Option<LentFrame<'a>>> {
    loop {
        if let Some(b) = big {
            while b.have < b.payload.len() {
                match read_some(r, &mut b.payload[b.have..])? {
                    0 => return Err(eof_inside_a_frame()),
                    n => b.have += n,
                }
            }
            let Big { tag, bytes, payload, .. } = big.take().expect("matched above");
            return Ok(Some((tag, bytes, Cow::Owned(payload))));
        }
        let have = &buf[win.clone()];
        if let Some(prefix) = have.get(..4) {
            let len = frame_len(prefix)?;
            if let Some(body) = have.get(FRAME_OVERHEAD..) {
                let (tag, bytes) = header(have);
                let want = len - HEADER_BYTES;
                if body.len() >= want {
                    // Whole frame buffered: lent where it lies.
                    let at = win.start + FRAME_OVERHEAD;
                    win.start = at + want;
                    return Ok(Some((tag, bytes, Cow::Borrowed(&buf[at..at + want]))));
                }
                if FRAME_OVERHEAD + want > buf.len() {
                    // Larger than the buffer: an exact allocation takes
                    // what is buffered, the rest comes straight from the
                    // reader.
                    let mut payload = vec![0u8; want];
                    payload[..body.len()].copy_from_slice(body);
                    *big = Some(Big { tag, bytes, payload, have: body.len() });
                    *win = 0..0;
                    continue;
                }
            }
        }
        // The frame at the front is incomplete (or absent): move the
        // tail to the front and take everything the reader has.
        let at_boundary = win.start == win.end;
        if win.start > 0 {
            buf.copy_within(win.clone(), 0);
            *win = 0..win.len();
        }
        let n = read_some(r, &mut buf[win.end..])?;
        if n == 0 {
            return if at_boundary { Ok(None) } else { Err(eof_inside_a_frame()) };
        }
        win.end += n;
    }
}

/// A lent frame's payload as its own `Vec`: a copy when it was lent from
/// the buffer, the frame's allocation when it had one.
fn owned((tag, bytes, payload): LentFrame<'_>) -> (u64, u64, Vec<u8>) {
    (tag, bytes, payload.into_owned())
}

/// What a ring holds at a frame boundary, as [`ring_front`] finds it.
enum Front {
    /// A frame larger than the buffer but not than the ring, whole in the
    /// ring: `len` bytes, length prefix and header included.
    Whole { tag: u64, bytes: u64, len: usize },
    /// The first `n` bytes the ring held, copied into the buffer.
    Buffered(usize),
    /// The ring is closed and drained.
    End,
}

/// At a frame boundary on a ring: release everything consumed before,
/// then look at the frame at the front where it lies, from one load of
/// the ring's `head`. A frame larger than `buf` but not than the ring is
/// lent from the ring once it is whole, and until then waited for there
/// (`WouldBlock`), as is a length prefix not yet whole: every byte
/// before it has been released, so the writer has room for the rest.
/// Anything else is a refill, copied into `buf` as a `read` would copy
/// it. A closed ring is not a wait: a partial frame in it is
/// `UnexpectedEof`. The length prefix, tag and byte count are read into
/// locals once; the caller cuts the frame from the ring by `len` alone.
#[inline]
fn ring_front(ring: &mut RingReader, buf: &mut [u8]) -> io::Result<Front> {
    ring.release();
    let closed = ring.is_closed();
    let have = ring.lend()?;
    let partial = || if closed { eof_inside_a_frame() } else { io::ErrorKind::WouldBlock.into() };
    let Some(prefix) = have.get(..4) else {
        return if have.is_empty() { Ok(Front::End) } else { Err(partial()) };
    };
    let len = 4 + frame_len(prefix)?;
    if len <= buf.len() || len > RING_BYTES {
        let n = have.len().min(buf.len());
        buf[..n].copy_from_slice(&have[..n]);
        ring.consume(n);
        ring.release();
        return Ok(Front::Buffered(n));
    }
    if have.len() < len {
        return Err(partial());
    }
    let (tag, bytes) = header(have);
    Ok(Front::Whole { tag, bytes, len })
}

/// Buffered frame reader for one inbound link: owns the source, a
/// [`LINK_BUF_BYTES`] buffer and the state of a frame too large for it
/// (see `next_frame` for the invariants). At a frame boundary on a ring
/// it looks at the ring first (`ring_front`): a frame too large for the
/// buffer but not for the ring is lent from the ring, and its bytes go
/// back to the writer when the next call starts or
/// [`RingReader::take_wake`] is called, whichever comes first.
pub struct FrameReader<R> {
    inner: R,
    buf: Box<[u8]>,
    win: Range<usize>,
    big: Option<Big>,
}

impl<R: Source> FrameReader<R> {
    /// Wrap `inner`, which must be positioned at a frame boundary.
    pub fn new(inner: R) -> FrameReader<R> {
        let buf = vec![0u8; LINK_BUF_BYTES].into_boxed_slice();
        FrameReader { inner, buf, win: 0..0, big: None }
    }

    /// The next frame, lent: a frame of up to [`LINK_BUF_BYTES`] is a
    /// slice of the reader's buffer, valid until the next call, and
    /// nothing is allocated or copied for it; so is a larger one that
    /// starts a refill from a ring and fits it, as a slice of the ring;
    /// any other comes in the allocation it was read into. `Ok(None)` is
    /// a clean end-of-stream
    /// (EOF exactly at a frame boundary); EOF anywhere inside a frame is
    /// an error, as is a length prefix below the header size or above
    /// [`MAX_FRAME_BYTES`]. After such an error the link is out of sync
    /// and the reader must be dropped. A `WouldBlock` from a
    /// non-blocking `inner` is not one of them: the bytes read so far
    /// stay buffered, and the next call carries on with the frame it was
    /// in.
    pub fn lend_frame(&mut self) -> io::Result<Option<LentFrame<'_>>> {
        if self.win.is_empty() && self.big.is_none() {
            if let Some(ring) = self.inner.ring() {
                match ring_front(ring, &mut self.buf)? {
                    Front::Whole { tag, bytes, len } => {
                        let frame = self.inner.ring().expect("a ring above").consume(len);
                        return Ok(Some((tag, bytes, Cow::Borrowed(&frame[FRAME_OVERHEAD..]))));
                    }
                    Front::Buffered(n) => self.win = 0..n,
                    Front::End => return Ok(None),
                }
            }
        }
        next_frame(&mut self.inner, &mut self.buf, &mut self.win, &mut self.big)
    }

    /// [`FrameReader::lend_frame`], with the payload in a `Vec` of its
    /// own.
    pub fn next_frame(&mut self) -> io::Result<Option<(u64, u64, Vec<u8>)>> {
        Ok(self.lend_frame()?.map(owned))
    }

    /// The wrapped reader. Bytes read from it directly never reach the
    /// frame reader.
    pub fn get_mut(&mut self) -> &mut R {
        &mut self.inner
    }
}

/// Read one frame without consuming a byte past it (same contract as
/// [`FrameReader::next_frame`], except that a frame's state lives for
/// one call only, so `r` must block), for callers that interleave frames
/// with other reads on `r`. This is the same state machine over a buffer of
/// exactly [`FRAME_OVERHEAD`] bytes: no `read` into it can reach past
/// the smallest legal frame, and any payload at all is "larger than the
/// buffer" and is read straight into its own allocation.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<(u64, u64, Vec<u8>)>> {
    let mut prefix = [0u8; FRAME_OVERHEAD];
    Ok(next_frame(r, &mut prefix, &mut (0..0), &mut None)?.map(owned))
}

/// Write a bare length-prefixed blob (the control-plane result frames).
pub fn write_blob(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(invalid(format!("blob of {} bytes exceeds the cap", payload.len())));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// Read a bare length-prefixed blob.
pub fn read_blob(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len4 = [0u8; 4];
    r.read_exact(&mut len4)?;
    let len = u32::from_le_bytes(len4) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(invalid(format!("blob length {len} exceeds the cap")));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips_through_a_buffer() {
        let mut buf = Vec::new();
        write_preamble(&mut buf, 7).unwrap();
        write_frame(&mut buf, 0xABCD, 64, &[1, 2, 3]).unwrap();
        write_frame(&mut buf, 9, 0, &[]).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_preamble(&mut r).unwrap(), 7);
        assert_eq!(read_frame(&mut r).unwrap(), Some((0xABCD, 64, vec![1, 2, 3])));
        assert_eq!(read_frame(&mut r).unwrap(), Some((9, 0, vec![])));
        assert_eq!(read_frame(&mut r).unwrap(), None); // clean EOF
    }

    #[test]
    fn truncated_and_oversized_frames_are_io_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, 8, &[5; 10]).unwrap();
        buf.pop(); // EOF mid-frame
        assert!(read_frame(&mut &buf[..]).is_err());

        let huge = (MAX_FRAME_BYTES as u32 + 1).to_le_bytes();
        assert!(read_frame(&mut &huge[..]).is_err());
        let tiny = 3u32.to_le_bytes(); // below the header size
        assert!(read_frame(&mut &tiny[..]).is_err());
    }

    #[test]
    fn bad_preamble_is_rejected() {
        let mut buf = Vec::new();
        write_preamble(&mut buf, 1).unwrap();
        buf[0] = b'X';
        assert!(read_preamble(&mut &buf[..]).is_err());
        let mut buf2 = Vec::new();
        write_preamble(&mut buf2, 1).unwrap();
        buf2[4] = VERSION + 1;
        assert!(read_preamble(&mut &buf2[..]).is_err());
    }
}
