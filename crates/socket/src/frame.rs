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
//! A frame costs **one** `write` to send — the sender builds prefix,
//! header and payload in one buffer (`begin_frame` / `finish_frame`)
//! — and, through a [`FrameReader`], far less than one `read` to receive:
//! each `read` takes whatever the kernel has and every complete frame in
//! it is parsed out of the reader's buffer.
//!
//! All functions here speak `io::Result`: a malformed peer produces an
//! `InvalidData` error at the reader, never a panic inside the codec.

use std::io::{self, Read, Write};
use std::ops::Range;

use mpistream::MAX_FRAME_BYTES;

/// Connection preamble magic.
pub const MAGIC: [u8; 4] = *b"MPWS";
/// Protocol version byte; bumped on any frame-layout change.
pub const VERSION: u8 = 1;
/// Fixed frame header past the length prefix: tag + modelled bytes.
pub const HEADER_BYTES: usize = 16;
/// Everything a frame carries in front of its payload: the `u32` length
/// prefix plus the header. Also the size of the smallest legal frame.
pub const FRAME_OVERHEAD: usize = 4 + HEADER_BYTES;
/// Capacity of a [`FrameReader`]'s buffer: what one `read` can take from
/// the kernel, and the largest frame that is parsed out of the buffer
/// instead of getting its own allocation.
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

/// `read`, retrying `Interrupted`.
fn read_some(r: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    loop {
        match r.read(buf) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            other => return other,
        }
    }
}

/// The framing state machine, over a caller-owned buffer of at least
/// [`FRAME_OVERHEAD`] bytes whose unconsumed bytes are `buf[win]`.
///
/// Invariants: `buf[win]` always starts at a frame boundary; every
/// `read` lands behind it (after the tail has been moved to the front),
/// and is only issued while the frame at the front is incomplete — so it
/// always has room, because a frame that does not fit the buffer leaves
/// through its own allocation first. The length prefix is validated as
/// soon as its four bytes are in, before any allocation and before
/// waiting for more bytes. EOF is clean (`Ok(None)`) only with `win`
/// empty, i.e. when not one byte of a frame has been consumed.
fn next_frame(
    r: &mut impl Read,
    buf: &mut [u8],
    win: &mut Range<usize>,
) -> io::Result<Option<(u64, u64, Vec<u8>)>> {
    loop {
        let have = &buf[win.clone()];
        if let Some(prefix) = have.get(..4) {
            let len = u32::from_le_bytes(prefix.try_into().expect("exact slice")) as usize;
            if !(HEADER_BYTES..=MAX_FRAME_BYTES).contains(&len) {
                return Err(invalid(format!(
                    "frame length {len} outside [{HEADER_BYTES}, {MAX_FRAME_BYTES}]"
                )));
            }
            if let Some(body) = have.get(FRAME_OVERHEAD..) {
                let tag = u64::from_le_bytes(have[4..12].try_into().expect("exact slice"));
                let bytes = u64::from_le_bytes(have[12..20].try_into().expect("exact slice"));
                let want = len - HEADER_BYTES;
                if let Some(payload) = body.get(..want) {
                    // Whole frame buffered: the payload's one copy.
                    let payload = payload.to_vec();
                    win.start += FRAME_OVERHEAD + want;
                    return Ok(Some((tag, bytes, payload)));
                }
                if FRAME_OVERHEAD + want > buf.len() {
                    // Larger than the buffer: an exact allocation takes
                    // what is buffered, the rest comes straight from the
                    // reader.
                    let mut payload = vec![0u8; want];
                    let (head, rest) = payload.split_at_mut(body.len());
                    head.copy_from_slice(body);
                    *win = 0..0;
                    r.read_exact(rest)?;
                    return Ok(Some((tag, bytes, payload)));
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
            return if at_boundary {
                Ok(None)
            } else {
                Err(io::Error::new(io::ErrorKind::UnexpectedEof, "link closed inside a frame"))
            };
        }
        win.end += n;
    }
}

/// Buffered frame reader for one inbound link: owns the reader and a
/// [`LINK_BUF_BYTES`] buffer (see `next_frame` for its invariants).
pub struct FrameReader<R> {
    inner: R,
    buf: Box<[u8]>,
    win: Range<usize>,
}

impl<R: Read> FrameReader<R> {
    /// Wrap `inner`, which must be positioned at a frame boundary.
    pub fn new(inner: R) -> FrameReader<R> {
        FrameReader { inner, buf: vec![0u8; LINK_BUF_BYTES].into_boxed_slice(), win: 0..0 }
    }

    /// The next frame as `(tag, modelled bytes, payload)`. `Ok(None)` is
    /// a clean end-of-stream (EOF exactly at a frame boundary); EOF
    /// anywhere inside a frame is an error, as is a length prefix below
    /// the header size or above [`MAX_FRAME_BYTES`]. After an error the
    /// link is out of sync and the reader must be dropped.
    pub fn next_frame(&mut self) -> io::Result<Option<(u64, u64, Vec<u8>)>> {
        next_frame(&mut self.inner, &mut self.buf, &mut self.win)
    }
}

/// Read one frame without consuming a byte past it (same contract as
/// [`FrameReader::next_frame`]), for callers that interleave frames with
/// other reads on `r`. This is the same state machine over a buffer of
/// exactly [`FRAME_OVERHEAD`] bytes: no `read` into it can reach past
/// the smallest legal frame, and any payload at all is "larger than the
/// buffer" and is read straight into its own allocation.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<(u64, u64, Vec<u8>)>> {
    let mut prefix = [0u8; FRAME_OVERHEAD];
    next_frame(r, &mut prefix, &mut (0..0))
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
