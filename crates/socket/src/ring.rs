//! The data path of one directed socket link: a single-producer,
//! single-consumer byte ring in shared memory (DESIGN.md §16.3).
//!
//! Every ring of a world lies in the world file ([`crate::page`]): its
//! header among the file's headers, its [`RING_BYTES`] of data in a
//! data area of its own. The sender opens the ring on its first send to
//! a rank ([`RingWriter`]'s `open` claims the header and maps the data
//! area), and the receiver maps the same data area once it sees the
//! header open. A frame is sent by writing it into the ring where it
//! will be read (the encoder writes there, behind the frame header) and
//! publishing it once, before `send` returns. The bytes in the ring are
//! exactly the frame stream of §16.2, which
//! [`FrameReader`](crate::frame::FrameReader) parses: copied out, as from
//! any `Read`, or where they lie, through `RingReader::lend`.
//!
//! **One writer per ring.** A writer claims its ring by swapping the
//! header's `open` flag; a second claim is an error, not a second writer.
//!
//! ## The mirror
//!
//! Each side maps the data area twice, back to back, so the
//! [`RING_BYTES`] from any offset in it are one run of memory, and the
//! reader lends any published bytes as one slice, wherever they wrap;
//! the writer copies any piece in with one copy through it too. A ring
//! with both ends in one process ([`local_pair`]:
//! tests and the model checker) lies in a [`Page::local`], whose headers
//! are on the heap, where shadow atomics can live, and whose data areas
//! are a private `memfd`, so both kinds run the same code.
//!
//! ## Positions
//!
//! `head` (the writer's) and `tail` (the reader's) are monotone byte
//! positions; a position's offset in the data area is the position
//! modulo [`RING_BYTES`], and `head - tail` bytes are unread. Each side
//! copies first and then publishes its position with a `SeqCst` store,
//! and reads the other side's position with a `SeqCst` load before it
//! touches the data, so the bytes a load admits are the bytes the other
//! side finished with.
//!
//! **Restart at the front.** When the writer finds the ring empty
//! (`tail == head`) away from offset 0, it moves to the next multiple
//! of [`RING_BYTES`] instead of writing on from where it was: it stores
//! that position as `front`, then publishes bytes behind it. The reader
//! loads `front` after `head` and jumps its `tail` forward to it; the
//! gap was never written. The writer restarts only when everything it
//! published has been read and released, so no read can be under way
//! in the gap or anywhere else, and a second restart needs the reader
//! to have consumed past the first — so the `front` a reader loads is the one
//! that goes with the `head` it loaded. A stream whose reader keeps up
//! therefore touches the first page or two of the ring, not all of it.
//!
//! ## Wake-ups
//!
//! A rank waits for mail on its own bell ([`crate::page`]), which the
//! writer rings after a publish. Room is the one per-ring wait: a writer
//! raises `writer_parked` and looks at `tail` again ([`RingWriter::park`])
//! before it parks on its bell, and a reader that frees space
//! (`RingReader::release`) claims the flag and, told so by
//! [`RingReader::take_wake`], rings the writer's bell. Bytes the reader
//! has consumed but still lends out are not free space until their
//! release, so a reader that waits for the rest of a frame in the ring
//! releases everything before it first.

use std::io::{self, Read};
use std::ptr::NonNull;
use std::sync::Arc;

use native::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};

use crate::page::Page;
use crate::sys;

/// Capacity of every ring's data area: a constant, not a setting, about
/// the size of a Unix socket's default send buffer (208 KiB), so a link
/// holds as much in flight as a socket would. A frame larger than the
/// free space is published in pieces; one of at most this size can be
/// whole in the ring, and is read where it lies.
pub const RING_BYTES: usize = 256 << 10;
const RING: u64 = RING_BYTES as u64;

/// A header field on a cache line of its own.
#[repr(C, align(64))]
struct Line<T>(T);

/// A ring's shared header. In a fresh world file every byte is zero,
/// which is exactly its initial state: not open, empty, nobody parked.
#[repr(C)]
pub(crate) struct Header {
    /// One past the last byte the writer has published.
    head: Line<AtomicU64>,
    /// Where the writer last restarted at the front (a multiple of
    /// [`RING_BYTES`]); bytes between an older `tail` and it were never
    /// written.
    front: Line<AtomicU64>,
    /// One past the last byte the reader has consumed.
    tail: Line<AtomicU64>,
    writer_parked: Line<AtomicBool>,
    /// Claimed by the ring's one writer.
    open: Line<AtomicBool>,
}

impl Header {
    pub(crate) fn new() -> Header {
        Header {
            head: Line(AtomicU64::new(0)),
            front: Line(AtomicU64::new(0)),
            tail: Line(AtomicU64::new(0)),
            writer_parked: Line(AtomicBool::new(false)),
            open: Line(AtomicBool::new(false)),
        }
    }

    /// Whether a writer has claimed the ring.
    pub(crate) fn is_open(&self) -> bool {
        self.open.0.load(SeqCst)
    }
}

/// One ring as this process sees it: its header in the world file's
/// front, and its data area mapped twice, back to back
/// (`sys::map_mirrored`), so the [`RING_BYTES`] from any offset in it are
/// one run of memory: the reader lends any published bytes as one slice.
struct Ring {
    header: NonNull<Header>,
    data: NonNull<u8>,
    /// Keeps the header alive.
    _page: Arc<Page>,
}

// SAFETY: the header is atomics only, the data area is shared between
// exactly one writer and one reader, whose byte ranges the position
// protocol keeps apart (module docs), and the page is `Send + Sync`.
unsafe impl Send for Ring {}
// SAFETY: as above.
unsafe impl Sync for Ring {}

impl Ring {
    /// Map the ring from `src` to `dst` of `page`.
    fn open(page: &Arc<Page>, dst: usize, src: usize) -> io::Result<Ring> {
        let data = page.map_ring(dst, src)?;
        let header = NonNull::from(page.header(dst, src));
        Ok(Ring { header, data, _page: Arc::clone(page) })
    }

    fn header(&self) -> &Header {
        // SAFETY: the page `self` holds keeps it valid, and it is only
        // ever shared.
        unsafe { self.header.as_ref() }
    }

    /// Where the `len` bytes from position `at` on start in the data
    /// area. Positions come from another process, so the bound that keeps
    /// those bytes inside the mapping is checked here, whatever they say.
    fn span(&self, at: u64, len: usize) -> *mut u8 {
        assert!(len <= RING_BYTES, "a span larger than the ring");
        // SAFETY: the offset is below `RING_BYTES`, and the data area is
        // followed by its mirror, so `[offset, offset + len)` lies inside
        // the mapping.
        unsafe { self.data.as_ptr().add((at % RING) as usize) }
    }

    /// Copy `src` into the data area from position `at` on: one copy,
    /// through the mirror wherever it wraps.
    ///
    /// # Safety
    /// Only the writer calls this, and only on positions the reader is
    /// not reading: `[at, at + src.len())` is free space.
    #[inline]
    unsafe fn copy_in(&self, at: u64, src: &[u8]) {
        // SAFETY: `span` bounds the range inside the mapping, and the
        // caller guarantees nobody reads it meanwhile.
        unsafe { std::ptr::copy_nonoverlapping(src.as_ptr(), self.span(at, src.len()), src.len()) };
    }

    /// The `len` bytes from position `at` on, as one slice.
    ///
    /// # Safety
    /// Only the reader calls this, and only on published bytes it has not
    /// released: the writer does not touch them while the slice lives.
    unsafe fn bytes(&self, at: u64, len: usize) -> &[u8] {
        // SAFETY: `span` bounds the range inside the mapping, which lives
        // as long as `self`; the caller guarantees the bytes stay put.
        unsafe { std::slice::from_raw_parts(self.span(at, len), len) }
    }
}

impl Drop for Ring {
    fn drop(&mut self) {
        // SAFETY: the mapping `open` made; the last reference to it goes
        // with `self`.
        unsafe { sys::unmap(self.data, 2 * RING_BYTES) };
    }
}

/// Both ends of a fresh ring in this process, in a world of one rank on
/// the heap: for tests, and for the model checker, whose shadow atomics
/// cannot live in a shared mapping.
#[doc(hidden)]
pub fn local_pair() -> (RingWriter, RingReader) {
    let page = Arc::new(Page::local(1));
    let writer = RingWriter::open(&page, 0, 0).expect("map a local ring");
    (writer, RingReader::open(&page, 0, 0).expect("map a local ring"))
}

/// The writing end of a ring.
///
/// A frame is written in place and published once: [`RingWriter::start`]
/// gives the position it starts at and how far the free space reaches,
/// [`RingWriter::limit`] looks again at how far it reaches,
/// [`RingWriter::put_at`] copies bytes in under that limit, and [`RingWriter::publish_to`] hands everything up to a
/// position to the reader. Bytes written but not published are the
/// writer's alone: the reader stops at `head`. [`RingWriter::publish`]
/// is the four in a row, for a frame that is already in one buffer.
pub struct RingWriter {
    ring: Ring,
    /// This side's copy of `head`.
    head: u64,
    /// This side's copy of `front`.
    front: u64,
    /// The last limit [`RingWriter::start`] or [`RingWriter::limit`]
    /// gave: no write reaches past it.
    limit: u64,
}

impl RingWriter {
    /// Claim the ring from `src` to `dst` of `page` as its one writer,
    /// and map it. A ring that already has a writer is refused.
    pub(crate) fn open(page: &Arc<Page>, dst: usize, src: usize) -> io::Result<RingWriter> {
        if page.header(dst, src).open.0.swap(true, SeqCst) {
            let msg = format!("the ring from rank {src} to rank {dst} already has a writer");
            return Err(io::Error::new(io::ErrorKind::AlreadyExists, msg));
        }
        Ok(RingWriter { ring: Ring::open(page, dst, src)?, head: 0, front: 0, limit: 0 })
    }

    /// Free bytes, given the reader's published `tail`. A `tail` out of
    /// order (a peer's bug) reads as a full ring, never as more room.
    fn free(&self, tail: u64) -> usize {
        let unread = self.head.checked_sub(tail.max(self.front)).filter(|&u| u <= RING);
        let unread = unread.unwrap_or(RING);
        RING_BYTES - unread as usize
    }

    /// Begin a frame, with everything written so far published: restart
    /// at the front if the ring is empty away from offset 0 (module
    /// docs). Returns the position the frame starts at, `head`, and the
    /// position the free space reaches, both from one load of `tail`.
    #[inline]
    pub fn start(&mut self) -> (u64, u64) {
        let h = self.ring.header();
        let tail = h.tail.0.load(SeqCst);
        if tail.max(self.front) == self.head && !self.head.is_multiple_of(RING) {
            self.front = self.head.next_multiple_of(RING);
            self.head = self.front;
            h.front.0.store(self.front, SeqCst);
        }
        self.limit = self.head + self.free(tail) as u64;
        (self.head, self.limit)
    }

    /// One more load of the reader's `tail`, for a frame that outgrew
    /// the limit [`RingWriter::start`] gave: the position the free space
    /// reaches, `head` when the ring is full. A `tail` out of order reads
    /// as a full ring.
    #[inline]
    pub fn limit(&mut self) -> u64 {
        self.limit = self.head + self.free(self.ring.header().tail.0.load(SeqCst)) as u64;
        self.limit
    }

    /// Copy `bytes` into the ring from position `at` on, unpublished:
    /// one copy, through the mirror wherever it wraps. The bytes must lie
    /// between `head` and the last limit.
    #[inline]
    pub fn put_at(&mut self, at: u64, bytes: &[u8]) {
        assert!(
            self.head <= at && at + bytes.len() as u64 <= self.limit,
            "a write outside the free space"
        );
        // SAFETY: `[at, at + len)` lies in `[head, limit)`, free space:
        // `limit` came from a `tail` the reader published, and its `tail`
        // only grows.
        unsafe { self.ring.copy_in(at, bytes) };
    }

    /// Publish everything written up to position `at`, from `head` on.
    /// Returns whether that was anything; if so, the caller then rings
    /// the reader's slot. (`at` may lie past the last
    /// [`RingWriter::limit`] when the reader's `tail` has gone out of
    /// order since the bytes were written: they were free space then.)
    #[inline]
    pub fn publish_to(&mut self, at: u64) -> bool {
        assert!(self.head <= at && at - self.head <= RING, "a publish of more than the ring");
        if at == self.head {
            return false;
        }
        self.head = at;
        self.ring.header().head.0.store(at, SeqCst);
        true
    }

    /// Copy as much of `bytes` as fits into the ring and publish it;
    /// returns how much that was (0 only when the ring is full or
    /// `bytes` empty). The caller then rings the reader's slot.
    pub fn publish(&mut self, bytes: &[u8]) -> usize {
        if bytes.is_empty() {
            return 0;
        }
        let (at, limit) = self.start();
        let n = bytes.len().min((limit - at) as usize);
        self.put_at(at, &bytes[..n]);
        self.publish_to(at + n as u64);
        n
    }

    /// Before waiting for room, with everything written published: raise
    /// `writer_parked`, then look at the reader's `tail` again. `true`:
    /// the ring is still full, and the
    /// reader that frees space will claim the wake. `false`: room
    /// appeared meanwhile; do not sleep. Either way call
    /// [`RingWriter::unpark`] once awake.
    pub fn park(&self) -> bool {
        let h = self.ring.header();
        h.writer_parked.0.store(true, SeqCst);
        self.free(h.tail.0.load(SeqCst)) == 0
    }

    /// Lower `writer_parked` after a wait.
    pub fn unpark(&self) {
        self.ring.header().writer_parked.0.store(false, SeqCst);
    }
}

/// The reading end of a ring. It lends the published bytes where they
/// lie (`RingReader::lend`), marks a prefix of them read
/// (`RingReader::consume`) and hands that back to the writer
/// (`RingReader::release`); as a `Read` it does all three, copying
/// out. No bytes are `WouldBlock`, and EOF comes only once
/// [`RingReader::close`] has been called *and* the ring is drained —
/// the writer's process has gone, after it published everything it
/// sent.
pub struct RingReader {
    ring: Ring,
    /// This side's copy of `tail`: one past the last byte consumed.
    tail: u64,
    /// The `tail` last stored in the header. The bytes from here to
    /// `tail` are consumed but may still be lent out: the writer keeps
    /// off them until `RingReader::release`.
    released: u64,
    /// `head` as the last `RingReader::lend` loaded it.
    head: u64,
    closed: bool,
    /// A release claimed the parked writer's wake, and it has not been
    /// taken with [`RingReader::take_wake`] yet.
    wake_owed: bool,
}

impl RingReader {
    /// Map the ring from `src` to `dst` of `page` to read it. A ring has
    /// one reader, the receiving rank's links; outside this crate this is
    /// for tests that read a ring's bytes as they are.
    #[doc(hidden)]
    pub fn open(page: &Arc<Page>, dst: usize, src: usize) -> io::Result<RingReader> {
        let ring = Ring::open(page, dst, src)?;
        Ok(RingReader { ring, tail: 0, released: 0, head: 0, closed: false, wake_owed: false })
    }

    /// The writer has gone: once the ring is drained, reads are EOF.
    pub fn close(&mut self) {
        self.closed = true;
    }

    /// Whether [`RingReader::close`] has been called.
    #[inline]
    pub(crate) fn is_closed(&self) -> bool {
        self.closed
    }

    /// The published, unconsumed bytes, as one slice, from one load of
    /// the writer's `head`: `WouldBlock` if there are none, and empty
    /// only at EOF. They stay valid until the next call.
    #[inline]
    pub(crate) fn lend(&mut self) -> io::Result<&[u8]> {
        let h = self.ring.header();
        let head = h.head.0.load(SeqCst);
        if head == self.tail {
            return if self.closed { Ok(&[]) } else { Err(io::ErrorKind::WouldBlock.into()) };
        }
        // A restart at the front: the gap up to it was never written. It
        // lies behind `head`, so there is still at least a byte to read.
        let tail = self.tail.max(h.front.0.load(SeqCst));
        let unread =
            head.checked_sub(tail).filter(|u| (1..=RING).contains(u)).ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, "ring positions out of order")
            })?;
        (self.tail, self.head) = (tail, head);
        // SAFETY: `[tail, head)` is published (the `head` load above) and
        // not released to the writer (that takes a `tail` store, which
        // needs `&mut self`, so not while the slice lives).
        Ok(unsafe { self.ring.bytes(tail, unread as usize) })
    }

    /// Mark the first `n` bytes of the last `RingReader::lend` read, and
    /// return them: they stay where they are, unreleased, until
    /// `RingReader::release`.
    #[inline]
    pub(crate) fn consume(&mut self, n: usize) -> &[u8] {
        let at = self.tail;
        assert!(self.head - at >= n as u64, "consumed more than was lent");
        self.tail += n as u64;
        // SAFETY: as in `lend`: published (the assert) and not released.
        unsafe { self.ring.bytes(at, n) }
    }

    /// Hand every consumed byte back to the writer: store `tail`, and
    /// claim the wake of a writer parked for room.
    #[inline]
    pub(crate) fn release(&mut self) {
        if self.released == self.tail {
            return;
        }
        self.released = self.tail;
        let h = self.ring.header();
        h.tail.0.store(self.tail, SeqCst);
        let parked = &h.writer_parked.0;
        if parked.load(SeqCst) && parked.swap(false, SeqCst) {
            self.wake_owed = true;
        }
    }

    /// Release what has been consumed, then say whether a release since
    /// the last call claimed the parked writer's wake; the caller then
    /// rings the writer's slot.
    #[inline]
    pub fn take_wake(&mut self) -> bool {
        self.release();
        std::mem::take(&mut self.wake_owed)
    }
}

impl Read for RingReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let have = self.lend()?;
        let n = have.len().min(buf.len());
        buf[..n].copy_from_slice(&have[..n]);
        self.consume(n);
        self.release();
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Positions in the shared header come from the other process. Out of
    /// order, they are an error at the reader and a full ring at the
    /// writer — never a copy outside the data area.
    #[test]
    fn positions_out_of_order_are_refused() {
        let (mut writer, mut reader) = local_pair();
        assert_eq!(writer.publish(&[7; 10]), 10);
        let h = writer.ring.header();
        h.head.0.store(RING + 11, SeqCst);
        let mut buf = vec![0u8; 2 * RING_BYTES];
        let err = reader.read(&mut buf).expect_err("more unread bytes than the ring holds");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        h.head.0.store(10, SeqCst);
        h.tail.0.store(RING + 10, SeqCst);
        assert_eq!(writer.publish(&[7; 10]), 0, "a tail past the head is no room");
    }
}
