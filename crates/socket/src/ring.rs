//! The data path of one directed socket link: a single-producer,
//! single-consumer byte ring in shared memory (DESIGN.md §16.3).
//!
//! The sending rank creates the ring (a `memfd` of one header page plus
//! [`RING_BYTES`] of data) and passes its descriptor to the receiving
//! rank with the connection preamble; both map it. A frame is sent by
//! copying it into the ring and publishing it, before `send` returns.
//! The bytes in the ring are exactly the frame stream of §16.2, which
//! [`FrameReader`](crate::frame::FrameReader) parses: copied out, as from
//! any `Read`, or where they lie, through `RingReader::lend`.
//!
//! ## The mirror
//!
//! Each side maps the data area twice, back to back (the file once, and
//! its data area again right behind it), so the [`RING_BYTES`] from any
//! offset in it are one run of memory, and the reader lends any
//! published bytes as one slice, wherever they wrap. (The writer still
//! copies a piece that wraps in two parts: see `Ring::copy_in`.) A ring
//! with both ends in one process ([`local_pair`]: tests and the model
//! checker) keeps its header on the heap, where shadow atomics can live,
//! and mirrors a private `memfd` for its data area, so both kinds run
//! the same code.
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

use std::fs::File;
use std::io::{self, Read};
use std::os::fd::{AsFd, BorrowedFd, OwnedFd};
use std::ptr::NonNull;
use std::sync::Arc;

use native::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};

use crate::sys;

/// Capacity of every ring's data area: a constant, not a setting, about
/// the size of a Unix socket's default send buffer (208 KiB), so a link
/// holds as much in flight as a socket would. A frame larger than the
/// free space is published in pieces; one of at most this size can be
/// whole in the ring, and is read where it lies.
pub const RING_BYTES: usize = 256 << 10;
const RING: u64 = RING_BYTES as u64;
/// The header has the shared file's first page to itself; the data area
/// follows it.
const DATA_OFFSET: usize = 4096;
const MAP_BYTES: usize = DATA_OFFSET + RING_BYTES;

/// A header field on a cache line of its own.
#[repr(C, align(64))]
struct Line<T>(T);

/// The ring's shared header. In a fresh `memfd` every byte is zero,
/// which is exactly its initial state: empty, nobody parked.
#[repr(C)]
struct Header {
    /// One past the last byte the writer has published.
    head: Line<AtomicU64>,
    /// Where the writer last restarted at the front (a multiple of
    /// [`RING_BYTES`]); bytes between an older `tail` and it were never
    /// written.
    front: Line<AtomicU64>,
    /// One past the last byte the reader has consumed.
    tail: Line<AtomicU64>,
    writer_parked: Line<AtomicBool>,
}

impl Header {
    fn new() -> Header {
        Header {
            head: Line(AtomicU64::new(0)),
            front: Line(AtomicU64::new(0)),
            tail: Line(AtomicU64::new(0)),
            writer_parked: Line(AtomicBool::new(false)),
        }
    }
}

const _: () = assert!(std::mem::size_of::<Header>() <= DATA_OFFSET);

/// One ring as this process sees it. The data area is mapped twice,
/// back to back (`sys::map_mirrored`), so the [`RING_BYTES`] from any
/// offset in it are one run of memory: the reader lends any published
/// bytes as one slice.
struct Ring {
    header: NonNull<Header>,
    data: NonNull<u8>,
    /// The mapping to undo on drop: where it starts, and its length.
    mapping: (NonNull<u8>, usize),
    /// A local ring's header, leaked from a `Box`; `None` when the
    /// header lies in the mapping.
    heap_header: Option<NonNull<Header>>,
}

// SAFETY: the header is atomics only, and the data area is shared
// between exactly one writer and one reader, whose byte ranges the
// position protocol keeps apart (module docs).
unsafe impl Send for Ring {}
// SAFETY: as above.
unsafe impl Sync for Ring {}

impl Ring {
    /// Map a ring's shared file, its data area mirrored. Only a std build
    /// maps one: the shadow atomics of a `--cfg schedcheck` build are not
    /// valid as shared bytes, and the models use [`local_pair`].
    fn map(fd: BorrowedFd<'_>) -> io::Result<Ring> {
        let at = sys::map_mirrored(fd, MAP_BYTES, RING_BYTES)?;
        // SAFETY: the mapping is page-aligned and `MAP_BYTES` long before
        // its mirror, so the header and the data area both lie inside it;
        // every header field is a std atomic for which all-zero bytes are
        // a valid value.
        let data = unsafe { at.add(DATA_OFFSET) };
        Ok(Ring {
            header: at.cast(),
            data,
            mapping: (at, MAP_BYTES + RING_BYTES),
            heap_header: None,
        })
    }

    /// Both ends in one process: the header on the heap, where shadow
    /// atomics can live, and the data area in a private `memfd`, mirrored
    /// like a shared one.
    fn local() -> io::Result<Ring> {
        let file = File::from(sys::memfd(c"mpistream-local-ring")?);
        file.set_len(RING_BYTES as u64)?;
        let data = sys::map_mirrored(file.as_fd(), RING_BYTES, RING_BYTES)?;
        let header = NonNull::from(Box::leak(Box::new(Header::new())));
        Ok(Ring { header, data, mapping: (data, 2 * RING_BYTES), heap_header: Some(header) })
    }

    fn header(&self) -> &Header {
        // SAFETY: valid for the life of `self` (see `map` and `local`),
        // and only ever shared.
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

    /// Copy `src` into the data area from position `at` on, wrapping:
    /// what runs past the end goes to the front. (One copy through the
    /// mirror would do, but it measured ≈ 8 % slower on `socket_fine`,
    /// whose frames never wrap, in five interleaved rounds — although it
    /// makes one `memcpy` call per frame where this makes two; the cause
    /// is not known. The reader lends through the mirror.)
    ///
    /// # Safety
    /// Only the writer calls this, and only on positions the reader is
    /// not reading: `[at, at + src.len())` is free space.
    unsafe fn copy_in(&self, at: u64, src: &[u8]) {
        let to = self.span(at, src.len());
        let first = src.len().min(RING_BYTES - (at % RING) as usize);
        // SAFETY: `first` bytes from `to`, then the rest (fewer than
        // `RING_BYTES - first`) from the data area's start: `span` bounds
        // the length, so both lie inside it. The caller guarantees nobody
        // reads them meanwhile.
        unsafe {
            std::ptr::copy_nonoverlapping(src.as_ptr(), to, first);
            std::ptr::copy_nonoverlapping(
                src.as_ptr().add(first),
                self.data.as_ptr(),
                src.len() - first,
            );
        }
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
        let (at, len) = self.mapping;
        // SAFETY: the mapping `map` or `local` made; the last reference
        // to it goes with `self`.
        unsafe { sys::unmap(at, len) };
        if let Some(header) = self.heap_header {
            // SAFETY: the box `local` leaked, reclaimed once.
            drop(unsafe { Box::from_raw(header.as_ptr()) });
        }
    }
}

/// A fresh ring's writing end, and the descriptor to hand the reader.
pub(crate) fn create() -> io::Result<(RingWriter, OwnedFd)> {
    let file = File::from(sys::memfd(c"mpistream-link")?);
    file.set_len(MAP_BYTES as u64)?;
    let ring = Ring::map(file.as_fd())?;
    Ok((RingWriter::new(Arc::new(ring)), file.into()))
}

/// The reading end of the ring behind `fd`, which a peer created with
/// [`create`]. A file of any other size is refused before it is mapped,
/// so no access can run past its end.
pub(crate) fn attach(fd: OwnedFd) -> io::Result<RingReader> {
    let file = File::from(fd);
    let len = file.metadata()?.len();
    if len != MAP_BYTES as u64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("ring of {len} bytes (expected {MAP_BYTES})"),
        ));
    }
    Ok(RingReader::new(Arc::new(Ring::map(file.as_fd())?)))
}

/// Both ends of a fresh ring in this process, its header on the heap:
/// for tests, and for the model checker, whose shadow atomics cannot
/// live in a shared mapping.
#[doc(hidden)]
pub fn local_pair() -> (RingWriter, RingReader) {
    let ring = Arc::new(Ring::local().expect("map a local ring"));
    (RingWriter::new(Arc::clone(&ring)), RingReader::new(ring))
}

/// The writing end of a ring.
pub struct RingWriter {
    ring: Arc<Ring>,
    /// This side's copy of `head`.
    head: u64,
    /// This side's copy of `front`.
    front: u64,
}

impl RingWriter {
    fn new(ring: Arc<Ring>) -> RingWriter {
        RingWriter { ring, head: 0, front: 0 }
    }

    /// Free bytes, given the reader's published `tail`. A `tail` out of
    /// order (a peer's bug) reads as a full ring, never as more room.
    fn free(&self, tail: u64) -> usize {
        let unread = self.head.checked_sub(tail.max(self.front)).filter(|&u| u <= RING);
        let unread = unread.unwrap_or(RING);
        RING_BYTES - unread as usize
    }

    /// Copy as much of `bytes` as fits into the ring and publish it;
    /// returns how much that was (0 only when the ring is full or
    /// `bytes` empty). The caller then rings the reader's slot.
    pub fn publish(&mut self, bytes: &[u8]) -> usize {
        if bytes.is_empty() {
            return 0;
        }
        let h = self.ring.header();
        let tail = h.tail.0.load(SeqCst);
        if tail.max(self.front) == self.head && !self.head.is_multiple_of(RING) {
            // Empty: restart at the front (module docs).
            self.front = self.head.next_multiple_of(RING);
            self.head = self.front;
            h.front.0.store(self.front, SeqCst);
        }
        let n = self.free(tail).min(bytes.len());
        if n == 0 {
            return 0;
        }
        // SAFETY: `[head, head + n)` is free: the reader has published a
        // `tail` at most `RING_BYTES - n` behind it.
        unsafe { self.ring.copy_in(self.head, &bytes[..n]) };
        self.head += n as u64;
        h.head.0.store(self.head, SeqCst);
        n
    }

    /// Before waiting for room: raise `writer_parked`, then look at the
    /// reader's `tail` again. `true`: the ring is still full, and the
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
    ring: Arc<Ring>,
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
    fn new(ring: Arc<Ring>) -> RingReader {
        RingReader { ring, tail: 0, released: 0, head: 0, closed: false, wake_owed: false }
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
