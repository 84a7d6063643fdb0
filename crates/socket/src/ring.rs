//! The data path of one directed socket link: a single-producer,
//! single-consumer byte ring in shared memory (DESIGN.md §16.3).
//!
//! The sending rank creates the ring (a `memfd` of one header page plus
//! [`RING_BYTES`] of data) and passes its descriptor to the receiving
//! rank with the connection preamble; both map it. A frame is sent by
//! copying it into the ring and publishing it, before `send` returns.
//! The bytes in the ring are exactly the frame stream of §16.2, so
//! [`RingReader`] is a `Read` that [`FrameReader`](crate::frame::FrameReader)
//! parses unchanged.
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
//! published has been read, so no read can be under way in the gap or
//! anywhere else, and a second restart needs the reader to have
//! consumed past the first — so the `front` a reader loads is the one
//! that goes with the `head` it loaded. A stream whose reader keeps up
//! therefore touches the first page or two of the ring, not all of it.
//!
//! ## Wake-ups
//!
//! A rank waits for mail on its own bell ([`crate::page`]), which the
//! writer rings after a publish. Room is the one per-ring wait: a writer
//! raises `writer_parked` and looks at `tail` again ([`RingWriter::park`])
//! before it parks on its bell, and a reader that frees space claims the
//! flag ([`RingReader::take_wake`]) and rings the writer's bell.

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
/// free space is published in pieces.
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

/// Where a ring's memory comes from.
enum Memory {
    /// A `MAP_SHARED` mapping of the link's `memfd`, [`MAP_BYTES`] long.
    Mapped(NonNull<u8>),
    /// Both ends in one process (tests and models): a heap header and a
    /// heap data area, reclaimed on drop.
    Local(*mut Header, *mut [u8]),
}

/// One ring as this process sees it.
struct Ring {
    header: NonNull<Header>,
    data: NonNull<u8>,
    memory: Memory,
}

// SAFETY: the header is atomics only, and the data area is shared
// between exactly one writer and one reader, whose byte ranges the
// position protocol keeps apart (module docs).
unsafe impl Send for Ring {}
// SAFETY: as above.
unsafe impl Sync for Ring {}

impl Ring {
    /// Map a ring's shared file. Only a std build maps one: the shadow
    /// atomics of a `--cfg schedcheck` build are not valid as shared
    /// bytes, and the models use [`local_pair`].
    fn map(fd: BorrowedFd<'_>) -> io::Result<Ring> {
        let at = sys::map_shared(fd, MAP_BYTES)?;
        // SAFETY: the mapping is page-aligned and MAP_BYTES long, so the
        // header and the data area both lie inside it; every header field
        // is a std atomic for which all-zero bytes are a valid value.
        let data = unsafe { at.add(DATA_OFFSET) };
        Ok(Ring { header: at.cast(), data, memory: Memory::Mapped(at) })
    }

    fn local() -> Ring {
        let header = NonNull::from(Box::leak(Box::new(Header::new())));
        let data = NonNull::from(Box::leak(vec![0u8; RING_BYTES].into_boxed_slice()));
        let memory = Memory::Local(header.as_ptr(), data.as_ptr());
        Ring { header, data: data.cast(), memory }
    }

    fn header(&self) -> &Header {
        // SAFETY: valid for the life of `self` (see `map` and `local`),
        // and only ever shared.
        unsafe { self.header.as_ref() }
    }

    /// Copy `src` into the data area from position `at` on, wrapping.
    /// Positions come from another process, so the bound that keeps the
    /// copy inside the data area is checked here, whatever they say.
    ///
    /// # Safety
    /// Only the writer calls this, and only on positions the reader is
    /// not reading: `[at, at + src.len())` is free space.
    unsafe fn copy_in(&self, at: u64, src: &[u8]) {
        assert!(src.len() <= RING_BYTES, "a copy larger than the ring");
        let off = (at % RING) as usize;
        let first = src.len().min(RING_BYTES - off);
        // SAFETY: `first` bytes from `off`, then the rest (at most `off`,
        // since the whole is at most the ring) from 0: both inside the
        // data area. The caller guarantees nobody reads them meanwhile.
        unsafe {
            let data = self.data.as_ptr();
            std::ptr::copy_nonoverlapping(src.as_ptr(), data.add(off), first);
            std::ptr::copy_nonoverlapping(src.as_ptr().add(first), data, src.len() - first);
        }
    }

    /// Copy bytes from position `at` on into `dst`, wrapping.
    ///
    /// # Safety
    /// Only the reader calls this, and only on published, unread bytes.
    unsafe fn copy_out(&self, at: u64, dst: &mut [u8]) {
        assert!(dst.len() <= RING_BYTES, "a copy larger than the ring");
        let off = (at % RING) as usize;
        let first = dst.len().min(RING_BYTES - off);
        // SAFETY: as in `copy_in`, with the roles swapped.
        unsafe {
            let data = self.data.as_ptr();
            std::ptr::copy_nonoverlapping(data.add(off), dst.as_mut_ptr(), first);
            std::ptr::copy_nonoverlapping(data, dst.as_mut_ptr().add(first), dst.len() - first);
        }
    }
}

impl Drop for Ring {
    fn drop(&mut self) {
        match self.memory {
            // SAFETY: the mapping `map` made; the last reference to it
            // goes with `self`.
            Memory::Mapped(at) => unsafe { sys::unmap(at, MAP_BYTES) },
            // SAFETY: the two boxes `local` leaked, reclaimed once.
            Memory::Local(header, data) => unsafe {
                drop(Box::from_raw(header));
                drop(Box::from_raw(data));
            },
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

/// Both ends of a fresh ring in this process, on the heap: for tests,
/// and for the model checker, whose shadow atomics cannot live in a
/// shared mapping.
#[doc(hidden)]
pub fn local_pair() -> (RingWriter, RingReader) {
    let ring = Arc::new(Ring::local());
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

/// The reading end of a ring: a `Read` that hands out the published
/// bytes, returns `WouldBlock` when there are none, and reports EOF
/// only once [`RingReader::close`] has been called *and* the ring is
/// drained — the writer's process has gone, after it published
/// everything it sent.
pub struct RingReader {
    ring: Arc<Ring>,
    /// This side's copy of `tail`.
    tail: u64,
    closed: bool,
    /// A read claimed the parked writer's wake, and it has not been taken
    /// with [`RingReader::take_wake`] yet.
    wake_owed: bool,
}

impl RingReader {
    fn new(ring: Arc<Ring>) -> RingReader {
        RingReader { ring, tail: 0, closed: false, wake_owed: false }
    }

    /// The writer has gone: once the ring is drained, reads are EOF.
    pub fn close(&mut self) {
        self.closed = true;
    }

    /// Whether a read since the last call claimed the parked writer's
    /// wake; the caller then rings the writer's slot.
    pub fn take_wake(&mut self) -> bool {
        std::mem::take(&mut self.wake_owed)
    }
}

impl Read for RingReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let h = self.ring.header();
        let head = h.head.0.load(SeqCst);
        if head == self.tail || buf.is_empty() {
            return if self.closed || buf.is_empty() {
                Ok(0)
            } else {
                Err(io::ErrorKind::WouldBlock.into())
            };
        }
        // A restart at the front: the gap up to it was never written. It
        // lies behind `head`, so there is still at least a byte to read.
        self.tail = self.tail.max(h.front.0.load(SeqCst));
        let unread = head.checked_sub(self.tail);
        let unread = unread.filter(|u| (1..=RING).contains(u)).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, "ring positions out of order")
        })?;
        let n = (unread as usize).min(buf.len());
        // SAFETY: `[tail, tail + n)` is published (the `head` load above)
        // and not yet released to the writer (the `tail` store below).
        unsafe { self.ring.copy_out(self.tail, &mut buf[..n]) };
        self.tail += n as u64;
        h.tail.0.store(self.tail, SeqCst);
        let parked = &h.writer_parked.0;
        if parked.load(SeqCst) && parked.swap(false, SeqCst) {
            self.wake_owed = true;
        }
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
