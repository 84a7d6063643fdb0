//! The world file: one doorbell per rank and one ring per ordered pair
//! of ranks, in one shared-memory segment (DESIGN.md §16.3). The launcher
//! creates it (a `memfd`, all zero) before it spawns a rank, and every
//! rank inherits its descriptor. For `n` ranks it holds, in order:
//!
//! 1. `n` cache-line [`Slot`]s, one per rank;
//! 2. `n × n` ring headers, indexed `[dst][src]`, so a rank's inbound
//!    headers lie together;
//! 3. from the next page boundary on, `n × n` data areas of
//!    [`RING_BYTES`], in the same order.
//!
//! A rank maps the first two parts whole, and a ring's data area only
//! once it writes or reads that ring. The file is sparse: only pages that
//! are touched cost memory, so the 64 MiB that 16 ranks reserve are
//! mostly address space.
//!
//! **One wake per park, on one word.** A slot's bell is a
//! [`native::sync::futex::Bell`], the same type a native rank's mailbox
//! sleeps on, with the protocol in its docs. A rank waits in
//! [`Bell::wait`]: it raises the bell, looks again at everything that
//! could wake it — its inbound rings, its `dials`, the `gone` marks it
//! cares about, the condition it waits for — and only if nothing changed
//! sleeps in `FUTEX_WAIT` while the bell is still raised. A waker makes
//! its condition true, then claims the wake ([`Slot::ring`]); only the
//! waker whose claim succeeded calls `FUTEX_WAKE`.
//! `tests/schedcheck_ring.rs` checks this.

use std::fs::File;
use std::io;
use std::os::fd::{AsFd, BorrowedFd, OwnedFd};
use std::ptr::NonNull;

use native::sync::atomic::{AtomicBool, AtomicU32, Ordering::SeqCst};
use native::sync::futex::Bell;

use crate::ring::{Header, RING_BYTES};
use crate::sys;

/// The unit the file's parts are mapped in.
const PAGE_BYTES: usize = 4096;

/// One rank's doorbell, its dial count and the mark of its end, on a
/// cache line of its own.
#[repr(C, align(64))]
pub struct Slot {
    /// Raised from [`Bell::raise`] until claimed.
    bell: Bell,
    /// Rings opened to this rank, each counted once its header is open.
    dials: AtomicU32,
    /// This rank has left the world ([`Page::leave`]): its body returned,
    /// or, in a death-tolerant world, the launcher saw its process go.
    gone: AtomicBool,
}

// The launcher sizes the file by it, and a rank's doorbell keeps a cache
// line of its own.
#[cfg(not(schedcheck))]
const _: () = assert!(std::mem::size_of::<Slot>() == 64);

impl Slot {
    fn new() -> Slot {
        Slot { bell: Bell::new(), dials: AtomicU32::new(0), gone: AtomicBool::new(false) }
    }

    /// The rank's bell, for [`Bell::wait`].
    pub fn bell(&self) -> &Bell {
        &self.bell
    }

    /// Wake this rank if it is parked and nobody has claimed the wake
    /// yet.
    pub fn ring(&self) {
        self.bell.ring();
    }

    /// A ring to this rank was opened: its header is marked open.
    pub fn dial(&self) {
        self.dials.fetch_add(1, SeqCst);
        self.ring();
    }

    pub fn dials(&self) -> u32 {
        self.dials.load(SeqCst)
    }

    /// The one record of a rank's end, whether it returned or died:
    /// everything it will ever publish is in its rings, and it frees no
    /// more room in the rings to it.
    pub fn is_gone(&self) -> bool {
        self.gone.load(SeqCst)
    }
}

/// The world file as this process sees it: every rank's [`Slot`], every
/// ring's header, and the file its data areas are mapped from.
pub struct Page {
    slots: NonNull<[Slot]>,
    headers: NonNull<[Header]>,
    file: File,
    /// Where the data areas start in `file`.
    data_at: usize,
    /// `MAP_SHARED` memory (else heap slices: tests and models).
    mapped: bool,
}

// SAFETY: the slots and headers are atomics only, and the file is only
// ever mapped.
unsafe impl Send for Page {}
// SAFETY: as above.
unsafe impl Sync for Page {}

/// The slots and the headers, rounded up to whole pages.
fn front_bytes(ranks: usize) -> usize {
    let slots = ranks * std::mem::size_of::<Slot>();
    (slots + ranks * ranks * std::mem::size_of::<Header>()).next_multiple_of(PAGE_BYTES)
}

fn data_bytes(ranks: usize) -> usize {
    let rings = ranks.checked_mul(ranks).and_then(|n| n.checked_mul(RING_BYTES));
    rings.expect("a world file that fits the address space")
}

impl Page {
    /// A fresh world file for `ranks` ranks; its descriptor
    /// ([`Page::fd`]) is what the ranks inherit.
    pub(crate) fn create(ranks: usize) -> io::Result<Page> {
        let file = File::from(sys::memfd(c"mpistream-world")?);
        file.set_len((front_bytes(ranks) + data_bytes(ranks)) as u64)?;
        Page::attach(file.into(), ranks)
    }

    /// The world file's descriptor.
    pub(crate) fn fd(&self) -> BorrowedFd<'_> {
        self.file.as_fd()
    }

    /// Map the front of the world file behind `fd`, which the launcher
    /// made with [`Page::create`]; a file of any other size is refused,
    /// so no ring can be mapped past its end.
    pub(crate) fn attach(fd: OwnedFd, ranks: usize) -> io::Result<Page> {
        let file = File::from(fd);
        let len = file.metadata()?.len();
        let front = front_bytes(ranks);
        if len != (front + data_bytes(ranks)) as u64 {
            let msg = format!("world file of {len} bytes for {ranks} ranks");
            return Err(io::Error::new(io::ErrorKind::InvalidData, msg));
        }
        let at = sys::map_shared(file.as_fd(), front)?;
        // Page-aligned and `front` bytes long: `ranks` slots, then
        // `ranks²` headers, both 64-byte aligned; every field is a std
        // atomic or a bell, for which all-zero bytes are valid (a bell
        // other processes may ring, a ring nobody has opened).
        let slots = NonNull::slice_from_raw_parts(at.cast(), ranks);
        // SAFETY: the headers start inside the mapping (above).
        let headers = unsafe { at.add(ranks * std::mem::size_of::<Slot>()) };
        let headers = NonNull::slice_from_raw_parts(headers.cast(), ranks * ranks);
        Ok(Page { slots, headers, file, data_at: front, mapped: true })
    }

    /// A world on the heap, for tests and for the model checker, whose
    /// shadow atomics cannot live in a shared mapping; the data areas are
    /// a private `memfd`, mapped like the shared file's.
    #[doc(hidden)]
    pub fn local(ranks: usize) -> Page {
        let file = File::from(sys::memfd(c"mpistream-local-world").expect("a local world file"));
        file.set_len(data_bytes(ranks) as u64).expect("size the local world file");
        let slots: Box<[Slot]> = (0..ranks).map(|_| Slot::new()).collect();
        let headers: Box<[Header]> = (0..ranks * ranks).map(|_| Header::new()).collect();
        Page {
            slots: NonNull::from(Box::leak(slots)),
            headers: NonNull::from(Box::leak(headers)),
            file,
            data_at: 0,
            mapped: false,
        }
    }

    pub fn ranks(&self) -> usize {
        self.slots.len()
    }

    pub fn slot(&self, rank: usize) -> &Slot {
        // SAFETY: valid for the life of `self` (see `attach` and `local`),
        // and only ever shared.
        unsafe { &self.slots.as_ref()[rank] }
    }

    /// The index of the ring from `src` to `dst` among the headers and
    /// the data areas.
    fn pair(&self, dst: usize, src: usize) -> usize {
        let ranks = self.ranks();
        assert!(dst < ranks && src < ranks, "no ring from rank {src} to rank {dst}");
        dst * ranks + src
    }

    /// The header of the ring from `src` to `dst`.
    pub(crate) fn header(&self, dst: usize, src: usize) -> &Header {
        // SAFETY: as in `slot`.
        unsafe { &self.headers.as_ref()[self.pair(dst, src)] }
    }

    /// Map the data area of the ring from `src` to `dst`, mirrored
    /// (`sys::map_mirrored`); undo with `sys::unmap` over twice
    /// [`RING_BYTES`].
    pub(crate) fn map_ring(&self, dst: usize, src: usize) -> io::Result<NonNull<u8>> {
        let at = self.data_at + self.pair(dst, src) * RING_BYTES;
        sys::map_mirrored(self.file.as_fd(), at, RING_BYTES)
    }

    /// Mark `rank` gone and wake every rank, so whoever waits on it —
    /// for its frames or for room in its ring — looks again. A rank
    /// leaves itself once its body returns, before it ships its result;
    /// the launcher of a death-tolerant world marks a rank whose process
    /// went without leaving.
    pub fn leave(&self, rank: usize) {
        self.slot(rank).gone.store(true, SeqCst);
        (0..self.ranks()).for_each(|r| self.slot(r).ring());
    }
}

impl Drop for Page {
    fn drop(&mut self) {
        if self.mapped {
            // SAFETY: the mapping `attach` made; the last reference to it
            // goes with `self`.
            unsafe { sys::unmap(self.slots.cast(), front_bytes(self.ranks())) }
        } else {
            // SAFETY: the slices `local` leaked, reclaimed once.
            unsafe {
                drop(Box::from_raw(self.slots.as_ptr()));
                drop(Box::from_raw(self.headers.as_ptr()));
            }
        }
    }
}
