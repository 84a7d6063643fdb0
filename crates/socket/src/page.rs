//! The world page: one doorbell per rank in shared memory (DESIGN.md
//! §16.3). The launcher creates it (a `memfd` of one cache-line [`Slot`]
//! per rank, all zero) and hands its descriptor to every rank with GO.
//!
//! **One wake per park, on one word.** A slot's bell is a
//! [`native::sync::futex::Bell`], the same type a native rank's mailbox
//! sleeps on, with the protocol in its docs. A rank about to sleep
//! raises it ([`Slot::park`]), looks again at everything that could wake
//! it — its inbound rings, its `dials`, the `dead` marks it cares about,
//! the condition it waits for — and only if nothing changed sleeps in
//! `FUTEX_WAIT` while the bell is still raised. A waker makes its
//! condition true, then claims the wake ([`Slot::ring`]); only the waker
//! whose claim succeeded calls `FUTEX_WAKE`. `tests/schedcheck_ring.rs`
//! checks this.

use std::fs::File;
use std::io;
use std::os::fd::{AsFd, OwnedFd};
use std::ptr::NonNull;
use std::time::Duration;

use native::sync::atomic::{AtomicBool, AtomicU32, Ordering::SeqCst};
use native::sync::futex::Bell;

use crate::sys;

/// One rank's doorbell, on a cache line of its own.
#[repr(C, align(64))]
pub struct Slot {
    /// Raised from [`Slot::park`] until claimed.
    bell: Bell,
    /// Links dialled to this rank, each counted after its preamble went.
    dials: AtomicU32,
    /// The launcher saw this rank's process go (death-tolerant worlds).
    dead: AtomicBool,
}

// The launcher sizes the page by it, and a rank's doorbell keeps a cache
// line of its own.
#[cfg(not(schedcheck))]
const _: () = assert!(std::mem::size_of::<Slot>() == 64);

impl Slot {
    fn new() -> Slot {
        Slot { bell: Bell::new(), dials: AtomicU32::new(0), dead: AtomicBool::new(false) }
    }

    /// The rank's bell, for [`Bell::wait`].
    pub fn bell(&self) -> &Bell {
        &self.bell
    }

    /// Raise the bell, then look again at every condition a waker could
    /// make true: [`Slot::sleep`] only if none is, then [`Slot::unpark`].
    pub fn park(&self) {
        self.bell.raise();
    }

    /// Sleep until a waker claims the bell, or `timeout` passes (`None`:
    /// no limit). Returns at once if the bell was already claimed.
    pub fn sleep(&self, timeout: Option<Duration>) {
        self.bell.sleep(timeout);
    }

    /// Lower the bell after a park, whether or not the rank slept.
    pub fn unpark(&self) {
        self.bell.lower();
    }

    /// Wake this rank if it is parked and nobody has claimed the wake
    /// yet.
    pub fn ring(&self) {
        self.bell.ring();
    }

    /// A link to this rank was dialled and its preamble sent.
    pub fn dial(&self) {
        self.dials.fetch_add(1, SeqCst);
        self.ring();
    }

    pub fn dials(&self) -> u32 {
        self.dials.load(SeqCst)
    }

    pub fn is_dead(&self) -> bool {
        self.dead.load(SeqCst)
    }
}

/// Every rank's [`Slot`], as this process sees them.
pub struct Page {
    slots: NonNull<[Slot]>,
    /// `MAP_SHARED` memory (else a heap slice: tests and models).
    mapped: bool,
}

// SAFETY: the slots are atomics only.
unsafe impl Send for Page {}
// SAFETY: as above.
unsafe impl Sync for Page {}

fn page_bytes(ranks: usize) -> usize {
    ranks * std::mem::size_of::<Slot>()
}

impl Page {
    /// A fresh page for `ranks` ranks, and the descriptor to hand them.
    pub(crate) fn create(ranks: usize) -> io::Result<(Page, OwnedFd)> {
        let file = File::from(sys::memfd(c"mpistream-world")?);
        file.set_len(page_bytes(ranks) as u64)?;
        Ok((Page::attach(file.try_clone()?.into(), ranks)?, file.into()))
    }

    /// Map the page behind `fd`, which the launcher made with
    /// [`Page::create`]; a file of any other size is refused.
    pub(crate) fn attach(fd: OwnedFd, ranks: usize) -> io::Result<Page> {
        let file = File::from(fd);
        let len = file.metadata()?.len();
        if len != page_bytes(ranks) as u64 {
            let msg = format!("world page of {len} bytes for {ranks} ranks");
            return Err(io::Error::new(io::ErrorKind::InvalidData, msg));
        }
        let at = sys::map_shared(file.as_fd(), page_bytes(ranks))?;
        // Page-aligned and `ranks` slots long; every field is a std
        // atomic or a bell, for which all-zero bytes are valid (a bell
        // other processes may ring).
        Ok(Page { slots: NonNull::slice_from_raw_parts(at.cast(), ranks), mapped: true })
    }

    /// A page on the heap, for tests and for the model checker, whose
    /// shadow atomics cannot live in a shared mapping.
    #[doc(hidden)]
    pub fn local(ranks: usize) -> Page {
        let slots: Box<[Slot]> = (0..ranks).map(|_| Slot::new()).collect();
        Page { slots: NonNull::from(Box::leak(slots)), mapped: false }
    }

    pub fn ranks(&self) -> usize {
        self.slots.len()
    }

    pub fn slot(&self, rank: usize) -> &Slot {
        // SAFETY: valid for the life of `self` (see `attach` and `local`),
        // and only ever shared.
        unsafe { &self.slots.as_ref()[rank] }
    }

    /// Mark `rank` dead and wake every rank, so whoever waits on it —
    /// for its frames or for room in its ring — looks again.
    pub fn kill(&self, rank: usize) {
        self.slot(rank).dead.store(true, SeqCst);
        (0..self.ranks()).for_each(|r| self.slot(r).ring());
    }
}

impl Drop for Page {
    fn drop(&mut self) {
        if self.mapped {
            // SAFETY: the mapping `attach` made; the last reference to it
            // goes with `self`.
            unsafe { sys::unmap(self.slots.cast(), page_bytes(self.slots.len())) }
        } else {
            // SAFETY: the slice `local` leaked, reclaimed once.
            drop(unsafe { Box::from_raw(self.slots.as_ptr()) });
        }
    }
}
