//! The world page: one doorbell per rank in shared memory (DESIGN.md
//! §16.3). The launcher creates it (a `memfd` of one cache-line [`Slot`]
//! per rank, all zero) and hands its descriptor to every rank with GO.
//!
//! **One wake per park, on one word.** A rank about to sleep raises its
//! bell to `PARKED` ([`Slot::park`]), looks again at everything that
//! could wake it — its inbound rings, its `dials`, the `dead` marks it
//! cares about, the condition it waits for — and only if nothing changed
//! sleeps in `FUTEX_WAIT` while the bell is still `PARKED`. A waker
//! makes its condition true, then claims the wake ([`Slot::ring`]): a
//! load of the bell and, if it is `PARKED`, a swap back to 0; only the
//! waker whose swap returned `PARKED` calls `FUTEX_WAKE`. All accesses
//! are `SeqCst`, so either the waker sees the bell raised or the
//! sleeper's second look sees the condition; and since the claim changes
//! the word the sleeper waits on, a wake that lands before the
//! `FUTEX_WAIT` still ends it. `tests/schedcheck_ring.rs` checks this.

use std::fs::File;
use std::io;
use std::os::fd::{AsFd, OwnedFd};
use std::ptr::NonNull;
use std::time::Duration;

use native::sync::atomic::{AtomicBool, AtomicU32, Ordering::SeqCst};
use native::sync::futex::{self, Word};

use crate::sys;

/// The bell of a rank that is about to sleep or asleep, unclaimed.
const PARKED: u32 = 1;

/// One rank's doorbell, on a cache line of its own.
#[repr(C, align(64))]
pub struct Slot {
    /// The futex word: `PARKED` from [`Slot::park`] until claimed.
    bell: Word,
    /// Links dialled to this rank, each counted after its preamble went.
    dials: AtomicU32,
    /// The launcher saw this rank's process go (death-tolerant worlds).
    dead: AtomicBool,
}

impl Slot {
    fn new() -> Slot {
        Slot { bell: Word::new(0), dials: AtomicU32::new(0), dead: AtomicBool::new(false) }
    }

    /// Raise the bell, then look again at every condition a waker could
    /// make true: [`Slot::sleep`] only if none is, then [`Slot::unpark`].
    pub fn park(&self) {
        self.bell.store(PARKED, SeqCst);
    }

    /// Sleep until a waker claims the bell, or `timeout` passes (`None`:
    /// no limit). Returns at once if the bell was already claimed.
    pub fn sleep(&self, timeout: Option<Duration>) {
        futex::wait(&self.bell, PARKED, timeout);
    }

    /// Lower the bell after a park, whether or not the rank slept.
    pub fn unpark(&self) {
        self.bell.store(0, SeqCst);
    }

    /// Wake this rank if it is parked and nobody has claimed the wake
    /// yet; a load first, so ringing a running rank costs no
    /// read-modify-write.
    pub fn ring(&self) {
        if self.bell.load(SeqCst) == PARKED && self.bell.swap(0, SeqCst) == PARKED {
            futex::wake(&self.bell);
        }
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
        // atomic, for which all-zero bytes are valid.
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
