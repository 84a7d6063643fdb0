//! The sync facade: every synchronization primitive the native backend
//! touches is imported through here, never from `std` directly.
//!
//! By default this re-exports the real `std` types (plus two zero-cost
//! wrappers, [`cell::RaceCell`] and [`boxed`]) — the production build is
//! unchanged. Under `RUSTFLAGS='--cfg schedcheck'` it re-exports the
//! shadow types from the `schedcheck` crate instead, so the *same*
//! mailbox/collective source is driven by the bounded model checker:
//! every atomic op, lock, park and raw-node hand-off becomes a schedule
//! point, with vector-clock race detection (SC201), deadlock/lost-wakeup
//! detection (SC202) and leak/double-free tracking (SC203). See
//! DESIGN.md §14 and `crates/native/tests/schedcheck_models.rs`.
//!
//! The two wrappers exist so the facade covers the unsafe spots too:
//!
//! - [`cell::RaceCell`] marks a shared mutable location whose safety
//!   argument lives outside the type system (the `next` pointer of a
//!   staged `Node`, published by the Treiber CAS). std mode: a plain
//!   `Cell`. schedcheck mode: a race-detection point.
//! - [`boxed::into_raw`]/[`boxed::from_raw`] mark ownership transfers
//!   of raw nodes. std mode: the `Box` calls. schedcheck mode: every
//!   minted pointer must be reclaimed exactly once per execution.
//!
//! [`futex::Bell`] is the one sleep, and it is not a `std` type: a word
//! that another thread or another *process* rings. A native rank sleeps
//! on its mailbox's bell, a socket rank on its slot of the world page;
//! both keep the protocol in the type's docs. std mode: `FUTEX_WAIT`/
//! `FUTEX_WAKE` on an `AtomicU32` (a short nap off Linux). schedcheck
//! mode: `schedcheck::futex`, whose word carries a shadow wait queue of
//! its own, so a wake that comes before the wait and does not change the
//! word is lost, as it is in the kernel.

#[cfg(not(schedcheck))]
mod imp {
    pub use std::sync::{Mutex, MutexGuard};
    pub use std::time::Instant;

    pub mod atomic {
        pub use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU32, AtomicU64, Ordering};
    }

    #[cfg(target_os = "linux")]
    pub(super) mod futex {
        use std::ffi::{c_int, c_long};
        use std::time::Duration;

        /// A word to sleep on: a plain `AtomicU32`, which may live in
        /// memory shared between processes.
        pub type Word = std::sync::atomic::AtomicU32;

        #[cfg(target_arch = "x86_64")]
        const SYS_FUTEX: c_long = 202;
        #[cfg(any(target_arch = "aarch64", target_arch = "riscv64"))]
        const SYS_FUTEX: c_long = 98;
        #[cfg(any(target_arch = "x86", target_arch = "arm"))]
        const SYS_FUTEX: c_long = 240;
        const FUTEX_WAIT: c_int = 0;
        const FUTEX_WAKE: c_int = 1;
        /// The kernel keys the futex by address alone, not by the page
        /// behind it: cheaper, and only threads of this process can meet
        /// there.
        const FUTEX_PRIVATE_FLAG: c_int = 128;

        fn op(op: c_int, shared: bool) -> c_int {
            if shared {
                op
            } else {
                op | FUTEX_PRIVATE_FLAG
            }
        }

        #[repr(C)]
        struct Timespec {
            sec: c_long,
            nsec: c_long,
        }

        extern "C" {
            fn syscall(num: c_long, ...) -> c_long;
        }

        /// Sleep while `word` holds `expected`, until a [`wake`], for at
        /// most `timeout` (`None`: no limit). Returns at once if the word
        /// already differs; a signal or a stray wake returns early, so
        /// the caller looks at its conditions again either way. `shared`:
        /// the waker may be another process, and must say so too.
        pub fn wait(word: &Word, expected: u32, timeout: Option<Duration>, shared: bool) {
            let ts = timeout.map(|t| Timespec {
                sec: t.as_secs().min(c_long::MAX as u64) as c_long,
                nsec: t.subsec_nanos() as c_long,
            });
            let ts = ts.as_ref().map_or(std::ptr::null(), |t| t as *const Timespec);
            // SAFETY: `word` is a live, aligned u32 for the whole call and
            // `ts` is null or points at a live timespec; the kernel only
            // reads both.
            unsafe { syscall(SYS_FUTEX, word.as_ptr(), op(FUTEX_WAIT, shared), expected, ts) };
        }

        /// Wake the one thread (of any process) sleeping on `word`. Change
        /// the word first, or a sleeper that has not reached its wait yet
        /// will not notice.
        pub fn wake(word: &Word, shared: bool) {
            // SAFETY: `word` is a live, aligned u32; FUTEX_WAKE reads no
            // other argument past the count.
            unsafe { syscall(SYS_FUTEX, word.as_ptr(), op(FUTEX_WAKE, shared), 1 as c_int) };
        }
    }

    /// Elsewhere a wait is a short nap and a wake does nothing: every
    /// sleeper looks at its conditions again when it returns, so this is
    /// slower, never wrong.
    #[cfg(not(target_os = "linux"))]
    pub(super) mod futex {
        use std::sync::atomic::Ordering::SeqCst;
        use std::time::Duration;

        pub type Word = std::sync::atomic::AtomicU32;

        const NAP: Duration = Duration::from_micros(50);

        pub fn wait(word: &Word, expected: u32, timeout: Option<Duration>, _: bool) {
            if word.load(SeqCst) == expected {
                std::thread::sleep(timeout.map_or(NAP, |t| t.min(NAP)));
            }
        }

        pub fn wake(_: &Word, _: bool) {}
    }

    pub mod thread {
        pub use std::thread::{scope, sleep, spawn, yield_now, JoinHandle, ScopedJoinHandle};
    }

    pub mod cell {
        /// A shared mutable location with an external safety argument
        /// (see the module docs). In the std build this is a plain
        /// `Cell`; under `--cfg schedcheck` accesses are race-checked.
        #[derive(Default)]
        pub struct RaceCell<T>(std::cell::Cell<T>);

        impl<T: Copy> RaceCell<T> {
            #[inline]
            pub const fn new(v: T) -> Self {
                RaceCell(std::cell::Cell::new(v))
            }

            #[inline]
            pub fn get(&self) -> T {
                self.0.get()
            }

            #[inline]
            pub fn set(&self, v: T) {
                self.0.set(v);
            }
        }
    }

    pub mod boxed {
        /// `Box::into_raw`, tracked under `--cfg schedcheck`.
        #[inline]
        pub fn into_raw<T>(b: Box<T>) -> *mut T {
            Box::into_raw(b)
        }

        /// `Box::from_raw`, tracked under `--cfg schedcheck`.
        ///
        /// # Safety
        /// Same contract as [`Box::from_raw`].
        #[inline]
        pub unsafe fn from_raw<T>(p: *mut T) -> Box<T> {
            // SAFETY: the caller's contract, which is `Box::from_raw`'s.
            unsafe { Box::from_raw(p) }
        }
    }
}

#[cfg(schedcheck)]
mod imp {
    pub use schedcheck::atomic;
    pub use schedcheck::boxed;
    pub use schedcheck::cell;
    pub use schedcheck::thread;
    pub use schedcheck::time::Instant;
    pub use schedcheck::{Mutex, MutexGuard};

    /// The kernel's queue is one, shared or not.
    pub(super) mod futex {
        use std::time::Duration;

        pub use schedcheck::futex::Word;

        pub fn wait(word: &Word, expected: u32, timeout: Option<Duration>, _: bool) {
            schedcheck::futex::wait(word, expected, timeout);
        }

        pub fn wake(word: &Word, _: bool) {
            schedcheck::futex::wake(word);
        }
    }
}

pub use imp::*;

/// The one way a thread of either real backend sleeps until another
/// thread — or another process — wakes it.
pub mod futex {
    use std::time::Duration;

    use super::atomic::Ordering::SeqCst;
    use super::imp::futex::{wait, wake, Word};
    use super::Instant;
    use crate::Until;

    /// The word of a bell whose owner is about to sleep, or asleep, and
    /// whose wake nobody has claimed yet.
    const RAISED: u32 = 1;

    /// One sleeper's doorbell: a futex word that is `RAISED` from
    /// [`Bell::raise`] until a ringer claims it. All-zero bytes are a
    /// lowered bell that other processes may ring, so a page of them may
    /// be shared between processes as it is; [`Bell::in_process`] makes
    /// one that only threads of this process ring, which the kernel
    /// finds by address alone (`FUTEX_PRIVATE_FLAG`).
    ///
    /// **The protocol.** The owner, about to sleep, raises the bell,
    /// looks again at everything a ringer could have made true, and only
    /// if nothing is sleeps ([`Bell::sleep`]), then lowers it. A ringer
    /// makes its condition true first and then rings ([`Bell::ring`]): a
    /// load and, if the bell is raised, a swap back to 0; only the ringer
    /// whose swap returned `RAISED` issues `FUTEX_WAKE`. Every access is
    /// `SeqCst`, so either the ringer sees the bell raised or the owner's
    /// second look sees the condition; and because the claim changes the
    /// word the owner sleeps on, a wake that lands before its
    /// `FUTEX_WAIT` still ends it. One wake per raise, however many ring.
    #[repr(C)]
    pub struct Bell {
        word: Word,
        /// Only threads of this process ring it.
        private: bool,
    }

    impl Default for Bell {
        fn default() -> Bell {
            Bell::new()
        }
    }

    impl Bell {
        /// A bell that threads of any process may ring.
        pub const fn new() -> Bell {
            Bell { word: Word::new(0), private: false }
        }

        /// A bell that only threads of this process ring.
        pub const fn in_process() -> Bell {
            Bell { word: Word::new(0), private: true }
        }

        /// Every wait of a rank of either real backend, by the protocol:
        /// `look`, and if it found nothing and `until` allows a wait,
        /// raise the bell, look again, and only if there is still nothing
        /// sleep for as long as `until` says; lower the bell, and round
        /// again. `None` only when `until` ran out; past a deadline the
        /// first look still happens, and the time left is recomputed from
        /// the absolute deadline on every round, so a stray wake neither
        /// extends nor truncates the wait. A look that finds nothing must
        /// have looked at everything a ringer rings for.
        #[inline]
        pub fn wait<R>(&self, until: Until, mut look: impl FnMut() -> Option<R>) -> Option<R> {
            loop {
                if let Some(found) = look() {
                    return Some(found);
                }
                let timeout = match until {
                    Until::Now => return None,
                    Until::At(deadline) => {
                        let left = deadline.saturating_duration_since(Instant::now());
                        if left.is_zero() {
                            return None;
                        }
                        Some(left)
                    }
                    Until::Forever => None,
                };
                self.raise();
                let found = look();
                if found.is_none() {
                    self.sleep(timeout);
                }
                self.lower();
                if found.is_some() {
                    return found;
                }
            }
        }

        /// Raise the bell, then look again at every condition a ringer
        /// could make true: [`Bell::sleep`] only if none is, then
        /// [`Bell::lower`].
        pub fn raise(&self) {
            self.word.store(RAISED, SeqCst);
        }

        /// Sleep until a ringer claims the bell, or `timeout` passes
        /// (`None`: no limit). Returns at once if it was claimed already,
        /// and may return early; the owner looks again either way.
        pub fn sleep(&self, timeout: Option<Duration>) {
            wait(&self.word, RAISED, timeout, !self.private);
        }

        /// Lower the bell after a raise, whether or not the owner slept.
        pub fn lower(&self) {
            self.word.store(0, SeqCst);
        }

        /// Wake the owner if the bell is raised and nobody has claimed
        /// the wake yet; a load first, so ringing a running owner costs
        /// no read-modify-write. Returns whether this call woke it.
        #[inline]
        pub fn ring(&self) -> bool {
            let claimed = self.claim();
            if claimed {
                wake(&self.word, !self.private);
            }
            claimed
        }

        /// Take the raised bell's one wake, without delivering it: what a
        /// ringer that forgets its `FUTEX_WAKE` does (the models' seeded
        /// bug).
        #[inline]
        pub(crate) fn claim(&self) -> bool {
            self.word.load(SeqCst) == RAISED && self.word.swap(0, SeqCst) == RAISED
        }

        /// Whether the bell is raised and unclaimed.
        #[cfg(test)]
        pub(crate) fn is_raised(&self) -> bool {
            self.word.load(SeqCst) == RAISED
        }
    }
}
