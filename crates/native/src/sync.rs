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
//! [`futex`] is the one sleep that is not a `std` type: a word that
//! other *processes* may wake (the socket backend's doorbells). std
//! mode: `FUTEX_WAIT`/`FUTEX_WAKE` on an `AtomicU32`. schedcheck mode:
//! the word carries a shadow `Mutex`/`Condvar` of its own, so a wake
//! that comes before the wait and does not change the word is lost, as
//! it is in the kernel.

#[cfg(not(schedcheck))]
mod imp {
    pub use std::sync::{Condvar, Mutex, MutexGuard};
    pub use std::time::Instant;

    pub mod atomic {
        pub use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU32, AtomicU64, Ordering};
    }

    #[cfg(target_os = "linux")]
    pub mod futex {
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
        // Not `FUTEX_PRIVATE_FLAG`: the waker may be another process.
        const FUTEX_WAIT: c_int = 0;
        const FUTEX_WAKE: c_int = 1;

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
        /// the caller looks at its conditions again either way.
        pub fn wait(word: &Word, expected: u32, timeout: Option<Duration>) {
            let ts = timeout.map(|t| Timespec {
                sec: t.as_secs().min(c_long::MAX as u64) as c_long,
                nsec: t.subsec_nanos() as c_long,
            });
            let ts = ts.as_ref().map_or(std::ptr::null(), |t| t as *const Timespec);
            // SAFETY: `word` is a live, aligned u32 for the whole call and
            // `ts` is null or points at a live timespec; the kernel only
            // reads both.
            unsafe { syscall(SYS_FUTEX, word.as_ptr(), FUTEX_WAIT, expected, ts) };
        }

        /// Wake the one thread (of any process) sleeping on `word`. Change
        /// the word first, or a sleeper that has not reached its wait yet
        /// will not notice.
        pub fn wake(word: &Word) {
            // SAFETY: `word` is a live, aligned u32; FUTEX_WAKE reads no
            // other argument past the count.
            unsafe { syscall(SYS_FUTEX, word.as_ptr(), FUTEX_WAKE, 1 as c_int) };
        }
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
    pub use schedcheck::{Condvar, Mutex, MutexGuard};

    pub mod futex {
        use schedcheck::atomic::{AtomicU32, Ordering::SeqCst};
        use schedcheck::{Condvar, Mutex};
        use std::time::Duration;

        /// The word and, standing in for the kernel's wait queue, a
        /// mutex and condvar of its own.
        pub struct Word {
            word: AtomicU32,
            queue: Mutex<()>,
            woken: Condvar,
        }

        impl Word {
            pub const fn new(v: u32) -> Word {
                Word { word: AtomicU32::new(v), queue: Mutex::new(()), woken: Condvar::new() }
            }
        }

        impl std::ops::Deref for Word {
            type Target = AtomicU32;
            fn deref(&self) -> &AtomicU32 {
                &self.word
            }
        }

        /// `FUTEX_WAIT`: the compare and the sleep are one step under
        /// the queue lock, as in the kernel. A timed wait may always
        /// time out, which also models a stray wake.
        pub fn wait(word: &Word, expected: u32, timeout: Option<Duration>) {
            let queue = word.queue.lock().unwrap();
            if word.word.load(SeqCst) == expected {
                match timeout {
                    None => drop(word.woken.wait(queue)),
                    Some(t) => drop(word.woken.wait_timeout(queue, t)),
                }
            }
        }

        /// `FUTEX_WAKE`: only a sleeper already in the queue is woken.
        pub fn wake(word: &Word) {
            drop(word.queue.lock().unwrap());
            word.woken.notify_all();
        }
    }
}

pub use imp::*;
