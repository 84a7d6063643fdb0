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

#[cfg(not(schedcheck))]
mod imp {
    pub use std::sync::{Condvar, Mutex, MutexGuard};
    pub use std::time::Instant;

    pub mod atomic {
        pub use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
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
}

pub use imp::*;
