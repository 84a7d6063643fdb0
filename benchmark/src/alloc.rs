//! A counting global allocator: how many allocator calls a rank makes per
//! stream element is a host-independent cost figure the traced run
//! reports next to every wall-clock one.
//!
//! Counting is off unless a traced launch turns it on, so the untraced
//! end-to-end runs pay one relaxed load per call and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);
// Relaxed throughout: a statistic that publishes no other data.
static CALLS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator never allocates or registers a dtor.
    static THREAD_CALLS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[inline]
fn count() {
    if ENABLED.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // `try_with`: a thread that is being torn down has no slot left.
        let _ = THREAD_CALLS.try_with(|c| c.set(c.get() + 1));
    }
}

/// Start (or stop) counting in this process, all threads.
pub fn set_counting(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Run `f` with counting paused (if it was on): the reference kernels
/// allocate, and their calls are the benchmark's, not the program's.
pub fn uncounted<R>(f: impl FnOnce() -> R) -> R {
    let was_on = ENABLED.swap(false, Ordering::Relaxed);
    let r = f();
    ENABLED.store(was_on, Ordering::Relaxed);
    r
}

/// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`) counted so far,
/// all threads of this process.
pub fn calls() -> u64 {
    CALLS.load(Ordering::Relaxed)
}

/// Allocator calls counted so far on the calling thread alone — exact
/// for single-threaded probes whatever other threads are doing.
pub fn thread_calls() -> u64 {
    THREAD_CALLS.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Counting is switched on and left on: the flag is process-global and
    // libtest runs tests on parallel threads.
    #[test]
    fn thread_counter_sees_exactly_this_threads_calls() {
        set_counting(true);
        let (t0, g0) = (thread_calls(), calls());
        let v: Vec<u64> = std::hint::black_box(Vec::with_capacity(32)); // alloc
        let mut w: Vec<u8> = std::hint::black_box(Vec::with_capacity(8)); // alloc
        w.extend_from_slice(&[0u8; 4096]); // realloc
        let z = std::hint::black_box(vec![0u8; 64]); // alloc_zeroed
        assert_eq!(thread_calls() - t0, 4);
        assert!(calls() - g0 >= 4);
        drop((v, w, z)); // frees are not counted
        assert_eq!(thread_calls() - t0, 4);
        // Paused and resumed (other tests may count meanwhile, this thread
        // does not).
        let skipped = uncounted(|| std::hint::black_box(vec![0u8; 64]));
        assert_eq!(thread_calls() - t0, 4);
        let counted = std::hint::black_box(vec![0u8; 64]);
        assert_eq!(thread_calls() - t0, 5);
        drop((skipped, counted));
    }
}
