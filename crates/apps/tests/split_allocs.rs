//! What splitting one map chunk among the local reducers costs the
//! allocator, counted by a global allocator: with one reducer the chunk is
//! handed on whole, so no pair is copied and the only allocation is the
//! one-entry list of parts; with `nc` reducers each part is sized once.
//!
//! ```sh
//! cargo test -p apps --test split_allocs
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use apps::mapreduce::{split_by_reducer, KvChunk};

/// Counts the allocations each thread makes and the bytes they ask for;
/// frees are not counted.
struct Counting;

thread_local! {
    static ALLOCS: Cell<(u64, usize)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCS.try_with(|n| {
        let (calls, total) = n.get();
        n.set((calls + 1, total + bytes));
    });
}

// SAFETY: every call is forwarded to `System` unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations made and bytes asked for while `f` runs on this thread.
fn allocs_of<R>(f: impl FnOnce() -> R) -> (R, u64, usize) {
    let (calls, bytes) = ALLOCS.with(Cell::get);
    let r = f();
    let (calls_after, bytes_after) = ALLOCS.with(Cell::get);
    (r, calls_after - calls, bytes_after - bytes)
}

/// A map chunk of 128 tokens, all distinct words in ascending order, that
/// leaves no part empty for the reducer counts below (11 is prime to each).
fn chunk() -> KvChunk {
    (0..128u32).map(|i| (i * 11, 1)).collect()
}

#[test]
fn the_counter_sees_a_copy() {
    let pairs = chunk();
    let (_copy, calls, bytes) = allocs_of(|| pairs.clone());
    assert_eq!((calls, bytes), (1, std::mem::size_of_val(&pairs[..])));
}

#[test]
fn one_reducer_copies_no_pair() {
    let pairs = chunk();
    let at = pairs.as_ptr();
    let (parts, calls, bytes) = allocs_of(|| split_by_reducer(pairs, 1));
    assert_eq!(parts.len(), 1);
    assert_eq!(parts[0].as_ptr(), at, "the chunk itself is the one part");
    assert!(calls <= 1, "{calls} allocations: only the list of parts may be made");
    assert!(
        bytes <= std::mem::size_of::<KvChunk>(),
        "{bytes} bytes asked for: nothing may be sized by the chunk"
    );
}

#[test]
fn many_reducers_size_each_part_once() {
    for nc in [2usize, 3, 7, 16] {
        let pairs = chunk();
        let (parts, calls, _) = allocs_of(|| split_by_reducer(pairs, nc));
        assert!(parts.iter().all(|p| !p.is_empty() && p.len() == p.capacity()), "nc = {nc}");
        assert!(calls <= nc as u64 + 2, "nc = {nc}: {calls} allocations, at most nc + 2");
    }
}
