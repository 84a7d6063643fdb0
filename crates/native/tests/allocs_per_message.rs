//! What a native message costs the allocator, counted by a global
//! allocator: the value rides inside its staged node, so a message is one
//! allocation on the sending thread — plus whatever the value owns — and
//! a receive that finds it allocates nothing.
//!
//! ```sh
//! cargo test -p native --test allocs_per_message
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mpistream::{Src, StreamMsg, Tag, Transport, Wire};
use native::NativeWorld;

/// Counts the allocations each thread makes; frees are not counted.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded to `System` unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Allocations made, round by round, while rank 0 builds a value with
/// `make` and sends it to rank 1 (first) and while rank 1 receives it
/// (second).
fn cost<T: Wire + Send + 'static>(make: impl Fn(u64) -> T + Sync) -> Vec<(u64, u64)> {
    let t = Tag::user(1);
    let per_rank = NativeWorld::new(2).run(|rank| {
        (0..4)
            .map(|round| {
                let before = allocs();
                if rank.world_rank() == 0 {
                    rank.send(1, t, 8, make(round));
                } else {
                    rank.recv::<T>(Src::Rank(0), t);
                }
                allocs() - before
            })
            .collect::<Vec<u64>>()
    });
    per_rank[0].iter().copied().zip(per_rank[1].iter().copied()).collect()
}

#[test]
fn a_u64_costs_one_allocation() {
    for (round, (send, recv)) in cost(|i| i).into_iter().enumerate() {
        assert_eq!((send, recv), (1, 0), "round {round}: the node, and nothing else");
    }
}

#[test]
fn a_stream_batch_of_one_costs_two_allocations() {
    for (round, (send, recv)) in cost(|i| StreamMsg::Data(vec![i])).into_iter().enumerate() {
        assert_eq!((send, recv), (2, 0), "round {round}: the batch and its node");
    }
}
