//! A FIFO queue between simulated processes, built only on `Ctx::suspend`
//! and `Kernel::schedule_at`: the engine tests' stand-in for the message
//! layer `mpisim` puts on top of `desim`.

use std::collections::VecDeque;
use std::sync::Arc;

use desim::{Ctx, Pid};
use parking_lot::Mutex;

/// Queued items and the receivers blocked on an empty queue.
type State<T> = (VecDeque<T>, Vec<Pid>);

#[derive(Clone)]
pub struct Queue<T>(Arc<Mutex<State<T>>>);

impl<T> Queue<T> {
    pub fn new() -> Self {
        Queue(Arc::new(Mutex::new((VecDeque::new(), Vec::new()))))
    }

    /// Append `v` and wake every blocked receiver now.
    pub fn send(&self, ctx: &Ctx, v: T) {
        let waiting = {
            let mut s = self.0.lock();
            s.0.push_back(v);
            std::mem::take(&mut s.1)
        };
        for pid in waiting {
            ctx.kernel().schedule_at(ctx.now(), pid);
        }
    }

    pub fn try_recv(&self) -> Option<T> {
        self.0.lock().0.pop_front()
    }

    /// Block until an item arrives, re-checking after every (possibly
    /// spurious) wake-up.
    pub fn recv(&self, ctx: &mut Ctx) -> T {
        loop {
            let mut s = self.0.lock();
            if let Some(v) = s.0.pop_front() {
                return v;
            }
            s.1.push(ctx.pid());
            drop(s);
            ctx.suspend("queue-recv");
        }
    }
}
