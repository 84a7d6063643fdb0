//! A shadow futex: a word other threads change, and a wait queue that
//! only a [`wake`] empties. Standing in for the kernel's queue, each
//! [`Word`] carries a [`Mutex`] and [`Condvar`] of its own, so a wake
//! that comes before the wait and does not change the word is lost, as
//! it is with `FUTEX_WAIT`/`FUTEX_WAKE`.

use std::time::Duration;

use crate::atomic::{AtomicU32, Ordering::SeqCst};
use crate::{Condvar, Mutex};

/// The word and its wait queue.
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

/// `FUTEX_WAIT`: the compare and the sleep are one step under the queue
/// lock, as in the kernel. A timed wait may always time out, which also
/// models a stray wake.
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
