//! A rank process runs one thread: the one that runs its body, which
//! also reads the rank's inbound links. Pinned after a 4-rank all-to-all,
//! so every rank has accepted and read three inbound links and dialled
//! three outbound ones.
//!
//! This file has its own `main` (`harness = false`): the launcher is this
//! process, and the rank processes re-run it with the same arguments.

use mpistream::{Src, Tag, Transport};
use socket::SocketWorld;

/// The `Threads:` line of this process's `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find(|l| l.starts_with("Threads:")).expect("a Threads: line");
    line["Threads:".len()..].trim().parse().expect("a thread count")
}

fn main() {
    let tag = Tag::user(1);
    let got = SocketWorld::new("one_thread_per_rank", 4).run(|rank| {
        let me = rank.world_rank();
        let peers = || (0..4).filter(move |&p| p != me);
        for peer in peers() {
            rank.send(peer, tag, 8, me as u64);
        }
        for peer in peers() {
            assert_eq!(rank.recv::<u64>(Src::Rank(peer), tag).0, peer as u64);
        }
        threads()
    });
    assert_eq!(got, vec![1; 4], "threads per rank process");
    println!("one_thread_per_rank: every rank process ran on 1 thread");
}
