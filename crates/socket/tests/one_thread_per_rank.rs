//! A rank process runs one thread, the one that runs its body, which
//! also reads the rank's inbound links, and holds one socket, its
//! control link to the launcher, and one descriptor of the world file:
//! every link's ring is in that file, so nothing is dialled. Pinned after
//! a 4-rank all-to-all, so every rank has opened three outbound rings and
//! mapped and read three inbound ones. The launcher, once `run` has
//! returned, holds no more sockets and no more `memfd`s than before it:
//! the children's ends of their control links and the world file are
//! closed. Nor has it any child process left, running or a zombie: a
//! rank exits as soon as its result is on its link, often before the
//! launcher reads it, and the launcher reaps every one.
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

/// How many of this process's descriptors from 3 on lead to a name that
/// starts with `prefix`.
fn descriptors(prefix: &str) -> usize {
    let fds = std::fs::read_dir("/proc/self/fd").expect("procfs");
    let fds = fds.filter_map(|e| {
        let e = e.ok()?;
        let fd: u32 = e.file_name().to_str()?.parse().ok()?;
        Some((fd, std::fs::read_link(e.path()).ok()?))
    });
    fds.filter(|(fd, to)| *fd >= 3 && to.to_string_lossy().starts_with(prefix)).count()
}

/// The child processes of every thread of this process that have not
/// been reaped, running or not: `/proc/self/task/*/children`.
fn children() -> String {
    let tasks = std::fs::read_dir("/proc/self/task").expect("procfs");
    let children = |t: std::fs::DirEntry| std::fs::read_to_string(t.path().join("children"));
    tasks.map(|t| children(t.expect("a task")).expect("a children file")).collect()
}

fn sockets() -> usize {
    descriptors("socket:")
}

/// Descriptors of a memory file; the world file is `mpistream-world`.
fn memfds(name: &str) -> usize {
    descriptors(&format!("/memfd:{name}"))
}

fn main() {
    let tag = Tag::user(1);
    let before = (sockets(), memfds(""));
    let got = SocketWorld::new("one_thread_per_rank", 4).run(|rank| {
        let me = rank.world_rank();
        let peers = || (0..4).filter(move |&p| p != me);
        for peer in peers() {
            rank.send(peer, tag, 8, me as u64);
        }
        for peer in peers() {
            assert_eq!(rank.recv::<u64>(Src::Rank(peer), tag).0, peer as u64);
        }
        (threads() as u64, sockets() as u64, memfds("mpistream-world") as u64)
    });
    assert_eq!(got, vec![(1, 1, 1); 4], "(threads, sockets, world files) per rank process");
    assert_eq!((sockets(), memfds("")), before, "(sockets, memfds) the launcher holds");
    assert_eq!(children().trim(), "", "child processes the launcher left behind");
    println!(
        "one_thread_per_rank: every rank process ran on 1 thread with 1 socket and 1 world \
         file, and the launcher closed its links and the file and reaped every rank"
    );
}
