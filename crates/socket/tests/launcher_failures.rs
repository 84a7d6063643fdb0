//! A rank that dies, or a link that goes bad, ends the run with the
//! right rank's name within seconds — not with whatever the launcher
//! happened to be reading when a timeout expired.
//!
//! Each test is a real process world (children re-run the test under
//! `--exact`); the launcher's panic is caught and inspected, and its
//! `LaunchGuard` reaps the surviving ranks.

use std::io::Write;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use mpistream::{Src, Tag, Transport};
use socket::{RawLink, SocketWorld};

/// Run `launch` (a `SocketWorld::run` that must fail) and return the
/// launcher's panic message, asserting it came within ten seconds.
fn failure_of(launch: impl FnOnce() + std::panic::UnwindSafe) -> String {
    let started = Instant::now();
    let panic = std::panic::catch_unwind(launch).expect_err("the launcher must fail");
    let took = started.elapsed();
    assert!(took < Duration::from_secs(10), "the failure took {took:?} to surface");
    match panic.downcast::<String>() {
        Ok(msg) => *msg,
        Err(other) => other.downcast_ref::<&str>().expect("a panic message").to_string(),
    }
}

#[test]
fn a_rank_that_exits_early_is_named_not_the_rank_being_read() {
    let msg = failure_of(|| {
        SocketWorld::for_test("a_rank_that_exits_early_is_named_not_the_rank_being_read", 2).run(
            |rank| {
                if rank.world_rank() == 1 {
                    std::process::exit(3);
                }
                // Healthy, and first in the launcher's read order: parked
                // on a message its dead peer will never send.
                rank.recv::<u64>(Src::Rank(1), Tag::user(1)).0
            },
        );
    });
    assert!(msg.contains("rank 1") && msg.contains('3'), "launcher said: {msg}");
}

#[test]
fn a_malformed_inbound_link_takes_the_whole_rank_down() {
    let msg = failure_of(|| {
        SocketWorld::for_test("a_malformed_inbound_link_takes_the_whole_rank_down", 2).run(
            |rank| {
                if rank.world_rank() == 1 {
                    // Dial rank 0 by hand: a valid preamble, then a length
                    // prefix below the header size in the link's ring. The
                    // link stays open — it is the bad prefix, not an EOF,
                    // that must be fatal.
                    let dir = PathBuf::from(std::env::var("MPISTREAM_SOCKET_DIR").unwrap());
                    let mut link = RawLink::dial(&dir.join("rank0.sock"), 1).unwrap();
                    link.write_all(&3u32.to_le_bytes()).unwrap();
                    std::thread::sleep(Duration::from_secs(60));
                }
                // Rank 0's body parks here, and its progress loop meets the
                // bad frame; only taking the process down lets anyone find
                // out.
                rank.recv::<u64>(Src::Rank(1), Tag::user(2)).0
            },
        );
    });
    assert!(msg.contains("rank 0"), "launcher said: {msg}");
}
