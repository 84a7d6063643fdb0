//! Single-threaded (or two-thread, one-CPU) probes of single layers,
//! called from the benchmark's side of each crate's public surface. Each
//! is timed in reference-kernel units like a slice: a fixed number of
//! iterations between two kernel runs, several repetitions, the median.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::Arc;

use mpistream::{Src, StreamMsg, Tag, Wire};
use native::mailbox::{Env, Mailbox};
use replica::{Effect, VsrCore, VsrMsg};
use socket::frame;

use crate::alloc;
use crate::cal::{calibrated_ns, Calibrator};
use crate::host::mono_ns;
use crate::stats::median;
use crate::workloads::BULK_LEN;

struct Prober<'a> {
    cal: &'a mut Calibrator,
    reps: usize,
    /// Iteration counts are divided by this in `--quick` runs.
    thin: u64,
}

impl Prober<'_> {
    /// Calibrated ns per iteration of `f`, median over the repetitions.
    fn ns_per_iter(&mut self, iters: u64, mut f: impl FnMut()) -> f64 {
        let iters = (iters / self.thin).max(1);
        let samples: Vec<f64> = (0..self.reps)
            .map(|_| {
                let before = self.cal.run();
                let t0 = mono_ns();
                for _ in 0..iters {
                    f();
                }
                let wall = mono_ns() - t0;
                let after = self.cal.run();
                calibrated_ns(wall, before, after) / iters as f64
            })
            .collect();
        median(&samples)
    }
}

// ---------------------------------------------------------------------
// core::wire
// ---------------------------------------------------------------------

/// One `socket_bulk` element on the wire.
fn bulk_msg() -> StreamMsg<Vec<f64>> {
    StreamMsg::Data(vec![(0..BULK_LEN).map(|i| i as f64).collect()])
}

fn wire(p: &mut Prober, out: &mut Vec<(&'static str, f64)>) {
    let small = StreamMsg::Data(vec![0x5EED_u64]);
    let small_frame = small.to_frame();
    out.push((
        "core.wire.encode_ns.u64",
        p.ns_per_iter(200_000, || {
            std::hint::black_box(std::hint::black_box(&small).to_frame());
        }),
    ));
    out.push((
        "core.wire.decode_ns.u64",
        p.ns_per_iter(200_000, || {
            let m = StreamMsg::<u64>::from_frame(std::hint::black_box(&small_frame));
            std::hint::black_box(m.is_ok());
        }),
    ));

    let bulk = bulk_msg();
    let bulk_frame = bulk.to_frame();
    let kib = (BULK_LEN * 8) as f64 / 1024.0;
    out.push((
        "core.wire.encode_ns_per_kib.f64",
        p.ns_per_iter(400, || {
            std::hint::black_box(std::hint::black_box(&bulk).to_frame());
        }) / kib,
    ));
    out.push((
        "core.wire.decode_ns_per_kib.f64",
        p.ns_per_iter(400, || {
            let m = StreamMsg::<Vec<f64>>::from_frame(std::hint::black_box(&bulk_frame));
            std::hint::black_box(m.is_ok());
        }) / kib,
    ));
    out.push(("core.wire.encode_allocs.f64", encode_allocs(&bulk) as f64));
}

/// Allocator calls of one `to_frame` of `msg`, on this thread.
fn encode_allocs<T: Wire>(msg: &T) -> u64 {
    alloc::set_counting(true);
    let before = alloc::thread_calls();
    let frame = msg.to_frame();
    let calls = alloc::thread_calls() - before;
    drop(std::hint::black_box(frame));
    calls
}

// ---------------------------------------------------------------------
// native::mailbox
// ---------------------------------------------------------------------

fn env(tag: Tag) -> Env {
    Env { src: 0, tag, bytes: 8, payload: Box::new(7u64) }
}

fn mailbox(p: &mut Prober, out: &mut Vec<(&'static str, f64)>) {
    let tag = Tag::user(1);
    let mb = Mailbox::new();
    out.push((
        "native.mailbox.push_take_ns",
        p.ns_per_iter(200_000, || {
            mb.push(env(tag));
            std::hint::black_box(mb.try_take(Src::Any, tag).is_some());
        }),
    ));

    // Cross-thread: push to a peer parked in `take`, which pushes back
    // (a zero-byte envelope tells it to stop). Half the round trip is one
    // push -> wake -> take hand-off.
    let (here, there) = (Arc::new(Mailbox::new()), Arc::new(Mailbox::new()));
    let rtt = std::thread::scope(|s| {
        let (here2, there2) = (Arc::clone(&here), Arc::clone(&there));
        s.spawn(move || loop {
            let e = there2.take(Src::Any, tag);
            if e.bytes == 0 {
                break;
            }
            here2.push(e);
        });
        let rtt = p.ns_per_iter(20_000, || {
            there.push(env(tag));
            std::hint::black_box(here.take(Src::Any, tag));
        });
        there.push(Env { bytes: 0, ..env(tag) });
        rtt
    });
    out.push(("native.mailbox.handoff_ns", rtt / 2.0));

    out.push((
        "native.world_launch_us",
        p.ns_per_iter(200, || {
            native::NativeWorld::new(2).run(|_| {});
        }) / 1e3,
    ));
}

// ---------------------------------------------------------------------
// socket::frame and the reader thread
// ---------------------------------------------------------------------

/// Counts the `write` calls made on it (each would be a syscall on a
/// socket: this kernel reports no `syscr`/`syscw`).
struct CountingWriter {
    buf: Vec<u8>,
    calls: u64,
}

impl Write for CountingWriter {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.calls += 1;
        self.buf.extend_from_slice(data);
        Ok(data.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

struct CountingReader<'a> {
    data: &'a [u8],
    calls: u64,
}

impl Read for CountingReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.calls += 1;
        self.data.read(buf)
    }
}

/// `(write calls, read calls)` per frame through `socket::frame`.
fn frame_calls(payload: &[u8]) -> (u64, u64) {
    let mut w = CountingWriter { buf: Vec::new(), calls: 0 };
    frame::write_frame(&mut w, 1, 8, payload).expect("write to memory");
    let mut r = CountingReader { data: &w.buf, calls: 0 };
    let got = frame::read_frame(&mut r).expect("read from memory").expect("one frame");
    assert_eq!(got.2, payload, "frame round trip");
    (w.calls, r.calls)
}

fn frames(p: &mut Prober, out: &mut Vec<(&'static str, f64)>) {
    let small = StreamMsg::Data(vec![0x5EED_u64]).to_frame();
    let bulk = bulk_msg().to_frame();
    let cases: [(&[u8], u64, [&'static str; 2]); 2] = [
        (&small, 200_000, ["socket.frame.write_ns.small", "socket.frame.read_ns.small"]),
        (&bulk, 2_000, ["socket.frame.write_ns.bulk", "socket.frame.read_ns.bulk"]),
    ];
    for (payload, iters, [write_name, read_name]) in cases {
        let mut buf = Vec::with_capacity(payload.len() + 64);
        out.push((
            write_name,
            p.ns_per_iter(iters, || {
                buf.clear();
                frame::write_frame(&mut buf, 1, 8, std::hint::black_box(payload))
                    .expect("to memory");
            }),
        ));
        out.push((
            read_name,
            p.ns_per_iter(iters, || {
                let mut from = std::hint::black_box(&buf[..]);
                std::hint::black_box(frame::read_frame(&mut from).expect("from memory"));
            }),
        ));
    }
    let (writes, reads) = frame_calls(&small);
    out.push(("socket.frame.write_calls_per_frame", writes as f64));
    out.push(("socket.frame.read_calls_per_frame", reads as f64));

    // The reader thread: frames written on one end of a socket pair,
    // `reader_loop` on the other feeding a mailbox, `take` here.
    let (mut tx, rx) = UnixStream::pair().expect("socket pair");
    let mb = Arc::new(Mailbox::new());
    let mb2 = Arc::clone(&mb);
    let reader = std::thread::spawn(move || socket::reader_loop(rx, 0, &mb2, false));
    let tag = Tag::user(3);
    out.push((
        "socket.reader.handoff_ns",
        p.ns_per_iter(20_000, || {
            frame::write_frame(&mut tx, tag.0, 8, &small).expect("write to the pair");
            std::hint::black_box(mb.take(Src::Any, tag));
        }),
    ));
    drop(tx); // clean EOF at a frame boundary ends the loop
    reader.join().expect("reader thread");
}

// ---------------------------------------------------------------------
// desim / mpisim
// ---------------------------------------------------------------------

fn sim(p: &mut Prober, out: &mut Vec<(&'static str, f64)>) {
    const RANKS: usize = 32;
    let machine = mpisim::MachineConfig::default;
    out.push((
        "desim.spawn_us_per_rank",
        p.ns_per_iter(20, || {
            mpisim::World::new(machine()).run_expect(RANKS, |_| {});
        }) / 1e3
            / RANKS as f64,
    ));
    const ROUNDS: u64 = 2_000;
    out.push((
        "mpisim.pingpong_host_us_per_msg",
        p.ns_per_iter(4, || {
            mpisim::World::new(machine())
                .run_expect(2, |rank| bench_harness::scenarios::pingpong_rank(rank, ROUNDS));
        }) / 1e3
            / (2 * ROUNDS) as f64,
    ));
}

// ---------------------------------------------------------------------
// replica::vsr
// ---------------------------------------------------------------------

/// Commit one operation on a three-replica group wired by an in-memory
/// queue; returns the messages delivered up to the primary's `Committed`.
fn vsr_commit(cores: &mut [VsrCore], state: Vec<u8>) -> u64 {
    let n = cores.len();
    let mut queue: std::collections::VecDeque<(usize, VsrMsg)> = Default::default();
    let mut committed = false;
    let mut delivered = 0u64;
    let mut absorb =
        |from: usize, effects: Vec<Effect>, queue: &mut std::collections::VecDeque<_>| {
            for e in effects {
                match e {
                    Effect::Send { to, msg } => queue.push_back((to, msg)),
                    Effect::Broadcast { msg } => {
                        queue.extend((0..n).filter(|&to| to != from).map(|to| (to, msg.clone())));
                    }
                    Effect::Committed { .. } if from == 0 => committed = true,
                    _ => {}
                }
            }
        };
    let effects = cores[0].on_local_op(state);
    absorb(0, effects, &mut queue);
    while let Some((to, msg)) = queue.pop_front() {
        delivered += 1;
        let effects = cores[to].on_message(msg);
        absorb(to, effects, &mut queue);
    }
    assert!(committed, "a healthy three-replica group commits");
    delivered
}

fn vsr(p: &mut Prober, out: &mut Vec<(&'static str, f64)>) {
    let mut cores: Vec<VsrCore> = (0..3).map(|me| VsrCore::new(me, 3, Vec::new())).collect();
    let state = vec![0u8; 64];
    let msgs = vsr_commit(&mut cores, state.clone());
    out.push((
        "replica.vsr.commit_us",
        p.ns_per_iter(50_000, || {
            std::hint::black_box(vsr_commit(&mut cores, state.clone()));
        }) / 1e3,
    ));
    out.push(("replica.vsr.msgs_per_commit", msgs as f64));
}

/// Run every probe, timed against `cal` (the message kernel);
/// `(per-layer metric name, value)` pairs.
pub fn run_all(cal: &mut Calibrator, quick: bool) -> Vec<(&'static str, f64)> {
    let mut p = Prober { cal, reps: if quick { 3 } else { 5 }, thin: if quick { 10 } else { 1 } };
    let mut out = Vec::new();
    wire(&mut p, &mut out);
    mailbox(&mut p, &mut out);
    frames(&mut p, &mut out);
    sim(&mut p, &mut out);
    vsr(&mut p, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Today's `frame.rs` writes a frame in four `write_all`s (length,
    /// tag, modelled bytes, payload) and reads it in two (length, rest).
    /// A coalescing change must move exactly these.
    #[test]
    fn frame_io_calls_are_four_writes_and_two_reads() {
        assert_eq!(frame_calls(&[0u8; 24]), (4, 2));
        assert_eq!(frame_calls(&vec![0u8; 64 << 10]), (4, 2));
    }

    #[test]
    fn vsr_commit_message_count_repeats_exactly() {
        let mut cores: Vec<VsrCore> = (0..3).map(|me| VsrCore::new(me, 3, Vec::new())).collect();
        let first = vsr_commit(&mut cores, vec![1]);
        assert!(first >= 4, "prepare x2 + prepare-ok x2 at least, got {first}");
        assert_eq!(vsr_commit(&mut cores, vec![2]), first);
        assert_eq!(cores[0].commit_num(), 2);
    }

    #[test]
    fn encode_allocs_counts_this_threads_calls() {
        // A pre-sized buffer the codec only appends to: zero calls; the
        // growing Vec of `to_frame` on 64 KiB: more than one.
        assert!(encode_allocs(&bulk_msg()) > 1);
        assert_eq!(encode_allocs(&()), 0);
    }
}
