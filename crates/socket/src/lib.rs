//! Multi-process [`Transport`](mpistream::Transport) backend: every rank
//! a separate OS process; every directed link a shared-memory [`ring`]
//! that carries its frames; every rank one doorbell in a shared
//! [`page`].
//!
//! The paper's decoupling strategy assumes compute and data-movement
//! groups that could live on different nodes; the sim and native
//! backends still share one address space. This backend takes the same
//! stream programs across a real process boundary: payloads cross the
//! [`Wire`] codec (DESIGN.md §16) and collectives are genuine network
//! rendezvous, [`mpistream::coll`]'s binomial trees.
//!
//! A [`SocketRank`] *is* the native backend's rank,
//! [`native::MailboxRank`], over this crate's [`SocketLinks`]: the same
//! clock, collectives and channel ids, and matching on the same index,
//! [`Matcher`] — owned outright by the rank's one thread instead of
//! kept in a multi-producer [`Mailbox`]. What this crate adds is how a
//! message leaves — encoded into a frame and copied into the peer's
//! ring — how a receive finds its frame and decodes it where it lies in
//! the link's buffer, and how the rank waits for mail: by reading its own
//! rings, on its one thread, and sleeping on its futex doorbell when they
//! are empty (see [`SocketLinks`]).
//!
//! ## Links
//!
//! A link is dialled on first use: the sender connects to the receiver's
//! data listener, creates the link's ring (a `memfd`, [`ring::RING_BYTES`]
//! of data), sends the preamble with the ring's descriptor beside it
//! (`SCM_RIGHTS`), counts the dial in the receiver's slot and closes the
//! socket, which would carry nothing more. Frames, wake-ups and deaths
//! all go through shared memory, which leaves nothing behind.
//!
//! ## Topology
//!
//! A [`SocketWorld::run`] in the **launcher** process re-executes the
//! current binary once per rank (`fork`/`exec` with a
//! `MPISTREAM_SOCKET_*` env handshake). Each child:
//!
//! 1. binds its data listener `dir/rank<r>.sock`, *then* greets the
//!    launcher over `dir/ctl.sock` — so once the launcher releases the
//!    world (GO, with the world page's descriptor), every listener is
//!    guaranteed to exist and connect-on-first-use cannot race;
//! 2. runs the body against a [`SocketRank`] on the process's one
//!    thread; whenever the body waits in a transport call — a receive
//!    that misses, a send whose ring is full — the rank accepts the
//!    links its slot says were dialled and reads its inbound rings;
//! 3. ships its [`Wire`]-encoded result back on the control link and
//!    waits for the launcher's ALL_DONE, still reading its inbound
//!    links — a close barrier: no rank exits while a peer might still be
//!    writing to it, so a peer blocked writing to a finished rank still
//!    gets its frames out.
//!
//! Exactly **one** `SocketWorld::run` per process: in a child, `run`
//! never returns (the process exits after the body), and a second run
//! with a different key panics immediately instead of forking the
//! world's children again. In `cargo test`, give each socket test its
//! own `#[test]` fn, construct the world with [`SocketWorld::for_test`],
//! and put the socket run *first* in the fn so re-executed children
//! reach it before any sim/native comparison work.

// Every `unsafe` block says why it is sound: the rings and the world page
// are shared memory another process writes.
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod frame;
pub mod page;
pub mod ring;
mod sys;

use std::borrow::Cow;
use std::io::{self, Read, Write};
use std::os::fd::{AsFd, OwnedFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use frame::FrameReader;
use mpistream::{MsgInfo, Src, Tag, Wire};
use native::mailbox::{Env, Mailbox, Matcher};
use native::{Links, MailboxRank, Until, WallClock};
use page::{Page, Slot};
use ring::{RingReader, RingWriter};

/// Launch-handshake environment variables.
const ENV_KEY: &str = "MPISTREAM_SOCKET_KEY";
const ENV_RANK: &str = "MPISTREAM_SOCKET_RANK";
const ENV_WORLD: &str = "MPISTREAM_SOCKET_WORLD";
const ENV_DIR: &str = "MPISTREAM_SOCKET_DIR";
const ENV_SCALE: &str = "MPISTREAM_SOCKET_SCALE";

/// Control-plane bytes.
const CTL_GO: u8 = 0x47;
const CTL_ALL_DONE: u8 = 0x44;

/// How long the launch handshake (HELLO, GO) and first-use data connects
/// may take before the run is declared wedged. The handshake bound does
/// not cover the body: how long a world runs is the caller's business.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(120);
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);
/// While the launcher waits for results it wakes this often to look at
/// the children's exit statuses, so a rank that died is reported by name
/// (or, death-tolerant, marked dead in the world page) within about a
/// second. Long enough that the launcher costs the ranks it shares a CPU
/// with nothing.
const RESULT_POLL: Duration = Duration::from_secs(1);
/// The per-rank send buffer keeps its capacity between sends unless one
/// frame grew it past this; then it is released, so a single large
/// message does not pin its memory for the life of the rank.
const SEND_BUF_KEEP: usize = 1 << 20;

/// The flat threshold this backend hands [`MailboxRank::new`]: the
/// binomial tree at every size — there is no star shortcut worth taking
/// when every hop is a frame copied into another process's ring and,
/// as often as not, a futex wake, and `O(log n)` hops is the shape the
/// paper's aggregation analysis assumes.
const COLL_FLAT_THRESHOLD: usize = 0;

/// A socket world: `nprocs` ranks, each its own OS process.
pub struct SocketWorld {
    key: String,
    nprocs: usize,
    compute_scale: f64,
    /// `None`: re-exec with this process's own argv (examples/binaries).
    /// `Some`: explicit child argv (libtest filter args, see
    /// [`SocketWorld::for_test`]).
    child_args: Option<Vec<String>>,
    /// Death-tolerant mode (see [`SocketWorld::death_tolerant`]).
    tolerant: bool,
    /// Bound on the launch handshake; [`HANDSHAKE_TIMEOUT`] outside this
    /// crate's own tests.
    handshake_timeout: Duration,
}

impl SocketWorld {
    /// A world of `nprocs` ranks keyed by `key` (any string unique to
    /// this call site within the binary). Children re-exec the current
    /// binary with its original arguments.
    pub fn new(key: &str, nprocs: usize) -> SocketWorld {
        assert!(nprocs > 0, "a world needs at least one rank");
        SocketWorld {
            key: key.to_string(),
            nprocs,
            compute_scale: 1.0,
            child_args: None,
            tolerant: false,
            handshake_timeout: HANDSHAKE_TIMEOUT,
        }
    }

    /// A world for use inside `#[test]` fns under the libtest harness:
    /// `test_path` must be the test's full name (e.g.
    /// `"socket_quickstart_matches"`, with module prefixes if any) — it
    /// doubles as the world key and as the `--exact` filter children
    /// re-run, so each child executes only the calling test.
    pub fn for_test(test_path: &str, nprocs: usize) -> SocketWorld {
        SocketWorld {
            child_args: Some(vec![
                test_path.to_string(),
                "--exact".to_string(),
                "--nocapture".to_string(),
            ]),
            ..SocketWorld::new(test_path, nprocs)
        }
    }

    /// Wall-clock seconds slept per modelled compute second (default
    /// 1.0), forwarded to every child through the env handshake.
    pub fn with_compute_scale(mut self, scale: f64) -> SocketWorld {
        assert!(scale.is_finite() && scale >= 0.0, "compute_scale must be finite and >= 0");
        self.compute_scale = scale;
        self
    }

    /// Tolerate rank death: a rank process that vanishes mid-run (kill,
    /// abort, crash) no longer takes the world down with it. The launcher
    /// marks it dead in the world page within about a second and wakes
    /// every rank. Sends to a dead peer are silently dropped (the peer is
    /// remembered as dead — no reconnect storms; a send waiting for room
    /// in a dead peer's ring ends at the mark), a dead peer's inbound
    /// link reads as EOF once drained, and the launcher reports the dead
    /// rank as `None` instead of panicking. Pair with
    /// [`SocketWorld::run_tolerant`]; fault-free runs behave identically
    /// to the strict mode.
    pub fn death_tolerant(mut self) -> SocketWorld {
        self.tolerant = true;
        self
    }

    /// Shrink the handshake bound, so a test can outlast it in seconds.
    #[cfg(test)]
    fn with_handshake_timeout(mut self, bound: Duration) -> SocketWorld {
        self.handshake_timeout = bound;
        self
    }

    /// Run `body` once per rank, each in its own OS process, and return
    /// every rank's result in rank order.
    ///
    /// In the launcher this forks the children and collects their
    /// [`Wire`]-encoded results; in a child it runs `body` and **never
    /// returns** (the process exits after the close barrier). The body
    /// must be deterministic in what *type* it returns — the launcher
    /// decodes exactly `R` from every rank.
    pub fn run<R, F>(&self, body: F) -> Vec<R>
    where
        R: Wire,
        F: FnOnce(&mut SocketRank) -> R,
    {
        assert!(
            !self.tolerant,
            "a death-tolerant world must use run_tolerant: a dead rank has no result, \
             so the launcher returns Vec<Option<R>>"
        );
        self.run_tolerant(body)
            .into_iter()
            .map(|r| r.expect("strict launcher panics before recording a dead rank"))
            .collect()
    }

    /// Like [`SocketWorld::run`], but for a [death-tolerant]
    /// world: ranks that die mid-run come back as `None`, every
    /// surviving rank's result as `Some`.
    ///
    /// [death-tolerant]: SocketWorld::death_tolerant
    pub fn run_tolerant<R, F>(&self, body: F) -> Vec<Option<R>>
    where
        R: Wire,
        F: FnOnce(&mut SocketRank) -> R,
    {
        match std::env::var(ENV_KEY) {
            Err(_) => self.run_launcher(scratch_dir(&self.key)),
            Ok(k) if k == self.key => self.run_child(body),
            Ok(k) => panic!(
                "this process was launched as a rank of socket world {k:?} but reached \
                 SocketWorld::run for {:?} first — keep exactly one SocketWorld::run per \
                 test/process and put it before any other backend runs",
                self.key
            ),
        }
    }

    fn run_launcher<R: Wire>(&self, dir: PathBuf) -> Vec<Option<R>> {
        // A launcher that was killed leaves its directory behind, and once
        // the kernel reuses its pid `bind` would fail here on the stale
        // `ctl.sock`, or in rank N on `rankN.sock`. No live world can own
        // the path: its launcher would have this pid.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create socket scratch dir");
        let listener = UnixListener::bind(dir.join("ctl.sock")).expect("bind control socket");
        listener.set_nonblocking(true).expect("nonblocking control listener");

        let exe = std::env::current_exe().expect("resolve current executable");
        let args: Vec<String> =
            self.child_args.clone().unwrap_or_else(|| std::env::args().skip(1).collect());
        let mut guard = LaunchGuard { children: Vec::new(), dir: dir.clone() };
        for r in 0..self.nprocs {
            let child = Command::new(&exe)
                .args(&args)
                .env(ENV_KEY, &self.key)
                .env(ENV_RANK, r.to_string())
                .env(ENV_WORLD, self.nprocs.to_string())
                .env(ENV_DIR, &dir)
                .env(ENV_SCALE, self.compute_scale.to_string())
                .spawn()
                .expect("spawn rank process");
            guard.children.push(child);
        }

        // Accept one HELLO per rank; each child binds its data listener
        // before greeting, so past this loop every listener exists.
        let deadline = std::time::Instant::now() + self.handshake_timeout;
        let mut conns: Vec<Option<UnixStream>> = (0..self.nprocs).map(|_| None).collect();
        let mut accepted = 0;
        while accepted < self.nprocs {
            match listener.accept() {
                Ok((mut s, _)) => {
                    s.set_nonblocking(false).expect("blocking control conn");
                    s.set_read_timeout(Some(self.handshake_timeout)).expect("control read timeout");
                    let mut hello = [0u8; 4];
                    s.read_exact(&mut hello).expect("read HELLO");
                    let r = u32::from_le_bytes(hello) as usize;
                    assert!(r < self.nprocs, "HELLO from out-of-range rank {r}");
                    assert!(conns[r].is_none(), "duplicate HELLO from rank {r}");
                    conns[r] = Some(s);
                    accepted += 1;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    guard.check_alive("during the handshake");
                    assert!(
                        std::time::Instant::now() < deadline,
                        "socket world {:?}: timed out waiting for rank handshakes \
                         ({accepted}/{} arrived)",
                        self.key,
                        self.nprocs
                    );
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => panic!("control accept failed: {e}"),
            }
        }
        let mut conns: Vec<UnixStream> = conns.into_iter().map(|c| c.expect("all ranks")).collect();

        // The handshake bound ends with GO: from here on a silent control
        // link is a rank still running its body, for as long as that
        // takes. A rank that died shows in its exit status instead, which
        // the launcher looks at every RESULT_POLL. The world page rides
        // with GO.
        let (page, page_fd) = Page::create(self.nprocs).expect("create the world page");
        for c in &mut conns {
            sys::send_with_fd(c, &[CTL_GO], page_fd.as_fd()).expect("send GO");
            c.set_read_timeout(Some(RESULT_POLL)).expect("control read timeout");
        }
        // Collect results in rank order, then release everyone at once:
        // the ALL_DONE close barrier keeps ranks alive until no peer can
        // still be writing to them.
        let mut results = Vec::with_capacity(self.nprocs);
        for (r, conn) in conns.iter_mut().enumerate() {
            let idle = || match self.tolerant {
                false => guard.check_alive("before returning a result"),
                // Tolerant worlds expect deaths: mark them for the
                // survivors; the dead rank's own link reports it (EOF).
                true => guard.mark_dead(&page),
            };
            match frame::read_blob(&mut Polled { conn, idle, slot: page.slot(r) }) {
                Ok(blob) => results.push(Some(R::from_frame(&blob).unwrap_or_else(|e| {
                    panic!("rank {r} returned a malformed result frame: {e}")
                }))),
                Err(_) if self.tolerant => results.push(None),
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                    // A rank's end of the link closes only when its
                    // process goes; the exit status follows at once.
                    let status = guard.children[r].wait().expect("wait for rank process");
                    panic!("rank {r} exited with {status} before returning a result");
                }
                Err(e) => panic!("rank {r} failed to return a result: {e}"),
            }
        }
        for (r, c) in conns.iter_mut().enumerate() {
            // A dead rank's control link is gone; releasing it is a no-op.
            let released = c.write_all(&[CTL_ALL_DONE]);
            page.slot(r).ring();
            if results[r].is_some() {
                released.expect("send ALL_DONE");
            }
        }
        for (r, mut child) in guard.children.drain(..).enumerate() {
            let status = child.wait().expect("wait for rank process");
            if results[r].is_some() {
                assert!(status.success(), "rank {r} exited with {status}");
            }
        }
        drop(guard); // removes the scratch dir
        results
    }

    fn run_child<R, F>(&self, body: F) -> !
    where
        R: Wire,
        F: FnOnce(&mut SocketRank) -> R,
    {
        let rank: usize = env_parsed(ENV_RANK);
        let nprocs: usize = env_parsed(ENV_WORLD);
        assert_eq!(
            nprocs, self.nprocs,
            "world size mismatch: launched with {nprocs} ranks, call site says {}",
            self.nprocs
        );
        let dir = PathBuf::from(std::env::var(ENV_DIR).expect("socket dir env"));
        let compute_scale: f64 = env_parsed(ENV_SCALE);

        // Data listener first, HELLO second — the ordering GO relies on.
        let listener = UnixListener::bind(rank_sock(&dir, rank)).expect("bind data listener");
        let mut ctl =
            connect_retry(&dir.join("ctl.sock"), CONNECT_TIMEOUT).expect("connect control socket");
        ctl.set_read_timeout(Some(self.handshake_timeout)).expect("control read timeout");
        ctl.write_all(&(rank as u32).to_le_bytes()).expect("send HELLO");
        let mut go = [0u8; 1];
        let (n, page) = sys::recv_with_fd(&ctl, &mut go).expect("read GO");
        assert_eq!((n, go[0]), (1, CTL_GO), "unexpected control byte");
        let page = Page::attach(page.expect("GO without the world page"), nprocs);
        let page = WORLD_PAGE.get_or_init(|| page.expect("map the world page"));
        // Only the handshake is bounded: ALL_DONE comes when the slowest
        // rank has finished, however long that is.
        ctl.set_read_timeout(None).expect("clear control read timeout");

        let links = SocketLinks::new(dir, listener, rank, nprocs, self.tolerant, page);
        let clock = WallClock::start(compute_scale);
        let mut me = MailboxRank::new(rank, nprocs, clock, COLL_FLAT_THRESHOLD, links);
        let result = body(&mut me);
        me.into_links().close(ctl, &result.to_frame());
        // The close barrier guarantees no peer still needs this rank.
        std::process::exit(0);
    }
}

/// This rank process's map of the world page, for [`RawLink::dial`].
static WORLD_PAGE: OnceLock<Page> = OnceLock::new();

/// Kills any still-running children and removes the scratch directory —
/// on the success path the children vec has been drained first.
struct LaunchGuard {
    children: Vec<Child>,
    dir: PathBuf,
}

impl LaunchGuard {
    /// Fail fast, naming the rank, if a child has already exited: no rank
    /// exits before the launcher's ALL_DONE, so an early exit — whatever
    /// its status — is a death.
    fn check_alive(&mut self, phase: &str) {
        for (r, c) in self.children.iter_mut().enumerate() {
            if let Ok(Some(status)) = c.try_wait() {
                panic!("rank {r} exited with {status} {phase}");
            }
        }
    }

    /// Death-tolerant worlds: mark every rank whose process has gone
    /// dead in the world page, which wakes every rank.
    fn mark_dead(&mut self, page: &Page) {
        for (r, c) in self.children.iter_mut().enumerate() {
            if !page.slot(r).is_dead() && matches!(c.try_wait(), Ok(Some(_))) {
                page.kill(r);
            }
        }
    }
}

/// A control link with its read timeout armed: a `read` that times out
/// calls `idle` and tries again. The `read_exact` above it sees only
/// bytes, EOF or a real error, so no timeout can fall inside a blob.
/// Bytes taken ring the rank's `slot`: it may be waiting for room.
struct Polled<'a, F> {
    conn: &'a mut UnixStream,
    idle: F,
    slot: &'a Slot,
}

impl<F: FnMut()> Read for Polled<'_, F> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.conn.read(buf) {
                Err(e)
                    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
                {
                    (self.idle)()
                }
                other => {
                    self.slot.ring();
                    return other;
                }
            }
        }
    }
}

impl Drop for LaunchGuard {
    fn drop(&mut self) {
        for c in &mut self.children {
            let _ = c.kill();
            let _ = c.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn env_parsed<T: std::str::FromStr>(name: &str) -> T
where
    T::Err: std::fmt::Debug,
{
    std::env::var(name)
        .unwrap_or_else(|_| panic!("{name} not set in rank process"))
        .parse()
        .unwrap_or_else(|e| panic!("{name} unparseable: {e:?}"))
}

fn rank_sock(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("rank{rank}.sock"))
}

/// Per-run scratch directory under the system temp dir. Keyed by pid +
/// a process-wide counter (several sequential worlds in one launcher) +
/// a hash of the world key, kept short for the Unix socket path limit.
fn scratch_dir(key: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in key.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
    }
    std::env::temp_dir().join(format!("mpws-{}-{n}-{h:08x}", std::process::id()))
}

fn connect_retry(path: &Path, total: Duration) -> std::io::Result<UnixStream> {
    let deadline = std::time::Instant::now() + total;
    loop {
        match UnixStream::connect(path) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if std::time::Instant::now() >= deadline {
                    return Err(e);
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

/// Decode frames from one blocking inbound link into `mailbox` until
/// clean EOF, on the calling thread. Malformed traffic from a peer
/// panics that thread (garbage means a protocol bug, not hostile input —
/// the codec itself reports it as a typed error first) — except under
/// `tolerant`, where a broken link (the peer process died mid-frame) is
/// treated as end-of-stream.
///
/// A [`SocketRank`] does not use this: it reads its own links when a
/// receive misses (see [`SocketLinks`]). This is the reader-thread hand-off
/// kept for callers that measure or pin one in isolation — the
/// benchmark's `socket.reader.handoff_ns` probe and
/// `tests/recv_deadline_semantics.rs`.
pub fn reader_loop(stream: UnixStream, src: usize, mailbox: &Mailbox, tolerant: bool) {
    let mut frames = FrameReader::new(stream);
    loop {
        match frames.next_frame() {
            Ok(Some((tag, bytes, payload))) => {
                mailbox.push(Env { src, tag: Tag(tag), bytes, payload: Box::new(payload) });
            }
            Ok(None) => return,
            Err(_) if tolerant => return,
            Err(e) => panic!("reader for link from rank {src}: {e}"),
        }
    }
}

/// One socket rank: the per-process handle [`SocketWorld::run`] passes
/// to the body. The native backend's rank over [`SocketLinks`], so the
/// whole stream runtime — channels, streams, combiners, `run_decoupled`
/// — works against it.
pub type SocketRank = MailboxRank<SocketLinks>;

/// The [`Links`] of a socket rank: a shared-memory [`ring`] per directed
/// link that carries its frames, the rank's doorbell in the world
/// [`page`], and this process's [`Matcher`].
///
/// A rank process has one thread, the one running the body, and it makes
/// progress on its own links. A receive looks in the matcher first, then
/// reads its inbound rings up to the first frame that matches and
/// decodes that frame where it lies, in the link's buffer or, for a frame
/// larger than the buffer, in the ring itself; the frames it passes over
/// go into the matcher. If nothing matched it parks on its bell, looks
/// again, and sleeps in `FUTEX_WAIT` until someone rings it.
/// Wherever the rank can block it does the same, so no peer waits on a
/// rank that is itself waiting: a `send` whose ring is full, and the
/// close barrier, read every inbound ring while they wait. Between
/// transport calls — while the body computes — nothing is read, and a
/// peer that fills the ring meanwhile waits for the next call.
pub struct SocketLinks {
    dir: PathBuf,
    /// The receiving side: listener, inbound links and matcher.
    inbound: Inbound,
    /// Outbound links, connected on first use (always succeeds: every
    /// listener was bound before GO).
    links: Vec<Option<OutLink>>,
    /// Peers observed dead (tolerant mode only): once a connect or a
    /// send to a rank fails it stays marked, so later sends drop
    /// immediately instead of re-dialling a corpse.
    dead: Vec<bool>,
    /// Where `send` builds its frame; keeps its capacity between sends
    /// (up to [`SEND_BUF_KEEP`]).
    send_buf: Vec<u8>,
}

impl SocketLinks {
    fn new(
        dir: PathBuf,
        listener: UnixListener,
        rank: usize,
        nprocs: usize,
        tolerant: bool,
        page: &'static Page,
    ) -> SocketLinks {
        listener.set_nonblocking(true).expect("nonblocking data listener");
        SocketLinks {
            dir,
            inbound: Inbound {
                rank,
                tolerant,
                page,
                dials: 0,
                listener,
                links: Vec::new(),
                next: 0,
                matcher: Matcher::default(),
            },
            links: (0..nprocs).map(|_| None).collect(),
            dead: vec![false; nprocs],
            send_buf: Vec::new(),
        }
    }

    fn connect(&self, me: usize, dst: usize) -> Result<OutLink, String> {
        // Every listener was bound before GO, so in tolerant mode a
        // refused connect means the peer is gone — fail on the first
        // attempt instead of retrying against a corpse for seconds.
        let path = rank_sock(&self.dir, dst);
        let connected = if self.inbound.tolerant {
            UnixStream::connect(&path)
        } else {
            connect_retry(&path, CONNECT_TIMEOUT)
        };
        let sock = connected.map_err(|e| format!("connect to rank {dst}: {e}"))?;
        OutLink::open(sock, me, self.inbound.page.slot(dst))
            .map_err(|e| format!("link to rank {dst}: {e}"))
    }

    /// The close barrier, after the body returned: ship the result on the
    /// control link, then wait for the launcher's ALL_DONE — reading
    /// inbound links all the while, because a peer may still be writing
    /// to this rank and cannot finish its own body until it has. The
    /// launcher rings this rank after it takes result bytes and after
    /// ALL_DONE.
    fn close(mut self, ctl: UnixStream, result: &[u8]) {
        let mut blob = Vec::with_capacity(4 + result.len());
        frame::write_blob(&mut blob, result).expect("ship result");
        ctl.set_nonblocking(true).expect("nonblocking control link");
        let mut left = &blob[..];
        while !left.is_empty() {
            let n = self.inbound.retry(|| (&ctl).write(left)).expect("ship result");
            assert!(n > 0, "ship result: the launcher closed the control link");
            left = &left[n..];
        }
        let mut done = [0u8; 1];
        let n = self.inbound.retry(|| (&ctl).read(&mut done)).expect("read ALL_DONE");
        assert_eq!((n, done[0]), (1, CTL_ALL_DONE), "read ALL_DONE: unexpected control bytes");
    }
}

impl Links for SocketLinks {
    fn send<T: Wire + Send + 'static>(&mut self, dst: usize, info: MsgInfo, v: T) {
        let MsgInfo { src: me, tag, bytes } = info;
        if dst == me {
            // Self-sends still cross the codec — one uniform path, so a
            // payload that cannot round-trip fails loudly everywhere.
            let payload = Box::new(v.to_frame());
            self.inbound.matcher.insert(Env { src: me, tag, bytes, payload });
            return;
        }
        // The encoder writes straight behind the reserved header bytes of
        // the retained buffer, and the finished frame is copied into the
        // peer's ring and published before `send` returns. Nothing is
        // ever held back for a later flush: that would be aggregation
        // behind the caller's back, and would stall a producer's last
        // element for as long as the application computes between sends.
        let mut buf = std::mem::take(&mut self.send_buf);
        frame::begin_frame(&mut buf);
        v.encode(&mut buf);
        if let Err(e) = frame::finish_frame(&mut buf, tag.0, bytes) {
            // The caller's error, found before any I/O: in neither mode
            // does it say anything about the peer.
            panic!("rank {me}: send to rank {dst} under tag {tag:?}: {e}");
        }
        if self.links[dst].is_none() && !self.dead[dst] {
            match self.connect(me, dst) {
                Ok(link) => self.links[dst] = Some(link),
                Err(_) if self.inbound.tolerant => self.dead[dst] = true,
                Err(e) => panic!("rank {me}: {e}"),
            }
        }
        // `None`: tolerant mode and dst is dead — the send is dropped.
        if let Some(link) = &mut self.links[dst] {
            if let Err(e) = self.inbound.send_frame(link, &buf) {
                assert!(self.inbound.tolerant, "rank {me}: send to rank {dst}: {e}");
                self.links[dst] = None;
                self.dead[dst] = true;
            }
        }
        if buf.capacity() <= SEND_BUF_KEEP {
            self.send_buf = buf;
        }
    }

    fn recv<T: Wire + Send + 'static>(
        &mut self,
        _me: usize,
        src: Src,
        tag: Tag,
        until: Until,
    ) -> Option<(T, MsgInfo)> {
        self.inbound.progress(until, |inbound| inbound.recv(src, tag))
    }

    fn probe(&mut self, _me: usize, src: Src, tag: Tag) -> Option<MsgInfo> {
        let inbound = &mut self.inbound;
        inbound.matcher.probe(src, tag).or_else(|| {
            inbound.serve();
            inbound.matcher.probe(src, tag)
        })
    }

    fn wait_change(&mut self, _me: usize, seen: u64) -> u64 {
        // This thread is the only writer of its own mail, so the version
        // moves only when it reads a frame it does not take at once.
        let changed = |inbound: &Inbound| Some(inbound.matcher.version()).filter(|&v| v != seen);
        let version = self.inbound.progress(Until::Forever, |inbound| {
            changed(inbound).or_else(|| {
                inbound.serve();
                changed(inbound)
            })
        });
        version.expect("a wait without a deadline ends with a change")
    }
}

/// The value a frame carries, decoded for world rank `me`.
fn decode<T: Wire>(me: usize, info: MsgInfo, payload: &[u8]) -> T {
    T::from_frame(payload).unwrap_or_else(|e| {
        panic!(
            "rank {me}: malformed {} frame from rank {} under tag {:?}: {e}",
            std::any::type_name::<T>(),
            info.src,
            info.tag
        )
    })
}

/// The receiving side of a socket rank: its data listener, its inbound
/// links, its slot of the world page, and its matcher, which holds the
/// frames this rank's own thread has read but not yet taken.
struct Inbound {
    rank: usize,
    /// Death-tolerant mode (see [`SocketWorld::death_tolerant`]).
    tolerant: bool,
    page: &'static Page,
    /// The slot's dial count when the listener was last drained.
    dials: u32,
    listener: UnixListener,
    links: Vec<InLink>,
    /// Where the next scan of `links` starts: just past the link whose
    /// frame the last one took, so a wildcard receive cannot starve a
    /// link behind one that is never empty.
    next: usize,
    matcher: Matcher,
}

impl Inbound {
    /// Every wait of a socket rank, in one place:
    /// [`Bell::wait`](native::sync::futex::Bell::wait) on the
    /// rank's bell in the world [`page`], with `look` as its look. A
    /// look that finds nothing must have read every link to its end — a
    /// receive that misses has, and every other wait serves the links
    /// itself — so a rank never sleeps with a frame unread, and two
    /// ranks that flood each other drain each other instead of wedging.
    /// No socket call is made unless a link is being dialled or `look`
    /// makes one.
    fn progress<R>(
        &mut self,
        until: Until,
        mut look: impl FnMut(&mut Inbound) -> Option<R>,
    ) -> Option<R> {
        let bell = self.page.slot(self.rank).bell();
        bell.wait(until, || look(self))
    }

    /// The first message that matches `(src, tag)`, decoded: from the
    /// matcher if it holds one — its frames are older than anything
    /// still on their links, so per-`(src, tag)` order holds — and else
    /// from the links, decoded where it lies in its reader's buffer.
    fn recv<T: Wire>(&mut self, src: Src, tag: Tag) -> Option<(T, MsgInfo)> {
        let me = self.rank;
        if let Some(env) = self.matcher.take(src, tag) {
            let info = MsgInfo { src: env.src, tag: env.tag, bytes: env.bytes };
            let payload =
                env.payload.downcast::<Vec<u8>>().expect("a socket rank's mail is frames");
            return Some((decode(me, info, &payload), info));
        }
        self.read(|info, payload| {
            let from = match src {
                Src::Any => true,
                Src::Rank(r) => r == info.src,
            };
            let wanted = info.tag == tag && from;
            wanted.then(|| (decode(me, info, payload), info))
        })
    }

    /// Read every link to its end, each frame into the matcher.
    fn serve(&mut self) {
        self.read(|_, _| None::<()>);
    }

    /// Read the links, starting at `next`, until `pick` takes a frame;
    /// every frame it passes over goes into the matcher. `None`: `pick`
    /// took nothing, and every link has been read to its end. If the
    /// slot's dial count moved, the pending connections are accepted
    /// first. A link that ended cleanly is dropped; one that failed is
    /// fatal to the process in strict mode — the frames the body waits
    /// for can no longer arrive, so the rank prints the error and exits
    /// non-zero, which the launcher's exit-status poll reports — and
    /// under `tolerant` a dead peer that reads as end-of-stream.
    fn read<R>(&mut self, mut pick: impl FnMut(MsgInfo, &[u8]) -> Option<R>) -> Option<R> {
        let dials = self.page.slot(self.rank).dials();
        if dials != self.dials {
            self.dials = dials;
            self.accept();
        }
        let Inbound { rank, tolerant, page, links, next, matcher, .. } = self;
        let mut at = *next;
        for _ in 0..links.len() {
            at %= links.len();
            let (state, found) = links[at].read(matcher, page, *tolerant, &mut pick);
            match state {
                Ok(true) => at += 1,
                Ok(false) => drop(links.remove(at)),
                Err(_) if *tolerant => drop(links.remove(at)),
                Err(why) => {
                    eprintln!("rank {rank}: {why}");
                    std::process::exit(1);
                }
            }
            if found.is_some() {
                *next = at;
                return found;
            }
        }
        None
    }

    fn accept(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((sock, _)) => {
                    sock.set_nonblocking(true).expect("nonblocking inbound link");
                    let bytes = [0; frame::PREAMBLE_BYTES];
                    self.links.push(InLink::Preamble { sock, bytes, have: 0, ring: None });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => panic!("rank {}: accept: {e}", self.rank),
            }
        }
    }

    /// Retry the non-blocking `op` (on the control link) until it does
    /// not block, serving the links in between: the launcher may be
    /// reading another rank's result first, and that rank may be waiting
    /// for this one to read its ring.
    fn retry<T>(&mut self, mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
        let blocked = |e: &io::Error| {
            matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted)
        };
        let done = self.progress(Until::Forever, |inbound| {
            inbound.serve();
            Some(op()).filter(|r| !r.as_ref().is_err_and(blocked))
        });
        done.expect("a wait without a deadline ends with a result")
    }

    /// Copy `frame` into `out`'s ring and publish it, in pieces if it
    /// does not fit. While the ring is full, raise its `writer_parked`
    /// and wait with [`Inbound::progress`], serving the links, until the
    /// reader frees room and rings this rank: two ranks flooding each
    /// other drain each other instead of wedging. An error means the
    /// receiving rank has been marked dead.
    fn send_frame(&mut self, out: &mut OutLink, mut frame: &[u8]) -> io::Result<()> {
        loop {
            frame = &frame[out.publish(frame)..];
            if frame.is_empty() {
                return Ok(());
            }
            let dead = self.progress(Until::Forever, |inbound| {
                inbound.serve();
                let dead = out.reader.is_dead();
                (dead || !out.ring.park()).then_some(dead)
            });
            out.ring.unpark();
            if dead.expect("a wait without a deadline ends with room or a death") {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "the receiving rank died"));
            }
        }
    }
}

/// One outbound link: the ring this rank publishes its frames into, and
/// the reader's slot, which every publish rings.
struct OutLink {
    ring: RingWriter,
    reader: &'static Slot,
}

impl OutLink {
    /// Create the link's ring, send the preamble on the freshly
    /// connected, blocking `sock` with the ring's descriptor riding along
    /// (nine bytes into an empty buffer: this cannot block), and count
    /// the dial in the reader's slot. The socket then closes; the reader
    /// still finds the preamble queued on its end.
    fn open(sock: UnixStream, me: usize, reader: &'static Slot) -> io::Result<OutLink> {
        let (ring, fd) = ring::create()?;
        let mut preamble = Vec::with_capacity(frame::PREAMBLE_BYTES);
        frame::write_preamble(&mut preamble, me)?;
        sys::send_with_fd(&sock, &preamble, fd.as_fd())?;
        reader.dial();
        Ok(OutLink { ring, reader })
    }

    /// Publish what fits of `bytes` and ring the reader. Returns how many
    /// bytes went.
    fn publish(&mut self, bytes: &[u8]) -> usize {
        let n = self.ring.publish(bytes);
        if n > 0 {
            self.reader.ring();
        }
        n
    }
}

/// An outbound link dialled by hand, for tests that must choose exactly
/// which bytes a rank receives and when: [`RawLink::dial`], in a rank
/// process, connects to a rank's data listener as rank `src` and sends
/// the preamble with a fresh ring, and every write then goes into that
/// ring as it is, waiting on `src`'s bell while the ring is full.
#[doc(hidden)]
pub struct RawLink {
    out: OutLink,
    me: &'static Slot,
}

impl RawLink {
    pub fn dial(listener: &Path, src: usize) -> io::Result<RawLink> {
        let page = WORLD_PAGE.get().ok_or_else(|| io::Error::other("not in a socket rank"))?;
        let dst = listener.file_stem().and_then(|s| s.to_str()?.strip_prefix("rank")?.parse().ok());
        let dst: usize = dst.ok_or_else(|| io::Error::other("not a rank's data listener"))?;
        let out = OutLink::open(UnixStream::connect(listener)?, src, page.slot(dst))?;
        Ok(RawLink { out, me: page.slot(src) })
    }
}

impl Write for RawLink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        loop {
            let n = self.out.publish(buf);
            if n > 0 || buf.is_empty() {
                return Ok(n);
            }
            if self.out.reader.is_dead() {
                return Err(io::ErrorKind::BrokenPipe.into());
            }
            self.me.park();
            if self.out.ring.park() && !self.out.reader.is_dead() {
                self.me.sleep(None);
            }
            self.me.unpark();
            self.out.ring.unpark();
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One inbound link.
enum InLink {
    /// Accepted: the preamble bytes read so far, and the ring's
    /// descriptor once it has come with them.
    Preamble {
        sock: UnixStream,
        bytes: [u8; frame::PREAMBLE_BYTES],
        have: usize,
        ring: Option<OwnedFd>,
    },
    /// The preamble is in (and the socket closed): the sender, and the
    /// frames of its ring.
    Open { src: usize, frames: FrameReader<RingReader> },
}

impl InLink {
    /// Take the preamble if it is still to come (it follows its dial
    /// within moments); then read the ring's frames until `pick` takes
    /// one, lent where it lies — in the reader's buffer or, when it is
    /// too large for that, in the ring — each frame it passes over going
    /// into `matcher`; then release what was lent and ring the writer if
    /// a release claimed its wake. A frame that came in its own
    /// allocation (larger than the ring, or begun in the buffer behind
    /// smaller frames) does not stop the read: the frames behind it go
    /// into `matcher` in the same pass, so each receive of such frames
    /// frees as much ring room as there is, not one frame's worth with a
    /// wake of the writer each. A writer the
    /// launcher marked dead published everything it ever will: its ring
    /// is closed first, so it reads as EOF once drained. A partial frame
    /// stays in the reader, or in the ring, for the next call. The state
    /// is `Ok(false)` when the link ended at a frame boundary.
    fn read<R>(
        &mut self,
        matcher: &mut Matcher,
        page: &Page,
        tolerant: bool,
        pick: &mut impl FnMut(MsgInfo, &[u8]) -> Option<R>,
    ) -> (Result<bool, String>, Option<R>) {
        if let Err(e) = self.read_preamble(page.ranks()) {
            return (Err(format!("connection preamble: {e}")), None);
        }
        let InLink::Open { src, frames } = self else { return (Ok(true), None) };
        let src = *src;
        if tolerant && page.slot(src).is_dead() {
            frames.get_mut().close();
        }
        let mut found = None;
        let state = loop {
            match frames.lend_frame() {
                Ok(Some((tag, bytes, payload))) => {
                    let info = MsgInfo { src, tag: Tag(tag), bytes };
                    if found.is_none() {
                        found = pick(info, &payload);
                        if found.is_some() {
                            match payload {
                                Cow::Borrowed(_) => break Ok(true),
                                Cow::Owned(_) => continue,
                            }
                        }
                    }
                    let payload = Box::new(payload.into_owned());
                    matcher.insert(Env { src, tag: Tag(tag), bytes, payload });
                }
                Ok(None) => break Ok(false),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break Ok(true),
                Err(e) => break Err(format!("inbound link from rank {src}: {e}")),
            }
        };
        if frames.get_mut().take_wake() {
            page.slot(src).ring();
        }
        (state, found)
    }

    /// Read the preamble as far as the socket has it; once whole, check
    /// it (a sender among the world's `ranks`), map the ring that came
    /// with it and start reading frames.
    fn read_preamble(&mut self, ranks: usize) -> io::Result<()> {
        let InLink::Preamble { sock, bytes, have, ring } = self else { return Ok(()) };
        while *have < bytes.len() {
            match sys::recv_with_fd(sock, &mut bytes[*have..]) {
                Ok((0, _)) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok((n, fd)) => {
                    *have += n;
                    *ring = fd.or(ring.take());
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(e),
            }
        }
        let src = frame::read_preamble(&mut &bytes[..])?;
        if src >= ranks {
            return Err(io::Error::new(io::ErrorKind::InvalidData, format!("sender rank {src}")));
        }
        let fd = ring.take().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, "preamble without the ring's descriptor")
        })?;
        *self = InLink::Open { src, frames: FrameReader::new(ring::attach(fd)?) };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpistream::{Src, Transport};

    #[test]
    fn oversize_payload_is_the_senders_panic_in_both_modes() {
        // One byte over the cap once the Vec's count prefix and the frame
        // header are added. Never touched, so it costs no memory itself.
        let over = mpistream::MAX_FRAME_BYTES - frame::HEADER_BYTES - 8 + 1;
        let tag = Tag::user(9);
        for tolerant in [false, true] {
            let dir = scratch_dir("oversize");
            std::fs::create_dir_all(&dir).unwrap();
            let peer = UnixListener::bind(rank_sock(&dir, 1)).unwrap();
            let me = UnixListener::bind(rank_sock(&dir, 0)).unwrap();
            let page: &'static Page = Box::leak(Box::new(Page::local(2)));
            let mut links = SocketLinks::new(dir.clone(), me, 0, 2, tolerant, page);

            let sent = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                links.send(1, MsgInfo { src: 0, tag, bytes: 8 }, vec![0u8; over]);
            }));
            let panic = sent.expect_err("an oversize payload must panic, tolerant or not");
            let msg = panic.downcast_ref::<String>().expect("a formatted panic message");
            let size = (mpistream::MAX_FRAME_BYTES + 1).to_string();
            for needle in ["rank 0", "rank 1", &format!("{tag:?}"), &size] {
                assert!(msg.contains(needle), "panic {msg:?} does not name {needle:?}");
            }

            // It was found before any I/O and says nothing about the
            // peer: not marked dead, not even dialled, and the next send
            // goes through.
            assert!(!links.dead[1] && links.links[1].is_none(), "tolerant = {tolerant}");
            links.send(1, MsgInfo { src: 0, tag, bytes: 8 }, 7u64);
            let mut peer = SocketLinks::new(dir.clone(), peer, 1, 2, tolerant, page);
            let (v, info) =
                peer.recv::<u64>(1, Src::Rank(0), tag, Until::Forever).expect("the frame");
            assert_eq!((info.src, info.bytes), (0, 8));
            assert_eq!(v, 7);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// `n` ranks' links in this process, over a page on the heap: every
    /// listener is bound before any rank is built, as GO guarantees.
    fn local_world(key: &str, n: usize, tolerant: bool) -> (PathBuf, Vec<SocketLinks>) {
        let dir = scratch_dir(key);
        std::fs::create_dir_all(&dir).unwrap();
        let listeners: Vec<_> =
            (0..n).map(|r| UnixListener::bind(rank_sock(&dir, r)).unwrap()).collect();
        let page: &'static Page = Box::leak(Box::new(Page::local(n)));
        let ranks = listeners
            .into_iter()
            .enumerate()
            .map(|(r, l)| SocketLinks::new(dir.clone(), l, r, n, tolerant, page))
            .collect();
        (dir, ranks)
    }

    /// Send `v` from `src` to rank 0, and push the same message into
    /// `reference`: each link's frames reach it in the order the link
    /// carries them.
    fn send_both<T: Wire + Clone + Send + 'static>(
        ranks: &mut [SocketLinks],
        reference: &Mailbox,
        src: usize,
        tag: Tag,
        v: T,
    ) {
        ranks[src].send(0, MsgInfo { src, tag, bytes: 8 }, v.clone());
        reference.push(Env { src, tag, bytes: 8, payload: Box::new(v) });
    }

    /// Rank 0's typed receive, without waiting, checked against the
    /// native `Mailbox` fed the same frames: a directed receive gets
    /// exactly what the mailbox's does, and a wildcard one, which may
    /// pick either link, gets its source's oldest frame under `tag`.
    fn recv_checked<T>(rank: &mut SocketLinks, reference: &Mailbox, src: Src, tag: Tag) -> Option<T>
    where
        T: Wire + PartialEq + std::fmt::Debug + Send + 'static,
    {
        let got = rank.recv::<T>(0, src, tag, Until::Now);
        let from = got.as_ref().map_or(src, |(_, info)| Src::Rank(info.src));
        let want = reference.try_take(from, tag).map(|env| (env.src, env.bytes, env.payload));
        let want = want.map(|(s, bytes, v)| (*v.downcast::<T>().unwrap(), s, bytes));
        let got = got.map(|(v, info)| (v, info.src, info.bytes));
        assert_eq!(got, want, "receive from {src:?} under {tag:?}");
        got.map(|(v, _, _)| v)
    }

    /// Frames read on the way to a match and frames lent where they lie
    /// come out in the order the mailbox gives them: directed receives
    /// taken out of turn, a frame larger than the reader's buffer, and a
    /// wildcard drain at the end.
    #[test]
    fn typed_receive_matches_a_mailbox_fed_the_same_frames() {
        let (dir, mut ranks) = local_world("receive-order", 3, false);
        let reference = Mailbox::new();
        let (a, b, big) = (Tag::user(1), Tag::user(2), Tag::user(3));
        let large = vec![7u8; frame::LINK_BUF_BYTES + 100];
        for (tag, v) in [(a, 100u64), (b, 101), (a, 102)] {
            send_both(&mut ranks, &reference, 1, tag, v);
        }
        send_both(&mut ranks, &reference, 1, big, large.clone());
        for (tag, v) in [(a, 103u64), (b, 104)] {
            send_both(&mut ranks, &reference, 1, tag, v);
        }
        for (tag, v) in [(b, 200u64), (a, 201), (b, 202), (a, 203)] {
            send_both(&mut ranks, &reference, 2, tag, v);
        }
        let me = &mut ranks[0];
        let passed_over = |me: &SocketLinks| me.inbound.matcher.version();

        // The large frame is taken past three frames, and the two behind
        // it on its link are read in the same pass: all five wait in the
        // matcher.
        assert_eq!(recv_checked(me, &reference, Src::Rank(1), big), Some(large));
        assert_eq!(passed_over(me), 5);
        // Lent where it lies: nothing passed over.
        assert_eq!(recv_checked(me, &reference, Src::Rank(2), b), Some(200u64));
        assert_eq!(passed_over(me), 5);
        assert_eq!(recv_checked(me, &reference, Src::Rank(2), b), Some(202u64));
        assert_eq!(passed_over(me), 6, "201 was passed over");
        // From the matcher, which holds the oldest of each link.
        assert_eq!(recv_checked(me, &reference, Src::Rank(1), b), Some(101u64));
        assert_eq!(recv_checked(me, &reference, Src::Rank(2), a), Some(201u64));
        for tag in [a, b] {
            while recv_checked::<u64>(me, &reference, Src::Any, tag).is_some() {}
        }
        assert_eq!(passed_over(me), 6, "203 was lent");
        assert!(reference.try_take(Src::Any, big).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Death-tolerant: a writer marked dead has published everything it
    /// ever will. Its frames are all delivered, in order, and then its
    /// link reads as the end of the stream and is dropped.
    #[test]
    fn a_dead_writers_frames_arrive_before_its_link_closes() {
        let (dir, mut ranks) = local_world("dead-writer", 2, true);
        let reference = Mailbox::new();
        let (a, b) = (Tag::user(1), Tag::user(2));
        for (tag, v) in [(a, 1u64), (a, 2), (b, 3), (a, 4)] {
            send_both(&mut ranks, &reference, 1, tag, v);
        }
        ranks[0].inbound.page.kill(1);
        let me = &mut ranks[0];
        assert_eq!(recv_checked(me, &reference, Src::Rank(1), b), Some(3u64));
        assert_eq!(me.inbound.links.len(), 1, "one frame is still unread");
        for v in [1u64, 2, 4] {
            assert_eq!(recv_checked(me, &reference, Src::Rank(1), a), Some(v));
        }
        assert_eq!(recv_checked::<u64>(me, &reference, Src::Any, a), None);
        assert!(me.inbound.links.is_empty(), "the dead writer's link is dropped at its end");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Two links that are never empty: successive wildcard receives take
    /// from both, because each scan starts past the link the last one
    /// took from.
    #[test]
    fn wildcard_receives_take_from_every_busy_link() {
        let (dir, mut ranks) = local_world("wildcard-fair", 3, false);
        let reference = Mailbox::new();
        let tag = Tag::user(1);
        for i in 0..8u64 {
            send_both(&mut ranks, &reference, 1, tag, 100 + i);
            send_both(&mut ranks, &reference, 2, tag, 200 + i);
        }
        let me = &mut ranks[0];
        let picks: Vec<u64> = (0..8)
            .map(|_| recv_checked::<u64>(me, &reference, Src::Any, tag).expect("a frame") / 100)
            .collect();
        for pair in picks.windows(2) {
            assert_ne!(pair[0], pair[1], "one link starved the other: sources {picks:?}");
        }
        assert_eq!(me.inbound.matcher.version(), 0, "every frame was lent");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // Real multi-process smokes: each spawns its world as child
    // processes re-running this exact test under --exact. One
    // SocketWorld::run per test, placed first.

    #[test]
    fn ping_pong_round_trips_across_processes() {
        let totals =
            SocketWorld::for_test("tests::ping_pong_round_trips_across_processes", 2).run(|rank| {
                let t = Tag::user(1);
                if rank.world_rank() == 0 {
                    rank.send(1, t, 8, 41u64);
                    let (v, info) = rank.recv::<u64>(Src::Rank(1), t);
                    assert_eq!(info.src, 1);
                    v
                } else {
                    let (v, _) = rank.recv::<u64>(Src::Any, t);
                    rank.send(0, t, 8, v + 1);
                    v
                }
            });
        assert_eq!(totals, vec![42, 41]);
    }

    /// Every rank of a 5-process world allocates 3 ids; all 15 are
    /// distinct, and every rank gathers the same 15.
    #[test]
    fn channel_ids_are_world_unique() {
        let ids = SocketWorld::for_test("tests::channel_ids_are_world_unique", 5).run(|rank| {
            let mine: Vec<u16> = (0..3).map(|_| rank.alloc_channel_id()).collect();
            let world = rank.world_group();
            rank.allgatherv(&world, 6, mine).concat()
        });
        let mut all = ids[0].clone();
        assert!(ids.iter().all(|g| *g == all), "ranks disagree: {ids:?}");
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 15, "{ids:?}");
    }

    #[test]
    fn launcher_clears_a_stale_scratch_dir() {
        let world = SocketWorld::for_test("tests::launcher_clears_a_stale_scratch_dir", 2);
        if std::env::var(ENV_KEY).is_ok() {
            world.run(|rank| rank.world_rank()); // a rank process: never returns
        }
        // What a killed launcher leaves: dropping a listener closes it
        // but does not unlink its path.
        let dir = scratch_dir(&world.key);
        std::fs::create_dir_all(&dir).unwrap();
        drop(UnixListener::bind(dir.join("ctl.sock")).unwrap());
        drop(UnixListener::bind(rank_sock(&dir, 0)).unwrap());
        UnixListener::bind(dir.join("ctl.sock")).expect_err("the stale path is still in the way");

        let ranks: Vec<Option<usize>> = world.run_launcher(dir.clone());
        assert_eq!(ranks, vec![Some(0), Some(1)]);
        assert!(!dir.exists(), "the launcher removes its scratch dir");
    }

    #[test]
    fn body_may_outlast_the_handshake_timeout() {
        // The control-link read timeout bounds HELLO and GO only. Rank 0
        // keeps the launcher waiting for its result, and rank 1 waiting
        // for ALL_DONE, for twice the handshake bound: neither wait may
        // be mistaken for a death.
        let bound = Duration::from_secs(1);
        let ranks = SocketWorld::for_test("tests::body_may_outlast_the_handshake_timeout", 2)
            .with_handshake_timeout(bound)
            .run(|rank| {
                if rank.world_rank() == 0 {
                    std::thread::sleep(2 * bound);
                }
                rank.world_rank()
            });
        assert_eq!(ranks, vec![0, 1]);
    }
}
