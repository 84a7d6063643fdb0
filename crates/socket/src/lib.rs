//! Multi-process [`Transport`](mpistream::Transport) backend: every rank
//! a separate OS process; every directed link a shared-memory [`ring`]
//! that carries its frames, with a Unix-domain socket beside it.
//!
//! The paper's decoupling strategy assumes compute and data-movement
//! groups that could live on different nodes; the sim and native
//! backends still share one address space. This backend takes the same
//! stream programs across a real process boundary: payloads cross the
//! [`Wire`] codec (DESIGN.md §16) and collectives are genuine network
//! rendezvous, [`mpistream::coll`]'s binomial trees.
//!
//! A [`SocketRank`] *is* the native backend's rank,
//! [`native::MailboxRank`], over this crate's [`SocketLinks`]: matching
//! happens in the exact same [`Mailbox`], on the same clock, with the
//! same collectives and channel ids. What this crate adds is how a
//! message leaves — encoded into a frame and copied into the peer's
//! ring — how a received frame is decoded, and how the rank waits for
//! mail: by reading its own rings, on its one thread, and sleeping in
//! `poll` on their sockets when they are empty (see [`SocketLinks`]).
//!
//! ## Links
//!
//! A link is dialled on first use: the sender connects to the receiver's
//! data listener, creates the link's ring (a `memfd`, [`ring::RING_BYTES`]
//! of data) and sends the preamble with the ring's descriptor beside it
//! (`SCM_RIGHTS`). From then on the socket carries only one-byte
//! wake-ups — at most one per park of the side that sleeps, in either
//! direction — and, when the sender's process goes, EOF. The ring needs
//! no file and leaves nothing behind when a rank dies.
//!
//! ## Topology
//!
//! A [`SocketWorld::run`] in the **launcher** process re-executes the
//! current binary once per rank (`fork`/`exec` with a
//! `MPISTREAM_SOCKET_*` env handshake). Each child:
//!
//! 1. binds its data listener `dir/rank<r>.sock`, *then* greets the
//!    launcher over `dir/ctl.sock` — so once the launcher releases the
//!    world (GO), every listener is guaranteed to exist and
//!    connect-on-first-use cannot race;
//! 2. runs the body against a [`SocketRank`] on the process's one
//!    thread; whenever the body waits in a transport call — a receive
//!    that misses, a send whose ring is full — the rank accepts inbound
//!    connections and decodes what its inbound rings hold into its
//!    mailbox;
//! 3. ships its [`Wire`]-encoded result back on the control link and
//!    waits for the launcher's ALL_DONE, still reading its inbound
//!    links — a close barrier: no rank exits while a peer might still be
//!    writing to it, so teardown never manufactures connection-reset
//!    errors, and a peer blocked writing to a finished rank still gets
//!    its frames out.
//!
//! Exactly **one** `SocketWorld::run` per process: in a child, `run`
//! never returns (the process exits after the body), and a second run
//! with a different key panics immediately instead of forking the
//! world's children again. In `cargo test`, give each socket test its
//! own `#[test]` fn, construct the world with [`SocketWorld::for_test`],
//! and put the socket run *first* in the fn so re-executed children
//! reach it before any sim/native comparison work.

pub mod frame;
pub mod ring;
mod sys;

use std::ffi::c_short;
use std::io::{self, Read, Write};
use std::os::fd::{AsFd, AsRawFd, OwnedFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use frame::FrameReader;
use mpistream::{MsgInfo, Src, Tag, Wire};
use native::mailbox::{Env, Mailbox};
use native::sync::Instant;
use native::{Links, MailboxRank, Until, WallClock};
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
/// within about a second. Long enough that the launcher costs the ranks
/// it shares a CPU with nothing.
const RESULT_POLL: Duration = Duration::from_secs(1);
/// The per-rank send buffer keeps its capacity between sends unless one
/// frame grew it past this; then it is released, so a single large
/// message does not pin its memory for the life of the rank.
const SEND_BUF_KEEP: usize = 1 << 20;

/// The flat threshold this backend hands [`MailboxRank::new`]: the
/// binomial tree at every size — there is no star shortcut worth taking
/// when every hop is a frame copied into another process's ring and,
/// as often as not, a wake-up, and `O(log n)` hops is the shape the
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
    /// abort, crash) no longer takes the world down with it. Sends to a
    /// dead peer are silently dropped (the peer is remembered as dead —
    /// no reconnect storms; a send waiting for room in a dead peer's
    /// ring ends at that peer's EOF), a broken inbound link reads as EOF,
    /// and the launcher reports the dead rank as `None` instead of
    /// panicking. Pair with [`SocketWorld::run_tolerant`]; fault-free
    /// runs behave identically to the strict mode.
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
        // the launcher looks at every RESULT_POLL.
        for c in &mut conns {
            c.write_all(&[CTL_GO]).expect("send GO");
            c.set_read_timeout(Some(RESULT_POLL)).expect("control read timeout");
        }
        // Collect results in rank order, then release everyone at once:
        // the ALL_DONE close barrier keeps ranks alive until no peer can
        // still be writing to them.
        let mut results = Vec::with_capacity(self.nprocs);
        for (r, conn) in conns.iter_mut().enumerate() {
            let idle = || {
                // Tolerant worlds expect deaths: the dead rank's own
                // link reports it (EOF) when its turn comes.
                if !self.tolerant {
                    guard.check_alive("before returning a result");
                }
            };
            match frame::read_blob(&mut Polled { conn, idle }) {
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
        ctl.read_exact(&mut go).expect("read GO");
        assert_eq!(go[0], CTL_GO, "unexpected control byte");
        // Only the handshake is bounded: ALL_DONE comes when the slowest
        // rank has finished, however long that is.
        ctl.set_read_timeout(None).expect("clear control read timeout");

        let links = SocketLinks::new(dir, listener, rank, nprocs, self.tolerant);
        let clock = WallClock::start(compute_scale);
        let mut me = MailboxRank::new(rank, nprocs, clock, COLL_FLAT_THRESHOLD, links);
        let result = body(&mut me);
        me.into_links().close(ctl, &result.to_frame());
        // The close barrier guarantees no peer still needs this rank.
        std::process::exit(0);
    }
}

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
}

/// A control link with its read timeout armed: a `read` that times out
/// calls `idle` and tries again. The `read_exact` above it sees only
/// bytes, EOF or a real error, so no timeout can fall inside a blob.
struct Polled<'a, F> {
    conn: &'a mut UnixStream,
    idle: F,
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
                other => return other,
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
/// link that carries its frames, a Unix socket beside each that carries
/// the ring's descriptor, wake-ups and EOF, and this process's mailbox.
///
/// A rank process has one thread, the one running the body, and it makes
/// progress on its own links: a receive that finds nothing in the
/// mailbox reads every inbound ring, each complete frame becoming one
/// mailbox `push`, and if they held nothing it parks on them and `poll`s
/// the data listener and every inbound socket — accepting new
/// connections, draining wake-ups, noticing EOF. Wherever the rank can
/// block it does the same, so no peer waits on a rank that is itself
/// waiting: a `send` whose ring is full, and the close barrier, read
/// inbound rings while they wait. Between transport calls — while the
/// body computes — nothing is read, and a peer that fills the ring
/// meanwhile waits for the next call.
pub struct SocketLinks {
    dir: PathBuf,
    /// The receiving side: listener, inbound links and mailbox.
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
    ) -> SocketLinks {
        listener.set_nonblocking(true).expect("nonblocking data listener");
        SocketLinks {
            dir,
            inbound: Inbound {
                rank,
                tolerant,
                listener,
                links: Vec::new(),
                mailbox: Mailbox::new(),
                fds: Vec::new(),
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
        OutLink::open(sock, me).map_err(|e| format!("link to rank {dst}: {e}"))
    }

    /// The close barrier, after the body returned: ship the result on the
    /// control link, then wait for the launcher's ALL_DONE — reading
    /// inbound links all the while, because a peer may still be writing
    /// to this rank and cannot finish its own body until it has.
    fn close(mut self, mut ctl: UnixStream, result: &[u8]) {
        let mut blob = Vec::with_capacity(4 + result.len());
        frame::write_blob(&mut blob, result).expect("ship result");
        ctl.set_nonblocking(true).expect("nonblocking control link");
        self.inbound.write_ctl(&mut ctl, &blob).expect("ship result");
        let mut done = [0u8; 1];
        loop {
            match ctl.read(&mut done) {
                Ok(1) => break,
                Ok(_) => panic!("read ALL_DONE: the launcher closed the control link"),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.inbound.progress(Some((ctl.as_raw_fd(), sys::POLLIN)), Until::Forever);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => panic!("read ALL_DONE: {e}"),
            }
        }
        assert_eq!(done[0], CTL_ALL_DONE, "unexpected control byte");
    }
}

impl Links for SocketLinks {
    fn send<T: Wire + Send + 'static>(&mut self, dst: usize, info: MsgInfo, v: T) {
        let MsgInfo { src: me, tag, bytes } = info;
        if dst == me {
            // Self-sends still cross the codec — one uniform path, so a
            // payload that cannot round-trip fails loudly everywhere.
            let payload = Box::new(v.to_frame());
            self.inbound.mailbox.push(Env { src: me, tag, bytes, payload });
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

    fn take(&mut self, _me: usize, src: Src, tag: Tag, until: Until) -> Option<Env> {
        loop {
            if let Some(env) = self.inbound.mailbox.try_take(src, tag) {
                return Some(env);
            }
            // Past the deadline a miss still reads the links once, so a
            // deadline that has already passed cannot starve them.
            let until = match until {
                Until::At(deadline) if Instant::now() >= deadline => Until::Now,
                until => until,
            };
            self.inbound.progress(None, until);
            if let Until::Now = until {
                return self.inbound.mailbox.try_take(src, tag);
            }
        }
    }

    fn probe(&mut self, _me: usize, src: Src, tag: Tag) -> Option<MsgInfo> {
        self.inbound.mailbox.probe(src, tag).or_else(|| {
            self.inbound.progress(None, Until::Now);
            self.inbound.mailbox.probe(src, tag)
        })
    }

    fn wait_change(&mut self, _me: usize, seen: u64) -> u64 {
        // This thread is the mailbox's only producer, so parking on it
        // would sleep forever: read the links until a frame lands.
        loop {
            let version = self.inbound.mailbox.version();
            if version != seen {
                return version;
            }
            self.inbound.progress(None, Until::Forever);
        }
    }

    fn unpack<T: Wire + Send + 'static>(me: usize, env: Env) -> T {
        let buf = env.payload.downcast::<Vec<u8>>().unwrap_or_else(|_| {
            panic!("rank {me}: non-frame payload in a socket mailbox (tag {:?})", env.tag)
        });
        T::from_frame(&buf).unwrap_or_else(|e| {
            panic!(
                "rank {me}: malformed {} frame from rank {} under tag {:?}: {e}",
                std::any::type_name::<T>(),
                env.src,
                env.tag
            )
        })
    }
}

/// The receiving side of a socket rank: its data listener, its inbound
/// links, and its mailbox, which only the rank's own thread fills.
struct Inbound {
    rank: usize,
    /// Death-tolerant mode (see [`SocketWorld::death_tolerant`]).
    tolerant: bool,
    listener: UnixListener,
    links: Vec<InLink>,
    mailbox: Mailbox,
    /// `poll`'s argument, rebuilt on every call; kept for its capacity.
    fds: Vec<sys::PollFd>,
}

impl Inbound {
    /// Every wait of a socket rank, in one place: read the inbound rings;
    /// if they held no frame, park on each ring and look again (unless
    /// `until` is [`Until::Now`]); then make exactly one `poll` — over the
    /// listener, every inbound socket and `extra` (a descriptor and the
    /// events wanted on it), as long as `until` says, or not at all
    /// (timeout 0) if a frame was found. Then accept every pending
    /// connection, take preambles, wake-ups and EOF from the sockets that
    /// have news, and read the rings again. Returns whether `extra` was
    /// ready.
    ///
    /// A link that fails — bad preamble, malformed frame, cut mid-frame —
    /// is fatal to the process in strict mode: the frames the body waits
    /// for can no longer arrive, so the rank prints the error and exits
    /// non-zero, which the launcher's exit-status poll reports. Under
    /// `tolerant` a broken link is a dead peer and reads as end-of-stream.
    fn progress(&mut self, extra: Option<(RawFd, c_short)>, until: Until) -> bool {
        let mut found = self.serve(|_| false);
        let park = !found && !matches!(until, Until::Now);
        if park {
            // Raise `reader_parked` on every ring, then look at each
            // again: a writer publishes before it reads the flag, so
            // either it rings or this look sees its bytes (ring module
            // docs).
            let mut empty = true;
            for link in &self.links {
                empty &= link.park();
            }
            found = !empty;
        }
        let timeout_ms = match until {
            _ if found => 0,
            Until::Now => 0,
            Until::Forever => -1,
            Until::At(deadline) => {
                let left = deadline.saturating_duration_since(Instant::now());
                left.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32
            }
        };
        let mut fds = std::mem::take(&mut self.fds);
        fds.clear();
        fds.extend(extra.map(|(fd, events)| sys::PollFd::new(fd, events)));
        fds.push(sys::PollFd::new(self.listener.as_raw_fd(), sys::POLLIN));
        for link in &self.links {
            fds.push(sys::PollFd::new(link.sock.as_raw_fd(), sys::POLLIN));
        }
        if let Err(e) = sys::poll(&mut fds, timeout_ms) {
            panic!("rank {}: poll: {e}", self.rank);
        }
        if park {
            for link in &self.links {
                link.unpark();
            }
        }
        let skip = usize::from(extra.is_some());
        let extra_ready = extra.is_some() && fds[0].revents != 0;
        if fds[skip].revents != 0 {
            self.accept();
        }
        // Links accepted just now have no poll entry: look at them at once.
        let ready = &fds[skip + 1..];
        self.serve(|i| ready.get(i).is_none_or(|fd| fd.revents != 0));
        self.fds = fds;
        extra_ready
    }

    /// Serve every inbound link: its socket first where `news(i)` says it
    /// has some, then its ring, every complete frame into the mailbox. A
    /// link that ended cleanly is dropped; one that failed is handled as
    /// [`Inbound::progress`] says. Returns whether any frame landed.
    fn serve(&mut self, news: impl Fn(usize) -> bool) -> bool {
        let Inbound { rank, tolerant, links, mailbox, .. } = self;
        let before = mailbox.version();
        let mut i = 0;
        links.retain_mut(|link| {
            let served = if news(i) { link.on_socket() } else { Ok(()) };
            i += 1;
            match served.and_then(|()| link.read_into(mailbox)) {
                Ok(open) => open,
                Err(_) if *tolerant => false,
                Err(why) => {
                    eprintln!("rank {rank}: {why}");
                    std::process::exit(1);
                }
            }
        });
        mailbox.version() != before
    }

    fn accept(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((sock, _)) => {
                    sock.set_nonblocking(true).expect("nonblocking inbound link");
                    self.links.push(InLink::new(sock));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => panic!("rank {}: accept: {e}", self.rank),
            }
        }
    }

    /// Copy `frame` into `out`'s ring and publish it, in pieces if it
    /// does not fit. While the ring is full, park on it and wait with
    /// [`Inbound::progress`] for the reader's wake-up on `out`'s socket:
    /// two ranks flooding each other drain each other instead of
    /// wedging. An error means the receiving rank has gone.
    fn send_frame(&mut self, out: &mut OutLink, mut frame: &[u8]) -> io::Result<()> {
        loop {
            let n = out.publish(frame)?;
            frame = &frame[n..];
            if frame.is_empty() {
                return Ok(());
            }
            let woken = out.ring.park()
                && self.progress(Some((out.sock.as_raw_fd(), sys::POLLIN)), Until::Forever);
            out.ring.unpark();
            if woken {
                out.drain_wakes()?;
            }
        }
    }

    /// `write_all` on the non-blocking control link. While the kernel has
    /// no room, wait for it with [`Inbound::progress`]: the launcher may
    /// be reading another rank's result first, and that rank may be
    /// waiting for this one to read its ring.
    fn write_ctl(&mut self, ctl: &mut UnixStream, mut buf: &[u8]) -> io::Result<()> {
        while !buf.is_empty() {
            match ctl.write(buf) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => buf = &buf[n..],
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.progress(Some((ctl.as_raw_fd(), sys::POLLOUT)), Until::Forever);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// The byte a wake-up carries; only its arrival means anything.
const WAKE: u8 = 0x57;

/// Send a wake-up on `sock`. A full socket already holds one the peer
/// has not read, so `WouldBlock` is success.
fn wake(mut sock: &UnixStream) -> io::Result<()> {
    loop {
        match sock.write(&[WAKE]) {
            Ok(_) => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Read and discard the wake-ups `sock` holds. `Ok(false)`: it is at EOF.
fn drain(mut sock: &UnixStream) -> io::Result<bool> {
    let mut sink = [0u8; 64];
    loop {
        match sock.read(&mut sink) {
            Ok(0) => return Ok(false),
            Ok(n) if n < sink.len() => return Ok(true),
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(true),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// One outbound link: the ring this rank publishes its frames into, and
/// the socket that carries wake-ups both ways and, closing, EOF.
struct OutLink {
    sock: UnixStream,
    ring: RingWriter,
}

impl OutLink {
    /// Create the link's ring and send the preamble on the freshly
    /// connected, blocking `sock`, the ring's descriptor riding with it
    /// (nine bytes into an empty buffer: this cannot block).
    fn open(sock: UnixStream, me: usize) -> io::Result<OutLink> {
        let (ring, fd) = ring::create()?;
        let mut preamble = Vec::with_capacity(frame::PREAMBLE_BYTES);
        frame::write_preamble(&mut preamble, me)?;
        sys::send_with_fd(&sock, &preamble, fd.as_fd())?;
        sock.set_nonblocking(true)?;
        Ok(OutLink { sock, ring })
    }

    /// Publish what fits of `bytes`, and send the reader its wake-up if
    /// this publish claimed it. Returns how many bytes went.
    fn publish(&mut self, bytes: &[u8]) -> io::Result<usize> {
        let n = self.ring.publish(bytes);
        if self.ring.take_wake() {
            wake(&self.sock)?;
        }
        Ok(n)
    }

    /// Take the wake-ups the reader sent back; an error once the reader
    /// has gone.
    fn drain_wakes(&mut self) -> io::Result<()> {
        if drain(&self.sock)? {
            return Ok(());
        }
        Err(io::Error::new(io::ErrorKind::BrokenPipe, "the receiving rank closed the link"))
    }
}

/// An outbound link dialled by hand, for tests that must choose exactly
/// which bytes a rank receives and when: [`RawLink::dial`] connects to a
/// rank's data listener as rank `src` and sends the preamble with a
/// fresh ring, and every write then goes into that ring as it is — a
/// frame stream or not — waiting while the ring is full.
#[doc(hidden)]
pub struct RawLink(OutLink);

impl RawLink {
    pub fn dial(listener: &Path, src: usize) -> io::Result<RawLink> {
        OutLink::open(UnixStream::connect(listener)?, src).map(RawLink)
    }
}

impl Write for RawLink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        loop {
            let n = self.0.publish(buf)?;
            if n > 0 || buf.is_empty() {
                return Ok(n);
            }
            if self.0.ring.park() {
                sys::poll(&mut [sys::PollFd::new(self.0.sock.as_raw_fd(), sys::POLLIN)], -1)?;
            }
            self.0.ring.unpark();
            self.0.drain_wakes()?;
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One inbound link: its socket, and what it has delivered so far.
struct InLink {
    sock: UnixStream,
    state: InState,
}

enum InState {
    /// The preamble bytes read so far, and the ring's descriptor once it
    /// has come with them.
    Preamble { bytes: [u8; frame::PREAMBLE_BYTES], have: usize, ring: Option<OwnedFd> },
    /// The preamble is in: the sender, and the frames of its ring.
    Open { src: usize, frames: FrameReader<RingReader> },
}

impl InLink {
    fn new(sock: UnixStream) -> InLink {
        let state = InState::Preamble { bytes: [0; frame::PREAMBLE_BYTES], have: 0, ring: None };
        InLink { sock, state }
    }

    /// [`RingReader::park`]; a link without a ring yet has nothing to
    /// read, and its socket will have news when it does.
    fn park(&self) -> bool {
        match &self.state {
            InState::Open { frames, .. } => frames.get_ref().park(),
            InState::Preamble { .. } => true,
        }
    }

    fn unpark(&self) {
        if let InState::Open { frames, .. } = &self.state {
            frames.get_ref().unpark();
        }
    }

    /// The socket has news: the rest of the preamble and the ring's
    /// descriptor, or wake-ups, or EOF — the writer has gone, after
    /// publishing everything it sent, so the ring reads as EOF once it is
    /// drained. A reset is the same news.
    fn on_socket(&mut self) -> Result<(), String> {
        let InState::Open { frames, .. } = &mut self.state else {
            return self.read_preamble().map_err(|e| format!("connection preamble: {e}"));
        };
        if !drain(&self.sock).unwrap_or(false) {
            frames.get_mut().close();
        }
        Ok(())
    }

    /// Read every complete frame the ring holds, each pushed into
    /// `mailbox`, and send the writer its wake-up if a read claimed it. A
    /// partial frame stays in the reader for the next call. `Ok(false)`:
    /// the peer closed the link at a frame boundary.
    fn read_into(&mut self, mailbox: &Mailbox) -> Result<bool, String> {
        let InState::Open { src, frames } = &mut self.state else { return Ok(true) };
        loop {
            match frames.next_frame() {
                Ok(Some((tag, bytes, payload))) => {
                    let payload = Box::new(payload);
                    mailbox.push(Env { src: *src, tag: Tag(tag), bytes, payload });
                }
                Ok(None) => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(format!("inbound link from rank {src}: {e}")),
            }
        }
        if frames.get_mut().take_wake() {
            // A writer that has gone needs no wake; its EOF is news.
            let _ = wake(&self.sock);
        }
        Ok(true)
    }

    /// Read the preamble as far as the socket has it; once whole, check
    /// it, map the ring that came with it and start reading frames.
    fn read_preamble(&mut self) -> io::Result<()> {
        let InState::Preamble { bytes, have, ring } = &mut self.state else { return Ok(()) };
        while *have < bytes.len() {
            match sys::recv_with_fd(&self.sock, &mut bytes[*have..]) {
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
        let fd = ring.take().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, "preamble without the ring's descriptor")
        })?;
        let frames = FrameReader::new(ring::attach(fd)?);
        self.state = InState::Open { src, frames };
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
            let mut links = SocketLinks::new(dir.clone(), me, 0, 2, tolerant);

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
            let mut peer = SocketLinks::new(dir.clone(), peer, 1, 2, tolerant);
            let env = peer.take(1, Src::Rank(0), tag, Until::Forever).expect("the frame");
            assert_eq!((env.src, env.bytes), (0, 8));
            assert_eq!(SocketLinks::unpack::<u64>(1, env), 7);
            std::fs::remove_dir_all(&dir).unwrap();
        }
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
