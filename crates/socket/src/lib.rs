//! Multi-process [`Transport`](mpistream::Transport) backend: every rank
//! a separate OS process, linked by framed Unix-domain sockets.
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
//! happens in the exact same [`Mailbox`] (lock-free MPSC staging +
//! eventcount park, so the schedcheck models of that structure still
//! apply), on the same clock, with the same collectives and channel ids.
//! What this crate adds is how a message leaves — encoded into a frame
//! and written to the peer's socket — and how a received frame is
//! decoded.
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
//! 2. runs the body against a [`SocketRank`]; an acceptor thread plus
//!    one reader thread per inbound link decode frames into the mailbox
//!    concurrently with the body;
//! 3. ships its [`Wire`]-encoded result back on the control link and
//!    parks until the launcher's ALL_DONE — a close barrier: no rank
//!    exits while a peer might still be writing to it, so teardown
//!    never manufactures connection-reset errors.
//!
//! Exactly **one** `SocketWorld::run` per process: in a child, `run`
//! never returns (the process exits after the body), and a second run
//! with a different key panics immediately instead of forking the
//! world's children again. In `cargo test`, give each socket test its
//! own `#[test]` fn, construct the world with [`SocketWorld::for_test`],
//! and put the socket run *first* in the fn so re-executed children
//! reach it before any sim/native comparison work.

pub mod frame;

use std::io::{self, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mpistream::{MsgInfo, Tag, Wire};
use native::mailbox::{Env, Mailbox};
use native::{Links, MailboxRank, WallClock};

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
/// binomial tree at every size — there is no shared-memory star shortcut
/// worth taking when every hop is a real socket write, and `O(log n)`
/// hops is the shape the paper's aggregation analysis assumes.
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
    /// no reconnect storms), readers treat a broken inbound link as EOF,
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
        let mailbox = Arc::new(Mailbox::new());
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

        {
            let mailbox = Arc::clone(&mailbox);
            let tolerant = self.tolerant;
            std::thread::spawn(move || acceptor_loop(listener, rank, mailbox, tolerant));
        }

        let links = SocketLinks::new(dir, mailbox, nprocs, self.tolerant);
        let clock = WallClock::start(compute_scale);
        let result = body(&mut MailboxRank::new(rank, nprocs, clock, COLL_FLAT_THRESHOLD, links));
        frame::write_blob(&mut ctl, &result.to_frame()).expect("ship result");
        let mut done = [0u8; 1];
        ctl.read_exact(&mut done).expect("read ALL_DONE");
        assert_eq!(done[0], CTL_ALL_DONE, "unexpected control byte");
        // Reader/acceptor threads die with the process; the close
        // barrier above guarantees no peer still needs this rank.
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

/// Accept inbound links forever (until process exit), one reader thread
/// per connection. Readers assemble frames independently of the
/// consumer, so a recv deadline expiring while a frame is in flight
/// never corrupts the link — the frame simply lands in the mailbox when
/// complete.
///
/// A link that fails (bad preamble, malformed or mid-frame-truncated
/// traffic) is fatal to the **process**, not just to its reader thread:
/// the body would otherwise park forever on frames that can no longer
/// arrive. The non-zero exit is what the launcher's exit-status poll
/// reports. Under `tolerant` a broken link is a dead peer and reads as
/// end-of-stream.
fn acceptor_loop(listener: UnixListener, rank: usize, mailbox: Arc<Mailbox>, tolerant: bool) {
    for conn in listener.incoming() {
        let mut stream = match conn {
            Ok(s) => s,
            Err(_) => continue,
        };
        let mailbox = Arc::clone(&mailbox);
        std::thread::spawn(move || {
            let served = match frame::read_preamble(&mut stream) {
                Ok(src) => pump_link(stream, src, &mailbox)
                    .map_err(|e| format!("inbound link from rank {src}: {e}")),
                Err(e) => Err(format!("connection preamble: {e}")),
            };
            match served {
                Err(why) if !tolerant => {
                    eprintln!("rank {rank}: {why}");
                    std::process::exit(1);
                }
                _ => {}
            }
        });
    }
}

/// Push every frame of one inbound link into the mailbox; `Ok(())` is a
/// clean EOF at a frame boundary.
fn pump_link(stream: impl Read, src: usize, mailbox: &Mailbox) -> io::Result<()> {
    let mut frames = frame::FrameReader::new(stream);
    while let Some((tag, bytes, payload)) = frames.next_frame()? {
        mailbox.push(Env { src, tag: Tag(tag), bytes, payload: Box::new(payload) });
    }
    Ok(())
}

/// Decode frames from one inbound link into the mailbox until clean
/// EOF. Malformed traffic from a peer panics the calling thread (the
/// peers are our own world; garbage means a protocol bug, not hostile
/// input — the codec itself reports it as a typed error first) — except
/// under `tolerant`, where a broken link (the peer process died
/// mid-frame) is treated as end-of-stream.
pub fn reader_loop(stream: UnixStream, src: usize, mailbox: &Mailbox, tolerant: bool) {
    match pump_link(stream, src, mailbox) {
        Err(e) if !tolerant => panic!("reader for link from rank {src}: {e}"),
        _ => {}
    }
}

/// One socket rank: the per-process handle [`SocketWorld::run`] passes
/// to the body. The native backend's rank over [`SocketLinks`], so the
/// whole stream runtime — channels, streams, combiners, `run_decoupled`
/// — works against it.
pub type SocketRank = MailboxRank<SocketLinks>;

/// The [`Links`] of a socket rank: framed connections to the other rank
/// processes, and this process's mailbox, which the reader threads fill.
pub struct SocketLinks {
    dir: PathBuf,
    mailbox: Arc<Mailbox>,
    /// Outbound links, connected on first use (always succeeds: every
    /// listener was bound before GO).
    links: Vec<Option<UnixStream>>,
    /// Death-tolerant mode (see [`SocketWorld::death_tolerant`]).
    tolerant: bool,
    /// Peers observed dead (tolerant mode only): once a connect or a
    /// write to a rank fails it stays marked, so later sends drop
    /// immediately instead of re-dialling a corpse.
    dead: Vec<bool>,
    /// Where `send` builds its frame; keeps its capacity between sends
    /// (up to [`SEND_BUF_KEEP`]).
    send_buf: Vec<u8>,
}

impl SocketLinks {
    fn new(dir: PathBuf, mailbox: Arc<Mailbox>, nprocs: usize, tolerant: bool) -> SocketLinks {
        let links = (0..nprocs).map(|_| None).collect();
        SocketLinks {
            dir,
            mailbox,
            links,
            tolerant,
            dead: vec![false; nprocs],
            send_buf: Vec::new(),
        }
    }

    /// Connect-on-first-use outbound link from `me`; `None` means `dst`
    /// is dead (only possible in death-tolerant mode — strict worlds
    /// panic).
    fn link(&mut self, me: usize, dst: usize) -> Option<&mut UnixStream> {
        if self.links[dst].is_none() && !self.dead[dst] {
            match self.connect(me, dst) {
                Ok(s) => self.links[dst] = Some(s),
                Err(_) if self.tolerant => self.dead[dst] = true,
                Err(e) => panic!("rank {me}: {e}"),
            }
        }
        self.links[dst].as_mut()
    }

    fn connect(&self, me: usize, dst: usize) -> Result<UnixStream, String> {
        // Every listener was bound before GO, so in tolerant mode a
        // refused connect means the peer is gone — fail on the first
        // attempt instead of retrying against a corpse for seconds.
        let path = rank_sock(&self.dir, dst);
        let connected = if self.tolerant {
            UnixStream::connect(&path)
        } else {
            connect_retry(&path, CONNECT_TIMEOUT)
        };
        let mut s = connected.map_err(|e| format!("connect to rank {dst}: {e}"))?;
        frame::write_preamble(&mut s, me).map_err(|e| format!("preamble to rank {dst}: {e}"))?;
        Ok(s)
    }
}

impl Links for SocketLinks {
    fn send<T: Wire + Send + 'static>(&mut self, dst: usize, info: MsgInfo, v: T) {
        let MsgInfo { src: me, tag, bytes } = info;
        if dst == me {
            // Self-sends still cross the codec — one uniform path, so a
            // payload that cannot round-trip fails loudly everywhere.
            self.mailbox.push(Env { src: me, tag, bytes, payload: Box::new(v.to_frame()) });
            return;
        }
        // The encoder writes straight behind the reserved header bytes of
        // the retained buffer, and the finished frame leaves in one write
        // before `send` returns. Nothing is ever held back for a later
        // flush: that would be aggregation behind the caller's back, and
        // would stall a producer's last element for as long as the
        // application computes between sends.
        let mut buf = std::mem::take(&mut self.send_buf);
        frame::begin_frame(&mut buf);
        v.encode(&mut buf);
        if let Err(e) = frame::finish_frame(&mut buf, tag.0, bytes) {
            // The caller's error, found before any I/O: in neither mode
            // does it say anything about the peer.
            panic!("rank {me}: send to rank {dst} under tag {tag:?}: {e}");
        }
        // `None`: tolerant mode and dst is dead — the send is dropped.
        if let Some(link) = self.link(me, dst) {
            if let Err(e) = link.write_all(&buf) {
                assert!(self.tolerant, "rank {me}: send to rank {dst}: {e}");
                self.links[dst] = None;
                self.dead[dst] = true;
            }
        }
        if buf.capacity() <= SEND_BUF_KEEP {
            self.send_buf = buf;
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

    fn inbox(&self, _me: usize) -> &Mailbox {
        &self.mailbox
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
            let mailbox = Arc::new(Mailbox::new());
            let mut links = SocketLinks::new(dir.clone(), mailbox, 2, tolerant);

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
            let (mut conn, _) = peer.accept().unwrap();
            assert_eq!(frame::read_preamble(&mut conn).unwrap(), 0);
            assert_eq!(frame::read_frame(&mut conn).unwrap(), Some((tag.0, 8, 7u64.to_frame())));
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
