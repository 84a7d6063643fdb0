//! Multi-process [`Transport`] backend: every rank a separate OS
//! process, linked by framed Unix-domain sockets.
//!
//! The paper's decoupling strategy assumes compute and data-movement
//! groups that could live on different nodes; the sim and native
//! backends still share one address space. This backend takes the same
//! stream programs across a real process boundary: payloads cross the
//! [`Wire`] codec (DESIGN.md §16), matching happens in the exact same
//! [`Mailbox`] the native backend uses (lock-free MPSC staging +
//! eventcount park, so the schedcheck models of that structure still
//! apply), and collectives are genuine network rendezvous over the
//! binomial-tree overlays from the native backend.
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

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use desim::SimTime;
use mpistream::{Group, MsgInfo, Src, Tag, Transport, Wire};
use native::mailbox::{Env, Mailbox};
use native::sync::Instant;

/// Group id of the world group (matches the native backend).
const WORLD_ID: u64 = 0;
/// Group id marking metadata-only groups (never collective targets).
const META_ID: u64 = u64::MAX;
/// Internal tag namespace for collective traffic (streams use ns 2).
const NS_COLL: u8 = 3;

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

/// An ordered set of world ranks on the socket backend. Same shape as
/// the native group; the id keys the collective tag namespace and — for
/// split products — is *derived*, not registered: every member hashes
/// the same `(parent, seq, color)` triple to the same 64-bit id, so no
/// cross-process registry is needed.
#[derive(Clone, Debug)]
pub struct SocketGroup {
    id: u64,
    ranks: Arc<Vec<usize>>,
}

impl Group for SocketGroup {
    fn ranks(&self) -> &[usize] {
        &self.ranks
    }

    fn rank_of(&self, w: usize) -> Option<usize> {
        self.ranks.iter().position(|&x| x == w)
    }

    fn meta(ranks: Vec<usize>) -> SocketGroup {
        SocketGroup { id: META_ID, ranks: Arc::new(ranks) }
    }
}

/// Deterministic split-cell id: every member of one cell computes the
/// same key locally, replacing the native backend's shared-memory
/// registry. splitmix64 finalization over the triple; the reserved
/// world/meta ids are remapped.
fn split_id(parent: u64, seq: u32, color: i64) -> u64 {
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let h =
        mix(mix(mix(parent.wrapping_add(0x9E37_79B9_7F4A_7C15)) ^ u64::from(seq)) ^ color as u64);
    match h {
        WORLD_ID => 1,
        META_ID => META_ID - 1,
        other => other,
    }
}

/// Tag for collective `seq` on the group with `id`. The id is folded
/// into both the 16-bit channel field and the sequence field: hashed
/// split ids can alias in the low 16 bits, and mixing the high bits
/// into `seq` keeps concurrently outstanding collectives of two such
/// groups on distinct tags (within one group, call order still makes
/// `seq` unique — the MPI contract).
fn coll_tag(id: u64, seq: u32) -> Tag {
    Tag::internal(NS_COLL, id as u16, seq.wrapping_add((id >> 16) as u32))
}

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
            Err(_) => self.run_launcher(),
            Ok(k) if k == self.key => self.run_child(body),
            Ok(k) => panic!(
                "this process was launched as a rank of socket world {k:?} but reached \
                 SocketWorld::run for {:?} first — keep exactly one SocketWorld::run per \
                 test/process and put it before any other backend runs",
                self.key
            ),
        }
    }

    fn run_launcher<R: Wire>(&self) -> Vec<Option<R>> {
        let dir = scratch_dir(&self.key);
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

        let mut sr = SocketRank::new(rank, nprocs, dir, compute_scale, mailbox, self.tolerant);
        let result = body(&mut sr);
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
/// to the body. Implements [`Transport`], so the whole stream runtime —
/// channels, streams, combiners, `run_decoupled` — works against it.
pub struct SocketRank {
    rank: usize,
    nprocs: usize,
    epoch: Instant,
    compute_scale: f64,
    dir: PathBuf,
    mailbox: Arc<Mailbox>,
    /// Outbound links, connected on first use (always succeeds: every
    /// listener was bound before GO).
    links: Vec<Option<UnixStream>>,
    /// Per-group collective sequence numbers (identical call order on a
    /// group keeps them in agreement, as MPI requires).
    coll_seq: HashMap<u64, u32>,
    /// Mailbox version at the last `wait_for_mail` return (see the
    /// native backend for the polling-round protocol).
    mail_seen: u64,
    /// Per-process channel counter; world-unique ids without shared
    /// memory: `counter * nprocs + rank` gives each rank a disjoint
    /// arithmetic progression.
    next_channel: u32,
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

impl SocketRank {
    fn new(
        rank: usize,
        nprocs: usize,
        dir: PathBuf,
        compute_scale: f64,
        mailbox: Arc<Mailbox>,
        tolerant: bool,
    ) -> SocketRank {
        SocketRank {
            rank,
            nprocs,
            epoch: Instant::now(),
            compute_scale,
            dir,
            mailbox,
            links: (0..nprocs).map(|_| None).collect(),
            coll_seq: HashMap::new(),
            mail_seen: 0,
            next_channel: 0,
            tolerant,
            dead: vec![false; nprocs],
            send_buf: Vec::new(),
        }
    }

    /// Connect-on-first-use outbound link; `None` means `dst` is dead
    /// (only possible in death-tolerant mode — strict worlds panic).
    fn link(&mut self, dst: usize) -> Option<&mut UnixStream> {
        if self.dead[dst] {
            return None;
        }
        if self.links[dst].is_none() {
            // Every listener was bound before GO, so in tolerant mode a
            // refused connect means the peer is gone — fail on the first
            // attempt instead of retrying against a corpse for seconds.
            let connected = if self.tolerant {
                UnixStream::connect(rank_sock(&self.dir, dst))
            } else {
                connect_retry(&rank_sock(&self.dir, dst), CONNECT_TIMEOUT)
            };
            let mut s = match connected {
                Ok(s) => s,
                Err(_) if self.tolerant => {
                    self.dead[dst] = true;
                    return None;
                }
                Err(e) => panic!("rank {}: connect to rank {dst}: {e}", self.rank),
            };
            match frame::write_preamble(&mut s, self.rank) {
                Ok(()) => {}
                Err(_) if self.tolerant => {
                    self.dead[dst] = true;
                    return None;
                }
                Err(e) => panic!("rank {}: preamble to rank {dst}: {e}", self.rank),
            }
            self.links[dst] = Some(s);
        }
        self.links[dst].as_mut()
    }

    fn next_seq(&mut self, group: &SocketGroup) -> u32 {
        assert!(group.id != META_ID, "collective on a metadata-only group");
        let seq = self.coll_seq.entry(group.id).or_insert(0);
        let s = *seq;
        *seq += 1;
        s
    }

    fn my_group_rank(&self, group: &SocketGroup) -> usize {
        group.rank_of(self.rank).expect("collective on a group we are not in")
    }

    /// Reduce up to virtual rank 0 over the binomial tree (children
    /// ascending — the deterministic fold order); `Some(total)` at the
    /// root, `None` elsewhere. For floats the tree-shaped fold order may
    /// differ bitwise from another backend's (DESIGN.md §11), and across
    /// processes there is no shared memory to paper over it.
    fn tree_reduce<T: Wire + Send + 'static>(
        &mut self,
        tree: &Overlay<'_>,
        bytes: u64,
        value: T,
        op: &impl Fn(&mut T, &T),
    ) -> Option<T> {
        let mut acc = value;
        for c in tree.children(tree.my_v) {
            let (child, _info) = self.recv::<T>(Src::Rank((tree.to_world)(c)), tree.tag);
            op(&mut acc, &child);
        }
        if tree.my_v == 0 {
            Some(acc)
        } else {
            self.send((tree.to_world)(Overlay::parent(tree.my_v)), tree.tag, bytes, acc);
            None
        }
    }

    /// Broadcast down from virtual rank 0. Safe on the same tag as a
    /// preceding reduce over the same overlay: between any rank pair the
    /// two phases flow in opposite directions, so directed receives
    /// cannot cross-match.
    fn tree_bcast<T: Wire + Clone + Send + 'static>(
        &mut self,
        tree: &Overlay<'_>,
        bytes: u64,
        value: Option<T>,
    ) -> T {
        let val = if tree.my_v == 0 {
            value.expect("tree root supplies the broadcast value")
        } else {
            self.recv::<T>(Src::Rank((tree.to_world)(Overlay::parent(tree.my_v))), tree.tag).0
        };
        for c in tree.children(tree.my_v) {
            self.send((tree.to_world)(c), tree.tag, bytes, val.clone());
        }
        val
    }

    fn deadline_instant(&self, deadline: SimTime) -> Instant {
        self.epoch + Duration::from_nanos(deadline.0)
    }
}

/// One collective's geometry: always the binomial tree here — there is
/// no shared-memory star shortcut worth taking when every hop is a real
/// socket write, and `O(log n)` hops is the shape the paper's
/// aggregation analysis assumes.
struct Overlay<'a> {
    tag: Tag,
    to_world: &'a dyn Fn(usize) -> usize,
    my_v: usize,
    size: usize,
}

impl Overlay<'_> {
    /// Children of virtual rank `v`, ascending: `v + 2^k` for every
    /// `2^k` below `v`'s lowest set bit that stays inside the group.
    fn children(&self, v: usize) -> Vec<usize> {
        let size = self.size;
        let lsb = if v == 0 { usize::MAX } else { v & v.wrapping_neg() };
        std::iter::successors(Some(1usize), |k| k.checked_mul(2))
            .take_while(move |&k| k < lsb && v + k < size)
            .map(move |k| v + k)
            .collect()
    }

    /// Parent of virtual rank `v != 0`: clear the lowest set bit.
    fn parent(v: usize) -> usize {
        v & (v - 1)
    }
}

impl Transport for SocketRank {
    type Group = SocketGroup;

    fn world_rank(&self) -> usize {
        self.rank
    }

    fn world_size(&self) -> usize {
        self.nprocs
    }

    fn world_group(&self) -> SocketGroup {
        SocketGroup { id: WORLD_ID, ranks: Arc::new((0..self.nprocs).collect()) }
    }

    fn now(&self) -> SimTime {
        SimTime(u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }

    fn compute(&mut self, secs: f64) {
        let scaled = secs * self.compute_scale;
        if scaled.is_finite() && scaled > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(scaled));
        }
    }

    fn send<T: Wire + Send + 'static>(&mut self, dst: usize, tag: Tag, bytes: u64, value: T) {
        assert!(dst < self.nprocs, "send to out-of-range rank {dst}");
        if dst == self.rank {
            // Self-sends still cross the codec — one uniform path, so a
            // payload that cannot round-trip fails loudly everywhere.
            let payload = Box::new(value.to_frame());
            self.mailbox.push(Env { src: self.rank, tag, bytes, payload });
            return;
        }
        // The encoder writes straight behind the reserved header bytes of
        // the retained buffer, and the finished frame leaves in one write
        // before `send` returns. Nothing is ever held back for a later
        // flush: that would be aggregation behind the caller's back, and
        // would stall a producer's last element for as long as the
        // application computes between sends.
        let me = self.rank;
        let mut buf = std::mem::take(&mut self.send_buf);
        frame::begin_frame(&mut buf);
        value.encode(&mut buf);
        if let Err(e) = frame::finish_frame(&mut buf, tag.0, bytes) {
            // The caller's error, found before any I/O: in neither mode
            // does it say anything about the peer.
            panic!("rank {me}: send to rank {dst} under tag {tag:?}: {e}");
        }
        // `None`: tolerant mode and dst is dead — the send is dropped.
        if let Some(link) = self.link(dst) {
            if let Err(e) = link.write_all(&buf) {
                if self.tolerant {
                    self.links[dst] = None;
                    self.dead[dst] = true;
                } else {
                    panic!("rank {me}: send to rank {dst}: {e}");
                }
            }
        }
        if buf.capacity() <= SEND_BUF_KEEP {
            self.send_buf = buf;
        }
    }

    fn recv<T: Wire + Send + 'static>(&mut self, src: Src, tag: Tag) -> (T, MsgInfo) {
        let env = self.mailbox.take(src, tag);
        unpack(self.rank, env)
    }

    fn try_recv<T: Wire + Send + 'static>(&mut self, src: Src, tag: Tag) -> Option<(T, MsgInfo)> {
        let env = self.mailbox.try_take(src, tag)?;
        Some(unpack(self.rank, env))
    }

    fn recv_deadline<T: Wire + Send + 'static>(
        &mut self,
        src: Src,
        tag: Tag,
        deadline: SimTime,
    ) -> Option<(T, MsgInfo)> {
        let until = self.deadline_instant(deadline);
        let env = self.mailbox.take_deadline(src, tag, until)?;
        Some(unpack(self.rank, env))
    }

    fn probe(&mut self, src: Src, tag: Tag) -> Option<MsgInfo> {
        self.mailbox.probe(src, tag)
    }

    fn wait_for_mail(&mut self) {
        self.mail_seen = self.mailbox.wait_change(self.mail_seen);
    }

    fn barrier(&mut self, group: &SocketGroup) {
        let seq = self.next_seq(group);
        let tag = coll_tag(group.id, seq);
        let my_gr = self.my_group_rank(group);
        let size = group.size();
        let ranks = Arc::clone(&group.ranks);
        let to_world = move |v: usize| ranks[v];
        let tree = Overlay { tag, to_world: &to_world, my_v: my_gr, size };
        let done = self.tree_reduce(&tree, 1, (), &|_, _| {});
        let () = self.tree_bcast(&tree, 1, done);
    }

    fn allreduce<T: Wire + Clone + Send + 'static>(
        &mut self,
        group: &SocketGroup,
        bytes: u64,
        value: T,
        op: impl Fn(&mut T, &T),
    ) -> T {
        let seq = self.next_seq(group);
        let tag = coll_tag(group.id, seq);
        let my_gr = self.my_group_rank(group);
        let size = group.size();
        let ranks = Arc::clone(&group.ranks);
        let to_world = move |v: usize| ranks[v];
        let tree = Overlay { tag, to_world: &to_world, my_v: my_gr, size };
        let total = self.tree_reduce(&tree, bytes, value, &op);
        self.tree_bcast(&tree, bytes, total)
    }

    fn allgatherv<T: Wire + Clone + Send + 'static>(
        &mut self,
        group: &SocketGroup,
        bytes: u64,
        value: T,
    ) -> Vec<T> {
        let seq = self.next_seq(group);
        let tag = coll_tag(group.id, seq);
        let my_gr = self.my_group_rank(group);
        let size = group.size();
        let ranks = Arc::clone(&group.ranks);
        let to_world = move |v: usize| ranks[v];
        let tree = Overlay { tag, to_world: &to_world, my_v: my_gr, size };
        // Child `v + 2^k` owns the contiguous group-rank range
        // [v + 2^k, v + 2^(k+1)) clipped to size, so appending children
        // ascending keeps the accumulator group-rank-ordered.
        let mut acc: Vec<T> = vec![value];
        for c in tree.children(my_gr) {
            let (mut sub, _info) = self.recv::<Vec<T>>(Src::Rank((tree.to_world)(c)), tag);
            acc.append(&mut sub);
        }
        let gathered = if my_gr == 0 {
            Some(acc)
        } else {
            let n = acc.len() as u64;
            self.send((tree.to_world)(Overlay::parent(my_gr)), tag, bytes * n, acc);
            None
        };
        self.tree_bcast(&tree, bytes * size as u64, gathered)
    }

    fn bcast<T: Wire + Clone + Send + 'static>(
        &mut self,
        group: &SocketGroup,
        root: usize,
        bytes: u64,
        value: Option<T>,
    ) -> T {
        let seq = self.next_seq(group);
        let tag = coll_tag(group.id, seq);
        let my_gr = self.my_group_rank(group);
        let size = group.size();
        let ranks = Arc::clone(&group.ranks);
        assert!(root < size, "bcast root {root} out of range for group of {size}");
        // Rotate the overlay so the root sits at virtual rank 0.
        let my_v = (my_gr + size - root) % size;
        let to_world = move |v: usize| ranks[(v + root) % size];
        if my_v == 0 {
            assert!(value.is_some(), "root supplied the broadcast value");
        }
        let tree = Overlay { tag, to_world: &to_world, my_v, size };
        self.tree_bcast(&tree, bytes, value)
    }

    fn split(&mut self, group: &SocketGroup, color: Option<i64>, key: i64) -> Option<SocketGroup> {
        // Gather the Option itself — no sentinel, so every i64 is a
        // legal color, distinct from non-participation.
        let mut entries = self.allgatherv(group, 24, (color, key, self.rank));
        let seq = self.coll_seq[&group.id] - 1; // the allgatherv's seq
        let my_color = color?;
        entries.retain(|&(c, _, _)| c == Some(my_color));
        entries.sort_unstable_by_key(|&(_, k, w)| (k, w));
        let members: Vec<usize> = entries.iter().map(|&(_, _, w)| w).collect();
        // Every member of the cell hashes the same triple — agreement
        // without the native backend's shared registry.
        let id = split_id(group.id, seq, my_color);
        Some(SocketGroup { id, ranks: Arc::new(members) })
    }

    fn alloc_channel_id(&mut self) -> u16 {
        let id = self.next_channel as usize * self.nprocs + self.rank;
        self.next_channel += 1;
        u16::try_from(id).expect("too many channels")
    }
}

fn unpack<T: Wire>(rank: usize, env: Env) -> (T, MsgInfo) {
    let info = MsgInfo { src: env.src, tag: env.tag, bytes: env.bytes };
    let buf = env.payload.downcast::<Vec<u8>>().unwrap_or_else(|_| {
        panic!("rank {rank}: non-frame payload in a socket mailbox (tag {:?})", env.tag)
    });
    match T::from_frame(&buf) {
        Ok(v) => (v, info),
        Err(e) => panic!(
            "rank {rank}: malformed {} frame from rank {} under tag {:?}: {e}",
            std::any::type_name::<T>(),
            info.src,
            env.tag
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_ids_dodge_the_reserved_values() {
        assert_ne!(split_id(0, 0, 0), WORLD_ID);
        assert_ne!(split_id(0, 0, 0), META_ID);
        // Distinct cells of one split get distinct ids.
        assert_ne!(split_id(0, 3, 0), split_id(0, 3, 1));
    }

    #[test]
    fn overlay_matches_the_binomial_recurrence() {
        let noop = |v: usize| v;
        let t = Overlay { tag: Tag::user(0), to_world: &noop, my_v: 0, size: 6 };
        assert_eq!(t.children(0), vec![1, 2, 4]);
        assert_eq!(t.children(2), vec![3]);
        assert_eq!(t.children(4), vec![5]);
        assert_eq!(Overlay::parent(5), 4);
        assert_eq!(Overlay::parent(3), 2);
        assert_eq!(Overlay::parent(1), 0);
    }

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
            let mut rank = SocketRank::new(0, 2, dir.clone(), 1.0, mailbox, tolerant);

            let sent = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                rank.send(1, tag, 8, vec![0u8; over]);
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
            assert!(!rank.dead[1] && rank.links[1].is_none(), "tolerant = {tolerant}");
            rank.send(1, tag, 8, 7u64);
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

    #[test]
    fn collectives_agree_across_processes() {
        let reports =
            SocketWorld::for_test("tests::collectives_agree_across_processes", 5).run(|rank| {
                let world = rank.world_group();
                let sum = rank.allreduce(&world, 8, rank.world_rank() as u64, |a, b| *a += b);
                let all = rank.allgatherv(&world, 8, rank.world_rank());
                let from_root = rank.bcast(&world, 3, 8, (rank.world_rank() == 3).then_some(99u32));
                rank.barrier(&world);
                // Split into parity cells, reduce within each.
                let parity = (rank.world_rank() % 2) as i64;
                let cell = rank.split(&world, Some(parity), rank.world_rank() as i64).unwrap();
                let cell_sum = rank.allreduce(&cell, 8, rank.world_rank() as u64, |a, b| *a += b);
                (sum, all, from_root, cell_sum)
            });
        for (r, (sum, all, from_root, cell_sum)) in reports.into_iter().enumerate() {
            assert_eq!(sum, 10);
            assert_eq!(all, (0..5).collect::<Vec<_>>());
            assert_eq!(from_root, 99);
            assert_eq!(cell_sum, if r % 2 == 0 { 6 } else { 4 });
        }
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
