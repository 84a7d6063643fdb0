//! Multi-process [`Transport`](mpistream::Transport) backend: every rank
//! a separate OS process; every directed link a shared-memory [`ring`]
//! that carries its frames; every rank one doorbell; all of them in one
//! world file ([`page`]).
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
//! message leaves — encoded straight into the peer's ring, behind its
//! frame header — how a receive finds its frame and decodes it where it
//! lies in the link's buffer, and how the rank waits for mail: by
//! reading its own rings, on its one thread, and sleeping on its futex
//! doorbell when they are empty (see [`SocketLinks`]).
//!
//! ## Links
//!
//! Every link's ring is already in the world file, which every rank maps
//! when it starts, so nothing is dialled: a sender's first send to a rank
//! maps that pair's data area, claims the ring's header as its one
//! writer, counts the link in the receiver's slot and rings it; the
//! receiver, seeing the count move, maps the data areas of the newly
//! opened headers in its row. Frames, wake-ups and departures all go
//! through the file.
//!
//! ## Topology
//!
//! A [`SocketWorld::run`] in the **launcher** process creates the world
//! file, then re-executes the current binary once per rank (`fork`/`exec`,
//! `MPISTREAM_SOCKET_*` in the environment). Each child inherits exactly
//! two descriptors, named by `MPISTREAM_SOCKET_FDS`: its end of a
//! `socketpair`, its control link to the launcher and the one socket it
//! holds, and the world file. There is no rendezvous and no start
//! barrier: a rank that sends before its peer has started writes into the
//! peer's ring, which the peer reads when it gets there. Each child:
//!
//! 1. maps the world file;
//! 2. runs the body against a [`SocketRank`] on the process's one
//!    thread; whenever the body waits in a transport call — a receive
//!    that misses, a send whose ring is full — the rank maps the rings
//!    its slot says were opened and reads its inbound rings;
//! 3. leaves the world: marks itself gone in its slot of the world file,
//!    which rings every bell, then writes its [`Wire`]-encoded result on
//!    the control link and exits. Nobody waits on a rank that has gone: a
//!    send to it is dropped, a wait for room in its ring ends, and each
//!    peer reads what it published to the end of its link.
//!
//! Exactly **one** `SocketWorld::run` per process: in a child, `run`
//! never returns (the process exits after the body), and a second run
//! with a different key panics immediately instead of forking the
//! world's children again. In `cargo test`, give each socket test its
//! own `#[test]` fn, construct the world with [`SocketWorld::for_test`],
//! and put the socket run *first* in the fn so re-executed children
//! reach it before any sim/native comparison work.

// Every `unsafe` block says why it is sound: the world file is shared
// memory another process writes.
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod frame;
pub mod page;
pub mod ring;
mod sys;

use std::borrow::Cow;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::unix::net::UnixStream;
use std::os::unix::process::CommandExt;
use std::process::{Child, Command};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use frame::{FrameReader, FRAME_OVERHEAD};
use mpistream::{MsgInfo, Src, Tag, Wire, WireOut};
use native::mailbox::{Env, Mailbox, Matcher};
use native::{Links, MailboxRank, Until, WallClock};
use page::Page;
use ring::{RingReader, RingWriter};

/// What a rank process is told at spawn, beside its two descriptors.
const ENV_KEY: &str = "MPISTREAM_SOCKET_KEY";
const ENV_RANK: &str = "MPISTREAM_SOCKET_RANK";
const ENV_WORLD: &str = "MPISTREAM_SOCKET_WORLD";
/// The control link's and the world file's descriptor numbers, `ctl,file`.
const ENV_FDS: &str = "MPISTREAM_SOCKET_FDS";
const ENV_SCALE: &str = "MPISTREAM_SOCKET_SCALE";

/// While the launcher waits for results it wakes this often to look at
/// the children's exit statuses, so a rank that died is reported by name
/// (or, death-tolerant, marked gone in the world file) within about a
/// second. Long enough that the launcher costs the ranks it shares a CPU
/// with nothing.
const RESULT_POLL: Duration = Duration::from_secs(1);

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
}

impl SocketWorld {
    /// A world of `nprocs` ranks keyed by `key` (any string unique to
    /// this call site within the binary). Children re-exec the current
    /// binary with its original arguments.
    pub fn new(key: &str, nprocs: usize) -> SocketWorld {
        assert!(nprocs > 0, "a world needs at least one rank");
        SocketWorld { key: key.to_string(), nprocs, compute_scale: 1.0, child_args: None }
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
    /// 1.0), forwarded to every child in its environment.
    pub fn with_compute_scale(mut self, scale: f64) -> SocketWorld {
        assert!(scale.is_finite() && scale >= 0.0, "compute_scale must be finite and >= 0");
        self.compute_scale = scale;
        self
    }

    /// Run `body` once per rank, each in its own OS process, and return
    /// every rank's result in rank order.
    ///
    /// In the launcher this forks the children and collects their
    /// [`Wire`]-encoded results; in a child it runs `body` and **never
    /// returns** (the process exits once it has shipped the result). The body
    /// must be deterministic in what *type* it returns — the launcher
    /// decodes exactly `R` from every rank.
    pub fn run<R, F>(&self, body: F) -> Vec<R>
    where
        R: Wire,
        F: FnOnce(&mut SocketRank) -> R,
    {
        self.launch(false, body)
            .into_iter()
            .map(|r| r.expect("strict launcher panics before recording a dead rank"))
            .collect()
    }

    /// Like [`SocketWorld::run`], but death-tolerant: a rank process that
    /// vanishes mid-run (kill, abort, crash) no longer takes the world
    /// down with it. The launcher marks it gone in the world file within
    /// about a second, the mark a rank that returns sets itself, and
    /// wakes every rank: sends to it are dropped (a send waiting for room
    /// in its ring ends at the mark), its inbound links read as EOF once
    /// drained, and it comes back as `None`, every surviving rank's
    /// result as `Some`. Fault-free runs behave identically to the strict
    /// mode.
    pub fn run_tolerant<R, F>(&self, body: F) -> Vec<Option<R>>
    where
        R: Wire,
        F: FnOnce(&mut SocketRank) -> R,
    {
        self.launch(true, body)
    }

    fn launch<R, F>(&self, tolerant: bool, body: F) -> Vec<Option<R>>
    where
        R: Wire,
        F: FnOnce(&mut SocketRank) -> R,
    {
        match std::env::var(ENV_KEY) {
            Err(_) => self.run_launcher(tolerant),
            Ok(k) if k == self.key => self.run_child(body),
            Ok(k) => panic!(
                "this process was launched as a rank of socket world {k:?} but reached \
                 SocketWorld::run for {:?} first — keep exactly one SocketWorld::run per \
                 test/process and put it before any other backend runs",
                self.key
            ),
        }
    }

    fn run_launcher<R: Wire>(&self, tolerant: bool) -> Vec<Option<R>> {
        // Each child inherits its wiring at spawn: its end of a control
        // link and the world file, the only descriptors it is given
        // beside stdio.
        let page = Page::create(self.nprocs).expect("create the world file");
        let exe = std::env::current_exe().expect("resolve current executable");
        let args: Vec<String> =
            self.child_args.clone().unwrap_or_else(|| std::env::args().skip(1).collect());
        let mut guard = LaunchGuard { children: Vec::new() };
        let mut conns = Vec::with_capacity(self.nprocs);
        for r in 0..self.nprocs {
            let (conn, theirs) = UnixStream::pair().expect("create a control link");
            let fds = [theirs.as_raw_fd(), page.fd().as_raw_fd()];
            let mut cmd = Command::new(&exe);
            cmd.args(&args)
                .env(ENV_KEY, &self.key)
                .env(ENV_RANK, r.to_string())
                .env(ENV_WORLD, self.nprocs.to_string())
                .env(ENV_FDS, format!("{},{}", fds[0], fds[1]))
                .env(ENV_SCALE, self.compute_scale.to_string());
            // SAFETY: the hook runs in the forked child before `exec` and
            // only calls `fcntl`, which is async-signal-safe and allocates
            // nothing. The two descriptors are open until `spawn` returns,
            // and only the child's copies lose their close-on-exec flag:
            // a sibling world's child must not inherit this rank's link,
            // or it would hide the rank's EOF.
            unsafe { cmd.pre_exec(move || fds.iter().try_for_each(|&fd| sys::cloexec(fd, false))) };
            guard.children.push(cmd.spawn().expect("spawn rank process"));
            // The launcher keeps no copy of the child's end, so the link
            // reads EOF as soon as the rank process goes.
            drop(theirs);
            // How long a world runs is the caller's business: a silent
            // control link is a rank still running its body. A rank that
            // died shows in its exit status instead, which the launcher
            // looks at every RESULT_POLL.
            conn.set_read_timeout(Some(RESULT_POLL)).expect("control read timeout");
            conns.push(conn);
        }

        // Collect results in rank order. A rank that returned has left the
        // world and may have exited already: its result waits on its link.
        let mut results = Vec::with_capacity(self.nprocs);
        for (r, conn) in conns.iter_mut().enumerate() {
            let idle = || match tolerant {
                false => guard.check_alive(&page),
                // Tolerant worlds expect deaths: mark them for the
                // survivors; the dead rank's own link reports it (EOF).
                true => guard.mark_gone(&page),
            };
            match frame::read_blob(&mut Polled { conn, idle }) {
                Ok(blob) => results.push(Some(R::from_frame(&blob).unwrap_or_else(|e| {
                    panic!("rank {r} returned a malformed result frame: {e}")
                }))),
                Err(_) if tolerant => results.push(None),
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                    // A rank's end of the link closes only when its
                    // process goes; the exit status follows at once.
                    let status = guard.children[r].wait().expect("wait for rank process");
                    panic!("rank {r} exited with {status} before returning a result");
                }
                Err(e) => panic!("rank {r} failed to return a result: {e}"),
            }
        }
        for (r, mut child) in guard.children.drain(..).enumerate() {
            let status = child.wait().expect("wait for rank process");
            if results[r].is_some() {
                assert!(status.success(), "rank {r} exited with {status}");
            }
        }
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
        let compute_scale: f64 = env_parsed(ENV_SCALE);
        let fds: String = env_parsed(ENV_FDS);
        let (ctl, page) = fds.split_once(',').unwrap_or_else(|| panic!("{ENV_FDS}: {fds:?}"));
        let ctl = UnixStream::from(inherited(ctl));
        let page = Page::attach(inherited(page), nprocs);
        let page = WORLD_PAGE.get_or_init(|| Arc::new(page.expect("map the world file")));

        let links = SocketLinks::new(Arc::clone(page), rank);
        let clock = WallClock::start(compute_scale);
        let mut me = MailboxRank::new(rank, nprocs, clock, COLL_FLAT_THRESHOLD, links);
        let result = body(&mut me).to_frame();
        // Leave first: from the mark on no peer waits on this rank, so the
        // write may block on the launcher alone.
        page.leave(rank);
        frame::write_blob(&mut &ctl, &result).expect("ship result");
        std::process::exit(0);
    }
}

/// This rank process's map of the world file, for [`RawLink::open`].
static WORLD_PAGE: OnceLock<Arc<Page>> = OnceLock::new();

/// Kills any still-running children — on the success path the children
/// vec has been drained first.
struct LaunchGuard {
    children: Vec<Child>,
}

impl LaunchGuard {
    /// Fail fast, naming the rank, if a child has exited other than by
    /// leaving the world: a rank that returned marks itself gone before
    /// it ships its result and exits 0, and any other exit is a death.
    fn check_alive(&mut self, page: &Page) {
        for (r, c) in self.children.iter_mut().enumerate() {
            match c.try_wait() {
                Ok(Some(status)) if !(status.success() && page.slot(r).is_gone()) => {
                    panic!("rank {r} exited with {status} before returning a result")
                }
                _ => {}
            }
        }
    }

    /// Death-tolerant worlds: mark gone in the world file every rank
    /// whose process went without leaving, which wakes every rank.
    fn mark_gone(&mut self, page: &Page) {
        for (r, c) in self.children.iter_mut().enumerate() {
            if !page.slot(r).is_gone() && matches!(c.try_wait(), Ok(Some(_))) {
                page.leave(r);
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

/// Take ownership of one of the two descriptors the launcher left open in
/// this rank process (`MPISTREAM_SOCKET_FDS`), and close it on `exec`
/// again.
fn inherited(fd: &str) -> OwnedFd {
    let fd: RawFd = fd.parse().unwrap_or_else(|e| panic!("{ENV_FDS} unparseable: {e:?}"));
    sys::cloexec(fd, true).unwrap_or_else(|e| panic!("{ENV_FDS}: descriptor {fd}: {e}"));
    // SAFETY: `fd` is open (`fcntl` just succeeded on it), the launcher
    // gave it to this process alone, and `run_child`, which never
    // returns, takes each of the two once.
    unsafe { OwnedFd::from_raw_fd(fd) }
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
/// link that carries its frames, the rank's doorbell, both in the world
/// file ([`page`]), and this process's [`Matcher`].
///
/// A rank process has one thread, the one running the body, and it makes
/// progress on its own links. A receive looks in the matcher first, then
/// reads its inbound rings up to the first frame that matches and
/// decodes that frame where it lies, in the link's buffer or, for a frame
/// larger than the buffer, in the ring itself; the frames it passes over
/// go into the matcher. If nothing matched it parks on its bell, looks
/// again, and sleeps in `FUTEX_WAIT` until someone rings it.
/// Wherever the rank can block it does the same, so no peer waits on a
/// rank that is itself waiting: a `send` whose ring is full reads every
/// inbound ring while it waits. Between transport calls — while the body
/// computes — nothing is read, and a peer that fills the ring meanwhile
/// waits for the next call. Once the body returns the rank leaves the
/// world and reads nothing more; its slot's mark ([`page::Slot::is_gone`]) is
/// all its peers go by, in every world: sends to it are dropped, and
/// each link from it ends where its frames do.
pub struct SocketLinks {
    /// The world file: every rank's slot and every link's ring.
    page: Arc<Page>,
    /// The receiving side: inbound links and matcher.
    inbound: Inbound,
    /// Outbound links, opened on first use.
    links: Vec<Option<OutLink>>,
}

impl SocketLinks {
    fn new(page: Arc<Page>, rank: usize) -> SocketLinks {
        let nprocs = page.ranks();
        SocketLinks {
            inbound: Inbound {
                rank,
                dials: 0,
                opened: vec![false; nprocs],
                links: Vec::new(),
                next: 0,
                matcher: Matcher::default(),
            },
            links: (0..nprocs).map(|_| None).collect(),
            page,
        }
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
        // The frame's length is known before its first byte moves, so an
        // oversize payload is the caller's error, found before any I/O:
        // in neither mode does it say anything about the peer.
        let len = v.wire_len();
        let head = frame::frame_head(len, tag.0, bytes)
            .unwrap_or_else(|e| panic!("rank {me}: send to rank {dst} under tag {tag:?}: {e}"));
        // A rank that has left the world takes nothing more: the send is
        // dropped, or what is left of it if `dst` left while it waited
        // for room.
        let SocketLinks { page, inbound, links } = self;
        if page.slot(dst).is_gone() {
            return;
        }
        let link = links[dst].get_or_insert_with(|| {
            OutLink::open(page, dst, me)
                .unwrap_or_else(|e| panic!("rank {me}: link to rank {dst}: {e}"))
        });
        // Header and encoding go straight into the peer's ring, and the
        // frame is published once, before `send` returns. Nothing is ever
        // held back for a later flush: that would be aggregation behind
        // the caller's back, and would stall a producer's last element
        // for as long as the application computes between sends.
        let (start, limit) = link.ring.start();
        let end = start + (FRAME_OVERHEAD + len) as u64;
        let limit = limit.min(end);
        let mut out = RingOut { link, page, inbound, at: start, limit, end, over: 0, gone: false };
        out.put(&head);
        v.encode(&mut out);
        let RingOut { link, at, over, gone, .. } = out;
        if gone {
            return;
        }
        let encoded = (at - start) as usize + over - FRAME_OVERHEAD;
        assert!(
            encoded == len,
            "rank {me}: send to rank {dst} under tag {tag:?}: {} encoded {encoded} bytes, but \
             its wire_len said {len}",
            std::any::type_name::<T>()
        );
        link.publish_to(page, at);
    }

    fn recv<T: Wire + Send + 'static>(
        &mut self,
        _me: usize,
        src: Src,
        tag: Tag,
        until: Until,
    ) -> Option<(T, MsgInfo)> {
        let SocketLinks { page, inbound, .. } = self;
        inbound.progress(page, until, |inbound| inbound.recv(page, src, tag))
    }

    fn probe(&mut self, _me: usize, src: Src, tag: Tag) -> Option<MsgInfo> {
        let SocketLinks { page, inbound, .. } = self;
        inbound.matcher.probe(src, tag).or_else(|| {
            inbound.serve(page);
            inbound.matcher.probe(src, tag)
        })
    }

    fn wait_change(&mut self, _me: usize, seen: u64) -> u64 {
        // This thread is the only writer of its own mail, so the version
        // moves only when it reads a frame it does not take at once.
        let SocketLinks { page, inbound, .. } = self;
        let changed = |inbound: &Inbound| Some(inbound.matcher.version()).filter(|&v| v != seen);
        let version = inbound.progress(page, Until::Forever, |inbound| {
            changed(inbound).or_else(|| {
                inbound.serve(page);
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

/// The receiving side of a socket rank: its inbound links, and its
/// matcher, which holds the frames this rank's own thread has read but
/// not yet taken. Its methods take the world file they read.
struct Inbound {
    rank: usize,
    /// The slot's dial count when the row of headers was last looked at.
    dials: u32,
    /// The senders whose rings are mapped (or were, until they ended).
    opened: Vec<bool>,
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
    /// rank's bell in the world file, with `look` as its look. A
    /// look that finds nothing must have read every link to its end — a
    /// receive that misses has, and every other wait serves the links
    /// itself — so a rank never sleeps with a frame unread, and two
    /// ranks that flood each other drain each other instead of wedging.
    /// No socket call is made unless `look` makes one.
    fn progress<R>(
        &mut self,
        page: &Page,
        until: Until,
        mut look: impl FnMut(&mut Inbound) -> Option<R>,
    ) -> Option<R> {
        page.slot(self.rank).bell().wait(until, || look(self))
    }

    /// The first message that matches `(src, tag)`, decoded: from the
    /// matcher if it holds one — its frames are older than anything
    /// still on their links, so per-`(src, tag)` order holds — and else
    /// from the links, decoded where it lies in its reader's buffer.
    fn recv<T: Wire>(&mut self, page: &Arc<Page>, src: Src, tag: Tag) -> Option<(T, MsgInfo)> {
        let me = self.rank;
        if let Some(env) = self.matcher.take(src, tag) {
            let info = MsgInfo { src: env.src, tag: env.tag, bytes: env.bytes };
            let payload =
                env.payload.downcast::<Vec<u8>>().expect("a socket rank's mail is frames");
            return Some((decode(me, info, &payload), info));
        }
        self.read(page, |info, payload| {
            let from = match src {
                Src::Any => true,
                Src::Rank(r) => r == info.src,
            };
            let wanted = info.tag == tag && from;
            wanted.then(|| (decode(me, info, payload), info))
        })
    }

    /// Read every link to its end, each frame into the matcher.
    fn serve(&mut self, page: &Arc<Page>) {
        self.read(page, |_, _| None::<()>);
    }

    /// Read the links, starting at `next`, until `pick` takes a frame;
    /// every frame it passes over goes into the matcher. `None`: `pick`
    /// took nothing, and every link has been read to its end. If the
    /// slot's dial count moved, the newly opened rings are mapped first.
    /// A link that ended is dropped; one that failed is fatal to the
    /// process — the frames the body waits for can no longer arrive, so
    /// the rank prints the error and exits non-zero, which the launcher's
    /// exit-status poll reports.
    fn read<R>(
        &mut self,
        page: &Arc<Page>,
        mut pick: impl FnMut(MsgInfo, &[u8]) -> Option<R>,
    ) -> Option<R> {
        let dials = page.slot(self.rank).dials();
        if dials != self.dials {
            self.dials = dials;
            self.open_links(page);
        }
        let Inbound { rank, links, next, matcher, .. } = self;
        let mut at = *next;
        for _ in 0..links.len() {
            at %= links.len();
            let (state, found) = links[at].read(matcher, page, &mut pick);
            match state {
                Ok(true) => at += 1,
                Ok(false) => drop(links.remove(at)),
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

    /// Map the ring of every sender whose header in this rank's row has
    /// been opened since the last look. A header is marked open before
    /// the dial that announces it is counted, so none is missed.
    fn open_links(&mut self, page: &Arc<Page>) {
        let me = self.rank;
        for src in 0..page.ranks() {
            if !self.opened[src] && page.header(me, src).is_open() {
                let ring = RingReader::open(page, me, src)
                    .unwrap_or_else(|e| panic!("rank {me}: map the ring from rank {src}: {e}"));
                self.opened[src] = true;
                self.links.push(InLink { src, frames: FrameReader::new(ring) });
            }
        }
    }
}

/// The links of `n` ranks in this process, over one world on the heap,
/// and that world: for tests that drive a rank's send and receive paths
/// without processes (with a thread per rank where a send must wait for
/// a reader).
#[doc(hidden)]
pub fn local_world(n: usize) -> (Arc<Page>, Vec<SocketLinks>) {
    let page = Arc::new(Page::local(n));
    (Arc::clone(&page), (0..n).map(|r| SocketLinks::new(Arc::clone(&page), r)).collect())
}

/// One outbound link: the ring this rank publishes its frames into, and
/// the reader, whose slot every publish rings.
struct OutLink {
    ring: RingWriter,
    dst: usize,
}

impl OutLink {
    /// Claim the ring from `src` to `dst` in `page` and map it, then count
    /// the link in `dst`'s slot, which rings it.
    fn open(page: &Arc<Page>, dst: usize, src: usize) -> io::Result<OutLink> {
        let ring = RingWriter::open(page, dst, src)?;
        page.slot(dst).dial();
        Ok(OutLink { ring, dst })
    }

    /// Publish what fits of `bytes` and ring the reader. Returns how many
    /// bytes went.
    fn publish(&mut self, page: &Page, bytes: &[u8]) -> usize {
        let n = self.ring.publish(bytes);
        if n > 0 {
            page.slot(self.dst).ring();
        }
        n
    }

    /// Publish what is written up to `at`, and ring the reader if that
    /// was anything.
    fn publish_to(&mut self, page: &Page, at: u64) {
        if self.ring.publish_to(at) {
            page.slot(self.dst).ring();
        }
    }

    /// Wait on rank `me`'s bell until the ring has room, calling `serve`
    /// at every look: raise the ring's `writer_parked` and look at its
    /// `tail` again, so the reader that frees room rings `me`. An error
    /// means the reader has left the world: it will free nothing more.
    fn wait_room(&self, page: &Page, me: usize, mut serve: impl FnMut()) -> io::Result<()> {
        let reader = page.slot(self.dst);
        let gone = page.slot(me).bell().wait(Until::Forever, || {
            serve();
            let gone = reader.is_gone();
            (gone || !self.ring.park()).then_some(gone)
        });
        self.ring.unpark();
        match gone.expect("a wait without a deadline ends with room or a departure") {
            true => Err(io::Error::new(io::ErrorKind::BrokenPipe, "the receiving rank has gone")),
            false => Ok(()),
        }
    }
}

/// The sink `send` encodes into: the frame's bytes go straight into
/// its link's ring from `at` on, unpublished until `send` publishes the
/// whole frame. `limit` is where the free space ended at the last look,
/// or the frame's `end` if that comes first, so a `put` under it is one
/// copy, with no look at the reader's `tail`.
///
/// A `put` past `limit` takes [`RingOut::put_slow`]. Past `end` the
/// encoder has put more than its `wire_len` said: from there on nothing
/// is written, only counted in `over`, so `send` can name the mismatch
/// before it publishes a byte of the frame. Otherwise the ring is full:
/// what is written is published, the reader rung, and the rank waits for
/// room on its bell, serving its inbound links as every wait of a socket
/// rank does (DESIGN.md §16.3), so two ranks flooding each other drain
/// each other. That wait has no deadline (`Until::Forever`): a reader
/// that neither reads nor leaves holds its writer for good (ROADMAP
/// 6(c)). A frame published in pieces that way is the one case where an
/// encoder that puts fewer bytes than it said leaves a part of its frame
/// in the ring before `send` panics. If the reader leaves the world while
/// the rank waits (`gone`), the rest of the frame is dropped.
struct RingOut<'a> {
    link: &'a mut OutLink,
    page: &'a Arc<Page>,
    inbound: &'a mut Inbound,
    /// Where the next byte goes.
    at: u64,
    /// How far a `put` may write without a look at the ring.
    limit: u64,
    /// One past the frame's last byte, by its `wire_len`.
    end: u64,
    /// Bytes put past `end`, counted and not written.
    over: usize,
    /// The reader left the world while this frame waited for room.
    gone: bool,
}

impl WireOut for RingOut<'_> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        let to = self.at + bytes.len() as u64;
        if to <= self.limit {
            self.link.ring.put_at(self.at, bytes);
            self.at = to;
        } else {
            self.put_slow(bytes);
        }
    }
}

impl RingOut<'_> {
    /// A `put` that does not fit under `limit`: see [`RingOut`].
    #[inline(never)]
    fn put_slow(&mut self, mut bytes: &[u8]) {
        if self.gone || self.over > 0 || self.at + bytes.len() as u64 > self.end {
            // Every later `put` comes here too, and goes nowhere.
            self.over += bytes.len();
            self.limit = 0;
            return;
        }
        loop {
            let n = bytes.len().min(self.limit.saturating_sub(self.at) as usize);
            if n > 0 {
                self.link.ring.put_at(self.at, &bytes[..n]);
                self.at += n as u64;
                bytes = &bytes[n..];
            }
            if bytes.is_empty() {
                return;
            }
            self.limit = self.link.ring.limit().min(self.end);
            if self.limit <= self.at {
                let RingOut { link, page, inbound, at, .. } = self;
                link.publish_to(page, *at);
                if link.wait_room(page, inbound.rank, || inbound.serve(page)).is_err() {
                    self.gone = true;
                    self.limit = 0;
                    return;
                }
                self.limit = self.link.ring.limit().min(self.end);
            }
        }
    }
}

/// An outbound link opened by hand, for tests that must choose exactly
/// which bytes a rank receives and when: [`RawLink::open`], in a rank
/// process, claims the ring from rank `src` to rank `dst`, and every
/// write then goes into that ring as it is, waiting on `src`'s bell
/// while the ring is full. A ring has one writer: a `RawLink` is refused
/// on a ring the rank's own links hold, and they on one it holds.
#[doc(hidden)]
pub struct RawLink {
    out: OutLink,
    page: Arc<Page>,
    src: usize,
}

impl RawLink {
    pub fn open(dst: usize, src: usize) -> io::Result<RawLink> {
        let page = WORLD_PAGE.get().ok_or_else(|| io::Error::other("not in a socket rank"))?;
        RawLink::open_in(page, dst, src)
    }

    fn open_in(page: &Arc<Page>, dst: usize, src: usize) -> io::Result<RawLink> {
        Ok(RawLink { out: OutLink::open(page, dst, src)?, page: Arc::clone(page), src })
    }
}

impl Write for RawLink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        loop {
            let n = self.out.publish(&self.page, buf);
            if n > 0 || buf.is_empty() {
                return Ok(n);
            }
            self.out.wait_room(&self.page, self.src, || {})?;
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One inbound link: the sender, and the frames of its ring.
struct InLink {
    src: usize,
    frames: FrameReader<RingReader>,
}

impl InLink {
    /// Read the ring's frames until `pick` takes one, lent where it lies
    /// — in the reader's buffer or, when it is too large for that, in
    /// the ring — each frame it passes over going into `matcher`; then
    /// release what was lent and ring the writer if a release claimed
    /// its wake. A frame that came in its own allocation (larger than
    /// the ring, or begun in the buffer behind smaller frames) does not
    /// stop the read: the frames behind it go into `matcher` in the same
    /// pass, so each receive of such frames frees as much ring room as
    /// there is, not one frame's worth with a wake of the writer each. A
    /// writer marked gone published everything it ever will: its ring is
    /// closed when it runs dry, so it reads as EOF once drained. The mark
    /// is loaded only then, not on every read: it lies on a cache line
    /// with the writer's bell, which the writer writes whenever it waits,
    /// and `socket_fine` read ≈ 4 % slower when every read loaded it. A
    /// partial frame stays in the reader, or in the ring, for the next
    /// call. The state is `Ok(false)` when the link ended: at a frame
    /// boundary, or inside a frame whose writer died.
    fn read<R>(
        &mut self,
        matcher: &mut Matcher,
        page: &Page,
        pick: &mut impl FnMut(MsgInfo, &[u8]) -> Option<R>,
    ) -> (Result<bool, String>, Option<R>) {
        let InLink { src, frames } = self;
        let src = *src;
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
                Err(e) if e.kind() == io::ErrorKind::WouldBlock && !page.slot(src).is_gone() => {
                    break Ok(true)
                }
                // Its writer has gone, after everything it published: the
                // ring reads as EOF once drained.
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => frames.get_mut().close(),
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break Ok(false),
                Err(e) => break Err(format!("inbound link from rank {src}: {e}")),
            }
        };
        if frames.get_mut().take_wake() {
            page.slot(src).ring();
        }
        (state, found)
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
        let (_, mut ranks) = local_world(2);
        let links = &mut ranks[0];
        let sent = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            links.send(1, MsgInfo { src: 0, tag, bytes: 8 }, vec![0u8; over]);
        }));
        let panic = sent.expect_err("an oversize payload must panic");
        let msg = panic.downcast_ref::<String>().expect("a formatted panic message");
        let size = (mpistream::MAX_FRAME_BYTES + 1).to_string();
        for needle in ["rank 0", "rank 1", &format!("{tag:?}"), &size] {
            assert!(msg.contains(needle), "panic {msg:?} does not name {needle:?}");
        }

        // It was found before any I/O and says nothing about the peer:
        // not marked gone, its ring not even opened, and the next send
        // goes through.
        let untouched = !links.page.slot(1).is_gone() && links.links[1].is_none();
        assert!(untouched, "the peer was touched");
        links.send(1, MsgInfo { src: 0, tag, bytes: 8 }, 7u64);
        let (v, info) =
            ranks[1].recv::<u64>(1, Src::Rank(0), tag, Until::Forever).expect("the frame");
        assert_eq!((info.src, info.bytes), (0, 8));
        assert_eq!(v, 7);
    }

    /// A payload whose encoding is `lens[0]` bytes the first time it is
    /// encoded (the `wire_len` count) and `lens[1]` every time after.
    struct Liar {
        lens: [usize; 2],
        encoded: std::cell::Cell<usize>,
    }

    impl Wire for Liar {
        fn encode<O: WireOut>(&self, out: &mut O) {
            let n = self.lens[self.encoded.get().min(1)];
            self.encoded.set(self.encoded.get() + 1);
            out.put(&vec![0xA5; n]);
        }
        fn decode(_: &mut &[u8]) -> Result<Self, mpistream::WireError> {
            unreachable!("a Liar is never received")
        }
    }

    /// An encoder that puts more or fewer bytes than its `wire_len` said
    /// is the sender's panic, naming the type, and the peer's ring holds
    /// no published byte of that frame — even when the surplus is larger
    /// than the ring. The link goes on working.
    #[test]
    fn an_encoding_that_disagrees_with_wire_len_is_the_senders_panic() {
        let (page, mut ranks) = local_world(2);
        let tag = Tag::user(4);
        let info = MsgInfo { src: 0, tag, bytes: 8 };
        for lens in [[8, 16], [16, 8], [8, 2 * ring::RING_BYTES]] {
            let links = &mut ranks[0];
            let liar = Liar { lens, encoded: std::cell::Cell::new(0) };
            let sent = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                links.send(1, info, liar);
            }));
            let panic = sent.expect_err("a wire_len mismatch must panic");
            let msg = panic.downcast_ref::<String>().expect("a formatted panic message");
            for needle in ["rank 0", "rank 1", "Liar", &format!("its wire_len said {}", lens[0])] {
                assert!(msg.contains(needle), "panic {msg:?} does not name {needle:?}");
            }
            let mut peek = RingReader::open(&page, 1, 0).expect("map the ring");
            let err = peek.read(&mut [0u8; 64]).expect_err("nothing published");
            assert_eq!(err.kind(), io::ErrorKind::WouldBlock, "{lens:?}");
        }
        ranks[0].send(1, info, 7u64);
        let (v, _) = ranks[1].recv::<u64>(1, Src::Rank(0), tag, Until::Forever).expect("a frame");
        assert_eq!(v, 7);
    }

    /// One writer per ring: a `RawLink` is refused on a ring the rank's
    /// own links hold, and a send on a ring a `RawLink` holds.
    #[test]
    fn a_ring_has_one_writer() {
        let (page, mut ranks) = local_world(3);
        let info = |src| MsgInfo { src, tag: Tag::user(1), bytes: 8 };
        ranks[1].send(0, info(1), 1u64);
        let refused = RawLink::open_in(&page, 0, 1).err().expect("rank 1's links hold the ring");
        assert_eq!(refused.kind(), io::ErrorKind::AlreadyExists);

        let _raw = RawLink::open_in(&page, 0, 2).expect("nobody holds the ring from rank 2");
        let sent = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ranks[2].send(0, info(2), 2u64);
        }));
        let panic = sent.expect_err("a RawLink holds the ring from rank 2");
        let msg = panic.downcast_ref::<String>().expect("a formatted panic message");
        assert!(msg.contains("already has a writer"), "{msg}");
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
        let (_, mut ranks) = local_world(3);
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
    }

    /// A writer marked gone, whether it returned or died, has published
    /// everything it ever will. Its frames are all delivered, in order,
    /// and then its link reads as the end of the stream and is dropped.
    #[test]
    fn a_dead_writers_frames_arrive_before_its_link_closes() {
        let (_, mut ranks) = local_world(2);
        let reference = Mailbox::new();
        let (a, b) = (Tag::user(1), Tag::user(2));
        for (tag, v) in [(a, 1u64), (a, 2), (b, 3), (a, 4)] {
            send_both(&mut ranks, &reference, 1, tag, v);
        }
        ranks[0].page.leave(1);
        let me = &mut ranks[0];
        assert_eq!(recv_checked(me, &reference, Src::Rank(1), b), Some(3u64));
        assert_eq!(me.inbound.links.len(), 1, "one frame is still unread");
        for v in [1u64, 2, 4] {
            assert_eq!(recv_checked(me, &reference, Src::Rank(1), a), Some(v));
        }
        assert_eq!(recv_checked::<u64>(me, &reference, Src::Any, a), None);
        assert!(me.inbound.links.is_empty(), "the dead writer's link is dropped at its end");
    }

    /// Two links that are never empty: successive wildcard receives take
    /// from both, because each scan starts past the link the last one
    /// took from.
    #[test]
    fn wildcard_receives_take_from_every_busy_link() {
        let (_, mut ranks) = local_world(3);
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

    /// Rank 1 fills rank 0's ring, which rank 0 never reads, and parks
    /// waiting for room; then rank 0 leaves the world. In a strict world,
    /// as in a tolerant one, the wait ends at the mark, and the later
    /// sends to rank 0 are dropped at once.
    #[test]
    fn a_send_waiting_for_room_ends_when_the_reader_leaves() {
        let test = "tests::a_send_waiting_for_room_ends_when_the_reader_leaves";
        let sent = SocketWorld::for_test(test, 2).run(|rank| {
            let page = WORLD_PAGE.get().expect("the world file of a rank process");
            if rank.world_rank() == 0 {
                // A ring that claims rank 1's bell: it has parked.
                while !page.slot(1).bell().ring() {
                    std::thread::yield_now();
                }
                page.leave(0);
                return 0;
            }
            for _ in 0..3 {
                rank.send(0, Tag::user(1), 8, vec![0u8; ring::RING_BYTES]);
            }
            3
        });
        assert_eq!(sent, vec![0, 3]);
    }

    #[test]
    fn a_body_longer_than_the_result_poll_is_not_a_death() {
        // Rank 0 keeps the launcher waiting for its result through two
        // and a half result polls, while rank 1 has left and exited: a
        // silent control link is a rank at work, an exit after leaving is
        // no death, and neither may be mistaken for one.
        let ranks =
            SocketWorld::for_test("tests::a_body_longer_than_the_result_poll_is_not_a_death", 2)
                .run(|rank| {
                    if rank.world_rank() == 0 {
                        std::thread::sleep(RESULT_POLL * 5 / 2);
                    }
                    rank.world_rank()
                });
        assert_eq!(ranks, vec![0, 1]);
    }
}
