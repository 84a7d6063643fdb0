//! The per-process MPI-flavoured handle: point-to-point messaging, modelled
//! compute, communicator management.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use desim::{Ctx, SimDuration, SimTime};

use crate::comm::Comm;
use crate::config::MachineConfig;
use crate::msg::{Envelope, MsgInfo, Src, Tag};
use crate::world::{Shared, SplitState};

/// Handle through which a rank body talks to the simulated machine.
///
/// Exposes a deliberately MPI-shaped API (`send`/`isend`/`recv`/`probe`
/// under namespaced [`Tag`]s, collectives in [`crate::coll`]) so
/// application code reads like the MPI codes the paper modifies.
pub struct Rank<'c> {
    pub(crate) ctx: &'c mut Ctx,
    pub(crate) shared: Arc<Shared>,
    rank: usize,
    /// Per-communicator sequence numbers for collectives/splits.
    pub(crate) coll_seq: BTreeMap<u16, u32>,
}

/// Completion handle for a non-blocking send. The payload is already in
/// flight; `wait` blocks only until the local NIC has injected it (eager
/// protocol — buffer reusable).
#[derive(Debug)]
#[must_use = "isend requests should be waited on (or explicitly dropped)"]
pub struct SendReq {
    inject_done: SimTime,
}

impl<'c> Rank<'c> {
    pub(crate) fn new(ctx: &'c mut Ctx, shared: Arc<Shared>, rank: usize) -> Self {
        Rank { ctx, shared, rank, coll_seq: BTreeMap::new() }
    }

    /// This process's world rank.
    #[inline]
    pub fn world_rank(&self) -> usize {
        self.rank
    }

    /// World size.
    #[inline]
    pub fn world_size(&self) -> usize {
        self.shared.nprocs
    }

    /// The world communicator.
    pub fn comm_world(&self) -> Comm {
        self.shared.world_comm()
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.ctx.now()
    }

    /// Machine configuration (read-only).
    pub fn machine(&self) -> &MachineConfig {
        &self.shared.config
    }

    /// The fault plan this world runs under (read-only). Application-level
    /// fault points — element-granular consumer kills — consult this.
    pub fn fault_plan(&self) -> &desim::FaultPlan {
        &self.shared.fault
    }

    /// Terminate this rank as if killed by a fault: it unwinds immediately
    /// and is reported in the outcome's killed set. The execution half of
    /// [`desim::FaultPlan::kill_at_element`].
    pub fn exit_killed(&mut self) -> ! {
        self.ctx.exit_killed()
    }

    /// Deterministic per-rank RNG.
    pub fn rng(&mut self) -> &mut rand::rngs::StdRng {
        self.ctx.rng()
    }

    /// Spend `secs` of modelled compute, perturbed by the machine's OS
    /// noise model.
    pub fn compute(&mut self, secs: f64) {
        let nominal = SimDuration::from_secs_f64(secs);
        let noisy = self.shared.config.noise.perturb(nominal, self.ctx.rng());
        self.ctx.advance(noisy);
    }

    /// Spend exactly `secs` of modelled compute (no noise).
    pub fn compute_exact(&mut self, secs: f64) {
        self.ctx.advance(SimDuration::from_secs_f64(secs));
    }

    /// Record a trace span around `f` (see `desim::trace`).
    pub fn traced<R>(&mut self, tag: &'static str, f: impl FnOnce(&mut Rank) -> R) -> R {
        self.ctx.trace_begin(tag);
        let r = f(self);
        self.ctx.trace_end(tag);
        r
    }

    pub fn trace_begin(&mut self, tag: &'static str) {
        self.ctx.trace_begin(tag);
    }

    pub fn trace_end(&mut self, tag: &'static str) {
        self.ctx.trace_end(tag);
    }

    // ------------------------------------------------------------------
    // Point-to-point: the `mpistream::Transport` vocabulary, so a concrete
    // `Rank` and a generic stream program call the same names with the
    // same arguments.
    // ------------------------------------------------------------------

    /// Non-blocking typed send of `value` to world rank `dst`, with a
    /// modelled wire size of `bytes`. Charges the sender CPU overhead and
    /// reserves NIC time; the payload is immediately in flight.
    pub fn isend<T: Send + 'static>(
        &mut self,
        dst: usize,
        tag: Tag,
        bytes: u64,
        value: T,
    ) -> SendReq {
        assert!(dst < self.shared.nprocs, "send to out-of-range rank {dst}");
        let cfg = &self.shared.config;
        // Sender-side CPU overhead (LogP `o`).
        self.ctx.advance(cfg.send_overhead);
        let now = self.ctx.now();
        let (latency, _) = cfg.link(self.rank, dst);
        let (tx_bw, rx_bw) = if cfg.same_node(self.rank, dst) {
            (cfg.intra_bandwidth, cfg.intra_bandwidth)
        } else {
            (cfg.tx_bandwidth, cfg.rx_bandwidth)
        };

        // Two-stage store-and-forward: injection on the sender NIC, then a
        // latency hop, then drain through the receiver NIC. The rx stage
        // serializes concurrent senders and produces incast congestion.
        let inject_done = {
            let mut nic = self.shared.nics[self.rank].lock();
            nic.tx.occupy(now, SimDuration::from_bytes_at(bytes, tx_bw))
        };
        let arrival = inject_done + latency;
        let mut available_at = {
            let mut nic = self.shared.nics[dst].lock();
            nic.rx.occupy(arrival, SimDuration::from_bytes_at(bytes, rx_bw))
        };

        self.shared.msgs_sent.fetch_add(1, Ordering::Relaxed);
        self.shared.bytes_sent.fetch_add(bytes, Ordering::Relaxed);
        self.shared.per_rank_msgs[self.rank].fetch_add(1, Ordering::Relaxed);

        // Happens-before sanitizer: tick this rank's clock and stamp the
        // message. Ticked even if a link fault later drops the message —
        // the send event happened.
        #[cfg(feature = "check")]
        let clock = self.shared.sanitizer.as_ref().map(|s| s.on_send(self.rank));

        // Link-fault layer. Only engaged when the plan has link faults, so
        // the fault-free hot path is untouched. The drop decision is a pure
        // hash of (plan seed, link, per-link msg seq), evaluation-order
        // independent; the availability floor keeps per-link delivery
        // monotone (non-overtaking) even when an extra-delay window ends
        // between two consecutive messages.
        if self.shared.fault.has_link_faults() {
            use desim::LinkDisposition;
            let mut links = self.shared.link_state.lock();
            let entry = links.entry((self.rank, dst)).or_insert((0, SimTime::ZERO));
            let seq = entry.0;
            entry.0 += 1;
            match self.shared.fault.link_disposition(self.rank, dst, arrival, seq) {
                LinkDisposition::Drop => {
                    self.shared.msgs_dropped.fetch_add(1, Ordering::Relaxed);
                    // The sender still spent its NIC time; the message just
                    // never lands.
                    return SendReq { inject_done };
                }
                LinkDisposition::Deliver { extra } => {
                    available_at = (available_at + extra).max(entry.1);
                    entry.1 = available_at;
                }
            }
        }

        self.shared.mailboxes[dst].push(
            self.ctx,
            Envelope {
                src: self.rank,
                tag,
                bytes,
                available_at,
                payload: Box::new(value),
                #[cfg(feature = "check")]
                clock,
            },
        );
        SendReq { inject_done }
    }

    /// Blocking send: complete once the local NIC has injected the message
    /// (eager protocol).
    pub fn send<T: Send + 'static>(&mut self, dst: usize, tag: Tag, bytes: u64, value: T) {
        let req = self.isend(dst, tag, bytes, value);
        self.wait_send(req);
    }

    /// Complete a non-blocking send.
    pub fn wait_send(&mut self, req: SendReq) {
        let now = self.ctx.now();
        if req.inject_done > now {
            self.ctx.advance(req.inject_done.since(now));
        }
    }

    /// Complete a set of non-blocking sends.
    pub fn wait_send_all(&mut self, reqs: Vec<SendReq>) {
        let latest = reqs.iter().map(|r| r.inject_done).max();
        if let Some(t) = latest {
            let now = self.ctx.now();
            if t > now {
                self.ctx.advance(t.since(now));
            }
        }
    }

    /// Blocking typed receive. Panics if the payload type differs from `T`
    /// (a genuine program error, like a datatype mismatch in MPI).
    pub fn recv<T: Send + 'static>(&mut self, src: Src, tag: Tag) -> (T, MsgInfo) {
        let env = self.shared.mailboxes[self.rank].take(self.ctx, src, tag);
        #[cfg(feature = "check")]
        self.check_wildcard(src, &env);
        self.unpack(env)
    }

    /// Non-blocking matched receive: take a message only if available now.
    pub fn try_recv<T: Send + 'static>(&mut self, src: Src, tag: Tag) -> Option<(T, MsgInfo)> {
        let env = self.shared.mailboxes[self.rank].try_take(self.ctx.now(), src, tag)?;
        #[cfg(feature = "check")]
        self.check_wildcard(src, &env);
        Some(self.unpack(env))
    }

    /// Blocking receive bounded by an absolute virtual-time `deadline`.
    ///
    /// Returns `None` if no matching message became available by the
    /// deadline (a message available exactly at the deadline is still
    /// delivered). This is the failure-detection primitive: instead of
    /// hanging forever on a peer that died, bound the wait and decide.
    pub fn recv_deadline<T: Send + 'static>(
        &mut self,
        src: Src,
        tag: Tag,
        deadline: SimTime,
    ) -> Option<(T, MsgInfo)> {
        let env = self.shared.mailboxes[self.rank].take_deadline(self.ctx, src, tag, deadline)?;
        #[cfg(feature = "check")]
        self.check_wildcard(src, &env);
        Some(self.unpack(env))
    }

    /// Metadata of a matching message that could be received right now,
    /// without consuming it.
    pub fn probe(&mut self, src: Src, tag: Tag) -> Option<MsgInfo> {
        self.shared.mailboxes[self.rank].probe(self.ctx.now(), src, tag)
    }

    /// Modelled bytes currently parked in this rank's mailbox — the memory
    /// footprint of buffered, unconsumed stream data (§II-D of the paper).
    pub fn mailbox_bytes(&self) -> u64 {
        self.shared.mailboxes[self.rank].queued_bytes()
    }

    /// Sanitizer: after a wildcard match on a *user* tag, look for causally
    /// concurrent rival candidates still in the mailbox. Internal traffic
    /// (collectives, streams) multiplexes over `Src::Any` by design and is
    /// excluded — FCFS nondeterminism there is the mechanism, not a bug.
    #[cfg(feature = "check")]
    fn check_wildcard(&mut self, src: Src, env: &Envelope) {
        if !matches!(src, Src::Any) || env.tag.0 >> 63 != 0 {
            return;
        }
        let Some(san) = self.shared.sanitizer.as_ref() else { return };
        let now = self.ctx.now();
        let rivals = self.shared.mailboxes[self.rank].available_rivals(now, env.tag, env.src);
        if !rivals.is_empty() {
            san.on_wildcard_match(self.rank, env.tag, env.src, env.clock.as_ref(), &rivals, now.0);
        }
    }

    /// Sanitizer hook: register a stream channel's flow-control parameters
    /// (window in elements, credit tag). Called by the stream library at
    /// channel creation; no-op when the run does not check.
    #[cfg(feature = "check")]
    pub fn check_register_channel(&mut self, id: u16, window: Option<u64>, credit_tag: Tag) {
        if let Some(san) = self.shared.sanitizer.as_ref() {
            san.register_channel(id, window, credit_tag);
        }
    }

    /// Sanitizer hook: this rank put `elems` stream elements in flight to
    /// world rank `consumer` on channel `id`.
    #[cfg(feature = "check")]
    pub fn check_data_sent(&mut self, id: u16, consumer: usize, elems: u64) {
        if let Some(san) = self.shared.sanitizer.as_ref() {
            san.data_sent(id, self.rank, consumer, elems, self.ctx.now().0);
        }
    }

    /// Sanitizer hook: this rank granted `elems` credits back to world rank
    /// `producer` on channel `id`.
    #[cfg(feature = "check")]
    pub fn check_credit_issued(&mut self, id: u16, producer: usize, elems: u64) {
        if let Some(san) = self.shared.sanitizer.as_ref() {
            san.credit_issued(id, self.rank, producer, elems);
        }
    }

    fn unpack<T: Send + 'static>(&mut self, env: Envelope) -> (T, MsgInfo) {
        // Receiver-side CPU overhead per matched message.
        let o = self.shared.config.recv_overhead;
        self.ctx.advance(o);
        #[cfg(feature = "check")]
        if let Some(san) = self.shared.sanitizer.as_ref() {
            san.on_recv(self.rank, env.clock.as_ref());
        }
        let info = MsgInfo { src: env.src, tag: env.tag, bytes: env.bytes };
        match env.payload.downcast::<T>() {
            Ok(v) => (*v, info),
            Err(_) => panic!(
                "rank {}: payload type mismatch receiving tag {:?} from {} \
                 (expected {})",
                self.rank,
                env.tag,
                env.src,
                std::any::type_name::<T>()
            ),
        }
    }

    /// Next collective sequence number on `comm` (each rank counts its own
    /// calls; MPI requires identical collective call order on a
    /// communicator, which makes the counters agree).
    pub(crate) fn next_seq(&mut self, comm: &Comm) -> u32 {
        let seq = self.coll_seq.entry(comm.id()).or_insert(0);
        let s = *seq;
        *seq += 1;
        s
    }

    // ------------------------------------------------------------------
    // Communicator management
    // ------------------------------------------------------------------

    /// Collective split of `comm` (MPI_Comm_split): members with the same
    /// `color` form a new communicator ordered by `(key, world_rank)`.
    /// `color = None` yields `None` (MPI_UNDEFINED). Synchronizing.
    pub fn split(&mut self, comm: &Comm, color: Option<i64>, key: i64) -> Option<Comm> {
        assert!(comm.contains(self.rank), "split on a communicator we are not in");
        let seq = self.next_seq(comm);
        let sk = (comm.id(), seq);
        let me = self.rank;
        let pid = self.ctx.pid();
        let now = self.ctx.now();
        let color_code = color.unwrap_or(i64::MIN);

        let complete = {
            let mut splits = self.shared.splits.lock();
            let st = splits.entry(sk).or_insert_with(|| SplitState {
                entries: Vec::new(),
                waiters: Vec::new(),
                last_arrival: SimTime::ZERO,
                result: None,
                picked: 0,
            });
            st.entries.push((color_code, key, me));
            st.last_arrival = st.last_arrival.max(now);
            if st.entries.len() == comm.size() {
                true
            } else {
                st.waiters.push(pid);
                false
            }
        };

        if complete {
            // Build the subcommunicators (deterministic ordering).
            let (groups, last) = {
                let mut splits = self.shared.splits.lock();
                let st = splits.get_mut(&sk).expect("split state exists");
                let mut entries = std::mem::take(&mut st.entries);
                entries.sort_by_key(|&(c, k, w)| (c, k, w));
                (entries, st.last_arrival)
            };
            let mut result: BTreeMap<usize, Option<Comm>> = BTreeMap::new();
            let mut i = 0;
            while i < groups.len() {
                let color = groups[i].0;
                let mut members = Vec::new();
                while i < groups.len() && groups[i].0 == color {
                    members.push(groups[i].2);
                    i += 1;
                }
                if color == i64::MIN {
                    for w in members {
                        result.insert(w, None);
                    }
                } else {
                    let c = self.shared.register_comm(members.clone());
                    for w in members {
                        result.insert(w, Some(c.clone()));
                    }
                }
            }
            let waiters = {
                let mut splits = self.shared.splits.lock();
                let st = splits.get_mut(&sk).expect("split state exists");
                st.result = Some(result);
                st.picked = 0;
                std::mem::take(&mut st.waiters)
            };
            // Release everyone at the synchronization point. The split is a
            // cheap setup-time collective: charge one latency.
            let release = last + self.shared.config.inter_latency;
            for w in waiters {
                self.ctx.kernel().schedule_at(release.max(self.ctx.now()), w);
            }
            if release > self.ctx.now() {
                let d = release.since(self.ctx.now());
                self.ctx.advance(d);
            }
            self.pick_split_result(sk, comm.size())
        } else {
            // Wait until the result is published.
            loop {
                {
                    let splits = self.shared.splits.lock();
                    if splits.get(&sk).map(|st| st.result.is_some()).unwrap_or(false) {
                        break;
                    }
                }
                self.ctx.suspend("comm-split");
            }
            self.pick_split_result(sk, comm.size())
        }
    }

    fn pick_split_result(&mut self, sk: (u16, u32), size: usize) -> Option<Comm> {
        let mut splits = self.shared.splits.lock();
        let st = splits.get_mut(&sk).expect("split state exists");
        let out = st
            .result
            .as_ref()
            .expect("split result published")
            .get(&self.rank)
            .cloned()
            .expect("every member has a split result");
        st.picked += 1;
        if st.picked == size {
            splits.remove(&sk);
        }
        out
    }

    /// Suspend until this rank's mailbox changes — a new message arrives
    /// or an in-flight one becomes available. May wake spuriously; callers
    /// re-check their condition. The building block for multiplexing over
    /// several message sources (see `mpistream`'s `operate2`).
    pub fn wait_for_mail(&mut self) {
        self.shared.mailboxes[self.rank].park_until_change(self.ctx);
    }

    /// Allocate a world-unique 16-bit id (for layered libraries that need
    /// their own tag namespace, e.g. stream channels). Not collective —
    /// callers that need agreement should allocate on one rank and
    /// broadcast.
    pub fn alloc_channel_id(&mut self) -> u16 {
        let id = self.shared.channel_ids.fetch_add(1, Ordering::Relaxed);
        u16::try_from(id).expect("too many channels")
    }

    /// Direct access to the underlying simulation context (escape hatch for
    /// libraries layered on the simulator, e.g. the stream library).
    pub fn ctx(&mut self) -> &mut Ctx {
        self.ctx
    }
}
