//! Streams: asynchronous element flows with attached operators.
//!
//! Mirrors the paper's library surface:
//!
//! | paper                   | here                         |
//! |-------------------------|------------------------------|
//! | `MPIStream_Attach`      | [`Stream::attach`]           |
//! | `MPIStream_Isend`       | [`Stream::isend`]            |
//! | `MPIStream_Operate`     | [`Stream::operate`]          |
//! | `MPIStream_Terminate`   | [`Stream::terminate`]        |
//! | `MPIStream_FreeChannel` | dropping the [`Stream`]      |
//!
//! Consumers process elements **first-come-first-served** across all
//! producers (`AnySource` matching on availability time), which is the
//! mechanism that absorbs producer imbalance: a late producer never stalls
//! the consumer as long as any other producer has data in flight.

use crate::channel::{RoutePolicy, StreamChannel};
use crate::group::Role;
use crate::transport::{Event, MsgInfo, SimTime, Src, Transport};
use crate::wire::{Wire, WireError, WireOut};

/// Wire format of one stream message: the enum that actually crosses the
/// transport, with a defined [`Wire`] encoding (discriminant byte `0` for
/// `Data`, `1` for `Term`) so the same stream runs over a socket link.
/// Public so replication drivers (`crates/replica`) can speak the same
/// wire protocol from their own send/receive loops.
pub enum StreamMsg<T> {
    /// A batch of `aggregation`-coalesced elements.
    Data(Vec<T>),
    /// End of this producer's flow; carries the total elements it sent to
    /// this consumer (conservation checking).
    Term {
        /// Total elements this producer sent to this consumer.
        sent: u64,
    },
    /// Epoch marker (discriminant `2`), sent only by *replicated*
    /// producers when they start replaying to a new primary: everything
    /// this producer sent on the data tag before the marker belongs to
    /// an earlier reign and must not fold. Unreplicated channels never
    /// send it, so their wire traffic stays byte-identical.
    Mark(u64),
}

impl<T: Wire> Wire for StreamMsg<T> {
    fn encode<O: WireOut>(&self, out: &mut O) {
        match self {
            StreamMsg::Data(batch) => {
                out.put(&[0]);
                batch.encode(out);
            }
            StreamMsg::Term { sent } => {
                out.put(&[1]);
                sent.encode(out);
            }
            StreamMsg::Mark(mark) => {
                out.put(&[2]);
                mark.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(input)? {
            0 => Ok(StreamMsg::Data(Vec::decode(input)?)),
            1 => Ok(StreamMsg::Term { sent: u64::decode(input)? }),
            2 => Ok(StreamMsg::Mark(u64::decode(input)?)),
            got => Err(WireError::BadDiscriminant { got }),
        }
    }
}

/// Producer- and consumer-side statistics of one stream endpoint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Elements pushed by this producer / processed by this consumer.
    pub elements: u64,
    /// Wire messages sent / received (data messages only).
    pub batches: u64,
    /// Modelled payload bytes moved.
    pub bytes: u64,
    /// Elements abandoned producer-side because no live consumer could
    /// accept them (their consumer was declared dead and the route policy
    /// admits no alternative). Always `0` on fault-free runs.
    pub lost: u64,
}

/// Terminal state of one producer as seen by a consumer endpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProducerState {
    /// The producer closed its flow cleanly with a `Term` marker.
    Terminated,
    /// The producer went silent past the channel's `failure_timeout` and
    /// was declared dead by the consumer's failure detector.
    Dead,
}

/// Per-producer accounting inside a [`StreamOutcome`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProducerReport {
    /// World rank of the producer.
    pub rank: usize,
    /// Elements from this producer actually processed by this consumer.
    pub delivered: u64,
    /// Elements the producer claims to have sent us (the `Term` payload);
    /// `None` when it died before terminating, so its claim is unknown.
    pub claimed: Option<u64>,
    /// How this producer's flow ended.
    pub state: ProducerState,
}

impl ProducerReport {
    /// Elements known to be lost from this producer: claimed by its `Term`
    /// but never delivered (link drops). `0` when the producer died without
    /// terminating — its claim is unknown, not zero.
    pub fn lost(&self) -> u64 {
        self.claimed.map_or(0, |c| c.saturating_sub(self.delivered))
    }
}

/// Result of a fault-tolerant drain ([`Stream::operate_outcome`]): how many
/// elements were processed and what became of each producer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamOutcome {
    /// Total elements processed, over all producers.
    pub processed: u64,
    /// One report per producer, in channel (sorted world-rank) order.
    pub producers: Vec<ProducerReport>,
}

impl StreamOutcome {
    /// Whether every producer closed cleanly and every claimed element was
    /// delivered — i.e. the run was indistinguishable from fault-free.
    pub fn complete(&self) -> bool {
        self.producers.iter().all(|p| p.state == ProducerState::Terminated && p.lost() == 0)
    }

    /// World ranks of the producers declared dead.
    pub fn dead(&self) -> Vec<usize> {
        self.producers.iter().filter(|p| p.state == ProducerState::Dead).map(|p| p.rank).collect()
    }

    /// Total elements known lost (claimed by a `Term` but not delivered).
    pub fn lost(&self) -> u64 {
        self.producers.iter().map(|p| p.lost()).sum()
    }
}

/// One endpoint of a stream over a [`StreamChannel`].
///
/// Producer endpoints push with [`Stream::isend`] and close with
/// [`Stream::terminate`]; consumer endpoints drain with
/// [`Stream::operate`] (or one message at a time with [`Stream::step`]).
pub struct Stream<T> {
    channel: StreamChannel,
    // --- producer state ---
    /// Pending (not yet flushed) elements per consumer index.
    agg: Vec<Vec<T>>,
    rr_next: usize,
    /// Outstanding (unacknowledged) elements per consumer index, for
    /// credit-based flow control.
    outstanding: Vec<u64>,
    /// Elements sent per consumer index (for Term accounting).
    sent_per_consumer: Vec<u64>,
    /// Consumer indices this producer declared dead (credit silence past
    /// the channel's `failure_timeout`).
    dead_consumers: Vec<bool>,
    terminated: bool,
    // --- consumer state ---
    terms_seen: usize,
    /// World ranks of producers this consumer declared dead
    /// (see [`Stream::operate_outcome`]).
    dead_producers: Vec<usize>,
    /// Total elements producers claim to have sent us (sum of Terms).
    claimed: u64,
    /// Elements received but not yet handed out by [`Stream::recv_one`].
    pending: std::collections::VecDeque<T>,
    /// While true, [`Stream::grant_credit`] only accumulates — nothing is
    /// acknowledged until [`Stream::release_credits`]. The
    /// commit-before-credit-return gate of replicated consumers
    /// (`crates/replica`): a credit message doubles as a durability
    /// acknowledgement there, so it must not leave before the processed
    /// state is replicated.
    gate_credits: bool,
    /// What this consumer knows of each producer, in channel order — slot
    /// `i` belongs to world rank `channel.producers[i]`, so walking it
    /// front to back is ascending world-rank order. Empty on endpoints of
    /// any other role.
    by_producer: Vec<ProducerSlot>,
    stats: StreamStats,
}

/// One producer as a consumer endpoint sees it.
#[derive(Clone, Default)]
struct ProducerSlot {
    /// Credit not yet acknowledged: flushed as one credit message once
    /// `config.credit_batch` elements accumulate (see
    /// [`ChannelConfig::credit_batch`]).
    ///
    /// [`ChannelConfig::credit_batch`]: crate::ChannelConfig::credit_batch
    pending_credit: u64,
    /// Element cursor: how many of the producer's elements this endpoint
    /// has processed; `None` until its first data message. The replay
    /// oracle replicated consumers checkpoint; maintained on every
    /// receive path.
    delivered: Option<u64>,
    /// The producer's claimed total (its `Term` payload) once it has
    /// terminated — `Some(0)` is a claim — checkpointed alongside the
    /// cursor.
    claimed: Option<u64>,
    /// `Some(mark)` while the producer's data tag is quarantined: the
    /// [`StreamMsg::Mark`] value that lifts the quarantine (`u64::MAX` =
    /// never). A replicated consumer taking over quarantines every
    /// unfinished producer until its post-announce epoch marker arrives:
    /// per-`(src, tag)` FIFO puts all traffic addressed to an earlier
    /// reign of this rank strictly before the marker, so everything
    /// dropped while muted is provably stale. Always `None` on
    /// unreplicated channels.
    muted: Option<u64>,
}

/// How [`Stream::step`] waits for the next wire message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wait {
    /// Suspend until a message arrives.
    Block,
    /// Take a message only if one has already arrived; never suspend.
    Poll,
    /// Suspend until a message arrives or this instant passes.
    Until(SimTime),
}

/// What one [`Stream::step`] call consumed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepEvent {
    /// World rank of the producer whose message was dispatched.
    pub src: usize,
    /// Elements handed to the operator (0 for a `Term`).
    pub elems: u64,
    /// Whether the message was the producer's termination marker — and
    /// was counted: a quarantined `Term` is dropped and reports `false`
    /// (the replica driver acknowledges term events, which would certify
    /// a flow whose claim never committed).
    pub term: bool,
}

/// A replicated consumer's durable per-channel state: the element cursor
/// per producer, terminated producers' claims, and the endpoint's
/// statistics. Serialized with the [`Wire`] codec and shipped inside VSR
/// prepare messages (`crates/replica`); a standby that takes over restores
/// it with [`Stream::restore_consumer`] and resumes from the exact cursor.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConsumerCheckpoint {
    /// `(producer world rank, elements delivered)` — sorted by rank for a
    /// canonical encoding.
    pub cursors: Vec<(u64, u64)>,
    /// `(producer world rank, claimed total)` for producers whose `Term`
    /// arrived — also sorted by rank.
    pub claims: Vec<(u64, u64)>,
    /// Consumer-side [`StreamStats`] mirror (elements, batches, bytes).
    pub elements: u64,
    /// Data messages received.
    pub batches: u64,
    /// Payload bytes received.
    pub bytes: u64,
}

crate::wire_struct!(ConsumerCheckpoint { cursors, claims, elements, batches, bytes });

impl<T: Wire + Send + 'static> Stream<T> {
    /// Attach a stream endpoint to `channel` (the element type `T` plays
    /// the role of the MPI derived datatype).
    pub fn attach(channel: StreamChannel) -> Stream<T> {
        let nc = channel.consumers.len();
        let np = if channel.my_role == Role::Consumer { channel.producers.len() } else { 0 };
        // Aggregation buffers are allocated at full batch capacity once
        // and swapped for an equally-sized buffer on every flush, so the
        // element push path never grows a Vec (see `flush_one`).
        let cap = channel.config.aggregation;
        Stream {
            agg: (0..nc).map(|_| Vec::with_capacity(cap)).collect(),
            channel,
            rr_next: 0,
            outstanding: vec![0; nc],
            sent_per_consumer: vec![0; nc],
            dead_consumers: vec![false; nc],
            terminated: false,
            terms_seen: 0,
            dead_producers: Vec::new(),
            claimed: 0,
            pending: std::collections::VecDeque::new(),
            gate_credits: false,
            by_producer: vec![ProducerSlot::default(); np],
            stats: StreamStats::default(),
        }
    }

    /// The underlying channel.
    pub fn channel(&self) -> &StreamChannel {
        &self.channel
    }

    /// Endpoint statistics so far.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Position of world rank `src` among the channel's (sorted)
    /// producers — on a consumer endpoint, the index of its
    /// [`ProducerSlot`].
    fn producer_index(&self, src: usize) -> Option<usize> {
        self.channel.producers.binary_search(&src).ok()
    }

    fn my_producer_index<TP: Transport>(&self, rank: &TP) -> usize {
        self.producer_index(rank.world_rank()).expect("this rank is not a producer on the channel")
    }

    fn default_consumer_index<TP: Transport>(&mut self, rank: &TP) -> usize {
        match self.channel.config.route {
            RoutePolicy::Static => self.my_producer_index(rank) % self.channel.consumers.len(),
            RoutePolicy::RoundRobin => {
                let i = self.rr_next;
                self.rr_next = (self.rr_next + 1) % self.channel.consumers.len();
                i
            }
        }
    }

    // ------------------------------------------------------------------
    // Producer side
    // ------------------------------------------------------------------

    /// Inject one element into the stream (`MPIStream_Isend`): route it to
    /// a consumer per the channel policy, coalescing `aggregation`
    /// elements per wire message. Asynchronous — blocks only when the
    /// credit window is exhausted.
    pub fn isend<TP: Transport>(&mut self, rank: &mut TP, elem: T) {
        assert_eq!(self.channel.my_role, Role::Producer, "isend on a non-producer endpoint");
        let c = self.default_consumer_index(rank);
        self.isend_to(rank, c, elem);
    }

    /// Inject one element routed by `key` (hash-partitioned streams, e.g.
    /// word-histogram keys).
    pub fn isend_keyed<TP: Transport>(&mut self, rank: &mut TP, key: u64, elem: T) {
        let c = (mix64(key) % self.channel.consumers.len() as u64) as usize;
        self.isend_to(rank, c, elem);
    }

    /// Inject one element to an explicit consumer index (application-
    /// specific routing, e.g. "the consumer responsible for my subdomain").
    pub fn isend_to<TP: Transport>(&mut self, rank: &mut TP, consumer: usize, elem: T) {
        assert!(!self.terminated, "isend after terminate");
        assert_eq!(self.channel.my_role, Role::Producer, "isend on a non-producer endpoint");
        self.agg[consumer].push(elem);
        if self.agg[consumer].len() >= self.channel.config.aggregation {
            self.flush_one(rank, consumer);
        }
    }

    /// Flush any partially filled aggregation buffers.
    pub fn flush<TP: Transport>(&mut self, rank: &mut TP) {
        for c in 0..self.channel.consumers.len() {
            if !self.agg[c].is_empty() {
                self.flush_one(rank, c);
            }
        }
    }

    fn flush_one<TP: Transport>(&mut self, rank: &mut TP, consumer: usize) {
        // The outgoing batch keeps its allocation (it travels to the
        // consumer inside the wire message); the slot gets a fresh
        // full-capacity buffer so subsequent pushes never reallocate.
        let cap = self.channel.config.aggregation;
        let batch = std::mem::replace(&mut self.agg[consumer], Vec::with_capacity(cap));
        debug_assert!(!batch.is_empty());
        self.send_batch(rank, consumer, batch);
    }

    /// Deliver one batch to `consumer`, re-routing it if the consumer is —
    /// or is discovered mid-wait to be — dead. [`RoutePolicy::RoundRobin`]
    /// re-routes to the next live consumer; under [`RoutePolicy::Static`]
    /// (and keyed routing) elements are pinned to their consumer, so they
    /// are dropped and counted in [`StreamStats::lost`].
    fn send_batch<TP: Transport>(&mut self, rank: &mut TP, mut consumer: usize, batch: Vec<T>) {
        let n = batch.len() as u64;
        loop {
            if self.dead_consumers[consumer] {
                match self.reroute_from(consumer) {
                    Some(c) => consumer = c,
                    None => {
                        self.stats.lost += n;
                        return;
                    }
                }
            }
            // Credit window: block until the consumer has drained enough —
            // or, with a failure timeout, until it is declared dead.
            if let Some(window) = self.channel.config.credits {
                let mut died = false;
                while self.outstanding[consumer] + n > window as u64 {
                    if !self.absorb_credit(rank, consumer) {
                        self.declare_consumer_dead(consumer);
                        died = true;
                        break;
                    }
                }
                if died {
                    continue;
                }
            }
            let bytes = n * self.channel.config.element_bytes;
            let dst = self.channel.consumers[consumer];
            let tag = self.channel.data_tag();
            // Report to the sanitizer *before* injecting: on a threaded
            // backend the consumer can observe the message (and ack it)
            // the instant `send` returns, so a post-send report would
            // race any cross-rank ledger built on these events.
            let id = self.channel.id;
            rank.observe(Event::DataSent { id, consumer: dst, elems: n });
            rank.send(dst, tag, bytes, StreamMsg::Data(batch));
            self.outstanding[consumer] += n;
            rank.observe(Event::StreamSend { channel: id, elems: n, bytes });
            if let Some(window) = self.channel.config.credits {
                let outstanding = self.outstanding[consumer];
                let window = window as u64;
                rank.observe(Event::CreditOccupancy { channel: id, outstanding, window });
            }
            self.sent_per_consumer[consumer] += n;
            self.stats.elements += n;
            self.stats.batches += 1;
            self.stats.bytes += bytes;
            return;
        }
    }

    /// The consumer index that takes over from dead `consumer`, if the
    /// route policy admits one.
    fn reroute_from(&self, consumer: usize) -> Option<usize> {
        match self.channel.config.route {
            RoutePolicy::RoundRobin => {
                let nc = self.channel.consumers.len();
                (1..nc).map(|d| (consumer + d) % nc).find(|&c| !self.dead_consumers[c])
            }
            RoutePolicy::Static => None,
        }
    }

    /// Failure-detection verdict on a consumer: stop waiting on it and
    /// reclaim its credit window so no later send can block on it either.
    fn declare_consumer_dead(&mut self, consumer: usize) {
        self.dead_consumers[consumer] = true;
        self.outstanding[consumer] = 0;
    }

    /// Blockingly consume one credit message for `consumer`. With a
    /// `failure_timeout` configured the wait is bounded: `false` means the
    /// consumer stayed silent past the timeout.
    fn absorb_credit<TP: Transport>(&mut self, rank: &mut TP, consumer: usize) -> bool {
        let src = self.channel.consumers[consumer];
        let tag = self.channel.credit_tag();
        let acked = match self.channel.config.failure_timeout {
            None => rank.recv::<u64>(Src::Rank(src), tag).0,
            Some(t) => {
                let deadline = rank.now() + t;
                match rank.recv_deadline::<u64>(Src::Rank(src), tag, deadline) {
                    Some((acked, _)) => acked,
                    None => return false,
                }
            }
        };
        self.outstanding[consumer] = self.outstanding[consumer].saturating_sub(acked);
        true
    }

    /// Opportunistically drain any credits that have already arrived
    /// (keeps the window loose without blocking).
    fn drain_credits<TP: Transport>(&mut self, rank: &mut TP) {
        if self.channel.config.credits.is_none() {
            return;
        }
        let tag = self.channel.credit_tag();
        while let Some((acked, info)) = rank.try_recv::<u64>(Src::Any, tag) {
            let c = self
                .channel
                .consumers
                .iter()
                .position(|&w| w == info.src)
                .expect("credit from a consumer");
            self.outstanding[c] = self.outstanding[c].saturating_sub(acked);
        }
    }

    /// Close this producer's flow (`MPIStream_Terminate`): flush all
    /// buffers and notify every consumer.
    pub fn terminate<TP: Transport>(&mut self, rank: &mut TP) {
        assert_eq!(self.channel.my_role, Role::Producer, "terminate on a non-producer endpoint");
        if self.terminated {
            return;
        }
        self.flush(rank);
        let tag = self.channel.data_tag();
        for (c, &dst) in self.channel.consumers.clone().iter().enumerate() {
            // A consumer declared dead gets no Term: its traffic was
            // re-routed (or dropped) and nobody is listening there.
            if self.dead_consumers[c] {
                continue;
            }
            let sent = self.sent_per_consumer[c];
            rank.send(dst, tag, 16, StreamMsg::<T>::Term { sent });
        }
        // Drain remaining credit messages so they do not linger as
        // unconsumed traffic (and so outstanding counts settle for tests).
        self.drain_credits(rank);
        self.terminated = true;
    }

    /// Whether this producer endpoint has terminated.
    pub fn is_terminated(&self) -> bool {
        self.terminated
    }

    // ------------------------------------------------------------------
    // Consumer side
    // ------------------------------------------------------------------

    /// [`Stream::producer_index`] of the sender of a message that arrived
    /// on the data tag.
    fn sender_index(&self, src: usize) -> usize {
        self.producer_index(src).expect("stream data from a channel producer")
    }

    /// Acknowledge `n` consumed elements towards the producer in slot
    /// `pi`, accumulating up to `config.credit_batch` elements per
    /// producer before flushing one credit message. With the default
    /// batch of 1 this is exactly the original protocol: one credit
    /// message per data batch, sent immediately.
    fn grant_credit<TP: Transport>(&mut self, rank: &mut TP, pi: usize, n: u64) {
        debug_assert!(self.channel.config.credits.is_some());
        let pending = &mut self.by_producer[pi].pending_credit;
        *pending += n;
        // Parked while the gate is held (commit-before-credit-return:
        // until the replication layer calls `release_credits`) or the
        // batch is still filling.
        if self.gate_credits || *pending < self.channel.config.credit_batch as u64 {
            return;
        }
        let acked = std::mem::take(pending);
        let src = self.channel.producers[pi];
        // Sanitizer report before the send, as on the data path: the
        // producer absorbs the credit as soon as it is observable.
        rank.observe(Event::CreditIssued { id: self.channel.id, producer: src, elems: acked });
        rank.send(src, self.channel.credit_tag(), 8, acked);
    }

    /// Gate (or un-gate) credit acknowledgements. While held, every credit
    /// this endpoint would grant is parked in the pending ledger instead of
    /// being sent; [`Stream::release_credits`] flushes the ledger. The
    /// commit-before-credit-return handshake of replicated consumers
    /// (`crates/replica`) — a credit there asserts the acknowledged
    /// elements are durably replicated, so it may only leave after the
    /// covering checkpoint commits.
    pub fn hold_credits(&mut self, hold: bool) {
        self.gate_credits = hold;
    }

    /// Flush every parked credit acknowledgement, regardless of the
    /// `credit_batch` threshold. A no-op on channels without credits.
    pub fn release_credits<TP: Transport>(&mut self, rank: &mut TP) {
        let tag = self.channel.credit_tag();
        for (src, acked) in self.take_pending_credits() {
            rank.observe(Event::CreditIssued { id: self.channel.id, producer: src, elems: acked });
            rank.send(src, tag, 8, acked);
        }
    }

    /// Drain the parked credit ledger without sending anything: the
    /// replicated driver's alternative to [`Stream::release_credits`],
    /// used to wrap each acknowledgement in a view-stamped envelope
    /// before it leaves (`crates/replica`). Returns `(producer world
    /// rank, elements)` pairs, ascending by rank for a deterministic send
    /// order; empty on channels without credits. The caller must report
    /// each pair as an [`Event::CreditIssued`] before it sends.
    pub fn take_pending_credits(&mut self) -> Vec<(usize, u64)> {
        let slots = self.by_producer.iter_mut().zip(&self.channel.producers);
        slots
            .filter(|(slot, _)| slot.pending_credit > 0)
            .map(|(slot, &src)| (src, std::mem::take(&mut slot.pending_credit)))
            .collect()
    }

    /// Whether a message from the producer in slot `pi` is consumed by
    /// the quarantine instead of being processed: an epoch marker, which
    /// lifts a matching quarantine (stale markers, from a view this rank's
    /// quarantine outlived, are ignored), or anything at all from a
    /// producer still quarantined — pre-takeover traffic addressed to an
    /// earlier reign of this rank. Dropping it is the exactly-once cut:
    /// everything below the producer's marker was either already folded
    /// into the committed checkpoint or will arrive again in the
    /// post-marker replay.
    fn quarantine_consumes(&mut self, pi: usize, wire: &StreamMsg<T>) -> bool {
        let muted = &mut self.by_producer[pi].muted;
        if let StreamMsg::Mark(mark) = wire {
            if muted.is_some_and(|need| *mark >= need) {
                *muted = None;
            }
            return true;
        }
        muted.is_some()
    }

    /// Account a data batch of `n` elements from the producer in slot `pi`.
    fn note_data<TP: Transport>(&mut self, rank: &mut TP, pi: usize, n: u64, bytes: u64) {
        self.stats.elements += n;
        self.stats.batches += 1;
        self.stats.bytes += bytes;
        rank.observe(Event::StreamRecv { channel: self.channel.id, elems: n, bytes });
        *self.by_producer[pi].delivered.get_or_insert(0) += n;
    }

    /// Account the `Term` of the producer in slot `pi`. Idempotent: a
    /// resent `Term` (a replicated producer whose TermAck was lost, see
    /// `crates/replica`) must not double-count the claim. The producer's
    /// accumulated credit is dropped rather than acknowledged into the
    /// void: its `Term` is the last message on the data tag
    /// (non-overtaking per `(src, tag)`), so it can never again block on
    /// the window — a flush here would only send a message nobody is
    /// waiting for.
    fn note_term(&mut self, pi: usize, sent: u64) {
        let slot = &mut self.by_producer[pi];
        if slot.claimed.replace(sent).is_none() {
            self.terms_seen += 1;
            self.claimed += sent;
        }
        slot.pending_credit = 0;
    }

    /// Apply `op` to every arriving element, first-come-first-served over
    /// all producers, until every producer has terminated
    /// (`MPIStream_Operate`). Returns the number of elements processed.
    pub fn operate<TP: Transport>(&mut self, rank: &mut TP, op: impl FnMut(&mut TP, T)) -> u64 {
        let processed = self.operate_while(rank, || true, op);
        debug_assert_eq!(
            self.stats.elements, self.claimed,
            "conservation: processed must equal producers' claimed total"
        );
        processed
    }

    /// Fault-tolerant [`Stream::operate`]: apply `op` to every arriving
    /// element (FCFS across producers) until every producer has either
    /// terminated or been declared dead, and return a [`StreamOutcome`]
    /// with per-producer delivered/claimed accounting instead of hanging
    /// on a `Term` that will never come.
    ///
    /// Failure detection requires `config.failure_timeout = Some(t)`: a
    /// producer that has not yet terminated and from which nothing has
    /// arrived for `2t` of virtual time is declared [`ProducerState::Dead`]
    /// and its claim on the stream is discarded. The patience is twice the
    /// producer-side credit-wait timeout deliberately — a producer stalled
    /// up to `t` while it convicts a dead consumer of its own must not be
    /// convicted in turn by the surviving consumers. The verdict
    /// self-heals — if a declared-dead producer's message does arrive
    /// later (an extreme delay spike rather than a crash) while the drain
    /// is still running, the message is processed and the producer is
    /// live again.
    ///
    /// With `failure_timeout = None` this behaves exactly like `operate`,
    /// plus reporting. Must be the endpoint's only draining call — mixing
    /// with `operate`/`recv_one` would consume `Term`s this method can no
    /// longer attribute.
    pub fn operate_outcome<TP: Transport>(
        &mut self,
        rank: &mut TP,
        mut op: impl FnMut(&mut TP, T),
    ) -> StreamOutcome {
        assert_eq!(self.channel.my_role, Role::Consumer, "operate on a non-consumer endpoint");
        assert_eq!(self.terms_seen, 0, "operate_outcome must be the endpoint's only draining call");
        let np = self.channel.producers.len();
        // Consumer patience is 2x the configured timeout (see rustdoc).
        let timeout = self.channel.config.failure_timeout.map(|t| t + t);
        let mut dead = vec![false; np];
        let mut last_heard = vec![rank.now(); np];
        // Silence deadlines of *open* (neither terminated nor dead)
        // producers, ordered: `first()` is the earliest instant any of them
        // exceeds the timeout. Maintained incrementally on each arrival in
        // place of a full O(np) min-scan per message. Stays empty without
        // a `failure_timeout`.
        let mut deadlines: std::collections::BTreeSet<(SimTime, usize)> =
            std::collections::BTreeSet::new();
        if let Some(t) = timeout {
            for (i, &heard) in last_heard.iter().enumerate() {
                deadlines.insert((heard + t, i));
            }
        }
        let mut processed = self.hand_out_pending(rank, &mut op);
        let tag = self.channel.data_tag();
        // A producer is open until its claim sits in its slot or it is dead.
        while self.by_producer.iter().zip(&dead).any(|(slot, &d)| slot.claimed.is_none() && !d) {
            // This loop receives for itself instead of calling `step`: the
            // sender's `last_heard` must be stamped at arrival, *before*
            // `op` spends virtual time on the batch.
            let got = match deadlines.first() {
                None => Some(rank.recv::<StreamMsg<T>>(Src::Any, tag)),
                // The earliest instant any open producer's silence
                // exceeds the timeout.
                Some(&(deadline, _)) => rank.recv_deadline::<StreamMsg<T>>(Src::Any, tag, deadline),
            };
            let Some((wire, info)) = got else {
                // Deadline passed with nothing deliverable: declare
                // every producer silent past the timeout dead and
                // reclaim its claim on this endpoint.
                let now = rank.now();
                while let Some(&(d, i)) = deadlines.first() {
                    if d > now {
                        break;
                    }
                    deadlines.pop_first();
                    dead[i] = true;
                }
                continue;
            };
            let pi = self.sender_index(info.src);
            if let Some(t) = timeout {
                // Absent when `pi` was closed (dead producer
                // speaking again) — remove is a no-op then.
                deadlines.remove(&(last_heard[pi] + t, pi));
            }
            last_heard[pi] = rank.now();
            dead[pi] = false; // self-heal: it spoke after the verdict
            processed += self.dispatch(rank, pi, wire, info, &mut op).elems;
            // Anything but a `Term` — data, or an epoch marker, which is a
            // liveness signal with nothing to fold — re-arms the sender's
            // silence deadline.
            if let (Some(t), None) = (timeout, self.by_producer[pi].claimed) {
                deadlines.insert((last_heard[pi] + t, pi));
            }
        }
        let producers = &self.channel.producers;
        self.dead_producers = (0..np).filter(|&i| dead[i]).map(|i| producers[i]).collect();
        StreamOutcome {
            processed,
            producers: (0..np)
                .map(|i| ProducerReport {
                    rank: producers[i],
                    delivered: self.by_producer[i].delivered.unwrap_or(0),
                    claimed: self.by_producer[i].claimed,
                    state: if dead[i] { ProducerState::Dead } else { ProducerState::Terminated },
                })
                .collect(),
        }
    }

    /// Process arriving elements while `running` stays true (for consumers
    /// that interleave stream processing with other work). Returns
    /// elements processed; stops early once all producers terminated.
    /// Elements a prior [`Stream::recv_one`] buffered are handed out first,
    /// whatever `running` says: they were acknowledged when they arrived.
    pub fn operate_while<TP: Transport>(
        &mut self,
        rank: &mut TP,
        mut running: impl FnMut() -> bool,
        mut op: impl FnMut(&mut TP, T),
    ) -> u64 {
        let mut processed = self.hand_out_pending(rank, &mut op);
        while self.terms_seen < self.channel.producers.len() && running() {
            processed += self.step(rank, Wait::Block, &mut op).map_or(0, |ev| ev.elems);
        }
        processed
    }

    /// Apply `op` to whatever a prior [`Stream::recv_one`] pulled off the
    /// wire but did not hand out (accounted and credited at arrival).
    fn hand_out_pending<TP: Transport>(
        &mut self,
        rank: &mut TP,
        op: &mut impl FnMut(&mut TP, T),
    ) -> u64 {
        let n = self.pending.len() as u64;
        for elem in self.pending.drain(..) {
            op(rank, elem);
        }
        n
    }

    /// Receive at most one wire message as `wait` says and dispatch it:
    /// `None` when nothing arrived (an empty [`Wait::Poll`], a passed
    /// [`Wait::Until`] deadline), otherwise what was consumed — also for a
    /// message that carried no elements (a `Term`, an epoch marker, stale
    /// quarantined traffic), the progress signal multiplexers need to
    /// avoid busy-waiting. The primitive under every other drain, and the
    /// receive loop of replicated consumers (`crates/replica`), whose
    /// primary must interleave stream progress with heartbeats to its
    /// standbys.
    pub fn step<TP: Transport>(
        &mut self,
        rank: &mut TP,
        wait: Wait,
        mut op: impl FnMut(&mut TP, T),
    ) -> Option<StepEvent> {
        assert_eq!(self.channel.my_role, Role::Consumer, "step on a non-consumer endpoint");
        let tag = self.channel.data_tag();
        let (wire, info) = match wait {
            Wait::Block => rank.recv::<StreamMsg<T>>(Src::Any, tag),
            Wait::Poll => rank.try_recv::<StreamMsg<T>>(Src::Any, tag)?,
            Wait::Until(deadline) => rank.recv_deadline::<StreamMsg<T>>(Src::Any, tag, deadline)?,
        };
        let pi = self.sender_index(info.src);
        Some(self.dispatch(rank, pi, wire, info, &mut op))
    }

    /// The one place a wire message is interpreted, whichever drain
    /// received it: quarantine, accounting, `op` over the batch, credit.
    /// `pi` is the sender's slot (`sender_index` of `info.src`).
    fn dispatch<TP: Transport>(
        &mut self,
        rank: &mut TP,
        pi: usize,
        wire: StreamMsg<T>,
        info: MsgInfo,
        op: &mut impl FnMut(&mut TP, T),
    ) -> StepEvent {
        let mut ev = StepEvent { src: info.src, elems: 0, term: false };
        if self.quarantine_consumes(pi, &wire) {
            return ev;
        }
        match wire {
            StreamMsg::Data(batch) => {
                ev.elems = batch.len() as u64;
                self.note_data(rank, pi, ev.elems, info.bytes);
                for elem in batch {
                    op(rank, elem);
                }
                if self.channel.config.credits.is_some() {
                    // Acknowledge the whole batch (or accumulate towards
                    // one credit_batch-sized acknowledgement).
                    self.grant_credit(rank, pi, ev.elems);
                }
            }
            StreamMsg::Term { sent } => {
                self.note_term(pi, sent);
                ev.term = true;
            }
            StreamMsg::Mark(_) => unreachable!("the quarantine consumes every Mark"),
        }
        ev
    }

    /// Snapshot this consumer endpoint's durable state (element cursors,
    /// terminated producers' claims, statistics) for replication. The
    /// encoding is canonical: two endpoints that processed the same
    /// elements produce byte-identical checkpoints.
    pub fn consumer_checkpoint(&self) -> ConsumerCheckpoint {
        let slots = || self.channel.producers.iter().map(|&r| r as u64).zip(&self.by_producer);
        ConsumerCheckpoint {
            cursors: slots().filter_map(|(r, slot)| Some((r, slot.delivered?))).collect(),
            claims: slots().filter_map(|(r, slot)| Some((r, slot.claimed?))).collect(),
            elements: self.stats.elements,
            batches: self.stats.batches,
            bytes: self.stats.bytes,
        }
    }

    /// Install a replicated predecessor's [`ConsumerCheckpoint`] into this
    /// (fresh) consumer endpoint: cursors, claims and statistics resume
    /// from the exact committed state; parked credits and undelivered
    /// buffers are cleared (the takeover protocol re-derives credit from
    /// the cursors, and a committed checkpoint never contains unprocessed
    /// elements).
    pub fn restore_consumer(&mut self, ckpt: &ConsumerCheckpoint) {
        assert_eq!(self.channel.my_role, Role::Consumer);
        self.by_producer.fill(ProducerSlot::default());
        let producers = &self.channel.producers;
        let index = |r: u64| {
            let pi = usize::try_from(r).ok().and_then(|r| producers.binary_search(&r).ok());
            pi.expect("checkpoint names a channel producer")
        };
        for &(r, n) in &ckpt.cursors {
            self.by_producer[index(r)].delivered = Some(n);
        }
        for &(r, n) in &ckpt.claims {
            self.by_producer[index(r)].claimed = Some(n);
        }
        self.terms_seen = ckpt.claims.len();
        self.claimed = ckpt.claims.iter().map(|&(_, n)| n).sum();
        self.pending.clear();
        self.stats.elements = ckpt.elements;
        self.stats.batches = ckpt.batches;
        self.stats.bytes = ckpt.bytes;
    }

    /// Quarantine producer world rank `src`'s data tag until a
    /// [`StreamMsg::Mark`] with a value `>= mark` arrives from it
    /// (`u64::MAX`: forever). While quarantined, every wire message from
    /// `src` — data, `Term`, stale markers — is dropped unprocessed.
    /// Replicated consumers call this at takeover for each unfinished
    /// producer before announcing the new view: per-`(src, tag)` FIFO
    /// guarantees everything the producer sent to this rank's earlier
    /// reign is delivered strictly before the post-announce marker, so
    /// the drop window contains exactly the stale traffic.
    pub fn quarantine_until_mark(&mut self, src: usize, mark: u64) {
        let pi = self.producer_index(src).expect("quarantine of a channel producer");
        self.by_producer[pi].muted = Some(mark);
    }

    /// World rank `src`'s slot, if it is one of the channel's producers.
    fn slot_of(&self, src: usize) -> Option<&ProducerSlot> {
        self.producer_index(src).map(|pi| &self.by_producer[pi])
    }

    /// Whether producer world rank `src` is currently quarantined.
    pub fn is_quarantined(&self, src: usize) -> bool {
        self.slot_of(src).is_some_and(|slot| slot.muted.is_some())
    }

    /// The element cursor for producer world rank `src`: elements of its
    /// flow this endpoint has processed.
    pub fn cursor_of(&self, src: usize) -> u64 {
        self.slot_of(src).and_then(|slot| slot.delivered).unwrap_or(0)
    }

    /// Whether producer world rank `src`'s `Term` has been processed, and
    /// its claimed total if so.
    pub fn claim_of(&self, src: usize) -> Option<u64> {
        self.slot_of(src).and_then(|slot| slot.claimed)
    }

    /// Whether every producer has signalled termination (or, after a
    /// fault-tolerant drain, been declared dead).
    pub fn all_terminated(&self) -> bool {
        self.terms_seen + self.dead_producers.len() >= self.channel.producers.len()
    }

    /// Release the endpoint (`MPIStream_FreeChannel`): consumes the
    /// stream, asserting it is in a clean terminal state — producers must
    /// have terminated, consumers must have drained every claimed element.
    /// Dropping a `Stream` without `free` is allowed (Rust cleans up), but
    /// `free` catches protocol bugs the way the C API's explicit call did.
    pub fn free<TP: Transport>(self, _rank: &mut TP) {
        match self.channel.my_role {
            Role::Producer => {
                assert!(self.terminated, "free() on a producer endpoint that never terminated");
                assert!(self.agg.iter().all(|b| b.is_empty()), "free() with unflushed elements");
            }
            Role::Consumer => {
                assert!(
                    self.all_terminated(),
                    "free() on a consumer endpoint before all producers terminated"
                );
                assert!(
                    self.pending.is_empty(),
                    "free() with {} undelivered elements",
                    self.pending.len()
                );
                // Conservation only holds when no producer died: a dead
                // producer's claim is unknown and its data may be short.
                if self.dead_producers.is_empty() {
                    assert_eq!(
                        self.stats.elements, self.claimed,
                        "free() with unconsumed claimed elements"
                    );
                }
            }
            Role::Bystander => {}
        }
    }

    /// Pull-style consumption: block for the next element (FCFS across
    /// producers). Returns `None` once every producer has terminated and
    /// all elements were handed out. Mixing `recv_one` with `operate` on
    /// the same endpoint is supported — both drain the same buffers.
    pub fn recv_one<TP: Transport>(&mut self, rank: &mut TP) -> Option<T> {
        loop {
            if let Some(elem) = self.pending.pop_front() {
                return Some(elem);
            }
            if self.all_terminated() {
                debug_assert_eq!(self.stats.elements, self.claimed);
                return None;
            }
            // The (empty) buffer is taken out for the step so the closure
            // does not borrow `self` a second time.
            let mut pending = std::mem::take(&mut self.pending);
            self.step(rank, Wait::Block, |_, elem| pending.push_back(elem));
            self.pending = pending;
        }
    }
}

/// Finalizer-style avalanche hash (so consecutive keys spread evenly).
#[inline]
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^= x >> 33;
    x
}

#[cfg(test)]
mod tests {
    use super::mix64;

    #[test]
    fn mix64_spreads_consecutive_keys() {
        let n = 16u64;
        let mut buckets = vec![0usize; n as usize];
        for k in 0..1_600 {
            buckets[(mix64(k) % n) as usize] += 1;
        }
        // Each bucket should get roughly 100; no pathological clumping.
        assert!(buckets.iter().all(|&b| b > 50 && b < 200), "{buckets:?}");
    }

    #[test]
    fn mix64_is_a_bijection_probe() {
        // Distinct inputs must map to distinct outputs (sampled).
        let mut seen = std::collections::BTreeSet::new();
        for k in 0..10_000u64 {
            assert!(seen.insert(mix64(k)));
        }
    }
}
