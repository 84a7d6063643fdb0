//! The producer endpoint of a replicated channel.
//!
//! A [`ReplicatedProducer`] speaks the ordinary stream wire protocol on
//! the data tag ([`StreamMsg`], plus the replicated-only
//! [`StreamMsg::Mark`] epoch marker) but aims it at the replica group's
//! *current primary* instead of a fixed consumer, and keeps every
//! unacknowledged element in a replay buffer. Credits arrive as
//! view-stamped [`CreditMsg`] envelopes instead of the unreplicated
//! bare `u64`, so their applicability never depends on cross-tag
//! ordering between the credit tag and the takeover tag.
//! On a replicated channel a credit is only issued after the covering
//! checkpoint reached quorum (`crate::consumer`), so an acknowledged
//! element is durable and leaves the buffer; everything else is resent
//! to the successor when a [`TakeoverMsg::Announce`] names a new view.
//! The announce carries the committed element cursor, which the producer
//! uses to absorb credits that died with the old primary — the replayed
//! suffix starts exactly at the cursor, so the surviving state folds
//! every element exactly once.

use std::collections::VecDeque;

use mpistream::transport::{SimDuration, Src, Transport};
use mpistream::wire::{Wire, WireError, WireOut};
use mpistream::{Role, StreamChannel, StreamMsg};

/// Messages from the replica group's primary to the producers, on the
/// channel's takeover tag.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TakeoverMsg {
    /// A new primary took over in `view`; `cursors` are the committed
    /// element cursors per producer world rank. Sent to producers whose
    /// flow is not yet complete: trim the replay buffer to your cursor
    /// and resend the rest to the primary of `view`.
    Announce {
        /// The new view.
        view: u64,
        /// `(producer world rank, committed element cursor)` pairs.
        cursors: Vec<(u64, u64)>,
    },
    /// The producer's `Term` claim is inside a committed checkpoint: its
    /// flow is durably complete and it may retire its replay buffer.
    TermAck {
        /// The acknowledging primary's view.
        view: u64,
    },
}

/// A credit acknowledgement on a *replicated* channel's credit tag:
/// the plain `u64` of unreplicated channels, wrapped in the issuing
/// primary's view. Credits double as durability acknowledgements here,
/// and the transport only orders messages per `(source, tag)` pair —
/// so a bare credit racing a takeover announce is ambiguous about
/// which reign issued it. The view stamp makes applicability local:
/// a producer applies a credit iff it matches its current view *and*
/// arrived from that view's primary, and drops everything else.
/// Dropping is safe in both directions: a stale credit's elements are
/// covered by the cursor a later announce carries, and a future-view
/// credit cannot arrive before its announce (the successor's
/// quarantine discards all pre-announce data, so post-takeover credit
/// is only ever generated from batches this producer sent *after*
/// processing the announce).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CreditMsg {
    /// The view of the primary that issued the credit.
    pub view: u64,
    /// Elements acknowledged as durably committed.
    pub acked: u64,
}

mpistream::wire_struct!(CreditMsg { view, acked });

impl Wire for TakeoverMsg {
    fn encode<O: WireOut>(&self, out: &mut O) {
        match self {
            TakeoverMsg::Announce { view, cursors } => {
                out.put(&[0]);
                view.encode(out);
                cursors.encode(out);
            }
            TakeoverMsg::TermAck { view } => {
                out.put(&[1]);
                view.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(input)? {
            0 => Ok(TakeoverMsg::Announce {
                view: u64::decode(input)?,
                cursors: Vec::decode(input)?,
            }),
            1 => Ok(TakeoverMsg::TermAck { view: u64::decode(input)? }),
            got => Err(WireError::BadDiscriminant { got }),
        }
    }
}

/// What [`ReplicatedProducer::finish`] reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProducerFinish {
    /// Distinct elements this producer injected into the stream.
    pub sent: u64,
    /// Elements re-sent to a successor primary after a takeover (already
    /// counted once in `sent`).
    pub resent: u64,
    /// Takeover announcements this producer acted on.
    pub takeovers: u64,
    /// The view in which the flow completed.
    pub view: u64,
}

/// Producer endpoint of a replicated channel. See the [module
/// docs](self).
pub struct ReplicatedProducer<T> {
    channel: StreamChannel,
    group: Vec<usize>,
    view: u64,
    agg: Vec<T>,
    /// Elements sent but not yet durably acknowledged, oldest first:
    /// `base + retx.len() == sent`.
    retx: VecDeque<T>,
    /// Elements known durable (committed at the replica group).
    base: u64,
    /// Elements handed to the wire.
    sent: u64,
    resent: u64,
    takeovers: u64,
    term_sent: bool,
}

impl<T: Wire + Clone + Send + 'static> ReplicatedProducer<T> {
    /// Wrap a producer endpoint of a replicated `channel`.
    pub fn new(channel: StreamChannel) -> ReplicatedProducer<T> {
        assert_eq!(channel.role(), Role::Producer, "ReplicatedProducer on a non-producer rank");
        let group = channel
            .replica_group()
            .expect("ReplicatedProducer on an unreplicated channel (use Stream::isend)")
            .to_vec();
        ReplicatedProducer {
            channel,
            group,
            view: 0,
            agg: Vec::new(),
            retx: VecDeque::new(),
            base: 0,
            sent: 0,
            resent: 0,
            takeovers: 0,
            term_sent: false,
        }
    }

    /// World rank of the primary of the current view.
    pub fn primary(&self) -> usize {
        self.group[(self.view % self.group.len() as u64) as usize]
    }

    /// The current view as this producer knows it.
    pub fn view(&self) -> u64 {
        self.view
    }

    /// How long to block per wait tick: a quarter of the group's
    /// failover patience, so takeover announcements are polled well
    /// within any failover.
    fn tick(&self) -> SimDuration {
        let patience = self
            .channel
            .config()
            .effective_replication_patience()
            .expect("replicated config validated at channel creation");
        SimDuration((patience.0 / 4).max(1))
    }

    /// Inject one element (the replicated analogue of `Stream::isend`).
    /// Blocks only when the credit window is exhausted — and then keeps
    /// watching for takeover announcements, so a primary death cannot
    /// strand it.
    pub fn push<TP: Transport>(&mut self, rank: &mut TP, elem: T) {
        assert!(!self.term_sent, "push after finish");
        self.agg.push(elem);
        if self.agg.len() >= self.channel.config().aggregation {
            self.flush(rank);
        }
    }

    /// Flush the partially filled aggregation buffer.
    pub fn flush<TP: Transport>(&mut self, rank: &mut TP) {
        if self.agg.is_empty() {
            return;
        }
        let batch = std::mem::take(&mut self.agg);
        self.send_batch(rank, batch);
    }

    fn send_batch<TP: Transport>(&mut self, rank: &mut TP, batch: Vec<T>) {
        let n = batch.len() as u64;
        if let Some(window) = self.channel.config().credits {
            while self.retx.len() as u64 + n > window as u64 {
                self.pump(rank);
            }
        }
        let bytes = n * self.channel.config().element_bytes;
        self.retx.extend(batch.iter().cloned());
        self.sent += n;
        rank.send(self.primary(), self.channel.data_tag(), bytes, StreamMsg::Data(batch));
    }

    /// One bounded wait for progress: drain credits and takeover
    /// traffic, blocking up to a tick on the credit tag.
    fn pump<TP: Transport>(&mut self, rank: &mut TP) {
        self.drain_takeover(rank);
        self.drain_credits(rank);
        let deadline = rank.now() + self.tick();
        if let Some((credit, info)) =
            rank.recv_deadline::<CreditMsg>(Src::Any, self.channel.credit_tag(), deadline)
        {
            self.absorb_credit(credit, info.src);
        }
    }

    /// Retire `credit.acked` elements iff the credit is stamped with
    /// this producer's current view and arrived from that view's
    /// primary. Anything else is dropped: a stale credit's elements are
    /// below the committed cursor the successor's announce carries, and
    /// a future-view credit cannot exist before its announce (see
    /// [`CreditMsg`]) — so there is nothing to buffer.
    fn absorb_credit(&mut self, credit: CreditMsg, src: usize) {
        if credit.view != self.view || src != self.primary() {
            return;
        }
        let take = credit.acked.min(self.retx.len() as u64);
        self.base += take;
        self.retx.drain(..take as usize);
    }

    fn drain_credits<TP: Transport>(&mut self, rank: &mut TP) {
        while let Some((credit, info)) =
            rank.try_recv::<CreditMsg>(Src::Any, self.channel.credit_tag())
        {
            self.absorb_credit(credit, info.src);
        }
    }

    /// Act on queued takeover traffic; returns `true` if a `TermAck`
    /// certified this producer's completed flow.
    fn drain_takeover<TP: Transport>(&mut self, rank: &mut TP) -> bool {
        let mut acked = false;
        while let Some((msg, _)) =
            rank.try_recv::<TakeoverMsg>(Src::Any, self.channel.takeover_tag())
        {
            acked |= self.on_takeover(rank, msg);
        }
        acked
    }

    fn on_takeover<TP: Transport>(&mut self, rank: &mut TP, msg: TakeoverMsg) -> bool {
        match msg {
            TakeoverMsg::TermAck { view } => {
                if view >= self.view {
                    self.view = view;
                    return true;
                }
                false
            }
            TakeoverMsg::Announce { view, cursors } => {
                if view <= self.view {
                    return false; // stale announce from an already-deposed view
                }
                self.view = view;
                self.takeovers += 1;
                let me = rank.world_rank() as u64;
                let cursor = cursors.iter().find(|&&(r, _)| r == me).map(|&(_, c)| c).unwrap_or(0);
                // Absorb credits that died with the old primary: every
                // element below the committed cursor is durable.
                if cursor > self.base {
                    let trim = (cursor - self.base).min(self.retx.len() as u64);
                    self.retx.drain(..trim as usize);
                    self.base = cursor;
                }
                // Open the new reign's flow with an epoch marker: the
                // successor quarantines our data tag at takeover, and
                // everything we sent before processing this announce —
                // batches addressed to an earlier reign of that very
                // rank — must stay behind the cut. Per-`(src, tag)`
                // FIFO puts the marker strictly after all of it.
                let aggregation = self.channel.config().aggregation;
                let element_bytes = self.channel.config().element_bytes;
                let primary = self.primary();
                let tag = self.channel.data_tag();
                rank.send(primary, tag, 16, StreamMsg::<T>::Mark(view));
                // Replay the uncommitted suffix to the successor — the
                // first resent element lands exactly on its cursor.
                let elems: Vec<T> = self.retx.iter().cloned().collect();
                for chunk in elems.chunks(aggregation.max(1)) {
                    let n = chunk.len() as u64;
                    self.resent += n;
                    rank.send(primary, tag, n * element_bytes, StreamMsg::Data(chunk.to_vec()));
                }
                if self.term_sent {
                    // Our Term never committed at the old primary (the
                    // successor would have TermAck'd instead): restate it.
                    rank.send(primary, tag, 16, StreamMsg::<T>::Term { sent: self.sent });
                }
                false
            }
        }
    }

    /// Close the flow: flush, send the `Term` claim, and wait until a
    /// primary certifies the claim is inside a committed checkpoint
    /// (re-claiming to successors across any takeovers). After this
    /// returns, every element this producer injected is durable at the
    /// replica group.
    pub fn finish<TP: Transport>(&mut self, rank: &mut TP) -> ProducerFinish {
        self.flush(rank);
        let tag = self.channel.data_tag();
        rank.send(self.primary(), tag, 16, StreamMsg::<T>::Term { sent: self.sent });
        self.term_sent = true;
        let mut acked = self.drain_takeover(rank);
        while !acked {
            self.drain_credits(rank);
            let deadline = rank.now() + self.tick();
            if let Some((msg, _)) =
                rank.recv_deadline::<TakeoverMsg>(Src::Any, self.channel.takeover_tag(), deadline)
            {
                acked = self.on_takeover(rank, msg);
            }
        }
        // Late credits (the ack certifies everything anyway).
        self.drain_credits(rank);
        ProducerFinish {
            sent: self.sent,
            resent: self.resent,
            takeovers: self.takeovers,
            view: self.view,
        }
    }
}
