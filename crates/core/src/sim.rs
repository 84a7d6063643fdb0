//! `SimTransport`: the [`Transport`] implementation over the
//! discrete-event simulator.
//!
//! `mpisim::Rank` *is* the simulator backend — the impl here is a direct
//! forwarding shim, so a stream program generic over [`Transport`]
//! executes the exact same simulator calls, in the exact same order, as
//! one written against `Rank` directly. That is the property the fig
//! harnesses, the chaos suite and the perf-regression baselines rely on:
//! going through the abstraction is byte-identical to not having it.
//!
//! `Rank`'s point-to-point calls already carry the trait's names,
//! arguments and message types ([`Tag`], [`Src`], [`MsgInfo`] are
//! `mpisim`'s own), so every method is one call; [`Transport::send`] is
//! [`mpisim::Rank::send`]: `isend` + `wait_send`, waiting for injection,
//! never for delivery.

use mpisim::Rank;

use crate::transport::{Group, MsgInfo, SimTime, Src, Tag, Transport};
use crate::wire::Wire;

/// The simulator backend, by its transport name. Stream programs written
/// against `Transport` take a `&mut SimTransport` to run simulated.
pub type SimTransport<'c> = Rank<'c>;

impl Group for mpisim::Comm {
    fn ranks(&self) -> &[usize] {
        mpisim::Comm::ranks(self)
    }

    fn rank_of(&self, w: usize) -> Option<usize> {
        mpisim::Comm::rank_of(self, w)
    }

    fn meta(ranks: Vec<usize>) -> Self {
        // Id outside the registered range; never used to address
        // collectives (see the `Group` contract).
        mpisim::Comm::new(u16::MAX, ranks)
    }
}

impl<'c> Transport for Rank<'c> {
    type Group = mpisim::Comm;

    fn world_rank(&self) -> usize {
        Rank::world_rank(self)
    }

    fn world_size(&self) -> usize {
        Rank::world_size(self)
    }

    fn world_group(&self) -> mpisim::Comm {
        Rank::comm_world(self)
    }

    fn now(&self) -> SimTime {
        Rank::now(self)
    }

    fn compute(&mut self, secs: f64) {
        Rank::compute(self, secs);
    }

    fn send<T: Wire + Send + 'static>(&mut self, dst: usize, tag: Tag, bytes: u64, value: T) {
        Rank::send(self, dst, tag, bytes, value);
    }

    fn recv<T: Wire + Send + 'static>(&mut self, src: Src, tag: Tag) -> (T, MsgInfo) {
        Rank::recv(self, src, tag)
    }

    fn try_recv<T: Wire + Send + 'static>(&mut self, src: Src, tag: Tag) -> Option<(T, MsgInfo)> {
        Rank::try_recv(self, src, tag)
    }

    fn recv_deadline<T: Wire + Send + 'static>(
        &mut self,
        src: Src,
        tag: Tag,
        deadline: SimTime,
    ) -> Option<(T, MsgInfo)> {
        Rank::recv_deadline(self, src, tag, deadline)
    }

    fn probe(&mut self, src: Src, tag: Tag) -> Option<MsgInfo> {
        Rank::probe(self, src, tag)
    }

    fn wait_for_mail(&mut self) {
        Rank::wait_for_mail(self);
    }

    fn barrier(&mut self, group: &mpisim::Comm) {
        Rank::barrier(self, group);
    }

    fn allreduce<T: Wire + Clone + Send + 'static>(
        &mut self,
        group: &mpisim::Comm,
        bytes: u64,
        value: T,
        op: impl Fn(&mut T, &T),
    ) -> T {
        Rank::allreduce(self, group, bytes, value, op)
    }

    fn allgatherv<T: Wire + Clone + Send + 'static>(
        &mut self,
        group: &mpisim::Comm,
        bytes: u64,
        value: T,
    ) -> Vec<T> {
        Rank::allgatherv(self, group, bytes, value)
    }

    fn bcast<T: Wire + Clone + Send + 'static>(
        &mut self,
        group: &mpisim::Comm,
        root: usize,
        bytes: u64,
        value: Option<T>,
    ) -> T {
        Rank::bcast(self, group, root, bytes, value)
    }

    fn split(
        &mut self,
        group: &mpisim::Comm,
        color: Option<i64>,
        key: i64,
    ) -> Option<mpisim::Comm> {
        Rank::split(self, group, color, key)
    }

    fn alloc_channel_id(&mut self) -> u16 {
        Rank::alloc_channel_id(self)
    }

    /// Spans go to the simulator's trace (recorded in a traced world, and
    /// noted for deadlock reports in any), the sanitizer events to its
    /// checker; the counters are for a wrapper such as
    /// `streamprof::Profiled`.
    fn observe(&mut self, ev: crate::transport::Event) {
        use crate::transport::Event;
        match ev {
            Event::Begin(tag) => self.ctx().trace_begin(tag),
            Event::End(tag) => self.ctx().trace_end(tag),
            Event::RegisterChannel { id, window, credit_tag } => {
                self.check_register_channel(id, window, credit_tag)
            }
            Event::DataSent { id, consumer, elems } => self.check_data_sent(id, consumer, elems),
            Event::CreditIssued { id, producer, elems } => {
                self.check_credit_issued(id, producer, elems)
            }
            _ => {}
        }
    }
}
