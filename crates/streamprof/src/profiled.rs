//! A transparent [`Transport`] wrapper that times every call.

use desim::SimTime;
use mpistream::transport::{Event, MsgInfo, Src, Tag, TagKind, Transport};
use mpistream::Wire;

use crate::sink::ProfSink;

/// Wraps any [`Transport`] and records a span around every potentially
/// time-consuming call, on the *inner backend's own clock* — virtual
/// nanoseconds in the simulator (where the extra `now()` reads are pure
/// and perturb nothing), monotonic wall nanoseconds natively.
///
/// Span categories: `"compute"`, `"send"`, `"coll"` (every collective),
/// `"wait-mail"`, and — for blocking receives, classified from the wire
/// tag alone ([`Tag::kind`]) — `"wait-data"` (starved consumer),
/// `"wait-credit"` (back-pressured producer), or `"recv"` (anything
/// else). Non-blocking calls (`try_recv`, `probe`) are never spanned.
/// The [`Event`]s the stream runtime reports through
/// [`Transport::observe`] are recorded here too: named application spans
/// ([`Event::Begin`]/[`Event::End`]) land on the timeline, stream
/// counters in [`crate::StreamMetrics`].
pub struct Profiled<'a, T: Transport> {
    inner: &'a mut T,
    sink: ProfSink,
    pid: usize,
    /// Open application spans (begun, not yet ended).
    open: Vec<(&'static str, SimTime)>,
}

impl<'a, T: Transport> Profiled<'a, T> {
    pub fn new(inner: &'a mut T, sink: ProfSink) -> Self {
        let pid = inner.world_rank();
        Profiled { inner, sink, pid, open: Vec::new() }
    }

    /// The sink this wrapper records into.
    pub fn sink(&self) -> &ProfSink {
        &self.sink
    }

    /// Escape hatch to the wrapped backend (calls made through it are
    /// not profiled).
    pub fn inner(&mut self) -> &mut T {
        self.inner
    }

    fn span<R>(&mut self, cat: &'static str, f: impl FnOnce(&mut T) -> R) -> R {
        let start = self.inner.now();
        let r = f(self.inner);
        let end = self.inner.now();
        self.sink.record_span(self.pid, cat, start, end);
        r
    }
}

/// Category of a blocking receive, from the tag alone.
fn recv_cat(tag: Tag) -> &'static str {
    match tag.kind() {
        TagKind::StreamData { .. } => "wait-data",
        TagKind::StreamCredit { .. } => "wait-credit",
        _ => "recv",
    }
}

impl<'a, T: Transport> Transport for Profiled<'a, T> {
    type Group = T::Group;

    fn world_rank(&self) -> usize {
        self.inner.world_rank()
    }

    fn world_size(&self) -> usize {
        self.inner.world_size()
    }

    fn world_group(&self) -> Self::Group {
        self.inner.world_group()
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn compute(&mut self, secs: f64) {
        self.span("compute", |t| t.compute(secs));
    }

    fn send<V: Wire + Send + 'static>(&mut self, dst: usize, tag: Tag, bytes: u64, value: V) {
        self.span("send", |t| t.send(dst, tag, bytes, value));
    }

    fn recv<V: Wire + Send + 'static>(&mut self, src: Src, tag: Tag) -> (V, MsgInfo) {
        self.span(recv_cat(tag), |t| t.recv(src, tag))
    }

    fn try_recv<V: Wire + Send + 'static>(&mut self, src: Src, tag: Tag) -> Option<(V, MsgInfo)> {
        self.inner.try_recv(src, tag)
    }

    fn recv_deadline<V: Wire + Send + 'static>(
        &mut self,
        src: Src,
        tag: Tag,
        deadline: SimTime,
    ) -> Option<(V, MsgInfo)> {
        self.span(recv_cat(tag), |t| t.recv_deadline(src, tag, deadline))
    }

    fn probe(&mut self, src: Src, tag: Tag) -> Option<MsgInfo> {
        self.inner.probe(src, tag)
    }

    fn wait_for_mail(&mut self) {
        self.span("wait-mail", |t| t.wait_for_mail());
    }

    fn barrier(&mut self, group: &Self::Group) {
        self.span("coll", |t| t.barrier(group));
    }

    fn allreduce<V: Wire + Clone + Send + 'static>(
        &mut self,
        group: &Self::Group,
        bytes: u64,
        value: V,
        op: impl Fn(&mut V, &V),
    ) -> V {
        self.span("coll", |t| t.allreduce(group, bytes, value, op))
    }

    fn allgatherv<V: Wire + Clone + Send + 'static>(
        &mut self,
        group: &Self::Group,
        bytes: u64,
        value: V,
    ) -> Vec<V> {
        self.span("coll", |t| t.allgatherv(group, bytes, value))
    }

    fn bcast<V: Wire + Clone + Send + 'static>(
        &mut self,
        group: &Self::Group,
        root: usize,
        bytes: u64,
        value: Option<V>,
    ) -> V {
        self.span("coll", |t| t.bcast(group, root, bytes, value))
    }

    fn split(&mut self, group: &Self::Group, color: Option<i64>, key: i64) -> Option<Self::Group> {
        self.span("coll", |t| t.split(group, color, key))
    }

    fn alloc_channel_id(&mut self) -> u16 {
        self.inner.alloc_channel_id()
    }

    /// Records the profiling events, then forwards every event: a
    /// profiled sim rank keeps its happens-before checking.
    fn observe(&mut self, ev: Event) {
        let pid = self.pid;
        match ev {
            Event::Begin(cat) => self.open.push((cat, self.inner.now())),
            Event::End(cat) => {
                let i = self
                    .open
                    .iter()
                    .rposition(|&(c, _)| c == cat)
                    .unwrap_or_else(|| panic!("span {cat:?} ended without a matching begin"));
                let (_, start) = self.open.remove(i);
                self.sink.record_span(pid, cat, start, self.inner.now());
            }
            Event::StreamSend { channel, elems, bytes } => {
                self.sink.stream_send(pid, channel, elems, bytes)
            }
            Event::StreamRecv { channel, elems, bytes } => {
                self.sink.stream_recv(pid, channel, elems, bytes)
            }
            Event::CreditOccupancy { channel, outstanding, window } => {
                self.sink.credit_sample(pid, channel, outstanding, window)
            }
            Event::ReplCommit { channel, bytes, latency_ns } => {
                self.sink.repl_commit(pid, channel, bytes, latency_ns)
            }
            // The sanitizer's events are only forwarded.
            _ => {}
        }
        self.inner.observe(ev);
    }
}
