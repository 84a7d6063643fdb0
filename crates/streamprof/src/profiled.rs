//! A transparent [`Transport`] wrapper that times every call.

use desim::SimTime;
use mpistream::transport::{MsgInfo, Src, Tag, TagKind, Transport};
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
/// The `prof_*` hooks the stream runtime invokes on every transport are
/// intercepted here: named application spans (`prof_begin`/`prof_end`)
/// land on the timeline, stream counters land in
/// [`crate::StreamMetrics`].
pub struct Profiled<'a, T: Transport> {
    inner: &'a mut T,
    sink: ProfSink,
    pid: usize,
    /// Open application spans (`prof_begin` without a `prof_end` yet).
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

    // Sanitizer hooks pass straight through, so a profiled sim rank keeps
    // its happens-before checking.
    fn check_register_channel(&mut self, id: u16, window: Option<u64>, credit_tag: Tag) {
        self.inner.check_register_channel(id, window, credit_tag);
    }

    fn check_data_sent(&mut self, id: u16, consumer: usize, elems: u64) {
        self.inner.check_data_sent(id, consumer, elems);
    }

    fn check_credit_issued(&mut self, id: u16, producer: usize, elems: u64) {
        self.inner.check_credit_issued(id, producer, elems);
    }

    fn prof_begin(&mut self, cat: &'static str) {
        self.open.push((cat, self.inner.now()));
    }

    fn prof_end(&mut self, cat: &'static str) {
        let i = self
            .open
            .iter()
            .rposition(|&(c, _)| c == cat)
            .unwrap_or_else(|| panic!("prof_end({cat:?}) without a matching prof_begin"));
        let (_, start) = self.open.remove(i);
        let end = self.inner.now();
        self.sink.record_span(self.pid, cat, start, end);
    }

    fn prof_stream_send(&mut self, channel: u16, elems: u64, bytes: u64) {
        self.sink.stream_send(self.pid, channel, elems, bytes);
    }

    fn prof_stream_recv(&mut self, channel: u16, elems: u64, bytes: u64) {
        self.sink.stream_recv(self.pid, channel, elems, bytes);
    }

    fn prof_credit_occupancy(&mut self, channel: u16, outstanding: u64, window: u64) {
        self.sink.credit_sample(self.pid, channel, outstanding, window);
    }

    fn prof_repl_commit(&mut self, channel: u16, bytes: u64, latency_ns: u64) {
        self.sink.repl_commit(self.pid, channel, bytes, latency_ns);
    }
}
