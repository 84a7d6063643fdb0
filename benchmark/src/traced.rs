//! Spans around the calls into each layer, recorded from the benchmark's
//! own side of the `Transport` line.
//!
//! [`Traced`] is a pass-through [`Transport`] in the style of
//! `streamprof::Profiled`: every potentially costly call becomes a span
//! named after the call and the kind of tag it carried ([`Tag::kind`]),
//! nested under whatever benchmark-side span ([`Instrument::begin`]) is
//! open — `stream.isend`, `stream.operate`, `fold`, ... A layer's *self
//! time* is its span minus the part its children cover ([`fold_spans`]),
//! which is how `core`'s own cost per element is separated from the
//! backend's `send`/`recv` beneath it and the operator closure inside it.
//!
//! Spans live in memory. After every slice they are folded into per-name
//! totals and dropped, except the first timed slice's, which are kept
//! (up to [`KEEP_SPANS`]) for the Chrome trace the driver writes through
//! `streamprof`'s exporter.
//!
//! One liberty is taken with the call sequence: a blocking `recv` is
//! issued as `try_recv` first and `recv` only on a miss. That is the one
//! way to tell from outside whether a receive found its message waiting
//! (`recv.hit.*`: pure take + decode cost) or had to park
//! (`recv.wait.*`: time the rank was starved).

use std::collections::BTreeMap;

use desim::SimTime;
use mpistream::{MsgInfo, Src, Tag, TagKind, Transport, Wire};

use crate::host::mono_ns;

/// Spans of the first timed slice kept per rank for the Chrome trace.
pub const KEEP_SPANS: usize = 20_000;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// The slice number of everything after the last timed slice (stream
/// termination, shutdown); like slice 0 it is kept out of the totals.
pub const END_SLICE: u32 = u32::MAX;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index (in the same slice's span list) of the enclosing span.
    pub parent: u32,
}

/// Per-name totals over the timed slices.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    /// `total_ns` minus the time covered by child spans.
    pub self_ns: u64,
}

impl Agg {
    /// Mean span duration, ns (0 when nothing was recorded).
    pub fn mean_ns(self) -> f64 {
        self.total_ns as f64 / self.count.max(1) as f64
    }
}

pub type Totals = BTreeMap<&'static str, Agg>;

/// Add `spans` (one slice's list, parents by index) to `totals`.
pub fn fold_spans(spans: &[Span], totals: &mut Totals) {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.end - s.start;
        }
    }
    for (s, &children) in spans.iter().zip(&child_ns) {
        let dur = s.end - s.start;
        let agg = totals.entry(s.name).or_default();
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(children);
    }
}

/// What a workload body needs beyond [`Transport`] to mark its own spans
/// and slice boundaries. The plain backends implement it with no-ops, so
/// untraced runs compile to exactly the uninstrumented program.
pub trait Instrument: Transport {
    /// Open a benchmark-side span, nested under the currently open one.
    fn begin(&mut self, _name: &'static str) {}
    /// Close the innermost open span.
    fn end(&mut self) {}
    /// Everything recorded from here on belongs to `slice`; the finished
    /// slice's spans are folded into the totals.
    fn start_slice(&mut self, _slice: u32) {}
}

impl Instrument for native::NativeRank {}
impl Instrument for socket::SocketRank {}
impl<T: Transport> Instrument for streamprof::Profiled<'_, T> {
    /// Profile the timed slices only.
    fn start_slice(&mut self, slice: u32) {
        self.sink().set_enabled(slice != 0 && slice != END_SLICE);
    }
}

/// The in-memory span store of one rank. Spans belong to the slice that
/// is current when they are recorded; slice 0 is set-up and warm-up.
#[derive(Default)]
pub struct Recorder {
    spans: Vec<Span>,
    open: Vec<u32>,
    slice: u32,
    totals: Totals,
    kept: Vec<Span>,
}

impl Recorder {
    fn begin(&mut self, name: &'static str) {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span { name, start: mono_ns(), end: 0, parent });
    }

    fn end(&mut self) {
        let i = self.open.pop().expect("end() without an open span");
        self.spans[i as usize].end = mono_ns();
    }

    fn start_slice(&mut self, slice: u32) {
        assert!(self.open.is_empty(), "slice boundary inside an open span");
        // Only timed slices count: not set-up and warm-up, not shutdown.
        if self.slice != 0 && self.slice != END_SLICE {
            fold_spans(&self.spans, &mut self.totals);
            if self.slice == 1 {
                self.kept = self.spans.iter().take(KEEP_SPANS).cloned().collect();
            }
        }
        self.spans.clear();
        self.slice = slice;
    }
}

/// Pass-through [`Transport`] that records a span around every call.
pub struct Traced<'a, T: Transport> {
    inner: &'a mut T,
    rec: Recorder,
}

/// The part of a span name that says what kind of tag the call carried.
fn kind(tag: Tag) -> usize {
    match tag.kind() {
        TagKind::StreamData { .. } => 0,
        TagKind::StreamCredit { .. } => 1,
        _ => 2,
    }
}

const SEND: [&str; 3] = ["send.data", "send.credit", "send.other"];
const RECV_HIT: [&str; 3] = ["recv.hit.data", "recv.hit.credit", "recv.hit.other"];
const RECV_WAIT: [&str; 3] = ["recv.wait.data", "recv.wait.credit", "recv.wait.other"];
const RECV_MISS: [&str; 3] = ["recv.miss.data", "recv.miss.credit", "recv.miss.other"];

impl<'a, T: Transport> Traced<'a, T> {
    pub fn new(inner: &'a mut T) -> Self {
        Traced { inner, rec: Recorder::default() }
    }

    /// Finish recording: per-name totals over the timed slices, and the
    /// first timed slice's spans for the Chrome trace.
    pub fn finish(mut self) -> (Totals, Vec<Span>) {
        self.rec.start_slice(END_SLICE);
        (self.rec.totals, self.rec.kept)
    }

    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut T) -> R) -> R {
        self.rec.begin(name);
        let r = f(self.inner);
        self.rec.end();
        r
    }

    /// A non-blocking receive attempt: named a hit or a miss once known.
    fn attempt<R>(&mut self, tag: Tag, f: impl FnOnce(&mut T) -> Option<R>) -> Option<R> {
        self.rec.begin(RECV_MISS[kind(tag)]);
        let r = f(self.inner);
        if r.is_some() {
            self.rec.spans.last_mut().expect("span just opened").name = RECV_HIT[kind(tag)];
        }
        self.rec.end();
        r
    }
}

impl<T: Transport> Instrument for Traced<'_, T> {
    fn begin(&mut self, name: &'static str) {
        self.rec.begin(name);
    }

    fn end(&mut self) {
        self.rec.end();
    }

    fn start_slice(&mut self, slice: u32) {
        self.rec.start_slice(slice);
    }
}

impl<T: Transport> Transport for Traced<'_, T> {
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
        self.span(SEND[kind(tag)], |t| t.send(dst, tag, bytes, value));
    }

    fn recv<V: Wire + Send + 'static>(&mut self, src: Src, tag: Tag) -> (V, MsgInfo) {
        match self.attempt(tag, |t| t.try_recv(src, tag)) {
            Some(got) => got,
            None => self.span(RECV_WAIT[kind(tag)], |t| t.recv(src, tag)),
        }
    }

    fn try_recv<V: Wire + Send + 'static>(&mut self, src: Src, tag: Tag) -> Option<(V, MsgInfo)> {
        self.attempt(tag, |t| t.try_recv(src, tag))
    }

    fn recv_deadline<V: Wire + Send + 'static>(
        &mut self,
        src: Src,
        tag: Tag,
        deadline: SimTime,
    ) -> Option<(V, MsgInfo)> {
        match self.attempt(tag, |t| t.try_recv(src, tag)) {
            Some(got) => Some(got),
            None => self.span(RECV_WAIT[kind(tag)], |t| t.recv_deadline(src, tag, deadline)),
        }
    }

    fn probe(&mut self, src: Src, tag: Tag) -> Option<MsgInfo> {
        self.inner.probe(src, tag)
    }

    fn wait_for_mail(&mut self) {
        self.span("wait_for_mail", |t| t.wait_for_mail());
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
}

/// Every span name this module or a workload body records. Spans cross
/// process boundaries as text; [`intern`] maps them back.
const NAMES: &[&str] = &[
    // The slice loop's own timeline entries.
    "slice",
    "cal",
    "channel.create",
    "stream.isend",
    "stream.operate",
    "stream.terminate",
    "fold",
    "compute",
    "wait_for_mail",
    "coll",
    SEND[0],
    SEND[1],
    SEND[2],
    RECV_HIT[0],
    RECV_HIT[1],
    RECV_HIT[2],
    RECV_WAIT[0],
    RECV_WAIT[1],
    RECV_WAIT[2],
    RECV_MISS[0],
    RECV_MISS[1],
    RECV_MISS[2],
];

/// The `'static` span name equal to `name`, if it is one of ours.
pub fn intern(name: &str) -> Option<&'static str> {
    NAMES.iter().find(|n| **n == name).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span { name, start, end, parent }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        // operate [0,100) ─ recv [10,30) ─ fold [30,50) ─ send [35,45) (in fold)
        //                 └ recv [60,70)
        let spans = vec![
            span("stream.operate", 0, 100, NO_PARENT),
            span("recv.hit.data", 10, 30, 0),
            span("fold", 30, 50, 0),
            span("send.credit", 35, 45, 2),
            span("recv.hit.data", 60, 70, 0),
        ];
        let mut totals = Totals::new();
        fold_spans(&spans, &mut totals);
        // operate: 100 - (20 + 20 + 10) = 50; the grandchild is fold's.
        assert_eq!(totals["stream.operate"], Agg { count: 1, total_ns: 100, self_ns: 50 });
        assert_eq!(totals["fold"], Agg { count: 1, total_ns: 20, self_ns: 10 });
        assert_eq!(totals["recv.hit.data"], Agg { count: 2, total_ns: 30, self_ns: 30 });
        assert_eq!(totals["send.credit"], Agg { count: 1, total_ns: 10, self_ns: 10 });
        // Folding a second slice accumulates.
        fold_spans(&spans, &mut totals);
        assert_eq!(totals["stream.operate"].self_ns, 100);
    }

    #[test]
    fn recorder_nests_and_drops_the_warm_up() {
        let mut rec = Recorder::default();
        rec.begin("stream.isend"); // slice 0: not counted
        rec.end();
        rec.start_slice(1);
        rec.begin("stream.isend");
        rec.begin("send.data");
        rec.end();
        rec.end();
        assert_eq!(rec.spans[1].parent, 0);
        assert_eq!(rec.spans[0].parent, NO_PARENT);
        rec.start_slice(2);
        assert_eq!(rec.totals["stream.isend"].count, 1);
        assert_eq!(rec.totals["send.data"].count, 1);
        assert_eq!(rec.kept.len(), 2);
        assert!(rec.totals["stream.isend"].self_ns <= rec.totals["stream.isend"].total_ns);
    }

    #[test]
    fn traced_passes_through_and_names_calls_by_tag_kind() {
        let counts = std::sync::Mutex::new(Vec::new());
        native::NativeWorld::new(2).run(|rank| {
            let me = rank.world_rank();
            let mut t = Traced::new(rank);
            t.start_slice(1);
            let tag = Tag::user(9);
            if me == 0 {
                for i in 0..3u64 {
                    t.send(1, tag, 8, i);
                }
            } else {
                for i in 0..3u64 {
                    assert_eq!(t.recv::<u64>(Src::Rank(0), tag).0, i);
                }
                assert!(t.try_recv::<u64>(Src::Any, tag).is_none());
            }
            let (totals, kept) = t.finish();
            counts.lock().unwrap().push((me, totals, kept.len()));
        });
        let mut counts = counts.into_inner().unwrap();
        counts.sort_by_key(|c| c.0);
        let (sender, receiver) = (&counts[0].1, &counts[1].1);
        assert_eq!(sender["send.other"].count, 3);
        // Each receive found its message waiting or parked for it; parking
        // is a miss followed by a wait. The final poll is one more miss.
        let count = |name: &str| receiver.get(name).map_or(0, |a| a.count);
        let (hits, waits, misses) =
            (count("recv.hit.other"), count("recv.wait.other"), count("recv.miss.other"));
        assert_eq!(hits + waits, 3);
        assert_eq!(misses, waits + 1);
        assert_eq!(counts[0].2, 3);
    }

    #[test]
    fn every_recorded_name_interns() {
        for n in SEND.iter().chain(&RECV_HIT).chain(&RECV_WAIT).chain(&RECV_MISS) {
            assert_eq!(intern(n), Some(*n));
        }
        assert_eq!(intern("fold"), Some("fold"));
        assert_eq!(intern("no.such.span"), None);
    }
}
