//! The span/counter recorder shared by all ranks of one profiled run.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use desim::SimTime;
use parking_lot::Mutex;

use crate::trace::Trace;

/// Which clock the recorded timestamps live on. Nanosecond instants in
/// both cases; the *meaning* belongs to the backend.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Clock {
    /// Deterministic virtual time (the simulator backend).
    Virtual,
    /// Monotonic wall clock since the world's epoch (the native backend).
    Wall,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Virtual => "virtual",
            Clock::Wall => "wall",
        }
    }
}

/// One recorded interval on one rank's timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// World rank the span belongs to.
    pub pid: usize,
    /// Category: `"compute"`, `"send"`, `"wait-data"`, `"wait-credit"`,
    /// `"recv"`, `"wait-mail"`, `"coll"`, or an application name opened
    /// via `Event::Begin`.
    pub cat: &'static str,
    pub start: SimTime,
    pub end: SimTime,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end.since(self.start).as_secs_f64()
    }
}

/// Per-`(rank, channel)` stream counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamMetrics {
    /// Elements / payload bytes / wire batches this rank sent on the
    /// channel.
    pub elems_sent: u64,
    pub bytes_sent: u64,
    pub batches_sent: u64,
    /// Elements / payload bytes / wire batches this rank received.
    pub elems_recv: u64,
    pub bytes_recv: u64,
    pub batches_recv: u64,
    /// Credit-window occupancy, sampled once per credited send: how many
    /// elements were outstanding (un-acknowledged) right after the send,
    /// out of a window of `credit_window`.
    pub credit_samples: u64,
    pub credit_outstanding_sum: u64,
    pub credit_window: u64,
    /// Replication checkpoints this rank committed as a replica-group
    /// primary (see `crates/replica`), the checkpoint bytes shipped, and
    /// the summed prepare→commit latency.
    pub repl_commits: u64,
    pub repl_bytes: u64,
    pub repl_latency_sum_ns: u64,
}

impl StreamMetrics {
    /// Mean credit-window occupancy over all samples, as a fraction of
    /// the window (0 when the channel is uncredited). Near 1.0 means the
    /// producer keeps slamming into the window — the stream is
    /// back-pressure-bound.
    pub fn credit_occupancy(&self) -> f64 {
        if self.credit_samples == 0 || self.credit_window == 0 {
            return 0.0;
        }
        self.credit_outstanding_sum as f64 / self.credit_samples as f64 / self.credit_window as f64
    }

    /// Mean prepare→commit latency per replicated checkpoint, in seconds
    /// (0 when the rank never acted as a replica-group primary). The
    /// replication tax the paper's decoupling does *not* model: what one
    /// durable credit costs over a plain one.
    pub fn repl_commit_latency(&self) -> f64 {
        if self.repl_commits == 0 {
            return 0.0;
        }
        self.repl_latency_sum_ns as f64 / self.repl_commits as f64 / 1e9
    }
}

#[derive(Default)]
struct SinkInner {
    spans: Vec<Span>,
    streams: BTreeMap<(usize, u16), StreamMetrics>,
}

struct SinkShared {
    // Relaxed-atomic gate so a disabled sink never touches the mutex
    // (mirrors `desim::TraceSink`); unlike there, profiling can be
    // toggled mid-run to scope recording to a phase of interest.
    enabled: AtomicBool,
    clock: Clock,
    inner: Mutex<SinkInner>,
}

/// Shared trace recorder: clone one handle per rank (clones record into
/// the same trace), wrap each rank in [`crate::Profiled`], and call
/// [`ProfSink::take`] after the run.
#[derive(Clone)]
pub struct ProfSink {
    shared: Arc<SinkShared>,
}

impl ProfSink {
    pub fn new(clock: Clock) -> Self {
        ProfSink {
            shared: Arc::new(SinkShared {
                enabled: AtomicBool::new(true),
                clock,
                inner: Mutex::new(SinkInner::default()),
            }),
        }
    }

    pub fn clock(&self) -> Clock {
        self.shared.clock
    }

    pub fn enabled(&self) -> bool {
        self.shared.enabled.load(Ordering::Relaxed)
    }

    /// Toggle recording (e.g. profile only a phase of interest). Counters
    /// and spans are both gated.
    pub fn set_enabled(&self, on: bool) {
        self.shared.enabled.store(on, Ordering::Relaxed);
    }

    pub fn record_span(&self, pid: usize, cat: &'static str, start: SimTime, end: SimTime) {
        if self.enabled() {
            self.shared.inner.lock().spans.push(Span { pid, cat, start, end });
        }
    }

    /// Update the counters of `(pid, channel)`, if recording.
    fn count(&self, pid: usize, channel: u16, update: impl FnOnce(&mut StreamMetrics)) {
        if self.enabled() {
            update(self.shared.inner.lock().streams.entry((pid, channel)).or_default());
        }
    }

    pub fn stream_send(&self, pid: usize, channel: u16, elems: u64, bytes: u64) {
        self.count(pid, channel, |m| {
            m.elems_sent += elems;
            m.bytes_sent += bytes;
            m.batches_sent += 1;
        });
    }

    pub fn stream_recv(&self, pid: usize, channel: u16, elems: u64, bytes: u64) {
        self.count(pid, channel, |m| {
            m.elems_recv += elems;
            m.bytes_recv += bytes;
            m.batches_recv += 1;
        });
    }

    pub fn credit_sample(&self, pid: usize, channel: u16, outstanding: u64, window: u64) {
        self.count(pid, channel, |m| {
            m.credit_samples += 1;
            m.credit_outstanding_sum += outstanding;
            m.credit_window = window;
        });
    }

    pub fn repl_commit(&self, pid: usize, channel: u16, bytes: u64, latency_ns: u64) {
        self.count(pid, channel, |m| {
            m.repl_commits += 1;
            m.repl_bytes += bytes;
            m.repl_latency_sum_ns += latency_ns;
        });
    }

    /// Drain the recording into a [`Trace`]. Spans are sorted by
    /// `(pid, start, end, cat)` so the result is deterministic regardless
    /// of the interleaving that produced it.
    pub fn take(&self) -> Trace {
        let mut inner = self.shared.inner.lock();
        let mut spans = std::mem::take(&mut inner.spans);
        let streams = std::mem::take(&mut inner.streams);
        spans.sort_by_key(|s| (s.pid, s.start.as_nanos(), s.end.as_nanos(), s.cat));
        Trace::new(self.shared.clock, spans, streams)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = ProfSink::new(Clock::Virtual);
        sink.set_enabled(false);
        sink.record_span(0, "compute", SimTime(0), SimTime(10));
        sink.stream_send(0, 1, 5, 40);
        assert!(sink.take().is_empty());
        sink.set_enabled(true);
        sink.record_span(0, "compute", SimTime(0), SimTime(10));
        assert_eq!(sink.take().spans().len(), 1);
    }

    #[test]
    fn stream_counters_accumulate_per_rank_and_channel() {
        let sink = ProfSink::new(Clock::Virtual);
        sink.stream_send(0, 3, 10, 80);
        sink.stream_send(0, 3, 6, 48);
        sink.stream_recv(2, 3, 16, 128);
        sink.credit_sample(0, 3, 12, 16);
        sink.credit_sample(0, 3, 4, 16);
        sink.repl_commit(2, 3, 96, 2_000_000_000);
        sink.repl_commit(2, 3, 32, 1_000_000_000);
        let trace = sink.take();
        let p = &trace.streams()[&(0, 3)];
        assert_eq!((p.elems_sent, p.bytes_sent, p.batches_sent), (16, 128, 2));
        assert_eq!(p.credit_samples, 2);
        assert!((p.credit_occupancy() - 0.5).abs() < 1e-12);
        assert_eq!(p.repl_commit_latency(), 0.0);
        let c = &trace.streams()[&(2, 3)];
        assert_eq!((c.elems_recv, c.bytes_recv, c.batches_recv), (16, 128, 1));
        assert_eq!(c.credit_occupancy(), 0.0);
        assert_eq!((c.repl_commits, c.repl_bytes), (2, 128));
        assert!((c.repl_commit_latency() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn take_sorts_spans_deterministically() {
        let sink = ProfSink::new(Clock::Wall);
        sink.record_span(1, "b", SimTime(5), SimTime(9));
        sink.record_span(0, "z", SimTime(7), SimTime(8));
        sink.record_span(1, "a", SimTime(5), SimTime(9));
        let trace = sink.take();
        let order: Vec<(usize, &str)> = trace.spans().iter().map(|s| (s.pid, s.cat)).collect();
        assert_eq!(order, vec![(0, "z"), (1, "a"), (1, "b")]);
        assert_eq!(trace.clock(), Clock::Wall);
    }
}
