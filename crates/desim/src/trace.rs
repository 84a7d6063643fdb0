//! Span tracing in virtual time.
//!
//! Processes record `(pid, tag, start, end)` spans; after the run the
//! collected [`Trace`] holds them in order. `streamprof::Trace::from_desim`
//! adapts it for export (CSV, ASCII Gantt, Chrome trace) — the moral
//! equivalent of the HPCToolkit timelines in Figure 2 of the paper.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::kernel::Pid;
use crate::time::SimTime;

/// One recorded interval on one process's timeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub pid: Pid,
    /// Static category tag, e.g. `"comp"`, `"comm"`, `"io"`, `"idle"`.
    pub tag: &'static str,
    pub start: SimTime,
    pub end: SimTime,
}

#[derive(Default)]
struct TraceShared {
    // `enabled` is fixed at construction (there is no set-enabled API), so
    // a relaxed load is all the disabled fast path ever pays — the span
    // mutex is only touched when tracing is actually on. `trace_begin`/
    // `trace_end` sit on the engine's hot path.
    enabled: AtomicBool,
    spans: Mutex<Vec<Span>>,
}

/// Shared trace recorder. Lock-free no-op unless enabled.
#[derive(Clone, Default)]
pub struct TraceSink {
    inner: Arc<TraceShared>,
}

impl TraceSink {
    pub fn new(enabled: bool) -> Self {
        TraceSink {
            inner: Arc::new(TraceShared {
                enabled: AtomicBool::new(enabled),
                spans: Mutex::new(Vec::new()),
            }),
        }
    }

    pub fn enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    pub fn record(&self, span: Span) {
        if self.enabled() {
            self.inner.spans.lock().push(span);
        }
    }

    /// Drain the recording into a [`Trace`] (spans sorted by
    /// `(pid, start, end)`).
    pub fn take(&self) -> Trace {
        let mut spans = std::mem::take(&mut *self.inner.spans.lock());
        spans.sort_by_key(|s| (s.pid, s.start.as_nanos(), s.end.as_nanos()));
        Trace { spans }
    }
}

/// The finished trace of one simulation run.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Latest end time over all spans.
    pub fn horizon(&self) -> SimTime {
        self.spans.iter().map(|s| s.end).max().unwrap_or(SimTime::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(pid: Pid, tag: &'static str, a: u64, b: u64) -> Span {
        Span { pid, tag, start: SimTime(a), end: SimTime(b) }
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = TraceSink::new(false);
        sink.record(span(0, "comp", 0, 10));
        assert!(sink.take().is_empty());
    }
}
