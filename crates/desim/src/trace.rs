//! Span tracing in virtual time.
//!
//! Processes record `(pid, tag, start, end)` spans; after the run the
//! collected [`Trace`] can be queried, dumped as CSV or rendered as an
//! ASCII Gantt chart — the moral equivalent of the HPCToolkit timelines in
//! Figure 2 of the paper.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::kernel::Pid;
use crate::time::{SimDuration, SimTime};

/// One recorded interval on one process's timeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub pid: Pid,
    /// Static category tag, e.g. `"comp"`, `"comm"`, `"io"`, `"idle"`.
    pub tag: &'static str,
    pub start: SimTime,
    pub end: SimTime,
}

impl Span {
    pub fn duration(&self) -> SimDuration {
        self.end.since(self.start)
    }
}

#[derive(Default)]
struct TraceShared {
    // `enabled` is fixed at construction (there is no set-enabled API), so
    // a relaxed load is all the disabled fast path ever pays — the span
    // mutex is only touched when tracing is actually on. `trace_begin`/
    // `trace_end` sit on the engine hot path measured by `engine_bench`.
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

    /// All spans recorded by one process, in time order.
    pub fn for_pid(&self, pid: Pid) -> Vec<&Span> {
        self.spans.iter().filter(|s| s.pid == pid).collect()
    }

    /// Total time each tag accounts for on each process.
    pub fn totals_by_tag(&self) -> HashMap<(Pid, &'static str), SimDuration> {
        let mut map: HashMap<(Pid, &'static str), SimDuration> = HashMap::new();
        for s in &self.spans {
            *map.entry((s.pid, s.tag)).or_default() += s.duration();
        }
        map
    }

    /// Latest end time over all spans.
    pub fn horizon(&self) -> SimTime {
        self.spans.iter().map(|s| s.end).max().unwrap_or(SimTime::ZERO)
    }

    /// Dump as CSV (`pid,tag,start_s,end_s`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("pid,tag,start_s,end_s\n");
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{},{},{:.9},{:.9}",
                s.pid,
                s.tag,
                s.start.as_secs_f64(),
                s.end.as_secs_f64()
            );
        }
        out
    }

    /// Render an ASCII Gantt chart, one row per pid, `width` columns across
    /// the full time horizon. Gaps are `.`; glyphs come from `glyph_of`.
    pub fn to_gantt_with(&self, width: usize, glyph_of: impl Fn(&str) -> char) -> String {
        let horizon = self.horizon().as_nanos().max(1);
        let npids = self.spans.iter().map(|s| s.pid + 1).max().unwrap_or(0);
        let mut out = String::new();
        for pid in 0..npids {
            let mut row = vec!['.'; width];
            for s in self.spans.iter().filter(|s| s.pid == pid) {
                let a = (s.start.as_nanos() as u128 * width as u128 / horizon as u128) as usize;
                let b = (s.end.as_nanos() as u128 * width as u128 / horizon as u128) as usize;
                let glyph = glyph_of(s.tag);
                for cell in row.iter_mut().take(b.min(width - 1) + 1).skip(a.min(width - 1)) {
                    *cell = glyph;
                }
            }
            let _ = writeln!(out, "P{:<3} |{}|", pid, row.iter().collect::<String>());
        }
        out
    }

    /// [`Trace::to_gantt_with`] using a default glyph scheme: the common
    /// HPC tags get distinct letters (`comp` → `C`, `comm` → `M`,
    /// `io` → `I`), anything else its capitalised first character.
    pub fn to_gantt(&self, width: usize) -> String {
        self.to_gantt_with(width, |tag| match tag {
            "comp" => 'C',
            "comm" => 'M',
            "io" => 'I',
            other => other.chars().next().unwrap_or('?').to_ascii_uppercase(),
        })
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

    #[test]
    fn totals_accumulate_per_pid_and_tag() {
        let sink = TraceSink::new(true);
        sink.record(span(0, "comp", 0, 10));
        sink.record(span(0, "comp", 20, 25));
        sink.record(span(1, "comm", 0, 7));
        let trace = sink.take();
        let totals = trace.totals_by_tag();
        assert_eq!(totals[&(0, "comp")], SimDuration::from_nanos(15));
        assert_eq!(totals[&(1, "comm")], SimDuration::from_nanos(7));
        assert_eq!(trace.horizon(), SimTime(25));
    }

    #[test]
    fn csv_and_gantt_render() {
        let sink = TraceSink::new(true);
        sink.record(span(0, "comp", 0, 500));
        sink.record(span(1, "comm", 500, 1000));
        let trace = sink.take();
        let csv = trace.to_csv();
        assert!(csv.starts_with("pid,tag,start_s,end_s"));
        assert_eq!(csv.lines().count(), 3);
        let gantt = trace.to_gantt(20);
        assert!(gantt.contains('C'));
        assert_eq!(gantt.lines().count(), 2);
    }

    #[test]
    fn for_pid_filters_and_sorts() {
        let sink = TraceSink::new(true);
        sink.record(span(1, "b", 10, 20));
        sink.record(span(1, "a", 0, 10));
        sink.record(span(0, "x", 0, 5));
        let trace = sink.take();
        let p1 = trace.for_pid(1);
        assert_eq!(p1.len(), 2);
        assert_eq!(p1[0].tag, "a");
        assert_eq!(p1[1].tag, "b");
    }
}
