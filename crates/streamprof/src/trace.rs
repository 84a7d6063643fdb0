//! The finished trace: queries, stall breakdowns, and text exporters.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use desim::SimTime;

use crate::sink::{Clock, Span, StreamMetrics};

/// A completed profiling recording (see [`crate::ProfSink::take`]).
#[derive(Clone, Debug)]
pub struct Trace {
    clock: Clock,
    spans: Vec<Span>,
    streams: BTreeMap<(usize, u16), StreamMetrics>,
}

/// Where one rank's time went, in seconds — the paper's stall taxonomy
/// for a decoupled program: productive compute, sender-side stream
/// overhead, starvation (wait-for-data), back-pressure (wait-for-credit),
/// and collectives. `other` collects everything else (application spans,
/// plain `recv`, `wait-mail`).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StallBreakdown {
    pub compute: f64,
    pub send: f64,
    pub wait_data: f64,
    pub wait_credit: f64,
    pub collective: f64,
    pub other: f64,
}

impl StallBreakdown {
    /// Total recorded span time.
    pub fn total(&self) -> f64 {
        self.compute + self.send + self.wait_data + self.wait_credit + self.collective + self.other
    }
}

impl Trace {
    pub(crate) fn new(
        clock: Clock,
        spans: Vec<Span>,
        streams: BTreeMap<(usize, u16), StreamMetrics>,
    ) -> Trace {
        Trace { clock, spans, streams }
    }

    pub fn clock(&self) -> Clock {
        self.clock
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn streams(&self) -> &BTreeMap<(usize, u16), StreamMetrics> {
        &self.streams
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.streams.is_empty()
    }

    /// Earliest span start (the trace's time origin).
    pub fn start(&self) -> SimTime {
        self.spans.iter().map(|s| s.start).min().unwrap_or(SimTime::ZERO)
    }

    /// Latest span end.
    pub fn horizon(&self) -> SimTime {
        self.spans.iter().map(|s| s.end).max().unwrap_or(SimTime::ZERO)
    }

    /// End-to-end recorded time (horizon minus origin), in seconds.
    pub fn makespan_secs(&self) -> f64 {
        self.horizon().since(self.start()).as_secs_f64()
    }

    /// Total seconds each `(pid, cat)` pair accounts for.
    pub fn totals_by_cat(&self) -> BTreeMap<(usize, &'static str), f64> {
        let mut map: BTreeMap<(usize, &'static str), f64> = BTreeMap::new();
        for s in &self.spans {
            *map.entry((s.pid, s.cat)).or_default() += s.secs();
        }
        map
    }

    /// Stall breakdown of one rank.
    pub fn stalls(&self, pid: usize) -> StallBreakdown {
        let mut b = StallBreakdown::default();
        for s in self.spans.iter().filter(|s| s.pid == pid) {
            let secs = s.secs();
            match s.cat {
                "compute" | "comp" => b.compute += secs,
                "send" => b.send += secs,
                "wait-data" => b.wait_data += secs,
                "wait-credit" => b.wait_credit += secs,
                "coll" => b.collective += secs,
                _ => b.other += secs,
            }
        }
        b
    }

    /// Stall breakdown of every rank that recorded anything, in rank
    /// order.
    pub fn breakdown(&self) -> Vec<(usize, StallBreakdown)> {
        let mut pids: Vec<usize> = self.spans.iter().map(|s| s.pid).collect();
        pids.sort_unstable();
        pids.dedup();
        pids.into_iter().map(|p| (p, self.stalls(p))).collect()
    }

    /// Adapt a `desim` trace (the simulator's built-in recorder) so one
    /// set of exporters serves both instruments. Span order is preserved.
    pub fn from_desim(trace: &desim::Trace, clock: Clock) -> Trace {
        let spans = trace
            .spans()
            .iter()
            .map(|s| Span { pid: s.pid, cat: s.tag, start: s.start, end: s.end })
            .collect();
        Trace { clock, spans, streams: BTreeMap::new() }
    }

    /// Dump as CSV (`pid,tag,start_s,end_s` — the `desim` schema, so
    /// downstream tooling needs no changes).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("pid,tag,start_s,end_s\n");
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{},{},{:.9},{:.9}",
                s.pid,
                s.cat,
                s.start.as_secs_f64(),
                s.end.as_secs_f64()
            );
        }
        out
    }

    /// Render an ASCII Gantt chart, one row per pid, `width` columns
    /// across the full time horizon. Gaps are `.`; glyphs come from
    /// `glyph_of`.
    pub fn to_gantt_with(&self, width: usize, glyph_of: impl Fn(&str) -> char) -> String {
        let horizon = self.horizon().as_nanos().max(1);
        let npids = self.spans.iter().map(|s| s.pid + 1).max().unwrap_or(0);
        let mut out = String::new();
        for pid in 0..npids {
            let mut row = vec!['.'; width];
            for s in self.spans.iter().filter(|s| s.pid == pid) {
                let a = (s.start.as_nanos() as u128 * width as u128 / horizon as u128) as usize;
                let b = (s.end.as_nanos() as u128 * width as u128 / horizon as u128) as usize;
                let glyph = glyph_of(s.cat);
                for cell in row.iter_mut().take(b.min(width - 1) + 1).skip(a.min(width - 1)) {
                    *cell = glyph;
                }
            }
            let _ = writeln!(out, "P{:<3} |{}|", pid, row.iter().collect::<String>());
        }
        out
    }

    /// [`Trace::to_gantt_with`] with the default glyph scheme: `desim`'s
    /// tags get `comp` → `C`, `comm` → `M`, `io` → `I`,
    /// the profiler's own categories get distinct letters, anything else
    /// its capitalised first character.
    pub fn to_gantt(&self, width: usize) -> String {
        self.to_gantt_with(width, |cat| match cat {
            "comp" | "compute" => 'C',
            "comm" => 'M',
            "io" => 'I',
            "send" => 'S',
            "wait-data" => 'w',
            "wait-credit" => 'k',
            "coll" => 'L',
            other => other.chars().next().unwrap_or('?').to_ascii_uppercase(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::ProfSink;

    fn sample_trace() -> Trace {
        let sink = ProfSink::new(Clock::Virtual);
        sink.record_span(0, "compute", SimTime(0), SimTime(800));
        sink.record_span(0, "send", SimTime(800), SimTime(1000));
        sink.record_span(1, "wait-data", SimTime(0), SimTime(600));
        sink.record_span(1, "compute", SimTime(600), SimTime(900));
        sink.record_span(1, "coll", SimTime(900), SimTime(1000));
        sink.take()
    }

    #[test]
    fn stall_breakdown_buckets_categories() {
        let t = sample_trace();
        let b0 = t.stalls(0);
        assert!((b0.compute - 800e-9).abs() < 1e-15);
        assert!((b0.send - 200e-9).abs() < 1e-15);
        assert_eq!(b0.wait_data, 0.0);
        let b1 = t.stalls(1);
        assert!((b1.wait_data - 600e-9).abs() < 1e-15);
        assert!((b1.collective - 100e-9).abs() < 1e-15);
        assert!((b1.total() - 1000e-9).abs() < 1e-15);
        assert_eq!(t.breakdown().len(), 2);
        assert!((t.makespan_secs() - 1000e-9).abs() < 1e-15);
    }

    #[test]
    fn csv_matches_the_desim_schema() {
        let csv = sample_trace().to_csv();
        assert!(csv.starts_with("pid,tag,start_s,end_s\n"));
        assert_eq!(csv.lines().count(), 6);
        assert!(csv.contains("0,compute,0.000000000,0.000000800"));
    }

    #[test]
    fn gantt_renders_a_pinned_chart() {
        // fig2 prints its timelines through `from_desim` + `to_gantt`.
        let dsink = desim::TraceSink::new(true);
        for (pid, tag, a, b) in [(0, "comp", 0, 700), (0, "comm", 700, 1000), (2, "io", 400, 450)] {
            dsink.record(desim::Span { pid, tag, start: SimTime(a), end: SimTime(b) });
        }
        let adapted = Trace::from_desim(&dsink.take(), Clock::Virtual);
        let want = "P0   |CCCCCCCCCCCCCCMMMMMM|\n\
                    P1   |....................|\n\
                    P2   |........II..........|\n";
        assert_eq!(adapted.to_gantt(20), want);
        // The profiler's own categories: wait-data `w`, send `S`, coll `L`.
        let want = "P0   |CCCCCCCCCCCCCCCCSSSS|\n\
                    P1   |wwwwwwwwwwwwCCCCCCLL|\n";
        assert_eq!(sample_trace().to_gantt(20), want);
    }
}
