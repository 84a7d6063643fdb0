//! The simulator adapter's span route: `prof_scoped` (an
//! `Event::Begin`/`Event::End` pair through `Transport::observe`) lands in
//! the simulator's own trace, the one `World::with_trace` turns on.

use desim::{SimTime, Span};
use mpisim::{MachineConfig, NoiseModel, World};
use mpistream::{prof_scoped, Transport};
use streamprof::{Clock, ProfSink, Profiled};

/// Rank 0 computes for 1 ms, then spends 2 ms in a `"work"` span whose
/// second millisecond is a nested `"inner"` span; rank 1 opens none.
fn program<TP: Transport>(rank: &mut TP) {
    if rank.world_rank() == 0 {
        rank.compute(1e-3);
        prof_scoped(rank, "work", |rank| {
            rank.compute(1e-3);
            prof_scoped(rank, "inner", |rank| rank.compute(1e-3));
        });
    }
}

fn world(trace: bool) -> World {
    World::new(MachineConfig { noise: NoiseModel::none(), ..MachineConfig::default() })
        .with_trace(trace)
}

/// The spans `program` must leave, by start time.
fn expected() -> Vec<Span> {
    let ms = |n: u64| SimTime(n * 1_000_000);
    vec![
        Span { pid: 0, tag: "work", start: ms(1), end: ms(3) },
        Span { pid: 0, tag: "inner", start: ms(2), end: ms(3) },
    ]
}

#[test]
fn traced_world_records_prof_scoped_spans_at_their_virtual_times() {
    let (outcome, _) = world(true).run_expect(2, |rank| program(rank));
    assert_eq!(outcome.sim.trace.spans(), expected());
}

#[test]
fn untraced_world_records_no_span() {
    let (outcome, _) = world(false).run_expect(2, |rank| program(rank));
    assert!(outcome.sim.trace.is_empty());
}

#[test]
fn profiled_sim_rank_records_each_span_once_in_each_recorder() {
    let sink = ProfSink::new(Clock::Virtual);
    let s2 = sink.clone();
    let (outcome, _) = world(true).run_expect(2, move |rank| {
        program(&mut Profiled::new(rank, s2.clone()));
    });
    // The simulator's trace holds only the application spans ...
    assert_eq!(outcome.sim.trace.spans(), expected());
    // ... and the profiler's the same two among its own call spans.
    let mut app: Vec<Span> = sink
        .take()
        .spans()
        .iter()
        .filter(|s| s.cat == "work" || s.cat == "inner")
        .map(|s| Span { pid: s.pid, tag: s.cat, start: s.start, end: s.end })
        .collect();
    app.sort_by_key(|s| s.start);
    assert_eq!(app, expected());
}
