//! The `Profiled` wrapper over real backends: the same stream program
//! profiled inside the simulator (virtual clock, deterministic) and on
//! native threads (wall clock), landing in the same trace schema.

use mpisim::{MachineConfig, NoiseModel, World};
use mpistream::{prof_scoped, run_decoupled, ChannelConfig, GroupSpec, Transport};
use native::NativeWorld;
use streamprof::{validate_chrome, Clock, ProfSink, Profiled, Trace};

const RANKS: usize = 8;
const STEPS: usize = 20;

/// The instrumented program, written once against `Transport`.
fn program<TP: Transport>(rank: &mut TP) {
    let comm = rank.world_group();
    run_decoupled::<u64, _, _, _>(
        rank,
        &comm,
        GroupSpec { every: 4 },
        ChannelConfig { credits: Some(8), aggregation: 4, ..ChannelConfig::default() },
        |rank, p| {
            let me = rank.world_rank() as u64;
            for step in 0..STEPS as u64 {
                rank.compute(2e-5);
                p.stream.isend(rank, me * 1000 + step);
            }
        },
        |rank, c| {
            let mut acc = 0u64;
            c.stream.operate(rank, |rank, v| {
                prof_scoped(rank, "fold", |_| acc = acc.wrapping_add(v));
            });
        },
    );
}

fn profile_sim() -> Trace {
    let sink = ProfSink::new(Clock::Virtual);
    let s2 = sink.clone();
    let machine = MachineConfig { noise: NoiseModel::none(), ..MachineConfig::default() };
    World::new(machine).with_seed(7).run_expect(RANKS, move |rank| {
        let mut rank = Profiled::new(rank, s2.clone());
        program(&mut rank);
    });
    sink.take()
}

fn profile_native() -> Trace {
    let sink = ProfSink::new(Clock::Wall);
    let s2 = sink.clone();
    NativeWorld::new(RANKS).with_compute_scale(0.05).run(|rank| {
        let mut rank = Profiled::new(rank, s2.clone());
        program(&mut rank);
    });
    sink.take()
}

/// Shape checks that hold on *any* backend.
fn assert_trace_shape(trace: &Trace, clock: Clock) {
    assert_eq!(trace.clock(), clock);
    // 6 producers sent, 2 consumers received, on one channel.
    let producers: Vec<usize> =
        trace.streams().iter().filter(|(_, m)| m.elems_sent > 0).map(|(&(p, _), _)| p).collect();
    let consumers: Vec<usize> =
        trace.streams().iter().filter(|(_, m)| m.elems_recv > 0).map(|(&(p, _), _)| p).collect();
    assert_eq!(producers, vec![0, 1, 2, 4, 5, 6]);
    assert_eq!(consumers, vec![3, 7]);
    let sent: u64 = trace.streams().values().map(|m| m.elems_sent).sum();
    let recvd: u64 = trace.streams().values().map(|m| m.elems_recv).sum();
    assert_eq!(sent, 6 * STEPS as u64);
    assert_eq!(recvd, sent);
    // Credited channel: every producer sampled its window, and occupancy
    // is a valid fraction.
    for (&(p, _), m) in trace.streams().iter().filter(|(_, m)| m.elems_sent > 0) {
        assert!(m.credit_samples > 0, "rank {p} never sampled its credit window");
        assert_eq!(m.credit_window, 8);
        let occ = m.credit_occupancy();
        assert!((0.0..=1.0).contains(&occ), "occupancy {occ}");
    }
    // Producers computed and sent; consumers waited for data and folded.
    for &p in &producers {
        let b = trace.stalls(p);
        assert!(b.compute > 0.0, "rank {p}: {b:?}");
        assert!(b.send > 0.0, "rank {p}: {b:?}");
        assert!(b.collective > 0.0, "rank {p} took part in channel setup: {b:?}");
    }
    for &c in &consumers {
        let b = trace.stalls(c);
        assert!(b.wait_data > 0.0, "rank {c}: {b:?}");
        // The app-level span from `prof_scoped` lands on the timeline
        // (zero-duration in the simulator — the fold costs no virtual
        // time — so count spans, not seconds).
        assert!(
            trace.spans().iter().any(|s| s.pid == c && s.cat == "fold"),
            "rank {c} recorded no 'fold' spans"
        );
    }
    // The Chrome export of this trace is structurally valid.
    let stats = validate_chrome(&trace.to_chrome_json()).unwrap();
    assert_eq!(stats.metadata, RANKS);
    assert!(stats.spans > 0);
    assert_eq!(stats.streams, trace.streams().len());
}

#[test]
fn sim_backend_records_the_expected_shape_deterministically() {
    let t1 = profile_sim();
    assert_trace_shape(&t1, Clock::Virtual);
    // Virtual clock: a rerun reproduces the trace byte-for-byte.
    let t2 = profile_sim();
    assert_eq!(t1.to_chrome_json(), t2.to_chrome_json());
    assert_eq!(t1.to_csv(), t2.to_csv());
}

#[test]
fn native_backend_records_the_same_shape_on_the_wall_clock() {
    let trace = profile_native();
    assert_trace_shape(&trace, Clock::Wall);
}

#[test]
fn wrapper_is_transparent_to_program_results() {
    // The profiled and unprofiled sim runs must produce identical virtual
    // makespans: profiling only *reads* the clock.
    let machine = MachineConfig { noise: NoiseModel::none(), ..MachineConfig::default() };
    let plain = World::new(machine.clone())
        .with_seed(7)
        .run_expect(RANKS, |rank| program(rank))
        .0
        .elapsed_secs();
    let sink = ProfSink::new(Clock::Virtual);
    let s2 = sink.clone();
    let profiled = World::new(machine)
        .with_seed(7)
        .run_expect(RANKS, move |rank| {
            let mut rank = Profiled::new(rank, s2.clone());
            program(&mut rank);
        })
        .0
        .elapsed_secs();
    assert_eq!(plain, profiled, "profiling must not perturb the simulation");
}
