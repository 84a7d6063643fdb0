//! streamprof end-to-end: a golden Chrome trace on the simulator
//! (byte-compared — the sim is deterministic, so the exporter must be
//! too), structural validation of the native backend's trace (wall-clock
//! timings differ run to run, but the shape must not), exporter
//! equivalence between `desim`'s original trace renderers and the
//! `streamprof` adapters fig2 now routes through, and the sanitizer
//! still reporting through a `Profiled` wrapper.
//!
//! To refresh the golden after an intentional format change:
//! `STREAMPROF_UPDATE_GOLDEN=1 cargo test -p integration --test streamprof_trace`
//! (then re-run without the variable to confirm).

use apps::pic::{run_comm_decoupled_traced, PicConfig};
use apps::portable::{quickstart, quickstart_with};
use mpisim::{MachineConfig, NoiseModel, World};
use mpistream::{ChannelConfig, GroupSpec, Role, Src, Stream, StreamChannel, Tag, Transport};
use native::NativeWorld;
use streamprof::{validate_chrome, Clock, ProfSink, Profiled, Trace};

const RANKS: usize = 8;
const STEPS: usize = 12;
const EVERY: usize = 4;

const GOLDEN: &str = include_str!("golden/quickstart_sim.trace.json");

fn sim_chrome_trace() -> String {
    let sink = ProfSink::new(Clock::Virtual);
    let s2 = sink.clone();
    let machine = MachineConfig { noise: NoiseModel::none(), ..MachineConfig::default() };
    let world = World::new(machine).with_seed(7);
    world.run_expect(RANKS, move |rank| {
        let mut rank = Profiled::new(rank, s2.clone());
        let _ = quickstart(&mut rank, STEPS, EVERY);
    });
    sink.take().to_chrome_json()
}

#[test]
fn sim_quickstart_chrome_trace_matches_golden() {
    let json = sim_chrome_trace();
    if std::env::var_os("STREAMPROF_UPDATE_GOLDEN").is_some() {
        let path =
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/quickstart_sim.trace.json");
        std::fs::write(path, &json).expect("write golden");
        return;
    }
    // The golden must itself be a valid Chrome trace before we demand
    // byte-equality with it.
    validate_chrome(GOLDEN).expect("golden is structurally valid");
    assert_eq!(
        json, GOLDEN,
        "sim Chrome trace drifted from tests/golden/quickstart_sim.trace.json; \
         if the change is intentional, refresh with STREAMPROF_UPDATE_GOLDEN=1"
    );
}

#[test]
fn native_quickstart_chrome_trace_is_structurally_valid() {
    let sink = ProfSink::new(Clock::Wall);
    let s2 = sink.clone();
    let world = NativeWorld::new(RANKS).with_compute_scale(0.05);
    world.run(move |rank| {
        let mut rank = Profiled::new(rank, s2.clone());
        let _ = quickstart(&mut rank, STEPS, EVERY);
    });
    let trace = sink.take();
    let json = trace.to_chrome_json();
    let stats = validate_chrome(&json).expect("native trace is structurally valid");
    assert_eq!(stats.metadata, RANKS, "one thread_name record per rank");
    assert_eq!(stats.spans, trace.spans().len());
    assert_eq!(stats.streams, trace.streams().len());
    // Same program, same instrumentation: both backends must report the
    // same stream totals even though the clocks differ.
    let golden_streams = validate_chrome(GOLDEN).unwrap().streams;
    assert_eq!(stats.streams, golden_streams);
}

/// The native backend under profiling, with a credit window and *batched*
/// acknowledgements: wall-clock timings and interleavings differ run to
/// run, but every counter the profiler keeps is an exact function of the
/// program, so this pins them all — including that credit occupancy is
/// sampled once per credited send, no more, no less, regardless of how
/// the consumer batches its acks.
#[test]
fn native_stream_metrics_are_exact_under_batched_credits() {
    const WINDOW: u64 = 8;
    const AGG: u64 = 2;
    let sink = ProfSink::new(Clock::Wall);
    let s2 = sink.clone();
    NativeWorld::new(RANKS).with_compute_scale(0.01).run(move |rank| {
        let mut rank = Profiled::new(rank, s2.clone());
        let _ = quickstart_with(
            &mut rank,
            STEPS,
            EVERY,
            ChannelConfig {
                element_bytes: 1 << 10,
                aggregation: AGG as usize,
                credits: Some(WINDOW as usize),
                credit_batch: 4,
                ..ChannelConfig::default()
            },
        );
    });
    let trace = sink.take();
    let streams = trace.streams();
    assert_eq!(streams.len(), RANKS, "every rank touched the one channel");
    let channel = streams.keys().next().expect("non-empty").1;
    assert!(streams.keys().all(|&(_, ch)| ch == channel), "a single channel in play");

    let spec = GroupSpec { every: EVERY };
    let n_consumers = spec.members(RANKS).1.len() as u64;
    let producers = RANKS as u64 - n_consumers;
    // STEPS divides by the aggregation factor, so no partial flush at
    // terminate and the batch math below is exact.
    assert_eq!(STEPS as u64 % AGG, 0);
    let batches = STEPS as u64 / AGG;
    for rank in 0..RANKS {
        let m = &streams[&(rank, channel)];
        match spec.role_of(rank) {
            Role::Producer => {
                assert_eq!(m.elems_sent, STEPS as u64, "rank {rank}: elems sent");
                assert_eq!(m.batches_sent, batches, "rank {rank}: batches sent");
                assert_eq!(m.bytes_sent, STEPS as u64 * (1 << 10), "rank {rank}: bytes sent");
                assert_eq!((m.elems_recv, m.batches_recv, m.bytes_recv), (0, 0, 0));
                // One occupancy sample per credited send; each records
                // between `AGG` (the batch just sent) and the full window.
                assert_eq!(m.credit_samples, batches, "rank {rank}: one sample per send");
                assert_eq!(m.credit_window, WINDOW);
                assert!(m.credit_outstanding_sum >= AGG * batches, "rank {rank}: samples too low");
                assert!(
                    m.credit_outstanding_sum <= WINDOW * batches,
                    "rank {rank}: occupancy above the window"
                );
            }
            Role::Consumer => {
                // Static routing spreads the producers evenly over the
                // consumers (producers divide evenly here).
                let feeders = producers / n_consumers;
                assert_eq!(m.elems_recv, feeders * STEPS as u64, "rank {rank}: elems recv");
                assert_eq!(m.batches_recv, feeders * batches, "rank {rank}: batches recv");
                assert_eq!(m.bytes_recv, feeders * STEPS as u64 * (1 << 10));
                assert_eq!((m.elems_sent, m.batches_sent, m.bytes_sent), (0, 0, 0));
                assert_eq!((m.credit_samples, m.credit_outstanding_sum), (0, 0));
            }
            Role::Bystander => unreachable!("quickstart has no bystanders"),
        }
    }
}

/// Wrapping ranks in `Profiled` keeps them checked: this is streamcheck's
/// `credit_deadlock_report_includes_credit_table` with both ranks
/// profiled. The credit table is filled only by the sanitizer events
/// `Profiled::observe` forwards, so the report carries it only if they
/// arrive.
#[test]
fn profiled_ranks_keep_the_sanitizer_credit_table() {
    let sink = ProfSink::new(Clock::Virtual);
    let world = World::new(MachineConfig::default()).with_seed(5).with_check();
    let err = world
        .run(2, move |rank| {
            let mut rank = Profiled::new(rank, sink.clone());
            let comm = rank.world_group();
            let role = GroupSpec { every: 2 }.role_of(rank.world_rank());
            let config = ChannelConfig { credits: Some(4), ..ChannelConfig::default() };
            let ch = StreamChannel::create(&mut rank, &comm, role, config);
            let mut stream: Stream<u32> = Stream::attach(ch);
            match role {
                Role::Producer => {
                    for i in 0..8 {
                        stream.isend(&mut rank, i); // blocks at the 5th element
                    }
                    stream.terminate(&mut rank);
                }
                Role::Consumer => {
                    // Never drains the stream: waits on a tag nobody sends.
                    let _: (u8, _) = rank.recv(Src::Rank(0), Tag::user(999));
                }
                Role::Bystander => unreachable!(),
            }
        })
        .expect_err("this pipeline must deadlock");
    let report = err.to_string();
    assert!(report.contains("deadlock"), "unexpected error: {report}");
    assert!(
        report.contains("streamcheck sanitizer credit state"),
        "credit table missing from deadlock report:\n{report}"
    );
    assert!(report.contains("window full"), "window-full marker missing:\n{report}");
}

#[test]
fn desim_and_streamprof_exporters_agree_on_fig2_spans() {
    let cfg = PicConfig {
        actual_per_rank: 64,
        iterations: 2,
        alpha_every: 7,
        dt: 0.3,
        ..PicConfig::default()
    };
    let run = run_comm_decoupled_traced(7, &cfg);
    let adapted = Trace::from_desim(&run.outcome.sim.trace, Clock::Virtual);
    // fig2 renders through the adapter; its CSV and Gantt output must be
    // byte-identical to what desim's own renderers produced before.
    assert_eq!(adapted.to_csv(), run.outcome.sim.trace.to_csv());
    assert_eq!(adapted.to_gantt(100), run.outcome.sim.trace.to_gantt(100));
}
