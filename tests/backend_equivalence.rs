//! Cross-backend equivalence: the portable programs of `apps::portable`
//! must deliver the same per-consumer payload multisets whether the
//! transport is the discrete-event simulator (`mpisim::Rank`) or the
//! native threaded backend (`native::NativeRank`).
//!
//! Arrival *order* is explicitly not compared — the native backend makes
//! no determinism promise — so every comparison is over order-normalized
//! (sorted) payloads and their fingerprints.
//!
//! Keep reductions in this suite integer-valued (or order-insensitive):
//! the simulator's modelled collectives and `mpistream::coll`'s star and
//! tree each combine in their own order, an implementation detail with
//! no cross-backend agreement, so an f64 sum can legally be
//! bitwise-different across backends even on fault-free plans
//! (DESIGN.md §11). The one float program here, Fig. 6's decoupled CG,
//! is compared with a relative tolerance for that reason.

use std::cell::Cell;

use apps::cg::{decoupled_rank, CgConfig};
use apps::pic::{
    comm_decoupled_rank, io_decoupled_rank, run_comm_decoupled, run_io_decoupled, FsOp, PicConfig,
};
use apps::portable::{
    fingerprint, mini_mapreduce, mini_mapreduce_oracle, quickstart, quickstart_with,
    workload_updates, MiniMrConfig, PortableReport,
};
use mpisim::{MachineConfig, NoiseModel, World};
use mpistream::{ChannelConfig, Group, GroupSpec, Role, StreamChannel, Transport};
use native::NativeWorld;

const RANKS: usize = 16;
const STEPS: usize = 25;
const EVERY: usize = 8;

/// Every rank's report, in rank order.
type Reports = Vec<PortableReport>;

fn quickstart_sim() -> Reports {
    World::new(MachineConfig::default())
        .with_seed(42)
        .run_expect(RANKS, |rank| quickstart(rank, STEPS, EVERY))
        .1
}

fn quickstart_native() -> Reports {
    NativeWorld::new(RANKS).with_compute_scale(0.01).run(|rank| quickstart(rank, STEPS, EVERY))
}

/// The one histogram among the ranks' [`mini_mapreduce`] results: the
/// master's.
fn master_histogram(per_rank: Vec<Option<Vec<u64>>>) -> Vec<u64> {
    let mut masters: Vec<Vec<u64>> = per_rank.into_iter().flatten().collect();
    assert_eq!(masters.len(), 1, "exactly one master histogram");
    masters.remove(0)
}

fn mini_mapreduce_sim(n: usize, seed: u64, cfg: &MiniMrConfig) -> Vec<u64> {
    let cfg = cfg.clone();
    let (_, per_rank) = World::new(MachineConfig::default())
        .with_seed(seed)
        .run_expect(n, move |rank| mini_mapreduce(rank, &cfg));
    master_histogram(per_rank)
}

fn mini_mapreduce_native(n: usize, cfg: &MiniMrConfig) -> Vec<u64> {
    master_histogram(
        NativeWorld::new(n).with_compute_scale(0.01).run(|rank| mini_mapreduce(rank, cfg)),
    )
}

#[test]
fn quickstart_per_consumer_payloads_match_across_backends() {
    let sim = quickstart_sim();
    let native = quickstart_native();
    assert_eq!(sim.len(), RANKS);
    assert_eq!(native.len(), RANKS);
    for (rank, (s, n)) in sim.iter().zip(&native).enumerate() {
        assert_eq!(s.sent, n.sent, "rank {rank}: streamed element count differs");
        // `received` is sorted by the portable program: multiset equality.
        assert_eq!(s.received, n.received, "rank {rank}: consumed payload multiset differs");
        if !s.received.is_empty() {
            assert_eq!(fingerprint(&s.received), fingerprint(&n.received));
        }
    }
    // The workload actually flowed: every producer streamed every step.
    let produced: u64 = sim.iter().map(|r| r.sent).sum();
    assert_eq!(produced, (RANKS - RANKS / EVERY) as u64 * STEPS as u64);
}

#[test]
fn quickstart_consumers_match_serial_oracle_on_both_backends() {
    // Listing 1 loses, duplicates and invents nothing: the analysis
    // group's union is every update the compute ranks' trajectories hold.
    let oracle = workload_updates(GroupSpec { every: EVERY }.members(RANKS).0, STEPS);
    for reports in [quickstart_sim(), quickstart_native()] {
        let mut union: Vec<u64> = reports.into_iter().flat_map(|r| r.received).collect();
        union.sort_unstable();
        assert_eq!(union, oracle);
    }
}

#[test]
fn mini_mapreduce_histogram_matches_oracle_on_both_backends() {
    // A small Fig. 5 topology: 8 ranks, reducers at {3, 7}, master 7.
    const N: usize = 8;
    let cfg = MiniMrConfig::default();
    let oracle = mini_mapreduce_oracle(N, &cfg);
    assert!(oracle.iter().sum::<u64>() > 0, "oracle must count something");

    assert_eq!(mini_mapreduce_sim(N, 7, &cfg), oracle, "simulator master histogram != oracle");
    assert_eq!(mini_mapreduce_native(N, &cfg), oracle, "native master histogram != oracle");
}

#[test]
fn tree_aggregated_mini_mapreduce_matches_oracle_on_both_backends() {
    // The aggregated pipeline: producer-side combiners (merge 4 chunks
    // before they enter the channel) plus a fan-in-2 reduction tree
    // between the local reducers and the master. Count merging is pure
    // integer addition, so the combined/tree-reduced histogram must equal
    // the serial oracle *exactly* on both backends — the float
    // reduction-order caveat of DESIGN.md §11 does not apply here.
    let cfg = MiniMrConfig { combine_every: 4, tree_fan_in: Some(2), ..MiniMrConfig::default() };
    let oracle = mini_mapreduce_oracle(RANKS, &cfg);
    assert!(oracle.iter().sum::<u64>() > 0, "oracle must count something");

    let sim_hist = mini_mapreduce_sim(RANKS, 13, &cfg);
    assert_eq!(sim_hist, oracle, "simulator tree-aggregated histogram != oracle");
    let native_hist = mini_mapreduce_native(RANKS, &cfg);
    assert_eq!(native_hist, oracle, "native tree-aggregated histogram != oracle");
    // Same content, fingerprint-checked as a multiset for good measure.
    assert_eq!(fingerprint(&sim_hist), fingerprint(&oracle));
}

/// Fig. 6's decoupled CG in miniature, the shape `apps::cg`'s own tests
/// run: 8 ranks (6 compute, 2 boundary), a 6³ block per compute rank, 40
/// iterations.
const CG_RANKS: usize = 8;

fn cg_cfg() -> CgConfig {
    CgConfig {
        machine: MachineConfig { noise: NoiseModel::none(), ..MachineConfig::default() },
        n_local: 6,
        iterations: 40,
        alpha_every: 4,
        ..CgConfig::default()
    }
}

/// Compute rank 0's `(residual, solution error)`: the one report among
/// the ranks' [`decoupled_rank`] results.
fn cg_report(per_rank: Vec<Option<(f64, f64)>>) -> (f64, f64) {
    let mut reports: Vec<(f64, f64)> = per_rank.into_iter().flatten().collect();
    assert_eq!(reports.len(), 1, "exactly one CG report");
    reports.remove(0)
}

fn cg_decoupled_sim() -> (f64, f64) {
    let cfg = cg_cfg();
    let world = World::new(cfg.machine.clone()).with_seed(cfg.seed);
    let (_, per_rank) =
        world.run_expect(CG_RANKS, move |rank| decoupled_rank(rank, CG_RANKS, &cfg));
    let report = cg_report(per_rank);
    assert!(report.0 < 1e-8, "sim: decoupled CG must converge, residual {}", report.0);
    report
}

/// `got` converged and its solution error agrees with the simulator's to
/// a relative 1e-6: the backends reduce the dot products in different
/// orders. The residuals are not compared: 40 iterations take them to
/// round-off (≈ 1e-40), where the reduction order alone moves them by
/// tens of percent.
fn assert_cg_matches_sim(backend: &str, got: (f64, f64), sim: (f64, f64)) {
    assert!(got.0 < 1e-8, "{backend}: decoupled CG must converge, residual {}", got.0);
    let rel = (got.1 - sim.1).abs() / sim.1;
    assert!(rel < 1e-6, "{backend}: solution error {} vs sim {}", got.1, sim.1);
}

#[test]
fn decoupled_cg_matches_sim_on_native() {
    let cfg = cg_cfg();
    let native = NativeWorld::new(CG_RANKS)
        .with_compute_scale(0.01)
        .run(|rank| decoupled_rank(rank, CG_RANKS, &cfg));
    assert_cg_matches_sim("native", cg_report(native), cg_decoupled_sim());
}

/// Figs. 2, 7 and 8's decoupled PIC in miniature, the shape `apps::pic`'s
/// own tests run: 8 ranks for the particle exchange (6 compute, 2 relay),
/// 16 for the particle I/O (12 compute, 4 I/O).
const PIC_RANKS: usize = 8;
const PIC_IO_RANKS: usize = 16;

fn pic_cfg() -> PicConfig {
    PicConfig {
        machine: MachineConfig { noise: NoiseModel::none(), ..MachineConfig::default() },
        actual_per_rank: 64,
        iterations: 4,
        alpha_every: 4,
        dt: 0.3,
        io_buffer_bytes: 64 << 20,
        ..PicConfig::default()
    }
}

/// The compute ranks' final particle counts of a decoupled exchange
/// (relays return 0) add up to the simulator's total and to the particles
/// generated, which a run of zero steps returns unmoved. Every compute
/// rank has already asserted each of its particles home:
/// [`comm_decoupled_rank`] panics otherwise.
fn assert_pic_comm_conserves(backend: &str, per_rank: Vec<u64>) {
    let generated = run_comm_decoupled(PIC_RANKS, &PicConfig { iterations: 0, ..pic_cfg() });
    let sim = run_comm_decoupled(PIC_RANKS, &pic_cfg());
    assert!(generated.final_particles > 0, "the compute ranks must hold particles");
    assert_eq!(sim.final_particles, generated.final_particles, "sim loses or invents particles");
    assert_eq!(per_rank.iter().sum::<u64>(), sim.final_particles, "{backend}: particle total");
}

#[test]
fn decoupled_pic_comm_conserves_particles_on_native() {
    let cfg = pic_cfg();
    let native = NativeWorld::new(PIC_RANKS)
        .with_compute_scale(0.01)
        .run(|rank| comm_decoupled_rank(rank, PIC_RANKS, &cfg));
    assert_pic_comm_conserves("native", native);
}

#[test]
fn socket_decoupled_pic_comm_conserves_particles() {
    let cfg = pic_cfg();
    let socket =
        socket::SocketWorld::for_test("socket_decoupled_pic_comm_conserves_particles", PIC_RANKS)
            .with_compute_scale(0.01)
            .run(|rank| comm_decoupled_rank(rank, PIC_RANKS, &cfg));
    assert_pic_comm_conserves("socket", socket);
}

/// One rank of the decoupled particle I/O over a file system fake that
/// counts: `[particles held, bytes written, files opened]`.
fn pic_io_counted<TP: Transport>(rank: &mut TP, cfg: &PicConfig) -> [u64; 3] {
    let (written, opened) = (Cell::new(0), Cell::new(0));
    let held = io_decoupled_rank(rank, PIC_IO_RANKS, cfg, &|_: &mut TP, op| match op {
        FsOp::Open => opened.set(opened.get() + 1),
        FsOp::Write(bytes) => written.set(written.get() + bytes),
    });
    [held, written.get(), opened.get()]
}

/// Summed over the ranks, the fake counted exactly what the simulator's
/// `pfsim` did in the same program.
fn assert_pic_io_matches_sim(backend: &str, cfg: &PicConfig, per_rank: Vec<[u64; 3]>) {
    let sum = |i: usize| per_rank.iter().map(|r| r[i]).sum::<u64>();
    let sim = run_io_decoupled(PIC_IO_RANKS, cfg);
    assert!(sim.bytes_written > 0, "the I/O group must write");
    assert_eq!(sum(0), sim.final_particles, "{backend}: particles held");
    assert_eq!(sum(1), sim.bytes_written, "{backend}: bytes written");
    assert_eq!(sum(2), sim.meta_ops, "{backend}: files opened");
}

/// The I/O group flat (every I/O rank opens and writes), then aggregated
/// into one writer block of four.
fn pic_io_shapes() -> [PicConfig; 2] {
    [pic_cfg(), PicConfig { io_writer_fan_in: Some(4), ..pic_cfg() }]
}

#[test]
fn decoupled_pic_io_matches_sim_on_native() {
    for cfg in pic_io_shapes() {
        let native = NativeWorld::new(PIC_IO_RANKS)
            .with_compute_scale(0.01)
            .run(|rank| pic_io_counted(rank, &cfg));
        assert_pic_io_matches_sim("native", &cfg, native);
    }
}

#[test]
fn socket_decoupled_pic_io_matches_sim() {
    let [cfg, _] = pic_io_shapes();
    let socket = socket::SocketWorld::for_test("socket_decoupled_pic_io_matches_sim", PIC_IO_RANKS)
        .with_compute_scale(0.01)
        .run(|rank| pic_io_counted(rank, &cfg));
    assert_pic_io_matches_sim("socket", &cfg, socket);
}

#[test]
fn socket_aggregated_pic_io_matches_sim() {
    let [_, cfg] = pic_io_shapes();
    let socket =
        socket::SocketWorld::for_test("socket_aggregated_pic_io_matches_sim", PIC_IO_RANKS)
            .with_compute_scale(0.01)
            .run(|rank| pic_io_counted(rank, &cfg));
    assert_pic_io_matches_sim("socket", &cfg, socket);
}

/// The flow-control regime the batched-credit equivalence tests run
/// under: a real window plus a mid-window acknowledgement batch, so the
/// consumer's credit return path actually exercises the accumulate/flush
/// logic on both backends.
fn batched_config() -> ChannelConfig {
    ChannelConfig {
        element_bytes: 1 << 10,
        aggregation: 2,
        credits: Some(8),
        credit_batch: 4,
        ..ChannelConfig::default()
    }
}

#[test]
fn quickstart_with_batched_credits_matches_across_backends() {
    let (_, sim) = World::new(MachineConfig::default())
        .with_seed(43)
        .run_expect(RANKS, |rank| quickstart_with(rank, STEPS, EVERY, batched_config()));
    let native = NativeWorld::new(RANKS)
        .with_compute_scale(0.01)
        .run(|rank| quickstart_with(rank, STEPS, EVERY, batched_config()));
    for (rank, (s, n)) in sim.iter().zip(&native).enumerate() {
        assert_eq!(s.sent, n.sent, "rank {rank}: streamed element count differs");
        assert_eq!(s.received, n.received, "rank {rank}: consumed payload multiset differs");
        if !s.received.is_empty() {
            assert_eq!(fingerprint(&s.received), fingerprint(&n.received));
        }
    }
    // The credited run consumed exactly what the uncredited run would:
    // flow control changes pacing, never content.
    let produced: u64 = sim.iter().map(|r| r.sent).sum();
    assert_eq!(produced, (RANKS - RANKS / EVERY) as u64 * STEPS as u64);
}

#[test]
fn mini_mapreduce_with_batched_credits_matches_oracle_on_both_backends() {
    const N: usize = 8;
    let cfg = MiniMrConfig { credits: Some(8), credit_batch: 4, ..MiniMrConfig::default() };
    let oracle = mini_mapreduce_oracle(N, &cfg);

    assert_eq!(mini_mapreduce_sim(N, 11, &cfg), oracle, "simulator master histogram != oracle");
    assert_eq!(mini_mapreduce_native(N, &cfg), oracle, "native master histogram != oracle");
}

/// One round of every collective in the Transport subset, observed as a
/// flat integer vector — a pure function of `(world size, round)`, so the
/// vector a rank sees must agree across backends exactly.
fn collective_observations<TP: Transport>(rank: &mut TP, rounds: u64) -> Vec<u64> {
    let world = rank.world_group();
    let me = rank.world_rank() as u64;
    let n = rank.world_size() as u64;
    // Reversed-key split: members ordered by descending world rank, so
    // group rank != world-rank order and any backend confusing the two
    // shows up in the allgather below.
    let sub = rank
        .split(&world, Some((rank.world_rank() % 2) as i64), -(me as i64))
        .expect("every rank has a color");
    // A split of the split product: halves of each parity cell, in
    // ascending world-rank order this time.
    let my_sr = sub.rank_of(rank.world_rank()).expect("member");
    let subsub = rank
        .split(&sub, Some((my_sr * 2 / sub.size()) as i64), me as i64)
        .expect("every rank has a color");
    let mut obs = Vec::new();
    for r in 0..rounds {
        rank.barrier(&world);
        obs.push(rank.allreduce(&world, 8, me + r, |a, b| *a += b));
        obs.extend(rank.allgatherv(&world, 8, me * 1000 + r));
        let root = (r % n) as usize;
        obs.push(rank.bcast(&world, root, 8, (rank.world_rank() == root).then_some(r * 7)));
        obs.push(rank.allreduce(&sub, 8, me, |a, b| *a = (*a).max(*b)));
        obs.extend(rank.allgatherv(&sub, 8, me));
        obs.push(my_sr as u64);
        // A non-zero root on the subgroup: the rotated overlay, over a
        // member list that is not in world-rank order.
        let sub_root = 1 + r as usize % (sub.size() - 1);
        obs.push(rank.bcast(&sub, sub_root, 8, (my_sr == sub_root).then_some(me * 31 + r)));
        obs.extend(rank.allgatherv(&subsub, 8, me));
        obs.push(rank.allreduce(&subsub, 8, me + r, |a, b| *a += b));
    }
    obs
}

const COLL_ROUNDS: u64 = 5;

/// Every rank's [`collective_observations`] on the simulator, in rank
/// order.
fn collectives_sim(nprocs: usize) -> Vec<Vec<u64>> {
    World::new(MachineConfig::default())
        .with_seed(3)
        .run_expect(nprocs, |rank| collective_observations(rank, COLL_ROUNDS))
        .1
}

#[test]
fn tree_collectives_agree_across_backends() {
    let sim = collectives_sim(RANKS);
    assert_eq!(sim.len(), RANKS);
    // Native at its default (the star at this size), then with the
    // binomial tree forced: `mpistream::coll`'s two shapes.
    let trees = NativeWorld::new(RANKS).with_coll_flat_threshold(0);
    for (shape, world) in [("default", NativeWorld::new(RANKS)), ("trees forced", trees)] {
        let native = world.run(|rank| collective_observations(rank, COLL_ROUNDS));
        for (rank, (n, s)) in native.iter().zip(&sim).enumerate() {
            assert_eq!(n, s, "native ({shape}) rank {rank} diverges from sim");
        }
    }
}

#[test]
fn native_channel_feeds_streamcheck_topology_extraction() {
    // `StreamChannel` is backend-free, so the `streamcheck` static pass
    // ingests a channel created over the native transport unchanged.
    let mut decls = NativeWorld::new(6).run(|rank| {
        let comm = rank.world_group();
        let spec = GroupSpec { every: 3 };
        let role = spec.role_of(rank.world_rank());
        let ch = StreamChannel::create(rank, &comm, role, ChannelConfig::default());
        let decl = streamcheck::ChannelDecl::from_channel("native-ch", &ch);
        // Tear the channel down cleanly so no rank is left waiting.
        match role {
            Role::Producer => {
                let mut s: mpistream::Stream<u64> = mpistream::Stream::attach(ch);
                s.terminate(rank);
            }
            Role::Consumer => {
                let mut s: mpistream::Stream<u64> = mpistream::Stream::attach(ch);
                s.operate(rank, |_, _| {});
            }
            Role::Bystander => {}
        }
        decl
    });
    // Rank 0's view of the channel.
    let decl = decls.swap_remove(0);
    assert_eq!(decl.producers, vec![0, 1, 3, 4]);
    assert_eq!(decl.consumers, vec![2, 5]);
}

// ---------------------------------------------------------------------
// Socket backend: the same portable programs across real OS processes.
//
// Each test below forks its world via `SocketWorld::for_test`, which
// re-executes this test binary once per rank with an `--exact` filter
// for the calling test — so the socket run sits FIRST in each fn (the
// re-executed children reach it and exit before any sim/native work),
// and each fn holds exactly one `SocketWorld::run`.
// ---------------------------------------------------------------------

#[test]
fn socket_quickstart_matches_sim_and_native() {
    // 16 ranks = 16 real OS processes speaking Wire frames over Unix
    // sockets (the acceptance bar is >= 4).
    let socket: Vec<(u64, Vec<u64>)> =
        socket::SocketWorld::for_test("socket_quickstart_matches_sim_and_native", RANKS)
            .with_compute_scale(0.01)
            .run(|rank| {
                let rep = quickstart(rank, STEPS, EVERY);
                (rep.sent, rep.received)
            });
    let sim = quickstart_sim();
    let native = quickstart_native();
    assert_eq!(socket.len(), RANKS);
    for (rank, (sent, received)) in socket.iter().enumerate() {
        assert_eq!(*sent, sim[rank].sent, "rank {rank}: socket sent count != sim");
        assert_eq!(received, &sim[rank].received, "rank {rank}: socket multiset != sim");
        assert_eq!(received, &native[rank].received, "rank {rank}: socket multiset != native");
        if !received.is_empty() {
            assert_eq!(fingerprint(received), fingerprint(&sim[rank].received));
        }
    }
    let produced: u64 = socket.iter().map(|(s, _)| s).sum();
    assert_eq!(produced, (RANKS - RANKS / EVERY) as u64 * STEPS as u64);
}

#[test]
fn socket_collectives_match_sim() {
    // Six processes: a tree with a clipped last level, and split cells of
    // three whose halves are uneven.
    const N: usize = 6;
    let socket: Vec<Vec<u64>> = socket::SocketWorld::for_test("socket_collectives_match_sim", N)
        .run(|rank| collective_observations(rank, COLL_ROUNDS));
    let sim = collectives_sim(N);
    for (rank, obs) in socket.iter().enumerate() {
        assert_eq!(*obs, sim[rank], "rank {rank}: collective observations diverge");
    }
}

#[test]
fn socket_mini_mapreduce_matches_oracle_and_sim() {
    const N: usize = 8;
    let socket_hists: Vec<Vec<u64>> =
        socket::SocketWorld::for_test("socket_mini_mapreduce_matches_oracle_and_sim", N)
            .with_compute_scale(0.01)
            .run(|rank| mini_mapreduce(rank, &MiniMrConfig::default()).unwrap_or_default());
    let cfg = MiniMrConfig::default();
    let oracle = mini_mapreduce_oracle(N, &cfg);
    assert!(oracle.iter().sum::<u64>() > 0, "oracle must count something");
    // Exactly one rank (the master) reports a histogram; counts are
    // integer merges, so the cross-process result is exact.
    let masters: Vec<&Vec<u64>> = socket_hists.iter().filter(|h| !h.is_empty()).collect();
    assert_eq!(masters.len(), 1, "exactly one master histogram");
    assert_eq!(*masters[0], oracle, "socket master histogram != oracle");

    assert_eq!(*masters[0], mini_mapreduce_sim(N, 7, &cfg), "socket master histogram != sim");
    assert_eq!(fingerprint(masters[0]), fingerprint(&oracle));
}

#[test]
fn socket_decoupled_cg_matches_sim() {
    let cfg = cg_cfg();
    let socket = socket::SocketWorld::for_test("socket_decoupled_cg_matches_sim", CG_RANKS)
        .with_compute_scale(0.01)
        .run(|rank| decoupled_rank(rank, CG_RANKS, &cfg));
    assert_cg_matches_sim("socket", cg_report(socket), cg_decoupled_sim());
}

#[test]
fn socket_channel_feeds_streamcheck_topology_extraction() {
    // Mirror of `native_channel_feeds_streamcheck_topology_extraction`:
    // the declaration extracted from a socket-backed channel feeds the
    // same SC001–SC006 static pass.
    let decls: Vec<(Vec<usize>, Vec<usize>)> =
        socket::SocketWorld::for_test("socket_channel_feeds_streamcheck_topology_extraction", 6)
            .run(|rank| {
                let comm = rank.world_group();
                let spec = GroupSpec { every: 3 };
                let role = spec.role_of(rank.world_rank());
                let ch = StreamChannel::create(rank, &comm, role, ChannelConfig::default());
                let decl = streamcheck::ChannelDecl::from_channel("socket-ch", &ch);
                // Tear the channel down cleanly so no rank is left waiting.
                match role {
                    Role::Producer => {
                        let mut s: mpistream::Stream<u64> = mpistream::Stream::attach(ch);
                        s.terminate(rank);
                    }
                    Role::Consumer => {
                        let mut s: mpistream::Stream<u64> = mpistream::Stream::attach(ch);
                        s.operate(rank, |_, _| {});
                    }
                    Role::Bystander => {}
                }
                (decl.producers, decl.consumers)
            });
    // Every process extracted the same topology, and it matches the
    // native/sim one for `every: 3` over 6 ranks.
    for (rank, (producers, consumers)) in decls.iter().enumerate() {
        assert_eq!(*producers, vec![0, 1, 3, 4], "rank {rank}: producer set");
        assert_eq!(*consumers, vec![2, 5], "rank {rank}: consumer set");
    }
}
