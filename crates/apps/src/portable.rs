//! Portable stream applications — the same programs on every backend.
//!
//! The functions here are written once, generic over [`Transport`], and
//! run unchanged on all three backends: the discrete-event simulator
//! (`mpisim::Rank`), native threads (`native::NativeRank`) and
//! multi-process sockets (`socket::SocketRank`). They are the substrate
//! of the cross-backend equivalence tests: both take only deterministic
//! inputs (world rank, step number, a splitmix recurrence), route over
//! [`RoutePolicy::Static`] or explicit keyed partitioning, and report the
//! payloads each consumer received — so the *per-consumer payload
//! multisets* must agree between backends even though arrival order (and
//! on the native backend, wall-clock timing) differs run to run.
//!
//! [`RoutePolicy::Static`]: mpistream::RoutePolicy::Static

use mpistream::{run_decoupled, ChannelConfig, GroupSpec, Role, Transport};

use crate::mapreduce::{count_words, decoupled_rank, DecoupledShape};

// ---------------------------------------------------------------------
// Quickstart (the paper's Listing 1)
// ---------------------------------------------------------------------

/// One workload report streamed to the analysis group.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkloadUpdate {
    pub rank: usize,
    pub step: usize,
    pub work_units: u64,
}

mpistream::wire_struct!(WorkloadUpdate { rank, step, work_units });

/// The work units of compute rank `rank` over `steps` steps of Listing 1
/// (`steps + 1` values): element `s` is step `s`'s `Calculation()` —
/// imbalanced across ranks, perturbed each step — and element `s + 1` is
/// the changed workload step `s` streams to the analysis group.
pub fn workload(rank: usize, steps: usize) -> Vec<u64> {
    let mut work = 1_000u64 + (rank as u64 * 37) % 500;
    let mut out = vec![work];
    for step in 0..steps {
        work = work.wrapping_mul(6364136223846793005).wrapping_add(step as u64) % 2_000 + 500;
        out.push(work);
    }
    out
}

/// Serial oracle for Listing 1: every update the compute ranks `ranks`
/// stream over `steps` steps, sorted.
pub fn workload_updates(ranks: impl IntoIterator<Item = usize>, steps: usize) -> Vec<u64> {
    let mut all: Vec<u64> =
        ranks.into_iter().flat_map(|r| workload(r, steps).into_iter().skip(1)).collect();
    all.sort_unstable();
    all
}

/// What one rank saw during a portable run: its role, how many elements it
/// streamed (producers), and the sorted payload values it consumed
/// (consumers). The consumer payloads are the cross-backend invariant.
#[derive(Clone, Debug, Default)]
pub struct PortableReport {
    /// Elements this rank streamed into the channel (producers).
    pub sent: u64,
    /// Sorted payload values this rank consumed (consumers; empty
    /// otherwise). Sorted so the report is an order-insensitive multiset.
    pub received: Vec<u64>,
}

/// Everything the callers of [`listing1`] vary.
#[derive(Clone, Debug)]
pub struct Listing1Shape {
    /// Calculation steps per compute rank.
    pub steps: usize,
    /// One analysis rank per `every` ranks (the paper's α = 1/`every`).
    pub every: usize,
    /// The update channel.
    pub channel: ChannelConfig,
    /// Modelled compute seconds per work unit of `Calculation()`.
    pub secs_per_unit: f64,
    /// Modelled analysis seconds per work unit of a received update. At 0
    /// the analysis makes no `compute` call at all (a profiled rank
    /// records a span even for `compute(0.0)`).
    pub analysis_secs_per_unit: f64,
}

/// The quickstart program of `examples/quickstart.rs`: [`listing1`] at
/// 1e-7 s per work unit over a 1 KiB channel, with a free analysis.
pub fn quickstart<TP: Transport>(rank: &mut TP, steps: usize, every: usize) -> PortableReport {
    quickstart_with(
        rank,
        steps,
        every,
        ChannelConfig { element_bytes: 1 << 10, ..ChannelConfig::default() },
    )
}

/// [`quickstart`] with an explicit [`ChannelConfig`] — the hook the
/// cross-backend tests use to drive the same program through different
/// flow-control regimes (credit windows, batched acknowledgements,
/// aggregation) and assert the consumed multisets stay identical.
pub fn quickstart_with<TP: Transport>(
    rank: &mut TP,
    steps: usize,
    every: usize,
    config: ChannelConfig,
) -> PortableReport {
    let shape = Listing1Shape {
        steps,
        every,
        channel: config,
        secs_per_unit: 1e-7,
        analysis_secs_per_unit: 0.0,
    };
    listing1(rank, &shape)
}

/// The paper's Listing 1, generic over the transport: a computation group
/// alternates `Calculation()` with streaming workload updates to a small
/// analysis group that folds them first-come-first-served.
///
/// Every streamed `work_units` value comes from [`workload`], a pure
/// function of `(rank, step)`, and the channel routes statically
/// (producer `i` feeds consumer `i % n_consumers`), so each analysis
/// rank's received *multiset* is identical on every backend.
pub fn listing1<TP: Transport>(rank: &mut TP, shape: &Listing1Shape) -> PortableReport {
    let comm = rank.world_group();
    let spec = GroupSpec { every: shape.every };
    let my_role = spec.role_of(rank.world_rank());
    let mut report = PortableReport::default();
    let received = &mut report.received;
    let stats = run_decoupled::<WorkloadUpdate, _, _, _>(
        rank,
        &comm,
        spec,
        shape.channel.clone(),
        // --- computation group ---
        |rank, p| {
            let me = rank.world_rank();
            for (step, work) in workload(me, shape.steps).windows(2).enumerate() {
                rank.compute(work[0] as f64 * shape.secs_per_unit);
                // if (hasWorkloadChanges) MPIStream_Isend(...)
                p.stream.isend(rank, WorkloadUpdate { rank: me, step, work_units: work[1] });
            }
        },
        // --- analysis group ---
        |rank, c| {
            c.stream.operate(rank, |rank, update: WorkloadUpdate| {
                if shape.analysis_secs_per_unit > 0.0 {
                    rank.compute(update.work_units as f64 * shape.analysis_secs_per_unit);
                }
                received.push(update.work_units);
            });
            received.sort_unstable();
        },
    );
    if my_role == Role::Producer {
        report.sent = stats.elements;
    }
    report
}

// ---------------------------------------------------------------------
// Mini MapReduce (a scaled-down Fig. 5 topology)
// ---------------------------------------------------------------------

/// Tunables of the portable mini MapReduce: a synthetic token stream
/// replaces the simulated corpus/PFS so the program depends on nothing but
/// the transport.
#[derive(Clone, Debug)]
pub struct MiniMrConfig {
    /// One reduce rank per `every` ranks (the paper's `alpha`).
    pub every: usize,
    /// Word-id space of the synthetic token stream.
    pub vocab: usize,
    /// Streamed chunks per mapper.
    pub chunks_per_mapper: usize,
    /// Tokens hashed into each chunk.
    pub tokens_per_chunk: usize,
    /// Credit window applied to both stream channels (`None` = unbounded,
    /// the original configuration).
    pub credits: Option<usize>,
    /// Credit acknowledgement batch applied to both stream channels.
    pub credit_batch: usize,
    /// Producer-side combiner: merge this many same-reducer chunks into
    /// one stream element before it enters the map-output channel (1 =
    /// off). Integer count merging — exact on every backend, no
    /// reduction-order caveat.
    pub combine_every: usize,
    /// Interpose a reduction tree with this fan-in between the local
    /// reducers and the master (`None` = the flat relay).
    pub tree_fan_in: Option<usize>,
}

impl Default for MiniMrConfig {
    fn default() -> Self {
        MiniMrConfig {
            every: 4,
            vocab: 97,
            chunks_per_mapper: 8,
            tokens_per_chunk: 64,
            credits: None,
            credit_batch: 1,
            combine_every: 1,
            tree_fan_in: None,
        }
    }
}

/// splitmix64 — the deterministic token generator shared by the mappers
/// and the serial oracle.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Token `i` of chunk `chunk` on mapper index `mi`.
fn token(cfg: &MiniMrConfig, mi: usize, chunk: usize, i: usize) -> u32 {
    let seq = (mi * cfg.chunks_per_mapper + chunk) * cfg.tokens_per_chunk + i;
    (mix64(seq as u64) % cfg.vocab as u64) as u32
}

/// The paper's Fig. 5 dataflow in miniature: [`decoupled_rank`] — the
/// program `mapreduce::run_decoupled` runs on the simulator, not a
/// transcription of it — fed a synthetic token stream, every channel
/// sharing one configuration. Returns `Some(histogram)` on the master,
/// `None` elsewhere.
///
/// `combine_every` and `tree_fan_in` are Fig. 5's two aggregation
/// operators. All merging is integer count addition, so the result is
/// exact on every backend (a floating combiner would inherit the
/// reduction-order caveat of DESIGN.md §11).
///
/// The token stream is a pure function of the mapper index, so the
/// master's histogram equals [`mini_mapreduce_oracle`] on every backend.
pub fn mini_mapreduce<TP: Transport>(rank: &mut TP, cfg: &MiniMrConfig) -> Option<Vec<u64>> {
    let channel = ChannelConfig {
        element_bytes: 1 << 10,
        credits: cfg.credits,
        credit_batch: cfg.credit_batch,
        ..ChannelConfig::default()
    };
    let shape = DecoupledShape {
        every: cfg.every,
        vocab: cfg.vocab,
        map_output: channel.clone(),
        to_master: channel.clone(),
        tree: channel,
        combine_every: cfg.combine_every,
        tree_fan_in: cfg.tree_fan_in,
    };
    decoupled_rank(rank, &shape, |rank, mi, _n_mappers, emit| {
        // Count each synthetic chunk and hand its sorted pairs on.
        for chunk in 0..cfg.chunks_per_mapper {
            let tokens = (0..cfg.tokens_per_chunk).map(|i| token(cfg, mi, chunk, i));
            rank.compute(cfg.tokens_per_chunk as f64 * 50e-9);
            emit(rank, count_words(tokens));
        }
    })
}

/// Serial oracle for [`mini_mapreduce`]: the histogram the master must
/// produce for a world of `nprocs` ranks, independent of any transport.
pub fn mini_mapreduce_oracle(nprocs: usize, cfg: &MiniMrConfig) -> Vec<u64> {
    let nmap = GroupSpec { every: cfg.every }.members(nprocs).0.len();
    let mut hist = vec![0u64; cfg.vocab];
    for mi in 0..nmap {
        for chunk in 0..cfg.chunks_per_mapper {
            for i in 0..cfg.tokens_per_chunk {
                hist[token(cfg, mi, chunk, i) as usize] += 1;
            }
        }
    }
    hist
}

/// Order-insensitive fingerprint of a payload multiset: sort a copy, then
/// fold each value through splitmix64. Two backends that deliver the same
/// multiset — in any order — produce the same fingerprint.
pub fn fingerprint(values: &[u64]) -> u64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let mut h = 0xcbf29ce484222325u64;
    for v in sorted {
        h = mix64(h ^ v);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::{MachineConfig, World};

    #[test]
    fn quickstart_consumers_see_every_update_in_sim() {
        let (_, reports) = World::new(MachineConfig::default())
            .with_seed(7)
            .run_expect(16, |rank| quickstart(rank, 10, 8));
        let produced: u64 = reports.iter().map(|r| r.sent).sum();
        let consumed: usize = reports.iter().map(|r| r.received.len()).sum();
        assert_eq!(produced, 14 * 10); // 14 producers, 10 steps each
        assert_eq!(consumed as u64, produced);
    }

    #[test]
    fn mini_mapreduce_matches_oracle_in_sim() {
        let cfg = MiniMrConfig::default();
        let cfg2 = cfg.clone();
        let (_, hists) = World::new(MachineConfig::default())
            .with_seed(9)
            .run_expect(8, move |rank| mini_mapreduce(rank, &cfg2));
        assert_eq!(
            hists.into_iter().flatten().collect::<Vec<_>>(),
            [mini_mapreduce_oracle(8, &cfg)]
        );
    }

    #[test]
    fn tree_aggregated_mini_mapreduce_matches_oracle_in_sim() {
        // Combiners on the mappers + a fan-in-2 reduction tree between the
        // local reducers and the master: same histogram, exactly (integer
        // count merging has no reduction-order sensitivity).
        let cfg =
            MiniMrConfig { combine_every: 4, tree_fan_in: Some(2), ..MiniMrConfig::default() };
        let cfg2 = cfg.clone();
        let (_, hists) = World::new(MachineConfig::default())
            .with_seed(11)
            .run_expect(16, move |rank| mini_mapreduce(rank, &cfg2));
        assert_eq!(
            hists.into_iter().flatten().collect::<Vec<_>>(),
            [mini_mapreduce_oracle(16, &cfg)]
        );
    }

    #[test]
    fn fingerprint_is_order_insensitive() {
        assert_eq!(fingerprint(&[3, 1, 2]), fingerprint(&[1, 2, 3]));
        assert_ne!(fingerprint(&[1, 2, 3]), fingerprint(&[1, 2, 4]));
        assert_ne!(fingerprint(&[1]), fingerprint(&[1, 1]));
    }
}
