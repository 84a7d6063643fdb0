//! Decoupled workload analysis — the paper's Listing 1 as a case study.
//!
//! An application alternates `Calculation()` with an analysis of the
//! workload distribution across processes (min / max / median), a common
//! load-balancing ingredient. Conventionally this costs three global
//! reductions per analysis round ("often the bottleneck of scalability");
//! decoupled, the computation group streams workload updates to a small
//! analysis group that digests them on the fly. The decoupled program is
//! [`listing1`]; this module runs it, and the reference, in simulated
//! worlds.

use mpisim::{MachineConfig, World, WorldOutcome};
use mpistream::{run_decoupled, ChannelConfig, GroupSpec, Transport};

use crate::portable::{listing1, workload, workload_updates, Listing1Shape, WorkloadUpdate};

/// Distribution digest the analysis group maintains.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkloadDigest {
    pub samples: u64,
    pub min: u64,
    pub max: u64,
    pub median: u64,
}

/// Exact min/max/median over a set of samples (the analysis operator).
pub fn min_max_median(samples: &mut [u64]) -> WorkloadDigest {
    if samples.is_empty() {
        return WorkloadDigest::default();
    }
    samples.sort_unstable();
    WorkloadDigest {
        samples: samples.len() as u64,
        min: samples[0],
        max: samples[samples.len() - 1],
        median: samples[samples.len() / 2],
    }
}

/// Tunables of the analysis case study.
#[derive(Clone, Debug)]
pub struct AnalysisConfig {
    pub machine: MachineConfig,
    pub seed: u64,
    /// Calculation steps per rank.
    pub steps: usize,
    /// Modelled seconds per work unit.
    pub secs_per_unit: f64,
    /// One analysis rank per `alpha_every` (decoupled only).
    pub alpha_every: usize,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            machine: MachineConfig::default(),
            seed: 0xA11A,
            steps: 50,
            secs_per_unit: 1e-7,
            alpha_every: 16,
        }
    }
}

impl AnalysisConfig {
    /// The simulated world every run of this case study launches.
    fn world(&self) -> World {
        World::new(self.machine.clone()).with_seed(self.seed)
    }

    /// This case study as a [`listing1`] run over `element_bytes`
    /// elements. With `analysis_cost`, a consumer's total analysis work
    /// matches one producer's compute work, which gives Eq. 4 a modelled
    /// `T_W1` to overlap; without it the effective β is trivially 1.
    fn listing1(&self, element_bytes: u64, analysis_cost: bool) -> Listing1Shape {
        let fan_in = (self.alpha_every - 1).max(1) as f64;
        Listing1Shape {
            steps: self.steps,
            every: self.alpha_every,
            channel: ChannelConfig { element_bytes, ..ChannelConfig::default() },
            secs_per_unit: self.secs_per_unit,
            analysis_secs_per_unit: if analysis_cost { self.secs_per_unit / fan_in } else { 0.0 },
        }
    }
}

/// Result of one analysis run.
pub struct AnalysisResult {
    pub outcome: WorldOutcome,
    /// Digest over every `(rank, step)` sample.
    pub digest: WorkloadDigest,
}

/// Serial oracle over the samples of ranks `0..compute_ranks`.
pub fn oracle(compute_ranks: usize, steps: usize) -> WorkloadDigest {
    min_max_median(&mut workload_updates(0..compute_ranks, steps))
}

/// Conventional implementation: every rank joins three reductions per
/// step (min, max, and a median stand-in via a full gather at a root —
/// medians do not decompose, which is exactly why this pattern hurts).
pub fn run_reference(nprocs: usize, cfg: &AnalysisConfig) -> AnalysisResult {
    let cfg2 = cfg.clone();
    let (outcome, digests) = cfg.world().run_expect(nprocs, move |rank| {
        let comm = rank.comm_world();
        let me = rank.world_rank();
        let mut all: Vec<u64> = Vec::new();
        for work in workload(me, cfg2.steps).windows(2) {
            rank.compute(work[0] as f64 * cfg2.secs_per_unit);
            let w = work[1];
            // min and max reduce cheaply...
            let _ = rank.allreduce(&comm, 8, w, |a, b| *a = (*a).min(*b));
            let _ = rank.allreduce(&comm, 8, w, |a, b| *a = (*a).max(*b));
            // ...but the median needs the samples themselves.
            if let Some(ws) = rank.gatherv(&comm, 0, 8, w) {
                all.extend(ws);
            }
        }
        (me == 0).then(|| min_max_median(&mut all))
    });
    let digest = digests.into_iter().next().flatten().expect("rank 0 assembles the digest");
    AnalysisResult { outcome, digest }
}

/// Decoupled implementation: [`listing1`], with the digest taken over
/// every analysis rank's samples once the world has joined.
pub fn run_decoupled_analysis(nprocs: usize, cfg: &AnalysisConfig) -> AnalysisResult {
    let shape = cfg.listing1(1 << 10, false);
    let (outcome, reports) = cfg.world().run_expect(nprocs, move |rank| listing1(rank, &shape));
    let mut all: Vec<u64> = reports.into_iter().flat_map(|r| r.received).collect();
    AnalysisResult { outcome, digest: min_max_median(&mut all) }
}

/// Profiled decoupled analysis run for granularity sweeps: [`listing1`]
/// under `streamprof` instrumentation, with the channel granularity `S`
/// (`element_bytes`) as a parameter and a modelled per-update analysis
/// cost. Returns the virtual makespan and the recorded trace — the
/// substrate for fitting the paper's β(S)/Tσ from observations instead of
/// assuming them (see `examples/alpha_tuning.rs`).
pub fn run_profiled_analysis(
    nprocs: usize,
    cfg: &AnalysisConfig,
    element_bytes: u64,
) -> (f64, streamprof::Trace) {
    let sink = streamprof::ProfSink::new(streamprof::Clock::Virtual);
    let s2 = sink.clone();
    let shape = cfg.listing1(element_bytes, true);
    let (outcome, _) = cfg.world().run_expect(nprocs, move |rank| {
        listing1(&mut streamprof::Profiled::new(rank, s2.clone()), &shape)
    });
    (outcome.elapsed_secs(), sink.take())
}

/// The granularity-sweep run of [`run_profiled_analysis`] with a
/// producer-side [`Combiner`](mpistream::Combiner) in front of the update
/// stream: `combine_every` per-step updates destined for the same
/// consumer are merged into one batch element before it enters the
/// channel, so the per-element overhead `o` of Eq. 4 is paid once per
/// batch instead of once per update. `combine_every = 1` is the
/// degenerate no-combining case (identical message count to pushing each
/// update straight into the stream), which makes the two fits directly
/// comparable: same routing, same bytes, only the fold factor differs.
///
/// Returns the virtual makespan, the recorded trace, and the combiner
/// counters summed over the producers (fold factor ≈ `combine_every`).
pub fn run_profiled_combined_analysis(
    nprocs: usize,
    cfg: &AnalysisConfig,
    element_bytes: u64,
    combine_every: usize,
) -> (f64, streamprof::Trace, mpistream::CombinerStats) {
    use mpistream::{Combiner, CombinerStats};
    let sink = streamprof::ProfSink::new(streamprof::Clock::Virtual);
    let s2 = sink.clone();
    let shape = cfg.listing1(element_bytes, true);
    let (outcome, per_rank) = cfg.world().run_expect(nprocs, move |rank| {
        let mut rank = streamprof::Profiled::new(rank, s2.clone());
        let comm = rank.world_group();
        let mut stats = CombinerStats::default();
        run_decoupled::<Vec<WorkloadUpdate>, _, _, _>(
            &mut rank,
            &comm,
            GroupSpec { every: shape.every },
            shape.channel.clone(),
            |rank, p| {
                let me = rank.world_rank();
                let nc = p.stream.channel().consumers().len();
                let mut comb = Combiner::new(p.stream, combine_every);
                for (step, work) in workload(me, shape.steps).windows(2).enumerate() {
                    rank.compute(work[0] as f64 * shape.secs_per_unit);
                    let update = vec![WorkloadUpdate { rank: me, step, work_units: work[1] }];
                    comb.push(rank, p.stream, me % nc, update, |acc, mut e| {
                        acc.append(&mut e);
                    });
                }
                stats = comb.finish(rank, p.stream);
            },
            |rank, c| {
                c.stream.operate(rank, |rank, batch| {
                    for u in batch {
                        rank.compute(u.work_units as f64 * shape.analysis_secs_per_unit);
                    }
                });
            },
        );
        stats
    });
    let stats = per_rank.iter().fold(CombinerStats::default(), |sum, s| CombinerStats {
        folded: sum.folded + s.folded,
        emitted: sum.emitted + s.emitted,
    });
    (outcome.elapsed_secs(), sink.take(), stats)
}

/// Communication topology of [`run_decoupled_analysis`] (Listing 1) for
/// the `streamcheck` static pass: a single statically-routed update stream
/// from the computation group to the analysis group.
pub fn topology(nprocs: usize, cfg: &AnalysisConfig) -> streamcheck::Topology {
    use streamcheck::{ChannelDecl, GroupDecl, Topology};
    let (g0, g1) = GroupSpec { every: cfg.alpha_every }.members(nprocs);
    Topology::new(nprocs)
        .group(GroupDecl::new("computation", g0.clone()))
        .group(GroupDecl::new("analysis", g1.clone()))
        .channel(ChannelDecl::new(
            "updates",
            g0,
            g1,
            ChannelConfig { element_bytes: 1 << 10, ..ChannelConfig::default() },
        ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::NoiseModel;

    fn cfg() -> AnalysisConfig {
        AnalysisConfig {
            machine: MachineConfig { noise: NoiseModel::none(), ..MachineConfig::default() },
            steps: 12,
            alpha_every: 4,
            ..AnalysisConfig::default()
        }
    }

    #[test]
    fn min_max_median_handles_edges() {
        assert_eq!(min_max_median(&mut []), WorkloadDigest::default());
        let mut one = vec![7];
        assert_eq!(
            min_max_median(&mut one),
            WorkloadDigest { samples: 1, min: 7, max: 7, median: 7 }
        );
        let mut v = vec![5, 1, 9, 3, 7];
        let d = min_max_median(&mut v);
        assert_eq!((d.min, d.median, d.max), (1, 5, 9));
    }

    #[test]
    fn reference_digest_matches_oracle() {
        let c = cfg();
        let res = run_reference(8, &c);
        assert_eq!(res.digest, oracle(8, c.steps));
    }

    #[test]
    fn decoupled_digest_matches_oracle_over_compute_ranks() {
        let c = cfg();
        // 8 ranks, every=4: compute ranks are 0,1,2,4,5,6 — the oracle
        // must cover exactly those trajectories.
        let res = run_decoupled_analysis(8, &c);
        let mut all = workload_updates([0, 1, 2, 4, 5, 6], c.steps);
        assert_eq!(res.digest, min_max_median(&mut all));
    }

    #[test]
    fn decoupling_pays_off_when_reductions_dominate() {
        // Make compute cheap so the three-collectives-per-step pattern is
        // the bottleneck the paper describes.
        let c = AnalysisConfig { secs_per_unit: 1e-9, steps: 30, ..cfg() };
        let t_ref = run_reference(64, &c).outcome.elapsed_secs();
        let t_dec = run_decoupled_analysis(64, &c).outcome.elapsed_secs();
        assert!(
            t_dec < t_ref,
            "decoupled analysis ({t_dec}) must beat per-step reductions ({t_ref})"
        );
    }

    #[test]
    fn profiled_analysis_yields_a_fittable_trace() {
        let c = cfg();
        let (makespan, trace) = run_profiled_analysis(8, &c, 1 << 10);
        assert!(makespan > 0.0);
        assert!((trace.makespan_secs() - makespan).abs() < 1e-9);
        let report = streamprof::fit(&trace).expect("trace carries stream counters");
        // 8 ranks, every=4: six producers feed two consumers.
        assert_eq!(report.producers, vec![0, 1, 2, 4, 5, 6]);
        assert_eq!(report.consumers, vec![3, 7]);
        assert_eq!(report.elems_mean, c.steps as f64);
        assert!(report.overhead_o > 0.0);
        assert!((0.0..=1.0).contains(&report.beta_eff));
        // Determinism: the profiled run is a pure simulation.
        let (m2, t2) = run_profiled_analysis(8, &c, 1 << 10);
        assert_eq!(makespan, m2);
        assert_eq!(trace.to_chrome_json(), t2.to_chrome_json());
    }

    #[test]
    fn combined_profiled_analysis_amortizes_per_element_overhead() {
        let c = cfg();
        let (m1, t1, s1) = run_profiled_combined_analysis(8, &c, 1 << 10, 1);
        let (m4, t4, s4) = run_profiled_combined_analysis(8, &c, 1 << 10, 4);
        // Same logical updates either way; combining divides the emitted
        // element count by the fold factor (exactly, since steps % 4 == 0).
        assert_eq!(s1.folded, s4.folded);
        assert_eq!(s1.emitted, s1.folded);
        assert_eq!(s4.emitted, s4.folded / 4);
        assert!((s4.fold_factor() - 4.0).abs() < 1e-9);
        // Both traces fit, and the combined stream carries 1/4 the elements.
        let f1 = streamprof::fit(&t1).expect("uncombined trace fits");
        let f4 = streamprof::fit(&t4).expect("combined trace fits");
        assert!((f1.elems_mean - c.steps as f64).abs() < 1e-9);
        assert!((f4.elems_mean - c.steps as f64 / 4.0).abs() < 1e-9);
        // The amortization the operator exists for: overhead_o is paid per
        // *emitted* element, so the cost per logical update falls by about
        // the fold factor (at this tiny scale the makespan itself is
        // overlap-dominated and not the discriminating signal).
        let per_update_1 = f1.overhead_o;
        let per_update_4 = f4.overhead_o * s4.emitted as f64 / s4.folded as f64;
        assert!(
            per_update_4 < 0.5 * per_update_1,
            "combining must amortize per-update overhead: {per_update_4:.3e} vs {per_update_1:.3e}"
        );
        assert!(m1 > 0.0 && m4 > 0.0);
    }

    #[test]
    fn workload_trajectories_are_deterministic() {
        assert_eq!(workload(3, 5), workload(3, 5));
        assert_ne!(workload(3, 5), workload(4, 5));
        // A longer run extends the trajectory; it does not change its prefix.
        assert_eq!(workload(3, 5), workload(3, 6)[..6]);
        for r in 0..20 {
            assert!(workload(r, 20).iter().all(|w| (500..2500).contains(w)));
        }
    }
}
