//! # perfmodel — the decoupling performance model (§II-D, Eqs. 1–4)
//!
//! The paper analyses decoupling with a two-operation model. An
//! application runs `Op0` (kept on the compute group) and `Op1` (decoupled
//! to a fraction `α` of the processes), with:
//!
//! - `T_W0`, `T_W1` — per-process time of each operation in the
//!   conventional run on `P` processes,
//! - `Tσ` — expected idle time from process imbalance at staged
//!   synchronization points,
//! - `β(S)` — the *non-overlapped* fraction of `Op0` as a function of the
//!   stream granularity `S` (β=0: perfect pipeline, β=1: no pipeline),
//! - `o` — per-stream-element overhead, `D` — total transferred data.
//!
//! **Eq. 1** (conventional): `Tc = T_W0 + Tσ + T_W1`
//!
//! **Eq. 2** (parallel groups): `Td = max(T_W0/(1−α) + Tσ, T'_W1)`
//!
//! **Eq. 3** (pessimistic pipeline): `Td = β·(T_W0/(1−α) + Tσ) + T'_W1`
//!
//! **Eq. 4** (with overhead): `Td = β(S)·(T_W0/(1−α) + Tσ + D/S·o) + T'_W1`
//!
//! `T'_W1` is the decoupled operation's per-process time on the `α·P`
//! group. For perfectly divisible work it is the paper's `T_W1/α` (fewer
//! processes, more work each); for complexity-bound operations —
//! collectives, all-to-all metadata — it *shrinks* when the group shrinks,
//! which is exactly the paper's criterion for profitable decoupling
//! (`T'_W1 ≪ T_W1 when P1 ≪ P`). The [`Complexity`] family captures how
//! the per-process time rescales between group sizes.

/// How the decoupled operation's *per-process time* rescales when the
/// executing group changes from `p_from` to `p_to` processes (total
/// workload held fixed).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Complexity {
    /// Perfectly divisible work: per-process time ∝ 1/p. Moving to a
    /// smaller group makes each member proportionally slower — the `1/α`
    /// factor of Eq. 2.
    Divisible,
    /// Latency-/tree-bound collectives: per-process time ∝ log₂(2p).
    /// Shrinking the group genuinely reduces the operation's cost.
    LogP,
    /// Per-process time ∝ p (e.g. the naive everyone-informs-everyone
    /// particle exchange, O(P²) total).
    LinearP,
    /// Per-process time ∝ p^γ (γ = −1 ≡ `Divisible`, γ = 1 ≡ `LinearP`).
    PowerP { gamma: f64 },
}

impl Complexity {
    /// Multiplier on the per-process time when moving the operation from
    /// a `p_from`-process group to a `p_to`-process group.
    pub fn rescale(&self, p_from: usize, p_to: usize) -> f64 {
        let from = p_from.max(1) as f64;
        let to = p_to.max(1) as f64;
        match *self {
            Complexity::Divisible => from / to,
            Complexity::LogP => (2.0 * to).log2() / (2.0 * from).log2(),
            Complexity::LinearP => to / from,
            Complexity::PowerP { gamma } => (to / from).powf(gamma),
        }
    }
}

/// Families of β(S) curves. The paper only states that finer granularity
/// improves pipelining; we use the standard saturating form
/// `β(S) = β∞ + (1 − β∞) · S / (S + S₀)` — β → β∞ as S → 0 (finest
/// granularity pipelines best) and β → 1 as S → ∞ (one giant element
/// cannot overlap anything).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Beta {
    /// Best achievable non-overlap (0 = perfect pipelining possible).
    pub beta_min: f64,
    /// Granularity scale at which pipelining starts degrading (bytes).
    pub s0: f64,
}

impl Beta {
    pub fn new(beta_min: f64, s0: f64) -> Beta {
        assert!((0.0..=1.0).contains(&beta_min));
        assert!(s0 > 0.0);
        Beta { beta_min, s0 }
    }

    /// β at granularity `s` bytes.
    pub fn at(&self, s: f64) -> f64 {
        assert!(s > 0.0, "granularity must be positive");
        self.beta_min + (1.0 - self.beta_min) * s / (s + self.s0)
    }
}

/// The model's description of one decoupling scenario.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Per-process time of the kept operation, conventional run (s).
    pub t_w0: f64,
    /// Per-process time of the decoupled operation, conventional run (s).
    pub t_w1: f64,
    /// How `Op1`'s per-process time rescales with group size.
    pub complexity: Complexity,
    /// Expected imbalance penalty (s).
    pub t_sigma: f64,
    /// Total data streamed between groups (bytes).
    pub data_d: u64,
    /// Per-stream-element overhead (s).
    pub overhead_o: f64,
    /// Total number of processes.
    pub p: usize,
    /// Pipelining curve β(S).
    pub beta: Beta,
    /// Application-specific speedup of the decoupled operation on its
    /// dedicated group (§II-E: "aggressively optimized ... with
    /// application-specific knowledge"), e.g. buffering for I/O or batch
    /// processing for reductions. 1.0 = no optimization.
    pub op1_optimization: f64,
}

impl Scenario {
    /// Eq. 1: conventional staged execution.
    pub fn conventional(&self) -> f64 {
        self.t_w0 + self.t_sigma + self.t_w1
    }

    /// `T'_W1`: per-process time of `Op1` on the `α·P` group.
    pub fn t_w1_decoupled(&self, alpha: f64) -> f64 {
        let group = ((alpha * self.p as f64).round() as usize).max(1);
        self.t_w1 * self.complexity.rescale(self.p, group) / self.op1_optimization.max(1e-12)
    }

    /// The compute-group term of Eqs. 2–4: `T_W0/(1−α) + Tσ`.
    pub fn t_w0_inflated(&self, alpha: f64) -> f64 {
        assert!(alpha > 0.0 && alpha < 1.0, "alpha in (0,1), got {alpha}");
        self.t_w0 / (1.0 - alpha) + self.t_sigma
    }

    /// Eq. 2: perfectly parallel groups (upper bound on benefit).
    pub fn decoupled_ideal(&self, alpha: f64) -> f64 {
        self.t_w0_inflated(alpha).max(self.t_w1_decoupled(alpha))
    }

    /// Eq. 3: pessimistic serial composition with the pipeline fraction
    /// from the β curve at granularity `s` (no overhead term).
    pub fn decoupled_pipelined(&self, alpha: f64, s: f64) -> f64 {
        let beta = self.beta.at(s);
        beta * self.t_w0_inflated(alpha) + self.t_w1_decoupled(alpha)
    }

    /// Eq. 4: the full model with the per-element overhead `D/S·o`.
    pub fn decoupled(&self, alpha: f64, s: f64) -> f64 {
        let beta = self.beta.at(s);
        let overhead = self.data_d as f64 / s * self.overhead_o;
        beta * (self.t_w0_inflated(alpha) + overhead) + self.t_w1_decoupled(alpha)
    }

    /// Best-available prediction: Eq. 4 is derived under the paper's
    /// pessimistic assumption that `Op1` finishes after `Op0`; when the
    /// decoupled operation is *not* the tail, the compute group's own
    /// runtime is the binding bound. `predict` combines Eq. 4 with the two
    /// trivial lower bounds (either group alone).
    pub fn predict(&self, alpha: f64, s: f64) -> f64 {
        self.decoupled(alpha, s).max(self.t_w0_inflated(alpha)).max(self.t_w1_decoupled(alpha))
    }

    /// Predicted speedup of decoupling at `(α, S)` over conventional.
    pub fn speedup(&self, alpha: f64, s: f64) -> f64 {
        self.conventional() / self.decoupled(alpha, s)
    }

    /// Grid-search the best group fraction for a fixed granularity over
    /// the realisable fractions `1/k` (one consumer per `k` ranks).
    /// Returns `(α, predicted time)`.
    pub fn optimal_alpha(&self, s: f64) -> (f64, f64) {
        let mut best = (0.5, self.decoupled(0.5, s));
        for k in 3..=self.p.max(2) {
            let alpha = 1.0 / k as f64;
            if (alpha * self.p as f64) < 1.0 {
                break;
            }
            let t = self.decoupled(alpha, s);
            if t < best.1 {
                best = (alpha, t);
            }
        }
        best
    }

    /// Grid-search the best granularity for a fixed α over a log-spaced
    /// sweep of element sizes. Returns `(S, predicted time)`.
    pub fn optimal_granularity(&self, alpha: f64, s_min: f64, s_max: f64) -> (f64, f64) {
        assert!(s_min > 0.0 && s_max >= s_min);
        let mut best = (s_min, f64::INFINITY);
        let steps = 200;
        for i in 0..=steps {
            let s = s_min * (s_max / s_min).powf(i as f64 / steps as f64);
            let t = self.decoupled(alpha, s);
            if t < best.1 {
                best = (s, t);
            }
        }
        best
    }
}

/// A point of the Figure-3 style schedule comparison.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScheduleComparison {
    pub conventional: f64,
    pub nonblocking: f64,
    pub decoupled: f64,
}

/// Regenerate the Figure 3 comparison quantitatively: the conventional
/// staged run pays both operations plus the full imbalance penalty;
/// non-blocking operations absorb most idle time but cannot pipeline the
/// coupled operations; decoupling pipelines them per Eq. 4.
pub fn figure3(scn: &Scenario, alpha: f64, s: f64) -> ScheduleComparison {
    ScheduleComparison {
        conventional: scn.conventional(),
        // Non-blocking hides waiting inside the operations but the two
        // operations still run back-to-back on every process; a residual
        // quarter of the imbalance shows at the final synchronization.
        nonblocking: scn.t_w0 + scn.t_w1 + 0.25 * scn.t_sigma,
        decoupled: scn.decoupled(alpha, s),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A Fig.5-flavoured scenario: Op1 is a collective whose conventional
    /// per-process cost at P=128 is substantial and LogP-bound.
    fn scenario() -> Scenario {
        Scenario {
            t_w0: 10.0,
            t_w1: 6.0,
            complexity: Complexity::LogP,
            t_sigma: 1.0,
            data_d: 1 << 30,
            overhead_o: 1e-6,
            p: 128,
            beta: Beta::new(0.05, 1e6),
            op1_optimization: 1.0,
        }
    }

    #[test]
    fn eq1_is_the_plain_sum() {
        let s = scenario();
        assert!((s.conventional() - 17.0).abs() < 1e-12);
    }

    #[test]
    fn rescale_families_behave() {
        assert!((Complexity::Divisible.rescale(128, 8) - 16.0).abs() < 1e-12);
        assert!(Complexity::LogP.rescale(128, 8) < 1.0, "smaller group is cheaper");
        assert!((Complexity::LinearP.rescale(128, 8) - 8.0 / 128.0).abs() < 1e-12);
        let g = Complexity::PowerP { gamma: -1.0 };
        assert!((g.rescale(128, 8) - Complexity::Divisible.rescale(128, 8)).abs() < 1e-12);
        // Identity when group unchanged.
        for c in [
            Complexity::Divisible,
            Complexity::LogP,
            Complexity::LinearP,
            Complexity::PowerP { gamma: 0.3 },
        ] {
            assert!((c.rescale(64, 64) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn beta_limits_are_correct() {
        let b = Beta::new(0.1, 1e6);
        assert!(b.at(1.0) < 0.101, "fine granularity approaches beta_min");
        assert!(b.at(1e12) > 0.999, "huge elements cannot pipeline");
        let mut prev = 0.0;
        for i in 0..40 {
            let s = 10f64.powf(i as f64 / 4.0);
            let v = b.at(s);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn eq3_interpolates_between_sum_and_decoupled_op() {
        let mut s = scenario();
        // Perfect pipeline: time = decoupled op only.
        s.beta = Beta::new(0.0, 1e30);
        let t_perfect = s.decoupled_pipelined(0.0625, 1.0);
        assert!((t_perfect - s.t_w1_decoupled(0.0625)).abs() < 1e-6);
        // No pipeline (beta -> 1 for huge elements): time = inflated sum.
        s.beta = Beta::new(0.0, 1e-6);
        let t_none = s.decoupled_pipelined(0.0625, 1e12);
        let expect = s.t_w0_inflated(0.0625) + s.t_w1_decoupled(0.0625);
        assert!((t_none - expect).abs() / expect < 1e-6);
    }

    #[test]
    fn overhead_term_penalises_tiny_elements() {
        let s = scenario();
        let t_tiny = s.decoupled(0.0625, 8.0); // 8-byte elements: huge D/S·o
        let t_good = s.decoupled(0.0625, 64e3);
        assert!(t_tiny > t_good, "tiny {t_tiny} vs good {t_good}");
    }

    #[test]
    fn eq4_has_an_interior_granularity_optimum() {
        let s = scenario();
        let (s_star, t_star) = s.optimal_granularity(0.0625, 8.0, 1e9);
        assert!(s_star > 8.0 * 1.01 && s_star < 1e9 * 0.99, "interior, got {s_star}");
        assert!(t_star <= s.decoupled(0.0625, 8.0));
        assert!(t_star <= s.decoupled(0.0625, 1e9));
    }

    #[test]
    fn decoupling_a_logp_collective_wins_and_gap_widens_with_scale() {
        // The Fig. 5 story: the reference reduce (Iallgatherv of the key
        // union + dense Ireduce) moves O(P)-growing per-process data, so
        // its conventional cost grows ~linearly with P while the decoupled
        // streaming reduce stays divisible. Speedup must exceed 1 and
        // widen with P.
        let speedup_at = |p: usize| {
            let mut s = scenario();
            s.p = p;
            s.t_w1 = 0.02 * p as f64; // allgatherv-style linear growth
            s.complexity = Complexity::LinearP;
            s.t_w0 = 10.0;
            s.speedup(0.0625, 64e3)
        };
        let s128 = speedup_at(128);
        let s8192 = speedup_at(8192);
        assert!(s128 > 1.0, "decoupling should already win at 128: {s128}");
        assert!(s8192 > s128, "gap must widen with scale: {s128} vs {s8192}");
    }

    #[test]
    fn divisible_work_gains_only_from_pipelining() {
        // With Divisible complexity and no pipelining possible, decoupling
        // cannot beat conventional (Eq. 4 degenerates to the inflated sum).
        let s = Scenario {
            t_w0: 10.0,
            t_w1: 2.0,
            complexity: Complexity::Divisible,
            t_sigma: 0.5,
            data_d: 1 << 20,
            overhead_o: 1e-7,
            p: 64,
            beta: Beta::new(1.0, 1e6), // beta == 1 everywhere: no pipeline
            op1_optimization: 1.0,
        };
        assert!(s.decoupled(0.25, 64e3) > s.conventional());
        // But with good pipelining it can.
        let s2 = Scenario { beta: Beta::new(0.0, 1e9), ..s };
        assert!(s2.decoupled(0.25, 64e3) < s2.conventional());
    }

    #[test]
    fn optimal_alpha_is_interior_for_balanced_costs() {
        let s = scenario();
        let (alpha, t) = s.optimal_alpha(64e3);
        assert!((1.0 / 128.0..=0.5).contains(&alpha), "got {alpha}");
        assert!(t < s.conventional(), "optimum must beat conventional");
    }

    #[test]
    fn figure3_ordering_matches_the_paper() {
        let s = scenario();
        let f = figure3(&s, 0.0625, 64e3);
        assert!(f.nonblocking < f.conventional, "non-blocking absorbs idle time");
        assert!(f.decoupled < f.nonblocking, "decoupling additionally pipelines");
    }
}
