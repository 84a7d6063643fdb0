//! Fitting the paper's Eq. 4 parameters from a recorded trace.
//!
//! Eq. 4 predicts the decoupled makespan as
//! `Td = β(S)·(T_W0/(1−α) + Tσ + D/S·o) + T'_W1`. Given a [`Trace`], the
//! estimators here recover the ingredients directly:
//!
//! - producers/consumers are identified from the stream counters
//!   (`elems_sent > 0` / `elems_recv > 0`),
//! - the *inflated* compute term `T_W0/(1−α)` is the producers' mean
//!   `"compute"` time (the trace records what actually ran on the
//!   shrunken group, inflation included),
//! - the imbalance `Tσ` is max − mean of producer compute (the paper's
//!   idle-at-the-barrier penalty),
//! - the per-element overhead `o` is total producer `"send"` time over
//!   total elements sent (`D/S·o` is then `o · E` per producer),
//! - `T'_W1` is the consumers' maximum `"compute"` time,
//! - the *effective* pipelining fraction `β_eff` then falls out of Eq. 4
//!   solved for β: `(makespan − T'_W1) / (T_W0' + Tσ + o·Ē)`.
//!
//! Repeating the fit over a granularity sweep yields `(S, β_eff)` points;
//! [`fit_beta_curve`] grid-searches the `perfmodel` β(S) family through
//! them. On noiseless synthetic traces ([`crate::synthesize`]) the
//! estimators recover `o`, `β`, and `Tσ` to better than 0.1% (see the
//! tests); on simulator traces the residual against
//! [`perfmodel::Scenario::predict`] is reported by [`residual`].

use perfmodel::{Beta, Scenario};

use crate::trace::Trace;

/// Eq. 4 ingredients recovered from one trace (all times in seconds on
/// the trace's clock).
#[derive(Clone, Debug)]
pub struct FitReport {
    /// Ranks that sent stream elements, ascending.
    pub producers: Vec<usize>,
    /// Ranks that received stream elements, ascending.
    pub consumers: Vec<usize>,
    /// Mean elements sent per producer (`D/S` per producer).
    pub elems_mean: f64,
    /// Mean producer compute time — the inflated `T_W0/(1−α)` term.
    pub t_w0_inflated: f64,
    /// Imbalance: max − mean producer compute time.
    pub t_sigma: f64,
    /// Per-element overhead: total producer send time / elements sent.
    pub overhead_o: f64,
    /// Decoupled operation time: max consumer compute time.
    pub t_w1: f64,
    /// End-to-end recorded time.
    pub makespan: f64,
    /// Effective non-overlap fraction (Eq. 4 solved for β), in [0, 1].
    pub beta_eff: f64,
}

/// Recover the Eq. 4 ingredients from `trace`. `None` when the trace has
/// no identifiable producers or consumers (no stream counters), or no
/// elements moved.
pub fn fit(trace: &Trace) -> Option<FitReport> {
    let mut sent: std::collections::BTreeMap<usize, u64> = Default::default();
    let mut recvd: std::collections::BTreeMap<usize, u64> = Default::default();
    for (&(pid, _chan), m) in trace.streams() {
        if m.elems_sent > 0 {
            *sent.entry(pid).or_default() += m.elems_sent;
        }
        if m.elems_recv > 0 {
            *recvd.entry(pid).or_default() += m.elems_recv;
        }
    }
    let producers: Vec<usize> = sent.keys().copied().collect();
    let consumers: Vec<usize> = recvd.keys().copied().collect();
    if producers.is_empty() || consumers.is_empty() {
        return None;
    }
    let totals = trace.totals_by_cat();
    let time = |pid: usize, cat: &'static str| totals.get(&(pid, cat)).copied().unwrap_or(0.0);

    let compute: Vec<f64> = producers.iter().map(|&p| time(p, "compute")).collect();
    let t_w0_inflated = compute.iter().sum::<f64>() / compute.len() as f64;
    let t_sigma = compute.iter().cloned().fold(0.0f64, f64::max) - t_w0_inflated;

    let send_total: f64 = producers.iter().map(|&p| time(p, "send")).sum();
    let elems_total: u64 = sent.values().sum();
    if elems_total == 0 {
        return None;
    }
    let overhead_o = send_total / elems_total as f64;
    let elems_mean = elems_total as f64 / producers.len() as f64;

    let t_w1 = consumers.iter().map(|&c| time(c, "compute")).fold(0.0f64, f64::max);
    let makespan = trace.makespan_secs();
    let denom = t_w0_inflated + t_sigma + overhead_o * elems_mean;
    let beta_eff = if denom > 0.0 { ((makespan - t_w1) / denom).clamp(0.0, 1.0) } else { 0.0 };

    Some(FitReport {
        producers,
        consumers,
        elems_mean,
        t_w0_inflated,
        t_sigma,
        overhead_o,
        t_w1,
        makespan,
        beta_eff,
    })
}

/// Grid-search the `perfmodel` β(S) curve through measured
/// `(granularity_bytes, beta_eff)` points: `beta_min` in steps of 0.05,
/// `s0` log-spaced from 1 byte to 1 GB. Returns the curve and its sum of
/// squared errors.
pub fn fit_beta_curve(points: &[(f64, f64)]) -> (Beta, f64) {
    assert!(!points.is_empty(), "need at least one (S, beta) point");
    let mut best = (Beta::new(0.5, 1e6), f64::INFINITY);
    for ib in 0..=20 {
        let beta_min = ib as f64 / 20.0;
        for is in 0..=40 {
            // s0 from 1 byte to 1 GB, log-spaced.
            let s0 = 10f64.powf(is as f64 * 9.0 / 40.0);
            let candidate = Beta::new(beta_min, s0);
            let err: f64 = points
                .iter()
                .map(|&(s, b)| {
                    let e = candidate.at(s) - b;
                    e * e
                })
                .sum();
            if err < best.1 {
                best = (candidate, err);
            }
        }
    }
    best
}

/// Measured makespan against the model's prediction for the same
/// configuration.
#[derive(Clone, Copy, Debug)]
pub struct ModelResidual {
    pub predicted: f64,
    pub measured: f64,
}

impl ModelResidual {
    /// |measured − predicted| / predicted.
    pub fn rel_err(&self) -> f64 {
        (self.measured - self.predicted).abs() / self.predicted.max(f64::MIN_POSITIVE)
    }
}

/// Residual of `trace`'s makespan against [`Scenario::predict`] at
/// `(alpha, s)`.
pub fn residual(scn: &Scenario, alpha: f64, s: f64, trace: &Trace) -> ModelResidual {
    ModelResidual { predicted: scn.predict(alpha, s), measured: trace.makespan_secs() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{synthesize, SynthSpec};

    fn spec() -> SynthSpec {
        SynthSpec {
            producers: 8,
            consumers: 2,
            elements_per_producer: 1000,
            element_bytes: 64,
            t_w0: 5.0,
            t_w1: 3.0,
            t_sigma: 0.4,
            overhead_o: 2e-6,
            beta: 0.5,
        }
    }

    /// Documented tolerance: on noiseless synthetic traces the fitter
    /// recovers o, β, and Tσ to better than 0.1% (the only error source
    /// is integer-nanosecond rounding in the trace itself).
    #[test]
    fn fit_recovers_synthetic_parameters() {
        let spec = spec();
        let trace = synthesize(&spec);
        let fit = fit(&trace).expect("synthetic trace has both roles");
        assert_eq!(fit.producers.len(), 8);
        assert_eq!(fit.consumers.len(), 2);
        assert_eq!(fit.elems_mean, 1000.0);
        let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(f64::MIN_POSITIVE);
        assert!(rel(fit.overhead_o, spec.overhead_o) < 1e-3, "o: {fit:?}");
        assert!(rel(fit.t_sigma, spec.t_sigma) < 1e-3, "t_sigma: {fit:?}");
        assert!(rel(fit.beta_eff, spec.beta) < 1e-3, "beta: {fit:?}");
        assert!(rel(fit.t_w1, spec.t_w1) < 1e-3, "t_w1: {fit:?}");
        // The recovered compute term is the producers' mean, which sits
        // Tσ/(P−1) above the nominal t_w0 by construction.
        assert!(rel(fit.t_w0_inflated, spec.t_w0 + spec.t_sigma / 7.0) < 1e-3, "t_w0: {fit:?}");
    }

    #[test]
    fn fit_beta_curve_recovers_the_generating_curve() {
        let truth = Beta::new(0.2, 1e5);
        // A granularity sweep: one synthetic trace per element size, each
        // generated with the true curve's β at that S.
        let points: Vec<(f64, f64)> = (0..10)
            .map(|i| {
                let element_bytes = 1u64 << (8 + i); // 256 B .. 128 KiB
                let s = element_bytes as f64;
                let spec = SynthSpec {
                    beta: truth.at(s),
                    element_bytes,
                    t_w1: 6.0, // large enough that every β stays realizable
                    ..spec()
                };
                let fit = fit(&synthesize(&spec)).unwrap();
                (s, fit.beta_eff)
            })
            .collect();
        let (fitted, err) = fit_beta_curve(&points);
        assert!(err < 5e-3, "sse {err}");
        assert!((fitted.beta_min - truth.beta_min).abs() <= 0.05, "{fitted:?}");
    }

    #[test]
    fn residual_is_tiny_when_the_model_generated_the_trace() {
        let spec = spec();
        let trace = synthesize(&spec);
        // A Scenario that encodes exactly the synthetic run: α chosen so
        // the inflated compute equals the producers' mean, β constant.
        let fit = fit(&trace).unwrap();
        let scn = Scenario {
            t_w0: fit.t_w0_inflated, // already inflated: use α → 0
            t_w1: fit.t_w1,
            complexity: perfmodel::Complexity::PowerP { gamma: 0.0 }, // no rescale
            t_sigma: fit.t_sigma,
            data_d: spec.elements_per_producer * spec.element_bytes,
            overhead_o: fit.overhead_o,
            p: spec.producers + spec.consumers,
            beta: Beta::new(spec.beta, 1e30), // s0 ≫ S: β(S) ≈ β_min, constant
            op1_optimization: 1.0,
        };
        let r = residual(&scn, 1e-9, spec.element_bytes as f64, &trace);
        assert!(r.rel_err() < 0.01, "predicted {} vs measured {}", r.predicted, r.measured);
    }

    #[test]
    fn fit_returns_none_without_stream_counters() {
        let sink = crate::ProfSink::new(crate::Clock::Virtual);
        sink.record_span(0, "compute", desim::SimTime(0), desim::SimTime(100));
        assert!(fit(&sink.take()).is_none());
    }
}
