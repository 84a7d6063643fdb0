//! Distribution samplers.
//!
//! Implemented here (rather than pulling `rand_distr`) to keep the offline
//! dependency set minimal; each sampler is tested for first/second moments.

use rand::rngs::StdRng;
use rand::Rng;

/// Standard normal via Box–Muller.
pub fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Log-normal parameterised by its *linear-space* mean and coefficient of
/// variation — the natural way to express "workload with mean W and 30%
/// spread".
pub fn lognormal(mean: f64, cv: f64, rng: &mut StdRng) -> f64 {
    debug_assert!(mean > 0.0 && cv >= 0.0);
    if cv == 0.0 {
        return mean;
    }
    let sigma2 = (1.0 + cv * cv).ln();
    let mu = mean.ln() - sigma2 / 2.0;
    (mu + sigma2.sqrt() * gaussian(rng)).exp()
}

/// Zipf sampler over ranks `0..n` with exponent `s`, using a precomputed
/// cumulative table and binary search. Natural-language word frequencies
/// are approximately Zipf(s≈1), which is what makes the paper's MapReduce
/// workload irregular.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf needs a positive support size");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Support size.
    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// Probability of rank `k` (0-based).
    pub fn pmf(&self, k: usize) -> f64 {
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }

    /// Draw a 0-based rank.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        // partition_point: first index with cdf > u.
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xABCD)
    }

    #[test]
    fn lognormal_mean_and_cv_are_right() {
        let mut r = rng();
        let n = 60_000;
        let xs: Vec<f64> = (0..n).map(|_| lognormal(10.0, 0.5, &mut r)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        let cv = var.sqrt() / mean;
        assert!((mean - 10.0).abs() < 0.15, "mean {mean}");
        assert!((cv - 0.5).abs() < 0.03, "cv {cv}");
    }

    #[test]
    fn lognormal_zero_cv_is_deterministic() {
        let mut r = rng();
        assert_eq!(lognormal(7.0, 0.0, &mut r), 7.0);
    }

    #[test]
    fn zipf_pmf_sums_to_one_and_is_decreasing() {
        let z = Zipf::new(1000, 1.0);
        let total: f64 = (0..1000).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for k in 1..1000 {
            assert!(z.pmf(k) <= z.pmf(k - 1) + 1e-12);
        }
    }

    #[test]
    fn zipf_samples_match_pmf_for_top_ranks() {
        let z = Zipf::new(100, 1.0);
        let mut r = rng();
        let n = 100_000;
        let mut counts = vec![0usize; 100];
        for _ in 0..n {
            counts[z.sample(&mut r)] += 1;
        }
        for (k, &count) in counts.iter().enumerate().take(5) {
            let emp = count as f64 / n as f64;
            let theo = z.pmf(k);
            assert!((emp - theo).abs() / theo < 0.06, "rank {k}: emp {emp} theo {theo}");
        }
    }

    #[test]
    fn zipf_single_element_support() {
        let z = Zipf::new(1, 1.2);
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(z.sample(&mut r), 0);
        }
        assert!((z.pmf(0) - 1.0).abs() < 1e-12);
    }
}
