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

/// Zipf sampler over ranks `0..n` with exponent `s`: an exact inverse-CDF
/// draw, `u ↦` the first rank whose cumulative probability exceeds `u`.
/// Natural-language word frequencies are approximately Zipf(s≈1), which is
/// what makes the paper's MapReduce workload irregular.
///
/// The draw is reached through a guide (cut-point) table rather than a
/// binary search over the whole cumulative table: `u`'s bucket of `[0, 1)`
/// names the first rank the answer can be, and a step or two up the
/// cumulative table finds it (a quarter of a step on average at Zipf(1)).
/// The result is the binary search's, bit for bit. The guide takes as many
/// bytes as the cumulative table (`n × 8`) and is built in one linear
/// pass.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
    /// `guide[b]`: the first rank whose cdf lands in bucket `b` or above
    /// (`n − 1` if none), for each of `2n` buckets.
    guide: Vec<u32>,
}

/// The guide bucket of `x` among `buckets`. Any monotone map would do: a
/// rank whose cdf falls in a bucket below `u`'s has a cdf below `u`, so it
/// is never the draw, whatever rounding put either value where it is.
#[inline]
fn bucket(x: f64, buckets: usize) -> usize {
    ((x * buckets as f64) as usize).min(buckets - 1)
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf needs a positive support size");
        assert!(u32::try_from(n).is_ok(), "Zipf ranks must fit the guide table's u32");
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
        let buckets = 2 * n;
        let mut guide = Vec::with_capacity(buckets);
        // One pass: `rank` only moves up, so each cdf entry and each
        // bucket is visited once.
        let mut rank = 0;
        for b in 0..buckets {
            while rank < n - 1 && bucket(cdf[rank], buckets) < b {
                rank += 1;
            }
            guide.push(rank as u32);
        }
        Zipf { cdf, guide }
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
        self.inverse_cdf(rng.gen_range(0.0..1.0))
    }

    /// The first rank whose cdf exceeds `u` (the last rank if none does):
    /// `cdf.partition_point(|&c| c <= u).min(n − 1)`, started at `u`'s
    /// guide entry instead of searched for.
    #[inline]
    fn inverse_cdf(&self, u: f64) -> usize {
        let last = self.cdf.len() - 1;
        let mut rank = self.guide[bucket(u, self.guide.len())] as usize;
        // Most draws take no step or one: make the first without a branch.
        rank += ((self.cdf[rank] <= u) & (rank < last)) as usize;
        while self.cdf[rank] <= u && rank < last {
            rank += 1;
        }
        rank
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

    /// The search [`Zipf::inverse_cdf`] replaces.
    fn by_binary_search(z: &Zipf, u: f64) -> usize {
        z.cdf.partition_point(|&c| c <= u).min(z.n() - 1)
    }

    /// `(n, s)`: one rank, the pinned test shapes, a flat and a steep
    /// exponent, and the Fig. 5 vocabulary.
    fn shapes() -> &'static [Zipf] {
        static SHAPES: std::sync::OnceLock<Vec<Zipf>> = std::sync::OnceLock::new();
        SHAPES.get_or_init(|| {
            [(1, 1.2), (100, 1.0), (1_000, 0.5), (5_000, 2.0), (20_000, 1.0)]
                .into_iter()
                .map(|(n, s)| Zipf::new(n, s))
                .collect()
        })
    }

    #[test]
    fn guided_draw_equals_the_binary_search_on_every_edge() {
        for z in shapes() {
            let mut us = vec![0.0, 1.0 - f64::EPSILON / 2.0];
            for &c in &z.cdf {
                us.extend([c.next_down(), c, c.next_up()]);
            }
            for u in us {
                assert_eq!(z.inverse_cdf(u), by_binary_search(z, u), "n {} u {u:e}", z.n());
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn guided_draw_equals_the_binary_search(u in 0.0f64..1.0, shape in 0usize..5) {
            let z = &shapes()[shape];
            proptest::prop_assert_eq!(z.inverse_cdf(u), by_binary_search(z, u));
        }
    }

    #[test]
    fn guide_table_is_no_larger_than_the_cdf() {
        for z in shapes() {
            let guide = z.guide.len() * std::mem::size_of::<u32>();
            assert!(guide <= z.n() * std::mem::size_of::<f64>());
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
