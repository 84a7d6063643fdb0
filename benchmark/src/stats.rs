//! Order statistics over pooled slice samples.

/// Median of `values` (mean of the two middle ones for an even count).
/// Panics on an empty slice: a run with no samples has no result.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q`-quantile (nearest rank, `0 < q < 1`) of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it, or `None` below twenty samples (where not even the
/// median has ten on its far side). A tail read off fewer samples than
/// that is one outlier's position, not a percentile.
pub fn tail_percentile(n: usize) -> Option<u32> {
    [99u32, 95, 90, 75, 50].into_iter().find(|&p| {
        let rank = (f64::from(p) / 100.0 * n as f64).ceil() as usize;
        n >= rank + 10
    })
}

/// `(q1, median, q3)` as Python's `statistics.quantiles(values, n=4)`
/// computes them (exclusive method) — the quartiles the benchmark harness
/// accepts or rejects a metric's spread on.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |k: usize| {
        // Position k(n+1)/4, 1-based, linearly interpolated.
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        v[j - 1] + (pos - j as f64) * (v[j] - v[j - 1])
    };
    (at(1), at(2), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 0.5), 5.0);
        assert_eq!(quantile(&v, 0.99), 10.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 160 pooled slices: p90 has 16 beyond, p95 only 8.
        assert_eq!(tail_percentile(160), Some(90));
        // 40 sim slices: p75 has exactly 10 beyond.
        assert_eq!(tail_percentile(40), Some(75));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(19), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
    }
}
