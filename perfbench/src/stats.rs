//! Order statistics over host timings.
//!
//! Every host time the benchmark prints is a median over repeated
//! passes or a nearest-rank percentile over units. Spreads (in a run's
//! notes) are interquartile ranges as a share of the median, with the
//! quartiles of Python's `statistics.quantiles` ("exclusive" method), so
//! they match spreads recomputed from the printed samples.

/// The `q`-th of `n` cut points of `values` (1 ≤ q < n), by the
/// exclusive method exactly as Python computes it: position
/// `q·(len+1)/n` in the sorted data, interpolated between its two
/// neighbours (and extrapolated from the end pair beyond the sample).
pub fn quantile(values: &[f64], q: usize, n: usize) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    assert!(0 < q && q < n, "cut point {q} of {n} out of range");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len == 1 {
        return v[0];
    }
    let scaled = q * (len + 1);
    let j = (scaled / n).clamp(1, len - 1);
    let delta = scaled as f64 - (j * n) as f64;
    (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
}

/// Median (the middle cut point; the plain median for any length).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    assert!(m > 0, "median of an empty sample");
    if m % 2 == 1 {
        v[m / 2]
    } else {
        (v[m / 2 - 1] + v[m / 2]) / 2.0
    }
}

/// The nearest-rank `p`-th percentile: the value at rank ⌈p·n/100⌉ of
/// the sorted sample (never interpolated or extrapolated).
pub fn nearest_rank(values: &[f64], p: usize) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len()).div_ceil(100).clamp(1, v.len());
    v[rank - 1]
}

/// Each unit's median over passes, where `samples[p][u]` is unit `u`'s
/// host time in pass `p`. Host noise here comes in bursts that slow a
/// whole stretch of a run; a per-unit median drops the stretches a
/// burst hit, where a median of pass totals would carry some of them.
pub fn unit_medians(samples: &[Vec<f64>]) -> Vec<f64> {
    let units = samples.first().map_or(0, Vec::len);
    (0..units).map(|u| median(&samples.iter().map(|s| s[u]).collect::<Vec<_>>())).collect()
}

/// Interquartile range as a share of the median (0 for a single
/// sample or a zero median).
pub fn iqr_share(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let med = median(values);
    if med == 0.0 {
        return 0.0;
    }
    (quantile(values, 3, 4) - quantile(values, 1, 4)) / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quantiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3], n=100)[98] == 3.96: beyond the
        // sample, Python extrapolates from the end pair.
        assert!((quantile(&[1.0, 2.0, 3.0], 99, 100) - 3.96).abs() < 1e-12);
        // statistics.quantiles(range(1, 101), n=100)[89] == 90.9
        let h: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((quantile(&h, 90, 100) - 90.9).abs() < 1e-9);
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 1, 4), 2.75);
        assert_eq!(quantile(&v, 2, 4), 5.5);
        assert_eq!(quantile(&v, 3, 4), 8.25);
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        let w = [8.0, 1.0, 4.0, 2.0];
        assert_eq!(quantile(&w, 1, 4), 1.25);
        assert_eq!(quantile(&w, 2, 4), 3.0);
        assert_eq!(quantile(&w, 3, 4), 7.0);
    }

    #[test]
    fn nearest_rank_picks_a_sample() {
        let v: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50), 4.0);
        assert_eq!(nearest_rank(&v, 90), 7.0);
        let h: Vec<f64> = (1..=101).rev().map(f64::from).collect();
        assert_eq!(nearest_rank(&h, 90), 91.0);
        assert_eq!(nearest_rank(&[3.0], 90), 3.0);
    }

    #[test]
    fn unit_medians_are_taken_across_passes() {
        let passes = vec![vec![1.0, 10.0], vec![9.0, 11.0], vec![2.0, 30.0]];
        assert_eq!(unit_medians(&passes), vec![2.0, 11.0]);
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[5.0]), 0.0);
        assert_eq!(iqr_share(&[0.0, 0.0, 0.0]), 0.0);
        assert_eq!(iqr_share(&[2.0, 2.0, 2.0, 2.0]), 0.0);
    }
}
