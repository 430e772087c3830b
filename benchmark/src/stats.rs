//! Order statistics for per-session samples.
//!
//! Quartiles use the same rule as Python's
//! `statistics.quantiles(values, n=4)` (exclusive method), because that
//! is what the acceptance procedure computes over repeated runs — the
//! benchmark's own spread column is then directly comparable.

/// Median, quartiles and sample count of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `i`-th quartile cut (1..=3) of sorted `v`, by the arithmetic of
/// `statistics.quantiles(v, n=4)`: like Python it extrapolates past the
/// sample range when there are fewer than three samples.
fn quartile_sorted(v: &[f64], i: usize) -> f64 {
    let n = v.len();
    if n == 1 {
        return v[0];
    }
    let m = n + 1;
    let j = (i * m / 4).clamp(1, n - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
}

/// The median of `values`.
///
/// # Panics
///
/// Panics on an empty slice: a metric without samples is a bug in the
/// benchmark, not a measurement.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    quartile_sorted(&sorted(values), 2)
}

/// The smallest of `values`: the estimate of a duration when whatever
/// disturbs it can only add time.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn minimum(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "minimum of no samples");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median, quartiles and count of `values`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summary of no samples");
    let v = sorted(values);
    Summary {
        median: quartile_sorted(&v, 2),
        q1: quartile_sorted(&v, 1),
        q3: quartile_sorted(&v, 3),
        n: v.len(),
    }
}

/// Percentiles a tail may be reported at, lowest first, each with the
/// `k` for which one sample in `k` lies beyond it.
const TAIL_LADDER: [(f64, usize); 5] = [
    (90.0, 10),
    (95.0, 20),
    (99.0, 100),
    (99.9, 1_000),
    (99.99, 10_000),
];

/// The highest percentile of [`TAIL_LADDER`] that still has at least
/// ten samples beyond it among `n`, or `None` when even p90 has fewer
/// (a tail read off fewer than ten samples is one outlier's value).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .find(|(_, k)| n / k >= 10)
        .map(|(p, _)| *p)
}

/// The value at percentile `p` (0–100) of `values`, nearest-rank.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let v = sorted(values);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
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
    fn minimum_is_the_smallest_sample() {
        assert_eq!(minimum(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(minimum(&[4.0]), 4.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[2.0, 3.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let s = summarize(&[10.0, 20.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(12), None);
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(1_000_000), Some(99.99));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }
}
