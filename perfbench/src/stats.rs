//! Sample summaries: the percentile rule every timing follows.
//!
//! A timing is reported as its median and a tail percentile with at
//! least [`MIN_TAIL`] samples beyond it; a tail with fewer samples would
//! be one or two outliers, not a percentile. The benchmark reports the
//! p80 of its 50 per-query figures, which has exactly 10 beyond it, and
//! refuses to report a percentile that does not qualify.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank percentile of an ascending sample: the smallest value
/// with at least `per_mille`/1000 of the samples at or below it. Integer
/// arithmetic keeps the rank exact (0.95 × 200 is 190, not 190.00…03).
pub fn percentile(sorted: &[f64], per_mille: usize) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), per_mille).max(1) - 1]
}

/// The 1-based nearest rank of the `per_mille` percentile in `n` samples.
fn rank(n: usize, per_mille: usize) -> usize {
    (n * per_mille).div_ceil(1000)
}

/// Samples strictly beyond the `per_mille` percentile of `n` samples.
pub fn beyond(n: usize, per_mille: usize) -> usize {
    n - rank(n, per_mille).min(n)
}

/// Whether a sample of `n` may report its `per_mille` percentile.
pub fn tail_qualifies(n: usize, per_mille: usize) -> bool {
    beyond(n, per_mille) >= MIN_TAIL
}

/// Median and tail of one timing sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median.
    pub p50: f64,
    /// The tail percentile (`p80`, `p95` or `p99`, as asked).
    pub tail: f64,
}

/// Summarizes `values` with the given tail percentile. Returns `None`
/// when the tail does not have [`MIN_TAIL`] samples beyond it.
pub fn summarize(values: &[f64], tail_per_mille: usize) -> Option<Summary> {
    if !tail_qualifies(values.len(), tail_per_mille) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Summary { p50: percentile(&sorted, 500), tail: percentile(&sorted, tail_per_mille) })
}

/// Median of a non-empty sample (no tail requirement).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 500)
}

/// Each query's best (smallest) figure over its evaluations: `samples`
/// holds `(query, value)` pairs for queries `0..n`. A query with no
/// evaluation is left out.
pub fn best_per_query(n: usize, samples: impl IntoIterator<Item = (usize, f64)>) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; n];
    for (q, v) in samples {
        best[q] = best[q].min(v);
    }
    best.retain(|v| v.is_finite());
    best
}

/// Mean of a sample, 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 500), 100.0);
        assert_eq!(percentile(&v, 950), 190.0);
        assert_eq!(percentile(&v, 990), 198.0);
        assert_eq!(percentile(&v, 1000), 200.0);
        assert_eq!(percentile(&[7.0], 500), 7.0);
        assert_eq!(percentile(&[7.0], 0), 7.0);
    }

    #[test]
    fn p95_needs_two_hundred_samples() {
        assert_eq!(beyond(200, 950), 10);
        assert_eq!(beyond(199, 950), 9);
        assert!(tail_qualifies(200, 950));
        assert!(!tail_qualifies(199, 950));
        assert!(tail_qualifies(1_000, 990));
        assert!(!tail_qualifies(999, 990));
    }

    #[test]
    fn summaries_refuse_thin_tails() {
        let thin: Vec<f64> = (0..199).map(f64::from).collect();
        assert_eq!(summarize(&thin, 950), None);
        let ok: Vec<f64> = (0..200).rev().map(f64::from).collect();
        let s = summarize(&ok, 950).unwrap();
        assert_eq!((s.p50, s.tail), (99.0, 189.0));
    }

    #[test]
    fn best_of_each_query() {
        let samples = [(0, 5.0), (1, 9.0), (0, 3.0), (1, 7.0), (0, 4.0)];
        assert_eq!(best_per_query(3, samples), vec![3.0, 7.0]);
    }

    #[test]
    fn p80_of_fifty_has_ten_beyond() {
        assert_eq!(beyond(50, 800), 10);
        assert!(tail_qualifies(50, 800));
        assert!(!tail_qualifies(49, 800));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0]), 1.5);
    }
}
