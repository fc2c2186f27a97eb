//! Order statistics on raw samples.
//!
//! Every percentile the benchmark prints comes from here, computed on the
//! raw samples themselves (never on `LogHistogram` buckets, whose edges
//! are powers of two).

/// Fewest samples that must lie beyond a percentile for it to be reported
/// as a tail statistic.
const TAIL_SUPPORT: usize = 10;

/// The standard ladder of tail percentiles, lowest first.
const LADDER: [f64; 4] = [0.90, 0.99, 0.999, 0.9999];

/// Summary of one sample: its size, median and best-supported tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// The median (nearest rank).
    pub median: f64,
    /// The highest ladder percentile with at least [`TAIL_SUPPORT`]
    /// samples beyond it, with its value; `None` for small samples.
    pub tail: Option<(f64, f64)>,
}

/// Nearest-rank quantile `q` in `[0, 1]` of an ascending slice: the
/// smallest sample with at least a `q` share of the samples at or below
/// it. `None` for an empty slice.
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ranks_at_or_below(sorted.len(), q.clamp(0.0, 1.0));
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// How many of `count` ranked samples lie at or below quantile `q`,
/// tolerant of the rounding in `q × count` (0.99 × 1000 must give 990).
fn ranks_at_or_below(count: usize, q: f64) -> usize {
    (q * count as f64 - 1e-9).ceil().max(0.0) as usize
}

/// Whether `q` leaves at least [`TAIL_SUPPORT`] samples beyond it in a
/// sample of `count`.
#[must_use]
fn supported(count: usize, q: f64) -> bool {
    count.saturating_sub(ranks_at_or_below(count, q)) >= TAIL_SUPPORT
}

/// Sorts `samples` in place and summarises them; `None` when empty.
///
/// # Panics
///
/// Panics on a NaN sample, which would make the order meaningless.
#[must_use]
pub fn summarize(samples: &mut [f64]) -> Option<Summary> {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let median = quantile(samples, 0.5)?;
    let tail = LADDER
        .iter()
        .rev()
        .find(|&&q| supported(samples.len(), q))
        .map(|&q| (q, quantile(samples, q).expect("non-empty")));
    Some(Summary { count: samples.len(), median, tail })
}

/// The median of an unsorted sample (nearest rank); `None` when empty.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    summarize(&mut sorted).map(|summary| summary.median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_the_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&sorted, 0.5), Some(50.0));
        assert_eq!(quantile(&sorted, 0.99), Some(99.0));
        assert_eq!(quantile(&sorted, 1.0), Some(100.0));
        assert_eq!(quantile(&sorted, 0.0), Some(1.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[7.0], 0.99), Some(7.0));
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn the_tail_needs_ten_samples_beyond_it() {
        assert!(!supported(99, 0.90), "p90 of 99 leaves 9 beyond");
        assert!(supported(100, 0.90));
        assert!(!supported(999, 0.99));
        assert!(supported(1000, 0.99));

        let mut small: Vec<f64> = (0..50).map(f64::from).collect();
        let summary = summarize(&mut small).expect("non-empty");
        assert_eq!(summary.count, 50);
        assert_eq!(summary.tail, None);

        let mut thousand: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let summary = summarize(&mut thousand).expect("non-empty");
        assert_eq!(summary.median, 500.0);
        assert_eq!(summary.tail, Some((0.99, 990.0)));

        let mut more: Vec<f64> = (1..=20_000).map(f64::from).collect();
        assert_eq!(summarize(&mut more).expect("non-empty").tail, Some((0.999, 19_980.0)));
    }

    #[test]
    fn an_empty_sample_has_no_summary() {
        assert_eq!(summarize(&mut []), None);
    }
}
