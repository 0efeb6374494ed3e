//! Order statistics over latency samples.

/// Samples that must lie beyond a percentile before it is reported: with
/// fewer, the value is one or two outliers, not a property of the system.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile (`p` in `0..100`) of an ascending slice, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "percentile needs sorted input");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    let idx = rank.max(1) - 1;
    (idx + MIN_BEYOND < sorted.len()).then(|| sorted[idx])
}

/// [`percentile`] of unsorted samples.
pub fn percentile_of(samples: &[u64], p: f64) -> Option<u64> {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    percentile(&sorted, p)
}

/// Median of a small set of repeated measurements (no sample-count rule:
/// these are repetitions of one measurement, not a latency distribution).
/// `0.0` for an empty set.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, or `0.0` when the denominator is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond_it() {
        let v: Vec<u64> = (1..=100).collect();
        // p90 of 100 samples is the 90th; exactly ten lie beyond it.
        assert_eq!(percentile(&v, 90.0), Some(90));
        // One sample fewer leaves nine beyond the 90th percentile's rank.
        assert_eq!(percentile(&v[..99], 90.0), None);
        // p99 needs a thousand samples.
        assert_eq!(percentile(&v, 99.0), None);
        let k: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&k, 99.0), Some(990));
        // The median obeys the same rule.
        assert_eq!(percentile(&v[..19], 50.0), None);
        assert_eq!(percentile(&v[..20], 50.0), Some(10));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_of_repetitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
