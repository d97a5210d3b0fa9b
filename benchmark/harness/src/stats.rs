//! Sample statistics for rep timings.
//!
//! Percentiles use the nearest-rank definition (the smallest sample with
//! at least `p` percent of the samples at or below it), so every reported
//! value is a time that was actually measured.

/// Nearest-rank percentile of an ascending-sorted, non-empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The quantiles the benchmark reports for one run's rep times.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub p10: f64,
    pub p50: f64,
    /// Highest percentile with ten samples beyond it at 100 reps.
    pub p90: f64,
    /// (p75 − p25) ÷ p50; a disturbed run reads above 0.10.
    pub iqr_rel: f64,
    /// |p10 of the first half − p10 of the second half| ÷ p10 of all.
    pub halves_rel: f64,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Summarises rep times given in the order they were measured.
pub fn summarize(samples: &[f64]) -> Summary {
    let s = sorted(samples);
    let p10 = percentile(&s, 10.0);
    let p50 = percentile(&s, 50.0);
    let (first, second) = samples.split_at(samples.len() / 2);
    let halves_rel = if first.is_empty() {
        0.0
    } else {
        (percentile(&sorted(first), 10.0) - percentile(&sorted(second), 10.0)).abs() / p10
    };
    Summary {
        count: s.len(),
        p10,
        p50,
        p90: percentile(&s, 90.0),
        iqr_rel: (percentile(&s, 75.0) - percentile(&s, 25.0)) / p50,
        halves_rel,
    }
}

/// 10th percentile (nearest rank) of samples in any order; 0 for none.
pub fn p10(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    percentile(&sorted(samples), 10.0)
}

/// Median (nearest-rank) of samples in any order.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_vectors() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 10.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // 11..=15: rank = ceil(p/100 * 5).
        let w = [11.0, 12.0, 13.0, 14.0, 15.0];
        assert_eq!(percentile(&w, 10.0), 11.0);
        assert_eq!(percentile(&w, 20.0), 11.0);
        assert_eq!(percentile(&w, 21.0), 12.0);
        assert_eq!(percentile(&w, 50.0), 13.0);
        assert_eq!(percentile(&[7.0], 10.0), 7.0);
    }

    #[test]
    fn percentile_of_100_has_ten_samples_beyond_p90() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(v.iter().filter(|&&x| x > 90.0).count(), 10);
    }

    #[test]
    fn summary_orders_and_splits_halves() {
        // First half fast (1.0), second half slow (2.0).
        let mut v = vec![1.0; 10];
        v.extend(vec![2.0; 10]);
        let s = summarize(&v);
        assert_eq!(s.count, 20);
        assert_eq!(s.p10, 1.0);
        assert_eq!(s.p50, 1.0);
        assert_eq!(s.p90, 2.0);
        assert_eq!(s.halves_rel, 1.0);
        assert_eq!(s.iqr_rel, 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(p10(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(p10(&[]), 0.0);
    }
}
