//! Order statistics for timing samples: median, quartiles, and
//! percentiles that refuse to be read from too few samples.

/// Summary of one sample set: the median with its quartiles and the
/// sample count, which every reported timing carries.
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

/// Median of a non-empty sample set (mean of the two middle values for
/// even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample set");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method (the one Python's
/// `statistics.quantiles(values, n=4)` uses, so spreads computed here
/// match the acceptance procedure). A single sample is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample set");
    let v = sorted(values);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let at = |k: usize| {
        // Position k(n+1)/4 in 1-based ranks, clamped to the sample.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        let delta = delta.clamp(0.0, 1.0);
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Median, quartiles and count in one pass.
pub fn summarize(values: &[f64]) -> Summary {
    let (q1, q3) = quartiles(values);
    Summary { median: median(values), q1, q3, n: values.len() }
}

/// Interquartile range as a share of the median — the run-to-run
/// spread the acceptance procedure bounds.
pub fn spread(values: &[f64]) -> f64 {
    let s = summarize(values);
    if s.median == 0.0 {
        0.0
    } else {
        (s.q3 - s.q1) / s.median.abs()
    }
}

/// Samples that must lie beyond a reported percentile: a tail read
/// from fewer is one slow sample, not a percentile.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (nearest rank), or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..100.0).contains(&p), "percentile out of range");
    let n = values.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let rank = rank.max(1);
    if n < rank || n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted(values)[rank - 1])
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
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12, "{q1} {q3}");
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12, "{q1} {q3}");
        // statistics.quantiles([1, 2], n=4) == [0.75, 2.25]: clamped to
        // the sample here, since a timing cannot lie outside its runs.
        assert_eq!(quartiles(&[1.0, 2.0]), (1.0, 2.0));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[2.0]), 0.0);
    }

    #[test]
    fn p90_refuses_fewer_than_ten_samples_beyond() {
        let v: Vec<f64> = (1..=120).map(f64::from).collect();
        // 120 samples: rank 108, 12 beyond.
        assert_eq!(percentile(&v, 90.0), Some(108.0));
        assert_eq!(percentile(&v[..100], 90.0), Some(90.0));
        // 99 samples: rank 90, only 9 beyond.
        assert_eq!(percentile(&v[..99], 90.0), None);
        assert_eq!(percentile(&v[..12], 50.0), None);
        assert_eq!(percentile(&v[..20], 50.0), Some(10.0));
    }
}
