//! Summary statistics: medians, percentiles, the tail-percentile rule and
//! the quartile spread the acceptance check uses.

/// The percentiles a tail may be reported at, highest first, in tenths
/// of a percent (whole numbers, so the sample count beyond one is exact).
const TAIL_CANDIDATES: [usize; 4] = [999, 990, 950, 900];

/// Sorts a sample vector in place (timings are never NaN).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
}

/// The `p`-th percentile (0–100) of an ascending slice, linearly
/// interpolated between neighbouring ranks. Empty input reads as NaN.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of an unsorted sample set.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    sort(&mut v);
    percentile(&v, 50.0)
}

/// The tail rule: the highest percentile that still has at least ten
/// samples beyond it, or `None` when even p90 does not (fewer than 100
/// samples) and only the median is worth reporting.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|p| n * (1_000 - p) >= 10 * 1_000)
        .map(|p| p as f64 / 10.0)
}

/// One latency series, summarized.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    /// The percentile [`tail_percentile`] picked, and its value.
    pub tail: Option<(f64, f64)>,
}

pub fn summarize(samples: &[f64]) -> Summary {
    let mut v = samples.to_vec();
    sort(&mut v);
    Summary {
        n: v.len(),
        p50: percentile(&v, 50.0),
        p90: percentile(&v, 90.0),
        p99: percentile(&v, 99.0),
        tail: tail_percentile(v.len()).map(|p| (p, percentile(&v, p))),
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the exclusive method), so spreads printed here are the ones the
/// acceptance check will see.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64, f64)> {
    if samples.len() < 2 {
        return None;
    }
    let mut v = samples.to_vec();
    sort(&mut v);
    let n = v.len();
    let q = |i: usize| -> f64 {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// Interquartile distance as a share of the median.
pub fn spread(samples: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(samples)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond_the_percentile() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn percentiles_interpolate_and_summaries_pick_the_tail() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 51.0);
        assert_eq!(percentile(&v, 100.0), 101.0);
        assert!((percentile(&v, 99.0) - 100.0).abs() < 1e-9);
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        let s = summarize(&v);
        assert_eq!(s.n, 101);
        assert_eq!(s.tail, Some((90.0, 91.0)));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        assert_eq!(spread(&v), Some(1.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some((7.5, 15.0, 22.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
