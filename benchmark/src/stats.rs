//! Order statistics over timing samples.

/// Sorts a sample in place (timings are never NaN).
fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are finite"));
}

/// Median of a sample; 0 for an empty one, so a layer a workload does not
/// exercise reads as zero.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolated `q`-quantile (`0.0..=1.0`); 0 for an empty sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let below = rank.floor() as usize;
    let above = rank.ceil() as usize;
    sorted[below] + (sorted[above] - sorted[below]) * (rank - below as f64)
}

/// A tail quantile, reported only when at least ten samples lie beyond it
/// (0 otherwise: one slow request must not pass for a percentile).
pub fn tail(values: &[f64], q: f64) -> f64 {
    if (values.len() as f64 * (1.0 - q)).round() >= 10.0 {
        percentile(values, q)
    } else {
        0.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// computes them (the exclusive method) — the spread rule the benchmark is
/// accepted under, so `--repeat` reports the same figure.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let len = values.len();
    if len < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median: the run-to-run spread.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(values);
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), 5.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), Some((1.0, 4.0)));
    }

    #[test]
    fn tails_need_ten_samples_beyond_them() {
        let samples: Vec<f64> = (0..=200).map(f64::from).collect();
        assert_eq!(tail(&samples, 0.99), 0.0);
        assert_eq!(tail(&samples, 0.95), 190.0);
    }
}
