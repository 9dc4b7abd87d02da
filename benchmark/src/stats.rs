//! Order statistics the reports need beyond `ct_common::stats` (which has the
//! nearest-rank percentile): a median and the run-to-run spread the driver
//! computes.

/// Sorts a latency sample ascending (NaN-free by construction).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median of an unsorted sample (mean of the middle pair for even sizes, as
/// Python's `statistics.median`); 0.0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values.to_vec());
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles of Python's `statistics.quantiles(values, n=4)`
/// (exclusive method) — the spread the driver holds each bound against.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let v = sorted(values.to_vec());
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let quantile = |k: usize| {
        // Position k(n+1)/4 on a 1-based scale; like Python, a position
        // outside the sample extrapolates from the nearest pair.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    let mid = median(&v);
    if mid == 0.0 {
        0.0
    } else {
        (quantile(3) - quantile(1)) / mid.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 12, 11, 13], n=4) == [10.25, 11.5, 12.75]
        assert!((quartile_spread(&[10.0, 12.0, 11.0, 13.0]) - 2.5 / 11.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[7.0]), 0.0);
        assert_eq!(quartile_spread(&[5.0, 5.0, 5.0]), 0.0);
    }
}
