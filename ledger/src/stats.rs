//! Median and quartile helpers. Quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (the "exclusive" method), because
//! that is what the driver computes spreads with.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite measurements"));
    v
}

/// Median; 0 for an empty slice so a metric is never NaN.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `(q1, q2, q3)` by the exclusive method: the i-th cut sits at position
/// `i·(n+1)/4` (1-based) with linear interpolation; like Python, it
/// extrapolates when the cut falls outside the data (two or three values).
/// A single value is its own three quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0, 0.0);
    }
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile range as a share of the median: the driver's spread.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// `(max − min) / median`.
pub fn range_share(values: &[f64]) -> f64 {
    let v = sorted(values);
    let m = median(&v);
    match (v.first(), v.last()) {
        (Some(lo), Some(hi)) if m != 0.0 => (hi - lo) / m.abs(),
        _ => 0.0,
    }
}

/// The sample at quantile `q` of `values` by the nearest-rank rule the
/// runtime's own `p95_e2e_ms` uses.
pub fn nearest_rank(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    v[((v.len() as f64 * q).ceil() as usize).clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn mean_of_some_and_none() {
        assert_eq!((mean(&[3.0, 1.0, 2.0]), mean(&[])), (2.0, 0.0));
    }

    /// Reference values from CPython:
    /// `statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)` is
    /// `[2.75, 5.5, 8.25]`, for `[10, 20, 30]` it is `[10, 20, 30]`, and
    /// for `[1, 2]` it is `[0.75, 1.5, 2.25]`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        assert_eq!(quartiles(&[30.0, 10.0, 20.0]), (10.0, 20.0, 30.0));
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0, 5.0));
    }

    #[test]
    fn spreads_are_shares_of_the_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&ten) - 1.0).abs() < 1e-12);
        assert!((range_share(&ten) - 9.0 / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn nearest_rank_matches_the_runtime_rule() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&hundred, 0.95), 95.0);
        assert_eq!(nearest_rank(&hundred, 0.5), 50.0);
        assert_eq!(nearest_rank(&[7.0], 0.99), 7.0);
    }
}
