//! The benchmark's arithmetic: medians, quartiles, minima, error rate
//! and the runtime residual. Kept free of I/O so it can be unit-tested.

/// Median of `values`; `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, the method the benchmark's
/// steadiness rule is stated in. A single value is its own quartiles;
/// `NaN`s for an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    match values.len() {
        0 => return (f64::NAN, f64::NAN),
        1 => return (values[0], values[0]),
        _ => {}
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Smallest of `values`; `NaN` for an empty slice.
pub fn minimum(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

/// Runs that erred or failed an answer check, over runs attempted;
/// 0 when nothing was attempted.
pub fn error_rate(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// CPU time no probed layer accounts for: `cpu_s` minus the sum of the
/// layers' computed busy seconds. Negative when the probes' unit costs
/// overstate the layers' share; reported as is.
pub fn residual(cpu_s: f64, layer_busy_s: &[f64]) -> f64 {
    cpu_s - layer_busy_s.iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0));
    }

    #[test]
    fn minimum_of_values() {
        assert_eq!(minimum(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(minimum(&[7.5]), 7.5);
        assert!(minimum(&[]).is_nan());
    }

    #[test]
    fn error_rate_counts_failures_over_attempts() {
        assert_eq!(error_rate(0, 5), 0.0);
        assert_eq!(error_rate(1, 4), 0.25);
        assert_eq!(error_rate(3, 3), 1.0);
        assert_eq!(error_rate(0, 0), 0.0);
    }

    #[test]
    fn residual_may_go_negative() {
        assert!((residual(8.5, &[3.9, 1.25, 0.1]) - 3.25).abs() < 1e-12);
        assert!(residual(1.0, &[0.75, 0.5]) < 0.0);
        assert_eq!(residual(2.0, &[]), 2.0);
    }
}
