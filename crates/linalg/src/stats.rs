//! Welford running statistics with parallel merge.
//!
//! Projections must be normalized to zero mean and unit variance before
//! the Anderson–Darling test (Algorithm 4's "Normalize vector"). Map
//! tasks compute partial statistics over their split and the framework
//! merges them, so the accumulator must be associative: this is Chan et
//! al.'s parallel variant of Welford's algorithm.

/// Numerically stable running mean / variance / min / max accumulator.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Folds one observation in.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Folds every observation of a slice in.
    pub fn push_all(&mut self, xs: &[f64]) {
        for &x in xs {
            self.push(x);
        }
    }

    /// Merges another accumulator (Chan's parallel update). The result is
    /// identical (up to rounding) to pushing both observation streams into
    /// one accumulator.
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (divide by n); `0.0` for fewer than 1
    /// observation.
    pub fn variance_population(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample variance (divide by n−1); `0.0` for fewer than 2
    /// observations.
    pub fn variance_sample(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn stddev_sample(&self) -> f64 {
        self.variance_sample().sqrt()
    }

    /// Smallest observation; `+∞` when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation; `−∞` when empty.
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Normalizes a sample in place to zero mean and unit *sample* standard
/// deviation, as required before the Anderson–Darling test.
///
/// Returns `false` (leaving the data untouched) when the sample has fewer
/// than two points or zero variance — the test cannot be applied to a
/// constant sample.
pub fn normalize_in_place(xs: &mut [f64]) -> bool {
    let mut stats = RunningStats::new();
    stats.push_all(xs);
    let sd = stats.stddev_sample();
    if xs.len() < 2 || sd == 0.0 || !sd.is_finite() {
        return false;
    }
    let mean = stats.mean();
    for x in xs.iter_mut() {
        *x = (*x - mean) / sd;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_values() {
        let mut s = RunningStats::new();
        s.push_all(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance_population() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_is_inert() {
        let s = RunningStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance_sample(), 0.0);
        let mut t = RunningStats::new();
        t.push(1.0);
        let before = t;
        t.merge(&s);
        assert_eq!(t, before);
    }

    #[test]
    fn merge_into_empty_copies() {
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        b.push_all(&[1.0, 2.0, 3.0]);
        a.merge(&b);
        assert_eq!(a, b);
    }

    #[test]
    fn single_observation() {
        let mut s = RunningStats::new();
        s.push(42.0);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.variance_sample(), 0.0);
        assert_eq!(s.min(), 42.0);
        assert_eq!(s.max(), 42.0);
    }

    #[test]
    fn normalize_produces_standard_sample() {
        let mut xs = vec![10.0, 12.0, 14.0, 16.0, 18.0];
        assert!(normalize_in_place(&mut xs));
        let mut s = RunningStats::new();
        s.push_all(&xs);
        assert!(s.mean().abs() < 1e-12);
        assert!((s.stddev_sample() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalize_rejects_constant_sample() {
        let mut xs = vec![5.0; 10];
        assert!(!normalize_in_place(&mut xs));
        assert_eq!(xs, vec![5.0; 10]);
        let mut one = vec![3.0];
        assert!(!normalize_in_place(&mut one));
    }

    proptest! {
        #[test]
        fn merge_equals_sequential(
            a in proptest::collection::vec(-1e3..1e3f64, 1..50),
            b in proptest::collection::vec(-1e3..1e3f64, 1..50),
        ) {
            let mut merged = RunningStats::new();
            merged.push_all(&a);
            let mut other = RunningStats::new();
            other.push_all(&b);
            merged.merge(&other);

            let mut seq = RunningStats::new();
            seq.push_all(&a);
            seq.push_all(&b);

            prop_assert_eq!(merged.count(), seq.count());
            prop_assert!((merged.mean() - seq.mean()).abs() < 1e-6);
            prop_assert!((merged.variance_sample() - seq.variance_sample()).abs() < 1e-5);
            prop_assert_eq!(merged.min(), seq.min());
            prop_assert_eq!(merged.max(), seq.max());
        }

        #[test]
        fn variance_never_negative(xs in proptest::collection::vec(-1e6..1e6f64, 0..100)) {
            let mut s = RunningStats::new();
            s.push_all(&xs);
            prop_assert!(s.variance_population() >= 0.0);
            prop_assert!(s.variance_sample() >= 0.0);
        }

        #[test]
        fn mean_within_bounds(xs in proptest::collection::vec(-1e6..1e6f64, 1..100)) {
            let mut s = RunningStats::new();
            s.push_all(&xs);
            prop_assert!(s.mean() >= s.min() - 1e-9);
            prop_assert!(s.mean() <= s.max() + 1e-9);
        }
    }
}
