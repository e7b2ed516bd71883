//! Ordinary least squares on 1-D data.
//!
//! Figure 2 of the paper fits a line (`64·x − 42.67`) through the
//! boundary between succeeded and failed TestClusters jobs to estimate
//! the reducer's per-point heap requirement. The `repro fig2` harness
//! performs the same fit with this module.

/// Result of fitting `y ≈ slope·x + intercept`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinearFit {
    /// Slope of the fitted line.
    pub slope: f64,
    /// Intercept of the fitted line.
    pub intercept: f64,
    /// Coefficient of determination in `[0, 1]`; `1.0` for a perfect fit.
    pub r_squared: f64,
}

impl LinearFit {
    /// Fits a least-squares line through `(x, y)` pairs.
    ///
    /// Returns `None` when fewer than two points are given or when all x
    /// values coincide (vertical line; slope undefined).
    pub fn fit(points: &[(f64, f64)]) -> Option<LinearFit> {
        if points.len() < 2 {
            return None;
        }
        let n = points.len() as f64;
        let mean_x = points.iter().map(|(x, _)| x).sum::<f64>() / n;
        let mean_y = points.iter().map(|(_, y)| y).sum::<f64>() / n;
        let mut sxx = 0.0;
        let mut sxy = 0.0;
        let mut syy = 0.0;
        for &(x, y) in points {
            let dx = x - mean_x;
            let dy = y - mean_y;
            sxx += dx * dx;
            sxy += dx * dy;
            syy += dy * dy;
        }
        if sxx == 0.0 {
            return None;
        }
        let slope = sxy / sxx;
        let intercept = mean_y - slope * mean_x;
        let r_squared = if syy == 0.0 {
            1.0 // constant y: the horizontal fit is exact
        } else {
            (sxy * sxy) / (sxx * syy)
        };
        Some(LinearFit {
            slope,
            intercept,
            r_squared,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exact_line_recovered() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 * i as f64 - 7.0)).collect();
        let fit = LinearFit::fit(&pts).unwrap();
        assert!((fit.slope - 3.0).abs() < 1e-10);
        assert!((fit.intercept + 7.0).abs() < 1e-10);
        assert!((fit.r_squared - 1.0).abs() < 1e-10);
    }

    #[test]
    fn constant_y_gives_zero_slope() {
        let pts = [(0.0, 5.0), (1.0, 5.0), (2.0, 5.0)];
        let fit = LinearFit::fit(&pts).unwrap();
        assert_eq!(fit.slope, 0.0);
        assert_eq!(fit.intercept, 5.0);
        assert_eq!(fit.r_squared, 1.0);
    }

    #[test]
    fn degenerate_inputs_are_none() {
        assert!(LinearFit::fit(&[]).is_none());
        assert!(LinearFit::fit(&[(1.0, 2.0)]).is_none());
        // all x equal: vertical line
        assert!(LinearFit::fit(&[(1.0, 2.0), (1.0, 3.0)]).is_none());
    }

    #[test]
    fn noisy_fit_is_close() {
        // y = 64 x - 42.67 with deterministic "noise" — Figure 2's shape.
        let pts: Vec<(f64, f64)> = (4..=16)
            .map(|i| {
                let x = i as f64;
                (x, 64.0 * x - 42.67 + if i % 2 == 0 { 1.5 } else { -1.5 })
            })
            .collect();
        let fit = LinearFit::fit(&pts).unwrap();
        assert!((fit.slope - 64.0).abs() < 0.5);
        assert!((fit.intercept + 42.67).abs() < 5.0);
        assert!(fit.r_squared > 0.99);
    }

    proptest! {
        #[test]
        fn r_squared_in_unit_interval(
            pts in proptest::collection::vec((-1e3..1e3f64, -1e3..1e3f64), 2..50),
        ) {
            prop_assume!(pts.windows(2).any(|w| w[0].0 != w[1].0));
            if let Some(fit) = LinearFit::fit(&pts) {
                prop_assert!(fit.r_squared >= -1e-9);
                prop_assert!(fit.r_squared <= 1.0 + 1e-9);
            }
        }

        #[test]
        fn fit_recovers_arbitrary_line(slope in -100.0..100.0f64, intercept in -100.0..100.0f64) {
            let pts: Vec<(f64, f64)> =
                (0..20).map(|i| (i as f64 * 0.5, slope * i as f64 * 0.5 + intercept)).collect();
            let fit = LinearFit::fit(&pts).unwrap();
            prop_assert!((fit.slope - slope).abs() < 1e-6);
            prop_assert!((fit.intercept - intercept).abs() < 1e-6);
        }
    }
}
