//! Small numeric helpers: empirical CDFs and regression slopes.

/// An empirical CDF over f64 samples.
#[derive(Debug, Clone)]
pub(crate) struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build from samples (NaNs are dropped).
    pub(crate) fn new<I: IntoIterator<Item = f64>>(samples: I) -> Cdf {
        let mut sorted: Vec<f64> = samples.into_iter().filter(|x| x.is_finite()).collect();
        sorted.sort_by(|a, b| a.total_cmp(b));
        Cdf { sorted }
    }

    /// Number of samples.
    pub(crate) fn len(&self) -> usize {
        self.sorted.len()
    }

    /// P(X ≤ x).
    pub(crate) fn at(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        let idx = self.sorted.partition_point(|v| *v <= x);
        idx as f64 / self.sorted.len() as f64
    }
}

/// Least-squares slope of y on x **through the origin** — the comparison
/// statistic the paper reports for Figures 7(a) and 7(b).
pub fn slope_through_origin(points: &[(f64, f64)]) -> f64 {
    let (mut sxy, mut sxx) = (0.0, 0.0);
    for &(x, y) in points {
        if x.is_finite() && y.is_finite() {
            sxy += x * y;
            sxx += x * x;
        }
    }
    if sxx == 0.0 {
        f64::NAN
    } else {
        sxy / sxx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_basics() {
        let c = Cdf::new([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.len(), 4);
        assert!((c.at(2.0) - 0.5).abs() < 1e-9);
        assert!((c.at(0.5) - 0.0).abs() < 1e-9);
        assert!((c.at(10.0) - 1.0).abs() < 1e-9);
        assert_eq!(Cdf::new([1.0, 2.0, 2.0, 10.0]).at(2.0), 0.75);
    }

    #[test]
    fn cdf_empty_and_nan() {
        let c = Cdf::new([f64::NAN]);
        assert_eq!(c.len(), 0);
        assert!(c.at(1.0).is_nan());
    }

    #[test]
    fn origin_slope_recovers_proportionality() {
        let pts: Vec<(f64, f64)> = (1..20).map(|i| (i as f64, 0.92 * i as f64)).collect();
        assert!((slope_through_origin(&pts) - 0.92).abs() < 1e-9);
    }

    #[test]
    fn degenerate_slopes_are_nan() {
        assert!(slope_through_origin(&[]).is_nan());
    }
}
