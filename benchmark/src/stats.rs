//! Order statistics over a handful of repetitions.

/// Median, extremes and quartile distance of one metric's repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of values summarised.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
    /// Third quartile minus first quartile (0 with fewer than two values).
    pub iqr: f64,
}

/// Summarise `values`; panics on an empty slice, which would mean a
/// workload produced no repetition at all.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "no repetitions to summarise");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let iqr = if v.len() < 2 {
        0.0
    } else {
        quartile(&v, 3) - quartile(&v, 1)
    };
    Summary {
        n: v.len(),
        median: median_sorted(&v),
        min: v[0],
        max: v[v.len() - 1],
        iqr,
    }
}

/// Median of `values`; panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

fn median_sorted(v: &[f64]) -> f64 {
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `i`-th quartile of sorted `v` (at least two values) by the
/// "exclusive" rule of Python's `statistics.quantiles(v, n=4)`, which the
/// benchmark's acceptance check uses.
fn quartile(v: &[f64], i: usize) -> f64 {
    let n = 4;
    let m = v.len() + 1;
    let j = (i * m / n).clamp(1, v.len() - 1);
    let delta = (i * m) as f64 - (j * n) as f64;
    (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.median, 5.5);
        assert!((s.iqr - 5.5).abs() < 1e-12);
        assert_eq!((s.min, s.max, s.n), (1.0, 10.0, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.median, s.iqr), (2.0, 2.0));
        assert_eq!(summarize(&[7.0]).iqr, 0.0);
    }
}
