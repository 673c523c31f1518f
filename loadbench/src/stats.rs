//! Exact order statistics over recorded samples.
//!
//! Percentiles here are nearest-rank values of the sorted samples, not
//! histogram bucket bounds (the `lbq-obs` log-linear buckets overshoot
//! by up to 25%).

/// Sorts `v` ascending (NaN-free input).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of ascending `sorted` at `q` in `(0, 1]`:
/// the smallest sample with at least `q·n` samples at or below it.
/// `NaN` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// The highest percentile of `n` samples that leaves at least ten
/// samples above it, capped at 0.99.
pub fn tail_quantile(n: usize) -> f64 {
    if n == 0 {
        return 0.5;
    }
    (1.0 - 10.0 / n as f64).clamp(0.5, 0.99)
}

/// Median of unsorted samples (`NaN` when empty).
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.5)
}

/// Arithmetic mean (`NaN` when empty).
pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_on_known_samples() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.001), 1.0);
        let odd = sorted(vec![5.0, 1.0, 3.0]);
        assert_eq!(percentile(&odd, 0.5), 3.0);
        assert_eq!(median(&[9.0, 2.0, 4.0, 7.0]), 4.0);
        assert!(percentile(&[], 0.5).is_nan());
        // 2000 samples: p99 leaves 20 above it.
        assert_eq!(tail_quantile(2000), 0.99);
        // 500 samples: p98 is the highest with ten above it.
        assert!((tail_quantile(500) - 0.98).abs() < 1e-12);
        let big: Vec<f64> = (1..=500).map(f64::from).collect();
        assert_eq!(percentile(&big, tail_quantile(500)), 490.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
