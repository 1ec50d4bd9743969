//! Numerically stable streaming moments.
//!
//! The query engine continuously folds sampled tuple values into running
//! estimates of the mean and variance (for CLT sizing) and, for repeated
//! sampling, into paired moments (covariance / correlation between a tuple's
//! value at consecutive sampling occasions). Both accumulators use Welford's
//! online algorithm, which is stable even when the values are large and the
//! variance is small — exactly the regime of slowly drifting aggregates.

/// Streaming univariate moments (count, mean, variance) via Welford's
/// algorithm.
///
/// ```
/// use digest_stats::RunningMoments;
/// let mut m = RunningMoments::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     m.push(x);
/// }
/// assert_eq!(m.count(), 8);
/// assert!((m.mean() - 5.0).abs() < 1e-12);
/// assert!((m.population_variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningMoments {
    count: u64,
    mean: f64,
    m2: f64,
}

impl RunningMoments {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one observation into the accumulator.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
    }

    /// Folds a slice of observations.
    pub fn extend_from(&mut self, xs: &[f64]) {
        for &x in xs {
            self.push(x);
        }
    }

    /// Builds an accumulator from a slice in one call.
    #[must_use]
    pub fn from_slice(xs: &[f64]) -> Self {
        let mut m = Self::new();
        m.extend_from(xs);
        m
    }

    /// Number of observations folded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean of the observations (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (divides by `n`); 0 when fewer than one
    /// observation has been seen.
    #[must_use]
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample variance (divides by `n − 1`); 0 when fewer than two
    /// observations have been seen.
    #[must_use]
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn sample_std(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Standard error of the mean, `s / √n` (0 when empty).
    #[must_use]
    pub fn standard_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sample_std() / (self.count as f64).sqrt()
        }
    }

    /// Merges another accumulator into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &RunningMoments) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let total_f = total as f64;
        self.m2 += other.m2 + delta * delta * (self.count as f64) * (other.count as f64) / total_f;
        self.mean += delta * other.count as f64 / total_f;
        self.count = total;
    }
}

/// Streaming paired moments for observations `(x, y)`: means, variances,
/// covariance, and the Pearson correlation coefficient.
///
/// In repeated sampling (paper §IV-B2), `x` is a retained tuple's value at
/// the previous sampling occasion and `y` its value at the current occasion;
/// the correlation `ρ̂` drives both the optimal replacement policy and the
/// regression estimator.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PairedMoments {
    count: u64,
    mean_x: f64,
    mean_y: f64,
    m2x: f64,
    m2y: f64,
    cxy: f64,
}

impl PairedMoments {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one paired observation.
    pub fn push(&mut self, x: f64, y: f64) {
        self.count += 1;
        let n = self.count as f64;
        let dx = x - self.mean_x;
        let dy = y - self.mean_y;
        self.mean_x += dx / n;
        self.mean_y += dy / n;
        // After updating mean_x, (x − mean_x) uses the *new* mean.
        self.m2x += dx * (x - self.mean_x);
        self.m2y += dy * (y - self.mean_y);
        self.cxy += dx * (y - self.mean_y);
    }

    /// Builds an accumulator from paired slices; extra elements in the
    /// longer slice are ignored.
    #[must_use]
    pub fn from_pairs(xs: &[f64], ys: &[f64]) -> Self {
        let mut m = Self::new();
        for (&x, &y) in xs.iter().zip(ys.iter()) {
            m.push(x, y);
        }
        m
    }

    /// Number of pairs folded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the `x` series.
    #[must_use]
    pub fn mean_x(&self) -> f64 {
        self.mean_x
    }

    /// Mean of the `y` series.
    #[must_use]
    pub fn mean_y(&self) -> f64 {
        self.mean_y
    }

    /// Sample covariance of `x` and `y`.
    #[must_use]
    pub fn sample_covariance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.cxy / (self.count - 1) as f64
        }
    }

    /// Pearson correlation coefficient `ρ̂ ∈ [−1, 1]`; 0 when undefined
    /// (fewer than two pairs, or either series constant).
    #[must_use]
    pub fn correlation(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        let denom = (self.m2x * self.m2y).sqrt();
        if denom <= f64::EPSILON * self.count as f64 {
            return 0.0;
        }
        (self.cxy / denom).clamp(-1.0, 1.0)
    }

    /// Ordinary-least-squares slope of the regression of `y` on `x`
    /// (`b = s_xy / s_x²`); 0 when undefined.
    #[must_use]
    pub fn regression_slope(&self) -> f64 {
        if self.count < 2 || self.m2x <= f64::EPSILON * self.count as f64 {
            0.0
        } else {
            self.cxy / self.m2x
        }
    }

    /// OLS intercept of the regression of `y` on `x`.
    #[must_use]
    pub fn regression_intercept(&self) -> f64 {
        self.mean_y - self.regression_slope() * self.mean_x
    }
}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    clippy::cast_possible_truncation
)]
mod tests {
    use super::*;

    fn naive_variance(xs: &[f64]) -> f64 {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n
    }

    #[test]
    fn empty_moments_are_zero() {
        let m = RunningMoments::new();
        assert_eq!(m.count(), 0);
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.population_variance(), 0.0);
        assert_eq!(m.sample_variance(), 0.0);
        assert_eq!(m.standard_error(), 0.0);
    }

    #[test]
    fn single_observation() {
        let m = RunningMoments::from_slice(&[3.25]);
        assert_eq!(m.count(), 1);
        assert_eq!(m.mean(), 3.25);
        assert_eq!(m.population_variance(), 0.0);
        assert_eq!(m.sample_variance(), 0.0);
    }

    #[test]
    fn matches_naive_computation() {
        let xs = [1.0, 2.5, -3.0, 4.25, 10.0, -7.5, 0.0, 2.0];
        let m = RunningMoments::from_slice(&xs);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((m.mean() - mean).abs() < 1e-12);
        assert!((m.population_variance() - naive_variance(&xs)).abs() < 1e-12);
    }

    #[test]
    fn stable_for_large_offsets() {
        // Values clustered near 1e9 with tiny variance — catastrophic for
        // the naive sum-of-squares formula, fine for Welford.
        let base = 1.0e9;
        let xs: Vec<f64> = (0..1000).map(|i| base + (i % 7) as f64 * 0.001).collect();
        let m = RunningMoments::from_slice(&xs);
        let expected = naive_variance(&xs.iter().map(|x| x - base).collect::<Vec<_>>());
        assert!((m.population_variance() - expected).abs() < 1e-9);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        let mut a = RunningMoments::from_slice(&xs[..3]);
        let b = RunningMoments::from_slice(&xs[3..]);
        a.merge(&b);
        let full = RunningMoments::from_slice(&xs);
        assert_eq!(a.count(), full.count());
        assert!((a.mean() - full.mean()).abs() < 1e-12);
        assert!((a.sample_variance() - full.sample_variance()).abs() < 1e-12);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let xs = [1.0, 2.0, 3.0];
        let mut a = RunningMoments::from_slice(&xs);
        a.merge(&RunningMoments::new());
        assert_eq!(a, RunningMoments::from_slice(&xs));

        let mut e = RunningMoments::new();
        e.merge(&RunningMoments::from_slice(&xs));
        assert_eq!(e, RunningMoments::from_slice(&xs));
    }

    #[test]
    fn paired_empty_is_zero() {
        let m = PairedMoments::new();
        assert_eq!(m.correlation(), 0.0);
        assert_eq!(m.regression_slope(), 0.0);
        assert_eq!(m.sample_covariance(), 0.0);
    }

    #[test]
    fn perfectly_correlated_pairs() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x + 2.0).collect();
        let m = PairedMoments::from_pairs(&xs, &ys);
        assert!((m.correlation() - 1.0).abs() < 1e-12);
        assert!((m.regression_slope() - 3.0).abs() < 1e-12);
        assert!((m.regression_intercept() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn anticorrelated_pairs() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| -2.0 * x + 7.0).collect();
        let m = PairedMoments::from_pairs(&xs, &ys);
        assert!((m.correlation() + 1.0).abs() < 1e-12);
        assert!((m.regression_slope() + 2.0).abs() < 1e-12);
    }

    #[test]
    fn constant_series_has_zero_correlation() {
        let xs = [5.0; 10];
        let ys: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let m = PairedMoments::from_pairs(&xs, &ys);
        assert_eq!(m.correlation(), 0.0);
        assert_eq!(m.regression_slope(), 0.0);
    }

    #[test]
    fn covariance_matches_naive() {
        let xs = [1.0, 2.0, 4.0, 8.0, 16.0];
        let ys = [2.0, 1.0, 5.0, 9.0, 11.0];
        let m = PairedMoments::from_pairs(&xs, &ys);
        let mx = xs.iter().sum::<f64>() / 5.0;
        let my = ys.iter().sum::<f64>() / 5.0;
        let cov = xs
            .iter()
            .zip(ys.iter())
            .map(|(x, y)| (x - mx) * (y - my))
            .sum::<f64>()
            / 4.0;
        assert!((m.sample_covariance() - cov).abs() < 1e-12);
    }

    #[test]
    fn correlation_is_clamped() {
        // Tiny numerical noise must never push |ρ̂| above 1.
        let xs = [1.0, 1.0 + 1e-15, 1.0 + 2e-15];
        let ys = [2.0, 2.0 + 1e-15, 2.0 + 2e-15];
        let m = PairedMoments::from_pairs(&xs, &ys);
        assert!(m.correlation().abs() <= 1.0);
    }
}
