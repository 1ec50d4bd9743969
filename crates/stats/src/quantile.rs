//! Sample quantiles.
//!
//! The interpolated order statistic of a sorted sample — what the exact
//! oracle and TAG finalise `PERCENTILE` (and so `MEDIAN`) with. Approximate quantiles are `digest-sketch`'s UDDSketch, not this
//! module.

use crate::error::StatsError;
use crate::Result;

/// The interpolated sample quantile (type R-7, the common default) of a
/// **sorted** slice.
///
/// # Errors
///
/// * [`StatsError::InsufficientData`] for an empty slice.
/// * [`StatsError::InvalidProbability`] unless `0 ≤ q ≤ 1`.
pub fn sample_quantile(sorted: &[f64], q: f64) -> Result<f64> {
    if sorted.is_empty() {
        return Err(StatsError::InsufficientData { got: 0, need: 1 });
    }
    if !(0.0..=1.0).contains(&q) {
        return Err(StatsError::InvalidProbability {
            value: q,
            expected: "[0, 1]",
        });
    }
    let h = (sorted.len() - 1) as f64 * q;
    let lo = crate::f64_to_usize_saturating(h.floor()).min(sorted.len() - 1);
    let hi = crate::f64_to_usize_saturating(h.ceil()).min(sorted.len() - 1);
    let frac = h - lo as f64;
    Ok(sorted[lo] + frac * (sorted[hi] - sorted[lo]))
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

    #[test]
    fn quantiles_of_known_data() {
        let xs: Vec<f64> = (1..=9).map(f64::from).collect(); // 1..9
        assert_eq!(sample_quantile(&xs, 0.5).unwrap(), 5.0);
        assert_eq!(sample_quantile(&xs, 0.0).unwrap(), 1.0);
        assert_eq!(sample_quantile(&xs, 1.0).unwrap(), 9.0);
        assert_eq!(sample_quantile(&xs, 0.25).unwrap(), 3.0);
        // Interpolation between order statistics.
        let xs = [1.0, 2.0];
        assert_eq!(sample_quantile(&xs, 0.5).unwrap(), 1.5);
    }

    #[test]
    fn quantile_validates() {
        assert!(sample_quantile(&[], 0.5).is_err());
        assert!(sample_quantile(&[1.0], -0.1).is_err());
        assert!(sample_quantile(&[1.0], 1.1).is_err());
    }
}
