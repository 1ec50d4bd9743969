//! Repeated-sampling estimator algebra (paper §IV-B2, Table 1, Eqs. 7–11).
//!
//! At sampling occasion `k`, the panel of `n` samples is split into `g`
//! *retained* samples (already located at occasion `k−1`; re-reading them is
//! nearly free) and `f = n − g` *fresh* samples (newly drawn through the
//! sampling operator; each costs a random walk). Two estimators are formed:
//!
//! * the **regular estimate** `Ȳ_kf` — the plain mean of the fresh portion,
//!   with variance `σ²/f`;
//! * the **regression estimate** `Ȳ_kg = ȳ_kg + b(Ȳ_{k−1} − ȳ_{k−1,g})` —
//!   the retained portion corrected through the regression of current on
//!   previous values, with variance `σ²(1−ρ²)/g + ρ²σ²/n`;
//!
//! and combined with inverse-variance weights (Eq. 7). The combined
//! variance works out to Eq. 8,
//!
//! ```text
//! var(Ȳ_k) = σ²(n − gρ²) / (n² − g²ρ²),
//! ```
//!
//! minimised by the optimal partition (Eq. 9)
//!
//! ```text
//! g_opt = n / (1 + √(1−ρ²)),
//! ```
//!
//! at which `var_min = σ²(1 + √(1−ρ²)) / (2n)` (Eq. 10) — an improvement
//! of up to 2× over independent sampling as `|ρ| → 1` (Eq. 11).

use crate::error::StatsError;
use crate::moments::{PairedMoments, RunningMoments};
use crate::Result;

/// How a panel of `n` samples is split between retained and fresh
/// portions (the Eq. 9 optimal replacement fraction, paper §IV-B2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PanelPartition {
    /// `g` — samples retained (and re-read) from the previous occasion.
    pub retained: usize,
    /// `f = n − g` — fresh samples drawn through the sampling operator.
    pub fresh: usize,
}

impl PanelPartition {
    /// Total panel size `n = g + f`.
    #[must_use]
    pub fn total(&self) -> usize {
        self.retained + self.fresh
    }
}

/// Optimal panel partition `g_opt = n / (1 + √(1−ρ²))` (Eq. 9).
///
/// `rho` is clamped into `[−1, 1]`. Unless `|ρ| = 1`, at least one fresh
/// sample is kept whenever `n ≥ 2`, so the panel always tracks insertions,
/// deletions, and pathological updates (the paper makes the same point
/// after Eq. 11).
///
/// ```
/// use digest_stats::repeated::optimal_partition;
/// // Uncorrelated occasions: retaining half is variance-neutral but
/// // halves the walk cost.
/// assert_eq!(optimal_partition(100, 0.0).retained, 50);
/// // Highly correlated occasions: retain most of the panel.
/// assert!(optimal_partition(100, 0.95).retained > 70);
/// ```
#[must_use]
pub fn optimal_partition(n: usize, rho: f64) -> PanelPartition {
    if n == 0 {
        return PanelPartition {
            retained: 0,
            fresh: 0,
        };
    }
    let rho = rho.clamp(-1.0, 1.0);
    let root = (1.0 - rho * rho).sqrt();
    let g_opt = n as f64 / (1.0 + root);
    let mut g = crate::f64_to_usize_saturating(g_opt.round());
    g = g.min(n);
    // Keep the panel self-repairing: at least one fresh sample unless the
    // correlation is literally perfect.
    if g == n && root > 0.0 && n >= 2 {
        g = n - 1;
    }
    PanelPartition {
        retained: g,
        fresh: n - g,
    }
}

/// Combined-estimator variance at an arbitrary partition (Eq. 8):
/// `σ²(n − gρ²)/(n² − g²ρ²)`.
///
/// # Errors
///
/// [`StatsError::InvalidParameter`] if `n == 0` or `g > n`.
pub fn combined_variance(sigma2: f64, n: usize, g: usize, rho: f64) -> Result<f64> {
    if n == 0 {
        return Err(StatsError::InvalidParameter {
            what: "n",
            value: 0.0,
        });
    }
    if g > n {
        return Err(StatsError::InvalidParameter {
            what: "g",
            value: g as f64,
        });
    }
    let rho2 = rho.clamp(-1.0, 1.0).powi(2);
    let nf = n as f64;
    let gf = g as f64;
    Ok(sigma2 * (nf - gf * rho2) / (nf * nf - gf * gf * rho2))
}

/// Minimum combined variance under optimal partitioning (Eq. 10):
/// `σ²(1 + √(1−ρ²)) / (2n)`.
///
/// # Errors
///
/// [`StatsError::InvalidParameter`] if `n == 0`.
pub fn min_combined_variance(sigma2: f64, n: usize, rho: f64) -> Result<f64> {
    if n == 0 {
        return Err(StatsError::InvalidParameter {
            what: "n",
            value: 0.0,
        });
    }
    let rho2 = rho.clamp(-1.0, 1.0).powi(2);
    Ok(sigma2 * (1.0 + (1.0 - rho2).sqrt()) / (2.0 * n as f64))
}

/// The variance-improvement ratio of repeated over independent sampling at
/// optimal partitioning (Eq. 11): `var_indep / var_min = 2 / (1 + √(1−ρ²))`.
///
/// Ranges from 1 (ρ = 0 — no improvement) to 2 (|ρ| = 1 — halved variance,
/// i.e. the paper's "up to 100 %" accuracy improvement).
#[must_use]
pub fn improvement_ratio(rho: f64) -> f64 {
    let rho2 = rho.clamp(-1.0, 1.0).powi(2);
    2.0 / (1.0 + (1.0 - rho2).sqrt())
}

/// Panel size `n` needed so the *optimally partitioned* repeated-sampling
/// estimator reaches a target variance `v*`: solve Eq. 10 for `n`.
///
/// # Errors
///
/// [`StatsError::InvalidParameter`] if `sigma2 < 0` or `target_variance ≤ 0`.
pub fn required_panel_size(sigma2: f64, rho: f64, target_variance: f64) -> Result<usize> {
    if !sigma2.is_finite() || sigma2 < 0.0 {
        return Err(StatsError::InvalidParameter {
            what: "sigma2",
            value: sigma2,
        });
    }
    if !target_variance.is_finite() || target_variance <= 0.0 {
        return Err(StatsError::InvalidParameter {
            what: "target_variance",
            value: target_variance,
        });
    }
    let rho2 = rho.clamp(-1.0, 1.0).powi(2);
    let n = sigma2 * (1.0 + (1.0 - rho2).sqrt()) / (2.0 * target_variance);
    Ok(crate::f64_to_usize_saturating(n.ceil()).max(crate::clt::MIN_SAMPLE_SIZE))
}

/// The value `Iterator::sum::<f64>` folds from. It is `−0.0`, the
/// additive identity that keeps an all-`−0.0` column's sum `−0.0`;
/// [`combined_estimate`]'s hand-written sums start there too, so that
/// they stay the sums the iterator would give.
const SUM_START: f64 = -0.0;

/// The combined repeated-sampling estimate for one occasion (paper
/// §IV-B2, Eq. 7/Eq. 8).
#[derive(Debug, Clone, Copy)]
pub struct CombinedEstimate {
    /// `Ȳ_k` — the inverse-variance weighted combination (Eq. 7).
    pub estimate: f64,
    /// Estimated variance of the combined estimator.
    pub variance: f64,
    /// Weight `α` given to the fresh-portion (regular) estimate.
    pub alpha: f64,
    /// Correlation `ρ̂` measured on the retained pairs.
    pub rho_hat: f64,
    /// Regression slope `b = s₁₂/s₁²` measured on the retained pairs.
    pub slope: f64,
    /// Pooled estimate `σ̂²` of the current-occasion value variance.
    pub sigma2_hat: f64,
}

/// Computes the combined estimate (Eq. 7) of the current occasion's mean
/// from
///
/// * `fresh` — current values of the `f` freshly drawn samples,
/// * `retained_prev` / `retained_cur` — previous- and current-occasion
///   values of the `g` retained samples (parallel slices), and
/// * `prev_mean` — the engine's estimate `Ȳ_{k−1}` of the previous
///   occasion's mean (the `ȳ₁` of Table 1).
///
/// Degenerate panels degrade gracefully: with no retained pairs this is the
/// plain fresh mean (independent sampling); with no fresh samples it is the
/// pure regression estimate.
///
/// # Errors
///
/// * [`StatsError::DimensionMismatch`] if the retained slices differ in
///   length.
/// * [`StatsError::InsufficientData`] if the panel is entirely empty.
/// * [`StatsError::NonFiniteInput`] if any value is non-finite.
pub fn combined_estimate(
    fresh: &[f64],
    retained_prev: &[f64],
    retained_cur: &[f64],
    prev_mean: f64,
) -> Result<CombinedEstimate> {
    if retained_prev.len() != retained_cur.len() {
        return Err(StatsError::DimensionMismatch {
            context: "combined_estimate: retained slices must be parallel",
        });
    }
    let f = fresh.len();
    let g = retained_cur.len();
    let n = f + g;
    if n == 0 {
        return Err(StatsError::InsufficientData { got: 0, need: 1 });
    }

    // One pass over the panel, fresh column first, then the retained
    // pairs. Each accumulator sees its values in the order, and starts
    // from the value, it would on a pass of its own, so the result is
    // bit-identical to folding them one after another; only their
    // independent division chains now overlap.
    let mut finite = prev_mean.is_finite();
    // Pooled variance of current-occasion values across the whole panel.
    let mut pooled = RunningMoments::new();
    let mut fresh_sum = SUM_START;
    for &y in fresh {
        finite &= y.is_finite();
        pooled.push(y);
        fresh_sum += y;
    }
    // Retained-pair statistics.
    let mut pairs = PairedMoments::new();
    let (mut retained_prev_sum, mut retained_cur_sum) = (SUM_START, SUM_START);
    for (&x, &y) in retained_prev.iter().zip(retained_cur) {
        finite &= x.is_finite() & y.is_finite();
        pooled.push(y);
        pairs.push(x, y);
        retained_prev_sum += x;
        retained_cur_sum += y;
    }
    if !finite {
        return Err(StatsError::NonFiniteInput {
            what: "panel values",
        });
    }
    let sigma2_hat = pooled.sample_variance();
    let rho_hat = pairs.correlation();
    let slope = pairs.regression_slope();

    let fresh_mean = if f > 0 { fresh_sum / f as f64 } else { 0.0 };

    // Pure-fresh fallback (independent sampling).
    if g == 0 {
        let variance = sigma2_hat / f as f64;
        return Ok(CombinedEstimate {
            estimate: fresh_mean,
            variance,
            alpha: 1.0,
            rho_hat: 0.0,
            slope: 0.0,
            sigma2_hat,
        });
    }

    // Regression estimate from the retained portion (Table 1):
    // Ȳ_kg = ȳ_kg + b (Ȳ_{k−1} − ȳ_{k−1,g}).
    let retained_cur_mean = retained_cur_sum / g as f64;
    let retained_prev_mean = retained_prev_sum / g as f64;
    let regression_estimate = retained_cur_mean + slope * (prev_mean - retained_prev_mean);

    let rho2 = rho_hat * rho_hat;
    let var_regression = sigma2_hat * (1.0 - rho2) / g as f64 + rho2 * sigma2_hat / n as f64;

    // Pure-retained fallback.
    if f == 0 {
        return Ok(CombinedEstimate {
            estimate: regression_estimate,
            variance: var_regression,
            alpha: 0.0,
            rho_hat,
            slope,
            sigma2_hat,
        });
    }

    let var_fresh = sigma2_hat / f as f64;

    // Inverse-variance weights; guard the zero-variance (constant data)
    // corner where both weights blow up.
    const TINY: f64 = 1e-12;
    let w_f = 1.0 / var_fresh.max(TINY);
    let w_g = 1.0 / var_regression.max(TINY);
    let alpha = w_f / (w_f + w_g);
    let estimate = alpha * fresh_mean + (1.0 - alpha) * regression_estimate;
    let variance = 1.0 / (w_f + w_g);

    Ok(CombinedEstimate {
        estimate,
        variance,
        alpha,
        rho_hat,
        slope,
        sigma2_hat,
    })
}

/// `combined_estimate` as five passes (finiteness, pooled moments, paired
/// moments, one sum per column), the oracle its one-pass fold is held to.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn combined_estimate(
        fresh: &[f64],
        retained_prev: &[f64],
        retained_cur: &[f64],
        prev_mean: f64,
    ) -> Result<CombinedEstimate> {
        if retained_prev.len() != retained_cur.len() {
            return Err(StatsError::DimensionMismatch {
                context: "combined_estimate: retained slices must be parallel",
            });
        }
        let f = fresh.len();
        let g = retained_cur.len();
        let n = f + g;
        if n == 0 {
            return Err(StatsError::InsufficientData { got: 0, need: 1 });
        }
        if fresh
            .iter()
            .chain(retained_prev.iter())
            .chain(retained_cur.iter())
            .any(|v| !v.is_finite())
            || !prev_mean.is_finite()
        {
            return Err(StatsError::NonFiniteInput {
                what: "panel values",
            });
        }

        // Pooled variance of current-occasion values across the whole panel.
        let mut pooled = RunningMoments::new();
        pooled.extend_from(fresh);
        pooled.extend_from(retained_cur);
        let sigma2_hat = pooled.sample_variance();

        // Retained-pair statistics.
        let pairs = PairedMoments::from_pairs(retained_prev, retained_cur);
        let rho_hat = pairs.correlation();
        let slope = pairs.regression_slope();

        let fresh_mean = if f > 0 {
            fresh.iter().sum::<f64>() / f as f64
        } else {
            0.0
        };

        // Pure-fresh fallback (independent sampling).
        if g == 0 {
            let variance = sigma2_hat / f as f64;
            return Ok(CombinedEstimate {
                estimate: fresh_mean,
                variance,
                alpha: 1.0,
                rho_hat: 0.0,
                slope: 0.0,
                sigma2_hat,
            });
        }

        // Regression estimate from the retained portion (Table 1):
        // Ȳ_kg = ȳ_kg + b (Ȳ_{k−1} − ȳ_{k−1,g}).
        let retained_cur_mean = retained_cur.iter().sum::<f64>() / g as f64;
        let retained_prev_mean = retained_prev.iter().sum::<f64>() / g as f64;
        let regression_estimate = retained_cur_mean + slope * (prev_mean - retained_prev_mean);

        let rho2 = rho_hat * rho_hat;
        let var_regression = sigma2_hat * (1.0 - rho2) / g as f64 + rho2 * sigma2_hat / n as f64;

        // Pure-retained fallback.
        if f == 0 {
            return Ok(CombinedEstimate {
                estimate: regression_estimate,
                variance: var_regression,
                alpha: 0.0,
                rho_hat,
                slope,
                sigma2_hat,
            });
        }

        let var_fresh = sigma2_hat / f as f64;

        // Inverse-variance weights; guard the zero-variance (constant data)
        // corner where both weights blow up.
        const TINY: f64 = 1e-12;
        let w_f = 1.0 / var_fresh.max(TINY);
        let w_g = 1.0 / var_regression.max(TINY);
        let alpha = w_f / (w_f + w_g);
        let estimate = alpha * fresh_mean + (1.0 - alpha) * regression_estimate;
        let variance = 1.0 / (w_f + w_g);

        Ok(CombinedEstimate {
            estimate,
            variance,
            alpha,
            rho_hat,
            slope,
            sigma2_hat,
        })
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
    use proptest::prelude::*;

    #[test]
    fn partition_zero_correlation_is_half() {
        // ρ = 0 → g_opt = n/2: retention is variance-neutral but cheap.
        let p = optimal_partition(100, 0.0);
        assert_eq!(p.retained, 50);
        assert_eq!(p.fresh, 50);
        assert_eq!(p.total(), 100);
    }

    #[test]
    fn partition_perfect_correlation_retains_all() {
        let p = optimal_partition(100, 1.0);
        assert_eq!(p.retained, 100);
        assert_eq!(p.fresh, 0);
    }

    #[test]
    fn partition_high_correlation_retains_most_but_not_all() {
        let p = optimal_partition(100, 0.95);
        assert!(p.retained > 70, "g = {}", p.retained);
        assert!(p.fresh >= 1, "must keep a self-repairing fresh slot");
    }

    #[test]
    fn partition_monotone_in_rho() {
        let mut prev = 0;
        for i in 0..=10 {
            let rho = i as f64 / 10.0;
            let g = optimal_partition(1000, rho).retained;
            assert!(g >= prev, "g not monotone at rho = {rho}");
            prev = g;
        }
    }

    #[test]
    fn partition_negative_rho_mirrors_positive() {
        assert_eq!(optimal_partition(100, -0.8), optimal_partition(100, 0.8));
    }

    #[test]
    fn partition_edge_sizes() {
        assert_eq!(optimal_partition(0, 0.5).total(), 0);
        let p = optimal_partition(1, 0.5);
        assert_eq!(p.total(), 1);
    }

    #[test]
    fn combined_variance_extremes_equal_independent() {
        // g = 0 and g = n both give σ²/n (paper's observation after Eq. 10).
        let s2 = 4.0;
        let n = 50;
        let v0 = combined_variance(s2, n, 0, 0.8).unwrap();
        let vn = combined_variance(s2, n, n, 0.8).unwrap();
        let indep = s2 / n as f64;
        assert!((v0 - indep).abs() < 1e-12);
        assert!((vn - indep).abs() < 1e-12);
    }

    #[test]
    fn optimal_partition_achieves_min_variance() {
        let s2 = 9.0;
        let n = 200;
        let rho = 0.9_f64;
        let p = optimal_partition(n, rho);
        let v_opt = combined_variance(s2, n, p.retained, rho).unwrap();
        let v_min = min_combined_variance(s2, n, rho).unwrap();
        // Rounding g to an integer costs a hair.
        assert!(
            (v_opt - v_min).abs() / v_min < 1e-3,
            "v_opt={v_opt} v_min={v_min}"
        );
        // And any other partition is no better.
        for g in [0, n / 4, n / 2, 3 * n / 4, n] {
            let v = combined_variance(s2, n, g, rho).unwrap();
            assert!(v + 1e-12 >= v_opt, "partition g={g} beat the optimum");
        }
    }

    #[test]
    fn improvement_ratio_bounds() {
        assert!((improvement_ratio(0.0) - 1.0).abs() < 1e-12);
        assert!((improvement_ratio(1.0) - 2.0).abs() < 1e-12);
        let r89 = improvement_ratio(0.89);
        assert!(r89 > 1.3 && r89 < 1.45, "ratio at ρ=0.89 was {r89}");
        let r68 = improvement_ratio(0.68);
        assert!(r68 > 1.1 && r68 < 1.2, "ratio at ρ=0.68 was {r68}");
    }

    #[test]
    fn improvement_ratio_matches_variance_formulas() {
        for &rho in &[0.1, 0.3, 0.5, 0.7, 0.9, 0.99] {
            let s2 = 2.5;
            let n = 1000;
            let indep = s2 / n as f64;
            let min = min_combined_variance(s2, n, rho).unwrap();
            assert!((indep / min - improvement_ratio(rho)).abs() < 1e-12);
        }
    }

    #[test]
    fn required_panel_size_beats_independent() {
        let s2 = 64.0;
        let target = 0.5;
        let n_rpt = required_panel_size(s2, 0.9, target).unwrap();
        let n_indep = crate::clt::required_sample_size_for_variance(s2, target).unwrap();
        assert!(n_rpt < n_indep, "rpt {n_rpt} !< indep {n_indep}");
        // At ρ = 0 they coincide.
        let n0 = required_panel_size(s2, 0.0, target).unwrap();
        assert_eq!(n0, n_indep);
    }

    #[test]
    fn required_panel_size_validates() {
        assert!(required_panel_size(-1.0, 0.5, 1.0).is_err());
        assert!(required_panel_size(1.0, 0.5, 0.0).is_err());
    }

    #[test]
    fn variance_functions_validate() {
        assert!(combined_variance(1.0, 0, 0, 0.5).is_err());
        assert!(combined_variance(1.0, 10, 11, 0.5).is_err());
        assert!(min_combined_variance(1.0, 0, 0.5).is_err());
    }

    #[test]
    fn combined_estimate_pure_fresh_is_mean() {
        let fresh = [1.0, 2.0, 3.0, 4.0];
        let e = combined_estimate(&fresh, &[], &[], 0.0).unwrap();
        assert!((e.estimate - 2.5).abs() < 1e-12);
        assert_eq!(e.alpha, 1.0);
    }

    #[test]
    fn combined_estimate_pure_retained_uses_regression() {
        // Current = previous + 1 exactly: slope 1, regression corrects the
        // retained mean by the panel-vs-population offset.
        let prev = [1.0, 2.0, 3.0, 4.0];
        let cur = [2.0, 3.0, 4.0, 5.0];
        // Suppose the previous occasion's true mean estimate was 3.0 while
        // the retained subset's previous mean is 2.5: correction = +0.5.
        let e = combined_estimate(&[], &prev, &cur, 3.0).unwrap();
        assert!((e.slope - 1.0).abs() < 1e-9);
        assert!((e.estimate - 4.0).abs() < 1e-9, "estimate = {}", e.estimate);
        assert_eq!(e.alpha, 0.0);
        assert!((e.rho_hat - 1.0).abs() < 1e-9);
    }

    #[test]
    fn combined_estimate_blends_both_portions() {
        let fresh = [10.0, 11.0, 9.0, 10.5, 9.5];
        let prev = [9.0, 10.0, 11.0, 10.0, 9.5, 10.5];
        let cur = [9.2, 10.1, 11.3, 10.2, 9.4, 10.6];
        let e = combined_estimate(&fresh, &prev, &cur, 10.0).unwrap();
        assert!(e.alpha > 0.0 && e.alpha < 1.0, "alpha = {}", e.alpha);
        // The estimate lies between the two portion estimates.
        let fresh_mean = fresh.iter().sum::<f64>() / fresh.len() as f64;
        let lo = fresh_mean.min(e.estimate);
        let hi = fresh_mean.max(e.estimate);
        assert!(lo <= e.estimate && e.estimate <= hi);
        assert!(e.variance > 0.0);
        assert!(
            e.rho_hat > 0.9,
            "highly correlated pairs, got ρ̂ = {}",
            e.rho_hat
        );
    }

    #[test]
    fn combined_estimate_high_correlation_favours_regression() {
        // Perfectly correlated retained pairs → regression variance only
        // carries the ρ²σ²/n term → regression weight dominates.
        let fresh = [10.0, 12.0];
        let prev: Vec<f64> = (0..20).map(|i| 10.0 + (i % 5) as f64 * 0.1).collect();
        let cur: Vec<f64> = prev.iter().map(|p| p + 1.0).collect();
        let e = combined_estimate(&fresh, &prev, &cur, 10.2).unwrap();
        assert!(e.alpha < 0.5, "alpha = {}", e.alpha);
    }

    #[test]
    fn combined_estimate_validates() {
        assert!(combined_estimate(&[], &[], &[], 0.0).is_err());
        assert!(combined_estimate(&[1.0], &[1.0], &[], 0.0).is_err());
        assert!(combined_estimate(&[f64::NAN], &[], &[], 0.0).is_err());
        assert!(combined_estimate(&[1.0], &[1.0], &[f64::INFINITY], 0.0).is_err());
    }

    #[test]
    fn combined_estimate_constant_values() {
        // Zero variance everywhere: must not divide by zero.
        let fresh = [5.0, 5.0, 5.0];
        let prev = [5.0, 5.0];
        let cur = [5.0, 5.0];
        let e = combined_estimate(&fresh, &prev, &cur, 5.0).unwrap();
        assert!((e.estimate - 5.0).abs() < 1e-9);
        assert!(e.variance >= 0.0);
    }

    #[test]
    fn combined_estimate_is_unbiased_monte_carlo() {
        // Deterministic LCG Monte-Carlo: population mean 0; the combined
        // estimator must average near 0 across trials.
        let mut seed = 42u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            // 32 high bits → [0, 2³²) → [−1, 1).
            (seed >> 32) as f64 / (1u64 << 31) as f64 - 1.0
        };
        let mut sum = 0.0;
        let trials = 400;
        for _ in 0..trials {
            let prev: Vec<f64> = (0..30).map(|_| next()).collect();
            let cur: Vec<f64> = prev.iter().map(|p| 0.8 * p + 0.2 * next()).collect();
            let fresh: Vec<f64> = (0..15).map(|_| 0.8 * next() + 0.2 * next()).collect();
            let e = combined_estimate(&fresh, &prev, &cur, 0.0).unwrap();
            sum += e.estimate;
        }
        let avg = sum / trials as f64;
        assert!(avg.abs() < 0.05, "bias detected: {avg}");
    }

    /// Every field of an estimate, bit for bit.
    fn bits(e: &CombinedEstimate) -> [u64; 6] {
        [
            e.estimate,
            e.variance,
            e.alpha,
            e.rho_hat,
            e.slope,
            e.sigma2_hat,
        ]
        .map(f64::to_bits)
    }

    /// A finite panel value: wide, or near-constant at a large mean (the
    /// regime Welford is there for), or a repeat that makes columns
    /// constant, or either zero, or large enough that sums overflow.
    fn finite() -> impl Strategy<Value = f64> {
        prop_oneof![
            -1e3..1e3,
            -1e3..1e3,
            (-1.0..1.0).prop_map(|x: f64| 1e6 + 1e-3 * x),
            Just(5.0),
            Just(0.0),
            Just(-0.0),
            -1e307..1e307,
            Just(f64::MAX),
        ]
    }

    fn non_finite() -> impl Strategy<Value = f64> {
        prop_oneof![Just(f64::NAN), Just(f64::INFINITY), Just(f64::NEG_INFINITY)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The one-pass fold is the five-pass fold: the same bits in every
        /// field, or the same error. Columns are finite, or carry one NaN
        /// or ±∞ (in a column or in `prev_mean`), or are all one signed
        /// zero; fresh and retained columns are empty now and then, and
        /// the retained slices sometimes differ in length.
        #[test]
        fn one_pass_fold_is_the_five_pass_fold(
            fresh in prop::collection::vec(finite(), 0..16),
            pairs in prop::collection::vec((finite(), finite()), 0..16),
            prev_mean in finite(),
            poison in 0usize..64,
            poison_value in non_finite(),
            zeros in 0u8..12,
            mismatch in 0u8..16,
        ) {
            let mut fresh = fresh;
            let (mut prev, mut cur): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
            let mut prev_mean = prev_mean;
            // One in six panels is all one signed zero.
            if zeros < 2 {
                let zero = if zeros == 0 { -0.0 } else { 0.0 };
                for v in fresh.iter_mut().chain(&mut prev).chain(&mut cur) {
                    *v = zero;
                }
                prev_mean = zero;
            }
            // About a third of the panels carry one non-finite value.
            let columns = [fresh.len(), prev.len(), cur.len()];
            match poison.checked_sub(columns.iter().sum()) {
                None => {
                    let mut at = poison;
                    for (column, len) in [&mut fresh, &mut prev, &mut cur].into_iter().zip(columns) {
                        if at < len {
                            column[at] = poison_value;
                            break;
                        }
                        at -= len;
                    }
                }
                Some(0) => prev_mean = poison_value,
                Some(_) => {}
            }
            // One in sixteen has retained slices of different lengths.
            if mismatch == 0 && cur.pop().is_none() {
                cur.push(1.0);
            }

            let got = combined_estimate(&fresh, &prev, &cur, prev_mean);
            let want = reference::combined_estimate(&fresh, &prev, &cur, prev_mean);
            match (got, want) {
                (Ok(got), Ok(want)) => prop_assert_eq!(bits(&got), bits(&want)),
                (got, want) => prop_assert_eq!(got.map(|e| bits(&e)), want.map(|e| bits(&e))),
            }
        }
    }

    /// The fold's corners the property draws only now and then.
    #[test]
    fn one_pass_fold_matches_on_empty_and_signed_zero_columns() {
        let cases: [(&[f64], &[f64], &[f64]); 6] = [
            (&[-0.0, -0.0], &[], &[]),
            (&[], &[-0.0, -0.0], &[-0.0, -0.0]),
            (&[-0.0], &[-0.0], &[-0.0]),
            (&[0.0, -0.0], &[-0.0], &[0.0]),
            (&[], &[1.0], &[2.0]),
            (&[3.0], &[], &[]),
        ];
        for (fresh, prev, cur) in cases {
            for prev_mean in [-0.0, 0.0, 1.0] {
                let got = combined_estimate(fresh, prev, cur, prev_mean).unwrap();
                let want = reference::combined_estimate(fresh, prev, cur, prev_mean).unwrap();
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{fresh:?} {prev:?} {cur:?} {prev_mean}"
                );
            }
        }
        let got = combined_estimate(&[-0.0, -0.0], &[], &[], 0.0).unwrap();
        assert!(
            got.estimate.is_sign_negative(),
            "an all-−0.0 column's mean is −0.0"
        );
    }
}
