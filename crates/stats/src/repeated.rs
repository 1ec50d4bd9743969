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

/// Sums of one column's deviations `d = v − c` from its first value `c`:
/// `Σd` and `Σd²`. A constant column's deviations are exactly 0, so it
/// has no spread at all, as in the Welford form.
#[derive(Debug, Clone, Copy, Default)]
struct ShiftedSums {
    shift: f64,
    sum: f64,
    squares: f64,
}

impl ShiftedSums {
    fn about_first(column: &[f64]) -> Self {
        Self {
            shift: column.first().copied().unwrap_or(0.0),
            ..Self::default()
        }
    }

    /// Adds `v` and returns its deviation.
    fn push(&mut self, v: f64) -> f64 {
        let d = v - self.shift;
        self.sum += d;
        self.squares += d * d;
        d
    }

    /// The mean of `count > 0` values.
    fn mean(&self, count: f64) -> f64 {
        self.shift + self.sum / count
    }

    /// `mean − c` for `count > 0` values, where `c` sits near them: the
    /// mean itself would round at the values' own magnitude first.
    fn mean_past(&self, c: f64, count: f64) -> f64 {
        (self.shift - c) + self.sum / count
    }

    /// The centred sum of squares `Σ(v − v̄)²` of `count > 0` values,
    /// which rounding cannot take below zero.
    fn centred(&self, count: f64) -> f64 {
        (self.squares - self.sum * self.sum / count).max(0.0)
    }
}

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

    // One pass of sums, each column about its own first value (Chan,
    // Golub & LeVeque, "Algorithms for computing the sample variance",
    // 1983). The deviations are small next to the values, so their sums
    // of squares and products lose only what the column's own spread
    // loses, and no value costs a division, as a Welford update does.
    let mut finite = prev_mean.is_finite();
    let mut fresh_sums = ShiftedSums::about_first(fresh);
    for &y in fresh {
        finite &= y.is_finite();
        fresh_sums.push(y);
    }
    // Retained pairs: both columns' sums and `Σdx·dy`.
    let mut prev_sums = ShiftedSums::about_first(retained_prev);
    let mut cur_sums = ShiftedSums::about_first(retained_cur);
    let mut products = 0.0;
    for (&x, &y) in retained_prev.iter().zip(retained_cur) {
        finite &= x.is_finite() & y.is_finite();
        products += prev_sums.push(x) * cur_sums.push(y);
    }
    if !finite {
        return Err(StatsError::NonFiniteInput {
            what: "panel values",
        });
    }
    let (ff, gf, nf) = (f as f64, g as f64, n as f64);
    let fresh_mean = if f > 0 { fresh_sums.mean(ff) } else { 0.0 };

    // Pure-fresh fallback (independent sampling).
    if g == 0 {
        let sigma2_hat = if f < 2 {
            0.0
        } else {
            fresh_sums.centred(ff) / (ff - 1.0)
        };
        return Ok(CombinedEstimate {
            estimate: fresh_mean,
            variance: sigma2_hat / ff,
            alpha: 1.0,
            rho_hat: 0.0,
            slope: 0.0,
            sigma2_hat,
        });
    }

    // Pooled variance of current-occasion values across the whole panel:
    // the two columns' centred sums plus the gap between their means
    // (Chan et al.'s pairwise update).
    let mut pooled = cur_sums.centred(gf);
    if f > 0 {
        let gap = cur_sums.mean_past(fresh_sums.shift, gf) - fresh_sums.sum / ff;
        pooled += fresh_sums.centred(ff) + gap * gap * (ff * gf / nf);
    }
    let sigma2_hat = if n < 2 { 0.0 } else { pooled / (nf - 1.0) };

    // Retained-pair statistics, with `PairedMoments`' guards: fewer than
    // two pairs, or a previous column (or both) without spread, give 0.
    let (m2x, m2y) = (prev_sums.centred(gf), cur_sums.centred(gf));
    let cxy = products - prev_sums.sum * cur_sums.sum / gf;
    let floor = f64::EPSILON * gf;
    let denom = (m2x * m2y).sqrt();
    let rho_hat = if g < 2 || denom <= floor {
        0.0
    } else {
        (cxy / denom).clamp(-1.0, 1.0)
    };
    let slope = if g < 2 || m2x <= floor {
        0.0
    } else {
        cxy / m2x
    };

    // Regression estimate from the retained portion (Table 1):
    // Ȳ_kg = ȳ_kg + b (Ȳ_{k−1} − ȳ_{k−1,g}).
    let regression_estimate = cur_sums.mean(gf) - slope * prev_sums.mean_past(prev_mean, gf);

    let rho2 = rho_hat * rho_hat;
    let var_regression = sigma2_hat * (1.0 - rho2) / gf + rho2 * sigma2_hat / nf;

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

    let var_fresh = sigma2_hat / ff;

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

/// `combined_estimate` in the Welford form its shifted sums replaced, as
/// five passes (finiteness, pooled moments, paired moments, one sum per
/// column): the oracle they agree with on well-conditioned panels.
#[cfg(test)]
mod reference {
    use super::*;
    use crate::moments::{PairedMoments, RunningMoments};

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

    /// Every field of an estimate.
    fn fields(e: &CombinedEstimate) -> [f64; 6] {
        [
            e.estimate,
            e.variance,
            e.alpha,
            e.rho_hat,
            e.slope,
            e.sigma2_hat,
        ]
    }

    /// Whether every field of `got` is within `tolerance` of `want`'s,
    /// relative to the larger magnitude.
    fn agree(got: &CombinedEstimate, want: &CombinedEstimate, tolerance: f64) -> bool {
        fields(got)
            .iter()
            .zip(fields(want))
            .all(|(&a, b)| (a - b).abs() <= tolerance * a.abs().max(b.abs()))
    }

    /// A column's mean and standard deviation, in two passes.
    fn spread(column: &[f64]) -> (f64, f64) {
        let n = column.len().max(1) as f64;
        let mean = column.iter().sum::<f64>() / n;
        let m2: f64 = column.iter().map(|v| (v - mean) * (v - mean)).sum();
        (mean, (m2 / n).sqrt())
    }

    /// Whether `got` is `want` to `tolerance`, each field relative to the
    /// terms it is built from, so that a statistic near 0 by cancellation
    /// is not held to its own size: `ρ̂` and `α` absolutely, `σ̂²` and the
    /// variance relative to themselves, the slope relative to
    /// `|b| + s_y / s_x`, and the estimate relative to the panel's largest
    /// value plus the regression term's reach, that slope scale times
    /// `|Ȳ_{k−1} − x̄|`.
    fn close(
        got: &CombinedEstimate,
        want: &CombinedEstimate,
        panel: (&[f64], &[f64], &[f64], f64),
        tolerance: f64,
    ) -> bool {
        let (fresh, prev, cur, prev_mean) = panel;
        let ((prev_mean_x, sx), (_, sy)) = (spread(prev), spread(cur));
        let slope_scale = want.slope.abs() + if sx > 0.0 { sy / sx } else { 0.0 };
        let largest = fresh.iter().chain(cur).fold(0.0_f64, |m, v| m.max(v.abs()));
        let scales = [
            largest + slope_scale * (prev_mean - prev_mean_x).abs(),
            want.variance.abs(),
            1.0,
            1.0,
            slope_scale,
            want.sigma2_hat.abs(),
        ];
        fields(got)
            .iter()
            .zip(fields(want))
            .zip(scales)
            .all(|((&a, b), scale)| (a - b).abs() <= tolerance * scale.max(a.abs()).max(b.abs()))
    }

    /// A finite panel value: wide, or near-constant at a large mean, or
    /// a repeat that makes columns constant, or either zero, or large
    /// enough that sums overflow.
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

    /// Beyond this magnitude a value's square overflows, and both forms
    /// give up: Welford's `M₂` reads `∞`, the shifted sums `∞ − ∞`.
    const SQUARES_OVERFLOW: f64 = 1e150;

    /// A TEMPERATURE-like panel: readings around a level between 0 and
    /// 40 °C with a spread of 0.5–5 °C, each retained reading moved by up
    /// to a fifth of the spread since the previous occasion, and the
    /// previous estimate within a spread of the level. One panel in four
    /// retains nothing and keeps 1–39 fresh values; the others retain
    /// 5–39 pairs, as many as RPT regresses on, and keep 0–39 fresh.
    fn temperature_panel() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, Vec<f64>, f64)> {
        type Draw = ((f64, f64), Vec<f64>, Vec<(f64, f64)>, (f64, u8, u8));
        (
            (0.0..40.0, 0.5..5.0),
            prop::collection::vec(-1.0..1.0, 1..40),
            prop::collection::vec((-1.0..1.0, -1.0..1.0), 5..40),
            (-1.0..1.0, 0u8..4, 0u8..40),
        )
            .prop_map(
                |((level, spread), fresh, pairs, (offset, retain, keep)): Draw| {
                    let (fresh, pairs) = if retain == 0 {
                        (fresh, vec![])
                    } else {
                        (fresh[..fresh.len().min(keep.into())].to_vec(), pairs)
                    };
                    let at = |u: &f64| level + spread * u;
                    let prev: Vec<f64> = pairs.iter().map(|(u, _)| at(u)).collect();
                    let cur = prev
                        .iter()
                        .zip(&pairs)
                        .map(|(x, (_, v))| x + 0.2 * spread * v)
                        .collect();
                    (fresh.iter().map(at).collect(), prev, cur, at(&offset))
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The shifted sums are the Welford form: the same error, or every
        /// field within 10⁻¹² of the reference's (see [`close`]). Columns
        /// are finite, or carry one NaN or ±∞ (in a column or in
        /// `prev_mean`), or are all one signed zero; fresh and retained
        /// columns are empty now and then, and the retained slices
        /// sometimes differ in length. Two things are exempt: the sign of
        /// a zero (an all-−0.0 column's mean is +0.0 here), which `close`
        /// does not see, and panels with a value past
        /// [`SQUARES_OVERFLOW`], where only the error is compared.
        #[test]
        fn shifted_sums_are_the_welford_form(
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
            let in_range = fresh
                .iter()
                .chain(&prev)
                .chain(&cur)
                .chain([&prev_mean])
                .all(|v| v.abs() < SQUARES_OVERFLOW);
            match (got, want) {
                (Ok(got), Ok(want)) if in_range => {
                    let panel = (&fresh[..], &prev[..], &cur[..], prev_mean);
                    prop_assert!(close(&got, &want, panel, 1e-12), "{:?} vs {:?}", got, want);
                }
                (got, want) => prop_assert_eq!(got.err(), want.err()),
            }
        }
    }

    /// The corners the property draws only now and then: empty columns,
    /// one-value panels and signed zeros.
    #[test]
    fn shifted_sums_match_on_empty_and_signed_zero_columns() {
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
                assert!(
                    agree(&got, &want, 1e-12),
                    "{fresh:?} {prev:?} {cur:?} {prev_mean}: {got:?} vs {want:?}"
                );
            }
        }
    }

    /// A constant column has no spread, wherever it sits: a previous
    /// column constant at 20 °C next to an estimate of 25.3 gives slope
    /// and `ρ̂` 0, as the Welford form does, so the regression estimate
    /// is the retained mean and not moved by the gap. Likewise a
    /// constant current column, and integer-valued columns.
    #[test]
    fn a_constant_column_has_no_spread() {
        let varying = [19.2, 21.7, 20.4, 18.9, 22.3, 20.8];
        let constant = [20.0; 6];
        let fresh = [20.1, 19.5, 21.0];
        let panels: [(&[f64], &[f64], &[f64]); 4] = [
            (&[], &constant, &varying),
            (&fresh, &constant, &varying),
            (&fresh, &varying, &constant),
            (&[], &[3.0; 7], &[1.0, 4.0, 2.0, 7.0, 3.0, 5.0, 4.0]),
        ];
        for (i, (fresh, prev, cur)) in panels.into_iter().enumerate() {
            let got = combined_estimate(fresh, prev, cur, 25.3).unwrap();
            let want = reference::combined_estimate(fresh, prev, cur, 25.3).unwrap();
            assert_eq!((got.rho_hat, got.slope), (0.0, 0.0), "panel {i}");
            assert!(agree(&got, &want, 1e-12), "panel {i}: {got:?} vs {want:?}");
        }
        let e = combined_estimate(&[], &constant, &varying, 25.3).unwrap();
        let cur_mean = varying.iter().sum::<f64>() / 6.0;
        assert!((e.estimate - cur_mean).abs() <= 1e-12 * cur_mean);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// On TEMPERATURE-like panels the shifted sums are the Welford
        /// form to 10⁻¹² relative in every field.
        #[test]
        fn shifted_sums_agree_with_the_welford_form(panel in temperature_panel()) {
            let (fresh, prev, cur, prev_mean) = panel;
            let got = combined_estimate(&fresh, &prev, &cur, prev_mean).unwrap();
            let want = reference::combined_estimate(&fresh, &prev, &cur, prev_mean).unwrap();
            prop_assert!(agree(&got, &want, 1e-12), "{:?} vs {:?}", got, want);
        }
    }

    /// A panel of values `10⁹ + k / 1024` held as the integers `k`, and
    /// its combined estimate in exact integer sums (each statistic rounds
    /// once, to `f64`, before the estimator's own arithmetic).
    struct GridPanel {
        fresh: Vec<i64>,
        prev: Vec<i64>,
        cur: Vec<i64>,
        prev_mean: i64,
    }

    const BASE: f64 = 1e9;
    const GRID: f64 = 1024.0;

    impl GridPanel {
        fn values(column: &[i64]) -> Vec<f64> {
            column.iter().map(|&k| BASE + k as f64 / GRID).collect()
        }

        fn estimate(&self) -> CombinedEstimate {
            combined_estimate(
                &Self::values(&self.fresh),
                &Self::values(&self.prev),
                &Self::values(&self.cur),
                BASE + self.prev_mean as f64 / GRID,
            )
            .unwrap()
        }

        /// `n·Σab − Σa·Σb`: `n²` times the centred cross sum, exact.
        fn centred(a: &[i64], b: &[i64]) -> i128 {
            let n = a.len() as i128;
            let dot: i128 = a
                .iter()
                .zip(b)
                .map(|(&x, &y)| i128::from(x) * i128::from(y))
                .sum();
            let (sa, sb) = (
                a.iter().map(|&x| i128::from(x)).sum::<i128>(),
                b.iter().map(|&y| i128::from(y)).sum::<i128>(),
            );
            n * dot - sa * sb
        }

        fn exact(&self) -> CombinedEstimate {
            let (f, g) = (self.fresh.len(), self.cur.len());
            let (ff, gf, nf) = (f as f64, g as f64, (f + g) as f64);
            let pooled: Vec<i64> = self.fresh.iter().chain(&self.cur).copied().collect();
            let sigma2_hat =
                Self::centred(&pooled, &pooled) as f64 / (nf * (nf - 1.0) * GRID * GRID);
            let mean =
                |column: &[i64]| column.iter().sum::<i64>() as f64 / (column.len() as f64 * GRID);
            let fresh_dev = if f > 0 { mean(&self.fresh) } else { 0.0 };
            if g == 0 {
                return CombinedEstimate {
                    estimate: BASE + fresh_dev,
                    variance: sigma2_hat / ff,
                    alpha: 1.0,
                    rho_hat: 0.0,
                    slope: 0.0,
                    sigma2_hat,
                };
            }
            let (sxx, syy, sxy) = (
                Self::centred(&self.prev, &self.prev) as f64,
                Self::centred(&self.cur, &self.cur) as f64,
                Self::centred(&self.prev, &self.cur) as f64,
            );
            let rho_hat = sxy / (sxx * syy).sqrt();
            let slope = sxy / sxx;
            let regression_dev =
                mean(&self.cur) + slope * (self.prev_mean as f64 / GRID - mean(&self.prev));
            let rho2 = rho_hat * rho_hat;
            let var_regression = sigma2_hat * (1.0 - rho2) / gf + rho2 * sigma2_hat / nf;
            if f == 0 {
                return CombinedEstimate {
                    estimate: BASE + regression_dev,
                    variance: var_regression,
                    alpha: 0.0,
                    rho_hat,
                    slope,
                    sigma2_hat,
                };
            }
            let (w_f, w_g) = (ff / sigma2_hat, 1.0 / var_regression);
            let alpha = w_f / (w_f + w_g);
            CombinedEstimate {
                estimate: BASE + (alpha * fresh_dev + (1.0 - alpha) * regression_dev),
                variance: 1.0 / (w_f + w_g),
                alpha,
                rho_hat,
                slope,
                sigma2_hat,
            }
        }
    }

    /// `count` draws of `N(0, 1)` on the 1/1024 grid, as grid integers
    /// (Box–Muller over a fixed LCG).
    fn grid_normals(seed: u64, count: usize) -> Vec<i64> {
        let mut state = seed;
        let mut uniform = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 11) as f64 + 0.5) / (1u64 << 53) as f64
        };
        (0..count)
            .map(|_| {
                let (u, v) = (uniform(), uniform());
                let z = (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos();
                (z * GRID).round() as i64
            })
            .collect()
    }

    /// Values `10⁹ + N(0, 1)`: the unshifted square of one value is 10¹⁸
    /// against a spread of 1, so sums about zero would lose every digit
    /// of the variance. Against exact integer sums, on a panel whose
    /// retained pairs correlate to `ρ → 1`, on a pure-regression panel
    /// of two pairs (`g = 2`, `f = 0`) and on a pure-fresh one (`g = 0`),
    /// every field is within 10⁻¹² relative.
    #[test]
    fn ill_conditioned_panels_match_exact_sums() {
        let prev = grid_normals(1, 40);
        // ρ → 1: each retained value moves by ≈ 2⁻¹⁰ · N(0, 1).
        let cur: Vec<i64> = prev
            .iter()
            .zip(grid_normals(2, 40))
            .map(|(x, e)| x + 3 + e / 1024)
            .collect();
        let panels = [
            GridPanel {
                fresh: grid_normals(3, 20),
                prev: prev.clone(),
                cur: cur.clone(),
                prev_mean: 37,
            },
            GridPanel {
                fresh: vec![],
                prev: prev[..2].to_vec(),
                cur: cur[..2].to_vec(),
                prev_mean: -5,
            },
            GridPanel {
                fresh: grid_normals(4, 60),
                prev: vec![],
                cur: vec![],
                prev_mean: 11,
            },
        ];
        let rho = panels[0].exact().rho_hat;
        assert!(rho > 0.999_999 && rho < 1.0, "ρ = {rho}");
        for (i, panel) in panels.iter().enumerate() {
            let (got, want) = (panel.estimate(), panel.exact());
            assert!(agree(&got, &want, 1e-12), "panel {i}: {got:?} vs {want:?}");
        }
    }
}
