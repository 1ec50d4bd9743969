//! Property-based tests of the statistical kernels.

// Tests may panic freely; the workspace deny-lints target library code.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    clippy::cast_possible_truncation
)]

use digest_stats::repeated::{combined_variance, min_combined_variance, optimal_partition};
use digest_stats::{
    inverse_phi, phi, required_sample_size, total_variation_distance, DiscreteDistribution,
    PairedMoments, RunningMoments,
};
use proptest::prelude::*;

fn finite_vec(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, len)
}

proptest! {
    #[test]
    fn welford_matches_naive_mean_and_variance(xs in finite_vec(1..200)) {
        let m = RunningMoments::from_slice(&xs);
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        // Relative-ish tolerance for large magnitudes.
        let scale = 1.0 + mean.abs() + var.abs();
        prop_assert!((m.mean() - mean).abs() / scale < 1e-9);
        prop_assert!((m.population_variance() - var).abs() / scale.powi(2) < 1e-6);
    }

    #[test]
    fn welford_merge_is_order_independent(
        xs in finite_vec(1..80),
        ys in finite_vec(1..80),
    ) {
        let mut a = RunningMoments::from_slice(&xs);
        a.merge(&RunningMoments::from_slice(&ys));
        let mut all = xs.clone();
        all.extend_from_slice(&ys);
        let b = RunningMoments::from_slice(&all);
        prop_assert_eq!(a.count(), b.count());
        prop_assert!((a.mean() - b.mean()).abs() < 1e-6 * (1.0 + b.mean().abs()));
        prop_assert!(
            (a.sample_variance() - b.sample_variance()).abs()
                < 1e-6 * (1.0 + b.sample_variance())
        );
    }

    #[test]
    fn correlation_always_in_unit_interval(
        pairs in prop::collection::vec((-1e5f64..1e5, -1e5f64..1e5), 2..100)
    ) {
        let mut m = PairedMoments::new();
        for (x, y) in &pairs {
            m.push(*x, *y);
        }
        prop_assert!(m.correlation().abs() <= 1.0);
    }

    #[test]
    fn normal_quantile_round_trips(p in 0.001f64..0.999) {
        let z = inverse_phi(p).unwrap();
        prop_assert!((phi(z) - p).abs() < 1e-9);
    }

    #[test]
    fn sample_size_is_monotone(
        sigma in 0.1f64..100.0,
        eps in 0.01f64..10.0,
        p in 0.5f64..0.99,
    ) {
        let n = required_sample_size(sigma, eps, p).unwrap();
        let n_tighter = required_sample_size(sigma, eps / 2.0, p).unwrap();
        let n_wider_sigma = required_sample_size(sigma * 2.0, eps, p).unwrap();
        prop_assert!(n_tighter >= n);
        prop_assert!(n_wider_sigma >= n);
    }

    #[test]
    fn rpt_variance_never_beats_eq10_minimum(
        n in 2usize..500,
        g_frac in 0.0f64..1.0,
        rho in -0.999f64..0.999,
        sigma2 in 0.01f64..100.0,
    ) {
        let g = ((n as f64) * g_frac) as usize;
        let v = combined_variance(sigma2, n, g, rho).unwrap();
        let vmin = min_combined_variance(sigma2, n, rho).unwrap();
        prop_assert!(v + 1e-12 >= vmin, "v = {v}, vmin = {vmin}");
        // And never worse than independent sampling's σ²/n at the optimum.
        let gopt = optimal_partition(n, rho).retained;
        let vopt = combined_variance(sigma2, n, gopt, rho).unwrap();
        prop_assert!(vopt <= sigma2 / n as f64 + 1e-12);
    }

    #[test]
    fn tvd_is_a_bounded_metric(
        w1 in prop::collection::vec(0.001f64..10.0, 3..20),
    ) {
        let w2: Vec<f64> = w1.iter().rev().copied().collect();
        let a = DiscreteDistribution::from_weights(&w1).unwrap();
        let b = DiscreteDistribution::from_weights(&w2).unwrap();
        let ab = total_variation_distance(&a, &b).unwrap();
        prop_assert!((0.0..=1.0).contains(&ab));
        prop_assert!((total_variation_distance(&b, &a).unwrap() - ab).abs() < 1e-12);
        prop_assert!(total_variation_distance(&a, &a).unwrap() < 1e-12);
    }
}

// Pins on the Eq. 9 partition used by the repeated partial-testing
// estimator: the retained share stays in `[⌈n/2⌉, n]` for every
// correlation, the partition always covers the panel exactly, and the
// combined estimator never does worse than independent sampling's σ²/n.
proptest! {
    #[test]
    fn optimal_partition_stays_in_the_eq9_band(
        n in 1usize..2000,
        rho in -0.999f64..0.999,
        sigma2 in 0.01f64..100.0,
    ) {
        let p = optimal_partition(n, rho);
        prop_assert_eq!(p.retained + p.fresh, n);
        prop_assert_eq!(p.total(), n);
        let half_up = n.div_ceil(2);
        prop_assert!(
            p.retained >= half_up,
            "g = {} below ⌈n/2⌉ = {half_up} for n = {n}, ρ = {rho}",
            p.retained
        );
        prop_assert!(p.retained <= n);
        if n >= 2 {
            // |ρ| < 1 here, so the panel must keep at least one fresh
            // sample to repair itself against churn.
            prop_assert!(p.fresh >= 1, "no fresh samples at n = {n}, ρ = {rho}");
        }

        let indep = sigma2 / n as f64;
        let v = combined_variance(sigma2, n, p.retained, rho).unwrap();
        prop_assert!(
            v <= indep + 1e-12,
            "combined variance {v} at g_opt exceeds independent {indep}"
        );
        let vmin = min_combined_variance(sigma2, n, rho).unwrap();
        prop_assert!(vmin <= indep + 1e-12);
        prop_assert!(vmin <= v + 1e-12);
    }
}
