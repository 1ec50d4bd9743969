//! Eqs. 8–11 verification: Monte-Carlo check of the repeated-sampling
//! variance algebra.
//!
//! For a synthetic population evolving as a cross-sectionally Gaussian
//! AR(1) with controllable occasion correlation ρ, we repeatedly draw a
//! panel of `n` samples, split it `g`/`f`, form the combined estimator of
//! §IV-B2, and compare the *empirical* variance with:
//!
//! * the closed-form combined variance (Eq. 8) at several partitions,
//! * the minimum variance under `g_opt` (Eqs. 9–10),
//! * the improvement ratio over independent sampling (Eq. 11).

use digest_bench::{banner, write_json, Scale};
use digest_stats::repeated::{
    combined_estimate, combined_variance, improvement_ratio, min_combined_variance,
    optimal_partition,
};
use digest_workload::normal::gaussian;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde_json::json;

/// Empirical variance of the combined estimator at partition `g` of `n`,
/// over `trials` Monte-Carlo replications with population correlation ρ.
fn empirical_variance(
    rho: f64,
    n: usize,
    g: usize,
    trials: usize,
    pop: usize,
    rng: &mut ChaCha8Rng,
) -> f64 {
    let mut sum = 0.0;
    let mut sum_sq = 0.0;
    for _ in 0..trials {
        // Population at occasion 1 and 2: x2 = ρ x1 + √(1−ρ²) ξ (unit σ).
        let x1: Vec<f64> = (0..pop).map(|_| gaussian(rng)).collect();
        let noise = (1.0 - rho * rho).sqrt();
        let x2: Vec<f64> = x1
            .iter()
            .map(|&x| rho * x + noise * gaussian(rng))
            .collect();
        let mean2 = x2.iter().sum::<f64>() / pop as f64;

        // Occasion 1: the full panel of n samples; ȳ₁ is *their* mean
        // (Table 1's auxiliary estimate — feeding the true population mean
        // here would drop the ρ²σ²/n term of the variance).
        let panel: Vec<usize> = (0..n).map(|_| rng.gen_range(0..pop)).collect();
        let y1_bar = panel.iter().map(|&i| x1[i]).sum::<f64>() / n as f64;

        // Occasion 2: retain the first g panel members, replace the rest
        // with fresh draws.
        let prev: Vec<f64> = panel[..g].iter().map(|&i| x1[i]).collect();
        let cur: Vec<f64> = panel[..g].iter().map(|&i| x2[i]).collect();
        let fresh: Vec<f64> = (0..n - g).map(|_| x2[rng.gen_range(0..pop)]).collect();
        let est = combined_estimate(&fresh, &prev, &cur, y1_bar).expect("estimate");
        let err = est.estimate - mean2;
        sum += err;
        sum_sq += err * err;
    }
    let t = trials as f64;
    sum_sq / t - (sum / t).powi(2)
}

fn main() {
    let scale = Scale::from_args();
    banner(
        "EQ 8–11",
        "Monte-Carlo verification of the RPT variance algebra",
        scale,
    );

    // Population ≫ n suffices (sampling is with replacement); trials set
    // the Monte-Carlo error of the variance estimate (~√(2/trials)).
    let (trials, pop) = match scale {
        Scale::Full => (12_000, 5_000),
        Scale::Quick => (4_000, 5_000),
    };
    let n = 100;
    let rhos = [0.0, 0.3, 0.6, 0.8, 0.9, 0.95, 0.99];
    let mut rng = ChaCha8Rng::seed_from_u64(17);

    println!();
    println!(
        "{:>6} {:>6} {:>12} {:>12} {:>9} | {:>12} {:>12} {:>8}",
        "ρ", "g_opt", "emp var", "Eq.8 var", "ratio", "emp min", "Eq.10 min", "Eq.11 I"
    );
    let mut rows = Vec::new();
    for &rho in &rhos {
        let part = optimal_partition(n, rho);
        let emp_opt = empirical_variance(rho, n, part.retained, trials, pop, &mut rng);
        let theory_opt = combined_variance(1.0, n, part.retained, rho).expect("eq8");
        let theory_min = min_combined_variance(1.0, n, rho).expect("eq10");
        let indep_var = 1.0 / n as f64;
        let emp_i = indep_var / emp_opt;
        println!(
            "{rho:>6.2} {:>6} {emp_opt:>12.6} {theory_opt:>12.6} {:>9.3} | {emp_opt:>12.6} {theory_min:>12.6} {:>8.3}",
            part.retained,
            emp_opt / theory_opt,
            improvement_ratio(rho),
        );
        rows.push(json!({
            "rho": rho,
            "g_opt": part.retained,
            "empirical_variance": emp_opt,
            "eq8_variance": theory_opt,
            "eq10_min_variance": theory_min,
            "empirical_improvement": emp_i,
            "eq11_improvement": improvement_ratio(rho),
        }));
    }

    // Cross-partition check at a fixed ρ: Eq. 8 across g and the optimum.
    let rho = 0.9;
    println!();
    println!("partition sweep at ρ = {rho} (n = {n}):");
    println!("{:>6} {:>12} {:>12}", "g", "emp var", "Eq.8 var");
    let mut sweep = Vec::new();
    for g in [0usize, 25, 50, optimal_partition(n, rho).retained, 75, 99] {
        let emp = empirical_variance(rho, n, g, trials, pop, &mut rng);
        let theory = combined_variance(1.0, n, g, rho).expect("eq8");
        println!("{g:>6} {emp:>12.6} {theory:>12.6}");
        sweep.push(json!({ "g": g, "empirical": emp, "eq8": theory }));
    }

    println!();
    println!(
        "shape check: empirical/theory ratios ≈ 1 across ρ; the optimal \
         partition's variance is the sweep minimum; I grows to 2 as ρ → 1."
    );
    write_json(
        "eq11_variance",
        scale,
        &json!({ "n": n, "rows": rows, "partition_sweep": sweep }),
    );
}
