//! The δ half of the contract, with power: `PRED-k` fed noisy snapshots of
//! a moving aggregate keeps the share of ticks whose running estimate is
//! off by more than `δ + ε` within `1 − p`.
//!
//! Each world is a cubic trend (up to ≈ 1 unit a tick), TEMPERATURE's ±1
//! day/night alternation on top, and snapshot noise of exactly the
//! contract's variance `(ε / z_p)²`. The loop is the engine's, minus the
//! sampling: a snapshot when the scheduler says so, its estimate held
//! until the next, every tick scored against the truth. For `PRED-1 … 4`
//! and `δ/σ̂ ∈ {0.25, 0.5, 1, 2}` (Fig. 4-a's grid; at 0.25 `δ` is one
//! alternation swing) the misses of [`SEEDS`] worlds are pooled, and
//! an exact one-sided binomial test at `α = 0.01` asks whether a miss rate
//! of `1 − p` could have produced that many.

#![allow(clippy::unwrap_used, clippy::cast_precision_loss)]

use digest_core::{Precision, PredScheduler, SnapshotScheduler};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// TEMPERATURE's cross-sectional spread; `δ` is a multiple of it.
const SIGMA_HAT: f64 = 8.0;
const EPSILON: f64 = 2.0;
const CONFIDENCE: f64 = 0.95;
const TICKS: u64 = 1_080;
const SEEDS: u64 = 4;
const ALPHA: f64 = 0.01;

/// `X[t]`: a seeded cubic over the run plus the ±1 alternation.
struct World {
    coeffs: [f64; 3],
}

impl World {
    fn new(rng: &mut ChaCha8Rng) -> Self {
        Self {
            coeffs: [(); 3].map(|()| rng.gen_range(-0.35..0.35)),
        }
    }

    fn truth(&self, t: u64) -> f64 {
        let s = t as f64;
        let n = TICKS as f64;
        let [b1, b2, b3] = self.coeffs;
        let alternation = if t.is_multiple_of(2) { 1.0 } else { -1.0 };
        60.0 + b1 * s + b2 * s * s / n + b3 * s * s * s / (n * n) + alternation
    }
}

/// A standard normal draw (Box–Muller).
fn gaussian(rng: &mut ChaCha8Rng) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    let v: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
}

/// Ticks of one world on which the running estimate missed by more than
/// `δ + ε`, and how many snapshots it took.
fn misses(k: usize, delta: f64, seed: u64) -> (u64, u64) {
    let contract = Precision::new(delta, EPSILON, CONFIDENCE).unwrap();
    let noise = contract.target_variance().unwrap().sqrt();
    let mut scheduler = PredScheduler::for_precision(k, &contract).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let world = World::new(&mut rng);
    let (mut estimate, mut due) = (f64::NAN, 0);
    let (mut missed, mut snapshots) = (0, 0);
    for t in 0..TICKS {
        let truth = world.truth(t);
        if t >= due {
            estimate = truth + noise * gaussian(&mut rng);
            scheduler.observe(t as f64, estimate);
            due = t + scheduler.next_delay(delta).unwrap();
            snapshots += 1;
        }
        if (estimate - truth).abs() > delta + EPSILON {
            missed += 1;
        }
    }
    (missed, snapshots)
}

/// `P(X ≥ x)` for `X ~ Binomial(n, q)`, summed in log space so that
/// `(1 − q)^n` may underflow.
fn upper_tail(x: u64, n: u64, q: f64) -> f64 {
    let (ln_q, ln_1q) = (q.ln(), (1.0 - q).ln());
    let mut ln_pmf = n as f64 * ln_1q;
    let mut tail = 0.0;
    for i in 0..=n {
        if i >= x {
            tail += ln_pmf.exp();
        }
        // pmf(i + 1) = pmf(i) · (n − i) / (i + 1) · q / (1 − q)
        ln_pmf += ((n - i) as f64).ln() - ((i + 1) as f64).ln() + ln_q - ln_1q;
    }
    tail
}

#[test]
fn binomial_tail_is_exact_on_small_cases() {
    // Bin(4, ½): P(X ≥ 3) = 5/16, P(X ≥ 0) = 1.
    assert!((upper_tail(3, 4, 0.5) - 5.0 / 16.0).abs() < 1e-12);
    assert!((upper_tail(0, 4, 0.5) - 1.0).abs() < 1e-12);
    // Bin(10, 0.05): P(X ≥ 2) = 1 − 0.95¹⁰ − 10·0.05·0.95⁹.
    let want = 1.0 - 0.95f64.powi(10) - 0.5 * 0.95f64.powi(9);
    assert!((upper_tail(2, 10, 0.05) - want).abs() < 1e-12);
}

#[test]
fn pred_k_holds_the_delta_contract_with_power() {
    let promised = 1.0 - CONFIDENCE;
    let mut failures = Vec::new();
    println!("k  δ/σ̂  misses/ticks  share   p-value  snapshots");
    for k in 1..=4 {
        for ratio in [0.25, 0.5, 1.0, 2.0] {
            let delta = ratio * SIGMA_HAT;
            let (mut missed, mut snapshots) = (0, 0);
            for seed in 1..=SEEDS {
                let (m, s) = misses(k, delta, seed);
                missed += m;
                snapshots += s;
            }
            let ticks = SEEDS * TICKS;
            let p_value = upper_tail(missed, ticks, promised);
            println!(
                "{k}  {ratio:>4}  {missed:>6}/{ticks}  {:.4}  {p_value:.2e}  {snapshots}",
                missed as f64 / ticks as f64
            );
            if p_value < ALPHA {
                failures.push((k, ratio, missed));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "(k, δ/σ̂, misses) whose miss share exceeds 1 − p at α = {ALPHA}: {failures:?}"
    );
}
