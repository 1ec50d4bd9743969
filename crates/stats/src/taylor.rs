//! Polynomial extrapolation of the running aggregate (paper §IV-A), with a
//! prediction bound that knows the snapshots are estimates.
//!
//! The continual-querying algorithm `PRED-k` fits a degree-`(k−1)`
//! polynomial `P[t]` to recent snapshot results `X̂[t]` around the latest
//! update time `t_u` (Eq. 1) and schedules the next snapshot at the
//! earliest `t` where the aggregate can have moved by the resolution
//! threshold `δ` (Eq. 4). The paper bounds the extrapolation error with the
//! Lagrange remainder, whose derivative bound `M` has to be read off the
//! data. But snapshot results are estimates, each with variance
//! `σ² = (ε / z_p)²` by construction of the §II contract, and the order-`k`
//! divided differences that estimate `M` amplify that noise by ~2^k: deep
//! `PRED-k` ended up scheduled by its noise rather than by its signal.
//!
//! So the polynomial is fitted by least squares over the whole retained
//! window (`k +` [`EXTRA_HISTORY`] points, each with `σ²` as its noise
//! floor), and the next snapshot is due at the first `h ≥ 1` after the
//! newest one, `t_u`, where
//!
//! ```text
//! |D̂(h)| + z_p · sqrt(Var[D̂(h)] + 2τ̂²) + R̂(h) ≥ δ
//! ```
//!
//! * `D̂(h) = P[t_u + h] − P[t_u]` is the fitted drift;
//! * `Var[D̂(h)] = σ² · gᵀ(AᵀA)⁻¹g` is its variance under the snapshot
//!   noise (`A` the window's design matrix, `g` the drift's basis row at
//!   `h`), which grows as the fit is extrapolated further;
//! * `τ̂² = max(0, s² − σ²)` is the part of the residual mean square `s²`
//!   the noise does not explain: deviation the polynomial does not model
//!   (TEMPERATURE's day/night alternation), once at `t_u` and once at
//!   `t_u + h`;
//! * `R̂(h) = Σ_{j=k}^{2} M̂_j · h^j / j!` is the Lagrange remainder of a
//!   fit that cannot bend (`k ≤ 2`), with `M̂_j / j!` the order-`j`
//!   coefficient of a degree-`j` least-squares fit over the same window
//!   plus `z_p` of its standard errors. It is what lets `PRED-1`, whose
//!   constant fit has no drift, see a trend — and, through its order-2
//!   term, see that the slope it extrapolates can turn within the
//!   horizon: `M` must bound `|X'|` over `[t_u, t_u + h]`, not only over
//!   the window. Deeper fits carry their trend in `D̂`;
//! * `z_p` is the query's own confidence quantile — no new knob.
//!
//! Time is centred at `t_u` and scaled by the window's span, and the fit
//! is one Householder QR of the at most 12 × 8 design matrix on the stack
//! (for `k ≤ 2` the reflections of columns `k … 2` extend it to the
//! degree-`k … 2` fits the remainder reads), so a decision never
//! allocates. While the window holds no more than `k` points (3 for
//! `PRED-1`, whose remainder needs the degree-2 fit) the residual has no
//! degree of freedom — the paper's *bootstrapping period* — and the
//! extrapolator degenerates to continuous querying (`next_update_in = 1`).

use crate::error::StatsError;
use crate::Result;

/// Hard cap, in ticks, on how far ahead a snapshot may be scheduled.
/// Bounds both the scan cost and the damage of a mis-prediction.
const MAX_HORIZON: u64 = 64;

/// Largest supported `k`. The paper evaluates `PRED-1 … PRED-4`; together
/// with [`EXTRA_HISTORY`] this fixes the size of the on-stack window.
pub const MAX_HISTORY: usize = 8;

/// History points retained beyond `k`: the residual's degrees of freedom,
/// from which the fit tells noise from unmodelled deviation.
pub const EXTRA_HISTORY: usize = 4;

const WINDOW_CAPACITY: usize = MAX_HISTORY + EXTRA_HISTORY;

/// Columns of the largest design matrix: `k` for the degree-`(k−1)` fit,
/// or `STRAIGHT_FIT + 1` while `k ≤` [`STRAIGHT_FIT`].
const MAX_COLUMNS: usize = MAX_HISTORY;

/// The deepest `k` whose fit cannot bend (degree ≤ 1), and so the deepest
/// that adds the Lagrange remainder, with terms up to this order: nothing
/// else in its bound grows faster than linearly in `h`. From `k = 3` on,
/// `Var[D̂(h)]` grows like `h^{2(k−1)}` and `τ̂` carries the misfit, while
/// the upper bound on an order-`k ≥ 3` coefficient from a dozen noisy
/// snapshots is mostly noise — the conservatism this module exists to
/// remove.
const STRAIGHT_FIT: usize = 2;

/// Configuration of the `PRED-k` extrapolator: `k`, and the query's
/// `(ε, p)` through [`ExtrapolatorConfig::with_contract`].
#[derive(Debug, Clone, Copy)]
pub struct ExtrapolatorConfig {
    /// `k`, in `1..=`[`MAX_HISTORY`]: the fitted polynomial has degree
    /// `k − 1` (and `k` coefficients).
    pub history: usize,
    /// `z_p`, the multiplier of the bound's standard errors; `0` trusts
    /// every fitted coefficient as it stands.
    z: f64,
    /// `σ²`, the variance of a snapshot result under the contract: the
    /// fit's noise floor.
    noise_var: f64,
}

impl ExtrapolatorConfig {
    /// The paper's `PRED-k` over exact snapshot values and without a
    /// confidence margin: the fitted drift plus the remainder.
    /// [`ExtrapolatorConfig::with_contract`] adds the snapshots' noise.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn pred(k: usize) -> Self {
        assert!(k >= 1, "PRED-k requires k >= 1");
        Self {
            history: k,
            z: 0.0,
            noise_var: 0.0,
        }
    }

    /// The same `PRED-k` for snapshots each within `epsilon` of the truth
    /// with probability `confidence` (the §II contract): `z = z_p` and
    /// `σ² = (ε / z_p)²`.
    ///
    /// # Errors
    ///
    /// [`StatsError`] unless `epsilon` is positive and finite and
    /// `0 < confidence < 1`.
    pub fn with_contract(self, epsilon: f64, confidence: f64) -> Result<Self> {
        Ok(Self {
            z: crate::z_for_confidence(confidence)?,
            noise_var: crate::clt::target_estimator_variance(epsilon, confidence)?,
            ..self
        })
    }
}

/// The prediction bound's parts at the chosen horizon: why a snapshot is
/// due when it is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    /// `D̂(h)`, the fitted drift from `t_u`.
    pub drift: f64,
    /// `z_p · sqrt(Var[D̂(h)] + 2τ̂²) + R̂(h)`: how far the aggregate may
    /// be from the drift's prediction.
    pub spread: f64,
    /// `s²`, the fit's residual mean square: the noise the window showed
    /// (above the contract's `σ²` when the polynomial leaves deviation
    /// unmodelled).
    pub noise_var: f64,
}

/// Outcome of one extrapolation: when to run the next snapshot query and
/// the bound behind the decision.
#[derive(Debug, Clone, Copy)]
pub struct Prediction {
    /// Ticks until the next snapshot query (always ≥ 1).
    pub next_update_in: u64,
    /// The bound at `next_update_in`; `None` while the extrapolator is
    /// still bootstrapping (too little history → continuous querying).
    pub bound: Option<Bound>,
}

/// `PRED-k` extrapolation state: a sliding window of recent snapshot
/// results and the machinery to fit + extrapolate them.
///
/// ```
/// use digest_stats::{Extrapolator, ExtrapolatorConfig};
/// let config = ExtrapolatorConfig::pred(3).with_contract(0.5, 0.95).unwrap();
/// let mut pred3 = Extrapolator::new(config).unwrap();
/// // A steady aggregate: after bootstrap, the scheduler can skip ahead.
/// for t in 0..6 {
///     pred3.observe(t as f64, 42.0);
/// }
/// let p = pred3.predict(5.0).unwrap();
/// assert!(p.bound.is_some());
/// assert!(p.next_update_in > 5);
/// ```
#[derive(Debug, Clone)]
pub struct Extrapolator {
    history: usize,
    z: f64,
    noise_var: f64,
    /// Ring of the `len` most recent observations `(ts[i], xs[i])`, oldest
    /// at `head`, wrapping at `history + EXTRA_HISTORY`.
    ts: [f64; WINDOW_CAPACITY],
    xs: [f64; WINDOW_CAPACITY],
    head: usize,
    len: usize,
}

impl Extrapolator {
    /// Creates an extrapolator.
    ///
    /// # Errors
    ///
    /// [`StatsError::InvalidParameter`] unless
    /// `1 ≤ history ≤` [`MAX_HISTORY`].
    pub fn new(config: ExtrapolatorConfig) -> Result<Self> {
        if config.history == 0 || config.history > MAX_HISTORY {
            return Err(StatsError::InvalidParameter {
                what: "history",
                value: config.history as f64,
            });
        }
        Ok(Self {
            history: config.history,
            z: config.z,
            noise_var: config.noise_var,
            ts: [0.0; WINDOW_CAPACITY],
            xs: [0.0; WINDOW_CAPACITY],
            head: 0,
            len: 0,
        })
    }

    /// How many observations the ring holds when full.
    fn capacity(&self) -> usize {
        self.history + EXTRA_HISTORY
    }

    /// Records the snapshot result `x` observed at time `t`.
    ///
    /// Observations must arrive in strictly increasing time order; an
    /// out-of-order observation is ignored (the engine never produces one,
    /// but replayed traces might).
    /// xtask: no-alloc
    pub fn observe(&mut self, t: f64, x: f64) {
        if self.last_observed().is_some_and(|t_u| t <= t_u) {
            return;
        }
        if !t.is_finite() || !x.is_finite() {
            return;
        }
        let cap = self.capacity();
        // On a full ring this is `head`: the newest overwrites the oldest.
        let slot = (self.head + self.len) % cap;
        self.ts[slot] = t;
        self.xs[slot] = x;
        if self.len == cap {
            self.head = (self.head + 1) % cap;
        } else {
            self.len += 1;
        }
    }

    /// Number of observations currently held.
    #[must_use]
    pub fn observation_count(&self) -> usize {
        self.len
    }

    /// `t_u`, the time of the newest observation: where
    /// [`Extrapolator::predict`] counts its horizon from.
    #[must_use]
    pub fn last_observed(&self) -> Option<f64> {
        let newest = self.len.checked_sub(1)?;
        Some(self.ts[(self.head + newest) % self.capacity()])
    }

    /// Whether enough history exists to leave the bootstrapping period:
    /// `k` points for the `k` coefficients plus one degree of freedom for
    /// the residual — and for `k = 1` a third point, for the remainder's
    /// degree-2 fit.
    #[must_use]
    pub fn is_ready(&self) -> bool {
        self.len > self.history.max(STRAIGHT_FIT)
    }

    /// Clears all history (used when the engine detects a regime change,
    /// e.g. a resolution violation caught by a scheduled snapshot).
    pub fn reset(&mut self) {
        self.head = 0;
        self.len = 0;
    }

    /// Predicts how many ticks after `t_u` (the newest observation) the
    /// aggregate can first have drifted by `delta` from its value there
    /// (Eq. 4 with the prediction bound of the module docs). Returns a
    /// bootstrap prediction (`next_update_in = 1`) until
    /// [`Extrapolator::is_ready`]. The scan also stops where the bound
    /// stops being a number, so a window of overflowing values answers
    /// `next_update_in = 1`.
    ///
    /// # Errors
    ///
    /// [`StatsError::InvalidParameter`] if `delta` is not positive and
    /// finite.
    /// xtask: no-alloc
    pub fn predict(&self, delta: f64) -> Result<Prediction> {
        if !delta.is_finite() || delta <= 0.0 {
            return Err(StatsError::InvalidParameter {
                what: "delta",
                value: delta,
            });
        }
        digest_telemetry::registry::STATS_PRED_PREDICTIONS.inc();
        if !self.is_ready() {
            digest_telemetry::registry::STATS_PRED_BOOTSTRAPS.inc();
            return Ok(Prediction {
                next_update_in: 1,
                bound: None,
            });
        }
        let (next_update_in, bound) = self.fit().horizon(delta, self.z, self.noise_var);
        Ok(Prediction {
            next_update_in,
            bound: Some(bound),
        })
    }

    /// Fits the window by least squares: a Householder QR of the design
    /// matrix in `u = (t − t_u) / s` (`s` the window's span), applied to
    /// `x − x_u` alongside. Its first `k` columns are the degree-`(k−1)`
    /// fit; for `k ≤` [`STRAIGHT_FIT`] the columns up to `STRAIGHT_FIT`
    /// make the degree-`k … STRAIGHT_FIT` fits whose top coefficients the
    /// remainder reads. Needs
    /// [`Extrapolator::is_ready`].
    /// xtask: no-alloc
    fn fit(&self) -> Fit {
        let m = self.history;
        let columns = if m <= STRAIGHT_FIT {
            STRAIGHT_FIT + 1
        } else {
            m
        };
        let n = self.len;
        let cap = self.capacity();
        let newest = (self.head + n - 1) % cap;
        let (t_u, x_u) = (self.ts[newest], self.xs[newest]);
        let scale = t_u - self.ts[self.head];

        let mut a = [[0.0; MAX_COLUMNS]; WINDOW_CAPACITY];
        let mut y = [0.0; WINDOW_CAPACITY];
        for i in 0..n {
            let slot = (self.head + i) % cap;
            let u = (self.ts[slot] - t_u) / scale;
            let mut power = 1.0;
            for cell in &mut a[i][..columns] {
                *cell = power;
                power *= u;
            }
            y[i] = self.xs[slot] - x_u;
        }

        // `a` ends as `R`, `y` as `Qᵀy`; the degree-`(k−1)` residual is
        // `|y[m..]|` before the degree-`k` column is reflected.
        for j in 0..m {
            reflect(&mut a, &mut y, n, j, columns);
        }
        let mut rss = 0.0;
        for yi in &y[m..n] {
            rss += yi * yi;
        }
        // The degree-`j` fit's top coefficient is row `j` of `Rβ = Qᵀy`
        // alone, with standard error `σ/|r_jj|`.
        let mut tops = [(0.0, 0.0); STRAIGHT_FIT + 1];
        for j in m..columns {
            reflect(&mut a, &mut y, n, j, columns);
            tops[j] = (y[j] / a[j][j], 1.0 / a[j][j].abs());
        }

        // `Rβ = (Qᵀy)[..m]` by back substitution.
        let mut coeffs = [0.0; MAX_HISTORY];
        for i in (0..m).rev() {
            let mut acc = y[i];
            for l in i + 1..m {
                acc -= a[i][l] * coeffs[l];
            }
            coeffs[i] = acc / a[i][i];
        }
        let mut r = [[0.0; MAX_HISTORY]; MAX_HISTORY];
        for (ri, ai) in r[..m].iter_mut().zip(&a) {
            ri[..m].copy_from_slice(&ai[..m]);
        }

        Fit {
            order: m,
            scale,
            coeffs,
            r,
            residual_ms: rss / (n - m) as f64,
            tops,
        }
    }
}

/// Householder step `j` of the QR of the `n`-row design `a` (its first
/// `columns` columns): column `j` is reflected onto `alpha·e_j` by
/// `I − 2vvᵀ/vᵀv`, `v = a[j..][j] − alpha·e_j`, and the reflection applied
/// to the columns right of it and to `y`. It touches rows `j..` only.
/// xtask: no-alloc
fn reflect(
    a: &mut [[f64; MAX_COLUMNS]; WINDOW_CAPACITY],
    y: &mut [f64; WINDOW_CAPACITY],
    n: usize,
    j: usize,
    columns: usize,
) {
    let mut below = 0.0;
    for row in &a[j + 1..n] {
        below += row[j] * row[j];
    }
    let norm = (a[j][j] * a[j][j] + below).sqrt();
    let alpha = if a[j][j] > 0.0 { -norm } else { norm };
    let head = a[j][j] - alpha;
    let vv = head * head + below;
    if vv > 0.0 {
        for l in j + 1..columns {
            let mut dot = head * a[j][l];
            for row in &a[j + 1..n] {
                dot += row[j] * row[l];
            }
            let f = 2.0 * dot / vv;
            a[j][l] -= f * head;
            for row in &mut a[j + 1..n] {
                row[l] -= f * row[j];
            }
        }
        let mut dot = head * y[j];
        for (row, yi) in a[j + 1..n].iter().zip(&y[j + 1..n]) {
            dot += row[j] * yi;
        }
        let f = 2.0 * dot / vv;
        y[j] -= f * head;
        for (row, yi) in a[j + 1..n].iter().zip(&mut y[j + 1..n]) {
            *yi -= f * row[j];
        }
    }
    a[j][j] = alpha;
}

/// The least-squares polynomial in `u = (t − t_u) / scale` and what its
/// prediction bound needs.
struct Fit {
    /// `k`: coefficients held.
    order: usize,
    /// The window's span in ticks.
    scale: f64,
    /// `coeffs[j]` multiplies `u^j` (`coeffs[0]` is the fitted offset from
    /// `x_u`, which no drift needs).
    coeffs: [f64; MAX_HISTORY],
    /// The upper-triangular `R` of the design's QR: `AᵀA = RᵀR`.
    r: [[f64; MAX_HISTORY]; MAX_HISTORY],
    /// `s²`: residual sum of squares over its `n − k` degrees of freedom.
    residual_ms: f64,
    /// `tops[j]` for `k ≤ j ≤` [`STRAIGHT_FIT`]: the degree-`j` fit's
    /// coefficient of `u^j` (`M̂_j · scale^j / j!`) and its standard error
    /// per unit of snapshot noise `σ`.
    tops: [(f64, f64); STRAIGHT_FIT + 1],
}

impl Fit {
    /// `D̂(h) = P[t_u + h] − P[t_u]` by nested multiplication; the constant
    /// term cancels exactly.
    fn drift(&self, h: f64) -> f64 {
        let u = h / self.scale;
        let mut nested = 0.0;
        for &c in self.coeffs[1..self.order].iter().rev() {
            nested = c + u * nested;
        }
        u * nested
    }

    /// `gᵀ(AᵀA)⁻¹g = |R⁻ᵀg|²` for the drift's basis row
    /// `g = (0, u, u², …)`: `Var[D̂(h)] / σ²`.
    fn leverage(&self, h: f64) -> f64 {
        let u = h / self.scale;
        let mut w = [0.0; MAX_HISTORY];
        let mut power = 1.0;
        let mut sum = 0.0;
        for i in 0..self.order {
            let mut acc = if i == 0 { 0.0 } else { power };
            power *= u;
            for (row, wl) in self.r[..i].iter().zip(&w) {
                acc -= row[i] * wl;
            }
            w[i] = acc / self.r[i][i];
            sum += w[i] * w[i];
        }
        sum
    }

    /// The bound's parts at `h` for the multiplier `z` and noise floor
    /// `noise_var`.
    fn bound(&self, h: f64, z: f64, noise_var: f64) -> Bound {
        // `max(0, s² − σ²)`, written so that a NaN `s²` stays NaN.
        let unmodelled = if self.residual_ms < noise_var {
            0.0
        } else {
            self.residual_ms - noise_var
        };
        let u = h / self.scale;
        let mut remainder = 0.0;
        for (j, &(top, error)) in self.tops.iter().enumerate().skip(self.order) {
            let order = i32::try_from(j).unwrap_or(i32::MAX);
            remainder += (top.abs() + z * noise_var.sqrt() * error) * u.powi(order);
        }
        Bound {
            drift: self.drift(h),
            spread: z * (noise_var * self.leverage(h) + 2.0 * unmodelled).sqrt() + remainder,
            noise_var: self.residual_ms,
        }
    }

    /// The earliest `h ≥ 1` at which drift plus spread can reach `delta`,
    /// capped at [`MAX_HORIZON`], and the bound there. NaN compares false
    /// with everything, so it is asked for by name: what cannot be bounded
    /// is not skipped over.
    fn horizon(&self, delta: f64, z: f64, noise_var: f64) -> (u64, Bound) {
        let mut steps = 1u64;
        loop {
            let bound = self.bound(steps as f64, z, noise_var);
            let reach = bound.drift.abs() + bound.spread;
            if steps >= MAX_HORIZON || reach.is_nan() || reach >= delta {
                return (steps, bound);
            }
            steps += 1;
        }
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

    /// `PRED-k` under a tight contract (σ ≈ 0.05).
    fn extrapolator(k: usize) -> Extrapolator {
        let config = ExtrapolatorConfig::pred(k).with_contract(0.1, 0.95);
        Extrapolator::new(config.unwrap()).unwrap()
    }

    /// `PRED-k` over exact values: the fit alone, for the tests that hand
    /// its bound `z` and `σ²` themselves.
    fn exact(k: usize) -> Extrapolator {
        Extrapolator::new(ExtrapolatorConfig::pred(k)).unwrap()
    }

    /// `42 ± 1`, alternating, at ticks `0..n`.
    fn alternating(e: &mut Extrapolator, n: u32) {
        for t in 0..n {
            e.observe(f64::from(t), if t % 2 == 0 { 43.0 } else { 41.0 });
        }
    }

    /// `Σ coeffs[j] · (t − origin)^j` by Horner's rule: the reference signal.
    fn polynomial(origin: f64, coeffs: &[f64]) -> impl Fn(f64) -> f64 + '_ {
        move |t| {
            coeffs
                .iter()
                .rev()
                .fold(0.0, |acc, &c| acc * (t - origin) + c)
        }
    }

    /// Feeds `truth` sampled at ticks `start, start + gaps[0], …`; returns
    /// the last tick.
    fn observe_along(
        e: &mut Extrapolator,
        truth: impl Fn(f64) -> f64,
        start: f64,
        gaps: &[u8],
    ) -> f64 {
        let mut t = start;
        e.observe(t, truth(t));
        for &gap in gaps {
            t += f64::from(gap);
            e.observe(t, truth(t));
        }
        t
    }

    proptest! {
        /// With zero noise the least-squares fit is the polynomial the data
        /// came from — at tick counts where an uncentred Vandermonde system
        /// would have lost every digit — and the bound's spread is zero:
        /// no residual, nothing unmodelled, no order-`k` term.
        #[test]
        fn fit_reproduces_a_degree_k_minus_1_signal(
            k in 1usize..6,
            coeffs in prop::collection::vec(-100.0f64..100.0, 5..6),
            gaps in prop::collection::vec(1u8..6, 5..12),
        ) {
            let start = 3_000_000.0;
            let truth = polynomial(start + 20.0, &coeffs[..k]);
            let mut e = exact(k);
            let t_u = observe_along(&mut e, &truth, start, &gaps);
            let fit = e.fit();
            let x_u = truth(t_u);
            for h in 1..=MAX_HORIZON {
                let h = h as f64;
                let want = truth(t_u + h);
                let scale = want.abs().max(x_u.abs()).max(1.0);
                prop_assert!(
                    (x_u + fit.drift(h) - want).abs() <= 1e-6 * scale,
                    "h = {h}: {} vs {want}", x_u + fit.drift(h)
                );
                let spread = fit.bound(h, 2.0, 0.0).spread;
                prop_assert!(spread <= 1e-6 * scale, "h = {h}: spread {spread}");
            }
        }
    }

    #[test]
    fn config_validation() {
        for k in [0, MAX_HISTORY + 1, 171, usize::MAX] {
            let config = ExtrapolatorConfig {
                history: k,
                ..ExtrapolatorConfig::pred(1)
            };
            assert!(Extrapolator::new(config).is_err(), "k = {k}");
        }
        assert!(Extrapolator::new(ExtrapolatorConfig::pred(MAX_HISTORY)).is_ok());
        assert!(ExtrapolatorConfig::pred(2)
            .with_contract(0.0, 0.95)
            .is_err());
        assert!(ExtrapolatorConfig::pred(2).with_contract(1.0, 1.0).is_err());
    }

    #[test]
    fn the_contract_sets_z_and_the_noise_floor() {
        let config = ExtrapolatorConfig::pred(3)
            .with_contract(2.0, 0.95)
            .unwrap();
        assert!((config.z - 1.959_964).abs() < 1e-6, "{}", config.z);
        // One standard error is ε / z_p.
        assert!((config.z * config.noise_var.sqrt() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn bootstraps_with_continuous_querying() {
        let mut e = extrapolator(3);
        for t in 0..3 {
            let p = e.predict(1.0).unwrap();
            assert!(p.bound.is_none());
            assert_eq!(p.next_update_in, 1);
            e.observe(t as f64, 5.0);
        }
        // After k+1 = 4 observations the extrapolator leaves bootstrap.
        e.observe(3.0, 5.0);
        assert!(e.is_ready());
        assert!(e.predict(1.0).unwrap().bound.is_some());
    }

    #[test]
    fn pred1_bootstraps_until_its_curvature_can_be_fit() {
        let mut e = extrapolator(1);
        e.observe(0.0, 5.0);
        e.observe(1.0, 5.0);
        assert!(!e.is_ready());
        assert!(e.predict(1.0).unwrap().bound.is_none());
        e.observe(2.0, 5.0);
        assert!(e.is_ready());
        assert!(e.predict(1.0).unwrap().bound.is_some());
    }

    #[test]
    fn constant_signal_schedules_far_ahead() {
        let mut e = extrapolator(3);
        for t in 0..8 {
            e.observe(t as f64, 42.0);
        }
        let p = e.predict(1.0).unwrap();
        // Zero drift, zero residual: only the fit's own uncertainty,
        // growing as it is extrapolated, limits the skip.
        assert!(p.next_update_in > 5, "{}", p.next_update_in);
        let bound = p.bound.unwrap();
        assert_eq!(bound.drift, 0.0);
        assert_eq!(bound.noise_var, 0.0);
        assert!(bound.spread >= 1.0, "{bound:?}");

        // Exact values: nothing to extrapolate but a drift of zero.
        let mut exact = Extrapolator::new(ExtrapolatorConfig::pred(3)).unwrap();
        for t in 0..8 {
            exact.observe(t as f64, 42.0);
        }
        assert_eq!(exact.predict(1.0).unwrap().next_update_in, MAX_HORIZON);
    }

    #[test]
    fn linear_signal_predicts_crossing_time() {
        // X[t] = 2t: drift reaches δ=10 after 5 ticks. The spread may pull
        // it slightly earlier but never later.
        let mut e = extrapolator(2); // degree-1 fit
        for t in 0..8 {
            e.observe(t as f64, 2.0 * t as f64);
        }
        let p = e.predict(10.0).unwrap();
        assert!(p.next_update_in <= 5, "predicted {}", p.next_update_in);
        assert!(
            p.next_update_in >= 4,
            "overly conservative: {}",
            p.next_update_in
        );
    }

    #[test]
    fn drift_variance_is_the_ols_slope_variance() {
        // A line fitted to n equally spaced points: Var[β̂₁] = σ²/Sxx, so
        // Var[D̂(h)] = σ²·h²/Sxx.
        let mut e = exact(2);
        for t in 0..6 {
            e.observe(f64::from(t), 3.0 - 0.5 * f64::from(t));
        }
        let sxx = 17.5; // Σ (t − 2.5)² over t = 0…5
        let fit = e.fit();
        for h in [1.0, 7.0, 30.0] {
            assert!((fit.drift(h) + 0.5 * h).abs() < 1e-12, "h = {h}");
            let want = h * h / sxx;
            assert!((fit.leverage(h) - want).abs() < 1e-12 * want, "h = {h}");
        }
    }

    #[test]
    fn an_alternation_the_fit_cannot_model_is_spread() {
        // PRED-1 on 42 ± 1 over five ticks under a contract whose σ² is
        // far below the swing: no drift, and the residual mean square
        // s² = 4.8 / 4 (mean 42.2) is unmodelled deviation τ̂² but for σ².
        let mut e = Extrapolator::new(
            ExtrapolatorConfig::pred(1)
                .with_contract(0.01, 0.95)
                .unwrap(),
        )
        .unwrap();
        alternating(&mut e, 5);
        let (z, sigma) = (e.z, e.noise_var.sqrt());
        let s2 = (3.0 * 0.8 * 0.8 + 2.0 * 1.2 * 1.2) / 4.0;
        let tau = z * (2.0 * (s2 - sigma * sigma)).sqrt();
        // Over t = 0…4 the degree-1 fit's slope is 0 with standard error
        // σ/√10; the degree-2 fit's t² coefficient is 4/14 (orthogonal
        // polynomial (t − 2)² − 2, Σ 14) with standard error σ/√14.
        let want = |h: f64| {
            tau + z * sigma / 10f64.sqrt() * h + (4.0 / 14.0 + z * sigma / 14f64.sqrt()) * h * h
        };
        let fit = e.fit();
        for h in [1.0, 10.0, 64.0] {
            let bound = fit.bound(h, z, sigma * sigma);
            assert_eq!(bound.drift, 0.0);
            assert!((bound.noise_var - s2).abs() < 1e-12, "{bound:?}");
            assert!(
                (bound.spread - want(h)).abs() < 1e-9 * want(h),
                "h = {h}: {bound:?}"
            );
        }
        // … and reaching δ with it means snapshotting next tick.
        assert_eq!(e.predict(tau).unwrap().next_update_in, 1);
        let reach = fit.bound(10.0, z, sigma * sigma).spread;
        assert_eq!(e.predict(reach).unwrap().next_update_in, 10);
    }

    #[test]
    fn noise_below_the_floor_is_not_deviation() {
        // The alternation under PRED-3 and a contract whose σ² covers it:
        // the spread is the fit's own uncertainty and nothing more.
        let mut e = exact(3);
        alternating(&mut e, 7);
        let fit = e.fit();
        assert!(fit.residual_ms > 1.0 && fit.residual_ms < 4.0);
        for h in [1.0, 5.0] {
            let spread = fit.bound(h, 2.0, 4.0).spread;
            let own = 2.0 * (4.0 * fit.leverage(h)).sqrt();
            assert!((spread - own).abs() < 1e-12, "h = {h}: {spread} vs {own}");
        }
    }

    #[test]
    fn the_remainder_bounds_the_slope_from_above() {
        // PRED-1 on X[t] = 0.2t: a constant fit has no drift, but the
        // degree-1 fit's slope is 0.2 a tick, and `M̂ h^k / k!` reads it;
        // the degree-2 fit finds no curvature.
        let mut e = exact(1);
        for t in 0..5 {
            e.observe(f64::from(t), 0.2 * f64::from(t));
        }
        let fit = e.fit();
        assert!((fit.tops[1].0 / fit.scale - 0.2).abs() < 1e-12);
        let tau = 2.0 * (2.0 * fit.residual_ms).sqrt();
        let bound = fit.bound(10.0, 2.0, 0.0);
        assert!((bound.spread - tau - 2.0).abs() < 1e-12, "{bound:?}");
        // Under noise σ = 1 the slope's standard error over t = 0…4 is
        // σ/√10, and `M̂` is two of them above the 0.2 the data show; the
        // curvature's is σ/√14 (see the alternation above), and `M̂_2` is
        // two of those. The residual is below the floor, so that is the
        // whole spread.
        let bound = fit.bound(10.0, 2.0, 1.0);
        let want = (0.2 + 2.0 / f64::sqrt(10.0)) * 10.0 + 2.0 / f64::sqrt(14.0) * 100.0;
        assert!((bound.spread - want).abs() < 1e-12, "{bound:?}");
    }

    #[test]
    fn a_fit_that_can_bend_has_no_remainder() {
        // X[t] = t³ under PRED-3: the quadratic misses the cubic term, and
        // only the residual says so — no order-3 coefficient is fitted.
        let mut e = exact(3);
        for t in 0..7 {
            e.observe(f64::from(t), f64::from(t * t * t));
        }
        let fit = e.fit();
        assert!(fit.tops.iter().all(|&top| top == (0.0, 0.0)));
        assert!(fit.residual_ms > 1.0);
        let bound = fit.bound(5.0, 2.0, 0.0);
        let spread = 2.0 * (2.0 * fit.residual_ms).sqrt();
        assert!((bound.spread - spread).abs() < 1e-9, "{bound:?}");
    }

    #[test]
    fn steeper_signal_means_sooner_snapshot() {
        let mut slow = extrapolator(3);
        let mut fast = extrapolator(3);
        for t in 0..8 {
            slow.observe(t as f64, 0.5 * t as f64);
            fast.observe(t as f64, 4.0 * t as f64);
        }
        let ps = slow.predict(8.0).unwrap().next_update_in;
        let pf = fast.predict(8.0).unwrap().next_update_in;
        assert!(pf < ps, "fast {pf} should snapshot sooner than slow {ps}");
    }

    #[test]
    fn larger_delta_means_later_snapshot() {
        let mut e = extrapolator(3);
        for t in 0..8 {
            e.observe(t as f64, 1.5 * t as f64);
        }
        let tight = e.predict(2.0).unwrap().next_update_in;
        let loose = e.predict(20.0).unwrap().next_update_in;
        assert!(loose >= tight);
    }

    #[test]
    fn quadratic_signal_accounts_for_curvature() {
        // X[t] = t²; at t_u = 7 the drift grows fast.
        let mut e = extrapolator(3);
        for t in 0..8 {
            e.observe(t as f64, (t * t) as f64);
        }
        let p = e.predict(40.0).unwrap();
        // True crossing: |X[7+h] − X[7]| = 14h + h² ≥ 40 → h ≈ 2.5.
        assert!(p.next_update_in <= 3, "predicted {}", p.next_update_in);
        assert!(p.next_update_in >= 1);
    }

    #[test]
    fn out_of_order_observations_ignored() {
        let mut e = extrapolator(2);
        e.observe(5.0, 1.0);
        e.observe(3.0, 2.0); // ignored
        e.observe(5.0, 9.0); // ignored (duplicate time)
        assert_eq!(e.observation_count(), 1);
    }

    #[test]
    fn the_horizon_counts_from_the_newest_observation() {
        let mut e = extrapolator(1);
        assert_eq!(e.last_observed(), None);
        e.observe(3.0, 7.0);
        e.observe(5.0, 7.0);
        e.observe(4.0, 7.0); // ignored
        assert_eq!(e.last_observed(), Some(5.0));
        for t in 6..20 {
            e.observe(f64::from(t), 7.0);
        }
        assert_eq!(e.last_observed(), Some(19.0));
    }

    #[test]
    fn non_finite_observations_ignored() {
        let mut e = extrapolator(2);
        e.observe(0.0, f64::NAN);
        e.observe(1.0, f64::INFINITY);
        assert_eq!(e.observation_count(), 0);
    }

    #[test]
    fn window_is_bounded() {
        let mut e = extrapolator(3);
        for t in 0..1000 {
            e.observe(t as f64, t as f64);
        }
        assert_eq!(e.observation_count(), 3 + EXTRA_HISTORY);
        // The ring kept the newest: X[t] = t at t_u = 999, drift 1 a tick.
        assert!((e.fit().drift(4.0) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn reset_returns_to_bootstrap() {
        let mut e = extrapolator(2);
        for t in 0..6 {
            e.observe(t as f64, t as f64);
        }
        assert!(e.is_ready());
        e.reset();
        assert!(!e.is_ready());
        assert!(e.predict(1.0).unwrap().bound.is_none());
    }

    #[test]
    fn predict_validates_delta() {
        let e = extrapolator(2);
        assert!(e.predict(0.0).is_err());
        assert!(e.predict(-1.0).is_err());
        assert!(e.predict(f64::NAN).is_err());
    }

    #[test]
    fn non_finite_bound_snapshots_next_tick() {
        // A window at the edge of the range: differences overflow to ±∞
        // and the fit to NaN. Nothing is provably below δ.
        for k in 1..=3 {
            let mut e = extrapolator(k);
            for t in 0..7 {
                let sign = if t % 2 == 0 { 1.0 } else { -1.0 };
                e.observe(t as f64, sign * 1e308);
            }
            let p = e.predict(5.0).unwrap();
            let bound = p.bound.unwrap();
            assert!(!(bound.drift.abs() + bound.spread).is_finite(), "{bound:?}");
            assert_eq!(p.next_update_in, 1, "k = {k}");
        }
    }

    #[test]
    fn pred1_sees_a_trend() {
        // PRED-1 fits a constant; a real drift shows up as residual the
        // constant cannot explain and as the remainder's slope.
        let mut e = extrapolator(1);
        for t in 0..6 {
            e.observe(t as f64, 3.0 * t as f64);
        }
        let p = e.predict(9.0).unwrap();
        assert!(p.next_update_in <= 3, "predicted {}", p.next_update_in);
    }
}
