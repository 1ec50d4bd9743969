//! Taylor-polynomial extrapolation of the running aggregate (paper §IV-A).
//!
//! The continual-querying algorithm `PRED-k` keeps the `k` most recent
//! snapshot results `X[t]`, fits a degree-`(k−1)` Taylor polynomial `P[t]`
//! around the latest update time `t_u` (Eq. 1), bounds the truncation
//! error with the Lagrange remainder (Eqs. 2–3)
//!
//! ```text
//! R_n[t] = M · (t − t_u)^{n+1} / (n+1)!
//! ```
//!
//! and schedules the next snapshot at the earliest `t` where the predicted
//! drift *plus* the remainder bound can reach the resolution threshold:
//!
//! ```text
//! |P[t] − P[t_u]| + |R[t]| ≥ δ        (Eq. 4)
//! ```
//!
//! `k` points and `k` coefficients is an exactly determined system: the
//! least-squares optimum the paper reaches iteratively is the interpolant,
//! so it is computed directly in Newton's divided-difference form.
//!
//! The derivative bound `M ≥ max |X^{(n+1)}|` is unobservable; it is
//! estimated from order-`(n+1)` divided differences of the recent history
//! (each equals `X^{(n+1)}(ξ)/(n+1)!` for some ξ by the mean-value theorem)
//! inflated by a safety factor. One triangular divided-difference table
//! over the retained window yields both: the last entry of levels
//! `0 … k−1` are the interpolant's backward Newton coefficients, level `k`
//! holds the remainder estimates. While too few history points exist to
//! form the estimate — the paper's *bootstrapping period* — the
//! extrapolator degenerates to continuous querying (`next_update_in = 1`).

use crate::error::StatsError;
use crate::Result;

/// Hard cap, in ticks, on how far ahead a snapshot may be scheduled.
/// Bounds both the scan cost and the damage of a mis-prediction.
const MAX_HORIZON: u64 = 64;

/// Largest supported `k`. The paper evaluates `PRED-1 … PRED-4`; together
/// with the four extra points kept for the remainder bound this fixes the
/// size of the on-stack window.
pub const MAX_HISTORY: usize = 8;

/// Multiplier applied to the estimated derivative bound `M`: the
/// conservatism the upper-quartile estimate does not supply.
const REMAINDER_SAFETY: f64 = 1.5;

/// History points retained beyond `k` for estimating `M` (one order-`k`
/// divided difference needs `k + 1` points; each further point adds one).
const EXTRA_HISTORY: usize = 4;

const WINDOW_CAPACITY: usize = MAX_HISTORY + EXTRA_HISTORY;

/// Configuration of the `PRED-k` extrapolator.
#[derive(Debug, Clone, Copy)]
pub struct ExtrapolatorConfig {
    /// `k`: number of previous snapshot values used for prediction, in
    /// `1..=`[`MAX_HISTORY`]. The fitted polynomial has degree `k − 1`.
    pub history: usize,
}

impl ExtrapolatorConfig {
    /// The paper's `PRED-k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn pred(k: usize) -> Self {
        assert!(k >= 1, "PRED-k requires k >= 1");
        Self { history: k }
    }
}

/// Outcome of one extrapolation: when to run the next snapshot query and
/// the diagnostic state behind the decision.
#[derive(Debug, Clone, Copy)]
pub struct Prediction {
    /// Ticks until the next snapshot query (always ≥ 1).
    pub next_update_in: u64,
    /// The derivative bound `M` used in the Lagrange remainder.
    pub derivative_bound: f64,
    /// True while the extrapolator is still bootstrapping (too little
    /// history → continuous querying).
    pub bootstrapping: bool,
}

/// `PRED-k` extrapolation state: a sliding window of recent snapshot
/// results and the machinery to fit + extrapolate them.
///
/// ```
/// use digest_stats::{Extrapolator, ExtrapolatorConfig};
/// let mut pred3 = Extrapolator::new(ExtrapolatorConfig::pred(3)).unwrap();
/// // A steady aggregate: after bootstrap, the scheduler can skip far ahead.
/// for t in 0..6 {
///     pred3.observe(t as f64, 42.0);
/// }
/// let p = pred3.predict(5.0).unwrap();
/// assert!(!p.bootstrapping);
/// assert!(p.next_update_in > 5);
/// ```
#[derive(Debug, Clone)]
pub struct Extrapolator {
    history: usize,
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
        let cap = self.capacity();
        if self.len > 0 && t <= self.ts[(self.head + self.len - 1) % cap] {
            return;
        }
        if !t.is_finite() || !x.is_finite() {
            return;
        }
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

    /// Whether enough history exists to leave the bootstrapping period:
    /// `k` points for the fit plus one extra point so an order-`k`
    /// divided difference (the remainder bound) can be formed.
    #[must_use]
    pub fn is_ready(&self) -> bool {
        self.len > self.history
    }

    /// Clears all history (used when the engine detects a regime change,
    /// e.g. a resolution violation caught by a scheduled snapshot).
    pub fn reset(&mut self) {
        self.head = 0;
        self.len = 0;
    }

    /// Predicts how many ticks may safely elapse before the aggregate can
    /// have drifted by `delta` from its value at the most recent snapshot
    /// (Eq. 4). Returns a bootstrap prediction (`next_update_in = 1`)
    /// until [`Extrapolator::is_ready`]. The scan also stops where drift or
    /// remainder stop being finite, so a window of overflowing values
    /// answers `next_update_in = 1`.
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
                derivative_bound: f64::INFINITY,
                bootstrapping: true,
            });
        }

        let fit = self.fit();
        Ok(Prediction {
            next_update_in: fit.horizon(delta),
            derivative_bound: fit.derivative_bound,
            bootstrapping: false,
        })
    }

    /// Builds the one divided-difference table over the retained window
    /// and reads the interpolant and the remainder bound off it. Needs
    /// [`Extrapolator::is_ready`].
    /// xtask: no-alloc
    fn fit(&self) -> Fit {
        let k = self.history;
        let n = self.len;
        let cap = self.capacity();
        let mut ts = [0.0; WINDOW_CAPACITY];
        let mut table = [0.0; WINDOW_CAPACITY];
        for i in 0..n {
            let slot = (self.head + i) % cap;
            ts[i] = self.ts[slot];
            table[i] = self.xs[slot];
        }
        let t_u = ts[n - 1];

        // Level `l` of the in-place table holds `f[t_i, …, t_{i+l}]` at
        // `table[i]`. Its last entry is the divided difference over the
        // `l + 1` newest points: the interpolant's coefficient of
        // `∏_{j<l} (t − t_{n−1−j})`, a factor that reads `h + gaps[j]` at
        // `t = t_u + h`. Level 0 is `X[t_u]` itself, which a drift never
        // needs.
        let mut newton = [0.0; MAX_HISTORY];
        let mut gaps = [0.0; MAX_HISTORY];
        for level in 1..=k {
            for i in 0..(n - level) {
                let dt = ts[i + level] - ts[i];
                table[i] = (table[i + 1] - table[i]) / dt;
            }
            if level < k {
                newton[level] = table[n - 1 - level];
                gaps[level] = t_u - ts[n - 1 - level];
            }
        }

        // What is left in `table[..n − k]` is every order-`k` divided
        // difference of the window, `X^{(k)}(ξ) / k!` for some ξ each.
        let mut factorial = 1.0;
        for i in 2..=k {
            factorial *= i as f64;
        }
        let estimates = &mut table[..n - k];
        for e in estimates.iter_mut() {
            *e = (*e * factorial).abs();
        }
        // Upper-quartile rather than max: snapshot results carry sampling
        // noise, and high-order divided differences amplify it by ~2^order;
        // the max would make deep PRED-k pathologically conservative.
        // REMAINDER_SAFETY supplies the conservatism instead.
        estimates.sort_unstable_by(f64::total_cmp);
        let idx = (estimates.len() * 3).div_ceil(4).saturating_sub(1);

        Fit {
            order: k,
            newton,
            gaps,
            derivative_bound: estimates[idx] * REMAINDER_SAFETY,
            factorial,
        }
    }
}

/// The degree-`(k−1)` interpolant through the `k` newest observations in
/// backward Newton form around `t_u`, with the Lagrange remainder bound
/// (Eqs. 1–3).
struct Fit {
    /// `k`: coefficients held, and the order of the remainder.
    order: usize,
    /// `newton[l] = f[t_{n−1−l}, …, t_{n−1}]` for `1 ≤ l < k`.
    newton: [f64; MAX_HISTORY],
    /// `gaps[l] = t_u − t_{n−1−l}` (so `gaps[0] = 0`).
    gaps: [f64; MAX_HISTORY],
    /// `M`, safety factor included.
    derivative_bound: f64,
    /// `k!`.
    factorial: f64,
}

impl Fit {
    /// `P[t_u + h] − P[t_u]` by nested multiplication; the constant term
    /// cancels exactly.
    fn drift(&self, h: f64) -> f64 {
        let mut nested = 0.0;
        for level in (1..self.order).rev() {
            nested = self.newton[level] + (h + self.gaps[level]) * nested;
        }
        h * nested
    }

    /// `|R[t_u + h]| ≤ M · h^k / k!`.
    fn remainder(&self, h: f64) -> f64 {
        let order = i32::try_from(self.order).unwrap_or(i32::MAX);
        self.derivative_bound * h.powi(order) / self.factorial
    }

    /// The earliest `h ≥ 1` at which drift plus remainder can reach
    /// `delta` (Eq. 4), capped at [`MAX_HORIZON`]. NaN compares false with
    /// everything, so it is asked for by name: what cannot be bounded is
    /// not skipped over.
    fn horizon(&self, delta: f64) -> u64 {
        let mut steps = 1u64;
        while steps < MAX_HORIZON {
            let h = steps as f64;
            let reach = self.drift(h).abs() + self.remainder(h);
            if reach.is_nan() || reach >= delta {
                break;
            }
            steps += 1;
        }
        steps
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

    fn extrapolator(k: usize) -> Extrapolator {
        Extrapolator::new(ExtrapolatorConfig::pred(k)).unwrap()
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
        /// `k` points and `k` coefficients: the fit is the polynomial the
        /// data came from, at tick counts where an uncentred Vandermonde
        /// system would have lost every digit.
        #[test]
        fn interpolant_reproduces_a_degree_k_minus_1_signal(
            k in 1usize..6,
            coeffs in prop::collection::vec(-100.0f64..100.0, 5..6),
            gaps in prop::collection::vec(1u8..6, 5..12),
        ) {
            let start = 3_000_000.0;
            let truth = polynomial(start + 20.0, &coeffs[..k]);
            let mut e = extrapolator(k);
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
            }
        }

        /// Integer coefficients on integer ticks keep every divided
        /// difference an integer, so the order-`k` level of a degree-
        /// `(k − 1)` signal is exactly zero and so is the bound.
        #[test]
        fn polynomial_signal_has_zero_remainder_bound(
            k in 1usize..6,
            coeffs in prop::collection::vec(-9i8..10, 5..6),
            gaps in prop::collection::vec(1u8..6, 5..12),
        ) {
            let start = 3_000_000.0;
            let coeffs: Vec<f64> = coeffs[..k].iter().map(|&c| f64::from(c)).collect();
            let mut e = extrapolator(k);
            observe_along(&mut e, polynomial(start + 20.0, &coeffs), start, &gaps);
            let p = e.predict(1e-3).unwrap();
            prop_assert!(!p.bootstrapping);
            prop_assert_eq!(p.derivative_bound, 0.0);
        }
    }

    #[test]
    fn config_validation() {
        for k in [0, MAX_HISTORY + 1, 171, usize::MAX] {
            assert!(
                Extrapolator::new(ExtrapolatorConfig { history: k }).is_err(),
                "k = {k}"
            );
        }
        assert!(Extrapolator::new(ExtrapolatorConfig::pred(MAX_HISTORY)).is_ok());
    }

    #[test]
    fn bootstraps_with_continuous_querying() {
        let mut e = extrapolator(3);
        for t in 0..3 {
            let p = e.predict(1.0).unwrap();
            assert!(p.bootstrapping);
            assert_eq!(p.next_update_in, 1);
            e.observe(t as f64, 5.0);
        }
        // After k+1 = 4 observations the extrapolator leaves bootstrap.
        e.observe(3.0, 5.0);
        assert!(e.is_ready());
        assert!(!e.predict(1.0).unwrap().bootstrapping);
    }

    #[test]
    fn constant_signal_schedules_far_ahead() {
        let mut e = extrapolator(3);
        for t in 0..8 {
            e.observe(t as f64, 42.0);
        }
        let p = e.predict(1.0).unwrap();
        // Zero drift, zero curvature → hit the horizon cap.
        assert_eq!(p.next_update_in, MAX_HORIZON);
        assert_eq!(p.derivative_bound, 0.0);
    }

    #[test]
    fn linear_signal_predicts_crossing_time() {
        // X[t] = 2t: drift reaches δ=10 after 5 ticks. A degree-0 remainder
        // correction may pull it slightly earlier but never later.
        let mut e = extrapolator(2); // degree-1 fit
        for t in 0..8 {
            e.observe(t as f64, 2.0 * t as f64);
        }
        let p = e.predict(10.0).unwrap();
        assert!(p.next_update_in <= 5, "predicted {}", p.next_update_in);
        assert!(
            p.next_update_in >= 3,
            "overly conservative: {}",
            p.next_update_in
        );
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
        assert_eq!(e.fit().drift(4.0), 4.0);
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
        assert!(e.predict(1.0).unwrap().bootstrapping);
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
        // and the higher levels to NaN. Nothing is provably below δ.
        let mut e = extrapolator(3);
        for t in 0..7 {
            let sign = if t % 2 == 0 { 1.0 } else { -1.0 };
            e.observe(t as f64, sign * 1e308);
        }
        let p = e.predict(5.0).unwrap();
        assert!(!p.bootstrapping);
        assert!(!p.derivative_bound.is_finite());
        assert_eq!(p.next_update_in, 1);

        // A NaN bound beside a finite drift fails every comparison; it
        // must not scan to the horizon either.
        let mut flat = extrapolator(2);
        for t in 0..6 {
            flat.observe(t as f64, 0.0);
        }
        let mut fit = flat.fit();
        assert_eq!(fit.horizon(5.0), MAX_HORIZON);
        fit.derivative_bound = f64::NAN;
        assert_eq!(fit.horizon(5.0), 1);
    }

    #[test]
    fn table_levels_are_the_divided_differences() {
        // X[t] = 3t² on irregular nodes: every order-2 difference is 3, so
        // PRED-2 (linear fit, order-2 remainder) reads M = 2!·3·1.5 and
        // PRED-3 (the quadratic itself) reads M = 0.
        let nodes = [0.0, 1.0, 4.0, 5.0, 7.0, 8.0, 11.0];
        let (mut pred2, mut pred3) = (extrapolator(2), extrapolator(3));
        for &t in &nodes {
            pred2.observe(t, 3.0 * t * t);
            pred3.observe(t, 3.0 * t * t);
        }
        assert_eq!(pred2.fit().derivative_bound, 9.0);
        let fit = pred3.fit();
        assert_eq!(fit.derivative_bound, 0.0);
        // 3(11 + h)² − 3·11² = 66h + 3h².
        assert_eq!(fit.drift(2.0), 144.0);
    }

    #[test]
    fn pred1_degenerates_gracefully() {
        // PRED-1 fits a constant; any real drift shows up only through the
        // remainder term (order-1 divided differences = slope estimates).
        let mut e = extrapolator(1);
        for t in 0..6 {
            e.observe(t as f64, 3.0 * t as f64);
        }
        let p = e.predict(9.0).unwrap();
        // slope bound ≈ 3 (×1.5 safety) → crossing within ~2-3 ticks.
        assert!(p.next_update_in <= 3, "predicted {}", p.next_update_in);
    }
}
