//! Snapshot schedulers: when to execute the next snapshot query.
//!
//! * [`AllScheduler`] — the naive continuous-querying policy (`ALL` in the
//!   paper's figures): a snapshot every tick.
//! * [`PredScheduler`] — `PRED-k` (paper §IV-A): fit a degree-`(k−1)`
//!   polynomial to the recent snapshot results by least squares and skip
//!   ahead to the earliest tick at which the fitted drift plus a prediction
//!   bound that carries the snapshots' own variance can reach the
//!   resolution threshold `δ` ([`digest_stats::taylor`]).

use crate::error::CoreError;
use crate::query::Precision;
use crate::Result;
use digest_stats::taylor::MAX_HISTORY;
use digest_stats::{Extrapolator, ExtrapolatorConfig};
use digest_telemetry::{registry as telemetry, Field};

/// Decides the gap (in ticks) until the next snapshot query (the
/// continual-querying half of paper §IV-A).
pub trait SnapshotScheduler {
    /// Short name for experiment tables (`"ALL"`, `"PRED3"`, …).
    fn name(&self) -> &str;

    /// Records the snapshot result observed at time `t`.
    fn observe(&mut self, t: f64, estimate: f64);

    /// Ticks to wait before the next snapshot (≥ 1), counted from the
    /// latest observation, given the query's resolution `δ`.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] for invalid `δ` (engine-validated, so
    /// unreachable in normal use).
    fn next_delay(&mut self, delta: f64) -> Result<u64>;

    /// Ticks to wait from `now` (≥ 1), which may be later than the latest
    /// observation: an occasion that held measured nothing, so the ticks
    /// it has already waited count against the delay the latest
    /// observation earned. A scheduler whose delay does not depend on
    /// history answers [`SnapshotScheduler::next_delay`].
    ///
    /// # Errors
    ///
    /// As [`SnapshotScheduler::next_delay`].
    fn next_delay_from(&mut self, now: f64, delta: f64) -> Result<u64> {
        let _ = now;
        self.next_delay(delta)
    }

    /// Forgets accumulated history (regime change).
    fn reset(&mut self);
}

/// Snapshot every tick (`ALL` in the paper's §VI figures).
#[derive(Debug, Clone, Default)]
pub struct AllScheduler;

impl AllScheduler {
    /// Creates the scheduler.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl SnapshotScheduler for AllScheduler {
    fn name(&self) -> &str {
        "ALL"
    }

    fn observe(&mut self, _t: f64, _estimate: f64) {}

    fn next_delay(&mut self, _delta: f64) -> Result<u64> {
        telemetry::CORE_SCHEDULER_DECISIONS.inc();
        telemetry::CORE_SCHEDULER_DELAY.record(1);
        if digest_telemetry::events_enabled() {
            digest_telemetry::emit(
                "scheduler.decision",
                &[("scheduler", Field::Str("ALL")), ("delay", Field::U64(1))],
            );
        }
        Ok(1)
    }

    fn reset(&mut self) {}
}

/// The `PRED-k` extrapolating scheduler (paper §IV-A, Eq. 4): fit the
/// recent results and skip to the earliest possible `δ`-drift tick.
#[derive(Debug, Clone)]
pub struct PredScheduler {
    name: String,
    extrapolator: Extrapolator,
}

impl PredScheduler {
    /// Creates `PRED-k` over exact snapshot values, without a confidence
    /// margin ([`ExtrapolatorConfig::pred`]).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] unless
    /// `1 ≤ k ≤` [`digest_stats::taylor::MAX_HISTORY`].
    pub fn new(k: usize) -> Result<Self> {
        Self::with_config(Self::config(k)?)
    }

    /// Creates `PRED-k` for a query's contract: each snapshot is within
    /// `ε` of the truth with probability `p`, so its variance is
    /// `(ε / z_p)²` and the bound reaches `z_p` standard errors out
    /// ([`ExtrapolatorConfig::with_contract`]).
    ///
    /// # Errors
    ///
    /// As [`PredScheduler::new`], and for a precision that is not one.
    pub fn for_precision(k: usize, precision: &Precision) -> Result<Self> {
        let config = Self::config(k)?;
        Self::with_config(config.with_contract(precision.epsilon, precision.confidence)?)
    }

    fn config(k: usize) -> Result<ExtrapolatorConfig> {
        if !(1..=MAX_HISTORY).contains(&k) {
            return Err(CoreError::InvalidConfig {
                reason: "PRED-k requires 1 <= k <= 8",
            });
        }
        Ok(ExtrapolatorConfig::pred(k))
    }

    fn with_config(config: ExtrapolatorConfig) -> Result<Self> {
        Ok(Self {
            name: format!("PRED{}", config.history),
            extrapolator: Extrapolator::new(config)?,
        })
    }

    /// The delay the bound gives the latest observation, less the `waited`
    /// ticks since it, and at least 1.
    /// xtask: no-alloc
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    fn decide(&mut self, waited: f64, delta: f64) -> Result<u64> {
        let prediction = self.extrapolator.predict(delta)?;
        let left = prediction.next_update_in as f64 - waited;
        // A bootstrap or an overdue horizon: the next tick.
        let delay = if left > 1.0 { left as u64 } else { 1 };
        telemetry::CORE_SCHEDULER_DECISIONS.inc();
        telemetry::CORE_SCHEDULER_DELAY.record(delay);
        if digest_telemetry::events_enabled() {
            // The bound's parts at the chosen horizon: none during
            // bootstrap, and none that JSON cannot carry.
            let bound = prediction
                .bound
                .filter(|b| b.drift.is_finite() && b.spread.is_finite() && b.noise_var.is_finite());
            let (drift, spread, noise_var) =
                bound.map_or((0.0, 0.0, 0.0), |b| (b.drift, b.spread, b.noise_var));
            let fields = [
                ("scheduler", Field::Str(&self.name)),
                ("delay", Field::U64(delay)),
                ("bootstrapping", Field::Bool(prediction.bound.is_none())),
                ("drift", Field::F64(drift)),
                ("spread", Field::F64(spread)),
                ("noise_var", Field::F64(noise_var)),
            ];
            let carried = if bound.is_some() { fields.len() } else { 3 };
            digest_telemetry::emit("scheduler.decision", &fields[..carried]);
        }
        Ok(delay)
    }
}

impl SnapshotScheduler for PredScheduler {
    fn name(&self) -> &str {
        &self.name
    }

    fn observe(&mut self, t: f64, estimate: f64) {
        self.extrapolator.observe(t, estimate);
    }

    /// xtask: no-alloc
    fn next_delay(&mut self, delta: f64) -> Result<u64> {
        self.decide(0.0, delta)
    }

    /// xtask: no-alloc
    fn next_delay_from(&mut self, now: f64, delta: f64) -> Result<u64> {
        let waited = self
            .extrapolator
            .last_observed()
            .map_or(0.0, |t_u| now - t_u);
        self.decide(waited, delta)
    }

    fn reset(&mut self) {
        self.extrapolator.reset();
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

    #[test]
    fn all_scheduler_is_every_tick() {
        let mut s = AllScheduler::new();
        s.observe(0.0, 1.0);
        assert_eq!(s.next_delay(5.0).unwrap(), 1);
        assert_eq!(s.name(), "ALL");
    }

    #[test]
    fn pred_scheduler_name_and_validation() {
        assert!(PredScheduler::new(0).is_err());
        // Above the fixed window: an error, not an index out of bounds.
        let cap = digest_stats::taylor::MAX_HISTORY;
        assert!(PredScheduler::new(cap).is_ok());
        for k in [cap + 1, 171, usize::MAX] {
            match PredScheduler::new(k) {
                Err(CoreError::InvalidConfig { reason }) => {
                    assert!(reason.contains(&format!("<= {cap}")), "{reason}");
                }
                other => panic!("k = {k}: {other:?}"),
            }
        }
        let s = PredScheduler::new(3).unwrap();
        assert_eq!(s.name(), "PRED3");
    }

    #[test]
    fn pred_bootstraps_then_skips_on_steady_signal() {
        let contract = Precision::new(5.0, 0.1, 0.95).unwrap();
        let mut s = PredScheduler::for_precision(3, &contract).unwrap();
        // During bootstrap: every tick.
        for t in 0..4 {
            assert_eq!(s.next_delay(5.0).unwrap(), 1, "bootstrap tick {t}");
            s.observe(t as f64, 100.0);
        }
        // Steady signal: now the scheduler can skip far ahead.
        let d = s.next_delay(5.0).unwrap();
        assert!(d > 5, "steady signal should skip ahead, got {d}");
    }

    #[test]
    fn ticks_waited_through_a_hold_count_against_the_delay() {
        let contract = Precision::new(5.0, 0.1, 0.95).unwrap();
        let mut s = PredScheduler::for_precision(3, &contract).unwrap();
        for t in 0..6 {
            s.observe(f64::from(t), 100.0);
        }
        let earned = s.next_delay(5.0).unwrap();
        assert!(earned > 4, "{earned}");
        // Holds at t_u + 3 and at the due tick: the probe stays due at
        // t_u + earned, then comes at the next tick.
        assert_eq!(s.next_delay_from(5.0, 5.0).unwrap(), earned);
        assert_eq!(s.next_delay_from(8.0, 5.0).unwrap(), earned - 3);
        let due = 5.0 + earned as f64;
        assert_eq!(s.next_delay_from(due, 5.0).unwrap(), 1);
        assert_eq!(s.next_delay_from(due + 7.0, 5.0).unwrap(), 1);
        // A scheduler whose delay has no history ignores the wait.
        assert_eq!(AllScheduler::new().next_delay_from(9.0, 5.0).unwrap(), 1);
    }

    #[test]
    fn pred_tracks_fast_signal_closely() {
        let mut s = PredScheduler::new(3).unwrap();
        for t in 0..6 {
            s.observe(t as f64, 10.0 * t as f64);
        }
        let d = s.next_delay(5.0).unwrap();
        // Slope 10 per tick, δ = 5 → must re-snapshot almost immediately.
        assert_eq!(d, 1, "fast drift must not be skipped, got {d}");
    }

    #[test]
    fn pred_reset_restores_bootstrap() {
        let mut s = PredScheduler::new(2).unwrap();
        for t in 0..5 {
            s.observe(t as f64, 1.0);
        }
        assert!(s.next_delay(10.0).unwrap() > 1);
        s.reset();
        assert_eq!(s.next_delay(10.0).unwrap(), 1);
    }

    #[test]
    fn schedulers_are_object_safe() {
        let mut boxed: Vec<Box<dyn SnapshotScheduler>> = vec![
            Box::new(AllScheduler::new()),
            Box::new(PredScheduler::new(2).unwrap()),
        ];
        for s in boxed.iter_mut() {
            s.observe(0.0, 1.0);
            assert!(s.next_delay(1.0).unwrap() >= 1);
        }
    }
}
