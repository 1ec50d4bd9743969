//! Snapshot schedulers: when to execute the next snapshot query.
//!
//! * [`AllScheduler`] — the naive continuous-querying policy (`ALL` in the
//!   paper's figures): a snapshot every tick.
//! * [`PredScheduler`] — `PRED-k` (paper §IV-A): fit a Taylor polynomial
//!   to the last `k` snapshot results and skip ahead to the earliest tick
//!   at which the predicted drift plus the Lagrange remainder bound can
//!   reach the resolution threshold `δ`.

use crate::error::CoreError;
use crate::Result;
use digest_stats::{Extrapolator, ExtrapolatorConfig};
use digest_telemetry::{registry as telemetry, Field};

/// Decides the gap (in ticks) until the next snapshot query (the
/// continual-querying half of paper §IV-A).
pub trait SnapshotScheduler {
    /// Short name for experiment tables (`"ALL"`, `"PRED3"`, …).
    fn name(&self) -> &str;

    /// Records the snapshot result observed at time `t`.
    fn observe(&mut self, t: f64, estimate: f64);

    /// Ticks to wait before the next snapshot (≥ 1), given the query's
    /// resolution `δ`.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] for invalid `δ` (engine-validated, so
    /// unreachable in normal use).
    fn next_delay(&mut self, delta: f64) -> Result<u64>;

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

/// The `PRED-k` extrapolating scheduler (paper §IV-A, Eq. 4): Taylor-fit
/// the last `k` results and skip to the earliest possible `δ`-drift tick.
#[derive(Debug, Clone)]
pub struct PredScheduler {
    name: String,
    extrapolator: Extrapolator,
}

impl PredScheduler {
    /// Creates `PRED-k`.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] unless
    /// `1 ≤ k ≤` [`digest_stats::taylor::MAX_HISTORY`].
    pub fn new(k: usize) -> Result<Self> {
        let extrapolator = Extrapolator::new(ExtrapolatorConfig { history: k }).map_err(|_| {
            CoreError::InvalidConfig {
                reason: "PRED-k requires 1 <= k <= 8",
            }
        })?;
        Ok(Self {
            name: format!("PRED{k}"),
            extrapolator,
        })
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
        let prediction = self.extrapolator.predict(delta)?;
        let delay = prediction.next_update_in.max(1);
        telemetry::CORE_SCHEDULER_DECISIONS.inc();
        telemetry::CORE_SCHEDULER_DELAY.record(delay);
        if digest_telemetry::events_enabled() {
            let fields = [
                ("scheduler", Field::Str(&self.name)),
                ("delay", Field::U64(delay)),
                ("bootstrapping", Field::Bool(prediction.bootstrapping)),
                ("derivative_bound", Field::F64(prediction.derivative_bound)),
            ];
            // During bootstrap the bound is +∞, which JSON cannot carry.
            let carried = fields.len() - usize::from(!prediction.derivative_bound.is_finite());
            digest_telemetry::emit("scheduler.decision", &fields[..carried]);
        }
        Ok(delay)
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
        let mut s = PredScheduler::new(3).unwrap();
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
