//! Finishing an occasion: what every query system does once a snapshot
//! has produced (or failed to produce) a value.
//!
//! The paper's product is one rule — report when the aggregate has moved
//! by `δ`, within `ε` at confidence `p` (§II) — and two systems apply
//! it: the round of a [`crate::QueryMux`] (a [`crate::DigestEngine`] is
//! its one-member case) and TAG.
//! This module owns, each exactly once, the parts of that tail that do
//! not depend on who is asking:
//!
//! * the δ-rule and its two fields ([`Report`]);
//! * the scheduler hand-off that follows it ([`finish`]: δ-rule →
//!   `observe` (values only, never a hold) → `next_delay_from` the
//!   occasion's tick, the latter always inside one `SchedulerDecide`
//!   span);
//! * the decayed selectivity tally, the conversion of a qualifying-sample
//!   requirement into draws, and the `SUM`/`COUNT` scaling by `N̂`
//!   ([`Selectivity`], [`draws_for_deficit`], [`scale`]);
//! * the split of an occasion's messages by cause ([`MessageSplit`]);
//! * relation-size estimation ([`SizeTracker`]: the 4×-walk uniform
//!   operator, `N̂`, the since-refresh counter and the one refresh body);
//! * the one `engine.snapshot` event ([`emit_snapshot`]).
//!
//! What stays with each system is what differs between them: how the
//! value is obtained (estimator, sweep, fold, flood), when `N̂` is stale,
//! and how a round's cost is split.

use crate::query::AggregateOp;
use crate::scheduler::SnapshotScheduler;
use crate::sketch_est::SweepSnapshot;
use crate::system::{TickContext, TickOutcome};
use crate::Result;
use digest_sampling::{
    uniform_weight, SampleCost, SamplingConfig, SamplingOperator, SizeEstimator,
};
use digest_telemetry::{registry as telemetry, Field, Stage};
use rand::RngCore;

/// The running result of one continuous query and the δ-rule that
/// guards it (paper §II): the user-visible result moves only when the
/// aggregate is at least `δ` away from the last reported value.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Report {
    /// The latest estimate `X̂[t]`, reported or not.
    pub(crate) current: f64,
    /// The last value that passed the δ-rule (`NaN` before the first).
    pub(crate) last_reported: f64,
}

impl Report {
    pub(crate) const fn new() -> Self {
        Self {
            current: 0.0,
            last_reported: f64::NAN,
        }
    }

    /// Takes `value` as the current estimate and applies the δ-rule;
    /// returns whether the reported result was updated.
    /// xtask: no-alloc
    pub(crate) fn report(&mut self, value: f64, delta: f64) -> bool {
        self.current = value;
        let updated = self.last_reported.is_nan() || (value - self.last_reported).abs() >= delta;
        if updated {
            self.last_reported = value;
        }
        updated
    }

    /// The whole tail of a system that evaluates every tick without
    /// sampling or scheduling (TAG): δ-rule in, outcome out.
    pub(crate) fn every_tick(&mut self, estimate: f64, delta: f64, messages: u64) -> TickOutcome {
        TickOutcome {
            estimate,
            updated: self.report(estimate, delta),
            ..TickOutcome::held(estimate, messages)
        }
    }
}

/// How a snapshot ended, before the tail every scheduled system shares.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Snapshot {
    /// Nothing could be evaluated (empty relation, empty order
    /// statistic): hold the result and retry next tick, scheduler
    /// untouched.
    Retry,
    /// The probe ran but nothing qualified: hold the result, and let the
    /// scheduler pace the next probe from what it has measured — counted
    /// from the last measurement, not from the hold. The held value is no
    /// measurement: fed back, it would read as zero drift.
    Hold {
        /// Samples the probe evaluated.
        samples: u64,
        /// Of those, freshly drawn.
        fresh: u64,
    },
    /// A value to put through the δ-rule.
    Value {
        /// The finalised aggregate.
        value: f64,
        /// Samples behind it.
        samples: u64,
        /// Of those, freshly drawn.
        fresh: u64,
    },
}

impl From<SweepSnapshot> for Snapshot {
    /// A sweep over nothing has no order statistic or mass fraction to
    /// report (§IV hold rule): retry next tick.
    fn from(sweep: SweepSnapshot) -> Self {
        sweep
            .estimate
            .map_or(Snapshot::Retry, |value| Snapshot::Value {
                value,
                samples: sweep.qualifying,
                fresh: sweep.fresh_nodes,
            })
    }
}

/// The shared tail of a reporting occasion (paper §II δ-semantics, §IV-A
/// rescheduling): applies the δ-rule, feeds the scheduler the value (a
/// hold has none) and asks it for the next delay from `tick`. Returns the
/// tick's outcome and that delay in ticks (1 for [`Snapshot::Retry`]).
/// xtask: no-alloc
pub(crate) fn finish(
    report: &mut Report,
    scheduler: &mut dyn SnapshotScheduler,
    tick: u64,
    delta: f64,
    snapshot: Snapshot,
    messages: u64,
) -> Result<(TickOutcome, u64)> {
    let outcome = match snapshot {
        Snapshot::Retry => return Ok((TickOutcome::held(report.current, messages), 1)),
        Snapshot::Hold { samples, fresh } => TickOutcome {
            samples_this_tick: samples,
            fresh_samples_this_tick: fresh,
            ..TickOutcome::held(report.current, messages)
        },
        Snapshot::Value {
            value,
            samples,
            fresh,
        } => {
            scheduler.observe(tick as f64, value);
            TickOutcome {
                estimate: value,
                updated: report.report(value, delta),
                snapshot_executed: true,
                samples_this_tick: samples,
                fresh_samples_this_tick: fresh,
                messages_this_tick: messages,
            }
        }
    };
    let _span = digest_telemetry::span(Stage::SchedulerDecide);
    let delay = scheduler.next_delay_from(tick as f64, delta)?;
    Ok((outcome, delay))
}

/// Emits the `engine.snapshot` event of a finished occasion.
pub(crate) fn emit_snapshot(system: &str, outcome: &TickOutcome) {
    if digest_telemetry::events_enabled() {
        digest_telemetry::emit(
            "engine.snapshot",
            &[
                ("system", Field::Str(system)),
                ("estimate", Field::F64(outcome.estimate)),
                ("messages", Field::U64(outcome.messages_this_tick)),
                ("samples", Field::U64(outcome.samples_this_tick)),
            ],
        );
    }
}

/// Where an occasion's sampling messages went, by cause (§VI-A cost
/// model): walk forwarding and sample reports of fresh draws (§V), one
/// direct exchange with each live peer holding retained tuples, and one
/// probe of each departed one (§IV-B2a) — and how many peers that was.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct MessageSplit {
    pub(crate) walk: u64,
    pub(crate) report: u64,
    pub(crate) revisit: u64,
    pub(crate) lost: u64,
    /// The live peers `revisit` pays for: a count, not messages.
    pub(crate) peers: u64,
}

impl MessageSplit {
    /// Counts one fresh draw's walk and report.
    pub(crate) fn draw(&mut self, cost: SampleCost) {
        self.walk += cost.walk_messages;
        self.report += cost.report_messages;
    }

    /// All of it.
    pub(crate) fn total(&self) -> u64 {
        self.walk + self.report + self.revisit + self.lost
    }

    /// The split as event fields, next to the event's `messages`; the
    /// last, `peers`, is no part of the sum.
    pub(crate) fn fields(&self) -> [(&'static str, Field<'static>); 5] {
        [
            ("walk", Field::U64(self.walk)),
            ("report", Field::U64(self.report)),
            ("revisit", Field::U64(self.revisit)),
            ("lost", Field::U64(self.lost)),
            ("peers", Field::U64(self.peers)),
        ]
    }
}

/// Floor on a smoothed selectivity used to convert a qualifying-sample
/// requirement into draws (Eq. 6 and Eq. 10 count *qualifying* samples);
/// bounds the rejection-sampling inflation at 8×.
const SELECTIVITY_FLOOR: f64 = 0.125;

/// Converts a qualifying-sample requirement into a draw request under a
/// smoothed selectivity (§IV-B sizing with a `WHERE` predicate; bounded
/// inflation, capped at `cap`).
#[allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_precision_loss
)]
pub(crate) fn draws_for_deficit(deficit: u64, selectivity: f64, cap: usize) -> usize {
    let sel = selectivity.max(SELECTIVITY_FLOOR);
    let want = (deficit as f64 / sel).ceil();
    if !want.is_finite() || want <= 0.0 {
        return 0;
    }
    (want as usize).min(cap)
}

/// Smoothing factor of the decayed selectivity tally.
const SELECTIVITY_DECAY: f64 = 0.75;

/// Exponentially decayed (qualifying, drawn) fresh-sample counts: a
/// stable selectivity estimate across occasions — one occasion's few
/// fresh draws are far too noisy to scale `COUNT`/`SUM` by (§IV-B).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Selectivity {
    qualifying: f64,
    drawn: f64,
}

impl Selectivity {
    /// The smoothed selectivity (1 before anything was drawn).
    pub(crate) fn smoothed(&self) -> f64 {
        if self.drawn > 0.0 {
            self.qualifying / self.drawn
        } else {
            1.0
        }
    }

    /// Folds one occasion's counts into the tally; returns the smoothed
    /// selectivity.
    pub(crate) fn update(&mut self, qualifying: f64, drawn: f64) -> f64 {
        self.qualifying = self.qualifying * SELECTIVITY_DECAY + qualifying;
        self.drawn = self.drawn * SELECTIVITY_DECAY + drawn;
        self.smoothed()
    }
}

/// Scales the sampled qualifying-`AVG` into the query's aggregate. With a
/// `WHERE` predicate, `SUM`/`COUNT` additionally scale by the measured
/// selectivity: the qualifying population is `N̂ · sel`. Sketch kinds
/// finalise to their scalar directly (DESIGN.md §17) and pass through.
pub(crate) fn scale(op: AggregateOp, avg: f64, selectivity: f64, n_hat: Option<f64>) -> f64 {
    match op {
        AggregateOp::Avg
        | AggregateOp::Percentile { .. }
        | AggregateOp::Distinct
        | AggregateOp::TopK { .. } => avg,
        AggregateOp::Sum => avg * selectivity * n_hat.unwrap_or(0.0),
        AggregateOp::Count => selectivity * n_hat.unwrap_or(0.0),
    }
}

/// Relation-size estimation for `SUM`/`COUNT` (§V-B capture–recapture
/// over uniform node samples): a dedicated uniform-weight operator — so
/// the content-weighted walk of the main operator is not disturbed —
/// the blended `N̂`, and the occasions since it was last refreshed.
pub(crate) struct SizeTracker {
    operator: SamplingOperator,
    estimate: Option<f64>,
    since_refresh: u64,
}

impl SizeTracker {
    /// Builds the tracker over `sampling`'s walk settings.
    ///
    /// Size estimation targets the *uniform* node distribution, which
    /// the Metropolis walk reaches more slowly than the content-biased
    /// one on skewed topologies — and capture–recapture is biased (it
    /// over-counts collisions, under-estimating `N̂`) if the walks are
    /// under-mixed. The size walks get 4× the budget.
    pub(crate) fn new(sampling: SamplingConfig) -> Result<Self> {
        Ok(Self {
            operator: SamplingOperator::new(SamplingConfig {
                walk_length: sampling.walk_length.saturating_mul(4),
                reset_length: sampling.reset_length.saturating_mul(2),
                ..sampling
            })?,
            estimate: None,
            since_refresh: 0,
        })
    }

    /// The current `N̂`, if a round has run.
    pub(crate) fn estimate(&self) -> Option<f64> {
        self.estimate
    }

    /// Whether `N̂` is missing or `interval` occasions old.
    pub(crate) fn is_stale(&self, interval: u64) -> bool {
        self.estimate.is_none() || self.since_refresh >= interval
    }

    /// Counts one occasion served from the current `N̂`.
    pub(crate) fn served_occasion(&mut self) {
        self.since_refresh += 1;
    }

    pub(crate) fn set_workers(&mut self, workers: usize) {
        self.operator.set_workers(workers);
    }

    /// Runs one size-estimation round: up to `sample_target` uniform node
    /// samples, stopping early once the capture–recapture estimator has
    /// enough collisions. Returns messages used.
    pub(crate) fn refresh(
        &mut self,
        ctx: &TickContext<'_>,
        sample_target: usize,
        rng: &mut dyn RngCore,
    ) -> Result<u64> {
        let _span = digest_telemetry::span(Stage::SizeEstimate);
        telemetry::CORE_SIZE_REFRESHES.inc();
        let mut est = SizeEstimator::new();
        let mut messages = 0u64;
        let w = uniform_weight();
        self.operator.begin_occasion();
        for _ in 0..sample_target {
            let (node, cost) = self.operator.sample_node(ctx.graph, &w, ctx.origin, rng)?;
            messages += cost.total();
            est.add_sample(node, ctx.db.content_size(node));
            // Enough collisions for a stable estimate → stop early.
            // (var(r̂)/r̂² ≈ 1/C, so C = 32 gives ~18 % relative error.)
            if est.collisions() >= 32 {
                break;
            }
        }
        if let Ok(n_hat) = est.estimate_tuple_count() {
            // Blend with the previous estimate: capture–recapture rounds
            // are noisy (relative error ~1/√C) but the relation size moves
            // slowly, so averaging across refreshes pays off.
            self.estimate = Some(match self.estimate {
                Some(old) => old + 0.5 * (n_hat - old),
                None => n_hat,
            });
        } else if self.estimate.is_none() {
            // Too few collisions (network larger than the budget can
            // resolve): fall back to the distinct-node count as a floor.
            let floor = if est.samples() > 0 {
                est.distinct() as f64
            } else {
                0.0
            };
            self.estimate = Some(floor.max(1.0));
        }
        self.since_refresh = 0;
        Ok(messages)
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    /// The δ-rule, case by case: `(value, reports, last_reported after)`
    /// fed in order to one `Report` under δ = 2.
    #[test]
    fn delta_rule_table() {
        let mut r = Report::new();
        assert!(r.last_reported.is_nan());
        for (value, reports, last) in [
            (10.0, true, 10.0),  // NaN start: the first value always reports
            (11.5, false, 10.0), // |Δ| < δ holds, and keeps last_reported
            (8.5, false, 10.0),  // … in either direction
            (12.0, true, 12.0),  // |Δ| = δ reports
            (13.9, false, 12.0), // measured from the new report, not the held 11.5
            (9.0, true, 9.0),
        ] {
            assert_eq!(r.report(value, 2.0), reports, "value {value}");
            assert_eq!(r.current, value);
            assert_eq!(r.last_reported, last, "value {value}");
        }
    }
}
