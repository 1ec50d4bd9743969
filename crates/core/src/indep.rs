//! Independent sampling (`INDEP`, paper §IV-B1).
//!
//! Every snapshot query draws a fresh uniform-with-replacement sample of
//! the relation, sized by the central limit theorem (Eq. 6):
//! `n = (σ z_p / ε)²`. The unknown `σ` is estimated sequentially: a pilot
//! batch seeds `σ̂`, then sampling continues until the CLT requirement is
//! met under the running estimate (the standard two-phase/sequential
//! procedure for on-the-fly sampling).
//!
//! That loop is `IndependentEstimator::draw`, written once for `k`
//! question classes and any number of contracts over them. It has three
//! callers:
//! - [`IndependentEstimator::evaluate`], the case of one class and one
//!   contract;
//! - a [`crate::RepeatedEstimator`]'s first occasion, which goes through
//!   `evaluate` and keeps the draws as its panel (§IV-B2);
//! - every fresh round of a [`crate::QueryMux`] (a [`crate::DigestEngine`]
//!   is its one-member case): each `INDEP` round, and each RPT round with
//!   no panel to revisit, whose draws seed the RPT panel. Every member is
//!   sized under the round's own `σ̂` and brings its smoothed selectivity
//!   as data; a lone contract brings 1.

use crate::error::CoreError;
use crate::panel::{answer, Question, SamplePanel};
use crate::query::Precision;
use crate::report::{draws_for_deficit, MessageSplit};
use crate::system::TickContext;
use crate::Result;
use digest_db::{Expr, Predicate, RowView, TupleHandle};
use digest_sampling::SamplingOperator;
use digest_stats::{required_sample_size, RunningMoments};
use digest_telemetry::Field;
use rand::RngCore;

/// The outcome of evaluating one snapshot query (§IV-B; carries the
/// `σ̂`/`ρ̂` diagnostics that feed Eq. 6 and Eq. 10 sizing).
#[derive(Debug, Clone)]
pub struct SnapshotEstimate {
    /// Estimated mean of the expression over the relation.
    pub estimate: f64,
    /// Fresh samples drawn through the sampling operator.
    pub fresh_samples: u64,
    /// Retained samples revisited (0 for independent sampling).
    pub revisited_samples: u64,
    /// Messages spent (walks + reports + revisits).
    pub messages: u64,
    /// Estimated value standard deviation `σ̂` at this occasion.
    pub sigma_hat: f64,
    /// Correlation `ρ̂` between consecutive occasions, when the estimator
    /// observes one (repeated sampling only).
    pub rho_hat: Option<f64>,
    /// Estimated variance of `estimate` itself.
    pub estimator_variance: f64,
    /// Samples that satisfied the query predicate (= all samples for the
    /// trivial predicate).
    pub qualifying_samples: u64,
    /// Measured selectivity `qualifying / drawn` (1 for the trivial
    /// predicate).
    pub selectivity: f64,
    /// Panel to retain for the next occasion (empty for independent
    /// sampling).
    pub panel_for_next: SamplePanel,
}

impl SnapshotEstimate {
    /// Total samples evaluated this occasion.
    #[must_use]
    pub fn total_samples(&self) -> u64 {
        self.fresh_samples + self.revisited_samples
    }
}

/// The independent-sampling estimator (`INDEP`, paper §IV-B1): fresh
/// CLT-sized sample every occasion (Eq. 6).
#[derive(Debug, Clone, Copy)]
pub struct IndependentEstimator {
    /// Pilot batch size used to seed `σ̂`.
    pub pilot_size: usize,
    /// Hard cap on samples per snapshot (guards against pathological
    /// variance estimates).
    pub max_samples: usize,
    /// Whether to keep the drawn samples as a panel (used when repeated
    /// sampling delegates its first occasion here).
    pub build_panel: bool,
}

impl Default for IndependentEstimator {
    fn default() -> Self {
        Self {
            pilot_size: 30,
            max_samples: 20_000,
            build_panel: false,
        }
    }
}

impl IndependentEstimator {
    /// Creates an estimator.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] if `pilot_size < 2` or
    /// `max_samples < pilot_size`.
    pub fn new(pilot_size: usize, max_samples: usize, build_panel: bool) -> Result<Self> {
        if pilot_size < 2 {
            return Err(CoreError::InvalidConfig {
                reason: "pilot_size must be at least 2",
            });
        }
        if max_samples < pilot_size {
            return Err(CoreError::InvalidConfig {
                reason: "max_samples must cover the pilot",
            });
        }
        Ok(Self {
            pilot_size,
            max_samples,
            build_panel,
        })
    }

    /// Evaluates one snapshot query: estimates `AVG(expr)` over the
    /// sub-population satisfying `predicate` to the given precision.
    ///
    /// # Errors
    ///
    /// Sampling/database errors (e.g. an empty relation).
    pub fn evaluate(
        &self,
        ctx: &TickContext<'_>,
        expr: &Expr,
        predicate: &Predicate,
        precision: &Precision,
        operator: &mut SamplingOperator,
        rng: &mut dyn RngCore,
    ) -> Result<SnapshotEstimate> {
        let mut tally = [RunningMoments::new()];
        let mut panel = SamplePanel::new();
        let fresh = self.draw(
            ctx,
            &[(expr, predicate)],
            std::iter::once((0, precision, 1.0)),
            &mut tally,
            self.build_panel.then_some(&mut panel),
            operator,
            rng,
        )?;
        let [moments] = tally;

        if digest_telemetry::events_enabled() {
            let [walk, report, revisit, lost, peers] = fresh.messages.fields();
            digest_telemetry::emit(
                "estimator.snapshot",
                &[
                    ("estimator", Field::Str("INDEP")),
                    ("estimate", Field::F64(moments.mean())),
                    ("fresh", Field::U64(fresh.drawn)),
                    ("retained", Field::U64(0)),
                    walk,
                    report,
                    revisit,
                    lost,
                    peers,
                ],
            );
        }

        let qualifying = moments.count();
        let n = qualifying.max(1) as f64;
        Ok(SnapshotEstimate {
            estimate: moments.mean(),
            fresh_samples: fresh.drawn,
            revisited_samples: 0,
            messages: fresh.messages.total(),
            sigma_hat: moments.sample_std(),
            rho_hat: None,
            estimator_variance: moments.sample_variance() / n,
            qualifying_samples: qualifying,
            selectivity: if fresh.drawn == 0 {
                1.0
            } else {
                qualifying as f64 / fresh.drawn as f64
            },
            panel_for_next: panel,
        })
    }

    /// The sequential CLT loop (Eq. 6, §IV-B1) over the question classes
    /// `questions`: sampling proceeds in rounds of one `sample_batch` each
    /// (one occasion seed, one join through the parallel executor), and
    /// every drawn row is folded once per class into `tallies` (one
    /// [`RunningMoments`] per class, owned by the caller). A round asks
    /// for the largest deficit over `demands`, each `(class, precision,
    /// selectivity)`: its class's [`target`](Self::target) less
    /// the qualifying values the class has, turned into draws at the
    /// expected `selectivity`. The loop ends when no demand is short or
    /// the [`draw_cap`] is spent. With a `seed` panel, every row that
    /// answers some class joins it.
    ///
    /// # Errors
    ///
    /// Sampling/database errors (an empty relation fails the first
    /// batch, before any draw); Eq. 6 on an invalid contract.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn draw<'p>(
        &self,
        ctx: &TickContext<'_>,
        questions: &[Question<'_>],
        demands: impl Iterator<Item = (usize, &'p Precision, f64)> + Clone,
        tallies: &mut [RunningMoments],
        mut seed: Option<&mut SamplePanel>,
        operator: &mut SamplingOperator,
        rng: &mut dyn RngCore,
    ) -> Result<FreshSample> {
        let cap = draw_cap(questions, self.max_samples);
        let mut fresh = FreshSample::default();
        if let Some(panel) = seed.as_deref_mut() {
            panel.reset(questions.len());
        }
        operator.begin_occasion();
        loop {
            let headroom = cap.saturating_sub(usize::try_from(fresh.drawn).unwrap_or(usize::MAX));
            let mut want = 0;
            for (class, precision, selectivity) in demands.clone() {
                let Some(moments) = tallies.get(class) else {
                    continue;
                };
                let target = self.target(precision, moments)?;
                let have = moments.count();
                if have < target {
                    want = want.max(draws_for_deficit(target - have, selectivity, headroom));
                }
            }
            if want == 0 {
                return Ok(fresh);
            }
            if let Some(panel) = seed.as_deref_mut() {
                panel.reserve(want);
            }
            let batch = operator.sample_batch(ctx.graph, ctx.db, ctx.origin, want, rng)?;
            for (handle, row, cost) in batch.iter() {
                fresh.messages.draw(cost);
                fresh.drawn += 1;
                fold_row(questions, tallies, handle, row, seed.as_deref_mut())?;
            }
        }
    }

    /// Eq. 6's qualifying-sample target for one contract: the pilot until
    /// the class has folded one, then `(σ̂ z_p / ε)²` within
    /// `[pilot, max_samples]`, `σ̂` the class's running sample deviation.
    fn target(&self, precision: &Precision, moments: &RunningMoments) -> Result<u64> {
        let sigma = (moments.count() >= self.pilot_size as u64).then(|| moments.sample_std());
        // Not `clamp`, which panics when `max_samples < pilot_size` (an
        // estimator built field by field); this ends the loop once the
        // pilot is in.
        let target = match sigma {
            Some(sigma) => required_sample_size(sigma, precision.epsilon, precision.confidence)?
                .max(self.pilot_size)
                .min(self.max_samples),
            None => self.pilot_size,
        };
        Ok(target as u64)
    }
}

/// What a fresh sample drew (§IV-B1): its rows, and what walking to them
/// cost.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FreshSample {
    pub(crate) drawn: u64,
    pub(crate) messages: MessageSplit,
}

/// How many fresh draws an occasion over `questions` may make: the
/// sample cap, with 4× rejection headroom when some question has a
/// predicate (a draw it rejects costs its walk and carries nothing).
pub(crate) fn draw_cap(questions: &[Question<'_>], max_samples: usize) -> usize {
    if questions.iter().all(|(_, p)| p.is_trivial()) {
        max_samples
    } else {
        max_samples.saturating_mul(4)
    }
}

/// Folds one sampled row into every question class's tally: the class's
/// predicate and expression are evaluated once, whatever the number of
/// contracts asking. With a `seed` panel, the row joins it too.
/// xtask: no-alloc
fn fold_row(
    questions: &[Question<'_>],
    tallies: &mut [RunningMoments],
    handle: TupleHandle,
    row: RowView<'_>,
    mut seed: Option<&mut SamplePanel>,
) -> Result<()> {
    for (&question, tally) in questions.iter().zip(tallies) {
        let value = answer(question, row)?;
        if let Some(panel) = seed.as_deref_mut() {
            panel.stage(value);
        }
        if let Some(value) = value {
            tally.push(value);
        }
    }
    if let Some(panel) = seed {
        panel.commit(handle);
    }
    Ok(())
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
    use digest_db::{P2PDatabase, Schema, Tuple};
    use digest_net::{topology, NodeId};
    use digest_sampling::SamplingConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// A complete graph of `nodes` nodes, each holding `per_node` tuples
    /// with values from a deterministic spread around `mean`.
    fn setup(
        nodes: u32,
        per_node: u32,
        mean: f64,
        spread: f64,
    ) -> (digest_net::Graph, P2PDatabase) {
        let g = topology::complete(nodes as usize).unwrap();
        let mut db = P2PDatabase::new(Schema::single("a"));
        let total = nodes * per_node;
        let mut k = 0u32;
        for v in 0..nodes {
            db.register_node(NodeId(v));
            for _ in 0..per_node {
                // Evenly spread values in [mean − spread, mean + spread].
                let frac = if total > 1 {
                    k as f64 / (total - 1) as f64
                } else {
                    0.5
                };
                let value = mean - spread + 2.0 * spread * frac;
                db.insert(NodeId(v), Tuple::single(value)).unwrap();
                k += 1;
            }
        }
        (g, db)
    }

    fn operator() -> SamplingOperator {
        SamplingOperator::new(SamplingConfig {
            walk_length: 40,
            reset_length: 8,
            continue_walks: true,
            workers: 1,
            cache_snapshots: true,
        })
        .unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(IndependentEstimator::new(1, 100, false).is_err());
        assert!(IndependentEstimator::new(10, 5, false).is_err());
        assert!(IndependentEstimator::new(10, 100, false).is_ok());
    }

    #[test]
    fn estimates_mean_within_epsilon() {
        let (g, db) = setup(8, 25, 50.0, 10.0);
        let expr = Expr::first_attr(db.schema());
        let precision = Precision::new(1.0, 1.0, 0.95).unwrap();
        let est = IndependentEstimator::default();
        let mut op = operator();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let ctx = TickContext {
            tick: 0,
            graph: &g,
            db: &db,
            origin: NodeId(0),
        };
        let truth = db.exact_avg(&expr).unwrap();

        let mut hits = 0;
        let trials = 20;
        for _ in 0..trials {
            let r = est
                .evaluate(&ctx, &expr, &Predicate::True, &precision, &mut op, &mut rng)
                .unwrap();
            if (r.estimate - truth).abs() <= precision.epsilon {
                hits += 1;
            }
            assert!(r.fresh_samples >= 30);
            assert!(
                r.messages > r.fresh_samples,
                "walks cost more than one message"
            );
        }
        // 95% confidence → expect ≥ ~17/20 inside the interval.
        assert!(hits >= 16, "only {hits}/{trials} inside ±ε");
    }

    #[test]
    fn sample_count_scales_with_variance() {
        let precision = Precision::new(1.0, 1.0, 0.95).unwrap();
        let est = IndependentEstimator::default();
        let mut rng = ChaCha8Rng::seed_from_u64(2);

        let (g1, db1) = setup(6, 20, 100.0, 2.0); // low spread
        let ctx1 = TickContext {
            tick: 0,
            graph: &g1,
            db: &db1,
            origin: NodeId(0),
        };
        let e1 = Expr::first_attr(db1.schema());
        let mut op1 = operator();
        let r1 = est
            .evaluate(&ctx1, &e1, &Predicate::True, &precision, &mut op1, &mut rng)
            .unwrap();

        let (g2, db2) = setup(6, 20, 100.0, 20.0); // high spread
        let ctx2 = TickContext {
            tick: 0,
            graph: &g2,
            db: &db2,
            origin: NodeId(0),
        };
        let e2 = Expr::first_attr(db2.schema());
        let mut op2 = operator();
        let r2 = est
            .evaluate(&ctx2, &e2, &Predicate::True, &precision, &mut op2, &mut rng)
            .unwrap();

        assert!(
            r2.fresh_samples > 2 * r1.fresh_samples,
            "high-variance run should need far more samples: {} vs {}",
            r2.fresh_samples,
            r1.fresh_samples
        );
    }

    #[test]
    fn respects_max_samples_cap() {
        let (g, db) = setup(6, 20, 100.0, 50.0);
        let expr = Expr::first_attr(db.schema());
        // Brutally tight ε forces the cap.
        let precision = Precision::new(1.0, 0.01, 0.99).unwrap();
        let est = IndependentEstimator::new(10, 200, false).unwrap();
        let mut op = operator();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let ctx = TickContext {
            tick: 0,
            graph: &g,
            db: &db,
            origin: NodeId(0),
        };
        let r = est
            .evaluate(&ctx, &expr, &Predicate::True, &precision, &mut op, &mut rng)
            .unwrap();
        assert!(r.fresh_samples <= 200);
    }

    #[test]
    fn builds_panel_when_asked() {
        let (g, db) = setup(4, 10, 10.0, 1.0);
        let expr = Expr::first_attr(db.schema());
        let precision = Precision::new(1.0, 0.5, 0.95).unwrap();
        let est = IndependentEstimator {
            build_panel: true,
            ..Default::default()
        };
        let mut op = operator();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let ctx = TickContext {
            tick: 0,
            graph: &g,
            db: &db,
            origin: NodeId(0),
        };
        let r = est
            .evaluate(&ctx, &expr, &Predicate::True, &precision, &mut op, &mut rng)
            .unwrap();
        let panel = &r.panel_for_next;
        assert_eq!(panel.len() as u64, r.fresh_samples);
        // Panel values are the observed values.
        for (&h, &value) in panel.handles().iter().zip(panel.values()) {
            let t = db.read(h).unwrap();
            assert_eq!(expr.eval(t).unwrap(), value);
        }
    }

    #[test]
    fn constant_relation_needs_only_pilot() {
        let (g, db) = setup(5, 10, 42.0, 0.0);
        let expr = Expr::first_attr(db.schema());
        let precision = Precision::new(1.0, 0.5, 0.95).unwrap();
        let est = IndependentEstimator::default();
        let mut op = operator();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let ctx = TickContext {
            tick: 0,
            graph: &g,
            db: &db,
            origin: NodeId(0),
        };
        let r = est
            .evaluate(&ctx, &expr, &Predicate::True, &precision, &mut op, &mut rng)
            .unwrap();
        assert_eq!(r.fresh_samples, 30, "zero variance → pilot only");
        assert!((r.estimate - 42.0).abs() < 1e-12);
    }
}
