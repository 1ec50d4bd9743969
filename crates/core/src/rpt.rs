//! Repeated sampling (`RPT`, paper §IV-B2).
//!
//! The first snapshot of a continuous query is evaluated exactly like
//! independent sampling, but the drawn samples are *kept* as a panel. At
//! every later occasion:
//!
//! 1. the required panel size `n` is solved from the repeated-sampling
//!    variance formula (Eq. 10) under the current `ρ̂`, `σ̂` — by Eq. 11
//!    a factor `2/(1+√(1−ρ̂²))` smaller than the CLT size INDEP needs;
//! 2. the panel is partitioned optimally (Eq. 9): `g_opt` samples are
//!    *retained* and revisited (cheap — the nodes are already located, and
//!    each is asked once for all of its retained samples), the rest
//!    replaced by fresh walks; the retained part is the newest `g_opt`
//!    entries, so the panel rotates. Tuples that died or whose node left
//!    are detected on revisit and silently become fresh draws (§IV-B2a's
//!    forced-replacement rule);
//! 3. the reported result combines the regression estimate over the
//!    retained pairs with the fresh-sample mean, inverse-variance
//!    weighted (Eq. 7, Table 1);
//! 4. `ρ̂` and `σ̂` are refreshed from this occasion's panel for the next
//!    round (an exponential moving average keeps single-occasion noise
//!    from whipsawing the replacement policy).
//!
//! One panel can answer several *question classes* — an expression under
//! a predicate — at once: the tuples are sampled uniformly whatever is
//! asked of them (§V), so a shared [`crate::QueryMux`] round keeps one
//! panel for all of its members. Each class keeps its own previous
//! estimate, `ρ̂` / `σ̂` EMAs and selectivity and folds its own Eq. 7;
//! sizing takes the largest Eq. 10 requirement over the members' `(ε, p)`
//! contracts and splits the panel at the binding member's `ρ̂`.
//! [`RepeatedEstimator::evaluate`] is the case of one class and one
//! contract, for callers outside a round.
//!
//! The occasion's working set — the revisit report, the fresh values and
//! the next panel — lives in buffers the estimator keeps across
//! occasions, and fresh draws are read as rows of the operator's batch
//! column: an occasion at a steady panel size allocates nothing here.

use crate::error::CoreError;
use crate::indep::{draw_cap, IndependentEstimator, SnapshotEstimate};
use crate::panel::{answer, Answers, Question, RevisitReport, SamplePanel};
use crate::query::Precision;
use crate::report::{draws_for_deficit, MessageSplit, Selectivity};
use crate::system::TickContext;
use crate::Result;
use digest_db::{Expr, Predicate};
use digest_sampling::{SampledBatch, SamplingOperator};
use digest_stats::repeated::{combined_estimate, optimal_partition, required_panel_size};
use digest_telemetry::{registry as telemetry, Field};
use rand::RngCore;

/// Tuning of the repeated-sampling estimator (`RPT`, paper §IV-B2).
#[derive(Debug, Clone, Copy)]
pub struct RptConfig {
    /// Pilot size for the first (independent) occasion.
    pub pilot_size: usize,
    /// Hard cap on samples per occasion.
    pub max_samples: usize,
    /// Forward regression (paper §VIII future work): after each occasion,
    /// regress the retained samples' *previous* values on their current
    /// ones to retro-correct the previous occasion's reported result.
    /// The correction is exposed through
    /// [`RepeatedEstimator::last_forward_correction`]; it never rewrites
    /// the already-reported history on its own.
    pub forward_correction: bool,
}

impl Default for RptConfig {
    fn default() -> Self {
        Self {
            pilot_size: 30,
            max_samples: 20_000,
            forward_correction: false,
        }
    }
}

/// Messages to revisit one live peer (§IV-B2): a direct request listing
/// the handles of its retained samples and one reply with every row, a
/// deleted one as "gone" — the node is already located, no walk needed.
const REVISIT_COST: u64 = 2;
/// Messages wasted discovering that a peer holding retained samples is
/// gone: one timed-out probe, however many samples it held.
const LOST_PROBE_COST: u64 = 1;
/// EMA weight given to the newest `ρ̂` observation.
const RHO_SMOOTHING: f64 = 0.5;
/// EMA weight given to the newest `σ̂²` observation. Smoothing matters:
/// sizing (Eq. 10) is convex in σ̂², so raw per-occasion noise
/// systematically inflates the average panel.
const SIGMA_SMOOTHING: f64 = 0.3;
/// Minimum retained pairs for the Eq. 7 regression to be trusted; below
/// this the occasion degrades to a plain fresh-mean estimate.
const MIN_RETAINED_PAIRS: usize = 5;

/// A retro-correction of the previous occasion's estimate produced by
/// forward regression (the backward use of the §IV-B2 regression pair).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForwardCorrection {
    /// The tick/occasion index the correction refers to (k−1, counted in
    /// evaluations of this estimator).
    pub occasion: u64,
    /// The estimate as originally reported.
    pub original: f64,
    /// The corrected estimate after folding in occasion k's information.
    pub corrected: f64,
}

/// What a revisit cost (§IV-B2): one exchange with each live peer holding
/// retained samples, one timed-out probe of each departed one — priced
/// per node, not per sample.
fn revisit_messages(report: &RevisitReport) -> MessageSplit {
    MessageSplit {
        revisit: report.peers as u64 * REVISIT_COST,
        lost: report.departed as u64 * LOST_PROBE_COST,
        peers: report.peers as u64,
        ..MessageSplit::default()
    }
}

/// Answers an occasion's fresh draws under every question — one pass over
/// the batch's rows per question, as the revisit answers its retained
/// entries — and settles them behind `report`'s survivors: a draw that
/// answers some question joins the panel, and its values join each
/// question's fresh sample. Returns how many joined.
///
/// # Errors
///
/// A question's expression fails to evaluate on a qualifying row.
///
/// xtask: no-alloc
fn admit(
    batch: &SampledBatch<'_>,
    questions: &[Question<'_>],
    report: &mut RevisitReport,
) -> Result<usize> {
    let width = questions.len().max(1);
    let staged = report.survivors.stage_entries(batch.len());
    for (q, (&question, answers)) in questions.iter().zip(&mut report.answers).enumerate() {
        for ((_, row, _), staged) in batch.iter().zip(staged.chunks_exact_mut(width)) {
            let value = answer(question, row)?;
            if let Some(slot) = staged.get_mut(q) {
                *slot = value.unwrap_or(f64::NAN);
            }
            answers.fresh.extend(value);
        }
    }
    let dropped = report
        .survivors
        .settle(batch.iter().map(|(handle, _, _)| handle));
    Ok(batch.len() - dropped)
}

/// What one question class made of an occasion's panel (§IV-B2, Eq. 7).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ClassAnswer {
    /// The combined estimate of the class's mean — the previous one, held,
    /// when nothing answered.
    pub(crate) estimate: f64,
    /// Its estimated variance.
    pub(crate) variance: f64,
    /// `σ̂` measured on this occasion's values.
    pub(crate) sigma: f64,
    /// `ρ̂` measured on the retained pairs, when there were enough.
    pub(crate) rho: Option<f64>,
    /// Values behind the estimate, retained and fresh.
    pub(crate) qualifying: u64,
    /// Of the occasion's fresh draws, those that answered.
    pub(crate) fresh_qualifying: u64,
}

/// What one occasion drew and spent over all its classes (§IV-B2, §VI-A).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Occasion {
    /// Retained entries revisited alive.
    pub(crate) revisited: u64,
    /// Fresh samples drawn.
    pub(crate) fresh: u64,
    /// `g / n` of the Eq. 9 partition.
    pub(crate) retained_fraction: f64,
    /// The messages, by cause.
    pub(crate) messages: MessageSplit,
}

/// One question class's cross-occasion state (§IV-B2).
#[derive(Debug, Clone)]
struct Class {
    expr: Expr,
    predicate: Predicate,
    /// `Ȳ_{k−1}`, which Eq. 7 regresses towards; `None` until a first
    /// occasion gave the class a value.
    prev_estimate: Option<f64>,
    prev_variance: Option<f64>,
    rho_hat: Option<f64>,
    sigma_hat: Option<f64>,
    /// Share of the panel's fresh entries that answer this class: 1 for a
    /// lone question, its selectivity beside a trivial predicate. Turns
    /// the class's Eq. 10 requirement into panel entries.
    share: Selectivity,
    last_forward_correction: Option<ForwardCorrection>,
    answer: ClassAnswer,
}

impl Class {
    fn new((expr, predicate): Question<'_>) -> Self {
        Self {
            expr: expr.clone(),
            predicate: predicate.clone(),
            prev_estimate: None,
            prev_variance: None,
            rho_hat: None,
            sigma_hat: None,
            share: Selectivity::default(),
            last_forward_correction: None,
            answer: ClassAnswer::default(),
        }
    }

    fn asks(&self, (expr, predicate): Question<'_>) -> bool {
        self.expr == *expr && self.predicate == *predicate
    }

    /// Folds one occasion's sample (Eq. 7) and refreshes the EMAs.
    /// `admitted` is how many fresh entries joined the panel, `pooled` a
    /// scratch buffer, `occasion` the estimator's occasion count.
    fn observe(
        &mut self,
        answers: &Answers,
        admitted: usize,
        forward_correction: bool,
        occasion: u64,
        pooled: &mut Vec<f64>,
    ) -> Result<()> {
        let Some(prev_estimate) = self.prev_estimate else {
            return Err(CoreError::InvalidConfig {
                reason: "repeated estimator reached occasion k >= 2 without a first occasion",
            });
        };
        let g_live = answers.cur.len();
        let qualifying = (g_live + answers.fresh.len()) as u64;
        let fresh_qualifying = (answers.fresh.len() - answers.unpaired) as u64;
        self.share.update(fresh_qualifying as f64, admitted as f64);
        self.last_forward_correction = None;
        if qualifying == 0 {
            self.answer = ClassAnswer {
                estimate: prev_estimate,
                variance: self.prev_variance.unwrap_or(0.0),
                ..ClassAnswer::default()
            };
            return Ok(());
        }

        // Combined estimate (Eq. 7). With too few retained pairs the
        // regression coefficient is noise — fall back to treating the
        // retained current values as plain (fresh-like) observations.
        // (No per-occasion variance top-up: the paper sizes once per
        // occasion, and re-drawing on a noisy variance estimate would
        // systematically inflate the panel.)
        let use_regression = g_live >= MIN_RETAINED_PAIRS;
        let combined = if use_regression {
            combined_estimate(&answers.fresh, &answers.prev, &answers.cur, prev_estimate)?
        } else {
            pooled.clear();
            pooled.extend_from_slice(&answers.fresh);
            pooled.extend_from_slice(&answers.cur);
            combined_estimate(pooled, &[], &[], prev_estimate)?
        };

        // Refresh cross-occasion state (EMA on σ̂² — see SIGMA_SMOOTHING).
        let old_s2 = self.sigma_hat.map_or(combined.sigma2_hat, |s| s * s);
        let smoothed_s2 = old_s2 + SIGMA_SMOOTHING * (combined.sigma2_hat - old_s2);
        self.sigma_hat = Some(smoothed_s2.sqrt().max(1e-12));
        if use_regression {
            let observed = combined.rho_hat;
            let smoothed = match self.rho_hat {
                None => observed,
                Some(old) => old + RHO_SMOOTHING * (observed - old),
            };
            self.rho_hat = Some(smoothed.clamp(-0.999, 0.999));
        }
        // Forward regression (§VIII): retro-correct the *previous*
        // occasion's estimate using occasion k's information. Among the
        // retained pairs, regress previous values on current ones; the
        // corrected previous mean shifts the retained panel's old mean by
        // the amount occasion k's (better-informed) estimate implies.
        if forward_correction && use_regression {
            let pairs = digest_stats::PairedMoments::from_pairs(
                &answers.cur,  // x: current values
                &answers.prev, // y: previous values
            );
            let b_fwd = pairs.regression_slope();
            let retro = pairs.mean_y() + b_fwd * (combined.estimate - pairs.mean_x());
            // Inverse-variance combination with the original estimate.
            let rho2 = combined.rho_hat * combined.rho_hat;
            let var_retro = combined.sigma2_hat * (1.0 - rho2) / g_live.max(1) as f64
                + rho2 * combined.variance;
            let var_orig = self.prev_variance.unwrap_or(combined.variance).max(1e-12);
            let w_retro = 1.0 / var_retro.max(1e-12);
            let w_orig = 1.0 / var_orig;
            let corrected = (w_retro * retro + w_orig * prev_estimate) / (w_retro + w_orig);
            if corrected.is_finite() {
                self.last_forward_correction = Some(ForwardCorrection {
                    occasion: occasion.saturating_sub(1),
                    original: prev_estimate,
                    corrected,
                });
            }
        }

        self.prev_estimate = Some(combined.estimate);
        self.prev_variance = Some(combined.variance);
        self.answer = ClassAnswer {
            estimate: combined.estimate,
            variance: combined.variance,
            sigma: combined.sigma2_hat.sqrt(),
            rho: use_regression.then_some(combined.rho_hat),
            qualifying,
            fresh_qualifying,
        };
        Ok(())
    }
}

/// The repeated-sampling estimator (`RPT`, paper §IV-B2), stateful across
/// occasions: sizes the panel with Eq. 10, splits it with Eq. 9, and
/// combines with Eq. 7 once per question class.
#[derive(Debug, Clone)]
pub struct RepeatedEstimator {
    config: RptConfig,
    /// The first occasion's estimator: independent sampling that keeps
    /// its draws as the panel.
    indep: IndependentEstimator,
    panel: SamplePanel,
    /// In the order the questions were last asked.
    classes: Vec<Class>,
    occasions_evaluated: u64,
    /// Scratch of the occasion in progress, kept for its buffers: the
    /// revisit of the retained part (whose `survivors`, with the fresh
    /// entries pushed behind them, become the next panel) …
    revisit: RevisitReport,
    /// … and Eq. 7's pooled values when it falls back to a plain mean.
    pooled: Vec<f64>,
}

impl RepeatedEstimator {
    /// Creates an estimator.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] for out-of-range settings.
    pub fn new(config: RptConfig) -> Result<Self> {
        let indep = IndependentEstimator::new(config.pilot_size, config.max_samples, true)?;
        Ok(Self {
            config,
            indep,
            panel: SamplePanel::new(),
            classes: Vec::new(),
            occasions_evaluated: 0,
            revisit: RevisitReport::default(),
            pooled: Vec::new(),
        })
    }

    /// The retro-correction produced by the most recent occasion, when
    /// forward regression is enabled and enough retained pairs survived
    /// (§VIII; the first question class's).
    #[must_use]
    pub fn last_forward_correction(&self) -> Option<ForwardCorrection> {
        self.classes.first()?.last_forward_correction
    }

    /// The current correlation estimate `ρ̂` (Eq. 9; None before the
    /// second occasion; the first question class's).
    #[must_use]
    pub fn rho_hat(&self) -> Option<f64> {
        self.classes.first()?.rho_hat
    }

    /// Current panel size (§IV-B2).
    #[must_use]
    pub fn panel_len(&self) -> usize {
        self.panel.len()
    }

    /// Forgets all cross-occasion state (§IV-B2; used after a detected
    /// regime change).
    pub fn reset(&mut self) {
        self.panel.clear();
        self.classes.clear();
    }

    /// Evaluates one snapshot occasion of one question under one
    /// contract (§IV-B2).
    ///
    /// # Errors
    ///
    /// Sampling/database errors (e.g. an empty relation).
    pub fn evaluate(
        &mut self,
        ctx: &TickContext<'_>,
        expr: &Expr,
        predicate: &Predicate,
        precision: &Precision,
        operator: &mut SamplingOperator,
        rng: &mut dyn RngCore,
    ) -> Result<SnapshotEstimate> {
        let question = [(expr, predicate)];
        if !self.align(&question) {
            return self.first_occasion(ctx, expr, predicate, precision, operator, rng);
        }
        let occasion = self.occasion(ctx, &question, [(0, precision)], operator, rng)?;
        let answer = self.answer(0);
        if digest_telemetry::events_enabled() {
            let [walk, report, revisit, lost, peers] = occasion.messages.fields();
            let fields = [
                ("estimator", Field::Str("RPT")),
                ("estimate", Field::F64(answer.estimate)),
                ("fresh", Field::U64(occasion.fresh)),
                ("retained", Field::U64(occasion.revisited)),
                ("retained_fraction", Field::F64(occasion.retained_fraction)),
                walk,
                report,
                revisit,
                lost,
                peers,
                ("rho", Field::F64(answer.rho.unwrap_or(f64::NAN))),
            ];
            // `rho` only when there was one.
            let len = fields.len() - usize::from(answer.rho.is_none());
            digest_telemetry::emit("estimator.snapshot", &fields[..len]);
        }
        Ok(SnapshotEstimate {
            estimate: answer.estimate,
            fresh_samples: occasion.fresh,
            revisited_samples: occasion.revisited,
            messages: occasion.messages.total(),
            sigma_hat: answer.sigma,
            rho_hat: answer.rho,
            estimator_variance: answer.variance,
            qualifying_samples: answer.qualifying,
            selectivity: if occasion.fresh == 0 {
                1.0
            } else {
                answer.fresh_qualifying as f64 / occasion.fresh as f64
            },
            panel_for_next: SamplePanel::new(),
        })
    }

    /// Occasion 1 (and recovery after reset): independent sampling that
    /// builds the initial panel.
    fn first_occasion(
        &mut self,
        ctx: &TickContext<'_>,
        expr: &Expr,
        predicate: &Predicate,
        precision: &Precision,
        operator: &mut SamplingOperator,
        rng: &mut dyn RngCore,
    ) -> Result<SnapshotEstimate> {
        let mut result = self
            .indep
            .evaluate(ctx, expr, predicate, precision, operator, rng)?;
        let first = (result.estimate, result.estimator_variance, result.sigma_hat);
        self.seed(&mut result.panel_for_next, [Some(first)]);
        Ok(result)
    }

    /// Lines the question classes up with `questions` (§IV-B2): a class
    /// keeps its history while some member asks its question, a question
    /// nobody asked before starts without one, and a class nobody asks
    /// any more is forgotten. (A question asked twice — the mux's
    /// per-member reference does that — gets a copy of the first one's
    /// class.) Returns whether the occasion can be a repeated one: every
    /// class has history and the panel has entries to revisit; otherwise
    /// it is a first occasion, whose draws [`RepeatedEstimator::seed`]
    /// the panel.
    pub(crate) fn align(&mut self, questions: &[Question<'_>]) -> bool {
        let unchanged = self.classes.len() == questions.len()
            && self.classes.iter().zip(questions).all(|(c, &q)| c.asks(q));
        if !unchanged {
            let mut old: Vec<Option<Class>> = std::mem::take(&mut self.classes)
                .into_iter()
                .map(Some)
                .collect();
            let mut from = Vec::with_capacity(questions.len());
            self.classes.reserve_exact(questions.len());
            for &question in questions {
                let kept = old
                    .iter_mut()
                    .enumerate()
                    .find(|(_, c)| c.as_ref().is_some_and(|c| c.asks(question)));
                let (source, class) = match kept {
                    Some((j, class)) => (Some(j), class.take()),
                    None => match self.classes.iter().position(|c| c.asks(question)) {
                        Some(i) => (from.get(i).copied().flatten(), self.classes.get(i).cloned()),
                        None => (None, None),
                    },
                };
                from.push(source);
                self.classes
                    .push(class.unwrap_or_else(|| Class::new(question)));
            }
            self.panel.remap(&from);
        }
        !self.panel.is_empty() && self.classes.iter().all(|c| c.prev_estimate.is_some())
    }

    /// Takes a first occasion's draws as the panel (§IV-B2: occasion 1 is
    /// independent sampling) — `panel` is left empty — and each class's
    /// `(estimate, its variance, σ̂)` from it, in class order; a class
    /// nothing answered (`None`) keeps what it had.
    pub(crate) fn seed(
        &mut self,
        panel: &mut SamplePanel,
        firsts: impl IntoIterator<Item = Option<(f64, f64, f64)>>,
    ) {
        std::mem::swap(&mut self.panel, panel);
        panel.clear();
        for (class, first) in self.classes.iter_mut().zip(firsts) {
            if let Some((estimate, variance, sigma)) = first {
                class.prev_estimate = Some(estimate);
                class.prev_variance = Some(variance);
                class.sigma_hat = Some(sigma);
            }
        }
        self.occasions_evaluated += 1;
    }

    /// Occasion `k ≥ 2` over the classes [`RepeatedEstimator::align`]ed
    /// to `questions` (§IV-B2). `demands` are the contracts served, each
    /// as `(class, precision)`: the panel is sized at the largest of
    /// their Eq. 10 requirements — each under its class's `σ̂`, `ρ̂` and
    /// share of the panel — and split by Eq. 9 at the binding one's `ρ̂`.
    /// Each class's outcome is then [`RepeatedEstimator::answer`].
    ///
    /// # Errors
    ///
    /// Sampling/database errors (e.g. an empty relation); a demand naming
    /// no class.
    pub(crate) fn occasion<'p>(
        &mut self,
        ctx: &TickContext<'_>,
        questions: &[Question<'_>],
        demands: impl IntoIterator<Item = (usize, &'p Precision)>,
        operator: &mut SamplingOperator,
        rng: &mut dyn RngCore,
    ) -> Result<Occasion> {
        operator.begin_occasion();
        let cfg = self.config;
        let any_trivial = questions.iter().any(|(_, p)| p.is_trivial());
        let cap = draw_cap(questions, cfg.max_samples);

        // 1. Size the panel from the RPT variance formula (Eq. 10).
        let (mut n, mut rho) = (0, 0.0);
        for (class, precision) in demands {
            let Some(class) = self.classes.get(class) else {
                return Err(CoreError::InvalidConfig {
                    reason: "repeated-sampling demand names no question class",
                });
            };
            let class_rho = class.rho_hat.unwrap_or(0.0);
            let sigma = class.sigma_hat.unwrap_or(0.0).max(1e-12);
            let target_var = precision.target_variance()?;
            let need = required_panel_size(sigma * sigma, class_rho, target_var)?
                .clamp(cfg.pilot_size, cfg.max_samples);
            let draws = draws_for_deficit(need as u64, class.share.smoothed(), cap);
            if draws > n {
                (n, rho) = (draws, class_rho);
            }
        }

        // 2. Optimal partition (Eq. 9) and revisit of the retained part.
        let partition = optimal_partition(n, rho);
        let report = &mut self.revisit;
        self.panel
            .revisit(ctx.db, questions, partition.retained, report);
        let g_live = report.survivors.len();
        let mut messages = revisit_messages(report);

        // 3. Fresh draws: the replaced portion plus replacements for lost
        //    retained samples. Unless some question's predicate is
        //    trivial, draws that answer nothing are rejected (they still
        //    cost their walk).
        let fresh_needed = n.saturating_sub(g_live).max(usize::from(g_live == 0));
        let max_attempts = if any_trivial {
            fresh_needed
        } else {
            fresh_needed.saturating_mul(8).max(16)
        };
        // Rounds of batch draws through the deterministic parallel
        // executor: each round requests the remaining deficit (capped by
        // the attempt budget) in one `sample_batch`. A fresh entry goes
        // straight behind the survivors, where the next panel wants it.
        report.survivors.reserve(fresh_needed);
        for answers in &mut report.answers {
            answers.fresh.reserve(fresh_needed);
        }
        let (mut attempts, mut admitted, mut fresh_drawn) = (0usize, 0usize, 0u64);
        while admitted < fresh_needed && attempts < max_attempts {
            let want = (fresh_needed - admitted)
                .min(max_attempts.saturating_sub(attempts))
                .max(1);
            attempts += want;
            let batch = operator.sample_batch(ctx.graph, ctx.db, ctx.origin, want, rng)?;
            for (_, _, cost) in batch.iter() {
                messages.draw(cost);
            }
            admitted += admit(&batch, questions, report)?;
            fresh_drawn += batch.len() as u64;
        }

        // 4. Each class folds its sample (Eq. 7) and refreshes its EMAs.
        for (class, answers) in self.classes.iter_mut().zip(&report.answers) {
            class.observe(
                answers,
                admitted,
                cfg.forward_correction,
                self.occasions_evaluated,
                &mut self.pooled,
            )?;
        }
        self.occasions_evaluated += 1;
        std::mem::swap(&mut self.panel, &mut report.survivors);

        let retained_fraction = if n == 0 {
            0.0
        } else {
            partition.retained as f64 / n as f64
        };
        telemetry::CORE_RPT_RETAINED.add(g_live as u64);
        telemetry::CORE_RPT_FRESH.add(fresh_drawn);
        telemetry::CORE_RPT_RETAINED_FRACTION.set(retained_fraction);
        Ok(Occasion {
            revisited: g_live as u64,
            fresh: fresh_drawn,
            retained_fraction,
            messages,
        })
    }

    /// What class `class` made of the last occasion (Eq. 7).
    pub(crate) fn answer(&self, class: usize) -> ClassAnswer {
        self.classes
            .get(class)
            .map_or_else(ClassAnswer::default, |c| c.answer)
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
    use digest_db::{P2PDatabase, Schema, Tuple, TupleHandle};
    use digest_net::{topology, Graph, NodeId};
    use digest_sampling::SamplingConfig;
    use proptest::prelude::*;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    struct World {
        graph: Graph,
        db: P2PDatabase,
        handles: Vec<TupleHandle>,
        expr: Expr,
    }

    /// `nodes` complete-graph nodes, `per_node` tuples each, values
    /// N(mean, spread²)-ish via a deterministic RNG.
    fn world(nodes: u32, per_node: u32, mean: f64, spread: f64, seed: u64) -> World {
        let graph = topology::complete(nodes as usize).unwrap();
        let mut db = P2PDatabase::new(Schema::single("a"));
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut handles = Vec::new();
        for v in 0..nodes {
            db.register_node(NodeId(v));
            for _ in 0..per_node {
                let noise: f64 = rng.gen_range(-1.0..1.0) + rng.gen_range(-1.0..1.0);
                let h = db
                    .insert(NodeId(v), Tuple::single(mean + spread * noise))
                    .unwrap();
                handles.push(h);
            }
        }
        let expr = Expr::first_attr(db.schema());
        World {
            graph,
            db,
            handles,
            expr,
        }
    }

    /// AR(1)-style drift of all tuples: x ← mean + rho (x − mean) + noise.
    fn drift(world: &mut World, rho: f64, noise: f64, rng: &mut ChaCha8Rng) {
        for &h in &world.handles {
            let x = world.db.read(h).unwrap().value(0).unwrap();
            let nv = rho * x + (1.0 - rho) * 50.0 + noise * (rng.gen_range(-1.0..1.0f64));
            world.db.update(h, &[nv]).unwrap();
        }
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

    fn ctx<'a>(w: &'a World) -> TickContext<'a> {
        TickContext {
            tick: 0,
            graph: &w.graph,
            db: &w.db,
            origin: NodeId(0),
        }
    }

    #[test]
    fn config_validation() {
        assert!(RepeatedEstimator::new(RptConfig {
            pilot_size: 1,
            ..Default::default()
        })
        .is_err());
        assert!(RepeatedEstimator::new(RptConfig {
            max_samples: 5,
            ..Default::default()
        })
        .is_err());
        assert!(RepeatedEstimator::new(RptConfig::default()).is_ok());
    }

    #[test]
    fn first_occasion_builds_panel() {
        let w = world(6, 20, 50.0, 8.0, 1);
        let mut est = RepeatedEstimator::new(RptConfig::default()).unwrap();
        let mut op = operator();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let precision = Precision::new(2.0, 2.0, 0.95).unwrap();
        let r = est
            .evaluate(
                &ctx(&w),
                &w.expr,
                &Predicate::True,
                &precision,
                &mut op,
                &mut rng,
            )
            .unwrap();
        assert!(r.fresh_samples > 0);
        assert_eq!(r.revisited_samples, 0);
        assert_eq!(est.panel_len() as u64, r.fresh_samples);
        assert!(est.rho_hat().is_none());
    }

    #[test]
    fn later_occasions_revisit_and_learn_rho() {
        let mut w = world(6, 30, 50.0, 8.0, 3);
        let mut est = RepeatedEstimator::new(RptConfig::default()).unwrap();
        let mut op = operator();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let precision = Precision::new(2.0, 1.5, 0.95).unwrap();

        est.evaluate(
            &ctx(&w),
            &w.expr,
            &Predicate::True,
            &precision,
            &mut op,
            &mut rng,
        )
        .unwrap();
        // Highly autocorrelated drift.
        drift(&mut w, 0.95, 0.5, &mut rng);
        let r2 = est
            .evaluate(
                &ctx(&w),
                &w.expr,
                &Predicate::True,
                &precision,
                &mut op,
                &mut rng,
            )
            .unwrap();
        assert!(
            r2.revisited_samples > 0,
            "second occasion must retain samples"
        );
        assert!(r2.rho_hat.is_some());
        drift(&mut w, 0.95, 0.5, &mut rng);
        let r3 = est
            .evaluate(
                &ctx(&w),
                &w.expr,
                &Predicate::True,
                &precision,
                &mut op,
                &mut rng,
            )
            .unwrap();
        // With high correlation the learned rho should be high.
        assert!(
            est.rho_hat().unwrap() > 0.6,
            "learned ρ̂ = {:?} too low",
            est.rho_hat()
        );
        // And the retained portion should dominate (g_opt > n/2).
        assert!(
            r3.revisited_samples >= r3.fresh_samples,
            "retained {} < fresh {}",
            r3.revisited_samples,
            r3.fresh_samples
        );
    }

    #[test]
    fn rpt_uses_fewer_total_samples_than_indep_under_high_correlation() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let precision = Precision::new(2.0, 1.0, 0.95).unwrap();
        let occasions = 8;

        // RPT run.
        let mut w = world(6, 60, 50.0, 8.0, 6);
        let mut rpt = RepeatedEstimator::new(RptConfig::default()).unwrap();
        let mut op_rpt = operator();
        let mut rpt_total = 0u64;
        let mut rpt_first = 0u64;
        for k in 0..occasions {
            let r = rpt
                .evaluate(
                    &ctx(&w),
                    &w.expr,
                    &Predicate::True,
                    &precision,
                    &mut op_rpt,
                    &mut rng,
                )
                .unwrap();
            if k == 0 {
                rpt_first = r.total_samples();
            } else {
                rpt_total += r.total_samples();
            }
            drift(&mut w, 0.97, 0.4, &mut rng);
        }

        // INDEP run on an identically re-seeded world.
        let mut w2 = world(6, 60, 50.0, 8.0, 6);
        let indep = IndependentEstimator::default();
        let mut op_ind = operator();
        let mut ind_total = 0u64;
        let mut ind_first = 0u64;
        for k in 0..occasions {
            let r = indep
                .evaluate(
                    &ctx(&w2),
                    &w2.expr,
                    &Predicate::True,
                    &precision,
                    &mut op_ind,
                    &mut rng,
                )
                .unwrap();
            if k == 0 {
                ind_first = r.fresh_samples;
            } else {
                ind_total += r.fresh_samples;
            }
            drift(&mut w2, 0.97, 0.4, &mut rng);
        }

        // First occasions are equivalent by construction.
        let _ = (rpt_first, ind_first);
        assert!(
            (rpt_total as f64) < 0.9 * ind_total as f64,
            "RPT {rpt_total} should use notably fewer samples than INDEP {ind_total}"
        );
    }

    #[test]
    fn deleted_panel_tuples_are_replaced() {
        let mut w = world(6, 10, 50.0, 4.0, 7);
        let mut est = RepeatedEstimator::new(RptConfig::default()).unwrap();
        let mut op = operator();
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let precision = Precision::new(2.0, 2.0, 0.95).unwrap();

        est.evaluate(
            &ctx(&w),
            &w.expr,
            &Predicate::True,
            &precision,
            &mut op,
            &mut rng,
        )
        .unwrap();
        // Nuke one node's fragment entirely (node leaves).
        w.db.remove_node(NodeId(3)).unwrap();
        let r2 = est
            .evaluate(
                &ctx(&w),
                &w.expr,
                &Predicate::True,
                &precision,
                &mut op,
                &mut rng,
            )
            .unwrap();
        // No stale handle may survive into the new panel.
        assert!(r2.estimate.is_finite());
        for &h in est.panel.handles() {
            assert!(w.db.read(h).is_ok(), "stale handle in panel");
        }
    }

    /// The panel rotates: every occasion replaces its oldest entries, so
    /// after ⌈n/f⌉ + 1 occasions none of the first occasion's draws is
    /// left. (Revisiting the *first* `g` entries made them a permanent
    /// core and dropped each occasion's fresh draws instead.)
    #[test]
    fn first_occasion_draws_rotate_out() {
        let mut w = world(100, 200, 50.0, 8.0, 31);
        let mut est = RepeatedEstimator::new(RptConfig::default()).unwrap();
        let mut op = operator();
        let mut rng = ChaCha8Rng::seed_from_u64(32);
        let precision = Precision::new(2.0, 2.0, 0.95).unwrap();
        let mut occasion = |est: &mut RepeatedEstimator, w: &World, rng: &mut ChaCha8Rng| {
            est.evaluate(&ctx(w), &w.expr, &Predicate::True, &precision, &mut op, rng)
                .unwrap()
        };
        occasion(&mut est, &w, &mut rng);
        let first = est.panel.handles().to_vec();
        let (mut max_n, mut min_f) = (0, u64::MAX);
        let mut left = vec![first.len()];
        for _ in 0..10 {
            drift(&mut w, 0.7, 4.0, &mut rng);
            let r = occasion(&mut est, &w, &mut rng);
            max_n = max_n.max(r.total_samples());
            min_f = min_f.min(r.fresh_samples);
            let panel = est.panel.handles();
            left.push(panel.iter().filter(|h| first.contains(h)).count());
        }
        let occasions = max_n.div_ceil(min_f) as usize + 1;
        assert!(occasions <= left.len(), "n ≤ {max_n}, f ≥ {min_f}");
        assert_eq!(
            left[occasions - 1],
            0,
            "{left:?} (n ≤ {max_n}, f ≥ {min_f})"
        );
        assert_eq!(left.last(), Some(&0), "{left:?}");
    }

    #[test]
    fn estimates_track_the_truth() {
        let mut w = world(8, 40, 50.0, 6.0, 9);
        let mut est = RepeatedEstimator::new(RptConfig::default()).unwrap();
        let mut op = operator();
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let precision = Precision::new(2.0, 1.0, 0.95).unwrap();

        let mut hits = 0;
        let occasions = 12;
        for _ in 0..occasions {
            let r = est
                .evaluate(
                    &ctx(&w),
                    &w.expr,
                    &Predicate::True,
                    &precision,
                    &mut op,
                    &mut rng,
                )
                .unwrap();
            let truth = w.db.exact_avg(&w.expr).unwrap();
            if (r.estimate - truth).abs() <= precision.epsilon {
                hits += 1;
            }
            drift(&mut w, 0.9, 1.0, &mut rng);
        }
        assert!(hits >= occasions - 2, "only {hits}/{occasions} within ±ε");
    }

    #[test]
    fn reset_recovers_first_occasion_behaviour() {
        let w = world(5, 10, 20.0, 2.0, 11);
        let mut est = RepeatedEstimator::new(RptConfig::default()).unwrap();
        let mut op = operator();
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let precision = Precision::new(1.0, 1.0, 0.95).unwrap();
        est.evaluate(
            &ctx(&w),
            &w.expr,
            &Predicate::True,
            &precision,
            &mut op,
            &mut rng,
        )
        .unwrap();
        est.reset();
        assert_eq!(est.panel_len(), 0);
        let r = est
            .evaluate(
                &ctx(&w),
                &w.expr,
                &Predicate::True,
                &precision,
                &mut op,
                &mut rng,
            )
            .unwrap();
        assert_eq!(r.revisited_samples, 0, "post-reset occasion is independent");
    }

    #[test]
    fn forward_correction_improves_previous_estimates() {
        // Run many occasions with forward correction on; the corrected
        // retro-estimates must, on average, be at least as close to the
        // oracle truth as the originally reported ones.
        let mut w = world(6, 40, 50.0, 8.0, 21);
        let mut est = RepeatedEstimator::new(RptConfig {
            forward_correction: true,
            ..RptConfig::default()
        })
        .unwrap();
        let mut op = operator();
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let precision = Precision::new(2.0, 1.5, 0.95).unwrap();

        let mut prev_truth = 0.0;
        let mut err_original = 0.0;
        let mut err_corrected = 0.0;
        let mut corrections = 0u32;
        for k in 0..25 {
            let truth = w.db.exact_avg(&w.expr).unwrap();
            est.evaluate(
                &ctx(&w),
                &w.expr,
                &Predicate::True,
                &precision,
                &mut op,
                &mut rng,
            )
            .unwrap();
            if k > 0 {
                if let Some(c) = est.last_forward_correction() {
                    err_original += (c.original - prev_truth).abs();
                    err_corrected += (c.corrected - prev_truth).abs();
                    corrections += 1;
                }
            }
            prev_truth = truth;
            drift(&mut w, 0.95, 0.5, &mut rng);
        }
        assert!(corrections >= 20, "corrections produced: {corrections}");
        assert!(
            err_corrected <= err_original * 1.05,
            "forward correction should not hurt: corrected {err_corrected} vs original {err_original}"
        );
    }

    #[test]
    fn forward_correction_is_off_by_default() {
        let w = world(5, 10, 20.0, 2.0, 23);
        let mut est = RepeatedEstimator::new(RptConfig::default()).unwrap();
        let mut op = operator();
        let mut rng = ChaCha8Rng::seed_from_u64(24);
        let precision = Precision::new(1.0, 1.0, 0.95).unwrap();
        for _ in 0..3 {
            est.evaluate(
                &ctx(&w),
                &w.expr,
                &Predicate::True,
                &precision,
                &mut op,
                &mut rng,
            )
            .unwrap();
        }
        assert!(est.last_forward_correction().is_none());
    }

    #[test]
    fn revisit_messages_are_cheap() {
        let mut w = world(6, 40, 50.0, 8.0, 13);
        let mut est = RepeatedEstimator::new(RptConfig::default()).unwrap();
        let mut op = operator();
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let precision = Precision::new(2.0, 1.5, 0.95).unwrap();
        est.evaluate(
            &ctx(&w),
            &w.expr,
            &Predicate::True,
            &precision,
            &mut op,
            &mut rng,
        )
        .unwrap();
        drift(&mut w, 0.95, 0.5, &mut rng);
        drift(&mut w, 0.95, 0.5, &mut rng);
        let before = est.panel.handles().to_vec();
        let question = [(&w.expr, &Predicate::True)];
        assert!(est.align(&question));
        let r = est
            .occasion(&ctx(&w), &question, [(0, &precision)], &mut op, &mut rng)
            .unwrap();
        // Nothing was deleted, so the revisited entries are the newest
        // `retained` of the panel, and their owners are the peers: one
        // request and one reply each, however many entries they hold.
        let revisited = &before[before.len() - r.revisited as usize..];
        let owners: std::collections::BTreeSet<NodeId> = revisited.iter().map(|h| h.node).collect();
        assert!(owners.len() < revisited.len(), "{owners:?}");
        assert_eq!(
            (r.messages.revisit, r.messages.lost, r.messages.peers),
            (2 * owners.len() as u64, 0, owners.len() as u64)
        );
        // Messages must be far below what fresh-walking every sample costs
        // (walk_length = 40 ⇒ ≈ 20+ messages per fresh sample).
        let all_fresh_cost = (r.revisited + r.fresh) * 21;
        assert!(
            r.messages.total() < all_fresh_cost,
            "messages {} not cheaper than all-fresh {all_fresh_cost}",
            r.messages.total()
        );
    }

    /// A one-class estimator with history whose panel is `handles`, as a
    /// first occasion would leave it.
    fn seeded(w: &World, handles: &[TupleHandle]) -> RepeatedEstimator {
        let mut est = RepeatedEstimator::new(RptConfig::default()).unwrap();
        let question = (&w.expr, &Predicate::True);
        assert!(!est.align(&[question]));
        let mut panel = SamplePanel::new();
        panel.reset(1);
        for &h in handles {
            panel.stage(answer(question, w.db.read(h).unwrap()).unwrap());
            assert!(panel.commit(h));
        }
        est.seed(&mut panel, [Some((50.0, 1.0, 8.0))]);
        est
    }

    /// What the next occasion's revisit costs — `(revisit, lost)` messages
    /// — and how many entries survive it. The panel is far below the
    /// pilot, so every entry is retained.
    fn revisit_cost(w: &World, est: &mut RepeatedEstimator) -> (u64, u64, u64) {
        let question = [(&w.expr, &Predicate::True)];
        assert!(est.align(&question));
        let precision = Precision::new(2.0, 2.0, 0.95).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(40);
        let r = est
            .occasion(
                &ctx(w),
                &question,
                [(0, &precision)],
                &mut operator(),
                &mut rng,
            )
            .unwrap();
        (r.messages.revisit, r.messages.lost, r.revisited)
    }

    /// Four nodes of three tuples: `handles[3 v..3 v + 3]` live on node `v`.
    fn four_nodes() -> World {
        world(4, 3, 50.0, 8.0, 41)
    }

    #[test]
    fn two_retained_entries_on_one_node_are_one_exchange() {
        let w = four_nodes();
        let mut est = seeded(&w, &w.handles[..2]);
        assert_eq!(revisit_cost(&w, &mut est), (2, 0, 2));
    }

    #[test]
    fn a_departed_node_is_one_probe_however_many_entries_it_held() {
        let mut w = four_nodes();
        let mut est = seeded(&w, &w.handles[3..6]);
        w.db.remove_node(NodeId(1)).unwrap();
        assert_eq!(revisit_cost(&w, &mut est), (0, 1, 0));
    }

    /// The node is live, so it replies — "gone" — and that is a read, not
    /// a timed-out probe.
    #[test]
    fn a_deleted_tuple_on_a_live_node_is_an_exchange() {
        let mut w = four_nodes();
        let mut est = seeded(&w, &w.handles[3..4]);
        w.db.delete(w.handles[3]).unwrap();
        assert_eq!(revisit_cost(&w, &mut est), (2, 0, 0));
    }

    #[test]
    fn a_tuple_drawn_twice_is_one_exchange() {
        let w = four_nodes();
        let mut est = seeded(&w, &[w.handles[7], w.handles[7]]);
        assert_eq!(revisit_cost(&w, &mut est), (2, 0, 2));
    }

    /// Stores a non-finite value in one attribute of a tuple, or both:
    /// the tuple still resolves, but answers nothing by that value.
    fn poison(db: &mut P2PDatabase, handle: TupleHandle, kind: u8) {
        let row = db.read(handle).unwrap();
        let (a, b) = (row.value(0).unwrap(), row.value(1).unwrap());
        let values = match kind {
            0 => [f64::INFINITY, b],
            1 => [a, f64::NEG_INFINITY],
            2 => [f64::NAN, b],
            _ => [f64::NAN, f64::NAN],
        };
        db.update(handle, &values).unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Pricing per peer cannot change the estimate. Over random panels
        /// (repeated entries of one handle included) on random node
        /// layouts of a two-attribute relation — tuples moved out of a
        /// predicate, holding non-finite values, deleted, on departed
        /// nodes — and up to three questions (a predicate on the first
        /// attribute, a compound expression on the second), the revisit
        /// reads exactly what reading each retained entry alone reads, and
        /// a batch of fresh draws joins the panel exactly as each row
        /// answered alone would. The revisit costs one exchange per live
        /// owner and one probe per departed one, which is never more than
        /// the per-entry price (an exchange per survivor, a probe per lost
        /// entry) plus one message per live owner whose entries were all
        /// lost.
        #[test]
        fn pricing_per_peer_cannot_change_the_estimate(
            layout in prop::collection::vec(0u32..6, 1..40),
            picks in prop::collection::vec(0usize..1000, 0..30),
            repeats in 0usize..4,
            moved in prop::collection::vec(0usize..1000, 0..8),
            poisoned in prop::collection::vec((0usize..1000, 0u8..4), 0..8),
            deleted in prop::collection::vec(0usize..1000, 0..8),
            departed in prop::collection::vec(0u32..6, 0..3),
            keep in 0usize..40,
            asked in 1usize..4,
            draws in 0usize..12,
            seed in 0u64..1000,
        ) {
            let mut db = P2PDatabase::new(Schema::new(["a", "b"]));
            for v in 0..6 {
                db.register_node(NodeId(v));
            }
            let handles: Vec<TupleHandle> = layout
                .iter()
                .enumerate()
                .map(|(i, &v)| {
                    let values = vec![(i * 7 % 20) as f64, (i * 3 % 11) as f64 - 5.0];
                    db.insert(NodeId(v), Tuple::new(values)).unwrap()
                })
                .collect();
            let pick = |i: usize| handles[i % handles.len()];
            let first = Expr::first_attr(db.schema());
            let compound = Expr::parse("b * 2 - a / 4", db.schema()).unwrap();
            let high = Predicate::parse("a > 9", db.schema()).unwrap();
            let questions = [
                (&first, &high),
                (&compound, &Predicate::True),
                (&first, &Predicate::True),
            ];
            let questions = &questions[..asked];
            let mut panel = SamplePanel::new();
            panel.reset(questions.len());
            let again = picks.first().copied().into_iter().cycle().take(repeats);
            for i in picks.iter().copied().chain(again) {
                let row = db.read(pick(i)).unwrap();
                for &q in questions {
                    panel.stage(answer(q, row).unwrap());
                }
                panel.commit(pick(i));
            }
            for &i in &moved {
                let row = db.read(pick(i)).unwrap();
                let (a, b) = (row.value(0).unwrap(), row.value(1).unwrap());
                db.update(pick(i), &[(a + 10.0) % 20.0, b]).unwrap();
            }
            for &(i, kind) in &poisoned {
                poison(&mut db, pick(i), kind);
            }
            for &i in &deleted {
                db.delete(pick(i)).unwrap();
            }
            for &v in &departed {
                let _ = db.remove_node(NodeId(v));
            }
            let mut report = RevisitReport::default();
            panel.revisit(&db, questions, keep, &mut report);

            // Each retained entry read alone.
            let skip = panel.len() - keep.min(panel.len());
            let previous = panel.values().chunks_exact(questions.len()).skip(skip);
            let mut want = vec![Answers::default(); questions.len()];
            let (mut survivors, mut values, mut lost) = (Vec::new(), Vec::new(), 0);
            for (&h, prev) in panel.handles()[skip..].iter().zip(previous) {
                let row = db.read(h).ok();
                let start = values.len();
                for ((&q, &p), a) in questions.iter().zip(prev).zip(&mut want) {
                    let cur = row.and_then(|row| answer(q, row).ok().flatten());
                    values.push(cur.unwrap_or(f64::NAN).to_bits());
                    match cur {
                        Some(c) if p.is_nan() => {
                            a.fresh.push(c);
                            a.unpaired += 1;
                        }
                        Some(c) => {
                            a.prev.push(p);
                            a.cur.push(c);
                        }
                        None => {}
                    }
                }
                if values[start..].iter().any(|&v| !f64::from_bits(v).is_nan()) {
                    survivors.push(h);
                } else {
                    values.truncate(start);
                    lost += 1;
                }
            }
            let bits = |panel: &SamplePanel| -> Vec<u64> {
                panel.values().iter().map(|v| v.to_bits()).collect()
            };
            prop_assert_eq!(report.lost, lost);
            prop_assert_eq!(report.survivors.handles(), &survivors[..]);
            prop_assert_eq!(bits(&report.survivors), values.clone());
            for (got, want) in report.answers.iter().zip(&want) {
                prop_assert_eq!(
                    (&got.prev, &got.cur, &got.fresh, got.unpaired),
                    (&want.prev, &want.cur, &want.fresh, want.unpaired)
                );
            }

            let owners: std::collections::BTreeSet<NodeId> =
                panel.handles()[skip..].iter().map(|h| h.node).collect();
            let live = owners.iter().filter(|&&v| db.has_node(v)).count();
            prop_assert_eq!((report.peers, report.departed), (live, owners.len() - live));
            let m = revisit_messages(&report);
            let priced = m.revisit + m.lost;
            prop_assert_eq!(priced, 2 * live as u64 + (owners.len() - live) as u64);
            let barren = owners
                .iter()
                .filter(|&&v| db.has_node(v) && survivors.iter().all(|h| h.node != v))
                .count();
            prop_assert!(priced <= 2 * survivors.len() as u64 + lost as u64 + barren as u64);

            // The occasion's fresh draws, behind the survivors: each row
            // of the batch answered alone.
            if db.total_tuples() == 0 {
                return Ok(());
            }
            let graph = topology::complete(6).unwrap();
            let mut operator = operator();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let batch = operator
                .sample_batch(&graph, &db, NodeId(0), draws, &mut rng)
                .unwrap();
            report.survivors.reserve(draws);
            let joined = admit(&batch, questions, &mut report).unwrap();
            let mut admitted = 0;
            for (h, row, _) in batch.iter() {
                let start = values.len();
                for (&q, a) in questions.iter().zip(&mut want) {
                    let cur = answer(q, row).unwrap();
                    values.push(cur.unwrap_or(f64::NAN).to_bits());
                    a.fresh.extend(cur);
                }
                if values[start..].iter().any(|&v| !f64::from_bits(v).is_nan()) {
                    survivors.push(h);
                    admitted += 1;
                } else {
                    values.truncate(start);
                }
            }
            prop_assert_eq!(joined, admitted);
            prop_assert_eq!(report.survivors.handles(), &survivors[..]);
            prop_assert_eq!(bits(&report.survivors), values);
            for (got, want) in report.answers.iter().zip(&want) {
                prop_assert_eq!(&got.fresh, &want.fresh);
            }
        }
    }
}
