//! The Digest engine: scheduler × estimator × sampling operator.
//!
//! Each node runs its own engine instance per continuous query (paper
//! §III, Figure 2). Per tick the engine either *holds* the running result
//! (zero cost) or — when the scheduler says the aggregate may have drifted
//! by `δ` — executes a snapshot query through its estimator, refreshes the
//! result, and asks the scheduler for the next occasion.
//!
//! `SUM` and `COUNT` scale the sampled `AVG` by a relation-size estimate
//! `N̂` obtained with the capture–recapture machinery over uniform node
//! samples (drawn by a second, uniform-weight instance of the sampling
//! operator), refreshed periodically; the extra estimator variance is the
//! price of the unstructured setting, where nobody knows `N`.

use crate::indep::IndependentEstimator;
use crate::query::{AggregateOp, ContinuousQuery};
use crate::rpt::{RepeatedEstimator, RptConfig};
use crate::scheduler::{AllScheduler, PredScheduler, SnapshotScheduler};
use crate::system::{QuerySystem, TickContext, TickOutcome};
use crate::Result;
use digest_sampling::{uniform_weight, SamplingConfig, SamplingOperator, SizeEstimator};
use digest_telemetry::{registry as telemetry, Field, Stage};
use rand::RngCore;

/// Which continual-querying policy to run (paper §IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Snapshot every tick (`ALL`).
    All,
    /// Taylor extrapolation over the last `k` results (`PRED-k`).
    Pred(usize),
}

/// Which approximate-querying policy to run (paper §IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimatorKind {
    /// Fresh CLT-sized panel every occasion (`INDEP`).
    Independent,
    /// Retained panel + regression estimation (`RPT`).
    Repeated,
}

/// Engine configuration: the scheduler × estimator pairing of paper §III,
/// Figure 2.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// The continual-querying policy.
    pub scheduler: SchedulerKind,
    /// The approximate-querying policy.
    pub estimator: EstimatorKind,
    /// Bottom-tier sampling operator tuning.
    pub sampling: SamplingConfig,
    /// Estimator tuning (pilot sizes, caps, revisit costs).
    pub rpt: RptConfig,
    /// For `SUM`/`COUNT`: snapshots between relation-size refreshes.
    pub size_refresh_interval: u64,
    /// For `SUM`/`COUNT`: uniform node samples per size estimation round.
    pub size_sample_target: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            scheduler: SchedulerKind::Pred(3),
            estimator: EstimatorKind::Repeated,
            sampling: SamplingConfig::default(),
            rpt: RptConfig::default(),
            size_refresh_interval: 10,
            size_sample_target: 256,
        }
    }
}

// One per engine and never moved once built: boxing the big variant would
// buy nothing but a heap object.
#[allow(clippy::large_enum_variant)]
enum EstimatorImpl {
    Indep(IndependentEstimator),
    Rpt(RepeatedEstimator),
    /// `MEDIAN` queries ignore the configured estimator kind: regression
    /// estimation corrects means, not order statistics.
    Quantile(crate::quantile_est::QuantileEstimator),
    /// Sketch-served kinds (`PERCENTILE`/`COUNT DISTINCT`/`TOPK`) sweep
    /// per-node mergeable sketches instead of sampling (DESIGN.md §17).
    Sketch(crate::sketch_est::SketchSweepEstimator),
}

/// The Digest query engine for one continuous query (paper §III,
/// Figure 2: scheduler + estimator + sampling operator on one node).
pub struct DigestEngine {
    query: ContinuousQuery,
    config: EngineConfig,
    name: String,
    scheduler: Box<dyn SnapshotScheduler + Send>,
    estimator: EstimatorImpl,
    operator: SamplingOperator,
    /// Dedicated uniform-weight operator for size estimation, so the main
    /// operator's persistent content-weighted walk is not disturbed.
    size_operator: SamplingOperator,

    started: bool,
    next_snapshot_tick: u64,
    /// Causal trace id of the current reporting occasion (0 before the
    /// first snapshot). Allocated from the deterministic global counter
    /// at each occasion start so every telemetry event downstream of the
    /// scheduler decision carries the same id.
    trace: u64,
    current_estimate: f64,
    last_reported: f64,
    size_estimate: Option<f64>,
    snapshots_since_size_refresh: u64,
    /// Exponentially decayed (qualifying, drawn) fresh-sample counts for a
    /// stable selectivity estimate across occasions — one occasion's few
    /// fresh draws are far too noisy to scale COUNT/SUM by.
    selectivity_counts: (f64, f64),

    total_messages: u64,
    total_samples: u64,
    total_fresh_samples: u64,
    total_snapshots: u64,
}

impl std::fmt::Debug for DigestEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DigestEngine")
            .field("name", &self.name)
            .field("query", &self.query.to_string())
            .field("snapshots", &self.total_snapshots)
            .finish_non_exhaustive()
    }
}

impl DigestEngine {
    /// Builds an engine for `query`.
    ///
    /// # Errors
    ///
    /// [`crate::CoreError::InvalidConfig`] for invalid scheduler/
    /// estimator/sampling settings.
    pub fn new(query: ContinuousQuery, config: EngineConfig) -> Result<Self> {
        let scheduler: Box<dyn SnapshotScheduler + Send> = match config.scheduler {
            SchedulerKind::All => Box::new(AllScheduler::new()),
            SchedulerKind::Pred(k) => Box::new(PredScheduler::new(k)?),
        };
        let estimator = if query.op.is_sketch() {
            EstimatorImpl::Sketch(crate::sketch_est::SketchSweepEstimator::for_query(&query)?)
        } else if matches!(query.op, AggregateOp::Median) {
            EstimatorImpl::Quantile(crate::quantile_est::QuantileEstimator::new(
                0.5,
                config.rpt.pilot_size.max(2),
                config.rpt.max_samples,
            )?)
        } else {
            match config.estimator {
                EstimatorKind::Independent => EstimatorImpl::Indep(IndependentEstimator::new(
                    config.rpt.pilot_size,
                    config.rpt.max_samples,
                    false,
                )?),
                EstimatorKind::Repeated => EstimatorImpl::Rpt(RepeatedEstimator::new(config.rpt)?),
            }
        };
        let operator = SamplingOperator::new(config.sampling)?;
        // Size estimation targets the *uniform* node distribution, which
        // the Metropolis walk reaches more slowly than the content-biased
        // one on skewed topologies — and capture–recapture is biased (it
        // over-counts collisions, under-estimating N̂) if the walks are
        // under-mixed. Give the size walks 4× the budget.
        let size_operator = SamplingOperator::new(SamplingConfig {
            walk_length: config.sampling.walk_length.saturating_mul(4),
            reset_length: config.sampling.reset_length.saturating_mul(2),
            ..config.sampling
        })?;
        let est_name = match &estimator {
            EstimatorImpl::Sketch(s) => s.name(),
            EstimatorImpl::Quantile(_) => "QUANTILE",
            EstimatorImpl::Indep(_) => "INDEP",
            EstimatorImpl::Rpt(_) => "RPT",
        };
        let name = format!("{}+{}", scheduler.name(), est_name);
        Ok(Self {
            query,
            config,
            name,
            scheduler,
            estimator,
            operator,
            size_operator,
            started: false,
            next_snapshot_tick: 0,
            trace: 0,
            current_estimate: 0.0,
            last_reported: f64::NAN,
            size_estimate: None,
            snapshots_since_size_refresh: 0,
            selectivity_counts: (0.0, 0.0),
            total_messages: 0,
            total_samples: 0,
            total_fresh_samples: 0,
            total_snapshots: 0,
        })
    }

    /// The query this engine answers.
    #[must_use]
    pub fn query(&self) -> &ContinuousQuery {
        &self.query
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The most recent relation-size estimate `N̂` (only maintained for
    /// `SUM`/`COUNT` queries).
    #[must_use]
    pub fn size_estimate(&self) -> Option<f64> {
        self.size_estimate
    }

    /// Runs one size-estimation round: uniform node samples until the
    /// capture–recapture estimator stabilises or the sample budget is
    /// spent. Returns messages used.
    fn refresh_size_estimate(
        &mut self,
        ctx: &TickContext<'_>,
        rng: &mut dyn RngCore,
    ) -> Result<u64> {
        let _span = digest_telemetry::span(Stage::SizeEstimate);
        telemetry::CORE_SIZE_REFRESHES.inc();
        let mut est = SizeEstimator::new();
        let mut messages = 0u64;
        let w = uniform_weight();
        self.size_operator.begin_occasion();
        for _ in 0..self.config.size_sample_target {
            let (node, cost) = self
                .size_operator
                .sample_node(ctx.graph, &w, ctx.origin, rng)?;
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
            self.size_estimate = Some(match self.size_estimate {
                Some(old) => old + 0.5 * (n_hat - old),
                None => n_hat,
            });
        } else if self.size_estimate.is_none() {
            // Too few collisions (network larger than the budget can
            // resolve): fall back to distinct·mean as a floor estimate.
            let mean_content = if est.samples() > 0 {
                est.distinct() as f64
            } else {
                0.0
            };
            self.size_estimate = Some(mean_content.max(1.0));
        }
        self.snapshots_since_size_refresh = 0;
        Ok(messages)
    }

    /// Scales the sampled AVG into the query's aggregate.
    /// Folds one occasion's fresh-draw counts into the decayed selectivity
    /// tally and returns the smoothed selectivity.
    fn update_selectivity(&mut self, qualifying: f64, drawn: f64) -> f64 {
        const DECAY: f64 = 0.75;
        let (q, d) = self.selectivity_counts;
        self.selectivity_counts = (q * DECAY + qualifying, d * DECAY + drawn);
        let (q, d) = self.selectivity_counts;
        if d > 0.0 {
            q / d
        } else {
            1.0
        }
    }

    /// Scales the sampled qualifying-AVG into the query's aggregate.
    /// With a `WHERE` predicate, `SUM`/`COUNT` additionally scale by the
    /// measured selectivity: the qualifying population is `N̂ · sel`.
    fn scale(&self, avg: f64, selectivity: f64) -> f64 {
        match self.query.op {
            // Sketch kinds finalize to their scalar directly — no
            // scaling by N̂ (DESIGN.md §17).
            AggregateOp::Avg
            | AggregateOp::Median
            | AggregateOp::Percentile { .. }
            | AggregateOp::Distinct
            | AggregateOp::TopK { .. } => avg,
            AggregateOp::Sum => avg * selectivity * self.size_estimate.unwrap_or(0.0),
            AggregateOp::Count => selectivity * self.size_estimate.unwrap_or(0.0),
        }
    }
}

impl QuerySystem for DigestEngine {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_due(&mut self, now: u64) -> Option<u64> {
        // Before the first snapshot the engine fires on its next tick
        // (dense); afterwards every tick below `next_snapshot_tick` is
        // the idle early-return in `on_tick` — no samples, no RNG — so
        // the event-driven runner may jump straight to the deadline.
        if self.started && self.next_snapshot_tick > now {
            Some(self.next_snapshot_tick)
        } else {
            None
        }
    }

    fn on_tick(&mut self, ctx: &TickContext<'_>, rng: &mut dyn RngCore) -> Result<TickOutcome> {
        // Keep the telemetry clock in sync even when the engine is driven
        // directly (unit tests, library embedding) rather than by a
        // tick-stamping driver.
        digest_telemetry::set_tick(ctx.tick);
        if self.started && ctx.tick < self.next_snapshot_tick {
            return Ok(TickOutcome::idle(self.current_estimate));
        }

        // --- Execute a snapshot query. ---
        // A new reporting occasion begins: allocate its causal trace id so
        // every event from the scheduler decision through snapshot, walk
        // batches, estimate, and report carries the same envelope. The
        // counter is bumped in deterministic engine order regardless of
        // telemetry enablement or worker count, so tracing never perturbs
        // a replay.
        self.trace = digest_telemetry::begin_trace();
        let _tick_span = digest_telemetry::span(Stage::EngineTick);
        let mut messages = 0u64;

        // Relation size, if the aggregate needs it. Sketch sweeps never
        // do: their scalar needs no N̂ scaling (DESIGN.md §17), and a
        // capture–recapture round would cost messages and RNG draws for
        // nothing.
        if !matches!(self.query.op, AggregateOp::Avg)
            && !self.query.op.is_sketch()
            && (self.size_estimate.is_none()
                || self.snapshots_since_size_refresh >= self.config.size_refresh_interval)
        {
            messages += self.refresh_size_estimate(ctx, rng)?;
        }

        // Sketch-served kinds bypass the sampling estimators entirely:
        // one deterministic sweep over the overlay (DESIGN.md §17).
        if let EstimatorImpl::Sketch(est) = &mut self.estimator {
            let eval_span = digest_telemetry::span(Stage::EstimatorEval);
            let sweep = est.sweep(ctx.db, &self.query.expr, &self.query.predicate)?;
            drop(eval_span);
            messages += sweep.messages;
            let Some(scaled) = sweep.estimate else {
                // Nothing qualified (e.g. quantile over an empty set):
                // hold the current result and retry next tick.
                self.next_snapshot_tick = ctx.tick + 1;
                self.total_messages += messages;
                self.total_snapshots += 1;
                return Ok(TickOutcome {
                    estimate: self.current_estimate,
                    updated: false,
                    snapshot_executed: true,
                    samples_this_tick: 0,
                    fresh_samples_this_tick: 0,
                    messages_this_tick: messages,
                });
            };
            self.current_estimate = scaled;
            self.started = true;
            let updated = self.last_reported.is_nan()
                || (scaled - self.last_reported).abs() >= self.query.precision.delta;
            if updated {
                self.last_reported = scaled;
            }
            self.scheduler.observe(ctx.tick as f64, scaled);
            let delay = {
                let _span = digest_telemetry::span(Stage::SchedulerDecide);
                self.scheduler.next_delay(self.query.precision.delta)?
            };
            self.next_snapshot_tick = ctx.tick + delay;
            self.total_messages += messages;
            self.total_samples += sweep.qualifying;
            self.total_fresh_samples += sweep.fresh_nodes;
            self.total_snapshots += 1;
            telemetry::CORE_ENGINE_SNAPSHOTS.inc();
            telemetry::CORE_ENGINE_MESSAGES.add(messages);
            telemetry::CORE_ENGINE_SAMPLES.add(sweep.qualifying);
            if digest_telemetry::events_enabled() {
                digest_telemetry::emit(
                    "engine.snapshot",
                    &[
                        ("system", Field::Str(&self.name)),
                        ("estimate", Field::F64(scaled)),
                        ("messages", Field::U64(messages)),
                        ("samples", Field::U64(sweep.qualifying)),
                    ],
                );
            }
            return Ok(TickOutcome {
                estimate: scaled,
                updated,
                snapshot_executed: true,
                samples_this_tick: sweep.qualifying,
                fresh_samples_this_tick: sweep.fresh_nodes,
                messages_this_tick: messages,
            });
        }

        let eval_span = digest_telemetry::span(Stage::EstimatorEval);
        let evaluated = match &mut self.estimator {
            EstimatorImpl::Indep(e) => e.evaluate(
                ctx,
                &self.query.expr,
                &self.query.predicate,
                &self.query.precision,
                &mut self.operator,
                rng,
            ),
            EstimatorImpl::Rpt(e) => e.evaluate(
                ctx,
                &self.query.expr,
                &self.query.predicate,
                &self.query.precision,
                &mut self.operator,
                rng,
            ),
            EstimatorImpl::Quantile(e) => e.evaluate(
                ctx,
                &self.query.expr,
                &self.query.predicate,
                &self.query.precision,
                &mut self.operator,
                rng,
            ),
            // Handled by the early-return sweep path above.
            EstimatorImpl::Sketch(_) => Err(crate::error::CoreError::InvalidConfig {
                reason: "sketch estimators take the sweep path",
            }),
        };
        drop(eval_span);
        let snapshot = match evaluated {
            Ok(snapshot) => snapshot,
            // A transiently empty relation (every content-bearing node
            // left at once) is a live condition, not a programming error:
            // hold the current result and retry next tick.
            Err(crate::error::CoreError::Sampling(
                digest_sampling::SamplingError::EmptyDatabase,
            )) => {
                self.next_snapshot_tick = ctx.tick + 1;
                self.total_messages += messages;
                self.total_snapshots += 1;
                return Ok(TickOutcome {
                    estimate: self.current_estimate,
                    updated: false,
                    snapshot_executed: true,
                    samples_this_tick: 0,
                    fresh_samples_this_tick: 0,
                    messages_this_tick: messages,
                });
            }
            Err(other) => return Err(other),
        };
        messages += snapshot.messages;

        // A nontrivial predicate can transiently match nothing; hold the
        // previous result rather than reporting a meaningless mean, but
        // still count the probe (COUNT/SUM legitimately report 0).
        if snapshot.qualifying_samples == 0
            && !self.query.predicate.is_trivial()
            && matches!(self.query.op, AggregateOp::Avg)
            && self.started
        {
            self.scheduler
                .observe(ctx.tick as f64, self.current_estimate);
            let delay = self.scheduler.next_delay(self.query.precision.delta)?;
            self.next_snapshot_tick = ctx.tick + delay;
            self.total_messages += messages;
            self.total_samples += snapshot.total_samples();
            self.total_fresh_samples += snapshot.fresh_samples;
            self.total_snapshots += 1;
            return Ok(TickOutcome {
                estimate: self.current_estimate,
                updated: false,
                snapshot_executed: true,
                samples_this_tick: snapshot.total_samples(),
                fresh_samples_this_tick: snapshot.fresh_samples,
                messages_this_tick: messages,
            });
        }

        let selectivity = if self.query.predicate.is_trivial() {
            1.0
        } else {
            self.update_selectivity(
                snapshot.selectivity * snapshot.fresh_samples as f64,
                snapshot.fresh_samples as f64,
            )
        };
        let scaled = self.scale(snapshot.estimate, selectivity);
        self.current_estimate = scaled;
        self.started = true;
        self.snapshots_since_size_refresh += 1;

        // δ-semantics: the user-visible result updates only when the
        // aggregate moved at least δ since the last reported update.
        let updated = self.last_reported.is_nan()
            || (scaled - self.last_reported).abs() >= self.query.precision.delta;
        if updated {
            self.last_reported = scaled;
        }

        // Schedule the next occasion.
        self.scheduler.observe(ctx.tick as f64, scaled);
        let delay = {
            let _span = digest_telemetry::span(Stage::SchedulerDecide);
            self.scheduler.next_delay(self.query.precision.delta)?
        };
        self.next_snapshot_tick = ctx.tick + delay;

        let samples = snapshot.total_samples();
        self.total_messages += messages;
        self.total_samples += samples;
        self.total_fresh_samples += snapshot.fresh_samples;
        self.total_snapshots += 1;

        telemetry::CORE_ENGINE_SNAPSHOTS.inc();
        telemetry::CORE_ENGINE_MESSAGES.add(messages);
        telemetry::CORE_ENGINE_SAMPLES.add(samples);
        if digest_telemetry::events_enabled() {
            digest_telemetry::emit(
                "engine.snapshot",
                &[
                    ("system", Field::Str(&self.name)),
                    ("estimate", Field::F64(scaled)),
                    ("messages", Field::U64(messages)),
                    ("samples", Field::U64(samples)),
                ],
            );
        }

        Ok(TickOutcome {
            estimate: scaled,
            updated,
            snapshot_executed: true,
            samples_this_tick: samples,
            fresh_samples_this_tick: snapshot.fresh_samples,
            messages_this_tick: messages,
        })
    }

    fn total_messages(&self) -> u64 {
        self.total_messages
    }

    fn set_sampling_workers(&mut self, workers: usize) {
        self.config.sampling.workers = workers;
        self.operator.set_workers(workers);
        self.size_operator.set_workers(workers);
    }

    fn total_samples(&self) -> u64 {
        self.total_samples
    }

    fn total_snapshots(&self) -> u64 {
        self.total_snapshots
    }

    fn oracle_truth(&self, ctx: &TickContext<'_>) -> Option<f64> {
        self.query.oracle(ctx.db)
    }

    fn trace_id(&self) -> u64 {
        self.trace
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
    use crate::query::Precision;
    use digest_db::{Expr, P2PDatabase, Schema, Tuple, TupleHandle};
    use digest_net::{topology, Graph, NodeId};
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    struct World {
        graph: Graph,
        db: P2PDatabase,
        handles: Vec<TupleHandle>,
    }

    fn world(seed: u64) -> World {
        let graph = topology::complete(8).unwrap();
        let mut db = P2PDatabase::new(Schema::single("a"));
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut handles = Vec::new();
        for v in 0..8 {
            db.register_node(NodeId(v));
            for _ in 0..25 {
                let value = 50.0 + rng.gen_range(-8.0..8.0);
                handles.push(db.insert(NodeId(v), Tuple::single(value)).unwrap());
            }
        }
        World { graph, db, handles }
    }

    fn avg_query(delta: f64, eps: f64) -> ContinuousQuery {
        let schema = Schema::single("a");
        ContinuousQuery::avg(
            Expr::first_attr(&schema),
            Precision::new(delta, eps, 0.95).unwrap(),
        )
    }

    fn drift(w: &mut World, shift: f64) {
        for &h in &w.handles {
            let x = w.db.read(h).unwrap().value(0).unwrap();
            w.db.update(h, &[x + shift]).unwrap();
        }
    }

    #[test]
    fn engine_name_reflects_configuration() {
        let q = avg_query(2.0, 2.0);
        let e = DigestEngine::new(
            q.clone(),
            EngineConfig {
                scheduler: SchedulerKind::Pred(3),
                estimator: EstimatorKind::Repeated,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(e.name(), "PRED3+RPT");
        let e = DigestEngine::new(
            q,
            EngineConfig {
                scheduler: SchedulerKind::All,
                estimator: EstimatorKind::Independent,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(e.name(), "ALL+INDEP");
    }

    #[test]
    fn all_scheduler_snapshots_every_tick() {
        let w = world(1);
        let mut engine = DigestEngine::new(
            avg_query(2.0, 2.0),
            EngineConfig {
                scheduler: SchedulerKind::All,
                estimator: EstimatorKind::Independent,
                ..Default::default()
            },
        )
        .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for t in 0..5 {
            let ctx = TickContext {
                tick: t,
                graph: &w.graph,
                db: &w.db,
                origin: NodeId(0),
            };
            let o = engine.on_tick(&ctx, &mut rng).unwrap();
            assert!(o.snapshot_executed, "tick {t}");
        }
        assert_eq!(engine.total_snapshots(), 5);
    }

    #[test]
    fn pred_scheduler_skips_ticks_on_steady_aggregate() {
        let w = world(3);
        let mut engine = DigestEngine::new(
            avg_query(4.0, 1.0),
            EngineConfig {
                scheduler: SchedulerKind::Pred(3),
                estimator: EstimatorKind::Repeated,
                ..Default::default()
            },
        )
        .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut snapshots = 0;
        let ticks = 40;
        for t in 0..ticks {
            let ctx = TickContext {
                tick: t,
                graph: &w.graph,
                db: &w.db,
                origin: NodeId(0),
            };
            if engine.on_tick(&ctx, &mut rng).unwrap().snapshot_executed {
                snapshots += 1;
            }
        }
        assert!(
            snapshots < ticks / 2,
            "steady aggregate should skip most ticks: {snapshots}/{ticks}"
        );
    }

    #[test]
    fn estimate_tracks_truth_and_updates_on_delta() {
        let mut w = world(5);
        let mut engine = DigestEngine::new(
            avg_query(3.0, 1.0),
            EngineConfig {
                scheduler: SchedulerKind::All,
                estimator: EstimatorKind::Repeated,
                ..Default::default()
            },
        )
        .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let expr = Expr::first_attr(w.db.schema());

        // First few ticks: steady.
        let mut updates = 0;
        for t in 0..3 {
            let ctx = TickContext {
                tick: t,
                graph: &w.graph,
                db: &w.db,
                origin: NodeId(0),
            };
            let o = engine.on_tick(&ctx, &mut rng).unwrap();
            if o.updated {
                updates += 1;
            }
            let truth = w.db.exact_avg(&expr).unwrap();
            assert!(
                (o.estimate - truth).abs() < 1.5,
                "estimate off: {} vs {truth}",
                o.estimate
            );
        }
        assert_eq!(updates, 1, "only the initial report before any drift");

        // Shift everything by 2δ: the next snapshot must report an update.
        drift(&mut w, 6.0);
        let ctx = TickContext {
            tick: 3,
            graph: &w.graph,
            db: &w.db,
            origin: NodeId(0),
        };
        let o = engine.on_tick(&ctx, &mut rng).unwrap();
        assert!(o.updated, "a 2δ jump must be reported");
    }

    #[test]
    fn sum_query_scales_by_size_estimate() {
        let w = world(7);
        let schema = Schema::single("a");
        let q = ContinuousQuery::new(
            AggregateOp::Sum,
            Expr::first_attr(&schema),
            Precision::new(500.0, 200.0, 0.95).unwrap(),
        );
        let mut engine = DigestEngine::new(
            q,
            EngineConfig {
                scheduler: SchedulerKind::All,
                estimator: EstimatorKind::Independent,
                size_sample_target: 2000,
                ..Default::default()
            },
        )
        .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let ctx = TickContext {
            tick: 0,
            graph: &w.graph,
            db: &w.db,
            origin: NodeId(0),
        };
        let o = engine.on_tick(&ctx, &mut rng).unwrap();
        let expr = Expr::first_attr(w.db.schema());
        let truth = w.db.exact_sum(&expr).unwrap();
        // Size estimation is rough (200 tuples, capture–recapture): accept
        // a generous band but demand the right order of magnitude.
        assert!(
            (o.estimate - truth).abs() / truth < 0.5,
            "SUM estimate {} vs truth {truth}",
            o.estimate
        );
        assert!(engine.size_estimate().is_some());
    }

    #[test]
    fn count_query_returns_size_estimate() {
        let w = world(9);
        let schema = Schema::single("a");
        let q = ContinuousQuery::new(
            AggregateOp::Count,
            Expr::first_attr(&schema),
            Precision::new(50.0, 30.0, 0.95).unwrap(),
        );
        let mut engine = DigestEngine::new(
            q,
            EngineConfig {
                scheduler: SchedulerKind::All,
                estimator: EstimatorKind::Independent,
                size_sample_target: 2000,
                ..Default::default()
            },
        )
        .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let ctx = TickContext {
            tick: 0,
            graph: &w.graph,
            db: &w.db,
            origin: NodeId(0),
        };
        let o = engine.on_tick(&ctx, &mut rng).unwrap();
        let truth = w.db.exact_count() as f64;
        assert!(
            (o.estimate - truth).abs() / truth < 0.5,
            "COUNT estimate {} vs truth {truth}",
            o.estimate
        );
    }

    #[test]
    fn idle_ticks_cost_nothing() {
        let w = world(11);
        let mut engine = DigestEngine::new(
            avg_query(8.0, 2.0),
            EngineConfig {
                scheduler: SchedulerKind::Pred(2),
                estimator: EstimatorKind::Repeated,
                ..Default::default()
            },
        )
        .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let mut idle_seen = false;
        for t in 0..20 {
            let ctx = TickContext {
                tick: t,
                graph: &w.graph,
                db: &w.db,
                origin: NodeId(0),
            };
            let o = engine.on_tick(&ctx, &mut rng).unwrap();
            if !o.snapshot_executed {
                idle_seen = true;
                assert_eq!(o.messages_this_tick, 0);
                assert_eq!(o.samples_this_tick, 0);
            }
        }
        assert!(idle_seen, "a steady run should have idle ticks");
    }
}
