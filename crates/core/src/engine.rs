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
use crate::query::{AggregateOp, ContinuousQuery, Precision};
use crate::report::{emit_snapshot, finish, scale, Report, Selectivity, SizeTracker, Snapshot};
use crate::rpt::{RepeatedEstimator, RptConfig};
use crate::scheduler::{AllScheduler, PredScheduler, SnapshotScheduler};
use crate::system::{QuerySystem, TickContext, TickOutcome};
use crate::Result;
use digest_sampling::{SamplingConfig, SamplingOperator};
use digest_telemetry::{registry as telemetry, Stage};
use rand::RngCore;

/// Which continual-querying policy to run (paper §IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Snapshot every tick (`ALL`).
    All,
    /// Polynomial extrapolation of the recent results (`PRED-k`).
    Pred(usize),
}

impl SchedulerKind {
    /// The scheduler this names, for a query under `precision`.
    pub(crate) fn build(self, precision: &Precision) -> Result<Box<dyn SnapshotScheduler + Send>> {
        Ok(match self {
            SchedulerKind::All => Box::new(AllScheduler::new()),
            SchedulerKind::Pred(k) => Box::new(PredScheduler::for_precision(k, precision)?),
        })
    }
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
    /// `N̂` for `SUM`/`COUNT` scaling.
    size: SizeTracker,

    started: bool,
    next_snapshot_tick: u64,
    /// Causal trace id of the current reporting occasion (0 before the
    /// first snapshot). Allocated from the deterministic global counter
    /// at each occasion start so every telemetry event downstream of the
    /// scheduler decision carries the same id.
    trace: u64,
    report: Report,
    selectivity: Selectivity,

    total_messages: u64,
    total_samples: u64,
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
        let scheduler = config.scheduler.build(&query.precision)?;
        let estimator = if query.op.is_sketch() {
            EstimatorImpl::Sketch(crate::sketch_est::SketchSweepEstimator::for_query(&query)?)
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
        let size = SizeTracker::new(config.sampling)?;
        let est_name = match &estimator {
            EstimatorImpl::Sketch(s) => s.name(),
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
            size,
            started: false,
            next_snapshot_tick: 0,
            trace: 0,
            report: Report::new(),
            selectivity: Selectivity::default(),
            total_messages: 0,
            total_samples: 0,
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
        self.size.estimate()
    }

    /// Executes this occasion's snapshot query through the estimator;
    /// returns how it ended and the messages it cost.
    fn evaluate(
        &mut self,
        ctx: &TickContext<'_>,
        rng: &mut dyn RngCore,
    ) -> Result<(Snapshot, u64)> {
        let query = &self.query;
        let eval_span = digest_telemetry::span(Stage::EstimatorEval);
        let evaluated = match &mut self.estimator {
            // Sketch-served kinds bypass the sampling estimators entirely:
            // one deterministic sweep over the overlay (DESIGN.md §17).
            EstimatorImpl::Sketch(est) => {
                let sweep = est.sweep(ctx.db, &query.expr, &query.predicate)?;
                return Ok((sweep.into(), sweep.messages));
            }
            EstimatorImpl::Indep(e) => e.evaluate(
                ctx,
                &query.expr,
                &query.predicate,
                &query.precision,
                &mut self.operator,
                rng,
            ),
            EstimatorImpl::Rpt(e) => e.evaluate(
                ctx,
                &query.expr,
                &query.predicate,
                &query.precision,
                &mut self.operator,
                rng,
            ),
        };
        drop(eval_span);
        let snapshot = match evaluated {
            Ok(snapshot) => snapshot,
            // A transiently empty relation (every content-bearing node
            // left at once) is a live condition, not a programming error:
            // hold the current result and retry next tick.
            Err(crate::error::CoreError::Sampling(
                digest_sampling::SamplingError::EmptyDatabase,
            )) => return Ok((Snapshot::Retry, 0)),
            Err(other) => return Err(other),
        };
        let (samples, fresh) = (snapshot.total_samples(), snapshot.fresh_samples);

        // A nontrivial predicate can transiently match nothing; hold the
        // previous result rather than reporting a meaningless mean, but
        // still count the probe (COUNT/SUM legitimately report 0).
        if snapshot.qualifying_samples == 0
            && !query.predicate.is_trivial()
            && matches!(query.op, AggregateOp::Avg)
            && self.started
        {
            return Ok((Snapshot::Hold { samples, fresh }, snapshot.messages));
        }

        let selectivity = if query.predicate.is_trivial() {
            1.0
        } else {
            self.selectivity.update(
                snapshot.selectivity * snapshot.fresh_samples as f64,
                snapshot.fresh_samples as f64,
            )
        };
        self.size.served_occasion();
        let value = scale(
            query.op,
            snapshot.estimate,
            selectivity,
            self.size.estimate(),
        );
        Ok((
            Snapshot::Value {
                value,
                samples,
                fresh,
            },
            snapshot.messages,
        ))
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
            return Ok(TickOutcome::idle(self.report.current));
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
        if matches!(self.query.op, AggregateOp::Sum | AggregateOp::Count)
            && self.size.is_stale(self.config.size_refresh_interval)
        {
            messages += self
                .size
                .refresh(ctx, self.config.size_sample_target, rng)?;
        }

        let (snapshot, cost) = self.evaluate(ctx, rng)?;
        messages += cost;
        let (outcome, delay) = finish(
            &mut self.report,
            &mut *self.scheduler,
            ctx.tick,
            self.query.precision.delta,
            snapshot,
            messages,
        )?;
        self.next_snapshot_tick = ctx.tick + delay;
        self.total_messages += messages;
        self.total_samples += outcome.samples_this_tick;
        self.total_snapshots += 1;
        if matches!(snapshot, Snapshot::Value { .. }) {
            self.started = true;
            telemetry::CORE_ENGINE_SNAPSHOTS.inc();
            telemetry::CORE_ENGINE_MESSAGES.add(messages);
            telemetry::CORE_ENGINE_SAMPLES.add(outcome.samples_this_tick);
            emit_snapshot(&self.name, &outcome);
        }
        Ok(outcome)
    }

    fn total_messages(&self) -> u64 {
        self.total_messages
    }

    fn set_sampling_workers(&mut self, workers: usize) {
        self.config.sampling.workers = workers;
        self.operator.set_workers(workers);
        self.size.set_workers(workers);
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
    use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
    use std::sync::Arc;

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

    /// Counts what the engine asks of its scheduler; every delay is 1.
    struct Recording {
        observed: Arc<AtomicU64>,
        decided: Arc<AtomicU64>,
    }

    impl SnapshotScheduler for Recording {
        fn name(&self) -> &str {
            "RECORDING"
        }

        fn observe(&mut self, _t: f64, _estimate: f64) {
            self.observed.fetch_add(1, SeqCst);
        }

        fn next_delay(&mut self, _delta: f64) -> Result<u64> {
            self.decided.fetch_add(1, SeqCst);
            Ok(1)
        }

        fn reset(&mut self) {}
    }

    /// A predicated AVG whose qualifying set empties holds its result: the
    /// held value is no measurement, so the scheduler is not fed it, but
    /// it is still asked when to probe again.
    #[test]
    fn a_held_occasion_reschedules_without_feeding_the_scheduler() {
        let mut w = world(13);
        let schema = Schema::single("a");
        let query = avg_query(2.0, 2.0)
            .with_predicate(digest_db::Predicate::parse("a > 45", &schema).unwrap());
        let mut engine = DigestEngine::new(
            query,
            EngineConfig {
                scheduler: SchedulerKind::Pred(2),
                estimator: EstimatorKind::Repeated,
                ..Default::default()
            },
        )
        .unwrap();
        let (observed, decided) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        engine.scheduler = Box::new(Recording {
            observed: Arc::clone(&observed),
            decided: Arc::clone(&decided),
        });
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let mut held = None;
        for t in 0..9 {
            // Ticks 3–5: every value below the predicate's threshold.
            match t {
                3 => drift(&mut w, -30.0),
                6 => drift(&mut w, 30.0),
                _ => {}
            }
            let ctx = TickContext {
                tick: t,
                graph: &w.graph,
                db: &w.db,
                origin: NodeId(0),
            };
            let o = engine.on_tick(&ctx, &mut rng).unwrap();
            assert!(o.snapshot_executed, "tick {t}: rescheduled every tick");
            let holding = (3..6).contains(&t);
            if holding {
                assert_eq!(o.estimate, *held.get_or_insert(o.estimate), "tick {t}");
                assert!(!o.updated, "tick {t}");
            }
            let values = if holding {
                3
            } else {
                t + 1 - 3 * u64::from(t > 5)
            };
            assert_eq!(observed.load(SeqCst), values, "tick {t}");
            assert_eq!(decided.load(SeqCst), t + 1, "tick {t}");
        }
    }

    /// The probe that finds the qualifying set empty holds at the tick its
    /// bound said `δ` could be reached, `t_u + h*`. The ticks since `t_u`
    /// count against `h*`, so the next probe comes the tick after, not
    /// `h*` ticks after; repeated holds never push it further.
    #[test]
    fn a_hold_keeps_the_probe_due_when_the_bound_said() {
        let mut w = world(13);
        let schema = Schema::single("a");
        let query = avg_query(4.0, 1.0)
            .with_predicate(digest_db::Predicate::parse("a > 45", &schema).unwrap());
        let mut engine = DigestEngine::new(
            query,
            EngineConfig {
                scheduler: SchedulerKind::Pred(2),
                estimator: EstimatorKind::Repeated,
                ..Default::default()
            },
        )
        .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(15);
        let mut tick = |w: &World, engine: &mut DigestEngine, t: u64| {
            let ctx = TickContext {
                tick: t,
                graph: &w.graph,
                db: &w.db,
                origin: NodeId(0),
            };
            engine.on_tick(&ctx, &mut rng).unwrap()
        };
        // A steady aggregate until PRED-2 skips ahead.
        let (mut t, mut t_u) = (0, 0);
        while engine.next_snapshot_tick < t_u + 3 {
            if tick(&w, &mut engine, t).snapshot_executed {
                t_u = t;
            }
            t += 1;
            assert!(t < 200, "PRED-2 never skipped a tick");
        }
        let due = engine.next_snapshot_tick;
        // Every value below the predicate's threshold from here on.
        drift(&mut w, -30.0);
        for t in due..due + 3 {
            let o = tick(&w, &mut engine, t);
            assert!(o.snapshot_executed && !o.updated, "tick {t}: a hold");
            assert_eq!(engine.next_snapshot_tick, t + 1, "t_u = {t_u}, due {due}");
        }
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
