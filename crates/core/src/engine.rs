//! The Digest engine: scheduler × estimator × sampling operator for one
//! continuous query (paper §III, Figure 2).
//!
//! Per tick the engine either *holds* the running result (zero cost) or —
//! when the scheduler says the aggregate may have drifted by `δ` —
//! executes a snapshot query through its estimator, refreshes the result,
//! and asks the scheduler for the next occasion. `SUM` and `COUNT` scale
//! the sampled `AVG` by a relation-size estimate `N̂` (capture–recapture
//! over uniform node samples, refreshed periodically).
//!
//! That is exactly a shared [`crate::QueryMux`] round with one member, so
//! a [`DigestEngine`] is one: it keeps a round's machinery and its one
//! member, and ticks them through the mux's round function. One query or
//! many, Digest answers through one implementation of the draw, the hold
//! rules, the size refresh and the occasion's tail.

use crate::mux::{next_deadline, Member, MuxQueryOutcome, Round};
use crate::query::{ContinuousQuery, Precision};
use crate::rpt::RptConfig;
use crate::scheduler::{AllScheduler, PredScheduler, SnapshotScheduler};
use crate::system::{QuerySystem, TickContext, TickOutcome};
use crate::Result;
use digest_sampling::SamplingConfig;
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

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedulerKind::All => f.write_str("ALL"),
            SchedulerKind::Pred(k) => write!(f, "PRED{k}"),
        }
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

impl std::fmt::Display for EstimatorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            EstimatorKind::Independent => "INDEP",
            EstimatorKind::Repeated => "RPT",
        })
    }
}

/// Engine configuration: the scheduler × estimator pairing of paper §III,
/// Figure 2, and its tuning — each member's in a [`crate::QueryMux`].
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
    /// For `SUM`/`COUNT`: rounds between relation-size refreshes (§V-B).
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

/// The Digest query engine for one continuous query (paper §III,
/// Figure 2: scheduler + estimator + sampling operator on one node): a
/// one-member [`crate::QueryMux`] round.
pub struct DigestEngine {
    name: String,
    round: Round,
    member: Member,
}

impl std::fmt::Debug for DigestEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DigestEngine")
            .field("name", &self.name)
            .field("query", &self.member.query.to_string())
            .field("snapshots", &self.member.totals.snapshots)
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
        Self::member_of(0, query, config)
    }

    /// The engine serving `query` as member `id` of an unshared mux,
    /// named as its scheduler and estimator are (e.g. `PRED3+RPT`).
    pub(crate) fn member_of(id: u64, query: ContinuousQuery, config: EngineConfig) -> Result<Self> {
        let member = Member::new(id, query, config.scheduler)?;
        let name = match &member.sketch {
            Some(sketch) => format!("{}+{}", config.scheduler, sketch.name()),
            None => format!("{}+{}", config.scheduler, config.estimator),
        };
        Ok(Self {
            name,
            round: Round::new(config)?,
            member,
        })
    }

    pub(crate) fn member(&self) -> &Member {
        &self.member
    }

    /// The query this engine answers.
    #[must_use]
    pub fn query(&self) -> &ContinuousQuery {
        &self.member.query
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.round.config
    }

    /// The most recent relation-size estimate `N̂` (only maintained for
    /// `SUM`/`COUNT` queries).
    #[must_use]
    pub fn size_estimate(&self) -> Option<f64> {
        self.round.size.estimate()
    }

    /// One tick of the one-member round.
    pub(crate) fn tick(
        &mut self,
        ctx: &TickContext<'_>,
        rng: &mut dyn RngCore,
    ) -> Result<MuxQueryOutcome> {
        let mut outcome = self.member.idle();
        let member = std::slice::from_mut(&mut self.member);
        self.round
            .tick(member, ctx, rng, &self.name, |served| outcome = served)?;
        Ok(outcome)
    }
}

impl QuerySystem for DigestEngine {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_due(&mut self, now: u64) -> Option<u64> {
        next_deadline(std::iter::once(&self.member), now)
    }

    fn on_tick(&mut self, ctx: &TickContext<'_>, rng: &mut dyn RngCore) -> Result<TickOutcome> {
        // Keep the telemetry clock in sync even when the engine is driven
        // directly (unit tests, library embedding) rather than by a
        // tick-stamping driver.
        digest_telemetry::set_tick(ctx.tick);
        Ok(self.tick(ctx, rng)?.outcome)
    }

    fn total_messages(&self) -> u64 {
        self.member.totals.messages
    }

    fn set_sampling_workers(&mut self, workers: usize) {
        self.round.set_workers(workers);
    }

    fn total_samples(&self) -> u64 {
        self.member.totals.samples
    }

    fn total_snapshots(&self) -> u64 {
        self.member.totals.snapshots
    }

    fn oracle_truth(&self, ctx: &TickContext<'_>) -> Option<f64> {
        self.query().oracle(ctx.db)
    }

    fn trace_id(&self) -> u64 {
        self.member.trace
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
    use crate::query::{AggregateOp, Precision};
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

    /// The tick the engine's one member is next due at.
    fn due(engine: &DigestEngine) -> u64 {
        engine.member.deadline.unwrap_or(0)
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
        engine.member.scheduler = Box::new(Recording {
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
        while due(&engine) < t_u + 3 {
            if tick(&w, &mut engine, t).snapshot_executed {
                t_u = t;
            }
            t += 1;
            assert!(t < 200, "PRED-2 never skipped a tick");
        }
        let deadline = due(&engine);
        // Every value below the predicate's threshold from here on.
        drift(&mut w, -30.0);
        for t in deadline..deadline + 3 {
            let o = tick(&w, &mut engine, t);
            assert!(o.snapshot_executed && !o.updated, "tick {t}: a hold");
            assert_eq!(due(&engine), t + 1, "t_u = {t_u}, due {deadline}");
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
