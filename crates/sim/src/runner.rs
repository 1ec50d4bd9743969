//! Driving query systems over one workload.
//!
//! There is one tick loop, [`run_ticks`]: per executed tick the world
//! advances, the origin is re-elected if churn took it, and the caller's
//! per-tick body runs. After each tick the loop consults the workload's
//! [`Workload::next_activity`] and the systems' `next_due` hints and
//! jumps to the earliest due tick; with the default (dense) hints every
//! tick is due. [`run`] / [`run_observed`] (one [`QuerySystem`]) and
//! [`run_mux`] (one [`QueryMux`], one trace per member) supply only
//! their bodies, so every comparator is ticked by the same loop.

use crate::trace::{RunReport, TraceRecord};
use digest_core::{
    CoreError, MuxObserver, NoopObserver, QueryMux, QuerySystem, Result, TickContext, TickObserver,
    TickOutcome,
};
use digest_telemetry::{registry as telemetry, Field, Stage};
use digest_workload::Workload;
use rand::RngCore;
use std::collections::BTreeMap;

/// Run parameters.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Ticks to simulate (capped by the workload's duration when
    /// `respect_duration` is set).
    pub ticks: u64,
    /// Stop at the workload's own duration even if `ticks` is larger.
    pub respect_duration: bool,
    /// Worker threads for sampling-walk batches (`None` keeps the
    /// system's own setting). Results are byte-identical for every
    /// value; only wall-clock time changes.
    pub sampling_workers: Option<usize>,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            ticks: u64::MAX,
            respect_duration: true,
            sampling_workers: None,
        }
    }
}

impl RunConfig {
    /// Run for exactly `ticks` ticks (still capped by workload duration).
    #[must_use]
    pub fn for_ticks(ticks: u64) -> Self {
        Self {
            ticks,
            ..Self::default()
        }
    }

    /// The first tick not simulated.
    fn horizon<W: Workload>(&self, workload: &W) -> u64 {
        if self.respect_duration {
            self.ticks.min(workload.duration())
        } else {
            self.ticks
        }
    }
}

/// The one tick loop (§III Fig. 2: world changes, scheduler decides, `S`
/// runs). The querying node is picked as the workload's first live node
/// and re-elected if churn removes it (the paper issues queries from
/// random nodes; any live node is equivalent for counting purposes).
///
/// Per executed tick: advance the workload through `tick` (apply its
/// updates/churn), re-elect the origin if needed, then call `body` with
/// `systems`, the advanced workload and the tick's [`TickContext`].
/// The next tick is `max(tick + 1, min(workload.next_activity(),
/// next_due(systems, tick)))`, a `None` from either side meaning
/// `tick + 1`: skipped spans are ones both sides promised were pure idle
/// holds, so the executed ticks replay a dense sweep bit for bit and
/// skipped ticks simply never reach `body`. Dense workloads (the
/// default hint) never have `next_due` consulted. Only the horizon is
/// read from `config`; applying `sampling_workers` is the caller's job.
///
/// # Errors
///
/// * [`CoreError::EmptyWorkload`] if the workload's graph has no live
///   nodes (at start, or after churn drained it mid-run).
/// * Propagates any error from `body`.
pub fn run_ticks<W: Workload, S: ?Sized>(
    workload: &mut W,
    config: RunConfig,
    rng: &mut dyn RngCore,
    systems: &mut S,
    mut body: impl FnMut(&mut S, &W, &TickContext<'_>, &mut dyn RngCore) -> Result<()>,
    mut next_due: impl FnMut(&mut S, u64) -> Option<u64>,
) -> Result<()> {
    let mut origin = workload
        .graph()
        .nodes()
        .next()
        .ok_or(CoreError::EmptyWorkload)?;
    let horizon = config.horizon(workload);

    let mut tick = 0;
    while tick < horizon {
        digest_telemetry::set_tick(tick);
        telemetry::SIM_TICKS.inc();
        {
            let _span = digest_telemetry::span(Stage::WorkloadAdvance);
            // On consecutive ticks this is exactly one `advance` call;
            // after a skipped span it catches the workload up per its
            // `next_activity` contract.
            workload.advance_to(tick, rng);
        }
        if !workload.graph().contains(origin) {
            origin = workload
                .graph()
                .random_node(rng)
                .map_err(|_| CoreError::EmptyWorkload)?;
        }
        let ctx = TickContext {
            tick,
            graph: workload.graph(),
            db: workload.db(),
            origin,
        };
        body(systems, workload, &ctx, rng)?;

        tick = match workload.next_activity() {
            None => tick + 1,
            Some(active) => {
                next_due(systems, tick).map_or(tick + 1, |due| due.min(active).max(tick + 1))
            }
        };
    }
    Ok(())
}

/// Emits one answer's `tick` event (tagged with `query` for mux members)
/// and returns its trace record.
fn record_tick(tick: u64, exact: f64, outcome: &TickOutcome, query: Option<u64>) -> TraceRecord {
    if digest_telemetry::events_enabled() {
        let fields = [
            ("estimate", Field::F64(outcome.estimate)),
            ("exact", Field::F64(exact)),
            ("snapshot", Field::Bool(outcome.snapshot_executed)),
            ("samples", Field::U64(outcome.samples_this_tick)),
            ("fresh", Field::U64(outcome.fresh_samples_this_tick)),
            ("messages", Field::U64(outcome.messages_this_tick)),
            ("updated", Field::U64(u64::from(outcome.updated))),
            ("query", Field::U64(query.unwrap_or(0))),
        ];
        let used = fields.len() - usize::from(query.is_none());
        digest_telemetry::emit("tick", &fields[..used]);
    }
    TraceRecord {
        tick,
        exact,
        estimate: outcome.estimate,
        updated: outcome.updated,
        snapshot: outcome.snapshot_executed,
        samples: outcome.samples_this_tick,
        fresh_samples: outcome.fresh_samples_this_tick,
        messages: outcome.messages_this_tick,
    }
}

/// Runs `system` against `workload`, recording a per-tick trace.
///
/// Per tick, the order is: advance the workload (apply this tick's
/// updates/churn), let the system react, then record the oracle truth
/// next to the system's estimate (see [`run_ticks`]).
///
/// # Errors
///
/// As for [`run_ticks`], propagating any engine error.
pub fn run<W: Workload, S: QuerySystem + ?Sized>(
    workload: &mut W,
    system: &mut S,
    config: RunConfig,
    delta: f64,
    epsilon: f64,
    rng: &mut dyn RngCore,
) -> Result<RunReport> {
    run_observed(
        workload,
        system,
        config,
        delta,
        epsilon,
        rng,
        &mut NoopObserver,
    )
}

/// [`run`] with a [`TickObserver`] attached: the observer sees every
/// executed tick (after the system reacted, with the oracle truth)
/// without perturbing the run — it consumes no randomness and the
/// trace/report are byte-identical to an unobserved run.
///
/// # Errors
///
/// As for [`run`].
#[allow(clippy::too_many_arguments)]
pub fn run_observed<W: Workload, S: QuerySystem + ?Sized>(
    workload: &mut W,
    system: &mut S,
    config: RunConfig,
    delta: f64,
    epsilon: f64,
    rng: &mut dyn RngCore,
    observer: &mut dyn TickObserver,
) -> Result<RunReport> {
    if let Some(workers) = config.sampling_workers {
        system.set_sampling_workers(workers);
    }
    // Capacity is only a hint; a clamped value is fine on 32-bit targets.
    let capacity = usize::try_from(config.horizon(workload)).unwrap_or(0);
    let mut state = (&mut *system, observer, Vec::with_capacity(capacity));
    run_ticks(
        workload,
        config,
        rng,
        &mut state,
        |(system, observer, records), workload, ctx, rng| {
            let outcome = system.on_tick(ctx, rng)?;
            // Ground truth for the *system's* query when it can provide
            // one (COUNT/SUM/MEDIAN/WHERE); plain-AVG oracle otherwise.
            let exact = system
                .oracle_truth(ctx)
                .unwrap_or_else(|| workload.exact_aggregate());
            // Stamp this tick's remaining events (and the observer's
            // audit events) with the occasion that produced the current
            // estimate.
            digest_telemetry::set_trace(system.trace_id());
            observer.observe(ctx, &outcome, exact);
            records.push(record_tick(ctx.tick, exact, &outcome, None));
            Ok(())
        },
        |(system, ..), now| system.next_due(now),
    )?;
    let (.., records) = state;

    Ok(RunReport {
        system: system.name().to_owned(),
        workload: workload.name().to_owned(),
        records,
        delta,
        epsilon,
    })
}

/// Runs a [`QueryMux`] against `workload`, recording one per-tick trace
/// *per member query* (ascending query id). Mirrors [`run_observed`], but
/// each member gets its own oracle truth (its query's exact aggregate),
/// its own `tick` event (disambiguated by a `query` field), and its own
/// observer callback — with the coalesced round's trace id attached when
/// the member's occasion was served from a shared sampling round.
///
/// The member set must stay fixed for the duration of the run (register
/// before calling; dynamic arrival/departure workloads drive the mux
/// directly).
///
/// # Errors
///
/// As for [`run`]; additionally [`CoreError::EmptyWorkload`] if the mux
/// has no registered queries.
pub fn run_mux<W: Workload>(
    workload: &mut W,
    mux: &mut QueryMux,
    config: RunConfig,
    rng: &mut dyn RngCore,
    observer: &mut dyn MuxObserver,
) -> Result<Vec<RunReport>> {
    if mux.is_empty() {
        return Err(CoreError::EmptyWorkload);
    }
    if let Some(workers) = config.sampling_workers {
        mux.set_sampling_workers(workers);
    }

    let capacity = usize::try_from(config.horizon(workload)).unwrap_or(0);
    let ids = mux.query_ids();
    let records: BTreeMap<u64, Vec<TraceRecord>> = ids
        .iter()
        .map(|&id| (id, Vec::with_capacity(capacity)))
        .collect();

    let mut state = (&mut *mux, observer, records);
    run_ticks(
        workload,
        config,
        rng,
        &mut state,
        |(mux, observer, records), workload, ctx, rng| {
            for o in &mux.on_tick_mux(ctx, rng)? {
                // Each member's ground truth is its own query's oracle.
                let exact = mux
                    .query(o.query)
                    .and_then(|q| q.oracle(ctx.db))
                    .unwrap_or_else(|| workload.exact_aggregate());
                // Attribute the member's tick/audit events to the occasion
                // that produced its current estimate.
                digest_telemetry::set_trace(o.trace);
                observer.observe_query(o.query, ctx, &o.outcome, exact, o.round);
                let record = record_tick(ctx.tick, exact, &o.outcome, Some(o.query));
                if let Some(trace) = records.get_mut(&o.query) {
                    trace.push(record);
                }
            }
            Ok(())
        },
        |(mux, ..), now| mux.next_due(now),
    )?;
    let (.., mut records) = state;

    let workload_name = workload.name().to_owned();
    Ok(ids
        .iter()
        .filter_map(|&id| {
            let query = mux.query(id)?;
            Some(RunReport {
                system: format!("{}[q{id}]", mux.name()),
                workload: workload_name.clone(),
                records: records.remove(&id).unwrap_or_default(),
                delta: query.precision.delta,
                epsilon: query.precision.epsilon,
            })
        })
        .collect())
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
    use digest_core::{
        ContinuousQuery, DigestEngine, EngineConfig, EstimatorKind, Precision, SchedulerKind,
    };
    use digest_db::Expr;
    use digest_workload::{MemoryConfig, MemoryWorkload, TemperatureConfig, TemperatureWorkload};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn temp_workload() -> TemperatureWorkload {
        TemperatureWorkload::new(TemperatureConfig::reduced(400, 5, 8, 60))
    }

    fn avg_query(w: &impl Workload, delta: f64, epsilon: f64) -> ContinuousQuery {
        ContinuousQuery::avg(
            Expr::first_attr(w.db().schema()),
            Precision::new(delta, epsilon, 0.95).unwrap(),
        )
    }

    #[test]
    fn digest_run_produces_full_trace_and_respects_precision() {
        let mut w = temp_workload();
        let mut engine = pred_rpt_engine(w.db().schema(), 8.0, 2.0, 0.95);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let report = run(
            &mut w,
            &mut engine,
            RunConfig::for_ticks(60),
            8.0,
            2.0,
            &mut rng,
        )
        .unwrap();

        assert_eq!(report.ticks(), 60);
        assert_eq!(report.system, "PRED3+RPT");
        assert_eq!(report.workload, "TEMPERATURE");
        assert!(
            report.total_snapshots() >= 4,
            "bootstrap alone gives several"
        );
        assert!(report.total_snapshots() < 60, "PRED must skip some ticks");
        // Precision: ε-violations ≤ ~3× the nominal 5% (finite-sample
        // slack), and resolution violations rare.
        assert!(
            report.confidence_violation_rate() < 0.15,
            "ε-violations = {}",
            report.confidence_violation_rate()
        );
        assert!(
            report.resolution_violation_rate() < 0.10,
            "δ-violations = {}",
            report.resolution_violation_rate()
        );
    }

    #[test]
    fn run_caps_at_workload_duration() {
        let mut w = temp_workload(); // duration 60
        let q = avg_query(&w, 8.0, 2.0);
        let mut engine = DigestEngine::new(
            q,
            EngineConfig {
                scheduler: SchedulerKind::All,
                estimator: EstimatorKind::Independent,
                ..Default::default()
            },
        )
        .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let report = run(
            &mut w,
            &mut engine,
            RunConfig::default(),
            8.0,
            2.0,
            &mut rng,
        )
        .unwrap();
        assert_eq!(report.ticks(), 60);
    }

    #[test]
    fn run_survives_churn_taking_the_origin() {
        let mut w = MemoryWorkload::new(MemoryConfig {
            leave_prob: 0.05,
            join_rate: 2.0,
            ..MemoryConfig::reduced(80, 40, 2_000)
        });
        let q = avg_query(&w, 10.0, 3.0);
        let mut engine = DigestEngine::new(
            q,
            EngineConfig {
                scheduler: SchedulerKind::All,
                estimator: EstimatorKind::Repeated,
                ..Default::default()
            },
        )
        .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let report = run(
            &mut w,
            &mut engine,
            RunConfig::for_ticks(50),
            10.0,
            3.0,
            &mut rng,
        )
        .expect("run must survive origin churn");
        assert_eq!(report.ticks(), 50);
    }

    /// The plain dense sweep the hint-driven loop must replay: every tick
    /// executed, same per-tick call order as `run_observed`.
    fn dense_reference<W: Workload, S: QuerySystem>(
        workload: &mut W,
        system: &mut S,
        horizon: u64,
        rng: &mut dyn RngCore,
    ) -> Vec<TraceRecord> {
        let mut origin = workload.graph().nodes().next().unwrap();
        let mut records = Vec::new();
        for tick in 0..horizon {
            workload.advance_to(tick, rng);
            if !workload.graph().contains(origin) {
                origin = workload.graph().random_node(rng).unwrap();
            }
            let ctx = TickContext {
                tick,
                graph: workload.graph(),
                db: workload.db(),
                origin,
            };
            let outcome = system.on_tick(&ctx, rng).unwrap();
            let exact = system
                .oracle_truth(&ctx)
                .unwrap_or_else(|| workload.exact_aggregate());
            records.push(record_tick(tick, exact, &outcome, None));
        }
        records
    }

    /// Asserts every record of `executed` is bit-identical to `dense`'s
    /// record of the same tick.
    fn assert_matches_dense(executed: &[TraceRecord], dense: &[TraceRecord]) {
        let dense_by_tick: BTreeMap<u64, &TraceRecord> =
            dense.iter().map(|r| (r.tick, r)).collect();
        for r in executed {
            let d = dense_by_tick[&r.tick];
            assert_eq!(r.estimate.to_bits(), d.estimate.to_bits());
            assert_eq!(r.exact.to_bits(), d.exact.to_bits());
            assert_eq!(r.samples, d.samples);
            assert_eq!(r.messages, d.messages);
            assert_eq!(r.snapshot, d.snapshot);
        }
    }

    fn pred_rpt_engine(
        schema: &digest_db::Schema,
        delta: f64,
        epsilon: f64,
        p: f64,
    ) -> DigestEngine {
        DigestEngine::new(
            ContinuousQuery::avg(
                Expr::first_attr(schema),
                Precision::new(delta, epsilon, p).unwrap(),
            ),
            EngineConfig {
                scheduler: SchedulerKind::Pred(3),
                estimator: EstimatorKind::Repeated,
                ..Default::default()
            },
        )
        .unwrap()
    }

    /// On dense scenarios (default hints = every tick due) the loop must
    /// replay the plain sweep's byte stream exactly.
    #[test]
    fn event_driven_run_is_byte_identical_to_dense_run() {
        let make_engine = || pred_rpt_engine(temp_workload().db().schema(), 8.0, 2.0, 0.95);
        let dense = dense_reference(
            &mut temp_workload(),
            &mut make_engine(),
            60,
            &mut ChaCha8Rng::seed_from_u64(11),
        );
        let report = run(
            &mut temp_workload(),
            &mut make_engine(),
            RunConfig::for_ticks(60),
            8.0,
            2.0,
            &mut ChaCha8Rng::seed_from_u64(11),
        )
        .unwrap();
        assert_eq!(dense.len(), report.records.len());
        assert_matches_dense(&report.records, &dense);
    }

    /// A frozen scenario whose `next_activity` hint declares it idle
    /// forever — the sparse side of the hint contract.
    struct FrozenWorkload {
        graph: digest_net::Graph,
        db: digest_db::P2PDatabase,
        expr: Expr,
        tick: u64,
    }

    impl FrozenWorkload {
        fn new() -> Self {
            let graph = digest_net::topology::complete(8).unwrap();
            let mut db = digest_db::P2PDatabase::new(digest_db::Schema::single("a"));
            let mut rng = ChaCha8Rng::seed_from_u64(21);
            for v in 0..8u32 {
                db.register_node(digest_net::NodeId(v));
                for _ in 0..20 {
                    use rand::Rng;
                    let value: f64 = 40.0 + rng.gen_range(-5.0..5.0);
                    db.insert(digest_net::NodeId(v), digest_db::Tuple::single(value))
                        .unwrap();
                }
            }
            let expr = Expr::first_attr(db.schema());
            Self {
                graph,
                db,
                expr,
                tick: 0,
            }
        }
    }

    impl Workload for FrozenWorkload {
        fn name(&self) -> &str {
            "FROZEN"
        }
        fn graph(&self) -> &digest_net::Graph {
            &self.graph
        }
        fn db(&self) -> &digest_db::P2PDatabase {
            &self.db
        }
        fn expr(&self) -> &Expr {
            &self.expr
        }
        fn current_tick(&self) -> u64 {
            self.tick
        }
        fn duration(&self) -> u64 {
            u64::MAX
        }
        fn advance(&mut self, _rng: &mut dyn rand::RngCore) {
            self.tick += 1;
        }
        fn next_activity(&self) -> Option<u64> {
            Some(u64::MAX) // never active again
        }
        fn exact_aggregate(&self) -> f64 {
            self.db.exact_avg(&self.expr).unwrap()
        }
        fn sigma_ref(&self) -> f64 {
            3.0
        }
        fn rho_ref(&self) -> f64 {
            1.0
        }
    }

    /// With a sparse workload and a PRED engine, the loop must actually
    /// skip idle spans — fewer executed ticks than the horizon — while
    /// every executed tick matches the dense sweep bit-for-bit.
    #[test]
    fn event_driven_run_skips_idle_spans_on_sparse_workloads() {
        let make_engine = || pred_rpt_engine(&digest_db::Schema::single("a"), 16.0, 4.0, 0.9);
        const TICKS: u64 = 200;
        let dense = dense_reference(
            &mut FrozenWorkload::new(),
            &mut make_engine(),
            TICKS,
            &mut ChaCha8Rng::seed_from_u64(22),
        );
        let executed = run(
            &mut FrozenWorkload::new(),
            &mut make_engine(),
            RunConfig::for_ticks(TICKS),
            16.0,
            4.0,
            &mut ChaCha8Rng::seed_from_u64(22),
        )
        .unwrap()
        .records;
        assert_eq!(dense.len() as u64, TICKS);
        assert!(
            (executed.len() as u64) < TICKS / 2,
            "PRED on a frozen signal must skip most ticks; executed {}",
            executed.len()
        );
        assert_matches_dense(&executed, &dense);
        assert!(
            executed.iter().all(|r| r.snapshot),
            "only occasion ticks should execute"
        );
        // And the skipped ticks were pure idle holds in the dense sweep.
        for r in &dense {
            if !executed.iter().any(|e| e.tick == r.tick) {
                assert!(!r.snapshot);
                assert_eq!(r.messages, 0);
            }
        }
    }

    /// `run_mux` honours the same `Workload` contract through the shared
    /// loop: on the sparse fixture it skips the span before the members'
    /// earliest deadline, and every member's records agree with a dense
    /// sweep of an identical mux on the executed ticks.
    #[test]
    fn run_mux_skips_idle_spans_on_sparse_workloads() {
        let make_mux = || {
            let mut mux = QueryMux::new(digest_core::MuxConfig::default()).unwrap();
            for (delta, epsilon) in [(16.0, 4.0), (8.0, 4.0)] {
                mux.register(ContinuousQuery::avg(
                    Expr::first_attr(&digest_db::Schema::single("a")),
                    Precision::new(delta, epsilon, 0.9).unwrap(),
                ))
                .unwrap();
            }
            mux
        };
        const TICKS: u64 = 200;
        let mut dense: BTreeMap<u64, Vec<TraceRecord>> = BTreeMap::new();
        {
            let mut w = FrozenWorkload::new();
            let mut mux = make_mux();
            let mut rng = ChaCha8Rng::seed_from_u64(23);
            let origin = w.graph().nodes().next().unwrap();
            for tick in 0..TICKS {
                w.advance_to(tick, &mut rng);
                let ctx = TickContext {
                    tick,
                    graph: w.graph(),
                    db: w.db(),
                    origin,
                };
                for o in mux.on_tick_mux(&ctx, &mut rng).unwrap() {
                    let exact = mux.query(o.query).unwrap().oracle(ctx.db).unwrap();
                    dense
                        .entry(o.query)
                        .or_default()
                        .push(record_tick(tick, exact, &o.outcome, None));
                }
            }
        }
        let mut mux = make_mux();
        let reports = run_mux(
            &mut FrozenWorkload::new(),
            &mut mux,
            RunConfig::for_ticks(TICKS),
            &mut ChaCha8Rng::seed_from_u64(23),
            &mut digest_core::NoopMuxObserver,
        )
        .unwrap();
        assert_eq!(reports.len(), 2);
        for (report, id) in reports.iter().zip(mux.query_ids()) {
            assert!(
                (report.records.len() as u64) < TICKS / 2,
                "mux on a frozen signal must skip most ticks; executed {}",
                report.records.len()
            );
            assert!(report.total_snapshots() > 0);
            assert_eq!(dense[&id].len() as u64, TICKS);
            assert_matches_dense(&report.records, &dense[&id]);
        }
    }

    /// Same equivalence on a churning workload (origin re-election
    /// consumes randomness mid-run — the loop must do it at the same
    /// stream positions as the plain sweep).
    #[test]
    fn event_driven_run_matches_dense_under_churn() {
        let make_workload = || {
            MemoryWorkload::new(MemoryConfig {
                leave_prob: 0.05,
                join_rate: 2.0,
                ..MemoryConfig::reduced(80, 40, 2_000)
            })
        };
        let make_engine = |w: &MemoryWorkload| {
            DigestEngine::new(
                avg_query(w, 10.0, 3.0),
                EngineConfig {
                    scheduler: SchedulerKind::All,
                    estimator: EstimatorKind::Repeated,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let mut w = make_workload();
        let mut engine = make_engine(&w);
        let dense = dense_reference(&mut w, &mut engine, 50, &mut ChaCha8Rng::seed_from_u64(13));
        let mut w = make_workload();
        let mut engine = make_engine(&w);
        let report = run(
            &mut w,
            &mut engine,
            RunConfig::for_ticks(50),
            10.0,
            3.0,
            &mut ChaCha8Rng::seed_from_u64(13),
        )
        .unwrap();
        assert_eq!(dense.len(), report.records.len());
        assert_matches_dense(&report.records, &dense);
    }

    #[test]
    fn pred_uses_fewer_snapshots_than_all() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mk = || temp_workload();
        let run_with = |scheduler, rng: &mut ChaCha8Rng| {
            let mut w = mk();
            let q = avg_query(&w, 16.0, 2.0); // generous δ = 2σ
            let mut engine = DigestEngine::new(
                q,
                EngineConfig {
                    scheduler,
                    estimator: EstimatorKind::Repeated,
                    ..Default::default()
                },
            )
            .unwrap();
            run(
                &mut w,
                &mut engine,
                RunConfig::for_ticks(60),
                16.0,
                2.0,
                rng,
            )
            .unwrap()
            .total_snapshots()
        };
        let all = run_with(SchedulerKind::All, &mut rng);
        let pred = run_with(SchedulerKind::Pred(3), &mut rng);
        assert_eq!(all, 60);
        assert!(
            pred < all / 2,
            "PRED3 {pred} should be well under ALL {all}"
        );
    }
}
