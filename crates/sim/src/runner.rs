//! Driving query systems over one workload.
//!
//! There is one tick loop, `run_ticks`: per executed tick the world
//! advances, the origin is re-elected if churn took it, and the caller's
//! per-tick body runs. After each tick the loop consults the workload's
//! [`Workload::next_activity`] and the systems' `next_due` hints and
//! jumps to the earliest due tick; with the default (dense) hints every
//! tick is due. [`run`] / [`run_observed`] (one [`QuerySystem`]) and
//! [`run_mux`] (one [`QueryMux`], one trace per member) supply only
//! their bodies, so every comparator is ticked by the same loop.

use crate::trace::{RunReport, TraceRecord};
use digest_core::{
    ContinuousQuery, CoreError, MuxObserver, NoopObserver, QueryMux, QuerySystem, Result,
    TickContext, TickObserver, TickOutcome,
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
// Kept out of line: once private the loop is inlined into its callers, and
// `churn_100k/run_s` read 1.16× the parent's on ten alternating pairs out
// of ten (`workload.advance_us_p50` 0.96 → 1.25 ms with no line of
// `advance` changed). Out of line it reads as it did when it was `pub`.
#[inline(never)]
fn run_ticks<W: Workload, S: ?Sized>(
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
/// next to the system's estimate (the one tick loop, `run_ticks`).
///
/// # Errors
///
/// [`CoreError::EmptyWorkload`] if the workload's graph has no live nodes
/// (at start, or after churn drained it mid-run); any engine error.
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

/// Groups mux members by the question they ask: `classes[i]` is the
/// truth class of `ids[i]`, numbered in order of first appearance, and two
/// members share a class iff their `(op, expr, predicate)` are equal. The
/// oracle reads nothing else of a query, so one scan per class per tick
/// yields, bit for bit, the value each member's own scan would. An id the
/// mux does not know gets no class (`usize::MAX`).
fn truth_classes(mux: &QueryMux, ids: &[u64]) -> Vec<usize> {
    let mut asked: Vec<&ContinuousQuery> = Vec::new();
    ids.iter()
        .map(|&id| {
            let Some(q) = mux.query(id) else {
                return usize::MAX;
            };
            let same = |a: &&ContinuousQuery| {
                a.op == q.op && a.expr == q.expr && a.predicate == q.predicate
            };
            asked.iter().position(same).unwrap_or_else(|| {
                asked.push(q);
                asked.len() - 1
            })
        })
        .collect()
}

/// Runs a [`QueryMux`] against `workload`, recording one per-tick trace
/// *per member query* (ascending query id). Mirrors [`run_observed`], but
/// each member gets its own oracle truth (its query's exact aggregate),
/// its own `tick` event (disambiguated by a `query` field), and its own
/// observer callback — with the coalesced round's trace id attached when
/// the member's occasion was served from a shared sampling round.
///
/// The oracle is evaluated once per *truth class* per executed tick, not
/// once per member: members whose `(op, expr, predicate)` are equal ask
/// the same question of the same database, so the first of them to report
/// scans the relation and the rest are handed the same `f64`. `exact` is
/// therefore bit-identical to a per-member scan — same tuples, same
/// order, same arithmetic — whatever the members' `(δ, ε, p)` contracts.
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
    let classes = truth_classes(mux, &ids);
    // This tick's truth per class (at most one class per member), filled
    // by the first member of the class to report.
    let truths = vec![None; ids.len()];
    let members: BTreeMap<u64, (usize, Vec<TraceRecord>)> = ids
        .iter()
        .zip(classes)
        .map(|(&id, class)| (id, (class, Vec::with_capacity(capacity))))
        .collect();

    let mut state = (&mut *mux, observer, members, truths);
    run_ticks(
        workload,
        config,
        rng,
        &mut state,
        |(mux, observer, members, truths), workload, ctx, rng| {
            truths.fill(None);
            for o in &mux.on_tick_mux(ctx, rng)? {
                // Each member's ground truth is its own query's oracle,
                // scanned once per tick for the member's whole class.
                let scan = || {
                    mux.query(o.query)
                        .and_then(|q| q.oracle(ctx.db))
                        .unwrap_or_else(|| workload.exact_aggregate())
                };
                let member = members.get_mut(&o.query);
                let exact = match member
                    .as_ref()
                    .and_then(|(class, _)| truths.get_mut(*class))
                {
                    Some(truth) => *truth.get_or_insert_with(scan),
                    // Not a member when the run started: its own scan.
                    None => scan(),
                };
                // Attribute the member's tick/audit events to the occasion
                // that produced its current estimate.
                digest_telemetry::set_trace(o.trace);
                observer.observe_query(o.query, ctx, &o.outcome, exact, o.round);
                let record = record_tick(ctx.tick, exact, &o.outcome, Some(o.query));
                if let Some((_, trace)) = member {
                    trace.push(record);
                }
            }
            Ok(())
        },
        |(mux, ..), now| mux.next_due(now),
    )?;
    let (.., mut members, _) = state;

    let workload_name = workload.name().to_owned();
    Ok(ids
        .iter()
        .filter_map(|&id| {
            let query = mux.query(id)?;
            Some(RunReport {
                system: format!("{}[q{id}]", mux.name()),
                workload: workload_name.clone(),
                records: members
                    .remove(&id)
                    .map(|(_, trace)| trace)
                    .unwrap_or_default(),
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
        AggregateOp, ContinuousQuery, DigestEngine, EngineConfig, EstimatorKind, Precision,
        SchedulerKind,
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

    /// The dense sweep `run_mux` must replay: every tick executed, every
    /// member's `exact` from that member's own oracle scan.
    fn dense_mux_reference<W: Workload>(
        workload: &mut W,
        mux: &mut QueryMux,
        horizon: u64,
        rng: &mut dyn RngCore,
    ) -> BTreeMap<u64, Vec<TraceRecord>> {
        let mut origin = workload.graph().nodes().next().unwrap();
        let mut dense: BTreeMap<u64, Vec<TraceRecord>> = BTreeMap::new();
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
            for o in mux.on_tick_mux(&ctx, rng).unwrap() {
                let exact = mux.query(o.query).unwrap().oracle(ctx.db).unwrap();
                dense
                    .entry(o.query)
                    .or_default()
                    .push(record_tick(tick, exact, &o.outcome, None));
            }
        }
        dense
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
        let dense = dense_mux_reference(
            &mut FrozenWorkload::new(),
            &mut make_mux(),
            TICKS,
            &mut ChaCha8Rng::seed_from_u64(23),
        );
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

    /// Six members, five questions: two plain `AVG`s that differ only in
    /// their contract, then a filtered `AVG`, `SUM`, `COUNT(*)` and
    /// `MEDIAN`. Contracts scale with the world's `sigma` and `tuples`.
    /// Shared rounds draw fresh CLT-sized panels (INDEP), the rounds the
    /// pinned reports were recorded with; what the truth classes replay
    /// does not depend on how a round samples.
    fn mixed_mux(schema: &digest_db::Schema, threshold: f64, sigma: f64, tuples: f64) -> QueryMux {
        let a = || Expr::first_attr(schema);
        let above = digest_db::Predicate::cmp(digest_db::CmpOp::Gt, a(), Expr::Const(threshold));
        let contract = |delta, epsilon, p| Precision::new(delta, epsilon, p).unwrap();
        let query = |op, precision| ContinuousQuery::new(op, a(), precision);
        let mut mux = QueryMux::new(digest_core::MuxConfig {
            member: EngineConfig {
                estimator: EstimatorKind::Independent,
                ..EngineConfig::default()
            },
            ..digest_core::MuxConfig::default()
        })
        .unwrap();
        for member in [
            query(AggregateOp::Avg, contract(4.0 * sigma, sigma, 0.9)),
            query(AggregateOp::Avg, contract(2.0 * sigma, 0.5 * sigma, 0.95)),
            query(AggregateOp::Avg, contract(4.0 * sigma, sigma, 0.9)).with_predicate(above),
            query(
                AggregateOp::Sum,
                contract(2.0 * tuples * sigma, tuples * sigma, 0.9),
            ),
            query(AggregateOp::Count, contract(tuples, 0.25 * tuples, 0.9)),
            query(AggregateOp::MEDIAN, contract(4.0 * sigma, sigma, 0.9)),
        ] {
            mux.register(member).unwrap();
        }
        mux
    }

    /// What the truth-class tests pin of one member's `AuditReport`.
    fn audit_key(report: &digest_audit::AuditReport) -> [u64; 7] {
        [
            report.ticks,
            report.occasions,
            report.violations,
            report.resolution_violations,
            report.digest_messages,
            report.all_messages,
            report.filter_messages,
        ]
    }

    /// Runs `make_mux()` over `make_workload()` through `run_mux` with a
    /// `MuxAudit` attached and checks it against the dense per-member
    /// sweep: the partition is two `AVG`s in one class and four singleton
    /// classes, every record's `exact` is bit-equal to the member's own
    /// scan, and the audit reports are the pinned ones.
    fn assert_truth_classes_replay_member_scans<W: Workload>(
        make_workload: impl Fn() -> W,
        make_mux: impl Fn(&W) -> QueryMux,
        ticks: u64,
        seed: u64,
        pinned: [[u64; 7]; 6],
    ) {
        let mut w = make_workload();
        let mut mux = make_mux(&w);
        let dense = dense_mux_reference(
            &mut w,
            &mut mux,
            ticks,
            &mut ChaCha8Rng::seed_from_u64(seed),
        );

        let mut w = make_workload();
        let mut mux = make_mux(&w);
        let ids = mux.query_ids();
        assert_eq!(truth_classes(&mux, &ids), [0, 0, 1, 2, 3, 4]);
        assert_eq!(
            truth_classes(&mux, &[ids[5], 99, ids[1]]),
            [0, usize::MAX, 1]
        );
        let mut audit = digest_audit::MuxAudit::new();
        for &id in &ids {
            audit.register(id, mux.query(id).unwrap()).unwrap();
        }
        let reports = run_mux(
            &mut w,
            &mut mux,
            RunConfig::for_ticks(ticks),
            &mut ChaCha8Rng::seed_from_u64(seed),
            &mut audit,
        )
        .unwrap();
        assert_eq!(reports.len(), 6);
        for (report, id) in reports.iter().zip(&ids) {
            assert!(report.total_snapshots() > 0);
            assert_matches_dense(&report.records, &dense[id]);
        }
        let audited: Vec<[u64; 7]> = audit.reports().iter().map(|(_, r)| audit_key(r)).collect();
        assert_eq!(audited, pinned);
    }

    #[test]
    fn truth_classes_replay_member_scans_on_a_frozen_world() {
        assert_truth_classes_replay_member_scans(
            FrozenWorkload::new,
            |w| mixed_mux(w.db().schema(), 40.0, w.sigma_ref(), 160.0),
            200,
            31,
            [
                [19, 19, 0, 0, 3216, 160, 160],
                [19, 19, 0, 0, 3215, 160, 160],
                [19, 19, 0, 0, 3211, 80, 80],
                [19, 19, 13, 0, 3208, 160, 160],
                [19, 19, 0, 0, 3201, 160, 160],
                [19, 19, 0, 0, 8, 160, 160],
            ],
        );
    }

    /// The pinned rows are one realisation of the MEMORY stream: re-pin
    /// them only with a deliberate stream change, and only after the
    /// dense-replay half passes on the new worlds.
    #[test]
    fn truth_classes_replay_member_scans_under_churn() {
        assert_truth_classes_replay_member_scans(
            || {
                MemoryWorkload::new(MemoryConfig {
                    leave_prob: 0.05,
                    join_rate: 2.0,
                    ..MemoryConfig::reduced(80, 40, 2_000)
                })
            },
            |w| mixed_mux(w.db().schema(), 512.0, w.sigma_ref(), 80.0),
            50,
            32,
            [
                [50, 17, 0, 0, 6135, 1958, 1835],
                [50, 17, 0, 0, 6129, 1958, 1891],
                [50, 17, 0, 0, 6126, 1024, 978],
                [50, 17, 12, 19, 6122, 1958, 1791],
                [50, 17, 0, 0, 6120, 1958, 1795],
                [50, 17, 0, 0, 679, 1958, 1835],
            ],
        );
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
