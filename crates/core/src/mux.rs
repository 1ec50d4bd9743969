//! `QueryMux` — serving many continuous queries from one overlay.
//!
//! The paper prices a *single* `(δ, ε, p)` contract in messages per
//! guarantee (§VI); this module amortises that price across N concurrent
//! contracts. Two observations make the amortisation sound:
//!
//! 1. **Panels are expression-agnostic.** The two-stage sampling operator
//!    (§V) draws node `v` with probability proportional to its content
//!    size `m_v` and then a uniform local tuple, which is uniform over
//!    *tuples* regardless of the aggregated expression or predicate. One
//!    drawn panel therefore serves every registered tuple-expression
//!    aggregate; `op.is_sketch()` splits those panel-served members from
//!    the sweep-served sketch kinds (DESIGN.md §17).
//! 2. **PRED-k deadlines coalesce.** Each member's extrapolating scheduler
//!    (§IV-A) sets the tick of its next occasion. A *round* fires at any
//!    tick some member's deadline has come, and — because reading an
//!    already-paid panel costs zero extra messages — every member is
//!    served from it: someone is due, everyone is served. A member is
//!    therefore never served later than its own deadline, only earlier,
//!    which keeps every `δ`-resolution contract intact.
//!
//! A round's panel is asked one *question* per class of members whose
//! `(expr, predicate)` are equal (`question_classes`): classmates would
//! fold the same values in the same order, so each sampled row is
//! evaluated once per class, in place in the operator's batch column.
//! With `EstimatorKind::Repeated` (the default) the panel is one rotating
//! RPT panel (§IV-B2) kept across rounds by one [`RepeatedEstimator`]:
//! a round revisits its retained part (one request and one reply per live
//! peer holding retained tuples, no walk), draws the `n − g` shortfall in
//! one batch, and folds each class's Eq. 7 with the class's own `ρ̂` /
//! `σ̂` — `n` the largest Eq. 10 requirement over the members'
//! contracts. A round with no panel to revisit (the first, or one meeting
//! a question nobody asked before) and every round with
//! `EstimatorKind::Independent` draws a fresh CLT-sized panel instead
//! through [`IndependentEstimator`]'s one CLT loop (Eq. 6 per member under
//! the round's own `σ̂` and the member's smoothed selectivity, sized at
//! the maximum requirement, §IV-B1), which then seeds the RPT panel.
//! Every member reads its class's result under its own `(δ, ε, p)`
//! contract, aggregate op, δ-semantics and scheduling, and receives its
//! own causal trace id parented to the round's.
//!
//! The round is the only query-answering path Digest has: a
//! [`DigestEngine`] is a round with one member. With sharing disabled the
//! mux runs one such engine per query, in registration order, which
//! `tests/mux_equivalence.rs` holds to standalone engines byte for byte.

use crate::engine::{DigestEngine, EngineConfig, EstimatorKind, SchedulerKind};
use crate::error::CoreError;
use crate::indep::IndependentEstimator;
use crate::panel::{Question, SamplePanel};
use crate::query::{AggregateOp, ContinuousQuery};
use crate::report::{
    emit_snapshot, finish, scale, MessageSplit, Report, Selectivity, SizeTracker, Snapshot,
};
use crate::rpt::{ClassAnswer, RepeatedEstimator};
use crate::scheduler::SnapshotScheduler;
use crate::sketch_est::SketchSweepEstimator;
use crate::system::{QuerySystem, TickContext, TickOutcome};
use crate::Result;
use digest_sampling::{SamplingError, SamplingOperator};
use digest_stats::RunningMoments;
use digest_telemetry::{registry as telemetry, Field, Stage};
use rand::RngCore;

/// Multiplexer configuration (§IV-A, §V): whether compatible queries
/// share rounds, and the scheduler × estimator tuning of every member.
#[derive(Debug, Clone, Copy)]
pub struct MuxConfig {
    /// Share walk batches and panels across compatible queries. When
    /// `false` the mux runs one [`DigestEngine`] per query (§IV baseline).
    pub sharing: bool,
    /// Each member's scheduler, estimator, sampling and size tuning
    /// (§IV-A, §IV-B, §V); in shared mode the estimator keeps one panel
    /// for all of them.
    pub member: EngineConfig,
}

impl Default for MuxConfig {
    fn default() -> Self {
        Self {
            sharing: true,
            member: EngineConfig::default(),
        }
    }
}

/// One member query's view of a mux tick (§II: each query keeps its own
/// `(δ, ε, p)` contract, estimate stream, and causal trace).
#[derive(Debug, Clone, Copy)]
pub struct MuxQueryOutcome {
    /// The member query's id (registration order).
    pub query: u64,
    /// The member's own tick outcome (δ-semantics applied per query).
    pub outcome: TickOutcome,
    /// Causal trace id of the member's reporting occasion (0 before the
    /// first occasion; see §IV-A tracing discipline).
    pub trace: u64,
    /// Trace id of the shared sampling round this occasion was served
    /// from (`None` on idle ticks and in unshared mode).
    pub round: Option<u64>,
}

/// Per-query lifetime cost counters (§VI message accounting, per member).
#[derive(Debug, Clone, Copy, Default)]
pub struct MuxQueryTotals {
    /// Messages attributed to this query (round costs split evenly).
    pub messages: u64,
    /// Samples evaluated for this query.
    pub samples: u64,
    /// Reporting occasions served.
    pub snapshots: u64,
}

/// One member of a round (§II: its own contract, schedule, estimate
/// stream and causal trace).
pub(crate) struct Member {
    id: u64,
    pub(crate) query: ContinuousQuery,
    pub(crate) scheduler: Box<dyn SnapshotScheduler + Send>,
    /// Per-member sweep estimator for the sketch-served kinds (DESIGN.md
    /// §17); `None` for the panel-served mean-like kinds.
    pub(crate) sketch: Option<SketchSweepEstimator>,
    /// The member's question class in the current round
    /// (`question_classes`).
    class: usize,
    /// Tick of the member's next occasion, as its scheduler last decided
    /// (§IV-A); `None` = never served, due at once (§II: answers start at
    /// arrival time).
    pub(crate) deadline: Option<u64>,
    started: bool,
    pub(crate) trace: u64,
    report: Report,
    selectivity: Selectivity,
    pub(crate) totals: MuxQueryTotals,
}

impl Member {
    /// Member `id`, answering `query` under a `scheduler` (§II: its
    /// contract runs from here).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] for an invalid scheduler or a
    /// degenerate sketch contract (DESIGN.md §17 sizing).
    pub(crate) fn new(id: u64, query: ContinuousQuery, scheduler: SchedulerKind) -> Result<Self> {
        let sketch = query
            .op
            .is_sketch()
            .then(|| SketchSweepEstimator::for_query(&query))
            .transpose()?;
        Ok(Self {
            id,
            scheduler: scheduler.build(&query.precision)?,
            query,
            sketch,
            class: 0,
            deadline: None,
            started: false,
            trace: 0,
            report: Report::new(),
            selectivity: Selectivity::default(),
            totals: MuxQueryTotals::default(),
        })
    }

    fn asks(&self) -> Question<'_> {
        (&self.query.expr, &self.query.predicate)
    }

    fn is_due(&self, tick: u64) -> bool {
        self.deadline.is_none_or(|deadline| deadline <= tick)
    }

    pub(crate) fn idle(&self) -> MuxQueryOutcome {
        MuxQueryOutcome {
            query: self.id,
            outcome: TickOutcome::idle(self.report.current),
            trace: self.trace,
            round: None,
        }
    }

    /// A panel member's snapshot from its class's answer (§IV-B): a
    /// started `AVG` whose qualifying set came up empty holds its result;
    /// anything else is scaled into the member's aggregate, its fresh
    /// tallies folded into the member's selectivity first.
    #[allow(clippy::cast_precision_loss)]
    fn snapshot(&mut self, answer: ClassAnswer, panel: Panel, n_hat: Option<f64>) -> Snapshot {
        let (samples, fresh) = (panel.samples, panel.fresh);
        let trivial = self.query.predicate.is_trivial();
        if answer.qualifying == 0
            && !trivial
            && matches!(self.query.op, AggregateOp::Avg)
            && self.started
        {
            return Snapshot::Hold { samples, fresh };
        }
        let selectivity = if trivial {
            1.0
        } else {
            self.selectivity
                .update(answer.fresh_qualifying as f64, fresh as f64)
        };
        Snapshot::Value {
            value: scale(self.query.op, answer.estimate, selectivity, n_hat),
            samples,
            fresh,
        }
    }

    /// Ends the member's occasion at `tick` (§II δ-rule, §IV-A
    /// rescheduling) and books it; returns the member's outcome.
    fn close(
        &mut self,
        tick: u64,
        snapshot: Snapshot,
        messages: u64,
        round: u64,
    ) -> Result<MuxQueryOutcome> {
        let (outcome, delay) = finish(
            &mut self.report,
            &mut *self.scheduler,
            tick,
            self.query.precision.delta,
            snapshot,
            messages,
        )?;
        self.deadline = Some(tick + delay);
        self.totals.messages += messages;
        self.totals.samples += outcome.samples_this_tick;
        self.totals.snapshots += 1;
        if matches!(snapshot, Snapshot::Value { .. }) {
            self.started = true;
            telemetry::CORE_ENGINE_SNAPSHOTS.inc();
            telemetry::CORE_ENGINE_MESSAGES.add(messages);
            telemetry::CORE_ENGINE_SAMPLES.add(outcome.samples_this_tick);
        }
        Ok(MuxQueryOutcome {
            query: self.id,
            outcome,
            trace: self.trace,
            round: Some(round),
        })
    }
}

/// A class's answer from a CLT round (§IV-B1), `moments` the values that
/// answered it; also the class's first occasion in the RPT panel the round
/// seeds (§IV-B2).
#[allow(clippy::cast_precision_loss)]
fn fresh_answer(moments: &RunningMoments) -> ClassAnswer {
    let n = moments.count();
    ClassAnswer {
        estimate: moments.mean(),
        variance: moments.sample_variance() / n.max(1) as f64,
        sigma: moments.sample_std(),
        rho: None,
        qualifying: n,
        fresh_qualifying: n,
    }
}

/// The earliest of `members`' deadlines, if it is still ahead of `now`
/// (§IV-A): ticks before it idle without consuming randomness. A member
/// due now, or never served (`None` sorts first), keeps the round dense —
/// as does no member.
pub(crate) fn next_deadline<'a>(
    members: impl Iterator<Item = &'a Member>,
    now: u64,
) -> Option<u64> {
    let earliest = members.map(|q| q.deadline).min().flatten();
    earliest.filter(|&deadline| deadline > now)
}

/// A drawn round's panel (§IV-B): the samples every panel member read,
/// and what drawing them cost.
#[derive(Debug, Clone, Copy)]
struct Panel {
    samples: u64,
    fresh: u64,
    messages: MessageSplit,
}

/// The members a round's tuple panel serves, ascending by id: all but the
/// sweep-served sketch kinds, which are answered by per-member node
/// sweeps (DESIGN.md §17).
fn panel_members(members: &[Member]) -> impl Iterator<Item = &Member> + Clone {
    members.iter().filter(|q| q.sketch.is_none())
}

/// Partitions a round's panel members by the question they put to each
/// sampled row, numbering the classes in order of first appearance
/// (`Member::class`). Two members share a class iff their `(expr,
/// predicate)` are equal (`op` scales the folded mean afterwards and `(δ,
/// ε, p)` sizes the panel; neither enters the fold). Every panel member
/// sees every row of the round, so classmates would fold the same values
/// in the same order — one tally per class is, bit for bit, each member's
/// own. Returns the number of classes.
fn question_classes(members: &mut [Member]) -> usize {
    let mut classes = 0;
    for i in 0..members.len() {
        let (earlier, rest) = members.split_at_mut(i);
        let Some(q) = rest.first_mut().filter(|q| q.sketch.is_none()) else {
            continue;
        };
        q.class = match panel_members(earlier).find(|p| p.asks() == q.asks()) {
            Some(classmate) => classmate.class,
            None => {
                classes += 1;
                classes - 1
            }
        };
    }
    classes
}

/// Empties `buffer` and hands its allocation on under another lifetime: a
/// round's questions borrow its members, so the round keeps the buffer
/// empty between rounds. (Collecting a `Vec`'s own iterator into a `Vec`
/// of a same-sized type reuses its allocation.)
fn recycle<'b>(mut buffer: Vec<Question<'_>>) -> Vec<Question<'b>> {
    buffer.clear();
    buffer.into_iter().map_while(|_| None).collect()
}

/// A round's machinery: one operator, one walk pool, one size estimate and
/// one panel for the members it is ticked with — the one query of a
/// [`DigestEngine`], or every query of a sharing [`QueryMux`] — and the
/// round's scratch, kept for its buffers so that a steady round allocates
/// nothing.
pub(crate) struct Round {
    pub(crate) config: EngineConfig,
    operator: SamplingOperator,
    /// The CLT loop of fresh rounds, under `config.rpt`'s pilot and cap.
    clt: IndependentEstimator,
    /// `N̂` for the `SUM`/`COUNT` members, shared by all of them.
    pub(crate) size: SizeTracker,
    /// The rotating RPT panel and its per-class state (`None`: every
    /// round draws a fresh CLT-sized panel, INDEP).
    rpt: Option<RepeatedEstimator>,
    /// A CLT round's draws on their way to seeding the RPT panel.
    seed: SamplePanel,
    rounds: u64,
    last_round_trace: u64,
    /// The round's class questions (which borrow the members, so this is
    /// empty between rounds) and a CLT round's per-class tallies.
    questions: Vec<Question<'static>>,
    tallies: Vec<RunningMoments>,
}

impl Round {
    /// A round's machinery under `config`.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] for invalid estimator or sampling
    /// settings.
    pub(crate) fn new(config: EngineConfig) -> Result<Self> {
        let rpt = match config.estimator {
            EstimatorKind::Repeated => Some(RepeatedEstimator::new(config.rpt)?),
            EstimatorKind::Independent => None,
        };
        Ok(Self {
            config,
            operator: SamplingOperator::new(config.sampling)?,
            clt: IndependentEstimator::new(config.rpt.pilot_size, config.rpt.max_samples, false)?,
            size: SizeTracker::new(config.sampling)?,
            rpt,
            seed: SamplePanel::new(),
            rounds: 0,
            last_round_trace: 0,
            questions: Vec::new(),
            tallies: Vec::new(),
        })
    }

    pub(crate) fn set_workers(&mut self, workers: usize) {
        self.config.sampling.workers = workers;
        self.operator.set_workers(workers);
        self.size.set_workers(workers);
    }

    /// One tick of `members` (ascending by id), each one's outcome handed
    /// to `served` in that order. A round fires when some member's deadline
    /// has come (§IV-A); it draws one panel — revisiting the rotating RPT
    /// panel (§IV-B2) or, with nothing to revisit, a fresh CLT-sized one
    /// (Eq. 6) — and serves *every* member from it, each under its own
    /// contract (§II): reading a paid panel costs no messages, so nobody
    /// waits for a deadline of their own. `system` names the members'
    /// `engine.snapshot` events.
    ///
    /// # Errors
    ///
    /// Any sampling or scheduler error; a transiently empty relation is
    /// held, not raised (§V).
    ///
    /// xtask: no-alloc
    #[allow(clippy::too_many_lines, clippy::cast_possible_truncation)]
    pub(crate) fn tick(
        &mut self,
        members: &mut [Member],
        ctx: &TickContext<'_>,
        rng: &mut dyn RngCore,
        system: &str,
        mut served: impl FnMut(MuxQueryOutcome),
    ) -> Result<()> {
        let tick = ctx.tick;
        let due = members.iter().filter(|q| q.is_due(tick)).count() as u64;
        if due == 0 {
            members.iter().for_each(|q| served(q.idle()));
            return Ok(());
        }

        // A round fires. Allocate its causal trace first so the sampling
        // events below parent to the round, then one id per member (ascending
        // id order — deterministic regardless of telemetry enablement).
        let round_trace = digest_telemetry::begin_trace();
        digest_telemetry::set_trace(round_trace);
        let _round_span = digest_telemetry::span(Stage::EngineTick);

        // Panel sizing, the size refresh and the round-cost split cover
        // panel members only.
        let mut size = 0u64;
        let needs_size = panel_members(members).any(|q| !matches!(q.query.op, AggregateOp::Avg));
        if needs_size && self.size.is_stale(self.config.size_refresh_interval) {
            size = self
                .size
                .refresh(ctx, self.config.size_sample_target, rng)?;
        }

        // --- Draw the panel, folded once per question class. ---
        let classes = question_classes(members);
        let mut questions = recycle(std::mem::take(&mut self.questions));
        for q in panel_members(members) {
            if q.class == questions.len() {
                questions.push(q.asks());
            }
        }
        let eval_span = digest_telemetry::span(Stage::EstimatorEval);
        let repeated = self.rpt.as_mut().is_some_and(|rpt| rpt.align(&questions));
        let drawn = match self.rpt.as_mut() {
            Some(rpt) if repeated => {
                let demands = panel_members(members).map(|q| (q.class, &q.query.precision));
                rpt.occasion(ctx, &questions, demands, &mut self.operator, rng)
                    .map(|occasion| Panel {
                        samples: occasion.revisited + occasion.fresh,
                        fresh: occasion.fresh,
                        messages: occasion.messages,
                    })
            }
            // Nothing to revisit, or INDEP: a fresh CLT-sized panel (Eq. 6),
            // each member sized under the round's σ̂ and its smoothed
            // selectivity (1 under a trivial predicate, whose tally is never
            // updated); with RPT on, its draws seed the RPT panel (§IV-B2).
            rpt => {
                let demands = panel_members(members)
                    .map(|q| (q.class, &q.query.precision, q.selectivity.smoothed()));
                self.tallies.clear();
                self.tallies.resize(classes, RunningMoments::new());
                let seed = rpt.is_some().then_some(&mut self.seed);
                let fresh = self.clt.draw(
                    ctx,
                    &questions,
                    demands,
                    &mut self.tallies,
                    seed,
                    &mut self.operator,
                    rng,
                );
                fresh.map(|fresh| {
                    if let Some(rpt) = rpt {
                        let firsts = self.tallies.iter().map(|moments| {
                            let first = fresh_answer(moments);
                            (first.qualifying > 0).then_some((
                                first.estimate,
                                first.variance,
                                first.sigma,
                            ))
                        });
                        rpt.seed(&mut self.seed, firsts);
                    }
                    Panel {
                        samples: fresh.drawn,
                        fresh: fresh.drawn,
                        messages: fresh.messages,
                    }
                })
            }
        };
        self.questions = recycle(questions);
        drop(eval_span);
        let panel = match drawn {
            Ok(panel) => Some(panel),
            // A transiently empty relation is a live condition (§V): hold
            // every due member and retry next tick. It fails a round's
            // first batch, before any draw, so the round has no samples
            // to show (an RPT revisit's lost probes are dropped with it).
            Err(CoreError::Sampling(SamplingError::EmptyDatabase)) => None,
            Err(other) => return Err(other),
        };
        let round_messages = panel.map_or(0, |panel| panel.messages.total()) + size;

        // --- Per-member finalisation in ascending id order: attribute the
        // round cost, apply each member's δ-semantics, reschedule (§IV-A).
        // Panel members split a drawn round's cost evenly, due members a
        // held one's; sweep-served members pay exactly their own
        // fresh-node pulls (DESIGN.md §17). ---
        let payers = panel.map_or(due, |_| panel_members(members).count().max(1) as u64);
        let (share, remainder) = (round_messages / payers, round_messages % payers);
        let mut paid = 0u64;
        for q in members.iter_mut() {
            let Some(panel) = panel else {
                // Held: due members count an (empty) occasion and retry
                // next tick; everyone else idles.
                let outcome = if q.is_due(tick) {
                    paid += 1;
                    let messages = share + u64::from(paid <= remainder);
                    q.close(tick, Snapshot::Retry, messages, round_trace)?
                } else {
                    q.idle()
                };
                served(outcome);
                continue;
            };
            q.trace = digest_telemetry::begin_trace();
            digest_telemetry::set_trace(q.trace);
            let (snapshot, messages) = if let Some(sketch) = q.sketch.as_mut() {
                let sweep = sketch.sweep(ctx.db, &q.query.expr, &q.query.predicate)?;
                (sweep.into(), sweep.messages)
            } else {
                let answer = match &self.rpt {
                    Some(rpt) if repeated => Some(rpt.answer(q.class)),
                    _ => self.tallies.get(q.class).map(fresh_answer),
                };
                paid += 1;
                let messages = share + u64::from(paid <= remainder);
                let n_hat = self.size.estimate();
                (
                    q.snapshot(answer.unwrap_or_default(), panel, n_hat),
                    messages,
                )
            };
            let outcome = q.close(tick, snapshot, messages, round_trace)?;
            // A sweep member's occasion is an event even when it held; a
            // panel member's only when it produced a value.
            if matches!(snapshot, Snapshot::Value { .. }) || q.sketch.is_some() {
                emit_snapshot(system, &outcome.outcome);
            }
            served(outcome);
        }
        self.rounds += 1;
        self.last_round_trace = round_trace;
        let Some(panel) = panel else {
            return Ok(());
        };

        // The round's own event, under the round's trace id, its messages
        // split by cause.
        digest_telemetry::set_trace(round_trace);
        if digest_telemetry::events_enabled() {
            let [walk, report, revisit, lost, peers] = panel.messages.fields();
            digest_telemetry::emit(
                "mux.round",
                &[
                    ("members", Field::U64(members.len() as u64)),
                    ("due", Field::U64(due)),
                    ("panel", Field::U64(panel.samples)),
                    ("fresh", Field::U64(panel.fresh)),
                    ("messages", Field::U64(round_messages)),
                    walk,
                    report,
                    revisit,
                    lost,
                    ("size", Field::U64(size)),
                    peers,
                ],
            );
        }
        self.size.served_occasion();
        Ok(())
    }
}

enum Mode {
    /// One [`DigestEngine`] — a one-member round — per query.
    Independent(Vec<DigestEngine>),
    /// One round for every member, ascending by id.
    Shared(Box<Round>, Vec<Member>),
}

/// The query multiplexer: N concurrent continuous queries (heterogeneous
/// `δ/ε/p`, expressions, predicates — §II) over a single overlay, with
/// shared panels and coalesced PRED-k rounds (§IV-A, §V) when sharing is
/// enabled, or N standalone [`DigestEngine`]s otherwise.
pub struct QueryMux {
    config: MuxConfig,
    mode: Mode,
    name: String,
    next_id: u64,
    current_estimate: f64,
    total_messages: u64,
    total_samples: u64,
    total_snapshots: u64,
}

impl std::fmt::Debug for QueryMux {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryMux")
            .field("name", &self.name)
            .field("queries", &self.len())
            .field("sharing", &self.config.sharing)
            .finish_non_exhaustive()
    }
}

impl QueryMux {
    /// Builds an empty multiplexer (§II: queries arrive and depart over
    /// the run; see [`QueryMux::register`]).
    ///
    /// # Errors
    ///
    /// [`crate::CoreError::InvalidConfig`] for invalid scheduler/sampling
    /// settings.
    pub fn new(config: MuxConfig) -> Result<Self> {
        let member = config.member;
        let (mode, name) = if config.sharing {
            let round = Box::new(Round::new(member)?);
            (
                Mode::Shared(round, Vec::new()),
                format!("MUX+{}", member.scheduler),
            )
        } else {
            let name = format!("MUX-UNSHARED+{}+{}", member.scheduler, member.estimator);
            (Mode::Independent(Vec::new()), name)
        };
        Ok(Self {
            config,
            mode,
            name,
            next_id: 0,
            current_estimate: 0.0,
            total_messages: 0,
            total_samples: 0,
            total_snapshots: 0,
        })
    }

    /// Every member, ascending by id.
    fn members(&self) -> impl Iterator<Item = &Member> {
        let (shared, engines): (&[Member], &[DigestEngine]) = match &self.mode {
            Mode::Independent(engines) => (&[], engines),
            Mode::Shared(_, members) => (members, &[]),
        };
        shared
            .iter()
            .chain(engines.iter().map(DigestEngine::member))
    }

    fn member(&self, id: u64) -> Option<&Member> {
        self.members().find(|q| q.id == id)
    }

    /// Registers a continuous query; returns its member id (§II: the
    /// query's contract runs from this call until
    /// [`QueryMux::deregister`]).
    ///
    /// # Errors
    ///
    /// [`crate::CoreError::InvalidConfig`] if the member scheduler is invalid or
    /// a sketch-served member's `(ε, p)` contract is degenerate
    /// (DESIGN.md §17 sizing).
    pub fn register(&mut self, query: ContinuousQuery) -> Result<u64> {
        let id = self.next_id;
        let config = self.config.member;
        match &mut self.mode {
            Mode::Independent(engines) => engines.push(DigestEngine::member_of(id, query, config)?),
            Mode::Shared(_, members) => members.push(Member::new(id, query, config.scheduler)?),
        }
        self.next_id += 1;
        Ok(id)
    }

    /// Deregisters a member query (§II: departure ends its contract);
    /// unknown ids are ignored.
    pub fn deregister(&mut self, id: u64) {
        match &mut self.mode {
            Mode::Independent(engines) => engines.retain(|e| e.member().id != id),
            Mode::Shared(_, members) => members.retain(|q| q.id != id),
        }
    }

    /// Number of registered queries (§II).
    #[must_use]
    pub fn len(&self) -> usize {
        self.members().count()
    }

    /// Whether no query is registered (§II).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The member query behind `id`, if registered (§II).
    #[must_use]
    pub fn query(&self, id: u64) -> Option<&ContinuousQuery> {
        self.member(id).map(|q| &q.query)
    }

    /// Registered member ids in ascending order (§II).
    #[must_use]
    pub fn query_ids(&self) -> Vec<u64> {
        self.members().map(|q| q.id).collect()
    }

    /// Lifetime cost counters for one member (§VI accounting; round
    /// costs are split evenly across round members in shared mode).
    #[must_use]
    pub fn query_totals(&self, id: u64) -> Option<MuxQueryTotals> {
        self.member(id).map(|q| q.totals)
    }

    /// Coalesced sampling rounds executed so far (0 in unshared mode —
    /// §IV-A).
    #[must_use]
    pub fn rounds(&self) -> u64 {
        match &self.mode {
            Mode::Independent(_) => 0,
            Mode::Shared(round, _) => round.rounds,
        }
    }

    /// Advances every member query one tick; returns one outcome per
    /// member in ascending id order (§II: each member keeps its own
    /// estimate stream and δ-semantics).
    ///
    /// # Errors
    ///
    /// Any engine/sampling error; a transiently empty relation is held,
    /// not raised (§V).
    pub fn on_tick_mux(
        &mut self,
        ctx: &TickContext<'_>,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<MuxQueryOutcome>> {
        digest_telemetry::set_tick(ctx.tick);
        let mut outcomes = Vec::with_capacity(self.len());
        match &mut self.mode {
            Mode::Independent(engines) => {
                for engine in engines {
                    let outcome = engine.tick(ctx, rng)?;
                    outcomes.push(MuxQueryOutcome {
                        round: None,
                        ..outcome
                    });
                }
            }
            Mode::Shared(round, members) => {
                round.tick(members, ctx, rng, "MUX", |o| outcomes.push(o))?;
            }
        }
        for o in &outcomes {
            self.total_messages += o.outcome.messages_this_tick;
            self.total_samples += o.outcome.samples_this_tick;
            if o.outcome.snapshot_executed {
                self.total_snapshots += 1;
            }
        }
        if let Some(first) = outcomes.first() {
            self.current_estimate = first.outcome.estimate;
        }
        Ok(outcomes)
    }
}

impl QuerySystem for QueryMux {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_due(&mut self, now: u64) -> Option<u64> {
        next_deadline(self.members(), now)
    }

    fn on_tick(&mut self, ctx: &TickContext<'_>, rng: &mut dyn RngCore) -> Result<TickOutcome> {
        let outcomes = self.on_tick_mux(ctx, rng)?;
        let mut folded = TickOutcome::idle(self.current_estimate);
        for o in &outcomes {
            folded.updated |= o.outcome.updated;
            folded.snapshot_executed |= o.outcome.snapshot_executed;
            folded.samples_this_tick += o.outcome.samples_this_tick;
            folded.fresh_samples_this_tick += o.outcome.fresh_samples_this_tick;
            folded.messages_this_tick += o.outcome.messages_this_tick;
        }
        if let Some(first) = outcomes.first() {
            folded.estimate = first.outcome.estimate;
        }
        Ok(folded)
    }

    fn total_messages(&self) -> u64 {
        self.total_messages
    }

    fn total_samples(&self) -> u64 {
        self.total_samples
    }

    fn total_snapshots(&self) -> u64 {
        self.total_snapshots
    }

    fn set_sampling_workers(&mut self, workers: usize) {
        match &mut self.mode {
            Mode::Independent(engines) => {
                for engine in engines {
                    engine.set_sampling_workers(workers);
                }
            }
            Mode::Shared(round, _) => round.set_workers(workers),
        }
    }

    fn trace_id(&self) -> u64 {
        match &self.mode {
            Mode::Independent(_) => self.members().last().map_or(0, |q| q.trace),
            Mode::Shared(round, _) => round.last_round_trace,
        }
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
    use crate::engine::DigestEngine;
    use crate::query::Precision;
    use crate::rpt::RptConfig;
    use digest_db::{Expr, P2PDatabase, Predicate, Schema, Tuple};
    use digest_net::{topology, Graph, NodeId};
    use proptest::prelude::*;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::collections::BTreeMap;

    fn world(seed: u64) -> (Graph, P2PDatabase) {
        let graph = topology::complete(8).unwrap();
        let mut db = P2PDatabase::new(Schema::single("a"));
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for v in 0..8 {
            db.register_node(NodeId(v));
            for _ in 0..25 {
                let value = 50.0 + rng.gen_range(-8.0..8.0);
                db.insert(NodeId(v), Tuple::single(value)).unwrap();
            }
        }
        (graph, db)
    }

    fn avg_query(delta: f64, eps: f64, p: f64) -> ContinuousQuery {
        ContinuousQuery::avg(
            Expr::first_attr(&Schema::single("a")),
            Precision::new(delta, eps, p).unwrap(),
        )
    }

    /// Regression for the lifted shared-mode `MEDIAN` rejection: a
    /// `MEDIAN` member now registers, is served by the UDDSketch sweep
    /// at rank 0.5 (DESIGN.md §17), shares a round with an `AVG`
    /// member, and lands within the sketch's relative accuracy of the
    /// exact median.
    #[test]
    fn median_joins_shared_rounds_via_sketch_sweep() {
        let (graph, db) = world(11);
        let mut mux = QueryMux::new(MuxConfig::default()).unwrap();
        let median = mux
            .register(ContinuousQuery::new(
                AggregateOp::MEDIAN,
                Expr::first_attr(&Schema::single("a")),
                Precision::new(2.0, 1.0, 0.95).unwrap(),
            ))
            .unwrap();
        let avg = mux.register(avg_query(2.0, 2.0, 0.95)).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let ctx = TickContext {
            tick: 0,
            graph: &graph,
            db: &db,
            origin: NodeId(0),
        };
        let out = mux.on_tick_mux(&ctx, &mut rng).unwrap();
        assert_eq!(out.len(), 2);
        // Both members are served from the same round.
        assert!(out.iter().all(|o| o.outcome.snapshot_executed));
        assert_eq!(out[0].round, out[1].round);
        assert!(out[0].round.is_some());
        let exact = ContinuousQuery::new(
            AggregateOp::MEDIAN,
            Expr::first_attr(db.schema()),
            Precision::new(2.0, 1.0, 0.95).unwrap(),
        )
        .oracle(&db)
        .unwrap();
        let got = out
            .iter()
            .find(|o| o.query == median)
            .unwrap()
            .outcome
            .estimate;
        assert!(
            (got - exact).abs() <= 0.5,
            "median sweep {got} vs exact {exact}"
        );
        // The sweep pays one message per node, split from no one.
        let sweep_cost = mux.query_totals(median).unwrap().messages;
        assert_eq!(sweep_cost, 8, "one fresh pull per live node");
        let total = mux.query_totals(avg).unwrap().messages + sweep_cost;
        assert_eq!(total, mux.total_messages());
    }

    /// All three sketch kinds (DESIGN.md §17) register in shared mode,
    /// share rounds, and report within their contracts; retained sweep
    /// members cost nothing on a static relation.
    #[test]
    fn sketch_kinds_share_rounds_and_retain_members() {
        let (graph, db) = world(13);
        let mut mux = QueryMux::new(MuxConfig::default()).unwrap();
        let schema = Schema::single("a");
        let mk = |op| {
            ContinuousQuery::new(
                op,
                Expr::first_attr(&schema),
                Precision::new(1.0, 0.5, 0.95).unwrap(),
            )
        };
        let p90 = mux
            .register(mk(AggregateOp::Percentile { q_permille: 900 }))
            .unwrap();
        let distinct = mux.register(mk(AggregateOp::Distinct)).unwrap();
        let topk = mux.register(mk(AggregateOp::TopK { k: 3 })).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let mut messages_after_first = 0;
        for tick in 0..6 {
            let ctx = TickContext {
                tick,
                graph: &graph,
                db: &db,
                origin: NodeId(0),
            };
            let out = mux.on_tick_mux(&ctx, &mut rng).unwrap();
            for o in &out {
                if !o.outcome.snapshot_executed {
                    continue;
                }
                let q = mux.query(o.query).unwrap().clone();
                let exact = q.oracle(&db).unwrap();
                let tol = if matches!(q.op, AggregateOp::Distinct) {
                    // Relative ε-semantics (§II adapted per DESIGN.md §17).
                    q.precision.epsilon * exact.max(1.0)
                } else {
                    q.precision.epsilon
                };
                assert!(
                    (o.outcome.estimate - exact).abs() <= tol,
                    "{q}: estimate {} vs exact {exact}",
                    o.outcome.estimate
                );
            }
            if tick == 0 {
                messages_after_first = mux.total_messages();
                assert!(messages_after_first > 0);
            }
        }
        // Static relation: every later sweep retains all members at zero
        // message cost (§IV-B2 retain economics).
        assert_eq!(mux.total_messages(), messages_after_first);
        for id in [p90, distinct, topk] {
            let totals = mux.query_totals(id).unwrap();
            assert_eq!(totals.messages, 8, "first sweep pulls all 8 nodes");
            assert!(totals.snapshots >= 1);
        }
    }

    #[test]
    fn shared_round_serves_every_member_one_panel() {
        let (graph, db) = world(1);
        let mut mux = QueryMux::new(MuxConfig::default()).unwrap();
        let a = mux.register(avg_query(2.0, 2.0, 0.95)).unwrap();
        let b = mux.register(avg_query(4.0, 3.0, 0.9)).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let ctx = TickContext {
            tick: 0,
            graph: &graph,
            db: &db,
            origin: NodeId(0),
        };
        let out = mux.on_tick_mux(&ctx, &mut rng).unwrap();
        assert_eq!(out.len(), 2);
        let truth = db.exact_avg(&Expr::first_attr(db.schema())).unwrap();
        for o in &out {
            assert!(o.outcome.snapshot_executed);
            assert!(o.round.is_some());
            assert!(o.trace > 0);
            assert!(
                (o.outcome.estimate - truth).abs() < 3.0,
                "estimate {} vs truth {truth}",
                o.outcome.estimate
            );
        }
        // Same shared panel → same sample count; round trace shared.
        assert_eq!(
            out[0].outcome.samples_this_tick,
            out[1].outcome.samples_this_tick
        );
        assert_eq!(out[0].round, out[1].round);
        assert_ne!(out[0].trace, out[1].trace, "per-member occasion traces");
        // Message split conserves the round total.
        let total = mux.query_totals(a).unwrap().messages + mux.query_totals(b).unwrap().messages;
        assert_eq!(total, mux.total_messages());
        assert_eq!(mux.rounds(), 1);
    }

    #[test]
    fn shared_mode_is_cheaper_than_unshared_for_many_queries() {
        let n = 16;
        let run = |sharing: bool| {
            let (graph, db) = world(3);
            let mut mux = QueryMux::new(MuxConfig {
                sharing,
                ..MuxConfig::default()
            })
            .unwrap();
            for i in 0..n {
                mux.register(avg_query(2.0 + i as f64, 2.0, 0.95)).unwrap();
            }
            let mut rng = ChaCha8Rng::seed_from_u64(4);
            for tick in 0..20 {
                let ctx = TickContext {
                    tick,
                    graph: &graph,
                    db: &db,
                    origin: NodeId(0),
                };
                mux.on_tick_mux(&ctx, &mut rng).unwrap();
            }
            mux.total_messages()
        };
        let shared = run(true);
        let unshared = run(false);
        // One rotating RPT panel for all sixteen against sixteen of them:
        // measured 0.066× (1 563 vs 23 693 messages); the bound is that
        // plus a 50 % margin.
        assert!(
            shared * 10 < unshared,
            "sharing must cut the cost tenfold: {shared} vs {unshared}"
        );
    }

    #[test]
    fn unshared_mode_matches_standalone_engines() {
        let n = 3;
        let queries: Vec<ContinuousQuery> = (0..n)
            .map(|i| avg_query(2.0 + i as f64, 2.0, 0.95))
            .collect();
        let config = MuxConfig {
            sharing: false,
            ..MuxConfig::default()
        };

        let (graph, db) = world(5);
        let mut mux = QueryMux::new(config).unwrap();
        for q in &queries {
            mux.register(q.clone()).unwrap();
        }
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let mut mux_stream = Vec::new();
        for tick in 0..15 {
            let ctx = TickContext {
                tick,
                graph: &graph,
                db: &db,
                origin: NodeId(0),
            };
            for o in mux.on_tick_mux(&ctx, &mut rng).unwrap() {
                mux_stream.push((o.query, o.outcome.estimate.to_bits()));
            }
        }

        let (graph, db) = world(5);
        let mut engines: Vec<DigestEngine> = queries
            .iter()
            .map(|q| DigestEngine::new(q.clone(), config.member).unwrap())
            .collect();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let mut engine_stream = Vec::new();
        for tick in 0..15 {
            let ctx = TickContext {
                tick,
                graph: &graph,
                db: &db,
                origin: NodeId(0),
            };
            for (i, e) in engines.iter_mut().enumerate() {
                let o = e.on_tick(&ctx, &mut rng).unwrap();
                engine_stream.push((i as u64, o.estimate.to_bits()));
            }
        }
        assert_eq!(mux_stream, engine_stream);
    }

    /// A shared mux checks its estimator tuning at construction, whichever
    /// estimator its rounds run: a pilot the cap cannot hold, or one too
    /// small to measure `σ̂`, is an error, not a round that cannot be
    /// sized.
    #[test]
    fn shared_mux_rejects_a_pilot_the_cap_cannot_hold() {
        for estimator in [EstimatorKind::Independent, EstimatorKind::Repeated] {
            for (pilot_size, max_samples) in [(50, 10), (1, 100)] {
                let config = MuxConfig {
                    member: EngineConfig {
                        estimator,
                        rpt: RptConfig {
                            pilot_size,
                            max_samples,
                            ..RptConfig::default()
                        },
                        ..EngineConfig::default()
                    },
                    ..MuxConfig::default()
                };
                assert!(
                    matches!(QueryMux::new(config), Err(CoreError::InvalidConfig { .. })),
                    "{estimator:?} pilot {pilot_size} cap {max_samples}"
                );
            }
        }
    }

    #[test]
    fn predicate_queries_share_the_panel() {
        let (graph, db) = world(7);
        let mut mux = QueryMux::new(MuxConfig::default()).unwrap();
        let plain = mux.register(avg_query(2.0, 2.0, 0.95)).unwrap();
        let schema = Schema::single("a");
        let filtered = mux
            .register(
                avg_query(2.0, 2.0, 0.9)
                    .with_predicate(Predicate::parse("a > 50", &schema).unwrap()),
            )
            .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let mut last = BTreeMap::new();
        for tick in 0..10 {
            let ctx = TickContext {
                tick,
                graph: &graph,
                db: &db,
                origin: NodeId(0),
            };
            for o in mux.on_tick_mux(&ctx, &mut rng).unwrap() {
                last.insert(o.query, o.outcome.estimate);
            }
        }
        assert!(mux.rounds() >= 1);
        let expr = Expr::first_attr(db.schema());
        let plain_truth = db.exact_avg(&expr).unwrap();
        let filtered_truth = db
            .exact_avg_where(&expr, &Predicate::parse("a > 50", &schema).unwrap())
            .unwrap();
        assert!((last[&plain] - plain_truth).abs() < 4.0);
        assert!(
            (last[&filtered] - filtered_truth).abs() < 4.0,
            "filtered {} vs {filtered_truth}",
            last[&filtered]
        );
    }

    #[test]
    fn deregister_removes_member_from_rounds() {
        let (graph, db) = world(9);
        let mut mux = QueryMux::new(MuxConfig::default()).unwrap();
        let a = mux.register(avg_query(2.0, 2.0, 0.95)).unwrap();
        let b = mux.register(avg_query(3.0, 2.0, 0.95)).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let ctx = TickContext {
            tick: 0,
            graph: &graph,
            db: &db,
            origin: NodeId(0),
        };
        assert_eq!(mux.on_tick_mux(&ctx, &mut rng).unwrap().len(), 2);
        mux.deregister(a);
        let ctx = TickContext {
            tick: 1,
            graph: &graph,
            db: &db,
            origin: NodeId(0),
        };
        let out = mux.on_tick_mux(&ctx, &mut rng).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].query, b);
        assert_eq!(mux.len(), 1);
    }

    #[test]
    fn sum_and_count_share_one_size_estimate() {
        let (graph, db) = world(11);
        let schema = Schema::single("a");
        let mut mux = QueryMux::new(MuxConfig {
            member: EngineConfig {
                size_sample_target: 2000,
                ..EngineConfig::default()
            },
            ..MuxConfig::default()
        })
        .unwrap();
        mux.register(ContinuousQuery::new(
            AggregateOp::Sum,
            Expr::first_attr(&schema),
            Precision::new(800.0, 400.0, 0.9).unwrap(),
        ))
        .unwrap();
        mux.register(ContinuousQuery::new(
            AggregateOp::Count,
            Expr::first_attr(&schema),
            Precision::new(60.0, 40.0, 0.9).unwrap(),
        ))
        .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let ctx = TickContext {
            tick: 0,
            graph: &graph,
            db: &db,
            origin: NodeId(0),
        };
        let out = mux.on_tick_mux(&ctx, &mut rng).unwrap();
        let sum_truth = db.exact_sum(&Expr::first_attr(db.schema())).unwrap();
        let count_truth = db.exact_count() as f64;
        assert!(
            (out[0].outcome.estimate - sum_truth).abs() / sum_truth < 0.5,
            "SUM {} vs {sum_truth}",
            out[0].outcome.estimate
        );
        assert!(
            (out[1].outcome.estimate - count_truth).abs() / count_truth < 0.5,
            "COUNT {} vs {count_truth}",
            out[1].outcome.estimate
        );
    }

    #[test]
    fn idle_ticks_cost_nothing_in_shared_mode() {
        let (graph, db) = world(13);
        let mut mux = QueryMux::new(MuxConfig::default()).unwrap();
        mux.register(avg_query(16.0, 4.0, 0.9)).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let mut idle_seen = false;
        for tick in 0..25 {
            let ctx = TickContext {
                tick,
                graph: &graph,
                db: &db,
                origin: NodeId(0),
            };
            let out = mux.on_tick_mux(&ctx, &mut rng).unwrap();
            if !out[0].outcome.snapshot_executed {
                idle_seen = true;
                assert_eq!(out[0].outcome.messages_this_tick, 0);
            }
        }
        assert!(idle_seen, "a steady signal must produce idle ticks");
    }

    /// A relation emptied mid-run: the three members due at that tick
    /// hold (an occasion counted, the size round's messages split among
    /// them, the remainder one each to the first), the two scheduled later
    /// idle. The
    /// RPT panel's revisit finds every tuple gone and its lost probes are
    /// dropped with the failed draw; what the
    /// size round costs depends on the randomness the warm-up rounds drew.
    #[test]
    fn emptied_relation_holds_due_members_and_idles_the_rest() {
        for (estimator, size_round) in [
            (EstimatorKind::Independent, 2729),
            (EstimatorKind::Repeated, 2729),
        ] {
            emptied_relation_holds(estimator, size_round);
        }
    }

    fn emptied_relation_holds(estimator: EstimatorKind, size_round: u64) {
        let (graph, mut db) = world(15);
        let mut mux = QueryMux::new(MuxConfig {
            member: EngineConfig {
                estimator,
                ..EngineConfig::default()
            },
            ..MuxConfig::default()
        })
        .unwrap();
        let early = [
            mux.register(avg_query(16.0, 4.0, 0.9)).unwrap(),
            mux.register(avg_query(12.0, 4.0, 0.9)).unwrap(),
        ];
        let mut rng = ChaCha8Rng::seed_from_u64(16);
        let tick = |mux: &mut QueryMux, db: &P2PDatabase, tick, rng: &mut ChaCha8Rng| {
            let ctx = TickContext {
                tick,
                graph: &graph,
                db,
                origin: NodeId(0),
            };
            mux.on_tick_mux(&ctx, rng).unwrap()
        };
        // Warm up until the next tick is one neither early member is due at.
        let mut emptied_at = 0;
        while emptied_at < 8 || mux.next_due(emptied_at).is_none_or(|d| d <= emptied_at) {
            tick(&mut mux, &db, emptied_at, &mut rng);
            emptied_at += 1;
            assert!(emptied_at < 200, "the early members never skip a tick");
        }
        let before: Vec<u64> = early
            .iter()
            .map(|&id| mux.query_totals(id).unwrap().snapshots)
            .collect();

        let doomed: Vec<_> = db.iter().map(|(handle, _)| handle).collect();
        for handle in doomed {
            db.delete(handle).unwrap();
        }
        let schema = Schema::single("a");
        let sum = ContinuousQuery::new(
            AggregateOp::Sum,
            Expr::first_attr(&schema),
            Precision::new(800.0, 400.0, 0.9).unwrap(),
        );
        let late = [
            mux.register(avg_query(2.0, 2.0, 0.95)).unwrap(),
            mux.register(sum).unwrap(),
            mux.register(avg_query(4.0, 2.0, 0.9)).unwrap(),
        ];
        let out = tick(&mut mux, &db, emptied_at, &mut rng);

        let seen: Vec<(u64, bool, u64, bool)> = out
            .iter()
            .map(|o| {
                (
                    o.query,
                    o.outcome.snapshot_executed,
                    o.outcome.messages_this_tick,
                    o.round.is_some(),
                )
            })
            .collect();
        let (share, remainder) = (size_round / 3, size_round % 3);
        assert_eq!(
            seen,
            [
                (early[0], false, 0, false),
                (early[1], false, 0, false),
                (late[0], true, share + u64::from(remainder > 0), true),
                (late[1], true, share + u64::from(remainder > 1), true),
                (late[2], true, share, true),
            ],
            "{estimator:?}"
        );
        assert!(out
            .iter()
            .all(|o| !o.outcome.updated && o.outcome.samples_this_tick == 0));
        for (&id, snapshots) in early.iter().zip(before) {
            assert_eq!(mux.query_totals(id).unwrap().snapshots, snapshots);
        }
        for (&id, o) in late.iter().zip(&out[2..]) {
            let totals = mux.query_totals(id).unwrap();
            assert_eq!(
                (totals.messages, totals.snapshots),
                (o.outcome.messages_this_tick, 1)
            );
        }
    }

    /// What one member has folded of a CLT round's panel so far: the
    /// oracle's own tally, independent of the estimator's CLT loop.
    #[derive(Debug, Default)]
    struct RoundTally {
        moments: RunningMoments,
        qualifying: u64,
        drawn: u64,
    }

    impl RoundTally {
        /// The member's answer, for finishing its occasion.
        fn draw(&self) -> ClassAnswer {
            ClassAnswer {
                estimate: self.moments.mean(),
                qualifying: self.qualifying,
                fresh_qualifying: self.qualifying,
                ..ClassAnswer::default()
            }
        }

        /// The member's first-occasion `(estimate, its variance, σ̂)` for
        /// the RPT panel the round seeds, when anything answered.
        fn first(&self) -> Option<(f64, f64, f64)> {
            let n = self.moments.count();
            (n > 0).then(|| {
                let m = &self.moments;
                (m.mean(), m.sample_variance() / n as f64, m.sample_std())
            })
        }
    }

    fn find(members: &[Member], id: u64) -> Option<&Member> {
        members.iter().find(|q| q.id == id)
    }

    /// Eq. 6 per-member sizing as the mux wrote it before the one CLT
    /// loop: qualifying-sample target given the in-round σ̂.
    fn member_target(config: &EngineConfig, q: &Member, tally: &RoundTally) -> Result<u64> {
        let pilot = config.rpt.pilot_size.max(2);
        let sigma = if tally.moments.count() >= pilot as u64 {
            Some(tally.moments.sample_std())
        } else {
            None
        };
        let target = match sigma {
            Some(s) => digest_stats::required_sample_size(
                s,
                q.query.precision.epsilon,
                q.query.precision.confidence,
            )?
            .clamp(pilot, config.rpt.max_samples),
            None => pilot,
        };
        Ok(target as u64)
    }

    /// The round as it was before question classes, reading due-ness
    /// from each member's `deadline`: id lists looked up one by one, one
    /// private tally per panel member — in RPT rounds one estimator class
    /// per panel member — every sampled row pushed into each of them,
    /// every finalisation spelt out, and the O(members × due) hold path.
    /// The oracle `Round::tick` is held to.
    #[allow(clippy::too_many_lines)]
    fn shared_tick_per_member(
        state: &mut Round,
        members: &mut [Member],
        ctx: &TickContext<'_>,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<MuxQueryOutcome>> {
        let config = &state.config.clone();
        let idle = |members: &[Member]| {
            members
                .iter()
                .map(|q| MuxQueryOutcome {
                    query: q.id,
                    outcome: TickOutcome::idle(q.report.current),
                    trace: q.trace,
                    round: None,
                })
                .collect::<Vec<_>>()
        };
        if members.is_empty() {
            return Ok(Vec::new());
        }
        let due: Vec<u64> = members
            .iter()
            .filter(|q| q.is_due(ctx.tick))
            .map(|q| q.id)
            .collect();
        if due.is_empty() {
            return Ok(idle(members));
        }

        // A round fires. Allocate its causal trace first so the sampling
        // events below parent to the round, then one id per member (ascending
        // id order — deterministic regardless of telemetry enablement).
        let round_trace = digest_telemetry::begin_trace();
        digest_telemetry::set_trace(round_trace);
        let _round_span = digest_telemetry::span(Stage::EngineTick);

        let participants: Vec<u64> = members.iter().map(|q| q.id).collect();
        // Sweep-served members (DESIGN.md §17) are answered by per-member
        // node sweeps, not the shared tuple panel; CLT sizing, the size
        // refresh, and the round-cost split cover panel members only.
        let panel_members: Vec<u64> = participants
            .iter()
            .copied()
            .filter(|id| find(&*members, *id).is_some_and(|q| !q.query.op.is_sketch()))
            .collect();

        let mut size = 0u64;
        let needs_size = panel_members.iter().any(|id| {
            find(&*members, *id).is_some_and(|q| !matches!(q.query.op, AggregateOp::Avg))
        });
        if needs_size && state.size.is_stale(config.size_refresh_interval) {
            size = state.size.refresh(ctx, config.size_sample_target, rng)?;
        }

        // RPT rounds ask the estimator one question per panel member —
        // coinciding ones included — so it keeps one class per member.
        let member_questions: Vec<Question<'_>> = panel_members
            .iter()
            .filter_map(|&id| find(&*members, id))
            .map(|q| (&q.query.expr, &q.query.predicate))
            .collect();
        let mut draws: BTreeMap<u64, ClassAnswer> = BTreeMap::new();
        let (mut samples, mut fresh) = (0u64, 0u64);
        let mut split = MessageSplit::default();
        let mut empty_database = false;
        let eval_span = digest_telemetry::span(Stage::EstimatorEval);
        let repeated = state
            .rpt
            .as_mut()
            .is_some_and(|rpt| rpt.align(&member_questions));
        if let Some(rpt) = state.rpt.as_mut().filter(|_| repeated) {
            let demands = panel_members
                .iter()
                .enumerate()
                .filter_map(|(i, id)| find(&*members, *id).map(|q| (i, &q.query.precision)));
            match rpt.occasion(ctx, &member_questions, demands, &mut state.operator, rng) {
                Ok(occasion) => {
                    for (i, &id) in panel_members.iter().enumerate() {
                        draws.insert(id, rpt.answer(i));
                    }
                    (samples, fresh) = (occasion.revisited + occasion.fresh, occasion.fresh);
                    split = occasion.messages;
                }
                Err(CoreError::Sampling(digest_sampling::SamplingError::EmptyDatabase)) => {
                    empty_database = true;
                }
                Err(other) => return Err(other),
            }
        } else {
            // --- Draw the shared panel: sequential CLT sizing at the
            // maximum member requirement (Eq. 6), one batch per loop (one
            // occasion seed, one join through the parallel executor);
            // with RPT on, the draws seed its panel. ---
            let any_nontrivial = panel_members
                .iter()
                .any(|id| find(&*members, *id).is_some_and(|q| !q.query.predicate.is_trivial()));
            let max_draws = if any_nontrivial {
                config.rpt.max_samples.saturating_mul(4)
            } else {
                config.rpt.max_samples
            };
            let mut tallies: BTreeMap<u64, RoundTally> = panel_members
                .iter()
                .map(|&id| (id, RoundTally::default()))
                .collect();
            let mut seed = state.rpt.is_some().then_some(&mut state.seed);
            if let Some(panel) = seed.as_deref_mut() {
                panel.reset(panel_members.len());
            }
            let mut drawn = 0u64;
            state.operator.begin_occasion();
            'rounds: loop {
                let mut want = 0usize;
                for &id in &panel_members {
                    let (Some(q), Some(tally)) = (find(&*members, id), tallies.get(&id)) else {
                        continue;
                    };
                    let target = member_target(config, q, tally)?;
                    let have = tally.moments.count();
                    if have >= target {
                        continue;
                    }
                    let sel = if q.query.predicate.is_trivial() {
                        1.0
                    } else {
                        q.selectivity.smoothed()
                    };
                    let headroom =
                        max_draws.saturating_sub(usize::try_from(drawn).unwrap_or(usize::MAX));
                    want = want.max(crate::report::draws_for_deficit(
                        target - have,
                        sel,
                        headroom,
                    ));
                }
                if want == 0 {
                    break;
                }
                let batch = match state
                    .operator
                    .sample_batch(ctx.graph, ctx.db, ctx.origin, want, rng)
                {
                    Ok(batch) => batch,
                    // A transiently empty relation is a live condition (§V):
                    // hold every due member and retry next tick.
                    Err(digest_sampling::SamplingError::EmptyDatabase) => {
                        empty_database = true;
                        break 'rounds;
                    }
                    Err(other) => return Err(other.into()),
                };
                for (handle, tuple, cost) in batch.iter() {
                    split.walk += cost.walk_messages;
                    split.report += cost.report_messages;
                    drawn += 1;
                    for &id in &panel_members {
                        let (Some(q), Some(tally)) = (find(&*members, id), tallies.get_mut(&id))
                        else {
                            continue;
                        };
                        tally.drawn += 1;
                        let value = if !q.query.predicate.is_trivial()
                            && !q.query.predicate.eval(tuple).unwrap_or(false)
                        {
                            None
                        } else {
                            Some(q.query.expr.eval(tuple)?).filter(|v| v.is_finite())
                        };
                        if let Some(panel) = seed.as_deref_mut() {
                            panel.stage(value);
                        }
                        if let Some(value) = value {
                            tally.moments.push(value);
                            tally.qualifying += 1;
                        }
                    }
                    if let Some(panel) = seed.as_deref_mut() {
                        panel.commit(handle);
                    }
                }
            }
            if let (Some(rpt), false) = (state.rpt.as_mut(), empty_database) {
                let firsts = panel_members
                    .iter()
                    .map(|id| tallies.get(id).and_then(RoundTally::first));
                rpt.seed(&mut state.seed, firsts);
            }
            for (id, tally) in &tallies {
                draws.insert(*id, tally.draw());
            }
            (samples, fresh) = (drawn, drawn);
        }
        drop(eval_span);
        let round_messages = split.total() + size;

        if empty_database {
            // Hold: due members count an (empty) occasion and retry next
            // tick; everyone else idles. Messages spent so far are split
            // across due members.
            let mut out = Vec::with_capacity(members.len());
            let m = due.len().max(1) as u64;
            let share = round_messages / m;
            let remainder = round_messages % m;
            for (i, &id) in due.iter().enumerate() {
                if let Some(q) = members.iter_mut().find(|q| q.id == id) {
                    let messages = share + u64::from((i as u64) < remainder);
                    q.totals.messages += messages;
                    q.totals.snapshots += 1;
                    q.deadline = Some(ctx.tick + 1);
                }
            }
            state.rounds += 1;
            state.last_round_trace = round_trace;
            for q in &*members {
                let id = q.id;
                let is_due = due.contains(&id);
                out.push(MuxQueryOutcome {
                    query: id,
                    outcome: TickOutcome {
                        estimate: q.report.current,
                        updated: false,
                        snapshot_executed: is_due,
                        samples_this_tick: 0,
                        fresh_samples_this_tick: 0,
                        messages_this_tick: if is_due {
                            let i = due.iter().position(|&d| d == id).unwrap_or(0);
                            share + u64::from((i as u64) < remainder)
                        } else {
                            0
                        },
                    },
                    trace: q.trace,
                    round: is_due.then_some(round_trace),
                });
            }
            return Ok(out);
        }

        // --- Per-member finalisation in ascending id order: attribute the
        // round cost, apply each member's δ-semantics, reschedule (§IV-A).
        // Panel members split the shared round cost evenly; sweep-served
        // members pay exactly their own fresh-node pulls (DESIGN.md §17). ---
        let m = panel_members.len().max(1) as u64;
        let share = round_messages / m;
        let remainder = round_messages % m;
        let mut panel_index = 0u64;
        let mut finalized: BTreeMap<u64, MuxQueryOutcome> = BTreeMap::new();
        for &id in &participants {
            let Some(q) = members.iter_mut().find(|q| q.id == id) else {
                continue;
            };
            q.trace = digest_telemetry::begin_trace();
            digest_telemetry::set_trace(q.trace);

            // Sweep path (DESIGN.md §17): one deterministic node sweep per
            // occasion, retained members free, δ-semantics as usual.
            let (snapshot, messages) = if let Some(sketch) = q.sketch.as_mut() {
                let snap = sketch.sweep(ctx.db, &q.query.expr, &q.query.predicate)?;
                (snap.into(), snap.messages)
            } else {
                let draw = draws.get(&id).copied().unwrap_or_default();
                let messages = share + u64::from(panel_index < remainder);
                panel_index += 1;

                // Transiently empty qualifying sub-population for a started
                // AVG: hold the previous result, still reschedule (engine
                // semantics).
                let trivial = q.query.predicate.is_trivial();
                let snapshot = if draw.qualifying == 0
                    && !trivial
                    && matches!(q.query.op, AggregateOp::Avg)
                    && q.started
                {
                    Snapshot::Hold { samples, fresh }
                } else {
                    let selectivity = if trivial {
                        1.0
                    } else {
                        q.selectivity
                            .update(draw.fresh_qualifying as f64, fresh as f64)
                    };
                    Snapshot::Value {
                        value: scale(
                            q.query.op,
                            draw.estimate,
                            selectivity,
                            state.size.estimate(),
                        ),
                        samples,
                        fresh,
                    }
                };
                (snapshot, messages)
            };

            let (outcome, delay) = finish(
                &mut q.report,
                &mut *q.scheduler,
                ctx.tick,
                q.query.precision.delta,
                snapshot,
                messages,
            )?;
            q.deadline = Some(ctx.tick + delay);
            q.totals.messages += messages;
            q.totals.samples += outcome.samples_this_tick;
            q.totals.snapshots += 1;
            let reported = matches!(snapshot, Snapshot::Value { .. });
            q.started |= reported;
            if reported || q.sketch.is_some() {
                emit_snapshot("MUX", &outcome);
            }
            finalized.insert(
                id,
                MuxQueryOutcome {
                    query: id,
                    outcome,
                    trace: q.trace,
                    round: Some(round_trace),
                },
            );
        }

        // The round's own event, under the round's trace id.
        digest_telemetry::set_trace(round_trace);
        if digest_telemetry::events_enabled() {
            digest_telemetry::emit(
                "mux.round",
                &[
                    ("members", Field::U64(participants.len() as u64)),
                    ("due", Field::U64(due.len() as u64)),
                    ("panel", Field::U64(samples)),
                    ("fresh", Field::U64(fresh)),
                    ("messages", Field::U64(round_messages)),
                    ("walk", Field::U64(split.walk)),
                    ("report", Field::U64(split.report)),
                    ("revisit", Field::U64(split.revisit)),
                    ("lost", Field::U64(split.lost)),
                    ("size", Field::U64(size)),
                    ("peers", Field::U64(split.peers)),
                ],
            );
        }
        state.rounds += 1;
        state.size.served_occasion();
        state.last_round_trace = round_trace;

        let out = members
            .iter()
            .map(|q| {
                finalized.remove(&q.id).unwrap_or(MuxQueryOutcome {
                    query: q.id,
                    outcome: TickOutcome::idle(q.report.current),
                    trace: q.trace,
                    round: None,
                })
            })
            .collect();
        Ok(out)
    }

    /// Outcome fields that do not depend on the process-wide trace
    /// counter (which the two muxes — and every other test of this
    /// binary — draw from): the ids themselves cannot match, whether a
    /// new one was taken this tick can.
    fn comparable(
        outcomes: &[MuxQueryOutcome],
        previous: &mut BTreeMap<u64, u64>,
    ) -> Vec<[u64; 9]> {
        outcomes
            .iter()
            .map(|o| {
                let before = previous.insert(o.query, o.trace).unwrap_or(0);
                [
                    o.query,
                    o.outcome.estimate.to_bits(),
                    u64::from(o.outcome.updated),
                    u64::from(o.outcome.snapshot_executed),
                    o.outcome.samples_this_tick,
                    o.outcome.fresh_samples_this_tick,
                    o.outcome.messages_this_tick,
                    u64::from(o.round.is_some()),
                    u64::from(o.trace != before),
                ]
            })
            .collect()
    }

    /// Two attributes, 6 nodes × 12 tuples.
    fn two_attribute_world(
        rng: &mut ChaCha8Rng,
    ) -> (Graph, P2PDatabase, Vec<digest_db::TupleHandle>) {
        let graph = topology::complete(6).unwrap();
        let mut db = P2PDatabase::new(Schema::new(["a", "b"]));
        let mut handles = Vec::new();
        for v in 0..6 {
            db.register_node(NodeId(v));
            for _ in 0..12 {
                let row = vec![
                    50.0 + rng.gen_range(-8.0..8.0),
                    10.0 + rng.gen_range(-3.0..3.0),
                ];
                handles.push(db.insert(NodeId(v), Tuple::new(row)).unwrap());
            }
        }
        (graph, db, handles)
    }

    /// One tick of the two-attribute world: every row drifts; at
    /// `empty_at` the relation is emptied, two ticks later refilled.
    fn drift_world(
        tick: u64,
        empty_at: u64,
        db: &mut P2PDatabase,
        handles: &mut Vec<digest_db::TupleHandle>,
        world_rng: &mut ChaCha8Rng,
    ) {
        if tick == empty_at {
            for h in handles.drain(..) {
                db.delete(h).unwrap();
            }
        } else if tick == empty_at + 2 {
            for v in 0..6 {
                for _ in 0..12 {
                    let row = vec![
                        52.0 + world_rng.gen_range(-8.0..8.0),
                        9.0 + world_rng.gen_range(-3.0..3.0),
                    ];
                    handles.push(db.insert(NodeId(v), Tuple::new(row)).unwrap());
                }
            }
        }
        for &h in handles.iter() {
            let row = db.read(h).unwrap();
            let (a, b) = (row.value(0).unwrap(), row.value(1).unwrap());
            let drift = [
                a + 0.3 + world_rng.gen_range(-0.5..0.5),
                b + world_rng.gen_range(-0.2..0.2),
            ];
            db.update(h, &drift).unwrap();
        }
    }

    /// The member a `(expression, predicate, contract, op)` draw names:
    /// 3 expressions × 3 predicates (one trivial), four contracts.
    fn drawn_member(spec: (usize, usize, usize, usize)) -> ContinuousQuery {
        let schema = Schema::new(["a", "b"]);
        let (expr, predicate, contract, op) = spec;
        let expr = Expr::parse(["a", "b", "a + b"][expr], &schema).unwrap();
        let (delta, epsilon, p) = [
            (2.0, 1.5, 0.95),
            (1.0, 1.0, 0.9),
            (4.0, 2.0, 0.9),
            (3.0, 1.0, 0.95),
        ][contract];
        let (op, scale) = match op {
            0..=5 => (AggregateOp::Avg, 1.0),
            6 => (AggregateOp::Sum, 80.0),
            7 => (AggregateOp::Count, 20.0),
            _ => (AggregateOp::Percentile { q_permille: 900 }, 1.0),
        };
        let precision = Precision::new(delta * scale, epsilon * scale, p).unwrap();
        let query = ContinuousQuery::new(op, expr, precision);
        match predicate {
            0 => query,
            1 => query.with_predicate(Predicate::parse("a > 50", &schema).unwrap()),
            _ => query.with_predicate(Predicate::parse("b < 10", &schema).unwrap()),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// One fold per question class ≡ one fold per member, for RPT
        /// rounds (one estimator class per class ≡ one per member) and
        /// INDEP rounds alike: 30 ticks on a drifting two-attribute world
        /// (emptied for two ticks in most cases, so the hold path and the
        /// RPT panel's reseeding run too), members arriving and leaving
        /// between rounds, a `SUM`, a `COUNT` and a sketch-served member
        /// always aboard.
        #[test]
        fn question_class_tallies_replay_per_member_tallies(
            seed in 0u64..u64::MAX,
            members in prop::collection::vec((0usize..3, 0usize..3, 0usize..4, 0usize..6), 2..10),
            empty_at in 2u64..40,
            independent in 0u8..2,
        ) {
            let mut world_rng = ChaCha8Rng::seed_from_u64(seed);
            let (graph, mut db, mut handles) = two_attribute_world(&mut world_rng);
            let config = MuxConfig {
                member: EngineConfig {
                    size_refresh_interval: 3,
                    size_sample_target: 64,
                    estimator: if independent == 1 {
                        EstimatorKind::Independent
                    } else {
                        EstimatorKind::Repeated
                    },
                    ..EngineConfig::default()
                },
                ..MuxConfig::default()
            };
            let mut classed = QueryMux::new(config).unwrap();
            let mut per_member = QueryMux::new(config).unwrap();
            let fixed = [(0, 0, 0, 6), (2, 1, 1, 7), (1, 0, 2, 8)];
            for &spec in members.iter().chain(&fixed) {
                classed.register(drawn_member(spec)).unwrap();
                per_member.register(drawn_member(spec)).unwrap();
            }
            let mut classed_rng = ChaCha8Rng::seed_from_u64(seed ^ 0xD1);
            let mut per_member_rng = classed_rng.clone();
            let (mut classed_traces, mut per_member_traces) = (BTreeMap::new(), BTreeMap::new());

            for tick in 0..30 {
                drift_world(tick, empty_at, &mut db, &mut handles, &mut world_rng);
                // Members leave and arrive between rounds.
                match world_rng.gen_range(0..6) {
                    0 => {
                        let ids = classed.query_ids();
                        let id = ids[world_rng.gen_range(0..ids.len())];
                        if ids.len() > 1 {
                            classed.deregister(id);
                            per_member.deregister(id);
                        }
                    }
                    1 => {
                        let spec = (
                            world_rng.gen_range(0..3),
                            world_rng.gen_range(0..3),
                            world_rng.gen_range(0..4),
                            world_rng.gen_range(0..9),
                        );
                        classed.register(drawn_member(spec)).unwrap();
                        per_member.register(drawn_member(spec)).unwrap();
                    }
                    _ => {}
                }

                let ctx = TickContext { tick, graph: &graph, db: &db, origin: NodeId(0) };
                let got = classed.on_tick_mux(&ctx, &mut classed_rng).unwrap();
                let Mode::Shared(state, members) = &mut per_member.mode else {
                    unreachable!("sharing is on");
                };
                let want = shared_tick_per_member(state, members, &ctx, &mut per_member_rng).unwrap();
                prop_assert_eq!(
                    comparable(&got, &mut classed_traces),
                    comparable(&want, &mut per_member_traces),
                    "tick {}", tick
                );
                for id in classed.query_ids() {
                    let (a, b) = (classed.query_totals(id).unwrap(), per_member.query_totals(id).unwrap());
                    prop_assert_eq!(
                        (a.messages, a.samples, a.snapshots),
                        (b.messages, b.samples, b.snapshots)
                    );
                }
            }
            prop_assert_eq!(classed.rounds(), per_member.rounds());
            prop_assert_eq!(classed_rng.next_u64(), per_member_rng.next_u64());
        }

        /// The round rule, seen from outside: 40 dense ticks on the
        /// drifting world (emptied for two of them), arbitrary contracts,
        /// members arriving unscheduled. A member is served no later than
        /// the deadline its last occasion set; a tick on which nobody is
        /// due is idle for everyone and draws nothing from the RNG; and
        /// the `next_due` hint is the earliest deadline while that is
        /// still ahead, dense otherwise. (Four cases in five have idle
        /// ticks; a δ below the drift keeps some member due every tick.)
        #[test]
        fn someone_is_due_everyone_is_served(
            seed in 0u64..u64::MAX,
            members in prop::collection::vec((0usize..3, 0usize..3, 0usize..4, 0usize..9), 1..8),
            empty_at in 2u64..50,
        ) {
            let mut world_rng = ChaCha8Rng::seed_from_u64(seed);
            let (graph, mut db, mut handles) = two_attribute_world(&mut world_rng);
            let mut mux = QueryMux::new(MuxConfig::default()).unwrap();
            for &spec in &members {
                mux.register(drawn_member(spec)).unwrap();
            }
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xD2);
            let deadlines = |mux: &QueryMux| -> Vec<(u64, Option<u64>)> {
                let Mode::Shared(_, members) = &mux.mode else {
                    unreachable!("sharing is on");
                };
                members.iter().map(|q| (q.id, q.deadline)).collect()
            };
            let mut rounds = 0u64;

            for tick in 0..40 {
                drift_world(tick, empty_at, &mut db, &mut handles, &mut world_rng);
                if world_rng.gen_range(0..8) == 0 {
                    let spec = (
                        world_rng.gen_range(0..3),
                        world_rng.gen_range(0..3),
                        world_rng.gen_range(0..4),
                        world_rng.gen_range(0..9),
                    );
                    mux.register(drawn_member(spec)).unwrap();
                }

                let before = deadlines(&mux);
                let someone_due = before.iter().any(|(_, d)| d.is_none_or(|d| d <= tick));
                let rng_before = rng.clone();
                let ctx = TickContext { tick, graph: &graph, db: &db, origin: NodeId(0) };
                let out = mux.on_tick_mux(&ctx, &mut rng).unwrap();
                prop_assert_eq!(out.len(), before.len());

                if someone_due {
                    rounds += 1;
                } else {
                    prop_assert_eq!(rng.clone().next_u64(), rng_before.clone().next_u64());
                }
                for (o, &(id, deadline)) in out.iter().zip(&before) {
                    prop_assert_eq!(o.query, id);
                    let overdue = deadline.is_none_or(|d| d <= tick);
                    // Due ⇒ served at this tick, which is no later than
                    // the deadline because every earlier tick ran too.
                    prop_assert!(
                        o.outcome.snapshot_executed || !overdue,
                        "tick {}: member {} idled past its deadline {:?}", tick, id, deadline
                    );
                    if !someone_due {
                        prop_assert!(!o.outcome.snapshot_executed && !o.outcome.updated);
                        prop_assert_eq!(
                            (o.outcome.messages_this_tick, o.outcome.samples_this_tick, o.round),
                            (0, 0, None)
                        );
                    }
                }

                // A round leaves every member scheduled ahead of it.
                let after = deadlines(&mux);
                prop_assert!(!someone_due || after.iter().all(|(_, d)| d.is_some_and(|d| d > tick)));
                let earliest = after.iter().map(|&(_, d)| d).min().flatten();
                prop_assert_eq!(mux.next_due(tick), earliest.filter(|&d| d > tick));
            }
            prop_assert_eq!(mux.rounds(), rounds);
            prop_assert!(rounds > 0);
        }
    }
}
