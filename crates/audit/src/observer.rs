//! The bundled per-query audit observer.
//!
//! [`QueryAudit`] is the one-stop [`TickObserver`] a driver attaches to an
//! audited run: per tick it feeds the message-cost ledger and the
//! pointwise resolution check, per reporting occasion it feeds the
//! guarantee auditor, and at end of run it folds everything into a single
//! [`AuditReport`].

use crate::auditor::{AuditReport, Auditor, AuditorConfig};
use crate::ledger::{LedgerTotals, MessageLedger};
use crate::Result;
use digest_core::{ContinuousQuery, MuxObserver, TickContext, TickObserver, TickOutcome};
use std::collections::BTreeMap;

/// What one query's audit holds besides the ledger: the occasion auditor,
/// the pointwise resolution check and the run's tallies.
#[derive(Debug)]
struct Verdict {
    auditor: Auditor,
    query: String,
    delta: f64,
    epsilon: f64,
    relative_epsilon: bool,
    digest_messages: u64,
    ticks: u64,
    resolution_violations: u64,
    started: bool,
}

impl Verdict {
    /// As for [`QueryAudit::new`], without the ledger.
    fn new(query: &ContinuousQuery, query_index: u64) -> Result<Self> {
        // Kind-specific ε-semantics (DESIGN.md §17): `COUNT DISTINCT`
        // promises a relative half-width; everything else keeps the
        // paper's absolute §II contract.
        let relative_epsilon = query.op.uses_relative_epsilon();
        let auditor = Auditor::new(AuditorConfig {
            delta: query.precision.delta,
            epsilon: query.precision.epsilon,
            confidence: query.precision.confidence,
            query_index,
            relative_epsilon,
        })?;
        Ok(Self {
            auditor,
            query: query.to_string(),
            delta: query.precision.delta,
            epsilon: query.precision.epsilon,
            relative_epsilon,
            digest_messages: 0,
            ticks: 0,
            resolution_violations: 0,
            started: false,
        })
    }

    /// The end-of-run report, with the ledger's baseline totals.
    fn report(&self, totals: LedgerTotals) -> AuditReport {
        self.auditor.report(
            self.query.clone(),
            self.ticks,
            self.digest_messages,
            totals.all_messages,
            totals.filter_messages,
            self.resolution_violations,
        )
    }

    /// Folds one tick's outcome in (the ledger is the caller's).
    fn observe(
        &mut self,
        ctx: &TickContext<'_>,
        outcome: &TickOutcome,
        exact: f64,
        round: Option<u64>,
    ) {
        self.ticks += 1;
        self.digest_messages += outcome.messages_this_tick;
        if outcome.snapshot_executed {
            self.started = true;
            self.auditor.observe_occasion_in_round(
                ctx.tick,
                outcome.estimate,
                exact,
                outcome.samples_this_tick,
                outcome.messages_this_tick,
                round,
            );
        }
        // Pointwise resolution check (paper §II): between occasions the
        // *reported* result may lag the truth by at most δ + ε (with ε
        // scaled per the kind's semantics — DESIGN.md §17). Only
        // meaningful once the system has produced its first report.
        let eps_band = if self.relative_epsilon {
            self.epsilon * exact.abs().max(1.0)
        } else {
            self.epsilon
        };
        // A NaN lag is a miss, as on the occasion leg.
        let lag = (outcome.estimate - exact).abs();
        if self.started && (lag > self.delta + eps_band || lag.is_nan()) {
            self.resolution_violations += 1;
        }
    }
}

/// The ledger of `query`: its expression and predicate under a filter of
/// half-width ε.
fn ledger_for(query: &ContinuousQuery) -> MessageLedger {
    MessageLedger::new(
        query.expr.clone(),
        query.predicate.clone(),
        query.precision.epsilon,
    )
}

/// Full guarantee audit of one continuous query over one run.
#[derive(Debug)]
pub struct QueryAudit {
    verdict: Verdict,
    ledger: MessageLedger,
}

impl QueryAudit {
    /// Builds the audit for `query`; `query_index` distinguishes events
    /// of concurrent queries in one run.
    ///
    /// # Errors
    ///
    /// As for [`Auditor::new`].
    pub fn new(query: &ContinuousQuery, query_index: u64) -> Result<Self> {
        Ok(Self {
            verdict: Verdict::new(query, query_index)?,
            ledger: ledger_for(query),
        })
    }

    /// Freezes the audit into its end-of-run report.
    #[must_use]
    pub fn report(&self) -> AuditReport {
        self.verdict.report(self.ledger.totals())
    }

    /// Observes one tick, optionally attributing the occasion to a
    /// coalesced multi-query sampling round (the round's trace id lands
    /// on the emitted `audit.occasion` event). [`TickObserver::observe`]
    /// is this with `round = None`.
    pub fn observe_with_round(
        &mut self,
        ctx: &TickContext<'_>,
        outcome: &TickOutcome,
        exact: f64,
        round: Option<u64>,
    ) {
        self.ledger.observe(ctx.db);
        self.verdict.observe(ctx, outcome, exact, round);
    }
}

impl TickObserver for QueryAudit {
    fn observe(&mut self, ctx: &TickContext<'_>, outcome: &TickOutcome, exact: f64) {
        self.observe_with_round(ctx, outcome, exact, None);
    }
}

/// One member of a [`MuxAudit`].
#[derive(Debug)]
struct Member {
    verdict: Verdict,
    /// Index of the member's ledger in `MuxAudit::ledgers`.
    ledger: usize,
    /// The ledger's totals as of the member's latest tick.
    totals: LedgerTotals,
}

/// Guarantee audit of a whole multiplexed run: each member query gets
/// what a [`QueryAudit`] of its own would report, driven through the
/// [`MuxObserver`] seam so every member gets its own `audit.occasion`
/// stream (own ε-violation and resolution accounting against its own
/// `(δ, ε, p)` contract), with occasions served from coalesced rounds
/// causally parented to the round's trace id.
///
/// Members that ask the same filter — equal expression, predicate and ε
/// — and are registered before its ledger observes a tick share that
/// ledger, which the first of them to be observed in a tick advances:
/// one ledger pass a tick per distinct filter, not per member. Each
/// member keeps the totals as of its own latest tick, so one that stops
/// being observed reports what a ledger of its own would have counted. A
/// member is observed every tick from its registration until it leaves.
#[derive(Debug, Default)]
pub struct MuxAudit {
    members: BTreeMap<u64, Member>,
    ledgers: Vec<MessageLedger>,
}

impl MuxAudit {
    /// An audit with no members yet.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches an audit for member `id` (the mux's query id, also used
    /// as the `query` index stamped on events).
    ///
    /// # Errors
    ///
    /// As for [`QueryAudit::new`].
    pub fn register(&mut self, id: u64, query: &ContinuousQuery) -> Result<()> {
        let verdict = Verdict::new(query, id)?;
        let shared = self.ledgers.iter().position(|ledger| {
            ledger.totals().ticks == 0
                && ledger.has_filter(&query.expr, &query.predicate, query.precision.epsilon)
        });
        let ledger = shared.unwrap_or_else(|| {
            self.ledgers.push(ledger_for(query));
            self.ledgers.len() - 1
        });
        let totals = LedgerTotals::default();
        self.members.insert(
            id,
            Member {
                verdict,
                ledger,
                totals,
            },
        );
        Ok(())
    }

    /// End-of-run reports for every member, ascending by id.
    #[must_use]
    pub fn reports(&self) -> Vec<(u64, AuditReport)> {
        self.members
            .iter()
            .map(|(&id, member)| (id, member.verdict.report(member.totals)))
            .collect()
    }
}

impl MuxObserver for MuxAudit {
    fn observe_query(
        &mut self,
        query: u64,
        ctx: &TickContext<'_>,
        outcome: &TickOutcome,
        exact: f64,
        round: Option<u64>,
    ) {
        let Some(member) = self.members.get_mut(&query) else {
            return;
        };
        let ledger = &mut self.ledgers[member.ledger];
        // Not yet advanced to this member's tick: the member is the first
        // of the ledger's to be observed this tick.
        if ledger.totals().ticks == member.verdict.ticks {
            ledger.observe(ctx.db);
        }
        member.totals = ledger.totals();
        member.verdict.observe(ctx, outcome, exact, round);
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
    use digest_core::Precision;
    use digest_db::{Expr, P2PDatabase, Schema, Tuple};
    use digest_net::{topology, NodeId};

    fn fixture() -> (digest_net::Graph, P2PDatabase, ContinuousQuery) {
        let graph = topology::complete(4).unwrap();
        let mut db = P2PDatabase::new(Schema::single("a"));
        for v in 0..4 {
            db.register_node(NodeId(v));
            for i in 0..5 {
                db.insert(NodeId(v), Tuple::single(10.0 + f64::from(i)))
                    .unwrap();
            }
        }
        let query = ContinuousQuery::avg(
            Expr::first_attr(db.schema()),
            Precision::new(2.0, 1.0, 0.95).unwrap(),
        );
        (graph, db, query)
    }

    fn outcome(estimate: f64, snapshot: bool) -> TickOutcome {
        TickOutcome {
            estimate,
            updated: snapshot,
            snapshot_executed: snapshot,
            samples_this_tick: if snapshot { 8 } else { 0 },
            fresh_samples_this_tick: 0,
            messages_this_tick: if snapshot { 40 } else { 0 },
        }
    }

    #[test]
    fn occasions_and_ledger_accumulate_through_the_observer() {
        let (graph, db, query) = fixture();
        let mut audit = QueryAudit::new(&query, 0).unwrap();
        let exact = 12.0;
        for tick in 0..6 {
            let ctx = TickContext {
                tick,
                graph: &graph,
                db: &db,
                origin: NodeId(0),
            };
            // Snapshot on even ticks; estimate tracks truth closely.
            audit.observe(&ctx, &outcome(exact + 0.2, tick % 2 == 0), exact);
        }
        let report = audit.report();
        assert_eq!(report.ticks, 6);
        assert_eq!(report.occasions, 3);
        assert_eq!(report.violations, 0);
        assert_eq!(report.digest_messages, 120);
        // 20 steady tuples ship once under both baselines.
        assert_eq!(report.all_messages, 20);
        assert_eq!(report.filter_messages, 20);
        assert_eq!(report.resolution_violations, 0);
    }

    #[test]
    fn resolution_violations_count_reported_lag() {
        let (graph, db, query) = fixture();
        let mut audit = QueryAudit::new(&query, 0).unwrap();
        let ctx = TickContext {
            tick: 0,
            graph: &graph,
            db: &db,
            origin: NodeId(0),
        };
        // First report lands on target, then the truth runs away from the
        // held estimate by more than δ + ε = 3.
        audit.observe(&ctx, &outcome(12.0, true), 12.0);
        audit.observe(&ctx, &outcome(12.0, false), 16.0);
        let report = audit.report();
        assert_eq!(report.resolution_violations, 1);
        assert_eq!(report.occasions, 1);
    }

    /// Members with the same filter share one ledger, advanced once a
    /// tick, and each reports what a `QueryAudit` of its own reports; a
    /// different ε, or a member registered after its filter's ledger has
    /// observed a tick, gets a ledger of its own.
    #[test]
    fn equal_mux_members_cost_one_ledger_pass_a_tick() {
        let (graph, mut db, query) = fixture();
        let mut wide = query.clone();
        wide.precision = Precision::new(2.0, 3.0, 0.95).unwrap();
        let members = [(0, &query), (1, &query), (2, &wide), (3, &query)];
        let mut mux = MuxAudit::new();
        let mut solo: Vec<QueryAudit> = Vec::new();
        for &(id, q) in &members[..3] {
            mux.register(id, q).unwrap();
            solo.push(QueryAudit::new(q, id).unwrap());
        }
        assert_eq!(mux.ledgers.len(), 2);
        for tick in 0..8u64 {
            if tick == 3 {
                let (id, q) = members[3];
                mux.register(id, q).unwrap();
                solo.push(QueryAudit::new(q, id).unwrap());
            }
            let step = if tick % 2 == 0 { 0.4 } else { 2.5 };
            db.rewrite_fragments(|_, values| values.iter_mut().for_each(|v| *v += step));
            let ctx = TickContext {
                tick,
                graph: &graph,
                db: &db,
                origin: NodeId(0),
            };
            let estimate = outcome(12.0, tick % 3 == 0);
            for (id, audit) in (0..).zip(&mut solo) {
                mux.observe_query(id, &ctx, &estimate, 12.0, None);
                audit.observe(&ctx, &estimate, 12.0);
            }
        }
        let ticks: Vec<u64> = mux.ledgers.iter().map(|l| l.totals().ticks).collect();
        assert_eq!(ticks, [8, 8, 5]);
        let key = |r: &AuditReport| (r.ticks, r.occasions, r.all_messages, r.filter_messages);
        for ((id, report), audit) in mux.reports().iter().zip(&solo) {
            assert_eq!(key(report), key(&audit.report()), "member {id}");
        }
        let filter: Vec<u64> = solo.iter().map(|a| a.report().filter_messages).collect();
        assert_ne!(filter[0], filter[2], "ε must matter to the filter");
    }

    /// A NaN estimate against a finite truth misses on both legs: it is an
    /// ε-violation of its occasion and a resolution miss of its tick, as
    /// it is uncovered in every calibration row. Both error summaries
    /// leave it out, before and after occasions with a number error.
    #[test]
    fn a_nan_estimate_is_a_violation_on_both_legs() {
        let (graph, db, query) = fixture();
        let mut audit = QueryAudit::new(&query, 0).unwrap();
        let ctx = TickContext {
            tick: 0,
            graph: &graph,
            db: &db,
            origin: NodeId(0),
        };
        audit.observe(&ctx, &outcome(f64::NAN, true), 10.0);
        let report = audit.report();
        assert_eq!(report.occasions, 1);
        assert_eq!(report.violations, 1);
        assert_eq!(report.resolution_violations, 1);
        assert!(report.calibration.iter().all(|row| row.covered == 0));
        assert_eq!((report.mean_abs_error, report.max_abs_error), (0.0, 0.0));

        audit.observe(&ctx, &outcome(10.5, true), 10.0);
        audit.observe(&ctx, &outcome(f64::NAN, true), 10.0);
        audit.observe(&ctx, &outcome(8.0, true), 10.0);
        let report = audit.report();
        assert_eq!((report.occasions, report.violations), (4, 3));
        assert_eq!((report.mean_abs_error, report.max_abs_error), (1.25, 2.0));
    }
}
