//! The bundled per-query audit observer.
//!
//! [`QueryAudit`] is the one-stop [`TickObserver`] a driver attaches to an
//! audited run: per tick it feeds the message-cost ledger and the
//! pointwise resolution check, per reporting occasion it feeds the
//! guarantee auditor, and at end of run it folds everything into a single
//! [`AuditReport`].

use crate::auditor::{AuditReport, Auditor, AuditorConfig};
use crate::ledger::MessageLedger;
use crate::Result;
use digest_core::{ContinuousQuery, MuxObserver, TickContext, TickObserver, TickOutcome};
use std::collections::BTreeMap;

/// Full guarantee audit of one continuous query over one run.
#[derive(Debug)]
pub struct QueryAudit {
    auditor: Auditor,
    ledger: MessageLedger,
    query: String,
    delta: f64,
    epsilon: f64,
    relative_epsilon: bool,
    digest_messages: u64,
    ticks: u64,
    resolution_violations: u64,
    started: bool,
}

impl QueryAudit {
    /// Builds the audit for `query`; `query_index` distinguishes events
    /// of concurrent queries in one run.
    ///
    /// # Errors
    ///
    /// As for [`Auditor::new`].
    pub fn new(query: &ContinuousQuery, query_index: u64) -> Result<Self> {
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
        let ledger = MessageLedger::new(
            query.expr.clone(),
            query.predicate.clone(),
            query.precision.epsilon,
        );
        Ok(Self {
            auditor,
            ledger,
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

    /// Freezes the audit into its end-of-run report.
    #[must_use]
    pub fn report(&self) -> AuditReport {
        let totals = self.ledger.totals();
        self.auditor.report(
            self.query.clone(),
            self.ticks,
            self.digest_messages,
            totals.all_messages,
            totals.filter_messages,
            self.resolution_violations,
        )
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
        self.ticks += 1;
        self.digest_messages += outcome.messages_this_tick;
        self.ledger.observe(ctx.db);
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

impl TickObserver for QueryAudit {
    fn observe(&mut self, ctx: &TickContext<'_>, outcome: &TickOutcome, exact: f64) {
        self.observe_with_round(ctx, outcome, exact, None);
    }
}

/// Guarantee audit of a whole multiplexed run: one [`QueryAudit`] per
/// member query, driven through the [`MuxObserver`] seam so every member
/// gets its own `audit.occasion` stream (own ε-violation and resolution
/// accounting against its own `(δ, ε, p)` contract), with occasions served
/// from coalesced rounds causally parented to the round's trace id.
#[derive(Debug, Default)]
pub struct MuxAudit {
    audits: BTreeMap<u64, QueryAudit>,
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
        self.audits.insert(id, QueryAudit::new(query, id)?);
        Ok(())
    }

    /// The audit attached to member `id`.
    #[must_use]
    pub fn audit(&self, id: u64) -> Option<&QueryAudit> {
        self.audits.get(&id)
    }

    /// Member ids in ascending order.
    #[must_use]
    pub fn ids(&self) -> Vec<u64> {
        self.audits.keys().copied().collect()
    }

    /// End-of-run reports for every member, ascending by id.
    #[must_use]
    pub fn reports(&self) -> Vec<(u64, AuditReport)> {
        self.audits
            .iter()
            .map(|(&id, audit)| (id, audit.report()))
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
        if let Some(audit) = self.audits.get_mut(&query) {
            audit.observe_with_round(ctx, outcome, exact, round);
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

    /// A NaN estimate against a finite truth misses on both legs: it is an
    /// ε-violation of its occasion and a resolution miss of its tick, as
    /// it is uncovered in every calibration row.
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
    }
}
