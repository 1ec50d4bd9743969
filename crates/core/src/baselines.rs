//! Push-based comparator systems (paper §VI-B3, Figure 5-b).
//!
//! * [`PushAllEngine`] (`ALL+ALL`) — every tick every tuple's value is
//!   pushed to the querying node, which evaluates the query exactly. Each
//!   push travels the overlay, so one tuple costs its node's hop distance
//!   to the querier. This is the only baseline that supports exact
//!   queries — and it costs two orders of magnitude more than Digest.
//! * [`FilterEngine`] (`ALL+FILTER`) — the adaptive-filter scheme of
//!   Olston et al. (the paper's improved non-sampling comparator): every
//!   tuple carries a bound `[c − w/2, c + w/2]`; its node pushes an update
//!   only when the local value escapes the bound. Keeping the mean width
//!   at most `2ε` guarantees the querier's average-of-centres stays within
//!   `±ε` of the true average. Widths adapt: periodically all shrink by a
//!   factor `γ` and the reclaimed budget is re-granted to the tuples that
//!   violated most, so rarely changing tuples get wide (quiet) bounds and
//!   volatile ones stay tight.
//!
//! Both engines walk the database directly — that models each node's
//! *local* work on its own fragment (free) — but every value that crosses
//! the network is metered through the BFS hop distance to the querier.

use crate::error::CoreError;
use crate::query::{AggregateOp, ContinuousQuery, ExactFold};
use crate::report::Report;
use crate::system::{QuerySystem, TickContext, TickOutcome};
use crate::Result;
use digest_db::TupleHandle;
use digest_net::{Graph, NodeId};
use rand::RngCore;
use std::collections::{BTreeMap, BTreeSet};

/// Hop distances from every node to the querying node, lazily recomputed
/// when the overlay changes.
#[derive(Debug, Default)]
struct DistanceCache {
    origin: Option<NodeId>,
    node_count: usize,
    edge_count: usize,
    dist: Vec<u32>,
}

impl DistanceCache {
    /// Hop distance of `node` from the origin (0 when unknown, e.g. a
    /// transiently partitioned node — its push simply costs nothing this
    /// tick, a conservative under-count applied to the *baselines*, i.e.
    /// in their favour).
    fn get(&mut self, g: &Graph, origin: NodeId, node: NodeId) -> u64 {
        if self.origin != Some(origin)
            || self.node_count != g.node_count()
            || self.edge_count != g.edge_count()
        {
            self.origin = Some(origin);
            self.node_count = g.node_count();
            self.edge_count = g.edge_count();
            self.dist = vec![0; g.id_upper_bound()];
            if let Ok(d) = g.bfs_distances(origin) {
                for (v, dv) in d {
                    self.dist[v.0 as usize] = dv;
                }
            }
        }
        u64::from(self.dist.get(node.0 as usize).copied().unwrap_or(0))
    }
}

/// `ALL+ALL`: full push, exact evaluation (paper §VI-B3, Figure 5-b).
#[derive(Debug)]
pub struct PushAllEngine {
    query: ContinuousQuery,
    distances: DistanceCache,
    report: Report,
    total_messages: u64,
    total_snapshots: u64,
}

impl PushAllEngine {
    /// Creates the engine.
    #[must_use]
    pub fn new(query: ContinuousQuery) -> Self {
        Self {
            query,
            distances: DistanceCache::default(),
            report: Report::new(),
            total_messages: 0,
            total_snapshots: 0,
        }
    }
}

impl QuerySystem for PushAllEngine {
    fn name(&self) -> &str {
        "ALL+ALL"
    }

    fn on_tick(&mut self, ctx: &TickContext<'_>, _rng: &mut dyn RngCore) -> Result<TickOutcome> {
        let mut messages = 0u64;
        let mut fold = ExactFold::new(&self.query);
        for (handle, tuple) in ctx.db.iter() {
            // Every tuple is pushed (cost) — the querier filters locally.
            messages += self.distances.get(ctx.graph, ctx.origin, handle.node);
            fold.push(tuple)?;
        }
        let estimate = fold.finish(self.report.current);
        self.total_messages += messages;
        self.total_snapshots += 1;
        Ok(self
            .report
            .every_tick(estimate, self.query.precision.delta, messages))
    }

    fn total_messages(&self) -> u64 {
        self.total_messages
    }

    fn total_samples(&self) -> u64 {
        0
    }

    fn total_snapshots(&self) -> u64 {
        self.total_snapshots
    }

    fn oracle_truth(&self, ctx: &TickContext<'_>) -> Option<f64> {
        self.query.oracle(ctx.db)
    }
}

/// Tuning of the adaptive-filter baseline (paper §VI-B3).
#[derive(Debug, Clone, Copy)]
pub struct FilterConfig {
    /// Ticks between width-adaptation rounds.
    pub adapt_period: u64,
    /// Fraction of each width reclaimed per adaptation round.
    pub shrink_gamma: f64,
}

impl Default for FilterConfig {
    fn default() -> Self {
        Self {
            adapt_period: 10,
            shrink_gamma: 0.1,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Filter {
    center: f64,
    width: f64,
    violations: u32,
}

/// `ALL+FILTER`: Olston-style adaptive bound filters (paper §VI-B3).
#[derive(Debug)]
pub struct FilterEngine {
    query: ContinuousQuery,
    config: FilterConfig,
    distances: DistanceCache,
    filters: BTreeMap<TupleHandle, Filter>,
    report: Report,
    ticks_seen: u64,
    total_messages: u64,
    total_snapshots: u64,
}

impl FilterEngine {
    /// Creates the engine.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] if the query is not `AVG` (the width
    /// budget derivation below is for averages, matching the paper's
    /// comparison query) or the config is out of range.
    pub fn new(query: ContinuousQuery, config: FilterConfig) -> Result<Self> {
        if !matches!(query.op, AggregateOp::Avg) {
            return Err(CoreError::InvalidConfig {
                reason: "FilterEngine supports AVG queries only",
            });
        }
        if !query.predicate.is_trivial() {
            return Err(CoreError::InvalidConfig {
                reason: "FilterEngine does not support WHERE predicates",
            });
        }
        if config.adapt_period == 0 || !(0.0..1.0).contains(&config.shrink_gamma) {
            return Err(CoreError::InvalidConfig {
                reason: "adapt_period must be positive and shrink_gamma in [0, 1)",
            });
        }
        Ok(Self {
            query,
            config,
            distances: DistanceCache::default(),
            filters: BTreeMap::new(),
            report: Report::new(),
            ticks_seen: 0,
            total_messages: 0,
            total_snapshots: 0,
        })
    }

    /// Number of installed filters.
    #[must_use]
    pub fn filter_count(&self) -> usize {
        self.filters.len()
    }
}

impl QuerySystem for FilterEngine {
    fn name(&self) -> &str {
        "ALL+FILTER"
    }

    fn on_tick(&mut self, ctx: &TickContext<'_>, _rng: &mut dyn RngCore) -> Result<TickOutcome> {
        let mut messages = 0u64;
        // The precision interval [L, H] with H − L < 2ε → per-tuple mean
        // width budget 2ε (each object's bound contributes width/N to the
        // aggregate interval).
        let base_width = 2.0 * self.query.precision.epsilon;

        let mut seen: BTreeSet<TupleHandle> = BTreeSet::new();
        for (handle, tuple) in ctx.db.iter() {
            let value = self.query.expr.eval(tuple)?;
            seen.insert(handle);
            match self.filters.get_mut(&handle) {
                None => {
                    // New tuple: register its filter by pushing its value.
                    messages += self
                        .distances
                        .get(ctx.graph, ctx.origin, handle.node)
                        .max(1);
                    self.filters.insert(
                        handle,
                        Filter {
                            center: value,
                            width: base_width,
                            violations: 0,
                        },
                    );
                }
                Some(f) => {
                    if (value - f.center).abs() > f.width / 2.0 {
                        // Bound violation: push the update, recenter.
                        messages += self
                            .distances
                            .get(ctx.graph, ctx.origin, handle.node)
                            .max(1);
                        f.center = value;
                        f.violations += 1;
                    }
                }
            }
        }
        // Departed tuples: their node's leave is observed out-of-band (the
        // overlay repair already carries those messages).
        self.filters.retain(|h, _| seen.contains(h));

        // Periodic width adaptation: shrink everyone, re-grant the
        // reclaimed budget to violators (Olston's shrink/grow cycle).
        self.ticks_seen += 1;
        if self.ticks_seen.is_multiple_of(self.config.adapt_period) && !self.filters.is_empty() {
            let mut reclaimed = 0.0;
            let mut total_violations = 0u64;
            for f in self.filters.values_mut() {
                let cut = f.width * self.config.shrink_gamma;
                f.width -= cut;
                reclaimed += cut;
                total_violations += u64::from(f.violations);
            }
            if total_violations > 0 {
                for f in self.filters.values_mut() {
                    if f.violations > 0 {
                        f.width += reclaimed * f64::from(f.violations) / total_violations as f64;
                    }
                    f.violations = 0;
                }
            } else {
                // Nobody violated: spread the budget back evenly.
                let share = reclaimed / self.filters.len() as f64;
                for f in self.filters.values_mut() {
                    f.width += share;
                }
            }
        }

        let estimate = if self.filters.is_empty() {
            self.report.current
        } else {
            self.filters.values().map(|f| f.center).sum::<f64>() / self.filters.len() as f64
        };
        self.total_messages += messages;
        self.total_snapshots += 1;
        Ok(self
            .report
            .every_tick(estimate, self.query.precision.delta, messages))
    }

    fn total_messages(&self) -> u64 {
        self.total_messages
    }

    fn total_samples(&self) -> u64 {
        0
    }

    fn total_snapshots(&self) -> u64 {
        self.total_snapshots
    }

    fn oracle_truth(&self, ctx: &TickContext<'_>) -> Option<f64> {
        self.query.oracle(ctx.db)
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
    use digest_net::topology;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    struct World {
        graph: digest_net::Graph,
        db: P2PDatabase,
        handles: Vec<TupleHandle>,
    }

    fn world() -> World {
        let graph = topology::mesh(3, 3, false).unwrap();
        let mut db = P2PDatabase::new(Schema::single("a"));
        let mut handles = Vec::new();
        for v in 0..9u32 {
            db.register_node(NodeId(v));
            for j in 0..4 {
                handles.push(
                    db.insert(NodeId(v), Tuple::single(10.0 + f64::from(v) + f64::from(j)))
                        .unwrap(),
                );
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

    #[test]
    fn push_all_is_exact() {
        let w = world();
        let mut e = PushAllEngine::new(avg_query(1.0, 1.0));
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let ctx = TickContext {
            tick: 0,
            graph: &w.graph,
            db: &w.db,
            origin: NodeId(0),
        };
        let o = e.on_tick(&ctx, &mut rng).unwrap();
        let expr = Expr::first_attr(w.db.schema());
        assert_eq!(o.estimate, w.db.exact_avg(&expr).unwrap());
        // 4 tuples per node; corner origin on a 3×3 mesh → expensive.
        assert!(
            o.messages_this_tick > 4 * 8,
            "messages = {}",
            o.messages_this_tick
        );
    }

    #[test]
    fn push_all_supports_sum_and_count() {
        let w = world();
        let schema = Schema::single("a");
        let expr = Expr::first_attr(&schema);
        let precision = Precision::new(1.0, 1.0, 0.95).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let ctx = TickContext {
            tick: 0,
            graph: &w.graph,
            db: &w.db,
            origin: NodeId(0),
        };

        let mut sum_engine = PushAllEngine::new(ContinuousQuery::new(
            AggregateOp::Sum,
            expr.clone(),
            precision,
        ));
        let o = sum_engine.on_tick(&ctx, &mut rng).unwrap();
        assert_eq!(o.estimate, w.db.exact_sum(&expr).unwrap());

        let mut count_engine =
            PushAllEngine::new(ContinuousQuery::new(AggregateOp::Count, expr, precision));
        let o = count_engine.on_tick(&ctx, &mut rng).unwrap();
        assert_eq!(o.estimate, w.db.exact_count() as f64);
    }

    #[test]
    fn filter_engine_rejects_non_avg() {
        let schema = Schema::single("a");
        let q = ContinuousQuery::new(
            AggregateOp::Sum,
            Expr::first_attr(&schema),
            Precision::new(1.0, 1.0, 0.95).unwrap(),
        );
        assert!(FilterEngine::new(q, FilterConfig::default()).is_err());
    }

    #[test]
    fn filter_engine_registration_then_quiet() {
        let w = world();
        let mut e = FilterEngine::new(avg_query(1.0, 1.0), FilterConfig::default()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let ctx = TickContext {
            tick: 0,
            graph: &w.graph,
            db: &w.db,
            origin: NodeId(0),
        };

        // Tick 0: all 36 tuples register.
        let o0 = e.on_tick(&ctx, &mut rng).unwrap();
        assert_eq!(e.filter_count(), 36);
        assert!(o0.messages_this_tick >= 36);

        // Tick 1: nothing changed → zero messages.
        let ctx = TickContext {
            tick: 1,
            graph: &w.graph,
            db: &w.db,
            origin: NodeId(0),
        };
        let o1 = e.on_tick(&ctx, &mut rng).unwrap();
        assert_eq!(o1.messages_this_tick, 0);
        // Estimate is exact while nothing moved.
        let expr = Expr::first_attr(w.db.schema());
        assert!((o1.estimate - w.db.exact_avg(&expr).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn filter_engine_pushes_only_violations() {
        let mut w = world();
        let mut e = FilterEngine::new(avg_query(1.0, 1.0), FilterConfig::default()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let ctx = TickContext {
            tick: 0,
            graph: &w.graph,
            db: &w.db,
            origin: NodeId(0),
        };
        e.on_tick(&ctx, &mut rng).unwrap();

        // Small drift within width (ε=1 → width 2, half-width 1): quiet.
        let h = w.handles[0];
        let x = w.db.read(h).unwrap().value(0).unwrap();
        w.db.update(h, &[x + 0.5]).unwrap();
        let ctx = TickContext {
            tick: 1,
            graph: &w.graph,
            db: &w.db,
            origin: NodeId(0),
        };
        let o = e.on_tick(&ctx, &mut rng).unwrap();
        assert_eq!(o.messages_this_tick, 0, "within-bound drift must be silent");

        // Large jump: exactly one push.
        w.db.update(h, &[x + 10.0]).unwrap();
        let ctx = TickContext {
            tick: 2,
            graph: &w.graph,
            db: &w.db,
            origin: NodeId(0),
        };
        let o = e.on_tick(&ctx, &mut rng).unwrap();
        assert!(o.messages_this_tick >= 1);
        assert!(o.messages_this_tick <= 5, "only the violator pushes");
    }

    #[test]
    fn filter_engine_estimate_stays_within_epsilon() {
        let mut w = world();
        let eps = 1.0;
        let mut e = FilterEngine::new(avg_query(0.5, eps), FilterConfig::default()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let expr = Expr::first_attr(w.db.schema());
        let mut worst: f64 = 0.0;
        for t in 0..30 {
            // Random small drifts.
            for (i, &h) in w.handles.iter().enumerate() {
                if (t as usize + i).is_multiple_of(3) {
                    let x = w.db.read(h).unwrap().value(0).unwrap();
                    w.db.update(h, &[x + if i % 2 == 0 { 0.3 } else { -0.3 }])
                        .unwrap();
                }
            }
            let ctx = TickContext {
                tick: t,
                graph: &w.graph,
                db: &w.db,
                origin: NodeId(0),
            };
            let o = e.on_tick(&ctx, &mut rng).unwrap();
            let truth = w.db.exact_avg(&expr).unwrap();
            worst = worst.max((o.estimate - truth).abs());
        }
        assert!(
            worst <= eps + 1e-9,
            "filter bound violated: worst error {worst}"
        );
    }

    #[test]
    fn filter_engine_adapts_widths_to_volatile_tuples() {
        let mut w = world();
        let cfg = FilterConfig {
            adapt_period: 5,
            shrink_gamma: 0.2,
        };
        let mut e = FilterEngine::new(avg_query(1.0, 1.0), cfg).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        // Tuple 0 oscillates violently every tick; everything else is quiet.
        let volatile = w.handles[0];
        for t in 0..40 {
            let x = if t % 2 == 0 { 100.0 } else { 0.0 };
            w.db.update(volatile, &[x]).unwrap();
            let ctx = TickContext {
                tick: t,
                graph: &w.graph,
                db: &w.db,
                origin: NodeId(0),
            };
            e.on_tick(&ctx, &mut rng).unwrap();
        }
        let vol_width = e.filters[&volatile].width;
        let quiet_width = e.filters[&w.handles[5]].width;
        assert!(
            vol_width > quiet_width,
            "volatile tuple should hold more width: {vol_width} vs {quiet_width}"
        );
    }

    #[test]
    fn filter_engine_drops_departed_tuples() {
        let mut w = world();
        let mut e = FilterEngine::new(avg_query(1.0, 1.0), FilterConfig::default()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let ctx = TickContext {
            tick: 0,
            graph: &w.graph,
            db: &w.db,
            origin: NodeId(0),
        };
        e.on_tick(&ctx, &mut rng).unwrap();
        assert_eq!(e.filter_count(), 36);
        w.db.remove_node(NodeId(4)).unwrap();
        let ctx = TickContext {
            tick: 1,
            graph: &w.graph,
            db: &w.db,
            origin: NodeId(0),
        };
        e.on_tick(&ctx, &mut rng).unwrap();
        assert_eq!(e.filter_count(), 32);
    }
}
