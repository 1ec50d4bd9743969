//! TAG-style in-network tree aggregation (the §VII related-work
//! comparator).
//!
//! TAG (Madden et al., OSDI 2002) aggregates *in the network*: a spanning
//! tree rooted at the querier is built once, and every epoch each node
//! combines its local partial aggregate with its children's and forwards
//! one message to its parent — `node_count − 1` messages per snapshot,
//! hard to beat on cost. The paper's §VII dismisses it for unstructured
//! P2P databases because "with its tree-based aggregation scheme, it is
//! prone to severe miscalculations due to frequent fragmentation" under
//! churn: when an interior node leaves, its whole subtree silently drops
//! out of the aggregate until the tree is rebuilt.
//!
//! This implementation reproduces exactly that behaviour: the BFS tree is
//! rebuilt only every `rebuild_interval` ticks (a rebuild floods the
//! network — `≈ 2·edges` messages); between rebuilds, nodes whose path to
//! the root passes through a departed node contribute nothing. The
//! `exp_tag` experiment measures the resulting error spikes against
//! Digest's under identical churn.

use crate::query::{ContinuousQuery, ExactFold};
use crate::report::Report;
use crate::system::{QuerySystem, TickContext, TickOutcome};
use crate::Result;
use digest_net::NodeId;
use rand::RngCore;

/// Tuning of the TAG baseline.
#[derive(Debug, Clone, Copy)]
pub struct TagConfig {
    /// Ticks between full tree rebuilds (1 = rebuild every tick — highest
    /// cost, no fragmentation window).
    pub rebuild_interval: u64,
}

impl Default for TagConfig {
    fn default() -> Self {
        Self {
            rebuild_interval: 10,
        }
    }
}

/// The TAG-style tree-aggregation engine.
#[derive(Debug)]
pub struct TreeAggregationEngine {
    query: ContinuousQuery,
    config: TagConfig,
    /// `parent[id] = Some(parent_id)` for tree members (root maps to
    /// itself); `None` for nodes outside the tree.
    parent: Vec<Option<NodeId>>,
    root: Option<NodeId>,
    ticks_since_rebuild: u64,
    report: Report,
    total_messages: u64,
    total_snapshots: u64,
}

impl TreeAggregationEngine {
    /// Creates the engine.
    #[must_use]
    pub fn new(query: ContinuousQuery, config: TagConfig) -> Self {
        Self {
            query,
            config,
            parent: Vec::new(),
            root: None,
            ticks_since_rebuild: 0,
            report: Report::new(),
            total_messages: 0,
            total_snapshots: 0,
        }
    }

    /// Rebuilds the BFS spanning tree from `origin`. Costs ≈ 2 messages
    /// per overlay edge (flooded tree-formation + parent acks).
    fn rebuild(&mut self, ctx: &TickContext<'_>) -> u64 {
        self.parent = vec![None; ctx.graph.id_upper_bound()];
        self.root = Some(ctx.origin);
        if let Ok(dists) = ctx.graph.bfs_distances(ctx.origin) {
            // BFS returns nodes in non-decreasing distance order; assign
            // each node the first already-attached neighbor as parent.
            let mut order = dists;
            order.sort_by_key(|&(_, d)| d);
            self.parent[ctx.origin.0 as usize] = Some(ctx.origin);
            for &(v, _) in &order {
                if self.parent[v.0 as usize].is_some() {
                    continue;
                }
                if let Some(&p) = ctx
                    .graph
                    .neighbors(v)
                    .iter()
                    .find(|nb| self.parent[nb.0 as usize].is_some())
                {
                    self.parent[v.0 as usize] = Some(p);
                }
            }
        }
        self.ticks_since_rebuild = 0;
        2 * ctx.graph.edge_count() as u64
    }

    /// Whether `node`'s path to the root survives in the current (possibly
    /// stale) tree.
    fn connected_to_root(&self, ctx: &TickContext<'_>, node: NodeId) -> bool {
        let Some(root) = self.root else {
            return false;
        };
        let mut cur = node;
        // The tree depth is bounded by the id space; guard against cycles
        // from pathological staleness anyway.
        for _ in 0..self.parent.len() + 1 {
            if !ctx.graph.contains(cur) {
                return false;
            }
            if cur == root {
                return true;
            }
            match self.parent.get(cur.0 as usize).copied().flatten() {
                Some(p) if p != cur => cur = p,
                _ => return false,
            }
        }
        false
    }

    /// Number of nodes currently reporting through the tree.
    #[must_use]
    pub fn reporting_nodes(&self) -> usize {
        self.parent.iter().filter(|p| p.is_some()).count()
    }
}

impl QuerySystem for TreeAggregationEngine {
    fn name(&self) -> &str {
        "TAG"
    }

    fn on_tick(&mut self, ctx: &TickContext<'_>, _rng: &mut dyn RngCore) -> Result<TickOutcome> {
        let mut messages = 0u64;
        let root_lost = self.root.is_none_or(|r| !ctx.graph.contains(r));
        if root_lost || self.ticks_since_rebuild >= self.config.rebuild_interval {
            messages += self.rebuild(ctx);
        }
        self.ticks_since_rebuild += 1;

        // Epoch: every tree node sends one partial-aggregate message to
        // its parent; fragments whose path to the root is broken are lost.
        // Sketch kinds (DESIGN.md §17): in-network partials push every
        // qualifying value to the querier, which finalizes exactly over
        // whatever fragments stayed connected.
        let mut fold = ExactFold::new(&self.query);
        for node in ctx.graph.nodes() {
            if self
                .parent
                .get(node.0 as usize)
                .copied()
                .flatten()
                .is_none()
            {
                continue; // joined after the last rebuild: not in the tree
            }
            if node != ctx.origin {
                messages += 1; // one partial aggregate up the tree
            }
            if !self.connected_to_root(ctx, node) {
                continue; // fragmented subtree: data silently lost
            }
            if ctx.db.has_node(node) {
                for (_, tuple) in ctx.db.iter_node(node) {
                    fold.push(tuple)?;
                }
            }
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
    use digest_db::{Expr, P2PDatabase, Schema, Tuple};
    use digest_net::topology;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn world() -> (digest_net::Graph, P2PDatabase) {
        let g = topology::mesh(4, 4, false).unwrap();
        let mut db = P2PDatabase::new(Schema::single("a"));
        for (i, v) in g.nodes().enumerate() {
            db.register_node(v);
            db.insert(v, Tuple::single(i as f64)).unwrap();
        }
        (g, db)
    }

    fn avg_query(db: &P2PDatabase) -> ContinuousQuery {
        ContinuousQuery::avg(
            Expr::first_attr(db.schema()),
            Precision::new(1.0, 1.0, 0.95).unwrap(),
        )
    }

    #[test]
    fn exact_on_a_static_network() {
        let (g, db) = world();
        let mut tag = TreeAggregationEngine::new(avg_query(&db), TagConfig::default());
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let ctx = TickContext {
            tick: 0,
            graph: &g,
            db: &db,
            origin: NodeId(0),
        };
        let o = tag.on_tick(&ctx, &mut rng).unwrap();
        let expr = Expr::first_attr(db.schema());
        assert_eq!(o.estimate, db.exact_avg(&expr).unwrap());
        // Rebuild (2·edges) + one message per non-root node.
        assert_eq!(
            o.messages_this_tick,
            2 * g.edge_count() as u64 + (g.node_count() as u64 - 1)
        );
        // Steady state: epochs cost node_count − 1 only.
        let ctx = TickContext {
            tick: 1,
            graph: &g,
            db: &db,
            origin: NodeId(0),
        };
        let o = tag.on_tick(&ctx, &mut rng).unwrap();
        assert_eq!(o.messages_this_tick, g.node_count() as u64 - 1);
    }

    /// Regression: `MEDIAN` used to be its own op that TAG finalised
    /// with the mean (61.25 for a true 10.26 on the `median_queries`
    /// world). It is `PERCENTILE(·, 0.5)` now, finalised exactly.
    #[test]
    fn median_is_the_median_not_the_mean() {
        let g = topology::mesh(4, 4, false).unwrap();
        let mut db = P2PDatabase::new(Schema::single("a"));
        for (i, v) in g.nodes().enumerate() {
            db.register_node(v);
            for j in 0..10u32 {
                // 90 % in 8–12, 10 % in 200–1 000.
                let value = if j == 9 {
                    200.0 + 50.0 * i as f64
                } else {
                    8.0 + 0.4 * f64::from(j) + 0.02 * i as f64
                };
                db.insert(v, Tuple::single(value)).unwrap();
            }
        }
        let query = ContinuousQuery::new(
            AggregateOp::MEDIAN,
            Expr::first_attr(db.schema()),
            Precision::new(1.0, 1.0, 0.95).unwrap(),
        );
        let exact = query.oracle(&db).unwrap();
        let mean = db.exact_avg(&Expr::first_attr(db.schema())).unwrap();
        let mut tag = TreeAggregationEngine::new(query, TagConfig::default());
        let ctx = TickContext {
            tick: 0,
            graph: &g,
            db: &db,
            origin: NodeId(0),
        };
        let o = tag
            .on_tick(&ctx, &mut ChaCha8Rng::seed_from_u64(5))
            .unwrap();
        assert_eq!(o.estimate, exact);
        assert!((o.estimate - mean).abs() > 10.0, "{} vs {mean}", o.estimate);
    }

    #[test]
    fn fragmentation_loses_subtrees_until_rebuild() {
        let (mut g, mut db) = world();
        let mut tag = TreeAggregationEngine::new(
            avg_query(&db),
            TagConfig {
                rebuild_interval: 100,
            },
        );
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let expr = Expr::first_attr(db.schema());
        {
            let ctx = TickContext {
                tick: 0,
                graph: &g,
                db: &db,
                origin: NodeId(0),
            };
            tag.on_tick(&ctx, &mut rng).unwrap();
        }

        // Remove an interior node adjacent to the root: its subtree
        // fragments.
        let victim = NodeId(1);
        g.remove_node(victim).unwrap();
        db.remove_node(victim).unwrap();
        let exact_now = db.exact_avg(&expr).unwrap();
        let ctx = TickContext {
            tick: 1,
            graph: &g,
            db: &db,
            origin: NodeId(0),
        };
        let o = tag.on_tick(&ctx, &mut rng).unwrap();
        // TAG must now be *wrong* (subtree data lost), by more than the
        // victim's own share explains.
        assert!(
            (o.estimate - exact_now).abs() > 0.2,
            "stale tree should miscalculate: {} vs {exact_now}",
            o.estimate
        );

        // After a forced rebuild the estimate is exact again.
        let mut tag2 = TreeAggregationEngine::new(
            avg_query(&db),
            TagConfig {
                rebuild_interval: 1,
            },
        );
        let ctx = TickContext {
            tick: 2,
            graph: &g,
            db: &db,
            origin: NodeId(0),
        };
        let o2 = tag2.on_tick(&ctx, &mut rng).unwrap();
        assert!((o2.estimate - exact_now).abs() < 1e-12);
    }

    #[test]
    fn root_departure_triggers_rebuild_from_new_origin() {
        let (mut g, mut db) = world();
        let mut tag = TreeAggregationEngine::new(avg_query(&db), TagConfig::default());
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        {
            let ctx = TickContext {
                tick: 0,
                graph: &g,
                db: &db,
                origin: NodeId(0),
            };
            tag.on_tick(&ctx, &mut rng).unwrap();
        }
        g.remove_node(NodeId(0)).unwrap();
        db.remove_node(NodeId(0)).unwrap();
        let expr = Expr::first_attr(db.schema());
        let ctx = TickContext {
            tick: 1,
            graph: &g,
            db: &db,
            origin: NodeId(5),
        };
        let o = tag.on_tick(&ctx, &mut rng).unwrap();
        assert_eq!(o.estimate, db.exact_avg(&expr).unwrap());
    }

    #[test]
    fn joins_are_invisible_until_rebuild() {
        let (mut g, mut db) = world();
        let mut tag = TreeAggregationEngine::new(
            avg_query(&db),
            TagConfig {
                rebuild_interval: 100,
            },
        );
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        {
            let ctx = TickContext {
                tick: 0,
                graph: &g,
                db: &db,
                origin: NodeId(0),
            };
            tag.on_tick(&ctx, &mut rng).unwrap();
        }
        // A newcomer with an outlier value joins.
        let newcomer = g.add_node();
        g.add_edge(newcomer, NodeId(0)).unwrap();
        db.register_node(newcomer);
        db.insert(newcomer, Tuple::single(1_000.0)).unwrap();
        let ctx = TickContext {
            tick: 1,
            graph: &g,
            db: &db,
            origin: NodeId(0),
        };
        let o = tag.on_tick(&ctx, &mut rng).unwrap();
        // The stale tree does not see the newcomer.
        assert!(o.estimate < 100.0, "newcomer leaked into stale tree");
    }
}
