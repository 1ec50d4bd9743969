//! The sketch sweep estimator: per-node mergeable sketches with
//! fingerprint-cached retain/replace semantics (DESIGN.md §17).
//!
//! The paper's CLT-sized sample panels (§IV-B, Eq. 6) answer *mean-like*
//! aggregates; population statistics such as quantile values, distinct
//! cardinality, and heavy-hitter mass cannot be unbiasedly extrapolated
//! from a uniform tuple sample of unknown population size. The sketch
//! kinds therefore take a different snapshot shape: the querying node
//! sweeps the live overlay in ascending node order, each peer folds its
//! *own* fragment into a small mergeable sketch
//! ([`digest_sketch::UddSketch`] / [`digest_sketch::HllSketch`] /
//! [`digest_sketch::SpaceSavingSketch`]), and the sweep merges the
//! per-node partials into one global sketch that finalizes to the
//! scalar estimate.
//!
//! The cost model mirrors RPT's retain/replace economics (§IV-B2): each
//! node's qualifying fragment is fingerprinted, and a node whose
//! fingerprint is unchanged since the previous occasion is a *retained*
//! panel member — its cached sketch keeps contributing mass at zero
//! message cost — while changed or new nodes are *fresh* members that
//! cost one message each to re-pull. No randomness is used anywhere, so
//! sweeps replay byte-identically at any sampling worker count (R5).

use std::collections::BTreeMap;

use crate::query::{AggregateOp, ContinuousQuery};
use crate::Result;
use digest_db::{Expr, P2PDatabase, Predicate};
use digest_sketch::{HllSketch, SpaceSavingSketch, UddSketch};

/// Initial UDDSketch relative accuracy α₀ (DESIGN.md §17; fine enough
/// that the value error is dominated by the §II ε budget, coarse enough
/// to stay within the bucket cap without collapsing on the workloads).
const UDD_ALPHA0: f64 = 1e-3;

/// UDDSketch bucket cap (collapse threshold) for quantile sweeps
/// (DESIGN.md §17 sizing against the §II contract).
const UDD_MAX_BUCKETS: usize = 4096;

/// FNV-1a 64-bit offset basis for fragment fingerprints.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One sweep occasion's outcome (the sketch analogue of the §IV-B
/// snapshot estimate): the finalized scalar plus retain/replace cost
/// accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepSnapshot {
    /// Finalized estimate, or `None` when no tuple qualified (callers
    /// apply the §IV hold rule; `COUNT DISTINCT` legitimately reports 0).
    pub estimate: Option<f64>,
    /// Total qualifying tuples folded into the merged sketch.
    pub qualifying: u64,
    /// Messages charged this occasion: one per fresh (changed or new)
    /// node, zero for retained nodes — the §IV-B2 retain/replace
    /// economics applied to sweep membership.
    pub messages: u64,
    /// Nodes re-pulled this occasion (fingerprint changed or unseen).
    pub fresh_nodes: u64,
    /// Nodes whose cached sketch was reused (fingerprint unchanged).
    pub retained_nodes: u64,
}

/// Per-kind sketch configuration, sized once from the query's `(ε, p)`
/// contract (§II, Eq. 1; the kind-specific mappings of DESIGN.md §17).
#[derive(Debug, Clone, Copy, PartialEq)]
enum SweepKind {
    /// `MEDIAN` / `PERCENTILE`: UDDSketch at rank `q`.
    Quantile { q: f64 },
    /// `COUNT DISTINCT`: HyperLogLog++ with `2^p_bits` registers.
    Distinct { p_bits: u8 },
    /// `TOPK`: space-saving summary of `capacity` counters, reporting
    /// the top-`k` mass fraction.
    TopK { k: usize, capacity: usize },
}

/// Cached per-node partial: the fragment fingerprint that validates it
/// plus the node's sketch and qualifying count.
#[derive(Debug, Clone)]
struct NodeState {
    fingerprint: u64,
    qualifying: u64,
    sketch: NodeSketch,
}

/// The per-node mergeable partial for each sweep kind.
#[derive(Debug, Clone)]
enum NodeSketch {
    Udd(UddSketch),
    Hll(HllSketch),
    SpaceSaving(SpaceSavingSketch),
}

/// Sweep estimator for the sketch-served aggregate kinds of DESIGN.md
/// §17 (`MEDIAN`/`PERCENTILE`/`COUNT DISTINCT`/`TOPK` under the §II
/// `(ε, p)` contract), with RPT-style (§IV-B2) retained membership.
#[derive(Debug, Clone)]
pub struct SketchSweepEstimator {
    kind: SweepKind,
    nodes: BTreeMap<u32, NodeState>,
}

impl SketchSweepEstimator {
    /// Builds a sweep estimator for `query`, sizing the sketch from the
    /// query's `(ε, p)` contract per the DESIGN.md §17 mappings (HLL
    /// registers from the relative half-width via the `1.04/√m` standard
    /// error; space-saving capacity from the `k/m` mass-error bound;
    /// UDDSketch at a fixed fine α₀).
    ///
    /// # Errors
    ///
    /// [`crate::CoreError::InvalidConfig`] when `query.op` is not a
    /// sketch-served kind; sketch-layer errors for degenerate contracts.
    pub fn for_query(query: &ContinuousQuery) -> Result<Self> {
        let kind = match query.op {
            AggregateOp::Percentile { q_permille } => SweepKind::Quantile {
                q: f64::from(q_permille) / 1000.0,
            },
            AggregateOp::Distinct => {
                let z = digest_stats::z_for_confidence(query.precision.confidence)?;
                let proto = HllSketch::for_relative_error(query.precision.epsilon, z)?;
                SweepKind::Distinct {
                    p_bits: proto.p_bits(),
                }
            }
            AggregateOp::TopK { k } => {
                let proto =
                    SpaceSavingSketch::for_mass_error(usize::from(k), query.precision.epsilon)?;
                SweepKind::TopK {
                    k: usize::from(k),
                    capacity: proto.capacity(),
                }
            }
            _ => {
                return Err(crate::CoreError::InvalidConfig {
                    reason: "sketch sweep serves only PERCENTILE/DISTINCT/TOPK",
                })
            }
        };
        Ok(Self {
            kind,
            nodes: BTreeMap::new(),
        })
    }

    /// A short estimator name for engine/CLI labels (the §IV estimator
    /// taxonomy extended with the DESIGN.md §17 sweep family).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self.kind {
            SweepKind::Quantile { .. } => "SKETCH-UDD",
            SweepKind::Distinct { .. } => "SKETCH-HLL",
            SweepKind::TopK { .. } => "SKETCH-SS",
        }
    }

    fn empty_sketch(&self) -> Result<NodeSketch> {
        Ok(match self.kind {
            SweepKind::Quantile { .. } => {
                NodeSketch::Udd(UddSketch::new(UDD_ALPHA0, UDD_MAX_BUCKETS)?)
            }
            SweepKind::Distinct { p_bits } => NodeSketch::Hll(HllSketch::new(p_bits)?),
            SweepKind::TopK { capacity, .. } => {
                NodeSketch::SpaceSaving(SpaceSavingSketch::new(capacity)?)
            }
        })
    }

    /// Executes one sweep occasion against the database: revalidates
    /// every live node's fingerprint, re-pulls changed fragments,
    /// merges the per-node partials in ascending node order, and
    /// finalizes — the sketch analogue of a §IV snapshot query with
    /// §IV-B2 retain/replace cost accounting (DESIGN.md §17).
    ///
    /// # Errors
    ///
    /// Database expression/predicate evaluation errors and sketch merge
    /// errors (the latter unreachable for same-configuration partials).
    pub fn sweep(
        &mut self,
        db: &P2PDatabase,
        expr: &Expr,
        predicate: &Predicate,
    ) -> Result<SweepSnapshot> {
        let mut fresh_nodes = 0u64;
        let mut retained_nodes = 0u64;
        let live: Vec<u32> = db.nodes().map(|n| n.0).collect();

        for &node_raw in &live {
            let node = digest_net::NodeId(node_raw);
            let mut fingerprint = FNV_OFFSET;
            let mut qualifying = 0u64;
            let mut values: Vec<f64> = Vec::new();
            for (_, tuple) in db.iter_node(node) {
                if predicate.eval(tuple)? {
                    let value = expr.eval(tuple)?;
                    fingerprint = fnv_fold(fingerprint, value.to_bits());
                    qualifying = qualifying.saturating_add(1);
                    values.push(value);
                }
            }
            fingerprint = fnv_fold(fingerprint, qualifying);

            let unchanged = self
                .nodes
                .get(&node_raw)
                .is_some_and(|state| state.fingerprint == fingerprint);
            if unchanged {
                retained_nodes += 1;
                continue;
            }
            fresh_nodes += 1;
            let mut sketch = self.empty_sketch()?;
            for value in values {
                match &mut sketch {
                    NodeSketch::Udd(s) => s.accumulate(value),
                    NodeSketch::Hll(s) => s.accumulate_value(value),
                    NodeSketch::SpaceSaving(s) => {
                        s.accumulate_cell(digest_sketch::value_cell(value));
                    }
                }
            }
            self.nodes.insert(
                node_raw,
                NodeState {
                    fingerprint,
                    qualifying,
                    sketch,
                },
            );
        }

        // Drop cached members that left the overlay.
        self.nodes.retain(|raw, _| live.binary_search(raw).is_ok());

        let qualifying: u64 = self.nodes.values().map(|s| s.qualifying).sum();
        let estimate = self.finalize(qualifying)?;
        Ok(SweepSnapshot {
            estimate,
            qualifying,
            messages: fresh_nodes,
            fresh_nodes,
            retained_nodes,
        })
    }

    /// Merges the cached per-node partials (ascending node order — the
    /// byte-deterministic merge order of DESIGN.md §17) and finalizes
    /// into the kind's scalar under its §II ε-semantics.
    fn finalize(&self, qualifying: u64) -> Result<Option<f64>> {
        match self.kind {
            SweepKind::Quantile { q } => {
                let mut merged = UddSketch::new(UDD_ALPHA0, UDD_MAX_BUCKETS)?;
                for state in self.nodes.values() {
                    if let NodeSketch::Udd(s) = &state.sketch {
                        merged.merge(s)?;
                    }
                }
                Ok(merged.quantile(q))
            }
            SweepKind::Distinct { p_bits } => {
                if qualifying == 0 {
                    // An empty qualifying set has exactly zero distinct
                    // cells — COUNT-like, well-defined (§II).
                    return Ok(Some(0.0));
                }
                let mut merged = HllSketch::new(p_bits)?;
                for state in self.nodes.values() {
                    if let NodeSketch::Hll(s) = &state.sketch {
                        merged.merge(s)?;
                    }
                }
                Ok(Some(merged.estimate()))
            }
            SweepKind::TopK { k, capacity } => {
                let mut merged = SpaceSavingSketch::new(capacity)?;
                for state in self.nodes.values() {
                    if let NodeSketch::SpaceSaving(s) = &state.sketch {
                        merged.merge(s)?;
                    }
                }
                Ok(merged.top_k_mass(k))
            }
        }
    }
}

/// One FNV-1a fold step over a 64-bit word (byte-wise, so fingerprints
/// are platform-independent; the cache-validation hash of the §IV-B2
/// retain analogy in DESIGN.md §17 — never used for estimation).
fn fnv_fold(mut hash: u64, word: u64) -> u64 {
    for byte in word.to_be_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
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
    use digest_db::{Schema, Tuple};
    use digest_net::NodeId;

    fn db_with(values_per_node: &[&[f64]]) -> P2PDatabase {
        let mut db = P2PDatabase::new(Schema::single("a"));
        for (i, values) in values_per_node.iter().enumerate() {
            let node = NodeId(u32::try_from(i).unwrap());
            db.register_node(node);
            for v in *values {
                db.insert(node, Tuple::single(*v)).unwrap();
            }
        }
        db
    }

    fn query(op: AggregateOp) -> ContinuousQuery {
        let schema = Schema::single("a");
        ContinuousQuery::new(
            op,
            Expr::first_attr(&schema),
            Precision::new(1.0, 0.5, 0.95).unwrap(),
        )
    }

    #[test]
    fn rejects_non_sketch_ops() {
        assert!(SketchSweepEstimator::for_query(&query(AggregateOp::Avg)).is_err());
        assert!(SketchSweepEstimator::for_query(&query(AggregateOp::Count)).is_err());
    }

    #[test]
    fn percentile_sweep_matches_oracle() {
        let db = db_with(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 9.0]]);
        let q = query(AggregateOp::Percentile { q_permille: 500 });
        let mut est = SketchSweepEstimator::for_query(&q).unwrap();
        let snap = est.sweep(&db, &q.expr, &q.predicate).unwrap();
        let exact = q.oracle(&db).unwrap();
        let got = snap.estimate.unwrap();
        assert!((got - exact).abs() <= 0.05, "got {got}, exact {exact}");
        assert_eq!(snap.qualifying, 9);
        assert_eq!(snap.fresh_nodes, 3);
        assert_eq!(snap.messages, 3);
    }

    #[test]
    fn distinct_sweep_counts_cells() {
        let db = db_with(&[&[1.1, 1.9, 2.5], &[2.7, 30.0, 30.2]]);
        let q = query(AggregateOp::Distinct);
        let mut est = SketchSweepEstimator::for_query(&q).unwrap();
        let snap = est.sweep(&db, &q.expr, &q.predicate).unwrap();
        // Cells: 1 (×2), 2 (×2), 30 (×2) → 3 distinct. COUNT DISTINCT
        // carries *relative* ε-semantics (DESIGN.md §17): ±ε·exact.
        let exact = q.oracle(&db).unwrap();
        assert_eq!(exact, 3.0);
        let got = snap.estimate.unwrap();
        let tol = q.precision.epsilon * exact;
        assert!((got - exact).abs() <= tol, "got {got}, exact {exact}");
    }

    #[test]
    fn topk_sweep_reports_mass_fraction() {
        let db = db_with(&[&[5.2, 5.4, 5.9, 5.1], &[7.0, 8.5, 9.9, 5.3]]);
        let q = query(AggregateOp::TopK { k: 1 });
        let mut est = SketchSweepEstimator::for_query(&q).unwrap();
        let snap = est.sweep(&db, &q.expr, &q.predicate).unwrap();
        // Cell 5 holds 5 of 8 tuples.
        let exact = q.oracle(&db).unwrap();
        assert_eq!(exact, 5.0 / 8.0);
        assert_eq!(snap.estimate.unwrap(), exact);
    }

    #[test]
    fn unchanged_nodes_are_retained_at_zero_cost() {
        let mut db = db_with(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let q = query(AggregateOp::Percentile { q_permille: 500 });
        let mut est = SketchSweepEstimator::for_query(&q).unwrap();
        let first = est.sweep(&db, &q.expr, &q.predicate).unwrap();
        assert_eq!(first.fresh_nodes, 2);
        let second = est.sweep(&db, &q.expr, &q.predicate).unwrap();
        assert_eq!(second.fresh_nodes, 0);
        assert_eq!(second.retained_nodes, 2);
        assert_eq!(second.messages, 0);
        assert_eq!(second.estimate, first.estimate);
        // Mutate one node: only that node is re-pulled.
        db.insert(NodeId(1), Tuple::single(100.0)).unwrap();
        let third = est.sweep(&db, &q.expr, &q.predicate).unwrap();
        assert_eq!(third.fresh_nodes, 1);
        assert_eq!(third.retained_nodes, 1);
        assert_eq!(third.messages, 1);
    }

    #[test]
    fn departed_nodes_drop_out() {
        let mut db = db_with(&[&[1.0], &[50.0]]);
        let q = query(AggregateOp::Distinct);
        let mut est = SketchSweepEstimator::for_query(&q).unwrap();
        let first = est.sweep(&db, &q.expr, &q.predicate).unwrap();
        assert!((first.estimate.unwrap() - 2.0).abs() < 0.5);
        db.remove_node(NodeId(1)).unwrap();
        let second = est.sweep(&db, &q.expr, &q.predicate).unwrap();
        assert!((second.estimate.unwrap() - 1.0).abs() < 0.5);
        assert_eq!(second.qualifying, 1);
    }

    #[test]
    fn empty_database_holds_for_order_statistics() {
        let db = P2PDatabase::new(Schema::single("a"));
        let q = query(AggregateOp::Percentile { q_permille: 900 });
        let mut est = SketchSweepEstimator::for_query(&q).unwrap();
        let snap = est.sweep(&db, &q.expr, &q.predicate).unwrap();
        assert!(snap.estimate.is_none());
        let qd = query(AggregateOp::Distinct);
        let mut est = SketchSweepEstimator::for_query(&qd).unwrap();
        let snap = est.sweep(&db, &qd.expr, &qd.predicate).unwrap();
        assert_eq!(snap.estimate, Some(0.0));
    }
}
