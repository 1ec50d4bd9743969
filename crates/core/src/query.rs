//! The continuous-query model (paper §II).
//!
//! `SELECT op(expression) FROM R` evaluated continuously from its arrival
//! time, with user-fixed precision:
//!
//! * `δ` — resolution: the reported result must be re-evaluated whenever
//!   the true aggregate has moved by at least `δ` since the last reported
//!   update; smaller excursions may be filtered out ("held").
//! * `ε` — confidence-interval half-width: each reported estimate must
//!   satisfy `|X̂[t_u] − X[t_u]| ≤ ε` …
//! * `p` — … with probability at least `p`.
//!
//! An exact query is the degenerate `δ = ε = 0, p = 1`; Digest requires
//! strictly positive `δ`, `ε` and `p ∈ (0, 1)` (the non-degenerate regime
//! sampling can serve).

use crate::error::CoreError;
use crate::Result;
use digest_db::{Expr, Predicate, RowView};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The aggregate operation of the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregateOp {
    /// `AVG(expression)`.
    Avg,
    /// `SUM(expression)` — estimated as `N̂ · AVG` with a sampled size
    /// estimate `N̂`.
    Sum,
    /// `COUNT(*)` — estimated as `N̂`.
    Count,
    /// `PERCENTILE(expression, q)` — continuous approximate quantile at
    /// rank `q = q_permille / 1000`, served by the UDDSketch sweep
    /// (DESIGN.md §17); `ε` is an absolute half-width on the reported
    /// quantile value under the §II contract. `MEDIAN(expression)` is
    /// accepted as sugar for rank 0.5 ([`AggregateOp::MEDIAN`]).
    Percentile {
        /// Quantile rank in permille, restricted to `1..=999`.
        q_permille: u16,
    },
    /// `COUNT(DISTINCT expression)` — number of distinct unit-width
    /// value cells, served by HyperLogLog++ (DESIGN.md §17); `ε` is a
    /// *relative* cardinality half-width under the §II contract.
    Distinct,
    /// `TOPK(expression, k)` — mass fraction of the `k` heaviest value
    /// cells, served by a space-saving summary (DESIGN.md §17); `ε` is
    /// an absolute half-width on the fraction under the §II contract.
    TopK {
        /// Number of heavy hitters reported, restricted to `1..=64`.
        k: u16,
    },
}

impl AggregateOp {
    /// What `MEDIAN(expression)` parses to: the quantile at rank 0.5. A
    /// median is the quantile sketch read at one rank, not an estimator
    /// of its own (DESIGN.md §17).
    pub const MEDIAN: Self = AggregateOp::Percentile { q_permille: 500 };

    /// True for the sketch-served aggregate kinds of DESIGN.md §17
    /// (`PERCENTILE`, `COUNT DISTINCT`, `TOPK`) whose snapshots are
    /// mergeable-sketch sweeps rather than §IV CLT-sized sample panels.
    #[must_use]
    pub fn is_sketch(&self) -> bool {
        matches!(
            self,
            AggregateOp::Percentile { .. } | AggregateOp::Distinct | AggregateOp::TopK { .. }
        )
    }

    /// True when the `ε` of the §II contract is interpreted as a
    /// *relative* half-width (`|X̂ − X| ≤ ε · max(X, 1)`) rather than an
    /// absolute one — the cardinality semantics of `COUNT DISTINCT`
    /// (DESIGN.md §17).
    #[must_use]
    pub fn uses_relative_epsilon(&self) -> bool {
        matches!(self, AggregateOp::Distinct)
    }

    /// The quantile rank in `[0, 1]` this operation reports, if it is an
    /// order statistic (`PERCENTILE` → q; §IV order-statistic extension).
    #[must_use]
    pub fn quantile_rank(&self) -> Option<f64> {
        match self {
            AggregateOp::Percentile { q_permille } => Some(f64::from(*q_permille) / 1000.0),
            _ => None,
        }
    }
}

impl fmt::Display for AggregateOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggregateOp::Avg => write!(f, "AVG"),
            AggregateOp::Sum => write!(f, "SUM"),
            AggregateOp::Count => write!(f, "COUNT"),
            AggregateOp::Percentile { .. } => write!(f, "PERCENTILE"),
            AggregateOp::Distinct => write!(f, "COUNT DISTINCT"),
            AggregateOp::TopK { .. } => write!(f, "TOPK"),
        }
    }
}

/// The fixed precision `(δ, ε, p)` of an approximate continuous query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Precision {
    /// Resolution threshold `δ > 0`.
    pub delta: f64,
    /// Confidence-interval half-width `ε > 0`.
    pub epsilon: f64,
    /// Confidence level `p ∈ (0, 1)`.
    pub confidence: f64,
}

impl Precision {
    /// Creates and validates a precision specification.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidPrecision`] if any parameter is out of range.
    pub fn new(delta: f64, epsilon: f64, confidence: f64) -> Result<Self> {
        if !delta.is_finite() || delta <= 0.0 {
            return Err(CoreError::InvalidPrecision {
                reason: "delta must be positive and finite",
            });
        }
        if !epsilon.is_finite() || epsilon <= 0.0 {
            return Err(CoreError::InvalidPrecision {
                reason: "epsilon must be positive and finite",
            });
        }
        if !(confidence > 0.0 && confidence < 1.0) {
            return Err(CoreError::InvalidPrecision {
                reason: "confidence must be in (0, 1)",
            });
        }
        Ok(Self {
            delta,
            epsilon,
            confidence,
        })
    }

    /// The target estimator variance `v* = (ε / z_p)²` this precision
    /// demands of any asymptotically normal estimator.
    ///
    /// # Errors
    ///
    /// Propagates quantile-domain errors (unreachable for validated
    /// precisions).
    pub fn target_variance(&self) -> Result<f64> {
        Ok(digest_stats::clt::target_estimator_variance(
            self.epsilon,
            self.confidence,
        )?)
    }
}

/// A fixed-precision approximate continuous aggregate query.
#[derive(Debug, Clone)]
pub struct ContinuousQuery {
    /// The aggregate operation.
    pub op: AggregateOp,
    /// The arithmetic expression over `R`'s attributes.
    pub expr: Expr,
    /// The `WHERE` predicate restricting the aggregated sub-population
    /// ([`Predicate::True`] = the paper's unrestricted query model).
    pub predicate: Predicate,
    /// The fixed precision `(δ, ε, p)`.
    pub precision: Precision,
}

impl ContinuousQuery {
    /// Creates a query over the whole relation.
    #[must_use]
    pub fn new(op: AggregateOp, expr: Expr, precision: Precision) -> Self {
        Self {
            op,
            expr,
            predicate: Predicate::True,
            precision,
        }
    }

    /// Convenience constructor for the common `AVG` case.
    #[must_use]
    pub fn avg(expr: Expr, precision: Precision) -> Self {
        Self::new(AggregateOp::Avg, expr, precision)
    }

    /// Restricts the query with a `WHERE` predicate.
    #[must_use]
    pub fn with_predicate(mut self, predicate: Predicate) -> Self {
        self.predicate = predicate;
        self
    }

    /// Oracle: the exact current answer of this query against a database
    /// (ground truth for simulation; a real peer cannot compute this).
    ///
    /// Returns `None` when the answer is undefined (e.g. `AVG`/`MEDIAN`
    /// over an empty qualifying set) or evaluation fails.
    #[must_use]
    pub fn oracle(&self, db: &digest_db::P2PDatabase) -> Option<f64> {
        match self.op {
            AggregateOp::Avg => db.exact_avg_where(&self.expr, &self.predicate).ok(),
            AggregateOp::Sum => db.exact_sum_where(&self.expr, &self.predicate).ok(),
            AggregateOp::Count => db.exact_count_where(&self.predicate).ok().map(|c| c as f64),
            op => {
                let mut values = Vec::new();
                for (_, tuple) in db.iter() {
                    if self.predicate.eval(tuple).ok()? {
                        values.push(self.expr.eval(tuple).ok()?);
                    }
                }
                exact_over(op, &mut values)
            }
        }
    }
}

/// The exact answer of a sketch-served aggregate (`PERCENTILE` /
/// `COUNT DISTINCT` / `TOPK`, DESIGN.md §17) over the qualifying `values`
/// — what the oracle and the flooding comparator TAG ([`ExactFold`])
/// finalise with once the values are in one place. Sorts `values` in place for the order statistic.
///
/// `None` when the answer is undefined (an order statistic or a mass
/// fraction over nothing; `COUNT DISTINCT` over nothing is 0), and for
/// the mean-like kinds, which are not finalised from a value list.
pub(crate) fn exact_over(op: AggregateOp, values: &mut [f64]) -> Option<f64> {
    match op {
        AggregateOp::Avg | AggregateOp::Sum | AggregateOp::Count => None,
        AggregateOp::Percentile { .. } => {
            values.sort_by(f64::total_cmp);
            digest_stats::sample_quantile(values, op.quantile_rank()?).ok()
        }
        // Unit-width value cells (DESIGN.md §17 cell domain).
        AggregateOp::Distinct => {
            let cells: BTreeSet<i64> = values
                .iter()
                .map(|v| digest_sketch::value_cell(*v))
                .collect();
            Some(cells.len() as f64)
        }
        AggregateOp::TopK { k } => {
            if values.is_empty() {
                return None;
            }
            let mut counts: BTreeMap<i64, u64> = BTreeMap::new();
            for v in values.iter() {
                *counts.entry(digest_sketch::value_cell(*v)).or_insert(0) += 1;
            }
            let mut entries: Vec<(i64, u64)> = counts.into_iter().collect();
            entries.sort_by(|(ka, ca), (kb, cb)| cb.cmp(ca).then(ka.cmp(kb)));
            let top: u64 = entries.iter().take(usize::from(k)).map(|(_, c)| *c).sum();
            Some((top as f64 / values.len() as f64).clamp(0.0, 1.0))
        }
    }
}

/// What the flooding comparator (TAG) makes of the tuples that reach the
/// querier: a running sum and count for the mean-like kinds,
/// the qualifying values themselves for the sketch kinds, which the
/// querier then finalises exactly ([`exact_over`], DESIGN.md §17).
pub(crate) struct ExactFold<'q> {
    query: &'q ContinuousQuery,
    sum: f64,
    count: u64,
    values: Vec<f64>,
}

impl<'q> ExactFold<'q> {
    pub(crate) fn new(query: &'q ContinuousQuery) -> Self {
        Self {
            query,
            sum: 0.0,
            count: 0,
            values: Vec::new(),
        }
    }

    /// Folds in one delivered tuple, if it qualifies.
    pub(crate) fn push(&mut self, row: RowView<'_>) -> Result<()> {
        if !self.query.predicate.eval(row).unwrap_or(false) {
            return Ok(());
        }
        let value = self.query.expr.eval(row)?;
        self.sum += value;
        self.count += 1;
        if self.query.op.is_sketch() {
            self.values.push(value);
        }
        Ok(())
    }

    /// The query's exact answer over what was folded in; `held` where
    /// that is undefined (nothing qualified).
    pub(crate) fn finish(mut self, held: f64) -> f64 {
        match self.query.op {
            AggregateOp::Avg if self.count > 0 => self.sum / self.count as f64,
            AggregateOp::Avg => held,
            AggregateOp::Sum => self.sum,
            AggregateOp::Count => self.count as f64,
            op => exact_over(op, &mut self.values).unwrap_or(held),
        }
    }
}

impl fmt::Display for ContinuousQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.op {
            // COUNT ignores its expression; render the conventional `*`.
            AggregateOp::Count => write!(f, "SELECT COUNT(*) FROM R")?,
            AggregateOp::Percentile { q_permille } => write!(
                f,
                "SELECT PERCENTILE({}, {}) FROM R",
                self.expr,
                f64::from(q_permille) / 1000.0
            )?,
            AggregateOp::Distinct => write!(f, "SELECT COUNT(DISTINCT {}) FROM R", self.expr)?,
            AggregateOp::TopK { k } => write!(f, "SELECT TOPK({}, {k}) FROM R", self.expr)?,
            _ => write!(f, "SELECT {}({}) FROM R", self.op, self.expr)?,
        }
        if !self.predicate.is_trivial() {
            write!(f, " WHERE {}", self.predicate)?;
        }
        write!(
            f,
            " [δ={}, ε={}, p={}]",
            self.precision.delta, self.precision.epsilon, self.precision.confidence
        )
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
    use digest_db::Schema;

    #[test]
    fn precision_validation() {
        assert!(Precision::new(1.0, 1.0, 0.95).is_ok());
        assert!(Precision::new(0.0, 1.0, 0.95).is_err());
        assert!(Precision::new(-1.0, 1.0, 0.95).is_err());
        assert!(Precision::new(1.0, 0.0, 0.95).is_err());
        assert!(Precision::new(1.0, 1.0, 0.0).is_err());
        assert!(Precision::new(1.0, 1.0, 1.0).is_err());
        assert!(Precision::new(f64::NAN, 1.0, 0.95).is_err());
        assert!(Precision::new(1.0, f64::INFINITY, 0.95).is_err());
    }

    #[test]
    fn target_variance_matches_clt() {
        let p = Precision::new(1.0, 2.0, 0.95).unwrap();
        let v = p.target_variance().unwrap();
        // v* = (2/1.95996)² ≈ 1.0414.
        assert!((v - 1.0414).abs() < 1e-3, "v = {v}");
    }

    #[test]
    fn query_display_is_sql_like() {
        let schema = Schema::new(["memory", "storage"]);
        let expr = Expr::parse("memory + storage", &schema).unwrap();
        let q = ContinuousQuery::new(
            AggregateOp::Sum,
            expr,
            Precision::new(1.0, 0.5, 0.95).unwrap(),
        );
        let s = q.to_string();
        assert!(s.contains("SUM"), "{s}");
        assert!(s.contains("memory"), "{s}");
        assert!(s.contains("δ=1"), "{s}");
    }

    #[test]
    fn avg_convenience() {
        let schema = Schema::single("t");
        let q = ContinuousQuery::avg(
            Expr::first_attr(&schema),
            Precision::new(2.0, 2.0, 0.95).unwrap(),
        );
        assert_eq!(q.op, AggregateOp::Avg);
    }
}
