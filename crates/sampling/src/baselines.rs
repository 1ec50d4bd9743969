//! Baseline samplers the experiments compare against.
//!
//! * [`OracleSampler`] — a centralised sampler with global knowledge: it
//!   draws exactly from the target distribution at zero walk cost. No real
//!   peer can implement it; it lower-bounds the achievable cost and serves
//!   as the ground-truth distribution in correctness tests ("comparable to
//!   optimal sampling" is the paper's claim for `S`).
//! * [`NaiveWalkSampler`] — a plain random walk with uniform forwarding
//!   probabilities `1/d_i`. Its stationary distribution is degree-biased
//!   (`π_v ∝ d_v`), not the desired `p_v` — the defect the Metropolis
//!   correction exists to fix. Used in estimator-bias experiments.

use crate::error::SamplingError;
use crate::weight::NodeWeight;
use crate::Result;
use digest_db::{P2PDatabase, Tuple, TupleHandle};
use digest_net::{Graph, NodeId};
use rand::Rng;

/// Centralised sampler with global knowledge (zero message cost) — the
/// idealised comparator for the §V-A walk's sampling quality.
#[derive(Debug, Clone, Default)]
pub struct OracleSampler;

impl OracleSampler {
    /// Creates the oracle.
    #[must_use]
    pub fn new() -> Self {
        Self
    }

    /// Draws a node exactly from `p_v ∝ w_v` by global inverse-CDF
    /// sampling.
    ///
    /// # Errors
    ///
    /// * [`SamplingError::EmptyGraph`] if there are no nodes.
    /// * [`SamplingError::InvalidWeight`] / [`SamplingError::ZeroTotalWeight`]
    ///   for unusable weights.
    pub fn sample_node<W: NodeWeight, R: Rng + ?Sized>(
        &self,
        g: &Graph,
        w: &W,
        rng: &mut R,
    ) -> Result<NodeId> {
        let mut total = 0.0;
        let mut nodes = Vec::with_capacity(g.node_count());
        for v in g.nodes() {
            let wv = w.weight(v);
            if !wv.is_finite() || wv < 0.0 {
                return Err(SamplingError::InvalidWeight {
                    node: v,
                    weight: wv,
                });
            }
            total += wv;
            nodes.push((v, wv));
        }
        if nodes.is_empty() {
            return Err(SamplingError::EmptyGraph);
        }
        if total <= 0.0 {
            return Err(SamplingError::ZeroTotalWeight);
        }
        let mut u = rng.gen_range(0.0..total);
        for &(v, wv) in &nodes {
            if u < wv {
                return Ok(v);
            }
            u -= wv;
        }
        // Floating-point slack can exhaust the loop; the last node absorbs
        // the residual mass (`nodes` is non-empty, checked above).
        nodes.last().map(|n| n.0).ok_or(SamplingError::EmptyGraph)
    }

    /// Draws a uniformly random tuple of the relation directly.
    ///
    /// # Errors
    ///
    /// [`SamplingError::EmptyDatabase`] if the relation is empty.
    pub fn sample_tuple<R: Rng + ?Sized>(
        &self,
        db: &P2PDatabase,
        rng: &mut R,
    ) -> Result<(TupleHandle, Tuple)> {
        let total = db.total_tuples();
        if total == 0 {
            return Err(SamplingError::EmptyDatabase);
        }
        let target = rng.gen_range(0..total);
        db.iter()
            .nth(target)
            .map(|(h, row)| (h, row.to_tuple()))
            .ok_or(SamplingError::EmptyDatabase)
    }
}

/// A plain (uncorrected) random walk: uniform forwarding over neighbors,
/// laziness ½ to match the Metropolis walk's tempo. Its stationary
/// distribution is degree-biased — the skew the §V-A Metropolis
/// correction (Eq. 12) exists to remove.
#[derive(Debug, Clone)]
pub struct NaiveWalkSampler {
    walk_length: u64,
}

impl NaiveWalkSampler {
    /// Creates a naive walker that walks `walk_length` steps per sample.
    ///
    /// # Errors
    ///
    /// [`SamplingError::InvalidConfig`] if `walk_length == 0`.
    pub fn new(walk_length: u64) -> Result<Self> {
        if walk_length == 0 {
            return Err(SamplingError::InvalidConfig {
                reason: "walk_length must be positive",
            });
        }
        Ok(Self { walk_length })
    }

    /// Draws a sample node; its distribution converges to `π_v ∝ d_v`
    /// (NOT the uniform/target distribution — that is the point).
    ///
    /// # Errors
    ///
    /// [`SamplingError::UnknownNode`] if `origin` is not live.
    pub fn sample_node<R: Rng + ?Sized>(
        &self,
        g: &Graph,
        origin: NodeId,
        rng: &mut R,
    ) -> Result<NodeId> {
        if !g.contains(origin) {
            return Err(SamplingError::UnknownNode(origin));
        }
        let mut current = origin;
        for _ in 0..self.walk_length {
            if rng.gen_bool(0.5) {
                continue;
            }
            let nbs = g.neighbors(current);
            if nbs.is_empty() {
                continue;
            }
            current = nbs[rng.gen_range(0..nbs.len())];
        }
        Ok(current)
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
    use crate::weight::uniform_weight;
    use digest_db::Schema;
    use digest_net::topology;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn oracle_node_sampling_matches_weights() {
        let g = topology::ring(4).unwrap();
        let w = |v: NodeId| f64::from(v.0) + 1.0; // 1,2,3,4 → total 10
        let oracle = OracleSampler::new();
        let mut r = rng(1);
        let mut hits = [0usize; 4];
        for _ in 0..20_000 {
            hits[oracle.sample_node(&g, &w, &mut r).unwrap().0 as usize] += 1;
        }
        for (i, &h) in hits.iter().enumerate() {
            let p = h as f64 / 20_000.0;
            let want = (i + 1) as f64 / 10.0;
            assert!((p - want).abs() < 0.02, "node {i}: {p} vs {want}");
        }
    }

    #[test]
    fn oracle_tuple_sampling_uniform() {
        let mut db = P2PDatabase::new(Schema::single("a"));
        db.register_node(NodeId(0));
        db.register_node(NodeId(1));
        db.insert(NodeId(0), Tuple::single(0.0)).unwrap();
        db.insert(NodeId(1), Tuple::single(1.0)).unwrap();
        db.insert(NodeId(1), Tuple::single(2.0)).unwrap();
        let oracle = OracleSampler::new();
        let mut r = rng(2);
        let mut hits = [0usize; 3];
        for _ in 0..9000 {
            let (_, t) = oracle.sample_tuple(&db, &mut r).unwrap();
            hits[t.value(0).unwrap() as usize] += 1;
        }
        for &h in &hits {
            assert!((h as f64 / 9000.0 - 1.0 / 3.0).abs() < 0.02, "{hits:?}");
        }
    }

    #[test]
    fn oracle_errors() {
        let oracle = OracleSampler::new();
        let mut r = rng(3);
        let g = digest_net::Graph::new();
        assert!(matches!(
            oracle.sample_node(&g, &uniform_weight(), &mut r),
            Err(SamplingError::EmptyGraph)
        ));
        let db = P2PDatabase::new(Schema::single("a"));
        assert!(matches!(
            oracle.sample_tuple(&db, &mut r),
            Err(SamplingError::EmptyDatabase)
        ));
        let g = topology::ring(3).unwrap();
        let zero = |_: NodeId| 0.0;
        assert!(matches!(
            oracle.sample_node(&g, &zero, &mut r),
            Err(SamplingError::ZeroTotalWeight)
        ));
    }

    #[test]
    fn naive_walk_is_degree_biased_on_star() {
        // Star: hub degree n−1, leaves degree 1 → hub stationary mass ½.
        let g = topology::star(9).unwrap();
        let naive = NaiveWalkSampler::new(200).unwrap();
        let mut r = rng(4);
        let mut hub = 0usize;
        let trials = 4000;
        for _ in 0..trials {
            if naive.sample_node(&g, NodeId(1), &mut r).unwrap() == NodeId(0) {
                hub += 1;
            }
        }
        let p_hub = hub as f64 / trials as f64;
        assert!(
            (p_hub - 0.5).abs() < 0.04,
            "hub mass = {p_hub} (expect ~0.5, not 1/9)"
        );
    }

    #[test]
    fn naive_walk_validates() {
        assert!(NaiveWalkSampler::new(0).is_err());
        let g = topology::ring(3).unwrap();
        let naive = NaiveWalkSampler::new(5).unwrap();
        let mut r = rng(5);
        assert!(matches!(
            naive.sample_node(&g, NodeId(9), &mut r),
            Err(SamplingError::UnknownNode(_))
        ));
    }
}
