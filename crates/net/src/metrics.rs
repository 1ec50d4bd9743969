//! Topology diagnostics.
//!
//! The mixing-time result (paper Theorem 4) assumes a power-law degree
//! distribution `p_k ∝ k^−α` with `2 < α < 3`; these helpers let the
//! experiments verify that generated topologies actually look like that.

use crate::error::NetError;
use crate::graph::Graph;
use crate::Result;

/// Summary statistics of a degree distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeStats {
    /// Smallest degree among live nodes.
    pub min: usize,
    /// Largest degree among live nodes.
    pub max: usize,
    /// Mean degree.
    pub mean: f64,
    /// Population variance of the degree.
    pub variance: f64,
}

/// Computes degree summary statistics (all zeros for an empty graph).
#[must_use]
pub fn degree_distribution(g: &Graph) -> DegreeStats {
    let n = g.node_count();
    if n == 0 {
        return DegreeStats {
            min: 0,
            max: 0,
            mean: 0.0,
            variance: 0.0,
        };
    }
    let mut min = usize::MAX;
    let mut max = 0usize;
    let mut sum = 0.0;
    let mut sum_sq = 0.0;
    for v in g.nodes() {
        let d = g.degree(v);
        min = min.min(d);
        max = max.max(d);
        sum += d as f64;
        sum_sq += (d * d) as f64;
    }
    let mean = sum / n as f64;
    DegreeStats {
        min,
        max,
        mean,
        variance: sum_sq / n as f64 - mean * mean,
    }
}

/// Maximum-likelihood estimate of the power-law exponent `α` for the
/// degree distribution, using the discrete Hill estimator
/// `α = 1 + n / Σ ln(k_i / (k_min − ½))` over nodes with degree ≥ `k_min`.
///
/// # Errors
///
/// * [`NetError::EmptyGraph`] if no node has degree ≥ `k_min`.
/// * [`NetError::InvalidTopology`] if `k_min == 0`.
pub fn estimate_power_law_alpha(g: &Graph, k_min: usize) -> Result<f64> {
    if k_min == 0 {
        return Err(NetError::InvalidTopology {
            reason: "k_min must be positive",
        });
    }
    let shift = k_min as f64 - 0.5;
    let mut n = 0usize;
    let mut log_sum = 0.0;
    for v in g.nodes() {
        let d = g.degree(v);
        if d >= k_min {
            n += 1;
            log_sum += (d as f64 / shift).ln();
        }
    }
    if n == 0 || log_sum <= 0.0 {
        return Err(NetError::EmptyGraph);
    }
    Ok(1.0 + n as f64 / log_sum)
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
    use crate::topology;
    use rand::SeedableRng;

    #[test]
    fn degree_stats_of_ring() {
        let g = topology::ring(10).unwrap();
        let s = degree_distribution(&g);
        assert_eq!(s.min, 2);
        assert_eq!(s.max, 2);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!(s.variance.abs() < 1e-12);
    }

    #[test]
    fn degree_stats_empty() {
        let g = Graph::new();
        let s = degree_distribution(&g);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 0);
    }

    #[test]
    fn alpha_estimate_on_ba_graph() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let g = topology::barabasi_albert(3000, 2, &mut rng).unwrap();
        let alpha = estimate_power_law_alpha(&g, 2).unwrap();
        // BA converges to α = 3; the MLE on finite graphs lands nearby.
        assert!(alpha > 2.0 && alpha < 3.6, "alpha = {alpha}");
    }

    #[test]
    fn alpha_estimate_validates() {
        let g = topology::ring(5).unwrap();
        assert!(estimate_power_law_alpha(&g, 0).is_err());
        // k_min above every degree → no data.
        assert!(estimate_power_law_alpha(&g, 10).is_err());
    }
}
