//! One Metropolis random walk (paper §V-A, Eq. 12, Theorem 2).
//!
//! The walk at node `i` behaves as follows each step:
//!
//! 1. with probability ½ it stays put (the *laziness* that makes the chain
//!    aperiodic even on bipartite overlays such as meshes);
//! 2. otherwise it proposes a uniformly random neighbor `j` (probability
//!    `1/d_i` each) and *accepts* the move with probability
//!    `min(1, (w_j · d_i) / (w_i · d_j))`, staying at `i` on rejection.
//!
//! This realises exactly the forwarding matrix of Eq. 12:
//! `P_ij = ½ · (1/d_i) · min(1, (p_j d_i)/(p_i d_j))` for neighbors and
//! `P_ii = 1 − Σ_j P_ij`, whose unique stationary distribution is
//! `p_v ∝ w_v`. Everything node `i` needs is its own weight/degree and its
//! neighbors' — fully local.
//!
//! Message accounting: an accepted move physically forwards the sampling
//! agent (1 message). Rejections and self-loops are local decisions and
//! cost nothing; neighbor weights are assumed known from the routine
//! keep-alive exchange (the paper's "obtaining the weight `w_j` from its
//! neighbor `j`").

use crate::draw;
use crate::error::SamplingError;
use crate::weight::NodeWeight;
use crate::Result;
use digest_net::{Graph, NodeId};
use digest_telemetry::registry as telemetry;
use rand::Rng;

/// A zero-weight node is treated as having this weight when it is the
/// *current* node, so the walk always escapes zero-weight nodes instead of
/// dividing by zero. (A zero-weight node still has stationary probability
/// ~0 because every neighbor accepts a move away from it and essentially
/// never accepts a move into it.)
pub(crate) const ZERO_WEIGHT_FLOOR: f64 = 1e-300;

/// The state of one random-walking sampling agent (paper §V-A, Eq. 12).
#[derive(Debug, Clone)]
pub struct MetropolisWalk {
    current: NodeId,
    origin: NodeId,
    steps: u64,
    messages: u64,
}

impl MetropolisWalk {
    /// Starts a walk at `origin`.
    ///
    /// # Errors
    ///
    /// [`SamplingError::UnknownNode`] if `origin` is not live in `g`.
    pub fn new(g: &Graph, origin: NodeId) -> Result<Self> {
        if !g.contains(origin) {
            return Err(SamplingError::UnknownNode(origin));
        }
        Ok(Self {
            current: origin,
            origin,
            steps: 0,
            messages: 0,
        })
    }

    /// Rebuilds a pooled walk from executor state: the batch executor
    /// advances walks on an immutable occasion snapshot and writes the
    /// final positions back through this constructor (crate-internal; the
    /// cumulative step/message tallies keep [`MetropolisWalk::steps`] and
    /// [`MetropolisWalk::messages`] consistent with sequential stepping).
    pub(crate) fn restore(current: NodeId, origin: NodeId, steps: u64, messages: u64) -> Self {
        Self {
            current,
            origin,
            steps,
            messages,
        }
    }

    /// The node the agent currently occupies.
    #[must_use]
    pub fn current(&self) -> NodeId {
        self.current
    }

    /// The node that launched the walk.
    #[must_use]
    pub fn origin(&self) -> NodeId {
        self.origin
    }

    /// Number of steps taken (including lazy/rejected steps).
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Number of node-to-node messages spent so far (accepted moves).
    #[must_use]
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// If the walk's current node has left the overlay (churn between
    /// sampling occasions), restart the agent from a given live node.
    ///
    /// # Errors
    ///
    /// [`SamplingError::UnknownNode`] if `node` is not live.
    pub fn relocate(&mut self, g: &Graph, node: NodeId) -> Result<()> {
        if !g.contains(node) {
            return Err(SamplingError::UnknownNode(node));
        }
        self.current = node;
        Ok(())
    }

    /// Advances the walk one step under weight function `w` (a run of
    /// length 1, see [`MetropolisWalk::run`]). Returns whether the agent
    /// physically moved.
    ///
    /// # Errors
    ///
    /// As for [`MetropolisWalk::run`].
    pub fn step<W: NodeWeight, R: Rng + ?Sized>(
        &mut self,
        g: &Graph,
        w: &W,
        rng: &mut R,
    ) -> Result<bool> {
        let before = self.messages;
        self.run(g, w, 1, rng)?;
        Ok(self.messages > before)
    }

    /// Runs `steps` steps under weight function `w`. A lazy step is a
    /// no-op, so the run first draws how many of its steps are active —
    /// Binomial(`steps`, ½), the popcount of one masked `u64` per chunk
    /// of ≤ 64 steps — and each active step then proposes a uniform
    /// neighbour and accepts it against the Eq. 12 ratio, drawing through
    /// the same kernel as the occasion-snapshot walk.
    ///
    /// # Errors
    ///
    /// * [`SamplingError::UnknownNode`] if the current node was removed
    ///   from the graph (caller should [`MetropolisWalk::relocate`]).
    /// * [`SamplingError::InvalidWeight`] on negative/non-finite weights.
    pub fn run<W: NodeWeight, R: Rng + ?Sized>(
        &mut self,
        g: &Graph,
        w: &W,
        steps: u64,
        rng: &mut R,
    ) -> Result<()> {
        if !g.contains(self.current) {
            return Err(SamplingError::UnknownNode(self.current));
        }
        let active = draw::active_steps(rng, steps);
        self.steps += steps;
        telemetry::SAMPLING_WALK_STEPS.add(steps);
        telemetry::SAMPLING_MH_LAZY.add(steps - active);
        for _ in 0..active {
            let neighbors = g.neighbors(self.current);
            let span = u32::try_from(neighbors.len()).unwrap_or(u32::MAX);
            if span == 0 {
                break;
            }
            let proposal = neighbors[draw::uniform_below(rng, span) as usize];
            telemetry::SAMPLING_MH_PROPOSALS.inc();

            let w_i = checked_weight(w, self.current)?.max(ZERO_WEIGHT_FLOOR);
            let w_j = checked_weight(w, proposal)?;
            let d_i = g.degree(self.current) as f64;
            let d_j = g.degree(proposal) as f64;
            if draw::accept(rng, draw::accept_threshold((w_j * d_i) / (w_i * d_j))) {
                self.current = proposal;
                self.messages += 1;
                telemetry::SAMPLING_MH_ACCEPTS.inc();
                telemetry::SAMPLING_WALK_HOPS.inc();
            }
        }
        Ok(())
    }
}

fn checked_weight<W: NodeWeight>(w: &W, node: NodeId) -> Result<f64> {
    let weight = w.weight(node);
    if !weight.is_finite() || weight < 0.0 {
        return Err(SamplingError::InvalidWeight { node, weight });
    }
    Ok(weight)
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
    use digest_net::topology;
    use digest_stats::{total_variation_distance, DiscreteDistribution};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    /// Runs many independent walks of `len` steps and returns the
    /// empirical distribution of their end nodes over node-id order.
    fn empirical_endpoints(
        g: &Graph,
        w: &impl NodeWeight,
        len: u64,
        walks: usize,
        seed: u64,
    ) -> DiscreteDistribution {
        let mut r = rng(seed);
        let nodes: Vec<NodeId> = g.nodes().collect();
        let mut index = vec![usize::MAX; g.id_upper_bound()];
        for (i, &v) in nodes.iter().enumerate() {
            index[v.0 as usize] = i;
        }
        let mut counts = vec![0u64; nodes.len()];
        for _ in 0..walks {
            let start = nodes[0];
            let mut walk = MetropolisWalk::new(g, start).unwrap();
            walk.run(g, w, len, &mut r).unwrap();
            counts[index[walk.current().0 as usize]] += 1;
        }
        DiscreteDistribution::from_counts(&counts).unwrap()
    }

    #[test]
    fn rejects_unknown_origin() {
        let g = topology::ring(5).unwrap();
        assert!(matches!(
            MetropolisWalk::new(&g, NodeId(99)),
            Err(SamplingError::UnknownNode(_))
        ));
    }

    #[test]
    fn uniform_target_on_ring_converges_to_uniform() {
        let g = topology::ring(8).unwrap();
        let w = uniform_weight();
        let emp = empirical_endpoints(&g, &w, 200, 20_000, 1);
        let target = DiscreteDistribution::uniform(8).unwrap();
        let tvd = total_variation_distance(&emp, &target).unwrap();
        assert!(tvd < 0.03, "TVD = {tvd}");
    }

    #[test]
    fn uniform_target_on_star_corrects_degree_bias() {
        // A naive walk would sit at the hub half the time; Metropolis with
        // uniform weights must visit leaves equally.
        let g = topology::star(9).unwrap(); // hub + 8 leaves
        let w = uniform_weight();
        let emp = empirical_endpoints(&g, &w, 300, 30_000, 2);
        let target = DiscreteDistribution::uniform(9).unwrap();
        let tvd = total_variation_distance(&emp, &target).unwrap();
        assert!(tvd < 0.03, "TVD = {tvd}");
    }

    #[test]
    fn nonuniform_target_is_reached() {
        // Weight node v by (v+1): stationary ∝ 1,2,3,…
        let g = topology::complete(5).unwrap();
        let w = |v: NodeId| f64::from(v.0) + 1.0;
        let emp = empirical_endpoints(&g, &w, 120, 30_000, 3);
        let target = DiscreteDistribution::from_weights(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        let tvd = total_variation_distance(&emp, &target).unwrap();
        assert!(tvd < 0.03, "TVD = {tvd}");
    }

    #[test]
    fn zero_weight_nodes_are_avoided_at_stationarity() {
        let g = topology::complete(4).unwrap();
        // Node 0 has zero weight.
        let w = |v: NodeId| if v.0 == 0 { 0.0 } else { 1.0 };
        let emp = empirical_endpoints(&g, &w, 150, 20_000, 4);
        assert!(
            emp.prob(0) < 0.01,
            "zero-weight node visited: {}",
            emp.prob(0)
        );
        for i in 1..4 {
            assert!((emp.prob(i) - 1.0 / 3.0).abs() < 0.03);
        }
    }

    #[test]
    fn walk_starting_at_zero_weight_node_escapes() {
        let g = topology::ring(5).unwrap();
        let w = |v: NodeId| if v.0 == 0 { 0.0 } else { 1.0 };
        let mut r = rng(5);
        let mut walk = MetropolisWalk::new(&g, NodeId(0)).unwrap();
        walk.run(&g, &w, 50, &mut r).unwrap();
        assert_ne!(walk.current(), NodeId(0));
    }

    #[test]
    fn negative_weight_is_an_error() {
        let g = topology::ring(5).unwrap();
        let w = |_: NodeId| -1.0;
        let mut r = rng(6);
        let mut walk = MetropolisWalk::new(&g, NodeId(0)).unwrap();
        // The first non-lazy step must surface the invalid weight.
        let mut saw_error = false;
        for _ in 0..20 {
            if walk.step(&g, &w, &mut r).is_err() {
                saw_error = true;
                break;
            }
        }
        assert!(saw_error);
    }

    #[test]
    fn messages_count_accepted_moves_only() {
        let g = topology::ring(6).unwrap();
        let w = uniform_weight();
        let mut r = rng(7);
        let mut walk = MetropolisWalk::new(&g, NodeId(0)).unwrap();
        let mut moves = 0;
        for _ in 0..100 {
            if walk.step(&g, &w, &mut r).unwrap() {
                moves += 1;
            }
        }
        assert_eq!(walk.messages(), moves);
        assert_eq!(walk.steps(), 100);
        // On a uniform-weight ring every proposal is accepted → moves ≈ half
        // the steps (laziness).
        assert!(moves > 30 && moves < 70, "moves = {moves}");
    }

    #[test]
    fn departed_current_node_surfaces_error_and_relocate_recovers() {
        let mut g = topology::ring(5).unwrap();
        let w = uniform_weight();
        let mut r = rng(8);
        let mut walk = MetropolisWalk::new(&g, NodeId(2)).unwrap();
        g.remove_node(NodeId(2)).unwrap();
        assert!(matches!(
            walk.step(&g, &w, &mut r),
            Err(SamplingError::UnknownNode(_))
        ));
        walk.relocate(&g, NodeId(0)).unwrap();
        assert!(walk.step(&g, &w, &mut r).is_ok());
        assert!(walk.relocate(&g, NodeId(2)).is_err());
    }

    #[test]
    fn isolated_node_walk_stays_put() {
        let mut g = digest_net::Graph::new();
        let a = g.add_node();
        let w = uniform_weight();
        let mut r = rng(9);
        let mut walk = MetropolisWalk::new(&g, a).unwrap();
        walk.run(&g, &w, 10, &mut r).unwrap();
        assert_eq!(walk.current(), a);
        assert_eq!(walk.messages(), 0);
    }
}
