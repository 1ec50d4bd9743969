//! Node churn: the dynamic membership of `V`.
//!
//! Paper §II: "As nodes autonomously join and leave the network, the
//! member-set of `V`, and accordingly, that of `E` vary in time." The
//! evaluation contrasts a near-static network (weather stations) with a
//! churn-heavy one (SETI@home). This module provides a per-tick churn
//! process: every live node leaves with a configured probability, and a
//! configured expected number of new nodes join, attaching either
//! uniformly or preferentially (the latter preserves the power-law shape
//! under sustained churn).
//!
//! After processing leaves, the process optionally repairs partitions by
//! stitching stray components back to the giant component — modelling the
//! overlay's bootstrap/rejoin machinery, and preserving the paper's
//! standing assumption that the graph sampled by a walk is connected.
//! A step almost never partitions a large overlay, so the repair first
//! tries to prove that from what the step touched (see `repair`) and
//! scans the graph only when that proof fails. Who leaves is drawn by
//! [`BernoulliHits`], one RNG word per departure, so a step costs what it
//! changes and not what the overlay holds.

use crate::bernoulli::BernoulliHits;
use crate::error::NetError;
use crate::graph::{Graph, NodeId};
use crate::topology::stitch_connected;
use crate::Result;
use digest_telemetry::{registry as telemetry, Field};
use rand::Rng;

/// Configuration of the churn process.
#[derive(Debug, Clone, Copy)]
pub struct ChurnConfig {
    /// Per-node, per-tick probability of leaving the network.
    pub leave_prob: f64,
    /// Expected number of joins per tick (fractional rates are realised
    /// by Bernoulli rounding).
    pub join_rate: f64,
    /// Number of links a joining node establishes (capped by the current
    /// network size).
    pub attach_links: usize,
    /// Attach preferentially by degree (true) or uniformly (false).
    pub preferential: bool,
    /// Never let leaves shrink the network below this size.
    pub min_nodes: usize,
    /// Re-connect stray components after leaves.
    pub repair_partitions: bool,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        Self {
            leave_prob: 0.0,
            join_rate: 0.0,
            attach_links: 2,
            preferential: true,
            min_nodes: 3,
            repair_partitions: true,
        }
    }
}

impl ChurnConfig {
    /// How many nodes `steps` steps join, for sizing a world ahead of its
    /// run. A step joins `⌊join_rate⌋` nodes plus one more with the
    /// fraction `f`'s probability, so the total is `⌊join_rate⌋·steps` plus
    /// a Binomial(`steps`, `f`) count; this is that count's mean plus four
    /// standard deviations, rounded up and never above `steps` — exact for
    /// a whole rate, exceeded with probability below 10⁻⁴ otherwise.
    #[must_use]
    pub fn joins_within(&self, steps: u64) -> usize {
        let whole = self.join_rate.floor().clamp(0.0, 1e9);
        let frac = (self.join_rate - whole).clamp(0.0, 1.0);
        let steps = steps as f64;
        let mean = frac * steps;
        let extra = (mean + 4.0 * (mean * (1.0 - frac)).sqrt())
            .ceil()
            .min(steps);
        // A float-to-int `as` saturates, so a huge product cannot wrap.
        #[allow(clippy::cast_possible_truncation)]
        let joins = (whole * steps + extra) as usize;
        joins
    }
}

/// One membership change produced by a churn step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEvent {
    /// A new node joined the overlay.
    Joined(NodeId),
    /// An existing node left (its tuples are gone with it).
    Left(NodeId),
}

/// The churn process. Stateless apart from its configuration; determinism
/// comes from the caller's RNG. What a repairing step learns — that it
/// left the overlay connected — is kept on the [`Graph`], keyed to its
/// mutation epoch, so the next step can build on it.
#[derive(Debug, Clone)]
pub struct ChurnProcess {
    config: ChurnConfig,
}

impl ChurnProcess {
    /// Creates a churn process.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidTopology`] if `leave_prob ∉ [0, 1]`,
    /// `join_rate < 0`, or `attach_links == 0`.
    pub fn new(config: ChurnConfig) -> Result<Self> {
        if !(0.0..=1.0).contains(&config.leave_prob) {
            return Err(NetError::InvalidTopology {
                reason: "leave_prob must be in [0, 1]",
            });
        }
        if config.join_rate.is_nan() || config.join_rate < 0.0 || !config.join_rate.is_finite() {
            return Err(NetError::InvalidTopology {
                reason: "join_rate must be non-negative",
            });
        }
        if config.attach_links == 0 {
            return Err(NetError::InvalidTopology {
                reason: "attach_links must be positive",
            });
        }
        Ok(Self { config })
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &ChurnConfig {
        &self.config
    }

    /// Advances the churn process one tick, mutating the graph and
    /// returning the membership events in application order.
    pub fn step<R: Rng + ?Sized>(&self, g: &mut Graph, rng: &mut R) -> Vec<ChurnEvent> {
        self.step_and_report(g, rng).0
    }

    /// [`Self::step`], also reporting whether the repair had to scan the
    /// whole overlay.
    fn step_and_report<R: Rng + ?Sized>(
        &self,
        g: &mut Graph,
        rng: &mut R,
    ) -> (Vec<ChurnEvent>, bool) {
        let mut events = Vec::new();
        let cfg = &self.config;
        let was_connected = g.proven_connected();
        // What `repair` chains together: the former neighbours of every
        // departed node, one pre-step survivor, and every joiner.
        let mut terminals = Vec::new();

        decide_leaves(cfg, g, rng, &mut events);
        for event in &events {
            if let ChurnEvent::Left(id) = *event {
                terminals.extend_from_slice(g.neighbors(id));
                // Cannot fail: `id` came off the live list just now.
                let _ = g.remove_node(id);
            }
        }
        terminals.extend(g.nodes().next());

        // Joins. The clamp keeps the float-to-int cast in-range (join
        // rates are small; 1e9 is far beyond any usable overlay size).
        #[allow(clippy::cast_possible_truncation)]
        let mut joins = cfg.join_rate.floor().clamp(0.0, 1e9) as usize;
        let frac = cfg.join_rate - joins as f64;
        if frac > 0.0 && rng.gen_bool(frac) {
            joins += 1;
        }
        for _ in 0..joins {
            let new = g.add_node();
            events.push(ChurnEvent::Joined(new));
            terminals.push(new);
            let peers = g.node_count() - 1;
            let links = cfg.attach_links.min(peers);
            let mut attached = 0usize;
            let mut attempts = 0usize;
            while attached < links && attempts < 20 * links + 20 {
                attempts += 1;
                let target = match self.pick_target(g, new, rng) {
                    Some(t) => t,
                    None => break,
                };
                if let Ok(true) = g.add_edge(new, target) {
                    attached += 1;
                }
            }
        }

        let scanned = cfg.repair_partitions && repair(g, rng, was_connected, &terminals);

        let joined = events
            .iter()
            .filter(|e| matches!(e, ChurnEvent::Joined(_)))
            .count() as u64;
        let left = events.len() as u64 - joined;
        telemetry::NET_CHURN_JOINS.add(joined);
        telemetry::NET_CHURN_LEAVES.add(left);
        if !events.is_empty() && digest_telemetry::events_enabled() {
            digest_telemetry::emit(
                "net.churn",
                &[("joins", Field::U64(joined)), ("leaves", Field::U64(left))],
            );
        }
        (events, scanned)
    }

    /// Picks an attachment target: uniform, or degree-biased by choosing a
    /// random endpoint of a random node's adjacency (one step of the
    /// "random neighbor" trick approximates degree-proportional choice).
    fn pick_target<R: Rng + ?Sized>(
        &self,
        g: &Graph,
        exclude: NodeId,
        rng: &mut R,
    ) -> Option<NodeId> {
        for _ in 0..32 {
            let v = g.random_node(rng).ok()?;
            if self.config.preferential {
                let nbs = g.neighbors(v);
                if !nbs.is_empty() {
                    let t = nbs[rng.gen_range(0..nbs.len())];
                    if t != exclude {
                        return Some(t);
                    }
                    continue;
                }
            }
            if v != exclude {
                return Some(v);
            }
        }
        None
    }
}

/// Appends this step's departures to `events`: every node of the live
/// list as the step found it leaves with `leave_prob`, in that list's
/// order, until only `min_nodes` would remain. Decided before anything is
/// applied, so position `i` is the `i`-th node the step started with.
/// xtask: no-alloc
fn decide_leaves<R: Rng + ?Sized>(
    cfg: &ChurnConfig,
    g: &Graph,
    rng: &mut R,
    events: &mut Vec<ChurnEvent>,
) {
    let mut remaining = g.node_count();
    let mut leaving = BernoulliHits::new(remaining, cfg.leave_prob);
    while remaining > cfg.min_nodes {
        // `nth` on the live slice is a bounds check and an offset.
        let Some(id) = leaving.next(rng).and_then(|i| g.nodes().nth(i)) else {
            break;
        };
        events.push(ChurnEvent::Left(id));
        remaining -= 1;
    }
}

/// Leaves the overlay connected — stitching every stray component back to
/// the giant one with a single random edge — and marks it so. Returns
/// whether that took a scan of the whole graph.
///
/// It does not when the overlay was proven connected as the step began
/// (`was_connected`) and the step's `terminals` — the former neighbours of
/// every departed node, one pre-step survivor, every joiner — all reach
/// one another now. That is a proof for any overlay: a step removes no
/// edge between survivors, so the old path from a survivor to the chosen
/// one either still stands or first breaks at a departed node, whose
/// surviving predecessor on it is a terminal; and every joiner is a
/// terminal itself (two joiners linked only to each other have degree 1
/// and are still an island, which is why degrees prove nothing). Without
/// the proof there may be a partition, and which stray gets which anchor
/// depends on the whole component structure.
fn repair<R: Rng + ?Sized>(
    g: &mut Graph,
    rng: &mut R,
    was_connected: bool,
    terminals: &[NodeId],
) -> bool {
    let scan = !(was_connected && g.chain_connected(terminals));
    if scan {
        stitch_connected(g, rng);
    }
    g.mark_connected();
    scan
}

/// The scan-every-step implementation `step` replaced, kept as the model
/// the proptest below holds it to: it shares who leaves (`decide_leaves`)
/// and how a joiner picks its peers, and finds and mends partitions its
/// own way.
#[cfg(test)]
mod reference {
    use super::{decide_leaves, ChurnEvent, ChurnProcess};
    use crate::graph::{Graph, NodeId};
    use rand::Rng;

    pub(super) fn step<R: Rng + ?Sized>(
        process: &ChurnProcess,
        g: &mut Graph,
        rng: &mut R,
    ) -> Vec<ChurnEvent> {
        let mut events = Vec::new();
        let cfg = &process.config;

        decide_leaves(cfg, g, rng, &mut events);
        for event in &events {
            if let ChurnEvent::Left(id) = *event {
                let _ = g.remove_node(id);
            }
        }

        #[allow(clippy::cast_possible_truncation)]
        let mut joins = cfg.join_rate.floor().clamp(0.0, 1e9) as usize;
        let frac = cfg.join_rate - joins as f64;
        if frac > 0.0 && rng.gen_bool(frac) {
            joins += 1;
        }
        for _ in 0..joins {
            let new = g.add_node();
            events.push(ChurnEvent::Joined(new));
            let peers = g.node_count() - 1;
            let links = cfg.attach_links.min(peers);
            let mut attached = 0usize;
            let mut attempts = 0usize;
            while attached < links && attempts < 20 * links + 20 {
                attempts += 1;
                let target = match process.pick_target(g, new, rng) {
                    Some(t) => t,
                    None => break,
                };
                if let Ok(true) = g.add_edge(new, target) {
                    attached += 1;
                }
            }
        }

        if cfg.repair_partitions {
            repair(g, rng);
        }
        events
    }

    fn repair<R: Rng + ?Sized>(g: &mut Graph, rng: &mut R) {
        loop {
            let giant = g.largest_component();
            if giant.len() == g.node_count() || giant.is_empty() {
                return;
            }
            let in_giant: std::collections::BTreeSet<NodeId> = giant.iter().copied().collect();
            let Some(stray) = g.nodes().find(|id| !in_giant.contains(id)) else {
                return;
            };
            let anchor = giant[rng.gen_range(0..giant.len())];
            let _ = g.add_edge(stray, anchor);
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
    use crate::bernoulli::Counting;
    use crate::topology;
    use proptest::prelude::*;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn validates_config() {
        assert!(ChurnProcess::new(ChurnConfig {
            leave_prob: -0.1,
            ..Default::default()
        })
        .is_err());
        assert!(ChurnProcess::new(ChurnConfig {
            leave_prob: 1.1,
            ..Default::default()
        })
        .is_err());
        assert!(ChurnProcess::new(ChurnConfig {
            join_rate: -1.0,
            ..Default::default()
        })
        .is_err());
        assert!(ChurnProcess::new(ChurnConfig {
            attach_links: 0,
            ..Default::default()
        })
        .is_err());
        assert!(ChurnProcess::new(ChurnConfig::default()).is_ok());
    }

    /// `joins_within` is what the steps join for a whole rate, and above
    /// it for a fractional one.
    #[test]
    fn joins_stay_within_the_sizing_bound() {
        for join_rate in [0.0, 0.164, 1.0, 2.0, 2.5] {
            let config = ChurnConfig {
                join_rate,
                ..Default::default()
            };
            let p = ChurnProcess::new(config).unwrap();
            for seed in 0..8 {
                let mut g = topology::ring(10).unwrap();
                let mut r = rng(seed);
                let mut joined = 0;
                for _ in 0..300 {
                    let events = p.step(&mut g, &mut r);
                    joined += events
                        .iter()
                        .filter(|e| matches!(e, ChurnEvent::Joined(_)))
                        .count();
                }
                let bound = config.joins_within(300);
                if join_rate.fract() == 0.0 {
                    assert_eq!(joined, bound, "rate {join_rate}");
                } else {
                    assert!(joined < bound, "rate {join_rate}: {joined} > {bound}");
                }
            }
        }
        // Never above every step's bonus join, even on a short run.
        let config = ChurnConfig {
            join_rate: 0.5,
            ..Default::default()
        };
        assert_eq!(config.joins_within(3), 3);
        assert_eq!(config.joins_within(0), 0);
    }

    #[test]
    fn zero_churn_is_identity() {
        let mut g = topology::ring(10).unwrap();
        let p = ChurnProcess::new(ChurnConfig::default()).unwrap();
        let events = p.step(&mut g, &mut rng(1));
        assert!(events.is_empty());
        assert_eq!(g.node_count(), 10);
        assert_eq!(g.edge_count(), 10);
    }

    #[test]
    fn joins_grow_the_network() {
        let mut g = topology::ring(10).unwrap();
        let p = ChurnProcess::new(ChurnConfig {
            join_rate: 3.0,
            ..Default::default()
        })
        .unwrap();
        let events = p.step(&mut g, &mut rng(2));
        let joined = events
            .iter()
            .filter(|e| matches!(e, ChurnEvent::Joined(_)))
            .count();
        assert_eq!(joined, 3);
        assert_eq!(g.node_count(), 13);
        assert!(g.is_connected());
        // Each joiner got its links.
        for e in &events {
            if let ChurnEvent::Joined(id) = e {
                assert!(g.degree(*id) >= 1);
            }
        }
    }

    #[test]
    fn leaves_shrink_but_respect_floor() {
        let mut g = topology::complete(10).unwrap();
        let p = ChurnProcess::new(ChurnConfig {
            leave_prob: 1.0,
            min_nodes: 4,
            ..Default::default()
        })
        .unwrap();
        let events = p.step(&mut g, &mut rng(3));
        assert_eq!(g.node_count(), 4);
        let left = events
            .iter()
            .filter(|e| matches!(e, ChurnEvent::Left(_)))
            .count();
        assert_eq!(left, 6);
    }

    #[test]
    fn repair_keeps_graph_connected_under_heavy_churn() {
        let mut g = topology::barabasi_albert(100, 2, &mut rng(4)).unwrap();
        let p = ChurnProcess::new(ChurnConfig {
            leave_prob: 0.2,
            join_rate: 15.0,
            attach_links: 2,
            ..Default::default()
        })
        .unwrap();
        let mut r = rng(5);
        for _ in 0..30 {
            p.step(&mut g, &mut r);
            assert!(g.is_connected(), "churn broke connectivity");
            assert!(g.node_count() >= 4);
        }
    }

    #[test]
    fn fractional_join_rate_averages_out() {
        let p = ChurnProcess::new(ChurnConfig {
            join_rate: 0.5,
            ..Default::default()
        })
        .unwrap();
        let mut r = rng(6);
        let mut total = 0usize;
        let trials = 1000;
        for _ in 0..trials {
            let mut g = topology::ring(5).unwrap();
            total += p
                .step(&mut g, &mut r)
                .iter()
                .filter(|e| matches!(e, ChurnEvent::Joined(_)))
                .count();
        }
        let mean = total as f64 / trials as f64;
        assert!((mean - 0.5).abs() < 0.07, "mean joins = {mean}");
    }

    #[test]
    fn preferential_attachment_favours_hubs() {
        // Star graph: the hub has degree n−1. Preferential joiners should
        // attach to the hub far more often than 1/n of the time.
        let p = ChurnProcess::new(ChurnConfig {
            join_rate: 1.0,
            attach_links: 1,
            preferential: true,
            ..Default::default()
        })
        .unwrap();
        let mut r = rng(7);
        let mut hub_hits = 0usize;
        let trials = 300;
        for _ in 0..trials {
            let mut g = topology::star(20).unwrap();
            let events = p.step(&mut g, &mut r);
            let joined = events
                .iter()
                .find_map(|e| match e {
                    ChurnEvent::Joined(id) => Some(*id),
                    ChurnEvent::Left(_) => None,
                })
                .unwrap();
            if g.neighbors(joined).contains(&NodeId(0)) {
                hub_hits += 1;
            }
        }
        // Uniform attachment would hit the hub ~5% of the time.
        assert!(
            hub_hits as f64 / trials as f64 > 0.4,
            "hub hits = {hub_hits}/{trials}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = ChurnConfig {
            leave_prob: 0.1,
            join_rate: 2.0,
            ..Default::default()
        };
        let p = ChurnProcess::new(cfg).unwrap();
        let run = |seed| {
            let mut g = topology::ring(20).unwrap();
            let mut r = rng(seed);
            let mut log = Vec::new();
            for _ in 0..10 {
                log.extend(p.step(&mut g, &mut r));
            }
            (log, g.node_count())
        };
        assert_eq!(run(9), run(9));
    }

    /// ChaCha8 with a periodic stretch of its words forced to `u64::MAX` —
    /// the word on which `random_node` picks the newest node, a fractional
    /// join says no and the next node in line leaves. A stretch that covers
    /// a joiner's `pick_target` makes every attachment attempt fail, which
    /// an honest stream does about once in 2³² joins.
    #[derive(Clone)]
    struct Loaded {
        inner: ChaCha8Rng,
        drawn: u64,
        period: u64,
        stuck: u64,
    }

    impl RngCore for Loaded {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            let word = self.inner.next_u64();
            self.drawn += 1;
            if self.drawn % self.period < self.stuck {
                u64::MAX
            } else {
                word
            }
        }
    }

    /// A step's RNG cost is its departures (one word each, one to run off
    /// the end) and its joiners' peer picks — not one word per live node.
    #[test]
    fn a_step_draws_words_for_what_changes_not_for_what_exists() {
        let config = ChurnConfig {
            leave_prob: 2e-5,
            join_rate: 0.0,
            attach_links: 3,
            preferential: true,
            min_nodes: 8,
            repair_partitions: true,
        };
        let quiet_joins = ChurnProcess::new(config).unwrap();
        let joining = ChurnProcess::new(ChurnConfig {
            join_rate: 2.5,
            ..config
        })
        .unwrap();
        let mut g = topology::barabasi_albert(100_000, 3, &mut rng(15)).unwrap();
        let mut r = Counting {
            inner: rng(16),
            words: 0,
        };
        // The unproven arrival: nothing leaves a BA overlay partitioned, so
        // the scan stitches nothing and draws nothing.
        quiet().step(&mut g, &mut r);
        assert_eq!(r.words, 0);
        let (mut left, mut joined) = (0, 0);
        for step in 0..40 {
            let before = r.words;
            let process = if step % 2 == 0 {
                &quiet_joins
            } else {
                &joining
            };
            let (events, scanned) = process.step_and_report(&mut g, &mut r);
            assert!(!scanned);
            let leaves = events
                .iter()
                .filter(|e| matches!(e, ChurnEvent::Left(_)))
                .count();
            let joins = events.len() - leaves;
            left += leaves;
            joined += joins;
            // Per joiner: the odd rejected or repeated pick aside, two
            // words for each of its three links; one for the fraction.
            let join_words = if joins > 0 { 1 + 16 * joins } else { 0 };
            let words = r.words - before;
            assert!(
                words <= leaves + 1 + join_words,
                "step {step}: {words} words for {leaves} leaves, {joins} joins"
            );
        }
        assert!(left > 40 && joined > 40, "{left} left, {joined} joined");
    }

    fn path(n: usize) -> Graph {
        let mut g = Graph::new();
        let ids: Vec<NodeId> = (0..n).map(|_| g.add_node()).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1]).unwrap();
        }
        g
    }

    /// Two rings that share nothing: an overlay that arrives partitioned.
    fn two_rings(n: usize) -> Graph {
        let mut g = topology::ring(n).unwrap();
        let ids: Vec<NodeId> = (0..n).map(|_| g.add_node()).collect();
        for i in 0..n {
            g.add_edge(ids[i], ids[(i + 1) % n]).unwrap();
        }
        g
    }

    fn overlay(shape: u32, n: usize, seed: u64) -> Graph {
        match shape {
            0 => topology::barabasi_albert(n.max(4), 1 + n % 3, &mut rng(seed)).unwrap(),
            1 => topology::ring(n.max(3)).unwrap(),
            2 => topology::star(n).unwrap(),
            3 => path(n),
            4 => two_rings(n.max(3)),
            _ => topology::complete(2 + n % 2).unwrap(),
        }
    }

    /// What happens to the overlay between two steps.
    #[derive(Debug, Clone)]
    enum Between {
        Nothing,
        /// The step's graph is swapped for a clone of itself.
        CloneGraph,
        /// The `k`-th live node (mod n) loses the edge to its first
        /// neighbour — a bridge on paths, stars and stitched strays.
        CutEdge(usize),
        /// A node appears that nobody attached.
        AddIsolated,
    }

    fn between_strategy() -> impl Strategy<Value = Between> {
        prop_oneof![
            Just(Between::Nothing),
            Just(Between::Nothing),
            Just(Between::Nothing),
            Just(Between::CloneGraph),
            (0usize..64).prop_map(Between::CutEdge),
            Just(Between::AddIsolated),
        ]
    }

    fn config_strategy() -> impl Strategy<Value = ChurnConfig> {
        let rates = (
            prop_oneof![Just(0.0), 0.01f64..0.3, 0.6f64..1.0, Just(1.0)],
            prop_oneof![Just(0.0), 0.0f64..1.5, 3.0f64..5.0],
        );
        (rates, 1usize..4, 0u32..2, 0usize..6, 0u32..6).prop_map(
            |((leave_prob, join_rate), attach_links, preferential, min_nodes, repair)| {
                ChurnConfig {
                    leave_prob,
                    join_rate,
                    attach_links,
                    preferential: preferential == 1,
                    min_nodes,
                    repair_partitions: repair != 0,
                }
            },
        )
    }

    fn same_overlay(a: &Graph, b: &Graph) -> std::result::Result<(), String> {
        prop_assert!(a.nodes().eq(b.nodes()), "live order differs");
        for v in a.nodes() {
            prop_assert_eq!(a.neighbors(v), b.neighbors(v));
        }
        prop_assert_eq!(a.edge_count(), b.edge_count());
        prop_assert_eq!(a.epoch(), b.epoch());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(384))]

        /// `step` against the scan-every-step model it replaced, on clones
        /// of one overlay with cloned RNGs: same events, same overlay down
        /// to neighbour order, same RNG position after every step — and a
        /// full scan exactly when the mark was void or the model stitched.
        #[test]
        fn step_matches_the_scanning_model(
            shape in 0u32..6,
            n in 2usize..40,
            seed in 0u64..1_000_000,
            config in config_strategy(),
            loaded in (40u64..400, 0u64..90),
            script in prop::collection::vec(between_strategy(), 1..41),
        ) {
            let process = ChurnProcess::new(config).unwrap();
            let unrepaired = ChurnProcess::new(ChurnConfig {
                repair_partitions: false,
                ..config
            })
            .unwrap();
            let mut g = overlay(shape, n, seed);
            let mut model = g.clone();
            let mut r = Loaded {
                inner: rng(seed ^ 0x5eed),
                drawn: 0,
                period: loaded.0,
                stuck: loaded.1,
            };
            let mut model_r = r.clone();
            for between in &script {
                match *between {
                    Between::Nothing => {}
                    Between::CloneGraph => g = g.clone(),
                    Between::CutEdge(k) => {
                        let v = g.nodes().nth(k % g.node_count().max(1));
                        if let Some((v, &nb)) = v.and_then(|v| Some((v, g.neighbors(v).first()?))) {
                            g.remove_edge(v, nb).unwrap();
                            model.remove_edge(v, nb).unwrap();
                        }
                    }
                    Between::AddIsolated => {
                        g.add_node();
                        model.add_node();
                    }
                }
                let proven = g.proven_connected();
                let mut left_alone = g.clone();
                reference::step(&unrepaired, &mut left_alone, &mut r.clone());

                let (events, scanned) = process.step_and_report(&mut g, &mut r);
                let model_events = reference::step(&process, &mut model, &mut model_r);
                prop_assert_eq!(&events, &model_events);
                same_overlay(&g, &model)?;
                prop_assert_eq!(r.clone().next_u64(), model_r.clone().next_u64());
                if config.repair_partitions {
                    prop_assert!(g.is_connected());
                    prop_assert!(g.proven_connected());
                    prop_assert_eq!(scanned, !proven || !left_alone.is_connected());
                } else {
                    // Such a step never sets the mark; one it found (a
                    // proven builder's) outlives only a step that edited
                    // nothing.
                    prop_assert!(!scanned);
                    prop_assert!(!g.proven_connected() || proven && events.is_empty());
                }
            }
        }
    }

    fn quiet() -> ChurnProcess {
        ChurnProcess::new(ChurnConfig::default()).unwrap()
    }

    #[test]
    fn a_bridge_cut_between_steps_voids_the_mark_and_gets_stitched() {
        let mut g = path(9);
        let p = quiet();
        let mut r = rng(11);
        assert!(p.step_and_report(&mut g, &mut r).1, "arrives unproven");
        assert!(!p.step_and_report(&mut g, &mut r).1, "nothing changed");
        g.remove_edge(NodeId(4), NodeId(5)).unwrap();
        assert!(!g.proven_connected());
        let (events, scanned) = p.step_and_report(&mut g, &mut r);
        assert!(events.is_empty() && scanned);
        assert!(g.is_connected());
        assert_eq!(g.edge_count(), 8);
    }

    #[test]
    fn a_departing_cut_vertex_takes_the_full_path() {
        let leave_hub = ChurnProcess::new(ChurnConfig {
            leave_prob: 1.0,
            min_nodes: 11,
            ..Default::default()
        })
        .unwrap();
        // `min_nodes` stops the loop after the first live node: the hub.
        let mut g = topology::star(12).unwrap();
        let mut r = rng(12);
        quiet().step(&mut g, &mut r);
        let (events, scanned) = leave_hub.step_and_report(&mut g, &mut r);
        assert_eq!(events, vec![ChurnEvent::Left(NodeId(0))]);
        assert!(scanned && g.is_connected());
        assert_eq!(g.edge_count(), 10);
    }

    #[test]
    fn the_mark_follows_clone_and_not_new() {
        let mut g = topology::ring(8).unwrap();
        assert!(!g.proven_connected() && !Graph::new().proven_connected());
        quiet().step(&mut g, &mut rng(13));
        assert!(g.proven_connected() && g.clone().proven_connected());
        let mut edited = g.clone();
        edited.add_node();
        assert!(!edited.proven_connected() && g.proven_connected());
    }

    /// On a large overlay at `churn_100k`'s rates the scan runs once per
    /// step that really partitioned it: the builder proved the overlay
    /// connected, so not even the first step scans on arrival.
    #[test]
    fn full_scans_are_as_rare_as_partitions() {
        let config = ChurnConfig {
            leave_prob: 2e-5,
            join_rate: 2.0,
            attach_links: 3,
            preferential: true,
            min_nodes: 8,
            repair_partitions: true,
        };
        let process = ChurnProcess::new(config).unwrap();
        let unrepaired = ChurnProcess::new(ChurnConfig {
            repair_partitions: false,
            ..config
        })
        .unwrap();
        let mut r = rng(14);
        let mut g = topology::barabasi_albert(20_000, 3, &mut r).unwrap();
        let (mut scans, mut partitions, mut left) = (0, 0, 0);
        for _ in 0..200 {
            let mut left_alone = g.clone();
            reference::step(&unrepaired, &mut left_alone, &mut r.clone());
            partitions += usize::from(!left_alone.is_connected());
            let (events, scanned) = process.step_and_report(&mut g, &mut r);
            scans += usize::from(scanned);
            left += events
                .iter()
                .filter(|e| matches!(e, ChurnEvent::Left(_)))
                .count();
        }
        assert!(left > 40, "only {left} departures");
        assert_eq!(scans, partitions);
    }
}
