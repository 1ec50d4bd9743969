//! Seeded topology generators.
//!
//! The paper's evaluation simulates the weather-forecast network with a
//! **mesh** topology and the SETI@home-like computing network with a
//! **power-law** topology ("considering power-law graph as a generic and
//! realistic model for the topology of peer-to-peer networks", §V-B). The
//! other generators serve tests, ablations, and the mixing-time sweeps.
//!
//! Every generator is deterministic given its RNG, returns a *connected*
//! graph, and documents how connectivity is ensured.

use crate::error::NetError;
use crate::graph::{Graph, NodeId};
use crate::Result;
use rand::Rng;

/// A 2-D mesh (grid) of `rows × cols` nodes, 4-neighbor connectivity,
/// optionally wrapped into a torus.
///
/// # Errors
///
/// [`NetError::InvalidTopology`] if either dimension is zero.
pub fn mesh(rows: usize, cols: usize, wrap: bool) -> Result<Graph> {
    if rows == 0 || cols == 0 {
        return Err(NetError::InvalidTopology {
            reason: "mesh dimensions must be positive",
        });
    }
    let mut g = Graph::with_capacity(rows * cols);
    let ids: Vec<NodeId> = (0..rows * cols).map(|_| g.add_node()).collect();
    let at = |r: usize, c: usize| ids[r * cols + c];
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                g.add_edge(at(r, c), at(r, c + 1))?;
            } else if wrap && cols > 2 {
                g.add_edge(at(r, c), at(r, 0))?;
            }
            if r + 1 < rows {
                g.add_edge(at(r, c), at(r + 1, c))?;
            } else if wrap && rows > 2 {
                g.add_edge(at(r, c), at(0, c))?;
            }
        }
    }
    Ok(g)
}

/// A ring of `n` nodes.
///
/// # Errors
///
/// [`NetError::InvalidTopology`] if `n < 3`.
pub fn ring(n: usize) -> Result<Graph> {
    if n < 3 {
        return Err(NetError::InvalidTopology {
            reason: "ring requires at least 3 nodes",
        });
    }
    let mut g = Graph::with_capacity(n);
    let ids: Vec<NodeId> = (0..n).map(|_| g.add_node()).collect();
    for i in 0..n {
        g.add_edge(ids[i], ids[(i + 1) % n])?;
    }
    Ok(g)
}

/// The complete graph on `n` nodes.
///
/// # Errors
///
/// [`NetError::InvalidTopology`] if `n == 0`.
pub fn complete(n: usize) -> Result<Graph> {
    if n == 0 {
        return Err(NetError::InvalidTopology {
            reason: "complete graph requires n >= 1",
        });
    }
    let mut g = Graph::with_capacity(n);
    let ids: Vec<NodeId> = (0..n).map(|_| g.add_node()).collect();
    for i in 0..n {
        for j in i + 1..n {
            g.add_edge(ids[i], ids[j])?;
        }
    }
    Ok(g)
}

/// A star: node 0 at the hub, `n − 1` leaves.
///
/// # Errors
///
/// [`NetError::InvalidTopology`] if `n < 2`.
pub fn star(n: usize) -> Result<Graph> {
    if n < 2 {
        return Err(NetError::InvalidTopology {
            reason: "star requires at least 2 nodes",
        });
    }
    let mut g = Graph::with_capacity(n);
    let hub = g.add_node();
    for _ in 1..n {
        let leaf = g.add_node();
        g.add_edge(hub, leaf)?;
    }
    Ok(g)
}

/// Barabási–Albert preferential attachment: each of the `n − m0` arriving
/// nodes attaches `m` edges to existing nodes with probability
/// proportional to degree, yielding a power-law degree distribution with
/// exponent `α ≈ 3` — the paper's generic P2P topology model.
///
/// Starts from a clique of `m0 = m + 1` seed nodes, so the result is
/// always connected.
///
/// # Errors
///
/// [`NetError::InvalidTopology`] if `m == 0` or `n ≤ m`.
pub fn barabasi_albert<R: Rng + ?Sized>(n: usize, m: usize, rng: &mut R) -> Result<Graph> {
    barabasi_albert_with_room(n, m, 0, rng)
}

/// [`barabasi_albert`] with its per-id columns sized for `room` more nodes
/// from the start, so that as many later joins (ids are never reused)
/// copy none of them. The same graph and the same draws: only the
/// capacity differs. Sizing after the build would move every column once
/// at setup and leave its old block as a hole for the next allocations.
///
/// # Errors
///
/// As [`barabasi_albert`].
pub fn barabasi_albert_with_room<R: Rng + ?Sized>(
    n: usize,
    m: usize,
    room: usize,
    rng: &mut R,
) -> Result<Graph> {
    if m == 0 {
        return Err(NetError::InvalidTopology {
            reason: "BA attachment count m must be positive",
        });
    }
    let m0 = m + 1;
    if n < m0 {
        return Err(NetError::InvalidTopology {
            reason: "BA requires n > m",
        });
    }

    let mut g = Graph::with_capacity(n.saturating_add(room));
    let mut ids: Vec<NodeId> = (0..m0).map(|_| g.add_node()).collect();
    for i in 0..m0 {
        for j in i + 1..m0 {
            g.add_edge(ids[i], ids[j])?;
        }
    }

    // `targets` holds one entry per edge endpoint: sampling it uniformly
    // is sampling nodes proportional to degree.
    let mut targets: Vec<NodeId> = Vec::with_capacity(2 * m * n);
    for &id in &ids {
        for _ in 0..g.degree(id) {
            targets.push(id);
        }
    }

    while ids.len() < n {
        let new = g.add_node();
        let mut chosen = Vec::with_capacity(m);
        while chosen.len() < m {
            let candidate = targets[rng.gen_range(0..targets.len())];
            if candidate != new && !chosen.contains(&candidate) {
                chosen.push(candidate);
            }
        }
        for &c in &chosen {
            g.add_edge(new, c)?;
            targets.push(new);
            targets.push(c);
        }
        ids.push(new);
    }
    // Rows grew by relocation, so the arena is scattered and half garbage.
    // `targets` is freed first, so the compacted copy adds nothing to the
    // build's peak.
    drop(targets);
    g.compact_in_id_order();
    // Connected by construction: the seed is a clique, and every arrival
    // attached to nodes already connected to it.
    g.mark_connected();
    Ok(g)
}

/// Erdős–Rényi `G(n, p)` conditioned on connectivity: edges are sampled
/// independently with probability `p`, then any disconnected component is
/// stitched to the giant component with one random edge (the standard
/// simulation practice for overlay experiments — an unstructured P2P
/// overlay repairs partitions through its bootstrap service).
///
/// # Errors
///
/// [`NetError::InvalidTopology`] if `n == 0` or `p ∉ [0, 1]`.
pub fn erdos_renyi<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Result<Graph> {
    if n == 0 {
        return Err(NetError::InvalidTopology {
            reason: "ER requires n >= 1",
        });
    }
    if !(0.0..=1.0).contains(&p) {
        return Err(NetError::InvalidTopology {
            reason: "ER probability must be in [0, 1]",
        });
    }
    let mut g = Graph::with_capacity(n);
    let ids: Vec<NodeId> = (0..n).map(|_| g.add_node()).collect();
    for i in 0..n {
        for j in i + 1..n {
            if rng.gen_bool(p) {
                g.add_edge(ids[i], ids[j])?;
            }
        }
    }
    stitch_connected(&mut g, rng);
    Ok(g)
}

/// Watts–Strogatz small world: a ring lattice where each node connects to
/// its `k` nearest neighbors (k even), with each edge rewired with
/// probability `beta`. Connectivity is repaired by stitching as in
/// [`erdos_renyi`].
///
/// # Errors
///
/// [`NetError::InvalidTopology`] if `k` is odd, zero, or ≥ `n`, or `beta`
/// is outside `[0, 1]`.
pub fn watts_strogatz<R: Rng + ?Sized>(
    n: usize,
    k: usize,
    beta: f64,
    rng: &mut R,
) -> Result<Graph> {
    if k == 0 || !k.is_multiple_of(2) || k >= n {
        return Err(NetError::InvalidTopology {
            reason: "WS requires even 0 < k < n",
        });
    }
    if !(0.0..=1.0).contains(&beta) {
        return Err(NetError::InvalidTopology {
            reason: "WS beta must be in [0, 1]",
        });
    }
    let mut g = Graph::with_capacity(n);
    let ids: Vec<NodeId> = (0..n).map(|_| g.add_node()).collect();
    for i in 0..n {
        for d in 1..=k / 2 {
            let j = (i + d) % n;
            if rng.gen_bool(beta) {
                // Rewire: connect i to a random non-neighbor instead.
                let mut tries = 0;
                loop {
                    let t = ids[rng.gen_range(0..n)];
                    if t != ids[i] && !g.has_edge(ids[i], t) {
                        g.add_edge(ids[i], t)?;
                        break;
                    }
                    tries += 1;
                    if tries > 50 {
                        // Dense corner: keep the lattice edge.
                        g.add_edge(ids[i], ids[j])?;
                        break;
                    }
                }
            } else {
                g.add_edge(ids[i], ids[j])?;
            }
        }
    }
    stitch_connected(&mut g, rng);
    Ok(g)
}

/// Connects every stray component to the largest one with a single random
/// edge each: the overlay's bootstrap / rejoin service. The one
/// scan-and-stitch loop of the crate — these builders run it once, the
/// churn process whenever a step may have partitioned the overlay. Draws
/// one `gen_range` per stitched component and nothing on a connected graph,
/// and marks the graph connected when it returns one.
pub(crate) fn stitch_connected<R: Rng + ?Sized>(g: &mut Graph, rng: &mut R) {
    let mut in_giant = Vec::new();
    loop {
        let giant = g.largest_component();
        if giant.len() == g.node_count() {
            g.mark_connected();
            return;
        }
        in_giant.clear();
        in_giant.resize(g.id_upper_bound(), false);
        for v in &giant {
            in_giant[v.0 as usize] = true;
        }
        let Some(stray) = g.nodes().find(|id| !in_giant[id.0 as usize]) else {
            // Giant smaller than node count implies a stray exists; if the
            // scan still finds none, there is nothing left to stitch.
            return;
        };
        let anchor = giant[rng.gen_range(0..giant.len())];
        // Cannot fail: both ends are live, and `anchor` is in the giant
        // while `stray` is not, so they differ.
        let _ = g.add_edge(stray, anchor);
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
    use crate::metrics::{degree_distribution, estimate_power_law_alpha};
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn mesh_counts() {
        let g = mesh(4, 5, false).unwrap();
        assert_eq!(g.node_count(), 20);
        // Edges: horizontal 4·4 + vertical 3·5 = 31.
        assert_eq!(g.edge_count(), 31);
        assert!(g.is_connected());
        // Interior nodes have degree 4, corners 2.
        let degrees: Vec<usize> = g.nodes().map(|v| g.degree(v)).collect();
        assert_eq!(degrees.iter().copied().min().unwrap(), 2);
        assert_eq!(degrees.iter().copied().max().unwrap(), 4);
    }

    #[test]
    fn torus_is_regular() {
        let g = mesh(4, 4, true).unwrap();
        assert!(g.is_connected());
        for v in g.nodes() {
            assert_eq!(g.degree(v), 4);
        }
    }

    #[test]
    fn mesh_rejects_zero() {
        assert!(mesh(0, 5, false).is_err());
        assert!(mesh(5, 0, false).is_err());
    }

    #[test]
    fn ring_and_complete_and_star() {
        let r = ring(10).unwrap();
        assert_eq!(r.edge_count(), 10);
        assert!(r.nodes().all(|v| r.degree(v) == 2));
        assert!(ring(2).is_err());

        let k = complete(6).unwrap();
        assert_eq!(k.edge_count(), 15);
        assert!(k.nodes().all(|v| k.degree(v) == 5));

        let s = star(5).unwrap();
        assert_eq!(s.edge_count(), 4);
        assert_eq!(s.degree(NodeId(0)), 4);
        assert!(star(1).is_err());
    }

    /// Room changes the capacity only: the same graph from the same draws.
    #[test]
    fn barabasi_albert_with_room_is_the_same_graph() {
        let (mut a, mut b) = (rng(5), rng(5));
        let plain = barabasi_albert(300, 2, &mut a).unwrap();
        let roomy = barabasi_albert_with_room(300, 2, 50, &mut b).unwrap();
        assert_eq!(a.next_u64(), b.next_u64());
        assert_eq!(plain.id_upper_bound(), roomy.id_upper_bound());
        for v in plain.nodes() {
            assert_eq!(plain.neighbors(v), roomy.neighbors(v));
        }
        assert!(roomy.proven_connected());
    }

    #[test]
    fn barabasi_albert_structure() {
        let g = barabasi_albert(500, 3, &mut rng(1)).unwrap();
        assert_eq!(g.node_count(), 500);
        assert!(g.is_connected() && g.proven_connected());
        // Each arriving node adds m edges; seed clique has m(m+1)/2.
        let expected = 6 + (500 - 4) * 3;
        assert_eq!(g.edge_count(), expected);
        // Minimum degree is m.
        assert!(g.nodes().all(|v| g.degree(v) >= 3));
    }

    #[test]
    fn barabasi_albert_is_heavy_tailed() {
        let g = barabasi_albert(2000, 2, &mut rng(2)).unwrap();
        let stats = degree_distribution(&g);
        // A hub far above the mean is the signature of preferential
        // attachment.
        assert!(
            stats.max as f64 > 8.0 * stats.mean,
            "max {} mean {}",
            stats.max,
            stats.mean
        );
        let alpha = estimate_power_law_alpha(&g, 2).unwrap();
        assert!(alpha > 1.8 && alpha < 3.8, "alpha = {alpha}");
    }

    #[test]
    fn barabasi_albert_rejects_bad_params() {
        assert!(barabasi_albert(10, 0, &mut rng(3)).is_err());
        assert!(barabasi_albert(3, 3, &mut rng(3)).is_err());
    }

    #[test]
    fn erdos_renyi_connected_and_sized() {
        let g = erdos_renyi(200, 0.02, &mut rng(4)).unwrap();
        assert_eq!(g.node_count(), 200);
        assert!(g.is_connected() && g.proven_connected());
        // Expected edges ≈ C(200,2)·0.02 = 398; stitching adds a few.
        assert!(
            g.edge_count() > 250 && g.edge_count() < 600,
            "edges = {}",
            g.edge_count()
        );
    }

    #[test]
    fn erdos_renyi_zero_p_becomes_tree_like() {
        // p = 0 leaves n isolated nodes; stitching must connect them all.
        let g = erdos_renyi(50, 0.0, &mut rng(5)).unwrap();
        assert!(g.is_connected());
        assert_eq!(g.edge_count(), 49);
    }

    #[test]
    fn erdos_renyi_validates() {
        assert!(erdos_renyi(0, 0.5, &mut rng(6)).is_err());
        assert!(erdos_renyi(10, 1.5, &mut rng(6)).is_err());
        assert!(erdos_renyi(10, -0.1, &mut rng(6)).is_err());
    }

    #[test]
    fn watts_strogatz_structure() {
        let g = watts_strogatz(100, 4, 0.1, &mut rng(7)).unwrap();
        assert_eq!(g.node_count(), 100);
        assert!(g.is_connected() && g.proven_connected());
        // Edge count stays ~ nk/2 (rewiring preserves it, stitching may add).
        assert!(
            g.edge_count() >= 195 && g.edge_count() <= 215,
            "edges = {}",
            g.edge_count()
        );
    }

    #[test]
    fn watts_strogatz_beta_zero_is_lattice() {
        let g = watts_strogatz(20, 4, 0.0, &mut rng(8)).unwrap();
        assert!(g.nodes().all(|v| g.degree(v) == 4));
    }

    #[test]
    fn watts_strogatz_validates() {
        assert!(watts_strogatz(10, 3, 0.1, &mut rng(9)).is_err()); // odd k
        assert!(watts_strogatz(10, 0, 0.1, &mut rng(9)).is_err());
        assert!(watts_strogatz(4, 4, 0.1, &mut rng(9)).is_err()); // k >= n
        assert!(watts_strogatz(10, 2, 1.5, &mut rng(9)).is_err());
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let a = barabasi_albert(100, 2, &mut rng(42)).unwrap();
        let b = barabasi_albert(100, 2, &mut rng(42)).unwrap();
        let ea: Vec<_> = a.nodes().map(|v| a.neighbors(v).to_vec()).collect();
        let eb: Vec<_> = b.nodes().map(|v| b.neighbors(v).to_vec()).collect();
        assert_eq!(ea, eb);
    }
}
