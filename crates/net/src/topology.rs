//! Seeded topology generators.
//!
//! The paper's evaluation simulates the weather-forecast network with a
//! **mesh** topology and the SETI@home-like computing network with a
//! **power-law** topology ("considering power-law graph as a generic and
//! realistic model for the topology of peer-to-peer networks", §V-B). The
//! other generators serve tests, ablations, and the mixing-time sweeps.
//!
//! Every generator is deterministic given its RNG, returns a *connected*
//! graph, and documents how connectivity is ensured. The ones whose edge
//! list is known before any adjacency is needed — mesh, ring, complete,
//! star and Barabási–Albert — lay it out in one pass
//! (`Graph::from_edges`): the graph the same `add_edge` calls would
//! build, without relocating a row.

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
    let at = move |r: usize, c: usize| node(r * cols + c);
    // Each node's right then lower neighbour. A wrap closes only a row or
    // a column longer than 2: in one of two it would repeat an edge.
    let edges = (0..rows).flat_map(move |r| {
        (0..cols).flat_map(move |c| {
            let right = if c + 1 < cols {
                Some(at(r, c + 1))
            } else {
                (wrap && cols > 2).then(|| at(r, 0))
            };
            let down = if r + 1 < rows {
                Some(at(r + 1, c))
            } else {
                (wrap && rows > 2).then(|| at(0, c))
            };
            right.into_iter().chain(down).map(move |nb| (at(r, c), nb))
        })
    });
    Ok(Graph::from_edges(rows * cols, 0, 0, edges))
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
    let edges = (0..n).map(move |i| (node(i), node((i + 1) % n)));
    Ok(Graph::from_edges(n, 0, 0, edges))
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
    Ok(Graph::from_edges(n, 0, 0, clique(n)))
}

/// The pairs `(i, j)`, `i < j < n`, in lexicographic order.
fn clique(n: usize) -> impl Iterator<Item = (NodeId, NodeId)> + Clone {
    (0..n).flat_map(move |i| (i + 1..n).map(move |j| (node(i), node(j))))
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
    let edges = (1..n).map(|leaf| (node(0), node(leaf)));
    Ok(Graph::from_edges(n, 0, 0, edges))
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
/// The edges are drawn first, into the endpoint list alone (Batagelj and
/// Brandes' method: "Efficient generation of large random networks",
/// Phys. Rev. E 71, 036113, 2005), and laid out once at the end. The
/// neighbour pool gets as many spare slots as it has entries, on top of
/// `with_capacity`'s `4·(n + room)` if that is more: every row is
/// `cap = len`, its first push under churn relocates it at twice its
/// length, and the spare lets each row do that once — hubs included —
/// before the pool itself grows.
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

    // `targets` holds one entry per edge endpoint: sampling it uniformly
    // is sampling nodes proportional to degree. The seed clique's nodes
    // come first, `m` entries each; every arrival then appends its edges
    // as consecutive `(arrival, chosen)` pairs.
    let seed = m0 * m;
    let mut targets: Vec<NodeId> = Vec::with_capacity(seed + 2 * m * (n - m0));
    for i in 0..m0 {
        targets.extend(std::iter::repeat_n(node(i), m));
    }
    let mut chosen = Vec::with_capacity(m);
    for new in m0..n {
        // An arrival is not in `targets` yet, so it never draws itself.
        chosen.clear();
        while chosen.len() < m {
            let candidate = targets[rng.gen_range(0..targets.len())];
            if !chosen.contains(&candidate) {
                chosen.push(candidate);
            }
        }
        for &c in &chosen {
            targets.push(node(new));
            targets.push(c);
        }
    }
    // Every edge is in `targets` twice, as the seed's entries or as a
    // pair, so its length is the pool's entries and the spare it gets.
    let arrivals = targets[seed..].chunks_exact(2).map(|e| (e[0], e[1]));
    let mut g = Graph::from_edges(n, room, targets.len(), clique(m0).chain(arrivals));
    // Connected by construction: the seed is a clique, and every arrival
    // attached to nodes already connected to it.
    g.mark_connected();
    Ok(g)
}

/// The id of the `i`-th node a builder lays out.
fn node(i: usize) -> NodeId {
    NodeId(u32::try_from(i).unwrap_or(u32::MAX))
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
    use crate::graph::tests::{edge_by_edge, rows_in_id_order, same_graph};
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

    /// The edge-by-edge Barabási–Albert build the one-pass one replaced:
    /// `add_edge` per seed pair and per arrival's pick, the endpoint list
    /// grown alongside.
    fn barabasi_albert_by_edges(n: usize, m: usize, room: usize, rng: &mut ChaCha8Rng) -> Graph {
        let m0 = m + 1;
        let mut g = Graph::with_capacity(n + room);
        let mut ids: Vec<NodeId> = (0..m0).map(|_| g.add_node()).collect();
        for i in 0..m0 {
            for j in i + 1..m0 {
                g.add_edge(ids[i], ids[j]).unwrap();
            }
        }
        let mut targets: Vec<NodeId> = Vec::new();
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
                g.add_edge(new, c).unwrap();
                targets.push(new);
                targets.push(c);
            }
            ids.push(new);
        }
        g.mark_connected();
        g
    }

    /// The one-pass build is the edge-by-edge one, from the same draws
    /// (the caller's generator is left at the same word), with its rows
    /// back to back in id order.
    #[test]
    fn barabasi_albert_is_its_edge_by_edge_build() {
        for m in 1..=3 {
            for n in [m + 1, m + 2, 50, 2_000] {
                for room in [0, 40] {
                    for seed in [1, 12, 20_080_402] {
                        let (mut a, mut b) = (rng(seed), rng(seed));
                        let bulk = barabasi_albert_with_room(n, m, room, &mut a).unwrap();
                        let reference = barabasi_albert_by_edges(n, m, room, &mut b);
                        let at = format!("n {n}, m {m}, room {room}, seed {seed}");
                        same_graph(&bulk, &reference)
                            .map_err(|e| format!("{at}: {e}"))
                            .unwrap();
                        assert!(rows_in_id_order(&bulk), "{at}");
                        assert_eq!(a.next_u64(), b.next_u64(), "{at}");
                    }
                }
            }
        }
    }

    /// Mesh (open and torus, with the 2-long wraps it skips), ring,
    /// complete and star are their edge-by-edge builds.
    #[test]
    fn simple_builders_are_their_edge_by_edge_builds() {
        let grid = |rows: usize, cols: usize, wrap: bool| {
            let mut edges = Vec::new();
            for r in 0..rows {
                for c in 0..cols {
                    let at = |r: usize, c: usize| node(r * cols + c);
                    if c + 1 < cols {
                        edges.push((at(r, c), at(r, c + 1)));
                    } else if wrap && cols > 2 {
                        edges.push((at(r, c), at(r, 0)));
                    }
                    if r + 1 < rows {
                        edges.push((at(r, c), at(r + 1, c)));
                    } else if wrap && rows > 2 {
                        edges.push((at(r, c), at(0, c)));
                    }
                }
            }
            edges
        };
        for (rows, cols) in [(1, 1), (1, 5), (2, 2), (2, 7), (3, 3), (10, 53)] {
            for wrap in [false, true] {
                let reference = edge_by_edge(rows * cols, 0, &grid(rows, cols, wrap));
                same_graph(&mesh(rows, cols, wrap).unwrap(), &reference).unwrap();
            }
        }
        for n in [3, 4, 17] {
            let ring_edges: Vec<_> = (0..n).map(|i| (node(i), node((i + 1) % n))).collect();
            same_graph(&ring(n).unwrap(), &edge_by_edge(n, 0, &ring_edges)).unwrap();
        }
        for n in [1, 2, 9] {
            let mut pairs = Vec::new();
            for i in 0..n {
                for j in i + 1..n {
                    pairs.push((node(i), node(j)));
                }
            }
            same_graph(&complete(n).unwrap(), &edge_by_edge(n, 0, &pairs)).unwrap();
        }
        // The star joined each leaf and linked it before the next joined:
        // the same rows and the same epoch as all joins first.
        let mut reference = Graph::new();
        let hub = reference.add_node();
        for _ in 1..12 {
            let leaf = reference.add_node();
            reference.add_edge(hub, leaf).unwrap();
        }
        same_graph(&star(12).unwrap(), &reference).unwrap();
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
