//! Property-based tests of graph invariants under the topology generators
//! and churn (the arbitrary-operation property needs private arena state
//! and lives in `graph.rs`'s test module).

// Tests may panic freely; the workspace deny-lints target library code.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    clippy::cast_possible_truncation
)]

use digest_net::{topology, ChurnConfig, ChurnProcess, Graph, NodeId};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn check_invariants(g: &Graph) {
    // Handshake lemma.
    let degree_sum: usize = g.nodes().map(|v| g.degree(v)).sum();
    assert_eq!(degree_sum, 2 * g.edge_count());
    // Adjacency symmetry, liveness, and simplicity.
    for v in g.nodes() {
        let nbs = g.neighbors(v);
        for &nb in nbs {
            assert!(g.contains(nb), "dangling neighbor");
            assert!(g.neighbors(nb).contains(&v), "asymmetric edge");
            assert_ne!(nb, v, "self-loop");
        }
        let mut sorted = nbs.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), nbs.len(), "parallel edge");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_topologies_are_connected_and_simple(
        seed in 0u64..1000,
        n in 10usize..120,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let graphs = vec![
            topology::barabasi_albert(n, 2, &mut rng).unwrap(),
            topology::erdos_renyi(n, 0.05, &mut rng).unwrap(),
            topology::mesh(3, n / 3 + 1, false).unwrap(),
        ];
        for g in &graphs {
            prop_assert!(g.is_connected());
            check_invariants(g);
        }
    }

    #[test]
    fn churn_preserves_invariants_and_floor(
        seed in 0u64..1000,
        leave in 0.0f64..0.3,
        join in 0.0f64..3.0,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut g = topology::ring(20).unwrap();
        let churn = ChurnProcess::new(ChurnConfig {
            leave_prob: leave,
            join_rate: join,
            min_nodes: 5,
            ..Default::default()
        })
        .unwrap();
        for _ in 0..15 {
            churn.step(&mut g, &mut rng);
            prop_assert!(g.node_count() >= 5);
            prop_assert!(g.is_connected());
        }
        check_invariants(&g);
    }

    #[test]
    fn bfs_distances_satisfy_triangle_step(seed in 0u64..500) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = topology::barabasi_albert(40, 2, &mut rng).unwrap();
        let source = g.nodes().next().unwrap();
        let dist: std::collections::HashMap<NodeId, u32> =
            g.bfs_distances(source).unwrap().into_iter().collect();
        // Every node reached (connected), and adjacent nodes differ by ≤ 1.
        prop_assert_eq!(dist.len(), g.node_count());
        for v in g.nodes() {
            for &nb in g.neighbors(v) {
                let dv = dist[&v] as i64;
                let dn = dist[&nb] as i64;
                prop_assert!((dv - dn).abs() <= 1, "BFS not 1-Lipschitz over edges");
            }
        }
    }
}
