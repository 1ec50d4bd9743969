//! Integration: statistical correctness of the distributed sampling
//! operator over real overlay topologies — the property everything above
//! it depends on.

use digest::db::{P2PDatabase, Schema, Tuple};
use digest::net::{topology, Graph, NodeId};
use digest::sampling::{
    content_size_weight, default_workers, mixing, uniform_weight, MetropolisWalk, OracleSampler,
    SamplingConfig, SamplingOperator,
};
use digest::stats::{total_variation_distance, DiscreteDistribution};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A database with wildly skewed content sizes: node `i` holds
/// `(i mod 7)² + 1` tuples.
fn skewed_db(g: &digest::net::Graph) -> P2PDatabase {
    let mut db = P2PDatabase::new(Schema::single("a"));
    for (i, v) in g.nodes().enumerate() {
        db.register_node(v);
        let m = (i % 7) * (i % 7) + 1;
        for j in 0..m {
            db.insert(v, Tuple::single((i * 1_000 + j) as f64)).unwrap();
        }
    }
    db
}

#[test]
fn two_stage_sampling_is_uniform_over_tuples_on_power_law_overlay() {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let g = topology::barabasi_albert(120, 2, &mut rng).unwrap();
    let db = skewed_db(&g);
    let total = db.total_tuples();
    let mut op = SamplingOperator::new(SamplingConfig::recommended(120)).unwrap();
    let origin = g.nodes().next().unwrap();

    // Draw many samples; each tuple should appear ≈ draws/total times.
    let draws = 40 * total;
    let mut counts = std::collections::HashMap::new();
    for _ in 0..draws {
        op.begin_occasion();
        let (_, t, _) = op.sample_tuple(&g, &db, origin, &mut rng).unwrap();
        *counts.entry(t.value(0).unwrap() as u64).or_insert(0u64) += 1;
    }
    assert_eq!(counts.len(), total, "every tuple reachable");

    // TVD between the empirical tuple distribution and uniform.
    let mut cs: Vec<u64> = counts.values().copied().collect();
    cs.sort_unstable();
    let emp = DiscreteDistribution::from_counts(&cs).unwrap();
    let uni = DiscreteDistribution::uniform(total).unwrap();
    let tvd = total_variation_distance(&emp, &uni).unwrap();
    assert!(tvd < 0.08, "two-stage tuple sampling TVD {tvd}");
}

#[test]
fn metropolis_matches_oracle_distribution_on_mesh() {
    let g = topology::mesh(6, 6, false).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let w = |v: NodeId| f64::from(v.0 % 4 + 1); // nonuniform target
    let mut op = SamplingOperator::new(SamplingConfig::recommended(36)).unwrap();
    let oracle = OracleSampler::new();
    let origin = g.nodes().next().unwrap();

    let draws = 30_000;
    let mut metro = vec![0u64; 36];
    let mut orac = vec![0u64; 36];
    for _ in 0..draws {
        op.begin_occasion();
        let (v, _) = op.sample_node(&g, &w, origin, &mut rng).unwrap();
        metro[v.0 as usize] += 1;
        let v = oracle.sample_node(&g, &w, &mut rng).unwrap();
        orac[v.0 as usize] += 1;
    }
    let dm = DiscreteDistribution::from_counts(&metro).unwrap();
    let do_ = DiscreteDistribution::from_counts(&orac).unwrap();
    let tvd = total_variation_distance(&dm, &do_).unwrap();
    assert!(tvd < 0.05, "Metropolis vs oracle TVD {tvd}");
}

#[test]
fn exact_mixing_time_is_within_theorem3_bound_on_all_topologies() {
    let w = uniform_weight();
    let gamma = 0.02;
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let graphs = vec![
        ("mesh", topology::mesh(5, 5, false).unwrap()),
        ("ring", topology::ring(24).unwrap()),
        ("star", topology::star(25).unwrap()),
        ("ba", topology::barabasi_albert(25, 2, &mut rng).unwrap()),
        (
            "ws",
            topology::watts_strogatz(24, 4, 0.2, &mut rng).unwrap(),
        ),
    ];
    for (name, g) in graphs {
        let (p, _, target) = mixing::transition_matrix(&g, &w).unwrap();
        let tau = mixing::mixing_time(&p, &target, gamma, 20_000)
            .unwrap()
            .unwrap_or_else(|| panic!("{name}: did not mix"));
        let diag = mixing::spectral_diagnostics(&p, &target, 400).unwrap();
        let bound = (1.0 / diag.eigengap) * ((1.0 / target.min_prob()).ln() + (1.0 / gamma).ln());
        assert!(
            (tau as f64) <= bound * 1.10,
            "{name}: τ({gamma}) = {tau} exceeds Theorem-3 bound {bound:.1}"
        );
    }
}

#[test]
fn estimator_built_on_sampler_is_unbiased() {
    // The ultimate consumer check: averaging sampled tuple values
    // converges to the true mean on a skewed database.
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let g = topology::barabasi_albert(80, 2, &mut rng).unwrap();
    let db = skewed_db(&g);
    let expr = digest::db::Expr::first_attr(db.schema());
    let truth = db.exact_avg(&expr).unwrap();
    let sigma = {
        let mut m = digest::stats::RunningMoments::new();
        for (_, t) in db.iter() {
            m.push(t.value(0).unwrap());
        }
        m.population_std()
    };

    let mut op = SamplingOperator::new(SamplingConfig::recommended(80)).unwrap();
    let origin = g.nodes().next().unwrap();
    let n = 4_000u32;
    let mut sum = 0.0;
    for _ in 0..n {
        op.begin_occasion();
        let (_, t, _) = op.sample_tuple(&g, &db, origin, &mut rng).unwrap();
        sum += expr.eval(&t).unwrap();
    }
    let mean = sum / f64::from(n);
    // 4σ/√n tolerance.
    let tol = 4.0 * sigma / f64::from(n).sqrt();
    assert!(
        (mean - truth).abs() < tol,
        "mean {mean} vs truth {truth} (tol {tol})"
    );
}

/// Tuples per node of the law graph: non-uniform and growing along the
/// path, so a walk from node 0 drifts and `P^L` still moves at `L = 130`.
const LAW_SIZES: [u32; 12] = [1, 2, 5, 8, 17, 30, 70, 120, 260, 500, 1000, 2100];

/// Walks per (length, walker) pair.
const LAW_WALKS: usize = 200_000;

/// χ² critical values at α = 0.001 for 1..=11 degrees of freedom.
const CHI2_CRIT: [f64; 11] = [
    10.828, 13.816, 16.266, 18.467, 20.515, 22.458, 24.322, 26.124, 27.877, 29.588, 31.264,
];

/// The law graph: a 12-node path with two chords, node `v` holding
/// `LAW_SIZES[v]` tuples.
fn law_world() -> (Graph, P2PDatabase) {
    let mut g = Graph::new();
    let nodes: Vec<NodeId> = (0..LAW_SIZES.len()).map(|_| g.add_node()).collect();
    let chords = [(0, 2), (5, 7)];
    for (a, b) in (0..nodes.len() - 1).map(|i| (i, i + 1)).chain(chords) {
        g.add_edge(nodes[a], nodes[b]).unwrap();
    }
    let mut db = P2PDatabase::new(Schema::single("a"));
    for (&v, &m) in nodes.iter().zip(&LAW_SIZES) {
        db.register_node(v);
        for j in 0..m {
            db.insert(v, Tuple::single(f64::from(j))).unwrap();
        }
    }
    (g, db)
}

/// Row 0 of `P^L` for the lazy Metropolis chain of Eq. 12, built from
/// the definition: `P_ij = ½ · (1/d_i) · min(1, (w_j d_i)/(w_i d_j))` for
/// neighbours and `P_ii = 1 − Σ_j P_ij`.
fn exact_law(g: &Graph, length: u64) -> Vec<f64> {
    let n = LAW_SIZES.len();
    let degree = |i: usize| g.degree(NodeId(i as u32)) as f64;
    let mut p = vec![vec![0.0; n]; n];
    for i in 0..n {
        for &j in g.neighbors(NodeId(i as u32)) {
            let j = j.0 as usize;
            let ratio =
                (f64::from(LAW_SIZES[j]) * degree(i)) / (f64::from(LAW_SIZES[i]) * degree(j));
            p[i][j] = 0.5 / degree(i) * ratio.min(1.0);
        }
        p[i][i] = 1.0 - p[i].iter().sum::<f64>();
    }
    let mut row = vec![0.0; n];
    row[0] = 1.0;
    for _ in 0..length {
        row = (0..n)
            .map(|j| (0..n).map(|i| row[i] * p[i][j]).sum())
            .collect();
    }
    row
}

/// Holds the end-node counts of `LAW_WALKS` walks to the exact law: no
/// walk ends where `P^L` is 0, the TVD is ≤ 0.01, and χ² (cells with an
/// expected count below 5 pooled) is below its α = 0.001 critical value.
fn assert_law(walker: &str, length: u64, counts: &[u64], law: &[f64]) {
    let total = LAW_WALKS as f64;
    let mut tvd = 0.0;
    let (mut chi2, mut cells) = (0.0, 0usize);
    let (mut pooled_observed, mut pooled_expected) = (0.0, 0.0);
    for (v, (&observed, &p)) in counts.iter().zip(law).enumerate() {
        if p == 0.0 {
            assert_eq!(
                observed, 0,
                "{walker} L={length}: ended on unreachable node {v}"
            );
            continue;
        }
        let (observed, expected) = (observed as f64, p * total);
        tvd += (observed / total - p).abs() / 2.0;
        if expected < 5.0 {
            pooled_observed += observed;
            pooled_expected += expected;
        } else {
            chi2 += (observed - expected).powi(2) / expected;
            cells += 1;
        }
    }
    if pooled_expected > 0.0 {
        chi2 += (pooled_observed - pooled_expected).powi(2) / pooled_expected;
        cells += 1;
    }
    assert!(tvd <= 0.01, "{walker} L={length}: TVD {tvd}");
    if cells > 1 {
        let critical = CHI2_CRIT[cells - 2];
        assert!(
            chi2 < critical,
            "{walker} L={length}: χ² {chi2:.1} ≥ {critical} on {} df",
            cells - 1
        );
    }
}

/// Both walkers realise exactly the lazy Metropolis chain: the end node
/// of a length-`L` walk from node 0 is distributed as row 0 of `P^L`, for
/// lengths on both sides of the 64-step laziness chunk.
#[test]
fn both_walkers_follow_the_exact_lazy_metropolis_law() {
    let (g, db) = law_world();
    let w = content_size_weight(&db);
    let origin = NodeId(0);
    for (k, length) in [1u64, 7, 23, 64, 65, 130].into_iter().enumerate() {
        let law = exact_law(&g, length);

        // The live-graph walk.
        let mut rng = ChaCha8Rng::seed_from_u64(100 + k as u64);
        let mut counts = vec![0u64; LAW_SIZES.len()];
        for _ in 0..LAW_WALKS {
            let mut walk = MetropolisWalk::new(&g, origin).unwrap();
            walk.run(&g, &w, length, &mut rng).unwrap();
            counts[walk.current().0 as usize] += 1;
        }
        assert_law("live walk", length, &counts, &law);

        // The occasion-snapshot walk, through the operator's batch path:
        // every slot a fresh walk of `length` steps, and every node holds
        // a tuple, so no slot walks further.
        let mut op = SamplingOperator::new(SamplingConfig {
            walk_length: length,
            reset_length: length,
            continue_walks: false,
            workers: default_workers(),
            cache_snapshots: true,
        })
        .unwrap();
        let mut counts = vec![0u64; LAW_SIZES.len()];
        let mut left = LAW_WALKS;
        while left > 0 {
            let n = left.min(4_096);
            op.begin_occasion();
            for (handle, _, _) in op
                .sample_batch(&g, &db, origin, n, &mut rng)
                .unwrap()
                .iter()
            {
                counts[handle.node.0 as usize] += 1;
            }
            left -= n;
        }
        assert_law("snapshot walk", length, &counts, &law);
    }
}
