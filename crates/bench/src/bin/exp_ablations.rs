//! Ablations of Digest's design choices (DESIGN.md §6).
//!
//! 1. **Laziness ½** — on a bipartite mesh the non-lazy Metropolis walk
//!    is periodic and its TVD to the target oscillates forever; the lazy
//!    walk converges (Theorem 2's aperiodicity argument, made visible).
//! 2. **Reset-time continuation** — messages per sample with continued
//!    vs fresh walks (§VI-A's experimental device).
//! 3. **Two-stage vs cluster sampling** — estimator error when node
//!    contents are internally correlated (§III's argument).
//! 4. **Panel partitioning** — all-replace / optimal / all-retain
//!    (the extremes of Eq. 8 vs the optimum of Eq. 9).
//! 5. **PRED-k history depth** — snapshots saved vs resolution violations
//!    as k grows.

use digest_bench::{banner, engine_for, run_full, temperature, write_json, Scale};
use digest_core::{EstimatorKind, SchedulerKind};
use digest_db::{P2PDatabase, Schema, Tuple};
use digest_net::{topology, Graph, NodeId};
use digest_sampling::{mixing, uniform_weight, SamplingConfig, SamplingOperator};
use digest_stats::repeated::{combined_variance, optimal_partition};
use digest_stats::{DiscreteDistribution, Matrix};
use digest_workload::Workload;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde_json::json;

/// Non-lazy Metropolis transition matrix (laziness removed — the ablated
/// variant; the library deliberately does not offer this).
fn non_lazy_transition(g: &Graph) -> (Matrix, DiscreteDistribution) {
    let nodes: Vec<NodeId> = g.nodes().collect();
    let n = nodes.len();
    let mut index = vec![usize::MAX; g.id_upper_bound()];
    for (i, &v) in nodes.iter().enumerate() {
        index[v.0 as usize] = i;
    }
    let mut p = Matrix::zeros(n, n);
    for (i, &v) in nodes.iter().enumerate() {
        let d_i = g.degree(v) as f64;
        let mut off = 0.0;
        for &nb in g.neighbors(v) {
            let j = index[nb.0 as usize];
            let d_j = g.degree(nb) as f64;
            let p_ij = (1.0 / d_i) * (d_i / d_j).min(1.0);
            p[(i, j)] = p_ij;
            off += p_ij;
        }
        p[(i, i)] = 1.0 - off;
    }
    (p, DiscreteDistribution::uniform(n).expect("non-empty"))
}

fn tvd_at(p: &Matrix, target: &DiscreteDistribution, start: usize, t: usize) -> f64 {
    mixing::tvd_curve(p, target, start, t).expect("curve")[t]
}

fn ablation_laziness() -> serde_json::Value {
    println!();
    println!("--- Ablation 1: laziness ½ (bipartite 4×4 torus, uniform target) ---");
    // A torus with even dimensions is regular AND bipartite: without the
    // laziness the uniform-target Metropolis walk has no self-loops at
    // all, so it alternates between the two colour classes forever.
    let g = topology::mesh(4, 4, true).expect("torus");
    assert!(
        g.is_bipartite(),
        "even torus must be bipartite for this ablation"
    );
    let w = uniform_weight();
    let (lazy_p, _, target) = mixing::transition_matrix(&g, &w).expect("matrix");
    let (nonlazy_p, nl_target) = non_lazy_transition(&g);

    println!("{:>6} {:>12} {:>12}", "t", "lazy TVD", "non-lazy TVD");
    let mut rows = Vec::new();
    for &t in &[0usize, 10, 50, 100, 200, 201] {
        let lazy = tvd_at(&lazy_p, &target, 0, t);
        let nonlazy = tvd_at(&nonlazy_p, &nl_target, 0, t);
        println!("{t:>6} {lazy:>12.4} {nonlazy:>12.4}");
        rows.push(json!({ "t": t, "lazy": lazy, "non_lazy": nonlazy }));
    }
    let lazy_end = tvd_at(&lazy_p, &target, 0, 200);
    let nl_even = tvd_at(&nonlazy_p, &nl_target, 0, 200);
    let nl_odd = tvd_at(&nonlazy_p, &nl_target, 0, 201);
    println!(
        "verdict: lazy converges (TVD {lazy_end:.4}); non-lazy oscillates \
         ({nl_even:.4} vs {nl_odd:.4} on consecutive steps)."
    );
    json!({ "rows": rows, "lazy_tvd_200": lazy_end, "non_lazy_tvd_200": nl_even, "non_lazy_tvd_201": nl_odd })
}

fn ablation_reset_walks(scale: Scale) -> serde_json::Value {
    println!();
    println!("--- Ablation 2: reset-time continuation of walks ---");
    let n = match scale {
        Scale::Full => 530,
        Scale::Quick => 200,
    };
    let g = topology::mesh(10, n / 10, false).expect("mesh");
    let mut db = P2PDatabase::new(Schema::single("a"));
    for v in g.nodes() {
        db.register_node(v);
        for j in 0..10 {
            db.insert(v, Tuple::single(j as f64)).expect("registered");
        }
    }
    let base = SamplingConfig::recommended(g.node_count());
    let origin = g.nodes().next().expect("non-empty");
    let (occasions, batch) = (50u32, 10u32);
    let mut out = serde_json::Map::new();
    for (label, continue_walks) in [("continued", true), ("fresh-every-time", false)] {
        let mut op = SamplingOperator::new(SamplingConfig {
            continue_walks,
            ..base
        })
        .expect("config");
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..occasions {
            op.begin_occasion();
            for _ in 0..batch {
                op.sample_tuple(&g, &db, origin, &mut rng).expect("sample");
            }
        }
        let per = op.total_messages() as f64 / f64::from(occasions * batch);
        println!(
            "{label:>18}: {per:>7.1} msgs/sample  ({} occasions × {} samples)",
            occasions, batch
        );
        out.insert(label.into(), json!(per));
    }
    serde_json::Value::Object(out)
}

fn ablation_cluster_sampling() -> serde_json::Value {
    println!();
    println!("--- Ablation 3: two-stage vs cluster sampling (correlated node contents) ---");
    // Node i's tuples cluster tightly around a node-specific mean: high
    // intra-cluster, low inter-cluster correlation — §III's bad case for
    // cluster sampling.
    let nodes = 40;
    let per_node = 20;
    let g = topology::complete(nodes).expect("graph");
    let mut db = P2PDatabase::new(Schema::single("a"));
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    for (i, v) in g.nodes().enumerate() {
        db.register_node(v);
        let node_mean = (i as f64) * 5.0; // spread 0..195
        for _ in 0..per_node {
            db.insert(v, Tuple::single(node_mean + rng.gen_range(-0.5..0.5)))
                .expect("registered");
        }
    }
    let expr = digest_db::Expr::first_attr(db.schema());
    let truth = db.exact_avg(&expr).expect("avg");

    let budget = 60; // tuples per estimate
    let trials = 200;
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let origin = g.nodes().next().expect("non-empty");

    let mut two_stage_se = 0.0;
    let mut cluster_se = 0.0;
    for _ in 0..trials {
        let mut op = SamplingOperator::new(SamplingConfig::recommended(nodes)).expect("config");
        // Two-stage: `budget` uniform tuples.
        let mut sum = 0.0;
        for _ in 0..budget {
            let (_, t, _) = op.sample_tuple(&g, &db, origin, &mut rng).expect("sample");
            sum += t.value(0).expect("value");
        }
        two_stage_se += (sum / budget as f64 - truth).powi(2);

        // Cluster: whole fragments until the same tuple budget is reached.
        let mut got = 0usize;
        let mut csum = 0.0;
        while got < budget {
            let (_, tuples, _) = op
                .cluster_sample(&g, &db, origin, &mut rng)
                .expect("cluster");
            for t in &tuples {
                if got == budget {
                    break;
                }
                csum += t.value(0).expect("value");
                got += 1;
            }
        }
        cluster_se += (csum / budget as f64 - truth).powi(2);
    }
    let two_stage_rmse = (two_stage_se / f64::from(trials)).sqrt();
    let cluster_rmse = (cluster_se / f64::from(trials)).sqrt();
    println!("two-stage RMSE: {two_stage_rmse:>8.3}");
    println!("cluster   RMSE: {cluster_rmse:>8.3}");
    println!(
        "verdict: cluster sampling is ~{:.1}× worse under intra-node correlation.",
        cluster_rmse / two_stage_rmse
    );
    json!({ "two_stage_rmse": two_stage_rmse, "cluster_rmse": cluster_rmse })
}

fn ablation_partitioning() -> serde_json::Value {
    println!();
    println!("--- Ablation 4: panel partitioning (Eq. 8 extremes vs g_opt) ---");
    let n = 200;
    println!(
        "{:>6} {:>14} {:>14} {:>14}",
        "ρ", "all-replace", "g_opt", "all-retain"
    );
    let mut rows = Vec::new();
    for &rho in &[0.5, 0.8, 0.9, 0.95] {
        let v0 = combined_variance(1.0, n, 0, rho).expect("eq8");
        let gopt = optimal_partition(n, rho).retained;
        let vopt = combined_variance(1.0, n, gopt, rho).expect("eq8");
        let vn = combined_variance(1.0, n, n, rho).expect("eq8");
        println!("{rho:>6.2} {v0:>14.6} {vopt:>14.6} {vn:>14.6}");
        rows.push(json!({ "rho": rho, "all_replace": v0, "g_opt_variance": vopt, "all_retain": vn, "g_opt": gopt }));
    }
    println!("verdict: both extremes equal independent sampling; only g_opt improves variance.");
    json!(rows)
}

fn ablation_pred_depth(scale: Scale) -> serde_json::Value {
    println!();
    println!("--- Ablation 5: PRED-k history depth (TEMPERATURE, δ/σ̂ = 1) ---");
    println!(
        "{:>8} {:>10} {:>12} {:>12}",
        "k", "snapshots", "δ-viol rate", "samples"
    );
    let mut rows = Vec::new();
    for k in 1..=4 {
        let mut w = temperature(scale, 0);
        let sigma = w.sigma_ref();
        let (d, e) = (sigma, 2.0);
        let mut engine = engine_for(
            &w,
            SchedulerKind::Pred(k),
            EstimatorKind::Repeated,
            d,
            e,
            0.95,
        )
        .expect("engine");
        let r = run_full(&mut w, &mut engine, d, e, 51).expect("run");
        println!(
            "{k:>8} {:>10} {:>12.3} {:>12}",
            r.total_snapshots(),
            r.resolution_violation_rate(),
            r.total_samples()
        );
        rows.push(json!({
            "k": k, "snapshots": r.total_snapshots(),
            "resolution_violation_rate": r.resolution_violation_rate(),
            "samples": r.total_samples(),
        }));
    }
    json!(rows)
}

fn ablation_pred_oracle(scale: Scale) -> serde_json::Value {
    println!();
    println!("--- Ablation 6: what makes deep PRED-k conservative? ---");
    // Drive the bare scheduler with oracle aggregates and count snapshot
    // occasions under three conditions: a smooth signal (no diurnal
    // alternation), the default signal (period-2 diurnal component), and
    // the default signal plus sampling-style noise, under the Fig-5a
    // contract (ε = 2, p = 0.95). The prediction bound reads the period-2
    // term as unmodelled deviation (τ̂) and the noise against the
    // contract's (ε/z_p)² floor: each costs some skips, neither should pin
    // deep PRED-k near continuous querying.
    use digest_core::{Precision, PredScheduler, SnapshotScheduler};
    use digest_workload::{TemperatureConfig, TemperatureWorkload, Workload as _};
    let mut rng = ChaCha8Rng::seed_from_u64(61);
    println!(
        "{:>8} {:>14} {:>16} {:>16}",
        "k", "smooth+exact", "diurnal+exact", "diurnal+noisy"
    );
    let mut rows = Vec::new();
    for k in 1..=4 {
        let run = |diurnal: f64, noise_sd: f64, rng: &mut ChaCha8Rng| -> u64 {
            let mut cfg = match scale {
                Scale::Full => TemperatureConfig::paper_scale(),
                Scale::Quick => TemperatureConfig::reduced(2_000, 10, 20, 240),
            };
            cfg.diurnal_amplitude = diurnal;
            let mut w = TemperatureWorkload::new(cfg);
            let delta = w.sigma_ref();
            let contract = Precision::new(delta, 2.0, 0.95).expect("valid contract");
            let mut sched = PredScheduler::for_precision(k, &contract).expect("k >= 1");
            let mut snaps = 0u64;
            let mut next_due = 0u64;
            for t in 0..w.duration() {
                w.advance(rng);
                if t < next_due {
                    continue;
                }
                snaps += 1;
                let noise = if noise_sd > 0.0 {
                    use rand::Rng as _;
                    noise_sd * (rng.gen_range(-1.0..1.0f64) + rng.gen_range(-1.0..1.0))
                } else {
                    0.0
                };
                sched.observe(t as f64, w.exact_aggregate() + noise);
                next_due = t + sched.next_delay(delta).expect("valid delta");
            }
            snaps
        };
        // Noise σ ≈ ε/z at the Fig-5a query (ε = 0.25 σ̂, p = .95) ≈ 1.0.
        let smooth = run(0.0, 0.0, &mut rng);
        let diurnal = run(1.0, 0.0, &mut rng);
        let noisy = run(1.0, 1.0, &mut rng);
        println!("{k:>8} {smooth:>14} {diurnal:>16} {noisy:>16}");
        rows.push(json!({
            "k": k,
            "snapshots_smooth_exact": smooth,
            "snapshots_diurnal_exact": diurnal,
            "snapshots_diurnal_noisy": noisy,
        }));
    }
    println!(
        "verdict: the period-2 diurnal component and the snapshot noise each cost deep PRED-k \
         some skips, but neither forces it toward continuous querying."
    );
    json!(rows)
}

fn main() {
    let scale = Scale::from_args();
    banner("ABLATIONS", "Design-choice ablations (DESIGN.md §6)", scale);

    let laziness = ablation_laziness();
    let reset = ablation_reset_walks(scale);
    let cluster = ablation_cluster_sampling();
    let partition = ablation_partitioning();
    let pred = ablation_pred_depth(scale);
    let pred_oracle = ablation_pred_oracle(scale);

    write_json(
        "ablations",
        scale,
        &json!({
            "laziness": laziness,
            "reset_walks": reset,
            "cluster_sampling": cluster,
            "partitioning": partition,
            "pred_depth": pred,
            "pred_oracle": pred_oracle,
        }),
    );
}
