//! Integration: the full stack under heavy churn (MEMORY-style worlds).

use digest::core::{
    ContinuousQuery, DigestEngine, EngineConfig, EstimatorKind, Precision, SchedulerKind,
};
use digest::db::Expr;
use digest::sampling::SamplingConfig;
use digest::sim::{run, RunConfig};
use digest::workload::{MemoryConfig, MemoryWorkload, Workload};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn stormy(seed: u64) -> MemoryWorkload {
    MemoryWorkload::new(MemoryConfig {
        leave_prob: 0.002, // ×40 s/tick → aggressive membership turnover
        join_rate: 0.8,
        seed,
        ..MemoryConfig::reduced(300, 120, 2_400)
    })
}

fn digest_engine(w: &MemoryWorkload, delta: f64, epsilon: f64) -> DigestEngine {
    let query = ContinuousQuery::avg(
        Expr::first_attr(w.db().schema()),
        Precision::new(delta, epsilon, 0.95).unwrap(),
    );
    DigestEngine::new(
        query,
        EngineConfig {
            scheduler: SchedulerKind::Pred(3),
            estimator: EstimatorKind::Repeated,
            sampling: SamplingConfig::recommended(w.graph().node_count()),
            ..Default::default()
        },
    )
    .unwrap()
}

#[test]
fn digest_survives_heavy_churn_and_stays_accurate() {
    let mut w = stormy(1);
    let (delta, epsilon) = (10.0, 3.0);
    let mut sys = digest_engine(&w, delta, epsilon);
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let report = run(
        &mut w,
        &mut sys,
        RunConfig::default(),
        delta,
        epsilon,
        &mut rng,
    )
    .expect("no engine error under churn");

    assert!(
        w.churn_events() > 100,
        "the storm actually happened: {}",
        w.churn_events()
    );
    assert!(
        report.confidence_violation_rate() <= 0.25,
        "ε-violations {} under churn",
        report.confidence_violation_rate()
    );
    // The network and database stayed consistent throughout.
    assert!(w.graph().is_connected());
    for (handle, _) in w.db().iter() {
        assert!(w.graph().contains(handle.node));
    }
}

#[test]
fn rpt_panel_never_dangles_under_churn() {
    // Alternate churn bursts with snapshots; the retained panel must
    // always resolve or be silently replaced — never panic, never err.
    let mut w = stormy(3);
    let mut sys = digest_engine(&w, 10.0, 4.0);
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let report = run(
        &mut w,
        &mut sys,
        RunConfig::for_ticks(40),
        10.0,
        4.0,
        &mut rng,
    )
    .unwrap();
    assert!(report.total_snapshots() > 0);
    assert!(report.records.iter().all(|r| r.estimate.is_finite()));
}

#[test]
fn sampling_cost_scales_with_churn_not_catastrophically() {
    // Heavier churn costs more (lost panel members ⇒ more fresh walks)
    // but must stay the same order of magnitude.
    let run_messages = |leave: f64, join: f64, seed: u64| {
        let mut w = MemoryWorkload::new(MemoryConfig {
            leave_prob: leave,
            join_rate: join,
            seed,
            ..MemoryConfig::reduced(300, 120, 1_600)
        });
        let mut sys = digest_engine(&w, 10.0, 3.0);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        run(&mut w, &mut sys, RunConfig::default(), 10.0, 3.0, &mut rng)
            .unwrap()
            .total_messages()
    };
    let calm = run_messages(0.0, 0.0, 9);
    let stormy = run_messages(0.002, 0.8, 10);
    assert!(
        stormy < calm * 6,
        "churn cost blew up: {stormy} vs calm {calm}"
    );
}
