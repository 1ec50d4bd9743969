//! End-to-end integration: the full Digest stack (overlay → database →
//! MCMC sampling → estimators → scheduler → engine) against the oracle.

use digest::core::{ContinuousQuery, DigestEngine, EngineConfig, Precision};
use digest::core::{EstimatorKind, QuerySystem, SchedulerKind};
use digest::db::Expr;
use digest::sampling::SamplingConfig;
use digest::sim::{run, RunConfig};
use digest::workload::{TemperatureConfig, TemperatureWorkload, Workload};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn workload(seed: u64) -> TemperatureWorkload {
    TemperatureWorkload::new(TemperatureConfig {
        seed,
        ..TemperatureConfig::reduced(1_000, 8, 10, 120)
    })
}

fn engine(
    w: &TemperatureWorkload,
    scheduler: SchedulerKind,
    estimator: EstimatorKind,
    delta: f64,
    epsilon: f64,
) -> DigestEngine {
    let query = ContinuousQuery::avg(
        Expr::first_attr(w.db().schema()),
        Precision::new(delta, epsilon, 0.95).unwrap(),
    );
    DigestEngine::new(
        query,
        EngineConfig {
            scheduler,
            estimator,
            sampling: SamplingConfig::recommended(w.graph().node_count()),
            ..Default::default()
        },
    )
    .unwrap()
}

/// Over twenty worlds, PRED3+RPT holds both halves of (δ, ε, p) and skips
/// work. The ε leg pools the worlds' snapshots (≈ 280): one world gives
/// 12–17, too few to judge a 5 % miss rate — allowing ≤ 2 misses a world,
/// this engine failed 6–10 of worlds 1–100, and a system missing 15 % of
/// the time would pass 60 % of them. Pooled, a miss rate above 10 % has
/// probability ≈ 2·10⁻⁴ at the nominal 5 %, and a system missing 15 % of
/// the time stays under it with probability ≈ 1 %.
#[test]
fn digest_meets_both_precision_requirements() {
    let (delta, epsilon) = (8.0, 2.0);
    let (mut misses, mut snapshots) = (0.0, 0);
    for seed in 1..=20 {
        let mut w = workload(seed);
        let mut sys = engine(
            &w,
            SchedulerKind::Pred(3),
            EstimatorKind::Repeated,
            delta,
            epsilon,
        );
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let report = run(
            &mut w,
            &mut sys,
            RunConfig::default(),
            delta,
            epsilon,
            &mut rng,
        )
        .unwrap();

        assert_eq!(report.ticks(), 120);
        misses += report.confidence_violation_rate() * report.total_snapshots() as f64;
        snapshots += report.total_snapshots();
        // Resolution: the held result never drifts uncaught for long.
        assert!(
            report.resolution_violation_rate() <= 0.10,
            "world {seed}: δ-violation rate {}",
            report.resolution_violation_rate()
        );
        // And it actually skipped work.
        assert!(report.total_snapshots() < 120);
    }
    // Confidence: ≤ 5 % nominal misses, pooled over the worlds.
    let rate = misses / snapshots as f64;
    assert!(
        rate <= 0.10,
        "ε-violation rate {rate} over {snapshots} snapshots"
    );
}

#[test]
fn all_four_combos_track_the_truth() {
    for (scheduler, estimator) in [
        (SchedulerKind::All, EstimatorKind::Independent),
        (SchedulerKind::All, EstimatorKind::Repeated),
        (SchedulerKind::Pred(3), EstimatorKind::Independent),
        (SchedulerKind::Pred(3), EstimatorKind::Repeated),
    ] {
        let mut w = workload(3);
        let (delta, epsilon) = (8.0, 2.0);
        let mut sys = engine(&w, scheduler, estimator, delta, epsilon);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let report = run(
            &mut w,
            &mut sys,
            RunConfig::for_ticks(60),
            delta,
            epsilon,
            &mut rng,
        )
        .unwrap();
        let name = report.system.clone();
        assert!(
            report.max_snapshot_error() < delta + epsilon,
            "{name}: max snapshot error {}",
            report.max_snapshot_error()
        );
        assert!(report.total_snapshots() > 0, "{name}: never snapshotted");
    }
}

#[test]
fn scheduler_hierarchy_holds() {
    // Snapshot counts: ALL = every tick; PRED-k strictly fewer on the
    // smooth aggregate; and PRED with a looser δ skips even more.
    let count = |scheduler, delta: f64| {
        let mut w = workload(5);
        let mut sys = engine(&w, scheduler, EstimatorKind::Repeated, delta, 2.0);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        run(
            &mut w,
            &mut sys,
            RunConfig::for_ticks(100),
            delta,
            2.0,
            &mut rng,
        )
        .unwrap()
        .total_snapshots()
    };
    let all = count(SchedulerKind::All, 8.0);
    let pred_tight = count(SchedulerKind::Pred(3), 8.0);
    let pred_loose = count(SchedulerKind::Pred(3), 16.0);
    assert_eq!(all, 100);
    assert!(pred_tight < all, "PRED3 {pred_tight} !< ALL {all}");
    assert!(
        pred_loose <= pred_tight,
        "loose δ {pred_loose} !<= tight δ {pred_tight}"
    );
}

#[test]
fn estimator_hierarchy_holds() {
    // Total samples: RPT ≤ INDEP on the autocorrelated workload (allowing
    // a whisker of noise).
    let samples = |estimator| {
        let mut w = workload(7);
        let mut sys = engine(&w, SchedulerKind::All, estimator, 8.0, 1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        run(
            &mut w,
            &mut sys,
            RunConfig::for_ticks(80),
            8.0,
            1.0,
            &mut rng,
        )
        .unwrap()
        .total_samples()
    };
    let indep = samples(EstimatorKind::Independent);
    let rpt = samples(EstimatorKind::Repeated);
    assert!(
        (rpt as f64) < indep as f64 * 0.95,
        "RPT {rpt} should undercut INDEP {indep}"
    );
}

#[test]
fn runs_are_deterministic_given_seeds() {
    let run_once = || {
        let mut w = workload(9);
        let mut sys = engine(
            &w,
            SchedulerKind::Pred(2),
            EstimatorKind::Repeated,
            8.0,
            2.0,
        );
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let r = run(
            &mut w,
            &mut sys,
            RunConfig::for_ticks(50),
            8.0,
            2.0,
            &mut rng,
        )
        .unwrap();
        (
            r.total_snapshots(),
            r.total_samples(),
            r.total_messages(),
            sys.total_messages(),
        )
    };
    assert_eq!(run_once(), run_once());
}

#[test]
fn engine_totals_match_trace_totals() {
    let mut w = workload(11);
    let mut sys = engine(
        &w,
        SchedulerKind::Pred(3),
        EstimatorKind::Repeated,
        8.0,
        2.0,
    );
    let mut rng = ChaCha8Rng::seed_from_u64(12);
    let report = run(
        &mut w,
        &mut sys,
        RunConfig::for_ticks(60),
        8.0,
        2.0,
        &mut rng,
    )
    .unwrap();
    assert_eq!(report.total_messages(), sys.total_messages());
    assert_eq!(report.total_samples(), sys.total_samples());
    assert_eq!(report.total_snapshots(), sys.total_snapshots());
}
