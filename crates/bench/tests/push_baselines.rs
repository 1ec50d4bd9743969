//! `exp_fig5b` reads its `ALL+ALL` / `ALL+FILTER` rows off the ledger of
//! Digest's own run. That is sound only because the ledger's totals
//! depend on the world's data stream alone, not on the system it rides:
//! the same seeded quick-scale world, run under PRED3+RPT and under
//! ALL+INDEP with different seeds, gives the same totals.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use digest_audit::QueryAudit;
use digest_bench::{engine_for, memory, temperature, Scale};
use digest_core::{EstimatorKind, SchedulerKind};
use digest_sim::{run_observed, RunConfig};
use digest_workload::Workload;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// `(ALL, ALL+FILTER, ticks)` of the ledger riding `scheduler` +
/// `estimator` on `w`, under Fig. 5-b's contract.
fn push_totals<W: Workload>(
    mut w: W,
    scheduler: SchedulerKind,
    estimator: EstimatorKind,
    seed: u64,
) -> (u64, u64, u64) {
    let sigma = w.sigma_ref();
    let (delta, epsilon) = (sigma, 0.25 * sigma);
    let mut sys = engine_for(&w, scheduler, estimator, delta, epsilon, 0.95).unwrap();
    let mut audit = QueryAudit::new(sys.query(), 0).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    run_observed(
        &mut w,
        &mut sys,
        RunConfig::default(),
        delta,
        epsilon,
        &mut rng,
        &mut audit,
    )
    .unwrap();
    let report = audit.report();
    (report.all_messages, report.filter_messages, report.ticks)
}

#[test]
fn push_totals_do_not_depend_on_the_system_they_ride() {
    let digest = (SchedulerKind::Pred(3), EstimatorKind::Repeated);
    let naive = (SchedulerKind::All, EstimatorKind::Independent);
    let worlds = [
        (
            "TEMPERATURE",
            push_totals(temperature(Scale::Quick, 0), digest.0, digest.1, 44),
            push_totals(temperature(Scale::Quick, 0), naive.0, naive.1, 43),
        ),
        (
            "MEMORY",
            push_totals(memory(Scale::Quick, 0), digest.0, digest.1, 44),
            push_totals(memory(Scale::Quick, 0), naive.0, naive.1, 43),
        ),
    ];
    for (name, riding_digest, riding_naive) in worlds {
        assert_eq!(riding_digest, riding_naive, "{name}");
        let (all, filter, ticks) = riding_digest;
        assert!(
            ticks > 0 && 0 < filter && filter < all,
            "{name}: {riding_digest:?}"
        );
    }
}
