//! Parallel replication of simulation runs.
//!
//! The paper averaged results over queries issued from random nodes "to
//! derive a statistically reliable estimation" (§VI-A); this module is
//! that device: it replays the same scenario under many seeds on worker
//! threads (the workloads and engines are deterministic per seed, so a
//! replication set is exactly reproducible) and summarises the
//! distribution of any per-run metric.
//!
//! Workers run fixed ranges of replication seeds and reports are drained
//! in seed order through the shared substrate, [`digest_sampling::par`].

use crate::runner::{run, RunConfig};
use crate::trace::RunReport;
use digest_core::{QuerySystem, Result};
use digest_sampling::par;
use digest_telemetry::{registry as telemetry, Field, Stage};
use digest_workload::Workload;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Summary of one metric across replications.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSummary {
    /// Replications aggregated.
    pub replications: u64,
    /// Mean across replications.
    pub mean: f64,
    /// Sample standard deviation across replications.
    pub std: f64,
    /// Minimum observed.
    pub min: f64,
    /// Maximum observed.
    pub max: f64,
}

impl MetricSummary {
    /// Summarises a slice of per-replication values (zeros when empty).
    #[must_use]
    pub fn of(values: &[f64]) -> Self {
        let n = values.len();
        if n == 0 {
            return Self {
                replications: 0,
                mean: 0.0,
                std: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = if n < 2 {
            0.0
        } else {
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        };
        Self {
            replications: n as u64,
            mean,
            std: var.sqrt(),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// Runs `replications` independent simulations in parallel and returns the
/// reports in seed order (`0..replications`).
///
/// `make_workload(seed)` and `make_system(seed)` build a fresh world and a
/// fresh query system per replication; each replication drives its own
/// ChaCha RNG seeded with the replication index, so results are
/// reproducible regardless of thread scheduling.
///
/// # Errors
///
/// The first engine error from any replication (remaining replications
/// still complete).
pub fn run_replications<W, S, FW, FS>(
    replications: u64,
    make_workload: FW,
    make_system: FS,
    config: RunConfig,
    delta: f64,
    epsilon: f64,
) -> Result<Vec<RunReport>>
where
    W: Workload,
    S: QuerySystem,
    FW: Fn(u64) -> W + Sync,
    FS: Fn(u64) -> S + Sync,
{
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    run_replications_with_workers(
        workers,
        replications,
        make_workload,
        make_system,
        config,
        delta,
        epsilon,
    )
}

/// [`run_replications`] with an explicit worker-thread count.
///
/// Results are identical for any `workers >= 1` — each replication is
/// seeded by its index, workers only split the indices into fixed
/// ranges, and reports are drained in seed order — which the test suite
/// pins down.
///
/// # Errors
///
/// The first engine error from any replication (remaining replications
/// still complete).
#[allow(clippy::too_many_arguments)]
pub fn run_replications_with_workers<W, S, FW, FS>(
    workers: usize,
    replications: u64,
    make_workload: FW,
    make_system: FS,
    config: RunConfig,
    delta: f64,
    epsilon: f64,
) -> Result<Vec<RunReport>>
where
    W: Workload,
    S: QuerySystem,
    FW: Fn(u64) -> W + Sync,
    FS: Fn(u64) -> S + Sync,
{
    let count = usize::try_from(replications).unwrap_or(usize::MAX);
    let mut outcomes = Vec::with_capacity(count);
    par::run_indexed(
        workers,
        count,
        || (),
        |(), index| {
            let seed = index as u64;
            let mut workload = make_workload(seed);
            let mut system = make_system(seed);
            let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
            // Workers would interleave per-tick events nondeterministically,
            // so event emission is suppressed inside the replication; the
            // deterministic rollups are emitted post-join in seed order.
            let _quiet = digest_telemetry::suppress_events();
            let _span = digest_telemetry::span(Stage::Replication);
            run(&mut workload, &mut system, config, delta, epsilon, &mut rng)
        },
        |outcome| outcomes.push(outcome),
    );
    // The first failing seed's error wins.
    let reports = outcomes.into_iter().collect::<Result<Vec<RunReport>>>()?;
    // Worker-side engines bump the global trace counter in a thread-
    // dependent order; their events were suppressed, but the *current*
    // trace register would leak a nondeterministic id into the post-join
    // rollups below. Clear it: replication summaries belong to no single
    // occasion.
    digest_telemetry::set_trace(0);
    for (seed, report) in reports.iter().enumerate() {
        telemetry::SIM_REPLICATIONS.inc();
        if digest_telemetry::events_enabled() {
            digest_telemetry::emit(
                "replication",
                &[
                    ("seed", Field::U64(seed as u64)),
                    ("ticks", Field::U64(report.ticks())),
                    ("snapshots", Field::U64(report.total_snapshots())),
                    ("samples", Field::U64(report.total_samples())),
                    ("messages", Field::U64(report.total_messages())),
                ],
            );
        }
    }
    Ok(reports)
}

/// Summarises a metric over a replication set.
#[must_use]
pub fn summarize<F: Fn(&RunReport) -> f64>(reports: &[RunReport], metric: F) -> MetricSummary {
    let values: Vec<f64> = reports.iter().map(metric).collect();
    MetricSummary::of(&values)
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
    use digest_core::{
        ContinuousQuery, DigestEngine, EngineConfig, EstimatorKind, Precision, SchedulerKind,
    };
    use digest_db::Expr;
    use digest_workload::{TemperatureConfig, TemperatureWorkload};

    fn make_workload(seed: u64) -> TemperatureWorkload {
        TemperatureWorkload::new(TemperatureConfig {
            seed,
            ..TemperatureConfig::reduced(300, 5, 6, 40)
        })
    }

    fn make_system(_seed: u64) -> DigestEngine {
        let w = make_workload(0);
        let query = ContinuousQuery::avg(
            Expr::first_attr(w.db().schema()),
            Precision::new(8.0, 2.0, 0.95).unwrap(),
        );
        DigestEngine::new(
            query,
            EngineConfig {
                scheduler: SchedulerKind::Pred(2),
                estimator: EstimatorKind::Repeated,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn replications_complete_and_are_seed_deterministic() {
        let run_set = || {
            run_replications(
                6,
                make_workload,
                make_system,
                RunConfig::for_ticks(40),
                8.0,
                2.0,
            )
            .unwrap()
        };
        let a = run_set();
        let b = run_set();
        assert_eq!(a.len(), 6);
        for (ra, rb) in a.iter().zip(b.iter()) {
            assert_eq!(ra.total_samples(), rb.total_samples());
            assert_eq!(ra.total_messages(), rb.total_messages());
        }
        // Different seeds actually differ.
        let samples: std::collections::HashSet<u64> =
            a.iter().map(RunReport::total_samples).collect();
        assert!(samples.len() > 1, "replications should vary across seeds");
    }

    #[test]
    fn summaries_are_sane() {
        let reports = run_replications(
            4,
            make_workload,
            make_system,
            RunConfig::for_ticks(30),
            8.0,
            2.0,
        )
        .unwrap();
        let s = summarize(&reports, |r| r.total_samples() as f64);
        assert_eq!(s.replications, 4);
        assert!(s.min <= s.mean && s.mean <= s.max);
        assert!(s.std >= 0.0);
    }

    #[test]
    fn metric_summary_edge_cases() {
        let empty = MetricSummary::of(&[]);
        assert_eq!(empty.replications, 0);
        assert_eq!(empty.mean, 0.0);
        assert_eq!(empty.std, 0.0);
        let single = MetricSummary::of(&[3.5]);
        assert_eq!(single.mean, 3.5);
        assert_eq!(single.std, 0.0);
        assert_eq!(single.min, 3.5);
        assert_eq!(single.max, 3.5);
    }

    #[test]
    fn metric_summary_of_constant_slice_has_zero_std() {
        let s = MetricSummary::of(&[7.0, 7.0, 7.0, 7.0]);
        assert_eq!(s.replications, 4);
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.std, 0.0, "constant values must have zero spread");
        assert_eq!(s.min, 7.0);
        assert_eq!(s.max, 7.0);
    }

    #[test]
    fn results_do_not_depend_on_worker_count() {
        let run_with = |workers: usize| {
            run_replications_with_workers(
                workers,
                5,
                make_workload,
                make_system,
                RunConfig::for_ticks(30),
                8.0,
                2.0,
            )
            .unwrap()
        };
        let serial = run_with(1);
        for workers in [2, 4, 16] {
            let parallel = run_with(workers);
            assert_eq!(serial.len(), parallel.len());
            for (a, b) in serial.iter().zip(parallel.iter()) {
                assert_eq!(a.total_samples(), b.total_samples(), "{workers} workers");
                assert_eq!(a.total_messages(), b.total_messages(), "{workers} workers");
                assert_eq!(
                    a.total_snapshots(),
                    b.total_snapshots(),
                    "{workers} workers"
                );
                for (ra, rb) in a.records.iter().zip(b.records.iter()) {
                    assert_eq!(ra.estimate.to_bits(), rb.estimate.to_bits());
                }
            }
        }
    }
}
