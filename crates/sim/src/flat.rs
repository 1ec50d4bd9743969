//! The large-overlay entry point: the paper's own stack at a configured
//! scale.
//!
//! [`run_flat`] builds a MEMORY world (Barabási–Albert overlay on
//! [`digest_net::Graph`], two units per node, churn on) and one AVG
//! PRED3+RPT [`DigestEngine`], and hands both to [`crate::runner::run`] —
//! the same tick loop, walker, snapshot cache, oracle and contract
//! accounting as every other run, so its message counts compare with the
//! paper's ALL / ALL+FILTER figures.
//!
//! Kept for the `sim.flat.occasion_us` probe of `benchmark/`, its only
//! caller; delete with the probe in the next benchmark PR.

use crate::runner::{run, RunConfig};
use crate::trace::RunReport;
use digest_core::{
    ContinuousQuery, CoreError, DigestEngine, EngineConfig, EstimatorKind, Precision, Result,
    SchedulerKind,
};
use digest_sampling::{par::stream_seed, SamplingConfig};
use digest_workload::{MemoryConfig, MemoryWorkload, Workload};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The `(δ, ε, p)` contract of the one query (the `churn_100k` benchmark
/// workload's).
const CONTRACT: (f64, f64, f64) = (4.0, 1.0, 0.95);

/// Per-step rates of the MEMORY generator at scale (as `churn_100k`): unit
/// update probability; node leave probability, also joins per node.
const UPDATE_PROB: f64 = 0.01;
const CHURN_RATE: f64 = 2e-5;

/// Configuration of a [`run_flat`] run.
#[derive(Debug, Clone, Copy)]
pub struct FlatSimConfig {
    /// Overlay size (Barabási–Albert node count).
    pub nodes: usize,
    /// Attachment links per arriving node (BA `m`; also used for churn
    /// re-attachment).
    pub attach: usize,
    /// Horizon. The run executes `ticks / query_interval` engine ticks.
    pub ticks: u64,
    /// Horizon ticks per engine tick. An engine tick is **one** generator
    /// step (one churn round, one sparse update sweep) followed by the
    /// engine's reaction and the oracle scan — not `query_interval`
    /// generator steps, which at 10⁵ nodes would cost ≈ 12 ms each and
    /// triple the run for a world the engine never looks at in between.
    pub query_interval: u64,
    /// Root seed; the world and the engine draw from separate streams
    /// derived from it.
    pub seed: u64,
}

impl Default for FlatSimConfig {
    fn default() -> Self {
        Self {
            nodes: 10_000,
            attach: 2,
            ticks: 10_000,
            query_interval: 500,
            seed: 0,
        }
    }
}

/// Runs AVG PRED3+RPT over a churning BA overlay of `config.nodes` nodes
/// through [`crate::runner::run`].
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] unless `nodes > attach ≥ 1` and
/// `query_interval ≥ 1`; otherwise as for [`crate::runner::run`].
pub fn run_flat(config: &FlatSimConfig) -> Result<RunReport> {
    if config.attach == 0 || config.nodes <= config.attach || config.query_interval == 0 {
        return Err(CoreError::InvalidConfig {
            reason: "flat sim needs nodes > attach >= 1 and query_interval >= 1",
        });
    }
    let mut world = MemoryWorkload::new(MemoryConfig {
        units: 2 * config.nodes,
        nodes: config.nodes,
        attachment: config.attach,
        ticks: config.ticks / config.query_interval,
        seconds_per_tick: 1,
        update_prob: UPDATE_PROB,
        leave_prob: CHURN_RATE,
        join_rate: CHURN_RATE * config.nodes as f64,
        seed: stream_seed(config.seed, 0),
        ..MemoryConfig::paper_scale()
    });
    let (delta, epsilon, p) = CONTRACT;
    let mut engine = DigestEngine::new(
        ContinuousQuery::avg(world.expr().clone(), Precision::new(delta, epsilon, p)?),
        EngineConfig {
            scheduler: SchedulerKind::Pred(3),
            estimator: EstimatorKind::Repeated,
            sampling: SamplingConfig::recommended(config.nodes),
            ..EngineConfig::default()
        },
    )?;
    let mut rng = ChaCha8Rng::seed_from_u64(stream_seed(config.seed, 1));
    run(
        &mut world,
        &mut engine,
        RunConfig::default(),
        delta,
        epsilon,
        &mut rng,
    )
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::float_cmp)]
mod tests {
    use super::*;

    fn small(ticks: u64) -> FlatSimConfig {
        FlatSimConfig {
            nodes: 60,
            attach: 2,
            ticks,
            query_interval: 5,
            seed: 7,
        }
    }

    #[test]
    fn same_config_replays_identically_and_zero_ticks_is_empty() {
        let a = run_flat(&small(30)).unwrap();
        let b = run_flat(&small(30)).unwrap();
        assert_eq!(a.ticks(), 6);
        assert_eq!(a.records, b.records);
        assert!(a.total_snapshots() > 0);
        assert!(run_flat(&small(0)).unwrap().records.is_empty());
    }

    #[test]
    fn invalid_configs_are_errors_not_panics() {
        let base = small(30);
        for bad in [
            FlatSimConfig { nodes: 2, ..base },
            FlatSimConfig { attach: 0, ..base },
            FlatSimConfig {
                query_interval: 0,
                ..base
            },
        ] {
            assert!(
                matches!(run_flat(&bad), Err(CoreError::InvalidConfig { .. })),
                "{bad:?}"
            );
        }
    }

    /// The contract on a BA overlay an order of magnitude above paper
    /// scale, pooled over four worlds (≈ 16 snapshots each): ε-misses
    /// within binomial slack of `1 − p`, no δ-miss, and PRED-k actually
    /// skipping occasions.
    #[test]
    #[cfg_attr(miri, ignore = "5 000-node worlds are too slow interpreted")]
    fn contract_holds_at_five_thousand_nodes() {
        let p = CONTRACT.2;
        let (mut snapshots, mut misses) = (0.0, 0.0);
        for seed in [20_080_402, 20_081_224, 1, 2] {
            let report = run_flat(&FlatSimConfig {
                nodes: 5_000,
                attach: 3,
                ticks: 240,
                query_interval: 1,
                seed,
            })
            .unwrap();
            assert!(report.total_snapshots() < 240 / 4, "PRED-k never skipped");
            assert_eq!(report.resolution_violation_rate(), 0.0, "seed {seed}");
            snapshots += report.total_snapshots() as f64;
            misses += report.confidence_violation_rate() * report.total_snapshots() as f64;
        }
        assert!(snapshots >= 40.0, "{snapshots} snapshots");
        let slack = 3.0 * (p * (1.0 - p) / snapshots).sqrt();
        let rate = misses / snapshots;
        assert!(rate <= 1.0 - p + slack, "ε-miss rate {rate} on {snapshots}");
    }
}
