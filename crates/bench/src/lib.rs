//! # digest-bench
//!
//! The experiment harness: one binary per table/figure of the paper
//! (see DESIGN.md §3 for the experiment index). Performance is measured
//! by the standalone `benchmark/` package, not here.
//!
//! | Binary | Reproduces |
//! |--------|------------|
//! | `exp_table2`        | Table II — dataset parameters (measured) |
//! | `exp_fig1_trace`    | Figure 1 — exact vs. approximate result trace |
//! | `exp_fig4a`         | Figure 4-a — snapshot count vs. `δ/σ̂` (ALL vs PRED-k) |
//! | `exp_fig4b`         | Figure 4-b — samples/snapshot vs. `ε` (INDEP vs RPT) |
//! | `exp_fig5a`         | Figure 5-a — total samples, four scheduler×estimator combos |
//! | `exp_fig5b`         | Figure 5-b — total messages, Digest vs push baselines |
//! | `exp_mixing`        | Theorem 4 / §VI-B3 aside — mixing time & msgs/sample |
//! | `exp_eq11_variance` | Eqs. 8–11 — Monte-Carlo check of the RPT variance algebra |
//! | `exp_ablations`     | DESIGN.md §6 — laziness, reset walks, cluster sampling, `g_opt`, PRED-k degree |
//!
//! Every binary accepts `--scale quick|full` (default `quick`): `full`
//! replicates the paper's Table II scale; `quick` shrinks the world for
//! smoke runs and CI. Results print as aligned text tables and are also
//! dumped as JSON under `results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod plot;

use digest_core::{
    ContinuousQuery, DigestEngine, EngineConfig, EstimatorKind, Precision, QuerySystem, Result,
    SchedulerKind,
};
use digest_db::Expr;
use digest_sampling::SamplingConfig;
use digest_sim::{run, RunConfig, RunReport};
use digest_workload::{
    MemoryConfig, MemoryWorkload, TemperatureConfig, TemperatureWorkload, Workload,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::io::Write as _;

/// Experiment scale parsed from the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Shrunk world for smoke tests and CI.
    Quick,
    /// The paper's Table II scale.
    Full,
}

impl Scale {
    /// Parses `--scale quick|full` from `std::env::args` (default quick).
    #[must_use]
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        for pair in args.windows(2) {
            if pair[0] == "--scale" && pair[1] == "full" {
                return Scale::Full;
            }
        }
        if args.iter().any(|a| a == "--full") {
            return Scale::Full;
        }
        Scale::Quick
    }

    /// Label for output files.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }
}

/// Builds the TEMPERATURE workload at the requested scale.
#[must_use]
pub fn temperature(scale: Scale, seed: u64) -> TemperatureWorkload {
    let mut cfg = match scale {
        Scale::Full => TemperatureConfig::paper_scale(),
        Scale::Quick => TemperatureConfig::reduced(2_000, 10, 20, 240),
    };
    cfg.seed = cfg.seed.wrapping_add(seed);
    TemperatureWorkload::new(cfg)
}

/// Builds the MEMORY workload at the requested scale.
#[must_use]
pub fn memory(scale: Scale, seed: u64) -> MemoryWorkload {
    let mut cfg = match scale {
        Scale::Full => MemoryConfig::paper_scale(),
        Scale::Quick => MemoryConfig::reduced(500, 200, 2_880),
    };
    cfg.seed = cfg.seed.wrapping_add(seed);
    MemoryWorkload::new(cfg)
}

/// Builds a Digest engine for `AVG(expr)` on `w` with the given policies
/// and sampling configuration recommended for the workload's size.
///
/// # Errors
///
/// Propagates engine-construction errors.
pub fn engine_for<W: Workload>(
    w: &W,
    scheduler: SchedulerKind,
    estimator: EstimatorKind,
    delta: f64,
    epsilon: f64,
    confidence: f64,
) -> Result<DigestEngine> {
    let query = ContinuousQuery::avg(
        Expr::first_attr(w.db().schema()),
        Precision::new(delta, epsilon, confidence)?,
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
}

/// Runs `system` over a freshly built workload (via `mk`) for the
/// workload's full duration.
///
/// # Errors
///
/// Propagates engine errors.
pub fn run_full<W: Workload, S: QuerySystem + ?Sized>(
    workload: &mut W,
    system: &mut S,
    delta: f64,
    epsilon: f64,
    seed: u64,
) -> Result<RunReport> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    run(
        workload,
        system,
        RunConfig::default(),
        delta,
        epsilon,
        &mut rng,
    )
}

/// Prints an experiment banner.
pub fn banner(id: &str, title: &str, scale: Scale) {
    println!("================================================================");
    println!("{id}: {title}   [scale: {}]", scale.label());
    println!("================================================================");
}

/// Writes a JSON result artefact under `results/` (best-effort: failures
/// only warn, experiments still print their tables).
pub fn write_json(name: &str, scale: Scale, value: &serde_json::Value) {
    let dir = std::path::Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create results/: {e}");
        return;
    }
    let path = dir.join(format!("{name}_{}.json", scale.label()));
    match std::fs::File::create(&path) {
        Ok(mut f) => {
            if let Err(e) = writeln!(f, "{}", serde_json::to_string_pretty(value).unwrap()) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            } else {
                println!("[results written to {}]", path.display());
            }
        }
        Err(e) => eprintln!("warning: cannot create {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_workloads_are_consistent() {
        let t = temperature(Scale::Quick, 0);
        assert_eq!(t.name(), "TEMPERATURE");
        assert!(t.db().total_tuples() > 0);
        let m = memory(Scale::Quick, 0);
        assert_eq!(m.name(), "MEMORY");
        assert!(m.graph().is_connected());
    }

    #[test]
    fn engine_builder_names() {
        let t = temperature(Scale::Quick, 0);
        let e = engine_for(
            &t,
            SchedulerKind::Pred(3),
            EstimatorKind::Repeated,
            8.0,
            2.0,
            0.95,
        )
        .unwrap();
        assert_eq!(e.name(), "PRED3+RPT");
    }

    #[test]
    fn scale_label() {
        assert_eq!(Scale::Quick.label(), "quick");
        assert_eq!(Scale::Full.label(), "full");
    }
}
