//! Replication study: error bars for the headline comparison.
//!
//! The paper combines results from queries issued at random nodes "to
//! derive a statistically reliable estimation" (§VI-A) but reports point
//! values. This experiment replays Figure 5-a's headline cell — Digest
//! (`PRED3+RPT`) vs naive (`ALL+INDEP`) on TEMPERATURE — across many
//! independently seeded worlds in parallel, reporting mean ± std for the
//! sample, message, and violation metrics, so the reproduction's claims
//! carry uncertainty estimates.

use digest_bench::{banner, write_json, Scale};
use digest_core::{
    ContinuousQuery, DigestEngine, EngineConfig, EstimatorKind, Precision, SchedulerKind,
};
use digest_db::Expr;
use digest_sampling::SamplingConfig;
use digest_sim::{run_replications, summarize, MetricSummary, RunConfig};
use digest_workload::{TemperatureConfig, TemperatureWorkload, Workload};
use serde_json::json;

fn make_workload(scale: Scale) -> impl Fn(u64) -> TemperatureWorkload + Sync {
    move |seed| {
        let mut cfg = match scale {
            Scale::Full => TemperatureConfig::paper_scale(),
            Scale::Quick => TemperatureConfig::reduced(2_000, 10, 20, 240),
        };
        cfg.seed = cfg.seed.wrapping_add(seed.wrapping_mul(7_919));
        TemperatureWorkload::new(cfg)
    }
}

fn make_system(
    scale: Scale,
    scheduler: SchedulerKind,
    estimator: EstimatorKind,
    delta: f64,
    epsilon: f64,
) -> impl Fn(u64) -> DigestEngine + Sync {
    move |_seed| {
        let probe = make_workload(scale)(0);
        let query = ContinuousQuery::avg(
            Expr::first_attr(probe.db().schema()),
            Precision::new(delta, epsilon, 0.95).expect("valid precision"),
        );
        DigestEngine::new(
            query,
            EngineConfig {
                scheduler,
                estimator,
                sampling: SamplingConfig::recommended(probe.graph().node_count()),
                ..Default::default()
            },
        )
        .expect("valid engine")
    }
}

fn print_summary(label: &str, s: &MetricSummary) {
    println!(
        "  {label:<22} mean {:>12.1}  ± {:>10.1}  [{:.1} … {:.1}]",
        s.mean, s.std, s.min, s.max
    );
}

fn main() {
    let scale = Scale::from_args();
    banner(
        "SEEDS",
        "Replication study: Digest vs naive with error bars (TEMPERATURE)",
        scale,
    );

    // 32 worlds at full scale: enough to tell a change of law (a mean
    // moving by several standard errors) from a new sample path.
    let replications = match scale {
        Scale::Full => 32,
        Scale::Quick => 5,
    };
    let probe = make_workload(scale)(0);
    let sigma = probe.sigma_ref();
    let (delta, epsilon) = (sigma, 0.25 * sigma);
    drop(probe);

    let mut out = serde_json::Map::new();
    for (name, scheduler, estimator) in [
        ("ALL+INDEP", SchedulerKind::All, EstimatorKind::Independent),
        ("PRED3+RPT", SchedulerKind::Pred(3), EstimatorKind::Repeated),
    ] {
        println!();
        println!("--- {name} × {replications} seeds ---");
        let reports = run_replications(
            replications,
            make_workload(scale),
            make_system(scale, scheduler, estimator, delta, epsilon),
            RunConfig::default(),
            delta,
            epsilon,
        )
        .expect("replications run");

        let samples = summarize(&reports, |r| r.total_samples() as f64);
        let messages = summarize(&reports, |r| r.total_messages() as f64);
        let snapshots = summarize(&reports, |r| r.total_snapshots() as f64);
        let eps_viol = summarize(&reports, digest_sim::RunReport::confidence_violation_rate);
        let delta_viol = summarize(&reports, digest_sim::RunReport::resolution_violation_rate);
        print_summary("samples", &samples);
        print_summary("messages", &messages);
        print_summary("snapshots", &snapshots);
        print_summary("ε-violation rate", &eps_viol);
        print_summary("δ-violation rate", &delta_viol);

        out.insert(
            name.to_owned(),
            json!({
                "replications": replications,
                "samples": { "mean": samples.mean, "std": samples.std },
                "messages": { "mean": messages.mean, "std": messages.std },
                "snapshots": { "mean": snapshots.mean, "std": snapshots.std },
                "eps_violation": { "mean": eps_viol.mean, "std": eps_viol.std },
                "delta_violation": { "mean": delta_viol.mean, "std": delta_viol.std },
            }),
        );
    }

    println!();
    println!(
        "shape check: the Digest-vs-naive gap dwarfs the seed-to-seed spread \
         (mean difference ≫ combined std)."
    );
    write_json("seeds", scale, &serde_json::Value::Object(out));
}
