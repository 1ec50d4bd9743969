//! Figure 5-b reproduction: communication cost, Digest vs push baselines.
//!
//! Same query as Figure 5-a (`δ/σ̂ = 1, ε/σ̂ = 0.25, p = 0.95`), total
//! node-to-node messages for:
//!
//! * `ALL+ALL` — every value change is pushed to the querier (exact),
//! * `ALL+FILTER` — a change is pushed only when it escapes a fixed ±ε
//!   filter around the value last pushed,
//! * `ALL+INDEP` — naive sampling,
//! * `PRED3+RPT` — Digest.
//!
//! The two push rows are [`digest_audit::MessageLedger`] riding Digest's
//! own run: it re-accounts the world's data stream, so its totals depend on
//! the world alone, and a push costs one message, as a Digest sample reply
//! does. Both push rows are within ε of the truth by construction (`ALL`
//! is exact; every tracked tuple is within ε of its shipped value, so the
//! mean of the shipped values is within ε of the AVG).
//!
//! The paper reports Digest ≥ 1 order of magnitude under ALL+FILTER and
//! ≈ 2 orders under ALL+ALL, naive sampling under the filter, and an
//! average walk cost per sample of 65 msgs (530-node mesh) and 43 msgs
//! (820-node power-law). The binary prints the ratios it measured next to
//! those claims.

use digest_audit::QueryAudit;
use digest_bench::{banner, engine_for, memory, run_full, temperature, write_json, Scale};
use digest_core::{EstimatorKind, SchedulerKind};
use digest_sim::{run_observed, RunConfig, RunReport};
use digest_workload::Workload;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde_json::json;

struct Row {
    name: &'static str,
    messages: u64,
    samples: u64,
    snapshots: u64,
    confidence_violation_rate: f64,
}

impl Row {
    /// A push baseline: evaluated every tick, within ε by construction.
    fn push(name: &'static str, messages: u64, ticks: u64) -> Self {
        Self {
            name,
            messages,
            samples: 0,
            snapshots: ticks,
            confidence_violation_rate: 0.0,
        }
    }

    fn sampled(name: &'static str, report: &RunReport) -> Self {
        Self {
            name,
            messages: report.total_messages(),
            samples: report.total_fresh_samples(),
            snapshots: report.total_snapshots(),
            confidence_violation_rate: report.confidence_violation_rate(),
        }
    }
}

fn run_dataset<W: Workload, F: Fn() -> W>(make: F) -> Vec<Row> {
    let probe = make();
    let sigma = probe.sigma_ref();
    let (delta, epsilon) = (sigma, 0.25 * sigma);
    drop(probe);

    // ALL+INDEP.
    let mut w = make();
    let mut sys = engine_for(
        &w,
        SchedulerKind::All,
        EstimatorKind::Independent,
        delta,
        epsilon,
        0.95,
    )
    .expect("engine");
    let indep = run_full(&mut w, &mut sys, delta, epsilon, 43).expect("run");

    // Digest: PRED3+RPT, with the push baselines' ledger riding along.
    let mut w = make();
    let mut sys = engine_for(
        &w,
        SchedulerKind::Pred(3),
        EstimatorKind::Repeated,
        delta,
        epsilon,
        0.95,
    )
    .expect("engine");
    let mut audit = QueryAudit::new(sys.query(), 0).expect("audit");
    let mut rng = ChaCha8Rng::seed_from_u64(44);
    let digest = run_observed(
        &mut w,
        &mut sys,
        RunConfig::default(),
        delta,
        epsilon,
        &mut rng,
        &mut audit,
    )
    .expect("run");
    let push = audit.report();

    vec![
        Row::push("ALL+ALL", push.all_messages, push.ticks),
        Row::push("ALL+FILTER", push.filter_messages, push.ticks),
        Row::sampled("ALL+INDEP", &indep),
        Row::sampled("PRED3+RPT", &digest),
    ]
}

fn messages(rows: &[Row], name: &str) -> f64 {
    rows.iter()
        .find(|row| row.name == name)
        .map_or(f64::NAN, |row| row.messages as f64)
}

fn print_rows(rows: &[Row]) -> Vec<serde_json::Value> {
    let digest_msgs = rows.last().expect("four rows").messages.max(1);
    println!(
        "{:>12} {:>14} {:>10} {:>14} {:>10}",
        "system", "messages", "log10", "vs Digest", "msg/smpl"
    );
    let mut out = Vec::new();
    for row in rows {
        let per_sample = if row.samples > 0 {
            row.messages as f64 / row.samples as f64
        } else {
            f64::NAN
        };
        println!(
            "{:>12} {:>14} {:>10.2} {:>13.1}x {:>10.1}",
            row.name,
            row.messages,
            (row.messages.max(1) as f64).log10(),
            row.messages as f64 / digest_msgs as f64,
            per_sample,
        );
        out.push(json!({
            "system": row.name,
            "messages": row.messages,
            "messages_per_fresh_sample": if per_sample.is_nan() { serde_json::Value::Null } else { json!(per_sample) },
            "snapshots": row.snapshots,
            "confidence_violation_rate": row.confidence_violation_rate,
        }));
    }

    let digest = digest_msgs as f64;
    let (all, filter) = (messages(rows, "ALL+ALL"), messages(rows, "ALL+FILTER"));
    let indep = messages(rows, "ALL+INDEP");
    println!(
        "measured: Digest {:.1}x (10^{:.2}) under ALL+FILTER, {:.1}x (10^{:.2}) under ALL+ALL; \
         ALL+INDEP {} ALL+FILTER ({:.3}x)",
        filter / digest,
        (filter / digest).log10(),
        all / digest,
        (all / digest).log10(),
        if indep < filter { "below" } else { "above" },
        indep / filter,
    );
    out
}

fn main() {
    let scale = Scale::from_args();
    banner(
        "FIGURE 5-b",
        "Total communication cost (log scale), Digest vs baselines",
        scale,
    );

    println!();
    println!("--- TEMPERATURE (mesh; paper: ~65 msgs/sample) ---");
    let temp_rows = run_dataset(|| temperature(scale, 0));
    let temp_json = print_rows(&temp_rows);

    println!();
    println!("--- MEMORY (power-law; paper: ~43 msgs/sample) ---");
    let mem_rows = run_dataset(|| memory(scale, 0));
    let mem_json = print_rows(&mem_rows);

    println!();
    println!(
        "paper: Digest >= 1 order of magnitude under ALL+FILTER and ~2 under ALL+ALL, \
         ALL+INDEP under ALL+FILTER; the measured lines above say where this run sits."
    );
    write_json(
        "fig5b",
        scale,
        &json!({ "temperature": temp_json, "memory": mem_json }),
    );
}
