//! Causal-trace and span-stream determinism: the audited telemetry
//! stream (occasion traces, re-emitted worker spans, audit events) must
//! be byte-identical across same-seed replays and across sampling worker
//! counts, with the deterministic-tick clock monotone over the whole
//! stream. Observation must also be passive: the audited, sink-installed
//! run's `RunReport.records` equal a plain `run`'s.
//!
//! Everything lives in one `#[test]` because the telemetry sink is
//! process-global: integration-test binaries are separate processes, but
//! tests inside one binary share the registry.

use digest::audit::{chrome_trace_json, QueryAudit};
use digest::core::{ContinuousQuery, DigestEngine, EngineConfig, Precision};
use digest::core::{EstimatorKind, QuerySystem, SchedulerKind};
use digest::db::Expr;
use digest::sim::{run, run_observed, RunConfig, TraceRecord};
use digest::workload::{TemperatureConfig, TemperatureWorkload, Workload};
use digest_telemetry::MemorySink;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn workload() -> TemperatureWorkload {
    TemperatureWorkload::new(TemperatureConfig {
        seed: 7,
        ..TemperatureConfig::reduced(600, 6, 10, 50)
    })
}

fn query(w: &TemperatureWorkload) -> ContinuousQuery {
    ContinuousQuery::avg(
        Expr::first_attr(w.db().schema()),
        Precision::new(8.0, 2.0, 0.95).unwrap(),
    )
}

fn engine(query: ContinuousQuery, workers: usize) -> DigestEngine {
    let mut engine = DigestEngine::new(
        query,
        EngineConfig {
            scheduler: SchedulerKind::Pred(3),
            estimator: EstimatorKind::Repeated,
            ..Default::default()
        },
    )
    .unwrap();
    engine.set_sampling_workers(workers);
    engine
}

/// The same run with nothing watching: no observer, no sink.
fn plain_run(workers: usize) -> Vec<TraceRecord> {
    let mut w = workload();
    let mut engine = engine(query(&w), workers);
    let mut rng = ChaCha8Rng::seed_from_u64(20080402);
    run(
        &mut w,
        &mut engine,
        RunConfig::for_ticks(50),
        8.0,
        2.0,
        &mut rng,
    )
    .unwrap()
    .records
}

/// One fully audited, span-traced run at the given worker count;
/// returns the JSONL event lines, the audit-report JSON and the run's
/// trace records.
fn traced_run(workers: usize) -> (Vec<String>, String, Vec<TraceRecord>) {
    digest_telemetry::reset_run_state();
    let buffer = MemorySink::new();
    digest_telemetry::install_sink(Box::new(buffer.clone()));
    digest_telemetry::set_span_events(true);

    let mut w = workload();
    let query = query(&w);
    let mut audit = QueryAudit::new(&query, 0).unwrap();
    let mut engine = engine(query, workers);
    let mut rng = ChaCha8Rng::seed_from_u64(20080402);
    let records = run_observed(
        &mut w,
        &mut engine,
        RunConfig::for_ticks(50),
        8.0,
        2.0,
        &mut rng,
        &mut audit,
    )
    .unwrap()
    .records;

    digest_telemetry::flush();
    digest_telemetry::set_span_events(false);
    digest_telemetry::take_sink();
    let report = serde_json::to_string_pretty(&audit.report().to_json_value()).unwrap();
    (buffer.lines(), report, records)
}

/// Extracts `"key":<u64>` from a JSONL event line.
fn u64_field(line: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let rest = &line[line.find(&needle)? + needle.len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

#[test]
fn audited_stream_is_worker_independent_and_tick_monotone() {
    // Observation is passive: a `QueryAudit` observer plus an installed
    // sink with span events on must not move a bit of the run's trace.
    let plain = plain_run(1);
    let (lines_1, report_1, records_1) = traced_run(1);
    let (lines_4, report_4, records_4) = traced_run(4);
    assert_eq!(plain.len(), 50);
    assert_eq!(plain, records_1, "observer + sink perturbed the run");
    assert_eq!(plain, records_4, "observer + sink perturbed the run");

    // Worker-side spans are suppressed inside the batch and re-emitted
    // post-join in slot order, so the whole stream — spans included —
    // must not depend on the worker count.
    assert_eq!(
        lines_1, lines_4,
        "telemetry stream diverged between 1 and 4 sampling workers"
    );
    assert_eq!(report_1, report_4, "audit report depends on worker count");

    // Same-seed replay at the same worker count: byte-identical stream,
    // report, and Chrome trace export.
    let (lines_4b, report_4b, _) = traced_run(4);
    assert_eq!(lines_4, lines_4b, "same-seed replay diverged");
    assert_eq!(report_4, report_4b, "same-seed audit report diverged");
    assert_eq!(
        chrome_trace_json(&lines_4),
        chrome_trace_json(&lines_4b),
        "Chrome trace export diverged across replays"
    );

    // The deterministic-tick clock must be monotone over the emitted
    // stream: re-emitting suppressed worker spans after the join must
    // never time-travel an event before its predecessors.
    let mut last_tick = 0u64;
    let mut span_events = 0usize;
    let mut audit_events = 0usize;
    for line in &lines_4 {
        let tick = u64_field(line, "tick").expect("every event carries a tick");
        assert!(
            tick >= last_tick,
            "tick went backwards ({last_tick} -> {tick}) at: {line}"
        );
        last_tick = tick;
        if line.contains("\"kind\":\"span\"") {
            span_events += 1;
        }
        if line.contains("\"kind\":\"audit.occasion\"") {
            audit_events += 1;
        }
    }
    assert!(span_events > 0, "no span events were re-emitted");
    assert!(audit_events > 0, "no audit.occasion events were emitted");

    // Causality: every audit.occasion is stamped with the trace id of
    // the occasion that produced it, and occasion ids strictly increase.
    let mut last_trace = 0u64;
    for line in &lines_4 {
        if !line.contains("\"kind\":\"audit.occasion\"") {
            continue;
        }
        let trace = u64_field(line, "trace").expect("audit events carry a trace id");
        assert!(
            trace > last_trace,
            "occasion trace ids must strictly increase ({last_trace} -> {trace})"
        );
        last_trace = trace;
    }
}
