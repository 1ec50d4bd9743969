//! Multi-query serving equivalence: the `QueryMux` must be a pure
//! refactor of N independent engines when panel sharing is off, and must
//! keep every member's `(ε, p)` contract (audited against the oracle)
//! when sharing is on — at every worker count, with a byte-identical
//! telemetry trace across worker counts.
//!
//! Everything lives in one `#[test]` because the telemetry sink is
//! process-global: integration-test binaries are separate processes, but
//! tests inside one binary share the registry, and the byte-diff section
//! must own the sink exclusively.

use digest::audit::MuxAudit;
use digest::core::{
    ContinuousQuery, DigestEngine, MuxConfig, NoopMuxObserver, Precision, QueryMux, QuerySystem,
    TickContext,
};
use digest::db::{Expr, Predicate};
use digest::sim::{run_mux, RunConfig};
use digest::workload::{TemperatureConfig, TemperatureWorkload, Workload};
use digest_telemetry::MemorySink;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const SEEDS: [u64; 12] = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233];
const WORKERS: [usize; 2] = [1, 4];
const TICKS: u64 = 40;

fn workload(seed: u64) -> TemperatureWorkload {
    TemperatureWorkload::new(TemperatureConfig {
        seed,
        ..TemperatureConfig::reduced(400, 5, 8, TICKS)
    })
}

/// Heterogeneous member contracts: two plain AVGs at different (δ, ε, p)
/// and one predicate AVG — all consuming the same shared panel.
fn queries(w: &TemperatureWorkload) -> Vec<ContinuousQuery> {
    let schema = w.db().schema();
    vec![
        ContinuousQuery::avg(
            Expr::first_attr(schema),
            Precision::new(4.0, 2.0, 0.95).unwrap(),
        ),
        ContinuousQuery::avg(
            Expr::first_attr(schema),
            Precision::new(8.0, 4.0, 0.90).unwrap(),
        ),
        ContinuousQuery::avg(
            Expr::first_attr(schema),
            Precision::new(4.0, 3.0, 0.90).unwrap(),
        )
        .with_predicate(Predicate::parse("temperature > 60", schema).unwrap()),
    ]
}

fn mux_config(sharing: bool) -> MuxConfig {
    MuxConfig {
        sharing,
        ..MuxConfig::default()
    }
}

/// Per-query estimate streams of a mux run, as bit patterns.
fn mux_streams(seed: u64, workers: usize, sharing: bool) -> Vec<Vec<u64>> {
    let mut w = workload(seed);
    let mut mux = QueryMux::new(mux_config(sharing)).unwrap();
    for q in queries(&w) {
        mux.register(q).unwrap();
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xD16E57);
    let reports = run_mux(
        &mut w,
        &mut mux,
        RunConfig {
            sampling_workers: Some(workers),
            ..RunConfig::for_ticks(TICKS)
        },
        &mut rng,
        &mut NoopMuxObserver,
    )
    .unwrap();
    reports
        .iter()
        .map(|r| r.records.iter().map(|t| t.estimate.to_bits()).collect())
        .collect()
}

/// The same run shape, but N standalone engines driven in query order —
/// exactly what a driver without a mux would do.
fn independent_streams(seed: u64, workers: usize) -> Vec<Vec<u64>> {
    let mut w = workload(seed);
    let mut engines: Vec<DigestEngine> = queries(&w)
        .into_iter()
        .map(|q| {
            let mut e = DigestEngine::new(q, mux_config(false).member).unwrap();
            e.set_sampling_workers(workers);
            e
        })
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xD16E57);
    let mut origin = w.graph().nodes().next().unwrap();
    let mut streams = vec![Vec::new(); engines.len()];
    for tick in 0..TICKS {
        w.advance(&mut rng);
        if !w.graph().contains(origin) {
            origin = w.graph().random_node(&mut rng).unwrap();
        }
        let ctx = TickContext {
            tick,
            graph: w.graph(),
            db: w.db(),
            origin,
        };
        for (engine, stream) in engines.iter_mut().zip(streams.iter_mut()) {
            let outcome = engine.on_tick(&ctx, &mut rng).unwrap();
            stream.push(outcome.estimate.to_bits());
        }
    }
    streams
}

/// Sharing off ⇒ the mux is byte-for-byte the N-independent-engines
/// driver, for every seed and worker count.
fn check_unshared_identity() {
    for &seed in &SEEDS {
        for &workers in &WORKERS {
            let mux = mux_streams(seed, workers, false);
            let solo = independent_streams(seed, workers);
            assert_eq!(
                mux, solo,
                "unshared mux diverged from independent engines (seed {seed}, workers {workers})"
            );
        }
    }
}

/// Sharing on ⇒ every member's audited ε-violation rate stays within its
/// own binomial bound (aggregated across seeds for statistical power),
/// and streams are worker-count independent.
fn check_shared_contract() {
    let n_queries = 3;
    let mut violations = vec![0u64; n_queries];
    let mut occasions = vec![0u64; n_queries];
    let mut confidences = vec![0.0f64; n_queries];
    for &seed in &SEEDS {
        let mut per_worker = Vec::new();
        for &workers in &WORKERS {
            let mut w = workload(seed);
            let qs = queries(&w);
            let mut mux = QueryMux::new(mux_config(true)).unwrap();
            let mut audit = MuxAudit::new();
            for q in qs {
                let id = mux.register(q).unwrap();
                audit.register(id, mux.query(id).unwrap()).unwrap();
            }
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5A4ED);
            let reports = run_mux(
                &mut w,
                &mut mux,
                RunConfig {
                    sampling_workers: Some(workers),
                    ..RunConfig::for_ticks(TICKS)
                },
                &mut rng,
                &mut audit,
            )
            .unwrap();
            per_worker.push(
                reports
                    .iter()
                    .map(|r| {
                        r.records
                            .iter()
                            .map(|t| t.estimate.to_bits())
                            .collect::<Vec<_>>()
                    })
                    .collect::<Vec<_>>(),
            );
            if workers == WORKERS[0] {
                for (i, (_, report)) in audit.reports().into_iter().enumerate() {
                    violations[i] += report.violations;
                    occasions[i] += report.occasions;
                    confidences[i] = report.confidence;
                }
            }
        }
        assert_eq!(
            per_worker[0], per_worker[1],
            "shared mux estimates diverged across worker counts (seed {seed})"
        );
    }
    for i in 0..n_queries {
        assert!(
            occasions[i] >= 40,
            "query {i}: too few audited occasions ({})",
            occasions[i]
        );
        let n = occasions[i] as f64;
        let p = confidences[i];
        let rate = violations[i] as f64 / n;
        let bound = (1.0 - p) + 3.0 * (p * (1.0 - p) / n).sqrt();
        assert!(
            rate <= bound,
            "query {i}: audited violation rate {rate:.4} exceeds (1-p) + 3σ = {bound:.4} \
             over {n} occasions"
        );
    }
}

/// One audited, sink-captured shared run; returns the JSONL lines.
fn traced_lines(workers: usize) -> Vec<String> {
    digest_telemetry::reset_run_state();
    let buffer = MemorySink::new();
    digest_telemetry::install_sink(Box::new(buffer.clone()));

    let mut w = workload(7);
    let qs = queries(&w);
    let mut mux = QueryMux::new(mux_config(true)).unwrap();
    let mut audit = MuxAudit::new();
    for q in qs {
        let id = mux.register(q).unwrap();
        audit.register(id, mux.query(id).unwrap()).unwrap();
    }
    let mut rng = ChaCha8Rng::seed_from_u64(0xBEEF);
    run_mux(
        &mut w,
        &mut mux,
        RunConfig {
            sampling_workers: Some(workers),
            ..RunConfig::for_ticks(TICKS)
        },
        &mut rng,
        &mut audit,
    )
    .unwrap();

    digest_telemetry::flush();
    digest_telemetry::take_sink();
    buffer.lines()
}

/// The audited mux trace must be byte-identical across worker counts and
/// must carry the mux-specific causality: `mux.round` events whose trace
/// ids member `audit.occasion` events reference via `round`.
fn check_trace_byte_identity() {
    let one = traced_lines(1);
    let four = traced_lines(4);
    assert_eq!(
        one.len(),
        four.len(),
        "trace length differs across worker counts"
    );
    for (a, b) in one.iter().zip(four.iter()) {
        assert_eq!(a, b, "mux trace diverged across worker counts");
    }
    let rounds = one
        .iter()
        .filter(|l| l.contains("\"kind\":\"mux.round\""))
        .count();
    assert!(rounds > 0, "no mux.round events in the trace");
    let parented = one
        .iter()
        .filter(|l| l.contains("\"kind\":\"audit.occasion\"") && l.contains("\"round\":"))
        .count();
    assert!(
        parented >= 3 * rounds,
        "each round must parent one audit.occasion per member: {parented} occasions for {rounds} rounds"
    );
    for line in &one {
        digest_telemetry::schema::validate_line(line)
            .unwrap_or_else(|e| panic!("schema violation in mux trace: {e}"));
    }
}

#[test]
fn mux_equivalence_and_contract_across_seeds_and_workers() {
    check_unshared_identity();
    check_shared_contract();
    check_trace_byte_identity();
}
