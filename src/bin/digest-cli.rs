//! `digest-cli` — run continuous queries against a simulated peer-to-peer
//! database from the command line.
//!
//! ```text
//! digest-cli [--world temperature|memory] [--ticks N] [--scheduler all|predK]
//!            [--estimator indep|rpt] [--sampling-workers N]
//!            "<STATEMENT>" ["<STATEMENT>" ...]
//! ```
//!
//! Each statement is a full continuous query, e.g.
//!
//! ```bash
//! cargo run --release --bin digest-cli -- --world temperature --ticks 120 \
//!   "SELECT AVG(temperature) FROM R WITH delta=3, epsilon=1, p=0.95" \
//!   "SELECT MEDIAN(temperature) FROM R WITH delta=3, epsilon=1, p=0.9"
//! ```
//!
//! The CLI builds the requested synthetic world, serves every query from
//! one `QueryMux` under one driver (`--mux` shares sample panels — one
//! rotating RPT panel, or with `--estimator indep` a fresh one every
//! round; without it each statement gets an engine of its own), prints
//! the δ-updates in tick order next to the oracle truth, and closes with
//! a cost summary.
//!
//! `--telemetry <path.jsonl>` additionally streams structured events
//! (one JSON object per line, sorted keys — see README "Telemetry") to
//! `path.jsonl` and appends a deterministic counter/stage summary table
//! to stdout.
//!
//! `--audit` attaches the continuous-guarantee auditor: per query, an
//! oracle computes the exact aggregate every tick, ε-violations and CI
//! calibration are tallied at each reporting occasion, and a same-run
//! message-cost ledger accounts what the `ALL` / `ALL+FILTER` push
//! baselines would have spent. `--audit-json <file>` writes the reports
//! as canonical JSON; `--trace-out <file>` exports the causal occasion
//! trace (span + instant events, `trace`-id envelopes) as Chrome/Perfetto
//! trace-event JSON.

use digest::audit::{AuditReport, MuxAudit};
use digest::core::{
    AggregateOp, ContinuousQuery, EngineConfig, EstimatorKind, MuxConfig, Precision, QueryMux,
    QuerySystem, SchedulerKind,
};
use digest::db::{Expr, Schema};
use digest::sampling::SamplingConfig;
use digest::sim::RunConfig;
use digest::stats::taylor::MAX_HISTORY;
use digest::workload::{
    MemoryConfig, MemoryWorkload, TemperatureConfig, TemperatureWorkload, Workload,
};
use digest_telemetry::{JsonlSink, MemorySink, MetricHandle, TeeSink};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

struct Options {
    world: String,
    ticks: Option<u64>,
    scheduler: SchedulerKind,
    estimator: EstimatorKind,
    seed: u64,
    sampling_workers: Option<usize>,
    telemetry: Option<String>,
    audit: bool,
    audit_json: Option<String>,
    trace_out: Option<String>,
    mux: bool,
    queries_spec: Option<String>,
    statements: Vec<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: digest-cli [--world temperature|memory] [--ticks N] \
         [--scheduler all|pred<1..8>] [--estimator indep|rpt] [--seed S] \
         [--sampling-workers N] [--telemetry out.jsonl] [--audit] \
         [--audit-json report.json] [--trace-out trace.json] \
         [--mux] [--queries N[@delta,epsilon,p]] \
         [--queries kind+kind+...[@delta,epsilon,p]] \
         \"SELECT ...\" [\"SELECT ...\"]\n\
         \n\
         --mux shares sample panels and coalesced PRED-k rounds across all \
         statements (--estimator rpt keeps one rotating panel across \
         rounds, indep draws a fresh one every round); without it each \
         statement gets an engine of its own, under the same driver. --queries additionally registers N \
         generated AVG queries — cycling a contract-tier mix, or all at \
         the given delta,epsilon,p — and implies --mux. A \"+\"-separated kind \
         list (avg|median|distinct|p<N>|top<K>, e.g. p90+distinct+top4; \
         median is p50) registers one query per kind instead, served by \
         the sketch sweep estimators where applicable."
    );
    std::process::exit(2);
}

/// Parses one aggregate-kind token of the "+"-separated `--queries`
/// grammar: `avg`, `median` (sugar for `p50`), `distinct`, `p<N>` (the
/// N-th percentile, 1–99), or `top<K>` (top-K heavy-hitter mass, 1–64).
fn parse_kind_token(token: &str) -> Result<AggregateOp, String> {
    let t = token.trim().to_ascii_lowercase();
    match t.as_str() {
        "avg" => return Ok(AggregateOp::Avg),
        "median" => return Ok(AggregateOp::MEDIAN),
        "distinct" => return Ok(AggregateOp::Distinct),
        _ => {}
    }
    if let Some(p) = t.strip_prefix('p') {
        if let Ok(pct) = p.parse::<u16>() {
            if (1..=99).contains(&pct) {
                return Ok(AggregateOp::Percentile {
                    q_permille: pct * 10,
                });
            }
        }
        return Err(format!("bad --queries percentile `{token}` (want p1..p99)"));
    }
    if let Some(k) = t.strip_prefix("top") {
        if let Ok(k) = k.parse::<u16>() {
            if (1..=64).contains(&k) {
                return Ok(AggregateOp::TopK { k });
            }
        }
        return Err(format!("bad --queries top-k `{token}` (want top1..top64)"));
    }
    Err(format!(
        "bad --queries kind `{token}` (want avg|median|distinct|p<N>|top<K>)"
    ))
}

/// Default `(δ, ε, p)` per aggregate kind when a "+"-fleet gives no
/// explicit contract, scaled to each kind's ε-semantics: absolute value
/// units for `AVG`/`MEDIAN`/`PERCENTILE`, *relative* ε for `COUNT
/// DISTINCT`, and mass-fraction units for `TOPK` (DESIGN.md §17).
fn default_contract(op: &AggregateOp) -> (f64, f64, f64) {
    match op {
        AggregateOp::Distinct => (8.0, 0.15, 0.95),
        AggregateOp::TopK { .. } => (0.05, 0.1, 0.95),
        _ => (4.0, 2.0, 0.95),
    }
}

/// Parses `--queries` fleet specs. Two grammars:
///
/// * `N[@delta,epsilon,p]` — `N` AVG queries over the first schema
///   attribute, either all at the given contract or cycling a four-tier
///   δ/ε/p mix;
/// * a "+"-separated kind list such as `p90+distinct+top4` or
///   `avg+median+p95@4,0.2,0.95` — one query per token (see
///   [`parse_kind_token`]), at the shared contract if given or at
///   per-kind defaults matched to each kind's ε-semantics (DESIGN.md
///   §17) otherwise.
fn parse_fleet_spec(spec: &str, schema: &Schema) -> Result<Vec<ContinuousQuery>, String> {
    let (count_text, contract) = match spec.split_once('@') {
        Some((n, c)) => (n, Some(c)),
        None => (spec, None),
    };
    let shared: Option<(f64, f64, f64)> = match contract {
        Some(c) => {
            let parts: Vec<&str> = c.split(',').collect();
            if parts.len() != 3 {
                return Err(format!(
                    "bad --queries contract `{c}` (want delta,epsilon,p)"
                ));
            }
            let parse = |s: &str| {
                s.trim()
                    .parse::<f64>()
                    .map_err(|_| format!("bad number `{s}` in --queries contract"))
            };
            Some((parse(parts[0])?, parse(parts[1])?, parse(parts[2])?))
        }
        None => None,
    };

    // Kind-list grammar: any spec that is not a bare integer count.
    if count_text.parse::<usize>().is_err() {
        return count_text
            .split('+')
            .map(|token| {
                let op = parse_kind_token(token)?;
                let (delta, eps, p) = shared.unwrap_or_else(|| default_contract(&op));
                let precision = Precision::new(delta, eps, p)
                    .map_err(|e| format!("bad --queries contract: {e}"))?;
                Ok(ContinuousQuery::new(
                    op,
                    Expr::first_attr(schema),
                    precision,
                ))
            })
            .collect();
    }

    let count: usize = count_text
        .parse()
        .map_err(|_| format!("bad --queries count `{count_text}`"))?;
    if count == 0 {
        return Err("bad --queries count `0` (want at least 1)".to_owned());
    }
    let tiers: Vec<(f64, f64, f64)> = match shared {
        Some(c) => vec![c],
        None => vec![
            (8.0, 4.0, 0.90),
            (8.0, 2.0, 0.95),
            (4.0, 4.0, 0.90),
            (4.0, 2.0, 0.95),
        ],
    };
    (0..count)
        .map(|i| {
            let (delta, eps, p) = tiers[i % tiers.len()];
            let precision = Precision::new(delta, eps, p)
                .map_err(|e| format!("bad --queries contract: {e}"))?;
            Ok(ContinuousQuery::avg(Expr::first_attr(schema), precision))
        })
        .collect()
}

fn parse_args() -> Options {
    let mut opts = Options {
        world: "temperature".to_owned(),
        ticks: None,
        scheduler: SchedulerKind::Pred(3),
        estimator: EstimatorKind::Repeated,
        seed: 42,
        sampling_workers: None,
        telemetry: None,
        audit: false,
        audit_json: None,
        trace_out: None,
        mux: false,
        queries_spec: None,
        statements: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--world" => opts.world = args.next().unwrap_or_else(|| usage()),
            "--telemetry" => opts.telemetry = Some(args.next().unwrap_or_else(|| usage())),
            "--audit" => opts.audit = true,
            "--mux" => opts.mux = true,
            "--queries" => {
                opts.queries_spec = Some(args.next().unwrap_or_else(|| usage()));
                opts.mux = true;
            }
            "--audit-json" => opts.audit_json = Some(args.next().unwrap_or_else(|| usage())),
            "--trace-out" => opts.trace_out = Some(args.next().unwrap_or_else(|| usage())),
            "--ticks" => {
                opts.ticks = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--seed" => {
                opts.seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--sampling-workers" => {
                opts.sampling_workers = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&w: &usize| w >= 1)
                        .unwrap_or_else(|| usage()),
                );
            }
            "--scheduler" => {
                let v = args.next().unwrap_or_else(|| usage());
                opts.scheduler = if v.eq_ignore_ascii_case("all") {
                    SchedulerKind::All
                } else if let Some(k) = v
                    .strip_prefix("pred")
                    .and_then(|k| k.parse().ok())
                    .filter(|k| (1..=MAX_HISTORY).contains(k))
                {
                    SchedulerKind::Pred(k)
                } else {
                    usage()
                };
            }
            "--estimator" => {
                let v = args.next().unwrap_or_else(|| usage());
                opts.estimator = match v.to_ascii_lowercase().as_str() {
                    "indep" => EstimatorKind::Independent,
                    "rpt" => EstimatorKind::Repeated,
                    _ => usage(),
                };
            }
            "--help" | "-h" => usage(),
            s if s.starts_with("--") => usage(),
            statement => opts.statements.push(statement.to_owned()),
        }
    }
    if opts.statements.is_empty() && opts.queries_spec.is_none() {
        usage();
    }
    opts
}

/// Prints the deterministic end-of-run telemetry summary: every non-zero
/// counter/gauge (registry order), then per-stage span counts and totals.
fn print_telemetry_summary() {
    println!();
    println!("--- telemetry summary ---");
    for d in digest_telemetry::descriptors() {
        match d.handle {
            MetricHandle::Counter(c) => {
                let v = c.get();
                if v != 0 {
                    println!("  {:<32} {v:>12}", d.name);
                }
            }
            MetricHandle::Gauge(g) => {
                let v = g.get();
                if v != 0.0 {
                    println!("  {:<32} {v:>12.4}", d.name);
                }
            }
            MetricHandle::Histogram(h) => {
                let n = h.count();
                if n != 0 {
                    println!(
                        "  {:<32} {n:>12} obs  mean {:.2}  p50 {:.1}  p95 {:.1}  p99 {:.1}",
                        d.name,
                        h.mean(),
                        h.quantile(0.50),
                        h.quantile(0.95),
                        h.quantile(0.99),
                    );
                }
            }
        }
    }
    for report in digest_telemetry::stage_reports() {
        if report.count != 0 {
            println!(
                "  stage {:<26} {:>12} spans  {:>12} units",
                report.stage.name(),
                report.count,
                report.total,
            );
        }
    }
}

/// Serves every query through one [`QueryMux`] — shared sample panels and
/// coalesced PRED-k rounds under `--mux`, one independent engine per
/// query otherwise — prints per-query updates and the cost summary, and
/// returns each member's guarantee audit (empty unless auditing).
fn serve<W: Workload>(
    world: &mut W,
    opts: &Options,
    queries: Vec<ContinuousQuery>,
) -> Result<Vec<AuditReport>, Box<dyn std::error::Error>> {
    let mut mux = QueryMux::new(MuxConfig {
        sharing: opts.mux,
        member: EngineConfig {
            scheduler: opts.scheduler,
            estimator: opts.estimator,
            sampling: SamplingConfig {
                workers: opts
                    .sampling_workers
                    .unwrap_or_else(digest::sampling::default_workers),
                ..SamplingConfig::recommended(world.graph().node_count())
            },
            ..EngineConfig::default()
        },
    })?;
    let auditing = opts.audit || opts.audit_json.is_some();
    let mut audit = MuxAudit::new();
    for q in queries {
        let id = mux.register(q)?;
        if auditing {
            audit.register(id, mux.query(id).ok_or("registered query")?)?;
        }
    }
    let ids = mux.query_ids();
    for &id in &ids {
        let q = mux.query(id).ok_or("registered query")?;
        println!("  [{id}] {q}");
    }
    let how = if opts.mux {
        "through one shared mux"
    } else {
        "on one engine each"
    };
    println!("serving {} queries {how}", ids.len());
    println!();

    let ticks = opts
        .ticks
        .unwrap_or_else(|| world.duration())
        .min(world.duration());
    let mut rng = ChaCha8Rng::seed_from_u64(opts.seed);
    let reports = digest::sim::run_mux(
        world,
        &mut mux,
        RunConfig::for_ticks(ticks),
        &mut rng,
        &mut audit,
    )?;

    // δ-updates in tick order, interleaved across queries.
    let mut updates: Vec<(u64, u64, f64, f64)> = Vec::new();
    for (report, &id) in reports.iter().zip(&ids) {
        for record in report.records.iter().filter(|r| r.updated) {
            updates.push((record.tick, id, record.estimate, record.exact));
        }
    }
    updates.sort_by_key(|u| (u.0, u.1));
    for (tick, id, estimate, exact) in &updates {
        println!("t={tick:>5}  [{id}] UPDATE  X̂ = {estimate:>12.3}   (oracle = {exact:>10.3})");
    }

    println!();
    println!("--- cost summary over {ticks} ticks ({}) ---", mux.name());
    for &id in &ids {
        if let Some(totals) = mux.query_totals(id) {
            println!(
                "  [{id}] {:>6} snapshots  {:>9} samples  {:>10} messages",
                totals.snapshots, totals.samples, totals.messages,
            );
        }
    }
    println!(
        "  total: {} samples, {} messages",
        mux.total_samples(),
        mux.total_messages()
    );

    Ok(audit.reports().into_iter().map(|(_, r)| r).collect())
}

fn run<W: Workload>(mut world: W, opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    // Sink wiring: JSONL stream for --telemetry, an in-memory buffer for
    // --trace-out (exported as a Chrome trace at end of run), a lock-free
    // tee when both are requested. Span events only exist when a trace is
    // being collected.
    let mut trace_buffer: Option<MemorySink> = None;
    let sink_installed = opts.telemetry.is_some() || opts.trace_out.is_some();
    if sink_installed {
        digest_telemetry::reset_run_state();
        let jsonl = match &opts.telemetry {
            Some(path) => Some(JsonlSink::create(std::path::Path::new(path))?),
            None => None,
        };
        let memory = opts.trace_out.as_ref().map(|_| MemorySink::new());
        if let Some(m) = &memory {
            trace_buffer = Some(m.clone());
        }
        match (jsonl, memory) {
            (Some(j), Some(m)) => {
                digest_telemetry::install_sink(Box::new(TeeSink::new(j, m)));
            }
            (Some(j), None) => {
                digest_telemetry::install_sink(Box::new(j));
            }
            (None, Some(m)) => {
                digest_telemetry::install_sink(Box::new(m));
            }
            (None, None) => {}
        }
        digest_telemetry::set_span_events(opts.trace_out.is_some());
    }
    let schema = world.db().schema().clone();
    println!(
        "world: {} ({} nodes, {} tuples, σ̂≈{:.1})",
        world.name(),
        world.graph().node_count(),
        world.db().total_tuples(),
        world.sigma_ref()
    );

    let mut queries: Vec<ContinuousQuery> = opts
        .statements
        .iter()
        .map(|text| ContinuousQuery::parse(text, &schema))
        .collect::<Result<_, _>>()?;
    if let Some(spec) = &opts.queries_spec {
        queries.extend(parse_fleet_spec(spec, &schema)?);
    }

    let audit_reports = serve(&mut world, opts, queries)?;
    if !audit_reports.is_empty() {
        if opts.audit {
            println!();
            println!("--- guarantee audit ---");
            for report in &audit_reports {
                print!("{}", report.render_table());
            }
        }
        if let Some(path) = &opts.audit_json {
            let value =
                serde_json::Value::Array(audit_reports.iter().map(|r| r.to_json_value()).collect());
            let mut text = serde_json::to_string_pretty(&value)?;
            text.push('\n');
            std::fs::write(path, text)?;
        }
    }
    if sink_installed {
        digest_telemetry::flush();
        digest_telemetry::take_sink();
        digest_telemetry::set_span_events(false);
    }
    if let (Some(path), Some(buffer)) = (&opts.trace_out, &trace_buffer) {
        std::fs::write(path, digest::audit::chrome_trace_json(&buffer.lines()))?;
    }
    if opts.telemetry.is_some() {
        print_telemetry_summary();
    }
    Ok(())
}

fn main() {
    let opts = parse_args();
    let outcome = match opts.world.to_ascii_lowercase().as_str() {
        "temperature" => run(
            TemperatureWorkload::new(TemperatureConfig {
                seed: opts.seed,
                ..TemperatureConfig::reduced(2_000, 10, 20, 100_000)
            }),
            &opts,
        ),
        "memory" => run(
            MemoryWorkload::new(MemoryConfig {
                seed: opts.seed,
                ..MemoryConfig::reduced(500, 200, 1_000_000)
            }),
            &opts,
        ),
        other => {
            eprintln!("unknown world `{other}` (expected temperature|memory)");
            std::process::exit(2);
        }
    };
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
