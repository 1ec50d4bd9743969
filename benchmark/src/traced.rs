//! The traced pass: the benchmark's own tick loop, mirroring
//! `digest_sim::runner` through public calls with one span around each call
//! into a layer. Tree: `run → tick → {workload.advance, core.on_tick,
//! sim.oracle, audit.observe}`. Spans stay in memory and are written to
//! `benchmark/out/trace-<workload>.json` when the pass ends.
//!
//! Each world is run twice, untraced through the real driver and traced
//! through this loop; the two must produce identical records, and the
//! difference in their times is the tracing overhead.

use crate::clock;
use crate::clock::Ruler;
use crate::measure;
use crate::workloads::{Kind, Prepared, System};
use crate::{Metric, Pass};
use digest_core::{CoreError, QuerySystem, TickContext, TickObserver};
use digest_sim::{RunReport, TraceRecord};
use digest_telemetry::{registry, Field, MetricHandle, Stage};
use digest_workload::Workload;
use rand::RngCore;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

const ADVANCE: &str = "workload.advance";
const OCCASION: &str = "core.on_tick";
const IDLE: &str = "core.on_tick.idle";
const ORACLE: &str = "sim.oracle";
const OBSERVE: &str = "audit.observe";
const LEAVES: [&str; 5] = [ADVANCE, OCCASION, IDLE, ORACLE, OBSERVE];

/// Telemetry counters summed over the traced calls.
const COUNTERS: [&str; 13] = [
    "sampling.mh.accepts",
    "sampling.mh.proposals",
    "sampling.messages",
    "sampling.samples",
    "sampling.snapshot.built",
    "sampling.snapshot.patched",
    "sampling.snapshot.reused",
    "sampling.walks.fresh",
    "sampling.walks.continued",
    "core.rpt.retained",
    "core.rpt.fresh",
    "db.updates",
    "sim.ticks",
];

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    run_id: u32,
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    run_id: u32,
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            run_id: self.run_id,
        });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, span: u32) {
        self.spans[span as usize].end_ns = self.now_ns();
    }

    fn leaf<T>(&mut self, name: &'static str, parent: u32, work: impl FnOnce() -> T) -> (u32, T) {
        let span = self.open(name, parent);
        let out = work();
        self.close(span);
        (span, out)
    }
}

/// `Prepared::drive` with spans: the same calls in the same order as
/// `run_observed` / `run_mux`, so the records must come out identical.
fn drive_traced(p: &mut Prepared, tracer: &mut Tracer) -> digest_core::Result<Vec<RunReport>> {
    let config = p.run_config();
    let horizon = config.ticks.min(p.world.duration());
    let rng: &mut dyn RngCore = &mut p.rng;
    let world = &mut p.world;
    let mut origin = world
        .graph()
        .nodes()
        .next()
        .ok_or(CoreError::EmptyWorkload)?;
    let run_span = tracer.open("run", NO_PARENT);

    let reports = match &mut p.system {
        System::Engine(engine) => {
            engine.set_sampling_workers(1);
            let mut records = Vec::with_capacity(horizon as usize);
            for tick in 0..horizon {
                let tick_span = tracer.open("tick", run_span);
                digest_telemetry::set_tick(tick);
                registry::SIM_TICKS.inc();
                tracer.leaf(ADVANCE, tick_span, || {
                    let _span = digest_telemetry::span(Stage::WorkloadAdvance);
                    world.advance_to(tick, rng);
                });
                if !world.graph().contains(origin) {
                    origin = elect_origin(world, rng)?;
                }
                let ctx = TickContext {
                    tick,
                    graph: world.graph(),
                    db: world.db(),
                    origin,
                };
                let (span, outcome) =
                    tracer.leaf(OCCASION, tick_span, || engine.on_tick(&ctx, rng));
                let outcome = outcome?;
                if !outcome.snapshot_executed {
                    tracer.spans[span as usize].name = IDLE;
                }
                let (_, exact) = tracer.leaf(ORACLE, tick_span, || {
                    engine
                        .oracle_truth(&ctx)
                        .unwrap_or_else(|| world.exact_aggregate())
                });
                digest_telemetry::set_trace(engine.trace_id());
                if let Some(obs) = &mut p.observation {
                    tracer.leaf(OBSERVE, tick_span, || {
                        obs.audit.observe(&ctx, &outcome, exact)
                    });
                }
                if digest_telemetry::events_enabled() {
                    digest_telemetry::emit(
                        "tick",
                        &[
                            ("estimate", Field::F64(outcome.estimate)),
                            ("exact", Field::F64(exact)),
                            ("snapshot", Field::Bool(outcome.snapshot_executed)),
                            ("samples", Field::U64(outcome.samples_this_tick)),
                            ("fresh", Field::U64(outcome.fresh_samples_this_tick)),
                            ("messages", Field::U64(outcome.messages_this_tick)),
                            ("updated", Field::U64(u64::from(outcome.updated))),
                        ],
                    );
                }
                records.push(record(tick, exact, &outcome));
                tracer.close(tick_span);
            }
            let (delta, epsilon) = {
                let precision = engine.query().precision;
                (precision.delta, precision.epsilon)
            };
            vec![RunReport {
                system: engine.name().to_owned(),
                workload: world.name().to_owned(),
                records,
                delta,
                epsilon,
            }]
        }
        System::Mux(mux) => {
            mux.set_sampling_workers(1);
            let ids = mux.query_ids();
            let mut records: BTreeMap<u64, Vec<TraceRecord>> = ids
                .iter()
                .map(|&id| (id, Vec::with_capacity(horizon as usize)))
                .collect();
            for tick in 0..horizon {
                let tick_span = tracer.open("tick", run_span);
                digest_telemetry::set_tick(tick);
                registry::SIM_TICKS.inc();
                tracer.leaf(ADVANCE, tick_span, || {
                    let _span = digest_telemetry::span(Stage::WorkloadAdvance);
                    world.advance(rng);
                });
                if !world.graph().contains(origin) {
                    origin = elect_origin(world, rng)?;
                }
                let ctx = TickContext {
                    tick,
                    graph: world.graph(),
                    db: world.db(),
                    origin,
                };
                let (span, outcomes) =
                    tracer.leaf(OCCASION, tick_span, || mux.on_tick_mux(&ctx, rng));
                let outcomes = outcomes?;
                if !outcomes.iter().any(|o| o.outcome.snapshot_executed) {
                    tracer.spans[span as usize].name = IDLE;
                }
                for o in &outcomes {
                    let (_, exact) = tracer.leaf(ORACLE, tick_span, || {
                        mux.query(o.query)
                            .and_then(|q| q.oracle(ctx.db))
                            .unwrap_or_else(|| world.exact_aggregate())
                    });
                    digest_telemetry::set_trace(o.trace);
                    if let Some(member) = records.get_mut(&o.query) {
                        member.push(record(tick, exact, &o.outcome));
                    }
                }
                tracer.close(tick_span);
            }
            ids.iter()
                .filter_map(|&id| {
                    let query = mux.query(id)?;
                    Some(RunReport {
                        system: format!("{}[q{id}]", mux.name()),
                        workload: world.name().to_owned(),
                        records: records.remove(&id).unwrap_or_default(),
                        delta: query.precision.delta,
                        epsilon: query.precision.epsilon,
                    })
                })
                .collect()
        }
    };
    tracer.close(run_span);
    Ok(reports)
}

fn elect_origin(
    world: &impl Workload,
    rng: &mut dyn RngCore,
) -> digest_core::Result<digest_net::NodeId> {
    world
        .graph()
        .random_node(rng)
        .map_err(|_| CoreError::EmptyWorkload)
}

fn record(tick: u64, exact: f64, outcome: &digest_core::TickOutcome) -> TraceRecord {
    TraceRecord {
        tick,
        exact,
        estimate: outcome.estimate,
        updated: outcome.updated,
        snapshot: outcome.snapshot_executed,
        samples: outcome.samples_this_tick,
        fresh_samples: outcome.fresh_samples_this_tick,
        messages: outcome.messages_this_tick,
    }
}

fn counter(name: &str) -> u64 {
    digest_telemetry::descriptors()
        .iter()
        .find(|d| d.name == name)
        .map_or(0, |d| match d.handle {
            MetricHandle::Counter(c) => c.get(),
            _ => 0,
        })
}

pub fn run(kind: Kind, seed: u64, quick: bool, ruler: &mut Ruler) -> Pass {
    let worlds = if quick { 1 } else { 3 };
    let ticks = kind.ticks(quick);
    let mut tracer = Tracer {
        epoch: Instant::now(),
        spans: Vec::new(),
        run_id: 0,
    };
    let mut errors = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    // Per world: traced ÷ untraced run time, and the share of the untraced
    // run time that the traced leaf spans do not account for.
    let (mut overhead, mut closure) = (Vec::new(), Vec::new());
    // Reference seconds per nanosecond of each traced call's spans.
    let mut scale = Vec::new();
    let mut counters = [0u64; COUNTERS.len()];
    let mut mux_rounds = 0;

    for world in 0..worlds {
        let sub_seed = measure::sub_seed(seed, world);
        tracer.run_id = world as u32;
        let first_span = tracer.spans.len();
        let mut run_traced = |ruler: &mut Ruler| {
            let call = measure::call(kind, sub_seed, ticks, ruler, |p| {
                drive_traced(p, &mut tracer)
            });
            // `setup` reset the registry, so these cover this call alone.
            for (sum, name) in counters.iter_mut().zip(COUNTERS) {
                *sum += counter(name);
            }
            call
        };
        let run_plain =
            |ruler: &mut Ruler| measure::call(kind, sub_seed, ticks, ruler, Prepared::drive);
        // Alternate which of the pair goes first, so that a drift of the
        // host's speed does not always favour the same side.
        let (plain, traced) = if world % 2 == 0 {
            let plain = run_plain(ruler);
            (plain, run_traced(ruler))
        } else {
            let traced = run_traced(ruler);
            (run_plain(ruler), traced)
        };
        mux_rounds += traced.mux_rounds;
        for c in [&plain, &traced] {
            attempted += c.counts.attempted;
            failed += c.counts.failed;
        }
        if !measure::same_records(&plain.reports, &traced.reports)
            || plain.counts.events != traced.counts.events
        {
            errors.push(format!(
                "{}: the traced loop did not reproduce the untraced run of world {world}",
                kind.name()
            ));
        }
        let ns_to_ref_s = traced.run.reference_s() / traced.run.raw_s * 1e-9;
        let leaves: f64 = tracer.spans[first_span..]
            .iter()
            .filter(|s| LEAVES.contains(&s.name))
            .map(|s| (s.end_ns - s.start_ns) as f64 * ns_to_ref_s)
            .sum();
        overhead.push(traced.run.reference_s() / plain.run.reference_s());
        closure.push(1.0 - leaves / plain.run.reference_s());
        scale.push(ns_to_ref_s);
    }

    // Reference-time durations per span name, in seconds.
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for span in &tracer.spans {
        let ref_s = (span.end_ns - span.start_ns) as f64 * scale[span.run_id as usize];
        by_name.entry(span.name).or_default().push(ref_s);
    }
    let total = |name: &str| by_name.get(name).map_or(0.0, |v| v.iter().sum::<f64>());
    // Quantile in the given unit per second; 0 where the span never occurred
    // (for example `audit.observe` on an unobserved workload).
    let quantile = |name: &str, q: f64, per_s: f64| {
        by_name
            .get(name)
            .map_or(0.0, |v| clock::quantile(v, q) * per_s)
    };
    let run_total = total("run");
    let leaves: f64 = LEAVES.iter().map(|name| total(name)).sum();
    let on_tick = total(OCCASION) + total(IDLE);
    let [accepts, proposals, messages, samples, built, patched, reused, fresh, continued, retained, rpt_fresh, db_updates, sim_ticks] =
        counters.map(|c| c as f64);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    if sim_ticks != (ticks * worlds as u64) as f64 {
        errors.push(format!(
            "{}: telemetry counted {sim_ticks} ticks over the traced calls, expected {}",
            kind.name(),
            ticks * worlds as u64
        ));
    }

    let metrics = vec![
        Metric::new("workload.advance_us_p50", quantile(ADVANCE, 0.5, 1e6), "us"),
        Metric::new(
            "workload.advance_us_p99",
            quantile(ADVANCE, 0.99, 1e6),
            "us",
        ),
        Metric::new(
            "workload.advance_share",
            total(ADVANCE) / run_total,
            "ratio",
        ),
        Metric::new("core.occasion_us_p50", quantile(OCCASION, 0.5, 1e6), "us"),
        Metric::new("core.occasion_us_p99", quantile(OCCASION, 0.99, 1e6), "us"),
        Metric::new("core.idle_tick_ns", quantile(IDLE, 0.5, 1e9), "ns"),
        Metric::new("core.on_tick_share", on_tick / run_total, "ratio"),
        Metric::new("sim.oracle_us_p50", quantile(ORACLE, 0.5, 1e6), "us"),
        Metric::new("sim.oracle_share", total(ORACLE) / run_total, "ratio"),
        Metric::new("audit.observe_us_p50", quantile(OBSERVE, 0.5, 1e6), "us"),
        Metric::new("audit.observe_share", total(OBSERVE) / run_total, "ratio"),
        Metric::new("sim.driver_self_share", 1.0 - leaves / run_total, "ratio"),
        Metric::new("sim.closure_gap", clock::median(&closure), "ratio"),
        Metric::new("trace.overhead_ratio", clock::median(&overhead), "ratio"),
        Metric::new(
            "sampling.mh.accept_ratio",
            ratio(accepts, proposals),
            "ratio",
        ),
        Metric::new(
            "sampling.msgs_per_sample",
            ratio(messages, samples),
            "ratio",
        ),
        Metric::new("sampling.snapshot.built", built, "count"),
        Metric::new("sampling.snapshot.patched", patched, "count"),
        Metric::new("sampling.snapshot.reused", reused, "count"),
        Metric::new("sampling.walks.fresh", fresh, "count"),
        Metric::new("sampling.walks.continued", continued, "count"),
        Metric::new(
            "core.rpt.retained_fraction",
            ratio(retained, retained + rpt_fresh),
            "ratio",
        ),
        Metric::new("core.mux.rounds", mux_rounds as f64, "count"),
        Metric::new("db.updates", db_updates, "count"),
    ];

    if let Err(err) = write_trace(kind, &tracer.spans) {
        eprintln!("warning: cannot write the {} trace: {err}", kind.name());
    }
    Pass {
        metrics,
        attempted,
        failed,
        errors,
    }
}

fn write_trace(kind: Kind, spans: &[Span]) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let file = std::fs::File::create(dir.join(format!("trace-{}.json", kind.name())))?;
    let mut out = std::io::BufWriter::new(file);
    writeln!(out, "[")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "null".to_owned()
        } else {
            s.parent.to_string()
        };
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"run_id\": {}}}{comma}",
            s.name, s.start_ns, s.end_ns, s.run_id
        )?;
    }
    writeln!(out, "]")?;
    out.flush()
}
