//! Layer probes: direct timed calls into one layer at a time, on inputs
//! shaped like the workloads' (the 530-node mesh with 8 000 tuples, the
//! 100 000-node BA overlay with 200 000). They do not depend on the selected
//! workload. Times are reference time (see `clock`), the median of `REPS`
//! bracketed intervals each at least ~50 ms or 1 000 calls long.
//!
//! A probe's number moves an end-to-end metric only by that layer's share
//! of the workload; `README.md` lists which metric each should move.

use crate::clock;
use crate::clock::Ruler;
use crate::measure;
use crate::workloads::{mux_fleet, Kind, Prepared, System};
use crate::Metric;
use digest_audit::MessageLedger;
use digest_core::{
    AggregateOp, ContinuousQuery, IndependentEstimator, Precision, PredScheduler,
    RepeatedEstimator, RptConfig, SketchSweepEstimator, SnapshotScheduler, TickContext,
};
use digest_db::{Expr, P2PDatabase, Predicate, Schema, Tuple, TupleHandle};
use digest_net::{topology, ChurnConfig, ChurnProcess, Graph, NodeId};
use digest_sampling::{content_size_weight, MetropolisWalk, SamplingConfig, SamplingOperator};
use digest_sim::{run_flat, EventQueue, FlatSimConfig};
use digest_sketch::{value_cell, HllSketch, SpaceSavingSketch, UddSketch};
use digest_stats::{combined_estimate, optimal_partition, Extrapolator, ExtrapolatorConfig};
use digest_telemetry::{ClockMode, Field, MemorySink, Stage};
use digest_workload::{MemoryConfig, MemoryWorkload, Workload};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::time::{Duration, Instant};

const BATCH: usize = 128;
/// Width of the uniform value distribution: σ = 8, as TEMPERATURE's.
const SPREAD: f64 = 27.7;

struct Probes<'a> {
    ruler: &'a mut Ruler,
    reps: usize,
    seed: u64,
    quick: bool,
    /// `--quick` divides every iteration count by this.
    shrink: u64,
    out: Vec<Metric>,
}

fn timed<T>(work: impl FnOnce() -> T) -> Duration {
    let start = Instant::now();
    black_box(work());
    start.elapsed()
}

impl Probes<'_> {
    /// Reference seconds per iteration. `work` returns the part of one
    /// iteration that counts as busy, so untimed preparation stays out. The
    /// median of `reps` back-to-back repetitions is scaled by the kernel
    /// readings that bracket them all.
    fn seconds_per(&mut self, iterations: u64, mut work: impl FnMut() -> Duration) -> f64 {
        let iterations = (iterations / self.shrink).max(1);
        let mut busy = vec![0.0; self.reps];
        let (bracket, ()) = self.ruler.time(|| {
            for rep in &mut busy {
                *rep = (0..iterations).map(|_| work().as_secs_f64()).sum();
            }
        });
        clock::median(&busy) * (bracket.reference_s() / bracket.raw_s) / iterations as f64
    }

    fn record(&mut self, name: &str, value: f64, unit: &'static str) {
        self.out.push(Metric::new(name, value, unit));
    }
}

/// A relation of `tuples` tuples spread round-robin over `g`'s nodes.
fn relation(g: &Graph, tuples: usize, rng: &mut ChaCha8Rng) -> (P2PDatabase, Vec<TupleHandle>) {
    let mut db = P2PDatabase::new(Schema::single("value"));
    let nodes: Vec<NodeId> = g.nodes().collect();
    for &node in &nodes {
        db.register_node(node);
    }
    let handles = (0..tuples)
        .map(|i| {
            let value = 60.0 + SPREAD * (rng.gen_range(0.0..1.0) - 0.5);
            db.insert(nodes[i % nodes.len()], Tuple::single(value))
                .expect("node registered")
        })
        .collect();
    (db, handles)
}

/// One workload tick's worth of change: an AR(1) step with TEMPERATURE's
/// occasion-to-occasion correlation (0.75) that keeps the variance where
/// `relation` put it.
fn perturb(db: &mut P2PDatabase, handles: &[TupleHandle], rng: &mut ChaCha8Rng) {
    for &h in handles {
        let value = db.read(h).expect("live handle").values()[0];
        let innovation = SPREAD * (1.0 - 0.75_f64.powi(2)).sqrt() * (rng.gen_range(0.0..1.0) - 0.5);
        let next = 60.0 + 0.75 * (value - 60.0) + innovation;
        db.update(h, &[next]).expect("live handle");
    }
}

/// One leave and one join, mirrored into the database.
fn join_and_leave(g: &mut Graph, db: &mut P2PDatabase, keep: NodeId, rng: &mut ChaCha8Rng) {
    let leaver = loop {
        let v = g.random_node(rng).expect("non-empty graph");
        if v != keep {
            break v;
        }
    };
    let neighbour = g.neighbors(leaver).first().copied();
    g.remove_node(leaver).expect("live node");
    let _ = db.remove_node(leaver);
    let joiner = g.add_node();
    for peer in [Some(keep), neighbour].into_iter().flatten() {
        if g.contains(peer) {
            g.add_edge(joiner, peer).expect("both live");
        }
    }
    db.register_node(joiner);
    db.insert(joiner, Tuple::single(60.0)).expect("registered");
}

pub fn run(seed: u64, quick: bool, ruler: &mut Ruler) -> Vec<Metric> {
    let mut p = Probes {
        ruler,
        seed,
        quick,
        reps: if quick { 1 } else { 3 },
        shrink: if quick { 10 } else { 1 },
        out: Vec::new(),
    };
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mesh = topology::mesh(10, 53, false).expect("valid mesh");
    let (mut mesh_db, mesh_handles) = relation(&mesh, 8_000, &mut rng);
    let expr = Expr::first_attr(mesh_db.schema());

    db(&mut p, &mut mesh_db, &mesh_handles, &expr, &mut rng);
    stats(&mut p);
    core(&mut p, &mesh, &mut mesh_db, &mesh_handles, &expr, &mut rng);
    sketch(&mut p, &mut rng);
    audit(&mut p, &mut mesh_db, &mesh_handles, &expr, &mut rng);
    telemetry(&mut p);
    sim(&mut p);
    sampling_and_net(&mut p, mesh, mesh_db, &mut rng);
    p.out
}

fn db(
    p: &mut Probes<'_>,
    db: &mut P2PDatabase,
    handles: &[TupleHandle],
    expr: &Expr,
    rng: &mut ChaCha8Rng,
) {
    let n = handles.len() as f64;
    let s = p.seconds_per(12, || {
        timed(|| {
            for &h in handles {
                db.update(h, &[61.0]).expect("live handle");
            }
        })
    });
    p.record("db.update_ns", s / n * 1e9, "ns");

    let s = p.seconds_per(1_000, || timed(|| db.exact_avg(expr)));
    p.record("db.exact_avg_us", s * 1e6, "us");

    let nodes: Vec<NodeId> = db.nodes().collect();
    let s = p.seconds_per(200, || {
        timed(|| {
            for &node in &nodes {
                black_box(db.sample_local(node, rng));
            }
        })
    });
    p.record("db.sample_local_ns", s / nodes.len() as f64 * 1e9, "ns");

    let s = p.seconds_per(12, || {
        timed(|| {
            for &h in handles {
                let inserted = db.insert(h.node, Tuple::single(61.0)).expect("registered");
                db.delete(inserted).expect("just inserted");
            }
        })
    });
    p.record("db.insert_remove_ns", s / n * 1e9, "ns");
}

fn stats(p: &mut Probes<'_>) {
    let mut extrapolator =
        Extrapolator::new(ExtrapolatorConfig::pred(3)).expect("PRED-3 is a valid config");
    let s = p.seconds_per(20_000, || {
        timed(|| {
            extrapolator.reset();
            for t in 0..5 {
                let t = f64::from(t);
                extrapolator.observe(t, 60.0 + 0.3 * t + 0.02 * t * t);
            }
            extrapolator.predict(2.0)
        })
    });
    p.record("stats.pred_fit_us", s * 1e6, "us");

    let fresh: Vec<f64> = (0..80).map(|i| 60.0 + f64::from(i % 13)).collect();
    let prev: Vec<f64> = (0..120).map(|i| 58.0 + f64::from(i % 17)).collect();
    let cur: Vec<f64> = prev.iter().map(|v| v + 0.5).collect();
    let s = p.seconds_per(20_000, || {
        timed(|| {
            black_box(optimal_partition(200, 0.7));
            combined_estimate(&fresh, &prev, &cur, 66.0)
        })
    });
    p.record("stats.rpt_combine_ns", s * 1e9, "ns");
}

fn core(
    p: &mut Probes<'_>,
    mesh: &Graph,
    db: &mut P2PDatabase,
    handles: &[TupleHandle],
    expr: &Expr,
    rng: &mut ChaCha8Rng,
) {
    let seed = p.seed;
    // `solo_tight`'s contract, where the estimators carry the run.
    let precision = Precision::new(1.0, 0.75, 0.99).expect("valid contract");
    let origin = mesh.nodes().next().expect("non-empty mesh");
    let sampling = SamplingConfig {
        workers: 1,
        ..SamplingConfig::recommended(mesh.node_count())
    };

    let mut operator = SamplingOperator::new(sampling).expect("valid sampling config");
    let mut rpt = RepeatedEstimator::new(RptConfig::default()).expect("default RPT config");
    let mut tick = 0;
    let s = p.seconds_per(300, || {
        perturb(db, handles, rng);
        tick += 1;
        let ctx = TickContext {
            tick,
            graph: mesh,
            db,
            origin,
        };
        timed(|| rpt.evaluate(&ctx, expr, &Predicate::True, &precision, &mut operator, rng))
    });
    p.record("core.rpt.evaluate_us", s * 1e6, "us");

    let mut operator = SamplingOperator::new(sampling).expect("valid sampling config");
    let defaults = RptConfig::default();
    let indep = IndependentEstimator::new(defaults.pilot_size, defaults.max_samples, false)
        .expect("default pilot and cap");
    let s = p.seconds_per(60, || {
        tick += 1;
        let ctx = TickContext {
            tick,
            graph: mesh,
            db,
            origin,
        };
        timed(|| indep.evaluate(&ctx, expr, &Predicate::True, &precision, &mut operator, rng))
    });
    p.record("core.indep.evaluate_us", s * 1e6, "us");

    let mut scheduler = PredScheduler::new(3).expect("PRED-3");
    let mut t = 0.0;
    let s = p.seconds_per(20_000, || {
        t += 1.0;
        timed(|| {
            scheduler.observe(t, 60.0 + 4.0 * (t / 40.0).sin());
            scheduler.next_delay(1.0)
        })
    });
    p.record("core.scheduler.decide_us", s * 1e6, "us");

    // Sharing on ÷ off: the same fleet on the same world, exact counts.
    let ticks = Kind::Mux32.ticks(p.quick) / 2;
    let messages = |sharing: bool| -> f64 {
        let mut prepared = Kind::Mux32.setup(measure::sub_seed(seed, 0), ticks);
        prepared.system = System::Mux(mux_fleet(&prepared.world, sharing));
        let reports = prepared.drive().expect("mux32 runs without error");
        reports.iter().map(|r| r.total_messages()).sum::<u64>() as f64
    };
    p.record(
        "core.mux.message_ratio",
        messages(true) / messages(false),
        "ratio",
    );

    // A p90 sweep over paper-scale MEMORY with churn cut tenfold, so that
    // some nodes keep their fingerprint between sweeps and are retained.
    let base = MemoryConfig::paper_scale();
    let mut memory = MemoryWorkload::new(MemoryConfig {
        leave_prob: base.leave_prob / 10.0,
        join_rate: base.join_rate / 10.0,
        seed: base.seed.wrapping_add(seed),
        ..base
    });
    let query = ContinuousQuery::new(
        AggregateOp::Percentile { q_permille: 900 },
        memory.expr().clone(),
        Precision::new(4.0, 0.05, 0.95).expect("valid contract"),
    );
    let mut sweeper = SketchSweepEstimator::for_query(&query).expect("valid sweep contract");
    let (mut retained, mut visited) = (0, 0);
    let s = p.seconds_per(60, || {
        memory.advance(rng);
        let start = Instant::now();
        let sweep = sweeper
            .sweep(memory.db(), &query.expr, &query.predicate)
            .expect("sweep over a live relation");
        let busy = start.elapsed();
        retained += sweep.retained_nodes;
        visited += sweep.retained_nodes + sweep.fresh_nodes;
        busy
    });
    p.record("core.sketch_est.sweep_us", s * 1e6, "us");
    p.record(
        "core.sketch_est.retained_fraction",
        retained as f64 / visited.max(1) as f64,
        "ratio",
    );
}

fn sketch(p: &mut Probes<'_>, rng: &mut ChaCha8Rng) {
    let values: Vec<f64> = (0..10_000)
        .map(|_| 1_000.0 * rng.gen_range(0.0..1.0))
        .collect();
    let n = values.len() as f64;

    let s = p.seconds_per(20, || {
        let mut udd = UddSketch::new(1e-3, 4096).expect("valid UDD parameters");
        timed(|| {
            for &v in &values {
                udd.accumulate(v);
            }
            udd
        })
    });
    p.record("sketch.udd.accumulate_ns", s / n * 1e9, "ns");

    let s = p.seconds_per(50, || {
        let mut hll = HllSketch::new(12).expect("valid precision");
        timed(|| {
            for &v in &values {
                hll.accumulate_value(v);
            }
            hll
        })
    });
    p.record("sketch.hll.accumulate_ns", s / n * 1e9, "ns");

    let s = p.seconds_per(20, || {
        let mut ss = SpaceSavingSketch::new(64).expect("valid capacity");
        timed(|| {
            for &v in &values {
                ss.accumulate_cell(value_cell(v));
            }
            ss
        })
    });
    p.record("sketch.ss.accumulate_ns", s / n * 1e9, "ns");

    let shards: Vec<UddSketch> = values
        .chunks(values.len() / 64)
        .take(64)
        .map(|chunk| {
            let mut udd = UddSketch::new(1e-3, 4096).expect("valid UDD parameters");
            chunk.iter().for_each(|&v| udd.accumulate(v));
            udd
        })
        .collect();
    let s = p.seconds_per(60, || {
        timed(|| {
            let mut merged = UddSketch::new(1e-3, 4096).expect("valid UDD parameters");
            for shard in &shards {
                merged.merge(shard).expect("same configuration");
            }
            merged
        })
    });
    p.record("sketch.merge64_us", s * 1e6, "us");
}

/// Reference seconds of one driver call of `kind` over `ticks` ticks of
/// world 0; `after` sees the workload once the call has returned.
fn driver_call(
    p: &mut Probes<'_>,
    kind: Kind,
    ticks: u64,
    mut after: impl FnMut(&Prepared),
) -> f64 {
    let samples: Vec<f64> = (0..p.reps)
        .map(|_| {
            let mut prepared = kind.setup(measure::sub_seed(p.seed, 0), ticks);
            let (run, result) = p.ruler.time(|| prepared.drive());
            result.expect("the workloads run without error");
            after(&prepared);
            prepared.finish();
            run.reference_s()
        })
        .collect();
    clock::median(&samples)
}

fn audit(
    p: &mut Probes<'_>,
    db: &mut P2PDatabase,
    handles: &[TupleHandle],
    expr: &Expr,
    rng: &mut ChaCha8Rng,
) {
    let mut ledger = MessageLedger::new(expr.clone(), Predicate::True, 2.0);
    let s = p.seconds_per(60, || {
        perturb(db, handles, rng);
        timed(|| ledger.observe(db))
    });
    p.record("audit.ledger.observe_us", s * 1e6, "us");

    // Same world, same ticks, observation on ÷ off. ROADMAP item 5 budgets
    // this ratio at 1.25.
    let ticks = Kind::Audited.ticks(p.quick) / 3;
    let plain = driver_call(p, Kind::SoloLoose, ticks, |_| {});
    let mut ratios = (0.0, 0.0);
    let audited = driver_call(p, Kind::Audited, ticks, |prepared| {
        let report = prepared
            .observation
            .as_ref()
            .expect("audited installs an observer")
            .audit
            .report();
        ratios = (
            report.digest_messages as f64 / report.all_messages.max(1) as f64,
            report.digest_messages as f64 / report.filter_messages.max(1) as f64,
        );
    });
    p.record("audit.overhead_ratio", audited / plain, "ratio");
    p.record("audit.msg_ratio_all", ratios.0, "ratio");
    p.record("audit.msg_ratio_filter", ratios.1, "ratio");
}

fn telemetry(p: &mut Probes<'_>) {
    digest_telemetry::set_clock_mode(ClockMode::Wall);
    let s = p.seconds_per(10, || {
        timed(|| {
            for _ in 0..100_000 {
                drop(digest_telemetry::span(Stage::EngineTick));
            }
        })
    });
    digest_telemetry::set_clock_mode(ClockMode::Deterministic);
    p.record("telemetry.span_ns", s / 100_000.0 * 1e9, "ns");

    let s = p.seconds_per(3, || {
        digest_telemetry::install_sink(Box::new(MemorySink::new()));
        let busy = timed(|| {
            for i in 0..10_000_u64 {
                digest_telemetry::emit(
                    "tick",
                    &[
                        ("estimate", Field::F64(60.5)),
                        ("exact", Field::F64(60.25)),
                        ("snapshot", Field::Bool(i % 7 == 0)),
                        ("samples", Field::U64(i)),
                        ("messages", Field::U64(7 * i)),
                    ],
                );
            }
        });
        digest_telemetry::take_sink();
        busy
    });
    p.record("telemetry.emit_ns", s / 10_000.0 * 1e9, "ns");

    // The `solo_loose` scenario with an event sink installed ÷ without.
    let ticks = Kind::Audited.ticks(p.quick) / 3;
    let off = driver_call(p, Kind::SoloLoose, ticks, |_| {});
    digest_telemetry::install_sink(Box::new(MemorySink::new()));
    let on = driver_call(p, Kind::SoloLoose, ticks, |_| {});
    digest_telemetry::take_sink();
    p.record("telemetry.events_on_ratio", on / off, "ratio");
}

fn sim(p: &mut Probes<'_>) {
    let seed = p.seed;
    let s = p.seconds_per(4, || {
        let mut queue = EventQueue::new();
        timed(|| {
            for tick in 0..100_000_u64 {
                queue.schedule(tick.wrapping_mul(0x9E37_79B9) % 1_000_000);
            }
            while let Some(tick) = queue.pop_next() {
                black_box(tick);
            }
        })
    });
    p.record("sim.event_queue_ns", s / 100_000.0 * 1e9, "ns");

    // `run_flat` builds its own 10⁵-node store, so one occasion is priced
    // as the difference between a run with 8 occasions and one with none.
    let flat = |ticks: u64| FlatSimConfig {
        nodes: 100_000,
        attach: 3,
        ticks,
        query_interval: 100,
        seed,
        ..FlatSimConfig::default()
    };
    let occasions = 8;
    let with = p.seconds_per(1, || {
        timed(|| run_flat(&flat(100 * occasions)).expect("valid flat config"))
    });
    let without = p.seconds_per(1, || {
        timed(|| run_flat(&flat(0)).expect("valid flat config"))
    });
    p.record(
        "sim.flat.occasion_us",
        (with - without).max(0.0) / occasions as f64 * 1e6,
        "us",
    );
}

/// `sample_tuples` batches under the three snapshot-cache outcomes, on both
/// overlays, plus the `net` probes that share the 100k overlay.
fn sampling_and_net(p: &mut Probes<'_>, mesh: Graph, mesh_db: P2PDatabase, rng: &mut ChaCha8Rng) {
    let origin = mesh.nodes().next().expect("non-empty mesh");
    let mut walk = MetropolisWalk::new(&mesh, origin).expect("live origin");
    let s = p.seconds_per(20, || {
        timed(|| walk.run(&mesh, &content_size_weight(&mesh_db), 50_000, rng))
    });
    p.record("sampling.walk_ns_per_step", s / 50_000.0 * 1e9, "ns");

    // Fresh mixing-length walks every batch, so both worker counts do the
    // same work. With one hardware thread this reads below 1.
    let cold = |workers: usize| SamplingConfig {
        workers,
        continue_walks: false,
        ..SamplingConfig::recommended(mesh.node_count())
    };
    let mut seconds_with = |workers: usize| {
        let mut op = SamplingOperator::new(cold(workers)).expect("valid sampling config");
        p.seconds_per(20, || {
            timed(|| op.sample_tuples(&mesh, &mesh_db, origin, 512, rng))
        })
    };
    let (one, two) = (seconds_with(1), seconds_with(2));
    p.record("sampling.workers2_speedup", one / two, "ratio");

    batches(p, "", mesh, mesh_db, 200, rng);

    let s = p.seconds_per(1, || {
        timed(|| topology::barabasi_albert(100_000, 3, rng).expect("valid BA parameters"))
    });
    p.record("net.ba_build_ms.100k", s * 1e3, "ms");

    let churn = |leave_prob, join_rate, attach_links| {
        ChurnProcess::new(ChurnConfig {
            leave_prob,
            join_rate,
            attach_links,
            preferential: true,
            min_nodes: 8,
            repair_partitions: true,
        })
        .expect("valid churn config")
    };
    // Paper-scale MEMORY's churn, then the `churn_100k` workload's.
    let mut small = topology::barabasi_albert(820, 2, rng).expect("valid BA parameters");
    let process = churn(2e-4, 0.164, 2);
    let s = p.seconds_per(2_500, || timed(|| process.step(&mut small, rng)));
    p.record("net.churn_step_us.820", s * 1e6, "us");

    let mut big = topology::barabasi_albert(100_000, 3, rng).expect("valid BA parameters");
    let process = churn(2e-5, 2.0, 3);
    let s = p.seconds_per(8, || timed(|| process.step(&mut big, rng)));
    p.record("net.churn_step_us.100k", s * 1e6, "us");

    let (big_db, _) = relation(&big, 200_000, rng);
    batches(p, ".100k", big, big_db, 8, rng);
}

fn batches(
    p: &mut Probes<'_>,
    suffix: &str,
    mut g: Graph,
    mut db: P2PDatabase,
    iterations: u64,
    rng: &mut ChaCha8Rng,
) {
    let origin = g.nodes().next().expect("non-empty graph");
    let config = SamplingConfig {
        workers: 1,
        ..SamplingConfig::recommended(g.node_count())
    };
    let batch = |op: &mut SamplingOperator, g: &Graph, db: &P2PDatabase, rng: &mut ChaCha8Rng| {
        op.begin_occasion();
        timed(|| op.sample_tuples(g, db, origin, BATCH, rng))
    };

    let mut op = SamplingOperator::new(config).expect("valid sampling config");
    batch(&mut op, &g, &db, rng);
    let s = p.seconds_per(iterations, || batch(&mut op, &g, &db, rng));
    p.record(&format!("sampling.batch_us.reused{suffix}"), s * 1e6, "us");

    let s = p.seconds_per(iterations, || {
        join_and_leave(&mut g, &mut db, origin, rng);
        batch(&mut op, &g, &db, rng)
    });
    p.record(&format!("sampling.batch_us.patched{suffix}"), s * 1e6, "us");

    let s = p.seconds_per(iterations, || {
        let mut cold = SamplingOperator::new(config).expect("valid sampling config");
        batch(&mut cold, &g, &db, rng)
    });
    p.record(&format!("sampling.batch_us.built{suffix}"), s * 1e6, "us");
}
