//! Integration: `MEDIAN` continuous queries end to end. `MEDIAN(x)` is
//! sugar for `PERCENTILE(x, 0.5)`: one UDDSketch sweep (DESIGN.md §17)
//! whichever system is asked, exact in the oracle.

use digest::core::{
    ContinuousQuery, DigestEngine, EngineConfig, MuxConfig, QueryMux, QuerySystem, SchedulerKind,
    TickContext,
};
use digest::db::{Expr, P2PDatabase, Schema, Tuple, TupleHandle};
use digest::net::{topology, Graph, NodeId};
use digest::sampling::SamplingConfig;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The sweep's UDDSketch relative accuracy α₀ (`core::sketch_est`).
const ALPHA: f64 = 1e-3;

/// A skewed world: most values small, a heavy right tail, so the median
/// and mean disagree strongly.
struct World {
    graph: Graph,
    db: P2PDatabase,
    handles: Vec<TupleHandle>,
}

fn world(seed: u64) -> World {
    let graph = topology::complete(15).unwrap();
    let mut db = P2PDatabase::new(Schema::single("latency"));
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut handles = Vec::new();
    for v in graph.nodes() {
        db.register_node(v);
        for _ in 0..40 {
            // 90% fast responses near 10ms, 10% slow tail up to ~1000ms.
            let value = if rng.gen_bool(0.9) {
                rng.gen_range(8.0..12.0)
            } else {
                rng.gen_range(200.0..1000.0)
            };
            handles.push(db.insert(v, Tuple::single(value)).unwrap());
        }
    }
    World { graph, db, handles }
}

fn ctx_at(tick: u64, w: &World) -> TickContext<'_> {
    TickContext {
        tick,
        graph: &w.graph,
        db: &w.db,
        origin: NodeId(0),
    }
}

fn sorted_values(w: &World) -> Vec<f64> {
    let mut vals: Vec<f64> = w.db.iter().map(|(_, t)| t.value(0).unwrap()).collect();
    vals.sort_by(f64::total_cmp);
    vals
}

fn oracle_median(w: &World) -> f64 {
    digest::stats::sample_quantile(&sorted_values(w), 0.5).unwrap()
}

/// What the UDDSketch bound gives: within α₀ (relative) of an order
/// statistic at the median rank.
fn assert_within_sketch_bound(estimate: f64, w: &World) {
    // The two order statistics the exact median interpolates between.
    let vals = sorted_values(w);
    let (lo, hi) = (vals[(vals.len() - 1) / 2], vals[vals.len() / 2]);
    assert!(
        lo * (1.0 - ALPHA) <= estimate && estimate <= hi * (1.0 + ALPHA),
        "estimate {estimate} outside [{lo}, {hi}] ± {ALPHA} relative"
    );
}

fn statement(aggregate: &str, delta: f64, epsilon: f64) -> String {
    format!("SELECT {aggregate} FROM R WITH delta={delta}, epsilon={epsilon}, p=0.95")
}

fn engine(w: &World, statement: &str) -> DigestEngine {
    DigestEngine::new(
        ContinuousQuery::parse(statement, w.db.schema()).unwrap(),
        EngineConfig {
            scheduler: SchedulerKind::All,
            sampling: SamplingConfig::recommended(w.graph.node_count()),
            ..Default::default()
        },
    )
    .unwrap()
}

fn median_engine(w: &World, delta: f64, epsilon: f64) -> DigestEngine {
    engine(w, &statement("MEDIAN(latency)", delta, epsilon))
}

#[test]
fn median_engine_tracks_the_median_not_the_mean() {
    let w = world(1);
    let truth = oracle_median(&w);
    let mean = w.db.exact_avg(&Expr::first_attr(w.db.schema())).unwrap();
    assert!(
        mean > truth * 3.0,
        "heavy tail must pull the mean away: mean {mean}, median {truth}"
    );

    let mut sys = median_engine(&w, 2.0, 1.0);
    assert_eq!(sys.name(), "ALL+SKETCH-UDD");
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    for tick in 0..10 {
        let o = sys.on_tick(&ctx_at(tick, &w), &mut rng).unwrap();
        assert_within_sketch_bound(o.estimate, &w);
        assert!((o.estimate - mean).abs() > 10.0, "estimate chased the mean");
    }
    // One pull per node on the first sweep, every later sweep retained:
    // ten occasions over 600 tuples for 15 messages.
    assert_eq!(sys.total_messages(), 15);
    assert_eq!(sys.total_samples(), 6_000);
}

#[test]
fn median_is_robust_to_tail_corruption() {
    // Blow up the tail values 10×: the mean moves wildly, the median
    // (and the engine's estimate) does not move at all.
    let mut w = world(3);
    let mut sys = median_engine(&w, 2.0, 1.0);
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let before = sys.on_tick(&ctx_at(0, &w), &mut rng).unwrap().estimate;
    assert_within_sketch_bound(before, &w);

    let mean_before = w.db.exact_avg(&Expr::first_attr(w.db.schema())).unwrap();
    for &h in &w.handles {
        let v = w.db.read(h).unwrap().value(0).unwrap();
        if v > 100.0 {
            w.db.update(h, &[v * 10.0]).unwrap();
        }
    }
    let mean_after = w.db.exact_avg(&Expr::first_attr(w.db.schema())).unwrap();
    assert!(mean_after > 5.0 * mean_before, "mean must explode");

    let after = sys.on_tick(&ctx_at(1, &w), &mut rng).unwrap().estimate;
    assert_eq!(
        after, before,
        "tail-only corruption leaves the median's bucket where it was"
    );
}

/// The exact reference every comparator is judged against,
/// `ContinuousQuery::oracle`, answers `MEDIAN` with the interpolated
/// sample median of the whole relation.
#[test]
fn push_all_computes_exact_median() {
    let w = world(5);
    let truth = oracle_median(&w);
    let query =
        ContinuousQuery::parse(&statement("MEDIAN(latency)", 1.0, 1.0), w.db.schema()).unwrap();
    assert_eq!(query.oracle(&w.db), Some(truth));
}

/// `MEDIAN` is one thing: the solo engine under either spelling, the
/// unshared mux and a one-member shared mux report bit-equal estimates,
/// messages and samples, tick for tick, on a world that keeps moving.
#[test]
fn every_system_agrees_on_what_a_median_is() {
    let mut w = world(7);
    let median = statement("MEDIAN(latency)", 2.0, 1.0);
    let percentile = statement("PERCENTILE(latency, 0.5)", 2.0, 1.0);
    let mut solo_median = engine(&w, &median);
    let mut solo_percentile = engine(&w, &percentile);
    let mux = |sharing: bool| {
        let mut mux = QueryMux::new(MuxConfig {
            sharing,
            member: EngineConfig {
                scheduler: SchedulerKind::All,
                sampling: SamplingConfig::recommended(w.graph.node_count()),
                ..EngineConfig::default()
            },
        })
        .unwrap();
        mux.register(ContinuousQuery::parse(&median, w.db.schema()).unwrap())
            .unwrap();
        mux
    };
    let (mut shared, mut unshared) = (mux(true), mux(false));

    let mut world_rng = ChaCha8Rng::seed_from_u64(8);
    let mut rngs: Vec<ChaCha8Rng> = (0..4).map(|_| ChaCha8Rng::seed_from_u64(9)).collect();
    let mut messages = 0;
    for tick in 0..10 {
        // A few fast responses drift each tick, so later sweeps re-pull.
        for _ in 0..5 {
            let h = w.handles[world_rng.gen_range(0..w.handles.len())];
            let v = w.db.read(h).unwrap().value(0).unwrap();
            if v < 100.0 {
                w.db.update(h, &[v + world_rng.gen_range(-0.5..0.5)])
                    .unwrap();
            }
        }
        let ctx = ctx_at(tick, &w);
        let want = solo_median.on_tick(&ctx, &mut rngs[0]).unwrap();
        assert_within_sketch_bound(want.estimate, &w);
        messages += want.messages_this_tick;
        let others = [
            solo_percentile.on_tick(&ctx, &mut rngs[1]).unwrap(),
            shared.on_tick(&ctx, &mut rngs[2]).unwrap(),
            unshared.on_tick(&ctx, &mut rngs[3]).unwrap(),
        ];
        for (i, got) in others.iter().enumerate() {
            assert_eq!(
                (
                    got.estimate.to_bits(),
                    got.messages_this_tick,
                    got.samples_this_tick
                ),
                (
                    want.estimate.to_bits(),
                    want.messages_this_tick,
                    want.samples_this_tick
                ),
                "system {i}, tick {tick}"
            );
        }
    }
    assert!(
        messages > 15,
        "the drifting ticks must have re-pulled nodes"
    );
}

/// `MEDIAN(x) WHERE …` ranks the qualifying sub-population only.
#[test]
fn median_respects_the_predicate() {
    let graph = topology::complete(6).unwrap();
    let mut db = P2PDatabase::new(Schema::new(["kind", "v"]));
    for (i, node) in graph.nodes().enumerate() {
        db.register_node(node);
        for j in 0..40 {
            // kind 0 values near 10, kind 1 values near 100.
            let kind = f64::from(u32::try_from((i + j) % 2).unwrap());
            let v = if kind == 0.0 { 10.0 } else { 100.0 } + j as f64 * 0.01;
            db.insert(node, Tuple::new(vec![kind, v])).unwrap();
        }
    }
    let query = ContinuousQuery::parse(
        "SELECT MEDIAN(v) FROM R WHERE kind = 1 WITH delta=1, epsilon=0.5, p=0.9",
        db.schema(),
    )
    .unwrap();
    let exact = query.oracle(&db).unwrap();
    assert!((exact - 100.2).abs() < 0.05, "exact {exact}");
    let mut sys = DigestEngine::new(
        query,
        EngineConfig {
            scheduler: SchedulerKind::All,
            ..Default::default()
        },
    )
    .unwrap();
    let ctx = TickContext {
        tick: 0,
        graph: &graph,
        db: &db,
        origin: NodeId(0),
    };
    let o = sys
        .on_tick(&ctx, &mut ChaCha8Rng::seed_from_u64(5))
        .unwrap();
    assert!(
        (o.estimate - exact).abs() <= ALPHA * exact + 0.01,
        "median of kind-1 values: {} vs {exact}",
        o.estimate
    );
    assert_eq!(o.samples_this_tick, 120, "half of the 240 tuples qualify");
}

/// A median needs no `N̂`: a solo `MEDIAN` engine never spends a
/// capture–recapture round (no other test of this binary asks a `SUM`
/// or a `COUNT`, so the process-wide counter is this test's alone).
#[test]
fn solo_median_never_refreshes_the_size_estimate() {
    let w = world(11);
    let before = digest_telemetry::registry::CORE_SIZE_REFRESHES.get();
    let mut sys = median_engine(&w, 2.0, 1.0);
    let mut rng = ChaCha8Rng::seed_from_u64(12);
    for tick in 0..25 {
        sys.on_tick(&ctx_at(tick, &w), &mut rng).unwrap();
    }
    assert!(sys.size_estimate().is_none());
    assert_eq!(
        digest_telemetry::registry::CORE_SIZE_REFRESHES.get(),
        before
    );
}
