//! The audited-run budget as a gate that cannot flake (ROADMAP aim 4: a
//! view cheap enough to leave on; DESIGN.md §14: audited ≤ 1.25× plain
//! wall). Wall-clock ratios are too noisy to gate on; allocation counts
//! repeat exactly, and an observer that never touches the heap on a
//! steady-state tick is what keeps the ratio inside the budget. `cargo xtask lint` guards the same property statically
//! through the `xtask: no-alloc` tag on `MessageLedger::observe`.

use digest::audit::QueryAudit;
use digest::core::{
    ContinuousQuery, DigestEngine, EngineConfig, EstimatorKind, MuxConfig, Precision,
    PredScheduler, QueryMux, QuerySystem, RepeatedEstimator, RptConfig, SchedulerKind,
    SnapshotScheduler, TickContext, TickObserver,
};
use digest::db::{Expr, P2PDatabase, Predicate, Schema, Tuple};
use digest::net::NodeId;
use digest::sampling::{SamplingConfig, SamplingOperator};
use digest::workload::{
    MemoryConfig, MemoryWorkload, TemperatureConfig, TemperatureWorkload, Workload,
};
use digest_telemetry::MemorySink;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Mutex, MutexGuard, PoisonError};

thread_local! {
    /// Heap allocations (and reallocations) made by this thread. Const
    /// initialised and without a destructor, so reading it from inside
    /// the allocator allocates nothing.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Reallocations by this thread of a block of at least [`BIG`] bytes,
    /// and the bytes those blocks held (what a moving `realloc` copies).
    static BIG_REALLOCS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// From this size up a block is a world's column, not a scratch buffer:
/// the 10⁵-node world's smallest per-id column (`Graph`'s liveness flags)
/// is 100 kB.
const BIG: usize = 64 << 10;

struct CountingAlloc;

fn count() {
    // A thread being torn down has no counter left; nothing to count for.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn count_realloc(size: usize) {
    count();
    if size >= BIG {
        let _ = BIG_REALLOCS.try_with(|n| {
            let (calls, bytes) = n.get();
            n.set((calls + 1, bytes + size as u64));
        });
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the wrapper only bumps a counter and
// never reads or writes through the returned pointers.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`, per the
        // caller's contract and the forwarding above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_realloc(layout.size());
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn big_reallocs() -> (u64, u64) {
    BIG_REALLOCS.with(Cell::get)
}

/// The event sink and its suppression depth are process-wide: a walk batch
/// on one test's thread silences — and an installed sink makes allocate —
/// every other thread for its duration. The tests that sample or install
/// a sink take turns.
static TELEMETRY: Mutex<()> = Mutex::new(());

fn telemetry_turn() -> MutexGuard<'static, ()> {
    TELEMETRY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What one phase of the run saw of `QueryAudit::observe`.
#[derive(Debug, Default)]
struct Phase {
    idle_ticks: u64,
    idle_allocs: u64,
    occasions: u64,
    occasion_allocs: u64,
}

/// The benchmark's `audited` tick, observed: once the ledger holds a
/// filter state for every node's fragment (one `Vec` a node, sized on the
/// first observation), a tick of the TEMPERATURE world keeps every
/// fragment's shape and the ledger's pass is its column kernel alone, off
/// the heap; so is the auditor's occasion without a sink.
#[test]
fn audit_observation_stays_off_the_heap() {
    const WARM_UP: u64 = 3;
    const MEASURED: u64 = 50;
    let _turn = telemetry_turn();

    // The benchmark's `audited` world and engine: paper-scale TEMPERATURE,
    // one AVG under PRED3+RPT at (δ, ε, p) = (8, 2, 0.95).
    let mut workload = TemperatureWorkload::new(TemperatureConfig::paper_scale());
    let query = ContinuousQuery::avg(
        Expr::first_attr(workload.db().schema()),
        Precision::new(8.0, 2.0, 0.95).unwrap(),
    );
    let mut engine = DigestEngine::new(
        query,
        EngineConfig {
            scheduler: SchedulerKind::Pred(3),
            estimator: EstimatorKind::Repeated,
            sampling: SamplingConfig::recommended(workload.graph().node_count()),
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let mut audit = QueryAudit::new(engine.query(), 0).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(20080402);
    let origin = workload.graph().nodes().next().unwrap();

    let mut tick = 0;
    let mut run = |ticks: u64| {
        let mut phase = Phase::default();
        for _ in 0..ticks {
            workload.advance_to(tick, &mut rng);
            digest_telemetry::set_tick(tick);
            let ctx = TickContext {
                tick,
                graph: workload.graph(),
                db: workload.db(),
                origin,
            };
            let outcome = engine.on_tick(&ctx, &mut rng).unwrap();
            let exact = engine.oracle_truth(&ctx).unwrap();
            let before = allocs();
            audit.observe(&ctx, &outcome, exact);
            let spent = allocs() - before;
            if outcome.snapshot_executed {
                phase.occasions += 1;
                phase.occasion_allocs += spent;
            } else {
                phase.idle_ticks += 1;
                phase.idle_allocs += spent;
            }
            tick += 1;
        }
        phase
    };

    // The ledger's node states grow to the fragments on the first
    // observation; nothing may be left to grow after the warm-up.
    run(WARM_UP);

    // No sink installed: nothing is rendered, so no tick may allocate —
    // occasion or not.
    let quiet = run(MEASURED);
    assert!(quiet.idle_ticks > 0 && quiet.occasions > 0, "{quiet:?}");
    assert_eq!(
        (quiet.idle_allocs, quiet.occasion_allocs),
        (0, 0),
        "{quiet:?}"
    );

    // With a sink, an occasion tick pays for its `audit.occasion` line
    // (the rendered `String` and the sink's line list) and nothing else.
    let sink = MemorySink::new();
    digest_telemetry::install_sink(Box::new(sink.clone()));
    let traced = run(MEASURED);
    digest_telemetry::take_sink();
    let events = sink
        .lines()
        .iter()
        .filter(|line| line.contains("audit.occasion"))
        .count() as u64;
    assert!(traced.idle_ticks > 0 && traced.occasions > 0, "{traced:?}");
    assert_eq!(events, traced.occasions);
    assert_eq!(traced.idle_allocs, 0, "{traced:?}");
    assert!(traced.occasion_allocs <= 8 * events, "{traced:?}");
}

/// The MEMORY twin, under churn: the ledger's state grows where the
/// database did — its node table once on a tick the id space grew, a
/// joiner's `Vec` on its first tuples, a node's when its fragment outgrows
/// it — and nowhere else. A churn event reshapes fragments, which the
/// ledger remaps by slot inside the buffers it holds; a tick without one
/// observes old and freshly joined nodes alike off the heap.
#[test]
fn a_churning_audit_allocates_only_where_the_database_grew() {
    const TICKS: u64 = 1_000;
    let _turn = telemetry_turn();

    let mut workload = MemoryWorkload::new(MemoryConfig {
        seconds_per_tick: 1,
        ..MemoryConfig::paper_scale()
    });
    let query = ContinuousQuery::avg(
        Expr::first_attr(workload.db().schema()),
        Precision::new(200.0, 50.0, 0.9).unwrap(),
    );
    let mut engine = DigestEngine::new(
        query,
        EngineConfig {
            scheduler: SchedulerKind::Pred(3),
            estimator: EstimatorKind::Repeated,
            sampling: SamplingConfig::recommended(workload.graph().node_count()),
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let mut audit = QueryAudit::new(engine.query(), 0).unwrap();
    let first_ids = workload.graph().id_upper_bound();
    let mut rng = ChaCha8Rng::seed_from_u64(20080402);
    let mut origin = workload.graph().nodes().next().unwrap();

    let (mut quiet_ticks, mut churn_ticks, mut occasions) = (0u64, 0u64, 0u64);
    for tick in 0..TICKS {
        let events = workload.churn_events();
        workload.advance_to(tick, &mut rng);
        let events = workload.churn_events() - events;
        if !workload.graph().contains(origin) {
            origin = workload.graph().nodes().next().unwrap();
        }
        let ctx = TickContext {
            tick,
            graph: workload.graph(),
            db: workload.db(),
            origin,
        };
        let outcome = engine.on_tick(&ctx, &mut rng).unwrap();
        let exact = engine.oracle_truth(&ctx).unwrap();
        let before = allocs();
        audit.observe(&ctx, &outcome, exact);
        let spent = allocs() - before;
        // The first observation sizes the whole table.
        if tick == 0 {
            continue;
        }
        occasions += u64::from(outcome.snapshot_executed);
        if events == 0 {
            assert_eq!(spent, 0, "tick {tick}");
            quiet_ticks += 1;
        } else {
            assert!(
                spent <= 2 * events,
                "tick {tick}: {spent} for {events} events"
            );
            churn_ticks += 1;
        }
    }
    // Both kinds of tick, a few hundred joins and occasions among them.
    assert!(
        quiet_ticks >= TICKS / 2 && churn_ticks >= 100,
        "{quiet_ticks} / {churn_ticks}"
    );
    assert!(workload.graph().id_upper_bound() >= first_ids + 100);
    assert!(occasions > 0);
}

/// The other half of a `solo_loose` / `audited` tick (ROADMAP aim 4):
/// advancing the paper-scale TEMPERATURE world rewrites 8 000 rows in place
/// and its oracle is one fold over the fragments' columns — neither may
/// touch the heap. Statically, `TemperatureWorkload::advance`, the writer
/// it drives (`P2PDatabase::rewrite_fragments`) and the oracle fold carry
/// the `xtask: no-alloc` tag.
#[test]
fn world_advance_and_oracle_stay_off_the_heap() {
    const TICKS: u64 = 50;

    let mut workload = TemperatureWorkload::new(TemperatureConfig::paper_scale());
    let mut rng = ChaCha8Rng::seed_from_u64(20080402);
    let mut truths = 0.0;
    let before = allocs();
    for _ in 0..TICKS {
        workload.advance(&mut rng);
        truths += workload.exact_aggregate();
    }
    assert_eq!(allocs() - before, 0);
    assert_eq!(workload.current_tick(), TICKS);
    assert!(truths.is_finite());
}

/// The MEMORY twin, with joins: the per-node digest beside the fragments
/// grows where the id space does — in `register_node`, amortised — and
/// never in a writer or a reader. A second without churn updates rows of
/// old and freshly joined nodes alike and allocates nothing but
/// `ChurnProcess::step`'s list of repair terminals; the oracle and the
/// weight capture's `content_size` never touch the heap.
#[test]
fn memory_world_allocates_only_where_nodes_join() {
    const TICKS: u64 = 2_000;

    let mut workload = MemoryWorkload::new(MemoryConfig {
        seconds_per_tick: 1,
        ..MemoryConfig::paper_scale()
    });
    let first_ids = workload.graph().id_upper_bound();
    let mut rng = ChaCha8Rng::seed_from_u64(20080402);
    // The first second sizes the world's lazily grown scratch.
    workload.advance(&mut rng);
    let (mut quiet_ticks, mut churn_allocs, mut truths, mut sizes) = (0u64, 0u64, 0.0, 0usize);
    for _ in 1..TICKS {
        let events = workload.churn_events();
        let before = allocs();
        workload.advance(&mut rng);
        let spent = allocs() - before;
        if workload.churn_events() == events {
            assert_eq!(spent, 1, "tick {}", workload.current_tick());
            quiet_ticks += 1;
        } else {
            churn_allocs += spent;
        }

        let before = allocs();
        truths += workload.exact_aggregate();
        for v in workload.graph().nodes() {
            sizes += workload.db().content_size(v);
        }
        assert_eq!(allocs() - before, 0);
    }
    // Hundreds of joins took the id space past a power of two …
    let ids = workload.graph().id_upper_bound();
    assert!(ids >= first_ids + 250 && ids > first_ids.next_power_of_two());
    assert!(quiet_ticks >= TICKS / 2, "{quiet_ticks}");
    // … for under eight allocations per churn event (a joiner's adjacency,
    // fragment and unit; ≈ 7.7 measured). Three more per join — a digest
    // that grew an entry at a time — would not fit.
    assert!(
        churn_allocs <= 8 * workload.churn_events(),
        "{churn_allocs} over {} events",
        workload.churn_events()
    );
    assert!(truths.is_finite() && sizes > 0);
}

/// The benchmark's `churn_100k` world (10⁵ BA peers, 2·10⁵ units, two
/// joins a second) is built for the joins its configuration allows: over
/// its 60 seconds no column of it — the unit list, the unit chains' heads,
/// the overlay's per-id columns, the database's digest — is reallocated,
/// so no join copies megabytes mid-run. The benchmark's first three
/// worlds at its default seed, each run with its joins.
#[test]
fn the_churn_100k_world_never_regrows_a_column() {
    for world in 0..3 {
        let base = MemoryConfig::paper_scale();
        let mut workload = MemoryWorkload::new(MemoryConfig {
            units: 200_000,
            nodes: 100_000,
            attachment: 3,
            seconds_per_tick: 1,
            update_prob: 0.01,
            leave_prob: 2e-5,
            join_rate: 2.0,
            ticks: 60,
            seed: base.seed.wrapping_add(20_080_402_000 + world),
            ..base
        });
        let first_ids = workload.graph().id_upper_bound();
        let mut rng = ChaCha8Rng::seed_from_u64(20080402);
        let before = big_reallocs();
        for _ in 0..workload.duration() {
            workload.advance(&mut rng);
        }
        let (calls, bytes) = big_reallocs();
        assert!(
            workload.graph().id_upper_bound() > first_ids,
            "world {world}: no join"
        );
        assert_eq!(
            (calls - before.0, bytes - before.1),
            (0, 0),
            "world {world}: reallocations of blocks >= {BIG} B, and their bytes"
        );
    }
}

/// The sampling operator's occasion snapshot sizes its retained arrays
/// (CSR rows and adjacency, the acceptance memo, the size column) with
/// an eighth to spare from its first build on, so an overlay that takes a
/// few joins after the first batch is patched in place: no batch after it
/// reallocates a block of [`BIG`] bytes or more. On the 10⁵-node world each
/// such block was 0.4–4.8 MB copied at the first join of every call.
#[test]
fn a_joined_overlay_reallocates_no_snapshot_array() {
    let _turn = telemetry_turn();
    let mut rng = ChaCha8Rng::seed_from_u64(20080402);
    let mut g = digest::net::topology::barabasi_albert(20_000, 3, &mut rng).unwrap();
    let mut db = P2PDatabase::new(Schema::single("a"));
    let join = |db: &mut P2PDatabase, v: NodeId| {
        db.register_node(v);
        db.insert(v, Tuple::single(f64::from(v.0))).unwrap();
    };
    for v in g.nodes() {
        join(&mut db, v);
    }
    let mut operator = SamplingOperator::new(SamplingConfig {
        workers: 1,
        cache_snapshots: true,
        ..SamplingConfig::recommended(g.node_count())
    })
    .unwrap();
    operator
        .sample_batch(&g, &db, NodeId(0), 64, &mut rng)
        .unwrap();
    let mut spent = (0, 0);
    for k in 0..5 {
        let joiner = g.add_node();
        for target in [k, 100 + k, 1_000 + k] {
            g.add_edge(joiner, NodeId(target)).unwrap();
        }
        join(&mut db, joiner);
        operator.begin_occasion();
        let before = big_reallocs();
        operator
            .sample_batch(&g, &db, NodeId(0), 64, &mut rng)
            .unwrap();
        let after = big_reallocs();
        spent = (spent.0 + after.0 - before.0, spent.1 + after.1 - before.1);
    }
    let stats = operator.snapshot_stats();
    assert_eq!((stats.built, stats.patched), (1, 5));
    assert_eq!(
        spent,
        (0, 0),
        "reallocations of blocks >= {BIG} B, and their bytes"
    );
}

/// What PR 17 bought on `solo_tight` (ROADMAP aim 1): an RPT occasion at
/// a steady panel size revisits, draws, combines and re-panels inside
/// buffers it already owns. The scheduler's fit is outside `evaluate`;
/// `pred_occasions_stay_off_the_heap` gates the whole `on_tick`.
#[test]
fn steady_rpt_occasions_do_not_allocate_per_sample() {
    const WARM_UP: u64 = 5;
    const MEASURED: u64 = 50;
    let _turn = telemetry_turn();

    // The benchmark's `solo_tight` world and contract: an occasion every
    // tick, a panel of a few hundred samples.
    let mut workload =
        TemperatureWorkload::new(TemperatureConfig::reduced(1060, 10, 53, WARM_UP + MEASURED));
    let expr = Expr::first_attr(workload.db().schema());
    let precision = Precision::new(1.0, 0.75, 0.99).unwrap();
    let mut estimator = RepeatedEstimator::new(RptConfig::default()).unwrap();
    let mut operator = SamplingOperator::new(SamplingConfig {
        workers: 1,
        ..SamplingConfig::recommended(workload.graph().node_count())
    })
    .unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(20080402);
    let origin = workload.graph().nodes().next().unwrap();

    let mut spent = Vec::new();
    let mut samples = 0;
    for tick in 0..WARM_UP + MEASURED {
        workload.advance_to(tick, &mut rng);
        let ctx = TickContext {
            tick,
            graph: workload.graph(),
            db: workload.db(),
            origin,
        };
        let before = allocs();
        let snapshot = estimator
            .evaluate(
                &ctx,
                &expr,
                &Predicate::True,
                &precision,
                &mut operator,
                &mut rng,
            )
            .unwrap();
        let after = allocs();
        if tick >= WARM_UP {
            spent.push(after - before);
            samples += snapshot.total_samples();
        }
    }
    // Hundreds of samples an occasion, and not one allocation that grows
    // with them: a late buffer growth is all an occasion may still pay.
    assert!(samples >= 200 * MEASURED, "{samples}");
    assert!(spent.iter().all(|&n| n <= 8), "{spent:?}");
}

/// What PR 17 bought on `mux32`: a shared round folds its panel once per
/// question class, in place in the operator's batch column — 32 members
/// asking the same `AVG` allocate what 4 members do plus a constant per
/// extra member, not a constant per (member, sample). `ALL` scheduling
/// fires a round every tick.
#[test]
fn coincident_mux_members_share_one_fold() {
    const ROUNDS: u64 = 20;
    let _turn = telemetry_turn();

    let run = |members: usize| {
        let mut workload = TemperatureWorkload::new(TemperatureConfig::paper_scale());
        let mut mux = QueryMux::new(MuxConfig {
            member: EngineConfig {
                scheduler: SchedulerKind::All,
                sampling: SamplingConfig {
                    workers: 1,
                    ..SamplingConfig::recommended(workload.graph().node_count())
                },
                ..EngineConfig::default()
            },
            ..MuxConfig::default()
        })
        .unwrap();
        let contracts = [
            (2.0, 1.0, 0.95),
            (1.0, 0.5, 0.99),
            (4.0, 1.0, 0.90),
            (2.0, 0.5, 0.95),
        ];
        for k in 0..members {
            let (delta, epsilon, p) = contracts[k % contracts.len()];
            mux.register(ContinuousQuery::avg(
                Expr::first_attr(workload.db().schema()),
                Precision::new(delta, epsilon, p).unwrap(),
            ))
            .unwrap();
        }
        let mut rng = ChaCha8Rng::seed_from_u64(20080402);
        let origin = workload.graph().nodes().next().unwrap();
        let (mut spent, mut samples) = (0, 0);
        for tick in 0..ROUNDS {
            workload.advance_to(tick, &mut rng);
            let ctx = TickContext {
                tick,
                graph: workload.graph(),
                db: workload.db(),
                origin,
            };
            let before = allocs();
            let outcomes = mux.on_tick_mux(&ctx, &mut rng).unwrap();
            spent += allocs() - before;
            samples += outcomes[0].outcome.samples_this_tick;
        }
        assert_eq!(mux.rounds(), ROUNDS);
        (spent, samples)
    };
    let (few, few_samples) = run(4);
    let (many, many_samples) = run(32);
    // The same panels either way, well over a thousand samples a round …
    assert_eq!(few_samples, many_samples);
    assert!(few_samples >= 1_000 * ROUNDS, "{few_samples}");
    // … none of which costs an allocation, and an extra member costs at
    // most one per round.
    assert!(
        many < many_samples / 20,
        "{many} for {many_samples} samples"
    );
    assert!(many <= few + ROUNDS * (32 - 4), "{few} -> {many}");
}

/// A PRED-k decision is a least-squares fit and its prediction bound on
/// the stack: once the scheduler exists, observing, deciding and resetting
/// never allocate. Statically, `Extrapolator::{observe, predict}` and
/// `PredScheduler::next_delay` carry the `xtask: no-alloc` tag.
#[test]
fn pred_decisions_stay_off_the_heap() {
    const CALLS: u64 = 1_000;
    let _turn = telemetry_turn();

    let contract = Precision::new(1.0, 0.05, 0.95).unwrap();
    let mut scheduler = PredScheduler::for_precision(3, &contract).unwrap();
    let mut decide = |range: std::ops::Range<u64>| {
        let mut ticks = 0;
        for t in range {
            if t == CALLS / 2 {
                scheduler.reset();
            }
            let t = t as f64;
            scheduler.observe(t, 60.0 + 4.0 * (t / 40.0).sin());
            ticks += scheduler.next_delay(1.0).unwrap();
        }
        ticks
    };
    decide(0..10);
    let before = allocs();
    let ticks = decide(10..10 + CALLS);
    assert_eq!(allocs() - before, 0);
    // Bootstrap answers 1; the fitted sine skips ahead in between.
    assert!(ticks > CALLS, "{ticks}");
}

/// The benchmark's `solo_tight` engine (PRED3+RPT at (1, 0.75, 0.99) on
/// two tuples a node, an occasion almost every tick): with the fit on the
/// stack, a warmed-up `on_tick` — snapshot refresh, walks, RPT combine,
/// δ-report, PRED-3 decision — allocates nothing at all. The engine is a
/// one-member mux round, so this also guards the round's kept scratch: a
/// round that builds its question classes, class answers and outcomes
/// afresh spends about four allocations an occasion here.
#[test]
fn pred_occasions_stay_off_the_heap() {
    const WARM_UP: u64 = 100;
    const MEASURED: u64 = 200;
    let _turn = telemetry_turn();

    let mut workload =
        TemperatureWorkload::new(TemperatureConfig::reduced(1060, 10, 53, WARM_UP + MEASURED));
    let query = ContinuousQuery::avg(
        Expr::first_attr(workload.db().schema()),
        Precision::new(1.0, 0.75, 0.99).unwrap(),
    );
    let mut engine = DigestEngine::new(
        query,
        EngineConfig {
            scheduler: SchedulerKind::Pred(3),
            estimator: EstimatorKind::Repeated,
            sampling: SamplingConfig::recommended(workload.graph().node_count()),
            ..EngineConfig::default()
        },
    )
    .unwrap();
    engine.set_sampling_workers(1);
    let mut rng = ChaCha8Rng::seed_from_u64(20080402);
    let origin = workload.graph().nodes().next().unwrap();

    let (mut spent, mut occasions) = (0, 0);
    for tick in 0..WARM_UP + MEASURED {
        workload.advance_to(tick, &mut rng);
        let ctx = TickContext {
            tick,
            graph: workload.graph(),
            db: workload.db(),
            origin,
        };
        let before = allocs();
        let outcome = engine.on_tick(&ctx, &mut rng).unwrap();
        if tick >= WARM_UP {
            spent += allocs() - before;
            occasions += u64::from(outcome.snapshot_executed);
        }
    }
    assert!(occasions >= MEASURED / 2, "{occasions}");
    assert_eq!(spent, 0, "over {occasions} occasions");
}
