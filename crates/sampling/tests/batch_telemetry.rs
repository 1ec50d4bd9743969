//! The batch executor flushes its telemetry once per batch; the path it
//! replaced flushed once per slot (and the live-graph walk still bumps
//! its counters once per *step*). This binary holds the batched flush to
//! that older bookkeeping: every occasion batch is replayed slot by slot
//! from the public pieces — the occasion key's stream per slot
//! (`ChaCha8Rng::with_stream`), the live
//! [`MetropolisWalk`], `P2PDatabase::sample_local` — with the parent
//! commit's per-slot flush written out below, and the registry and the
//! rendered event stream must come out the same.
//!
//! One test, in a binary of its own: it reads the process-wide registry
//! and installs the process-wide sink.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use digest_db::{P2PDatabase, Schema, Tuple};
use digest_net::{topology, Graph, NodeId};
use digest_sampling::{
    content_size_weight, MetropolisWalk, SamplingConfig, SamplingOperator, SnapshotStats,
};
use digest_telemetry::{registry, Field, MemorySink, Stage};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

const CONFIG: SamplingConfig = SamplingConfig {
    walk_length: 3,
    reset_length: 1,
    continue_walks: true,
    workers: 2,
    cache_snapshots: true,
};
const ORIGIN: NodeId = NodeId(0);
/// Batch sizes of one occasion: the second batch starts mid-pool.
const BATCHES: [usize; 2] = [9, 5];
const OCCASIONS: usize = 4;

/// A BA overlay in which three nodes in four — the origin among them —
/// hold nothing, so short fresh walks end on empty nodes and retry.
fn world() -> (Graph, P2PDatabase) {
    let g = topology::barabasi_albert(40, 2, &mut ChaCha8Rng::seed_from_u64(31)).unwrap();
    let mut db = P2PDatabase::new(Schema::single("a"));
    for v in g.nodes() {
        db.register_node(v);
        if v.0 % 4 == 1 {
            for j in 0..=(v.0 % 3) {
                db.insert(v, Tuple::single(f64::from(100 * v.0 + j)))
                    .unwrap();
            }
        }
    }
    (g, db)
}

/// Overlay churn between occasions, so one snapshot refresh is a patch.
fn churn(g: &mut Graph, occasion: usize) {
    if occasion == 2 {
        let v = g.add_node();
        g.add_edge(v, NodeId(5)).unwrap();
    }
}

/// What the sampling layer's batch flush owns of the registry, plus the
/// local-draw tally both paths bump from inside their slots, plus the
/// walk and batch stage reports (count, total): the batch records its
/// slots' walk spans once, the replay one guard per slot.
fn registry_fingerprint() -> Vec<u64> {
    let mut fp = vec![
        registry::SAMPLING_WALKS_FRESH.get(),
        registry::SAMPLING_WALKS_CONTINUED.get(),
        registry::SAMPLING_WALK_STEPS.get(),
        registry::SAMPLING_WALK_HOPS.get(),
        registry::SAMPLING_MH_PROPOSALS.get(),
        registry::SAMPLING_MH_ACCEPTS.get(),
        registry::SAMPLING_MH_LAZY.get(),
        registry::SAMPLING_SAMPLES.get(),
        registry::SAMPLING_MESSAGES.get(),
        registry::SAMPLING_WALK_BATCHES.get(),
        registry::DB_LOCAL_SAMPLES.get(),
    ];
    for histogram in [&registry::SAMPLING_BURN_IN, &registry::SAMPLING_BATCH_SLOTS] {
        fp.extend([histogram.count(), histogram.sum(), histogram.max()]);
        fp.extend(histogram.bucket_counts());
    }
    for report in digest_telemetry::stage_reports() {
        if matches!(report.stage, Stage::SamplingWalk | Stage::SamplingBatch) {
            fp.extend([report.count, report.total]);
        }
    }
    fp
}

/// Runs the occasions through `SamplingOperator::sample_batch`; returns
/// how each batch's snapshot was refreshed.
fn batched_run() -> Vec<&'static str> {
    let (mut g, db) = world();
    let mut op = SamplingOperator::new(CONFIG).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    let mut refreshes = Vec::new();
    let mut seen = SnapshotStats::default();
    for occasion in 0..OCCASIONS {
        churn(&mut g, occasion);
        op.begin_occasion();
        for n in BATCHES {
            let drawn = op.sample_batch(&g, &db, ORIGIN, n, &mut rng).unwrap();
            assert_eq!(drawn.iter().count(), n);
            let now = op.snapshot_stats();
            refreshes.push(if now.built > seen.built {
                "built"
            } else if now.patched > seen.patched {
                "patched"
            } else {
                "reused"
            });
            seen = now;
        }
    }
    refreshes
}

/// One replayed slot, as the parent's `SlotOutcome` described it.
struct Slot {
    fresh: bool,
    burn_in: u64,
    retries: u64,
    steps: u64,
    hops: u64,
}

/// The parent commit's `flush_slot_telemetry`, less the five M–H tallies
/// the live walk has already bumped step by step.
fn flush_slot_telemetry(slot: &Slot) {
    if slot.fresh {
        registry::SAMPLING_WALKS_FRESH.inc();
    } else {
        registry::SAMPLING_WALKS_CONTINUED.inc();
    }
    registry::SAMPLING_BURN_IN.record(slot.burn_in);
    for _ in 0..slot.retries {
        registry::SAMPLING_BURN_IN.record(CONFIG.reset_length);
    }
    registry::SAMPLING_SAMPLES.inc();
    registry::SAMPLING_MESSAGES.add(slot.hops + 1);
    if digest_telemetry::events_enabled() {
        digest_telemetry::emit(
            "sampling.walk",
            &[
                ("fresh", Field::Bool(slot.fresh)),
                ("steps", Field::U64(slot.steps)),
                ("hops", Field::U64(slot.hops)),
            ],
        );
    }
    digest_telemetry::emit_span_event(Stage::SamplingWalk, 0);
}

/// Replays the same occasions slot by slot over the live graph.
fn per_slot_run(refreshes: &[&'static str]) {
    let (mut g, db) = world();
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    let mut refreshes = refreshes.iter();
    // Where each pooled walk stands.
    let mut pool: Vec<NodeId> = Vec::new();
    for occasion in 0..OCCASIONS {
        churn(&mut g, occasion);
        let mut cursor = 0;
        for n in BATCHES {
            let key = ChaCha8Rng::seed_from_u64(rng.next_u64());
            drop(digest_telemetry::span(Stage::SnapshotBuild));
            digest_telemetry::emit(
                "sampling.snapshot",
                &[
                    ("refresh", Field::Str(refreshes.next().unwrap())),
                    ("nodes", Field::U64(g.node_count() as u64)),
                ],
            );
            let _batch_span = digest_telemetry::span(Stage::SamplingBatch);
            let w = content_size_weight(&db);
            let slots: Vec<Slot> = {
                let _quiet = digest_telemetry::suppress_events();
                (cursor..cursor + n)
                    .map(|slot| {
                        let pooled = pool.get(slot).copied().filter(|&v| g.contains(v));
                        let (start, fresh, burn_in) = match pooled {
                            Some(v) => (v, false, CONFIG.reset_length),
                            None => (ORIGIN, true, CONFIG.walk_length),
                        };
                        let mut stream = key.with_stream(slot as u64);
                        let mut walk = MetropolisWalk::new(&g, start).unwrap();
                        let _walk_span = digest_telemetry::span(Stage::SamplingWalk);
                        walk.run(&g, &w, burn_in, &mut stream).unwrap();
                        let mut retries = 0;
                        while db.sample_local(walk.current(), &mut stream).is_none() {
                            walk.run(&g, &w, CONFIG.reset_length, &mut stream).unwrap();
                            retries += 1;
                        }
                        if slot < pool.len() {
                            pool[slot] = walk.current();
                        } else {
                            pool.push(walk.current());
                        }
                        Slot {
                            fresh,
                            burn_in,
                            retries,
                            steps: walk.steps(),
                            hops: walk.messages(),
                        }
                    })
                    .collect()
            };
            cursor += n;

            let (mut fresh, mut messages) = (0u64, 0u64);
            for slot in &slots {
                flush_slot_telemetry(slot);
                fresh += u64::from(slot.fresh);
                messages += slot.hops + 1;
            }
            registry::SAMPLING_WALK_BATCHES.inc();
            registry::SAMPLING_BATCH_SLOTS.record(n as u64);
            digest_telemetry::emit(
                "sampling.batch",
                &[
                    ("slots", Field::U64(n as u64)),
                    ("fresh", Field::U64(fresh)),
                    ("continued", Field::U64(n as u64 - fresh)),
                    ("messages", Field::U64(messages)),
                ],
            );
        }
    }
}

/// Runs `work` on a freshly reset registry with a sink installed; returns
/// the registry fingerprint and the rendered events it left.
fn observed<T>(work: impl FnOnce() -> T) -> (T, Vec<u64>, Vec<String>) {
    digest_telemetry::reset_run_state();
    digest_telemetry::set_tick(3);
    let sink = MemorySink::new();
    digest_telemetry::install_sink(Box::new(sink.clone()));
    let out = work();
    digest_telemetry::take_sink();
    (out, registry_fingerprint(), sink.lines())
}

#[test]
fn batched_flush_leaves_what_the_per_slot_flush_left() {
    digest_telemetry::set_span_events(true);
    let (refreshes, batched_registry, batched_events) = observed(batched_run);
    let ((), slot_registry, slot_events) = observed(|| per_slot_run(&refreshes));

    assert_eq!(refreshes.len(), OCCASIONS * BATCHES.len());
    assert!(refreshes.contains(&"patched") && refreshes.contains(&"reused"));
    assert_eq!(batched_registry, slot_registry);
    // The world forces content retries and the pool continues walks, or
    // the burn-in histogram would have nothing to get wrong.
    assert!(registry::SAMPLING_BURN_IN.count() > registry::SAMPLING_SAMPLES.get());
    assert!(registry::SAMPLING_WALKS_CONTINUED.get() > 0);
    // One walk span per slot and one batch span per batch.
    let stages = digest_telemetry::stage_reports();
    let count = |stage| stages.iter().find(|r| r.stage == stage).unwrap().count;
    let samples = OCCASIONS * BATCHES.iter().sum::<usize>();
    assert_eq!(count(Stage::SamplingWalk), samples as u64);
    assert_eq!(
        count(Stage::SamplingBatch),
        (OCCASIONS * BATCHES.len()) as u64
    );

    let walks = |lines: &[String]| lines.iter().filter(|l| l.contains("sampling.walk")).count();
    assert_eq!(walks(&batched_events), samples);
    assert!(batched_events.iter().any(|l| l.contains("sampling_walk")));
    assert_eq!(batched_events, slot_events);
}
