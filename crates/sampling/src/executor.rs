//! Deterministic parallel execution of one occasion's walk batch.
//!
//! The paper's batch mode invokes `S` n times *simultaneously* (§VI-A);
//! this module is that simultaneity made real on threads without giving
//! up replayability:
//!
//! * **One key, one stream per slot.** The caller draws exactly one
//!   `u64` occasion seed from its own RNG and the batch expands it once
//!   into a ChaCha8 key; pool slot `s` reads the key's stream `s`
//!   ([`ChaCha8Rng::with_stream`], the counter-based design of Salmon et
//!   al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011). A
//!   slot's words are a function of `(occasion_seed, s)` alone, and the
//!   slots run through [`crate::par::run_indexed`] (fixed ranges,
//!   slot-order drain), so the sampled panel is **byte-identical for any
//!   worker count, including 1**, and the lowest-slot error always wins.
//! * **A cached occasion snapshot.** The operator refreshes a
//!   [`OccasionSnapshot`] through its [`crate::snapshot::SnapshotCache`]
//!   (reuse / patch / rebuild, see that module) and lends it here;
//!   M–H proposals read the snapshot's CSR rows instead of re-querying
//!   [`digest_net::Graph`], and each edge's acceptance threshold from the
//!   snapshot's memo, which the first walk to propose the edge fills.
//!   Its weights are the relation's content sizes, finite and
//!   non-negative by type, which is why the walk below is infallible.
//! * **Few keystream words per step.** The walk draws through the
//!   [`crate::draw`] kernel, shared with the live-graph walk, at ≈ ¼ of
//!   the words of a per-step laziness coin.
//! * **Arena-recycled buffers.** Task, outcome and value vectors
//!   live in the operator's [`WalkArena`] and are reused across
//!   batches — at one worker the steady-state batch path allocates
//!   nothing.
//! * **A `Copy` outcome, rows copied at the drain.** What a slot hands
//!   across the join is its [`SlotOutcome`]: the sampled tuple's handle,
//!   the walk's end position and its tallies, no heap. The slot-order
//!   drain on the dispatching thread then reads each sampled row back
//!   through its handle (the relation is borrowed immutably for the
//!   whole batch, so it is the row the slot's local draw saw) into the
//!   arena's one arity-strided `values` column.
//! * **Deferred telemetry, once per batch.** Workers run with events
//!   suppressed and tally per slot locally; post-join the `sampling.*`
//!   counters and the burn-in histogram are bumped once with the batch's
//!   sums, as are the batch's `n` walk spans
//!   ([`digest_telemetry::spans`]) and its local draws
//!   ([`P2PDatabase::sample_local_untallied`] plus one add), while the
//!   per-slot `sampling.walk` event and walk `span` event (then the
//!   per-batch `sampling.batch` event) are emitted in slot order, keeping
//!   traces deterministic.
//!
//! The batch is atomic: any slot error (or exhausted content-retry
//! budget) fails the whole occasion batch, `arena.outcomes` is left
//! empty, and the operator's pool and accounting are untouched.

use crate::arena::WalkArena;
use crate::draw;
use crate::error::SamplingError;
use crate::metropolis::MetropolisWalk;
use crate::operator::{SampleCost, SamplingConfig};
use crate::par;
use crate::snapshot::OccasionSnapshot;
use crate::Result;
use digest_db::{P2PDatabase, TupleHandle};
use digest_net::NodeId;
use digest_telemetry::{registry as telemetry, Field, Stage};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Retry budget for landing on a content-bearing node: each retry walks
/// one more reset length.
const TUPLE_RETRY_LIMIT: usize = 64;

/// Local (lock-free) telemetry tallies of one walk slot, flushed into
/// the global counters post-join.
#[derive(Debug, Default, Clone, Copy)]
struct SlotTally {
    steps: u64,
    hops: u64,
    lazy: u64,
    proposals: u64,
    accepts: u64,
}

/// One cached walk position: the CSR row `(start, span)` of the current
/// node. Refreshed only when the walk actually moves.
#[derive(Clone, Copy)]
struct CachedRow {
    start: usize,
    /// Degree, the `span` of [`draw::uniform_below`].
    span: u32,
}

/// A Metropolis walk advancing over an [`OccasionSnapshot`]. It draws
/// through the [`draw`] kernel in exactly [`MetropolisWalk::run`]'s
/// order — one laziness word per chunk of ≤ 64 steps decides how many
/// steps are active, then each active step draws its proposal over the
/// cached row and its acceptance against the snapshot's memoised per-edge
/// threshold — so the snapshot walk and the live-graph walk are
/// interchangeable given the same stream (pinned by a unit test below).
struct SnapshotWalk {
    current: NodeId,
    row: CachedRow,
    tally: SlotTally,
}

impl SnapshotWalk {
    /// xtask: no-alloc
    fn cached_row(snap: &OccasionSnapshot, v: NodeId) -> CachedRow {
        let (start, degree) = snap.row(v);
        CachedRow {
            start,
            span: u32::try_from(degree).unwrap_or(u32::MAX),
        }
    }

    /// xtask: no-alloc
    fn new(start: NodeId, snap: &OccasionSnapshot) -> Self {
        Self {
            current: start,
            row: Self::cached_row(snap, start),
            tally: SlotTally::default(),
        }
    }

    /// Runs `steps` M–H steps on the snapshot. Infallible: the snapshot
    /// never changes under the walk and its weights are counts.
    /// xtask: no-alloc
    fn run<R: RngCore + ?Sized>(&mut self, snap: &OccasionSnapshot, steps: u64, rng: &mut R) {
        let active = draw::active_steps(rng, steps);
        self.tally.steps += steps;
        self.tally.lazy += steps - active;
        for _ in 0..active {
            let CachedRow { start, span } = self.row;
            if span == 0 {
                break;
            }
            let pick = start + draw::uniform_below(rng, span) as usize;
            self.tally.proposals += 1;
            if draw::accept(rng, snap.accept_threshold_at(pick, self.current)) {
                self.current = snap.neighbor_at(pick);
                self.row = Self::cached_row(snap, self.current);
                self.tally.accepts += 1;
                self.tally.hops += 1;
            }
        }
    }
}

/// Work order for one walk slot, fully determined on the dispatching
/// thread before any worker runs.
#[derive(Debug, Clone)]
pub(crate) struct SlotTask {
    start: NodeId,
    fresh: bool,
    burn_in: u64,
}

/// Everything one slot hands across the join: the sampled tuple's
/// handle, the walk's final position for pool writeback, and the
/// deferred telemetry tallies. `Copy` — the row itself is read at the
/// drain, not carried here.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlotOutcome {
    /// Whether the slot launched a fresh walk (vs continuing a pooled
    /// one).
    pub(crate) fresh: bool,
    /// Where the walk ended (the pool writeback position).
    pub(crate) end: NodeId,
    /// Extra reset-length segments walked to find a content-bearing
    /// node.
    retries: u64,
    /// Total M–H steps taken across all segments.
    pub(crate) steps: u64,
    /// Accepted moves (= forwarding messages).
    pub(crate) hops: u64,
    lazy: u64,
    proposals: u64,
    accepts: u64,
    /// Handle of the sampled tuple.
    pub(crate) handle: TupleHandle,
}

impl SlotOutcome {
    /// §VI-A message cost of this sample: one message per accepted hop,
    /// one more to report the tuple back.
    pub(crate) fn cost(&self) -> SampleCost {
        SampleCost {
            walk_messages: self.hops,
            report_messages: 1,
        }
    }
}

/// One occasion batch: which pool state to continue from and how many
/// samples to draw.
pub(crate) struct BatchRequest<'a> {
    /// Operator configuration (lengths, continuation, worker count).
    pub(crate) config: &'a SamplingConfig,
    /// The operator's persistent walk pool.
    pub(crate) pool: &'a [MetropolisWalk],
    /// First pool slot this batch occupies.
    pub(crate) cursor: usize,
    /// Fallback start node for fresh walks.
    pub(crate) origin: NodeId,
    /// Samples to draw.
    pub(crate) n: usize,
    /// The single `u64` the caller's RNG contributed for this occasion.
    pub(crate) occasion_seed: u64,
}

/// The batch's work orders, in slot order: a slot continues its pooled
/// walk when continuation is on and the walk's node is still live,
/// otherwise it starts fresh from the origin.
fn slot_tasks<'a>(
    request: &'a BatchRequest<'_>,
    snapshot: &'a OccasionSnapshot,
) -> impl Iterator<Item = SlotTask> + 'a {
    let config = request.config;
    (0..request.n).map(move |i| {
        let slot = request.cursor + i;
        let pooled = config
            .continue_walks
            .then(|| request.pool.get(slot))
            .flatten()
            .filter(|walk| snapshot.contains(walk.current()));
        let (start, fresh) = match pooled {
            Some(walk) => (walk.current(), false),
            None => (request.origin, true),
        };
        SlotTask {
            start,
            fresh,
            burn_in: if fresh {
                config.walk_length
            } else {
                config.reset_length
            },
        }
    })
}

fn run_slot(
    task: &SlotTask,
    snap: &OccasionSnapshot,
    db: &P2PDatabase,
    reset_length: u64,
    rng: &mut ChaCha8Rng,
) -> Result<SlotOutcome> {
    let mut walk = SnapshotWalk::new(task.start, snap);
    walk.run(snap, task.burn_in, rng);
    // Before convergence a walk can sit on an empty node; walk reset
    // lengths until it lands on a content-bearing one (bounded).
    for retry in 0..TUPLE_RETRY_LIMIT {
        if let Some((handle, _row)) = db.sample_local_untallied(walk.current, rng) {
            return Ok(SlotOutcome {
                fresh: task.fresh,
                end: walk.current,
                retries: retry as u64,
                steps: walk.tally.steps,
                hops: walk.tally.hops,
                lazy: walk.tally.lazy,
                proposals: walk.tally.proposals,
                accepts: walk.tally.accepts,
                handle,
            });
        }
        walk.run(snap, reset_length, rng);
    }
    Err(SamplingError::ZeroTotalWeight)
}

/// Hands one slot's result to the batch, in slot order: copies the
/// sampled row into the `values` column and keeps the outcome, or
/// records the batch's failure (the lowest slot's wins).
/// xtask: no-alloc
fn drain_slot(
    db: &P2PDatabase,
    slot: Result<SlotOutcome>,
    outcomes: &mut Vec<SlotOutcome>,
    values: &mut Vec<f64>,
    failure: &mut Option<SamplingError>,
) {
    match slot {
        Ok(outcome) if failure.is_none() => match db.read(outcome.handle) {
            Ok(row) => {
                values.extend_from_slice(row.values());
                outcomes.push(outcome);
            }
            // Unreachable while the batch borrows the relation (the
            // handle was drawn from it moments ago); surfaced per the
            // panic policy.
            Err(_) => {
                *failure = Some(SamplingError::InvalidConfig {
                    reason: "a tuple sampled in this batch no longer resolves",
                });
            }
        },
        Ok(_) => {}
        Err(err) => {
            failure.get_or_insert(err);
        }
    }
}

/// Flushes a successful batch's deferred tallies into the global
/// registry — each counter once, with the batch's sum — then emits the
/// per-slot `sampling.walk` events in slot order and the batch's
/// `sampling.batch` event.
/// xtask: no-alloc
fn flush_batch_telemetry(config: &SamplingConfig, outcomes: &[SlotOutcome]) {
    let slots = outcomes.len() as u64;
    let mut fresh = 0u64;
    let mut sum = SlotTally::default();
    let (mut retries, mut messages) = (0u64, 0u64);
    for outcome in outcomes {
        fresh += u64::from(outcome.fresh);
        retries += outcome.retries;
        sum.steps += outcome.steps;
        sum.hops += outcome.hops;
        sum.lazy += outcome.lazy;
        sum.proposals += outcome.proposals;
        sum.accepts += outcome.accepts;
        messages = messages.saturating_add(outcome.cost().total());
    }
    let continued = slots - fresh;
    telemetry::SAMPLING_WALKS_FRESH.add(fresh);
    telemetry::SAMPLING_WALKS_CONTINUED.add(continued);
    // A slot's first segment is the mixing length when fresh and the
    // reset length when continued; every content retry is one more
    // reset length.
    telemetry::SAMPLING_BURN_IN.record_n(config.walk_length, fresh);
    telemetry::SAMPLING_BURN_IN.record_n(config.reset_length, continued + retries);
    telemetry::SAMPLING_WALK_STEPS.add(sum.steps);
    telemetry::SAMPLING_MH_LAZY.add(sum.lazy);
    telemetry::SAMPLING_MH_PROPOSALS.add(sum.proposals);
    telemetry::SAMPLING_MH_ACCEPTS.add(sum.accepts);
    telemetry::SAMPLING_WALK_HOPS.add(sum.hops);
    telemetry::SAMPLING_SAMPLES.add(slots);
    telemetry::SAMPLING_MESSAGES.add(messages);
    telemetry::SAMPLING_WALK_BATCHES.inc();
    telemetry::SAMPLING_BATCH_SLOTS.record(slots);
    if !digest_telemetry::events_enabled() {
        return;
    }
    for outcome in outcomes {
        digest_telemetry::emit(
            "sampling.walk",
            &[
                ("fresh", Field::Bool(outcome.fresh)),
                ("steps", Field::U64(outcome.steps)),
                ("hops", Field::U64(outcome.hops)),
            ],
        );
        // Emit the slot's walk span, recorded once for the whole batch
        // by `run_tuple_batch`. The deterministic clock cannot advance
        // mid-batch (the tick is driver-stamped), so its duration is
        // always 0 ticks — what matters is that the span stream is
        // identical for every worker count and stays monotone in tick
        // order.
        digest_telemetry::emit_span_event(Stage::SamplingWalk, 0);
    }
    digest_telemetry::emit(
        "sampling.batch",
        &[
            ("slots", Field::U64(slots)),
            ("fresh", Field::U64(fresh)),
            ("continued", Field::U64(continued)),
            ("messages", Field::U64(messages)),
        ],
    );
}

/// Runs one occasion's walk batch over the (cache-refreshed) snapshot,
/// leaving the slot outcomes in `arena.outcomes` and the sampled rows in
/// `arena.values` (`db`'s arity per outcome), both in slot order. See
/// the module docs for the determinism model.
///
/// # Errors
///
/// * [`SamplingError::UnknownNode`] if `origin` is not live in the
///   snapshot.
/// * [`SamplingError::ZeroTotalWeight`] if a slot exhausts its
///   content-retry budget.
/// * The lowest-slot error wins when several slots fail; on any error
///   `arena.outcomes` and `arena.values` are empty.
pub(crate) fn run_tuple_batch(
    db: &P2PDatabase,
    request: &BatchRequest<'_>,
    snapshot: &OccasionSnapshot,
    arena: &mut WalkArena,
) -> Result<()> {
    let _batch_span = digest_telemetry::span(Stage::SamplingBatch);
    arena.outcomes.clear();
    arena.values.clear();
    if !snapshot.contains(request.origin) {
        return Err(SamplingError::UnknownNode(request.origin));
    }

    let config = request.config;
    arena.tasks.clear();
    arena.tasks.extend(slot_tasks(request, snapshot));
    let key = ChaCha8Rng::seed_from_u64(request.occasion_seed);

    let tasks = &arena.tasks;
    let outcomes = &mut arena.outcomes;
    let values = &mut arena.values;
    // Lowest-slot problem wins.
    let mut failure: Option<SamplingError> = None;
    // Slots whose local draw landed: each drew one tuple, an `Err` slot
    // none, failed batch or not.
    let mut local_samples = 0u64;
    {
        // Workers could interleave events nondeterministically; run them
        // suppressed and emit deterministic rollups post-join. The guard
        // also covers the caller's own range so the emitted stream is
        // identical for every worker count.
        let _quiet = digest_telemetry::suppress_events();
        // Every slot runs, failed batch or not, and is one walk span. The
        // tick cannot move inside the batch, so in deterministic mode the
        // `n` spans total 0 ticks, as per-slot guards would; their events
        // are emitted by `flush_batch_telemetry`.
        digest_telemetry::spans(Stage::SamplingWalk, request.n as u64, || {
            par::run_indexed(
                config.workers,
                request.n,
                |i| {
                    let mut rng = key.with_stream((request.cursor + i) as u64);
                    run_slot(&tasks[i], snapshot, db, config.reset_length, &mut rng)
                },
                |slot| {
                    local_samples += u64::from(slot.is_ok());
                    drain_slot(db, slot, outcomes, values, &mut failure);
                },
            );
        });
    }
    telemetry::DB_LOCAL_SAMPLES.add(local_samples);
    if let Some(err) = failure {
        arena.outcomes.clear();
        arena.values.clear();
        return Err(err);
    }
    flush_batch_telemetry(config, &arena.outcomes);
    Ok(())
}

/// The batch path this module replaced, kept as the oracle the operator's
/// `sample_batch` is held to: every slot clones its sampled row into an
/// owned `Tuple` on the worker and carries it across the join. (Its
/// per-slot telemetry flush is replayed from outside the crate, by
/// `tests/batch_telemetry.rs`, which needs the global registry to
/// itself.)
#[cfg(test)]
#[allow(clippy::unwrap_used)]
pub(crate) mod reference {
    use super::*;
    use digest_db::Tuple;

    /// The parent's `SlotOutcome`: a heap-allocated tuple per sample.
    #[derive(Debug, Clone)]
    pub(crate) struct BoxedOutcome {
        pub(crate) fresh: bool,
        pub(crate) end: NodeId,
        pub(crate) retries: u64,
        pub(crate) steps: u64,
        pub(crate) hops: u64,
        pub(crate) handle: TupleHandle,
        pub(crate) tuple: Tuple,
        pub(crate) cost: SampleCost,
    }

    fn run_slot(
        task: &SlotTask,
        snap: &OccasionSnapshot,
        db: &P2PDatabase,
        reset_length: u64,
        mut rng: ChaCha8Rng,
    ) -> Result<BoxedOutcome> {
        let mut walk = SnapshotWalk::new(task.start, snap);
        walk.run(snap, task.burn_in, &mut rng);
        for retry in 0..TUPLE_RETRY_LIMIT {
            if let Some((handle, row)) = db.sample_local(walk.current, &mut rng) {
                return Ok(BoxedOutcome {
                    fresh: task.fresh,
                    end: walk.current,
                    retries: retry as u64,
                    steps: walk.tally.steps,
                    hops: walk.tally.hops,
                    handle,
                    tuple: row.to_tuple(),
                    cost: SampleCost {
                        walk_messages: walk.tally.hops,
                        report_messages: 1,
                    },
                });
            }
            walk.run(snap, reset_length, &mut rng);
        }
        Err(SamplingError::ZeroTotalWeight)
    }

    /// The parent's `run_tuple_batch` less its telemetry, buffers local
    /// (slot planning is shared with the batch path).
    pub(crate) fn run_tuple_batch(
        db: &P2PDatabase,
        request: &BatchRequest<'_>,
        snapshot: &OccasionSnapshot,
    ) -> Result<Vec<BoxedOutcome>> {
        if !snapshot.contains(request.origin) {
            return Err(SamplingError::UnknownNode(request.origin));
        }
        let config = request.config;
        let tasks: Vec<SlotTask> = slot_tasks(request, snapshot).collect();
        let key = ChaCha8Rng::seed_from_u64(request.occasion_seed);

        let mut outcomes = Vec::new();
        let mut failure: Option<SamplingError> = None;
        par::run_indexed(
            config.workers,
            request.n,
            |i| {
                let stream = key.with_stream((request.cursor + i) as u64);
                run_slot(&tasks[i], snapshot, db, config.reset_length, stream)
            },
            |outcome| match outcome {
                Ok(outcome) if failure.is_none() => outcomes.push(outcome),
                Ok(_) => {}
                Err(err) => {
                    failure.get_or_insert(err);
                }
            },
        );
        match failure {
            Some(err) => Err(err),
            None => Ok(outcomes),
        }
    }
}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    clippy::cast_possible_truncation
)]
mod tests {
    use super::*;
    use crate::snapshot::{thresholds_derived, SnapshotCache, SnapshotRefresh};
    use crate::weight::uniform_weight;
    use digest_net::topology;
    use rand::RngCore;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    /// The snapshot walk must consume its RNG stream exactly like the
    /// live-graph walk: same stream in, same trajectory out. This also
    /// pins that the memoised acceptance thresholds decide identically to
    /// the live ratio computation.
    #[test]
    fn snapshot_walk_is_byte_equivalent_to_metropolis_walk() {
        let g = topology::barabasi_albert(60, 3, &mut rng(11)).unwrap();
        let w = |v: NodeId| f64::from(v.0 % 5) + 1.0;
        let snap = OccasionSnapshot::build(&g, &w).unwrap();
        for seed in 0..20 {
            let start = NodeId(seed % 60);
            let mut live = MetropolisWalk::new(&g, start).unwrap();
            let mut live_rng = rng(u64::from(seed));
            live.run(&g, &w, 300, &mut live_rng).unwrap();

            let mut snapped = SnapshotWalk::new(start, &snap);
            let mut snap_rng = rng(u64::from(seed));
            snapped.run(&snap, 300, &mut snap_rng);

            assert_eq!(snapped.current, live.current(), "seed {seed}");
            assert_eq!(snapped.tally.steps, live.steps(), "seed {seed}");
            assert_eq!(snapped.tally.hops, live.messages(), "seed {seed}");
            // Both walks must have drained the same amount of stream.
            assert_eq!(live_rng.next_u64(), snap_rng.next_u64());
        }
    }

    #[test]
    fn isolated_node_walk_stays_put_on_snapshot() {
        let mut g = digest_net::Graph::new();
        let a = g.add_node();
        let w = uniform_weight();
        let snap = OccasionSnapshot::build(&g, &w).unwrap();
        let mut walk = SnapshotWalk::new(a, &snap);
        walk.run(&snap, 50, &mut rng(3));
        assert_eq!(walk.current, a);
        assert_eq!(walk.tally.hops, 0);
        assert_eq!(walk.tally.steps, 50);
    }

    /// A world where node `v` holds `m(v)` tuples.
    fn dealt(g: &digest_net::Graph, m: impl Fn(NodeId) -> u32) -> P2PDatabase {
        let mut db = P2PDatabase::new(digest_db::Schema::single("a"));
        for v in g.nodes() {
            db.register_node(v);
            for k in 0..m(v) {
                let value = f64::from(v.0) + f64::from(k) / 8.0;
                db.insert(v, digest_db::Tuple::single(value)).unwrap();
            }
        }
        db
    }

    /// Runs one 64-slot batch and returns its outcomes and values as
    /// text, plus the slots' summed proposals.
    fn run_batch(
        db: &P2PDatabase,
        snap: &OccasionSnapshot,
        workers: usize,
        seed: u64,
    ) -> (String, u64) {
        run_batch_of(db, snap, workers, seed, 64)
    }

    fn run_batch_of(
        db: &P2PDatabase,
        snap: &OccasionSnapshot,
        workers: usize,
        seed: u64,
        n: usize,
    ) -> (String, u64) {
        let config = SamplingConfig {
            walk_length: 40,
            reset_length: 6,
            continue_walks: false,
            workers,
            cache_snapshots: true,
        };
        let request = BatchRequest {
            config: &config,
            pool: &[],
            cursor: 0,
            origin: NodeId(0),
            n,
            occasion_seed: seed,
        };
        let mut arena = WalkArena::new();
        run_tuple_batch(db, &request, snap, &mut arena).unwrap();
        let proposals = arena.outcomes.iter().map(|o| o.proposals).sum();
        (
            format!("{:?} {:?}", arena.outcomes, arena.values),
            proposals,
        )
    }

    /// Walks that fill the memo as they go decide exactly as walks that
    /// find it full: 64 slots on a 12-node overlay propose the same edges
    /// many times over, on a fresh stamp at one worker and at four, and
    /// the outcomes are those of a memo forced full beforehand.
    #[test]
    fn lazy_memo_batches_are_byte_identical_across_workers() {
        let g = topology::barabasi_albert(12, 2, &mut rng(31)).unwrap();
        let db = dealt(&g, |v| v.0 % 4 + 1);
        let sizes = db.content_sizes();
        for seed in 0..4 {
            let fresh = |workers| {
                run_batch(
                    &db,
                    &OccasionSnapshot::build_sized(&g, sizes),
                    workers,
                    seed,
                )
            };
            let (one, proposals) = fresh(1);
            assert!(proposals > 10 * 2 * g.edge_count() as u64);
            assert_eq!(fresh(4).0, one, "seed {seed}");
            let warm = OccasionSnapshot::build_sized(&g, sizes);
            warm.forced_accept();
            assert_eq!(run_batch(&db, &warm, 4, seed).0, one, "seed {seed}");
        }
    }

    /// A batch derives a threshold only for an edge one of its walks
    /// proposes, so never more thresholds than proposals; the same batch
    /// after a reuse of the snapshot proposes only those edges again and
    /// derives none.
    #[test]
    fn a_batch_derives_at_most_its_proposals_and_a_reused_one_none() {
        let g = topology::barabasi_albert(400, 3, &mut rng(32)).unwrap();
        let db = dealt(&g, |v| v.0 % 7 + 1);
        let mut cache = SnapshotCache::new();
        let derived = thresholds_derived();
        let (snap, _) = cache.refresh(&g, db.content_sizes(), true);
        let (first, proposals) = run_batch(&db, snap, 1, 5);
        let derived = thresholds_derived() - derived;
        assert!(
            derived > 0 && derived as u64 <= proposals,
            "{derived} > {proposals}"
        );

        let (snap, kind) = cache.refresh(&g, db.content_sizes(), true);
        assert_eq!(kind, SnapshotRefresh::Reused);
        let before = thresholds_derived();
        assert_eq!(run_batch(&db, snap, 1, 5).0, first);
        assert_eq!(thresholds_derived(), before);
    }

    /// A batch of 61 slots, a prime, splits into ragged ranges at three
    /// and four workers. Every split gives the one-worker bytes.
    #[test]
    fn a_ragged_batch_is_byte_identical_across_workers() {
        let g = topology::barabasi_albert(50, 2, &mut rng(33)).unwrap();
        let db = dealt(&g, |v| v.0 % 3);
        let snap = OccasionSnapshot::build_sized(&g, db.content_sizes());
        for seed in [0, 20_080_402] {
            let (one, _) = run_batch_of(&db, &snap, 1, seed, 61);
            for workers in [3, 4] {
                assert_eq!(run_batch_of(&db, &snap, workers, seed, 61).0, one);
            }
        }
    }

    /// Slot `i` of a batch at `cursor` reads stream `cursor + i` of the
    /// key its occasion seed expands to, and nothing else: fresh 95-step
    /// walks on the 10 × 53 mesh, every node holding a tuple, end where
    /// a walk on that stream ends and sample the tuple its next draw
    /// picks.
    #[test]
    fn a_slot_reads_its_own_stream_of_the_batch_key() {
        let g = topology::mesh(10, 53, false).unwrap();
        let db = dealt(&g, |v| v.0 % 3 + 1);
        let snap = OccasionSnapshot::build_sized(&g, db.content_sizes());
        let config = SamplingConfig {
            walk_length: 95,
            reset_length: 6,
            continue_walks: false,
            workers: 1,
            cache_snapshots: true,
        };
        let (cursor, seed) = (13, 20_080_402);
        let request = BatchRequest {
            config: &config,
            pool: &[],
            cursor,
            origin: NodeId(7),
            n: 9,
            occasion_seed: seed,
        };
        let mut arena = WalkArena::new();
        run_tuple_batch(&db, &request, &snap, &mut arena).unwrap();
        let key = rng(seed);
        for (i, outcome) in arena.outcomes.iter().enumerate() {
            let mut stream = key.with_stream((cursor + i) as u64);
            let mut walk = SnapshotWalk::new(NodeId(7), &snap);
            walk.run(&snap, 95, &mut stream);
            let (handle, _) = db
                .sample_local_untallied(walk.current, &mut stream)
                .unwrap();
            assert_eq!(outcome.end, walk.current, "slot {i}");
            assert_eq!(outcome.handle, handle, "slot {i}");
            assert_eq!(outcome.hops, walk.tally.hops, "slot {i}");
            assert_eq!(outcome.retries, 0, "slot {i}");
        }
    }

    /// The arena's task and outcome lists must be recycled: a second
    /// batch of the same size performs no buffer growth.
    #[test]
    fn arena_buffers_are_recycled_across_batches() {
        let g = topology::barabasi_albert(30, 2, &mut rng(4)).unwrap();
        let db = dealt(&g, |_| 1);
        let snap = OccasionSnapshot::build_sized(&g, db.content_sizes());
        let config = SamplingConfig {
            walk_length: 10,
            reset_length: 4,
            continue_walks: false,
            workers: 1,
            cache_snapshots: true,
        };
        let mut arena = WalkArena::new();
        let request = BatchRequest {
            config: &config,
            pool: &[],
            cursor: 0,
            origin: NodeId(0),
            n: 8,
            occasion_seed: 99,
        };
        run_tuple_batch(&db, &request, &snap, &mut arena).unwrap();
        assert_eq!(arena.outcomes.len(), 8);
        let tasks_cap = arena.tasks.capacity();
        let outcomes_cap = arena.outcomes.capacity();
        run_tuple_batch(&db, &request, &snap, &mut arena).unwrap();
        assert_eq!(arena.outcomes.len(), 8);
        assert_eq!(arena.tasks.capacity(), tasks_cap);
        assert_eq!(arena.outcomes.capacity(), outcomes_cap);
    }
}
