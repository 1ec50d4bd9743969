//! The sampling operator `S` (paper §III, §V).
//!
//! `S` turns the Metropolis walk into the service the query engine
//! consumes: *give me a random node under weight function `w`* /
//! *give me a uniformly random tuple of `R`*. The second form is two-stage
//! sampling: a node is drawn with probability ∝ its content size `m_v`,
//! then one of its tuples uniformly at random, making every tuple of the
//! relation equally likely regardless of how tuples are spread over nodes.
//!
//! Cost model (matches the paper's experiments):
//!
//! * a fresh walk must run for the full mixing length before its position
//!   is a valid sample;
//! * a *continued* walk — "once converged for the first time, to derive
//!   successive samples we continue the random walk from where it stops"
//!   (§VI-A) — only needs the much shorter reset length;
//! * each accepted hop is one message, and delivering the sampled node id
//!   back to the originator is one more.
//!
//! Batch mode has one path: [`SamplingOperator::sample_batch`] runs an
//! occasion's `n` walks through the deterministic executor and lends the
//! panel as a [`SampledBatch`] — handles, costs and the sampled rows as
//! one `f64` column in the operator's recycled buffers — which the
//! estimators fold in place. [`SamplingOperator::sample_tuples`] is that
//! call with the rows copied into owned tuples.

use crate::arena::WalkArena;
use crate::error::SamplingError;
use crate::executor;
use crate::metropolis::MetropolisWalk;
use crate::snapshot::{SnapshotCache, SnapshotRefresh};
use crate::weight::{uniform_weight, NodeWeight};
use crate::Result;
use digest_db::{P2PDatabase, RowView, Tuple, TupleHandle};
use digest_net::{Graph, NodeId};
use digest_telemetry::{registry as telemetry, Field, Stage};
use rand::Rng;

/// Environment override for [`SamplingConfig::workers`]'s default, so a
/// whole test/CI run can be forced onto the parallel path without
/// touching every construction site.
pub const WORKERS_ENV_VAR: &str = "DIGEST_SAMPLING_WORKERS";

/// The default occasion worker count for batch mode (the paper's §V
/// "invoke `S` n times simultaneously"): `DIGEST_SAMPLING_WORKERS` when
/// set to a positive integer, otherwise 1 (inline execution). The
/// sampled panel is byte-identical for every worker count, so this only
/// moves wall-clock time.
#[must_use]
pub fn default_workers() -> usize {
    std::env::var(WORKERS_ENV_VAR)
        .ok()
        .and_then(|raw| raw.trim().parse::<usize>().ok())
        .filter(|&w| w >= 1)
        .unwrap_or(1)
}

/// Environment escape hatch for [`SamplingConfig::cache_snapshots`]'s
/// default: set `DIGEST_SNAPSHOT_CACHE=0` to force a cold snapshot
/// rebuild every occasion (the PR 3 behavior). Panels are byte-identical
/// either way — the cache only skips rebuild work, never RNG draws — so
/// this exists for A/B benchmarking and the determinism audit.
pub const SNAPSHOT_CACHE_ENV_VAR: &str = "DIGEST_SNAPSHOT_CACHE";

/// Default for [`SamplingConfig::cache_snapshots`]: on, unless
/// [`SNAPSHOT_CACHE_ENV_VAR`] is set to `0`. Caching the §VI-A occasion
/// snapshot is a pure cost optimisation — sample distributions and RNG
/// streams are unaffected.
#[must_use]
pub fn default_cache_snapshots() -> bool {
    std::env::var(SNAPSHOT_CACHE_ENV_VAR)
        .map(|raw| raw.trim() != "0")
        .unwrap_or(true)
}

/// Tuning of the sampling operator `S` (paper §III, §V).
#[derive(Debug, Clone, Copy)]
pub struct SamplingConfig {
    /// Steps a fresh walk runs before its position counts as a sample
    /// (the mixing time `τ(γ)` for the deployment's topology).
    pub walk_length: u64,
    /// Steps a continued walk runs between successive samples (the reset
    /// time; `≪ walk_length`).
    pub reset_length: u64,
    /// Whether to keep walks alive between samples (reset-time
    /// continuation). Disabled, every sample pays the full mixing length —
    /// the ablation knob for that design choice.
    pub continue_walks: bool,
    /// Worker threads for each occasion's walk batch (`0` and `1` both
    /// mean inline execution). Sampled panels are **byte-identical for
    /// every value** — each walk slot owns a counter-derived RNG stream —
    /// so this knob trades wall-clock time only, never results.
    pub workers: usize,
    /// Reuse / incrementally patch the per-occasion overlay snapshot
    /// across occasions (keyed by graph mutation epoch, the relation's
    /// size column compared exactly; see `crate::snapshot`) instead of
    /// rebuilding it per batch. Byte-identical panels either way; off
    /// reproduces the cold PR 3 path for A/B runs.
    pub cache_snapshots: bool,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        Self {
            walk_length: 64,
            reset_length: 16,
            continue_walks: true,
            workers: default_workers(),
            cache_snapshots: default_cache_snapshots(),
        }
    }
}

impl SamplingConfig {
    /// A reasonable configuration for a network of `n` nodes: walk length
    /// `⌈15 · ln n⌉` (poly-logarithmic, per Theorem 4) and reset length a
    /// quarter of that. Only the *first* sample of each pooled walk pays
    /// the full length; persistent walks accumulate unbounded burn-in.
    #[must_use]
    pub fn recommended(n: usize) -> Self {
        // `15 ln n` fits easily in u64 for every representable `n`.
        #[allow(clippy::cast_possible_truncation)]
        let walk = ((n.max(2) as f64).ln() * 15.0).ceil() as u64;
        Self {
            walk_length: walk.max(8),
            reset_length: (walk / 4).max(2),
            continue_walks: true,
            workers: default_workers(),
            cache_snapshots: default_cache_snapshots(),
        }
    }

    /// Theorem-3 calibrated configuration: measures the overlay's spectral
    /// gap (matrix-free power iteration, O(edges) per step) and sizes the
    /// walk so a fresh walk is within total-variation `gamma` of the
    /// target from any start. Costlier to construct and yields longer —
    /// guarantee-grade — walks than [`SamplingConfig::recommended`]; a
    /// deployment would run it once per epoch on its bootstrap view.
    ///
    /// # Errors
    ///
    /// As for [`crate::mixing::calibrated_walk_length`].
    pub fn calibrated<W: NodeWeight>(g: &Graph, w: &W, gamma: f64) -> Result<Self> {
        let walk = crate::mixing::calibrated_walk_length(g, w, gamma)?;
        Ok(Self {
            walk_length: walk.max(8),
            reset_length: (walk / 8).max(2),
            continue_walks: true,
            workers: default_workers(),
            cache_snapshots: default_cache_snapshots(),
        })
    }
}

/// The message cost of drawing one sample under the §VI-A cost model
/// (walk forwarding + result report).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SampleCost {
    /// Messages spent forwarding the sampling agent.
    pub walk_messages: u64,
    /// Messages spent reporting the sample back to the originator.
    pub report_messages: u64,
}

impl SampleCost {
    /// Total messages. Saturating: a pathological accumulation (e.g. a
    /// caller summing costs into one `SampleCost`) pins at `u64::MAX`
    /// instead of overflowing.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.walk_messages.saturating_add(self.report_messages)
    }
}

/// One occasion batch (§V batch mode: `S` invoked n times at once), lent
/// from the operator's recycled buffers until its next batch: per sample
/// the tuple's handle, a view of the row as sampled, and its §VI-A
/// message cost, in slot order. The rows sit in one arity-strided `f64`
/// column, so consuming a batch allocates nothing.
#[derive(Debug, Clone, Copy)]
pub struct SampledBatch<'a> {
    outcomes: &'a [executor::SlotOutcome],
    values: &'a [f64],
    arity: usize,
}

impl<'a> SampledBatch<'a> {
    /// How many samples the batch holds.
    #[must_use]
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether the batch holds no sample.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// The samples in slot order (§V): handle, row, §VI-A cost.
    pub fn iter(&self) -> impl Iterator<Item = (TupleHandle, RowView<'a>, SampleCost)> + '_ {
        let (values, arity) = (self.values, self.arity);
        self.outcomes.iter().enumerate().map(move |(i, outcome)| {
            let row = RowView::new(&values[i * arity..(i + 1) * arity]);
            (outcome.handle, row, outcome.cost())
        })
    }
}

/// The sampling operator: a pool of persistent walks plus cost accounting.
///
/// Batch mode (paper §VI-A): the `i`-th sample of an occasion is produced
/// by the `i`-th pooled walk. A walk pays the full mixing length the first
/// time it is used and only the reset length on later occasions, and
/// successive samples *within* one occasion come from distinct walks, so
/// they are mutually independent. Call [`SamplingOperator::begin_occasion`]
/// at each occasion boundary to rewind the pool cursor.
#[derive(Debug, Clone)]
pub struct SamplingOperator {
    config: SamplingConfig,
    walkers: Vec<MetropolisWalk>,
    cursor: usize,
    total_messages: u64,
    samples_drawn: u64,
    /// Epoch-keyed occasion-snapshot cache (see `crate::snapshot`). The
    /// cache is bound to the graph instance the operator samples from;
    /// [`SamplingOperator::reset`] drops it, which is what makes
    /// re-pointing a reset operator at a different graph safe.
    cache: SnapshotCache,
    /// Recycled batch buffers (see `crate::arena`).
    arena: WalkArena,
    stats: SnapshotStats,
}

/// Per-operator tally of how its occasion snapshots were produced
/// (paper §VI-A batch occasions; one entry per `sample_batch` call).
/// Mirrors the global `sampling.snapshot.{built,reused,patched}`
/// telemetry counters but is race-free per operator, which is what the
/// benchmarks and tests read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Full cold builds of the CSR and the size column.
    pub built: u64,
    /// Zero-write reuses of the cached snapshot.
    pub reused: u64,
    /// Incremental patches (dirty CSR rows only).
    pub patched: u64,
}

impl SamplingOperator {
    /// Creates an operator.
    ///
    /// # Errors
    ///
    /// [`SamplingError::InvalidConfig`] if either length is zero.
    pub fn new(config: SamplingConfig) -> Result<Self> {
        if config.walk_length == 0 || config.reset_length == 0 {
            return Err(SamplingError::InvalidConfig {
                reason: "walk_length and reset_length must be positive",
            });
        }
        Ok(Self {
            config,
            walkers: Vec::new(),
            cursor: 0,
            total_messages: 0,
            samples_drawn: 0,
            cache: SnapshotCache::new(),
            arena: WalkArena::new(),
            stats: SnapshotStats::default(),
        })
    }

    /// The operator's configuration.
    #[must_use]
    pub fn config(&self) -> &SamplingConfig {
        &self.config
    }

    /// Sets the occasion worker count (see [`SamplingConfig::workers`]).
    /// Safe to change at any time: results never depend on it.
    pub fn set_workers(&mut self, workers: usize) {
        self.config.workers = workers;
    }

    /// Total messages spent across all samples so far.
    #[must_use]
    pub fn total_messages(&self) -> u64 {
        self.total_messages
    }

    /// Number of samples drawn so far.
    #[must_use]
    pub fn samples_drawn(&self) -> u64 {
        self.samples_drawn
    }

    /// How this operator's occasion snapshots were produced so far.
    #[must_use]
    pub fn snapshot_stats(&self) -> SnapshotStats {
        self.stats
    }

    /// Discards all persistent walks **and** the cached occasion
    /// snapshot / arena buffers (e.g. after a topology upheaval, or
    /// before pointing the operator at a different graph). Dropping the
    /// cache here is load-bearing: graph mutation epochs are
    /// per-instance, so a *different* graph can coincidentally report
    /// the same epoch as the one the cache was built against — a reset
    /// operator must never serve that stale snapshot.
    pub fn reset(&mut self) {
        self.walkers.clear();
        self.cursor = 0;
        self.cache.invalidate();
        self.arena.release();
    }

    /// Marks an occasion boundary: the next samples reuse the pooled
    /// walks from the start, paying only the reset length each.
    pub fn begin_occasion(&mut self) {
        self.cursor = 0;
    }

    /// Number of pooled walks currently alive.
    #[must_use]
    pub fn pool_size(&self) -> usize {
        self.walkers.len()
    }

    /// Draws one sample node with probability ∝ `w`.
    ///
    /// # Errors
    ///
    /// * [`SamplingError::UnknownNode`] if `origin` is not live.
    /// * [`SamplingError::EmptyGraph`] if the graph is empty.
    /// * Weight errors as for [`MetropolisWalk::step`].
    pub fn sample_node<W: NodeWeight, R: Rng + ?Sized>(
        &mut self,
        g: &Graph,
        w: &W,
        origin: NodeId,
        rng: &mut R,
    ) -> Result<(NodeId, SampleCost)> {
        if g.is_empty() {
            return Err(SamplingError::EmptyGraph);
        }
        if !g.contains(origin) {
            return Err(SamplingError::UnknownNode(origin));
        }

        // Continue the cursor's pooled walk when possible, otherwise grow
        // the pool with a fresh walk that pays the full mixing length.
        let slot = self.cursor;
        self.cursor += 1;
        let reuse = self.config.continue_walks
            && slot < self.walkers.len()
            && g.contains(self.walkers[slot].current());
        let (mut walk, steps) = if reuse {
            (self.walkers[slot].clone(), self.config.reset_length)
        } else {
            (MetropolisWalk::new(g, origin)?, self.config.walk_length)
        };

        if reuse {
            telemetry::SAMPLING_WALKS_CONTINUED.inc();
        } else {
            telemetry::SAMPLING_WALKS_FRESH.inc();
        }
        telemetry::SAMPLING_BURN_IN.record(steps);

        let before = walk.messages();
        {
            let _span = digest_telemetry::span(Stage::SamplingWalk);
            walk.run(g, w, steps, rng)?;
        }
        let cost = SampleCost {
            walk_messages: walk.messages() - before,
            report_messages: 1,
        };
        let sampled = walk.current();
        telemetry::SAMPLING_SAMPLES.inc();
        telemetry::SAMPLING_MESSAGES.add(cost.total());
        if digest_telemetry::events_enabled() {
            digest_telemetry::emit(
                "sampling.walk",
                &[
                    ("fresh", Field::Bool(!reuse)),
                    ("steps", Field::U64(steps)),
                    ("hops", Field::U64(cost.walk_messages)),
                ],
            );
        }

        if self.config.continue_walks {
            if slot < self.walkers.len() {
                self.walkers[slot] = walk;
            } else {
                self.walkers.push(walk);
            }
        }
        self.total_messages += cost.total();
        self.samples_drawn += 1;
        Ok((sampled, cost))
    }

    /// Draws one uniformly random tuple of the relation by two-stage
    /// sampling (node ∝ `m_v`, then a uniform local tuple): a batch of one
    /// ([`SamplingOperator::sample_batch`]), so it takes one pooled walk
    /// and counts one sample however many reset lengths the walk needs to
    /// reach a content-bearing node. The returned tuple is a snapshot copy
    /// (the remote node ships the tuple's current state with the report
    /// message).
    ///
    /// # Errors
    ///
    /// As for [`SamplingOperator::sample_batch`].
    pub fn sample_tuple<R: Rng + ?Sized>(
        &mut self,
        g: &Graph,
        db: &P2PDatabase,
        origin: NodeId,
        rng: &mut R,
    ) -> Result<(TupleHandle, Tuple, SampleCost)> {
        let batch = self.sample_batch(g, db, origin, 1, rng)?;
        let sample = batch
            .iter()
            .next()
            .map(|(handle, row, cost)| (handle, row.to_tuple(), cost));
        sample.ok_or(SamplingError::InvalidConfig {
            reason: "a batch of one returned no sample",
        })
    }

    /// Draws `n` uniformly random tuples ("batch mode": the paper invokes
    /// `S` n times simultaneously, and this is that simultaneity — the
    /// occasion's walk slots run on [`SamplingConfig::workers`] threads
    /// through the deterministic executor in `executor`) and lends them
    /// as a [`SampledBatch`] over the operator's recycled buffers.
    ///
    /// RNG contract: exactly **one** `u64` is drawn from `rng` per call
    /// with `n > 0` (the occasion seed) and none when `n == 0`, so the
    /// caller's stream advance — and hence everything downstream — is
    /// independent of both `n`'s internals and the worker count. The
    /// occasion seed is one `ChaCha8` key, and each walk slot reads the
    /// key's stream numbered by its pool slot; the returned panel is
    /// byte-identical for every worker count.
    ///
    /// The batch is atomic: on error no sample is returned and the walk
    /// pool, cursor, and message accounting are left untouched.
    ///
    /// # Errors
    ///
    /// * [`SamplingError::EmptyDatabase`] if no node stores any tuple.
    /// * [`SamplingError::EmptyGraph`] if the graph is empty.
    /// * [`SamplingError::UnknownNode`] if `origin` is not live.
    /// * [`SamplingError::ZeroTotalWeight`] if a walk exhausts its
    ///   content-retry budget.
    /// * [`SamplingError::OverlayTooLarge`] if the overlay has more
    ///   directed edges than the occasion snapshot can address.
    pub fn sample_batch<R: Rng + ?Sized>(
        &mut self,
        g: &Graph,
        db: &P2PDatabase,
        origin: NodeId,
        n: usize,
        rng: &mut R,
    ) -> Result<SampledBatch<'_>> {
        let arity = db.schema().arity();
        if n == 0 {
            return Ok(SampledBatch {
                outcomes: &[],
                values: &[],
                arity,
            });
        }
        if db.total_tuples() == 0 {
            return Err(SamplingError::EmptyDatabase);
        }
        if g.is_empty() {
            return Err(SamplingError::EmptyGraph);
        }
        if !g.contains(origin) {
            return Err(SamplingError::UnknownNode(origin));
        }
        let occasion_seed = rng.next_u64();
        let (snapshot, refresh) =
            self.cache
                .refresh(g, db.content_sizes(), self.config.cache_snapshots)?;
        match refresh {
            SnapshotRefresh::Built => self.stats.built += 1,
            SnapshotRefresh::Reused => self.stats.reused += 1,
            SnapshotRefresh::Patched => self.stats.patched += 1,
        }
        if digest_telemetry::events_enabled() {
            let refresh_name = match refresh {
                SnapshotRefresh::Built => "built",
                SnapshotRefresh::Reused => "reused",
                SnapshotRefresh::Patched => "patched",
            };
            digest_telemetry::emit(
                "sampling.snapshot",
                &[
                    ("refresh", Field::Str(refresh_name)),
                    ("nodes", Field::U64(g.node_count() as u64)),
                ],
            );
        }
        let request = executor::BatchRequest {
            config: &self.config,
            pool: &self.walkers,
            cursor: self.cursor,
            origin,
            n,
            occasion_seed,
        };
        executor::run_tuple_batch(db, &request, snapshot, &mut self.arena)?;

        if self.config.continue_walks {
            // The pool grows by the batch's new slots at once.
            let grown = (self.cursor + n).saturating_sub(self.walkers.len());
            self.walkers.reserve_exact(grown);
        }
        for (i, outcome) in self.arena.outcomes.iter().enumerate() {
            let slot = self.cursor + i;
            if self.config.continue_walks {
                // Fold the batch walk's tallies back into the pooled
                // walk so `steps()`/`messages()` read as if the walk had
                // been advanced sequentially.
                let (walk_origin, prior_steps, prior_messages) = if outcome.fresh {
                    (origin, 0, 0)
                } else {
                    let prev = &self.walkers[slot];
                    (prev.origin(), prev.steps(), prev.messages())
                };
                let walk = MetropolisWalk::restore(
                    outcome.end,
                    walk_origin,
                    prior_steps.saturating_add(outcome.steps),
                    prior_messages.saturating_add(outcome.hops),
                );
                if slot < self.walkers.len() {
                    self.walkers[slot] = walk;
                } else {
                    self.walkers.push(walk);
                }
            }
            self.total_messages = self.total_messages.saturating_add(outcome.cost().total());
            self.samples_drawn += 1;
        }
        self.cursor += n;
        Ok(SampledBatch {
            outcomes: &self.arena.outcomes,
            values: &self.arena.values,
            arity,
        })
    }

    /// [`SamplingOperator::sample_batch`] with every sampled row copied
    /// into an owned [`Tuple`] — for callers that keep the samples past
    /// the operator's next batch.
    ///
    /// # Errors
    ///
    /// As for [`SamplingOperator::sample_batch`].
    pub fn sample_tuples<R: Rng + ?Sized>(
        &mut self,
        g: &Graph,
        db: &P2PDatabase,
        origin: NodeId,
        n: usize,
        rng: &mut R,
    ) -> Result<Vec<(TupleHandle, Tuple, SampleCost)>> {
        let batch = self.sample_batch(g, db, origin, n, rng)?;
        let owned = |(handle, row, cost): (_, RowView<'_>, _)| (handle, row.to_tuple(), cost);
        Ok(batch.iter().map(owned).collect())
    }

    /// Cluster sampling (the alternative the paper rejects in §III): draw
    /// a node *uniformly* and take its entire fragment as a batch sample.
    /// Exposed for the two-stage-vs-cluster ablation.
    ///
    /// # Errors
    ///
    /// As for [`SamplingOperator::sample_node`].
    pub fn cluster_sample<R: Rng + ?Sized>(
        &mut self,
        g: &Graph,
        db: &P2PDatabase,
        origin: NodeId,
        rng: &mut R,
    ) -> Result<(NodeId, Vec<Tuple>, SampleCost)> {
        let w = uniform_weight();
        let (node, cost) = self.sample_node(g, &w, origin, rng)?;
        // The report message ships the node's whole fragment as the batch.
        let tuples: Vec<Tuple> = db.iter_node(node).map(|(_, row)| row.to_tuple()).collect();
        Ok((node, tuples, cost))
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
    use crate::snapshot::thresholds_derived;
    use digest_db::Schema;
    use digest_net::topology;
    use rand::RngCore;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    /// db with node i holding i+1 tuples valued 100·i + j.
    fn skewed_db(nodes: u32) -> P2PDatabase {
        let mut db = P2PDatabase::new(Schema::single("a"));
        for i in 0..nodes {
            db.register_node(NodeId(i));
            for j in 0..=i {
                db.insert(NodeId(i), Tuple::single(f64::from(100 * i + j)))
                    .unwrap();
            }
        }
        db
    }

    #[test]
    fn config_validation() {
        assert!(SamplingOperator::new(SamplingConfig {
            walk_length: 0,
            ..Default::default()
        })
        .is_err());
        assert!(SamplingOperator::new(SamplingConfig {
            reset_length: 0,
            ..Default::default()
        })
        .is_err());
    }

    #[test]
    fn recommended_config_scales_logarithmically() {
        let small = SamplingConfig::recommended(100);
        let large = SamplingConfig::recommended(10_000);
        assert!(large.walk_length > small.walk_length);
        assert!(
            large.walk_length < 4 * small.walk_length,
            "should grow slowly"
        );
        assert!(small.reset_length < small.walk_length);
    }

    #[test]
    fn sample_node_respects_weights() {
        let g = topology::complete(4).unwrap();
        let w = |v: NodeId| if v.0 == 3 { 3.0 } else { 1.0 };
        let mut op = SamplingOperator::new(SamplingConfig {
            walk_length: 60,
            reset_length: 20,
            continue_walks: true,
            workers: 1,
            cache_snapshots: true,
        })
        .unwrap();
        let mut r = rng(1);
        let mut hits = [0usize; 4];
        for _ in 0..6000 {
            let (node, _) = op.sample_node(&g, &w, NodeId(0), &mut r).unwrap();
            hits[node.0 as usize] += 1;
        }
        // Expected: node 3 gets 3/6 = 50%, others ~16.7%.
        let p3 = hits[3] as f64 / 6000.0;
        assert!((p3 - 0.5).abs() < 0.04, "p3 = {p3}");
        for (i, &h) in hits.iter().enumerate().take(3) {
            let p = h as f64 / 6000.0;
            assert!((p - 1.0 / 6.0).abs() < 0.04, "p{i} = {p}");
        }
    }

    #[test]
    fn two_stage_sampling_is_uniform_over_tuples() {
        // 3 nodes holding 1, 2, 3 tuples: every tuple should be drawn with
        // probability 1/6 even though nodes differ in content size.
        let g = topology::complete(3).unwrap();
        let db = skewed_db(3);
        assert_eq!(db.total_tuples(), 6);
        let mut op = SamplingOperator::new(SamplingConfig {
            walk_length: 60,
            reset_length: 20,
            continue_walks: true,
            workers: 1,
            cache_snapshots: true,
        })
        .unwrap();
        let mut r = rng(2);
        let mut counts = std::collections::BTreeMap::new();
        let draws = 12_000;
        for _ in 0..draws {
            let (_, tuple, _) = op.sample_tuple(&g, &db, NodeId(0), &mut r).unwrap();
            *counts
                .entry(tuple.value(0).unwrap() as u64)
                .or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), 6, "all six tuples must appear");
        for (&val, &c) in &counts {
            let p = c as f64 / draws as f64;
            assert!((p - 1.0 / 6.0).abs() < 0.02, "tuple {val}: p = {p}");
        }
    }

    #[test]
    fn continued_walks_are_cheaper() {
        let g = topology::ring(50).unwrap();
        let db = skewed_db(50);
        let mut r = rng(3);

        let mut cont = SamplingOperator::new(SamplingConfig {
            walk_length: 100,
            reset_length: 10,
            continue_walks: true,
            workers: 1,
            cache_snapshots: true,
        })
        .unwrap();
        let mut fresh = SamplingOperator::new(SamplingConfig {
            walk_length: 100,
            reset_length: 10,
            continue_walks: false,
            workers: 1,
            cache_snapshots: true,
        })
        .unwrap();

        for _ in 0..30 {
            // One sample per occasion: the continued operator reuses its
            // pooled walk, the fresh one re-pays the mixing length.
            cont.begin_occasion();
            cont.sample_tuple(&g, &db, NodeId(0), &mut r).unwrap();
            fresh.begin_occasion();
            fresh.sample_tuple(&g, &db, NodeId(0), &mut r).unwrap();
        }
        assert_eq!(cont.pool_size(), 1, "one occasion slot in use");
        assert!(
            cont.total_messages() < fresh.total_messages() / 2,
            "continued {} vs fresh {}",
            cont.total_messages(),
            fresh.total_messages()
        );
        assert_eq!(cont.samples_drawn(), fresh.samples_drawn());
    }

    #[test]
    fn sample_cost_reports_hops_plus_report() {
        let g = topology::complete(5).unwrap();
        let db = skewed_db(5);
        let mut op = SamplingOperator::new(SamplingConfig {
            walk_length: 40,
            reset_length: 10,
            continue_walks: false,
            workers: 1,
            cache_snapshots: true,
        })
        .unwrap();
        let mut r = rng(4);
        let (_, _, cost) = op.sample_tuple(&g, &db, NodeId(0), &mut r).unwrap();
        assert_eq!(cost.report_messages, 1);
        assert!(cost.walk_messages > 0);
        assert!(cost.walk_messages <= 40);
        assert_eq!(cost.total(), cost.walk_messages + 1);
        assert_eq!(op.total_messages(), cost.total());
    }

    #[test]
    fn empty_database_is_an_error() {
        let g = topology::ring(4).unwrap();
        let db = P2PDatabase::new(Schema::single("a"));
        let mut op = SamplingOperator::new(SamplingConfig::default()).unwrap();
        let mut r = rng(5);
        assert!(matches!(
            op.sample_tuple(&g, &db, NodeId(0), &mut r),
            Err(SamplingError::EmptyDatabase)
        ));
    }

    #[test]
    fn departed_walker_node_recovers_via_fresh_walk() {
        let mut g = topology::complete(6).unwrap();
        let db = skewed_db(6);
        let mut op = SamplingOperator::new(SamplingConfig {
            walk_length: 30,
            reset_length: 5,
            continue_walks: true,
            workers: 1,
            cache_snapshots: true,
        })
        .unwrap();
        let mut r = rng(6);
        op.sample_tuple(&g, &db, NodeId(0), &mut r).unwrap();
        // Remove a node the pooled walker may be sitting on; sampling must
        // keep working by relaunching fresh walks where needed, and no
        // sampled tuple may belong to the departed node.
        g.remove_node(NodeId(5)).unwrap();
        for _ in 0..20 {
            op.begin_occasion();
            let (handle, _, _) = op.sample_tuple(&g, &db, NodeId(0), &mut r).unwrap();
            assert_ne!(handle.node, NodeId(5), "sampled a departed node's tuple");
        }
    }

    /// A tuple draw is one sample from one pooled walk: when the walk
    /// ends on an empty node it walks on (a reset length at a time)
    /// instead of taking the next pooled walk and counting another sample.
    #[test]
    fn one_tuple_draw_is_one_sample_from_one_walk() {
        let g = topology::complete(4).unwrap();
        // Node 0 (the origin) is empty: a one-step walk ends there half
        // the time.
        let mut db = P2PDatabase::new(Schema::single("a"));
        db.register_node(NodeId(0));
        for i in 1..4 {
            db.register_node(NodeId(i));
            db.insert(NodeId(i), Tuple::single(f64::from(i))).unwrap();
        }
        let mut r = rng(12);
        for _ in 0..32 {
            let mut op = SamplingOperator::new(SamplingConfig {
                walk_length: 1,
                reset_length: 1,
                continue_walks: true,
                workers: 1,
                cache_snapshots: true,
            })
            .unwrap();
            let (handle, _, _) = op.sample_tuple(&g, &db, NodeId(0), &mut r).unwrap();
            assert_ne!(handle.node, NodeId(0));
            assert_eq!(op.samples_drawn(), 1);
            assert_eq!(op.pool_size(), 1);
        }
    }

    #[test]
    fn batch_sampling_draws_n() {
        let g = topology::complete(4).unwrap();
        let db = skewed_db(4);
        let mut op = SamplingOperator::new(SamplingConfig::default()).unwrap();
        let mut r = rng(7);
        let batch = op.sample_tuples(&g, &db, NodeId(0), 25, &mut r).unwrap();
        assert_eq!(batch.len(), 25);
        assert_eq!(op.samples_drawn(), 25);
    }

    #[test]
    fn sample_cost_total_saturates_instead_of_overflowing() {
        let cost = SampleCost {
            walk_messages: u64::MAX - 1,
            report_messages: 5,
        };
        assert_eq!(cost.total(), u64::MAX);
        let cost = SampleCost {
            walk_messages: u64::MAX,
            report_messages: u64::MAX,
        };
        assert_eq!(cost.total(), u64::MAX);
        // The ordinary regime is unchanged.
        let cost = SampleCost {
            walk_messages: 7,
            report_messages: 1,
        };
        assert_eq!(cost.total(), 8);
    }

    #[test]
    fn batch_empty_request_consumes_no_rng() {
        let g = topology::complete(4).unwrap();
        let db = skewed_db(4);
        let mut op = SamplingOperator::new(SamplingConfig::default()).unwrap();
        let mut a = rng(11);
        let mut b = rng(11);
        assert!(op
            .sample_tuples(&g, &db, NodeId(0), 0, &mut a)
            .unwrap()
            .is_empty());
        assert_eq!(a.next_u64(), b.next_u64(), "n == 0 must not touch rng");
    }

    #[test]
    fn batch_panels_are_identical_for_any_worker_count() {
        let g = topology::complete(5).unwrap();
        let db = skewed_db(5);
        let draw = |workers: usize| {
            let mut op = SamplingOperator::new(SamplingConfig {
                walk_length: 40,
                reset_length: 8,
                continue_walks: true,
                workers,
                cache_snapshots: true,
            })
            .unwrap();
            let mut r = rng(12);
            let mut panels = Vec::new();
            for _ in 0..4 {
                op.begin_occasion();
                panels.push(op.sample_tuples(&g, &db, NodeId(0), 17, &mut r).unwrap());
            }
            (panels, op.total_messages(), r.next_u64())
        };
        let (base, base_messages, base_next) = draw(1);
        for workers in [2, 4, 8] {
            let (panels, messages, next) = draw(workers);
            assert_eq!(messages, base_messages, "{workers} workers");
            assert_eq!(next, base_next, "caller rng advance, {workers} workers");
            for (pa, pb) in base.iter().zip(panels.iter()) {
                assert_eq!(pa.len(), pb.len());
                for ((ha, ta, ca), (hb, tb, cb)) in pa.iter().zip(pb.iter()) {
                    assert_eq!(ha, hb, "{workers} workers");
                    assert_eq!(
                        ta.value(0).unwrap().to_bits(),
                        tb.value(0).unwrap().to_bits(),
                        "{workers} workers"
                    );
                    assert_eq!(ca, cb, "{workers} workers");
                }
            }
        }
    }

    #[test]
    fn batch_continuation_is_cheaper_and_maintains_the_pool() {
        let g = topology::ring(30).unwrap();
        let db = skewed_db(30);
        let mut op = SamplingOperator::new(SamplingConfig {
            walk_length: 100,
            reset_length: 10,
            continue_walks: true,
            workers: 2,
            cache_snapshots: true,
        })
        .unwrap();
        let mut r = rng(13);
        op.sample_tuples(&g, &db, NodeId(0), 8, &mut r).unwrap();
        assert_eq!(op.pool_size(), 8);
        let after_first = op.total_messages();
        op.begin_occasion();
        op.sample_tuples(&g, &db, NodeId(0), 8, &mut r).unwrap();
        let second_cost = op.total_messages() - after_first;
        assert!(
            second_cost < after_first / 2,
            "continued occasion {second_cost} vs fresh {after_first}"
        );
        assert_eq!(op.pool_size(), 8, "pool slots are reused, not regrown");
        assert_eq!(op.samples_drawn(), 16);
    }

    /// Snapshot caching across occasions: unchanged overlay → reuse.
    #[test]
    fn snapshot_cache_reuses_across_unchanged_occasions() {
        let g = topology::complete(6).unwrap();
        let db = skewed_db(6);
        let mut op = SamplingOperator::new(SamplingConfig {
            walk_length: 30,
            reset_length: 6,
            continue_walks: true,
            workers: 1,
            cache_snapshots: true,
        })
        .unwrap();
        let mut r = rng(21);
        for _ in 0..5 {
            op.begin_occasion();
            op.sample_tuples(&g, &db, NodeId(0), 6, &mut r).unwrap();
        }
        let stats = op.snapshot_stats();
        assert_eq!(stats.built, 1, "one cold build");
        assert_eq!(stats.reused, 4, "all later occasions reuse");
        assert_eq!(stats.patched, 0);
    }

    /// With caching disabled every occasion pays a cold build, and the
    /// panel is byte-identical to the cached run (same caller RNG).
    #[test]
    fn cache_off_rebuilds_every_occasion_with_identical_panels() {
        let g = topology::complete(6).unwrap();
        let db = skewed_db(6);
        let draw = |cache_snapshots: bool| {
            let mut op = SamplingOperator::new(SamplingConfig {
                walk_length: 30,
                reset_length: 6,
                continue_walks: true,
                workers: 1,
                cache_snapshots,
            })
            .unwrap();
            let mut r = rng(22);
            let mut panels = Vec::new();
            for _ in 0..3 {
                op.begin_occasion();
                panels.push(op.sample_tuples(&g, &db, NodeId(0), 5, &mut r).unwrap());
            }
            (panels, op.snapshot_stats(), r.next_u64())
        };
        let (cached, cached_stats, cached_next) = draw(true);
        let (cold, cold_stats, cold_next) = draw(false);
        assert_eq!(cold_stats.built, 3);
        assert_eq!(cold_stats.reused + cold_stats.patched, 0);
        assert!(cached_stats.reused > 0);
        assert_eq!(cached_next, cold_next, "caller RNG advance must match");
        for (pa, pb) in cached.iter().zip(cold.iter()) {
            for ((ha, ta, ca), (hb, tb, cb)) in pa.iter().zip(pb.iter()) {
                assert_eq!(ha, hb);
                assert_eq!(
                    ta.value(0).unwrap().to_bits(),
                    tb.value(0).unwrap().to_bits()
                );
                assert_eq!(ca, cb);
            }
        }
    }

    /// Regression test for the stale-cache-after-reset bug: graph
    /// epochs are per-instance, so a *different* graph can report the
    /// same epoch and weights as the one the cache was built against.
    /// `reset()` must drop the cache so the next occasion
    /// rebuilds from the new graph.
    #[test]
    fn reset_drops_cached_snapshot_before_graph_swap() {
        // Graph A: ring(8) — 8 add_node + 8 add_edge = 16 epoch bumps.
        let a = topology::ring(8).unwrap();
        // Graph B: 8 nodes, a path 0-…-7 plus edge 0-4 — also exactly
        // 16 mutations, so `epoch(A) == epoch(B)`, same id range, and
        // (uniform content below) the same weights.
        let mut b = digest_net::Graph::new();
        let ids: Vec<NodeId> = (0..8).map(|_| b.add_node()).collect();
        for pair in ids.windows(2) {
            b.add_edge(pair[0], pair[1]).unwrap();
        }
        b.add_edge(ids[0], ids[4]).unwrap();
        assert_eq!(a.epoch(), b.epoch(), "the trap this test depends on");

        let db = {
            let mut db = P2PDatabase::new(Schema::single("a"));
            for i in 0..8 {
                db.register_node(NodeId(i));
                db.insert(NodeId(i), Tuple::single(f64::from(i))).unwrap();
            }
            db
        };
        let config = SamplingConfig {
            walk_length: 40,
            reset_length: 8,
            continue_walks: true,
            workers: 1,
            cache_snapshots: true,
        };

        let mut op = SamplingOperator::new(config).unwrap();
        let mut r = rng(23);
        op.sample_tuples(&a, &db, NodeId(0), 6, &mut r).unwrap();
        op.reset();
        op.begin_occasion();
        let mut r2 = rng(24);
        let swapped = op.sample_tuples(&b, &db, NodeId(0), 6, &mut r2).unwrap();

        let mut fresh_op = SamplingOperator::new(config).unwrap();
        let mut r3 = rng(24);
        let fresh = fresh_op
            .sample_tuples(&b, &db, NodeId(0), 6, &mut r3)
            .unwrap();

        assert_eq!(
            op.snapshot_stats().built,
            2,
            "post-reset occasion must cold-build, not reuse"
        );
        for ((ha, ta, ca), (hb, tb, cb)) in swapped.iter().zip(fresh.iter()) {
            assert_eq!(ha, hb, "reset operator must match a fresh one on graph B");
            assert_eq!(
                ta.value(0).unwrap().to_bits(),
                tb.value(0).unwrap().to_bits()
            );
            assert_eq!(ca, cb);
        }
    }

    /// Churn between occasions takes the incremental patch path and
    /// never a false reuse.
    #[test]
    fn churn_between_occasions_patches_snapshot() {
        let mut g = topology::complete(8).unwrap();
        let db = skewed_db(9);
        let mut op = SamplingOperator::new(SamplingConfig {
            walk_length: 30,
            reset_length: 6,
            continue_walks: true,
            workers: 1,
            cache_snapshots: true,
        })
        .unwrap();
        let mut r = rng(25);
        op.sample_tuples(&g, &db, NodeId(0), 6, &mut r).unwrap();
        let v = g.add_node();
        g.add_edge(v, NodeId(0)).unwrap();
        op.begin_occasion();
        op.sample_tuples(&g, &db, NodeId(0), 6, &mut r).unwrap();
        let stats = op.snapshot_stats();
        assert_eq!(stats.built, 1);
        assert_eq!(stats.patched, 1);
    }

    /// On a 10⁵-node BA overlay under churn, a cold build and two patched
    /// occasions derive fewer M–H thresholds than the overlay has nodes:
    /// only the edges the walks propose, not the 6·10⁵ of an eager table.
    #[test]
    fn a_churning_large_overlay_derives_only_what_its_walks_propose() {
        let mut g = topology::barabasi_albert(100_000, 3, &mut rng(41)).unwrap();
        let mut db = P2PDatabase::new(Schema::single("a"));
        for v in g.nodes() {
            db.register_node(v);
            db.insert(v, Tuple::single(f64::from(v.0))).unwrap();
        }
        let mut op = SamplingOperator::new(SamplingConfig {
            workers: 1,
            cache_snapshots: true,
            ..SamplingConfig::recommended(g.node_count())
        })
        .unwrap();
        let mut r = rng(42);
        let derived = thresholds_derived();
        for occasion in 0..3u32 {
            if occasion > 0 {
                let joiner = g.add_node();
                for target in [7 * occasion, 50_000 + occasion, 99_000] {
                    g.add_edge(joiner, NodeId(target)).unwrap();
                }
                g.remove_node(NodeId(10_000 + occasion)).unwrap();
            }
            op.begin_occasion();
            op.sample_tuples(&g, &db, NodeId(0), 200, &mut r).unwrap();
        }
        let stats = op.snapshot_stats();
        assert_eq!((stats.built, stats.patched), (1, 2));
        let derived = thresholds_derived() - derived;
        assert!(
            derived > 0 && derived < 100_000,
            "{derived} thresholds derived"
        );
    }

    #[test]
    fn cluster_sample_returns_whole_fragment() {
        let g = topology::complete(3).unwrap();
        let db = skewed_db(3);
        let mut op = SamplingOperator::new(SamplingConfig {
            walk_length: 50,
            reset_length: 10,
            continue_walks: false,
            workers: 1,
            cache_snapshots: true,
        })
        .unwrap();
        let mut r = rng(8);
        let (node, tuples, _) = op.cluster_sample(&g, &db, NodeId(0), &mut r).unwrap();
        assert_eq!(tuples.len(), db.content_size(node));
        // Every tuple value encodes its node: 100·node + j.
        for t in &tuples {
            assert_eq!((t.value(0).unwrap() as u32) / 100, node.0);
        }
    }
}

/// `sample_batch` against the batch path it replaced (the parent commit's
/// `sample_tuples` over `executor::reference`): same panel, same pool,
/// same accounting, same caller-RNG advance.
#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod batch_equivalence {
    use super::*;
    use digest_db::Schema;
    use digest_net::topology;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    type OwnedBatch = Vec<(TupleHandle, Tuple, SampleCost)>;

    /// The parent's `SamplingOperator::sample_tuples`, verbatim but for
    /// the executor it calls.
    fn reference_sample_tuples(
        op: &mut SamplingOperator,
        g: &Graph,
        db: &P2PDatabase,
        origin: NodeId,
        n: usize,
        rng: &mut ChaCha8Rng,
    ) -> Result<(OwnedBatch, u64)> {
        if n == 0 {
            return Ok((Vec::new(), 0));
        }
        if db.total_tuples() == 0 {
            return Err(SamplingError::EmptyDatabase);
        }
        if g.is_empty() {
            return Err(SamplingError::EmptyGraph);
        }
        if !g.contains(origin) {
            return Err(SamplingError::UnknownNode(origin));
        }
        let occasion_seed = rng.next_u64();
        let (snapshot, refresh) =
            op.cache
                .refresh(g, db.content_sizes(), op.config.cache_snapshots)?;
        match refresh {
            SnapshotRefresh::Built => op.stats.built += 1,
            SnapshotRefresh::Reused => op.stats.reused += 1,
            SnapshotRefresh::Patched => op.stats.patched += 1,
        }
        let request = executor::BatchRequest {
            config: &op.config,
            pool: &op.walkers,
            cursor: op.cursor,
            origin,
            n,
            occasion_seed,
        };
        let outcomes = executor::reference::run_tuple_batch(db, &request, snapshot)?;

        let mut out = Vec::with_capacity(n);
        let mut retries = 0;
        for (i, outcome) in outcomes.into_iter().enumerate() {
            let slot = op.cursor + i;
            if op.config.continue_walks {
                let (walk_origin, prior_steps, prior_messages) = if outcome.fresh {
                    (origin, 0, 0)
                } else {
                    let prev = &op.walkers[slot];
                    (prev.origin(), prev.steps(), prev.messages())
                };
                let walk = MetropolisWalk::restore(
                    outcome.end,
                    walk_origin,
                    prior_steps.saturating_add(outcome.steps),
                    prior_messages.saturating_add(outcome.hops),
                );
                if slot < op.walkers.len() {
                    op.walkers[slot] = walk;
                } else {
                    op.walkers.push(walk);
                }
            }
            op.total_messages = op.total_messages.saturating_add(outcome.cost.total());
            op.samples_drawn += 1;
            retries += outcome.retries;
            out.push((outcome.handle, outcome.tuple, outcome.cost));
        }
        op.cursor += n;
        Ok((out, retries))
    }

    /// Pool, cursor and accounting: what a failed batch must leave alone.
    fn pool_and_accounting(op: &SamplingOperator) -> impl PartialEq + std::fmt::Debug {
        let pool: Vec<_> = op
            .walkers
            .iter()
            .map(|w| (w.current(), w.origin(), w.steps(), w.messages()))
            .collect();
        (pool, op.cursor, op.total_messages, op.samples_drawn)
    }

    /// Everything of an operator a later batch or a caller can observe.
    fn observable(op: &SamplingOperator) -> impl PartialEq + std::fmt::Debug {
        (pool_and_accounting(op), op.stats)
    }

    /// A BA overlay of 40 nodes over a relation of the given arity in
    /// which three nodes in four — the origin among them — hold nothing,
    /// so short fresh walks end on empty nodes and must retry.
    fn sparse_world(arity: usize) -> (Graph, P2PDatabase) {
        let g = topology::barabasi_albert(40, 2, &mut ChaCha8Rng::seed_from_u64(31)).unwrap();
        let names: Vec<String> = (0..arity).map(|k| format!("a{k}")).collect();
        let mut db = P2PDatabase::new(Schema::new(names));
        for v in g.nodes() {
            db.register_node(v);
            if v.0 % 4 != 1 {
                continue;
            }
            for j in 0..=(v.0 % 3) {
                let row = (0..arity)
                    .map(|k| f64::from(100 * v.0 + 10 * j) + k as f64 / 8.0)
                    .collect();
                db.insert(v, Tuple::new(row)).unwrap();
            }
        }
        (g, db)
    }

    fn config(workers: usize, continue_walks: bool) -> SamplingConfig {
        SamplingConfig {
            walk_length: 3,
            reset_length: 1,
            continue_walks,
            workers,
            cache_snapshots: true,
        }
    }

    #[test]
    fn sample_batch_matches_the_boxed_tuple_path_it_replaced() {
        let origin = NodeId(0);
        for arity in 0..=3 {
            let (mut g, db) = sparse_world(arity);
            for workers in [1, 2, 4] {
                for continue_walks in [true, false] {
                    let mut new = SamplingOperator::new(config(workers, continue_walks)).unwrap();
                    let mut old = new.clone();
                    let mut new_rng = ChaCha8Rng::seed_from_u64(7 + workers as u64);
                    let mut old_rng = new_rng.clone();
                    let mut retries = 0;
                    for occasion in 0..4 {
                        new.begin_occasion();
                        old.begin_occasion();
                        // Two batches per occasion: the second starts at a
                        // non-zero cursor; an empty one draws nothing.
                        for n in [9, 0, 5 + occasion] {
                            let batch = new.sample_batch(&g, &db, origin, n, &mut new_rng).unwrap();
                            let got: Vec<_> = batch
                                .iter()
                                .map(|(h, row, c)| (h, row.values().to_vec(), c))
                                .collect();
                            let (want, retried) =
                                reference_sample_tuples(&mut old, &g, &db, origin, n, &mut old_rng)
                                    .unwrap();
                            retries += retried;
                            assert_eq!(got.len(), n);
                            assert_eq!(want.len(), n);
                            for ((h, values, c), (wh, wt, wc)) in got.iter().zip(&want) {
                                assert_eq!((h, c), (wh, wc));
                                assert_eq!(values.len(), arity);
                                let bits =
                                    |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                                assert_eq!(bits(values), bits(wt.values()));
                            }
                            assert_eq!(observable(&new), observable(&old));
                        }
                    }
                    assert!(retries > 0, "the world must force content retries");
                    assert_eq!(new_rng.next_u64(), old_rng.next_u64());
                    assert_eq!(new.pool_size(), if continue_walks { 17 } else { 0 });
                }
            }
            // The adapter is the same batch, owned.
            let mut adapter = SamplingOperator::new(config(1, true)).unwrap();
            let mut old = adapter.clone();
            let mut rng = ChaCha8Rng::seed_from_u64(9);
            let owned = adapter
                .sample_tuples(&g, &db, origin, 6, &mut rng.clone())
                .unwrap();
            let (want, _) =
                reference_sample_tuples(&mut old, &g, &db, origin, 6, &mut rng).unwrap();
            assert_eq!(owned, want);

            // An error batch — the origin left the overlay — fails as the
            // old path did and leaves pool, cursor and accounting alone.
            let mut new = SamplingOperator::new(config(2, true)).unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(11);
            new.sample_batch(&g, &db, origin, 7, &mut rng).unwrap();
            let mut old = new.clone();
            g.remove_node(origin).unwrap();
            let before = observable(&new);
            let err = new.sample_batch(&g, &db, origin, 7, &mut rng).map(|_| ());
            assert_eq!(err, Err(SamplingError::UnknownNode(origin)));
            assert_eq!(
                reference_sample_tuples(&mut old, &g, &db, origin, 7, &mut rng).map(|_| ()),
                err
            );
            assert_eq!(observable(&new), before);
            assert_eq!(observable(&old), before);
        }
    }

    /// A slot that exhausts its content-retry budget fails the whole
    /// batch: nothing is lent, nothing is written back.
    #[test]
    fn a_failed_slot_fails_the_batch_atomically() {
        // Node 0 is isolated and empty; the only tuple lives on node 1.
        let mut g = Graph::new();
        let (a, b) = (g.add_node(), g.add_node());
        let mut db = P2PDatabase::new(Schema::single("a"));
        db.register_node(a);
        db.register_node(b);
        db.insert(b, Tuple::single(1.0)).unwrap();
        for workers in [1, 3] {
            let mut op = SamplingOperator::new(config(workers, true)).unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(5);
            op.sample_batch(&g, &db, b, 2, &mut rng).unwrap();
            op.begin_occasion();
            let before = pool_and_accounting(&op);
            // Slots 0–1 continue on node 1 and succeed; slot 2 is fresh
            // from the empty origin and can never leave it.
            let err = op.sample_batch(&g, &db, a, 3, &mut rng).map(|_| ());
            assert_eq!(err, Err(SamplingError::ZeroTotalWeight));
            assert!(op.arena.outcomes.is_empty() && op.arena.values.is_empty());
            assert_eq!(pool_and_accounting(&op), before);
        }
    }
}
