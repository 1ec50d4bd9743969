//! Cached per-occasion overlay snapshots with incremental refresh.
//!
//! PR 3 rebuilt the full CSR snapshot on *every* `sample_tuples` batch,
//! making occasion latency proportional to overlay size even when the
//! overlay had not changed. This module makes the cost proportional to
//! *change* instead (cf. PolyFit's precomputed index structures and the
//! per-occasion amortization argument of the top-k P2P line of work in
//! PAPERS.md):
//!
//! * **Epoch-keyed caching.** [`SnapshotCache`] holds the last-built
//!   [`OccasionSnapshot`] keyed by the graph mutation epoch.
//!   [`digest_net::Graph::epoch`] advances only on
//!   structural mutation, so an unchanged overlay is detected in O(1);
//!   weights (arbitrary caller closures) are re-evaluated into a scratch
//!   buffer each occasion — O(n), unavoidable without purity guarantees
//!   — and compared exactly. A full hit reuses the snapshot with zero
//!   writes.
//! * **CSR patching.** When the graph changed but the mutation journal
//!   still covers the gap, [`digest_net::Graph::changes_since`] yields
//!   the sorted set of dirty node ids. The snapshot is patched where it
//!   changed and in place: the clean row spans between dirty ids slide to
//!   their new positions in bulk (adjacency and thresholds alike), dirty
//!   rows are re-read from the graph, and acceptance thresholds are
//!   re-derived only for the rows of the *changed set* `C` — dirty ids
//!   plus ids whose captured weight differs from the cached one — and of
//!   `C`'s neighbours, the only rows an Eq. 12 ratio can have moved in.
//!   What stays O(n) is what a reuse pays too: capturing the weights and
//!   comparing them.
//! * **M–H proposal caching.** The snapshot precomputes, for every
//!   directed CSR edge `(i, j)`, the Metropolis–Hastings acceptance
//!   ratio `(w_j·d_i) / (max(w_i, ε)·d_j)` of PAPER.md §V-A Eq. 12 using
//!   *bit-for-bit the same `f64` expression* as the live walk — and then
//!   folds it down to the integer threshold [`crate::draw::accept`]
//!   decides against ([`accept_threshold`]: ratio ≥ 1 accepts without a
//!   draw, anything else is `⌈ratio·2⁵³⌉`). IEEE-754 arithmetic is
//!   deterministic, so the table entry decides *and consumes the RNG
//!   stream* exactly like the live walk recomputing the ratio per step.
//!   The per-node Lemire rejection threshold of the proposal draw
//!   ([`reject_threshold`], a modulo) is precomputed the same way. The
//!   inner walk step becomes a few array reads and integer compares —
//!   no float ops, no modulo, no weight-closure calls.
//!
//! Every refresh outcome is counted (`sampling.snapshot.built/reused/
//! patched`) and timed under [`Stage::SnapshotBuild`]. The cache is
//! bound to one [`Graph`] *instance*: epochs from different graphs are
//! incomparable, so `SamplingOperator::reset` must (and does) drop the
//! cache before an operator may be pointed at another graph.

use crate::draw::{accept_threshold, reject_threshold};
use crate::error::SamplingError;
use crate::metropolis::ZERO_WEIGHT_FLOOR;
use crate::weight::NodeWeight;
use crate::Result;
use digest_net::{Graph, NodeId};
use digest_telemetry::{registry as telemetry, Stage};

/// Immutable per-occasion view of the overlay: CSR adjacency, liveness,
/// pre-validated node weights, and the precomputed M–H acceptance ratio
/// per directed edge, all indexed by raw node id. Built (or patched)
/// once per occasion on the dispatching thread; shared read-only by
/// every walk slot.
#[derive(Debug, Clone, Default)]
pub(crate) struct OccasionSnapshot {
    /// CSR row offsets, `id_upper_bound + 1` entries.
    offsets: Vec<usize>,
    /// Concatenated neighbor lists.
    adjacency: Vec<NodeId>,
    /// Integer acceptance threshold for the directed edge stored at the
    /// same index in `adjacency`: [`accept_threshold`] of the ratio
    /// `(w_j·d_i) / (max(w_i, ε)·d_j)` that `MetropolisWalk::step`
    /// evaluates live (Eq. 12).
    accept: Vec<u64>,
    /// Per-node Lemire rejection threshold for the uniform proposal
    /// draw, [`reject_threshold`] of the node's degree
    /// (`id_upper_bound` entries, 0 for dead or isolated ids).
    reject: Vec<u32>,
    /// Weight per id slot (0.0 for dead ids); every entry finite, ≥ 0.
    weights: Vec<f64>,
    /// Liveness per id slot.
    live: Vec<bool>,
}

impl OccasionSnapshot {
    /// Builds a cold snapshot (no cache); test-only reference path —
    /// the operator goes through [`SnapshotCache`].
    ///
    /// # Errors
    ///
    /// [`SamplingError::InvalidWeight`] if `w` yields a negative or
    /// non-finite weight for any live node (the same check the
    /// sequential walk applies lazily per step, applied eagerly here).
    #[cfg(test)]
    pub(crate) fn build<W: NodeWeight>(g: &Graph, w: &W) -> Result<Self> {
        let mut cache = SnapshotCache::new();
        cache.refresh(g, w, false)?;
        Ok(cache.snapshot)
    }

    /// Whether `v` was live at capture time.
    /// xtask: no-alloc
    pub(crate) fn contains(&self, v: NodeId) -> bool {
        self.live.get(v.0 as usize).copied().unwrap_or(false)
    }

    /// CSR row of `v` as `(start, degree)`; `(0, 0)` for unknown ids.
    /// xtask: no-alloc
    #[inline]
    pub(crate) fn row(&self, v: NodeId) -> (usize, usize) {
        let i = v.0 as usize;
        match (self.offsets.get(i), self.offsets.get(i + 1)) {
            (Some(&start), Some(&end)) => (start, end.saturating_sub(start)),
            _ => (0, 0),
        }
    }

    /// The neighbor stored at CSR index `idx` (caller guarantees `idx`
    /// lies inside a row obtained from [`Self::row`]).
    /// xtask: no-alloc
    #[inline]
    pub(crate) fn neighbor_at(&self, idx: usize) -> NodeId {
        self.adjacency.get(idx).copied().unwrap_or(NodeId(0))
    }

    /// The precomputed integer acceptance threshold at CSR index `idx`:
    /// [`accept_threshold`] of the ratio the live walk computes, which
    /// [`crate::draw::accept`] decides against.
    /// xtask: no-alloc
    #[inline]
    pub(crate) fn accept_threshold_at(&self, idx: usize) -> u64 {
        self.accept.get(idx).copied().unwrap_or(0)
    }

    /// The precomputed per-node Lemire rejection threshold for `v`'s
    /// uniform proposal draw (see [`reject_threshold`]).
    /// xtask: no-alloc
    #[inline]
    pub(crate) fn reject_threshold_of(&self, v: NodeId) -> u32 {
        self.reject.get(v.0 as usize).copied().unwrap_or(0)
    }

    #[cfg(test)]
    pub(crate) fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let (start, len) = self.row(v);
        self.adjacency.get(start..start + len).unwrap_or(&[])
    }

    #[cfg(test)]
    pub(crate) fn degree(&self, v: NodeId) -> usize {
        self.row(v).1
    }

    #[cfg(test)]
    pub(crate) fn weight(&self, v: NodeId) -> f64 {
        self.weights.get(v.0 as usize).copied().unwrap_or(0.0)
    }

    /// Recomputes the proposal tables (per-edge acceptance thresholds,
    /// per-node rejection thresholds) of every row from the current CSR +
    /// weights. O(n + m): the cold build's pass — a patch re-derives the
    /// rows around what changed instead.
    fn recompute_tables(&mut self) {
        let upper = self.live.len();
        resize_retained(&mut self.accept, self.adjacency.len(), 0);
        resize_retained(&mut self.reject, upper, 0);
        for i in 0..upper {
            let degree = self.offsets[i + 1] - self.offsets[i];
            self.reject[i] = reject_threshold(degree_u32(degree));
            self.derive_row(i);
        }
    }

    /// Derives the acceptance thresholds of row `i` from the current CSR +
    /// weights: the one place the tables evaluate the Eq. 12 ratio.
    /// xtask: no-alloc
    fn derive_row(&mut self, i: usize) {
        let Self {
            offsets,
            adjacency,
            accept,
            weights,
            ..
        } = self;
        let (start, end) = (offsets[i], offsets[i + 1]);
        let d_i = (end - start) as f64;
        let w_i = weights[i].max(ZERO_WEIGHT_FLOOR);
        for (slot, nb) in accept[start..end].iter_mut().zip(&adjacency[start..end]) {
            let j = nb.0 as usize;
            let d_j = (offsets[j + 1] - offsets[j]) as f64;
            *slot = accept_threshold((weights[j] * d_i) / (w_i * d_j));
        }
    }

    /// Brings the CSR rows, liveness and rejection thresholds up to the
    /// graph's state, given the `dirty` ids (sorted, deduped, complete —
    /// the contract of [`Graph::changes_since`]) and an id space that did
    /// not shrink. In place: the clean spans between dirty ids slide to
    /// their new positions, carrying their thresholds, and only dirty
    /// rows are re-read from the graph. Clean rows cannot reference
    /// removed nodes because `remove_node` marks all former neighbors
    /// dirty. Dirty rows' thresholds are left for the caller to derive.
    /// xtask: no-alloc
    fn patch_rows(&mut self, g: &Graph, dirty: &[NodeId]) {
        let Some(first) = dirty.first().map(|d| d.0 as usize) else {
            return;
        };
        let upper = g.id_upper_bound();
        let old_total = self.adjacency.len();
        // Ids past the old bound are all dirty (`add_node` journals them);
        // their old rows are empty ones at the old end.
        resize_retained(&mut self.offsets, upper + 1, old_total);
        resize_retained(&mut self.live, upper, false);
        resize_retained(&mut self.reject, upper, 0);
        let Self {
            offsets,
            adjacency,
            accept,
            reject,
            live,
            ..
        } = self;

        let (gained, lost) = dirty.iter().fold((0, 0), |(gained, lost), &d| {
            let i = d.0 as usize;
            (gained + g.degree(d), lost + offsets[i + 1] - offsets[i])
        });
        let total = old_total + gained - lost;
        if total > old_total {
            resize_retained(adjacency, total, NodeId(0));
            resize_retained(accept, total, 0);
        }

        // The clean span after `dirty[r]`, as its old `(start, end)`.
        let span_after = |offsets: &[usize], r: usize| {
            let start = offsets[dirty[r].0 as usize + 1];
            let end = dirty
                .get(r + 1)
                .map_or(old_total, |next| offsets[next.0 as usize]);
            (start, end)
        };
        // A span moving left lands on dirty rows' old slots and on slots
        // that spans before it have left; one moving right, on those that
        // spans after it have left — so left-movers go first to last,
        // then right-movers last to first, and nothing clean is
        // overwritten before it has moved.
        let mut write = offsets[first];
        for (r, &d) in dirty.iter().enumerate() {
            write += g.degree(d);
            let (start, end) = span_after(offsets, r);
            if write < start {
                adjacency.copy_within(start..end, write);
                accept.copy_within(start..end, write);
            }
            write += end - start;
        }
        let mut write_end = total;
        for (r, &d) in dirty.iter().enumerate().rev() {
            let (start, end) = span_after(offsets, r);
            let to = write_end - (end - start);
            if to > start {
                adjacency.copy_within(start..end, to);
                accept.copy_within(start..end, to);
            }
            write_end = to - g.degree(d);
        }
        adjacency.truncate(total);
        accept.truncate(total);

        // Dirty rows, and the row starts after each re-based by how far
        // its span moved (`wrapping`: the distance may be negative).
        let mut write = offsets[first];
        for (r, &d) in dirty.iter().enumerate() {
            let i = d.0 as usize;
            let (start, end) = span_after(offsets, r);
            let row = g.neighbors(d);
            offsets[i] = write;
            adjacency[write..write + row.len()].copy_from_slice(row);
            live[i] = g.contains(d);
            reject[i] = reject_threshold(degree_u32(row.len()));
            write += row.len();
            let moved = write.wrapping_sub(start);
            let next = dirty.get(r + 1).map_or(upper + 1, |next| next.0 as usize);
            if moved != 0 {
                for row_start in &mut offsets[i + 1..next] {
                    *row_start = row_start.wrapping_add(moved);
                }
            }
            write += end - start;
        }
    }

    /// Re-derives the thresholds of row `c` and of its neighbours' rows —
    /// every row a change of `c`'s weight or degree can have moved a ratio
    /// in — skipping rows whose bit in `done` says this patch has them.
    /// xtask: no-alloc
    fn derive_around(&mut self, c: usize, done: &mut [u64]) {
        self.derive_once(c, done);
        for k in self.offsets[c]..self.offsets[c + 1] {
            self.derive_once(self.adjacency[k].0 as usize, done);
        }
    }

    /// xtask: no-alloc
    fn derive_once(&mut self, i: usize, done: &mut [u64]) {
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        if done[word] & bit == 0 {
            done[word] |= bit;
            self.derive_row(i);
        }
    }
}

/// Resizes one of the cache's retained arrays, enlarging its allocation
/// by an eighth at a time rather than `Vec`'s doubling (the first
/// allocation is exact). These are the operator's largest buffers, the
/// id space and edge count of a churning overlay creep rather than jump,
/// and a doubled `accept` alone would hold 4.8 MB idle at 10⁵ nodes.
/// A node degree as the `u32` span of the proposal draw: a degree counts
/// `u32`-numbered nodes, so it always fits.
fn degree_u32(degree: usize) -> u32 {
    u32::try_from(degree).unwrap_or(u32::MAX)
}

fn resize_retained<T: Clone>(v: &mut Vec<T>, len: usize, fill: T) {
    if len > v.capacity() {
        grow_retained(v, len);
    }
    v.resize(len, fill);
}

#[cold]
fn grow_retained<T>(v: &mut Vec<T>, len: usize) {
    let capacity = len.max(v.capacity() + v.capacity() / 8);
    v.reserve_exact(capacity - v.len());
}

/// How a [`SnapshotCache::refresh`] satisfied the occasion's request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SnapshotRefresh {
    /// Cold path: the full CSR + weight + acceptance tables were
    /// (re)materialized from the graph.
    Built,
    /// Cache hit: same graph epoch, byte-identical weights — the cached
    /// snapshot was returned with zero writes.
    Reused,
    /// Incremental path: the mutation journal covered the delta, so only
    /// dirty CSR rows were re-read (clean spans moved in place) and only
    /// the thresholds around changed nodes re-derived.
    Patched,
}

/// Epoch-keyed cache of the last [`OccasionSnapshot`], owned by a
/// `SamplingOperator`. All scratch buffers are retained across
/// occasions, so the steady state (unchanged overlay) allocates nothing
/// and writes nothing beyond the weight re-evaluation.
#[derive(Debug, Clone, Default)]
pub(crate) struct SnapshotCache {
    snapshot: OccasionSnapshot,
    /// Whether `snapshot` reflects some prior refresh of *this* cache.
    valid: bool,
    /// Graph mutation epoch the snapshot was captured at.
    epoch: u64,
    /// Per-occasion weight re-evaluation target; after a patch, the
    /// weights the snapshot held before it.
    weights_scratch: Vec<f64>,
    /// One bit per row: thresholds the current patch has re-derived.
    derived: Vec<u64>,
}

impl SnapshotCache {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Drops the cached snapshot and releases every retained buffer.
    /// Required whenever the operator may be re-pointed at a *different*
    /// graph: epochs are per-`Graph`-instance and two graphs can share
    /// an epoch value while disagreeing on topology.
    pub(crate) fn invalidate(&mut self) {
        *self = Self::new();
    }

    /// The graph epoch the cached snapshot was captured at, or `None`
    /// while invalid.
    #[cfg(test)]
    pub(crate) fn key(&self) -> Option<u64> {
        self.valid.then_some(self.epoch)
    }

    /// Produces the occasion snapshot for the graph's current state,
    /// reusing / patching the cached one when `caching` is on and the
    /// key matches / the journal covers the delta.
    ///
    /// # Errors
    ///
    /// [`SamplingError::InvalidWeight`] if `w` yields a negative or
    /// non-finite weight for any live node; the cache is invalidated so
    /// a later refresh cannot serve stale state.
    pub(crate) fn refresh<W: NodeWeight>(
        &mut self,
        g: &Graph,
        w: &W,
        caching: bool,
    ) -> Result<(&OccasionSnapshot, SnapshotRefresh)> {
        let _span = digest_telemetry::span(Stage::SnapshotBuild);
        let epoch = g.epoch();
        if let Err(err) = capture_weights(g, w, &mut self.weights_scratch) {
            self.invalidate();
            return Err(err);
        }
        if caching && self.valid {
            if epoch == self.epoch && self.weights_scratch == self.snapshot.weights {
                telemetry::SAMPLING_SNAPSHOT_REUSED.inc();
                return Ok((&self.snapshot, SnapshotRefresh::Reused));
            }
            // Ids are never reused, so the id space of the graph this
            // cache is bound to cannot shrink; a smaller one is another
            // graph's and gets a cold build.
            let grown = g.id_upper_bound() >= self.snapshot.live.len();
            if let Some(dirty) = g.changes_since(self.epoch).filter(|_| grown) {
                self.patch(g, &dirty);
                self.epoch = epoch;
                telemetry::SAMPLING_SNAPSHOT_PATCHED.inc();
                return Ok((&self.snapshot, SnapshotRefresh::Patched));
            }
        }
        self.rebuild_topology(g);
        std::mem::swap(&mut self.snapshot.weights, &mut self.weights_scratch);
        self.snapshot.recompute_tables();
        self.epoch = epoch;
        self.valid = true;
        telemetry::SAMPLING_SNAPSHOT_BUILT.inc();
        Ok((&self.snapshot, SnapshotRefresh::Built))
    }

    /// Full CSR + liveness rebuild from the graph, reusing the
    /// snapshot's existing allocations.
    fn rebuild_topology(&mut self, g: &Graph) {
        let upper = g.id_upper_bound();
        let snap = &mut self.snapshot;
        snap.offsets.clear();
        resize_retained(&mut snap.offsets, upper + 1, 0);
        snap.live.clear();
        resize_retained(&mut snap.live, upper, false);
        for v in g.nodes() {
            let i = v.0 as usize;
            if let (Some(live), Some(deg)) = (snap.live.get_mut(i), snap.offsets.get_mut(i + 1)) {
                *live = true;
                *deg = g.neighbors(v).len();
            }
        }
        for i in 0..upper {
            let prev = snap.offsets.get(i).copied().unwrap_or(0);
            if let Some(next) = snap.offsets.get_mut(i + 1) {
                *next += prev;
            }
        }
        let total = snap.offsets.get(upper).copied().unwrap_or(0);
        snap.adjacency.clear();
        resize_retained(&mut snap.adjacency, total, NodeId(0));
        for v in g.nodes() {
            // `nodes()` iterates the dense live list, which is *not*
            // id-ordered after churn — write each row at its offset.
            let i = v.0 as usize;
            let row = g.neighbors(v);
            let start = snap.offsets.get(i).copied().unwrap_or(0);
            if let Some(dst) = snap.adjacency.get_mut(start..start + row.len()) {
                dst.copy_from_slice(row);
            }
        }
    }

    /// Incremental refresh from the journal's `dirty` ids and the freshly
    /// captured `weights_scratch`: every array ends byte-equal to a cold
    /// build's. Work is proportional to the changed set `C` — dirty ids
    /// plus ids whose weight bits changed — and its neighbourhood; the
    /// weight comparison is the one pass over all ids.
    /// xtask: no-alloc
    fn patch(&mut self, g: &Graph, dirty: &[NodeId]) {
        let snap = &mut self.snapshot;
        let old_upper = snap.live.len();
        snap.patch_rows(g, dirty);
        std::mem::swap(&mut snap.weights, &mut self.weights_scratch);

        self.derived.clear();
        resize_retained(&mut self.derived, snap.live.len().div_ceil(64), 0);
        for d in dirty {
            snap.derive_around(d.0 as usize, &mut self.derived);
        }
        // Ids past the old bound were all dirty.
        for i in 0..old_upper {
            if self.weights_scratch[i].to_bits() != snap.weights[i].to_bits() {
                snap.derive_around(i, &mut self.derived);
            }
        }
    }

    /// How many rows the last patch re-derived thresholds for.
    #[cfg(test)]
    fn rows_derived(&self) -> usize {
        self.derived.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// Evaluates `w` over every live node into `scratch` (0.0 for dead id
/// slots), validating eagerly.
fn capture_weights<W: NodeWeight>(g: &Graph, w: &W, scratch: &mut Vec<f64>) -> Result<()> {
    let upper = g.id_upper_bound();
    scratch.clear();
    resize_retained(scratch, upper, 0.0);
    for v in g.nodes() {
        let weight = w.weight(v);
        if !weight.is_finite() || weight < 0.0 {
            return Err(SamplingError::InvalidWeight { node: v, weight });
        }
        if let Some(slot) = scratch.get_mut(v.0 as usize) {
            *slot = weight;
        }
    }
    Ok(())
}

/// The whole-graph patch `SnapshotCache::patch` replaced — every CSR row
/// re-copied into double buffers with a binary search per node, then
/// every threshold recomputed — kept verbatim as the model the proptest
/// below holds the in-place patch to.
#[cfg(test)]
mod reference {
    use super::{accept_threshold, degree_u32, reject_threshold, OccasionSnapshot};
    use crate::metropolis::ZERO_WEIGHT_FLOOR;
    use digest_net::{Graph, NodeId};

    /// Patches `snap` to `g`'s state given the journal's `dirty` ids and
    /// the newly captured `weights`.
    pub(super) fn patch(
        snap: &mut OccasionSnapshot,
        g: &Graph,
        dirty: &[NodeId],
        weights: Vec<f64>,
    ) {
        patch_topology(snap, g, dirty);
        snap.weights = weights;
        recompute_tables(snap);
    }

    fn node_id(i: usize) -> NodeId {
        NodeId(u32::try_from(i).unwrap_or(u32::MAX))
    }

    fn patch_topology(snap: &mut OccasionSnapshot, g: &Graph, dirty: &[NodeId]) {
        let mut offsets_scratch = Vec::new();
        let mut adjacency_scratch = Vec::new();
        let upper = g.id_upper_bound();
        let old_upper = snap.live.len();
        let is_dirty = |i: usize| dirty.binary_search(&node_id(i)).is_ok();

        snap.live.resize(upper, false);
        snap.live.truncate(upper);
        for &d in dirty {
            let i = d.0 as usize;
            if let Some(live) = snap.live.get_mut(i) {
                *live = g.contains(d);
            }
        }

        offsets_scratch.clear();
        offsets_scratch.reserve(upper + 1);
        offsets_scratch.push(0);
        let mut running = 0usize;
        for i in 0..upper {
            let deg = if is_dirty(i) {
                if snap.live.get(i).copied().unwrap_or(false) {
                    g.degree(node_id(i))
                } else {
                    0
                }
            } else if i < old_upper {
                snap.offsets
                    .get(i + 1)
                    .copied()
                    .unwrap_or(0)
                    .saturating_sub(snap.offsets.get(i).copied().unwrap_or(0))
            } else {
                0
            };
            running += deg;
            offsets_scratch.push(running);
        }

        adjacency_scratch.clear();
        adjacency_scratch.reserve(running);
        for i in 0..upper {
            if is_dirty(i) {
                if snap.live.get(i).copied().unwrap_or(false) {
                    adjacency_scratch.extend_from_slice(g.neighbors(node_id(i)));
                }
            } else if i < old_upper {
                let start = snap.offsets.get(i).copied().unwrap_or(0);
                let end = snap.offsets.get(i + 1).copied().unwrap_or(0);
                adjacency_scratch.extend_from_slice(snap.adjacency.get(start..end).unwrap_or(&[]));
            }
        }

        std::mem::swap(&mut snap.offsets, &mut offsets_scratch);
        std::mem::swap(&mut snap.adjacency, &mut adjacency_scratch);
    }

    fn recompute_tables(snap: &mut OccasionSnapshot) {
        snap.accept.clear();
        snap.accept.reserve(snap.adjacency.len());
        let upper = snap.live.len();
        snap.reject.clear();
        snap.reject.reserve(upper);
        for i in 0..upper {
            let (start, len) = (
                snap.offsets.get(i).copied().unwrap_or(0),
                snap.offsets
                    .get(i + 1)
                    .copied()
                    .unwrap_or(0)
                    .saturating_sub(snap.offsets.get(i).copied().unwrap_or(0)),
            );
            snap.reject.push(reject_threshold(degree_u32(len)));
            let d_i = len as f64;
            let w_i = snap
                .weights
                .get(i)
                .copied()
                .unwrap_or(0.0)
                .max(ZERO_WEIGHT_FLOOR);
            for k in start..start + len {
                let j = snap.adjacency.get(k).map_or(0, |n| n.0 as usize);
                let w_j = snap.weights.get(j).copied().unwrap_or(0.0);
                let d_j = (snap
                    .offsets
                    .get(j + 1)
                    .copied()
                    .unwrap_or(0)
                    .saturating_sub(snap.offsets.get(j).copied().unwrap_or(0)))
                    as f64;
                snap.accept
                    .push(accept_threshold((w_j * d_i) / (w_i * d_j)));
            }
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
    use digest_net::topology;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::collections::BTreeSet;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    fn assert_snapshots_equal(a: &OccasionSnapshot, b: &OccasionSnapshot) {
        assert_eq!(a.offsets, b.offsets);
        assert_eq!(a.adjacency, b.adjacency);
        assert_eq!(a.weights, b.weights);
        assert_eq!(a.live, b.live);
        assert_eq!(a.accept, b.accept);
        assert_eq!(a.reject, b.reject);
    }

    #[test]
    fn snapshot_matches_graph_views() {
        let mut g = topology::barabasi_albert(40, 2, &mut rng(7)).unwrap();
        g.remove_node(NodeId(11)).unwrap();
        let w = |v: NodeId| f64::from(v.0) + 0.5;
        let snap = OccasionSnapshot::build(&g, &w).unwrap();
        for v in g.nodes() {
            assert!(snap.contains(v));
            assert_eq!(snap.neighbors(v), g.neighbors(v));
            assert_eq!(snap.degree(v), g.degree(v));
            assert_eq!(snap.weight(v), f64::from(v.0) + 0.5);
        }
        assert!(!snap.contains(NodeId(11)));
        assert!(snap.neighbors(NodeId(11)).is_empty());
        assert!(!snap.contains(NodeId(999)));
    }

    #[test]
    fn snapshot_rejects_invalid_weights_eagerly() {
        let g = topology::ring(6).unwrap();
        let w = |v: NodeId| if v.0 == 3 { f64::NAN } else { 1.0 };
        assert!(matches!(
            OccasionSnapshot::build(&g, &w),
            Err(SamplingError::InvalidWeight {
                node: NodeId(3),
                ..
            })
        ));
        let w = |v: NodeId| if v.0 == 2 { -1.0 } else { 1.0 };
        assert!(OccasionSnapshot::build(&g, &w).is_err());
    }

    /// The acceptance table must hold exactly the threshold derived
    /// from the ratio the live walk computes per step (PAPER.md §V-A
    /// Eq. 12), folded through the same [`accept_threshold`].
    #[test]
    fn acceptance_table_is_bit_identical_to_live_expression() {
        let g = topology::barabasi_albert(80, 3, &mut rng(5)).unwrap();
        let w = |v: NodeId| f64::from(v.0 % 7) + 0.25;
        let snap = OccasionSnapshot::build(&g, &w).unwrap();
        let mut below_one = 0usize;
        for v in g.nodes() {
            let (start, len) = snap.row(v);
            let d_i = g.degree(v) as f64;
            let w_i = w(v).max(ZERO_WEIGHT_FLOOR);
            for k in 0..len {
                let j = snap.neighbor_at(start + k);
                let live = (w(j) * d_i) / (w_i * (g.degree(j) as f64));
                assert_eq!(snap.accept_threshold_at(start + k), accept_threshold(live));
                if live < 1.0 {
                    below_one += 1;
                }
            }
        }
        // The graph must actually exercise the sub-unity branch.
        assert!(below_one > 0);
    }

    /// The per-node rejection table must hold exactly the 32-bit Lemire
    /// threshold `2³² mod d` of every degree the shipped overlays have.
    #[test]
    fn reject_table_holds_the_32_bit_lemire_threshold_of_every_degree() {
        let graphs = [
            topology::barabasi_albert(200, 3, &mut rng(6)).unwrap(),
            topology::mesh(7, 9, false).unwrap(),
            topology::mesh(6, 6, true).unwrap(),
        ];
        for g in &graphs {
            let snap = OccasionSnapshot::build(g, &|_: NodeId| 1.0).unwrap();
            for v in g.nodes() {
                let span = u32::try_from(g.degree(v)).unwrap();
                assert_eq!(snap.reject_threshold_of(v), span.wrapping_neg() % span);
            }
        }
    }

    #[test]
    fn cache_reuses_on_unchanged_graph_and_weights() {
        let g = topology::barabasi_albert(60, 2, &mut rng(3)).unwrap();
        let w = |_: NodeId| 1.0;
        let mut cache = SnapshotCache::new();
        let (_, first) = cache.refresh(&g, &w, true).unwrap();
        assert_eq!(first, SnapshotRefresh::Built);
        let key = cache.key().unwrap();
        let (_, second) = cache.refresh(&g, &w, true).unwrap();
        assert_eq!(second, SnapshotRefresh::Reused);
        assert_eq!(cache.key().unwrap(), key);
    }

    #[test]
    fn cache_disabled_always_rebuilds() {
        let g = topology::ring(12).unwrap();
        let w = |_: NodeId| 1.0;
        let mut cache = SnapshotCache::new();
        for _ in 0..3 {
            let (_, kind) = cache.refresh(&g, &w, false).unwrap();
            assert_eq!(kind, SnapshotRefresh::Built);
        }
    }

    /// Patched refreshes after arbitrary churn must agree exactly with a
    /// cold build of the mutated graph.
    #[test]
    fn patched_snapshot_equals_cold_build_after_churn() {
        let mut g = topology::barabasi_albert(50, 3, &mut rng(9)).unwrap();
        let w = |v: NodeId| f64::from(v.0 % 4) + 1.0;
        let mut cache = SnapshotCache::new();
        cache.refresh(&g, &w, true).unwrap();

        // Add a node with edges, remove a node, rewire an edge.
        let fresh = g.add_node();
        g.add_edge(fresh, NodeId(0)).unwrap();
        g.add_edge(fresh, NodeId(7)).unwrap();
        g.remove_node(NodeId(13)).unwrap();
        let a = NodeId(2);
        let b = g.neighbors(a)[0];
        g.remove_edge(a, b).unwrap();
        g.add_edge(a, NodeId(21)).unwrap();

        let (_, kind) = cache.refresh(&g, &w, true).unwrap();
        assert_eq!(kind, SnapshotRefresh::Patched);
        let cold = OccasionSnapshot::build(&g, &w).unwrap();
        assert_snapshots_equal(&cache.snapshot, &cold);
    }

    /// A weight change alone (same epoch) must also invalidate reuse and
    /// produce the cold-build snapshot.
    #[test]
    fn weight_change_alone_triggers_patch() {
        let g = topology::ring(20).unwrap();
        let mut cache = SnapshotCache::new();
        cache.refresh(&g, &|_: NodeId| 1.0, true).unwrap();
        let w2 = |v: NodeId| f64::from(v.0) + 2.0;
        let (_, kind) = cache.refresh(&g, &w2, true).unwrap();
        assert_eq!(kind, SnapshotRefresh::Patched);
        let cold = OccasionSnapshot::build(&g, &w2).unwrap();
        assert_snapshots_equal(&cache.snapshot, &cold);
    }

    /// Once the journal overflows, `changes_since` loses coverage and
    /// the cache must fall back to a full rebuild — still correct.
    #[test]
    fn journal_overflow_falls_back_to_full_rebuild() {
        let mut g = topology::ring(16).unwrap();
        let w = |_: NodeId| 1.0;
        let mut cache = SnapshotCache::new();
        cache.refresh(&g, &w, true).unwrap();
        // Far more mutations than the journal retains.
        for _ in 0..4096 {
            let v = g.add_node();
            g.add_edge(v, NodeId(0)).unwrap();
            g.remove_node(v).unwrap();
        }
        let (_, kind) = cache.refresh(&g, &w, true).unwrap();
        assert_eq!(kind, SnapshotRefresh::Built);
        let cold = OccasionSnapshot::build(&g, &w).unwrap();
        assert_snapshots_equal(&cache.snapshot, &cold);
    }

    /// Pins the journal-bound decision from the cache's point of view:
    /// a small inter-occasion delta patches, while a delta past the
    /// journal bound must produce `Built` — and the rebuilt snapshot
    /// matches a cold build (never a silently-reused stale CSR).
    #[test]
    fn journal_bound_decides_patch_vs_build() {
        let mut g = topology::ring(16).unwrap();
        let w = |_: NodeId| 1.0;
        let mut cache = SnapshotCache::new();
        cache.refresh(&g, &w, true).unwrap();

        // Under the bound: a handful of mutations → Patched.
        let v = g.add_node();
        g.add_edge(v, NodeId(0)).unwrap();
        let (_, kind) = cache.refresh(&g, &w, true).unwrap();
        assert_eq!(kind, SnapshotRefresh::Patched);

        // Past the bound (JOURNAL_CAP entries): same edge toggled far
        // more times than the journal retains → Built.
        for _ in 0..1200 {
            g.add_edge(v, NodeId(1)).unwrap();
            g.remove_edge(v, NodeId(1)).unwrap();
        }
        let (_, kind) = cache.refresh(&g, &w, true).unwrap();
        assert_eq!(kind, SnapshotRefresh::Built);
        assert_snapshots_equal(&cache.snapshot, &OccasionSnapshot::build(&g, &w).unwrap());
    }

    /// Re-pointing an un-invalidated cache at a *different* graph whose
    /// epoch is lower than the cached mark must force `Built`. Before
    /// `Graph::changes_since` rejected future marks this path silently
    /// "patched" with an empty dirty set and served the previous
    /// graph's adjacency.
    #[test]
    fn repointed_graph_with_lower_epoch_forces_build() {
        // Drive the first graph's epoch high.
        let mut old = topology::ring(24).unwrap();
        for _ in 0..50 {
            let a = NodeId(0);
            let b = NodeId(5);
            old.remove_edge(a, b).ok();
            old.add_edge(a, b).ok();
        }
        let w = |_: NodeId| 1.0;
        let mut cache = SnapshotCache::new();
        cache.refresh(&old, &w, true).unwrap();

        // A fresh graph starts from epoch ~n: far below the cached mark.
        let fresh = topology::ring(8).unwrap();
        assert!(fresh.epoch() < old.epoch());
        let (_, kind) = cache.refresh(&fresh, &w, true).unwrap();
        assert_eq!(
            kind,
            SnapshotRefresh::Built,
            "stale cache must rebuild for a graph it has never seen"
        );
        assert_snapshots_equal(
            &cache.snapshot,
            &OccasionSnapshot::build(&fresh, &w).unwrap(),
        );
    }

    #[test]
    fn invalid_weight_invalidates_cache() {
        let g = topology::ring(8).unwrap();
        let mut cache = SnapshotCache::new();
        cache.refresh(&g, &|_: NodeId| 1.0, true).unwrap();
        assert!(cache.key().is_some());
        let bad = |v: NodeId| if v.0 == 1 { -3.0 } else { 1.0 };
        assert!(cache.refresh(&g, &bad, true).is_err());
        assert!(cache.key().is_none());
        // Next valid refresh is a cold build, not a stale reuse.
        let (_, kind) = cache.refresh(&g, &|_: NodeId| 1.0, true).unwrap();
        assert_eq!(kind, SnapshotRefresh::Built);
    }

    /// Growing then shrinking `id_upper_bound` across patches must stay
    /// consistent with cold builds (regression guard for resize logic).
    #[test]
    fn patch_handles_upper_bound_growth_and_shrink() {
        let mut g = topology::ring(10).unwrap();
        let w = |_: NodeId| 1.0;
        let mut cache = SnapshotCache::new();
        cache.refresh(&g, &w, true).unwrap();

        let v = g.add_node();
        g.add_edge(v, NodeId(4)).unwrap();
        let (_, kind) = cache.refresh(&g, &w, true).unwrap();
        assert_eq!(kind, SnapshotRefresh::Patched);
        assert_snapshots_equal(&cache.snapshot, &OccasionSnapshot::build(&g, &w).unwrap());

        g.remove_node(v).unwrap();
        let (_, kind) = cache.refresh(&g, &w, true).unwrap();
        assert_eq!(kind, SnapshotRefresh::Patched);
        assert_snapshots_equal(&cache.snapshot, &OccasionSnapshot::build(&g, &w).unwrap());
    }

    /// One edit to the overlay or the weight table between refreshes;
    /// node operands index the live list (mod its length).
    #[derive(Debug, Clone)]
    enum Op {
        /// A node joins with one link (grows the id space).
        Join(usize),
        /// A node joins and attaches to the highest-degree node.
        JoinHub,
        Leave(usize),
        AddEdge(usize, usize),
        RemoveEdge(usize),
        SetWeight(usize, f64),
        /// One edge toggled until the journal overflows.
        Storm,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0usize..64).prop_map(Op::Join),
            Just(Op::JoinHub),
            (0usize..64).prop_map(Op::Leave),
            (0usize..64, 0usize..64).prop_map(|(a, b)| Op::AddEdge(a, b)),
            (0usize..64).prop_map(Op::RemoveEdge),
            (0usize..64, 0.0f64..4.0).prop_map(|(k, w)| Op::SetWeight(k, w)),
            (0usize..64, 0.0f64..4.0).prop_map(|(k, w)| Op::SetWeight(k, w)),
            (0usize..64).prop_map(|k| Op::SetWeight(k, 0.0)),
            Just(Op::Storm),
        ]
    }

    fn apply(op: &Op, g: &mut Graph, table: &mut Vec<f64>) {
        let live: Vec<NodeId> = g.nodes().collect();
        let pick = |k: usize| live[k % live.len()];
        match *op {
            Op::Join(k) => {
                let v = g.add_node();
                g.add_edge(v, pick(k)).unwrap();
            }
            Op::JoinHub => {
                let hub = live.iter().copied().max_by_key(|&v| g.degree(v)).unwrap();
                let v = g.add_node();
                g.add_edge(v, hub).unwrap();
            }
            Op::Leave(k) if live.len() > 2 => g.remove_node(pick(k)).unwrap(),
            Op::Leave(_) => {}
            Op::AddEdge(a, b) => {
                let _ = g.add_edge(pick(a), pick(b));
            }
            Op::RemoveEdge(k) => {
                if let Some(&nb) = g.neighbors(pick(k)).first() {
                    g.remove_edge(pick(k), nb).unwrap();
                }
            }
            Op::SetWeight(k, w) => {
                let i = pick(k).0 as usize;
                if table.len() <= i {
                    table.resize(i + 1, 1.0);
                }
                table[i] = w;
            }
            Op::Storm => {
                let (a, b) = (pick(0), pick(1));
                let had = g.has_edge(a, b);
                for _ in 0..600 {
                    g.add_edge(a, b).unwrap();
                    g.remove_edge(a, b).unwrap();
                }
                if had {
                    g.add_edge(a, b).unwrap();
                }
            }
        }
    }

    /// `|C| + Σ_{c ∈ C} deg(c)` for the changed set between `before` and
    /// the graph's and `weights`' current state.
    fn change_bound(g: &Graph, dirty: &[NodeId], before: &[f64], weights: &[f64]) -> usize {
        let mut changed: BTreeSet<usize> = dirty.iter().map(|d| d.0 as usize).collect();
        changed.extend((0..before.len()).filter(|&i| before[i].to_bits() != weights[i].to_bits()));
        changed
            .iter()
            .map(|&c| 1 + g.degree(NodeId(c as u32)))
            .sum()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Arbitrary edits between refreshes: whatever way a refresh is
        /// served, all six arrays equal a cold build's; a patch also
        /// equals the whole-graph patch it replaced, and re-derives no
        /// more rows than the changed set and its neighbours have.
        #[test]
        fn every_refresh_equals_a_cold_build(
            shape in (0u32..3, 8usize..48, 0u64..1000),
            rounds in prop::collection::vec(prop::collection::vec(op_strategy(), 0..7), 1..12),
        ) {
            let (kind, n, seed) = shape;
            let mut g = match kind {
                0 => topology::barabasi_albert(n, 2, &mut rng(seed)).unwrap(),
                1 => topology::ring(n).unwrap(),
                _ => topology::star(n).unwrap(),
            };
            let mut table: Vec<f64> = Vec::new();
            let mut cache = SnapshotCache::new();
            cache.refresh(&g, &|_: NodeId| 1.0, true).unwrap();
            for ops in &rounds {
                let before = cache.snapshot.clone();
                let mark = cache.key().unwrap();
                for op in ops {
                    apply(op, &mut g, &mut table);
                }
                let w = |v: NodeId| table.get(v.0 as usize).copied().unwrap_or(1.0);
                let (_, served) = cache.refresh(&g, &w, true).unwrap();
                let cold = OccasionSnapshot::build(&g, &w).unwrap();
                assert_snapshots_equal(&cache.snapshot, &cold);

                let unchanged = g.epoch() == mark && cold.weights == before.weights;
                let stormed = ops.iter().any(|op| matches!(op, Op::Storm));
                match served {
                    SnapshotRefresh::Reused => {
                        prop_assert!(unchanged);
                        prop_assert_eq!(cache.key().unwrap(), mark);
                    }
                    SnapshotRefresh::Built => prop_assert!(stormed),
                    SnapshotRefresh::Patched => {
                        prop_assert!(!unchanged);
                        let dirty = g.changes_since(mark).unwrap();
                        let bound = change_bound(&g, &dirty, &before.weights, &cold.weights);
                        prop_assert!(cache.rows_derived() <= bound);
                        let mut model = before;
                        reference::patch(&mut model, &g, &dirty, cold.weights.clone());
                        assert_snapshots_equal(&cache.snapshot, &model);
                    }
                }
            }
        }
    }

    /// A weight that changes on a node the journal never saw must still
    /// reach the rows pointing at that node, and no others.
    #[test]
    fn weight_change_on_a_clean_node_rederives_its_neighbourhood_only() {
        let g = topology::barabasi_albert(300, 3, &mut rng(21)).unwrap();
        let mut cache = SnapshotCache::new();
        cache.refresh(&g, &|_: NodeId| 1.0, true).unwrap();
        let target = NodeId(150);
        let w = |v: NodeId| if v == target { 0.125 } else { 1.0 };
        let (_, kind) = cache.refresh(&g, &w, true).unwrap();
        assert_eq!(kind, SnapshotRefresh::Patched);
        assert_eq!(cache.rows_derived(), 1 + g.degree(target));
        assert_snapshots_equal(&cache.snapshot, &OccasionSnapshot::build(&g, &w).unwrap());
    }

    /// The O(change) property as a count: one join and one leave on a
    /// 20 000-node overlay re-derive the rows of the changed set and its
    /// neighbours — a few percent of the table even when a hub is among
    /// them — and move everything else without looking at it.
    #[test]
    fn one_join_and_one_leave_rederive_a_sliver_of_a_large_overlay() {
        let mut g = topology::barabasi_albert(20_000, 3, &mut rng(22)).unwrap();
        let w = |v: NodeId| f64::from(v.0 % 5) + 1.0;
        let mut cache = SnapshotCache::new();
        cache.refresh(&g, &w, true).unwrap();
        let before = cache.snapshot.weights.clone();
        let mark = g.epoch();

        let hub = g.nodes().max_by_key(|&v| g.degree(v)).unwrap();
        let joiner = g.add_node();
        for target in [hub, NodeId(4_321), NodeId(17)] {
            g.add_edge(joiner, target).unwrap();
        }
        g.remove_node(NodeId(9_876)).unwrap();

        let (_, kind) = cache.refresh(&g, &w, true).unwrap();
        assert_eq!(kind, SnapshotRefresh::Patched);
        let cold = OccasionSnapshot::build(&g, &w).unwrap();
        assert_snapshots_equal(&cache.snapshot, &cold);
        let dirty = g.changes_since(mark).unwrap();
        let rows = cache.rows_derived();
        assert!(
            rows > g.degree(hub),
            "the hub's neighbours point at a new degree"
        );
        assert!(rows <= change_bound(&g, &dirty, &before, &cold.weights));
        assert!(rows * 20 < g.id_upper_bound(), "{rows} rows re-derived");
    }
}
