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
//!   their new positions in bulk and only dirty rows are re-read from the
//!   graph. What stays O(n) is what a reuse pays too: capturing the
//!   weights and comparing them.
//! * **M–H thresholds memoised on first proposal.** As in the paper
//!   (§V-A), the Metropolis–Hastings ratio `(w_j·d_i) / (max(w_i, ε)·d_j)`
//!   of Eq. 12 is evaluated when a walk at `i` proposes `j` — with
//!   *bit-for-bit the same `f64` expression* as the live walk — and
//!   folded to the integer threshold [`crate::draw::accept`] decides
//!   against ([`accept_threshold`]: ratio ≥ 1 accepts without a draw,
//!   anything else is `⌈ratio·2⁵³⌉`). The snapshot keeps it in a per-edge
//!   memo cell, so later proposals of the edge are an array read and an
//!   integer compare. A cell answers only under the stamp it was written
//!   at, and every refresh that changes the snapshot bumps the stamp, so
//!   no refresh derives a threshold: a churning overlay's walks propose a
//!   small share of its edges between two refreshes. A cell's value is a
//!   pure function of the frozen arrays, so a walk that finds it filled
//!   and one that fills it decide, *and consume the RNG stream*, alike.
//!   The per-node Lemire rejection threshold of the proposal draw
//!   ([`reject_threshold`], a modulo) is precomputed per refresh.
//!
//! Every refresh outcome is counted (`sampling.snapshot.built/reused/
//! patched`) and timed under [`Stage::SnapshotBuild`]. The cache is
//! bound to one [`Graph`] *instance*: epochs from different graphs are
//! incomparable, so `SamplingOperator::reset` must (and does) drop the
//! cache before an operator may be pointed at another graph.

use crate::draw::{accept_threshold, reject_threshold, ACCEPT_ALWAYS, THRESHOLD_BITS};
use crate::error::SamplingError;
use crate::metropolis::ZERO_WEIGHT_FLOOR;
use crate::weight::NodeWeight;
use crate::Result;
use digest_net::{Graph, NodeId};
use digest_telemetry::{registry as telemetry, Stage};
use std::sync::atomic::{AtomicU64, Ordering};

/// The last stamp of the acceptance memo; the one after it is 1 again,
/// with every cell zeroed.
const STAMP_LIMIT: u64 = (1 << (64 - THRESHOLD_BITS)) - 1;

/// One acceptance-memo cell, `stamp << THRESHOLD_BITS | threshold` in one
/// word, so it never tears. Every writer under a stamp stores the same
/// word, and nothing else is published through a cell: its loads and
/// stores are `Relaxed`.
#[derive(Debug, Default)]
struct MemoCell(AtomicU64);

impl MemoCell {
    /// The threshold this cell holds under `stamp`, if any.
    /// xtask: no-alloc
    #[inline]
    fn get(&self, stamp: u64) -> Option<u64> {
        // relaxed-ok: a memo word (see the type); a stale one is a miss.
        let word = self.0.load(Ordering::Relaxed);
        (word >> THRESHOLD_BITS == stamp).then_some(word & ACCEPT_ALWAYS)
    }

    /// xtask: no-alloc
    fn set(&self, stamp: u64, threshold: u64) {
        let word = stamp << THRESHOLD_BITS | threshold;
        // relaxed-ok: a memo word (see the type); the batch's join orders
        // the store before the next refresh touches the memo.
        self.0.store(word, Ordering::Relaxed);
    }
}

impl Clone for MemoCell {
    /// Copies the word: the copy answers as the original does.
    fn clone(&self) -> Self {
        // relaxed-ok: a memo word (see the type); no batch runs during a
        // copy, the operator lends the snapshot to one under `&mut self`.
        Self(AtomicU64::new(self.0.load(Ordering::Relaxed)))
    }
}

#[cfg(test)]
thread_local! {
    /// Thresholds this thread's walks have derived (a test's own count:
    /// each test runs on its own thread).
    static DERIVED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Per-occasion view of the overlay: CSR adjacency, liveness,
/// pre-validated node weights, and a memo of the M–H acceptance
/// threshold per directed edge, all indexed by raw node id. Built (or
/// patched) once per occasion on the dispatching thread; shared by every
/// walk slot, which reads the arrays and fills memo cells. A clone copies
/// the cells' words.
#[derive(Debug, Clone, Default)]
pub(crate) struct OccasionSnapshot {
    /// CSR row offsets, `id_upper_bound + 1` entries.
    offsets: Vec<usize>,
    /// Concatenated neighbor lists.
    adjacency: Vec<NodeId>,
    /// Memo of the integer acceptance threshold of the directed edge
    /// stored at the same index in `adjacency`, `stamp << THRESHOLD_BITS
    /// | threshold`: [`accept_threshold`] of the ratio `(w_j·d_i) /
    /// (max(w_i, ε)·d_j)` that `MetropolisWalk::step` evaluates live
    /// (Eq. 12). A cell answers only while its stamp is `stamp`.
    accept: Vec<MemoCell>,
    /// The memo's current stamp, `1..=STAMP_LIMIT` once built; 0 marks a
    /// cell never derived.
    stamp: u64,
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

    /// The integer acceptance threshold of the edge at CSR index `idx`,
    /// proposed by a walk at `from` (whose row holds `idx`):
    /// [`accept_threshold`] of the ratio the live walk computes, which
    /// [`crate::draw::accept`] decides against. Read from the memo, or
    /// derived and memoised on the edge's first proposal under this stamp.
    /// xtask: no-alloc
    #[inline]
    pub(crate) fn accept_threshold_at(&self, idx: usize, from: NodeId) -> u64 {
        match self.accept.get(idx) {
            Some(cell) => cell
                .get(self.stamp)
                .unwrap_or_else(|| self.derive(cell, idx, from)),
            None => 0,
        }
    }

    /// The memo's miss path: evaluates the Eq. 12 ratio of the edge at
    /// `idx` from `from` and stores its threshold under the current stamp.
    /// The value depends on the frozen arrays only, so concurrent walks
    /// that miss the same cell store the same word.
    /// xtask: no-alloc
    #[cold]
    #[inline(never)]
    fn derive(&self, cell: &MemoCell, idx: usize, from: NodeId) -> u64 {
        let degree = |v: usize| (self.offsets[v + 1] - self.offsets[v]) as f64;
        let (i, j) = (from.0 as usize, self.adjacency[idx].0 as usize);
        let w_i = self.weights[i].max(ZERO_WEIGHT_FLOOR);
        let threshold = accept_threshold((self.weights[j] * degree(i)) / (w_i * degree(j)));
        cell.set(self.stamp, threshold);
        #[cfg(test)]
        DERIVED.with(|n| n.set(n.get() + 1));
        threshold
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

    /// Every acceptance threshold in CSR order, forced through the lookup
    /// row by row — filling the memo as walks would.
    #[cfg(test)]
    pub(crate) fn forced_accept(&self) -> Vec<u64> {
        let mut table = Vec::with_capacity(self.adjacency.len());
        for i in 0..self.live.len() {
            let v = NodeId(u32::try_from(i).unwrap_or(u32::MAX));
            let (start, len) = self.row(v);
            table.extend((start..start + len).map(|idx| self.accept_threshold_at(idx, v)));
        }
        table
    }

    /// Forgets every memoised threshold in O(1) — by moving to the next
    /// stamp — and sizes the memo to the edge count. Wrapping back to
    /// stamp 1 zeroes every cell first, so no cell outlives a full cycle.
    fn forget_thresholds(&mut self) {
        resize_retained(&mut self.accept, self.adjacency.len(), MemoCell::default());
        if self.stamp == STAMP_LIMIT {
            self.accept.fill(MemoCell::default());
            self.stamp = 0;
        }
        self.stamp += 1;
    }

    /// Brings the CSR rows, liveness and rejection thresholds up to the
    /// graph's state, given the `dirty` ids (sorted, deduped, complete —
    /// the contract of [`Graph::changes_since`]) and an id space that did
    /// not shrink. In place: the clean spans between dirty ids slide to
    /// their new positions and only dirty rows are re-read from the
    /// graph. Clean rows cannot reference removed nodes because
    /// `remove_node` marks all former neighbors dirty.
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
            }
            write += end - start;
        }
        let mut write_end = total;
        for (r, &d) in dirty.iter().enumerate().rev() {
            let (start, end) = span_after(offsets, r);
            let to = write_end - (end - start);
            if to > start {
                adjacency.copy_within(start..end, to);
            }
            write_end = to - g.degree(d);
        }
        adjacency.truncate(total);

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
}

/// A node degree as the `u32` span of the proposal draw: a degree counts
/// `u32`-numbered nodes, so it always fits.
fn degree_u32(degree: usize) -> u32 {
    u32::try_from(degree).unwrap_or(u32::MAX)
}

/// Resizes one of the cache's retained arrays, enlarging its allocation
/// by an eighth at a time rather than `Vec`'s doubling (the first
/// allocation is exact). These are the operator's largest buffers, the
/// id space and edge count of a churning overlay creep rather than jump,
/// and a doubled `accept` alone would hold 4.8 MB idle at 10⁵ nodes.
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
    /// Cold path: the full CSR, weights and rejection thresholds were
    /// (re)materialized from the graph and the acceptance memo forgotten.
    Built,
    /// Cache hit: same graph epoch, byte-identical weights — the cached
    /// snapshot was returned with zero writes.
    Reused,
    /// Incremental path: the mutation journal covered the delta, so only
    /// dirty CSR rows were re-read (clean spans moved in place); the
    /// acceptance memo was forgotten.
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
    /// Per-occasion weight re-evaluation target; after a refresh that
    /// took the new weights, the ones the snapshot held before it.
    weights_scratch: Vec<f64>,
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
        self.snapshot.forget_thresholds();
        self.epoch = epoch;
        self.valid = true;
        telemetry::SAMPLING_SNAPSHOT_BUILT.inc();
        Ok((&self.snapshot, SnapshotRefresh::Built))
    }

    /// Full CSR, liveness and rejection-threshold rebuild from the graph,
    /// reusing the snapshot's existing allocations.
    fn rebuild_topology(&mut self, g: &Graph) {
        let upper = g.id_upper_bound();
        let snap = &mut self.snapshot;
        snap.offsets.clear();
        resize_retained(&mut snap.offsets, upper + 1, 0);
        snap.live.clear();
        resize_retained(&mut snap.live, upper, false);
        resize_retained(&mut snap.reject, upper, 0);
        for v in g.nodes() {
            let i = v.0 as usize;
            if let (Some(live), Some(deg)) = (snap.live.get_mut(i), snap.offsets.get_mut(i + 1)) {
                *live = true;
                *deg = g.neighbors(v).len();
            }
        }
        // Each `offsets[i + 1]` holds row `i`'s degree until the prefix
        // sum reaches it.
        for i in 0..upper {
            let prev = snap.offsets.get(i).copied().unwrap_or(0);
            if let (Some(next), Some(reject)) =
                (snap.offsets.get_mut(i + 1), snap.reject.get_mut(i))
            {
                *reject = reject_threshold(degree_u32(*next));
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
    /// build's, and the memo answers as a cold build's would. The CSR work
    /// is proportional to the dirty rows and the clean spans between them.
    /// xtask: no-alloc
    fn patch(&mut self, g: &Graph, dirty: &[NodeId]) {
        let snap = &mut self.snapshot;
        snap.patch_rows(g, dirty);
        std::mem::swap(&mut snap.weights, &mut self.weights_scratch);
        snap.forget_thresholds();
    }
}

/// How many acceptance thresholds this thread's walks have derived so far.
#[cfg(test)]
pub(crate) fn thresholds_derived() -> usize {
    DERIVED.with(std::cell::Cell::get)
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
/// every threshold recomputed — kept as the model the proptest below
/// holds the in-place patch to, and the eager acceptance table the memo
/// is held to.
#[cfg(test)]
mod reference {
    use super::{accept_threshold, degree_u32, reject_threshold, OccasionSnapshot};
    use crate::metropolis::ZERO_WEIGHT_FLOOR;
    use digest_net::{Graph, NodeId};

    /// Patches `snap`'s CSR, liveness, weights and rejection thresholds
    /// to `g`'s state given the journal's `dirty` ids and the newly
    /// captured `weights` (its memo is left as it was: compare through
    /// [`recompute_tables`]).
    pub(super) fn patch(
        snap: &mut OccasionSnapshot,
        g: &Graph,
        dirty: &[NodeId],
        weights: Vec<f64>,
    ) {
        patch_topology(snap, g, dirty);
        snap.weights = weights;
        snap.reject = recompute_tables(snap).1;
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

    /// Every edge's acceptance threshold and every id's rejection
    /// threshold, derived eagerly from `snap`'s CSR and weights.
    pub(super) fn recompute_tables(snap: &OccasionSnapshot) -> (Vec<u64>, Vec<u32>) {
        let mut accept = Vec::with_capacity(snap.adjacency.len());
        let upper = snap.live.len();
        let mut reject = Vec::with_capacity(upper);
        for i in 0..upper {
            let (start, len) = (
                snap.offsets.get(i).copied().unwrap_or(0),
                snap.offsets
                    .get(i + 1)
                    .copied()
                    .unwrap_or(0)
                    .saturating_sub(snap.offsets.get(i).copied().unwrap_or(0)),
            );
            reject.push(reject_threshold(degree_u32(len)));
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
                accept.push(accept_threshold((w_j * d_i) / (w_i * d_j)));
            }
        }
        (accept, reject)
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

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    /// `a`'s arrays equal `b`'s, and every threshold `a`'s memo serves —
    /// forced through the lookup — equals the eager table of `b`.
    fn assert_snapshots_equal(a: &OccasionSnapshot, b: &OccasionSnapshot) {
        assert_eq!(a.offsets, b.offsets);
        assert_eq!(a.adjacency, b.adjacency);
        assert_eq!(a.weights, b.weights);
        assert_eq!(a.live, b.live);
        assert_eq!(a.reject, b.reject);
        let (accept, reject) = reference::recompute_tables(b);
        assert_eq!(a.forced_accept(), accept);
        assert_eq!(a.reject, reject);
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

    /// The acceptance memo must serve exactly the threshold derived
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
                assert_eq!(
                    snap.accept_threshold_at(start + k, v),
                    accept_threshold(live)
                );
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Arbitrary edits between refreshes: whatever way a refresh is
        /// served, every array equals a cold build's and every threshold
        /// the memo serves the eager table's; a patch also equals the
        /// whole-graph patch it replaced. Each round forces the whole
        /// memo, so a reuse serves it warm — deriving nothing — while a
        /// build or a patch serves nothing it held before.
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
            cache.snapshot.forced_accept();
            for ops in &rounds {
                let before = cache.snapshot.clone();
                let mark = cache.key().unwrap();
                for op in ops {
                    apply(op, &mut g, &mut table);
                }
                let w = |v: NodeId| table.get(v.0 as usize).copied().unwrap_or(1.0);
                let (_, served) = cache.refresh(&g, &w, true).unwrap();
                let cold = OccasionSnapshot::build(&g, &w).unwrap();
                let derived = thresholds_derived();
                assert_snapshots_equal(&cache.snapshot, &cold);
                let derived = thresholds_derived() - derived;

                let unchanged = g.epoch() == mark && cold.weights == before.weights;
                let stormed = ops.iter().any(|op| matches!(op, Op::Storm));
                match served {
                    SnapshotRefresh::Reused => {
                        prop_assert!(unchanged);
                        prop_assert_eq!(cache.key().unwrap(), mark);
                        prop_assert_eq!(derived, 0);
                    }
                    SnapshotRefresh::Built => {
                        prop_assert!(stormed);
                        prop_assert_eq!(derived, cold.adjacency.len());
                    }
                    SnapshotRefresh::Patched => {
                        prop_assert!(!unchanged);
                        prop_assert_eq!(derived, cold.adjacency.len());
                        let dirty = g.changes_since(mark).unwrap();
                        let mut model = before;
                        reference::patch(&mut model, &g, &dirty, cold.weights.clone());
                        assert_snapshots_equal(&cache.snapshot, &model);
                    }
                }
            }
        }
    }

    /// A weight that changes on a node the journal never saw must still
    /// reach the thresholds of the edges pointing at that node, however
    /// warm the memo was: the patch forgets every cell.
    #[test]
    fn weight_change_on_a_clean_node_reaches_the_edges_pointing_at_it() {
        let g = topology::barabasi_albert(300, 3, &mut rng(21)).unwrap();
        let mut cache = SnapshotCache::new();
        cache.refresh(&g, &|_: NodeId| 1.0, true).unwrap();
        let warm = cache.snapshot.forced_accept();
        let target = NodeId(150);
        let w = |v: NodeId| if v == target { 0.125 } else { 1.0 };
        let (_, kind) = cache.refresh(&g, &w, true).unwrap();
        assert_eq!(kind, SnapshotRefresh::Patched);
        assert_snapshots_equal(&cache.snapshot, &OccasionSnapshot::build(&g, &w).unwrap());
        let now = cache.snapshot.forced_accept();
        let mut moved = 0;
        for v in g.nodes() {
            let (start, len) = cache.snapshot.row(v);
            for idx in start..start + len {
                if now[idx] != warm[idx] {
                    assert!(v == target || cache.snapshot.neighbor_at(idx) == target);
                    moved += 1;
                }
            }
        }
        assert!(moved > 0);
    }

    /// A cell derived under one stamp must not answer when the stamp comes
    /// round to it again: the wrap zeroes every cell.
    #[test]
    fn a_threshold_is_not_served_after_the_stamp_wraps_back_to_it() {
        let g = topology::ring(6).unwrap();
        let weights =
            |flip: bool| move |v: NodeId| f64::from(v.0 % 3) + if flip { 0.5 } else { 2.0 };
        let mut cache = SnapshotCache::new();
        cache.refresh(&g, &weights(false), true).unwrap();
        let stamp = cache.snapshot.stamp;
        let stale = cache.snapshot.forced_accept();
        // `STAMP_LIMIT` patches, no lookup in between; the limit is odd, so
        // the last one leaves the flipped weights in place.
        for k in 0..STAMP_LIMIT {
            let (_, kind) = cache.refresh(&g, &weights(k % 2 == 0), true).unwrap();
            assert_eq!(kind, SnapshotRefresh::Patched);
        }
        assert_eq!(cache.snapshot.stamp, stamp);
        let cold = OccasionSnapshot::build(&g, &weights(true)).unwrap();
        assert_ne!(reference::recompute_tables(&cold).0, stale);
        assert_snapshots_equal(&cache.snapshot, &cold);
    }

    /// One join and one leave on a 20 000-node overlay, hub included,
    /// patch to a cold build's snapshot, and neither the build nor the
    /// patch derives a threshold.
    #[test]
    fn one_join_and_one_leave_patch_a_large_overlay_without_deriving() {
        let mut g = topology::barabasi_albert(20_000, 3, &mut rng(22)).unwrap();
        let w = |v: NodeId| f64::from(v.0 % 5) + 1.0;
        let derived = thresholds_derived();
        let mut cache = SnapshotCache::new();
        cache.refresh(&g, &w, true).unwrap();

        let hub = g.nodes().max_by_key(|&v| g.degree(v)).unwrap();
        let joiner = g.add_node();
        for target in [hub, NodeId(4_321), NodeId(17)] {
            g.add_edge(joiner, target).unwrap();
        }
        g.remove_node(NodeId(9_876)).unwrap();

        let (_, kind) = cache.refresh(&g, &w, true).unwrap();
        assert_eq!(kind, SnapshotRefresh::Patched);
        assert_eq!(thresholds_derived(), derived);
        assert_snapshots_equal(&cache.snapshot, &OccasionSnapshot::build(&g, &w).unwrap());
    }
}
