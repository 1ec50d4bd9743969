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
//!   [`OccasionSnapshot`] keyed by the graph mutation epoch and the
//!   relation's size column. The operator's one weight is the paper's
//!   `w_v = m_v` (§III), so the snapshot freezes a copy of
//!   [`digest_db::P2PDatabase::content_sizes`] rather than evaluating a
//!   weight function per node. [`digest_net::Graph::epoch`] advances only
//!   on structural mutation, so an unchanged overlay is detected in O(1)
//!   and an unchanged relation by one exact slice compare; a full hit
//!   reuses the snapshot with zero writes. A size count is always finite
//!   and non-negative, so there is nothing to validate. The database has
//!   no epoch of its own to key on: epochs of two databases are
//!   incomparable, the hazard `SamplingOperator::reset` guards against
//!   for graphs.
//! * **CSR patching.** When the graph changed but the mutation journal
//!   still covers the gap, [`digest_net::Graph::changes_since`] yields
//!   the sorted set of dirty node ids. The snapshot is patched where it
//!   changed and in place: the clean row spans between dirty ids slide to
//!   their new positions in bulk and only dirty rows are re-read from the
//!   graph. What stays O(n) is what a reuse pays too — comparing the size
//!   column — plus one `memcpy` of it.
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
//!   The proposal draw needs no per-node table: [`crate::draw::uniform_below`]
//!   takes its rejection modulo only on the rare low word below the degree.
//!
//! Every refresh outcome is counted (`sampling.snapshot.built/reused/
//! patched`) and timed under [`Stage::SnapshotBuild`]. The cache is
//! bound to one [`Graph`] *instance*: epochs from different graphs are
//! incomparable, so `SamplingOperator::reset` must (and does) drop the
//! cache before an operator may be pointed at another graph.

use crate::draw::{accept_threshold, ACCEPT_ALWAYS, THRESHOLD_BITS};
use crate::metropolis::ZERO_WEIGHT_FLOOR;
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

/// Per-occasion view of the overlay: CSR adjacency, liveness, the
/// relation's size column (the node weights `w_v = m_v`), and a memo of
/// the M–H acceptance threshold per directed edge, all indexed by raw
/// node id. Built (or patched) once per occasion on the dispatching
/// thread; shared by every walk slot, which reads the arrays and fills
/// memo cells. A clone copies the cells' words.
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
    /// The relation's content size per node id, copied from
    /// [`digest_db::P2PDatabase::content_sizes`] at the refresh (ids past
    /// its end hold no tuple). Node `v`'s weight is `f64::from(sizes[v])`,
    /// the bits of `content_size(v) as f64`.
    sizes: Vec<u32>,
    /// Liveness per id slot.
    live: Vec<bool>,
}

impl OccasionSnapshot {
    /// Builds a cold snapshot (no cache) over the size column `sizes`;
    /// test-only reference path — the operator goes through
    /// [`SnapshotCache`].
    #[cfg(test)]
    pub(crate) fn build_sized(g: &Graph, sizes: &[u32]) -> Self {
        let mut cache = SnapshotCache::new();
        cache.refresh(g, sizes, false);
        cache.snapshot
    }

    /// [`Self::build_sized`] over the column of a relation whose live node
    /// `v` holds `w(v)` tuples, so a walk test can run the live walker
    /// under the same closure.
    ///
    /// # Errors
    ///
    /// [`crate::SamplingError::InvalidWeight`] for a live node whose
    /// weight is no tuple count.
    #[cfg(test)]
    pub(crate) fn build(g: &Graph, w: &impl crate::weight::NodeWeight) -> crate::Result<Self> {
        let mut sizes = vec![0; g.id_upper_bound()];
        for v in g.nodes() {
            let weight = w.weight(v);
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let size = weight as u32;
            if f64::from(size).to_bits() != weight.to_bits() {
                return Err(crate::SamplingError::InvalidWeight { node: v, weight });
            }
            sizes[v.0 as usize] = size;
        }
        Ok(Self::build_sized(g, &sizes))
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
        let w_i = self.weight(i).max(ZERO_WEIGHT_FLOOR);
        let threshold = accept_threshold((self.weight(j) * degree(i)) / (w_i * degree(j)));
        cell.set(self.stamp, threshold);
        #[cfg(test)]
        DERIVED.with(|n| n.set(n.get() + 1));
        threshold
    }

    /// Node `i`'s weight `m_i`, as the live walk's `content_size(v) as
    /// f64` computes it.
    /// xtask: no-alloc
    fn weight(&self, i: usize) -> f64 {
        f64::from(self.sizes.get(i).copied().unwrap_or(0))
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

    /// Brings the CSR rows and liveness up to the graph's state, given the
    /// `dirty` ids (sorted, deduped, complete — the contract of
    /// [`Graph::changes_since`]) and an id space that did not shrink. In
    /// place: the clean spans between dirty ids slide to their new
    /// positions and only dirty rows are re-read from the graph. Clean
    /// rows cannot reference removed nodes because `remove_node` marks all
    /// former neighbors dirty.
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
        let Self {
            offsets,
            adjacency,
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

/// Resizes one of the cache's retained arrays, allocating an eighth
/// beyond what is asked rather than `Vec`'s doubling — the first
/// allocation included. These are the operator's largest buffers, the id
/// space and edge count of a churning overlay creep rather than jump: a
/// doubled `accept` alone would hold 4.8 MB idle at 10⁵ nodes, and an
/// exact first allocation would be copied at the first join.
fn resize_retained<T: Clone>(v: &mut Vec<T>, len: usize, fill: T) {
    if len > v.capacity() {
        grow_retained(v, len);
    }
    v.resize(len, fill);
}

/// Copies `src` into one of the retained arrays, growing it as
/// [`resize_retained`] does.
fn copy_retained<T: Copy>(v: &mut Vec<T>, src: &[T]) {
    v.clear();
    if src.len() > v.capacity() {
        grow_retained(v, src.len());
    }
    v.extend_from_slice(src);
}

#[cold]
fn grow_retained<T>(v: &mut Vec<T>, len: usize) {
    let capacity = (len + len / 8).max(v.capacity() + v.capacity() / 8);
    v.reserve_exact(capacity - v.len());
}

/// How a [`SnapshotCache::refresh`] satisfied the occasion's request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SnapshotRefresh {
    /// Cold path: the full CSR was (re)materialized from the graph, the
    /// size column copied and the acceptance memo forgotten.
    Built,
    /// Cache hit: same graph epoch, an equal size column — the cached
    /// snapshot was returned with zero writes.
    Reused,
    /// Incremental path: the mutation journal covered the delta, so only
    /// dirty CSR rows were re-read (clean spans moved in place); the size
    /// column was copied and the acceptance memo forgotten.
    Patched,
}

/// Epoch-keyed cache of the last [`OccasionSnapshot`], owned by a
/// `SamplingOperator`. All scratch buffers are retained across
/// occasions, so the steady state (unchanged overlay and relation)
/// allocates nothing and writes nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct SnapshotCache {
    snapshot: OccasionSnapshot,
    /// Whether `snapshot` reflects some prior refresh of *this* cache.
    valid: bool,
    /// Graph mutation epoch the snapshot was captured at.
    epoch: u64,
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

    /// Produces the occasion snapshot for the graph's current state and
    /// the relation's size column `sizes`
    /// ([`digest_db::P2PDatabase::content_sizes`]): reused when `caching`
    /// is on, the epoch is the cached one and `sizes` equals the frozen
    /// copy, patched when the journal covers the delta, built otherwise.
    pub(crate) fn refresh(
        &mut self,
        g: &Graph,
        sizes: &[u32],
        caching: bool,
    ) -> (&OccasionSnapshot, SnapshotRefresh) {
        let _span = digest_telemetry::span(Stage::SnapshotBuild);
        let epoch = g.epoch();
        let mut served = SnapshotRefresh::Built;
        if caching && self.valid {
            if epoch == self.epoch && sizes == self.snapshot.sizes {
                telemetry::SAMPLING_SNAPSHOT_REUSED.inc();
                return (&self.snapshot, SnapshotRefresh::Reused);
            }
            // Ids are never reused, so the id space of the graph this
            // cache is bound to cannot shrink; a smaller one is another
            // graph's and gets a cold build.
            let grown = g.id_upper_bound() >= self.snapshot.live.len();
            if let Some(dirty) = g.changes_since(self.epoch).filter(|_| grown) {
                self.snapshot.patch_rows(g, &dirty);
                served = SnapshotRefresh::Patched;
            }
        }
        if served == SnapshotRefresh::Built {
            self.rebuild_topology(g);
            self.valid = true;
            telemetry::SAMPLING_SNAPSHOT_BUILT.inc();
        } else {
            telemetry::SAMPLING_SNAPSHOT_PATCHED.inc();
        }
        copy_retained(&mut self.snapshot.sizes, sizes);
        self.snapshot.forget_thresholds();
        self.epoch = epoch;
        (&self.snapshot, served)
    }

    /// Full CSR and liveness rebuild from the graph, reusing the
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
        // Each `offsets[i + 1]` holds row `i`'s degree until the prefix
        // sum reaches it.
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
}

/// How many acceptance thresholds this thread's walks have derived so far.
#[cfg(test)]
pub(crate) fn thresholds_derived() -> usize {
    DERIVED.with(std::cell::Cell::get)
}

/// The whole-graph patch the in-place one replaced — every CSR row
/// re-copied into double buffers with a binary search per node, then
/// every threshold recomputed — kept as the model the proptest below
/// holds the in-place patch to, and the eager acceptance table the memo
/// is held to.
#[cfg(test)]
mod reference {
    use super::{accept_threshold, OccasionSnapshot};
    use crate::metropolis::ZERO_WEIGHT_FLOOR;
    use digest_net::{Graph, NodeId};

    /// Patches `snap`'s CSR, liveness and size column to `g`'s state
    /// given the journal's `dirty` ids and the relation's `sizes` (its
    /// memo is left as it was: compare through [`recompute_accept`]).
    pub(super) fn patch(snap: &mut OccasionSnapshot, g: &Graph, dirty: &[NodeId], sizes: &[u32]) {
        patch_topology(snap, g, dirty);
        snap.sizes = sizes.to_vec();
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

    /// Every edge's acceptance threshold, derived eagerly from `snap`'s
    /// CSR and size column.
    pub(super) fn recompute_accept(snap: &OccasionSnapshot) -> Vec<u64> {
        let mut accept = Vec::with_capacity(snap.adjacency.len());
        let weight = |i: usize| f64::from(snap.sizes.get(i).copied().unwrap_or(0));
        let row = |i: usize| {
            let start = snap.offsets.get(i).copied().unwrap_or(0);
            let end = snap.offsets.get(i + 1).copied().unwrap_or(0);
            (start, end.saturating_sub(start))
        };
        for i in 0..snap.live.len() {
            let (start, len) = row(i);
            let d_i = len as f64;
            let w_i = weight(i).max(ZERO_WEIGHT_FLOOR);
            for k in start..start + len {
                let j = snap.adjacency.get(k).map_or(0, |n| n.0 as usize);
                let d_j = row(j).1 as f64;
                accept.push(accept_threshold((weight(j) * d_i) / (w_i * d_j)));
            }
        }
        accept
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
    use crate::weight::{content_size_weight, NodeWeight};
    use digest_db::{P2PDatabase, Schema, Tuple};
    use digest_net::topology;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    /// Registers `v` and gives it `m` tuples.
    fn join(db: &mut P2PDatabase, v: NodeId, m: u32) {
        db.register_node(v);
        for k in 0..m {
            db.insert(v, Tuple::single(f64::from(k))).unwrap();
        }
    }

    /// A relation over `g`'s live nodes in which `v` holds `m(v)` tuples.
    fn db_of(g: &Graph, m: impl Fn(NodeId) -> u32) -> P2PDatabase {
        let mut db = P2PDatabase::new(Schema::single("a"));
        for v in g.nodes() {
            join(&mut db, v, m(v));
        }
        db
    }

    /// `a`'s arrays equal `b`'s, and every threshold `a`'s memo serves —
    /// forced through the lookup — equals the eager table of `b`.
    fn assert_snapshots_equal(a: &OccasionSnapshot, b: &OccasionSnapshot) {
        assert_eq!(a.offsets, b.offsets);
        assert_eq!(a.adjacency, b.adjacency);
        assert_eq!(a.sizes, b.sizes);
        assert_eq!(a.live, b.live);
        assert_eq!(a.forced_accept(), reference::recompute_accept(b));
    }

    #[test]
    fn snapshot_matches_graph_views() {
        let mut g = topology::barabasi_albert(40, 2, &mut rng(7)).unwrap();
        let db = db_of(&g, |v| v.0 % 4 + 1);
        g.remove_node(NodeId(11)).unwrap();
        let snap = OccasionSnapshot::build_sized(&g, db.content_sizes());
        for v in g.nodes() {
            assert!(snap.contains(v));
            assert_eq!(snap.neighbors(v), g.neighbors(v));
            assert_eq!(snap.degree(v), g.degree(v));
            assert_eq!(snap.weight(v.0 as usize), f64::from(v.0 % 4 + 1));
        }
        assert!(!snap.contains(NodeId(11)));
        assert!(snap.neighbors(NodeId(11)).is_empty());
        assert!(!snap.contains(NodeId(999)));
        assert_eq!(snap.weight(999), 0.0, "an id past the column weighs 0");
    }

    /// The acceptance memo must serve exactly the threshold derived
    /// from the ratio the live walk computes per step under the
    /// content-size weight (PAPER.md §V-A Eq. 12), folded through the same
    /// [`accept_threshold`]. Nodes with no tuple take the zero-weight
    /// floor.
    #[test]
    fn acceptance_table_is_bit_identical_to_live_expression() {
        let g = topology::barabasi_albert(80, 3, &mut rng(5)).unwrap();
        let db = db_of(&g, |v| v.0 % 7);
        let w = content_size_weight(&db);
        let snap = OccasionSnapshot::build_sized(&g, db.content_sizes());
        let mut below_one = 0usize;
        for v in g.nodes() {
            let (start, len) = snap.row(v);
            let d_i = g.degree(v) as f64;
            let w_i = w.weight(v).max(ZERO_WEIGHT_FLOOR);
            for k in 0..len {
                let j = snap.neighbor_at(start + k);
                let live = (w.weight(j) * d_i) / (w_i * (g.degree(j) as f64));
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

    #[test]
    fn cache_reuses_on_unchanged_graph_and_sizes() {
        let g = topology::barabasi_albert(60, 2, &mut rng(3)).unwrap();
        let db = db_of(&g, |_| 1);
        let mut cache = SnapshotCache::new();
        let (_, first) = cache.refresh(&g, db.content_sizes(), true);
        assert_eq!(first, SnapshotRefresh::Built);
        let key = cache.key().unwrap();
        let (_, second) = cache.refresh(&g, db.content_sizes(), true);
        assert_eq!(second, SnapshotRefresh::Reused);
        assert_eq!(cache.key().unwrap(), key);
    }

    #[test]
    fn cache_disabled_always_rebuilds() {
        let g = topology::ring(12).unwrap();
        let db = db_of(&g, |_| 1);
        let mut cache = SnapshotCache::new();
        for _ in 0..3 {
            let (_, kind) = cache.refresh(&g, db.content_sizes(), false);
            assert_eq!(kind, SnapshotRefresh::Built);
        }
    }

    /// Patched refreshes after arbitrary churn must agree exactly with a
    /// cold build of the mutated graph.
    #[test]
    fn patched_snapshot_equals_cold_build_after_churn() {
        let mut g = topology::barabasi_albert(50, 3, &mut rng(9)).unwrap();
        let mut db = db_of(&g, |v| v.0 % 4 + 1);
        let mut cache = SnapshotCache::new();
        cache.refresh(&g, db.content_sizes(), true);

        // Add a node with edges, remove a node, rewire an edge.
        let fresh = g.add_node();
        join(&mut db, fresh, 3);
        g.add_edge(fresh, NodeId(0)).unwrap();
        g.add_edge(fresh, NodeId(7)).unwrap();
        g.remove_node(NodeId(13)).unwrap();
        db.remove_node(NodeId(13)).unwrap();
        let a = NodeId(2);
        let b = g.neighbors(a)[0];
        g.remove_edge(a, b).unwrap();
        g.add_edge(a, NodeId(21)).unwrap();

        let (_, kind) = cache.refresh(&g, db.content_sizes(), true);
        assert_eq!(kind, SnapshotRefresh::Patched);
        let cold = OccasionSnapshot::build_sized(&g, db.content_sizes());
        assert_snapshots_equal(&cache.snapshot, &cold);
    }

    /// A refresh is served from the cache exactly when the graph's epoch
    /// and the whole size column (its length included) are what the
    /// snapshot froze. A size change on an unchanged overlay patches: it
    /// bumps the stamp, so a warm memo serves the eager thresholds of the
    /// new column.
    #[test]
    fn a_refresh_is_reused_iff_the_epoch_and_the_sizes_are_unchanged() {
        let mut g = topology::barabasi_albert(30, 2, &mut rng(8)).unwrap();
        let mut db = db_of(&g, |v| v.0 % 3 + 1);
        let mut cache = SnapshotCache::new();
        let mut refresh = |g: &Graph, db: &P2PDatabase| {
            let (snap, kind) = cache.refresh(g, db.content_sizes(), true);
            let warm = snap.forced_accept();
            let stamp = snap.stamp;
            assert_snapshots_equal(snap, &OccasionSnapshot::build_sized(g, db.content_sizes()));
            (kind, stamp, warm)
        };
        let (kind, stamp, warm) = refresh(&g, &db);
        assert_eq!(kind, SnapshotRefresh::Built);
        let (kind, again, _) = refresh(&g, &db);
        assert_eq!((kind, again), (SnapshotRefresh::Reused, stamp));

        // One more tuple at one node, no structural change.
        db.insert(NodeId(7), Tuple::single(0.5)).unwrap();
        let (kind, bumped, now) = refresh(&g, &db);
        assert_eq!((kind, bumped), (SnapshotRefresh::Patched, stamp + 1));
        assert_ne!(now, warm, "the size change reaches the thresholds");
        let (kind, same, _) = refresh(&g, &db);
        assert_eq!((kind, same), (SnapshotRefresh::Reused, bumped));

        // A column that only grew by an empty node is a different column.
        db.register_node(NodeId(40));
        assert_eq!(refresh(&g, &db).0, SnapshotRefresh::Patched);
        assert_eq!(refresh(&g, &db).0, SnapshotRefresh::Reused);

        // A structural change under an equal column patches too.
        let far = (1..30)
            .map(NodeId)
            .find(|&v| !g.has_edge(NodeId(0), v))
            .unwrap();
        assert!(g.add_edge(NodeId(0), far).unwrap());
        assert_eq!(refresh(&g, &db).0, SnapshotRefresh::Patched);
        assert_eq!(refresh(&g, &db).0, SnapshotRefresh::Reused);
    }

    /// Once the journal overflows, `changes_since` loses coverage and
    /// the cache must fall back to a full rebuild — still correct.
    #[test]
    fn journal_overflow_falls_back_to_full_rebuild() {
        let mut g = topology::ring(16).unwrap();
        let db = db_of(&g, |_| 1);
        let mut cache = SnapshotCache::new();
        cache.refresh(&g, db.content_sizes(), true);
        // Far more mutations than the journal retains.
        for _ in 0..4096 {
            let v = g.add_node();
            g.add_edge(v, NodeId(0)).unwrap();
            g.remove_node(v).unwrap();
        }
        let (_, kind) = cache.refresh(&g, db.content_sizes(), true);
        assert_eq!(kind, SnapshotRefresh::Built);
        let cold = OccasionSnapshot::build_sized(&g, db.content_sizes());
        assert_snapshots_equal(&cache.snapshot, &cold);
    }

    /// Pins the journal-bound decision from the cache's point of view:
    /// a small inter-occasion delta patches, while a delta past the
    /// journal bound must produce `Built` — and the rebuilt snapshot
    /// matches a cold build (never a silently-reused stale CSR).
    #[test]
    fn journal_bound_decides_patch_vs_build() {
        let mut g = topology::ring(16).unwrap();
        let mut db = db_of(&g, |_| 1);
        let mut cache = SnapshotCache::new();
        cache.refresh(&g, db.content_sizes(), true);

        // Under the bound: a handful of mutations → Patched.
        let v = g.add_node();
        join(&mut db, v, 2);
        g.add_edge(v, NodeId(0)).unwrap();
        let (_, kind) = cache.refresh(&g, db.content_sizes(), true);
        assert_eq!(kind, SnapshotRefresh::Patched);

        // Past the bound (JOURNAL_CAP entries): same edge toggled far
        // more times than the journal retains → Built.
        for _ in 0..1200 {
            g.add_edge(v, NodeId(1)).unwrap();
            g.remove_edge(v, NodeId(1)).unwrap();
        }
        let (_, kind) = cache.refresh(&g, db.content_sizes(), true);
        assert_eq!(kind, SnapshotRefresh::Built);
        let cold = OccasionSnapshot::build_sized(&g, db.content_sizes());
        assert_snapshots_equal(&cache.snapshot, &cold);
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
        let db = db_of(&old, |_| 1);
        let mut cache = SnapshotCache::new();
        cache.refresh(&old, db.content_sizes(), true);

        // A fresh graph starts from epoch ~n: far below the cached mark.
        let fresh = topology::ring(8).unwrap();
        assert!(fresh.epoch() < old.epoch());
        let (_, kind) = cache.refresh(&fresh, db.content_sizes(), true);
        assert_eq!(
            kind,
            SnapshotRefresh::Built,
            "stale cache must rebuild for a graph it has never seen"
        );
        let cold = OccasionSnapshot::build_sized(&fresh, db.content_sizes());
        assert_snapshots_equal(&cache.snapshot, &cold);
    }

    /// Growing then shrinking `id_upper_bound` across patches must stay
    /// consistent with cold builds (regression guard for resize logic).
    #[test]
    fn patch_handles_upper_bound_growth_and_shrink() {
        let mut g = topology::ring(10).unwrap();
        let mut db = db_of(&g, |_| 1);
        let mut cache = SnapshotCache::new();
        cache.refresh(&g, db.content_sizes(), true);

        let v = g.add_node();
        join(&mut db, v, 1);
        g.add_edge(v, NodeId(4)).unwrap();
        let (_, kind) = cache.refresh(&g, db.content_sizes(), true);
        assert_eq!(kind, SnapshotRefresh::Patched);
        let cold = OccasionSnapshot::build_sized(&g, db.content_sizes());
        assert_snapshots_equal(&cache.snapshot, &cold);

        g.remove_node(v).unwrap();
        db.remove_node(v).unwrap();
        let (_, kind) = cache.refresh(&g, db.content_sizes(), true);
        assert_eq!(kind, SnapshotRefresh::Patched);
        let cold = OccasionSnapshot::build_sized(&g, db.content_sizes());
        assert_snapshots_equal(&cache.snapshot, &cold);
    }

    /// One edit to the overlay or the size column between refreshes;
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
        SetSize(usize, u32),
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
            (0usize..64, 0u32..4).prop_map(|(k, m)| Op::SetSize(k, m)),
            (0usize..64, 0u32..4).prop_map(|(k, m)| Op::SetSize(k, m)),
            (0usize..64).prop_map(|k| Op::SetSize(k, 0)),
            Just(Op::Storm),
        ]
    }

    /// Applies `op` to the overlay and to the size column `sizes`, which
    /// need not span the id space (ids past it hold no tuple).
    fn apply(op: &Op, g: &mut Graph, sizes: &mut Vec<u32>) {
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
            Op::SetSize(k, m) => {
                let i = pick(k).0 as usize;
                if sizes.len() <= i {
                    sizes.resize(i + 1, 1);
                }
                sizes[i] = m;
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
            let mut sizes = vec![1; n];
            let mut cache = SnapshotCache::new();
            cache.refresh(&g, &sizes, true);
            cache.snapshot.forced_accept();
            for ops in &rounds {
                let before = cache.snapshot.clone();
                let mark = cache.key().unwrap();
                for op in ops {
                    apply(op, &mut g, &mut sizes);
                }
                let (_, served) = cache.refresh(&g, &sizes, true);
                let cold = OccasionSnapshot::build_sized(&g, &sizes);
                let derived = thresholds_derived();
                assert_snapshots_equal(&cache.snapshot, &cold);
                let derived = thresholds_derived() - derived;

                let unchanged = g.epoch() == mark && sizes == before.sizes;
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
                        reference::patch(&mut model, &g, &dirty, &sizes);
                        assert_snapshots_equal(&cache.snapshot, &model);
                    }
                }
            }
        }
    }

    /// A size that changes on a node the journal never saw must still
    /// reach the thresholds of the edges pointing at that node, however
    /// warm the memo was: the patch forgets every cell.
    #[test]
    fn size_change_on_a_clean_node_reaches_the_edges_pointing_at_it() {
        let g = topology::barabasi_albert(300, 3, &mut rng(21)).unwrap();
        let mut db = db_of(&g, |_| 1);
        let mut cache = SnapshotCache::new();
        cache.refresh(&g, db.content_sizes(), true);
        let warm = cache.snapshot.forced_accept();
        let target = NodeId(150);
        join(&mut db, target, 7);
        let (_, kind) = cache.refresh(&g, db.content_sizes(), true);
        assert_eq!(kind, SnapshotRefresh::Patched);
        let cold = OccasionSnapshot::build_sized(&g, db.content_sizes());
        assert_snapshots_equal(&cache.snapshot, &cold);
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
        let sizes =
            |flip: bool| -> Vec<u32> { (0..6).map(|v| v % 3 + if flip { 1 } else { 4 }).collect() };
        let mut cache = SnapshotCache::new();
        cache.refresh(&g, &sizes(false), true);
        let stamp = cache.snapshot.stamp;
        let stale = cache.snapshot.forced_accept();
        // `STAMP_LIMIT` patches, no lookup in between; the limit is odd, so
        // the last one leaves the flipped column in place.
        for k in 0..STAMP_LIMIT {
            let (_, kind) = cache.refresh(&g, &sizes(k % 2 == 0), true);
            assert_eq!(kind, SnapshotRefresh::Patched);
        }
        assert_eq!(cache.snapshot.stamp, stamp);
        let cold = OccasionSnapshot::build_sized(&g, &sizes(true));
        assert_ne!(reference::recompute_accept(&cold), stale);
        assert_snapshots_equal(&cache.snapshot, &cold);
    }

    /// One join and one leave on a 20 000-node overlay, hub included,
    /// patch to a cold build's snapshot, and neither the build nor the
    /// patch derives a threshold.
    #[test]
    fn one_join_and_one_leave_patch_a_large_overlay_without_deriving() {
        let mut g = topology::barabasi_albert(20_000, 3, &mut rng(22)).unwrap();
        let mut db = db_of(&g, |v| v.0 % 5 + 1);
        let derived = thresholds_derived();
        let mut cache = SnapshotCache::new();
        cache.refresh(&g, db.content_sizes(), true);

        let hub = g.nodes().max_by_key(|&v| g.degree(v)).unwrap();
        let joiner = g.add_node();
        join(&mut db, joiner, 2);
        for target in [hub, NodeId(4_321), NodeId(17)] {
            g.add_edge(joiner, target).unwrap();
        }
        g.remove_node(NodeId(9_876)).unwrap();
        db.remove_node(NodeId(9_876)).unwrap();

        let (_, kind) = cache.refresh(&g, db.content_sizes(), true);
        assert_eq!(kind, SnapshotRefresh::Patched);
        assert_eq!(thresholds_derived(), derived);
        let cold = OccasionSnapshot::build_sized(&g, db.content_sizes());
        assert_snapshots_equal(&cache.snapshot, &cold);
    }
}
