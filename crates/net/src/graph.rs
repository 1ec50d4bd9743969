//! The unstructured overlay graph `G(V, E)`.
//!
//! Node identities are stable `u32` handles that survive unrelated
//! joins/leaves — a departed node's id is never reused, so tuple handles
//! held by the query engine's sample panel can detect departures reliably
//! (a dangling handle means "node left → replace the sample", exactly the
//! rule of paper §IV-B2a).
//!
//! The adjacency representation is a flat structure-of-arrays arena: one
//! shared neighbor pool plus per-node `(offset, len, cap)` rows — the
//! same CSR-style layout the sampling operator's `SnapshotCache` builds
//! per occasion, now native to the graph itself. Compared with the old
//! slot-vector-of-`Vec` layout this removes one heap allocation and one
//! pointer indirection per node, which is what lets 10⁶-node overlays
//! fit in cache-friendly memory. A generated overlay is laid out in one
//! pass (`Graph::from_edges`): rows back to back in id order, each as
//! long as its degree. Rows then grow by relocation to the arena tail
//! with doubled capacity (amortized O(1) push); departed and relocated
//! spans become garbage that a periodic compaction pass reclaims once it
//! dominates the pool. Neighbor order is exactly the
//! order the old representation produced (append on edge-add,
//! swap-remove on edge-delete), so random-walk trajectories — and hence
//! the deterministic replay gate — are unchanged by the refactor.
//!
//! The graph is simple (no self-loops, no parallel edges) and
//! undirected: O(1) id lookup, O(deg) neighbor iteration, O(deg) edge
//! removal.

use crate::error::NetError;
use crate::Result;
use rand::Rng;
use std::collections::VecDeque;
use std::fmt;

/// Stable identifier of an overlay node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Capacity of the structural-change journal: the window holds the most
/// recent this-many entries, so a consumer whose mark is more than this
/// many changes old falls back to a full rebuild — the cap bounds Graph
/// memory while keeping every realistic per-tick churn delta patchable.
/// It counts changes, not nodes, so it is not sized from the overlay.
const JOURNAL_CAP: usize = 1024;

/// Pool size below which compaction is never attempted (compacting tiny
/// pools churns allocations for no measurable win).
const COMPACT_MIN_POOL: usize = 1024;

/// An undirected simple graph over [`NodeId`]s.
///
/// Every structural mutation (node join/leave, edge add/remove) bumps a
/// monotonically increasing **mutation epoch** and records the touched
/// node ids in a bounded journal, so consumers that cache derived views
/// of the topology (e.g. the sampling operator's per-occasion CSR
/// snapshot) can detect staleness in O(1) via [`Graph::epoch`] and
/// patch incrementally via [`Graph::changes_since`]. The same epoch keys
/// the one fact the graph remembers about itself: that the churn process
/// left it connected, which holds until the next structural edit.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    /// Start of each ever-allocated id's neighbor row inside `pool`.
    row_off: Vec<usize>,
    /// Live neighbor count of each row.
    row_len: Vec<usize>,
    /// Allocated span of each row (`len ≤ cap`); slots past `len` are
    /// headroom left by swap-removals or doubling growth.
    row_cap: Vec<usize>,
    /// Liveness flag per ever-allocated id (`false` = departed).
    alive: Vec<bool>,
    /// Shared neighbor arena; live rows occupy disjoint spans.
    pool: Vec<NodeId>,
    /// Arena slots unreachable from any live row (relocated or departed
    /// spans); compaction reclaims them once they dominate the pool.
    pool_garbage: usize,
    /// Ids of live nodes, kept dense for O(1) uniform choice.
    live: Vec<NodeId>,
    /// Position of each live id inside `live` (usize::MAX = not live).
    live_pos: Vec<usize>,
    edge_count: usize,
    /// Monotonic mutation counter; bumped by every structural change.
    epoch: u64,
    /// The latest `(epoch, node)` entries for nodes whose adjacency or
    /// liveness changed, oldest first (so epochs never decrease).
    journal: VecDeque<(u64, NodeId)>,
    /// Earliest epoch from which `journal` is complete — the epoch of the
    /// last entry the window dropped; requests for changes since an older
    /// epoch must fall back to a full rebuild.
    journal_floor: u64,
    /// Epoch at which a repairing churn step last left the overlay
    /// connected. A proof only while it still equals `epoch`: every
    /// structural edit by anyone bumps the epoch and so voids it.
    connected_at: Option<u64>,
    /// Scratch of the component search behind [`Graph::chain_connected`].
    reach: ReachScratch,
}

/// Visit stamps and the two frontiers of one connectivity check (the
/// component's and the searching terminal's), retained across checks so
/// the steady state allocates nothing.
#[derive(Debug, Default)]
struct ReachScratch {
    /// Per-id stamp of the search side that last reached the id.
    mark: Vec<u32>,
    /// Last stamp handed out; a check takes the next two.
    stamp: u32,
    /// FIFO frontiers of the two sides (a `Vec` plus a read cursor).
    sides: [Vec<NodeId>; 2],
}

/// The scratch describes no graph state, so a clone starts empty.
impl Clone for ReachScratch {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl ReachScratch {
    /// Sizes `mark` for `upper` ids and keeps two fresh stamps available.
    /// The only place the stamps allocate. The caller passes the id
    /// columns' capacity, not their length: under churn the id space
    /// grows on every tick with a join, and the stamps then grow only when
    /// the columns did — amortised, or never within the room the graph
    /// was created with ([`Graph::with_capacity`]).
    #[cold]
    fn grow(&mut self, upper: usize) {
        if self.mark.len() < upper {
            self.mark.resize(upper, 0);
        }
        if self.stamp > u32::MAX - 2 {
            self.mark.fill(0);
            self.stamp = 0;
        }
    }
}

/// Appends to a frontier; its growth is the search's only other
/// allocation, reached while a frontier is larger than any before it.
#[inline]
fn enqueue(frontier: &mut Vec<NodeId>, v: NodeId) {
    if frontier.len() == frontier.capacity() {
        grow_frontier(frontier);
    }
    frontier.push(v);
}

#[cold]
fn grow_frontier(frontier: &mut Vec<NodeId>) {
    frontier.reserve(frontier.len().max(64));
}

impl Graph {
    /// Creates an empty graph.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph with room for `n` nodes: its per-id columns
    /// (`row_off` / `row_len` / `row_cap` / `alive` / `live` /
    /// `live_pos`) reallocate only past the `n`-th [`Graph::add_node`].
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        Self {
            row_off: Vec::with_capacity(n),
            row_len: Vec::with_capacity(n),
            row_cap: Vec::with_capacity(n),
            alive: Vec::with_capacity(n),
            pool: Vec::with_capacity(n.saturating_mul(4)),
            pool_garbage: 0,
            live: Vec::with_capacity(n),
            live_pos: Vec::with_capacity(n),
            edge_count: 0,
            epoch: 0,
            journal: VecDeque::new(),
            journal_floor: 0,
            connected_at: None,
            reach: ReachScratch::default(),
        }
    }

    /// The graph that `n` [`Graph::add_node`] calls on
    /// [`Graph::with_capacity`]`(n + room)` and then one
    /// [`Graph::add_edge`] per pair of `edges`, in order, would leave —
    /// the same rows in the same neighbour order, degrees, edge count,
    /// epoch (`n + E`) and `nodes()` order — built in two passes over
    /// `edges` instead of `E` relocating pushes. The rows lie back to
    /// back in id order with `cap = len`, so a pass over them in id order
    /// reads the arena front to back. The journal starts empty at the
    /// build's epoch, with its window's room reserved: a mark older than
    /// the build gets `None` from [`Graph::changes_since`], and the
    /// first [`JOURNAL_CAP`] changes allocate nothing. The pool holds
    /// `max(4·(n + room), entries + spare)` slots — `with_capacity`'s,
    /// or the `2E` entries plus `spare` slots of headroom when those are
    /// more.
    ///
    /// `edges` must be simple (no self-loop, no pair twice in either
    /// order) over ids `< n`; the topology builders' lists are so by
    /// construction.
    pub(crate) fn from_edges<E>(n: usize, room: usize, spare: usize, edges: E) -> Self
    where
        E: IntoIterator<Item = (NodeId, NodeId)>,
        E::IntoIter: Clone,
    {
        let edges = edges.into_iter();
        let upper = n.saturating_add(room);
        let mut row_cap = Vec::with_capacity(upper);
        row_cap.resize(n, 0);
        let mut edge_count = 0;
        for (a, b) in edges.clone() {
            debug_assert!(a != b && (a.0 as usize) < n && (b.0 as usize) < n);
            row_cap[a.0 as usize] += 1;
            row_cap[b.0 as usize] += 1;
            edge_count += 1;
        }
        let mut row_off = Vec::with_capacity(upper);
        let mut entries = 0;
        for &cap in &row_cap {
            row_off.push(entries);
            entries += cap;
        }
        let mut row_len = Vec::with_capacity(upper);
        row_len.resize(n, 0);
        let mut pool = Vec::with_capacity(upper.saturating_mul(4).max(entries + spare));
        pool.resize(entries, NodeId(u32::MAX));
        for (a, b) in edges {
            for (v, nb) in [(a, b), (b, a)] {
                let i = v.0 as usize;
                pool[row_off[i] + row_len[i]] = nb;
                row_len[i] += 1;
            }
        }
        let mut alive = Vec::with_capacity(upper);
        alive.resize(n, true);
        let mut live = Vec::with_capacity(upper);
        live.extend((0..n).map(|i| NodeId(u32::try_from(i).unwrap_or(u32::MAX))));
        let mut live_pos = Vec::with_capacity(upper);
        live_pos.extend(0..n);
        let epoch = (n + edge_count) as u64;
        Self {
            row_off,
            row_len,
            row_cap,
            alive,
            pool,
            pool_garbage: 0,
            live,
            live_pos,
            edge_count,
            epoch,
            journal: VecDeque::with_capacity(JOURNAL_CAP),
            journal_floor: epoch,
            connected_at: None,
            reach: ReachScratch::default(),
        }
    }

    /// The current mutation epoch: 0 for a fresh graph, bumped by every
    /// structural change (node add/remove, edge add/remove). Two reads
    /// returning the same epoch guarantee the topology did not change in
    /// between, so derived views captured at one epoch stay valid while
    /// the epoch holds.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The node ids whose adjacency or liveness changed since `since`
    /// (an epoch previously read from [`Graph::epoch`]), sorted and
    /// deduplicated — or `None` if the delta cannot be produced and the
    /// caller must rebuild its view from scratch. That happens when
    ///
    /// * the bounded journal overflowed and no longer reaches back to
    ///   `since`, or
    /// * `since` lies **beyond** the current epoch — a mark taken from a
    ///   different (or since-replaced) graph. Only `since == epoch`
    ///   means "no change"; a future mark can never certify anything
    ///   about *this* topology, so it demands a rebuild rather than
    ///   silently reporting an empty delta.
    #[must_use]
    pub fn changes_since(&self, since: u64) -> Option<Vec<NodeId>> {
        if since == self.epoch {
            return Some(Vec::new());
        }
        if since > self.epoch || since < self.journal_floor {
            return None;
        }
        // Entries are pushed in epoch order: the delta is a suffix.
        let first = self.journal.partition_point(|&(epoch, _)| epoch <= since);
        let mut out: Vec<NodeId> = self.journal.range(first..).map(|&(_, id)| id).collect();
        out.sort_unstable();
        out.dedup();
        Some(out)
    }

    /// Bumps the mutation epoch (one structural change is being applied).
    fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Records `id` as touched by the current epoch's change. A full
    /// journal slides: the oldest entry goes and its epoch becomes the
    /// floor. A query at `since ≥ floor` wants only entries with epochs
    /// `> floor`, and every dropped entry carries an epoch `≤ floor`, so
    /// the window stays complete for it; [`Graph::changes_since`] answers
    /// `None` (forcing a rebuild) for every mark older than the floor.
    /// A consumer therefore rebuilds only when more than [`JOURNAL_CAP`]
    /// changes separate it from its mark, not whenever a wrap happens to
    /// fall between the two.
    /// xtask: no-alloc
    fn record_change(&mut self, id: NodeId) {
        if self.journal.len() >= JOURNAL_CAP {
            if let Some((dropped, _)) = self.journal.pop_front() {
                self.journal_floor = dropped;
            }
        }
        self.journal.push_back((self.epoch, id));
    }

    /// The neighbor row of `i` as an arena span (valid for live rows).
    #[inline]
    fn row(&self, i: usize) -> &[NodeId] {
        &self.pool[self.row_off[i]..self.row_off[i] + self.row_len[i]]
    }

    /// Appends `nb` to `id`'s row, relocating the row to the arena tail
    /// with doubled capacity when full. Amortized O(1).
    fn push_neighbor(&mut self, id: NodeId, nb: NodeId) {
        let i = id.0 as usize;
        let len = self.row_len[i];
        if len == self.row_cap[i] {
            let new_cap = (self.row_cap[i] * 2).max(4);
            let old_off = self.row_off[i];
            let new_off = self.pool.len();
            self.pool.resize(new_off + new_cap, NodeId(u32::MAX));
            self.pool.copy_within(old_off..old_off + len, new_off);
            self.pool_garbage += self.row_cap[i];
            self.row_off[i] = new_off;
            self.row_cap[i] = new_cap;
        }
        let off = self.row_off[i];
        self.pool[off + len] = nb;
        self.row_len[i] = len + 1;
        self.maybe_compact();
    }

    /// Swap-removes `nb` from `id`'s row; returns whether it was present.
    fn remove_neighbor(&mut self, id: NodeId, nb: NodeId) -> bool {
        let i = id.0 as usize;
        let off = self.row_off[i];
        let len = self.row_len[i];
        let row = &mut self.pool[off..off + len];
        match row.iter().position(|&x| x == nb) {
            Some(pos) => {
                row.swap(pos, len - 1);
                self.row_len[i] = len - 1;
                true
            }
            None => false,
        }
    }

    /// Compacts the arena when garbage spans dominate it.
    fn maybe_compact(&mut self) {
        if self.pool.len() > COMPACT_MIN_POOL && self.pool_garbage > self.pool.len() / 2 {
            self.compact_pool();
        }
    }

    /// Rewrites the arena with live rows only (in id order, `cap = len`)
    /// into a new one with no spare slots, reclaiming every garbage span.
    /// O(pool). Neighbor order within each row is preserved, so derived
    /// views and walks are unaffected.
    fn compact_pool(&mut self) {
        let mut new_pool = Vec::with_capacity(self.pool.len() - self.pool_garbage);
        for i in 0..self.row_off.len() {
            if !self.alive[i] {
                self.row_off[i] = 0;
                self.row_len[i] = 0;
                self.row_cap[i] = 0;
                continue;
            }
            let off = self.row_off[i];
            let len = self.row_len[i];
            self.row_off[i] = new_pool.len();
            self.row_cap[i] = len;
            new_pool.extend_from_slice(&self.pool[off..off + len]);
        }
        self.pool = new_pool;
        self.pool_garbage = 0;
    }

    /// Adds a new node and returns its id. Ids are never reused.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(u32::try_from(self.row_off.len()).unwrap_or(u32::MAX));
        self.row_off.push(0);
        self.row_len.push(0);
        self.row_cap.push(0);
        self.alive.push(true);
        self.live_pos.push(self.live.len());
        self.live.push(id);
        self.bump_epoch();
        self.record_change(id);
        id
    }

    /// Removes a node and all its incident edges.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownNode`] if the node does not exist or already left.
    pub fn remove_node(&mut self, id: NodeId) -> Result<()> {
        if !self.contains(id) {
            return Err(NetError::UnknownNode(id));
        }
        let i = id.0 as usize;
        let (off, len) = (self.row_off[i], self.row_len[i]);
        self.alive[i] = false;
        self.pool_garbage += self.row_cap[i];
        self.row_off[i] = 0;
        self.row_len[i] = 0;
        self.row_cap[i] = 0;
        self.edge_count -= len;
        self.bump_epoch();
        self.record_change(id);
        // The departed row's span is garbage now but intact: nothing
        // below touches any row but the neighbors' own, and compaction
        // waits until the loop is done.
        for k in off..off + len {
            let nb = self.pool[k];
            if self.contains(nb) && self.remove_neighbor(nb, id) {
                self.record_change(nb);
            }
        }
        // Remove from the dense live list by swap-remove. The list is
        // non-empty here (the node we just marked dead was in it).
        let pos = self.live_pos[i];
        self.live_pos[i] = usize::MAX;
        if let Some(last) = self.live.pop() {
            if last != id {
                self.live[pos] = last;
                self.live_pos[last.0 as usize] = pos;
            }
        }
        self.maybe_compact();
        Ok(())
    }

    /// Whether `id` refers to a live node.
    #[must_use]
    pub fn contains(&self, id: NodeId) -> bool {
        self.alive.get(id.0 as usize).copied().unwrap_or(false)
    }

    /// Adds the undirected edge `{a, b}`. Adding an existing edge is a
    /// no-op returning `Ok(false)`; a new edge returns `Ok(true)`.
    ///
    /// # Errors
    ///
    /// * [`NetError::SelfLoop`] if `a == b`.
    /// * [`NetError::UnknownNode`] if either endpoint is not live.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) -> Result<bool> {
        if a == b {
            return Err(NetError::SelfLoop(a));
        }
        if !self.contains(a) {
            return Err(NetError::UnknownNode(a));
        }
        if !self.contains(b) {
            return Err(NetError::UnknownNode(b));
        }
        if self.neighbors(a).contains(&b) {
            return Ok(false);
        }
        self.push_neighbor(a, b);
        self.push_neighbor(b, a);
        self.edge_count += 1;
        self.bump_epoch();
        self.record_change(a);
        self.record_change(b);
        Ok(true)
    }

    /// Removes the undirected edge `{a, b}` if present; returns whether an
    /// edge was removed.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownNode`] if either endpoint is not live.
    pub fn remove_edge(&mut self, a: NodeId, b: NodeId) -> Result<bool> {
        if !self.contains(a) {
            return Err(NetError::UnknownNode(a));
        }
        if !self.contains(b) {
            return Err(NetError::UnknownNode(b));
        }
        if !self.remove_neighbor(a, b) {
            return Ok(false);
        }
        self.remove_neighbor(b, a);
        self.edge_count -= 1;
        self.bump_epoch();
        self.record_change(a);
        self.record_change(b);
        Ok(true)
    }

    /// Whether the edge `{a, b}` exists.
    #[must_use]
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.contains(a) && self.neighbors(a).contains(&b)
    }

    /// The neighbor list of `id` (empty slice for unknown nodes).
    #[must_use]
    pub fn neighbors(&self, id: NodeId) -> &[NodeId] {
        if self.contains(id) {
            self.row(id.0 as usize)
        } else {
            &[]
        }
    }

    /// Degree of `id` (0 for unknown nodes).
    #[must_use]
    pub fn degree(&self, id: NodeId) -> usize {
        if self.contains(id) {
            self.row_len[id.0 as usize]
        } else {
            0
        }
    }

    /// Number of live nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.live.len()
    }

    /// Number of undirected edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Whether the graph has no live nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Iterator over live node ids (arbitrary but deterministic order).
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.live.iter().copied()
    }

    /// Uniformly random live node.
    ///
    /// # Errors
    ///
    /// [`NetError::EmptyGraph`] if there are no live nodes.
    pub fn random_node<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<NodeId> {
        if self.live.is_empty() {
            return Err(NetError::EmptyGraph);
        }
        Ok(self.live[rng.gen_range(0..self.live.len())])
    }

    /// BFS hop distances from `source` to every reachable node, as
    /// `(node, distance)` pairs (including `(source, 0)`).
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownNode`] if `source` is not live.
    pub fn bfs_distances(&self, source: NodeId) -> Result<Vec<(NodeId, u32)>> {
        if !self.contains(source) {
            return Err(NetError::UnknownNode(source));
        }
        let mut dist: Vec<Option<u32>> = vec![None; self.row_off.len()];
        dist[source.0 as usize] = Some(0);
        let mut queue = std::collections::VecDeque::from([source]);
        let mut out = Vec::with_capacity(self.live.len());
        while let Some(v) = queue.pop_front() {
            // Enqueued nodes always carry a distance; skip defensively.
            let Some(d) = dist[v.0 as usize] else {
                continue;
            };
            out.push((v, d));
            for &nb in self.neighbors(v) {
                let slot = &mut dist[nb.0 as usize];
                if slot.is_none() {
                    *slot = Some(d + 1);
                    queue.push_back(nb);
                }
            }
        }
        Ok(out)
    }

    /// Whether every live node is reachable from every other (a connected
    /// graph; the empty graph counts as connected).
    #[must_use]
    pub fn is_connected(&self) -> bool {
        match self.live.first() {
            None => true,
            Some(&start) => {
                let reached = self.bfs_distances(start).map(|d| d.len()).unwrap_or(0);
                reached == self.live.len()
            }
        }
    }

    /// The node set of the largest connected component.
    #[must_use]
    pub fn largest_component(&self) -> Vec<NodeId> {
        let mut seen = vec![false; self.row_off.len()];
        let mut best: Vec<NodeId> = Vec::new();
        for &start in &self.live {
            if seen[start.0 as usize] {
                continue;
            }
            let mut component = Vec::new();
            let mut queue = std::collections::VecDeque::from([start]);
            seen[start.0 as usize] = true;
            while let Some(v) = queue.pop_front() {
                component.push(v);
                for &nb in self.neighbors(v) {
                    if !seen[nb.0 as usize] {
                        seen[nb.0 as usize] = true;
                        queue.push_back(nb);
                    }
                }
            }
            if component.len() > best.len() {
                best = component;
            }
        }
        best
    }

    /// Whether the connected-mark is a proof for the topology as it
    /// stands: set, and no structural edit since.
    pub(crate) fn proven_connected(&self) -> bool {
        self.connected_at == Some(self.epoch)
    }

    /// Records that the caller has just established connectivity of the
    /// current topology (by proof or by stitching).
    pub(crate) fn mark_connected(&mut self) {
        self.connected_at = Some(self.epoch);
    }

    /// Whether all live ids among `terminals` lie in one component.
    /// Departed ids are skipped; zero or one live terminal is trivially
    /// chained.
    ///
    /// The first live terminal's search is kept as one stamped component
    /// whose frontier carries over from terminal to terminal. A later
    /// terminal already stamped is in it and costs nothing. Any other runs
    /// a breadth-first search from its own end against the component,
    /// always expanding a node of the side with fewer pending ones; when
    /// the two meet, its side is stamped into the component and its
    /// pending nodes join the component's frontier. A side that runs dry
    /// is a whole component without the other: a partition. A one-sided
    /// search that exits on reaching its target visits most of a
    /// small-world overlay before it gets there (≈ 70 000 of 10⁵ BA
    /// nodes); balanced sides meet after a few hundred, and on a real
    /// partition the cost is about twice the smaller side.
    /// xtask: no-alloc
    pub(crate) fn chain_connected(&mut self, terminals: &[NodeId]) -> bool {
        let Self {
            reach,
            pool,
            row_off,
            row_len,
            alive,
            ..
        } = self;
        let is_live = |t: &&NodeId| alive.get(t.0 as usize).copied().unwrap_or(false);
        let mut live = terminals.iter().filter(is_live);
        let Some(&first) = live.next() else {
            return true;
        };
        if reach.mark.len() < row_off.len() || reach.stamp > u32::MAX - 2 {
            reach.grow(row_off.capacity());
        }
        let ReachScratch { mark, stamp, sides } = reach;
        // The component's stamp, then the searching terminal's.
        let stamps = [*stamp + 1, *stamp + 2];
        *stamp += 2;
        let [component, searching] = sides;
        component.clear();
        enqueue(component, first);
        mark[first.0 as usize] = stamps[0];
        let mut heads = [0usize; 2];
        for &t in live {
            if mark[t.0 as usize] == stamps[0] {
                continue;
            }
            searching.clear();
            heads[1] = 0;
            enqueue(searching, t);
            mark[t.0 as usize] = stamps[1];
            loop {
                let pending = [component.len() - heads[0], searching.len() - heads[1]];
                if pending[0] == 0 || pending[1] == 0 {
                    return false;
                }
                let side = usize::from(pending[1] < pending[0]);
                let frontier = if side == 0 {
                    &mut *component
                } else {
                    &mut *searching
                };
                let v = frontier[heads[side]].0 as usize;
                heads[side] += 1;
                // The whole row is expanded even once the sides meet, so
                // every stamped node is expanded or pending.
                let mut met = false;
                for &nb in &pool[row_off[v]..row_off[v] + row_len[v]] {
                    let seen = &mut mark[nb.0 as usize];
                    if *seen == stamps[1 - side] {
                        met = true;
                    } else if *seen != stamps[side] {
                        *seen = stamps[side];
                        enqueue(frontier, nb);
                    }
                }
                if met {
                    for &u in searching.iter() {
                        mark[u.0 as usize] = stamps[0];
                    }
                    for &u in &searching[heads[1]..] {
                        enqueue(component, u);
                    }
                    break;
                }
            }
        }
        true
    }

    /// True if the graph is bipartite (2-colourable). A bipartite overlay
    /// would make the plain random walk periodic — the reason the
    /// Metropolis walk carries the laziness factor ½ (paper Theorem 2).
    #[must_use]
    pub fn is_bipartite(&self) -> bool {
        let mut color: Vec<Option<bool>> = vec![None; self.row_off.len()];
        for &start in &self.live {
            if color[start.0 as usize].is_some() {
                continue;
            }
            color[start.0 as usize] = Some(false);
            let mut queue = std::collections::VecDeque::from([start]);
            while let Some(v) = queue.pop_front() {
                // Enqueued nodes are always coloured; skip defensively.
                let Some(c) = color[v.0 as usize] else {
                    continue;
                };
                for &nb in self.neighbors(v) {
                    match color[nb.0 as usize] {
                        None => {
                            color[nb.0 as usize] = Some(!c);
                            queue.push_back(nb);
                        }
                        Some(nc) if nc == c => return false,
                        Some(_) => {}
                    }
                }
            }
        }
        true
    }

    /// Upper bound on node ids ever allocated (for building dense
    /// id-indexed side tables).
    #[must_use]
    pub fn id_upper_bound(&self) -> usize {
        self.row_off.len()
    }
}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    clippy::cast_possible_truncation
)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use std::collections::{BTreeMap, BTreeSet};

    fn triangle() -> (Graph, NodeId, NodeId, NodeId) {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        g.add_edge(a, b).unwrap();
        g.add_edge(b, c).unwrap();
        g.add_edge(c, a).unwrap();
        (g, a, b, c)
    }

    #[test]
    fn empty_graph_properties() {
        let g = Graph::new();
        assert!(g.is_empty());
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert!(g.is_connected());
        assert!(g.is_bipartite());
        assert!(g.largest_component().is_empty());
    }

    #[test]
    fn add_nodes_and_edges() {
        let (g, a, b, c) = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(a), 2);
        assert!(g.has_edge(a, b));
        assert!(g.has_edge(b, a));
        assert!(!g.is_bipartite());
        assert!(g.is_connected());
        let _ = c;
    }

    #[test]
    fn duplicate_edge_is_noop() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        assert!(g.add_edge(a, b).unwrap());
        assert!(!g.add_edge(a, b).unwrap());
        assert!(!g.add_edge(b, a).unwrap());
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(a), 1);
    }

    #[test]
    fn self_loop_rejected() {
        let mut g = Graph::new();
        let a = g.add_node();
        assert_eq!(g.add_edge(a, a).unwrap_err(), NetError::SelfLoop(a));
    }

    #[test]
    fn edge_to_unknown_node_rejected() {
        let mut g = Graph::new();
        let a = g.add_node();
        let ghost = NodeId(99);
        assert_eq!(
            g.add_edge(a, ghost).unwrap_err(),
            NetError::UnknownNode(ghost)
        );
        assert_eq!(
            g.add_edge(ghost, a).unwrap_err(),
            NetError::UnknownNode(ghost)
        );
    }

    #[test]
    fn remove_edge() {
        let (mut g, a, b, _) = triangle();
        assert!(g.remove_edge(a, b).unwrap());
        assert!(!g.remove_edge(a, b).unwrap());
        assert_eq!(g.edge_count(), 2);
        assert!(!g.has_edge(a, b));
        assert_eq!(g.degree(a), 1);
    }

    #[test]
    fn remove_node_cleans_incident_edges() {
        let (mut g, a, b, c) = triangle();
        g.remove_node(a).unwrap();
        assert!(!g.contains(a));
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(b), 1);
        assert_eq!(g.degree(c), 1);
        assert!(g.has_edge(b, c));
        // Removing again fails.
        assert_eq!(g.remove_node(a).unwrap_err(), NetError::UnknownNode(a));
    }

    #[test]
    fn node_ids_are_not_reused() {
        let mut g = Graph::new();
        let a = g.add_node();
        g.remove_node(a).unwrap();
        let b = g.add_node();
        assert_ne!(a, b);
        assert!(!g.contains(a));
        assert!(g.contains(b));
    }

    #[test]
    fn bfs_distances_on_path() {
        let mut g = Graph::new();
        let ids: Vec<NodeId> = (0..5).map(|_| g.add_node()).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1]).unwrap();
        }
        let mut d = g.bfs_distances(ids[0]).unwrap();
        d.sort_by_key(|&(id, _)| id);
        for (i, &(id, dist)) in d.iter().enumerate() {
            assert_eq!(id, ids[i]);
            assert_eq!(dist, i as u32);
        }
    }

    #[test]
    fn connectivity_and_components() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        let d = g.add_node();
        g.add_edge(a, b).unwrap();
        g.add_edge(c, d).unwrap();
        assert!(!g.is_connected());
        assert_eq!(g.largest_component().len(), 2);
        g.add_edge(b, c).unwrap();
        assert!(g.is_connected());
        assert_eq!(g.largest_component().len(), 4);
    }

    #[test]
    fn bipartite_detection() {
        // Path graphs are bipartite, odd cycles are not.
        let mut g = Graph::new();
        let ids: Vec<NodeId> = (0..4).map(|_| g.add_node()).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1]).unwrap();
        }
        assert!(g.is_bipartite());
        // Close into an even cycle: still bipartite.
        g.add_edge(ids[3], ids[0]).unwrap();
        assert!(g.is_bipartite());
        // Add a chord making an odd cycle.
        g.add_edge(ids[0], ids[2]).unwrap();
        assert!(!g.is_bipartite());
    }

    #[test]
    fn random_node_is_live_and_covers_all() {
        let (mut g, a, _, _) = triangle();
        g.remove_node(a).unwrap();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            let v = g.random_node(&mut rng).unwrap();
            assert!(g.contains(v));
            assert_ne!(v, a);
            seen.insert(v);
        }
        assert_eq!(seen.len(), 2, "both live nodes should be drawn");
    }

    #[test]
    fn random_node_on_empty_graph_errors() {
        let g = Graph::new();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        assert_eq!(g.random_node(&mut rng).unwrap_err(), NetError::EmptyGraph);
    }

    #[test]
    fn epoch_advances_only_on_structural_change() {
        let mut g = Graph::new();
        assert_eq!(g.epoch(), 0);
        let a = g.add_node();
        let b = g.add_node();
        let e = g.epoch();
        assert_eq!(e, 2);
        g.add_edge(a, b).unwrap();
        assert_eq!(g.epoch(), e + 1);
        // Duplicate edge is a no-op: no bump.
        g.add_edge(a, b).unwrap();
        assert_eq!(g.epoch(), e + 1);
        // Removing an absent edge is a no-op: no bump.
        let c = g.add_node();
        let after_c = g.epoch();
        g.remove_edge(a, c).unwrap();
        assert_eq!(g.epoch(), after_c);
        g.remove_edge(a, b).unwrap();
        assert_eq!(g.epoch(), after_c + 1);
        g.remove_node(a).unwrap();
        assert_eq!(g.epoch(), after_c + 2);
        // Read-only queries never bump.
        let _ = g.degree(b);
        let _ = g.is_connected();
        assert_eq!(g.epoch(), after_c + 2);
    }

    #[test]
    fn changes_since_reports_touched_nodes() {
        let (mut g, a, b, c) = triangle();
        let mark = g.epoch();
        assert_eq!(g.changes_since(mark).unwrap(), Vec::<NodeId>::new());

        g.remove_edge(a, b).unwrap();
        assert_eq!(g.changes_since(mark).unwrap(), vec![a, b]);

        // Removing a node dirties it and all its (remaining) neighbors.
        g.remove_node(c).unwrap();
        assert_eq!(g.changes_since(mark).unwrap(), vec![a, b, c]);

        // A fresh mark sees only later changes.
        let mark2 = g.epoch();
        let d = g.add_node();
        g.add_edge(a, d).unwrap();
        assert_eq!(g.changes_since(mark2).unwrap(), vec![a, d]);
    }

    #[test]
    fn journal_overflow_forces_full_rebuild_only_for_old_marks() {
        let mut g = Graph::new();
        let ids: Vec<NodeId> = (0..4).map(|_| g.add_node()).collect();
        let old_mark = g.epoch();
        // Far more than JOURNAL_CAP changes: toggle one edge repeatedly.
        for _ in 0..2000 {
            g.add_edge(ids[0], ids[1]).unwrap();
            g.remove_edge(ids[0], ids[1]).unwrap();
        }
        assert!(
            g.changes_since(old_mark).is_none(),
            "overflowed journal must demand a full rebuild"
        );
        // A mark taken now is trackable again.
        let new_mark = g.epoch();
        g.add_edge(ids[2], ids[3]).unwrap();
        assert_eq!(g.changes_since(new_mark).unwrap(), vec![ids[2], ids[3]]);
    }

    /// The window slides: however many records went before, a mark that
    /// is 100 entries old is served, wherever the wraps fell.
    #[test]
    fn a_recent_mark_is_served_however_long_the_history() {
        let mut g = Graph::new();
        let ids: Vec<NodeId> = (0..6).map(|_| g.add_node()).collect();
        let mut records = ids.len();
        let mut toggles = 0usize;
        while records < 5_000 {
            let mark = g.epoch();
            // 50 toggles of two entries each: 100 entries past the mark.
            for _ in 0..50 {
                let (a, b) = (ids[toggles % 5], ids[toggles % 5 + 1]);
                if !g.add_edge(a, b).unwrap() {
                    g.remove_edge(a, b).unwrap();
                }
                toggles += 1;
                assert!(g.changes_since(mark).is_some(), "after {records} records");
            }
            records += 100;
            assert_eq!(g.changes_since(mark).unwrap().len(), 6);
        }
        assert_eq!(g.journal.len(), JOURNAL_CAP);
    }

    /// Where the window ends: the epoch of the last dropped entry is the
    /// oldest mark still served, and it is served completely.
    #[test]
    fn the_floor_is_the_last_dropped_epoch() {
        let mut g = Graph::new();
        // One entry per epoch, ids = epochs − 1.
        for _ in 0..JOURNAL_CAP {
            g.add_node();
        }
        assert_eq!(g.journal_floor, 0);
        assert_eq!(g.changes_since(0).unwrap().len(), JOURNAL_CAP);
        // Two more entries drop epochs 1 and 2.
        g.add_node();
        g.add_node();
        let dropped = 2;
        assert_eq!(g.journal_floor, dropped);
        assert!(g.changes_since(dropped - 1).is_none());
        let served = g.changes_since(dropped).unwrap();
        let expected: Vec<NodeId> = (dropped as u32..g.epoch() as u32).map(NodeId).collect();
        assert_eq!(served, expected);

        // An edge is two entries of one epoch; dropping the first of them
        // leaves the second in a window whose floor is their epoch.
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, b).unwrap();
        for _ in 0..JOURNAL_CAP - 1 {
            g.add_node();
        }
        assert_eq!(g.journal.front(), Some(&(3, b)));
        assert_eq!(g.journal_floor, 3);
        assert!(g.changes_since(2).is_none());
        assert_eq!(g.changes_since(3).unwrap().len(), JOURNAL_CAP - 1);
    }

    #[test]
    fn changes_since_future_mark_demands_rebuild() {
        // A mark beyond the current epoch (taken from a different graph,
        // or from one that has since been swapped out underneath the
        // cache) must force a rebuild, never report "no changes".
        let (mut g, a, b, _) = triangle();
        assert!(g.changes_since(g.epoch() + 1).is_none());
        assert!(g.changes_since(u64::MAX).is_none());
        // Equality still means "unchanged"…
        assert_eq!(g.changes_since(g.epoch()).unwrap(), Vec::<NodeId>::new());
        // …and ordinary past marks still patch.
        let mark = g.epoch();
        g.remove_edge(a, b).unwrap();
        assert_eq!(g.changes_since(mark).unwrap(), vec![a, b]);
    }

    /// An arbitrary mutation applied to a graph.
    #[derive(Debug, Clone)]
    enum Op {
        AddNode,
        RemoveNode(u32),
        AddEdge(u32, u32),
        RemoveEdge(u32, u32),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            Just(Op::AddNode),
            (0u32..64).prop_map(Op::RemoveNode),
            (0u32..64, 0u32..64).prop_map(|(a, b)| Op::AddEdge(a, b)),
            (0u32..64, 0u32..64).prop_map(|(a, b)| Op::RemoveEdge(a, b)),
        ]
    }

    /// A graph and a naive `BTreeMap` adjacency model driven in lock-step,
    /// plus what the arena was seen doing along the way.
    #[derive(Default)]
    struct Mirror {
        g: Graph,
        model: BTreeMap<NodeId, BTreeSet<NodeId>>,
        /// Epoch the journal window opened at; ids the model changed since.
        mark: u64,
        touched: BTreeSet<NodeId>,
        compactions: usize,
        relocations_after_compaction: usize,
    }

    impl Mirror {
        /// Applies `op` to both sides; the graph must return what the model
        /// predicts and journal every id the model touched.
        fn apply(&mut self, op: &Op) -> std::result::Result<(), String> {
            let (pool, garbage) = (self.g.pool.len(), self.g.pool_garbage);
            match *op {
                Op::AddNode => {
                    let id = self.g.add_node();
                    prop_assert!(self.model.insert(id, BTreeSet::new()).is_none());
                    self.touched.insert(id);
                }
                Op::RemoveNode(i) => {
                    let id = NodeId(i);
                    let row = self.model.remove(&id);
                    prop_assert_eq!(self.g.remove_node(id).is_ok(), row.is_some());
                    if let Some(row) = row {
                        for nb in &row {
                            self.model.get_mut(nb).unwrap().remove(&id);
                        }
                        self.touched.insert(id);
                        self.touched.extend(row);
                    }
                }
                Op::AddEdge(a, b) => {
                    let (a, b) = (NodeId(a), NodeId(b));
                    let live = a != b && self.model.contains_key(&a) && self.model.contains_key(&b);
                    let fresh = live && self.model.get_mut(&a).unwrap().insert(b);
                    if fresh {
                        self.model.get_mut(&b).unwrap().insert(a);
                        self.touched.extend([a, b]);
                    }
                    prop_assert_eq!(self.g.add_edge(a, b).ok(), live.then_some(fresh));
                }
                Op::RemoveEdge(a, b) => {
                    let (a, b) = (NodeId(a), NodeId(b));
                    let live = self.model.contains_key(&a) && self.model.contains_key(&b);
                    let removed = live && self.model.get_mut(&a).unwrap().remove(&b);
                    if removed {
                        self.model.get_mut(&b).unwrap().remove(&a);
                        self.touched.extend([a, b]);
                    }
                    prop_assert_eq!(self.g.remove_edge(a, b).ok(), live.then_some(removed));
                }
            }
            // Garbage only ever shrinks in `compact_pool`; the pool only
            // ever grows when `push_neighbor` relocates a full row.
            if self.g.pool_garbage < garbage {
                self.compactions += 1;
            } else if self.compactions > 0 && self.g.pool.len() > pool {
                self.relocations_after_compaction += 1;
            }
            match self.g.changes_since(self.mark) {
                Some(changed) => prop_assert!(
                    self.touched
                        .iter()
                        .all(|id| changed.binary_search(id).is_ok()),
                    "journal missed a change"
                ),
                // Overflowed past the mark: open a new window.
                None => {
                    prop_assert!(self.g.journal_floor > self.mark);
                    self.mark = self.g.epoch();
                    self.touched.clear();
                }
            }
            Ok(())
        }

        /// Same live ids, degrees, neighbour sets and edge count.
        fn compare(&self) -> std::result::Result<(), String> {
            prop_assert_eq!(self.g.node_count(), self.model.len());
            let live: BTreeSet<NodeId> = self.g.nodes().collect();
            prop_assert!(live.iter().eq(self.model.keys()), "live id sets differ");
            for (&v, reference) in &self.model {
                // Degree == set size also rules out parallel edges.
                prop_assert_eq!(self.g.degree(v), reference.len(), "degree of {}", v);
                let actual: BTreeSet<NodeId> = self.g.neighbors(v).iter().copied().collect();
                prop_assert_eq!(&actual, reference, "neighbour set of {}", v);
            }
            let degree_sum: usize = self.model.values().map(BTreeSet::len).sum();
            prop_assert_eq!(degree_sum, 2 * self.g.edge_count());
            Ok(())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Arbitrary ops around a hub phase sized from `COMPACT_MIN_POOL`:
        /// the hub row relocates up to that size, most spokes then leave so
        /// garbage dominates the pool and compaction fires, and the ops
        /// that follow relocate rows compaction left at `cap == len`.
        #[test]
        fn graph_matches_reference_model_through_compaction(
            ops in prop::collection::vec(op_strategy(), 0..400),
            spokes in COMPACT_MIN_POOL..2 * COMPACT_MIN_POOL,
        ) {
            let mut m = Mirror::default();
            let (before, after) = ops.split_at(ops.len() / 2);
            for op in before {
                m.apply(op)?;
            }
            m.compare()?;

            let hub = m.g.id_upper_bound() as u32;
            let spokes = hub + 1..=hub + spokes as u32;
            m.apply(&Op::AddNode)?;
            for spoke in spokes.clone() {
                m.apply(&Op::AddNode)?;
                m.apply(&Op::AddEdge(hub, spoke))?;
            }
            // Appends (and the relocations under them) keep insertion order.
            prop_assert!(m.g.neighbors(NodeId(hub)).iter().map(|n| n.0).eq(spokes.clone()));
            m.compare()?;
            for spoke in spokes.clone().skip(16) {
                m.apply(&Op::RemoveNode(spoke))?;
            }
            prop_assert!(m.compactions > 0, "hub phase never compacted");
            m.compare()?;

            for spoke in spokes.take(16).skip(1) {
                m.apply(&Op::AddEdge(spoke - 1, spoke))?;
            }
            for op in after {
                m.apply(op)?;
            }
            prop_assert!(m.relocations_after_compaction > 0);
            m.compare()?;
        }
    }

    /// Every pair of a sparse random graph, against one-sided BFS — with
    /// departed ids in the id space, across the stamp counter's wrap, and
    /// on a clone (which starts with empty scratch).
    #[test]
    fn two_sided_search_agrees_with_bfs() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        for round in 0..20 {
            let mut g = Graph::new();
            let ids: Vec<NodeId> = (0..40).map(|_| g.add_node()).collect();
            for _ in 0..25 + round {
                let _ = g.add_edge(ids[rng.gen_range(0..40)], ids[rng.gen_range(0..40)]);
            }
            g.remove_node(ids[rng.gen_range(0..40)]).unwrap();
            g.reach.stamp = u32::MAX - 41;
            let mut copy = g.clone();
            let live: Vec<NodeId> = g.nodes().collect();
            for &a in &live {
                let reached: BTreeSet<NodeId> = g
                    .bfs_distances(a)
                    .unwrap()
                    .iter()
                    .map(|&(v, _)| v)
                    .collect();
                for &b in &live {
                    assert_eq!(g.chain_connected(&[a, b]), reached.contains(&b), "{a} {b}");
                }
                let reached: Vec<NodeId> = reached.into_iter().collect();
                assert!(copy.chain_connected(&reached));
                let strays = live.iter().filter(|v| !reached.contains(v));
                assert!(strays
                    .clone()
                    .all(|&s| !copy.chain_connected(&[a, ids[0], s])));
            }
            assert!(g.reach.stamp < 4000, "the counter wrapped");
        }
    }

    /// Whether `g`'s live rows lie back to back in id order from the
    /// arena's start, with no garbage.
    pub(crate) fn rows_in_id_order(g: &Graph) -> bool {
        let mut next = 0;
        for i in 0..g.row_off.len() {
            if g.alive[i] {
                if g.row_off[i] != next {
                    return false;
                }
                next += g.row_len[i];
            }
        }
        g.pool.len() == next && g.pool_garbage == 0
    }

    /// Whether `a` and `b` are the same graph to every reader: each id's
    /// liveness, neighbours in order and degree, `has_edge` from it to
    /// its neighbours and to a few ids about it, the edge count, epoch,
    /// `nodes()` order, id space and connected-mark. The arena's layout
    /// is free.
    pub(crate) fn same_graph(a: &Graph, b: &Graph) -> std::result::Result<(), String> {
        prop_assert_eq!(a.id_upper_bound(), b.id_upper_bound());
        for v in (0..a.id_upper_bound() as u32 + 2).map(NodeId) {
            prop_assert_eq!(a.contains(v), b.contains(v), "liveness of {}", v);
            prop_assert_eq!(a.neighbors(v), b.neighbors(v), "row of {}", v);
            prop_assert_eq!(a.degree(v), b.degree(v), "degree of {}", v);
            let about = [
                v.0 / 2,
                v.0 ^ 1,
                v.0 + 1,
                v.0 * 7 % (a.id_upper_bound() as u32 + 1),
            ];
            let others = about
                .into_iter()
                .map(NodeId)
                .chain(b.neighbors(v).iter().copied());
            for u in a.neighbors(v).iter().copied().chain(others) {
                prop_assert_eq!(a.has_edge(v, u), b.has_edge(v, u), "{} {}", v, u);
            }
        }
        prop_assert_eq!(a.edge_count(), b.edge_count());
        prop_assert_eq!(a.epoch(), b.epoch());
        prop_assert!(a.nodes().eq(b.nodes()), "nodes() order differs");
        prop_assert_eq!(a.proven_connected(), b.proven_connected());
        Ok(())
    }

    /// A simple graph's edge list on `n` nodes: `edges` distinct pairs,
    /// each in a random orientation, in a random order.
    fn shuffled_edges(n: usize, edges: usize, rng: &mut impl Rng) -> Vec<(NodeId, NodeId)> {
        let edges = edges.min(n * (n - 1) / 2);
        let mut seen = BTreeSet::new();
        let mut list = Vec::with_capacity(edges);
        while list.len() < edges {
            let (a, b) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
            if a != b && seen.insert((a.min(b), a.max(b))) {
                list.push((NodeId(a), NodeId(b)));
            }
        }
        for i in (1..list.len()).rev() {
            list.swap(i, rng.gen_range(0..i + 1));
        }
        list
    }

    /// `n` [`Graph::add_node`]s on `with_capacity(n + room)`, then one
    /// [`Graph::add_edge`] per pair: what [`Graph::from_edges`] stands for.
    pub(crate) fn edge_by_edge(n: usize, room: usize, edges: &[(NodeId, NodeId)]) -> Graph {
        let mut g = Graph::with_capacity(n + room);
        for _ in 0..n {
            g.add_node();
        }
        for &(a, b) in edges {
            assert!(g.add_edge(a, b).unwrap(), "{a} {b} is not a new edge");
        }
        g
    }

    /// One random structural edit over ids up to two past the id space
    /// (so unknown and departed ids come up), applied to both graphs; they
    /// must answer alike.
    fn edit_both(
        a: &mut Graph,
        b: &mut Graph,
        rng: &mut impl Rng,
    ) -> std::result::Result<(), String> {
        let upper = a.id_upper_bound() as u32 + 2;
        let (u, v) = (
            NodeId(rng.gen_range(0..upper)),
            NodeId(rng.gen_range(0..upper)),
        );
        match rng.gen_range(0..8) {
            0 => prop_assert_eq!(a.add_node(), b.add_node()),
            1 => prop_assert_eq!(a.remove_node(u), b.remove_node(u)),
            2..=4 => prop_assert_eq!(a.add_edge(u, v), b.add_edge(u, v)),
            _ => prop_assert_eq!(a.remove_edge(u, v), b.remove_edge(u, v)),
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The one-pass layout is the edge-by-edge build: the same graph
        /// right after it and after the same edits on both, the same
        /// journal for every mark taken since the build, and none for a
        /// mark older than it (the bulk build keeps no history).
        #[test]
        fn a_bulk_build_is_the_edge_by_edge_build(
            n in 1usize..300,
            density in 0usize..5,
            roomy in 0usize..2,
            edits in 0usize..200,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let room = 17 * roomy;
            let edges = shuffled_edges(n, density * n, &mut rng);
            let mut bulk = Graph::from_edges(n, room, 0, edges.iter().copied());
            let mut reference = edge_by_edge(n, room, &edges);
            same_graph(&bulk, &reference)?;
            prop_assert!(rows_in_id_order(&bulk));
            let built = bulk.epoch();
            let mut marks = vec![built];
            for _ in 0..edits {
                edit_both(&mut bulk, &mut reference, &mut rng)?;
                marks.push(bulk.epoch());
                let mark = marks[rng.gen_range(0..marks.len())];
                prop_assert_eq!(bulk.changes_since(mark), reference.changes_since(mark));
            }
            same_graph(&bulk, &reference)?;
            for &mark in &marks {
                prop_assert_eq!(bulk.changes_since(mark), reference.changes_since(mark));
            }
            for old in [0, built / 2, built.saturating_sub(1)] {
                prop_assert!(old == built || bulk.changes_since(old).is_none());
            }
        }
    }

    /// The neighbour pool each builder leaves: `with_capacity`'s
    /// `4·(n + room)` slots, or the entries when they are more — and for
    /// Barabási–Albert as many spare slots again as entries, the room its
    /// rows relocate into under churn. Tightened, that rule makes the
    /// `churn_100k` world regrow its pool mid-run (a 10⁵-node integration
    /// test); this pins it where it is made.
    #[test]
    fn each_builder_leaves_its_pool_room() {
        use crate::topology::{barabasi_albert_with_room, complete, mesh, ring, star};
        let pool = |g: &Graph, n: usize, room: usize, spare: usize| {
            assert_eq!(g.pool.len(), 2 * g.edge_count());
            assert_eq!(
                g.pool.capacity(),
                (4 * (n + room)).max(g.pool.len() + spare)
            );
            assert!(g.row_off.capacity() >= n + room && g.live.capacity() >= n + room);
            assert_eq!(g.journal.capacity(), JOURNAL_CAP);
        };
        pool(&mesh(10, 53, false).unwrap(), 530, 0, 0);
        pool(&mesh(4, 4, true).unwrap(), 16, 0, 0);
        pool(&ring(10).unwrap(), 10, 0, 0);
        pool(&star(40).unwrap(), 40, 0, 0);
        pool(&complete(20).unwrap(), 20, 0, 0);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(12);
        for (n, m, room) in [(2_000, 3, 40), (2_000, 1, 0), (50, 2, 500), (4, 3, 0)] {
            let ba = barabasi_albert_with_room(n, m, room, &mut rng).unwrap();
            pool(&ba, n, room, 2 * ba.edge_count());
        }
    }

    /// The connected components of `g`, as one label per id (the
    /// component's first node in `nodes()` order; `None` for departed
    /// ids), by one-sided BFS.
    fn bfs_labels(g: &Graph) -> Vec<Option<NodeId>> {
        let mut label = vec![None; g.id_upper_bound()];
        for start in g.nodes() {
            if label[start.0 as usize].is_none() {
                for (v, _) in g.bfs_distances(start).unwrap() {
                    label[v.0 as usize] = Some(start);
                }
            }
        }
        label
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `chain_connected` is "every live terminal has one BFS label" on
        /// sparse random graphs with departed nodes, for terminal lists
        /// with departed, unknown and repeated ids, checked call after
        /// call from a stamp counter a few calls before its wrap.
        #[test]
        fn chain_connected_is_one_label_per_live_terminal(
            n in 2usize..40,
            edges in prop::collection::vec((0usize..40, 0usize..40), 0..60),
            removals in prop::collection::vec(0usize..40, 0..6),
            lists in prop::collection::vec(prop::collection::vec(0u32..44, 0..8), 1..8),
            before_wrap in 0u32..8,
        ) {
            let mut g = Graph::new();
            let ids: Vec<NodeId> = (0..n).map(|_| g.add_node()).collect();
            for &(a, b) in &edges {
                let _ = g.add_edge(ids[a % n], ids[b % n]);
            }
            for &r in &removals {
                let _ = g.remove_node(ids[r % n]);
            }
            let label = bfs_labels(&g);
            g.reach.stamp = u32::MAX - 2 * before_wrap;
            for terminals in &lists {
                let mut labels = terminals
                    .iter()
                    .filter_map(|&t| label.get(t as usize).copied().flatten());
                let first = labels.next();
                let want = labels.all(|l| Some(l) == first);
                let terminals: Vec<NodeId> = terminals.iter().map(|&t| NodeId(t)).collect();
                prop_assert_eq!(g.chain_connected(&terminals), want, "{:?}", terminals);
            }
        }
    }

    #[test]
    fn dense_random_graph_matches_reference_model() {
        let mut m = Mirror::default();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(99);
        for _ in 0..200 {
            m.apply(&Op::AddNode).unwrap();
        }
        for _ in 0..2000 {
            let edge = Op::AddEdge(rng.gen_range(0..200), rng.gen_range(0..200));
            m.apply(&edge).unwrap();
        }
        // Remove half the nodes: mid-row swap-removes, then compaction.
        for id in (0..200).step_by(2) {
            m.apply(&Op::RemoveNode(id)).unwrap();
        }
        assert!(m.compactions > 0);
        m.compare().unwrap();
    }
}
