//! The horizontally partitioned peer-to-peer database.
//!
//! A single relation `R = {u₁, …, u_N}` whose disjoint fragments live at
//! overlay nodes (paper §II). Fragments appear when a node joins with
//! content and disappear — tuples and all — when it leaves. The struct also
//! exposes *oracle* exact aggregates; the real system can never compute
//! these (that is the whole point of Digest), but the simulator uses them
//! as ground truth to verify precision guarantees.
//!
//! # The digest
//!
//! Beside the fragments the database keeps, dense by node id, each
//! fragment's row count and its per-attribute column sum — its *leaf*: the
//! sequential `+=` chain over the fragment's rows in store order, from
//! `0.0` (a departed or unknown id holds `0` and `0.0`). Every writer
//! keeps them true, so the exact sum of a bare attribute is one pass over a
//! dense `f64` column (`combine`) and `content_size` one `u32` read;
//! neither touches a fragment. A leaf is only ever *recomputed* from the
//! rows it covers (or extended by the row just appended, which is the
//! recomputed chain), never adjusted by `new − old`: it stays a function
//! of the stored rows alone, whatever `NaN`, `∞` or cancellation passed
//! through them.

use crate::error::DbError;
use crate::expr::Expr;
use crate::predicate::Predicate;
use crate::store::{LocalStore, StoreRows};
use crate::tuple::{RowView, Schema, Tuple, TupleHandle};
use crate::Result;
use digest_net::NodeId;
use rand::Rng;
use std::iter::Zip;
use std::ops::RangeFrom;

/// The peer-to-peer database: schema + per-node fragments.
#[derive(Debug, Clone)]
pub struct P2PDatabase {
    schema: Schema,
    /// Fragment per node id (`None` = node unknown or departed).
    fragments: Vec<Option<LocalStore>>,
    total_tuples: usize,
    /// Row count of each fragment, by node id (`0` = none).
    sizes: Vec<u32>,
    /// Per schema attribute, the leaf of each fragment by node id: the
    /// `+=` chain over that column in store order, from `0.0`.
    sums: Vec<Vec<f64>>,
    /// One bit per node id: fragments [`P2PDatabase::update_rows`] wrote
    /// and has yet to re-add. All zero between calls.
    written: Vec<u64>,
}

#[cfg(test)]
thread_local! {
    /// Fragments this thread's writers have re-added (a test's own count:
    /// each test runs on its own thread).
    static READDS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl P2PDatabase {
    /// Creates an empty database over the given schema.
    #[must_use]
    pub fn new(schema: Schema) -> Self {
        Self {
            sums: vec![Vec::new(); schema.arity()],
            schema,
            fragments: Vec::new(),
            total_tuples: 0,
            sizes: Vec::new(),
            written: Vec::new(),
        }
    }

    /// The relation's schema.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Registers a node (idempotent): the node now holds an (initially
    /// empty) fragment. The digest grows here with the id space, so no
    /// writer or reader ever sizes it.
    pub fn register_node(&mut self, node: NodeId) {
        let idx = node.0 as usize;
        if idx >= self.fragments.len() {
            self.fragments.resize_with(idx + 1, || None);
            self.sizes.resize(idx + 1, 0);
            for column in &mut self.sums {
                column.resize(idx + 1, 0.0);
            }
            self.written.resize(idx / 64 + 1, 0);
        }
        if self.fragments[idx].is_none() {
            self.fragments[idx] = Some(LocalStore::new(self.schema.arity()));
        }
    }

    /// Upper bound on the node ids ever registered (for building dense
    /// id-indexed side tables).
    #[must_use]
    pub fn id_upper_bound(&self) -> usize {
        self.fragments.len()
    }

    /// Whether the node currently holds a fragment.
    #[must_use]
    pub fn has_node(&self, node: NodeId) -> bool {
        matches!(self.fragments.get(node.0 as usize), Some(Some(_)))
    }

    /// Removes a node's fragment (the node left), returning the number of
    /// tuples that vanished with it.
    ///
    /// # Errors
    ///
    /// [`DbError::UnknownNode`] if the node holds no fragment.
    pub fn remove_node(&mut self, node: NodeId) -> Result<usize> {
        let idx = node.0 as usize;
        let store = self
            .fragments
            .get_mut(idx)
            .and_then(Option::take)
            .ok_or(DbError::UnknownNode(node))?;
        self.total_tuples -= store.len();
        self.sizes[idx] = 0;
        for column in &mut self.sums {
            column[idx] = 0.0;
        }
        Ok(store.len())
    }

    /// Inserts a tuple at `node`.
    ///
    /// # Errors
    ///
    /// * [`DbError::UnknownNode`] if the node holds no fragment.
    /// * [`DbError::ArityMismatch`] if the tuple does not fit the schema.
    pub fn insert(&mut self, node: NodeId, tuple: Tuple) -> Result<TupleHandle> {
        if tuple.arity() != self.schema.arity() {
            return Err(DbError::ArityMismatch {
                got: tuple.arity(),
                expected: self.schema.arity(),
            });
        }
        let store = self.store_mut(node)?;
        let (slot, generation) = store.insert(&tuple);
        self.total_tuples += 1;
        // The new row is last in store order: extending each chain by it
        // is the recomputed chain.
        let idx = node.0 as usize;
        self.sizes[idx] += 1;
        for (column, value) in self.sums.iter_mut().zip(tuple.values()) {
            column[idx] += value;
        }
        Ok(TupleHandle {
            node,
            slot,
            generation,
        })
    }

    /// Deletes the tuple a handle points to; returns whether anything was
    /// deleted (`false` = the handle was already stale).
    ///
    /// # Errors
    ///
    /// [`DbError::UnknownNode`] if the node holds no fragment.
    pub fn delete(&mut self, handle: TupleHandle) -> Result<bool> {
        let store = self.store_mut(handle.node)?;
        let deleted = store.delete(handle.slot, handle.generation);
        if deleted {
            self.total_tuples -= 1;
            // The swap-remove reordered the fragment's rows.
            let idx = handle.node.0 as usize;
            self.sizes[idx] -= 1;
            self.readd(idx);
        }
        Ok(deleted)
    }

    /// Reads the tuple behind a handle, in place.
    ///
    /// # Errors
    ///
    /// * [`DbError::UnknownNode`] if the node departed.
    /// * [`DbError::StaleHandle`] if the tuple was deleted.
    pub fn read(&self, handle: TupleHandle) -> Result<RowView<'_>> {
        let store = self.store(handle.node)?;
        store
            .get(handle.slot, handle.generation)
            .ok_or(DbError::StaleHandle)
    }

    /// Overwrites the attribute values of the tuple behind a handle (an
    /// autonomous local update).
    ///
    /// # Errors
    ///
    /// * [`DbError::UnknownNode`] / [`DbError::StaleHandle`] as for
    ///   [`P2PDatabase::read`].
    /// * [`DbError::ArityMismatch`] if `values` does not fit the schema.
    pub fn update(&mut self, handle: TupleHandle, values: &[f64]) -> Result<()> {
        if values.len() != self.schema.arity() {
            return Err(DbError::ArityMismatch {
                got: values.len(),
                expected: self.schema.arity(),
            });
        }
        self.row_mut(handle)?.copy_from_slice(values);
        self.readd(handle.node.0 as usize);
        digest_telemetry::registry::DB_UPDATES.inc();
        Ok(())
    }

    /// Updates many tuples in place: `write(k, row)` is handed the stored
    /// attribute values of `handles[k]`, in order, to overwrite. Equivalent
    /// to one [`P2PDatabase::update`] per handle — same checks, same rows
    /// written in the same order — except that the update tally is bumped
    /// once for the whole batch and that each written fragment's leaves are
    /// re-added once, after the loop, however many of its rows the batch
    /// wrote.
    ///
    /// A handle reaches its row through a chain of three dependent loads:
    /// its fragment, the fragment's slot entry (the row's position), the
    /// row. Resolving and writing one handle at a time waits on each
    /// handle's chain in turn. Instead the handles go 512 (`RESOLVE`) at a
    /// time through one pass per link: the chunk's fragments, then their
    /// slot entries — both passes only read — then the writes of the
    /// resolved rows in handle order. No load of a pass depends on another
    /// handle's, so the misses of a chunk's randomly placed fragments,
    /// slots and rows overlap by construction. Its one writer is MEMORY,
    /// which writes its sparse updates a stage of hits at a time; a world
    /// that rewrites every tuple takes [`P2PDatabase::rewrite_fragments`].
    ///
    /// # Errors
    ///
    /// [`DbError::UnknownNode`] / [`DbError::StaleHandle`] at the first
    /// handle that no longer resolves; the rows before it stay written
    /// (counted, and re-added), the rows from it on are untouched.
    ///
    /// xtask: no-alloc
    pub fn update_rows(
        &mut self,
        handles: &[TupleHandle],
        mut write: impl FnMut(usize, &mut [f64]),
    ) -> Result<()> {
        let mut rows = [(0u32, 0usize); RESOLVE];
        let mut outcome = Ok(());
        let mut written = 0;
        for chunk in handles.chunks(RESOLVE) {
            let mut stores = [None; RESOLVE];
            for (store, handle) in stores.iter_mut().zip(chunk) {
                *store = self
                    .fragments
                    .get(handle.node.0 as usize)
                    .and_then(Option::as_ref);
            }
            let mut resolved = 0;
            for (&handle, store) in chunk.iter().zip(stores) {
                let found = store
                    .ok_or(DbError::UnknownNode(handle.node))
                    .and_then(|store| {
                        store
                            .position(handle.slot, handle.generation)
                            .ok_or(DbError::StaleHandle)
                    });
                match found {
                    Ok(pos) => rows[resolved] = (handle.node.0, pos),
                    Err(error) => {
                        outcome = Err(error);
                        break;
                    }
                }
                resolved += 1;
            }
            for (k, &(node, pos)) in (written..).zip(&rows[..resolved]) {
                let idx = node as usize;
                // Resolved just above, so the fragment is held.
                if let Some(Some(store)) = self.fragments.get_mut(idx) {
                    write(k, store.row_mut(pos));
                }
                self.written[idx / 64] |= 1 << (idx % 64);
            }
            written += resolved;
            if outcome.is_err() {
                break;
            }
        }
        self.readd_written();
        digest_telemetry::registry::DB_UPDATES.add(written as u64);
        outcome
    }

    /// Overwrites every stored row in place: `write(node, values)` is handed
    /// each held fragment in node-id order as its stored attribute values —
    /// row `k` at `k·arity .. (k+1)·arity`, rows in store order — and the
    /// fragment's leaves are re-added as soon as it returns. Equivalent to
    /// one [`P2PDatabase::update`] per row in [`P2PDatabase::iter`] order —
    /// the same rows and leaves — except that the update tally is bumped
    /// once, by the number of rows. No handle is resolved and no fragment
    /// is marked: the dense writer of a world that rewrites every tuple
    /// each tick (TEMPERATURE).
    ///
    /// xtask: no-alloc
    pub fn rewrite_fragments(&mut self, mut write: impl FnMut(NodeId, &mut [f64])) {
        for (id, fragment) in (0u32..).zip(&mut self.fragments) {
            if let Some(store) = fragment {
                write(NodeId(id), store.values_mut());
                set_leaves(&mut self.sums, id as usize, store);
            }
        }
        digest_telemetry::registry::DB_UPDATES.add(self.total_tuples as u64);
    }

    /// Re-adds every fragment marked in `written` and clears the marks.
    ///
    /// xtask: no-alloc
    fn readd_written(&mut self) {
        for word in 0..self.written.len() {
            let mut marks = std::mem::take(&mut self.written[word]);
            while marks != 0 {
                self.readd(word * 64 + marks.trailing_zeros() as usize);
                marks &= marks - 1;
            }
        }
    }

    /// Recomputes fragment `idx`'s leaves from its stored rows
    /// ([`set_leaves`]); nothing for an id that holds no fragment.
    ///
    /// xtask: no-alloc
    fn readd(&mut self, idx: usize) {
        if let Some(Some(store)) = self.fragments.get(idx) {
            set_leaves(&mut self.sums, idx, store);
        }
    }

    /// Content size `m_v` of a node (0 for unknown nodes — a weight
    /// function must be total over `V`): one read of the dense size column,
    /// not of the fragment.
    #[must_use]
    pub fn content_size(&self, node: NodeId) -> usize {
        self.sizes.get(node.0 as usize).map_or(0, |&m| m as usize)
    }

    /// The dense size column itself, by node id: entry `i` is
    /// [`P2PDatabase::content_size`] of `NodeId(i)` for every `i` below
    /// its length (ids past it hold no fragment). The sampling operator
    /// copies it once per changed occasion and compares it to tell an
    /// unchanged relation's weights (paper §III, `w_v = m_v`) in one pass.
    #[must_use]
    pub fn content_sizes(&self) -> &[u32] {
        &self.sizes
    }

    /// Total number of tuples `N` across all fragments.
    #[must_use]
    pub fn total_tuples(&self) -> usize {
        self.total_tuples
    }

    /// Uniformly samples a tuple from `node`'s local fragment — the local
    /// (second) stage of two-stage sampling.
    #[must_use]
    pub fn sample_local<R: Rng + ?Sized>(
        &self,
        node: NodeId,
        rng: &mut R,
    ) -> Option<(TupleHandle, RowView<'_>)> {
        let sampled = self.sample_local_untallied(node, rng);
        if sampled.is_some() {
            digest_telemetry::registry::DB_LOCAL_SAMPLES.inc();
        }
        sampled
    }

    /// [`sample_local`](Self::sample_local) without its `db.local_samples`
    /// tally: the same draw from the same words. For a caller that draws
    /// many samples at once and adds the count of those that landed to
    /// [`DB_LOCAL_SAMPLES`](digest_telemetry::registry::DB_LOCAL_SAMPLES)
    /// once, instead of an atomic add per sample.
    #[must_use]
    pub fn sample_local_untallied<R: Rng + ?Sized>(
        &self,
        node: NodeId,
        rng: &mut R,
    ) -> Option<(TupleHandle, RowView<'_>)> {
        let store = self.fragments.get(node.0 as usize)?.as_ref()?;
        let (slot, generation, row) = store.sample_uniform(rng)?;
        Some((
            TupleHandle {
                node,
                slot,
                generation,
            },
            row,
        ))
    }

    /// Iterates over all `(handle, row)` pairs, fragments in node-id order
    /// and each in its store's order (oracle-only: a real peer cannot
    /// enumerate the database).
    pub fn iter(&self) -> impl Iterator<Item = (TupleHandle, RowView<'_>)> + '_ {
        Rows::new(self.fragments())
    }

    /// Iterates over the fragments, in node-id order: each held fragment
    /// as its node and its `(slot, generation, row)` triples in store
    /// order. Flattened, it is [`P2PDatabase::iter`] (oracle-only, like
    /// `iter`); a reader that keeps per-node state resolves it once per
    /// fragment instead of once per tuple.
    #[must_use]
    pub fn fragments(&self) -> Fragments<'_> {
        Fragments {
            stores: (0..).zip(&self.fragments),
        }
    }

    /// Iterates over `node`'s own fragment as `(handle, row)` pairs, in the
    /// order [`P2PDatabase::iter`] lists them (empty for unknown nodes).
    /// Unlike `iter` this is a legitimate peer operation — a node
    /// enumerating its local fragment — and is what the sketch sweep
    /// estimator folds per-node sketch mass from.
    pub fn iter_node(&self, node: NodeId) -> impl Iterator<Item = (TupleHandle, RowView<'_>)> + '_ {
        let idx = node.0 as usize;
        Rows::new(Fragments {
            stores: (node.0..).zip(self.fragments.get(idx..=idx).unwrap_or_default()),
        })
    }

    /// Nodes currently holding fragments.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.fragments
            .iter()
            .enumerate()
            .filter(|(_, f)| f.is_some())
            .map(|(idx, _)| NodeId(u32::try_from(idx).unwrap_or(u32::MAX)))
    }

    /// Oracle: exact `AVG(expression)` over the whole relation.
    ///
    /// # Errors
    ///
    /// [`DbError::EmptyRelation`] over an empty relation, or any
    /// expression-evaluation error.
    pub fn exact_avg(&self, expr: &Expr) -> Result<f64> {
        self.exact_avg_where(expr, &Predicate::True)
    }

    /// Oracle: exact `SUM(expression)` over the whole relation (0 when
    /// empty).
    ///
    /// # Errors
    ///
    /// Any expression-evaluation error.
    pub fn exact_sum(&self, expr: &Expr) -> Result<f64> {
        self.exact_sum_where(expr, &Predicate::True)
    }

    /// Oracle: exact `COUNT(*)` over the whole relation.
    #[must_use]
    pub fn exact_count(&self) -> usize {
        self.total_tuples
    }

    /// Oracle: exact `AVG(expression) WHERE predicate`.
    ///
    /// # Errors
    ///
    /// [`DbError::EmptyRelation`] if no tuple qualifies, or any
    /// expression/predicate evaluation error.
    pub fn exact_avg_where(&self, expr: &Expr, predicate: &Predicate) -> Result<f64> {
        let (sum, count) = self.sum_count_where(expr, predicate)?;
        if count == 0 {
            return Err(DbError::EmptyRelation);
        }
        Ok(sum / count as f64)
    }

    /// Oracle: exact `SUM(expression) WHERE predicate` (0 when nothing
    /// qualifies).
    ///
    /// # Errors
    ///
    /// Any expression/predicate evaluation error.
    pub fn exact_sum_where(&self, expr: &Expr, predicate: &Predicate) -> Result<f64> {
        Ok(self.sum_count_where(expr, predicate)?.0)
    }

    /// Oracle: exact `COUNT(*) WHERE predicate`.
    ///
    /// # Errors
    ///
    /// Any predicate evaluation error.
    pub fn exact_count_where(&self, predicate: &Predicate) -> Result<usize> {
        // A constant never fails to evaluate, so only the predicate can err.
        Ok(self.sum_count_where(&Expr::Const(0.0), predicate)?.1)
    }

    /// The one fold behind every oracle aggregate: sum of `expr` and number
    /// of rows over the tuples satisfying `predicate`. The sum is two-level:
    /// each fragment's leaf — the `+=` chain over its qualifying rows in
    /// store order, from `0.0` — then [`combine`] over the leaves by node
    /// id, so the `f64` sum is a function of the stored state alone.
    ///
    /// A bare attribute under the trivial predicate (every shipped query)
    /// reads its leaves from the digest instead of the fragments
    /// ([`digest_sum_count`]): the same leaves through the same `combine`,
    /// and therefore the same bits.
    ///
    /// xtask: no-alloc
    fn sum_count_where(&self, expr: &Expr, predicate: &Predicate) -> Result<(f64, usize)> {
        if let (Expr::Attr { index, .. }, Predicate::True) = (expr, predicate) {
            // An out-of-range attribute takes the general arm for its error.
            if let Some(column) = self.sums.get(*index) {
                return digest_sum_count(column, self.total_tuples);
            }
        }
        let mut count = 0usize;
        let sum = combine(self.fragments.iter().map(|fragment| {
            let mut leaf = 0.0;
            for (_, _, row) in fragment.iter().flat_map(LocalStore::iter) {
                if predicate.eval(row)? {
                    leaf += expr.eval(row)?;
                    count += 1;
                }
            }
            Ok(leaf)
        }))?;
        Ok((sum, count))
    }

    fn store(&self, node: NodeId) -> Result<&LocalStore> {
        self.fragments
            .get(node.0 as usize)
            .and_then(Option::as_ref)
            .ok_or(DbError::UnknownNode(node))
    }

    fn store_mut(&mut self, node: NodeId) -> Result<&mut LocalStore> {
        self.fragments
            .get_mut(node.0 as usize)
            .and_then(Option::as_mut)
            .ok_or(DbError::UnknownNode(node))
    }

    /// The stored attribute values behind a handle, for writing.
    fn row_mut(&mut self, handle: TupleHandle) -> Result<&mut [f64]> {
        self.store_mut(handle.node)?
            .get_mut(handle.slot, handle.generation)
            .ok_or(DbError::StaleHandle)
    }
}

/// Sets fragment `idx`'s leaves to `store`'s: per attribute, the `+=` chain
/// over the column in store order from `0.0`. The row count is the
/// writers' to keep; a rewrite cannot move it.
///
/// xtask: no-alloc
fn set_leaves(sums: &mut [Vec<f64>], idx: usize, store: &LocalStore) {
    for (index, column) in sums.iter_mut().enumerate() {
        let mut leaf = 0.0;
        for value in store.column(index) {
            leaf += value;
        }
        column[idx] = leaf;
    }
    #[cfg(test)]
    READDS.with(|n| n.set(n.get() + 1));
}

/// Handles [`P2PDatabase::update_rows`] resolves per pass: enough
/// independent misses to fill the memory pipeline, and a chunk's resolved
/// fragments and rows (12 KB) stay on the stack.
const RESOLVE: usize = 512;

/// Leaves are summed in this many interleaved chains.
const LANES: usize = 8;

/// The one definition of a sum across fragments: leaf `i` (node id `i`'s)
/// goes into chain `i % LANES`, and the chains are joined pairwise. The
/// shape is fixed, and a `+0.0` leaf — an empty, departed or not yet
/// registered id — is inert in it (no chain is ever `-0.0`: each starts at
/// `0.0`), so the value depends on the leaves alone, not on how far the id
/// space has grown. Stops at the first leaf that fails.
///
/// xtask: no-alloc
fn combine(mut leaves: impl Iterator<Item = Result<f64>>) -> Result<f64> {
    let mut lanes = [0.0f64; LANES];
    // A lap over the lanes per `LANES` leaves, rather than `lanes[i % LANES]`:
    // the lanes stay in registers.
    'laps: loop {
        for lane in &mut lanes {
            match leaves.next() {
                Some(leaf) => *lane += leaf?,
                None => break 'laps,
            }
        }
    }
    let [a, b, c, d, e, f, g, h] = lanes;
    Ok(((a + b) + (c + d)) + ((e + f) + (g + h)))
}

/// The shipped arm of the oracle — `(Σ attribute, COUNT(*))` over the whole
/// relation — as a function of the digest alone: the attribute's leaf
/// column and the tuple count. No fragment is in scope.
///
/// xtask: no-alloc
fn digest_sum_count(column: &[f64], total_tuples: usize) -> Result<(f64, usize)> {
    Ok((combine(column.iter().map(|&leaf| Ok(leaf)))?, total_tuples))
}

/// The held fragments of a [`P2PDatabase`], in node-id order, each as its
/// node and its rows ([`P2PDatabase::fragments`]).
#[derive(Debug, Clone)]
pub struct Fragments<'a> {
    /// Fragment slots not yet reached, by node id (`None` = not held).
    stores: Zip<RangeFrom<u32>, std::slice::Iter<'a, Option<LocalStore>>>,
}

impl<'a> Iterator for Fragments<'a> {
    type Item = (NodeId, StoreRows<'a>);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        self.stores
            .find_map(|(id, store)| Some((NodeId(id), store.as_ref()?.iter())))
    }
}

/// `(handle, row)` pairs, fragment after fragment: the rest of `current`
/// (node `node`'s store), then every fragment still in `fragments`.
struct Rows<'a> {
    fragments: Fragments<'a>,
    node: NodeId,
    current: StoreRows<'a>,
}

impl<'a> Rows<'a> {
    fn new(fragments: Fragments<'a>) -> Self {
        Self {
            fragments,
            node: NodeId(0),
            current: StoreRows::default(),
        }
    }
}

impl<'a> Iterator for Rows<'a> {
    type Item = (TupleHandle, RowView<'a>);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some((slot, generation, row)) = self.current.next() {
                let handle = TupleHandle {
                    node: self.node,
                    slot,
                    generation,
                };
                return Some((handle, row));
            }
            (self.node, self.current) = self.fragments.next()?;
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
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn db_with_nodes(n: u32) -> P2PDatabase {
        let mut db = P2PDatabase::new(Schema::single("a"));
        for i in 0..n {
            db.register_node(NodeId(i));
        }
        db
    }

    #[test]
    fn register_is_idempotent() {
        let mut db = db_with_nodes(1);
        let h = db.insert(NodeId(0), Tuple::single(1.0)).unwrap();
        db.register_node(NodeId(0));
        // Re-registering must not wipe the fragment.
        assert_eq!(db.read(h).unwrap().value(0).unwrap(), 1.0);
        assert_eq!(db.total_tuples(), 1);
    }

    #[test]
    fn insert_read_update_delete() {
        let mut db = db_with_nodes(2);
        let h = db.insert(NodeId(1), Tuple::single(10.0)).unwrap();
        assert_eq!(db.read(h).unwrap().value(0).unwrap(), 10.0);
        db.update(h, &[11.0]).unwrap();
        assert_eq!(db.read(h).unwrap().value(0).unwrap(), 11.0);
        assert!(db.delete(h).unwrap());
        assert_eq!(db.read(h).unwrap_err(), DbError::StaleHandle);
        assert!(!db.delete(h).unwrap());
        assert_eq!(db.total_tuples(), 0);
    }

    #[test]
    fn insert_validates_arity_and_node() {
        let mut db = db_with_nodes(1);
        assert!(matches!(
            db.insert(NodeId(0), Tuple::new(vec![1.0, 2.0])),
            Err(DbError::ArityMismatch { .. })
        ));
        assert!(matches!(
            db.insert(NodeId(7), Tuple::single(1.0)),
            Err(DbError::UnknownNode(_))
        ));
    }

    #[test]
    fn update_validates_arity() {
        let mut db = db_with_nodes(1);
        let h = db.insert(NodeId(0), Tuple::single(1.0)).unwrap();
        assert!(matches!(
            db.update(h, &[1.0, 2.0]),
            Err(DbError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn node_departure_removes_fragment() {
        let mut db = db_with_nodes(2);
        let h0 = db.insert(NodeId(0), Tuple::single(1.0)).unwrap();
        db.insert(NodeId(0), Tuple::single(2.0)).unwrap();
        db.insert(NodeId(1), Tuple::single(3.0)).unwrap();
        assert_eq!(db.remove_node(NodeId(0)).unwrap(), 2);
        assert_eq!(db.total_tuples(), 1);
        assert!(!db.has_node(NodeId(0)));
        assert_eq!(db.read(h0).unwrap_err(), DbError::UnknownNode(NodeId(0)));
        assert!(db.remove_node(NodeId(0)).is_err());
    }

    #[test]
    fn content_size_tracks_m_v() {
        let mut db = db_with_nodes(2);
        assert_eq!(db.content_size(NodeId(0)), 0);
        db.insert(NodeId(0), Tuple::single(1.0)).unwrap();
        db.insert(NodeId(0), Tuple::single(2.0)).unwrap();
        assert_eq!(db.content_size(NodeId(0)), 2);
        assert_eq!(db.content_size(NodeId(1)), 0);
        assert_eq!(db.content_size(NodeId(42)), 0, "unknown node has size 0");
        assert_eq!(db.content_sizes(), [2, 0]);
        db.remove_node(NodeId(0)).unwrap();
        assert_eq!(db.content_sizes(), [0, 0]);
    }

    #[test]
    fn exact_aggregates() {
        let mut db = db_with_nodes(3);
        for (node, v) in [(0, 1.0), (0, 2.0), (1, 3.0), (2, 6.0)] {
            db.insert(NodeId(node), Tuple::single(v)).unwrap();
        }
        let expr = Expr::first_attr(db.schema());
        assert_eq!(db.exact_count(), 4);
        assert!((db.exact_sum(&expr).unwrap() - 12.0).abs() < 1e-12);
        assert!((db.exact_avg(&expr).unwrap() - 3.0).abs() < 1e-12);
    }

    /// A two-attribute relation of `rows` tuples dealt round-robin over
    /// `nodes` nodes, with cancellation-prone values.
    fn dealt(nodes: u32, rows: u32) -> (P2PDatabase, Vec<TupleHandle>) {
        let mut db = P2PDatabase::new(Schema::new(["a", "b"]));
        for i in 0..nodes {
            db.register_node(NodeId(i));
        }
        let handles = (0..rows)
            .map(|i| {
                let row = vec![1e15 / f64::from(i + 1), 1e-3 * f64::from(i)];
                db.insert(NodeId(i % nodes), Tuple::new(row)).unwrap()
            })
            .collect();
        (db, handles)
    }

    /// The digest is what a from-scratch derivation gives — per id the
    /// row count and each column's `+=` chain in `iter_node` order — and
    /// no batch mark is left behind.
    fn assert_digest_true(db: &P2PDatabase) {
        assert_eq!(db.sizes.len(), db.fragments.len());
        for (id, &size) in (0u32..).zip(&db.sizes) {
            assert_eq!(size as usize, db.iter_node(NodeId(id)).count(), "{id}");
            for (index, column) in db.sums.iter().enumerate() {
                let mut leaf = 0.0f64;
                for (_, row) in db.iter_node(NodeId(id)) {
                    leaf += row.value(index).unwrap();
                }
                assert_eq!(
                    column[id as usize].to_bits(),
                    leaf.to_bits(),
                    "{id}.{index}"
                );
            }
        }
        assert!(db.written.iter().all(|&word| word == 0));
    }

    #[test]
    fn a_failed_batch_leaves_the_digest_true() {
        let (mut db, handles) = dealt(70, 700);
        // Handle 150 is stale: rows 0..150 — two full rounds and ten nodes
        // of a third — are written, over all 70 fragments.
        assert!(db.delete(handles[150]).unwrap());
        assert_digest_true(&db);
        let before = READDS.get();
        let outcome = db.update_rows(&handles, |k, row| row.fill(0.1 * k as f64));
        assert_eq!(outcome, Err(DbError::StaleHandle));
        assert_eq!(db.read(handles[149]).unwrap().values(), [14.9, 14.9]);
        assert_eq!(db.read(handles[151]).unwrap().values()[1], 0.151);
        assert_digest_true(&db);
        assert_eq!(READDS.get() - before, 70);

        // The marks are gone: a later batch re-adds what it wrote itself.
        let before = READDS.get();
        db.update_rows(&[handles[3], handles[73], handles[69]], |_, row| {
            row.fill(7.0)
        })
        .unwrap();
        assert_digest_true(&db);
        assert_eq!(READDS.get() - before, 2);
    }

    #[test]
    fn registration_and_stale_deletes_leave_the_digest_alone() {
        let (mut db, handles) = dealt(5, 40);
        let digest = |db: &P2PDatabase| (db.sizes.clone(), db.sums.clone(), READDS.get());
        let before = digest(&db);
        db.register_node(NodeId(2));
        assert_eq!(digest(&db), before, "re-registering a live node");

        assert_eq!(db.remove_node(NodeId(2)).unwrap(), 8);
        assert_digest_true(&db);
        db.register_node(NodeId(2));
        assert_digest_true(&db);
        assert_eq!((db.sizes[2], db.sums[0][2], db.sums[1][2]), (0, 0.0, 0.0));
        db.insert(NodeId(2), Tuple::new(vec![3.0, 4.0])).unwrap();
        assert_digest_true(&db);

        assert!(db.delete(handles[0]).unwrap());
        assert_digest_true(&db);
        let before = digest(&db);
        assert!(!db.delete(handles[0]).unwrap());
        assert_eq!(digest(&db), before, "deleting a stale handle");

        // Ids past the bound, with a gap: the digest grows with them.
        db.register_node(NodeId(200));
        assert_digest_true(&db);
        assert_eq!(db.content_size(NodeId(150)), 0);
    }

    /// What the digest costs the writers, by counts: a fragment re-add per
    /// `update`, one per *fragment* per batch, none per insert.
    #[test]
    fn writers_re_add_each_touched_fragment_once() {
        // The paper-scale TEMPERATURE relation: 8 000 rows on 530 nodes.
        let (mut db, handles) = dealt(530, 8_000);
        assert_eq!(READDS.get(), 0, "an insert extends the chain");
        for (k, &handle) in handles.iter().take(100).enumerate() {
            db.update(handle, &[k as f64, 0.5]).unwrap();
        }
        assert_eq!(READDS.get(), 100);
        db.update_rows(&handles, |k, row| row.fill(k as f64))
            .unwrap();
        assert_eq!(READDS.get(), 100 + 530);
        assert_digest_true(&db);
    }

    /// The shipped arm reads the digest and nothing else: its inputs are a
    /// leaf column and a count. Zero leaves — departed, empty or not yet
    /// registered ids — are inert wherever they sit.
    #[test]
    fn the_digest_arm_is_a_function_of_the_leaf_column() {
        let leaves: Vec<f64> = (0..37).map(|i| 1e15 / f64::from(i + 1) - 1e-3).collect();
        let mut lanes = [0.0f64; 8];
        for (i, leaf) in leaves.iter().enumerate() {
            lanes[i & 7] += leaf;
        }
        let want = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
            + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
        assert_eq!(digest_sum_count(&leaves, 99).unwrap(), (want, 99));
        let mut grown = leaves.clone();
        grown.resize(1000, 0.0);
        assert_eq!(digest_sum_count(&grown, 99).unwrap(), (want, 99));
        assert_eq!(digest_sum_count(&[], 0).unwrap(), (0.0, 0));

        let (db, _) = dealt(37, 500);
        let b = Expr::attr(db.schema(), "b").unwrap();
        assert_eq!(
            db.sum_count_where(&b, &Predicate::True).unwrap(),
            digest_sum_count(&db.sums[1], 500).unwrap()
        );
    }

    /// After a dense rewrite at arity 1–4, each leaf `exact_avg` combines
    /// is the `+=` chain of the fragment's `step_by` column, bit for bit,
    /// and so is the average.
    #[test]
    fn leaves_are_the_step_by_chains_at_every_arity() {
        for arity in 1..=4u32 {
            let names = (0..arity).map(|i| format!("a{i}"));
            let mut db = P2PDatabase::new(Schema::new(names));
            for i in 0..7 {
                db.register_node(NodeId(i));
            }
            let handles: Vec<TupleHandle> = (0..90)
                .map(|i| {
                    let row = (0..arity).map(|a| f64::from(i * arity + a)).collect();
                    db.insert(NodeId(i % 7), Tuple::new(row)).unwrap()
                })
                .collect();
            for &handle in handles.iter().step_by(4) {
                assert!(db.delete(handle).unwrap());
            }
            db.rewrite_fragments(|node, values| {
                for (k, value) in (1u32..).zip(values) {
                    *value = 1e15 / f64::from(k + node.0) - 1e-3 * f64::from(k);
                }
            });
            for index in 0..arity as usize {
                let leaves: Vec<f64> = db
                    .fragments
                    .iter()
                    .map(|fragment| {
                        let values = fragment.as_ref().map(|s| s.iter().columns().1);
                        let column = values.unwrap_or_default().iter().skip(index);
                        column.step_by(arity as usize).fold(0.0, |leaf, v| leaf + v)
                    })
                    .collect();
                for (id, leaf) in leaves.iter().enumerate() {
                    assert_eq!(db.sums[index][id].to_bits(), leaf.to_bits(), "{arity}.{id}");
                }
                let (sum, count) = digest_sum_count(&leaves, db.total_tuples).unwrap();
                let avg = db.exact_avg(&Expr::attr(db.schema(), &format!("a{index}")).unwrap());
                assert_eq!(avg.unwrap().to_bits(), (sum / count as f64).to_bits());
            }
        }
    }

    #[test]
    fn exact_avg_of_empty_relation_errors() {
        let db = db_with_nodes(1);
        let expr = Expr::first_attr(db.schema());
        assert_eq!(db.exact_avg(&expr).unwrap_err(), DbError::EmptyRelation);
        assert_eq!(db.exact_sum(&expr).unwrap(), 0.0);
    }

    #[test]
    fn local_sampling_is_uniform_within_node() {
        let mut db = db_with_nodes(1);
        for i in 0..5 {
            db.insert(NodeId(0), Tuple::single(i as f64)).unwrap();
        }
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut counts = [0usize; 5];
        for _ in 0..5000 {
            let (_, t) = db.sample_local(NodeId(0), &mut rng).unwrap();
            counts[t.value(0).unwrap() as usize] += 1;
        }
        for &c in &counts {
            assert!(c > 800 && c < 1200, "counts = {counts:?}");
        }
    }

    #[test]
    fn sample_local_empty_or_unknown_is_none() {
        let db = db_with_nodes(1);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert!(db.sample_local(NodeId(0), &mut rng).is_none());
        assert!(db.sample_local(NodeId(9), &mut rng).is_none());
    }

    #[test]
    fn iter_enumerates_everything_once() {
        let mut db = db_with_nodes(3);
        let mut expected = Vec::new();
        for (node, v) in [(0u32, 1.0), (1, 2.0), (1, 3.0), (2, 4.0)] {
            db.insert(NodeId(node), Tuple::single(v)).unwrap();
            expected.push(v);
        }
        let mut seen: Vec<f64> = db.iter().map(|(_, t)| t.value(0).unwrap()).collect();
        seen.sort_by(f64::total_cmp);
        assert_eq!(seen, expected);
    }

    #[test]
    fn nodes_lists_fragment_holders() {
        let mut db = db_with_nodes(3);
        db.remove_node(NodeId(1)).unwrap();
        let nodes: Vec<NodeId> = db.nodes().collect();
        assert_eq!(nodes, vec![NodeId(0), NodeId(2)]);
    }
}
