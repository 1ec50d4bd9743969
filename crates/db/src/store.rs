//! A node's local tuple store.
//!
//! Supports the operations the paper's model needs at per-tick rates:
//! O(1) insert, O(1) delete, O(1) *uniform local sampling* (the second
//! stage of two-stage sampling, §III), and generation-checked access so a
//! retained sample detects deletion on revisit.
//!
//! # Layout
//!
//! The fragment is stored as columns, not as one heap object per tuple:
//!
//! * `values` — the rows back to back, row `k` at `k·arity ..
//!   (k+1)·arity`. A scan of the fragment is a walk over one slice.
//! * `live` — `(slot, generation)` of row `k`, dense and in the same
//!   order, so iteration and local sampling never touch the per-slot
//!   table.
//! * `slots` — per slot, its generation and the row it currently names
//!   (or `VACANT`); only handle resolution reads it.
//!
//! **Order invariant.** Rows are appended on insert and swap-removed on
//! delete (the last row moves into the hole), and vacated slots are reused
//! last-in first-out. Iteration order, the tuple a given random draw
//! selects, and the `(slot, generation)` an insert returns are therefore a
//! function of the operation history alone — the oracle's summation order
//! and every seeded run depend on that.

use crate::tuple::{RowView, Tuple};
use rand::Rng;

/// `SlotEntry::pos` of a slot that holds no tuple.
const VACANT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct SlotEntry {
    generation: u32,
    /// Index of the slot's row in `values` / `live`, or [`VACANT`].
    pos: u32,
}

/// The tuple fragment stored at one node.
#[derive(Debug, Clone)]
pub struct LocalStore {
    arity: usize,
    /// Row-major attribute values of the stored tuples, in `live` order.
    values: Vec<f64>,
    /// `(slot, generation)` of each stored tuple (for O(1) uniform choice).
    live: Vec<(u32, u32)>,
    slots: Vec<SlotEntry>,
    /// Vacant slot indices available for reuse.
    free: Vec<u32>,
}

impl LocalStore {
    /// Creates an empty store for tuples of `arity` attributes (the
    /// relation's schema arity; zero is legal).
    #[must_use]
    pub fn new(arity: usize) -> Self {
        Self {
            arity,
            values: Vec::new(),
            live: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Number of stored tuples (`m_v` in the paper).
    #[must_use]
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Inserts a copy of `tuple`, returning `(slot, generation)`.
    ///
    /// # Panics
    ///
    /// If the tuple's arity is not the store's — a caller bug that would
    /// otherwise misalign every later row ([`crate::P2PDatabase::insert`]
    /// rejects such tuples before they get here).
    pub fn insert(&mut self, tuple: &Tuple) -> (u32, u32) {
        assert_eq!(tuple.arity(), self.arity, "tuple arity != store arity");
        let pos = u32::try_from(self.live.len()).unwrap_or(u32::MAX);
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize].pos = pos;
                s
            }
            None => {
                let s = u32::try_from(self.slots.len()).unwrap_or(u32::MAX);
                self.slots.push(SlotEntry { generation: 0, pos });
                s
            }
        };
        let generation = self.slots[slot as usize].generation;
        self.values.extend_from_slice(tuple.values());
        self.live.push((slot, generation));
        (slot, generation)
    }

    /// Deletes the tuple at `slot` if the generation matches; returns
    /// whether a tuple was deleted. The slot's generation is bumped so
    /// outstanding handles become stale.
    pub fn delete(&mut self, slot: u32, generation: u32) -> bool {
        let Some(pos) = self.position(slot, generation) else {
            return false;
        };
        let entry = &mut self.slots[slot as usize];
        entry.pos = VACANT;
        entry.generation = entry.generation.wrapping_add(1);
        // Swap-remove row and `live` entry together: the last row moves
        // into the hole.
        let last = self.span(self.live.len() - 1);
        self.values.copy_within(last.clone(), pos * self.arity);
        self.values.truncate(last.start);
        self.live.swap_remove(pos);
        if let Some(&(moved, _)) = self.live.get(pos) {
            self.slots[moved as usize].pos = u32::try_from(pos).unwrap_or(u32::MAX);
        }
        self.free.push(slot);
        true
    }

    /// The row at `slot` under the given generation, or `None` if the
    /// handle is stale.
    #[must_use]
    #[inline]
    pub fn get(&self, slot: u32, generation: u32) -> Option<RowView<'_>> {
        self.position(slot, generation).map(|pos| self.row(pos))
    }

    /// Mutable access to a row's attribute values under a generation
    /// check (autonomous local update).
    #[must_use]
    pub fn get_mut(&mut self, slot: u32, generation: u32) -> Option<&mut [f64]> {
        let span = self.span(self.position(slot, generation)?);
        self.values.get_mut(span)
    }

    /// Uniformly random stored tuple as `(slot, generation, row)`.
    #[must_use]
    pub fn sample_uniform<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<(u32, u32, RowView<'_>)> {
        if self.live.is_empty() {
            return None;
        }
        let pos = rng.gen_range(0..self.live.len());
        let (slot, generation) = self.live[pos];
        Some((slot, generation, self.row(pos)))
    }

    /// Iterates over `(slot, generation, row)` for all stored tuples, in
    /// row order.
    #[must_use]
    pub fn iter(&self) -> StoreRows<'_> {
        StoreRows {
            live: self.live.iter(),
            rest: &self.values,
            arity: self.arity,
        }
    }

    /// Row `pos`'s attribute values (`pos` from [`LocalStore::position`]),
    /// for overwriting in place.
    #[inline]
    pub(crate) fn row_mut(&mut self, pos: usize) -> &mut [f64] {
        let span = self.span(pos);
        &mut self.values[span]
    }

    /// Every stored value, row after row in iteration order (row `k` at
    /// `k·arity .. (k+1)·arity`), for overwriting in place.
    pub(crate) fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// The stored values of attribute `index`, in iteration order (nothing
    /// when the store has no such attribute).
    pub(crate) fn column(&self, index: usize) -> impl Iterator<Item = f64> + '_ {
        // Row `k`'s cell is `values[k·arity + index]`; an attribute the
        // store does not have has none.
        let rows = if index < self.arity {
            self.live.len()
        } else {
            0
        };
        (0..rows).map(move |row| self.values[row * self.arity + index])
    }

    /// Row index of a live handle (`None` = stale): where
    /// [`LocalStore::row_mut`] finds it until the store next changes shape.
    #[inline]
    pub(crate) fn position(&self, slot: u32, generation: u32) -> Option<usize> {
        let entry = self.slots.get(slot as usize)?;
        (entry.generation == generation && entry.pos != VACANT).then_some(entry.pos as usize)
    }

    /// Where row `pos` sits in `values`.
    #[inline]
    fn span(&self, pos: usize) -> std::ops::Range<usize> {
        pos * self.arity..(pos + 1) * self.arity
    }

    #[inline]
    fn row(&self, pos: usize) -> RowView<'_> {
        RowView::new(&self.values[self.span(pos)])
    }
}

/// The `(slot, generation, row)` triples of one store, in row order
/// ([`LocalStore::iter`]); the default is empty.
#[derive(Debug, Clone, Default)]
pub struct StoreRows<'a> {
    live: std::slice::Iter<'a, (u32, u32)>,
    /// Values of the rows not yet yielded.
    rest: &'a [f64],
    arity: usize,
}

impl<'a> StoreRows<'a> {
    /// The rows not yet yielded as two columns, borrowed from the store:
    /// their `(slot, generation)` keys, and their values row after row
    /// (`arity` values a row, so one a row in a one-attribute store).
    ///
    /// xtask: no-alloc
    #[must_use]
    pub fn columns(&self) -> (&'a [(u32, u32)], &'a [f64]) {
        (self.live.as_slice(), self.rest)
    }
}

impl<'a> Iterator for StoreRows<'a> {
    type Item = (u32, u32, RowView<'a>);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let &(slot, generation) = self.live.next()?;
        // Rows are peeled off the front one `arity` at a time (`chunks_exact`
        // would panic on a zero-arity store, whose rows are all empty).
        let (row, rest) = self.rest.split_at_checked(self.arity).unwrap_or_default();
        self.rest = rest;
        Some((slot, generation, RowView::new(row)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.live.size_hint()
    }
}

/// The row-per-heap-object store this module replaced, kept verbatim as the
/// model the column store is property-tested against.
#[cfg(test)]
mod reference {
    use crate::tuple::Tuple;
    use rand::Rng;

    #[derive(Debug, Clone)]
    struct Slot {
        generation: u32,
        tuple: Option<Tuple>,
    }

    /// The tuple fragment stored at one node.
    #[derive(Debug, Clone, Default)]
    pub struct LocalStore {
        slots: Vec<Slot>,
        /// Dense list of occupied slot indices (for O(1) uniform choice).
        live: Vec<u32>,
        /// `live_pos[slot]` = index into `live`, `u32::MAX` when vacant.
        live_pos: Vec<u32>,
        /// Vacant slot indices available for reuse.
        free: Vec<u32>,
    }

    impl LocalStore {
        /// Creates an empty store.
        #[must_use]
        pub fn new() -> Self {
            Self::default()
        }

        /// Number of stored tuples (`m_v` in the paper).
        #[must_use]
        pub fn len(&self) -> usize {
            self.live.len()
        }

        /// Whether the store is empty.
        #[must_use]
        pub fn is_empty(&self) -> bool {
            self.live.is_empty()
        }

        /// Inserts a tuple, returning `(slot, generation)`.
        pub fn insert(&mut self, tuple: Tuple) -> (u32, u32) {
            let slot = match self.free.pop() {
                Some(s) => {
                    let entry = &mut self.slots[s as usize];
                    entry.tuple = Some(tuple);
                    s
                }
                None => {
                    let s = u32::try_from(self.slots.len()).unwrap_or(u32::MAX);
                    self.slots.push(Slot {
                        generation: 0,
                        tuple: Some(tuple),
                    });
                    self.live_pos.push(u32::MAX);
                    s
                }
            };
            self.live_pos[slot as usize] = u32::try_from(self.live.len()).unwrap_or(u32::MAX);
            self.live.push(slot);
            (slot, self.slots[slot as usize].generation)
        }

        /// Deletes the tuple at `slot` if the generation matches; returns
        /// whether a tuple was deleted. The slot's generation is bumped so
        /// outstanding handles become stale.
        pub fn delete(&mut self, slot: u32, generation: u32) -> bool {
            let Some(entry) = self.slots.get_mut(slot as usize) else {
                return false;
            };
            if entry.generation != generation || entry.tuple.is_none() {
                return false;
            }
            entry.tuple = None;
            entry.generation = entry.generation.wrapping_add(1);
            // Remove from the dense live list; it is non-empty here (the slot
            // we just vacated was in it).
            let pos = self.live_pos[slot as usize];
            self.live_pos[slot as usize] = u32::MAX;
            if let Some(last) = self.live.pop() {
                if last != slot {
                    self.live[pos as usize] = last;
                    self.live_pos[last as usize] = pos;
                }
            }
            self.free.push(slot);
            true
        }

        /// The tuple at `slot` under the given generation, or `None` if the
        /// handle is stale.
        #[must_use]
        pub fn get(&self, slot: u32, generation: u32) -> Option<&Tuple> {
            let entry = self.slots.get(slot as usize)?;
            if entry.generation == generation {
                entry.tuple.as_ref()
            } else {
                None
            }
        }

        /// Mutable access under a generation check (autonomous local update).
        #[must_use]
        pub fn get_mut(&mut self, slot: u32, generation: u32) -> Option<&mut Tuple> {
            let entry = self.slots.get_mut(slot as usize)?;
            if entry.generation == generation {
                entry.tuple.as_mut()
            } else {
                None
            }
        }

        /// Uniformly random stored tuple as `(slot, generation, &tuple)`.
        #[must_use]
        pub fn sample_uniform<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<(u32, u32, &Tuple)> {
            if self.live.is_empty() {
                return None;
            }
            let slot = self.live[rng.gen_range(0..self.live.len())];
            let entry = &self.slots[slot as usize];
            entry
                .tuple
                .as_ref()
                .map(|tuple| (slot, entry.generation, tuple))
        }

        /// Iterates over `(slot, generation, &tuple)` for all stored tuples.
        pub fn iter(&self) -> impl Iterator<Item = (u32, u32, &Tuple)> + '_ {
            self.live.iter().filter_map(move |&slot| {
                let entry = &self.slots[slot as usize];
                entry
                    .tuple
                    .as_ref()
                    .map(|tuple| (slot, entry.generation, tuple))
            })
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
    use proptest::prelude::*;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn single() -> LocalStore {
        LocalStore::new(1)
    }

    #[test]
    fn insert_get_delete_cycle() {
        let mut s = single();
        assert!(s.is_empty());
        let (slot, g) = s.insert(&Tuple::single(1.5));
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(slot, g).unwrap().value(0).unwrap(), 1.5);
        assert!(s.delete(slot, g));
        assert!(s.is_empty());
        assert!(s.get(slot, g).is_none());
        assert!(!s.delete(slot, g), "double delete must fail");
    }

    #[test]
    fn slot_reuse_bumps_generation() {
        let mut s = single();
        let (slot, g0) = s.insert(&Tuple::single(1.0));
        s.delete(slot, g0);
        let (slot2, g1) = s.insert(&Tuple::single(2.0));
        assert_eq!(slot, slot2, "slot should be reused");
        assert_ne!(g0, g1, "generation must differ");
        // The old handle is stale.
        assert!(s.get(slot, g0).is_none());
        assert_eq!(s.get(slot, g1).unwrap().value(0).unwrap(), 2.0);
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut s = single();
        let (slot, g) = s.insert(&Tuple::single(5.0));
        s.get_mut(slot, g).unwrap()[0] = 6.0;
        assert_eq!(s.get(slot, g).unwrap().value(0).unwrap(), 6.0);
        assert!(s.get_mut(slot, g.wrapping_add(1)).is_none());
    }

    #[test]
    fn uniform_sampling_covers_all_tuples() {
        let mut s = single();
        for i in 0..10 {
            s.insert(&Tuple::single(i as f64));
        }
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut counts = [0usize; 10];
        for _ in 0..10_000 {
            let (_, _, t) = s.sample_uniform(&mut rng).unwrap();
            counts[t.value(0).unwrap() as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                c > 800 && c < 1200,
                "tuple {i} sampled {c} times (expect ~1000)"
            );
        }
    }

    #[test]
    fn sampling_empty_store_is_none() {
        let s = single();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        assert!(s.sample_uniform(&mut rng).is_none());
    }

    #[test]
    fn iter_sees_exactly_live_tuples() {
        let mut s = single();
        let (s0, g0) = s.insert(&Tuple::single(0.0));
        let (_s1, _g1) = s.insert(&Tuple::single(1.0));
        let (_s2, _g2) = s.insert(&Tuple::single(2.0));
        s.delete(s0, g0);
        let values: Vec<f64> = s.iter().map(|(_, _, t)| t.value(0).unwrap()).collect();
        assert_eq!(values.len(), 2);
        assert!(values.contains(&1.0) && values.contains(&2.0));
    }

    #[test]
    fn stress_many_insert_delete() {
        let mut s = single();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut handles = Vec::new();
        for round in 0..50 {
            for i in 0..20 {
                handles.push(s.insert(&Tuple::single((round * 20 + i) as f64)));
            }
            use rand::seq::SliceRandom;
            handles.shuffle(&mut rng);
            for _ in 0..10 {
                if let Some((slot, g)) = handles.pop() {
                    assert!(s.delete(slot, g));
                }
            }
        }
        assert_eq!(s.len(), 50 * 20 - 50 * 10);
        // Every remaining handle resolves.
        for &(slot, g) in &handles {
            assert!(s.get(slot, g).is_some());
        }
    }

    #[test]
    fn column_reads_one_attribute_in_iteration_order() {
        let mut s = LocalStore::new(3);
        let first = s.insert(&Tuple::new(vec![1.0, 2.0, 3.0]));
        s.insert(&Tuple::new(vec![4.0, 5.0, 6.0]));
        s.insert(&Tuple::new(vec![7.0, 8.0, 9.0]));
        s.delete(first.0, first.1);
        for index in 0..3 {
            let want: Vec<f64> = s.iter().map(|(_, _, r)| r.values()[index]).collect();
            assert_eq!(s.column(index).collect::<Vec<_>>(), want);
        }
        assert_eq!(s.column(3).count(), 0);
        assert_eq!(LocalStore::new(3).column(2).count(), 0);
        let mut empty_rows = LocalStore::new(0);
        empty_rows.insert(&Tuple::new(Vec::new()));
        assert_eq!(empty_rows.column(0).count(), 0);
    }

    /// The `step_by` form `column` had: every `arity`-th value from
    /// `index` on, nothing for an attribute the store does not have.
    fn column_by_step(s: &LocalStore, index: usize) -> Vec<u64> {
        let cells = s.values.get(index..).filter(|_| index < s.arity);
        let column = cells.unwrap_or_default().iter().step_by(s.arity.max(1));
        column.map(|v| v.to_bits()).collect()
    }

    /// At arity 1–4, through inserts and swap-remove deletes, `column` is
    /// the `step_by` column bit for bit, so each leaf's `+=` chain runs
    /// over the same values in the same order.
    #[test]
    fn column_is_the_step_by_column_bit_for_bit() {
        let mut rng = ChaCha8Rng::seed_from_u64(45);
        for arity in 1..=4 {
            let mut s = LocalStore::new(arity);
            let mut handles = Vec::new();
            for round in 0..90u32 {
                let row = (0..arity)
                    .map(|_| 1e15 / f64::from(rng.next_u32() | 1) - 1e-3 * f64::from(round))
                    .collect();
                handles.push(s.insert(&Tuple::new(row)));
                if round % 3 == 2 {
                    let pick = rng.next_u32() as usize % handles.len();
                    let (slot, generation) = handles.swap_remove(pick);
                    assert!(s.delete(slot, generation));
                }
                for index in 0..=arity {
                    let column: Vec<u64> = s.column(index).map(f64::to_bits).collect();
                    assert_eq!(column, column_by_step(&s, index), "{arity}.{index}");
                }
            }
            assert_eq!(s.column(0).count(), s.len());
        }
    }

    #[test]
    #[should_panic(expected = "tuple arity != store arity")]
    fn insert_of_the_wrong_arity_is_refused() {
        single().insert(&Tuple::new(vec![1.0, 2.0]));
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(Vec<f64>),
        DeleteNth(usize),
        UpdateNth(usize, Vec<f64>),
        Sample(u64),
        /// The node leaves and re-registers: both stores start over.
        Reset,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        let row = || prop::collection::vec(-1e6f64..1e6, 4..5);
        prop_oneof![
            row().prop_map(Op::Insert),
            row().prop_map(Op::Insert),
            (0usize..512).prop_map(Op::DeleteNth),
            (0usize..512, row()).prop_map(|(i, v)| Op::UpdateNth(i, v)),
            (0u32..20, 0u64..u64::MAX).prop_map(|(k, seed)| match k {
                0 => Op::Reset,
                _ => Op::Sample(seed),
            }),
        ]
    }

    /// `(slot, generation, value bits)` of every stored tuple, in order.
    type Listing = Vec<(u32, u32, Vec<u64>)>;

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    fn listing(store: &LocalStore) -> Listing {
        store
            .iter()
            .map(|(s, g, row)| (s, g, bits(row.values())))
            .collect()
    }

    fn reference_listing(store: &reference::LocalStore) -> Listing {
        store
            .iter()
            .map(|(s, g, t)| (s, g, bits(t.values())))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The row-per-object store is the oracle for the column store:
        /// after every operation both return the same handles, list the
        /// same tuples in the same order, sample the same tuple from the
        /// same draw, and reject the same stale handles.
        #[test]
        fn column_store_matches_the_reference_store(
            arity in 0usize..5,
            ops in prop::collection::vec(op_strategy(), 0..300),
        ) {
            let mut store = LocalStore::new(arity);
            let mut model = reference::LocalStore::new();
            let mut handles: Vec<(u32, u32)> = Vec::new();
            let mut stale: Vec<(u32, u32)> = Vec::new();
            for op in ops {
                match op {
                    Op::Insert(values) => {
                        let tuple = Tuple::new(values[..arity].to_vec());
                        let handle = store.insert(&tuple);
                        prop_assert_eq!(handle, model.insert(tuple));
                        handles.push(handle);
                    }
                    Op::DeleteNth(i) => {
                        if !handles.is_empty() {
                            let (slot, generation) = handles.swap_remove(i % handles.len());
                            prop_assert!(store.delete(slot, generation));
                            prop_assert!(model.delete(slot, generation));
                            stale.push((slot, generation));
                        }
                    }
                    Op::UpdateNth(i, values) => {
                        if !handles.is_empty() {
                            let (slot, generation) = handles[i % handles.len()];
                            store
                                .get_mut(slot, generation)
                                .unwrap()
                                .copy_from_slice(&values[..arity]);
                            model
                                .get_mut(slot, generation)
                                .unwrap()
                                .values_mut()
                                .copy_from_slice(&values[..arity]);
                        }
                    }
                    Op::Sample(seed) => {
                        let mut rng = ChaCha8Rng::seed_from_u64(seed);
                        let mut model_rng = rng.clone();
                        let got = store
                            .sample_uniform(&mut rng)
                            .map(|(s, g, row)| (s, g, bits(row.values())));
                        let want = model
                            .sample_uniform(&mut model_rng)
                            .map(|(s, g, t)| (s, g, bits(t.values())));
                        prop_assert_eq!(got, want);
                        prop_assert_eq!(rng.next_u64(), model_rng.next_u64());
                    }
                    Op::Reset => {
                        store = LocalStore::new(arity);
                        model = reference::LocalStore::new();
                        // Generations restart with the store, so pairs
                        // from before the reset mean nothing any more.
                        handles.clear();
                        stale.clear();
                    }
                }
                prop_assert_eq!(store.len(), model.len());
                prop_assert_eq!(store.is_empty(), model.is_empty());
                prop_assert_eq!(listing(&store), reference_listing(&model));
                for &(slot, generation) in &handles {
                    prop_assert_eq!(
                        store.get(slot, generation).map(|row| bits(row.values())),
                        model.get(slot, generation).map(|t| bits(t.values()))
                    );
                }
                for &(slot, generation) in &stale {
                    // A reused slot carries a later generation, so a stale
                    // pair never names a live tuple in either store.
                    prop_assert!(store.get(slot, generation).is_none());
                    prop_assert!(model.get(slot, generation).is_none());
                    prop_assert!(store.get_mut(slot, generation).is_none());
                    prop_assert!(!store.delete(slot, generation));
                    prop_assert!(!model.delete(slot, generation));
                }
            }
        }
    }
}
