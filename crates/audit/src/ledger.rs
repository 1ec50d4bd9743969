//! The message-cost ledger: what the push baselines would have spent.
//!
//! The paper's evaluation (§VI-B3) compares Digest against two push-based
//! comparators: `ALL`, where every source ships every value change to the
//! query origin, and `ALL+FILTER`, where each source holds a fixed filter
//! of half-width `ε` around the value it last shipped and ships only
//! changes that escape it, recentring on each ship. The filter never
//! adapts: Olston-style adaptive widths measured ≈ 1.000× this fixed one
//! on the paper's worlds.
//! Running those baselines as separate simulations introduces workload
//! divergence; the ledger instead *re-accounts* the same run — it watches
//! the oracle-visible database each tick and tallies exactly the messages
//! each baseline would have sent on the identical data stream, giving a
//! per-query cost comparison with zero cross-run noise.
//!
//! The filter table mirrors the database's own `(node, slot)` layout — one
//! row per node id, one entry per slot — so a tick is one pass over
//! [`P2PDatabase::fragments`]: each node's row is looked up once, each
//! tuple is an indexed entry in it, and once the rows have grown to the
//! database's id space and slot counts that pass never touches the heap
//! (DESIGN.md §14). What the query accounts — a bare attribute under no
//! predicate (every shipped query), read straight off the row, or any
//! other `(expression, predicate)`, evaluated per row — is resolved once
//! per pass.

use digest_db::{Expr, P2PDatabase, Predicate, RowView, StoreRows};

/// `seen` stamp of an entry no `observe` call has reached yet (the tick
/// counter starts at 1 and cannot get here).
const NEVER: u64 = u64::MAX;

/// Per-slot filter state.
#[derive(Debug, Clone, Copy)]
struct FilterEntry {
    /// The value as of the previous tick (change detection for `ALL`).
    last: f64,
    /// The value last shipped through the `ALL+FILTER` filter (the
    /// filter's centre; escape when `|v − shipped| > ε`).
    shipped: f64,
    /// Generation of the tuple this state belongs to: a reused slot is a
    /// different tuple.
    generation: u32,
    /// `totals.ticks` of the `observe` call that last saw this slot hold
    /// a qualifying tuple. State carries over only from the immediately
    /// preceding call, so anything that dropped out in between — deleted,
    /// node departed, predicate false — needs no pruning: it is simply
    /// new again when it reappears.
    seen: u64,
}

impl Default for FilterEntry {
    /// A slot no `observe` call has reached yet.
    fn default() -> Self {
        Self {
            last: 0.0,
            shipped: 0.0,
            generation: 0,
            seen: NEVER,
        }
    }
}

/// Totals the ledger has accumulated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LedgerTotals {
    /// Messages the `ALL` baseline would have sent.
    pub all_messages: u64,
    /// Messages the `ALL+FILTER` baseline would have sent.
    pub filter_messages: u64,
    /// Ticks observed.
    pub ticks: u64,
}

/// Same-run message accounting for the `ALL` / `ALL+FILTER` baselines.
#[derive(Debug)]
pub struct MessageLedger {
    epsilon: f64,
    expr: Expr,
    predicate: Predicate,
    /// `rows[node][slot]`, grown on demand and never shrunk.
    rows: Vec<Vec<FilterEntry>>,
    /// Entries stamped by the latest `observe` call.
    tracked: usize,
    totals: LedgerTotals,
}

impl MessageLedger {
    /// Builds a ledger for the query's expression/predicate with filter
    /// half-width `epsilon`.
    #[must_use]
    pub fn new(expr: Expr, predicate: Predicate, epsilon: f64) -> Self {
        Self {
            epsilon,
            expr,
            predicate,
            rows: Vec::new(),
            tracked: 0,
            totals: LedgerTotals::default(),
        }
    }

    /// Observes one tick of database state and charges both baselines.
    ///
    /// A tuple's first appearance ships under both baselines (the initial
    /// value must reach the origin either way); afterwards `ALL` pays for
    /// every value change while `ALL+FILTER` pays only for changes that
    /// escape the width-`2ε` filter, recentring the filter on each ship.
    /// A tuple that did not qualify on the immediately preceding call is
    /// new: its filter state is gone and it ships again.
    ///
    /// xtask: no-alloc
    pub fn observe(&mut self, db: &P2PDatabase) {
        let ids = db.id_upper_bound();
        if self.rows.len() < ids {
            grow(&mut self.rows, ids - 1);
        }
        let pass = Pass {
            epsilon: self.epsilon,
            previous: self.totals.ticks,
            tick: self.totals.ticks + 1,
        };
        let rows = &mut self.rows;
        let (all, filter, tracked) = match (&self.expr, &self.predicate) {
            // The schema's own attribute, unfiltered: every row has it.
            (&Expr::Attr { index, .. }, Predicate::True) if index < db.schema().arity() => {
                pass.run(rows, db, |row| row.values().get(index).copied())
            }
            (expr, predicate) => pass.run(rows, db, |row| match predicate.eval(row) {
                Ok(true) => expr.eval(row).ok(),
                _ => None,
            }),
        };
        self.totals.ticks += 1;
        self.totals.all_messages += all;
        self.totals.filter_messages += filter;
        self.tracked = tracked;
    }

    /// The accumulated baseline totals.
    #[must_use]
    pub fn totals(&self) -> LedgerTotals {
        self.totals
    }

    /// Tuples currently tracked by the filter table.
    #[must_use]
    pub fn tracked(&self) -> usize {
        self.tracked
    }
}

/// One `observe` call's stamps and filter width.
#[derive(Clone, Copy)]
struct Pass {
    epsilon: f64,
    /// `totals.ticks` before this call: the stamp of a slot seen last call.
    previous: u64,
    /// The stamp this call leaves on every slot it sees.
    tick: u64,
}

impl Pass {
    /// Charges every tuple `value` accounts (`None`: not accounted — the
    /// predicate is false or fails, or the expression fails), node by node,
    /// and returns the `ALL` and `ALL+FILTER` messages and the tuples seen.
    /// `rows` already covers every node id.
    ///
    /// xtask: no-alloc
    #[inline]
    fn run(
        self,
        rows: &mut [Vec<FilterEntry>],
        db: &P2PDatabase,
        value: impl Fn(RowView<'_>) -> Option<f64>,
    ) -> (u64, u64, usize) {
        let mut sums = (0, 0, 0);
        for (node, tuples) in db.fragments() {
            if let Some(row) = rows.get_mut(node.0 as usize) {
                let (all, filter, tracked) = self.fragment(row, tuples, &value);
                sums = (sums.0 + all, sums.1 + filter, sums.2 + tracked);
            }
        }
        sums
    }

    /// [`Pass::run`] over one node's tuples and its row of the table. Out
    /// of line, so the tuple loop has the registers to itself.
    ///
    /// xtask: no-alloc
    #[inline(never)]
    fn fragment(
        self,
        row: &mut Vec<FilterEntry>,
        tuples: StoreRows<'_>,
        value: &impl Fn(RowView<'_>) -> Option<f64>,
    ) -> (u64, u64, usize) {
        let (mut all, mut filter, mut tracked) = (0, 0, 0);
        for (slot, generation, tuple) in tuples {
            let Some(value) = value(tuple) else {
                continue;
            };
            let entry = match row.get_mut(slot as usize) {
                Some(entry) => entry,
                None => grow(row, slot as usize),
            };
            // New tuple (or new again): both baselines ship the initial
            // value. Bit comparison: any representational change is a
            // change the source would push (exact float equality is the
            // intended semantics here, not tolerance).
            let fresh = entry.seen != self.previous || entry.generation != generation;
            let changed = value.to_bits() != entry.last.to_bits();
            let ship = fresh | ((value - entry.shipped).abs() > self.epsilon);
            all += u64::from(fresh | changed);
            filter += u64::from(ship);
            entry.shipped = if ship { value } else { entry.shipped };
            entry.generation = generation;
            entry.last = value;
            entry.seen = self.tick;
            tracked += 1;
        }
        (all, filter, tracked)
    }
}

/// Extends `table` to cover `index` with default entries (a node row with
/// no slots, a slot no call has reached) — the only place the ledger
/// allocates: the node table once per tick the id space grew, a node's
/// row once per slot the database ever hands out there.
#[cold]
fn grow<T: Default>(table: &mut Vec<T>, index: usize) -> &mut T {
    table.resize_with(index + 1, T::default);
    &mut table[index]
}

/// The `BTreeMap` implementation this table replaced, kept verbatim as
/// the model the proptest below holds the dense table to.
#[cfg(test)]
mod reference {
    use super::LedgerTotals;
    use digest_db::{Expr, P2PDatabase, Predicate, TupleHandle};
    use std::collections::BTreeMap;
    use std::mem;

    /// Per-tuple filter state.
    #[derive(Debug, Clone, Copy)]
    struct FilterEntry {
        /// The value as of the previous tick (change detection for `ALL`).
        last: f64,
        /// The value last shipped through the `ALL+FILTER` filter (the
        /// filter's centre; escape when `|v − shipped| > ε`).
        shipped: f64,
    }

    /// Same-run message accounting for the `ALL` / `ALL+FILTER` baselines.
    #[derive(Debug)]
    pub struct MessageLedger {
        epsilon: f64,
        expr: Expr,
        predicate: Predicate,
        entries: BTreeMap<TupleHandle, FilterEntry>,
        scratch: BTreeMap<TupleHandle, FilterEntry>,
        totals: LedgerTotals,
    }

    impl MessageLedger {
        /// Builds a ledger for the query's expression/predicate with filter
        /// half-width `epsilon`.
        #[must_use]
        pub fn new(expr: Expr, predicate: Predicate, epsilon: f64) -> Self {
            Self {
                epsilon,
                expr,
                predicate,
                entries: BTreeMap::new(),
                scratch: BTreeMap::new(),
                totals: LedgerTotals::default(),
            }
        }

        /// Observes one tick of database state and charges both baselines.
        ///
        /// A tuple's first appearance ships under both baselines (the initial
        /// value must reach the origin either way); afterwards `ALL` pays for
        /// every value change while `ALL+FILTER` pays only for changes that
        /// escape the width-`2ε` filter, recentring the filter on each ship.
        /// Departed tuples are dropped from the filter table.
        pub fn observe(&mut self, db: &P2PDatabase) {
            self.totals.ticks += 1;
            // Rebuild the entry table each tick: surviving tuples carry their
            // filter state over, departed tuples fall away.
            let mut next = mem::take(&mut self.scratch);
            next.clear();
            for (handle, tuple) in db.iter() {
                if !self.predicate.eval(tuple).unwrap_or(false) {
                    continue;
                }
                let Ok(value) = self.expr.eval(tuple) else {
                    continue;
                };
                let entry = match self.entries.get(&handle) {
                    None => {
                        // New tuple: both baselines ship the initial value.
                        self.totals.all_messages += 1;
                        self.totals.filter_messages += 1;
                        FilterEntry {
                            last: value,
                            shipped: value,
                        }
                    }
                    Some(&prev) => {
                        let mut entry = prev;
                        // Bit comparison: any representational change is a
                        // change the source would push (exact float equality
                        // is the intended semantics here, not tolerance).
                        if value.to_bits() != prev.last.to_bits() {
                            self.totals.all_messages += 1;
                        }
                        if (value - prev.shipped).abs() > self.epsilon {
                            self.totals.filter_messages += 1;
                            entry.shipped = value;
                        }
                        entry.last = value;
                        entry
                    }
                };
                next.insert(handle, entry);
            }
            self.scratch = mem::replace(&mut self.entries, next);
        }

        /// The accumulated baseline totals.
        #[must_use]
        pub fn totals(&self) -> LedgerTotals {
            self.totals
        }

        /// Tuples currently tracked by the filter table.
        #[must_use]
        pub fn tracked(&self) -> usize {
            self.entries.len()
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
    use digest_db::{P2PDatabase, Schema, Tuple, TupleHandle};
    use digest_net::NodeId;
    use proptest::prelude::*;

    fn db_with(values: &[f64]) -> (P2PDatabase, Vec<TupleHandle>) {
        let mut db = P2PDatabase::new(Schema::single("a"));
        db.register_node(NodeId(0));
        let handles = values
            .iter()
            .map(|&v| db.insert(NodeId(0), Tuple::single(v)).unwrap())
            .collect();
        (db, handles)
    }

    fn ledger_for(db: &P2PDatabase, epsilon: f64) -> MessageLedger {
        MessageLedger::new(Expr::first_attr(db.schema()), Predicate::True, epsilon)
    }

    #[test]
    fn initial_tick_ships_every_tuple_once() {
        let (db, _) = db_with(&[1.0, 2.0, 3.0]);
        let mut ledger = ledger_for(&db, 0.5);
        ledger.observe(&db);
        let t = ledger.totals();
        assert_eq!(t.all_messages, 3);
        assert_eq!(t.filter_messages, 3);
        assert_eq!(ledger.tracked(), 3);
    }

    #[test]
    fn steady_values_cost_nothing_after_the_first_ship() {
        let (db, _) = db_with(&[1.0, 2.0]);
        let mut ledger = ledger_for(&db, 0.5);
        for _ in 0..5 {
            ledger.observe(&db);
        }
        let t = ledger.totals();
        assert_eq!(t.all_messages, 2);
        assert_eq!(t.filter_messages, 2);
        assert_eq!(t.ticks, 5);
    }

    #[test]
    fn all_charges_every_change_filter_charges_escapes() {
        let (mut db, handles) = db_with(&[10.0]);
        let mut ledger = ledger_for(&db, 1.0);
        ledger.observe(&db); // initial ship: all 1, filter 1

        // Small drift inside the filter: ALL pays, FILTER holds.
        db.update(handles[0], &[10.5]).unwrap();
        ledger.observe(&db);
        // Another small step, still within ε of the shipped 10.0.
        db.update(handles[0], &[10.9]).unwrap();
        ledger.observe(&db);
        let t = ledger.totals();
        assert_eq!(t.all_messages, 3);
        assert_eq!(t.filter_messages, 1);

        // Escape the filter: both pay, filter recentres at 11.5.
        db.update(handles[0], &[11.5]).unwrap();
        ledger.observe(&db);
        let t = ledger.totals();
        assert_eq!(t.all_messages, 4);
        assert_eq!(t.filter_messages, 2);

        // Drift within ε of the *new* centre: FILTER holds again.
        db.update(handles[0], &[12.0]).unwrap();
        ledger.observe(&db);
        let t = ledger.totals();
        assert_eq!(t.all_messages, 5);
        assert_eq!(t.filter_messages, 2);
    }

    #[test]
    fn departed_tuples_are_pruned_and_reinsertions_ship_again() {
        let (mut db, handles) = db_with(&[1.0, 2.0]);
        let mut ledger = ledger_for(&db, 0.5);
        ledger.observe(&db);
        assert_eq!(ledger.tracked(), 2);

        db.delete(handles[0]).unwrap();
        ledger.observe(&db);
        assert_eq!(ledger.tracked(), 1);

        // A fresh tuple (new handle) ships under both baselines.
        db.insert(NodeId(0), Tuple::single(1.0)).unwrap();
        ledger.observe(&db);
        let t = ledger.totals();
        assert_eq!(ledger.tracked(), 2);
        assert_eq!(t.all_messages, 3);
        assert_eq!(t.filter_messages, 3);
    }

    #[test]
    fn predicate_restricts_the_accounted_population() {
        let (db, _) = db_with(&[1.0, 5.0, 9.0]);
        let schema = db.schema().clone();
        let pred = Predicate::parse("a > 4", &schema).unwrap();
        let mut ledger = MessageLedger::new(Expr::first_attr(&schema), pred, 0.5);
        ledger.observe(&db);
        let t = ledger.totals();
        assert_eq!(t.all_messages, 2);
        assert_eq!(ledger.tracked(), 2);
    }

    impl MessageLedger {
        /// The value each entry the latest `observe` stamped last shipped:
        /// what an `ALL+FILTER` querier holds for the tuples it tracks.
        fn shipped(&self) -> Vec<f64> {
            let tick = self.totals.ticks;
            self.rows
                .iter()
                .flatten()
                .filter(|entry| entry.seen == tick)
                .map(|entry| entry.shipped)
                .collect()
        }
    }

    /// Drives a six-node world for 200 ticks — every value drifts upward
    /// with noise each tick, and with `churn` nodes leave and rejoin and
    /// tuples are replaced — and returns the worst distance between
    /// `ALL+FILTER`'s answer (the mean of the shipped values) and the exact
    /// AVG over the ticks, with the ledger's totals.
    fn worst_filter_error(churn: bool, seed: u64) -> (f64, LedgerTotals) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut world = World {
            db: P2PDatabase::new(Schema::single("a")),
            live: Vec::new(),
        };
        for node in 0..6 {
            world.db.register_node(NodeId(node));
            for _ in 0..5 {
                world.insert(NodeId(node), rng.gen_range(40.0..60.0));
            }
        }
        let expr = Expr::first_attr(world.db.schema());
        let mut ledger = ledger_for(&world.db, EPSILON);
        let mut worst: f64 = 0.0;
        for _ in 0..200 {
            for pick in 0..world.live.len() {
                let by = rng.gen_range(-0.2..0.5);
                world.rewrite(pick, |a| a + by);
            }
            if churn {
                let node = NodeId(rng.gen_range(0..6));
                if world.db.has_node(node) && rng.gen_bool(0.2) {
                    world.remove_node(node);
                } else if !world.db.has_node(node) {
                    world.db.register_node(node);
                    for _ in 0..5 {
                        world.insert(node, rng.gen_range(40.0..60.0));
                    }
                }
                if let Some(h) = world.picked(rng.gen_range(0..64)) {
                    world.delete(h);
                    world.insert(h.node, rng.gen_range(40.0..60.0));
                }
            }
            ledger.observe(&world.db);
            let shipped = ledger.shipped();
            assert_eq!(shipped.len(), ledger.tracked());
            if let Ok(truth) = world.db.exact_avg(&expr) {
                let held = shipped.iter().sum::<f64>() / shipped.len() as f64;
                worst = worst.max((held - truth).abs());
            }
        }
        (worst, ledger.totals())
    }

    /// Every tracked tuple is within ε of its shipped value and the
    /// tracked tuples are the relation, so `ALL+FILTER`'s mean of shipped
    /// values is within ε of the AVG on every tick — on a drifting world
    /// and on a churning one — while shipping fewer messages than `ALL`.
    #[test]
    fn filter_answer_stays_within_epsilon_of_the_avg() {
        for (churn, seed) in [(false, 1), (true, 2)] {
            let (worst, totals) = worst_filter_error(churn, seed);
            assert!(worst <= EPSILON, "churn {churn}: worst error {worst}");
            // The drift is mostly upward, so the held-back changes add up
            // to a sizeable share of ε: the bound is exercised, not met by
            // a filter that ships everything.
            assert!(worst > 0.25 * EPSILON, "churn {churn}: worst error {worst}");
            assert!(
                totals.filter_messages < totals.all_messages / 2,
                "churn {churn}: {totals:?}"
            );
        }
    }

    const EPSILON: f64 = 1.0;
    /// Every tuple's `c`: the accounted population is `a > c`.
    const THRESHOLD: f64 = 50.0;

    #[derive(Debug, Clone)]
    enum Op {
        Insert {
            node: u32,
            a: f64,
        },
        /// `a += by`: steps inside ε, onto it and outside it, `0.0`
        /// rewrites the identical bits.
        Shift {
            pick: usize,
            by: f64,
        },
        /// Mirrors `a` around the threshold, flipping the predicate.
        Cross {
            pick: usize,
        },
        Delete {
            pick: usize,
        },
        /// Delete, then insert at the same node: the slot is reused under
        /// a bumped generation.
        Replace {
            pick: usize,
            a: f64,
        },
        RemoveNode {
            node: u32,
        },
        /// Remove (if present) and re-register the node, then insert: the
        /// new handles collide with the departed tuples'.
        Rejoin {
            node: u32,
            values: Vec<f64>,
        },
        Observe,
        ObserveTwice,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        let value = || 44.0f64..56.0;
        prop_oneof![
            (0u32..6, value()).prop_map(|(node, a)| Op::Insert { node, a }),
            (0usize..64, -0.4f64..0.4).prop_map(|(pick, by)| Op::Shift { pick, by }),
            (0usize..64, 1.5f64..6.0).prop_map(|(pick, by)| Op::Shift { pick, by }),
            (0usize..64, -6.0f64..-1.5).prop_map(|(pick, by)| Op::Shift { pick, by }),
            (0usize..64).prop_map(|pick| Op::Shift { pick, by: 0.0 }),
            // Exactly onto the filter's edge (exact: `a` and `a ± ε` share
            // a binade), which must not escape.
            (0usize..64, 0u32..2).prop_map(|(pick, down)| Op::Shift {
                pick,
                by: if down == 0 { EPSILON } else { -EPSILON },
            }),
            (0usize..64).prop_map(|pick| Op::Cross { pick }),
            (0usize..64).prop_map(|pick| Op::Delete { pick }),
            (0usize..64, value()).prop_map(|(pick, a)| Op::Replace { pick, a }),
            (0u32..6).prop_map(|node| Op::RemoveNode { node }),
            (0u32..6, prop::collection::vec(value(), 1..4))
                .prop_map(|(node, values)| Op::Rejoin { node, values }),
            Just(Op::Observe),
            Just(Op::Observe),
            Just(Op::ObserveTwice),
        ]
    }

    /// The database under test plus the live handles the ops pick from.
    /// Its schema is `(a, c)` or a prefix of it; a tuple is `(a, THRESHOLD)`
    /// cut to that width.
    struct World {
        db: P2PDatabase,
        live: Vec<TupleHandle>,
    }

    impl World {
        fn row(&self, a: f64) -> Vec<f64> {
            [a, THRESHOLD][..self.db.schema().arity()].to_vec()
        }

        fn insert(&mut self, node: NodeId, a: f64) {
            if self.db.has_node(node) {
                let tuple = Tuple::new(self.row(a));
                self.live.push(self.db.insert(node, tuple).unwrap());
            }
        }

        /// Rewrites `a` of the tuple `pick` names (with no `a`, the empty
        /// row) as `f(a)`.
        fn rewrite(&mut self, pick: usize, f: impl Fn(f64) -> f64) {
            if let Some(h) = self.picked(pick) {
                let a = self.db.read(h).unwrap().values().first().map(|&a| f(a));
                let row = self.row(a.unwrap_or_default());
                self.db.update(h, &row).unwrap();
            }
        }

        fn picked(&self, pick: usize) -> Option<TupleHandle> {
            (!self.live.is_empty()).then(|| self.live[pick % self.live.len()])
        }

        fn delete(&mut self, handle: TupleHandle) {
            assert!(self.db.delete(handle).unwrap());
            self.live.retain(|&h| h != handle);
        }

        fn remove_node(&mut self, node: NodeId) {
            if self.db.has_node(node) {
                self.db.remove_node(node).unwrap();
                self.live.retain(|h| h.node != node);
            }
        }

        fn apply(&mut self, op: &Op) {
            match *op {
                Op::Insert { node, a } => self.insert(NodeId(node), a),
                Op::Shift { pick, by } => self.rewrite(pick, |a| a + by),
                Op::Cross { pick } => self.rewrite(pick, |a| 2.0 * THRESHOLD - a),
                Op::Delete { pick } => {
                    if let Some(h) = self.picked(pick) {
                        self.delete(h);
                    }
                }
                Op::Replace { pick, a } => {
                    if let Some(h) = self.picked(pick) {
                        self.delete(h);
                        self.insert(h.node, a);
                        let new = self.live[self.live.len() - 1];
                        assert_eq!((new.node, new.slot), (h.node, h.slot));
                        assert_ne!(new.generation, h.generation);
                    }
                }
                Op::RemoveNode { node } => self.remove_node(NodeId(node)),
                Op::Rejoin { node, ref values } => {
                    self.remove_node(NodeId(node));
                    self.db.register_node(NodeId(node));
                    for &a in values {
                        self.insert(NodeId(node), a);
                    }
                }
                Op::Observe | Op::ObserveTwice => {}
            }
        }
    }

    /// `(schema, expression, predicate)`: both ways `observe` reads a
    /// value — straight off the row (a bare attribute under no predicate,
    /// at either index of the two-attribute schema) and through `eval` (a
    /// predicate, a computed expression, a constant over a schema with no
    /// attributes at all).
    const CASES: [(&[&str], &str, &str); 5] = [
        (&["a", "c"], "a", "a > c"),
        (&["a", "c"], "a", "true"),
        (&["a", "c"], "c", "true"),
        (&["a", "c"], "a - c", "true"),
        (&[], "2.5", "true"),
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The `BTreeMap` ledger is the oracle for the dense table: the
        /// same totals and the same tracked count after every `observe`,
        /// whatever happened to the database in between, for every way of
        /// reading a tuple's value.
        #[test]
        fn dense_table_matches_the_map_reference(
            nodes in 1u32..7,
            ops in prop::collection::vec(op_strategy(), 0..120),
        ) {
            for (names, expr, predicate) in CASES {
                let schema = Schema::new(names.iter().copied());
                let (text, expr) = (expr, Expr::parse(expr, &schema).unwrap());
                let predicate = Predicate::parse(predicate, &schema).unwrap();
                let mut world = World { db: P2PDatabase::new(schema), live: Vec::new() };
                for node in 0..nodes {
                    world.db.register_node(NodeId(node));
                    // One tuple on each side of the threshold.
                    world.insert(NodeId(node), THRESHOLD + 2.0);
                    world.insert(NodeId(node), THRESHOLD - 2.0);
                }
                let mut ledger = MessageLedger::new(expr.clone(), predicate.clone(), EPSILON);
                let mut model = reference::MessageLedger::new(expr, predicate, EPSILON);
                for op in &ops {
                    world.apply(op);
                    let observes = match op {
                        Op::Observe => 1,
                        Op::ObserveTwice => 2,
                        _ => 0,
                    };
                    for _ in 0..observes {
                        ledger.observe(&world.db);
                        model.observe(&world.db);
                        let (got, want) = ((ledger.totals(), ledger.tracked()), (model.totals(), model.tracked()));
                        prop_assert!(got == want, "{}: {:?} != {:?}", text, got, want);
                    }
                }
                ledger.observe(&world.db);
                model.observe(&world.db);
                let (got, want) = ((ledger.totals(), ledger.tracked()), (model.totals(), model.tracked()));
                prop_assert!(got == want, "{}: {:?} != {:?}", text, got, want);
            }
        }
    }
}
