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
//! The filter state follows each fragment's own row order: per node id,
//! the `(slot, generation)` keys of the rows the query accounted there on
//! the last call that saw the node, those rows' `last` and `shipped`
//! values as two columns beside them (one allocation a node), and the
//! call's stamp. A tick is one pass over [`P2PDatabase::fragments`], and
//! each fragment takes one of two ways (DESIGN.md §14):
//!
//! * **same shape** — the node was seen on the previous call and its
//!   accounted keys are the held keys (one slice compare): one branch-free
//!   kernel over `(values, last, shipped)`, which the compiler vectorises;
//! * **otherwise** — one remap by slot: rows whose key survived carry their
//!   state over, the rest are new. Inserts, swap-remove deletes, departed
//!   and rejoined nodes and predicate flips all take this way.
//!
//! The shipped query's shape — a bare attribute of a one-attribute schema
//! under no predicate — hands the pass the store's own key and value
//! slices; any other `(expression, predicate)` first gathers its
//! qualifying rows into two reused scratch columns. Once the table covers
//! the database's id space and each node's largest fragment, a tick never
//! touches the heap.

use digest_db::{Expr, P2PDatabase, Predicate};

/// `seen` stamp of a node no `observe` call has reached yet (the tick
/// counter starts at 1 and cannot get here).
const NEVER: u64 = u64::MAX;

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

/// Filter state of the rows one node's fragment accounted on the last
/// `observe` call that saw the node.
#[derive(Debug, Clone)]
struct NodeFilter {
    /// `totals.ticks` of that call. State carries over only from the
    /// immediately preceding call, so anything that dropped out in between
    /// — a departed node, a deleted tuple, a false predicate — needs no
    /// pruning: it is simply new again when it reappears.
    seen: u64,
    /// `n` row keys ([`key`]), then the rows' `last` values (the value as
    /// of that call: change detection for `ALL`), then their `shipped`
    /// values (the filter's centre: escape when `|v − shipped| > ε`), the
    /// values as bits, each column in the fragment's row order.
    rows: Vec<u64>,
}

impl Default for NodeFilter {
    /// A node no `observe` call has reached yet.
    fn default() -> Self {
        Self {
            seen: NEVER,
            rows: Vec::new(),
        }
    }
}

/// A row's `(slot, generation)` as one word: a reused slot under a bumped
/// generation is a different tuple.
#[inline]
fn key(slot: u32, generation: u32) -> u64 {
    u64::from(slot) | u64::from(generation) << 32
}

/// Same-run message accounting for the `ALL` / `ALL+FILTER` baselines.
#[derive(Debug)]
pub struct MessageLedger {
    epsilon: f64,
    expr: Expr,
    predicate: Predicate,
    /// Filter state by node id, grown to the id space and never shrunk.
    nodes: Vec<NodeFilter>,
    /// A fragment's qualifying rows' keys and values, when the query does
    /// not read them in place.
    keys: Vec<(u32, u32)>,
    values: Vec<f64>,
    remap: Remap,
    /// Rows accounted by the latest `observe` call.
    tracked: usize,
    totals: LedgerTotals,
}

impl MessageLedger {
    /// Builds a ledger for the query's expression/predicate with filter
    /// half-width `epsilon` (≥ 0, as a query's ε is).
    #[must_use]
    pub fn new(expr: Expr, predicate: Predicate, epsilon: f64) -> Self {
        Self {
            epsilon,
            expr,
            predicate,
            nodes: Vec::new(),
            keys: Vec::new(),
            values: Vec::new(),
            remap: Remap::default(),
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
    /// The heap is touched only where the database grew: the node table on
    /// a call whose id space grew, a node's state (and the scratch) when
    /// its fragment outgrows every earlier one.
    ///
    /// xtask: no-alloc
    pub fn observe(&mut self, db: &P2PDatabase) {
        let ids = db.id_upper_bound();
        if self.nodes.len() < ids {
            self.nodes.resize_with(ids, NodeFilter::default);
        }
        let pass = Pass {
            epsilon: self.epsilon,
            previous: self.totals.ticks,
            tick: self.totals.ticks + 1,
        };
        // What the query reads of a row: the schema's own attribute under
        // no predicate (in place when it is the only one), or whatever the
        // predicate and the expression evaluate to.
        let arity = db.schema().arity();
        let attr = match (&self.expr, &self.predicate) {
            (&Expr::Attr { index, .. }, Predicate::True) if index < arity => Some(index),
            _ => None,
        };
        let in_place = attr.is_some() && arity == 1;
        let (mut all, mut filter, mut tracked) = (0, 0, 0);
        for (node, rows) in db.fragments() {
            let Some(state) = self.nodes.get_mut(node.0 as usize) else {
                continue;
            };
            let (keys, values) = if in_place {
                rows.columns()
            } else {
                self.keys.clear();
                self.values.clear();
                for (slot, generation, row) in rows {
                    let value = match attr {
                        Some(index) => row.values().get(index).copied(),
                        None => match self.predicate.eval(row) {
                            Ok(true) => self.expr.eval(row).ok(),
                            _ => None,
                        },
                    };
                    if let Some(value) = value {
                        self.keys.push((slot, generation));
                        self.values.push(value);
                    }
                }
                (&self.keys[..], &self.values[..])
            };
            let (a, f) = pass.account(state, keys, values, &mut self.remap);
            (all, filter, tracked) = (all + a, filter + f, tracked + keys.len());
        }
        self.totals.ticks += 1;
        self.totals.all_messages += all;
        self.totals.filter_messages += filter;
        self.tracked = tracked;
    }

    /// Whether this ledger accounts `expr` under `predicate` with a filter
    /// of half-width `epsilon` (bit for bit).
    pub(crate) fn has_filter(&self, expr: &Expr, predicate: &Predicate, epsilon: f64) -> bool {
        self.expr == *expr
            && self.predicate == *predicate
            && self.epsilon.to_bits() == epsilon.to_bits()
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

/// Scratch of [`Pass::remap`]: a node's rows as the previous call left
/// them, and the row of those each slot names.
#[derive(Debug, Default)]
struct Remap {
    prior: Vec<u64>,
    position: Vec<u32>,
}

/// One `observe` call's stamps and filter width.
#[derive(Clone, Copy)]
struct Pass {
    epsilon: f64,
    /// `totals.ticks` before this call: the stamp of a node seen last call.
    previous: u64,
    /// The stamp this call leaves on every node it sees.
    tick: u64,
}

impl Pass {
    /// Charges one fragment's accounted rows — `keys[k]`'s value is
    /// `values[k]` — against `node`'s filter state, leaves the state at
    /// them and stamps the node seen. Returns the `ALL` and `ALL+FILTER`
    /// messages.
    ///
    /// xtask: no-alloc
    #[inline]
    fn account(
        self,
        node: &mut NodeFilter,
        keys: &[(u32, u32)],
        values: &[f64],
        remap: &mut Remap,
    ) -> (u64, u64) {
        let seen = std::mem::replace(&mut node.seen, self.tick) == self.previous;
        let same = seen
            && node.rows.len() == 3 * keys.len()
            && node
                .rows
                .iter()
                .zip(keys)
                .all(|(&was, &(s, g))| was == key(s, g));
        if same {
            self.kernel(&mut node.rows, values)
        } else {
            let held = if seen { node.rows.len() / 3 } else { 0 };
            self.remap(&mut node.rows, held, keys, values, remap)
        }
    }

    /// A fragment of the shape the previous call left: charges `values`
    /// against the held `last` / `shipped` columns of `rows` (keys first,
    /// one a value) and moves them on. Returns the `ALL` and `ALL+FILTER`
    /// messages. Branch-free, so the loop vectorises.
    ///
    /// xtask: no-alloc
    #[inline]
    fn kernel(self, rows: &mut [u64], values: &[f64]) -> (u64, u64) {
        let n = values.len();
        let (last, shipped) = rows[n..].split_at_mut(n);
        let (mut all, mut filter) = (0, 0);
        for ((&value, last), shipped) in values.iter().zip(last).zip(shipped) {
            // Bit comparison: any representational change is a change the
            // source would push (exact float equality is the intended
            // semantics here, not tolerance).
            let changed = value.to_bits() != *last;
            let escape = (value - f64::from_bits(*shipped)).abs() > self.epsilon;
            all += u64::from(changed);
            filter += u64::from(escape);
            *shipped = if escape { value.to_bits() } else { *shipped };
            *last = value.to_bits();
        }
        (all, filter)
    }

    /// Any other fragment: lays a node's `rows` out for `keys` afresh,
    /// carrying over each of the `held` rows the previous call left (none
    /// when it did not see the node) whose key survived, found by slot.
    /// Every other row is new: it ships under both baselines, and its
    /// state starts at its value, which the kernel then charges nothing
    /// (`ε ≥ 0`). Returns the `ALL` and `ALL+FILTER` messages.
    ///
    /// xtask: no-alloc
    #[inline(never)]
    fn remap(
        self,
        rows: &mut Vec<u64>,
        held: usize,
        keys: &[(u32, u32)],
        values: &[f64],
        remap: &mut Remap,
    ) -> (u64, u64) {
        let Remap { prior, position } = remap;
        prior.clear();
        prior.extend_from_slice(&rows[..3 * held]);
        let (held_keys, held_values) = prior.split_at(held);
        let (held_last, held_shipped) = held_values.split_at(held);
        for (row, &was) in (0..).zip(held_keys) {
            let slot = usize::try_from(was & u64::from(u32::MAX)).unwrap_or(usize::MAX);
            if position.len() <= slot {
                position.resize(slot + 1, u32::MAX);
            }
            position[slot] = row;
        }

        let n = keys.len();
        rows.resize(3 * n, 0);
        let (new_keys, new_values) = rows.split_at_mut(n);
        let (new_last, new_shipped) = new_values.split_at_mut(n);
        let mut fresh = 0;
        for (k, (&(slot, generation), &value)) in keys.iter().zip(values).enumerate() {
            new_keys[k] = key(slot, generation);
            // A stale `position` entry (another node's, or a departed
            // row's) names a held row of another slot, so the key compare
            // turns it away.
            let row = position
                .get(slot as usize)
                .map_or(usize::MAX, |&row| row as usize);
            (new_last[k], new_shipped[k]) = match held_keys.get(row) {
                Some(&was) if was == new_keys[k] => (held_last[row], held_shipped[row]),
                _ => {
                    fresh += 1;
                    (value.to_bits(), value.to_bits())
                }
            };
        }
        let (all, filter) = self.kernel(rows, values);
        (all + fresh, filter + fresh)
    }
}

/// The `BTreeMap` implementation the row-ordered state replaced, kept
/// verbatim as the model the proptest below holds it to.
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

    /// A delete swap-removes: the fragment's last row moves into the hole.
    /// The moved tuple keeps its filter state through the remap — it does
    /// not ship again — and a drift inside ε still costs `ALL` only.
    #[test]
    fn a_swap_removed_row_keeps_its_filter_state() {
        let (mut db, handles) = db_with(&[1.0, 2.0, 3.0]);
        let mut ledger = ledger_for(&db, 0.5);
        ledger.observe(&db);
        db.delete(handles[0]).unwrap();
        db.update(handles[2], &[3.25]).unwrap();
        ledger.observe(&db);
        let t = ledger.totals();
        assert_eq!((t.all_messages, t.filter_messages), (4, 3));
        assert_eq!(ledger.tracked(), 2);
        assert_eq!(ledger.shipped(), [3.0, 2.0]);
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
        /// The value each row the latest `observe` accounted last shipped:
        /// what an `ALL+FILTER` querier holds for the tuples it tracks.
        fn shipped(&self) -> Vec<f64> {
            let tick = self.totals.ticks;
            self.nodes
                .iter()
                .filter(|node| node.seen == tick)
                .flat_map(|node| &node.rows[2 * node.rows.len() / 3..])
                .map(|&bits| f64::from_bits(bits))
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

    /// `(schema, expression, predicate)`: every way `observe` reads a
    /// value — the store's own columns in place (the shipped query: a bare
    /// attribute of a one-attribute schema under no predicate), a bare
    /// attribute off the row (at either index of the two-attribute schema)
    /// and through `eval` (a predicate, a computed expression, a constant
    /// over a schema with no attributes at all).
    const CASES: [(&[&str], &str, &str); 6] = [
        (&["a"], "a", "true"),
        (&["a", "c"], "a", "a > c"),
        (&["a", "c"], "a", "true"),
        (&["a", "c"], "c", "true"),
        (&["a", "c"], "a - c", "true"),
        (&[], "2.5", "true"),
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The `BTreeMap` ledger is the oracle for the row-ordered state:
        /// the same totals and the same tracked count after every `observe`,
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
