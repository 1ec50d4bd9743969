//! `P2PDatabase::rewrite_fragments` is one `update` per row in `iter` order
//! with one tally bump.
//!
//! One `#[test]` in its own binary: it reads the process-wide `DB_UPDATES`
//! counter, which any concurrently running test that updates a tuple would
//! move.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    clippy::cast_possible_truncation
)]

use digest_db::{DbError, Expr, P2PDatabase, Schema, Tuple, TupleHandle};
use digest_net::NodeId;
use digest_telemetry::registry::DB_UPDATES;
use proptest::prelude::*;

/// A write to the relation before the rewrite. A `usize` picks a node
/// among the ids registered so far, or a live tuple.
#[derive(Debug, Clone)]
enum Op {
    Insert(usize, Vec<f64>),
    /// Swap-removes a row, so a later insert reuses its slot.
    Delete(usize),
    RemoveNode(usize),
    /// Registers an id up to four past the bound (an empty fragment), or
    /// brings a departed one back empty.
    Register(usize, u32),
}

/// Mostly ordinary values, and some that a sum carried as a running delta
/// would not forget: a signed zero, infinities, a `NaN`, a 10¹⁵ beside a
/// 10⁻³.
fn value_strategy() -> impl Strategy<Value = f64> {
    (0u32..20, -1e6f64..1e6).prop_map(|(kind, ordinary)| match kind {
        0 => -0.0,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => f64::NAN,
        4 => 1e15,
        5 => 1e-3,
        _ => ordinary,
    })
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let row = || prop::collection::vec(value_strategy(), 2..3);
    let insert = move || (0usize..64, row()).prop_map(|(n, v)| Op::Insert(n, v));
    prop_oneof![
        insert(),
        insert(),
        insert(),
        insert(),
        (0usize..512).prop_map(Op::Delete),
        (0usize..64, 0u32..12).prop_map(|(n, jump)| match jump {
            0 => Op::RemoveNode(n),
            _ => Op::Register(n, jump),
        }),
    ]
}

/// Runs `ops` on a relation of `arity` attributes over four nodes.
fn history(arity: usize, ops: Vec<Op>) -> P2PDatabase {
    let names = ["a", "b"];
    let mut db = P2PDatabase::new(Schema::new(names[..arity].iter().copied()));
    let mut bound = 4u32;
    for id in 0..bound {
        db.register_node(NodeId(id));
    }
    let mut live: Vec<TupleHandle> = Vec::new();
    for op in ops {
        match op {
            Op::Insert(n, row) => {
                let node = NodeId(n as u32 % bound);
                if db.has_node(node) {
                    live.push(db.insert(node, Tuple::new(row[..arity].to_vec())).unwrap());
                }
            }
            Op::Delete(pick) => {
                if !live.is_empty() {
                    let handle = live.swap_remove(pick % live.len());
                    assert!(db.delete(handle).unwrap());
                }
            }
            Op::RemoveNode(n) => {
                let node = NodeId(n as u32 % bound);
                if db.has_node(node) {
                    db.remove_node(node).unwrap();
                    live.retain(|h| h.node != node);
                }
            }
            Op::Register(n, jump) => {
                let node = match jump.checked_sub(8) {
                    Some(past) => NodeId(bound + past),
                    None => NodeId(n as u32 % bound),
                };
                db.register_node(node);
                bound = bound.max(node.0 + 1);
            }
        }
    }
    db
}

/// What attribute `j` of the `k`-th row in `iter` order is overwritten
/// with.
fn new_value(pool: &[f64], k: usize, j: usize) -> f64 {
    pool[(3 * k + j) % pool.len()]
}

fn listing(db: &P2PDatabase) -> Vec<(TupleHandle, Vec<u64>)> {
    db.iter()
        .map(|(h, row)| (h, row.values().iter().map(|v| v.to_bits()).collect()))
        .collect()
}

/// Bit pattern of an oracle answer; all `NaN`s are one answer.
fn bits(value: Result<f64, DbError>) -> Result<u64, DbError> {
    value.map(|v| if v.is_nan() { f64::NAN } else { v }.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// After a random history of inserts, swap-removing deletes (so later
    /// inserts reuse slots), departures and registrations (so fragments
    /// are empty, departed or new), one rewrite of the relation leaves
    /// every row, every leaf — read through the oracle's digest arm, bit
    /// for bit — and the update tally where one `update` per row in `iter`
    /// order leaves them. It visits the held fragments in node-id order,
    /// each with its rows back to back.
    #[test]
    fn rewrite_is_one_update_per_row_in_iter_order(
        arity in 0usize..3,
        ops in prop::collection::vec(op_strategy(), 0..160),
        pool in prop::collection::vec(value_strategy(), 1..9),
    ) {
        let db = history(arity, ops);

        let mut looped = db.clone();
        let handles: Vec<TupleHandle> = db.iter().map(|(h, _)| h).collect();
        let before = DB_UPDATES.get();
        for (k, &handle) in handles.iter().enumerate() {
            let row: Vec<f64> = (0..arity).map(|j| new_value(&pool, k, j)).collect();
            looped.update(handle, &row).unwrap();
        }
        let loop_delta = DB_UPDATES.get() - before;

        let mut rewritten = db.clone();
        let mut visited = Vec::new();
        let mut k = 0;
        let before = DB_UPDATES.get();
        rewritten.rewrite_fragments(|node, values| {
            let rows = db.content_size(node);
            visited.push(node);
            assert_eq!(values.len(), rows * arity, "{node}");
            for (offset, cell) in values.iter_mut().enumerate() {
                *cell = new_value(&pool, k + offset / arity, offset % arity);
            }
            k += rows;
        });
        let rewrite_delta = DB_UPDATES.get() - before;

        prop_assert_eq!(visited, db.nodes().collect::<Vec<_>>());
        prop_assert_eq!(k, handles.len());
        prop_assert_eq!(listing(&rewritten), listing(&looped));
        prop_assert_eq!(rewrite_delta, loop_delta);
        prop_assert_eq!(rewrite_delta, db.total_tuples() as u64);
        for (index, name) in db.schema().names().iter().enumerate() {
            let attr = Expr::Attr { index, name: name.as_str().into() };
            prop_assert_eq!(bits(rewritten.exact_avg(&attr)), bits(looped.exact_avg(&attr)));
            prop_assert_eq!(bits(rewritten.exact_sum(&attr)), bits(looped.exact_sum(&attr)));
        }
        for node in db.nodes() {
            prop_assert_eq!(rewritten.content_size(node), looped.content_size(node));
        }
    }
}
