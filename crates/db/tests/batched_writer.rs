//! `P2PDatabase::update_rows` is a loop of `update` with one tally bump.
//!
//! One `#[test]` in its own binary: it reads the process-wide `DB_UPDATES`
//! counter, which any concurrently running test that updates a tuple would
//! move.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)]

use digest_db::{DbError, Expr, P2PDatabase, Schema, Tuple, TupleHandle};
use digest_net::NodeId;
use digest_telemetry::registry::DB_UPDATES;

const ARITY: usize = 2;

/// Handles `update_rows` resolves per pass (`RESOLVE` in `database.rs`).
const CHUNK: usize = 512;

fn world() -> (P2PDatabase, Vec<TupleHandle>) {
    let mut db = P2PDatabase::new(Schema::new(["a", "b"]));
    for node in 0..4u32 {
        db.register_node(NodeId(node));
    }
    let handles = (0..40u32)
        .map(|i| {
            let row = Tuple::new(vec![f64::from(i), -f64::from(i)]);
            db.insert(NodeId(i % 4), row).unwrap()
        })
        .collect();
    (db, handles)
}

/// A world of 1 100 handles on 37 nodes, more than two resolve chunks.
/// The first 600 rows go round-robin over nodes 0–35 and the rest over all
/// 37, so node 36's first handle lies in the second chunk.
fn wide_world() -> (P2PDatabase, Vec<TupleHandle>) {
    let mut db = P2PDatabase::new(Schema::new(["a", "b"]));
    for node in 0..37u32 {
        db.register_node(NodeId(node));
    }
    let handles = (0..1_100u32)
        .map(|i| {
            let row = Tuple::new(vec![f64::from(i), -f64::from(i)]);
            let node = if i < 600 { i % 36 } else { i % 37 };
            db.insert(NodeId(node), row).unwrap()
        })
        .collect();
    (db, handles)
}

/// What row `k` of a batch is overwritten with.
fn new_values(k: usize) -> [f64; ARITY] {
    [1000.0 + k as f64, 0.5 * k as f64]
}

fn listing(db: &P2PDatabase) -> Vec<(TupleHandle, Vec<u64>)> {
    db.iter()
        .map(|(h, row)| (h, row.values().iter().map(|v| v.to_bits()).collect()))
        .collect()
}

/// Runs the batch both ways on clones of `db` and checks they agree on the
/// outcome, on every stored row, and on the tally; returns the outcome and
/// the number of rows written.
fn assert_equivalent(db: &P2PDatabase, handles: &[TupleHandle]) -> (Result<(), DbError>, u64) {
    let mut looped = db.clone();
    let before = DB_UPDATES.get();
    let loop_outcome = handles
        .iter()
        .enumerate()
        .try_for_each(|(k, &h)| looped.update(h, &new_values(k)));
    let loop_delta = DB_UPDATES.get() - before;

    let mut batched = db.clone();
    let before = DB_UPDATES.get();
    let batch_outcome = batched.update_rows(handles, |k, row| row.copy_from_slice(&new_values(k)));
    let batch_delta = DB_UPDATES.get() - before;

    assert_eq!(batch_outcome, loop_outcome);
    assert_eq!(listing(&batched), listing(&looped));
    assert_eq!(batch_delta, loop_delta);
    // The leaves too: each written fragment's, re-added once, is the chain
    // one `update` per row leaves behind.
    for name in ["a", "b"] {
        let attr = Expr::attr(db.schema(), name).unwrap();
        let sum = |db: &P2PDatabase| db.exact_sum(&attr).map(f64::to_bits);
        assert_eq!(sum(&batched), sum(&looped));
    }
    (batch_outcome, batch_delta)
}

#[test]
fn update_rows_is_a_loop_of_update() {
    let (db, handles) = world();

    // Every handle live: all rows written, in handle order.
    assert_eq!(assert_equivalent(&db, &handles), (Ok(()), 40));
    assert_eq!(assert_equivalent(&db, &[]), (Ok(()), 0));
    // The same handle twice is two updates; the later write wins.
    let twice = [handles[3], handles[7], handles[3]];
    assert_eq!(assert_equivalent(&db, &twice), (Ok(()), 3));

    // The k-th handle is stale: rows before it are written and counted,
    // rows from it on are not.
    for k in [0, 1, 17, 39] {
        let mut stale = db.clone();
        assert!(stale.delete(handles[k]).unwrap());
        let (outcome, written) = assert_equivalent(&stale, &handles);
        assert_eq!(outcome, Err(DbError::StaleHandle));
        assert_eq!(written, k as u64);
        // A later tuple reusing the slot does not revive the old handle.
        stale
            .insert(handles[k].node, Tuple::new(vec![0.0; ARITY]))
            .unwrap();
        assert_eq!(assert_equivalent(&stale, &handles).1, k as u64);
    }

    // The k-th handle's node departed (and re-joined empty).
    let mut departed = db.clone();
    departed.remove_node(NodeId(2)).unwrap();
    let (outcome, written) = assert_equivalent(&departed, &handles);
    assert_eq!(outcome, Err(DbError::UnknownNode(NodeId(2))));
    assert_eq!(written, 2);
    departed.register_node(NodeId(2));
    let (outcome, written) = assert_equivalent(&departed, &handles);
    assert_eq!(outcome, Err(DbError::StaleHandle));
    assert_eq!(written, 2);

    // Across resolve chunks: a stale handle first in the batch, on either
    // side of each chunk boundary and last.
    let (db, handles) = wide_world();
    let last = handles.len() - 1;
    assert!(last >= 2 * CHUNK);
    assert_eq!(
        assert_equivalent(&db, &handles),
        (Ok(()), handles.len() as u64)
    );
    for k in [0, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, last] {
        let mut stale = db.clone();
        assert!(stale.delete(handles[k]).unwrap());
        let (outcome, written) = assert_equivalent(&stale, &handles);
        assert_eq!(outcome, Err(DbError::StaleHandle), "k = {k}");
        assert_eq!(written, k as u64);
    }
    // A node departed whose first handle is in the second chunk: the first
    // chunk and the second's rows before it are written.
    let first = handles.iter().position(|h| h.node == NodeId(36)).unwrap();
    assert!((CHUNK..2 * CHUNK).contains(&first), "{first}");
    let mut departed = db.clone();
    departed.remove_node(NodeId(36)).unwrap();
    let (outcome, written) = assert_equivalent(&departed, &handles);
    assert_eq!(outcome, Err(DbError::UnknownNode(NodeId(36))));
    assert_eq!(written, first as u64);
}
