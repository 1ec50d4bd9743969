//! `P2PDatabase::update_rows` is a loop of `update` with one tally bump.
//!
//! One `#[test]` in its own binary: it reads the process-wide `DB_UPDATES`
//! counter, which any concurrently running test that updates a tuple would
//! move.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)]

use digest_db::{DbError, P2PDatabase, Schema, Tuple, TupleHandle};
use digest_net::NodeId;
use digest_telemetry::registry::DB_UPDATES;

const ARITY: usize = 2;

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
}
