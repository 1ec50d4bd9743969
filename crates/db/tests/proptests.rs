//! Property-based tests of the partitioned database and local stores.

// Tests may panic freely; the workspace deny-lints target library code.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    clippy::cast_possible_truncation
)]

use digest_db::{
    CmpOp, DbError, Expr, LocalStore, P2PDatabase, Predicate, Schema, Tuple, TupleHandle,
};
use digest_net::NodeId;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert(u32, f64),
    DeleteNth(usize),
    UpdateNth(usize, f64),
    RemoveNode(u32),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..8, -1e6f64..1e6).prop_map(|(n, v)| Op::Insert(n, v)),
        (0usize..256).prop_map(Op::DeleteNth),
        (0usize..256, -1e6f64..1e6).prop_map(|(i, v)| Op::UpdateNth(i, v)),
        (0u32..8).prop_map(Op::RemoveNode),
    ]
}

/// Mostly ordinary values; one in four is a value that a sum carried as a
/// running delta would not forget: a signed zero, an infinity, a `NaN`, or
/// half of a 10¹⁵-vs-10⁻³ cancellation pair.
fn value_strategy() -> impl Strategy<Value = f64> {
    (0u32..28, -1e6f64..1e6).prop_map(|(kind, ordinary)| match kind {
        0 => -0.0,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => f64::NAN,
        4 => 1e15,
        5 => -1e15,
        6 => 1e-3,
        _ => ordinary,
    })
}

/// Every writer of the database. A `usize` picks a node among the ids
/// registered so far, or a handle among the live *and* the deleted ones.
#[derive(Debug, Clone)]
enum WriterOp {
    Insert(usize, Vec<f64>),
    Delete(usize),
    Update(usize, Vec<f64>),
    /// `update_rows` over these picks; row `k` is written from
    /// `values[k..]`, cyclically.
    UpdateRows(Vec<usize>, Vec<f64>),
    RemoveNode(usize),
    /// Registers a node: one seen before (live: a no-op; departed: back,
    /// empty) or a new id, up to ten past the bound.
    Register(usize, u32),
}

fn writer_op_strategy() -> impl Strategy<Value = WriterOp> {
    let row = || prop::collection::vec(value_strategy(), 3..4);
    let insert = move || (0usize..64, row()).prop_map(|(n, v)| WriterOp::Insert(n, v));
    prop_oneof![
        insert(),
        insert(),
        insert(),
        (0usize..512).prop_map(WriterOp::Delete),
        (0usize..512, row()).prop_map(|(i, v)| WriterOp::Update(i, v)),
        (0usize..512, row()).prop_map(|(i, v)| WriterOp::Update(i, v)),
        (
            prop::collection::vec(0usize..512, 0..24),
            prop::collection::vec(value_strategy(), 8..9)
        )
            .prop_map(|(picks, values)| WriterOp::UpdateRows(picks, values)),
        (0usize..64, 0u32..30).prop_map(|(n, jump)| if jump < 6 {
            WriterOp::RemoveNode(n)
        } else {
            WriterOp::Register(n, jump - 6)
        }),
    ]
}

/// The oracle's definition of a sum, written out (DESIGN §4): per node id
/// in `0..=max_id`, the `+=` chain over that node's qualifying rows in
/// `iter_node` order, from `0.0`; leaf `id` into lane `id & 7` of eight
/// chains; the lanes joined pairwise. Predicate, then expression, through
/// `eval`.
fn reference_sum_count(
    db: &P2PDatabase,
    max_id: u32,
    expr: &Expr,
    predicate: &Predicate,
) -> Result<(f64, usize), DbError> {
    let mut lanes = [0.0f64; 8];
    let mut count = 0usize;
    for id in 0..=max_id {
        let mut leaf = 0.0;
        for (_, row) in db.iter_node(NodeId(id)) {
            if predicate.eval(row)? {
                leaf += expr.eval(row)?;
                count += 1;
            }
        }
        lanes[id as usize & 7] += leaf;
    }
    let [a, b, c, d, e, f, g, h] = lanes;
    Ok((((a + b) + (c + d)) + ((e + f) + (g + h)), count))
}

/// Bit pattern of an oracle answer. All `NaN`s are one answer: which of two
/// `NaN` operands an addition returns is the code generator's choice.
fn bits(value: Result<f64, DbError>) -> Result<u64, DbError> {
    value.map(|v| if v.is_nan() { f64::NAN } else { v }.to_bits())
}

/// Checks all six `exact_*` methods against the written-out fold for one
/// question, bit for bit and error for error.
fn assert_oracle_matches_reference(
    db: &P2PDatabase,
    max_id: u32,
    expr: &Expr,
    predicate: &Predicate,
) {
    let reference = reference_sum_count(db, max_id, expr, predicate);
    let sum = reference.clone().map(|(sum, _)| sum);
    let avg = reference.and_then(|(sum, count)| match count {
        0 => Err(DbError::EmptyRelation),
        _ => Ok(sum / count as f64),
    });
    assert_eq!(
        bits(db.exact_sum_where(expr, predicate)),
        bits(sum.clone()),
        "SUM({expr}) WHERE {predicate}"
    );
    assert_eq!(
        bits(db.exact_avg_where(expr, predicate)),
        bits(avg.clone()),
        "AVG({expr}) WHERE {predicate}"
    );
    assert_eq!(
        db.exact_count_where(predicate),
        reference_sum_count(db, max_id, &Expr::constant(0.0), predicate).map(|(_, count)| count),
        "COUNT(*) WHERE {predicate}"
    );
    if predicate.is_trivial() {
        assert_eq!(bits(db.exact_sum(expr)), bits(sum), "SUM({expr})");
        assert_eq!(bits(db.exact_avg(expr)), bits(avg), "AVG({expr})");
        assert_eq!(db.exact_count(), db.iter().count());
    }
}

/// `Predicate::True` by another name: always true, but not what the
/// digest arm keys on.
fn roundabout() -> Predicate {
    Predicate::True.not().not()
}

/// What must hold after every single write: the size column is the row
/// count of every id (registered, departed or never seen), and every
/// attribute's sum — from the digest and from the rows — is the
/// written-out fold.
fn assert_digest_is_true(db: &P2PDatabase, max_id: u32) {
    let mut total = 0;
    for id in 0..=max_id + 3 {
        let rows = db.iter_node(NodeId(id)).count();
        assert_eq!(db.content_size(NodeId(id)), rows, "m_v of node {id}");
        total += rows;
    }
    assert_eq!(db.total_tuples(), total);
    for (index, name) in db.schema().names().iter().enumerate() {
        let attr = Expr::Attr {
            index,
            name: name.as_str().into(),
        };
        assert_oracle_matches_reference(db, max_id, &attr, &Predicate::True);
        assert_oracle_matches_reference(db, max_id, &attr, &roundabout());
    }
    // A zero-arity relation has no sum column to count from.
    assert_oracle_matches_reference(db, max_id, &Expr::constant(1.0), &Predicate::True);
}

/// The handle a pick names among the live and the deleted ones, and
/// whether it is live.
fn pick_handle(
    live: &[TupleHandle],
    deleted: &[TupleHandle],
    pick: usize,
) -> Option<(TupleHandle, bool)> {
    let pick = pick.checked_rem(live.len() + deleted.len())?;
    Some(match live.get(pick) {
        Some(&handle) => (handle, true),
        None => (deleted[pick - live.len()], false),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fold written out is the oracle of the maintained one: after
    /// every insert, delete, update, batch update (also one that stops on
    /// a deleted handle), departure and (re-)registration, the digest is
    /// what a from-scratch derivation gives, and both arms of all six
    /// `exact_*` return what the written-out two-level fold returns, to
    /// the last bit and error for error — through values a running delta
    /// would never recover from, and after they are overwritten.
    #[test]
    fn oracle_fold_matches_the_iter_eval_reference(
        arity in 0usize..4,
        ops in prop::collection::vec(writer_op_strategy(), 0..200),
    ) {
        let names = ["a", "b", "c"];
        let mut db = P2PDatabase::new(Schema::new(names[..arity].iter().copied()));
        // Ids registered so far are `0..bound`.
        let mut bound = 4u32;
        for i in 0..bound {
            db.register_node(NodeId(i));
        }
        let mut live: Vec<TupleHandle> = Vec::new();
        let mut deleted: Vec<TupleHandle> = Vec::new();
        for op in ops {
            match op {
                WriterOp::Insert(n, row) => {
                    let node = NodeId(n as u32 % bound);
                    match db.insert(node, Tuple::new(row[..arity].to_vec())) {
                        Ok(handle) => live.push(handle),
                        Err(err) => {
                            prop_assert_eq!(err, DbError::UnknownNode(node));
                            prop_assert!(!db.has_node(node));
                        }
                    }
                }
                WriterOp::Delete(pick) => {
                    if let Some((handle, is_live)) = pick_handle(&live, &deleted, pick) {
                        prop_assert_eq!(db.delete(handle), Ok(is_live));
                        if is_live {
                            live.retain(|&h| h != handle);
                            deleted.push(handle);
                        }
                    }
                }
                WriterOp::Update(pick, row) => {
                    if let Some((handle, is_live)) = pick_handle(&live, &deleted, pick) {
                        let want = if is_live { Ok(()) } else { Err(DbError::StaleHandle) };
                        prop_assert_eq!(db.update(handle, &row[..arity]), want);
                    }
                }
                WriterOp::UpdateRows(picks, values) => {
                    let batch: Vec<(TupleHandle, bool)> = picks
                        .iter()
                        .filter_map(|&pick| pick_handle(&live, &deleted, pick))
                        .collect();
                    let handles: Vec<TupleHandle> = batch.iter().map(|&(h, _)| h).collect();
                    let outcome = db.update_rows(&handles, |k, row| {
                        for (j, cell) in row.iter_mut().enumerate() {
                            *cell = values[(k + j) % values.len()];
                        }
                    });
                    let want = match batch.iter().all(|&(_, is_live)| is_live) {
                        true => Ok(()),
                        false => Err(DbError::StaleHandle),
                    };
                    prop_assert_eq!(outcome, want);
                }
                WriterOp::RemoveNode(n) => {
                    let node = NodeId(n as u32 % bound);
                    if db.has_node(node) {
                        let rows = db.content_size(node);
                        prop_assert_eq!(db.remove_node(node), Ok(rows));
                        // A re-registered node restarts its generations, so
                        // handles from before the departure mean nothing.
                        live.retain(|h| h.node != node);
                        deleted.retain(|h| h.node != node);
                    } else {
                        prop_assert_eq!(db.remove_node(node), Err(DbError::UnknownNode(node)));
                    }
                }
                WriterOp::Register(n, jump) => {
                    let node = match jump.checked_sub(14) {
                        Some(past) => NodeId(bound + past),
                        None => NodeId(n as u32 % bound),
                    };
                    db.register_node(node);
                    bound = bound.max(node.0 + 1);
                }
            }
            assert_digest_is_true(&db, bound - 1);
        }

        let schema = db.schema().clone();
        let last = match arity {
            0 => Expr::constant(2.5),
            _ => Expr::attr(&schema, names[arity - 1]).unwrap(),
        };
        let beyond = Expr::Attr { index: arity, name: "beyond".into() };
        let further = Expr::Attr { index: arity + 1, name: "further".into() };
        let positive = Predicate::cmp(CmpOp::Gt, last.clone(), Expr::constant(0.0));
        let questions = |db: &P2PDatabase| {
            for expr in [
                Expr::first_attr(&schema),
                last.clone(),
                last.clone() * Expr::constant(3.0) - Expr::first_attr(&schema),
                beyond.clone(),
                beyond.clone() + last.clone(),
            ] {
                for predicate in [
                    Predicate::True,
                    roundabout(),
                    positive.clone(),
                    positive.clone().not().or(Predicate::cmp(CmpOp::Lt, expr.clone(), Expr::constant(1e5))),
                    Predicate::True.not(),
                    // Fails before the expression can: the predicate's error wins.
                    Predicate::cmp(CmpOp::Gt, further.clone(), Expr::constant(0.0)),
                ] {
                    assert_oracle_matches_reference(db, bound - 1, &expr, &predicate);
                }
                // The digest arm and the general arm agree to the bit.
                assert_eq!(
                    bits(db.exact_sum(&expr)),
                    bits(db.exact_sum_where(&expr, &roundabout()))
                );
            }
        };
        questions(&db);
        // Every row overwritten by finite values, one `update` at a time:
        // nothing of what passed through the leaves may remain in them.
        for (k, &handle) in live.iter().enumerate() {
            let row: Vec<f64> = (0..arity).map(|j| (k * 3 + j) as f64 - 17.25).collect();
            db.update(handle, &row).unwrap();
        }
        assert_digest_is_true(&db, bound - 1);
        questions(&db);
        for name in &names[..arity] {
            let attr = Expr::attr(&schema, name).unwrap();
            prop_assert!(db.exact_sum(&attr).unwrap().is_finite());
        }
    }

    #[test]
    fn database_counts_stay_consistent(ops in prop::collection::vec(op_strategy(), 0..300)) {
        let mut db = P2PDatabase::new(Schema::single("a"));
        for i in 0..8u32 {
            db.register_node(NodeId(i));
        }
        let mut live: Vec<TupleHandle> = Vec::new();
        for op in ops {
            match op {
                Op::Insert(node, v) => {
                    if db.has_node(NodeId(node)) {
                        live.push(db.insert(NodeId(node), Tuple::single(v)).unwrap());
                    }
                }
                Op::DeleteNth(i) => {
                    if !live.is_empty() {
                        let h = live.swap_remove(i % live.len());
                        // May already be gone via RemoveNode.
                        let _ = db.delete(h);
                    }
                }
                Op::UpdateNth(i, v) => {
                    if !live.is_empty() {
                        let h = live[i % live.len()];
                        let _ = db.update(h, &[v]);
                    }
                }
                Op::RemoveNode(node) => {
                    if db.has_node(NodeId(node)) {
                        db.remove_node(NodeId(node)).unwrap();
                        live.retain(|h| h.node != NodeId(node));
                        db.register_node(NodeId(node)); // node re-joins empty
                    }
                }
            }
            // Invariant: total == sum of fragment sizes == iterator length.
            let frag_sum: usize = db.nodes().map(|n| db.content_size(n)).sum();
            prop_assert_eq!(db.total_tuples(), frag_sum);
            prop_assert_eq!(db.total_tuples(), db.iter().count());
        }
        // Every handle we believe is live resolves; none is double-counted.
        for h in &live {
            prop_assert!(db.read(*h).is_ok());
        }
        prop_assert!(live.len() <= db.total_tuples());
    }

    /// Flattening the per-fragment view gives `iter` exactly — every
    /// `(handle, row)` in the same order — after inserts, deletes, slot
    /// reuse, departures and (re-)registrations, on every arity down to
    /// zero, where each row is empty.
    #[test]
    fn the_fragment_view_flattens_to_iter(
        arity in 0usize..3,
        ops in prop::collection::vec(fragment_op_strategy(), 0..160),
    ) {
        let names = ["a", "b"];
        let mut db = P2PDatabase::new(Schema::new(names[..arity].iter().copied()));
        for i in 0..4u32 {
            db.register_node(NodeId(i));
        }
        let mut live: Vec<TupleHandle> = Vec::new();
        for op in ops {
            match op {
                FragmentOp::Insert(n, row) => {
                    if db.has_node(NodeId(n)) {
                        live.push(db.insert(NodeId(n), Tuple::new(row[..arity].to_vec())).unwrap());
                    }
                }
                FragmentOp::Delete(pick) => {
                    if let Some(i) = pick.checked_rem(live.len()) {
                        prop_assert!(db.delete(live.swap_remove(i)).unwrap());
                    }
                }
                FragmentOp::Replace(pick, row) => {
                    if let Some(i) = pick.checked_rem(live.len()) {
                        let old = live.swap_remove(i);
                        prop_assert!(db.delete(old).unwrap());
                        let new = db.insert(old.node, Tuple::new(row[..arity].to_vec())).unwrap();
                        prop_assert_eq!((new.node, new.slot), (old.node, old.slot));
                        prop_assert_ne!(new.generation, old.generation);
                        live.push(new);
                    }
                }
                FragmentOp::RemoveNode(n) => {
                    if db.has_node(NodeId(n)) {
                        db.remove_node(NodeId(n)).unwrap();
                        live.retain(|h| h.node != NodeId(n));
                    }
                }
                FragmentOp::Register(n) => db.register_node(NodeId(n)),
            }
            let flat = flattened_fragments(&db);
            let listed: Vec<(TupleHandle, Vec<u64>)> =
                db.iter().map(|(h, row)| (h, row_bits(row))).collect();
            prop_assert_eq!(&flat, &listed);
            prop_assert_eq!(flat.len(), db.total_tuples());
            prop_assert_eq!(flat.len(), live.len());
        }
    }

    #[test]
    fn store_slot_generations_prevent_aba(values in prop::collection::vec(-1e6f64..1e6, 1..50)) {
        let mut store = LocalStore::new(1);
        let mut stale: Vec<(u32, u32)> = Vec::new();
        for &v in &values {
            let (slot, generation) = store.insert(&Tuple::single(v));
            prop_assert!(store.delete(slot, generation));
            stale.push((slot, generation));
            // Refill (likely reusing the slot).
            let _ = store.insert(&Tuple::single(v + 1.0));
        }
        // No stale handle ever resolves, even though slots were refilled.
        for (slot, generation) in stale {
            prop_assert!(store.get(slot, generation).is_none());
        }
    }

    #[test]
    fn exact_aggregates_match_direct_computation(
        values in prop::collection::vec(-1e4f64..1e4, 1..100),
    ) {
        let mut db = P2PDatabase::new(Schema::single("a"));
        for i in 0..4u32 {
            db.register_node(NodeId(i));
        }
        for (i, &v) in values.iter().enumerate() {
            db.insert(NodeId((i % 4) as u32), Tuple::single(v)).unwrap();
        }
        let expr = Expr::first_attr(db.schema());
        let sum: f64 = values.iter().sum();
        let avg = sum / values.len() as f64;
        prop_assert_eq!(db.exact_count(), values.len());
        prop_assert!((db.exact_sum(&expr).unwrap() - sum).abs() < 1e-6 * (1.0 + sum.abs()));
        prop_assert!((db.exact_avg(&expr).unwrap() - avg).abs() < 1e-6 * (1.0 + avg.abs()));
    }

    #[test]
    fn parsed_expressions_evaluate_deterministically(
        a in -100.0f64..100.0,
        b in -100.0f64..100.0,
    ) {
        let schema = Schema::new(["a", "b"]);
        let expr = Expr::parse("(a + b) * 2 - a / 4", &schema).unwrap();
        let t = Tuple::new(vec![a, b]);
        let expected = (a + b) * 2.0 - a / 4.0;
        prop_assert!((expr.eval(&t).unwrap() - expected).abs() < 1e-9 * (1.0 + expected.abs()));
    }
}

/// What the per-fragment view and `iter` are checked under.
#[derive(Debug, Clone)]
enum FragmentOp {
    Insert(u32, Vec<f64>),
    Delete(usize),
    /// Delete, then insert at the same node: the slot is reused under a
    /// bumped generation.
    Replace(usize, Vec<f64>),
    RemoveNode(u32),
    /// Registers a node: a departed one comes back empty, a live one is
    /// left alone, a new id grows the id space.
    Register(u32),
}

fn fragment_op_strategy() -> impl Strategy<Value = FragmentOp> {
    let row = || prop::collection::vec(-1e6f64..1e6, 2..3);
    prop_oneof![
        (0u32..10, row()).prop_map(|(n, v)| FragmentOp::Insert(n, v)),
        (0u32..10, row()).prop_map(|(n, v)| FragmentOp::Insert(n, v)),
        (0usize..256).prop_map(FragmentOp::Delete),
        (0usize..256, row()).prop_map(|(i, v)| FragmentOp::Replace(i, v)),
        (0u32..10).prop_map(FragmentOp::RemoveNode),
        (0u32..10).prop_map(FragmentOp::Register),
    ]
}

/// A row's values by bit pattern, so two reads compare exactly.
fn row_bits(row: digest_db::RowView<'_>) -> Vec<u64> {
    row.values().iter().map(|v| v.to_bits()).collect()
}

/// `P2PDatabase::fragments` read back through interfaces that do not share
/// its walk: its nodes are `nodes()`, each fragment holds `content_size`
/// rows, each row is what `read` returns for its handle, and the fragment
/// is what `iter_node` lists. Returns the flattened `(handle, row)`s.
fn flattened_fragments(db: &P2PDatabase) -> Vec<(TupleHandle, Vec<u64>)> {
    let mut flat = Vec::new();
    let mut nodes = Vec::new();
    for (node, rows) in db.fragments() {
        nodes.push(node);
        let fragment: Vec<(TupleHandle, Vec<u64>)> = rows
            .map(|(slot, generation, row)| {
                let handle = TupleHandle {
                    node,
                    slot,
                    generation,
                };
                assert_eq!(row_bits(db.read(handle).unwrap()), row_bits(row));
                assert_eq!(row.arity(), db.schema().arity());
                (handle, row_bits(row))
            })
            .collect();
        assert_eq!(fragment.len(), db.content_size(node));
        let own: Vec<(TupleHandle, Vec<u64>)> = db
            .iter_node(node)
            .map(|(h, row)| (h, row_bits(row)))
            .collect();
        assert_eq!(own, fragment);
        flat.extend(fragment);
    }
    assert_eq!(nodes, db.nodes().collect::<Vec<_>>());
    flat
}

/// What the grammar of `digest_db::parse` gives meaning to: keywords,
/// operators, the characters a number is made of, two attributes.
const ALPHABET: [&str; 28] = [
    "and", "or", "not", "true", "false", "<", "<=", "<>", "!=", ">", ">=", "=", "(", ")", ",", "e",
    "E", ".", "+", "-", "*", "/", "1", "0", "a", "cpu", " ", "!",
];

/// Query text from outside the program: any Unicode scalar value anywhere,
/// mixed one for one with pieces of the alphabet.
fn query_text() -> impl Strategy<Value = String> {
    let piece = prop_oneof![
        (0u32..0x11_0000).prop_map(|code| char::from_u32(code)
            .unwrap_or(char::REPLACEMENT_CHARACTER)
            .to_string()),
        (0usize..ALPHABET.len()).prop_map(|i| ALPHABET[i].to_owned()),
    ];
    prop::collection::vec(piece, 0..24).prop_map(|pieces| pieces.concat())
}

// The parsers are microsecond-scale, so these run many more cases than the
// properties above: whatever the text holds, the answer is `Ok` or `Err`.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn expression_parser_never_panics(text in query_text()) {
        let schema = Schema::new(["a", "b", "cpu"]);
        let _ = Expr::parse(&text, &schema);
    }

    #[test]
    fn predicate_parser_never_panics(text in query_text()) {
        let schema = Schema::new(["a", "b", "cpu"]);
        let _ = Predicate::parse(&text, &schema);
    }
}
