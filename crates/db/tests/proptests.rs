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

/// Insert-heavy mix with rare departures, so fragments grow long enough
/// for the order of a floating-point sum to show in its last bits.
fn growing_op_strategy() -> impl Strategy<Value = Op> {
    let insert = || (0u32..8, -1e6f64..1e6).prop_map(|(n, v)| Op::Insert(n, v));
    prop_oneof![
        insert(),
        insert(),
        insert(),
        (0usize..256).prop_map(Op::DeleteNth),
        (0usize..256, -1e6f64..1e6).prop_map(|(i, v)| Op::UpdateNth(i, v)),
        (0u32..160).prop_map(|n| if n < 8 {
            Op::RemoveNode(n)
        } else {
            Op::DeleteNth(n as usize)
        }),
    ]
}

/// The oracle as it was written before the column store: one pass over
/// `iter()`, predicate then expression through `eval`, one `+=` chain.
fn reference_sum_count(
    db: &P2PDatabase,
    expr: &Expr,
    predicate: &Predicate,
) -> Result<(f64, usize), DbError> {
    let mut sum = 0.0;
    let mut count = 0usize;
    for (_, row) in db.iter() {
        if predicate.eval(row)? {
            sum += expr.eval(row)?;
            count += 1;
        }
    }
    Ok((sum, count))
}

fn reference_avg(db: &P2PDatabase, expr: &Expr, predicate: &Predicate) -> Result<f64, DbError> {
    match reference_sum_count(db, expr, predicate)? {
        (_, 0) => Err(DbError::EmptyRelation),
        (sum, count) => Ok(sum / count as f64),
    }
}

fn bits(value: Result<f64, DbError>) -> Result<u64, DbError> {
    value.map(f64::to_bits)
}

/// Checks all six `exact_*` methods against the reference fold for one
/// question, bit for bit and error for error.
fn assert_oracle_matches_reference(db: &P2PDatabase, expr: &Expr, predicate: &Predicate) {
    let reference = reference_sum_count(db, expr, predicate);
    assert_eq!(
        bits(db.exact_sum_where(expr, predicate)),
        bits(reference.clone().map(|(sum, _)| sum)),
        "SUM({expr}) WHERE {predicate}"
    );
    assert_eq!(
        bits(db.exact_avg_where(expr, predicate)),
        bits(reference_avg(db, expr, predicate)),
        "AVG({expr}) WHERE {predicate}"
    );
    assert_eq!(
        db.exact_count_where(predicate),
        reference_sum_count(db, &Expr::constant(0.0), predicate).map(|(_, count)| count),
        "COUNT(*) WHERE {predicate}"
    );
    if predicate.is_trivial() {
        assert_eq!(
            bits(db.exact_sum(expr)),
            bits(reference.map(|(sum, _)| sum))
        );
        assert_eq!(
            bits(db.exact_avg(expr)),
            bits(reference_avg(db, expr, predicate))
        );
        assert_eq!(db.exact_count(), db.iter().count());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The nested-loop fold (and its bare-attribute fast arm) returns what
    /// the old `iter()` + `eval` oracle returned, to the last bit, on a
    /// relation whose fragments have been through inserts, deletes,
    /// updates and node departures.
    #[test]
    fn oracle_fold_matches_the_iter_eval_reference(
        arity in 1usize..4,
        ops in prop::collection::vec(growing_op_strategy(), 0..300),
    ) {
        let names = ["a", "b", "c"];
        let mut db = P2PDatabase::new(Schema::new(names[..arity].iter().copied()));
        for i in 0..8u32 {
            db.register_node(NodeId(i));
        }
        let row = |v: f64| Tuple::new((0..arity).map(|j| v / (j + 1) as f64).collect());
        let mut live: Vec<TupleHandle> = Vec::new();
        for op in ops {
            match op {
                Op::Insert(node, v) => live.push(db.insert(NodeId(node), row(v)).unwrap()),
                Op::DeleteNth(i) if !live.is_empty() => {
                    let _ = db.delete(live.swap_remove(i % live.len()));
                }
                Op::UpdateNth(i, v) if !live.is_empty() => {
                    let _ = db.update(live[i % live.len()], row(v).values());
                }
                Op::RemoveNode(node) => {
                    db.remove_node(NodeId(node)).unwrap();
                    live.retain(|h| h.node != NodeId(node));
                    db.register_node(NodeId(node));
                }
                Op::DeleteNth(_) | Op::UpdateNth(..) => {}
            }
        }
        let schema = db.schema().clone();
        let last = Expr::attr(&schema, names[arity - 1]).unwrap();
        let beyond = Expr::Attr { index: arity, name: "beyond".into() };
        let positive = Predicate::cmp(CmpOp::Gt, Expr::first_attr(&schema), Expr::constant(0.0));
        // Always true, but not the `Predicate::True` the fast arm keys on.
        let roundabout = Predicate::True.not().not();
        for expr in [
            Expr::first_attr(&schema),
            last.clone(),
            last.clone() * Expr::constant(3.0) - Expr::first_attr(&schema),
            beyond.clone(),
            beyond + last,
        ] {
            for predicate in [
                Predicate::True,
                roundabout.clone(),
                positive.clone(),
                positive.clone().not().or(Predicate::cmp(CmpOp::Lt, expr.clone(), Expr::constant(1e5))),
                Predicate::True.not(),
            ] {
                assert_oracle_matches_reference(&db, &expr, &predicate);
            }
            // The fast arm and the general arm agree to the bit.
            prop_assert_eq!(
                bits(db.exact_sum(&expr)),
                bits(db.exact_sum_where(&expr, &roundabout))
            );
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
    fn expression_parser_never_panics(text in "[a-z0-9+\\-*/(). ]{0,40}") {
        let schema = Schema::new(["a", "b", "cpu"]);
        // Must return Ok or Err — never panic.
        let _ = Expr::parse(&text, &schema);
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
