//! Property-based tests of the query-engine building blocks.

// Tests may panic freely; the workspace deny-lints target library code.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    clippy::cast_possible_truncation
)]

use digest_core::{AggregateOp, ContinuousQuery, Precision};
use digest_core::{AllScheduler, PredScheduler, SnapshotScheduler};
use digest_db::{Expr, Predicate, Schema};
use proptest::prelude::*;

/// Characters the statement grammar gives meaning to, and multi-byte
/// letters (two, three and four bytes) that pass `is_alphabetic`.
const STRUCTURAL: [char; 24] = [
    ' ', ',', '=', '(', ')', '*', '.', '_', '1', 'e', 'W', 'é', 'ε', 'δ', '中', '𝐚', '<', '>', '!',
    '+', '-', '/', 'a', '€',
];

/// Any Unicode scalar value, or — half the time — a structural one.
fn any_char() -> impl Strategy<Value = char> {
    prop_oneof![
        (0u32..0x11_0000)
            .prop_map(|code| char::from_u32(code).unwrap_or(char::REPLACEMENT_CHARACTER)),
        (0usize..STRUCTURAL.len()).prop_map(|i| STRUCTURAL[i]),
    ]
}

fn any_text(len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
    prop::collection::vec(any_char(), len).prop_map(|chars| chars.into_iter().collect())
}

fn word(text: &str) -> impl Strategy<Value = String> {
    Just(text.to_owned())
}

proptest! {
    #[test]
    fn precision_accepts_exactly_the_legal_domain(
        delta in -10.0f64..10.0,
        epsilon in -10.0f64..10.0,
        confidence in -0.5f64..1.5,
    ) {
        let legal = delta > 0.0 && epsilon > 0.0 && confidence > 0.0 && confidence < 1.0;
        prop_assert_eq!(Precision::new(delta, epsilon, confidence).is_ok(), legal);
    }

    #[test]
    fn target_variance_is_positive_and_monotone(
        epsilon in 0.01f64..10.0,
        confidence in 0.5f64..0.99,
    ) {
        let p = Precision::new(1.0, epsilon, confidence).unwrap();
        let v = p.target_variance().unwrap();
        prop_assert!(v > 0.0);
        let tighter = Precision::new(1.0, epsilon / 2.0, confidence).unwrap();
        prop_assert!(tighter.target_variance().unwrap() < v);
    }

    #[test]
    fn all_scheduler_always_says_one(delta in 0.001f64..100.0, obs in 0u64..50) {
        let mut s = AllScheduler::new();
        for t in 0..obs {
            s.observe(t as f64, t as f64);
        }
        prop_assert_eq!(s.next_delay(delta).unwrap(), 1);
    }

    #[test]
    fn pred_scheduler_delay_is_bounded_and_monotone_in_delta(
        k in 1usize..5,
        slope in -5.0f64..5.0,
        delta in 0.1f64..50.0,
    ) {
        let mut s = PredScheduler::new(k).unwrap();
        for t in 0..(k as u64 + 4) {
            s.observe(t as f64, slope * t as f64);
        }
        let d1 = s.next_delay(delta).unwrap();
        let d2 = s.next_delay(delta * 2.0).unwrap();
        prop_assert!(d1 >= 1);
        prop_assert!(d2 >= d1, "looser δ must not schedule sooner: {d1} vs {d2}");
    }

    #[test]
    fn query_display_round_trips_predicate_and_expression(
        threshold in -100.0f64..100.0,
        delta in 0.1f64..10.0,
    ) {
        let schema = Schema::new(["a", "b"]);
        let q = ContinuousQuery::new(
            AggregateOp::Sum,
            Expr::parse("a + b * 2", &schema).unwrap(),
            Precision::new(delta, 1.0, 0.9).unwrap(),
        )
        .with_predicate(
            Predicate::parse(&format!("a > {threshold}"), &schema).unwrap(),
        );
        let shown = q.to_string();
        prop_assert!(shown.contains("SUM"));
        prop_assert!(shown.contains("WHERE"));
        // The displayed predicate reparses to an equivalent one.
        let inner = shown.split("WHERE ").nth(1).unwrap().split(" [").next().unwrap();
        let reparsed = Predicate::parse(inner, &schema).unwrap();
        for a in [-200.0, threshold - 0.5, threshold + 0.5, 200.0] {
            let t = digest_db::Tuple::new(vec![a, 0.0]);
            prop_assert_eq!(reparsed.eval(&t).unwrap(), q.predicate.eval(&t).unwrap());
        }
    }
}

// The parser is microsecond-scale, so this runs many more cases than the
// properties above.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// A statement is text from outside the program: whatever it holds —
    /// any Unicode scalar anywhere, including multi-byte text where a
    /// keyword, relation, aggregate argument, `WHERE` predicate or `WITH`
    /// key belongs — the parser answers `Ok` or `Err`, never a panic.
    #[test]
    fn statement_parser_never_panics(
        text in any_text(0..60),
        op in prop_oneof![word("AVG"), word("COUNT"), word("PERCENTILE"), word("TOPK"), any_text(0..5)],
        expr in prop_oneof![word("a"), word("a + b"), word("*"), word("DISTINCT a"), word("a, 0.9"), any_text(0..8)],
        relation in prop_oneof![word("R"), any_text(0..4)],
        filter in prop_oneof![
            word(""),
            word("WHERE a > 1"),
            any_text(0..8),
            any_text(0..8).prop_map(|text| format!("WHERE {text}")),
        ],
        with in prop_oneof![word("delta=1, epsilon=1, p=0.5"), any_text(0..12)],
        tail in any_text(0..6),
    ) {
        let schema = Schema::new(["a", "b"]);
        let _ = ContinuousQuery::parse(&text, &schema);
        for statement in [
            format!("SELECT {op}({expr}) FROM {relation} {filter} WITH {with}"),
            format!("SELECT {op}({expr}) FROM {relation} {filter} WITH delta=1 {tail}=2"),
            format!("SELECT AVG(a) FROM R WITH delta=1, epsilon=1, p=0.5{tail}"),
        ] {
            let _ = ContinuousQuery::parse(&statement, &schema);
        }
    }
}
