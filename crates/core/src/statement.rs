//! Parsing full continuous-query statements from text.
//!
//! The paper writes queries as SQL-flavoured statements
//! (`SELECT op(expression) FROM R`); this module accepts that form plus
//! the precision contract, so applications can take whole queries as
//! strings:
//!
//! ```text
//! SELECT AVG(temperature) FROM R
//!   WHERE station_ok = 1
//!   WITH delta = 2, epsilon = 1, confidence = 0.95
//! ```
//!
//! The grammar — `statement` and everything under it — is the EBNF block
//! on [`digest_db::parse`], whose [`Cursor`] this module walks. What is
//! decided here is what that block leaves open: the aggregates (`AVG`,
//! `SUM`, `COUNT`, `MEDIAN`, `PERCENTILE`, `TOPK`), which of them take
//! `*`, `DISTINCT` or a second argument, and the contract keys (`delta` |
//! `δ`, `epsilon` | `eps` | `ε`, `confidence` | `p`; all three required,
//! the last of a repeated key wins). The relation name after `FROM` is
//! required but uninterpreted — the model is single-relation (§II).

use crate::error::CoreError;
use crate::query::{AggregateOp, ContinuousQuery, Precision};
use crate::Result;
use digest_db::parse::{Cursor, Token::Symbol, Token::Word};
use digest_db::{Expr, Predicate, Schema};

fn err(message: impl Into<String>) -> CoreError {
    CoreError::InvalidStatement {
        message: message.into(),
    }
}

/// Parses the `contract` after `WITH`, to the end of the statement.
fn parse_with_clause(cursor: &mut Cursor<'_>) -> Result<Precision> {
    let (mut delta, mut epsilon, mut confidence) = (None, None, None);
    loop {
        while cursor.eat(Symbol(",")) {}
        if cursor.peek().is_none() {
            break;
        }
        let key = cursor.word("a WITH parameter")?;
        cursor.require(Symbol("="))?;
        let value = cursor.signed("a number")?;
        match key.to_ascii_lowercase().as_str() {
            "delta" | "δ" => delta = Some(value),
            "epsilon" | "eps" | "ε" => epsilon = Some(value),
            "confidence" | "p" => confidence = Some(value),
            other => return Err(err(format!("unknown WITH parameter `{other}`"))),
        }
    }
    Precision::new(
        delta.ok_or_else(|| err("WITH clause must set delta"))?,
        epsilon.ok_or_else(|| err("WITH clause must set epsilon"))?,
        confidence.ok_or_else(|| err("WITH clause must set confidence (or p)"))?,
    )
}

impl ContinuousQuery {
    /// Parses a full continuous-query statement against a schema.
    ///
    /// # Errors
    ///
    /// [`CoreError::Db`] carrying a `ParseError` — its position a byte
    /// offset into `text` — where the text does not fit the grammar, or an
    /// `UnknownAttribute`; [`CoreError::InvalidStatement`] for an unknown
    /// aggregate or `WITH` parameter, or an argument out of range; and
    /// [`CoreError::InvalidPrecision`] for out-of-range precision values.
    pub fn parse(text: &str, schema: &Schema) -> Result<ContinuousQuery> {
        let mut cursor = Cursor::new(text, schema)?;
        cursor.require(Word("SELECT"))?;
        let op_name = cursor.word("an aggregate operation")?.to_ascii_uppercase();
        cursor.require(Symbol("("))?;
        let (op, expr) = match op_name.as_str() {
            "AVG" => (AggregateOp::Avg, cursor.expr()?),
            "SUM" => (AggregateOp::Sum, cursor.expr()?),
            "MEDIAN" => (AggregateOp::MEDIAN, cursor.expr()?),
            // COUNT(*) — the expression is irrelevant to a pure count;
            // COUNT(DISTINCT expression) — the sketch-served cardinality
            // kind of DESIGN.md §17.
            "COUNT" if cursor.eat(Symbol("*")) => (AggregateOp::Count, Expr::first_attr(schema)),
            "COUNT" if cursor.eat(Word("DISTINCT")) => (AggregateOp::Distinct, cursor.expr()?),
            "COUNT" => (AggregateOp::Count, cursor.expr()?),
            "PERCENTILE" => {
                let expr = cursor.expr()?;
                cursor.require(Symbol(","))?;
                let q: f64 = cursor.signed("a PERCENTILE rank")?;
                let permille = (q * 1000.0).round();
                if !q.is_finite() || !(1.0..=999.0).contains(&permille) {
                    return Err(err("PERCENTILE rank must be in [0.001, 0.999]"));
                }
                // In [1, 999] by the guard above; the checked narrowing
                // keeps the float-discipline rule satisfied.
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let permille_wide = permille as u64;
                let q_permille = u16::try_from(permille_wide)
                    .map_err(|_| err("PERCENTILE rank must be in [0.001, 0.999]"))?;
                (AggregateOp::Percentile { q_permille }, expr)
            }
            "TOPK" => {
                let expr = cursor.expr()?;
                cursor.require(Symbol(","))?;
                let k: u16 = cursor.signed("a TOPK count")?;
                if !(1..=64).contains(&k) {
                    return Err(err("TOPK count must be in [1, 64]"));
                }
                (AggregateOp::TopK { k }, expr)
            }
            other => return Err(err(format!("unknown aggregate operation `{other}`"))),
        };
        cursor.require(Symbol(")"))?;
        cursor.require(Word("FROM"))?;
        cursor.word("a relation name")?;
        let predicate = if cursor.eat(Word("WHERE")) {
            cursor.predicate()?
        } else {
            Predicate::True
        };
        cursor.require(Word("WITH"))?;
        let precision = parse_with_clause(&mut cursor)?;
        Ok(ContinuousQuery::new(op, expr, precision).with_predicate(predicate))
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

    fn schema() -> Schema {
        Schema::new(["temperature", "memory", "storage"])
    }

    #[test]
    fn parses_the_paper_style_query() {
        let q = ContinuousQuery::parse(
            "SELECT AVG(temperature) FROM R WITH delta = 2, epsilon = 1, confidence = 0.95",
            &schema(),
        )
        .unwrap();
        assert_eq!(q.op, AggregateOp::Avg);
        assert!(q.predicate.is_trivial());
        assert_eq!(q.precision.delta, 2.0);
        assert_eq!(q.precision.epsilon, 1.0);
        assert_eq!(q.precision.confidence, 0.95);
    }

    #[test]
    fn parses_sum_expression_and_where() {
        let q = ContinuousQuery::parse(
            "select sum(memory + storage) from resources \
             where memory > 4 and storage >= 10 \
             with delta=1000 epsilon=500 p=0.9",
            &schema(),
        )
        .unwrap();
        assert_eq!(q.op, AggregateOp::Sum);
        assert!(!q.predicate.is_trivial());
        let t = digest_db::Tuple::new(vec![0.0, 8.0, 100.0]);
        assert_eq!(q.expr.eval(&t).unwrap(), 108.0);
        assert!(q.predicate.eval(&t).unwrap());
        assert_eq!(q.precision.confidence, 0.9);
    }

    #[test]
    fn median_is_sugar_for_percentile_one_half() {
        let q = ContinuousQuery::parse(
            "SELECT MEDIAN(temperature) FROM R WITH delta=2, epsilon=1, p=0.95",
            &schema(),
        )
        .unwrap();
        assert_eq!(q.op, AggregateOp::Percentile { q_permille: 500 });
        assert_eq!(q.op, AggregateOp::MEDIAN);
        // parse → Display → parse is a fixed point: the sugar is spelled
        // out once and stays spelled out.
        let shown = q.to_string();
        assert!(
            shown.starts_with("SELECT PERCENTILE(temperature, 0.5) FROM R"),
            "{shown}"
        );
        let back = shown
            .replace("[δ=", "WITH delta=")
            .replace(", ε=", ", epsilon=")
            .replace(", p=", ", confidence=")
            .replace(']', "");
        let q2 = ContinuousQuery::parse(&back, &schema()).unwrap();
        assert_eq!(q2.op, q.op);
        assert_eq!(q2.to_string(), shown);
    }

    #[test]
    fn parses_percentile_with_rank() {
        let q = ContinuousQuery::parse(
            "SELECT PERCENTILE(temperature, 0.9) FROM R WITH delta=2, epsilon=1, p=0.95",
            &schema(),
        )
        .unwrap();
        assert_eq!(q.op, AggregateOp::Percentile { q_permille: 900 });
        assert_eq!(q.op.quantile_rank(), Some(0.9));
        assert!(q.to_string().contains("PERCENTILE"));
    }

    #[test]
    fn parses_count_distinct() {
        let q = ContinuousQuery::parse(
            "SELECT COUNT(DISTINCT temperature) FROM R WITH delta=2, epsilon=0.1, p=0.95",
            &schema(),
        )
        .unwrap();
        assert_eq!(q.op, AggregateOp::Distinct);
        assert!(q.op.uses_relative_epsilon());
        assert!(q.to_string().contains("COUNT(DISTINCT"));
    }

    #[test]
    fn parses_topk() {
        let q = ContinuousQuery::parse(
            "select topk(memory + storage, 4) from R with delta=0.05 epsilon=0.05 p=0.9",
            &schema(),
        )
        .unwrap();
        assert_eq!(q.op, AggregateOp::TopK { k: 4 });
        assert!(q.to_string().contains("TOPK"));
    }

    #[test]
    fn sketch_forms_round_trip_through_display() {
        for statement in [
            "SELECT PERCENTILE(temperature, 0.25) FROM R WITH delta=1, epsilon=1, p=0.9",
            "SELECT COUNT(DISTINCT memory) FROM R WITH delta=1, epsilon=0.2, p=0.9",
            "SELECT TOPK(temperature, 3) FROM R WHERE memory > 1 WITH delta=1, epsilon=0.1, p=0.9",
        ] {
            let q = ContinuousQuery::parse(statement, &schema()).unwrap();
            let shown = q.to_string();
            let back = shown
                .replace("[δ=", "WITH delta=")
                .replace(", ε=", ", epsilon=")
                .replace(", p=", ", confidence=")
                .replace(']', "");
            let q2 = ContinuousQuery::parse(&back, &schema()).unwrap();
            assert_eq!(q2.op, q.op, "{statement}");
            assert_eq!(q2.predicate, q.predicate, "{statement}");
        }
    }

    #[test]
    fn rejects_bad_sketch_arguments() {
        let s = schema();
        for bad in [
            "SELECT PERCENTILE(temperature) FROM R WITH delta=1, epsilon=1, p=0.9",
            "SELECT PERCENTILE(temperature, 1.5) FROM R WITH delta=1, epsilon=1, p=0.9",
            "SELECT PERCENTILE(temperature, 0) FROM R WITH delta=1, epsilon=1, p=0.9",
            "SELECT TOPK(temperature) FROM R WITH delta=1, epsilon=1, p=0.9",
            "SELECT TOPK(temperature, 0) FROM R WITH delta=1, epsilon=1, p=0.9",
            "SELECT TOPK(temperature, 65) FROM R WITH delta=1, epsilon=1, p=0.9",
            "SELECT TOPK(temperature, 2.5) FROM R WITH delta=1, epsilon=1, p=0.9",
            "SELECT COUNT(DISTINCT) FROM R WITH delta=1, epsilon=1, p=0.9",
        ] {
            assert!(
                ContinuousQuery::parse(bad, &s).is_err(),
                "should reject: {bad}"
            );
        }
    }

    #[test]
    fn parses_count_star() {
        let q = ContinuousQuery::parse(
            "SELECT COUNT(*) FROM R WHERE memory < 8 WITH delta=10, epsilon=5, p=0.9",
            &schema(),
        )
        .unwrap();
        assert_eq!(q.op, AggregateOp::Count);
        assert!(!q.predicate.is_trivial());
    }

    #[test]
    fn keywords_inside_expressions_do_not_confuse_the_parser() {
        // Attribute names containing 'from'/'where' as substrings.
        let schema = Schema::new(["fromage", "whereabouts"]);
        let q = ContinuousQuery::parse(
            "SELECT AVG(fromage) FROM R WHERE whereabouts > 0 WITH delta=1, epsilon=1, p=0.5",
            &schema,
        )
        .unwrap();
        assert!(!q.predicate.is_trivial());
    }

    #[test]
    fn display_round_trips_through_parse() {
        let q = ContinuousQuery::parse(
            "SELECT AVG(temperature) FROM R WHERE memory > 1 WITH delta=2, epsilon=1, p=0.95",
            &schema(),
        )
        .unwrap();
        // Display format: "... [δ=2, ε=1, p=0.95]" — convert back to WITH
        // form and reparse.
        let shown = q.to_string();
        let statement = shown
            .replace("[δ=", "WITH delta=")
            .replace(", ε=", ", epsilon=")
            .replace(", p=", ", confidence=")
            .replace(']', "");
        let q2 = ContinuousQuery::parse(&statement, &schema()).unwrap();
        assert_eq!(q2.op, q.op);
        assert_eq!(q2.precision, q.precision);
        assert_eq!(q2.predicate, q.predicate);
    }

    #[test]
    fn rejects_malformed_statements() {
        let s = schema();
        for bad in [
            "",
            "AVG(temperature) FROM R WITH delta=1, epsilon=1, p=0.5",
            "SELECT MODE(temperature) FROM R WITH delta=1, epsilon=1, p=0.5",
            "SELECT AVG temperature FROM R WITH delta=1, epsilon=1, p=0.5",
            "SELECT AVG(temperature FROM R WITH delta=1, epsilon=1, p=0.5",
            "SELECT AVG(temperature) WITH delta=1, epsilon=1, p=0.5",
            "SELECT AVG(temperature) FROM R",
            "SELECT AVG(temperature) FROM R WITH delta=1, epsilon=1",
            "SELECT AVG(temperature) FROM R WITH delta=1, epsilon=1, p=0.5, bogus=2",
            "SELECT AVG(temperature) FROM R WITH delta=one, epsilon=1, p=0.5",
            "SELECT AVG(temperature) FROM R WHERE WITH delta=1, epsilon=1, p=0.5",
            "SELECT AVG(temperature) FROM R junk WITH delta=1, epsilon=1, p=0.5",
            "SELECT AVG(unknown_attr) FROM R WITH delta=1, epsilon=1, p=0.5",
            "SELECT AVG(temperature) FROM R WITH delta=0, epsilon=1, p=0.5",
        ] {
            assert!(
                ContinuousQuery::parse(bad, &s).is_err(),
                "should reject: {bad}"
            );
        }
    }

    /// Word lengths were counted in chars and used as byte offsets, so a
    /// multi-byte letter sliced `&str` mid-character and panicked.
    #[test]
    fn multi_byte_words_are_measured_in_bytes() {
        let s = schema();
        for bad in [
            "SELECT AVG(temperature) FROM R WITH delta=1 é=2",
            "SELECT AVG(temperature) FROM R WITH delta=1 épsilon=1 p=0.5",
        ] {
            let got = ContinuousQuery::parse(bad, &s);
            assert!(
                matches!(got, Err(CoreError::InvalidStatement { .. })),
                "{bad}: {got:?}"
            );
        }
        // The relation name is uninterpreted, whatever its alphabet.
        ContinuousQuery::parse(
            "SELECT AVG(temperature) FROM é WITH delta=1, epsilon=1, p=0.5",
            &s,
        )
        .unwrap();
    }

    #[test]
    fn count_star_requires_count() {
        assert!(ContinuousQuery::parse(
            "SELECT AVG(*) FROM R WITH delta=1, epsilon=1, p=0.5",
            &schema()
        )
        .is_err());
    }

    #[test]
    fn whitespace_and_case_are_flexible() {
        let q = ContinuousQuery::parse(
            "  SeLeCt   CoUnT( * )   FrOm   r   WiTh   DELTA=3   EPSILON = 2   P=0.8  ",
            &schema(),
        )
        .unwrap();
        assert_eq!(q.op, AggregateOp::Count);
        assert_eq!(q.precision.delta, 3.0);
        assert_eq!(q.precision.epsilon, 2.0);
    }
}
