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
//! Keywords are case-insensitive; `p` is accepted as an alias for
//! `confidence`; commas in the `WITH` clause are optional. The relation
//! name after `FROM` is required but uninterpreted — the model is
//! single-relation (§II).

use crate::error::CoreError;
use crate::query::{AggregateOp, ContinuousQuery, Precision};
use crate::Result;
use digest_db::{Expr, Predicate, Schema};

/// Case-insensitive search for a *word* occurrence of `kw` at paren depth
/// zero; returns the byte offset.
fn find_keyword(text: &str, kw: &str) -> Option<usize> {
    let bytes = text.as_bytes();
    let mut depth = 0usize;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'(' => depth += 1,
            b')' => depth = depth.saturating_sub(1),
            c if depth == 0 && c.is_ascii_alphabetic() => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                if text[start..i].eq_ignore_ascii_case(kw) {
                    return Some(start);
                }
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    None
}

fn err(message: impl Into<String>) -> CoreError {
    CoreError::InvalidStatement {
        message: message.into(),
    }
}

/// Parses one `key = value` pair list (the `WITH` clause).
fn parse_with_clause(text: &str) -> Result<Precision> {
    let mut delta = None;
    let mut epsilon = None;
    let mut confidence = None;
    for part in text.split(',').flat_map(|s| {
        // Allow both comma- and whitespace-separated pairs by re-splitting
        // on whitespace boundaries between assignments.
        split_assignments(s)
    }) {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (key, value) = part.split_once('=').ok_or_else(|| {
            err(format!(
                "expected `key = value` in WITH clause, got `{part}`"
            ))
        })?;
        let value: f64 = value
            .trim()
            .parse()
            .map_err(|_| err(format!("invalid number `{}` in WITH clause", value.trim())))?;
        match key.trim().to_ascii_lowercase().as_str() {
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

/// Length in *bytes* of the identifier (`é` is two) that `s` starts with.
fn word_len(s: &str) -> usize {
    s.find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(s.len())
}

/// Splits `"delta = 1 epsilon = 2"` into assignment-sized chunks.
fn split_assignments(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut rest = s.trim();
    while let Some(eq) = rest.find('=') {
        // The value runs to the next key (a word followed by '='), or EOL.
        let after = &rest[eq + 1..];
        let mut value_end = after.len();
        let mut offset = 0;
        for word_start in after
            .char_indices()
            .filter(|(_, c)| c.is_alphabetic())
            .map(|(i, _)| i)
        {
            if word_start < offset {
                continue;
            }
            let word_end = word_start + word_len(&after[word_start..]);
            let after_word = after[word_end..].trim_start();
            if after_word.starts_with('=') {
                value_end = word_start;
                break;
            }
            offset = word_end;
        }
        out.push(&rest[..eq + 1 + value_end]);
        rest = rest[eq + 1 + value_end..].trim();
        if rest.is_empty() {
            break;
        }
    }
    if out.is_empty() && !s.trim().is_empty() {
        out.push(s);
    }
    out
}

/// Strips a leading case-insensitive `DISTINCT` keyword (followed by
/// whitespace) from a `COUNT(...)` body, returning the inner expression
/// text of the DESIGN.md §17 cardinality kind.
fn strip_distinct(body: &str) -> Option<&str> {
    let head = body.get(..8)?;
    if !head.eq_ignore_ascii_case("distinct") {
        return None;
    }
    let rest = &body[8..];
    let trimmed = rest.trim_start();
    // Require a separator so attributes like `distinctness` still parse
    // as plain COUNT expressions.
    (trimmed.len() < rest.len() && !trimmed.is_empty()).then_some(trimmed)
}

/// Splits `"expr, arg"` at the last depth-zero comma (the two-argument
/// aggregate forms `PERCENTILE(expr, q)` / `TOPK(expr, k)`).
fn split_last_comma(body: &str) -> Option<(&str, &str)> {
    let mut depth = 0usize;
    let mut split = None;
    for (i, c) in body.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => split = Some(i),
            _ => {}
        }
    }
    split.map(|i| (&body[..i], &body[i + 1..]))
}

impl ContinuousQuery {
    /// Parses a full continuous-query statement against a schema.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidStatement`] for malformed statements,
    /// [`CoreError::Db`] for expression/predicate errors, and
    /// [`CoreError::InvalidPrecision`] for out-of-range precision values.
    pub fn parse(text: &str, schema: &Schema) -> Result<ContinuousQuery> {
        let text = text.trim();
        let rest = text
            .get(..6)
            .filter(|head| head.eq_ignore_ascii_case("select"))
            .map(|_| text[6..].trim_start())
            .ok_or_else(|| err("statement must start with SELECT"))?;

        // Aggregate op up to '('.
        let open = rest
            .find('(')
            .ok_or_else(|| err("expected `(` after the aggregate operation"))?;
        let op_name = rest[..open].trim().to_ascii_uppercase();
        if !matches!(
            op_name.as_str(),
            "AVG" | "SUM" | "COUNT" | "MEDIAN" | "PERCENTILE" | "TOPK"
        ) {
            return Err(err(format!("unknown aggregate operation `{op_name}`")));
        }

        // Balanced expression inside the parens.
        let body = &rest[open + 1..];
        let mut depth = 1usize;
        let mut close = None;
        for (i, c) in body.char_indices() {
            match c {
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        close = Some(i);
                        break;
                    }
                }
                _ => {}
            }
        }
        let close = close.ok_or_else(|| err("unbalanced parentheses in aggregate expression"))?;
        let expr_text = body[..close].trim();
        let (op, expr) = match op_name.as_str() {
            "AVG" => (AggregateOp::Avg, Expr::parse(expr_text, schema)?),
            "SUM" => (AggregateOp::Sum, Expr::parse(expr_text, schema)?),
            "MEDIAN" => (AggregateOp::MEDIAN, Expr::parse(expr_text, schema)?),
            "COUNT" => {
                // COUNT(*) — the expression is irrelevant to a pure
                // count; COUNT(DISTINCT expression) — the sketch-served
                // cardinality kind of DESIGN.md §17.
                if expr_text == "*" {
                    (AggregateOp::Count, Expr::first_attr(schema))
                } else if let Some(inner) = strip_distinct(expr_text) {
                    (AggregateOp::Distinct, Expr::parse(inner, schema)?)
                } else {
                    (AggregateOp::Count, Expr::parse(expr_text, schema)?)
                }
            }
            "PERCENTILE" => {
                let (inner, arg) = split_last_comma(expr_text)
                    .ok_or_else(|| err("PERCENTILE requires `(expression, rank)`"))?;
                let q: f64 = arg
                    .trim()
                    .parse()
                    .map_err(|_| err(format!("invalid PERCENTILE rank `{}`", arg.trim())))?;
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
                (
                    AggregateOp::Percentile { q_permille },
                    Expr::parse(inner.trim(), schema)?,
                )
            }
            "TOPK" => {
                let (inner, arg) = split_last_comma(expr_text)
                    .ok_or_else(|| err("TOPK requires `(expression, k)`"))?;
                let k: u16 = arg
                    .trim()
                    .parse()
                    .map_err(|_| err(format!("invalid TOPK count `{}`", arg.trim())))?;
                if !(1..=64).contains(&k) {
                    return Err(err("TOPK count must be in [1, 64]"));
                }
                (AggregateOp::TopK { k }, Expr::parse(inner.trim(), schema)?)
            }
            // Unreachable: op_name was validated above.
            other => return Err(err(format!("unknown aggregate operation `{other}`"))),
        };

        let after_expr = body[close + 1..].trim_start();

        // FROM <relation>.
        let from_pos =
            find_keyword(after_expr, "from").ok_or_else(|| err("expected FROM clause"))?;
        if !after_expr[..from_pos].trim().is_empty() {
            return Err(err("unexpected tokens between the aggregate and FROM"));
        }
        let after_from = after_expr[from_pos + 4..].trim_start();
        let rel_len = word_len(after_from);
        if rel_len == 0 {
            return Err(err("expected a relation name after FROM"));
        }
        let after_rel = after_from[rel_len..].trim_start();

        // Optional WHERE … up to WITH.
        let with_pos = find_keyword(after_rel, "with");
        let (where_text, with_text) = match (find_keyword(after_rel, "where"), with_pos) {
            (Some(wh), Some(wi)) if wh < wi => (
                Some(after_rel[wh + 5..wi].trim()),
                Some(&after_rel[wi + 4..]),
            ),
            (Some(wh), None) => (Some(after_rel[wh + 5..].trim()), None),
            (None, Some(wi)) => {
                if !after_rel[..wi].trim().is_empty() {
                    return Err(err("unexpected tokens between FROM and WITH"));
                }
                (None, Some(&after_rel[wi + 4..]))
            }
            (None, None) => {
                if !after_rel.trim().is_empty() {
                    return Err(err("unexpected trailing tokens after FROM clause"));
                }
                (None, None)
            }
            (Some(_), Some(_)) => return Err(err("WHERE must precede WITH")),
        };

        let precision = parse_with_clause(
            with_text.ok_or_else(|| err("statement must end with a WITH precision clause"))?,
        )?;
        let predicate = match where_text {
            None => Predicate::True,
            Some("") => return Err(err("empty WHERE clause")),
            Some(p) => Predicate::parse(p, schema)?,
        };

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
