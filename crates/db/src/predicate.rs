//! Selection predicates — the `WHERE` clause of the query model.
//!
//! The paper's future-work section (§VIII) calls for "more complex
//! aggregate queries with … arbitrary select … predicates". This module
//! supplies the select half: a boolean predicate over a tuple's
//! attributes, composed from arithmetic comparisons with `AND`/`OR`/`NOT`.
//! Sampling-based evaluation filters sampled tuples through the predicate
//! and estimates aggregates over the qualifying sub-population (see
//! `digest-core`); the measured selectivity scales `SUM`/`COUNT`.

use crate::expr::Expr;
use crate::parse::Cursor;
use crate::tuple::{RowView, Schema};
use crate::Result;
use std::fmt;

/// A comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `=` (exact IEEE equality; use range predicates for tolerance)
    Eq,
    /// `!=`
    Ne,
}

impl CmpOp {
    // SQL `=` / `<>` compare exactly by definition; tolerance would
    // change predicate semantics.
    #[allow(clippy::float_cmp)]
    fn apply(self, l: f64, r: f64) -> bool {
        match self {
            CmpOp::Lt => l < r,
            CmpOp::Le => l <= r,
            CmpOp::Gt => l > r,
            CmpOp::Ge => l >= r,
            CmpOp::Eq => l == r,
            CmpOp::Ne => l != r,
        }
    }

    fn symbol(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
        }
    }
}

/// A boolean predicate over tuple attributes.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true (the default `WHERE` clause).
    True,
    /// `lhs op rhs` over two arithmetic expressions.
    Cmp {
        /// The operator.
        op: CmpOp,
        /// Left expression.
        lhs: Expr,
        /// Right expression.
        rhs: Expr,
    },
    /// Logical conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Logical disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Logical negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// Builds a comparison predicate.
    #[must_use]
    pub fn cmp(op: CmpOp, lhs: Expr, rhs: Expr) -> Predicate {
        Predicate::Cmp { op, lhs, rhs }
    }

    /// Conjunction.
    #[must_use]
    pub fn and(self, other: Predicate) -> Predicate {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// Disjunction.
    #[must_use]
    pub fn or(self, other: Predicate) -> Predicate {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    #[must_use]
    pub fn not(self) -> Predicate {
        Predicate::Not(Box::new(self))
    }

    /// Whether this is the trivial always-true predicate (lets the query
    /// engine skip the filtering path entirely).
    #[must_use]
    pub fn is_trivial(&self) -> bool {
        matches!(self, Predicate::True)
    }

    /// Evaluates the predicate against a row — a stored [`RowView`] or a
    /// borrowed owned `&Tuple`.
    ///
    /// # Errors
    ///
    /// Any expression-evaluation error (e.g. attribute out of range).
    pub fn eval<'a>(&self, row: impl Into<RowView<'a>>) -> Result<bool> {
        self.eval_row(row.into())
    }

    fn eval_row(&self, row: RowView<'_>) -> Result<bool> {
        match self {
            Predicate::True => Ok(true),
            Predicate::Cmp { op, lhs, rhs } => Ok(op.apply(lhs.eval(row)?, rhs.eval(row)?)),
            Predicate::And(a, b) => Ok(a.eval_row(row)? && b.eval_row(row)?),
            Predicate::Or(a, b) => Ok(a.eval_row(row)? || b.eval_row(row)?),
            Predicate::Not(p) => Ok(!p.eval_row(row)?),
        }
    }

    /// Parses a predicate against a schema: a truth-valued `or` of the one
    /// grammar in [`crate::parse`], and nothing after it.
    ///
    /// # Errors
    ///
    /// Those of [`Cursor::new`], [`Cursor::predicate`] and [`Cursor::finish`].
    pub fn parse(text: &str, schema: &Schema) -> Result<Predicate> {
        let mut cursor = Cursor::new(text, schema)?;
        let predicate = cursor.predicate()?;
        cursor.finish().map(|()| predicate)
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::True => write!(f, "true"),
            Predicate::Cmp { op, lhs, rhs } => write!(f, "{lhs} {} {rhs}", op.symbol()),
            Predicate::And(a, b) => write!(f, "({a} and {b})"),
            Predicate::Or(a, b) => write!(f, "({a} or {b})"),
            Predicate::Not(p) => write!(f, "not ({p})"),
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
    use crate::tuple::Tuple;

    fn schema() -> Schema {
        Schema::new(["cpu", "memory", "storage"])
    }

    fn tuple(cpu: f64, memory: f64, storage: f64) -> Tuple {
        Tuple::new(vec![cpu, memory, storage])
    }

    #[test]
    fn trivial_predicate() {
        assert!(Predicate::True.eval(&tuple(0.0, 0.0, 0.0)).unwrap());
        assert!(Predicate::True.is_trivial());
        assert!(!Predicate::True.not().is_trivial());
    }

    #[test]
    fn comparisons() {
        let s = schema();
        let t = tuple(2.0, 8.0, 100.0);
        for (text, want) in [
            ("cpu < 3", true),
            ("cpu > 3", false),
            ("cpu <= 2", true),
            ("cpu >= 2.5", false),
            ("memory = 8", true),
            ("memory != 8", false),
            ("memory <> 9", true),
        ] {
            let p = Predicate::parse(text, &s).unwrap();
            assert_eq!(p.eval(&t).unwrap(), want, "{text}");
        }
    }

    #[test]
    fn boolean_combinators() {
        let s = schema();
        let t = tuple(2.0, 8.0, 100.0);
        for (text, want) in [
            ("cpu < 3 and memory > 4", true),
            ("cpu < 3 and memory > 9", false),
            ("cpu > 3 or storage >= 100", true),
            ("not cpu > 3", true),
            ("not (cpu < 3 and storage = 100)", false),
            ("cpu < 1 or cpu > 1 and memory = 8", true), // and binds tighter
        ] {
            let p = Predicate::parse(text, &s).unwrap();
            assert_eq!(p.eval(&t).unwrap(), want, "{text}");
        }
    }

    #[test]
    fn arithmetic_inside_predicates() {
        let s = schema();
        let t = tuple(2.0, 8.0, 100.0);
        let p = Predicate::parse("memory + storage > 100", &s).unwrap();
        assert!(p.eval(&t).unwrap());
        let p = Predicate::parse("(memory + storage) / 2 <= 54", &s).unwrap();
        assert!(p.eval(&t).unwrap());
        let p = Predicate::parse("cpu * cpu = 4", &s).unwrap();
        assert!(p.eval(&t).unwrap());
    }

    #[test]
    fn keyword_case_and_boundaries() {
        let s = Schema::new(["android", "orbit", "nothing"]);
        let t = Tuple::new(vec![1.0, 2.0, 3.0]);
        // Attribute names containing keyword prefixes must not confuse the
        // tokenizer.
        let p = Predicate::parse("android > 0 AND orbit < 5", &s).unwrap();
        assert!(p.eval(&t).unwrap());
        let p = Predicate::parse("nothing = 3 OR android = 99", &s).unwrap();
        assert!(p.eval(&t).unwrap());
        let p = Predicate::parse("NOT nothing = 3", &s).unwrap();
        assert!(!p.eval(&t).unwrap());
    }

    #[test]
    fn parse_errors() {
        let s = schema();
        assert!(Predicate::parse("", &s).is_err());
        assert!(Predicate::parse("cpu", &s).is_err());
        assert!(Predicate::parse("cpu <", &s).is_err());
        assert!(Predicate::parse("cpu < 3 and", &s).is_err());
        assert!(Predicate::parse("cpu < 3 extra", &s).is_err());
        assert!(Predicate::parse("disk < 3", &s).is_err());
        assert!(Predicate::parse("(cpu < 3", &s).is_err());
    }

    #[test]
    fn display_round_trips() {
        let s = schema();
        let p = Predicate::parse("not (cpu < 3 and memory > 4) or storage = 0", &s).unwrap();
        let shown = p.to_string();
        let reparsed = Predicate::parse(&shown, &s).unwrap();
        for values in [(2.0, 8.0, 100.0), (5.0, 2.0, 0.0), (1.0, 1.0, 1.0)] {
            let t = tuple(values.0, values.1, values.2);
            assert_eq!(p.eval(&t).unwrap(), reparsed.eval(&t).unwrap());
        }
    }

    #[test]
    fn eval_propagates_expression_errors() {
        let s = schema();
        let p = Predicate::parse("storage > 5", &s).unwrap();
        let narrow = Tuple::single(1.0);
        assert!(p.eval(&narrow).is_err());
    }
}
