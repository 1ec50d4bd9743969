//! Arithmetic expressions over the relation's attributes.
//!
//! The query model is `SELECT op(expression) FROM R` where `expression` is
//! "an arithmetic expression involving the attributes of R" (paper §II) —
//! e.g. `SUM(memory + storage)` in the peer-to-peer computing example.
//! This module provides the expression AST and an evaluator against a
//! tuple; [`Expr::parse`] reads one from text through [`crate::parse`].

use crate::parse::Cursor;
use crate::tuple::{RowView, Schema};
use crate::Result;
use std::fmt;
use std::sync::Arc;

/// A binary arithmetic operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (IEEE semantics; `x/0 = ±inf`).
    Div,
}

impl BinOp {
    fn apply(self, l: f64, r: f64) -> f64 {
        match self {
            BinOp::Add => l + r,
            BinOp::Sub => l - r,
            BinOp::Mul => l * r,
            BinOp::Div => l / r,
        }
    }

    fn symbol(self) -> char {
        match self {
            BinOp::Add => '+',
            BinOp::Sub => '-',
            BinOp::Mul => '*',
            BinOp::Div => '/',
        }
    }
}

/// An arithmetic expression over tuple attributes.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// The attribute at the given schema index.
    Attr {
        /// Schema index.
        index: usize,
        /// Attribute name, kept for display.
        name: Arc<str>,
    },
    /// A numeric literal.
    Const(f64),
    /// Unary negation.
    Neg(Box<Expr>),
    /// A binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
}

impl Expr {
    /// An attribute reference resolved against a schema.
    ///
    /// # Errors
    ///
    /// [`DbError::UnknownAttribute`](crate::DbError::UnknownAttribute) if the
    /// name is not in the schema.
    pub fn attr(schema: &Schema, name: &str) -> Result<Expr> {
        let index = schema.index_of(name)?;
        Ok(Expr::Attr {
            index,
            name: name.into(),
        })
    }

    /// The attribute at schema index 0 — the common single-attribute case.
    #[must_use]
    pub fn first_attr(schema: &Schema) -> Expr {
        let name = schema.name(0).unwrap_or("a0");
        Expr::Attr {
            index: 0,
            name: name.into(),
        }
    }

    /// A numeric constant.
    #[must_use]
    pub fn constant(v: f64) -> Expr {
        Expr::Const(v)
    }

    /// Builds a binary node.
    #[must_use]
    pub fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// Evaluates the expression against a row — a stored [`RowView`] or a
    /// borrowed owned `&Tuple`.
    ///
    /// # Errors
    ///
    /// [`DbError::AttributeIndexOutOfRange`](crate::DbError::AttributeIndexOutOfRange)
    /// if the row is narrower than the expression expects.
    pub fn eval<'a>(&self, row: impl Into<RowView<'a>>) -> Result<f64> {
        self.eval_row(row.into())
    }

    fn eval_row(&self, row: RowView<'_>) -> Result<f64> {
        match self {
            Expr::Attr { index, .. } => row.value(*index),
            Expr::Const(v) => Ok(*v),
            Expr::Neg(inner) => Ok(-inner.eval_row(row)?),
            Expr::Binary { op, lhs, rhs } => Ok(op.apply(lhs.eval_row(row)?, rhs.eval_row(row)?)),
        }
    }

    /// Parses an expression against a schema: a number-valued `or` of the
    /// one grammar in [`crate::parse`], and nothing after it.
    ///
    /// # Errors
    ///
    /// Those of [`Cursor::new`], [`Cursor::expr`] and [`Cursor::finish`].
    pub fn parse(text: &str, schema: &Schema) -> Result<Expr> {
        let mut cursor = Cursor::new(text, schema)?;
        let expr = cursor.expr()?;
        cursor.finish().map(|()| expr)
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Attr { name, .. } => write!(f, "{name}"),
            Expr::Const(v) => write!(f, "{v}"),
            Expr::Neg(e) => write!(f, "-({e})"),
            Expr::Binary { op, lhs, rhs } => write!(f, "({lhs} {} {rhs})", op.symbol()),
        }
    }
}

macro_rules! impl_expr_op {
    ($trait:ident, $method:ident, $op:expr) => {
        impl std::ops::$trait for Expr {
            type Output = Expr;
            fn $method(self, rhs: Expr) -> Expr {
                Expr::binary($op, self, rhs)
            }
        }
    };
}

impl_expr_op!(Add, add, BinOp::Add);
impl_expr_op!(Sub, sub, BinOp::Sub);
impl_expr_op!(Mul, mul, BinOp::Mul);
impl_expr_op!(Div, div, BinOp::Div);

impl std::ops::Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        Expr::Neg(Box::new(self))
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
    use crate::DbError;

    fn schema() -> Schema {
        Schema::new(["cpu", "memory", "storage", "bandwidth"])
    }

    fn tuple() -> Tuple {
        Tuple::new(vec![2.0, 8.0, 100.0, 1.5])
    }

    #[test]
    fn eval_attribute_and_constant() {
        let s = schema();
        let e = Expr::attr(&s, "memory").unwrap();
        assert_eq!(e.eval(&tuple()).unwrap(), 8.0);
        assert_eq!(Expr::constant(3.5).eval(&tuple()).unwrap(), 3.5);
    }

    #[test]
    fn eval_composite() {
        let s = schema();
        let e = Expr::attr(&s, "memory").unwrap() + Expr::attr(&s, "storage").unwrap();
        assert_eq!(e.eval(&tuple()).unwrap(), 108.0);
    }

    #[test]
    fn parse_paper_example() {
        // SELECT SUM(memory + storage) FROM R — the expression part.
        let e = Expr::parse("memory + storage", &schema()).unwrap();
        assert_eq!(e.eval(&tuple()).unwrap(), 108.0);
    }

    #[test]
    fn parse_precedence() {
        let s = schema();
        let e = Expr::parse("cpu + memory * 2", &s).unwrap();
        assert_eq!(e.eval(&tuple()).unwrap(), 18.0);
        let e = Expr::parse("(cpu + memory) * 2", &s).unwrap();
        assert_eq!(e.eval(&tuple()).unwrap(), 20.0);
    }

    #[test]
    fn parse_unary_minus_and_division() {
        let s = schema();
        let e = Expr::parse("-memory / 4", &s).unwrap();
        assert_eq!(e.eval(&tuple()).unwrap(), -2.0);
        let e = Expr::parse("storage / (cpu - 2)", &s).unwrap();
        assert!(e.eval(&tuple()).unwrap().is_infinite());
    }

    #[test]
    fn parse_numeric_forms() {
        let s = schema();
        for (text, want) in [
            ("1.5", 1.5),
            ("2e3", 2000.0),
            ("1.5e-2", 0.015),
            (".5", 0.5),
        ] {
            let e = Expr::parse(text, &s).unwrap();
            assert_eq!(e.eval(&tuple()).unwrap(), want, "{text}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        let s = schema();
        assert!(matches!(
            Expr::parse("", &s),
            Err(DbError::ParseError { .. })
        ));
        assert!(matches!(
            Expr::parse("memory +", &s),
            Err(DbError::ParseError { .. })
        ));
        assert!(matches!(
            Expr::parse("(memory", &s),
            Err(DbError::ParseError { .. })
        ));
        assert!(matches!(
            Expr::parse("memory storage", &s),
            Err(DbError::ParseError { .. })
        ));
        assert!(matches!(
            Expr::parse("disk + 1", &s),
            Err(DbError::UnknownAttribute(_))
        ));
        assert!(matches!(
            Expr::parse("1..2", &s),
            Err(DbError::ParseError { .. })
        ));
    }

    #[test]
    fn display_round_trips_through_parser() {
        let s = schema();
        let e = Expr::parse("cpu + memory * (storage - 2) / bandwidth", &s).unwrap();
        let shown = e.to_string();
        let reparsed = Expr::parse(&shown, &s).unwrap();
        assert_eq!(reparsed.eval(&tuple()).unwrap(), e.eval(&tuple()).unwrap());
    }

    #[test]
    fn eval_detects_narrow_tuple() {
        let s = schema();
        let e = Expr::attr(&s, "bandwidth").unwrap();
        let narrow = Tuple::single(1.0);
        assert!(matches!(
            e.eval(&narrow),
            Err(DbError::AttributeIndexOutOfRange { .. })
        ));
    }

    #[test]
    fn first_attr_works_for_single_schema() {
        let s = Schema::single("temperature");
        let e = Expr::first_attr(&s);
        assert_eq!(e.eval(&Tuple::single(72.5)).unwrap(), 72.5);
        assert_eq!(e.to_string(), "temperature");
    }
}
