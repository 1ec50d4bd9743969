//! The accepted query language, pinned as a table.
//!
//! Every row's third column was recorded from the three hand-sliced
//! scanners this front end replaced (the commit before `digest_db::parse`
//! existed): the `{:?}` of the AST they produced, or `ERR`. `digest_db::parse`
//! must give the same answer, except on the `CHANGED` rows — each a
//! deliberate difference, with the old answer kept beside the new one.

// Tests may panic freely; the workspace deny-lints target library code.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use digest_core::ContinuousQuery;
use digest_db::{Expr, Predicate, Schema};

fn schema() -> Schema {
    Schema::new([
        "temperature",
        "memory",
        "storage",
        "cpu",
        "load",
        "station_ok",
        "fromage",
        "whereabouts",
        "android",
        "distinctness",
    ])
}

/// `{:?}` of what `text` parses to as a statement, an expression or a
/// predicate — or `ERR`.
fn parse(kind: &str, text: &str) -> String {
    fn show<T: std::fmt::Debug, E>(result: Result<T, E>) -> String {
        result.map_or_else(|_| "ERR".to_owned(), |ast| format!("{ast:?}"))
    }
    let schema = schema();
    match kind {
        "stmt" => show(ContinuousQuery::parse(text, &schema)),
        "expr" => show(Expr::parse(text, &schema)),
        "pred" => show(Predicate::parse(text, &schema)),
        other => panic!("unknown row kind {other}"),
    }
}

/// (kind, text, what the replaced scanners answered).
#[rustfmt::skip]
const RECORDED: &[(&str, &str, &str)] = &[
    // statement forms in README / DESIGN §17 / examples / module docs
    ("stmt", "SELECT AVG(temperature) FROM R WITH delta=4, epsilon=1, p=0.95", "ContinuousQuery { op: Avg, expr: Attr { index: 0, name: \"temperature\" }, predicate: True, precision: Precision { delta: 4.0, epsilon: 1.0, confidence: 0.95 } }"),
    ("stmt", "SELECT MEDIAN(temperature) FROM R WITH delta=4, epsilon=1.5, p=0.9", "ContinuousQuery { op: Percentile { q_permille: 500 }, expr: Attr { index: 0, name: \"temperature\" }, predicate: True, precision: Precision { delta: 4.0, epsilon: 1.5, confidence: 0.9 } }"),
    ("stmt", "SELECT AVG(temperature) FROM R WHERE temperature > 60 WITH delta=4, epsilon=3, p=0.9", "ContinuousQuery { op: Avg, expr: Attr { index: 0, name: \"temperature\" }, predicate: Cmp { op: Gt, lhs: Attr { index: 0, name: \"temperature\" }, rhs: Const(60.0) }, precision: Precision { delta: 4.0, epsilon: 3.0, confidence: 0.9 } }"),
    ("stmt", "SELECT AVG(temperature) FROM R WHERE station_ok = 1 WITH delta = 2, epsilon = 1, confidence = 0.95", "ContinuousQuery { op: Avg, expr: Attr { index: 0, name: \"temperature\" }, predicate: Cmp { op: Eq, lhs: Attr { index: 5, name: \"station_ok\" }, rhs: Const(1.0) }, precision: Precision { delta: 2.0, epsilon: 1.0, confidence: 0.95 } }"),
    ("stmt", "SELECT AVG(temperature) FROM R WITH delta = 2, epsilon = 1, confidence = 0.95", "ContinuousQuery { op: Avg, expr: Attr { index: 0, name: \"temperature\" }, predicate: True, precision: Precision { delta: 2.0, epsilon: 1.0, confidence: 0.95 } }"),
    ("stmt", "SELECT AVG(memory) FROM R WITH delta=200, epsilon=50, p=0.9", "ContinuousQuery { op: Avg, expr: Attr { index: 1, name: \"memory\" }, predicate: True, precision: Precision { delta: 200.0, epsilon: 50.0, confidence: 0.9 } }"),
    ("stmt", "SELECT AVG(load)   FROM fleet WITH delta=0.08, epsilon=0.04, p=0.95", "ContinuousQuery { op: Avg, expr: Attr { index: 4, name: \"load\" }, predicate: True, precision: Precision { delta: 0.08, epsilon: 0.04, confidence: 0.95 } }"),
    ("stmt", "SELECT AVG(memory) FROM fleet WHERE load >= 0.75 WITH delta=6, epsilon=4, p=0.9", "ContinuousQuery { op: Avg, expr: Attr { index: 1, name: \"memory\" }, predicate: Cmp { op: Ge, lhs: Attr { index: 4, name: \"load\" }, rhs: Const(0.75) }, precision: Precision { delta: 6.0, epsilon: 4.0, confidence: 0.9 } }"),
    ("stmt", "SELECT COUNT(*)    FROM fleet WHERE memory < 8   WITH delta=40, epsilon=30, p=0.9", "ContinuousQuery { op: Count, expr: Attr { index: 0, name: \"temperature\" }, predicate: Cmp { op: Lt, lhs: Attr { index: 1, name: \"memory\" }, rhs: Const(8.0) }, precision: Precision { delta: 40.0, epsilon: 30.0, confidence: 0.9 } }"),
    ("stmt", "select sum(memory + storage) from resources where memory > 4 and storage >= 10 with delta=1000 epsilon=500 p=0.9", "ContinuousQuery { op: Sum, expr: Binary { op: Add, lhs: Attr { index: 1, name: \"memory\" }, rhs: Attr { index: 2, name: \"storage\" } }, predicate: And(Cmp { op: Gt, lhs: Attr { index: 1, name: \"memory\" }, rhs: Const(4.0) }, Cmp { op: Ge, lhs: Attr { index: 2, name: \"storage\" }, rhs: Const(10.0) }), precision: Precision { delta: 1000.0, epsilon: 500.0, confidence: 0.9 } }"),
    ("stmt", "SELECT PERCENTILE(temperature, 0.9) FROM R WITH delta=2, epsilon=1, p=0.95", "ContinuousQuery { op: Percentile { q_permille: 900 }, expr: Attr { index: 0, name: \"temperature\" }, predicate: True, precision: Precision { delta: 2.0, epsilon: 1.0, confidence: 0.95 } }"),
    ("stmt", "SELECT PERCENTILE(temperature, 0.5) FROM R WITH delta=2, epsilon=1, confidence=0.95", "ContinuousQuery { op: Percentile { q_permille: 500 }, expr: Attr { index: 0, name: \"temperature\" }, predicate: True, precision: Precision { delta: 2.0, epsilon: 1.0, confidence: 0.95 } }"),
    ("stmt", "SELECT COUNT(DISTINCT temperature) FROM R WITH delta=2, epsilon=0.1, p=0.95", "ContinuousQuery { op: Distinct, expr: Attr { index: 0, name: \"temperature\" }, predicate: True, precision: Precision { delta: 2.0, epsilon: 0.1, confidence: 0.95 } }"),
    ("stmt", "select topk(memory + storage, 4) from R with delta=0.05 epsilon=0.05 p=0.9", "ContinuousQuery { op: TopK { k: 4 }, expr: Binary { op: Add, lhs: Attr { index: 1, name: \"memory\" }, rhs: Attr { index: 2, name: \"storage\" } }, predicate: True, precision: Precision { delta: 0.05, epsilon: 0.05, confidence: 0.9 } }"),
    ("stmt", "SELECT TOPK(temperature, 3) FROM R WHERE memory > 1 WITH delta=1, epsilon=0.1, p=0.9", "ContinuousQuery { op: TopK { k: 3 }, expr: Attr { index: 0, name: \"temperature\" }, predicate: Cmp { op: Gt, lhs: Attr { index: 1, name: \"memory\" }, rhs: Const(1.0) }, precision: Precision { delta: 1.0, epsilon: 0.1, confidence: 0.9 } }"),
    ("stmt", "SELECT SUM(memory + storage) FROM R WITH delta=1, epsilon=1, p=0.5", "ContinuousQuery { op: Sum, expr: Binary { op: Add, lhs: Attr { index: 1, name: \"memory\" }, rhs: Attr { index: 2, name: \"storage\" } }, predicate: True, precision: Precision { delta: 1.0, epsilon: 1.0, confidence: 0.5 } }"),
    // COUNT forms
    ("stmt", "SELECT COUNT(*) FROM R WITH delta=1, epsilon=1, p=0.5", "ContinuousQuery { op: Count, expr: Attr { index: 0, name: \"temperature\" }, predicate: True, precision: Precision { delta: 1.0, epsilon: 1.0, confidence: 0.5 } }"),
    ("stmt", "SELECT COUNT( * ) FROM R WITH delta=1, epsilon=1, p=0.5", "ContinuousQuery { op: Count, expr: Attr { index: 0, name: \"temperature\" }, predicate: True, precision: Precision { delta: 1.0, epsilon: 1.0, confidence: 0.5 } }"),
    ("stmt", "SELECT COUNT(memory) FROM R WITH delta=1, epsilon=1, p=0.5", "ContinuousQuery { op: Count, expr: Attr { index: 1, name: \"memory\" }, predicate: True, precision: Precision { delta: 1.0, epsilon: 1.0, confidence: 0.5 } }"),
    ("stmt", "SELECT COUNT(distinct memory) FROM R WITH delta=1, epsilon=1, p=0.5", "ContinuousQuery { op: Distinct, expr: Attr { index: 1, name: \"memory\" }, predicate: True, precision: Precision { delta: 1.0, epsilon: 1.0, confidence: 0.5 } }"),
    ("stmt", "SELECT COUNT(DISTINCT memory + 1) FROM R WITH delta=1, epsilon=1, p=0.5", "ContinuousQuery { op: Distinct, expr: Binary { op: Add, lhs: Attr { index: 1, name: \"memory\" }, rhs: Const(1.0) }, predicate: True, precision: Precision { delta: 1.0, epsilon: 1.0, confidence: 0.5 } }"),
    ("stmt", "SELECT COUNT(distinctness) FROM R WITH delta=1, epsilon=1, p=0.5", "ContinuousQuery { op: Count, expr: Attr { index: 9, name: \"distinctness\" }, predicate: True, precision: Precision { delta: 1.0, epsilon: 1.0, confidence: 0.5 } }"),
    ("stmt", "SELECT COUNT(DISTINCT distinctness) FROM R WITH delta=1, epsilon=1, p=0.5", "ContinuousQuery { op: Distinct, expr: Attr { index: 9, name: \"distinctness\" }, predicate: True, precision: Precision { delta: 1.0, epsilon: 1.0, confidence: 0.5 } }"),
    ("stmt", "SELECT COUNT(DISTINCT) FROM R WITH delta=1, epsilon=1, p=0.5", "ERR"),
    ("stmt", "SELECT COUNT(DISTINCT *) FROM R WITH delta=1, epsilon=1, p=0.5", "ERR"),
    ("stmt", "SELECT AVG(*) FROM R WITH delta=1, epsilon=1, p=0.5", "ERR"),
    ("stmt", "SELECT AVG(DISTINCT memory) FROM R WITH delta=1, epsilon=1, p=0.5", "ERR"),
    // two-argument forms
    ("stmt", "SELECT PERCENTILE(temperature) FROM R WITH delta=1, epsilon=1, p=0.5", "ERR"),
    ("stmt", "SELECT PERCENTILE(temperature, 1.5) FROM R WITH delta=1, epsilon=1, p=0.5", "ERR"),
    ("stmt", "SELECT PERCENTILE(temperature, 0) FROM R WITH delta=1, epsilon=1, p=0.5", "ERR"),
    ("stmt", "SELECT PERCENTILE(temperature, .25) FROM R WITH delta=1, epsilon=1, p=0.5", "ContinuousQuery { op: Percentile { q_permille: 250 }, expr: Attr { index: 0, name: \"temperature\" }, predicate: True, precision: Precision { delta: 1.0, epsilon: 1.0, confidence: 0.5 } }"),
    ("stmt", "SELECT PERCENTILE(temperature, 2.5e-1) FROM R WITH delta=1, epsilon=1, p=0.5", "ContinuousQuery { op: Percentile { q_permille: 250 }, expr: Attr { index: 0, name: \"temperature\" }, predicate: True, precision: Precision { delta: 1.0, epsilon: 1.0, confidence: 0.5 } }"),
    ("stmt", "SELECT PERCENTILE(temperature,+.5) FROM R WITH delta=1, epsilon=1, p=0.5", "ContinuousQuery { op: Percentile { q_permille: 500 }, expr: Attr { index: 0, name: \"temperature\" }, predicate: True, precision: Precision { delta: 1.0, epsilon: 1.0, confidence: 0.5 } }"),
    ("stmt", "SELECT PERCENTILE(temperature, + .5) FROM R WITH delta=1, epsilon=1, p=0.5", "ERR"),
    ("stmt", "SELECT PERCENTILE(temperature, -0.5) FROM R WITH delta=1, epsilon=1, p=0.5", "ERR"),
    ("stmt", "SELECT PERCENTILE((temperature + memory) / 2, 0.999) FROM R WITH delta=1, epsilon=1, p=0.5", "ContinuousQuery { op: Percentile { q_permille: 999 }, expr: Binary { op: Div, lhs: Binary { op: Add, lhs: Attr { index: 0, name: \"temperature\" }, rhs: Attr { index: 1, name: \"memory\" } }, rhs: Const(2.0) }, predicate: True, precision: Precision { delta: 1.0, epsilon: 1.0, confidence: 0.5 } }"),
    ("stmt", "SELECT PERCENTILE(temperature, memory, 0.5) FROM R WITH delta=1, epsilon=1, p=0.5", "ERR"),
    ("stmt", "SELECT MEDIAN(temperature, 0.5) FROM R WITH delta=1, epsilon=1, p=0.5", "ERR"),
    ("stmt", "SELECT TOPK(temperature) FROM R WITH delta=1, epsilon=1, p=0.5", "ERR"),
    ("stmt", "SELECT TOPK(temperature, 0) FROM R WITH delta=1, epsilon=1, p=0.5", "ERR"),
    ("stmt", "SELECT TOPK(temperature, 64) FROM R WITH delta=1, epsilon=1, p=0.5", "ContinuousQuery { op: TopK { k: 64 }, expr: Attr { index: 0, name: \"temperature\" }, predicate: True, precision: Precision { delta: 1.0, epsilon: 1.0, confidence: 0.5 } }"),
    ("stmt", "SELECT TOPK(temperature, 65) FROM R WITH delta=1, epsilon=1, p=0.5", "ERR"),
    ("stmt", "SELECT TOPK(temperature, 2.5) FROM R WITH delta=1, epsilon=1, p=0.5", "ERR"),
    ("stmt", "SELECT TOPK(temperature, +4) FROM R WITH delta=1, epsilon=1, p=0.5", "ContinuousQuery { op: TopK { k: 4 }, expr: Attr { index: 0, name: \"temperature\" }, predicate: True, precision: Precision { delta: 1.0, epsilon: 1.0, confidence: 0.5 } }"),
    ("stmt", "SELECT TOPK(temperature, -4) FROM R WITH delta=1, epsilon=1, p=0.5", "ERR"),
    ("stmt", "SELECT TOPK(temperature, 4e0) FROM R WITH delta=1, epsilon=1, p=0.5", "ERR"),
    // keywords: case, spacing, prefixes
    ("stmt", "  SeLeCt   CoUnT( * )   FrOm   r   WiTh   DELTA=3   EPSILON = 2   P=0.8  ", "ContinuousQuery { op: Count, expr: Attr { index: 0, name: \"temperature\" }, predicate: True, precision: Precision { delta: 3.0, epsilon: 2.0, confidence: 0.8 } }"),
    ("stmt", "SELECT AVG (temperature) FROM R WITH delta=1, epsilon=1, p=0.5", "ContinuousQuery { op: Avg, expr: Attr { index: 0, name: \"temperature\" }, predicate: True, precision: Precision { delta: 1.0, epsilon: 1.0, confidence: 0.5 } }"),
    ("stmt", "select avg(temperature)from R with delta=1, epsilon=1, p=0.5", "ContinuousQuery { op: Avg, expr: Attr { index: 0, name: \"temperature\" }, predicate: True, precision: Precision { delta: 1.0, epsilon: 1.0, confidence: 0.5 } }"),
    ("stmt", "SELECT AVG(fromage) FROM R WHERE whereabouts > 0 WITH delta=1, epsilon=1, p=0.5", "ContinuousQuery { op: Avg, expr: Attr { index: 6, name: \"fromage\" }, predicate: Cmp { op: Gt, lhs: Attr { index: 7, name: \"whereabouts\" }, rhs: Const(0.0) }, precision: Precision { delta: 1.0, epsilon: 1.0, confidence: 0.5 } }"),
    ("stmt", "SELECT AVG(android) FROM R WHERE android > 0 AND NOT fromage < 1 WITH delta=1, epsilon=1, p=0.5", "ContinuousQuery { op: Avg, expr: Attr { index: 8, name: \"android\" }, predicate: And(Cmp { op: Gt, lhs: Attr { index: 8, name: \"android\" }, rhs: Const(0.0) }, Not(Cmp { op: Lt, lhs: Attr { index: 6, name: \"fromage\" }, rhs: Const(1.0) })), precision: Precision { delta: 1.0, epsilon: 1.0, confidence: 0.5 } }"),
    ("stmt", "SELECT AVG(temperature) FROMR WITH delta=1, epsilon=1, p=0.5", "ERR"),
    ("stmt", "SELECT AVG(temperature) FROM RWITH delta=1, epsilon=1, p=0.5", "ERR"),
    ("stmt", "SELECT AVG(temperature) FROM R WITHdelta=1, epsilon=1, p=0.5", "ERR"),
    // relation names
    ("stmt", "SELECT AVG(temperature) FROM é WITH delta=1, epsilon=1, p=0.5", "ContinuousQuery { op: Avg, expr: Attr { index: 0, name: \"temperature\" }, predicate: True, precision: Precision { delta: 1.0, epsilon: 1.0, confidence: 0.5 } }"),
    ("stmt", "SELECT AVG(temperature) FROM where WITH delta=1, epsilon=1, p=0.5", "ContinuousQuery { op: Avg, expr: Attr { index: 0, name: \"temperature\" }, predicate: True, precision: Precision { delta: 1.0, epsilon: 1.0, confidence: 0.5 } }"),
    ("stmt", "SELECT AVG(temperature) FROM r_2 WITH delta=1, epsilon=1, p=0.5", "ContinuousQuery { op: Avg, expr: Attr { index: 0, name: \"temperature\" }, predicate: True, precision: Precision { delta: 1.0, epsilon: 1.0, confidence: 0.5 } }"),
    ("stmt", "SELECT AVG(temperature) FROM (R) WITH delta=1, epsilon=1, p=0.5", "ERR"),
    ("stmt", "SELECT AVG(temperature) FROM WITH delta=1, epsilon=1, p=0.5", "ERR"),
    ("stmt", "SELECT AVG(temperature) FROM R S WITH delta=1, epsilon=1, p=0.5", "ERR"),
    // WITH clause: keys, separators, values
    ("stmt", "SELECT AVG(temperature) FROM R WITH δ=2, ε=1, p=0.95", "ContinuousQuery { op: Avg, expr: Attr { index: 0, name: \"temperature\" }, predicate: True, precision: Precision { delta: 2.0, epsilon: 1.0, confidence: 0.95 } }"),
    ("stmt", "SELECT AVG(temperature) FROM R WITH eps=1, delta=2, confidence=0.95", "ContinuousQuery { op: Avg, expr: Attr { index: 0, name: \"temperature\" }, predicate: True, precision: Precision { delta: 2.0, epsilon: 1.0, confidence: 0.95 } }"),
    ("stmt", "SELECT AVG(temperature) FROM R WITH delta=2 epsilon=1 p=0.95", "ContinuousQuery { op: Avg, expr: Attr { index: 0, name: \"temperature\" }, predicate: True, precision: Precision { delta: 2.0, epsilon: 1.0, confidence: 0.95 } }"),
    ("stmt", "SELECT AVG(temperature) FROM R WITH delta=2.5,, epsilon=1, p=0.95", "ContinuousQuery { op: Avg, expr: Attr { index: 0, name: \"temperature\" }, predicate: True, precision: Precision { delta: 2.5, epsilon: 1.0, confidence: 0.95 } }"),
    ("stmt", "SELECT AVG(temperature) FROM R WITH , delta=2, epsilon=1, p=0.95,", "ContinuousQuery { op: Avg, expr: Attr { index: 0, name: \"temperature\" }, predicate: True, precision: Precision { delta: 2.0, epsilon: 1.0, confidence: 0.95 } }"),
    ("stmt", "SELECT AVG(temperature) FROM R WITH delta=2, delta=3, epsilon=1, p=0.95", "ContinuousQuery { op: Avg, expr: Attr { index: 0, name: \"temperature\" }, predicate: True, precision: Precision { delta: 3.0, epsilon: 1.0, confidence: 0.95 } }"),
    ("stmt", "SELECT AVG(temperature) FROM R WITH delta=+1, epsilon=1, p=0.95", "ContinuousQuery { op: Avg, expr: Attr { index: 0, name: \"temperature\" }, predicate: True, precision: Precision { delta: 1.0, epsilon: 1.0, confidence: 0.95 } }"),
    ("stmt", "SELECT AVG(temperature) FROM R WITH delta=+ 1, epsilon=1, p=0.95", "ERR"),
    ("stmt", "SELECT AVG(temperature) FROM R WITH delta=-1, epsilon=1, p=0.95", "ERR"),
    ("stmt", "SELECT AVG(temperature) FROM R WITH delta=2e1, epsilon=.5, p=9.5e-1", "ContinuousQuery { op: Avg, expr: Attr { index: 0, name: \"temperature\" }, predicate: True, precision: Precision { delta: 20.0, epsilon: 0.5, confidence: 0.95 } }"),
    ("stmt", "SELECT AVG(temperature) FROM R WITH delta=1p=0.95 epsilon=1", "ContinuousQuery { op: Avg, expr: Attr { index: 0, name: \"temperature\" }, predicate: True, precision: Precision { delta: 1.0, epsilon: 1.0, confidence: 0.95 } }"),
    ("stmt", "SELECT AVG(temperature) FROM R WITH delta=one, epsilon=1, p=0.5", "ERR"),
    ("stmt", "SELECT AVG(temperature) FROM R WITH delta=1, epsilon=1", "ERR"),
    ("stmt", "SELECT AVG(temperature) FROM R WITH delta=1, epsilon=1, p=0.5, bogus=2", "ERR"),
    ("stmt", "SELECT AVG(temperature) FROM R WITH delta=0, epsilon=1, p=0.5", "ERR"),
    ("stmt", "SELECT AVG(temperature) FROM R WITH delta=1, epsilon=1, p=1", "ERR"),
    ("stmt", "SELECT AVG(temperature) FROM R WITH delta=1 é=2", "ERR"),
    ("stmt", "SELECT AVG(temperature) FROM R WITH delta=1, epsilon=1, p=0.5 trailing", "ERR"),
    ("stmt", "SELECT AVG(temperature) FROM R WITH", "ERR"),
    ("stmt", "SELECT AVG(temperature) FROM R", "ERR"),
    // clause structure
    ("stmt", "", "ERR"),
    ("stmt", "AVG(temperature) FROM R WITH delta=1, epsilon=1, p=0.5", "ERR"),
    ("stmt", "SELECT MODE(temperature) FROM R WITH delta=1, epsilon=1, p=0.5", "ERR"),
    ("stmt", "SELECT AVG temperature FROM R WITH delta=1, epsilon=1, p=0.5", "ERR"),
    ("stmt", "SELECT AVG(temperature FROM R WITH delta=1, epsilon=1, p=0.5", "ERR"),
    ("stmt", "SELECT AVG(temperature)) FROM R WITH delta=1, epsilon=1, p=0.5", "ERR"),
    ("stmt", "SELECT AVG(temperature) WITH delta=1, epsilon=1, p=0.5", "ERR"),
    ("stmt", "SELECT AVG(temperature) FROM R WHERE WITH delta=1, epsilon=1, p=0.5", "ERR"),
    ("stmt", "SELECT AVG(temperature) FROM R WHERE memory > 1", "ERR"),
    ("stmt", "SELECT AVG(temperature) FROM R WITH delta=1, epsilon=1, p=0.5 WHERE memory > 1", "ERR"),
    ("stmt", "SELECT AVG(temperature) FROM R junk WITH delta=1, epsilon=1, p=0.5", "ERR"),
    ("stmt", "SELECT AVG(unknown_attr) FROM R WITH delta=1, epsilon=1, p=0.5", "ERR"),
    ("stmt", "SELECT AVG(temperature > 1) FROM R WITH delta=1, epsilon=1, p=0.5", "ERR"),
    ("stmt", "SELECT AVG(temperature) FROM R WHERE memory WITH delta=1, epsilon=1, p=0.5", "ERR"),
    ("stmt", "SELECT AVG(temperature) FROM R WHERE (memory > 1 or cpu < 2) and not load = 0 WITH delta=1, epsilon=1, p=0.5", "ContinuousQuery { op: Avg, expr: Attr { index: 0, name: \"temperature\" }, predicate: And(Or(Cmp { op: Gt, lhs: Attr { index: 1, name: \"memory\" }, rhs: Const(1.0) }, Cmp { op: Lt, lhs: Attr { index: 3, name: \"cpu\" }, rhs: Const(2.0) }), Not(Cmp { op: Eq, lhs: Attr { index: 4, name: \"load\" }, rhs: Const(0.0) })), precision: Precision { delta: 1.0, epsilon: 1.0, confidence: 0.5 } }"),
    // expressions: the number forms, precedence, unary minus, parentheses
    ("expr", "memory + storage", "Binary { op: Add, lhs: Attr { index: 1, name: \"memory\" }, rhs: Attr { index: 2, name: \"storage\" } }"),
    ("expr", "cpu + memory * 2", "Binary { op: Add, lhs: Attr { index: 3, name: \"cpu\" }, rhs: Binary { op: Mul, lhs: Attr { index: 1, name: \"memory\" }, rhs: Const(2.0) } }"),
    ("expr", "(cpu + memory) * 2", "Binary { op: Mul, lhs: Binary { op: Add, lhs: Attr { index: 3, name: \"cpu\" }, rhs: Attr { index: 1, name: \"memory\" } }, rhs: Const(2.0) }"),
    ("expr", "-memory / 4", "Binary { op: Div, lhs: Neg(Attr { index: 1, name: \"memory\" }), rhs: Const(4.0) }"),
    ("expr", "storage / (cpu - 2)", "Binary { op: Div, lhs: Attr { index: 2, name: \"storage\" }, rhs: Binary { op: Sub, lhs: Attr { index: 3, name: \"cpu\" }, rhs: Const(2.0) } }"),
    ("expr", "cpu - memory - storage", "Binary { op: Sub, lhs: Binary { op: Sub, lhs: Attr { index: 3, name: \"cpu\" }, rhs: Attr { index: 1, name: \"memory\" } }, rhs: Attr { index: 2, name: \"storage\" } }"),
    ("expr", "cpu / memory / storage", "Binary { op: Div, lhs: Binary { op: Div, lhs: Attr { index: 3, name: \"cpu\" }, rhs: Attr { index: 1, name: \"memory\" } }, rhs: Attr { index: 2, name: \"storage\" } }"),
    ("expr", "--cpu", "Neg(Neg(Attr { index: 3, name: \"cpu\" }))"),
    ("expr", "-(cpu)", "Neg(Attr { index: 3, name: \"cpu\" })"),
    ("expr", "+cpu", "ERR"),
    ("expr", "((cpu))", "Attr { index: 3, name: \"cpu\" }"),
    ("expr", "1.5", "Const(1.5)"),
    ("expr", ".5", "Const(0.5)"),
    ("expr", "5.", "Const(5.0)"),
    ("expr", "2e3", "Const(2000.0)"),
    ("expr", "2E3", "Const(2000.0)"),
    ("expr", "1.5e-2", "Const(0.015)"),
    ("expr", "1e+2", "Const(100.0)"),
    ("expr", "-2e3", "Neg(Const(2000.0))"),
    ("expr", "1..2", "ERR"),
    ("expr", "1e", "ERR"),
    ("expr", "2e3x", "ERR"),
    ("expr", "1.5.2", "ERR"),
    ("expr", ".", "ERR"),
    ("expr", "e3", "ERR"),
    ("expr", "1 2", "ERR"),
    ("expr", "2cpu", "ERR"),
    ("expr", "cpu+1", "Binary { op: Add, lhs: Attr { index: 3, name: \"cpu\" }, rhs: Const(1.0) }"),
    ("expr", "cpu + memory * (storage - 2) / load", "Binary { op: Add, lhs: Attr { index: 3, name: \"cpu\" }, rhs: Binary { op: Div, lhs: Binary { op: Mul, lhs: Attr { index: 1, name: \"memory\" }, rhs: Binary { op: Sub, lhs: Attr { index: 2, name: \"storage\" }, rhs: Const(2.0) } }, rhs: Attr { index: 4, name: \"load\" } } }"),
    ("expr", "", "ERR"),
    ("expr", "memory +", "ERR"),
    ("expr", "(memory", "ERR"),
    ("expr", "memory)", "ERR"),
    ("expr", "memory storage", "ERR"),
    ("expr", "disk + 1", "ERR"),
    ("expr", "cpu > 1", "ERR"),
    ("expr", "fromage + android + distinctness", "Binary { op: Add, lhs: Binary { op: Add, lhs: Attr { index: 6, name: \"fromage\" }, rhs: Attr { index: 8, name: \"android\" } }, rhs: Attr { index: 9, name: \"distinctness\" } }"),
    ("expr", "true", "ERR"),
    ("expr", "cpu and memory", "ERR"),
    ("expr", "é", "ERR"),
    ("expr", "cpu + €", "ERR"),
    // predicates
    ("pred", "cpu < 3", "Cmp { op: Lt, lhs: Attr { index: 3, name: \"cpu\" }, rhs: Const(3.0) }"),
    ("pred", "cpu <= 2", "Cmp { op: Le, lhs: Attr { index: 3, name: \"cpu\" }, rhs: Const(2.0) }"),
    ("pred", "cpu >= 2.5", "Cmp { op: Ge, lhs: Attr { index: 3, name: \"cpu\" }, rhs: Const(2.5) }"),
    ("pred", "memory = 8", "Cmp { op: Eq, lhs: Attr { index: 1, name: \"memory\" }, rhs: Const(8.0) }"),
    ("pred", "memory != 8", "Cmp { op: Ne, lhs: Attr { index: 1, name: \"memory\" }, rhs: Const(8.0) }"),
    ("pred", "memory <> 9", "Cmp { op: Ne, lhs: Attr { index: 1, name: \"memory\" }, rhs: Const(9.0) }"),
    ("pred", "memory == 8", "ERR"),
    ("pred", "memory < = 8", "ERR"),
    ("pred", "memory =< 8", "ERR"),
    ("pred", "memory ! 8", "ERR"),
    ("pred", "cpu < -1", "Cmp { op: Lt, lhs: Attr { index: 3, name: \"cpu\" }, rhs: Neg(Const(1.0)) }"),
    ("pred", "cpu<-1", "Cmp { op: Lt, lhs: Attr { index: 3, name: \"cpu\" }, rhs: Neg(Const(1.0)) }"),
    ("pred", "cpu < 3 and memory > 4", "And(Cmp { op: Lt, lhs: Attr { index: 3, name: \"cpu\" }, rhs: Const(3.0) }, Cmp { op: Gt, lhs: Attr { index: 1, name: \"memory\" }, rhs: Const(4.0) })"),
    ("pred", "cpu > 3 or storage >= 100", "Or(Cmp { op: Gt, lhs: Attr { index: 3, name: \"cpu\" }, rhs: Const(3.0) }, Cmp { op: Ge, lhs: Attr { index: 2, name: \"storage\" }, rhs: Const(100.0) })"),
    ("pred", "not cpu > 3", "Not(Cmp { op: Gt, lhs: Attr { index: 3, name: \"cpu\" }, rhs: Const(3.0) })"),
    ("pred", "not not cpu > 3", "Not(Not(Cmp { op: Gt, lhs: Attr { index: 3, name: \"cpu\" }, rhs: Const(3.0) }))"),
    ("pred", "not (cpu < 3 and storage = 100)", "Not(And(Cmp { op: Lt, lhs: Attr { index: 3, name: \"cpu\" }, rhs: Const(3.0) }, Cmp { op: Eq, lhs: Attr { index: 2, name: \"storage\" }, rhs: Const(100.0) }))"),
    ("pred", "cpu < 1 or cpu > 1 and memory = 8", "Or(Cmp { op: Lt, lhs: Attr { index: 3, name: \"cpu\" }, rhs: Const(1.0) }, And(Cmp { op: Gt, lhs: Attr { index: 3, name: \"cpu\" }, rhs: Const(1.0) }, Cmp { op: Eq, lhs: Attr { index: 1, name: \"memory\" }, rhs: Const(8.0) }))"),
    ("pred", "cpu < 1 OR cpu > 1 AND NOT memory = 8", "Or(Cmp { op: Lt, lhs: Attr { index: 3, name: \"cpu\" }, rhs: Const(1.0) }, And(Cmp { op: Gt, lhs: Attr { index: 3, name: \"cpu\" }, rhs: Const(1.0) }, Not(Cmp { op: Eq, lhs: Attr { index: 1, name: \"memory\" }, rhs: Const(8.0) })))"),
    ("pred", "(cpu < 1 or cpu > 1) and memory = 8", "And(Or(Cmp { op: Lt, lhs: Attr { index: 3, name: \"cpu\" }, rhs: Const(1.0) }, Cmp { op: Gt, lhs: Attr { index: 3, name: \"cpu\" }, rhs: Const(1.0) }), Cmp { op: Eq, lhs: Attr { index: 1, name: \"memory\" }, rhs: Const(8.0) })"),
    ("pred", "memory + storage > 100", "Cmp { op: Gt, lhs: Binary { op: Add, lhs: Attr { index: 1, name: \"memory\" }, rhs: Attr { index: 2, name: \"storage\" } }, rhs: Const(100.0) }"),
    ("pred", "(memory + storage) / 2 <= 54", "Cmp { op: Le, lhs: Binary { op: Div, lhs: Binary { op: Add, lhs: Attr { index: 1, name: \"memory\" }, rhs: Attr { index: 2, name: \"storage\" } }, rhs: Const(2.0) }, rhs: Const(54.0) }"),
    ("pred", "((memory + storage)) / 2 <= (54)", "Cmp { op: Le, lhs: Binary { op: Div, lhs: Binary { op: Add, lhs: Attr { index: 1, name: \"memory\" }, rhs: Attr { index: 2, name: \"storage\" } }, rhs: Const(2.0) }, rhs: Const(54.0) }"),
    ("pred", "(memory) > 1", "Cmp { op: Gt, lhs: Attr { index: 1, name: \"memory\" }, rhs: Const(1.0) }"),
    ("pred", "((cpu > 1))", "Cmp { op: Gt, lhs: Attr { index: 3, name: \"cpu\" }, rhs: Const(1.0) }"),
    ("pred", "cpu * cpu = 4", "Cmp { op: Eq, lhs: Binary { op: Mul, lhs: Attr { index: 3, name: \"cpu\" }, rhs: Attr { index: 3, name: \"cpu\" } }, rhs: Const(4.0) }"),
    ("pred", "3 > 2", "Cmp { op: Gt, lhs: Const(3.0), rhs: Const(2.0) }"),
    ("pred", "true", "True"),
    ("pred", "TRUE", "True"),
    ("pred", "false", "Not(True)"),
    ("pred", "(true)", "True"),
    ("pred", "not false", "Not(Not(True))"),
    ("pred", "true and cpu > 1", "And(True, Cmp { op: Gt, lhs: Attr { index: 3, name: \"cpu\" }, rhs: Const(1.0) })"),
    ("pred", "android > 0 AND fromage < 5", "And(Cmp { op: Gt, lhs: Attr { index: 8, name: \"android\" }, rhs: Const(0.0) }, Cmp { op: Lt, lhs: Attr { index: 6, name: \"fromage\" }, rhs: Const(5.0) })"),
    ("pred", "NOT android = 3", "Not(Cmp { op: Eq, lhs: Attr { index: 8, name: \"android\" }, rhs: Const(3.0) })"),
    ("pred", "cpu<1and memory>2", "And(Cmp { op: Lt, lhs: Attr { index: 3, name: \"cpu\" }, rhs: Const(1.0) }, Cmp { op: Gt, lhs: Attr { index: 1, name: \"memory\" }, rhs: Const(2.0) })"),
    ("pred", "cpu < 1or memory > 2", "Or(Cmp { op: Lt, lhs: Attr { index: 3, name: \"cpu\" }, rhs: Const(1.0) }, Cmp { op: Gt, lhs: Attr { index: 1, name: \"memory\" }, rhs: Const(2.0) })"),
    ("pred", "cpu < 3 and", "ERR"),
    ("pred", "cpu", "ERR"),
    ("pred", "cpu <", "ERR"),
    ("pred", "cpu < 3 extra", "ERR"),
    ("pred", "disk < 3", "ERR"),
    ("pred", "(cpu < 3", "ERR"),
    ("pred", "cpu < 3)", "ERR"),
    ("pred", "cpu < memory < storage", "ERR"),
    ("pred", "(cpu < 3) = 1", "ERR"),
    ("pred", "cpu < true", "ERR"),
    ("pred", "not", "ERR"),
    ("pred", "and", "ERR"),
    ("pred", "", "ERR"),
    ("pred", "not (cpu < 3 and memory > 4) or storage = 0", "Or(Not(And(Cmp { op: Lt, lhs: Attr { index: 3, name: \"cpu\" }, rhs: Const(3.0) }, Cmp { op: Gt, lhs: Attr { index: 1, name: \"memory\" }, rhs: Const(4.0) })), Cmp { op: Eq, lhs: Attr { index: 2, name: \"storage\" }, rhs: Const(0.0) })"),
];

/// (kind, text, what the replaced scanners answered, what `digest_db::parse`
/// answers) — the deliberate differences, each under its reason.
#[rustfmt::skip]
const CHANGED: &[(&str, &str, &str, &str)] = &[
    // DISTINCT is a keyword wherever it follows `COUNT(`, not only before whitespace
    ("stmt", "SELECT COUNT(DISTINCT(memory)) FROM R WITH delta=1, epsilon=1, p=0.5", "ERR", "ContinuousQuery { op: Distinct, expr: Attr { index: 1, name: \"memory\" }, predicate: True, precision: Precision { delta: 1.0, epsilon: 1.0, confidence: 0.5 } }"),
    // SELECT is a word of its own
    ("stmt", "SELECTAVG(temperature) FROM R WITH delta=1, epsilon=1, p=0.5", "ContinuousQuery { op: Avg, expr: Attr { index: 0, name: \"temperature\" }, predicate: True, precision: Precision { delta: 1.0, epsilon: 1.0, confidence: 0.5 } }", "ERR"),
    // a relation name is a word, so it does not start with a digit
    ("stmt", "SELECT AVG(temperature) FROM 42 WITH delta=1, epsilon=1, p=0.5", "ContinuousQuery { op: Avg, expr: Attr { index: 0, name: \"temperature\" }, predicate: True, precision: Precision { delta: 1.0, epsilon: 1.0, confidence: 0.5 } }", "ERR"),
    // tokens between the relation and WHERE were never looked at
    ("stmt", "SELECT AVG(temperature) FROM R junk WHERE memory > 1 WITH delta=1, epsilon=1, p=0.5", "ContinuousQuery { op: Avg, expr: Attr { index: 0, name: \"temperature\" }, predicate: Cmp { op: Gt, lhs: Attr { index: 1, name: \"memory\" }, rhs: Const(1.0) }, precision: Precision { delta: 1.0, epsilon: 1.0, confidence: 0.5 } }", "ERR"),
    // `1e` lexes as a number with an empty exponent, as it always did in expressions
    ("stmt", "SELECT AVG(temperature) FROM R WITH delta=1epsilon=1 p=0.95", "ContinuousQuery { op: Avg, expr: Attr { index: 0, name: \"temperature\" }, predicate: True, precision: Precision { delta: 1.0, epsilon: 1.0, confidence: 0.95 } }", "ERR"),
    // a contract value is a number token; `inf` / `nan` are words
    ("stmt", "SELECT AVG(temperature) FROM R WITH delta=inf, delta=1, epsilon=1, p=0.95", "ContinuousQuery { op: Avg, expr: Attr { index: 0, name: \"temperature\" }, predicate: True, precision: Precision { delta: 1.0, epsilon: 1.0, confidence: 0.95 } }", "ERR"),
    // the panic this front end was written to remove (exit 101 at the CLI)
    ("stmt", "SELECT AVG(temperature) FROM R WHERE €€ WITH delta=1, epsilon=1, p=0.9", "PANIC", "ERR"),
    // one definition of whitespace (`char::is_whitespace`), in expressions as between clauses
    ("expr", "cpu\u{a0}+ 1", "ERR", "Binary { op: Add, lhs: Attr { index: 3, name: \"cpu\" }, rhs: Const(1.0) }"),
    // a keyword may touch the number before it: `1and` always could, `2e3or` could not
    ("pred", "cpu < 2e3or memory > 2", "ERR", "Or(Cmp { op: Lt, lhs: Attr { index: 3, name: \"cpu\" }, rhs: Const(2000.0) }, Cmp { op: Gt, lhs: Attr { index: 1, name: \"memory\" }, rhs: Const(2.0) })"),
    // panicked: `rest[..kw.len()]` off a character boundary
    ("pred", "€€", "PANIC", "ERR"),
    // panicked likewise
    ("pred", "tr€€", "PANIC", "ERR"),
    // panicked likewise
    ("pred", "cpu>1 and €€", "PANIC", "ERR"),
];

#[test]
fn the_language_is_the_recorded_one() {
    for &(kind, text, recorded) in RECORDED {
        assert_eq!(parse(kind, text), recorded, "{kind}: {text}");
    }
}

#[test]
fn deliberate_differences_are_exactly_these() {
    for &(kind, text, before, now) in CHANGED {
        assert_ne!(before, now, "{kind}: {text}");
        assert_eq!(parse(kind, text), now, "{kind}: {text}");
    }
}
