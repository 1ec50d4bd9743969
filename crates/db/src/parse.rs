//! The one front end for query text: a tokenizer and a typed precedence
//! grammar. [`Expr::parse`], [`Predicate::parse`] and, in `digest-core`,
//! `ContinuousQuery::parse` all read their text through a [`Cursor`]. The
//! whole accepted language, written once:
//!
//! ```text
//! statement  := 'select' aggregate 'from' word [ 'where' or ] 'with' contract
//! aggregate  := word '(' ( '*' | [ 'distinct' ] or [ ',' signed ] ) ')'
//! contract   := { ',' } { word '=' signed { ',' } }
//! signed     := [ '+' | '-' ] number            -- the sign touches its number
//!
//! or         := and   { 'or'  and }             -- truth  × truth  → truth
//! and        := not   { 'and' not }             -- truth  × truth  → truth
//! not        := 'not' not | cmp                 -- truth  → truth
//! cmp        := sum [ ( '<' | '<=' | '>' | '>=' | '=' | '!=' | '<>' ) sum ]
//!                                               -- number × number → truth
//! sum        := term  { ( '+' | '-' ) term }    -- number × number → number
//! term       := unary { ( '*' | '/' ) unary }   -- number × number → number
//! unary      := '-' unary | '(' or ')' | number | 'true' | 'false' | word
//!
//! word       := ( alphabetic | '_' ) { alphanumeric | '_' }
//! number     := ( digit | '.' ) { digit | '.' | ( 'e' | 'E' ) [ '+' | '-' ] }
//!               that `f64::from_str` accepts: `.5`, `5.`, `2e3`, `1.5e-2`; not `1..2`
//! ```
//!
//! An arithmetic `expression` (paper §II) is an `or` that came out
//! number-valued, a `WHERE` predicate (§VIII) one that came out
//! truth-valued: every level yields a typed node and checks the kind of its
//! operands, so `(` opens whichever group its contents turn out to be and
//! nothing is parsed twice. Which aggregates exist, which of them take the
//! `*`, `distinct` and `, signed` forms, and which `contract` keys are
//! known is `digest-core`'s business.
//!
//! Keywords are case-insensitive, attribute names are not. Ten words are
//! reserved — never attribute names in query text: `and or not true false`,
//! and `select from where with distinct`, which only a statement gives
//! meaning to but which read the same in a bare expression. Whitespace
//! (any `char::is_whitespace`) separates tokens and is otherwise ignored;
//! a character outside this alphabet is an error before the grammar runs.
//! A text holds at most 256 tokens. It is only ever cut at boundaries the
//! tokenizer found, and every error position is a byte offset into it.

use crate::error::DbError;
use crate::expr::BinOp::{self, Add, Div, Mul, Sub};
use crate::expr::Expr;
use crate::predicate::{CmpOp, Predicate};
use crate::tuple::Schema;
use crate::Result;
use std::str::FromStr;
use Token::{Number, Symbol, Word};

/// Words that are never attribute names in query text.
const RESERVED: [&str; 10] = [
    "and", "or", "not", "true", "false", "select", "from", "where", "with", "distinct",
];

/// The grammar recurses once per `(`, unary `-` or `not`, and a chain of
/// operators nests the tree it builds once per operator; text from outside
/// the program must not pick the stack depth of the parser, `eval` or `Drop`.
const MAX_TOKENS: usize = 256;

/// One lexeme of query text, borrowing the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token<'a> {
    /// An identifier or keyword.
    Word(&'a str),
    /// A numeric literal, not yet checked by `f64::from_str`.
    Number(&'a str),
    /// `<=`, `>=`, `!=`, `<>`, or one of `+ - * / ( ) < > = ! ,`.
    Symbol(&'a str),
}

impl<'a> Token<'a> {
    fn text(self) -> &'a str {
        let (Word(text) | Number(text) | Symbol(text)) = self;
        text
    }
}

fn error(position: usize, message: impl Into<String>) -> DbError {
    let message = message.into();
    DbError::ParseError { position, message }
}

fn tokenize<'a>(text: &'a str) -> Result<Vec<(usize, Token<'a>)>> {
    let mut tokens = Vec::new();
    let mut chars = text.char_indices().peekable();
    while let Some((start, c)) = chars.next() {
        if c.is_whitespace() {
            continue;
        }
        let kind: fn(&'a str) -> Token<'a> = if c.is_alphabetic() || c == '_' {
            while chars
                .next_if(|&(_, c)| c.is_alphanumeric() || c == '_')
                .is_some()
            {}
            Word
        } else if c.is_ascii_digit() || c == '.' {
            while let Some((_, c)) =
                chars.next_if(|&(_, c)| c.is_ascii_digit() || "eE.".contains(c))
            {
                if c.eq_ignore_ascii_case(&'e') {
                    chars.next_if(|&(_, sign)| sign == '+' || sign == '-');
                }
            }
            Number
        } else {
            match c {
                '<' => chars.next_if(|&(_, next)| next == '=' || next == '>'),
                '>' | '!' => chars.next_if(|&(_, next)| next == '='),
                _ if "+-*/()=,".contains(c) => None,
                _ => return Err(error(start, format!("unexpected character `{c}`"))),
            };
            Symbol
        };
        let end = chars.peek().map_or(text.len(), |&(at, _)| at);
        tokens.push((start, kind(&text[start..end])));
        if tokens.len() > MAX_TOKENS {
            return Err(error(start, format!("more than {MAX_TOKENS} tokens")));
        }
    }
    Ok(tokens)
}

/// What a level of the grammar yields: a number-valued or a truth-valued
/// tree. Whoever needs one kind asks for it, naming its own byte offset.
enum Node {
    Number(Expr),
    Truth(Predicate),
}

impl Node {
    fn number(self, at: usize) -> Result<Expr> {
        match self {
            Node::Number(expr) => Ok(expr),
            Node::Truth(_) => Err(error(at, "expected a number, found a predicate")),
        }
    }

    fn truth(self, at: usize) -> Result<Predicate> {
        match self {
            Node::Truth(predicate) => Ok(predicate),
            Node::Number(_) => Err(error(at, "expected a predicate, found a number")),
        }
    }
}

/// What a binary operator builds, and so which kind it takes and yields.
#[derive(Clone, Copy)]
enum Join {
    Logic(fn(Predicate, Predicate) -> Predicate),
    Cmp(CmpOp),
    Arith(BinOp),
}

/// A position in tokenized query text, and the grammar of the module docs
/// over it (paper §II statement, §VIII `WHERE`).
pub struct Cursor<'a> {
    text: &'a str,
    schema: &'a Schema,
    tokens: Vec<(usize, Token<'a>)>,
    next: usize,
}

impl<'a> Cursor<'a> {
    /// Tokenizes `text`; attribute names resolve against `schema`.
    ///
    /// # Errors
    ///
    /// [`DbError::ParseError`] at the first character no token can hold.
    pub fn new(text: &'a str, schema: &'a Schema) -> Result<Self> {
        Ok(Cursor {
            text,
            schema,
            tokens: tokenize(text)?,
            next: 0,
        })
    }

    /// The next token, if any.
    #[must_use]
    pub fn peek(&self) -> Option<Token<'a>> {
        self.tokens.get(self.next).map(|&(_, token)| token)
    }

    /// Byte offset of the next token (the text's length at the end).
    fn position(&self) -> usize {
        self.tokens
            .get(self.next)
            .map_or(self.text.len(), |&(at, _)| at)
    }

    /// A [`DbError::ParseError`] at the next token, naming it.
    fn error(&self, expected: &str) -> DbError {
        let found = self.peek().map_or("the end of the text", Token::text);
        let message = format!("expected {expected}, found `{found}`");
        error(self.position(), message)
    }

    /// Consumes the next token if it is `token`; a word matches in any case.
    pub fn eat(&mut self, token: Token<'_>) -> bool {
        let hit = match (self.peek(), token) {
            (Some(Word(next)), Word(keyword)) => next.eq_ignore_ascii_case(keyword),
            (next, _) => next == Some(token),
        };
        self.next += usize::from(hit);
        hit
    }

    /// Consumes `token` as [`Cursor::eat`] does.
    ///
    /// # Errors
    ///
    /// [`DbError::ParseError`] if the next token is something else.
    pub fn require(&mut self, token: Token<'_>) -> Result<()> {
        if self.eat(token) {
            return Ok(());
        }
        Err(self.error(&format!("`{}`", token.text())))
    }

    /// Consumes a word — reserved or not — that the caller calls `what`.
    ///
    /// # Errors
    ///
    /// [`DbError::ParseError`] if the next token is not a word.
    pub fn word(&mut self, what: &str) -> Result<&'a str> {
        let Some(Word(word)) = self.peek() else {
            return Err(self.error(what));
        };
        self.next += 1;
        Ok(word)
    }

    /// Consumes a number with an optional `+` / `-` directly before it,
    /// read as a `T` — to the caller, `what`.
    ///
    /// # Errors
    ///
    /// [`DbError::ParseError`] if no `T` is spelt there.
    pub fn signed<T: FromStr>(&mut self, what: &str) -> Result<T> {
        let start = self.position();
        let signed = usize::from(matches!(self.peek(), Some(Symbol("+" | "-"))));
        if let Some(&(at, Number(digits))) = self.tokens.get(self.next + signed) {
            let spelt = self.text[start..at + digits.len()].parse();
            if let (true, Ok(value)) = (at == start + signed, spelt) {
                self.next += 1 + signed;
                return Ok(value);
            }
        }
        Err(self.error(what))
    }

    /// Succeeds only once every token is consumed.
    ///
    /// # Errors
    ///
    /// [`DbError::ParseError`] at the first unconsumed token.
    pub fn finish(&self) -> Result<()> {
        self.peek()
            .map_or(Ok(()), |_| Err(self.error("the end of the text")))
    }

    /// Parses a number-valued `or` (module docs): the paper's `expression`.
    ///
    /// # Errors
    ///
    /// [`DbError::ParseError`] on malformed or truth-valued input;
    /// [`DbError::UnknownAttribute`] for names outside the schema.
    pub fn expr(&mut self) -> Result<Expr> {
        let at = self.position();
        self.or()?.number(at)
    }

    /// Parses a truth-valued `or` (module docs): a `WHERE` predicate.
    ///
    /// # Errors
    ///
    /// [`DbError::ParseError`] on malformed or number-valued input;
    /// [`DbError::UnknownAttribute`] for names outside the schema.
    pub fn predicate(&mut self) -> Result<Predicate> {
        let at = self.position();
        self.or()?.truth(at)
    }

    fn or(&mut self) -> Result<Node> {
        self.binary(&[("or", Join::Logic(Predicate::or))], Self::and)
    }

    fn and(&mut self) -> Result<Node> {
        self.binary(&[("and", Join::Logic(Predicate::and))], Self::not)
    }

    fn not(&mut self) -> Result<Node> {
        let at = self.position();
        if !self.eat(Word("not")) {
            return self.cmp();
        }
        Ok(Node::Truth(self.not()?.truth(at)?.not()))
    }

    /// Not a chain: the `cmp` after a first comparison has a truth-valued
    /// left operand, which [`Join::Cmp`] refuses.
    fn cmp(&mut self) -> Result<Node> {
        const OPERATORS: [(&str, Join); 7] = [
            ("<", Join::Cmp(CmpOp::Lt)),
            ("<=", Join::Cmp(CmpOp::Le)),
            (">", Join::Cmp(CmpOp::Gt)),
            (">=", Join::Cmp(CmpOp::Ge)),
            ("=", Join::Cmp(CmpOp::Eq)),
            ("!=", Join::Cmp(CmpOp::Ne)),
            ("<>", Join::Cmp(CmpOp::Ne)),
        ];
        self.binary(&OPERATORS, Self::sum)
    }

    fn sum(&mut self) -> Result<Node> {
        self.binary(
            &[("+", Join::Arith(Add)), ("-", Join::Arith(Sub))],
            Self::term,
        )
    }

    fn term(&mut self) -> Result<Node> {
        self.binary(
            &[("*", Join::Arith(Mul)), ("/", Join::Arith(Div))],
            Self::unary,
        )
    }

    /// One left-associative level: operands from the level below, joined
    /// by whichever of `operators` the next token spells, each join
    /// checking the kind of both sides.
    fn binary(
        &mut self,
        operators: &[(&str, Join)],
        operand: fn(&mut Self) -> Result<Node>,
    ) -> Result<Node> {
        let mut lhs = operand(self)?;
        while let Some(&(_, join)) = self.peek().and_then(|next| {
            let spelt = |(text, _): &&(&str, Join)| next.text().eq_ignore_ascii_case(text);
            operators.iter().find(spelt)
        }) {
            let at = self.position();
            self.next += 1;
            let rhs = operand(self)?;
            lhs = match join {
                Join::Logic(join) => Node::Truth(join(lhs.truth(at)?, rhs.truth(at)?)),
                Join::Cmp(op) => Node::Truth(Predicate::cmp(op, lhs.number(at)?, rhs.number(at)?)),
                Join::Arith(op) => Node::Number(Expr::binary(op, lhs.number(at)?, rhs.number(at)?)),
            };
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Node> {
        let at = self.position();
        let token = self.peek();
        self.next += 1;
        Ok(match token {
            Some(Symbol("-")) => Node::Number(-self.unary()?.number(at)?),
            Some(Symbol("(")) => {
                let inner = self.or()?;
                self.require(Symbol(")"))?;
                inner
            }
            Some(Number(digits)) => {
                Node::Number(Expr::Const(digits.parse().map_err(|_| self.no_operand())?))
            }
            Some(Word(word)) if word.eq_ignore_ascii_case("true") => Node::Truth(Predicate::True),
            Some(Word(word)) if word.eq_ignore_ascii_case("false") => {
                Node::Truth(Predicate::True.not())
            }
            Some(Word(word)) if !RESERVED.iter().any(|r| word.eq_ignore_ascii_case(r)) => {
                Node::Number(Expr::attr(self.schema, word)?)
            }
            _ => return Err(self.no_operand()),
        })
    }

    /// Steps back onto the token `unary` could not start an operand with.
    fn no_operand(&mut self) -> DbError {
        self.next -= 1;
        self.error("a number, an attribute, `(`, `-`, `true` or `false`")
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(["cpu", "memory", "é"])
    }

    fn position(result: Result<Predicate>) -> usize {
        match result {
            Err(DbError::ParseError { position, .. }) => position,
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn tokens_are_cut_at_character_boundaries() {
        let tokens = tokenize("é1<=.5e-2 中<>x_2\u{a0}!=!").unwrap();
        let want = [
            (0, Word("é1")),
            (3, Symbol("<=")),
            (5, Number(".5e-2")),
            (11, Word("中")),
            (14, Symbol("<>")),
            (16, Word("x_2")),
            (21, Symbol("!=")),
            (23, Symbol("!")),
        ];
        assert_eq!(tokens, want);
        assert!(tokenize("cpu € 1").is_err());
    }

    /// `keyword` used to slice `rest[..kw.len()]` without looking for a
    /// character boundary: each of these panicked.
    #[test]
    fn multi_byte_text_where_a_keyword_could_start_is_an_error() {
        for (text, at) in [("€€", 0), ("tr€€", 2), ("cpu>1 and €€", 10)] {
            assert_eq!(position(Predicate::parse(text, &schema())), at, "{text}");
        }
    }

    #[test]
    fn positions_are_byte_offsets_into_the_whole_text() {
        let s = schema();
        // Inside a parenthesised operand, after a two-byte letter.
        assert_eq!(position(Predicate::parse("é > 1 or (cpu", &s)), 14);
        assert_eq!(
            position(Predicate::parse("cpu > 1 and (memory < )", &s)),
            22
        );
        // A kind error points at whoever asked for the other kind.
        assert_eq!(position(Predicate::parse("(cpu < 3) = 1", &s)), 10);
        assert_eq!(position(Predicate::parse("cpu < 1 < 2", &s)), 8);
        assert_eq!(position(Predicate::parse("cpu + 1", &s)), 0);
        assert_eq!(position(Predicate::parse("cpu < 1 memory", &s)), 8);
    }

    #[test]
    fn a_sign_belongs_to_a_number_only_when_it_touches_it() {
        let s = schema();
        for (text, want) in [
            ("+.5", Some(0.5)),
            ("-2e3 x", Some(-2e3)),
            ("7", Some(7.0)),
            ("+ 1", None),
            ("+cpu", None),
            ("--1", None),
            ("1..2", None),
        ] {
            let got: Option<f64> = Cursor::new(text, &s).unwrap().signed("a number").ok();
            assert_eq!(got, want, "{text}");
        }
        assert_eq!(
            Cursor::new("+4", &s).unwrap().signed::<u16>("k").ok(),
            Some(4)
        );
        assert_eq!(
            Cursor::new("2.5", &s).unwrap().signed::<u16>("k").ok(),
            None
        );
    }

    /// Thirty thousand nested parentheses overflowed the parser's stack and
    /// sixty thousand chained operators that of `eval` / `Drop`.
    #[test]
    fn the_token_count_is_bounded_before_the_stack_is() {
        let s = schema();
        let deepest = MAX_TOKENS / 2;
        let parens = |depth: usize| format!("{}cpu{}", "(".repeat(depth), ")".repeat(depth));
        let nots = |depth: usize| format!("{}cpu > 1", "not ".repeat(depth));
        let sums = |terms: usize| vec!["cpu"; terms].join("+");
        assert!(Expr::parse(&parens(deepest - 1), &s).is_ok());
        assert!(Predicate::parse(&nots(MAX_TOKENS - 3), &s).is_ok());
        let longest = Expr::parse(&sums(deepest), &s).unwrap();
        assert!(longest.eval(&crate::Tuple::new(vec![1.0; 3])).is_ok());
        for over in [parens(deepest), nots(MAX_TOKENS), sums(deepest + 1)] {
            assert!(Expr::parse(&over, &s).is_err(), "{} tokens", over.len());
        }
        for huge in [parens(30_000), nots(100_000), sums(60_000)] {
            assert!(Predicate::parse(&huge, &s).is_err());
        }
    }

    #[test]
    fn reserved_words_are_not_attributes() {
        let s = Schema::new(["from", "distinct", "fromage"]);
        assert!(Expr::parse("fromage", &s).is_ok());
        for word in RESERVED {
            assert!(Expr::parse(word, &s).is_err(), "{word}");
            assert!(Expr::parse(&word.to_uppercase(), &s).is_err(), "{word}");
        }
    }
}
