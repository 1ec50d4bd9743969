//! # digest-db
//!
//! The peer-to-peer database substrate: a single relation `R`, horizontally
//! partitioned across the live nodes of the overlay (paper §II).
//!
//! * [`tuple`](mod@tuple) — schemas, the owned [`Tuple`], the borrowed
//!   [`RowView`] every read of the stored relation hands out, and stable
//!   tuple handles (node id + local slot + generation) that let the query
//!   engine's sample panel revisit a sampled tuple cheaply and detect
//!   deletion.
//! * [`expr`] — the arithmetic `expression` of the query model
//!   (`SELECT op(expression) FROM R`): an AST over the relation's
//!   attributes.
//! * [`predicate`] — boolean `WHERE` predicates over the same attributes
//!   (the paper's §VIII selection extension).
//! * [`parse`] — the one tokenizer and typed precedence grammar all query
//!   text is read through; its module docs hold the whole grammar.
//! * [`store`] — a node's local tuple store with O(1) insert / delete /
//!   uniform local sampling, the second stage of two-stage sampling. Rows
//!   live back to back in one `Vec<f64>` per fragment with their
//!   `(slot, generation)` pairs dense beside them; the module docs give the
//!   layout and the order invariant every seeded run relies on.
//! * [`database`] — the partitioned database: per-node stores, churn
//!   integration (a departing node deletes its fragment), in-place single
//!   and batched updates, and the *oracle* exact aggregates the simulator
//!   uses for ground truth — one fold over the fragments' columns.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod database;
pub mod error;
pub mod expr;
pub mod parse;
pub mod predicate;
pub mod store;
pub mod tuple;

pub use database::{Fragments, P2PDatabase};
pub use error::DbError;
pub use expr::Expr;
pub use predicate::{CmpOp, Predicate};
pub use store::{LocalStore, StoreRows};
pub use tuple::{RowView, Schema, Tuple, TupleHandle};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, DbError>;
