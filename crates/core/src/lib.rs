//! # digest-core
//!
//! The top tier of Digest: the query evaluation engine for fixed-precision
//! approximate continuous aggregate queries (paper §II, §IV).
//!
//! A continuous query `SELECT op(expression) FROM R` with precision
//! `(δ, ε, p)` is answered by *continual-approximate snapshot queries*:
//!
//! * **when** to run the next snapshot is decided by a
//!   [`scheduler`] — either every tick (`ALL`) or by the `PRED-k`
//!   Taylor extrapolation of §IV-A, which skips ticks while the predicted
//!   drift plus the Lagrange remainder stays below `δ`;
//! * **how many samples** each snapshot draws is decided by an
//!   [estimator](rpt) — either classical independent sampling (`INDEP`,
//!   §IV-B1) or repeated sampling (`RPT`, §IV-B2), which retains the
//!   optimally sized part of the previous panel and combines a regression
//!   estimate with the fresh-sample mean.
//!
//! [`engine::DigestEngine`] composes a scheduler, an estimator, and the
//! bottom-tier sampling operator into the full system — one query's
//! round of the [`mux::QueryMux`], which serves many; [`tag`] is the
//! tree-aggregation comparator of the paper's §VII. Everything implements
//! the [`system::QuerySystem`] trait the simulator drives. The push
//! comparators of the paper's §VI-B3 evaluation (`ALL+ALL`,
//! `ALL+FILTER`) are not query systems: `digest_audit::MessageLedger`
//! re-accounts them on the data stream of any run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod engine;
pub mod error;
pub mod indep;
pub mod mux;
pub mod panel;
pub mod query;
mod report;
pub mod rpt;
pub mod scheduler;
pub mod sketch_est;
pub mod statement;
pub mod system;
pub mod tag;

pub use engine::{DigestEngine, EngineConfig, EstimatorKind, SchedulerKind};
pub use error::CoreError;
pub use indep::IndependentEstimator;
pub use mux::{MuxConfig, MuxQueryOutcome, MuxQueryTotals, QueryMux};
pub use panel::SamplePanel;
pub use query::{AggregateOp, ContinuousQuery, Precision};
pub use rpt::{ForwardCorrection, RepeatedEstimator, RptConfig};
pub use scheduler::{AllScheduler, PredScheduler, SnapshotScheduler};
pub use sketch_est::{SketchSweepEstimator, SweepSnapshot};
pub use system::{
    MuxObserver, NoopMuxObserver, NoopObserver, QuerySystem, TickContext, TickObserver, TickOutcome,
};
pub use tag::{TagConfig, TreeAggregationEngine};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CoreError>;
