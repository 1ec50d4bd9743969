//! # digest-sim
//!
//! The discrete-time simulation harness (the stand-in for the paper's
//! multithreaded C++ simulator on two Sun Enterprise 250s — our metrics
//! are deterministic *counts*, so a single-process simulator reproduces
//! them exactly, minus the hardware noise).
//!
//! [`parallel::run_replications`] replays a scenario under many seeds on
//! worker threads for statistically reliable (error-barred) metrics;
//! [`runner::run`] drives one [`digest_core::QuerySystem`] against one
//! [`digest_workload::Workload`] for a span of ticks through the one
//! hint-driven tick loop (`runner::run_ticks`), collecting a
//! [`trace::RunReport`]: per-tick records of the exact aggregate (oracle)
//! versus the system's running estimate, plus totals of snapshots, samples
//! and messages, and the realised precision-violation rates that verify
//! the `(δ, ε, p)` guarantee.
//!
//! For overlays far above paper scale, [`flat::run_flat`] builds a MEMORY
//! world (BA overlay on the one [`digest_net::Graph`]) and a PRED3+RPT
//! engine at a configured node count and calls [`runner::run`] — nothing
//! else. It and [`events::EventQueue`] have no caller in the workspace;
//! both stay only because `benchmark/` (frozen) times them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod events;
pub mod flat;
pub mod parallel;
pub mod runner;
pub mod trace;

pub use events::EventQueue;
pub use flat::{run_flat, FlatSimConfig};
pub use parallel::{run_replications, summarize, MetricSummary};
pub use runner::{run, run_mux, run_observed, RunConfig};
pub use trace::{RunReport, TraceRecord};
