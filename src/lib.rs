//! # digest
//!
//! Facade crate for the **Digest** workspace — a from-scratch Rust
//! reproduction of *"Fixed-Precision Approximate Continuous Aggregate
//! Queries in Peer-to-Peer Databases"* (Banaei-Kashani & Shahabi,
//! ICDE 2008), plus its §VIII future-work extensions (`WHERE`
//! predicates, statement parsing, forward regression, `MEDIAN` /
//! `PERCENTILE` by sketch sweep).
//!
//! Each subsystem lives in its own crate, re-exported here under a short
//! module name:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `digest-core` | the two-tier query engine: `(δ, ε, p)` semantics, `ALL`/`PRED-k` schedulers, `INDEP`/`RPT`/sketch-sweep estimators, the TAG comparator |
//! | [`sampling`] | `digest-sampling` | the Metropolis random-walk sampling operator, mixing diagnostics, size estimation |
//! | [`net`] | `digest-net` | the unstructured overlay: topologies and churn |
//! | [`db`] | `digest-db` | the horizontally partitioned relation, expressions, predicates |
//! | [`stats`] | `digest-stats` | the numerical substrate (moments, quantiles, CLT sizing, Taylor extrapolation, repeated-sampling algebra) |
//! | [`workload`] | `digest-workload` | the calibrated TEMPERATURE / MEMORY synthetic datasets |
//! | [`sim`] | `digest-sim` | the discrete-time runner with oracle verification and parallel replication |
//! | [`audit`] | `digest-audit` | the continuous-guarantee auditor: ε-violation tracking, CI calibration, the push baselines' message-cost ledger, Perfetto trace export |
//!
//! See the repository README for a quickstart and the `examples/`
//! directory for end-to-end scenarios.

#![forbid(unsafe_code)]

pub use digest_audit as audit;
pub use digest_core as core;
pub use digest_db as db;
pub use digest_net as net;
pub use digest_sampling as sampling;
pub use digest_sim as sim;
pub use digest_stats as stats;
pub use digest_workload as workload;
