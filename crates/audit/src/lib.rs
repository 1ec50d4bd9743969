//! # digest-audit
//!
//! The continuous-guarantee auditor: simulation-side observability that
//! checks, rather than assumes, the fixed-precision contract of the paper
//! (§II — `|X̂[t] − X[t]| ≤ ε` with probability ≥ p at every reporting
//! occasion).
//!
//! The crate hangs off the simulator's [`digest_core::TickObserver`] hook
//! and never feeds back into the system under test: it consumes no
//! randomness, takes no locks, and touches only the oracle-visible state a
//! real peer could not see. Three pieces compose:
//!
//! * [`auditor::Auditor`] — folds per-occasion `(estimate, exact)` pairs
//!   into the empirical ε-violation rate and a confidence-calibration
//!   table (nominal coverage level vs observed coverage at the CLT-scaled
//!   half-width), and emits `audit.occasion` telemetry events;
//! * [`ledger::MessageLedger`] — recomputes, in the same run, what the
//!   push-based `ALL` and `ALL+FILTER` baselines (paper §VI-B3; a fixed
//!   ±ε filter, one message a push) would have spent on the same data
//!   stream, giving per-query message-cost comparisons that share every
//!   tick of workload dynamics with the digest engine being audited. It is
//!   the repository's only model of the push baselines: Fig. 5-b's push
//!   rows (`exp_fig5b`) read it off Digest's own run;
//! * [`chrome::chrome_trace_json`] — exports a collected telemetry event
//!   stream (with its causal `trace` envelopes) to Chrome/Perfetto
//!   trace-event JSON for timeline inspection.
//!
//! [`observer::QueryAudit`] bundles the three behind one `TickObserver`
//! and renders the end-of-run [`auditor::AuditReport`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod auditor;
pub mod chrome;
pub mod ledger;
pub mod observer;

pub use auditor::{AuditReport, Auditor, AuditorConfig, CalibrationRow, NOMINAL_LEVELS};
pub use chrome::chrome_trace_json;
pub use ledger::{LedgerTotals, MessageLedger};
pub use observer::{MuxAudit, QueryAudit};

/// Errors the auditor can produce.
#[derive(Debug)]
pub enum AuditError {
    /// A statistics-kernel error (quantile domain, degenerate inputs).
    Stats(digest_stats::StatsError),
    /// An invalid auditor configuration.
    InvalidConfig {
        /// What was wrong.
        reason: &'static str,
    },
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditError::Stats(e) => write!(f, "stats error: {e}"),
            AuditError::InvalidConfig { reason } => {
                write!(f, "invalid audit config: {reason}")
            }
        }
    }
}

impl std::error::Error for AuditError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AuditError::Stats(e) => Some(e),
            AuditError::InvalidConfig { .. } => None,
        }
    }
}

impl From<digest_stats::StatsError> for AuditError {
    fn from(e: digest_stats::StatsError) -> Self {
        AuditError::Stats(e)
    }
}

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, AuditError>;
