//! Error type for the query-engine crate.

use std::fmt;

/// Errors produced by the query evaluation engine.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The query's precision parameters are invalid.
    InvalidPrecision {
        /// Description of the violated requirement.
        reason: &'static str,
    },
    /// Engine configuration out of range.
    InvalidConfig {
        /// Description of the violated requirement.
        reason: &'static str,
    },
    /// A continuous-query statement failed to parse.
    InvalidStatement {
        /// Description of the problem.
        message: String,
    },
    /// A simulation workload's overlay graph has no live nodes, so no
    /// querying node can be elected.
    EmptyWorkload,
    /// An error from the database substrate.
    Db(digest_db::DbError),
    /// An error from the sampling operator.
    Sampling(digest_sampling::SamplingError),
    /// An error from the statistics layer.
    Stats(digest_stats::StatsError),
    /// An error from the mergeable-sketch layer.
    Sketch(digest_sketch::SketchError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidPrecision { reason } => write!(f, "invalid precision: {reason}"),
            CoreError::InvalidConfig { reason } => write!(f, "invalid engine config: {reason}"),
            CoreError::InvalidStatement { message } => {
                write!(f, "invalid query statement: {message}")
            }
            CoreError::EmptyWorkload => {
                write!(f, "workload graph has no live nodes to query from")
            }
            CoreError::Db(e) => write!(f, "database error: {e}"),
            CoreError::Sampling(e) => write!(f, "sampling error: {e}"),
            CoreError::Stats(e) => write!(f, "statistics error: {e}"),
            CoreError::Sketch(e) => write!(f, "sketch error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Db(e) => Some(e),
            CoreError::Sampling(e) => Some(e),
            CoreError::Stats(e) => Some(e),
            CoreError::Sketch(e) => Some(e),
            _ => None,
        }
    }
}

impl From<digest_db::DbError> for CoreError {
    fn from(e: digest_db::DbError) -> Self {
        CoreError::Db(e)
    }
}

impl From<digest_sampling::SamplingError> for CoreError {
    fn from(e: digest_sampling::SamplingError) -> Self {
        CoreError::Sampling(e)
    }
}

impl From<digest_stats::StatsError> for CoreError {
    fn from(e: digest_stats::StatsError) -> Self {
        CoreError::Stats(e)
    }
}

impl From<digest_sketch::SketchError> for CoreError {
    fn from(e: digest_sketch::SketchError) -> Self {
        CoreError::Sketch(e)
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

    #[test]
    fn conversions_and_sources() {
        let e: CoreError = digest_stats::StatsError::NonFiniteInput { what: "x" }.into();
        assert!(std::error::Error::source(&e).is_some());
        let e: CoreError = digest_db::DbError::StaleHandle.into();
        assert!(e.to_string().contains("database"));
        let e: CoreError = digest_sampling::SamplingError::EmptyGraph.into();
        assert!(e.to_string().contains("sampling"));
        let e = CoreError::InvalidPrecision {
            reason: "delta must be positive",
        };
        assert!(e.to_string().contains("delta"));
        let e = CoreError::EmptyWorkload;
        assert!(e.to_string().contains("no live nodes"));
        assert!(std::error::Error::source(&e).is_none());
    }
}
