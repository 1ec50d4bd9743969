//! Error type for the sampling crate.

use digest_net::NodeId;
use std::fmt;

/// Errors produced by the distributed sampling machinery.
#[derive(Debug, Clone, PartialEq)]
pub enum SamplingError {
    /// A walk was started from (or reached) a node that is not live.
    UnknownNode(NodeId),
    /// The graph has no nodes to sample.
    EmptyGraph,
    /// A weight function returned a negative or non-finite weight.
    InvalidWeight {
        /// The offending node.
        node: NodeId,
        /// The weight it was assigned.
        weight: f64,
    },
    /// All live nodes have zero weight — the target distribution is
    /// undefined.
    ZeroTotalWeight,
    /// Configuration parameter out of range.
    InvalidConfig {
        /// Description of the violated requirement.
        reason: &'static str,
    },
    /// The database had no tuple to sample where one was required.
    EmptyDatabase,
    /// The overlay has more directed edges than an occasion snapshot's
    /// rows can address (`u32::MAX`).
    OverlayTooLarge,
    /// An error bubbled up from the statistics layer.
    Stats(digest_stats::StatsError),
}

impl fmt::Display for SamplingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SamplingError::UnknownNode(id) => write!(f, "unknown node {id}"),
            SamplingError::EmptyGraph => write!(f, "cannot sample from an empty graph"),
            SamplingError::InvalidWeight { node, weight } => {
                write!(f, "invalid weight {weight} for node {node}")
            }
            SamplingError::ZeroTotalWeight => write!(f, "all node weights are zero"),
            SamplingError::InvalidConfig { reason } => write!(f, "invalid config: {reason}"),
            SamplingError::EmptyDatabase => {
                write!(f, "cannot sample a tuple from an empty database")
            }
            SamplingError::OverlayTooLarge => write!(
                f,
                "the overlay has more than {} directed edges to snapshot",
                u32::MAX
            ),
            SamplingError::Stats(e) => write!(f, "statistics error: {e}"),
        }
    }
}

impl std::error::Error for SamplingError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SamplingError::Stats(e) => Some(e),
            _ => None,
        }
    }
}

impl From<digest_stats::StatsError> for SamplingError {
    fn from(e: digest_stats::StatsError) -> Self {
        SamplingError::Stats(e)
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
    fn display_and_source() {
        let e = SamplingError::InvalidWeight {
            node: NodeId(2),
            weight: -1.0,
        };
        assert!(e.to_string().contains("n2"));
        let e: SamplingError = digest_stats::StatsError::NonFiniteInput { what: "x" }.into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
