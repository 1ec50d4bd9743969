//! Error type for the statistics crate.

use std::fmt;

/// Errors produced by the numerical routines in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// A probability argument fell outside its valid open/closed interval.
    InvalidProbability {
        /// The offending value.
        value: f64,
        /// Human-readable description of the expected range.
        expected: &'static str,
    },
    /// A routine received fewer observations than it needs.
    InsufficientData {
        /// Number of observations supplied.
        got: usize,
        /// Minimum number of observations required.
        need: usize,
    },
    /// Matrix dimensions did not line up for the requested operation.
    DimensionMismatch {
        /// Description of what was expected.
        context: &'static str,
    },
    /// An input that must be finite was NaN or infinite.
    NonFiniteInput {
        /// Which argument was non-finite.
        what: &'static str,
    },
    /// A parameter was outside its legal domain.
    InvalidParameter {
        /// Which parameter.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::InvalidProbability { value, expected } => {
                write!(f, "invalid probability {value}: expected {expected}")
            }
            StatsError::InsufficientData { got, need } => {
                write!(
                    f,
                    "insufficient data: got {got} observations, need at least {need}"
                )
            }
            StatsError::DimensionMismatch { context } => {
                write!(f, "dimension mismatch: {context}")
            }
            StatsError::NonFiniteInput { what } => write!(f, "non-finite input: {what}"),
            StatsError::InvalidParameter { what, value } => {
                write!(f, "invalid parameter {what} = {value}")
            }
        }
    }
}

impl std::error::Error for StatsError {}

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
    fn display_is_informative() {
        let e = StatsError::InvalidProbability {
            value: 1.5,
            expected: "(0, 1)",
        };
        assert!(e.to_string().contains("1.5"));
        assert!(e.to_string().contains("(0, 1)"));

        let e = StatsError::InsufficientData { got: 1, need: 2 };
        assert!(e.to_string().contains("got 1"));

        let e = StatsError::InvalidParameter {
            what: "history",
            value: 171.0,
        };
        assert!(e.to_string().contains("history = 171"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<StatsError>();
    }
}
