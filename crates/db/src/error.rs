//! Error type for the database crate.

use digest_net::NodeId;
use std::fmt;

/// Errors produced by the peer-to-peer database.
#[derive(Debug, Clone, PartialEq)]
pub enum DbError {
    /// The referenced node holds no fragment (unknown or departed).
    UnknownNode(NodeId),
    /// A tuple handle no longer resolves (deleted tuple or departed node).
    StaleHandle,
    /// An expression referenced an attribute the schema does not define.
    UnknownAttribute(String),
    /// An expression referenced an attribute index out of range.
    AttributeIndexOutOfRange {
        /// The offending index.
        index: usize,
        /// Number of attributes in the schema.
        arity: usize,
    },
    /// A tuple's arity did not match the schema.
    ArityMismatch {
        /// The tuple's arity.
        got: usize,
        /// The schema's arity.
        expected: usize,
    },
    /// Query text failed to parse.
    ParseError {
        /// Byte offset of the failure into the text handed to `parse`.
        position: usize,
        /// Description of what was expected.
        message: String,
    },
    /// An aggregate over an empty relation (AVG is undefined).
    EmptyRelation,
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::UnknownNode(id) => write!(f, "node {id} holds no database fragment"),
            DbError::StaleHandle => write!(f, "tuple handle is stale (tuple deleted or node left)"),
            DbError::UnknownAttribute(name) => write!(f, "unknown attribute `{name}`"),
            DbError::AttributeIndexOutOfRange { index, arity } => {
                write!(f, "attribute index {index} out of range for arity {arity}")
            }
            DbError::ArityMismatch { got, expected } => {
                write!(
                    f,
                    "tuple arity {got} does not match schema arity {expected}"
                )
            }
            DbError::ParseError { position, message } => {
                write!(f, "parse error at byte {position}: {message}")
            }
            DbError::EmptyRelation => write!(f, "aggregate over empty relation is undefined"),
        }
    }
}

impl std::error::Error for DbError {}

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
        assert!(DbError::UnknownNode(NodeId(3)).to_string().contains("n3"));
        assert!(DbError::UnknownAttribute("memory".into())
            .to_string()
            .contains("memory"));
        let e = DbError::ParseError {
            position: 4,
            message: "expected ')'".into(),
        };
        assert!(e.to_string().contains("byte 4"));
    }
}
