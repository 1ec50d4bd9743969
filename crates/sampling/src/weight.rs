//! Node weight functions.
//!
//! The sampling operator is parameterised by "a generic weight function
//! which assigns a weight `w_v` to each node" (paper §III). Weights are
//! functions of *local* node properties — content size, degree, reputation
//! — and need not be normalised; the Metropolis rule only ever consumes
//! the local ratio `w_j / w_i`.

use digest_db::P2PDatabase;
use digest_net::NodeId;

/// A (not necessarily normalised) weight function over nodes.
///
/// Implemented for any `Fn(NodeId) -> f64`, so weights can close over the
/// database, the graph, or anything else.
pub trait NodeWeight {
    /// The weight of `node`; must be finite and non-negative for live
    /// nodes.
    fn weight(&self, node: NodeId) -> f64;
}

impl<F: Fn(NodeId) -> f64> NodeWeight for F {
    fn weight(&self, node: NodeId) -> f64 {
        self(node)
    }
}

/// The uniform weight function `w₁ = {∀v : w_v = 1}` — node sampling
/// uniform over `V`.
#[must_use]
pub fn uniform_weight() -> impl NodeWeight + Copy {
    |_: NodeId| 1.0
}

/// The content-size weight function `w₂ = {∀v : w_v = m_v}` — node
/// sampling proportional to the node's tuple count, the first stage of
/// uniform *tuple* sampling (paper §III).
#[must_use]
pub fn content_size_weight(db: &P2PDatabase) -> impl NodeWeight + Copy + '_ {
    move |v: NodeId| db.content_size(v) as f64
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
    use digest_db::{Schema, Tuple};

    #[test]
    fn uniform_is_one_everywhere() {
        let w = uniform_weight();
        assert_eq!(w.weight(NodeId(0)), 1.0);
        assert_eq!(w.weight(NodeId(999)), 1.0);
    }

    #[test]
    fn content_size_tracks_database() {
        let mut db = P2PDatabase::new(Schema::single("a"));
        db.register_node(NodeId(0));
        db.register_node(NodeId(1));
        db.insert(NodeId(0), Tuple::single(1.0)).unwrap();
        db.insert(NodeId(0), Tuple::single(2.0)).unwrap();
        let w = content_size_weight(&db);
        assert_eq!(w.weight(NodeId(0)), 2.0);
        assert_eq!(w.weight(NodeId(1)), 0.0);
        assert_eq!(w.weight(NodeId(7)), 0.0, "unknown nodes weigh 0");
    }

    #[test]
    fn closures_are_weights() {
        let w = |v: NodeId| f64::from(v.0) * 2.0;
        assert_eq!(w.weight(NodeId(3)), 6.0);
    }
}
