//! Sync primitives for the parallel substrate, swappable for the
//! vendored loom model checker under `RUSTFLAGS="--cfg loom"` (see
//! DESIGN.md §13).
//!
//! The claim/publish protocol in [`crate::par`] is written against these
//! aliases, so the very functions the production paths run are the ones
//! the loom tests exhaustively interleave.

#[cfg(not(loom))]
pub(crate) use std::sync::atomic::{AtomicUsize, Ordering};
#[cfg(not(loom))]
pub(crate) use std::sync::OnceLock;

#[cfg(loom)]
pub(crate) use loom::sync::atomic::{AtomicUsize, Ordering};
#[cfg(loom)]
pub(crate) use loom::sync::OnceLock;
