//! Reusable walk-batch arenas: zero steady-state allocation for the
//! occasion hot path.
//!
//! [`WalkArena`] owns the buffers of a walk batch — the slot task list,
//! the outcome list and the sampled rows — for the lifetime of a
//! `SamplingOperator` and recycles them across batches and occasions:
//! `clear()` keeps capacity, so after the first occasion at a given
//! panel size a one-worker batch performs no heap allocation at all
//! (each extra worker's range is one `Vec` per batch). Per-slot state
//! — the ChaCha8 stream and the walk cursor — lives on the worker's
//! stack (no slot carries a seed: a slot's stream is the batch key's
//! stream numbered by its pool slot), and the sampled rows are copied,
//! one after another, into the single `values` column instead of one
//! owned tuple each.
//!
//! The arena is scratch, not state: `outcomes` and `values` hold the
//! last successful batch only until the next one starts, which is as
//! long as the `SampledBatch` view the operator lends out can live.
//! `Clone` therefore yields a fresh empty arena (cloned operators share
//! no buffers and need none).

use crate::executor::{SlotOutcome, SlotTask};

/// Retained buffers for one operator's walk batches.
#[derive(Debug, Default)]
pub(crate) struct WalkArena {
    /// Per-slot work orders, fully written before workers start.
    pub(crate) tasks: Vec<SlotTask>,
    /// Slot-ordered outcomes of the last successful batch.
    pub(crate) outcomes: Vec<SlotOutcome>,
    /// The sampled rows of `outcomes`, one after another in slot order:
    /// the relation's arity many values each (so empty for a zero-arity
    /// relation — count samples by `outcomes`, never by this column).
    pub(crate) values: Vec<f64>,
}

impl WalkArena {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Drops every retained buffer (used by `SamplingOperator::reset`
    /// so a reset operator holds no memory from its previous life).
    pub(crate) fn release(&mut self) {
        *self = Self::new();
    }
}

impl Clone for WalkArena {
    fn clone(&self) -> Self {
        Self::new()
    }
}
