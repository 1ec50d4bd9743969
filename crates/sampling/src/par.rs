//! The one deterministic parallel substrate: counter-derived RNG stream
//! seeds plus lock-free index stealing with in-order reassembly.
//!
//! The paper's batch mode invokes `S` n times *simultaneously* (§VI-A);
//! the two places this workspace makes that simultaneity real on threads
//! — an occasion's walk batch (`executor::run_tuple_batch`) and a
//! replication set (`digest-sim::parallel::run_replications_with_workers`)
//! — run through [`run_indexed`]:
//!
//! * **Counter-derived streams.** The caller contributes one root `u64`;
//!   job `index` seeds its private RNG from [`stream_seed`]`(root, index)`.
//!   No job reads another's stream, so every result is a pure function
//!   of `(root, index)` — byte-identical for any worker count.
//! * **Claim / publish, lock-free.** Workers claim indices from an
//!   atomic cursor and publish each result into its own `OnceLock` cell —
//!   each cell is written by exactly one worker, so the substrate holds
//!   no lock anywhere (R6). One worker runs the same drain loop inline,
//!   not a separate code path.
//! * **In-order drain.** After the scope joins, cells are handed to the
//!   caller in index order, so thread scheduling can influence neither
//!   the output order, nor a floating-point merge order, nor which error
//!   surfaces first. A cell found empty is reported as [`EmptyCell`]
//!   instead of panicking.
//!
//! The claim/publish protocol is model-checked against the vendored loom
//! stand-in under `RUSTFLAGS="--cfg loom"` (see DESIGN.md §13).

use crate::sync::{AtomicUsize, OnceLock, Ordering};

/// SplitMix64 finalizer (Steele et al., "Fast splittable pseudorandom
/// number generators") — derives well-separated seeds from one root.
/// xtask: no-alloc
#[must_use]
pub fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of job `index`'s private RNG stream under `root`.
/// xtask: no-alloc
#[must_use]
pub fn stream_seed(root: u64, index: usize) -> u64 {
    splitmix64(root.wrapping_add((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// Claims the next unprocessed index from the cursor, or `None` once all
/// of `0..limit` are handed out. Each index goes to exactly one caller
/// because `fetch_add` is atomic.
/// xtask: no-alloc
fn claim(cursor: &AtomicUsize, limit: usize) -> Option<usize> {
    // relaxed-ok: claim uniqueness needs only the atomicity of fetch_add;
    // results are published through `OnceLock::set` and the scope join,
    // so no ordering rides on this counter.
    let index = cursor.fetch_add(1, Ordering::Relaxed);
    (index < limit).then_some(index)
}

/// Publishes one result into its reassembly cell. Returns `false` when
/// the cell was already filled — impossible while [`claim`] hands out
/// each index once (model-checked under `--cfg loom`).
fn publish<T>(cell: &OnceLock<T>, value: T) -> bool {
    cell.set(value).is_ok()
}

/// The index-ordered reassembly table of [`run_indexed`]. Always left
/// all-empty with its capacity intact, so a caller that keeps one across
/// calls pays for the table once.
#[derive(Debug)]
pub struct Cells<T>(pub(crate) Vec<OnceLock<T>>);

impl<T> Default for Cells<T> {
    fn default() -> Self {
        Self(Vec::new())
    }
}

/// A job's cell was empty after the join: a worker exited without
/// publishing. Unreachable by construction (the scope joins every worker
/// and each index is claimed exactly once); callers map it into their
/// own error type per the panic policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmptyCell;

/// Runs `job(0) … job(n − 1)` on up to `workers` threads and hands every
/// result to `drain` in index order.
///
/// # Errors
///
/// [`EmptyCell`] if any job's result is missing; every present result is
/// still drained first.
pub fn run_indexed<T, J, D>(
    workers: usize,
    n: usize,
    cells: &mut Cells<T>,
    job: J,
    mut drain: D,
) -> Result<(), EmptyCell>
where
    T: Send + Sync,
    J: Fn(usize) -> T + Sync,
    D: FnMut(T),
{
    cells.0.clear();
    cells.0.resize_with(n, OnceLock::new);
    let cursor = AtomicUsize::new(0);
    let table = &cells.0;
    let work = || {
        while let Some(index) = claim(&cursor, n) {
            // Always true: `claim` hands each index to one worker.
            let _ = publish(&table[index], job(index));
        }
    };
    let workers = workers.min(n);
    if workers <= 1 {
        work();
    } else {
        // `scope` joins every worker before returning and re-raises any
        // worker panic.
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(work);
            }
        });
    }

    let mut complete = true;
    for cell in &mut cells.0 {
        match cell.take() {
            Some(value) => drain(value),
            None => complete = false,
        }
    }
    if complete {
        Ok(())
    } else {
        Err(EmptyCell)
    }
}

#[cfg(all(test, loom))]
#[allow(clippy::unwrap_used)]
mod loom_tests {
    use super::{claim, publish};
    use crate::sync::{AtomicUsize, OnceLock};
    use loom::sync::Arc;
    use loom::thread;

    /// Exhaustively interleaves two workers draining a three-slot batch
    /// through the production `claim` / `publish` protocol: under every
    /// schedule each slot is claimed exactly once, every publish lands in
    /// a previously-empty cell, and after the join the table holds each
    /// slot's result exactly once.
    #[test]
    fn loom_claim_publish_fills_every_slot_exactly_once() {
        loom::model(|| {
            const SLOTS: usize = 3;
            let cursor = Arc::new(AtomicUsize::new(0));
            let table: Arc<Vec<OnceLock<usize>>> =
                Arc::new((0..SLOTS).map(|_| OnceLock::new()).collect());

            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let cursor = Arc::clone(&cursor);
                    let table = Arc::clone(&table);
                    thread::spawn(move || {
                        while let Some(index) = claim(&cursor, SLOTS) {
                            assert!(
                                publish(&table[index], index * 10),
                                "slot {index} was claimed twice"
                            );
                        }
                    })
                })
                .collect();
            for handle in handles {
                handle.join().unwrap();
            }

            let mut table = Arc::try_unwrap(table).ok().unwrap();
            for (index, cell) in table.iter_mut().enumerate() {
                assert_eq!(cell.take(), Some(index * 10), "slot {index} missing");
            }
        });
    }

    /// A cursor overshooting the slot count (more workers than work)
    /// never yields an in-range index twice and never blocks: late
    /// claimers see `None` and exit.
    #[test]
    fn loom_overshooting_claims_return_none() {
        loom::model(|| {
            let cursor = Arc::new(AtomicUsize::new(0));
            let claimed = Arc::new(OnceLock::new());

            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let cursor = Arc::clone(&cursor);
                    let claimed = Arc::clone(&claimed);
                    thread::spawn(move || match claim(&cursor, 1) {
                        Some(index) => {
                            assert!(publish(&claimed, index), "single slot claimed twice");
                        }
                        None => {}
                    })
                })
                .collect();
            for handle in handles {
                handle.join().unwrap();
            }

            let mut claimed = Arc::try_unwrap(claimed).ok().unwrap();
            assert_eq!(claimed.take(), Some(0));
        });
    }
}

#[cfg(all(test, not(loom)))]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn stream_seeds_are_distinct_across_indices_and_roots() {
        let mut seen = std::collections::BTreeSet::new();
        for root in 0..8u64 {
            for index in 0..64usize {
                assert!(seen.insert(stream_seed(root, index)));
            }
        }
    }

    #[test]
    fn results_drain_in_index_order_for_every_worker_count() {
        let mut cells = Cells::default();
        for workers in [0, 1, 2, 4, 64] {
            let mut seen = Vec::new();
            run_indexed(workers, 17, &mut cells, |i| i * i, |v| seen.push(v)).unwrap();
            assert_eq!(seen, (0..17).map(|i| i * i).collect::<Vec<_>>());
            assert!(cells.0.iter().all(|cell| cell.get().is_none()));
        }
        run_indexed(4, 0, &mut cells, |i| i, |_| unreachable!()).unwrap();
    }
}
