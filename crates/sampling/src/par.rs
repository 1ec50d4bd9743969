//! The one deterministic parallel substrate: a fixed partition of the job
//! indices with in-order drain, plus counter-derived seeds.
//!
//! The paper's batch mode invokes `S` n times *simultaneously* (§VI-A);
//! the two places this workspace makes that simultaneity real on threads
//! — an occasion's walk batch (`executor::run_tuple_batch`) and a
//! replication set (`digest-sim::parallel::run_replications_with_workers`)
//! — run through [`run_indexed`]:
//!
//! * **Jobs that read only their own stream.** Each job's RNG is a pure
//!   function of one root `u64` and the job's index, so every result is
//!   byte-identical for any worker count. A walk batch's job is a slot,
//!   reading its own ChaCha8 stream (its nonce) of one key the batch
//!   expands from the root; a replication is seeded by its index. [`stream_seed`]`(root, index)` seeds no walk slot
//!   any more: it derives the flat simulator's two seeds.
//! * **Fixed ranges on scoped threads.** `0..n` is cut into at most
//!   `workers` contiguous ranges. The calling thread runs the first;
//!   each other range runs on its own `std::thread::scope` thread into a
//!   `Vec` that thread owns. The substrate keeps no atomic, lock or
//!   shared table: the threads share only `&init` and `&job`. Each range
//!   carries a scratch value of its own, which is how a walk batch reuses
//!   one keystream group across eight slots.
//! * **In-order drain.** The first range's results are drained as they
//!   are computed, then each other range's after its join, in range
//!   order — so thread scheduling can influence neither the output
//!   order, nor a floating-point merge order, nor which error surfaces
//!   first. With one range no thread is spawned and nothing is buffered.

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

/// Runs `job(scratch, 0) … job(scratch, n − 1)` on up to `workers`
/// threads and hands every result to `drain` in index order.
///
/// The calling thread runs `0..⌈n / workers⌉` and drains each result
/// before it starts the next job; every further range of that length
/// runs on a scoped thread. Each range gets its own `scratch` from
/// `init()` and passes it to its jobs in index order: a job may leave in
/// it what a later job of its range can reuse, but what it returns must
/// not depend on that, or the results would depend on where the ranges
/// are cut. A panic in any job is re-raised on the caller.
pub fn run_indexed<S, T, I, J, D>(workers: usize, n: usize, init: I, job: J, mut drain: D)
where
    T: Send,
    I: Fn() -> S + Sync,
    J: Fn(&mut S, usize) -> T + Sync,
    D: FnMut(T),
{
    let len = n.div_ceil(workers.max(1)).max(1);
    let head = 0..len.min(n);
    if head.end == n {
        // One range: nothing to spawn, so skip the scope and the shared
        // state it allocates on every call.
        let mut scratch = init();
        head.for_each(|index| drain(job(&mut scratch, index)));
        return;
    }
    std::thread::scope(|scope| {
        let (init, job) = (&init, &job);
        let tails: Vec<_> = (len..n)
            .step_by(len)
            .map(|start| {
                scope.spawn(move || {
                    let mut scratch = init();
                    (start..n.min(start + len))
                        .map(|index| job(&mut scratch, index))
                        .collect::<Vec<T>>()
                })
            })
            .collect();
        let mut scratch = init();
        head.for_each(|index| drain(job(&mut scratch, index)));
        for tail in tails {
            match tail.join() {
                Ok(results) => results.into_iter().for_each(&mut drain),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::sync::Mutex;

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
    fn every_index_runs_once_and_drains_in_order() {
        for workers in [0, 1, 2, 3, 4, 16, 17, 18, 64] {
            for n in [0, 1, 2, 16, 17, 18] {
                let calls = Mutex::new(vec![0u32; n]);
                let mut seen = Vec::new();
                run_indexed(
                    workers,
                    n,
                    || (),
                    |(), i| {
                        calls.lock().unwrap()[i] += 1;
                        i * i
                    },
                    |v| seen.push(v),
                );
                let expected: Vec<usize> = (0..n).map(|i| i * i).collect();
                assert_eq!(seen, expected, "workers {workers}, n {n}");
                assert!(
                    calls.into_inner().unwrap().iter().all(|&c| c == 1),
                    "workers {workers}, n {n}"
                );
            }
        }
    }

    /// One worker keeps no table: `job(i + 1)` starts only after
    /// `drain(i)` has returned.
    #[test]
    fn one_worker_drains_each_result_before_the_next_job() {
        let log = Mutex::new(Vec::new());
        run_indexed(
            1,
            5,
            || (),
            |(), i| {
                log.lock().unwrap().push(("job", i));
                i
            },
            |i| log.lock().unwrap().push(("drain", i)),
        );
        let expected: Vec<_> = (0..5).flat_map(|i| [("job", i), ("drain", i)]).collect();
        assert_eq!(log.into_inner().unwrap(), expected);
    }

    /// Each range gets a fresh scratch and runs its jobs through it in
    /// index order: a job sees exactly the indices of its range before it.
    #[test]
    fn each_range_threads_its_own_scratch_in_index_order() {
        for workers in [1, 2, 3, 4] {
            let n: usize = 17;
            let len = n.div_ceil(workers);
            let mut seen = Vec::new();
            run_indexed(
                workers,
                n,
                Vec::new,
                |before: &mut Vec<usize>, i| {
                    before.push(i);
                    before.clone()
                },
                |before| seen.push(before),
            );
            for (i, before) in seen.iter().enumerate() {
                let expected: Vec<usize> = (i / len * len..=i).collect();
                assert_eq!(before, &expected, "workers {workers}, job {i}");
            }
            assert_eq!(seen.len(), n);
        }
    }

    #[test]
    #[should_panic(expected = "job 5 failed")]
    fn a_panic_on_a_spawned_range_reaches_the_caller() {
        // Four workers over eight jobs: ranges of two, so job 5 runs on
        // the third range's thread, not the caller's.
        run_indexed(
            4,
            8,
            || (),
            |(), i| assert!(i != 5, "job {i} failed"),
            |()| {},
        );
    }
}
