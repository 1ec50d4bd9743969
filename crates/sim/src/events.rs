//! Calendar-queue event scheduler keyed by tick.
//!
//! A discrete-time run only needs to *execute* the ticks at which
//! something is due — a workload update burst, a churn batch, a query
//! occasion. [`EventQueue`] is the priority queue that makes skipping
//! the empty ticks cheap: near-future ticks live in a fixed ring of
//! occupancy slots (one tick per slot, so schedule/pop are O(1)
//! amortised), and far-future ticks overflow into an ordered set that
//! migrates into the ring as the window slides. Per-run cost is
//! proportional to the number of *due* ticks, not to the horizon `T`
//! or the overlay size `N`.
//!
//! Determinism: the queue holds ticks (not payloads) and pops them in
//! strictly ascending order; duplicate schedules of the same tick
//! coalesce. Nothing here consumes randomness, so an event-driven run
//! replays byte-identically under any worker count.
//!
//! No driver in the workspace uses the queue: the one tick loop
//! (`runner::run_ticks`) skips idle spans from the
//! `next_activity` / `next_due` hints. It stays, with its tests, only
//! because `benchmark/`'s `sim.event_queue_ns` probe times it; delete it
//! with that probe in the next benchmark PR.

use std::collections::BTreeSet;

/// Width of the near-future ring: ticks in `[floor, floor + RING)` are
/// tracked by occupancy slot (each slot names exactly one tick of the
/// window), everything later waits in the overflow set.
const RING: usize = 1024;

/// A monotone priority queue of due ticks (calendar queue).
///
/// Ticks pop in ascending order. Scheduling a tick at or below the
/// queue's floor (the last popped tick + 1) clamps to the floor — a
/// past-due event fires at the next pop rather than being lost.
#[derive(Debug)]
pub struct EventQueue {
    /// Smallest tick that can still be scheduled or popped.
    floor: u64,
    /// Occupancy of the window `[floor, floor + RING)`; slot `t % RING`
    /// covers exactly one tick value of the window.
    near: Vec<bool>,
    /// Occupied slots in `near`.
    near_len: usize,
    /// Due ticks at or beyond `floor + RING`.
    far: BTreeSet<u64>,
    /// Distinct ticks scheduled over the queue's lifetime.
    scheduled: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// An empty queue with its window starting at tick 0.
    #[must_use]
    pub fn new() -> Self {
        Self {
            floor: 0,
            near: vec![false; RING],
            near_len: 0,
            far: BTreeSet::new(),
            scheduled: 0,
        }
    }

    /// Number of distinct ticks currently queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.near_len + self.far.len()
    }

    /// Whether no tick is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Distinct ticks scheduled over the queue's lifetime (after
    /// coalescing duplicates).
    #[must_use]
    pub fn total_scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Ring slot owning `tick`: `tick mod RING`, which always fits in
    /// `usize` because `RING` is a small compile-time constant.
    #[allow(clippy::cast_possible_truncation)]
    fn slot_of(tick: u64) -> usize {
        (tick % RING as u64) as usize
    }

    /// Schedules `tick` as due. Ticks below the floor clamp to the
    /// floor; duplicate schedules of one tick coalesce into one pop.
    pub fn schedule(&mut self, tick: u64) {
        let tick = tick.max(self.floor);
        if tick - self.floor < RING as u64 {
            let slot = Self::slot_of(tick);
            if !self.near[slot] {
                self.near[slot] = true;
                self.near_len += 1;
                self.scheduled += 1;
            }
        } else if self.far.insert(tick) {
            self.scheduled += 1;
        }
    }

    /// The smallest queued tick, without popping it.
    #[must_use]
    pub fn peek(&self) -> Option<u64> {
        if self.near_len > 0 {
            let mut t = self.floor;
            loop {
                if self.near[Self::slot_of(t)] {
                    return Some(t);
                }
                t += 1;
            }
        }
        self.far.first().copied()
    }

    /// Pops the smallest queued tick, advancing the window past it.
    pub fn pop_next(&mut self) -> Option<u64> {
        if self.near_len == 0 {
            // Slide the window to the earliest far entry, if any.
            let head = *self.far.first()?;
            self.floor = head;
        }
        self.migrate();
        // An occupied slot exists at or after the floor (every near
        // entry is >= floor by construction), so this scan terminates
        // within one lap; the floor only ever moves forward, so the
        // total scan work is amortised O(1) per pop.
        loop {
            let slot = Self::slot_of(self.floor);
            if self.near[slot] {
                self.near[slot] = false;
                self.near_len -= 1;
                let tick = self.floor;
                self.floor += 1;
                self.migrate();
                return Some(tick);
            }
            self.floor += 1;
        }
    }

    /// Moves far-future ticks that the sliding window now covers into
    /// their ring slots.
    fn migrate(&mut self) {
        let limit = self.floor + RING as u64;
        while let Some(&t) = self.far.first() {
            if t >= limit {
                break;
            }
            self.far.remove(&t);
            let slot = Self::slot_of(t);
            // Distinct window ticks occupy distinct slots, so the slot
            // is free whenever the tick was not already near-scheduled.
            if !self.near[slot] {
                self.near[slot] = true;
                self.near_len += 1;
            }
        }
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
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn pops_in_ascending_order_and_coalesces_duplicates() {
        let mut q = EventQueue::new();
        for t in [5u64, 3, 9, 3, 5, 7, 9] {
            q.schedule(t);
        }
        assert_eq!(q.len(), 4);
        assert_eq!(q.total_scheduled(), 4);
        let mut out = Vec::new();
        while let Some(t) = q.pop_next() {
            out.push(t);
        }
        assert_eq!(out, vec![3, 5, 7, 9]);
        assert!(q.is_empty());
    }

    #[test]
    fn past_due_schedules_clamp_to_the_floor() {
        let mut q = EventQueue::new();
        q.schedule(10);
        assert_eq!(q.pop_next(), Some(10));
        // The window has moved past 10: a "late" event still fires.
        q.schedule(4);
        assert_eq!(q.pop_next(), Some(11));
        assert_eq!(q.pop_next(), None);
    }

    #[test]
    fn far_future_ticks_overflow_and_migrate_back() {
        let mut q = EventQueue::new();
        let far = RING as u64 * 5 + 17;
        q.schedule(far);
        q.schedule(2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek(), Some(2));
        assert_eq!(q.pop_next(), Some(2));
        assert_eq!(q.peek(), Some(far));
        assert_eq!(q.pop_next(), Some(far));
        assert_eq!(q.pop_next(), None);
    }

    #[test]
    fn empty_tick_spans_cost_nothing_to_skip() {
        // Sparse schedule over a huge horizon: the pop count equals the
        // number of due ticks, independent of the gaps between them.
        let mut q = EventQueue::new();
        let ticks: Vec<u64> = (0..100).map(|i| i * 1_000_003).collect();
        for &t in ticks.iter().rev() {
            q.schedule(t);
        }
        let mut popped = Vec::new();
        while let Some(t) = q.pop_next() {
            popped.push(t);
        }
        assert_eq!(popped, ticks);
    }

    #[test]
    fn matches_btreeset_reference_under_random_interleaving() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        for _ in 0..50 {
            let mut q = EventQueue::new();
            let mut reference: BTreeSet<u64> = BTreeSet::new();
            let mut last_pop: u64 = 0;
            for _ in 0..400 {
                if rng.gen_bool(0.6) || reference.is_empty() {
                    // Mix of near, mid and far horizons.
                    let t = match rng.gen_range(0..3) {
                        0 => last_pop + rng.gen_range(0..64),
                        1 => last_pop + rng.gen_range(0..4 * RING as u64),
                        _ => last_pop + rng.gen_range(0..100 * RING as u64),
                    };
                    q.schedule(t);
                    // The queue clamps below-floor ticks to the floor
                    // (= last popped tick + 1 once anything popped).
                    reference.insert(t.max(q.floor));
                } else {
                    let expect = reference.pop_first();
                    let got = q.pop_next();
                    assert_eq!(got, expect);
                    if let Some(t) = got {
                        last_pop = t;
                    }
                }
            }
            let mut rest = Vec::new();
            while let Some(t) = q.pop_next() {
                rest.push(t);
            }
            assert_eq!(rest, reference.into_iter().collect::<Vec<_>>());
        }
    }
}
