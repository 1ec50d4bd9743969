//! Metric primitives: atomic counters, gauges, and log-bucketed
//! histograms.
//!
//! All three are `const`-constructible so every metric in the workspace
//! is a `static` handle — reading or bumping one is a single relaxed
//! atomic operation, with no allocation, locking, or registration on the
//! hot path. Relaxed ordering is sufficient: metrics are monotone tallies
//! read at quiescent points (end of run / after thread joins), never used
//! for synchronisation.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing event tally.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a zeroed counter (usable in `static` position).
    #[must_use]
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        // relaxed-ok: monotone tally; read only at quiescent points.
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1 to the counter.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        // relaxed-ok: read at quiescent points (end of run / post-join).
        self.0.load(Ordering::Relaxed)
    }

    /// Resets the counter to zero (between runs; not a hot-path call).
    pub fn reset(&self) {
        // relaxed-ok: reset happens between runs, never concurrently.
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A last-value-wins instantaneous measurement (stored as `f64` bits).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Creates a gauge holding `0.0` (usable in `static` position).
    #[must_use]
    pub const fn new() -> Self {
        // 0u64 is the bit pattern of +0.0_f64.
        Self(AtomicU64::new(0))
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        // relaxed-ok: last-value-wins sample; read at quiescent points.
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        // relaxed-ok: read at quiescent points (end of run / post-join).
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Resets the gauge to `0.0`.
    pub fn reset(&self) {
        // relaxed-ok: reset happens between runs, never concurrently.
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Number of histogram buckets: bucket 0 holds exact zeros, bucket `b`
/// (1 ≤ b ≤ 64) holds values with `b` significant bits, i.e. the range
/// `[2^(b−1), 2^b)`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log₂-bucketed histogram of `u64` observations.
///
/// Bucketing by bit length keeps recording allocation-free and O(1)
/// while still answering the profiling questions that matter here —
/// "how long are burn-ins / scheduler delays, order-of-magnitude-wise,
/// and how skewed" — with ≤ 2× relative resolution everywhere.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

/// `AtomicU64` lacks `Copy`, so array-repeat initialisation goes through
/// a named constant. The const is only ever used as an initialiser (each
/// repeat produces its own atomic), never borrowed through.
#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram (usable in `static` position).
    #[must_use]
    pub const fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: [ZERO; HISTOGRAM_BUCKETS],
        }
    }

    /// Bucket index for a value: its bit length (0 for 0).
    #[must_use]
    pub fn bucket_of(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Upper bound (exclusive) of bucket `b`; `u64::MAX` for the last.
    #[must_use]
    pub fn bucket_upper(bucket: usize) -> u64 {
        if bucket == 0 {
            1
        } else if bucket >= 64 {
            u64::MAX
        } else {
            1u64 << bucket
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed); // relaxed-ok: monotone tally
        self.sum.fetch_add(value, Ordering::Relaxed); // relaxed-ok: monotone tally
        self.max.fetch_max(value, Ordering::Relaxed); // relaxed-ok: monotone max
                                                      // relaxed-ok: monotone tally; fields are summarised independently
                                                      // at quiescent points, so no cross-field ordering is needed.
        self.buckets[Self::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` observations of the same `value` with one update per
    /// field — what `n` calls of [`Histogram::record`] leave behind, for
    /// callers that tally a batch locally and flush it once. `n == 0`
    /// records nothing. The sum's addend saturates at `u64::MAX` instead
    /// of wrapping when `value · n` overflows.
    #[inline]
    pub fn record_n(&self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let total = value.saturating_mul(n);
        self.count.fetch_add(n, Ordering::Relaxed); // relaxed-ok: monotone tally
        self.sum.fetch_add(total, Ordering::Relaxed); // relaxed-ok: monotone tally
        self.max.fetch_max(value, Ordering::Relaxed); // relaxed-ok: monotone max
        let bucket = &self.buckets[Self::bucket_of(value)];
        bucket.fetch_add(n, Ordering::Relaxed); // relaxed-ok: monotone tally, as in `record`
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        // relaxed-ok: read at quiescent points (end of run / post-join).
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> u64 {
        // relaxed-ok: read at quiescent points (end of run / post-join).
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest observation (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        // relaxed-ok: read at quiescent points (end of run / post-join).
        self.max.load(Ordering::Relaxed)
    }

    /// Mean observation (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Per-bucket counts.
    #[must_use]
    pub fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        let mut out = [0u64; HISTOGRAM_BUCKETS];
        for (slot, bucket) in out.iter_mut().zip(self.buckets.iter()) {
            // relaxed-ok: read at quiescent points (end of run / post-join).
            *slot = bucket.load(Ordering::Relaxed);
        }
        out
    }

    /// Upper bound of the bucket containing the `q`-quantile
    /// (`0.0 ≤ q ≤ 1.0`); 0 when empty. A ≤ 2× overestimate by
    /// construction — good enough for summary tables.
    #[must_use]
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * n as f64).ceil().max(1.0);
        let mut cumulative = 0.0;
        for (bucket, count) in self.bucket_counts().iter().enumerate() {
            cumulative += *count as f64;
            if cumulative >= target {
                return Self::bucket_upper(bucket).min(self.max());
            }
        }
        self.max()
    }

    /// Interpolated `q`-quantile estimate (`0.0 ≤ q ≤ 1.0`); 0.0 when
    /// empty. The target rank is positioned linearly *within* its log₂
    /// bucket (between the bucket's lower bound and its upper bound
    /// clamped to the observed max), which recovers exact answers for
    /// single-bucket distributions and stays within the ≤ 2× bucket
    /// resolution everywhere else — a strict refinement of
    /// [`Histogram::quantile_upper_bound`] for summary tables.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let max = self.max() as f64;
        let target = (q.clamp(0.0, 1.0) * n as f64).clamp(1.0, n as f64);
        let mut below = 0.0;
        for (bucket, count) in self.bucket_counts().iter().enumerate() {
            let in_bucket = *count as f64;
            if in_bucket <= 0.0 {
                continue;
            }
            if below + in_bucket >= target {
                let lower = if bucket == 0 {
                    0.0
                } else {
                    Self::bucket_upper(bucket - 1) as f64
                };
                let upper = (Self::bucket_upper(bucket) as f64).min(max);
                let frac = ((target - below) / in_bucket).clamp(0.0, 1.0);
                return (lower + frac * (upper - lower).max(0.0)).min(max);
            }
            below += in_bucket;
        }
        max
    }

    /// Clears all observations.
    pub fn reset(&self) {
        self.count.store(0, Ordering::Relaxed); // relaxed-ok: between runs
        self.sum.store(0, Ordering::Relaxed); // relaxed-ok: between runs
        self.max.store(0, Ordering::Relaxed); // relaxed-ok: between runs
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed); // relaxed-ok: between runs
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

    #[test]
    fn counter_adds_and_resets() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn gauge_round_trips_floats() {
        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(0.375);
        assert_eq!(g.get(), 0.375);
        g.set(-1.5);
        assert_eq!(g.get(), -1.5);
        g.reset();
        assert_eq!(g.get(), 0.0);
    }

    #[test]
    fn histogram_bucket_edges() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        assert_eq!(Histogram::bucket_upper(0), 1);
        assert_eq!(Histogram::bucket_upper(2), 4);
        assert_eq!(Histogram::bucket_upper(64), u64::MAX);
    }

    #[test]
    fn histogram_statistics() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 106);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 21.2).abs() < 1e-12);
        let buckets = h.bucket_counts();
        assert_eq!(buckets[0], 1); // the zero
        assert_eq!(buckets[1], 1); // 1
        assert_eq!(buckets[2], 2); // 2, 3
        assert_eq!(buckets[7], 1); // 100 ∈ [64, 128)
                                   // Median bucket upper bound: 3rd of 5 observations lands in
                                   // bucket 2 → upper bound 4.
        assert_eq!(h.quantile_upper_bound(0.5), 4);
        // Extreme quantile is clamped to the observed max.
        assert_eq!(h.quantile_upper_bound(1.0), 100);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_upper_bound(0.5), 0);
    }

    fn fields(h: &Histogram) -> (u64, u64, u64, [u64; HISTOGRAM_BUCKETS]) {
        (h.count(), h.sum(), h.max(), h.bucket_counts())
    }

    #[test]
    fn record_n_equals_n_records() {
        for value in [0, 1, 23, 95, u64::MAX] {
            // `n · value` overflows only for `u64::MAX`, where `record`'s
            // own sum wraps; the two agree up to the last `n` that fits.
            let fits = if value == u64::MAX { 1 } else { 7 };
            for n in 0..=fits {
                let (batched, looped) = (Histogram::new(), Histogram::new());
                // A prior observation, so `n == 0` leaving `max` alone shows.
                batched.record(5);
                looped.record(5);
                batched.record_n(value, n);
                for _ in 0..n {
                    looped.record(value);
                }
                assert_eq!(fields(&batched), fields(&looped), "{value} × {n}");
            }
        }
    }

    #[test]
    fn record_n_saturates_the_addend_instead_of_wrapping() {
        let h = Histogram::new();
        h.record_n(u64::MAX, 3);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), u64::MAX, "3 · u64::MAX pins, it does not wrap");
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.bucket_counts()[64], 3);
        let h = Histogram::new();
        h.record_n(u64::MAX / 2 + 1, 2);
        assert_eq!(h.sum(), u64::MAX);
    }

    #[test]
    fn quantile_is_exact_for_constant_distributions() {
        let h = Histogram::new();
        for _ in 0..10 {
            h.record(64);
        }
        // The single occupied bucket's upper bound clamps to the max, so
        // interpolation collapses to the exact value.
        assert_eq!(h.quantile(0.5), 64.0);
        assert_eq!(h.quantile(0.99), 64.0);
        let zeros = Histogram::new();
        for _ in 0..5 {
            zeros.record(0);
        }
        assert_eq!(zeros.quantile(0.5), 0.0);
        assert_eq!(Histogram::new().quantile(0.5), 0.0);
    }

    #[test]
    fn quantile_interpolates_uniform_distribution() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        // log₂ buckets give ≤ 2× resolution; linear interpolation within
        // the bucket should land well inside that envelope for a uniform
        // distribution.
        for (q, truth) in [(0.5, 500.0), (0.95, 950.0), (0.99, 990.0)] {
            let est = h.quantile(q);
            let rel = (est - truth).abs() / truth;
            assert!(
                rel < 0.30,
                "p{:.0} estimate {est} vs true {truth} (rel err {rel:.3})",
                q * 100.0
            );
        }
        // Monotone in q and clamped to the observed extremes.
        assert!(h.quantile(0.5) <= h.quantile(0.95));
        assert!(h.quantile(0.95) <= h.quantile(0.99));
        assert!(h.quantile(1.0) <= 1000.0);
    }

    #[test]
    fn quantile_handles_skewed_distributions() {
        let h = Histogram::new();
        // 99 small values and one huge outlier: p50 must stay small,
        // p99+ must reach toward the outlier's bucket.
        for _ in 0..99 {
            h.record(3);
        }
        h.record(1_000_000);
        assert!(h.quantile(0.5) <= 4.0, "p50 {}", h.quantile(0.5));
        assert!(h.quantile(0.999) > 1000.0, "p99.9 {}", h.quantile(0.999));
    }
}
