//! Which of `n` independent Bernoulli(`p`) trials succeed, at the cost of
//! the successes.
//!
//! A churn step asks every live node "do you leave?" and the MEMORY
//! generator asks every unit "do you update?"; at 10⁵ nodes and `p` around
//! 10⁻⁵ … 10⁻² almost every answer is no, and one RNG word per question is
//! most of the tick. The distance from one success to the next is
//! geometric, so [`BernoulliHits`] draws that distance instead: one word
//! per success plus one to run off the end.

use rand::RngCore;

/// The indices of the successes among `n` Bernoulli(`p`) trials, handed out
/// in increasing order by [`BernoulliHits::next`].
///
/// Every call that has trials left draws exactly one `u64`,
/// `u = ((x >> 11) + 1)·2⁻⁵³ ∈ (0, 1]`, and skips `⌊ln u / ln(1 − p)⌋`
/// failures (the floor taken by the compare and the cast): `P(skip ≥ k) = P(u ≤ (1 − p)ᵏ) = (1 − p)ᵏ`. The walk restarts
/// with every value — nothing is carried from one trial sequence to the
/// next, so the stream does not depend on what happened to the list in
/// between.
///
/// `p` saturates as `gen_bool`'s comparison does: `p ≤ 0` (or NaN) yields
/// nothing and draws nothing, `p ≥ 1` yields `0..n`.
#[derive(Debug, Clone)]
pub struct BernoulliHits {
    /// First trial not yet decided.
    next: usize,
    /// Number of trials.
    n: usize,
    /// `1 / ln(1 − p)`: negative, `-0.0` at `p ≥ 1`.
    inv_ln_q: f64,
}

impl BernoulliHits {
    /// Trials `0..n`, each succeeding with probability `p`.
    #[must_use]
    pub fn new(n: usize, p: f64) -> Self {
        Self {
            next: 0,
            n: if p > 0.0 { n } else { 0 },
            inv_ln_q: if p < 1.0 { (-p).ln_1p().recip() } else { -0.0 },
        }
    }

    /// The next success, or `None` once the trials are exhausted (after
    /// which it draws nothing more).
    /// xtask: no-alloc
    #[inline]
    pub fn next<R: RngCore + ?Sized>(&mut self, rng: &mut R) -> Option<usize> {
        if self.next >= self.n {
            return None;
        }
        let u = ((rng.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64);
        // `⌊skip⌋` without `floor` (a library call on the baseline x86-64
        // target): `skip` is ≥ 0 (or `-0.0`), NaN or ∞, so `skip < m` for
        // a whole `m` and the truncating cast decide as `⌊skip⌋` would.
        let skip = u.ln() * self.inv_ln_q;
        // Compared as floats: a skip past the end does not fit an index
        // (and `0 · ∞` at a subnormal `p` is NaN, which also ends here).
        if skip < (self.n - self.next) as f64 {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let hit = self.next + skip as usize;
            self.next = hit + 1;
            Some(hit)
        } else {
            self.next = self.n;
            None
        }
    }
}

/// An RNG that counts the words drawn through it — how this module's and
/// the churn step's tests hold a draw to the cost of its successes.
#[cfg(test)]
pub(crate) struct Counting<R> {
    pub(crate) inner: R,
    pub(crate) words: usize,
}

#[cfg(test)]
impl<R: RngCore> RngCore for Counting<R> {
    fn next_u32(&mut self) -> u32 {
        self.words += 1;
        self.inner.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.words += 1;
        self.inner.next_u64()
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
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn counting(seed: u64) -> Counting<ChaCha8Rng> {
        Counting {
            inner: ChaCha8Rng::seed_from_u64(seed),
            words: 0,
        }
    }

    /// Every word the same: `u64::MAX` is `u = 1` (no skip), `0` is the
    /// smallest `u` (the longest skip).
    struct Constant(u64);

    impl RngCore for Constant {
        fn next_u32(&mut self) -> u32 {
            self.0 as u32
        }

        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    fn hits<R: RngCore>(n: usize, p: f64, rng: &mut R) -> Vec<usize> {
        let mut draw = BernoulliHits::new(n, p);
        std::iter::from_fn(|| draw.next(rng)).collect()
    }

    #[test]
    fn indices_increase_and_cost_one_word_each() {
        for (k, &p) in [0.0, 2e-5, 0.01, 0.3, 1.0].iter().enumerate() {
            for &n in &[0usize, 1, 1_000, 200_000] {
                let mut rng = counting(17 + k as u64);
                let out = hits(n, p, &mut rng);
                assert!(out.windows(2).all(|w| w[0] < w[1]), "p={p} n={n}");
                assert!(out.last().is_none_or(|&i| i < n), "p={p} n={n}");
                assert!(rng.words <= out.len() + 1, "p={p} n={n}: {}", rng.words);
                if p == 0.0 {
                    assert_eq!((out.len(), rng.words), (0, 0));
                }
                if p == 1.0 {
                    assert!(out.iter().copied().eq(0..n));
                }
            }
        }
    }

    #[test]
    fn an_exhausted_draw_stays_exhausted_and_silent() {
        let mut rng = counting(3);
        let mut draw = BernoulliHits::new(50, 0.2);
        while draw.next(&mut rng).is_some() {}
        let words = rng.words;
        assert_eq!(draw.next(&mut rng), None);
        assert_eq!(rng.words, words);
    }

    #[test]
    fn out_of_range_probabilities_saturate_without_panicking() {
        for p in [f64::NAN, -1.0, -0.0, f64::NEG_INFINITY] {
            let mut rng = counting(5);
            assert!(hits(100, p, &mut rng).is_empty(), "p={p}");
            assert_eq!(rng.words, 0, "p={p}");
        }
        for p in [1.5, f64::INFINITY] {
            assert!(hits(100, p, &mut counting(5)).into_iter().eq(0..100));
        }
        // The extreme words at the extreme rates: the longest skip at the
        // smallest p overflows every index, `u = 1` at a subnormal p is
        // `0 · ∞`, and neither is a hit.
        let subnormal = f64::MIN_POSITIVE / 16.0;
        for p in [subnormal, 1e-300] {
            assert!(hits(usize::MAX, p, &mut Constant(0)).is_empty(), "p={p}");
        }
        assert!(hits(9, subnormal, &mut Constant(u64::MAX)).is_empty());
        assert_eq!(hits(3, 0.5, &mut Constant(u64::MAX)), vec![0, 1, 2]);
        // u = 2⁻⁵³ at p = ½ skips exactly 53.
        assert_eq!(hits(54, 0.5, &mut Constant(0)), vec![53]);
        assert!(hits(53, 0.5, &mut Constant(0)).is_empty());
    }

    /// Pearson's χ² of `observed` against `expected` counts.
    fn chi_square(observed: &[f64], expected: &[f64]) -> f64 {
        observed
            .iter()
            .zip(expected)
            .map(|(o, e)| (o - e).powi(2) / e)
            .sum()
    }

    /// 10⁶ trials per rate: the hit count within 4σ of `np`, the hits spread
    /// evenly over the range, the gaps between them geometric.
    #[test]
    fn hits_follow_the_bernoulli_process() {
        let n = 1_000_000usize;
        for (seed, p) in [(101, 0.001), (102, 0.01), (103, 0.3)] {
            let out = hits(n, p, &mut counting(seed));
            let mean = n as f64 * p;
            let sigma = (mean * (1.0 - p)).sqrt();
            assert!(
                (out.len() as f64 - mean).abs() < 4.0 * sigma,
                "p={p}: {} hits, expected {mean} ± {sigma}",
                out.len()
            );

            let mut buckets = [0.0f64; 16];
            for &i in &out {
                buckets[i * 16 / n] += 1.0;
            }
            let even = [out.len() as f64 / 16.0; 16];
            // χ²₁₅ exceeds 44.3 once in 10⁴.
            let chi = chi_square(&buckets, &even);
            assert!(chi < 44.3, "p={p}: positions χ² = {chi}");

            // Failures before each hit: k with probability p(1 − p)ᵏ, in
            // cells of `width` values with the last one taking the tail.
            let width = (0.2 / p).round().max(1.0) as usize;
            let mut gaps = [0.0f64; 12];
            let mut from = 0;
            for &i in &out {
                gaps[((i - from) / width).min(11)] += 1.0;
                from = i + 1;
            }
            let survive = |cell: usize| (1.0 - p).powi((cell * width) as i32);
            let pmf: Vec<f64> = (0..12)
                .map(|j| survive(j) - if j < 11 { survive(j + 1) } else { 0.0 })
                .map(|share| share * out.len() as f64)
                .collect();
            // χ²₁₁ exceeds 39.0 once in 10⁴ (the truncation at `n` only
            // touches the one gap that runs off the end).
            let chi = chi_square(&gaps, &pmf);
            assert!(chi < 39.0, "p={p}: gaps χ² = {chi}");
        }
    }

    /// [`BernoulliHits::next`] as it was written, with `floor` taken
    /// before the compare and the cast: the reference the draw is held to.
    fn floor_hits<R: RngCore>(n: usize, p: f64, rng: &mut R) -> Vec<usize> {
        let mut draw = BernoulliHits::new(n, p);
        std::iter::from_fn(|| {
            if draw.next >= draw.n {
                return None;
            }
            let u = ((rng.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64);
            let skip = (u.ln() * draw.inv_ln_q).floor();
            if skip < (draw.n - draw.next) as f64 {
                #[allow(clippy::cast_sign_loss)]
                let hit = draw.next + skip as usize;
                draw.next = hit + 1;
                Some(hit)
            } else {
                draw.next = draw.n;
                None
            }
        })
        .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Without `floor` the draw makes the same hits from the same
        /// words as with it, at any rate (subnormal and saturated ones
        /// included) and on the extreme words.
        #[test]
        fn hits_and_words_are_the_floor_forms(
            n in prop_oneof![0usize..5_000, Just(usize::MAX)],
            p in prop_oneof![
                0.0f64..1.0,
                1e-12f64..1e-3,
                0.999f64..1.0,
                Just(f64::MIN_POSITIVE / 16.0),
                Just(1.0 - f64::EPSILON / 2.0),
                -1.0f64..2.0,
            ],
            seed in 0u64..1_000_000,
            word in prop_oneof![Just(0u64), Just(u64::MAX), 0u64..u64::MAX],
        ) {
            // The whole index range only where the hits stay few.
            let n = if n == usize::MAX && p > 1e-15 { 5_000 } else { n };
            let (mut a, mut b) = (counting(seed), counting(seed));
            prop_assert_eq!(hits(n, p, &mut a), floor_hits(n, p, &mut b));
            prop_assert_eq!(a.words, b.words);
            let n = n.min(64);
            prop_assert_eq!(
                hits(n, p, &mut Constant(word)),
                floor_hits(n, p, &mut Constant(word))
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn any_rate_and_length_yield_a_sorted_subset(
            n in 0usize..5_000,
            p in prop_oneof![Just(0.0), Just(1.0), 0.0f64..1.0, 1e-9f64..1e-3, -1.0f64..2.0],
            seed in 0u64..1_000_000,
        ) {
            let mut rng = counting(seed);
            let out = hits(n, p, &mut rng);
            prop_assert!(out.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(out.last().is_none_or(|&i| i < n));
            prop_assert!(rng.words <= out.len() + 1);
            if p <= 0.0 {
                prop_assert!(out.is_empty() && rng.words == 0);
            }
            if p >= 1.0 {
                prop_assert!(out.iter().copied().eq(0..n));
            }
        }
    }
}
