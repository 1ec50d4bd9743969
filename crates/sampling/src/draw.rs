//! The walk's draw kernel: every random decision of a lazy Metropolis
//! walk (PAPER.md §V-A, Eq. 12), spending as few keystream words as the
//! chain's law allows.
//!
//! Both walkers — the occasion-snapshot walk in `executor` and the
//! live-graph [`crate::MetropolisWalk`] — draw through these three
//! functions in the same order, so given the same stream they take the
//! same trajectory (pinned by `snapshot_walk_is_byte_equivalent_to_metropolis_walk`).
//! A run of `L` steps is:
//!
//! 1. [`active_steps`]: a lazy step is a no-op, so of `L` steps only the
//!    *number* of non-lazy ones matters, Binomial(L, ½) — one `u64` per
//!    chunk of ≤ 64 steps, masked to the chunk and counted by popcount;
//! 2. then, per active step at a node with neighbours, [`uniform_below`]
//!    picks the proposal (Lemire's nearly divisionless widening multiply
//!    on one `u32`: a degree is a node count, below 2³²) and [`accept`] decides it
//!    against the edge's [`accept_threshold`] — one `u32` and, only on a
//!    tie (probability 2⁻³²), a second.
//!
//! The exactness of each draw is pinned by the unit tests below, and the
//! law of the whole walk against `P^L` by `tests/sampling_correctness.rs`.

use rand::RngCore;

/// Bits every [`accept_threshold`] fits in, [`ACCEPT_ALWAYS`] included:
/// the occasion snapshot packs a threshold into the low bits of a memo
/// word whose high bits stamp it.
pub(crate) const THRESHOLD_BITS: u32 = 54;

/// Sentinel threshold for "ratio ≥ 1": [`accept`] takes the proposal
/// *without drawing*. All ones in [`THRESHOLD_BITS`], and unambiguous: for
/// any ratio < 1 [`accept_threshold`] is at most `2⁵³ − 1`.
pub(crate) const ACCEPT_ALWAYS: u64 = (1 << THRESHOLD_BITS) - 1;

/// Low bits of a 53-bit acceptance threshold that only the tie-break word
/// of [`accept`] decides; the first word decides the high 32.
const TIE_BITS: u32 = 21;

/// Number of non-lazy steps among the next `steps` (each lazy with
/// probability ½): one `u64` per chunk of at most 64 steps, masked to the
/// chunk's length, summed by popcount.
/// xtask: no-alloc
#[inline]
pub(crate) fn active_steps<R: RngCore + ?Sized>(rng: &mut R, steps: u64) -> u64 {
    let mut left = steps;
    let mut active = 0;
    while left > 0 {
        let chunk = left.min(64);
        let mask = u64::MAX >> (64 - chunk);
        active += u64::from((rng.next_u64() & mask).count_ones());
        left -= chunk;
    }
    active
}

/// A uniform offset in `0..span` (`span ≥ 1`) by Lemire's nearly
/// divisionless widening multiply on one `u32` per attempt ("Fast Random
/// Integer Generation in an Interval", ACM TOMACS 2019): a low word `≥
/// span` is accepted outright, and only a low word below `span` pays the
/// modulo `2³² mod span` that decides whether to reject it. Since that
/// threshold is below `span`, every word is accepted or rejected exactly as
/// against a precomputed threshold, and the same words are read.
/// xtask: no-alloc
#[inline]
#[allow(clippy::cast_possible_truncation)] // the low and high halves of a u32 × u32 product
pub(crate) fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, span: u32) -> u32 {
    let mut m = u64::from(rng.next_u32()) * u64::from(span);
    if (m as u32) < span {
        let reject = span.wrapping_neg() % span;
        while (m as u32) < reject {
            m = u64::from(rng.next_u32()) * u64::from(span);
        }
    }
    (m >> 32) as u32
}

/// Whether an M–H proposal with acceptance threshold `threshold` (see
/// [`accept_threshold`]) is taken: a uniform 53-bit `u < threshold`,
/// decided on the first word's 32 high bits and, only when they tie the
/// threshold's, on the top 21 bits of a second word. [`ACCEPT_ALWAYS`]
/// draws nothing.
/// xtask: no-alloc
#[inline]
pub(crate) fn accept<R: RngCore + ?Sized>(rng: &mut R, threshold: u64) -> bool {
    if threshold == ACCEPT_ALWAYS {
        return true;
    }
    let (high, t_high) = (u64::from(rng.next_u32()), threshold >> TIE_BITS);
    if high != t_high {
        return high < t_high;
    }
    let low = u64::from(rng.next_u32() >> (32 - TIE_BITS));
    low < threshold & ((1 << TIE_BITS) - 1)
}

/// Folds an M–H acceptance ratio down to the integer threshold [`accept`]
/// compares a uniform 53-bit draw `m` against: ratio ≥ 1 is
/// [`ACCEPT_ALWAYS`], anything else `⌈ratio·2⁵³⌉`. Scaling by the power
/// of two 2⁵³ is exact in IEEE-754, so `m / 2⁵³ < ratio ⇔ m <
/// ⌈ratio·2⁵³⌉` — the same decision as `rand`'s `gen_bool(ratio)`, which
/// compares the 53 mantissa bits of one draw (pinned by a unit test
/// below). A NaN ratio follows `NaN.max(0.0) == 0.0` to a never-accept
/// threshold of 0.
///
/// The ceiling is taken by hand: the baseline x86-64 target has no
/// `roundsd`, so `f64::ceil` is an out-of-line call. `x` lies in
/// `[0, 2⁵³)`, where truncating to `i64` is exact floor and `t as f64`
/// exact, so `t` plus one exactly when `x` has a fraction is `⌈x⌉`.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
pub(crate) fn accept_threshold(ratio: f64) -> u64 {
    if ratio >= 1.0 {
        return ACCEPT_ALWAYS;
    }
    let x = ratio.max(0.0) * SCALE;
    let t = x as i64;
    (t + i64::from((t as f64) < x)) as u64
}

/// 2⁵³ — the mantissa scale of a uniform `f64` in [0, 1).
const SCALE: f64 = 9_007_199_254_740_992.0;

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Replays fixed `u32` words, then panics: a draw can be pinned to
    /// the exact words it reads.
    struct Words(std::vec::IntoIter<u32>);

    impl Words {
        fn new<const N: usize>(words: [u32; N]) -> Self {
            Self(Vec::from(words).into_iter())
        }
    }

    impl RngCore for Words {
        fn next_u32(&mut self) -> u32 {
            self.0.next().unwrap()
        }

        fn next_u64(&mut self) -> u64 {
            let lo = u64::from(self.next_u32());
            u64::from(self.next_u32()) << 32 | lo
        }
    }

    /// The 53-bit compare the split decision replaces, on the same two
    /// words: `hi` supplies the high 32 bits, the top 21 of `lo` the rest.
    fn joint(hi: u32, lo: u32, t: u64) -> bool {
        (u64::from(hi) << TIE_BITS | u64::from(lo >> (32 - TIE_BITS))) < t
    }

    /// Checks `accept` against `joint` for `t` on word pairs around the
    /// tie: the tie itself, either side of it, and the extremes.
    fn assert_split_matches(t: u64, r: &mut ChaCha8Rng) {
        let t_high = (t >> TIE_BITS) as u32;
        let mut highs = vec![
            0,
            u32::MAX,
            t_high,
            t_high.wrapping_sub(1),
            t_high.wrapping_add(1),
        ];
        highs.push(r.next_u32());
        let t_low = (t & ((1 << TIE_BITS) - 1)) as u32;
        let mut lows = vec![0, u32::MAX];
        for low in [t_low.wrapping_sub(1), t_low, t_low.wrapping_add(1)] {
            let low = low & ((1 << TIE_BITS) - 1);
            lows.extend([low << (32 - TIE_BITS), low << (32 - TIE_BITS) | 0x7ff]);
        }
        lows.push(r.next_u32());
        for &hi in &highs {
            for &lo in &lows {
                let mut words = Words::new([hi, lo]);
                assert_eq!(
                    accept(&mut words, t),
                    joint(hi, lo, t),
                    "t={t} hi={hi} lo={lo}"
                );
                // The second word is read exactly on a tie.
                assert_eq!(words.0.len(), usize::from(hi != t_high), "t={t} hi={hi}");
            }
        }
    }

    #[test]
    fn split_acceptance_is_the_53_bit_compare() {
        let mut r = ChaCha8Rng::seed_from_u64(1);
        let tie = 0x1234_5678u64 << TIE_BITS;
        for t in [0, 1, (1 << 21) - 1, 1 << 21, tie, (1 << 53) - 1] {
            assert_split_matches(t, &mut r);
        }
        for _ in 0..2_000 {
            let t = r.next_u64() >> 11;
            assert_split_matches(t, &mut r);
        }
        // The sentinel accepts without reading a word.
        let mut none = Words::new([]);
        assert!(accept(&mut none, ACCEPT_ALWAYS));
    }

    /// `accept_threshold`'s `m < t` on the 53 mantissa bits of a draw
    /// decides as `gen_bool(p)` does, for every probability class the
    /// acceptance ratio can produce below 1.
    #[test]
    fn thresholds_reproduce_gen_bool_exactly() {
        let ps = [
            0.0,
            1e-300,
            0.25,
            0.5,
            0.618_033_988_7,
            0.999_999,
            1.0 - f64::EPSILON,
        ];
        for (i, &p) in ps.iter().enumerate() {
            let t = accept_threshold(p);
            let mut live = ChaCha8Rng::seed_from_u64(100 + i as u64);
            let mut table = live.clone();
            for round in 0..128 {
                assert_eq!(
                    live.gen_bool(p),
                    (table.next_u64() >> 11) < t,
                    "p={p} round={round}"
                );
            }
        }
        assert_eq!(accept_threshold(1.0), ACCEPT_ALWAYS);
        assert_eq!(accept_threshold(37.5), ACCEPT_ALWAYS);
        assert_eq!(accept_threshold(f64::INFINITY), ACCEPT_ALWAYS);
        // NaN ratio: `NaN.max(0.0)` is 0.0 → never accept.
        assert_eq!(accept_threshold(f64::NAN), 0);
        // Every sub-unity threshold fits the split's 53 bits.
        assert_eq!(accept_threshold(1.0 - f64::EPSILON / 2.0), (1 << 53) - 1);
    }

    /// `accept_threshold` as it was written with `f64::ceil`: the
    /// reference the hand-taken ceiling is held to.
    fn ceil_threshold(ratio: f64) -> u64 {
        if ratio >= 1.0 {
            return ACCEPT_ALWAYS;
        }
        (ratio.max(0.0) * SCALE).ceil() as u64
    }

    /// A positive finite `x`'s neighbours one ulp either side.
    fn ulp_neighbours(x: f64) -> [f64; 3] {
        [
            f64::from_bits(x.to_bits() - 1),
            x,
            f64::from_bits(x.to_bits() + 1),
        ]
    }

    #[test]
    fn hand_taken_ceiling_equals_f64_ceil_at_the_edges() {
        let mut ratios = vec![
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::NEG_INFINITY,
            f64::INFINITY,
            -1.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            0.5,
        ];
        // The smallest subnormal, and 1 with the largest ratio below it:
        // (2⁵³ − 1) / 2⁵³, which scales to 2⁵³ − 1.
        ratios.extend(ulp_neighbours(f64::from_bits(1)));
        ratios.extend(ulp_neighbours(1.0));
        // Scaled integers and one ulp either side of them, then the
        // half-integers (representable while the scaled value is < 2⁵²).
        for k in [
            1u64,
            2,
            3,
            1 << 20,
            (1 << 52) - 1,
            1 << 52,
            (1 << 52) + 1,
            (1 << 53) - 1,
        ] {
            ratios.extend(ulp_neighbours(k as f64 / SCALE));
            if k < 1 << 52 {
                ratios.extend(ulp_neighbours((k as f64 + 0.5) / SCALE));
            }
        }
        ratios.extend(ulp_neighbours(0.5 / SCALE));
        for ratio in ratios {
            assert_eq!(
                accept_threshold(ratio),
                ceil_threshold(ratio),
                "ratio {ratio:e} ({:#x})",
                ratio.to_bits()
            );
        }
        assert_eq!(accept_threshold(1.0 - f64::EPSILON / 2.0), (1 << 53) - 1);
        assert_eq!(accept_threshold(f64::from_bits(1)), 1);
        assert_eq!(accept_threshold(-0.0), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Any bit pattern, any unit ratio and any scaled integer (with
        /// its ulp neighbours): the hand-taken ceiling is `f64::ceil`'s.
        #[test]
        fn hand_taken_ceiling_equals_f64_ceil(
            bits in 0u64..u64::MAX,
            unit in 0.0f64..1.0,
            k in 1u64..(1u64 << 53),
        ) {
            let mut ratios = vec![f64::from_bits(bits), unit];
            ratios.extend(ulp_neighbours(k as f64 / SCALE));
            for ratio in ratios {
                prop_assert_eq!(accept_threshold(ratio), ceil_threshold(ratio));
            }
        }
    }

    /// `2³² mod span`, the rejection threshold the proposal draw used to
    /// read from a per-node table (0 for an isolated node).
    fn reject_threshold(span: u32) -> u32 {
        if span == 0 {
            0
        } else {
            span.wrapping_neg() % span
        }
    }

    /// The proposal draw as it was written against that table: the
    /// reference [`uniform_below`] is held to, value and words.
    fn uniform_below_table<R: RngCore + ?Sized>(rng: &mut R, span: u32, reject: u32) -> u32 {
        loop {
            let m = u64::from(rng.next_u32()) * u64::from(span);
            if m as u32 >= reject {
                return (m >> 32) as u32;
            }
        }
    }

    /// Words whose low product with `span` lands below `span` — the only
    /// ones the draw takes its modulo for — with `x_k = ⌈k·2³² / span⌉`
    /// for a few `k`: `x_k·span − k·2³²` lies in `[0, span)`.
    fn slow_branch_words(span: u32) -> Vec<u32> {
        let s = u64::from(span);
        let mut words = Vec::new();
        for k in [0, 1, 2, s / 2, s.saturating_sub(1)] {
            if k < s {
                let x = ((k << 32).div_ceil(s)) as u32;
                words.extend([x, x.wrapping_sub(1), x.wrapping_add(1)]);
            }
        }
        words
    }

    /// Draws once with each form from `words` (each replaying them from
    /// the start, with `filler` after them), and asserts the same value
    /// and the same number of words read.
    fn assert_draws_alike(span: u32, words: &[u32], filler: &mut ChaCha8Rng) {
        let mut stream = words.to_vec();
        stream.extend((0..64).map(|_| filler.next_u32()));
        let (mut a, mut b) = (Words(stream.clone().into_iter()), Words(stream.into_iter()));
        assert_eq!(
            uniform_below(&mut a, span),
            uniform_below_table(&mut b, span, reject_threshold(span)),
            "span {span} words {words:?}"
        );
        assert_eq!(a.0.len(), b.0.len(), "span {span} words {words:?}");
    }

    /// The nearly divisionless draw takes the table form's decisions and
    /// reads its words: every span up to 4 096, and large random spans
    /// (where rejections are common), on words that take the modulo
    /// branch, words either side of them, and keystream words.
    #[test]
    fn uniform_below_is_the_table_form_value_and_words() {
        let mut r = ChaCha8Rng::seed_from_u64(4096);
        let large = (0..2_000).map(|_| r.next_u32() | 1 << 31);
        let spans: Vec<u32> = (1..=4096).chain(large).chain([u32::MAX, 1 << 31]).collect();
        for &span in &spans {
            for &word in &slow_branch_words(span) {
                assert_draws_alike(span, &[word], &mut r);
                // A rejected word followed by one that takes the branch.
                assert_draws_alike(span, &[0, word], &mut r);
            }
            assert_draws_alike(span, &[], &mut r);
            let mut fast = ChaCha8Rng::seed_from_u64(u64::from(span));
            let mut table = fast.clone();
            for _ in 0..8 {
                assert_eq!(
                    uniform_below(&mut fast, span),
                    uniform_below_table(&mut table, span, reject_threshold(span))
                );
            }
            assert_eq!(fast.next_u32(), table.next_u32(), "span {span}");
        }
    }

    /// For every span a proposal can have here, each output of
    /// `uniform_below` has exactly `⌊2³² / span⌋` accepted preimages: the
    /// `x` with `x·span ∈ [k·2³² + reject, (k + 1)·2³²)`, counted as the
    /// multiples of `span` in that interval.
    #[test]
    fn lemire_draw_is_exactly_uniform() {
        let ceil_div = |a: u64, b: u64| a.div_ceil(b);
        for span in 1u32..=64 {
            let (s, reject) = (u64::from(span), u64::from(reject_threshold(span)));
            assert_eq!(reject, (1u64 << 32) % s);
            for k in 0..s {
                let accepted = ceil_div((k + 1) << 32, s) - ceil_div((k << 32) + reject, s);
                assert_eq!(accepted, (1u64 << 32) / s, "span {span} output {k}");
            }
        }
        assert_eq!(reject_threshold(0), 0);
    }

    /// The draw is the multiply-shift on the words it reads: a rejected
    /// low word costs one more word, an accepted one returns its high half.
    #[test]
    fn lemire_draw_rejects_exactly_the_low_words_below_the_threshold() {
        let span = 3; // 2³² mod 3 = 1: only x = 0 has a low word below it.
        assert_eq!(reject_threshold(span), 1);
        let mut words = Words::new([0, u32::MAX]);
        assert_eq!(uniform_below(&mut words, span), 2);
        assert_eq!(words.0.len(), 0);
        let mut words = Words::new([0x8000_0000]);
        assert_eq!(uniform_below(&mut words, span), 1);
        for span in [1, 7, 64, u32::MAX] {
            let mut r = ChaCha8Rng::seed_from_u64(u64::from(span));
            for _ in 0..1_000 {
                assert!(uniform_below(&mut r, span) < span);
            }
        }
    }

    #[test]
    fn active_steps_is_a_popcount_over_exactly_the_steps_chunked_at_64() {
        for steps in [0u64, 1, 7, 23, 63, 64, 65, 127, 128, 130, 1_000] {
            let mut r = ChaCha8Rng::seed_from_u64(steps);
            let mut reference = r.clone();
            let mut want = 0;
            let mut left = steps;
            while left >= 64 {
                want += u64::from(reference.next_u64().count_ones());
                left -= 64;
            }
            if left > 0 {
                want += u64::from((reference.next_u64() & ((1 << left) - 1)).count_ones());
            }
            assert_eq!(active_steps(&mut r, steps), want, "steps {steps}");
            // One word pair per chunk, no more.
            assert_eq!(r.next_u64(), reference.next_u64(), "steps {steps}");
        }
        // All-ones words: every step of every chunk is active.
        let mut ones = Words::new([u32::MAX; 6]);
        assert_eq!(active_steps(&mut ones, 130), 130);
    }
}
