//! Property-based tests of the mergeable sketches (DESIGN.md §17).
//!
//! Four families, mirroring the `digest-stats` proptest idiom:
//!
//! * **merge algebra** — merging is commutative and associative
//!   *byte-for-byte* (equal canonical serializations, not just equal
//!   estimates), and a merge of shard sketches equals the sketch of the
//!   concatenated stream. This is what lets the sweep estimator combine
//!   per-node states in any grouping without perturbing the §VI replay
//!   gate. Space-saving associativity is pinned on the truncation-free
//!   regime (capacity ≥ distinct cells), per its documented contract.
//! * **serialization** — `deserialize(serialize(s))` reproduces the
//!   exact byte string (the canonical-form invariant behind replay and
//!   audit byte-identity).
//! * **hostile bytes** — `deserialize` answers `Ok` or `Err`, never a
//!   panic, on arbitrary bytes and on a valid serialization with a few
//!   bytes or words overwritten or its tail cut off; whatever it accepts
//!   is canonical (re-serializes to the same bytes).
//! * **error bounds** — over 18 pinned ChaCha8 seeds, each sketch's
//!   estimate stays inside its documented bound against the exact
//!   answer: UDDSketch within relative `2α/(1−α)` on the median, HLL++
//!   within `3σ` (`σ = 1.04/√m`) on the cardinality, space-saving
//!   within the `ε = 2k/capacity` mass bound on the top-k fraction.

// Tests may panic freely; the workspace deny-lints target library code.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    clippy::cast_precision_loss,
    clippy::cast_possible_truncation
)]

use digest_sketch::{HllSketch, SpaceSavingSketch, UddSketch};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;

const ALPHA0: f64 = 0.01;
const MAX_BUCKETS: usize = 64;
const P_BITS: u8 = 10;
/// Space-saving capacity for the algebra tests: at least the distinct
/// cell count of the generated streams, so no merge ever truncates and
/// associativity is exact per the documented contract.
const SS_CAPACITY: usize = 64;

fn udd_of(values: &[f64]) -> UddSketch {
    let mut s = UddSketch::new(ALPHA0, MAX_BUCKETS).unwrap();
    for v in values {
        s.accumulate(*v);
    }
    s
}

fn hll_of(keys: &[u64]) -> HllSketch {
    let mut s = HllSketch::new(P_BITS).unwrap();
    for k in keys {
        s.accumulate_key(*k);
    }
    s
}

fn ss_of(cells: &[i64]) -> SpaceSavingSketch {
    let mut s = SpaceSavingSketch::new(SS_CAPACITY).unwrap();
    for c in cells {
        s.accumulate_cell(*c);
    }
    s
}

fn values(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, len)
}

fn keys(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..u64::MAX, len)
}

/// Cells drawn from a 32-value domain: half of `SS_CAPACITY`, so the
/// summaries stay exact and merge algebra holds byte-for-byte.
fn cells(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(-16i64..16, len)
}

/// One piece of damage to a serialized sketch: what, where, with what.
type Edit = (u8, usize, u64);

fn edits() -> impl Strategy<Value = Vec<Edit>> {
    prop::collection::vec((0u8..3, 0usize..1 << 20, 0u64..u64::MAX), 1..5)
}

/// Values a length, count or index field is least likely to survive.
const EXTREMES: [u64; 6] = [0, 1, 1 << 63, u64::MAX - 1, u64::MAX, (1 << 63) - 1];

/// Applies `edits` to `bytes`: overwrite one byte, overwrite one of the
/// big-endian words that follow the 4-byte magic with an extreme, or
/// truncate.
fn damage(mut bytes: Vec<u8>, edits: &[Edit]) -> Vec<u8> {
    for &(kind, at, with) in edits {
        let words = bytes.len().saturating_sub(4) / 8;
        match kind {
            0 if !bytes.is_empty() => {
                let at = at % bytes.len();
                bytes[at] = with as u8;
            }
            1 if words > 0 => {
                let at = 4 + 8 * (at % words);
                let extreme = EXTREMES[with as usize % EXTREMES.len()];
                bytes[at..at + 8].copy_from_slice(&extreme.to_be_bytes());
            }
            _ => bytes.truncate(at % (bytes.len() + 1)),
        }
    }
    bytes
}

/// `deserialize` must answer, and anything it lets in must be canonical.
fn accepts_only_canonical_bytes(bytes: &[u8]) -> Result<(), String> {
    if let Ok(s) = UddSketch::deserialize(bytes) {
        prop_assert_eq!(s.serialize(), bytes);
    }
    if let Ok(s) = HllSketch::deserialize(bytes) {
        prop_assert_eq!(s.serialize(), bytes);
    }
    if let Ok(s) = SpaceSavingSketch::deserialize(bytes) {
        prop_assert_eq!(s.serialize(), bytes);
    }
    Ok(())
}

proptest! {
    #[test]
    fn deserialize_never_panics_on_arbitrary_bytes(
        magic in 0usize..4,
        tail in prop::collection::vec((0u16..256).prop_map(|b| b as u8), 0..200),
    ) {
        // Three cases in four get past the first check of one parser.
        let mut bytes = [&b"UDD1"[..], b"HLL1", b"SSK1", b""][magic].to_vec();
        bytes.extend_from_slice(&tail);
        accepts_only_canonical_bytes(&bytes)?;
    }

    #[test]
    fn deserialize_never_panics_on_damaged_sketches(
        xs in values(0..12),
        ks in keys(0..40),
        cs in cells(0..40),
        edits in edits(),
    ) {
        for valid in [udd_of(&xs).serialize(), hll_of(&ks).serialize(), ss_of(&cs).serialize()] {
            accepts_only_canonical_bytes(&damage(valid, &edits))?;
        }
    }

    #[test]
    fn udd_merge_is_commutative_bytes(xs in values(1..120), ys in values(1..120)) {
        let a = udd_of(&xs);
        let b = udd_of(&ys);
        let mut ab = a.clone();
        ab.merge(&b).unwrap();
        let mut ba = b;
        ba.merge(&a).unwrap();
        prop_assert_eq!(ab.serialize(), ba.serialize());
    }

    #[test]
    fn udd_merge_is_associative_bytes(
        xs in values(1..80),
        ys in values(1..80),
        zs in values(1..80),
    ) {
        let (a, b, c) = (udd_of(&xs), udd_of(&ys), udd_of(&zs));
        let mut left = a.clone();
        left.merge(&b).unwrap();
        left.merge(&c).unwrap();
        let mut bc = b;
        bc.merge(&c).unwrap();
        let mut right = a;
        right.merge(&bc).unwrap();
        prop_assert_eq!(left.serialize(), right.serialize());
    }

    #[test]
    fn udd_merge_equals_concatenated_stream(xs in values(1..120), ys in values(1..120)) {
        let mut merged = udd_of(&xs);
        merged.merge(&udd_of(&ys)).unwrap();
        let mut all = xs.clone();
        all.extend_from_slice(&ys);
        prop_assert_eq!(merged.serialize(), udd_of(&all).serialize());
    }

    #[test]
    fn udd_serialization_round_trips_bytes(xs in values(0..120)) {
        let s = udd_of(&xs);
        let bytes = s.serialize();
        let back = UddSketch::deserialize(&bytes).unwrap();
        prop_assert_eq!(back.serialize(), bytes);
    }

    #[test]
    fn hll_merge_is_commutative_and_associative_bytes(
        xs in keys(1..120),
        ys in keys(1..120),
        zs in keys(1..120),
    ) {
        let (a, b, c) = (hll_of(&xs), hll_of(&ys), hll_of(&zs));
        let mut ab = a.clone();
        ab.merge(&b).unwrap();
        let mut ba = b.clone();
        ba.merge(&a).unwrap();
        prop_assert_eq!(ab.serialize(), ba.serialize());
        let mut left = ab;
        left.merge(&c).unwrap();
        let mut bc = b;
        bc.merge(&c).unwrap();
        let mut right = a;
        right.merge(&bc).unwrap();
        prop_assert_eq!(left.serialize(), right.serialize());
    }

    #[test]
    fn hll_merge_equals_concatenated_stream(xs in keys(1..120), ys in keys(1..120)) {
        let mut merged = hll_of(&xs);
        merged.merge(&hll_of(&ys)).unwrap();
        let mut all = xs.clone();
        all.extend_from_slice(&ys);
        prop_assert_eq!(merged.serialize(), hll_of(&all).serialize());
    }

    #[test]
    fn hll_serialization_round_trips_bytes(xs in keys(0..120)) {
        let s = hll_of(&xs);
        let bytes = s.serialize();
        let back = HllSketch::deserialize(&bytes).unwrap();
        prop_assert_eq!(back.serialize(), bytes);
    }

    #[test]
    fn ss_merge_is_commutative_bytes(xs in cells(1..120), ys in cells(1..120)) {
        let a = ss_of(&xs);
        let b = ss_of(&ys);
        let mut ab = a.clone();
        ab.merge(&b).unwrap();
        let mut ba = b;
        ba.merge(&a).unwrap();
        prop_assert_eq!(ab.serialize(), ba.serialize());
    }

    #[test]
    fn ss_merge_is_associative_bytes_without_truncation(
        xs in cells(1..80),
        ys in cells(1..80),
        zs in cells(1..80),
    ) {
        let (a, b, c) = (ss_of(&xs), ss_of(&ys), ss_of(&zs));
        let mut left = a.clone();
        left.merge(&b).unwrap();
        left.merge(&c).unwrap();
        let mut bc = b;
        bc.merge(&c).unwrap();
        let mut right = a;
        right.merge(&bc).unwrap();
        prop_assert_eq!(left.serialize(), right.serialize());
    }

    #[test]
    fn ss_serialization_round_trips_bytes(xs in cells(0..120)) {
        let s = ss_of(&xs);
        let bytes = s.serialize();
        let back = SpaceSavingSketch::deserialize(&bytes).unwrap();
        prop_assert_eq!(back.serialize(), bytes);
    }
}

/// The 18 pinned seeds of the error-bound sweep (deterministic: a pass
/// today is a pass forever, per the §VI replay discipline).
const SEEDS: [u64; 18] = [
    1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597, 2584, 20_080_402,
];

#[test]
fn udd_median_within_relative_alpha_bound_over_pinned_seeds() {
    for seed in SEEDS {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut values: Vec<f64> = (0..4000).map(|_| rng.gen_range(1.0..1e4)).collect();
        let sketch = udd_of(&values);
        values.sort_by(f64::total_cmp);
        let exact = values[values.len() / 2];
        let est = sketch.quantile(0.5).unwrap();
        let alpha = sketch.current_alpha();
        let bound = exact * 2.0 * alpha / (1.0 - alpha) + 1e-9;
        assert!(
            (est - exact).abs() <= bound,
            "seed {seed}: |{est} - {exact}| > {bound} (alpha {alpha})"
        );
    }
}

#[test]
fn hll_cardinality_within_three_sigma_over_pinned_seeds() {
    for seed in SEEDS {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // Distinct count varies per seed; duplicates exercise the
        // register-max idempotence.
        let distinct = rng.gen_range(2_000u64..40_000);
        let mut sketch = HllSketch::new(P_BITS).unwrap();
        for i in 0..distinct * 2 {
            sketch.accumulate_key(i % distinct);
        }
        let exact = distinct as f64;
        let est = sketch.estimate();
        let bound = 3.0 * sketch.standard_error() * exact;
        assert!(
            (est - exact).abs() <= bound,
            "seed {seed}: |{est} - {exact}| > {bound}"
        );
    }
}

#[test]
fn ss_top_k_mass_within_epsilon_over_pinned_seeds() {
    const K: usize = 4;
    const EPSILON: f64 = 0.1;
    for seed in SEEDS {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut sketch = SpaceSavingSketch::for_mass_error(K, EPSILON).unwrap();
        let mut exact_counts: BTreeMap<i64, u64> = BTreeMap::new();
        // Skewed stream: geometric-ish cell frequencies, so a few cells
        // dominate (the heavy-hitter regime of Metwally et al.).
        for _ in 0..20_000 {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            let cell = (-u.log2()).floor() as i64;
            sketch.accumulate_cell(cell);
            *exact_counts.entry(cell).or_insert(0) += 1;
        }
        let mut counts: Vec<u64> = exact_counts.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let exact_mass = counts.iter().take(K).sum::<u64>() as f64 / 20_000.0;
        let est_mass = sketch.top_k_mass(K).unwrap();
        assert!(
            (est_mass - exact_mass).abs() <= EPSILON,
            "seed {seed}: |{est_mass} - {exact_mass}| > {EPSILON}"
        );
    }
}
