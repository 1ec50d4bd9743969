//! UDDSketch: a scale-invariant quantile sketch with uniform relative
//! value error (Epicoco et al., "UDDSketch"; trans/merge/final shape per
//! SNIPPETS.md 1–2).
//!
//! Values are binned into log-spaced buckets `(γ^{i−1}, γ^i]` with
//! `γ = (1+α)/(1−α)`; a quantile estimate read from bucket `i` is within
//! relative error `α` of the exact order statistic. When the bucket
//! count would exceed the configured cap, the sketch *collapses*:
//! every index maps to `⌈i/2⌉` and `γ ← γ²`, doubling the error bound
//! deterministically. Digest maps this value-space guarantee onto the
//! paper's fixed-precision `(ε, p)` contract (§II, Eq. 1) as an absolute
//! half-width on the reported quantile, audited per occasion (§VI).

use std::collections::BTreeMap;

use crate::error::SketchError;
use crate::Result;

/// Magic prefix of the canonical serialization (version 1).
const MAGIC: &[u8; 4] = b"UDD1";

/// Smallest bucket cap accepted by [`UddSketch::new`]; below this the
/// collapse loop would degenerate before reaching its fixed points.
const MIN_BUCKETS: usize = 8;

/// Log-bucketed quantile sketch with deterministic collapse.
///
/// Implements the paper's snapshot-mergeable aggregate shape (§IV
/// estimator machinery, DESIGN.md §17): [`UddSketch::accumulate`] is the
/// transition function, [`UddSketch::merge`] combines partials from
/// different sample panels or occasions, [`UddSketch::quantile`]
/// finalizes, and [`UddSketch::serialize`] gives a canonical byte form.
///
/// Merging first collapses both operands to the coarser of the two
/// γ-levels, unions the (BTree-ordered) buckets, then collapses further
/// while over the cap. Because the collapse map `i ↦ ⌈i/2⌉` commutes
/// with bucket union, the final level — and therefore the exact byte
/// serialization — is a pure function of the merged multiset: merges are
/// associative and commutative byte-for-byte, which the proptests pin.
#[derive(Debug, Clone, PartialEq)]
pub struct UddSketch {
    /// Initial relative accuracy α₀ (before any collapse).
    alpha0: f64,
    /// Number of collapses applied; current γ = γ₀^(2^collapses).
    collapses: u32,
    /// Cap on `neg.len() + pos.len()` before a collapse triggers.
    max_buckets: usize,
    /// Count of exactly-zero values (they have no log bucket).
    zero_count: u64,
    /// Buckets for negative values, keyed by the index of `|x|`.
    neg: BTreeMap<i64, u64>,
    /// Buckets for positive values.
    pos: BTreeMap<i64, u64>,
    /// Total accumulated count (zero + all buckets).
    count: u64,
}

impl UddSketch {
    /// Creates an empty sketch with initial accuracy `alpha0` and bucket
    /// cap `max_buckets` (the space/accuracy dial of the (ε, p) sizing
    /// in DESIGN.md §17; see paper §II for the contract it serves).
    pub fn new(alpha0: f64, max_buckets: usize) -> Result<Self> {
        if !alpha0.is_finite() || alpha0 <= 0.0 || alpha0 >= 1.0 {
            return Err(SketchError::InvalidConfig {
                reason: "alpha0 must be a finite value in (0, 1)",
            });
        }
        if max_buckets < MIN_BUCKETS {
            return Err(SketchError::InvalidConfig {
                reason: "max_buckets must be at least 8",
            });
        }
        Ok(Self {
            alpha0,
            collapses: 0,
            max_buckets,
            zero_count: 0,
            neg: BTreeMap::new(),
            pos: BTreeMap::new(),
            count: 0,
        })
    }

    /// Total number of accumulated values (the `n` of the rank
    /// arithmetic in Eq.-style quantile finalization).
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing has been accumulated (§IV empty-snapshot hold
    /// paths check this before finalizing).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Current relative accuracy α after the collapses applied so far
    /// (doubles in γ per collapse; Epicoco et al. Thm. 1, cited in
    /// DESIGN.md §17 alongside the paper's §II contract).
    #[must_use]
    pub fn current_alpha(&self) -> f64 {
        let gamma = self.gamma();
        (gamma - 1.0) / (gamma + 1.0)
    }

    /// Number of live log buckets (both signs, excluding the zero cell);
    /// bounded by the `max_buckets` cap of the §II-sized configuration.
    #[must_use]
    pub fn bucket_count(&self) -> usize {
        self.neg.len() + self.pos.len()
    }

    fn gamma(&self) -> f64 {
        let gamma0 = (1.0 + self.alpha0) / (1.0 - self.alpha0);
        gamma0.powf(2f64.powf(f64::from(self.collapses)))
    }

    fn ln_gamma(&self) -> f64 {
        let gamma0 = (1.0 + self.alpha0) / (1.0 - self.alpha0);
        gamma0.ln() * 2f64.powf(f64::from(self.collapses))
    }

    fn bucket_index(&self, magnitude: f64) -> i64 {
        crate::f64_to_i64_saturating((magnitude.ln() / self.ln_gamma()).ceil())
    }

    /// Representative value of bucket `idx` (log-space midpoint
    /// `2γ^i / (γ+1)`, the UDDSketch finalizer; Eq. analogue of the
    /// paper's §IV point estimate for order statistics).
    fn bucket_value(&self, idx: i64) -> f64 {
        let gamma = self.gamma();
        let power = (self.ln_gamma() * idx as f64).exp();
        2.0 * power / (gamma + 1.0)
    }

    /// Folds one value into the sketch (the *trans* step of the
    /// aggregate shape; paper §IV sampling feeds values through here).
    /// Non-finite values are ignored so the fold stays total.
    pub fn accumulate(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.count = self.count.saturating_add(1);
        if matches!(value.classify(), std::num::FpCategory::Zero) {
            self.zero_count = self.zero_count.saturating_add(1);
            return;
        }
        let idx = self.bucket_index(value.abs());
        let map = if value > 0.0 {
            &mut self.pos
        } else {
            &mut self.neg
        };
        *map.entry(idx).or_insert(0) += 1;
        while self.neg.len() + self.pos.len() > self.max_buckets {
            self.collapse_once();
        }
    }

    /// One collapse step: `i ↦ ⌈i/2⌉`, `γ ← γ²` (Epicoco et al. §3;
    /// deterministic, order-free, commutes with bucket union).
    fn collapse_once(&mut self) {
        self.neg = collapse_map(&self.neg);
        self.pos = collapse_map(&self.pos);
        self.collapses = self.collapses.saturating_add(1);
    }

    /// Merges another sketch into `self` (the *combine* step; lets
    /// sketch mass from different sample panels and occasions add up,
    /// paper §IV-B retain/replace semantics in DESIGN.md §17).
    ///
    /// Both operands must share `alpha0` and `max_buckets`. The result
    /// is byte-identical regardless of merge order or grouping.
    pub fn merge(&mut self, other: &UddSketch) -> Result<()> {
        if self.alpha0.to_bits() != other.alpha0.to_bits() {
            return Err(SketchError::MergeMismatch {
                reason: "UDDSketch merge requires identical alpha0",
            });
        }
        if self.max_buckets != other.max_buckets {
            return Err(SketchError::MergeMismatch {
                reason: "UDDSketch merge requires identical max_buckets",
            });
        }
        let mut other = other.clone();
        while self.collapses < other.collapses {
            self.collapse_once();
        }
        while other.collapses < self.collapses {
            other.collapse_once();
        }
        for (idx, n) in &other.neg {
            *self.neg.entry(*idx).or_insert(0) += n;
        }
        for (idx, n) in &other.pos {
            *self.pos.entry(*idx).or_insert(0) += n;
        }
        self.zero_count = self.zero_count.saturating_add(other.zero_count);
        self.count = self.count.saturating_add(other.count);
        while self.neg.len() + self.pos.len() > self.max_buckets {
            self.collapse_once();
        }
        Ok(())
    }

    /// Finalizes the sketch into the `q`-quantile estimate (rank walk
    /// over BTree-ordered buckets; `q` is clamped to `[0, 1]`). Returns
    /// `None` on an empty sketch so callers can apply the paper's §IV
    /// empty-snapshot hold rule instead of fabricating a value.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let target = q.clamp(0.0, 1.0) * ((self.count - 1) as f64);
        let mut cum: u64 = 0;
        // Negative values: larger |x| index means a more negative value,
        // so walk the negative buckets in descending index order.
        for (idx, n) in self.neg.iter().rev() {
            cum = cum.saturating_add(*n);
            if cum as f64 > target {
                return Some(-self.bucket_value(*idx));
            }
        }
        cum = cum.saturating_add(self.zero_count);
        if cum as f64 > target {
            return Some(0.0);
        }
        for (idx, n) in &self.pos {
            cum = cum.saturating_add(*n);
            if cum as f64 > target {
                return Some(self.bucket_value(*idx));
            }
        }
        // Rank walk always terminates inside the loop when count > 0;
        // fall back to the largest bucket for fp edge cases at q = 1.
        self.pos
            .keys()
            .next_back()
            .map(|idx| self.bucket_value(*idx))
            .or_else(|| self.neg.keys().next().map(|idx| -self.bucket_value(*idx)))
            .or(Some(0.0))
    }

    /// Canonical serialization: magic, α₀ bits, collapse level, cap,
    /// counts, then both bucket maps in BTree order (big-endian fixed
    /// width throughout), so equal sketches are equal byte strings —
    /// the replay/audit invariant of DESIGN.md §17 (paper §VI).
    #[must_use]
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(48 + 16 * (self.neg.len() + self.pos.len()));
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&self.alpha0.to_bits().to_be_bytes());
        out.extend_from_slice(&u64::from(self.collapses).to_be_bytes());
        out.extend_from_slice(
            &u64::try_from(self.max_buckets)
                .unwrap_or(u64::MAX)
                .to_be_bytes(),
        );
        out.extend_from_slice(&self.count.to_be_bytes());
        out.extend_from_slice(&self.zero_count.to_be_bytes());
        for map in [&self.neg, &self.pos] {
            out.extend_from_slice(&u64::try_from(map.len()).unwrap_or(u64::MAX).to_be_bytes());
            for (idx, n) in map {
                out.extend_from_slice(&idx.to_be_bytes());
                out.extend_from_slice(&n.to_be_bytes());
            }
        }
        out
    }

    /// Inverse of [`UddSketch::serialize`]; validates the header, the
    /// parameter domains of [`UddSketch::new`], and that the embedded
    /// counts are consistent, so a round trip is byte-identical (the
    /// proptests of DESIGN.md §17 pin this against the §VI replay gate).
    pub fn deserialize(bytes: &[u8]) -> Result<Self> {
        let mut cursor = Cursor::new(bytes);
        let magic = cursor.take(4)?;
        if magic != MAGIC {
            return Err(SketchError::InvalidBytes {
                reason: "bad UDDSketch magic",
            });
        }
        let alpha0 = f64::from_bits(cursor.u64()?);
        if !alpha0.is_finite() || alpha0 <= 0.0 || alpha0 >= 1.0 {
            return Err(SketchError::InvalidBytes {
                reason: "alpha0 out of domain",
            });
        }
        let collapses_raw = cursor.u64()?;
        let collapses = u32::try_from(collapses_raw).map_err(|_| SketchError::InvalidBytes {
            reason: "collapse level overflows u32",
        })?;
        let max_buckets =
            usize::try_from(cursor.u64()?).map_err(|_| SketchError::InvalidBytes {
                reason: "max_buckets overflows usize",
            })?;
        if max_buckets < MIN_BUCKETS {
            return Err(SketchError::InvalidBytes {
                reason: "max_buckets below minimum",
            });
        }
        let count = cursor.u64()?;
        let zero_count = cursor.u64()?;
        let mut maps = [BTreeMap::new(), BTreeMap::new()];
        for map in &mut maps {
            let len = cursor.u64()?;
            let mut prev: Option<i64> = None;
            for _ in 0..len {
                let idx = cursor.i64()?;
                let n = cursor.u64()?;
                if prev.is_some_and(|p| p >= idx) {
                    return Err(SketchError::InvalidBytes {
                        reason: "bucket indices not strictly ascending",
                    });
                }
                if n == 0 {
                    return Err(SketchError::InvalidBytes {
                        reason: "empty bucket serialized",
                    });
                }
                prev = Some(idx);
                map.insert(idx, n);
            }
        }
        cursor.finish()?;
        let [neg, pos] = maps;
        // The counts are the sender's: a sum that overflows cannot equal `count`.
        let total = neg
            .values()
            .chain(pos.values())
            .try_fold(zero_count, |total, &n| total.checked_add(n));
        if total != Some(count) {
            return Err(SketchError::InvalidBytes {
                reason: "count does not match buckets",
            });
        }
        if neg.len() + pos.len() > max_buckets {
            return Err(SketchError::InvalidBytes {
                reason: "bucket count exceeds cap",
            });
        }
        Ok(Self {
            alpha0,
            collapses,
            max_buckets,
            zero_count,
            neg,
            pos,
            count,
        })
    }
}

/// Applies the collapse index map `i ↦ ⌈i/2⌉` to one bucket map
/// (Epicoco et al. §3; pure function of the input, so it commutes with
/// union — the key associativity lemma of DESIGN.md §17).
fn collapse_map(map: &BTreeMap<i64, u64>) -> BTreeMap<i64, u64> {
    let mut out = BTreeMap::new();
    for (idx, n) in map {
        let merged = idx.saturating_add(1).div_euclid(2);
        *out.entry(merged).or_insert(0) += n;
    }
    out
}

/// Bounds-checked big-endian reader used by deserialization (keeps the
/// parser panic-free per R1; see §II on why estimator paths must not
/// panic).
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .at
            .checked_add(n)
            .filter(|end| *end <= self.bytes.len());
        let Some(end) = end else {
            return Err(SketchError::InvalidBytes {
                reason: "truncated buffer",
            });
        };
        let out = &self.bytes[self.at..end];
        self.at = end;
        Ok(out)
    }

    fn u64(&mut self) -> Result<u64> {
        let raw = self.take(8)?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(raw);
        Ok(u64::from_be_bytes(buf))
    }

    fn i64(&mut self) -> Result<i64> {
        let raw = self.take(8)?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(raw);
        Ok(i64::from_be_bytes(buf))
    }

    fn finish(&self) -> Result<()> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(SketchError::InvalidBytes {
                reason: "trailing bytes",
            })
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)]
mod tests {
    use super::*;

    fn sketch_of(values: &[f64]) -> UddSketch {
        let mut s = UddSketch::new(1e-3, 64).unwrap();
        for v in values {
            s.accumulate(*v);
        }
        s
    }

    #[test]
    fn rejects_bad_config() {
        assert!(UddSketch::new(0.0, 64).is_err());
        assert!(UddSketch::new(1.0, 64).is_err());
        assert!(UddSketch::new(1e-3, 4).is_err());
    }

    #[test]
    fn median_of_small_set_is_relative_accurate() {
        let s = sketch_of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let est = s.quantile(0.5).unwrap();
        assert!(
            (est - 3.0).abs() <= 3.0 * 2.0 * s.current_alpha() + 1e-9,
            "est={est}"
        );
    }

    #[test]
    fn handles_negatives_and_zero() {
        let s = sketch_of(&[-5.0, -1.0, 0.0, 1.0, 5.0]);
        assert_eq!(s.count(), 5);
        let med = s.quantile(0.5).unwrap();
        assert!(med.abs() < 1e-9, "median should be ~0, got {med}");
        let lo = s.quantile(0.0).unwrap();
        assert!(lo < -4.9, "q0 should be near -5, got {lo}");
    }

    #[test]
    fn collapse_keeps_count_and_bounds_buckets() {
        let mut s = UddSketch::new(0.01, 8).unwrap();
        for i in 1..200 {
            s.accumulate(f64::from(i) * 1.37);
        }
        assert_eq!(s.count(), 199);
        assert!(s.bucket_count() <= 8);
        assert!(s.current_alpha() > 0.01);
        let est = s.quantile(0.5).unwrap();
        let exact = 100.0 * 1.37;
        assert!((est - exact).abs() <= exact * 2.0 * s.current_alpha() + 1e-9);
    }

    #[test]
    fn merge_equals_union_bytes() {
        let a = sketch_of(&[1.0, 2.0, 3.0]);
        let b = sketch_of(&[10.0, 20.0]);
        let all = sketch_of(&[1.0, 2.0, 3.0, 10.0, 20.0]);
        let mut m = a.clone();
        m.merge(&b).unwrap();
        assert_eq!(m.serialize(), all.serialize());
    }

    #[test]
    fn merge_rejects_mismatched_config() {
        let a = UddSketch::new(1e-3, 64).unwrap();
        let b = UddSketch::new(1e-2, 64).unwrap();
        let mut m = a.clone();
        assert!(m.merge(&b).is_err());
        let c = UddSketch::new(1e-3, 32).unwrap();
        let mut m = a;
        assert!(m.merge(&c).is_err());
    }

    #[test]
    fn serialize_round_trips() {
        let s = sketch_of(&[-3.5, 0.0, 0.25, 7.0, 7.0, 1e6]);
        let bytes = s.serialize();
        let back = UddSketch::deserialize(&bytes).unwrap();
        assert_eq!(back.serialize(), bytes);
        assert_eq!(back.quantile(0.5), s.quantile(0.5));
    }

    #[test]
    fn deserialize_rejects_corruption() {
        let s = sketch_of(&[1.0, 2.0]);
        let mut bytes = s.serialize();
        assert!(UddSketch::deserialize(&bytes[..bytes.len() - 1]).is_err());
        bytes[0] = b'X';
        assert!(UddSketch::deserialize(&bytes).is_err());
        let mut counterfeit = s.serialize();
        let len = counterfeit.len();
        // Flip the low byte of the trailing bucket count to break the
        // count-consistency check.
        counterfeit[len - 1] ^= 0xff;
        assert!(UddSketch::deserialize(&counterfeit).is_err());
    }

    /// Two buckets of `u64::MAX` under `count = 0`: the sum used to
    /// overflow (a panic in debug, a wrap to a "consistent" total in
    /// release) instead of failing the count check.
    #[test]
    fn deserialize_rejects_bucket_counts_that_overflow() {
        let mut bytes = UddSketch::new(1e-3, 64).unwrap().serialize();
        bytes.truncate(bytes.len() - 8); // drop the empty positive map
        bytes.extend_from_slice(&2u64.to_be_bytes());
        for idx in [1i64, 2] {
            bytes.extend_from_slice(&idx.to_be_bytes());
            bytes.extend_from_slice(&u64::MAX.to_be_bytes());
        }
        assert_eq!(bytes.len(), 92);
        assert!(matches!(
            UddSketch::deserialize(&bytes),
            Err(SketchError::InvalidBytes { .. })
        ));
        // MAX + 1 + MAX wraps to exactly MAX: consistent only if it wraps.
        let at = bytes.len() - 8;
        bytes[at..].copy_from_slice(&1u64.to_be_bytes());
        bytes[28..36].copy_from_slice(&u64::MAX.to_be_bytes()); // count
        bytes[36..44].copy_from_slice(&u64::MAX.to_be_bytes()); // zero_count
        assert!(UddSketch::deserialize(&bytes).is_err());
    }

    #[test]
    fn empty_sketch_has_no_quantile() {
        let s = UddSketch::new(1e-3, 64).unwrap();
        assert!(s.quantile(0.5).is_none());
        assert!(s.is_empty());
    }
}
