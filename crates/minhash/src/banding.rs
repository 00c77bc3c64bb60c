//! LSH banding of minwise sketches (candidate pruning).
//!
//! The all-pairs similarity stage is O(n²) in the read count, but the
//! number of pairs above the clustering threshold θ stays near-linear.
//! Banding turns the sketch into `b` *band signatures* of `r` hashed
//! positions each (`b·r ≤ n`); two sketches become a candidate pair
//! when any band signature collides. With positional agreement `s`,
//! the collision probability is the classic S-curve
//!
//! ```text
//! P(candidate) = 1 − (1 − s^r)^b
//! ```
//!
//! whose inflection sits near `s* = (1/b)^(1/r)`.
//!
//! # Exactness contract
//!
//! Probabilistic recall is not good enough here: the banded pipeline
//! must reproduce the dense path bit-identically. The guarantee is
//! combinatorial, not statistical. A pair clears θ over `n` positions
//! when it agrees (literally, value-for-value) in at least
//! `t = `[`min_agreeing`]`(n, θ)` positions, so it *disagrees* in at
//! most `d = n − t` positions. Split the sketch into `d + 1` bands: by
//! pigeonhole some band contains no disagreeing position, its two
//! slices are byte-identical, and the pair collides with certainty.
//! [`BandingScheme::tune`] picks exactly `b = d + 1` bands (and
//! `r = ⌊n / b⌋` rows), so every pair at or above θ is a candidate —
//! recall 1.0 by construction, checked by
//! [`BandingScheme::guarantees_recall`]. Bucket collisions below θ are
//! false positives only; the verify stage filters them with the same
//! count test, `agreements ≥ t`.
//!
//! The clustering pipeline only ever bands under the tuned scheme for
//! its own `(n, θ)` — a run's config cannot carry another — so the
//! contract is unconditional there. Other layouts
//! ([`BandingScheme::new`]) serve the tests of the band signatures.
//!
//! `EMPTY_SLOT` positions hash like any other value, so two sketches
//! that are both empty at a position still agree at the band level.
//! That can only *add* candidates (the positional estimator does not
//! count empty agreement), never lose one, so the contract holds for
//! degenerate sketches too.

use crate::sketch::Sketch;

/// A banding layout: `bands` signatures of `rows` sketch positions.
/// Positions beyond `bands × rows` are ignored by the banding (they
/// still participate in verification).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BandingScheme {
    /// Number of bands `b` (≥ 1).
    pub bands: usize,
    /// Rows (sketch positions) hashed into each band signature (≥ 1).
    pub rows: usize,
}

/// splitmix64 finalizer — a strong, dependency-free 64-bit mixer.
#[inline]
fn mix64(mut h: u64) -> u64 {
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// θ as an agreement count `t`: the smallest `a ≤ n` with
/// `a as f64 / n as f64 ≥ θ`, or `n + 1` if none, so `a ≥ t` decides
/// every count of `n ≥ 1` positions as the estimator does. `⌈θ·n⌉` is
/// not enough: θ·n carries rounding error (0.56 × 50 is
/// 28.000000000000004, so the ceiling is 29 while 28/50 ≥ 0.56), and an
/// off-by-one would break the exact recall contract — so the candidate
/// is corrected against the real division.
pub fn min_agreeing(n: usize, theta: f64) -> usize {
    let clears = |a: usize| a as f64 / n as f64 >= theta;
    let mut a = ((theta * n as f64).ceil() as usize).min(n);
    while a > 0 && clears(a - 1) {
        a -= 1;
    }
    while a <= n && !clears(a) {
        a += 1;
    }
    a
}

impl BandingScheme {
    /// Build a scheme; panics unless `bands ≥ 1` and `rows ≥ 1`.
    pub fn new(bands: usize, rows: usize) -> BandingScheme {
        assert!(bands >= 1, "bands must be ≥ 1");
        assert!(rows >= 1, "rows must be ≥ 1");
        BandingScheme { bands, rows }
    }

    /// The exact-recall tuning rule: `b = n − t + 1` bands (the
    /// pigeonhole count for pairs at θ, `t = `[`min_agreeing`]`(n, θ)`),
    /// `r = ⌊n / b⌋` rows. For any `θ > 0` the resulting scheme satisfies
    /// [`BandingScheme::guarantees_recall`]; at θ close to 1 it
    /// degenerates to one band over the whole sketch (only identical
    /// sketches collide), at low θ to many narrow bands.
    pub fn tune(num_hashes: usize, theta: f64) -> BandingScheme {
        let n = num_hashes.max(1);
        let theta = theta.clamp(0.0, 1.0);
        let max_disagree = n.saturating_sub(min_agreeing(n, theta));
        let bands = (max_disagree + 1).min(n);
        BandingScheme {
            bands,
            rows: n / bands,
        }
    }

    /// Whether this scheme guarantees recall 1.0 for pairs with
    /// positional similarity ≥ θ over `num_hashes`-position sketches.
    /// A pair with `agreements ≥ t` disagrees in at most `n − t`
    /// positions; the pigeonhole needs strictly more bands than that.
    pub fn guarantees_recall(&self, num_hashes: usize, theta: f64) -> bool {
        let n = num_hashes.max(1);
        n.saturating_sub(min_agreeing(n, theta.clamp(0.0, 1.0))) < self.bands
    }

    /// Signature of band `band` over raw sketch values: the `rows`
    /// values starting at `band × rows`, folded through splitmix64
    /// with the band index as the seed (so identical content in
    /// *different* bands lands in different buckets).
    ///
    /// Boundary behavior is explicit, not incidental:
    ///
    /// * `band ≥ bands` panics (always, not only in debug builds) —
    ///   a silently wrapped band index would corrupt bucket identity;
    /// * `band × rows` is computed with checked arithmetic, so a
    ///   pathological scheme cannot overflow `usize` into a bogus
    ///   small offset;
    /// * a band that starts at or past `values.len()` hashes the empty
    ///   slice (seed only) — short sketches get the same signature for
    ///   a given out-of-range band, which matches [`collides`]'s
    ///   "`s < e`" treatment of bands with no content: equality there
    ///   can only come from equally-empty bands.
    ///
    /// [`collides`]: BandingScheme::collides
    #[inline]
    pub fn signature(&self, band: usize, values: &[u64]) -> u64 {
        assert!(
            band < self.bands,
            "band {band} out of range for {} bands",
            self.bands
        );
        let start = band
            .checked_mul(self.rows)
            .expect("band × rows overflows usize");
        let slice = if start >= values.len() {
            &[]
        } else {
            &values[start..(start + self.rows).min(values.len())]
        };
        let mut h = mix64(0x6261_6e64 ^ (band as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        for &v in slice {
            h = mix64(h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        h
    }

    /// All `b` band signatures of a sketch, in band order.
    pub fn signatures(&self, sketch: &Sketch) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.bands);
        self.signatures_into(sketch, &mut out);
        out
    }

    /// [`BandingScheme::signatures`] into a reused buffer.
    pub fn signatures_into(&self, sketch: &Sketch, out: &mut Vec<u64>) {
        out.clear();
        let values = sketch.values();
        for band in 0..self.bands {
            out.push(self.signature(band, values));
        }
    }

    /// Whether two sketches collide in at least one band — the naive
    /// reference for the MR candidate stages (compares band *content*,
    /// which signature equality follows from).
    pub fn collides(&self, a: &Sketch, b: &Sketch) -> bool {
        let (va, vb) = (a.values(), b.values());
        (0..self.bands).any(|band| {
            let s = band * self.rows;
            let e = (s + self.rows).min(va.len().min(vb.len()));
            s < e && va[s..e] == vb[s..e]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::EMPTY_SLOT;

    fn sketch(values: Vec<u64>) -> Sketch {
        Sketch::from_values(values)
    }

    #[test]
    fn tune_matches_pigeonhole_rule() {
        // Paper defaults: n = 50, θ = 0.95 ⇒ ⌈47.5⌉ = 48 agreements,
        // ≤ 2 disagreements, 3 bands of 16 rows.
        let s = BandingScheme::tune(50, 0.95);
        assert_eq!((s.bands, s.rows), (3, 16));
        assert!(s.guarantees_recall(50, 0.95));
        // n = 100, θ = 0.95 ⇒ ≤ 5 disagreements, 6 bands of 16 rows.
        let s = BandingScheme::tune(100, 0.95);
        assert_eq!((s.bands, s.rows), (6, 16));
        assert!(s.guarantees_recall(100, 0.95));
        // θ = 1 ⇒ one band over the whole sketch.
        let s = BandingScheme::tune(64, 1.0);
        assert_eq!((s.bands, s.rows), (1, 64));
        // θ = 0 cannot be guaranteed (d = n).
        let s = BandingScheme::tune(8, 0.0);
        assert_eq!((s.bands, s.rows), (8, 1));
        assert!(!s.guarantees_recall(8, 0.0));
    }

    #[test]
    fn signatures_deterministic_and_band_distinct() {
        let sk = sketch((0..32).collect());
        let scheme = BandingScheme::new(4, 8);
        let a = scheme.signatures(&sk);
        let b = scheme.signatures(&sk);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        // A sketch with identical content in every band still gets
        // distinct per-band signatures (band index is in the seed).
        let flat = sketch(vec![7u64; 32]);
        let sigs = scheme.signatures(&flat);
        for i in 0..sigs.len() {
            for j in (i + 1)..sigs.len() {
                assert_ne!(sigs[i], sigs[j], "bands {i} and {j}");
            }
        }
    }

    #[test]
    fn equal_band_content_implies_equal_signature() {
        let scheme = BandingScheme::new(3, 4);
        let a = sketch(vec![1, 2, 3, 4, 9, 9, 9, 9, 5, 6, 7, 8]);
        let b = sketch(vec![1, 2, 3, 4, 0, 0, 0, 0, 5, 6, 7, 8]);
        assert_eq!(
            scheme.signature(0, a.values()),
            scheme.signature(0, b.values())
        );
        assert_ne!(
            scheme.signature(1, a.values()),
            scheme.signature(1, b.values())
        );
        assert_eq!(
            scheme.signature(2, a.values()),
            scheme.signature(2, b.values())
        );
        assert!(scheme.collides(&a, &b));
    }

    #[test]
    fn pigeonhole_recall_on_mutated_sketches() {
        // n = 50, θ = 0.95: up to 2 mutated positions must always
        // collide under the tuned scheme, wherever they fall.
        let scheme = BandingScheme::tune(50, 0.95);
        let base: Vec<u64> = (0..50).map(|i| i * 31 + 7).collect();
        let a = sketch(base.clone());
        for p1 in 0..50 {
            for p2 in 0..50 {
                let mut m = base.clone();
                m[p1] ^= 0xdead;
                m[p2] ^= 0xbeef;
                assert!(
                    scheme.collides(&a, &sketch(m)),
                    "mutations at {p1},{p2} must still collide"
                );
            }
        }
    }

    #[test]
    fn empty_positions_agree_at_band_level() {
        let scheme = BandingScheme::new(2, 4);
        let a = sketch(vec![
            1, EMPTY_SLOT, 3, 4, EMPTY_SLOT, EMPTY_SLOT, EMPTY_SLOT, EMPTY_SLOT,
        ]);
        let b = sketch(vec![
            1, EMPTY_SLOT, 3, 4, EMPTY_SLOT, EMPTY_SLOT, EMPTY_SLOT, EMPTY_SLOT,
        ]);
        assert!(scheme.collides(&a, &b));
        assert_eq!(scheme.signatures(&a), scheme.signatures(&b));
    }

    #[test]
    fn covered_and_truncation() {
        let s = BandingScheme::tune(50, 0.95);
        // 2 tail positions unbanded.
        assert_eq!(s.bands * s.rows, 48);
        // Signature of a band entirely in range works on exactly-n
        // value vectors.
        let sk = sketch((0..50).collect());
        assert_eq!(s.signatures(&sk).len(), 3);
    }

    #[test]
    #[should_panic(expected = "bands must be ≥ 1")]
    fn zero_bands_rejected() {
        BandingScheme::new(0, 4);
    }

    #[test]
    #[should_panic(expected = "band 3 out of range for 3 bands")]
    fn out_of_range_band_panics_in_release_too() {
        let s = BandingScheme::new(3, 4);
        s.signature(3, &[0; 12]);
    }

    #[test]
    fn short_value_slices_hash_defined_empty_bands() {
        let s = BandingScheme::new(3, 4);
        // Band 2 starts at 8, past a 6-value sketch: defined (empty
        // slice), deterministic, and equal across equally-short inputs.
        let a = s.signature(2, &[1, 2, 3, 4, 5, 6]);
        let b = s.signature(2, &[9, 9, 9, 9, 9, 9]);
        assert_eq!(a, b, "out-of-range bands hash only the band seed");
        assert_eq!(a, s.signature(2, &[]));
        // A partially covered band hashes just its in-range prefix.
        let partial = s.signature(1, &[1, 2, 3, 4, 5, 6]);
        assert_eq!(partial, s.signature(1, &[1, 2, 3, 4, 5, 6, 7, 8][..6]));
        assert_ne!(partial, s.signature(1, &[1, 2, 3, 4, 5, 7]));
    }

    #[test]
    fn band_times_rows_overflow_is_checked() {
        let s = BandingScheme::new(usize::MAX, 2);
        let caught = std::panic::catch_unwind(|| s.signature(usize::MAX / 2 + 1, &[]));
        assert!(caught.is_err(), "overflowing band × rows must panic");
    }
}
