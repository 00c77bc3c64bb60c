//! The Carter–Wegman universal hash family of Eq. 5.
//!
//! `h_i(x) = ((a_i·x + b_i) mod p) mod m` with `p` prime, `p > m`, and
//! `a_i, b_i` drawn uniformly from `{0, …, p−1}` (`a_i ≠ 0` so the map
//! is non-degenerate). Storing the `(a_i, b_i)` pairs replaces storing
//! `n` explicit permutations — the paper's "instead of storing π_i we
//! only need to store 2n numbers".

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::prime::next_prime;

/// Parameters of a single hash function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashParams {
    /// Multiplier, in `1..p`.
    pub a: u64,
    /// Offset, in `0..p`.
    pub b: u64,
}

/// A family of `n` universal hash functions sharing `p` and `m`.
///
/// Construction precomputes two Barrett constants for `p`, so the hot
/// [`Self::hash`] path evaluates `((a·x + b) mod p) mod m` with
/// multiplies and conditional subtracts only — no 128-bit division:
/// a word-sized reduction for every `x` whose `a·x + b` fits a `u64`
/// whatever the parameter draw, the 127-bit form
/// above that. The result is bit-identical to the textbook double-`%`
/// form (the `reference` module keeps that form as an oracle).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UniversalHashFamily {
    params: Vec<HashParams>,
    /// Prime modulus, `p > m` (the Pig script's `$DIV`).
    pub p: u64,
    /// Output range size (the feature-space size, `4^k`).
    pub m: u64,
    /// `⌊2^127 / p⌋` when `p ≤ 2^63` (Barrett constant); 0 selects the
    /// plain-division fallback for oversized primes.
    mu: u128,
    /// `⌊2^64 / p⌋`, the word-sized Barrett constant.
    mu64: u64,
    /// Largest `x` with `(p−1)·x + (p−1) ≤ u64::MAX`: up to here
    /// `a·x + b` fits a word for every `a, b < p`, and
    /// [`Self::eval_word`] applies. Every k-mer of `k ≤ 15` sits below
    /// it under both k-mer families (`p ≈ 2^31` at most there); from
    /// `k = 16` on `p > 2^32` and the largest features do not.
    pub(crate) word_max: u64,
}

/// Barrett shift: `t = a·x + b < 2^63 · 2^64 = 2^127` whenever
/// `p ≤ 2^63`, which is exactly the bound the quotient-error proof
/// needs (see [`barrett_mod`]).
const BARRETT_SHIFT: u32 = 127;

/// `t mod p` via Barrett reduction, exact for `t < 2^127`.
///
/// With `µ = ⌊2^127/p⌋`, the estimate `q̂ = ⌊t·µ / 2^127⌋` satisfies
/// `q̂ ∈ {q−1, q}` for the true quotient `q = ⌊t/p⌋`: writing
/// `µ = (2^127 − r₀)/p` with `r₀ < p`, the shifted product is
/// `⌊t/p − t·r₀/(p·2^127)⌋`, and the subtracted term is `< t/2^127 < 1`.
/// One conditional subtract therefore corrects the remainder.
#[inline]
fn barrett_mod(t: u128, p: u64, mu: u128) -> u64 {
    let qhat = mul_shift_127(t, mu);
    let mut r = t.wrapping_sub(qhat.wrapping_mul(p as u128));
    if r >= p as u128 {
        r -= p as u128;
    }
    debug_assert!(r < p as u128);
    r as u64
}

/// `t mod p` for a word-sized `t`, with `µ = ⌊2^64/p⌋`: one mul-high,
/// one multiply, one conditional subtract.
///
/// The same argument as [`barrett_mod`] one word down: writing
/// `µ = (2^64 − r₀)/p` with `r₀ < p`, the estimate `q̂ = ⌊t·µ / 2^64⌋`
/// is `⌊t/p − t·r₀/(p·2^64)⌋`, and the subtracted term is
/// `< t/2^64 < 1`, so `q̂ ∈ {q−1, q}` and `t − q̂·p < 2p`.
#[inline]
fn barrett_mod_word(t: u64, p: u64, mu64: u64) -> u64 {
    let qhat = ((t as u128 * mu64 as u128) >> 64) as u64;
    let mut r = t - qhat * p;
    if r >= p {
        r -= p;
    }
    debug_assert!(r < p);
    r
}

/// `⌊t·µ / 2^127⌋` via a 256-bit product kept in four u64 limbs.
#[inline]
fn mul_shift_127(t: u128, mu: u128) -> u128 {
    let (t1, t0) = ((t >> 64) as u64, t as u64);
    let (m1, m0) = ((mu >> 64) as u64, mu as u64);
    let ll = t0 as u128 * m0 as u128;
    let (mid, mid_carry) = (t0 as u128 * m1 as u128).overflowing_add(t1 as u128 * m0 as u128);
    let hh = t1 as u128 * m1 as u128;
    let (low, low_carry) = ll.overflowing_add(mid << 64);
    let high = hh + (mid >> 64) + ((mid_carry as u128) << 64) + low_carry as u128;
    (high << 1) | (low >> BARRETT_SHIFT)
}

impl UniversalHashFamily {
    /// Draw `n` hash functions for a feature space of size `m`,
    /// seeding the parameter draws for reproducibility. `p` is chosen
    /// as the smallest prime `> m`.
    pub fn new(n: usize, m: u64, seed: u64) -> UniversalHashFamily {
        assert!(n > 0, "need at least one hash function");
        assert!(m > 1, "feature space must have at least 2 values");
        let p = next_prime(m);
        // Bertrand: the next prime after m sits below 2m. The second
        // reduction (`mod m`) relies on this to be a single conditional
        // subtract of a value already `< p`.
        assert!(p - m < m, "next_prime({m}) = {p} not below 2m");
        let mu = if p <= 1u64 << 63 {
            (1u128 << BARRETT_SHIFT) / p as u128
        } else {
            0
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let params = (0..n)
            .map(|_| HashParams {
                a: rng.random_range(1..p),
                b: rng.random_range(0..p),
            })
            .collect();
        UniversalHashFamily {
            params,
            p,
            m,
            mu,
            mu64: ((1u128 << 64) / p as u128) as u64,
            word_max: (u64::MAX - (p - 1)) / (p - 1),
        }
    }

    /// Family for k-mer features.
    ///
    /// Eq. 5 sets `m = 4^k`, but for small k that range is *smaller
    /// than the feature sets themselves* (a 1 000 bp read covers ~600
    /// of the 1 024 possible 5-mers), so independent minima collide
    /// constantly and the estimator acquires a large positive bias —
    /// the `ablation_estimator` bench quantifies it. We therefore hash
    /// into `max(4^k, 2^31)`; for k ≥ 16 this *is* the paper's `4^k`.
    /// Use [`Self::for_kmer_size_paper_literal`] to reproduce Eq. 5
    /// exactly.
    pub fn for_kmer_size(k: usize, n: usize, seed: u64) -> UniversalHashFamily {
        assert!((1..=31).contains(&k), "k must be 1..=31");
        UniversalHashFamily::new(n, (1u64 << (2 * k)).max(1u64 << 31), seed)
    }

    /// The paper-literal Eq. 5 family with `m = 4^k` — biased at small
    /// k (see [`Self::for_kmer_size`]); kept for the ablation study.
    pub fn for_kmer_size_paper_literal(k: usize, n: usize, seed: u64) -> UniversalHashFamily {
        assert!((1..=31).contains(&k), "k must be 1..=31");
        UniversalHashFamily::new(n, 1u64 << (2 * k), seed)
    }

    /// Number of hash functions (the sketch length `n`).
    #[inline]
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True when the family is empty (never happens via constructors).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Evaluate the `i`-th hash on feature `x`.
    #[inline]
    pub fn hash(&self, i: usize, x: u64) -> u64 {
        self.eval(self.params[i], x)
    }

    /// Evaluate one parameter pair on `x`. Callers iterating the whole
    /// family (the blocked walk of [`crate::MinHasher::sketch_kmers`],
    /// the rank table's build) stream [`Self::params`] directly and
    /// skip the per-call index lookup. The rolling kernel of
    /// [`crate::MinHasher::sketch_sequence`] does not call it: it steps
    /// each residue from the previous k-mer's instead.
    #[inline]
    pub fn eval(&self, hp: HashParams, x: u64) -> u64 {
        if x <= self.word_max {
            return self.eval_word(hp, x);
        }
        let t = hp.a as u128 * x as u128 + hp.b as u128;
        let v = if self.mu != 0 {
            barrett_mod(t, self.p, self.mu)
        } else {
            (t % self.p as u128) as u64
        };
        self.fold_m(v)
    }

    /// [`Self::eval`] for `x ≤ word_max`, where `a·x + b` cannot leave
    /// a `u64`. The blocked walk tests its largest feature once and
    /// calls this directly.
    #[inline]
    pub(crate) fn eval_word(&self, hp: HashParams, x: u64) -> u64 {
        debug_assert!(x <= self.word_max);
        self.fold_m(barrett_mod_word(hp.a * x + hp.b, self.p, self.mu64))
    }

    /// `v mod m` for `v < p`: `p < 2m`, so one conditional subtract.
    #[inline]
    fn fold_m(&self, v: u64) -> u64 {
        if v >= self.m {
            v - self.m
        } else {
            v
        }
    }

    /// The raw parameter list (for serialization / the Pig UDF).
    pub fn params(&self) -> &[HashParams] {
        &self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let f1 = UniversalHashFamily::new(8, 1 << 10, 7);
        let f2 = UniversalHashFamily::new(8, 1 << 10, 7);
        assert_eq!(f1, f2);
        let f3 = UniversalHashFamily::new(8, 1 << 10, 8);
        assert_ne!(f1, f3);
    }

    #[test]
    fn outputs_in_range() {
        let f = UniversalHashFamily::new(16, 1 << 10, 1);
        for i in 0..f.len() {
            for x in [0u64, 1, 17, 1023, 9999] {
                assert!(f.hash(i, x) < f.m);
            }
        }
    }

    #[test]
    fn p_exceeds_m() {
        // k = 15: 4^k = 2^30 < 2^31, so the range floor applies.
        let f = UniversalHashFamily::for_kmer_size(15, 4, 0);
        assert_eq!(f.m, 1 << 31);
        assert!(f.p > f.m);
        // k = 16: 4^k = 2^32 dominates the floor.
        let f = UniversalHashFamily::for_kmer_size(16, 4, 0);
        assert_eq!(f.m, 1 << 32);
        // Paper-literal keeps m = 4^k.
        let f = UniversalHashFamily::for_kmer_size_paper_literal(5, 4, 0);
        assert_eq!(f.m, 1 << 10);
    }

    #[test]
    fn no_overflow_near_u64_max_range() {
        // k = 31 → m = 2^62; a·x can exceed u64, must use u128 internally.
        let f = UniversalHashFamily::for_kmer_size(31, 2, 3);
        let x = (1u64 << 62) - 1;
        for i in 0..f.len() {
            assert!(f.hash(i, x) < f.m);
        }
    }

    #[test]
    fn distinct_functions_disagree_somewhere() {
        let f = UniversalHashFamily::new(4, 1 << 16, 99);
        let xs: Vec<u64> = (0..64).collect();
        let mut all_same = true;
        for x in xs {
            if f.hash(0, x) != f.hash(1, x) {
                all_same = false;
                break;
            }
        }
        assert!(!all_same, "two independently drawn hashes were identical");
    }

    #[test]
    fn uniformity_smoke() {
        // Mean of h(x) over many x should be near m/2 for a universal family.
        let m = 1u64 << 16;
        let f = UniversalHashFamily::new(1, m, 5);
        let n = 20_000u64;
        let mean = (0..n).map(|x| f.hash(0, x) as f64).sum::<f64>() / n as f64;
        let expected = m as f64 / 2.0;
        assert!(
            (mean - expected).abs() < expected * 0.05,
            "mean {mean}, expected ≈ {expected}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one hash")]
    fn zero_hashes_rejected() {
        UniversalHashFamily::new(0, 16, 0);
    }

    #[test]
    fn barrett_bit_identical_to_division() {
        // Mixed operating points: tiny paper-literal ranges, the Pig
        // script's `$DIV`, the 2^31 floor, a non-power-of-two m, the
        // first range whose prime leaves a word for some k-mers (2^32)
        // and the k = 31 ceiling (2^62).
        for m in [
            16u64,
            1 << 10,
            1_048_583,
            1 << 31,
            (1 << 31) + 12345,
            1 << 32,
            1 << 62,
        ] {
            let f = UniversalHashFamily::new(4, m, m ^ 0xA5A5);
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for _ in 0..2_000 {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                for i in 0..f.len() {
                    assert_eq!(
                        f.hash(i, x),
                        crate::reference::hash(&f, i, x),
                        "m = {m}, i = {i}, x = {x}"
                    );
                }
            }
            // Both sides of the word-sized reduction's bound, where
            // `a·x + b` first can leave a u64.
            let edge = f.word_max;
            assert!((f.p - 1) as u128 * (edge as u128 + 1) <= u64::MAX as u128);
            assert!((f.p - 1) as u128 * (edge as u128 + 2) > u64::MAX as u128);
            for x in [0, 1, m - 1, m, m + 1, edge - 1, edge, edge + 1, u64::MAX] {
                for i in 0..f.len() {
                    assert_eq!(
                        f.hash(i, x),
                        crate::reference::hash(&f, i, x),
                        "m = {m}, i = {i}, x = {x}"
                    );
                }
            }
        }
    }

    #[test]
    fn oversized_prime_falls_back_to_division() {
        // p > 2^63 disables the Barrett constant; the fallback path
        // must still match the oracle exactly.
        let f = UniversalHashFamily::new(2, 1u64 << 63, 7);
        assert!(f.p > 1u64 << 63);
        for x in [0u64, 1, 12_345, (1 << 63) - 1, u64::MAX] {
            for i in 0..f.len() {
                assert_eq!(f.hash(i, x), crate::reference::hash(&f, i, x));
            }
        }
    }
}
