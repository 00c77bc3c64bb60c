//! Minwise hashing for sequence similarity (paper §III-A/B).
//!
//! Implements the exact scheme of the paper:
//!
//! * sequences are represented as k-mer feature sets `I_s` (via
//!   [`mrmc_seqio`]);
//! * `n` universal hash functions `h_i(x) = ((a_i·x + b_i) mod p) mod m`
//!   (Eq. 5, Carter–Wegman) simulate random permutations;
//! * the sketch `s̄ = (min h_1(I_s), …, min h_n(I_s))` (Eqs. 4 & 6)
//!   is a fixed-size signature;
//! * `Pr[minHash(h(I_a)) = minHash(h(I_b))] = J(a, b)` (Eq. 3), so the
//!   fraction of agreeing sketch positions estimates the Jaccard
//!   similarity of the underlying k-mer sets.
//!
//! That *positional* estimator is the one similarity the pipeline
//! clusters on, and every route tests θ on its numerator: the
//! [`agreements`] of two sketches against the count
//! `t = `[`min_agreeing`]`(n, θ)`, which decides every pair as the
//! fraction [`positional_similarity`] against θ does. The *set-based* form the
//! paper's Algorithm 1 line 9 writes (`|s̄_a ∩ s̄_b| / |s̄_a ∪ s̄_b|` on
//! sketch values) is kept as [`set_similarity`] for the
//! `ablation_estimator` bin in `crates/bench`, which compares the two
//! estimators' error. A stage that compares *every* pair packs its
//! sketches into a [`SketchPlane`] of per-column ranks first and reads
//! the same counts off contiguous narrow lanes.

pub mod banding;
pub mod hash;
pub mod jaccard;
pub mod plane;
pub mod prime;
pub mod sketch;

pub use banding::{min_agreeing, BandingScheme};
pub use hash::{HashParams, UniversalHashFamily};
pub use jaccard::{agreements, exact_jaccard, positional_similarity, set_similarity};
pub use plane::{RaggedSketches, SketchPlane};
pub use prime::{is_prime, next_prime};
pub use sketch::{MinHasher, Sketch};

#[cfg(test)]
mod tests {
    use super::*;
    use mrmc_seqio::encode::kmer_set;

    /// End-to-end: sketch similarity approximates true k-mer Jaccard.
    #[test]
    fn sketch_estimate_tracks_exact_jaccard() {
        let a = b"ACGTACGTAAGGTTCCACGTACGTAAGGTTCCACGTTGCA".repeat(4);
        // Perturb a copy lightly.
        let mut b = a.clone();
        for i in (0..b.len()).step_by(17) {
            b[i] = match b[i] {
                b'A' => b'C',
                b'C' => b'G',
                b'G' => b'T',
                _ => b'A',
            };
        }
        let k = 5;
        let sa = kmer_set(&a, k).unwrap();
        let sb = kmer_set(&b, k).unwrap();
        let exact = exact_jaccard(&sa, &sb);

        let hasher = MinHasher::for_kmer_size(k, 256, 42);
        let ka = hasher.sketch_kmers(sa.iter().copied());
        let kb = hasher.sketch_kmers(sb.iter().copied());
        let est = positional_similarity(&ka, &kb);
        assert!(
            (est - exact).abs() < 0.12,
            "estimate {est} too far from exact {exact}"
        );
    }
}
