//! Jaccard similarity: exact on feature sets, estimated on sketches.
//!
//! On sketches every route tests θ on one integer, [`agreements`],
//! against [`crate::min_agreeing`]; [`positional_similarity`] is that
//! count over the width, and only reports.

use crate::sketch::{Sketch, EMPTY_SLOT};

/// Exact Jaccard similarity `|A ∩ B| / |A ∪ B|` of two *sorted,
/// deduplicated* feature sets (Eq. 1). Two empty sets are defined to
/// have similarity 1 (identical), matching the sketch convention for
/// identical degenerate sequences... except sketches cannot see empty
/// sets, so callers should filter degenerate sequences first.
pub fn exact_jaccard(a: &[u64], b: &[u64]) -> f64 {
    debug_assert!(a.windows(2).all(|w| w[0] < w[1]), "a not sorted/dedup");
    debug_assert!(b.windows(2).all(|w| w[0] < w[1]), "b not sorted/dedup");
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let mut inter = 0usize;
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

/// Agreement count: the sketch positions where both sketches hold the
/// same real minwise value. An [`EMPTY_SLOT`] never agrees, but two
/// degenerate sketches (no real value, e.g. two too-short sequences)
/// are identical and count the full width.
pub fn agreements(a: &Sketch, b: &Sketch) -> usize {
    assert_eq!(a.len(), b.len(), "sketches of different length");
    if a.is_degenerate() && b.is_degenerate() {
        return a.len();
    }
    a.values()
        .iter()
        .zip(b.values())
        .map(|(&x, &y)| usize::from(x == y && x != EMPTY_SLOT))
        .sum()
}

/// Positional sketch similarity: the fraction of sketch positions where
/// the two minwise values agree (the collision probability of Eq. 3),
/// [`agreements`] over the width, and 1.0 at width 0. This is the
/// unbiased MinHash estimator of the Jaccard similarity.
pub fn positional_similarity(a: &Sketch, b: &Sketch) -> f64 {
    let agree = agreements(a, b);
    if a.is_empty() {
        1.0
    } else {
        agree as f64 / a.len() as f64
    }
}

/// Set-based sketch similarity, as written in Algorithm 1 line 9:
/// treat the sketch's minwise values as sets and take
/// `|vals_a ∩ vals_b| / |vals_a ∪ vals_b|`.
///
/// This variant is *biased* relative to positional agreement (values
/// from different hash functions can collide). It is kept for the
/// `ablation_estimator` comparison only — the pipeline clusters on
/// [`agreements`] — so it filters, sorts and dedups per call.
pub fn set_similarity(a: &Sketch, b: &Sketch) -> f64 {
    assert_eq!(a.len(), b.len(), "sketches of different length");
    let set = |s: &Sketch| {
        let mut v: Vec<u64> = s
            .values()
            .iter()
            .copied()
            .filter(|&x| x != EMPTY_SLOT)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    exact_jaccard(&set(a), &set(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::MinHasher;

    #[test]
    fn exact_jaccard_basics() {
        assert_eq!(exact_jaccard(&[1, 2, 3], &[1, 2, 3]), 1.0);
        assert_eq!(exact_jaccard(&[1, 2], &[3, 4]), 0.0);
        assert!((exact_jaccard(&[1, 2, 3], &[2, 3, 4]) - 0.5).abs() < 1e-12);
        assert_eq!(exact_jaccard(&[], &[]), 1.0);
        assert_eq!(exact_jaccard(&[], &[1]), 0.0);
    }

    #[test]
    fn positional_identical_is_one() {
        let h = MinHasher::for_kmer_size(4, 32, 3);
        let s = h.sketch_sequence(b"ACGTACGTGGTTAACC").unwrap();
        assert_eq!(positional_similarity(&s, &s), 1.0);
    }

    #[test]
    fn positional_disjoint_is_near_zero() {
        let h = MinHasher::for_kmer_size(4, 128, 3);
        let a = h.sketch_sequence(&b"A".repeat(64)).unwrap();
        let c = h.sketch_sequence(&b"C".repeat(64)).unwrap();
        // Feature sets are {AAAA} and {CCCC}: disjoint, J = 0. The
        // estimator can only collide by hash collision mod m.
        assert!(positional_similarity(&a, &c) < 0.05);
    }

    #[test]
    fn degenerate_conventions() {
        let h = MinHasher::for_kmer_size(6, 16, 0);
        let empty1 = h.sketch_sequence(b"ACG").unwrap();
        let empty2 = h.sketch_sequence(b"TTT").unwrap();
        let full = h.sketch_sequence(b"ACGTACGTACGT").unwrap();
        assert_eq!(agreements(&empty1, &empty2), 16);
        assert_eq!(positional_similarity(&empty1, &empty2), 1.0);
        assert_eq!(agreements(&empty1, &full), 0);
        assert_eq!(positional_similarity(&empty1, &full), 0.0);
        assert_eq!(set_similarity(&empty1, &empty2), 1.0);
        assert_eq!(set_similarity(&empty1, &full), 0.0);
    }

    #[test]
    fn set_based_identical_is_one() {
        let h = MinHasher::for_kmer_size(4, 32, 9);
        let s = h.sketch_sequence(b"ACGTTGCAACGTTGCA").unwrap();
        assert_eq!(set_similarity(&s, &s), 1.0);
    }

    #[test]
    fn estimators_bounded() {
        let h = MinHasher::for_kmer_size(4, 64, 1);
        let a = h.sketch_sequence(b"ACGTACGTAAGGTTCC").unwrap();
        let b = h.sketch_sequence(b"ACGAACGTAAGCTTCC").unwrap();
        for sim in [positional_similarity(&a, &b), set_similarity(&a, &b)] {
            assert!((0.0..=1.0).contains(&sim));
        }
    }

    #[test]
    #[should_panic(expected = "different length")]
    fn mismatched_sketch_lengths_panic() {
        let h1 = MinHasher::for_kmer_size(4, 8, 0);
        let h2 = MinHasher::for_kmer_size(4, 16, 0);
        let a = h1.sketch_sequence(b"ACGTACGT").unwrap();
        let b = h2.sketch_sequence(b"ACGTACGT").unwrap();
        positional_similarity(&a, &b);
    }

    #[test]
    fn mixed_degenerate_pair_is_zero_both_directions() {
        let h = MinHasher::for_kmer_size(6, 16, 0);
        let degen = h.sketch_sequence(b"ACG").unwrap();
        let full = h.sketch_sequence(b"ACGTACGTACGT").unwrap();
        assert_eq!(positional_similarity(&degen, &full), 0.0);
        assert_eq!(positional_similarity(&full, &degen), 0.0);
        assert_eq!(set_similarity(&degen, &full), 0.0);
        assert_eq!(set_similarity(&full, &degen), 0.0);
    }

    #[test]
    fn empty_slot_never_counts_as_positional_agreement() {
        // Hand-built sketches agreeing only on EMPTY_SLOT positions:
        // the shared sentinel must contribute nothing.
        let a = Sketch::from_values(vec![EMPTY_SLOT, 5, EMPTY_SLOT, 9]);
        let b = Sketch::from_values(vec![EMPTY_SLOT, 6, EMPTY_SLOT, 8]);
        assert_eq!(agreements(&a, &b), 0);
        assert_eq!(positional_similarity(&a, &b), 0.0);
        // One real agreement out of four positions.
        let c = Sketch::from_values(vec![EMPTY_SLOT, 5, EMPTY_SLOT, 8]);
        assert_eq!(agreements(&a, &c), 1);
        assert_eq!(positional_similarity(&a, &c), 0.25);
    }

    #[test]
    fn zero_length_sketches_are_identical() {
        let a = Sketch::from_values(vec![]);
        let b = Sketch::from_values(vec![]);
        assert_eq!(positional_similarity(&a, &b), 1.0);
        assert_eq!(set_similarity(&a, &b), 1.0);
    }

    #[test]
    fn positional_symmetry() {
        let h = MinHasher::for_kmer_size(5, 50, 21);
        let a = h.sketch_sequence(b"ACGTACGTAAGGTTCCAGTCAGTC").unwrap();
        let b = h.sketch_sequence(b"ACGTACCTAAGGATCCAGTCTGTC").unwrap();
        assert_eq!(positional_similarity(&a, &b), positional_similarity(&b, &a));
    }
}
