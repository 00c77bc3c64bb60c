//! Property-based tests for the alignment substrate.

use proptest::prelude::*;

use mrmc_align::kmerdist::{kmer_distance, spearman_distance, KmerProfile};
use mrmc_align::{banded_global, global_align};

fn dna(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        proptest::sample::select(vec![b'A', b'C', b'G', b'T']),
        0..max_len,
    )
}

proptest! {
    /// Score symmetry: aligning (a, b) and (b, a) give equal scores.
    #[test]
    fn global_score_symmetric(a in dna(40), b in dna(40)) {
        prop_assert_eq!(global_align(&a, &b).score, global_align(&b, &a).score);
    }

    /// Identity is a fraction; self-alignment is perfect.
    #[test]
    fn identity_bounds_and_self(a in dna(60)) {
        let aln = global_align(&a, &a);
        prop_assert!((aln.identity() - 1.0).abs() < 1e-12);
        prop_assert_eq!(aln.matches(), a.len());
    }

    /// A full-width band reproduces the unbanded optimum.
    #[test]
    fn full_band_equals_unbanded(a in dna(30), b in dna(30)) {
        let full = global_align(&a, &b).score;
        let band = banded_global(&a, &b, a.len().max(b.len()).max(1)).score;
        prop_assert_eq!(band, full);
    }

    /// A narrow band never beats the unbanded optimum.
    #[test]
    fn narrow_band_is_lower_bound(a in dna(30), b in dna(30), w in 1usize..6) {
        let full = global_align(&a, &b).score;
        let banded = banded_global(&a, &b, w).score;
        prop_assert!(banded <= full);
    }

    /// Alignment ops replay to exactly the two inputs.
    #[test]
    fn render_reconstructs_inputs(a in dna(40), b in dna(40)) {
        let aln = global_align(&a, &b);
        let (ra, rb) = aln.render(&a, &b);
        prop_assert_eq!(ra.replace('-', "").into_bytes(), a);
        prop_assert_eq!(rb.replace('-', "").into_bytes(), b);
    }

    /// k-mer distance is a bounded, symmetric dissimilarity with
    /// d(x, x) = 0.
    #[test]
    fn kmer_distance_metric_properties(a in dna(60), b in dna(60), k in 1usize..6) {
        let pa = KmerProfile::from_kmers(k, mrmc_seqio::encode::KmerIter::new(&a, k).unwrap());
        let pb = KmerProfile::from_kmers(k, mrmc_seqio::encode::KmerIter::new(&b, k).unwrap());
        let dab = kmer_distance(&pa, &pb);
        let dba = kmer_distance(&pb, &pa);
        prop_assert!((0.0..=1.0).contains(&dab));
        prop_assert!((dab - dba).abs() < 1e-12);
        prop_assert!(kmer_distance(&pa, &pa) < 1e-12);
    }

    /// Spearman distance is bounded and symmetric.
    #[test]
    fn spearman_bounded_symmetric(a in dna(80), b in dna(80)) {
        let k = 3;
        let pa = KmerProfile::from_kmers(k, mrmc_seqio::encode::KmerIter::new(&a, k).unwrap());
        let pb = KmerProfile::from_kmers(k, mrmc_seqio::encode::KmerIter::new(&b, k).unwrap());
        let dab = spearman_distance(&pa, &pb);
        let dba = spearman_distance(&pb, &pa);
        prop_assert!((0.0..=1.0).contains(&dab));
        prop_assert!((dab - dba).abs() < 1e-9);
    }
}
