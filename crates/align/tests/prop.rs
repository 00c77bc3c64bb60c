//! Property-based tests for the alignment substrate.

use proptest::prelude::*;

use mrmc_align::kmerdist::{kmer_distance, rank_vector, spearman_from_ranks, KmerProfile};
use mrmc_align::{banded_global, global_align};
use mrmc_testkit::community::dna;
use mrmc_testkit::kernels::spearman_distance;

proptest! {
    /// Score symmetry: aligning (a, b) and (b, a) give equal scores.
    #[test]
    fn global_score_symmetric(a in dna(0..40), b in dna(0..40)) {
        prop_assert_eq!(global_align(&a, &b).score, global_align(&b, &a).score);
    }

    /// Identity is a fraction; self-alignment is perfect.
    #[test]
    fn identity_bounds_and_self(a in dna(0..60)) {
        let aln = global_align(&a, &a);
        prop_assert!((aln.identity() - 1.0).abs() < 1e-12);
        prop_assert_eq!(aln.matches(), a.len());
    }

    /// A full-width band reproduces the unbanded optimum.
    #[test]
    fn full_band_equals_unbanded(a in dna(0..30), b in dna(0..30)) {
        let full = global_align(&a, &b).score;
        let band = banded_global(&a, &b, a.len().max(b.len()).max(1)).score;
        prop_assert_eq!(band, full);
    }

    /// A narrow band never beats the unbanded optimum.
    #[test]
    fn narrow_band_is_lower_bound(a in dna(0..30), b in dna(0..30), w in 1usize..6) {
        let full = global_align(&a, &b).score;
        let banded = banded_global(&a, &b, w).score;
        prop_assert!(banded <= full);
    }

    /// Alignment ops replay to exactly the two inputs.
    #[test]
    fn render_reconstructs_inputs(a in dna(0..40), b in dna(0..40)) {
        let aln = global_align(&a, &b);
        let (ra, rb) = aln.render(&a, &b);
        prop_assert_eq!(ra.replace('-', "").into_bytes(), a);
        prop_assert_eq!(rb.replace('-', "").into_bytes(), b);
    }

    /// k-mer distance is a bounded, symmetric dissimilarity with
    /// d(x, x) = 0.
    #[test]
    fn kmer_distance_metric_properties(a in dna(0..60), b in dna(0..60), k in 1usize..6) {
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
    fn spearman_bounded_symmetric(a in dna(0..80), b in dna(0..80)) {
        let k = 3;
        let pa = KmerProfile::from_kmers(k, mrmc_seqio::encode::KmerIter::new(&a, k).unwrap());
        let pb = KmerProfile::from_kmers(k, mrmc_seqio::encode::KmerIter::new(&b, k).unwrap());
        let dab = spearman_distance(&pa, &pb);
        let dba = spearman_distance(&pb, &pa);
        prop_assert!((0.0..=1.0).contains(&dab));
        prop_assert!((dab - dba).abs() < 1e-9);
    }
}

fn profile(k: usize, kmers: &[u64]) -> KmerProfile {
    KmerProfile::from_kmers(k, kmers.iter().copied())
}

#[test]
fn spearman_identical_is_zero() {
    let p = profile(2, &[0, 1, 1, 2, 2, 2, 3]);
    assert!(spearman_distance(&p, &p) < 1e-9);
}

#[test]
fn spearman_anticorrelated_near_one() {
    // Ranks reversed: counts (3,2,1,0) vs (0,1,2,3) over k=1 (4 features).
    let a = profile(1, &[0, 0, 0, 1, 1, 2]);
    let b = profile(1, &[3, 3, 3, 2, 2, 1]);
    let d = spearman_distance(&a, &b);
    assert!(d > 0.9, "distance {d}");
}

#[test]
fn spearman_bounded() {
    let a = profile(2, &[0, 5, 9]);
    let b = profile(2, &[1, 6, 9, 9]);
    let d = spearman_distance(&a, &b);
    assert!((0.0..=1.0).contains(&d));
}

#[test]
fn rank_vector_path_matches_direct_spearman() {
    let a = profile(2, &[0, 5, 9, 9, 14]);
    let b = profile(2, &[1, 5, 5, 9]);
    let ra = rank_vector(&a);
    let rb = rank_vector(&b);
    let via_ranks = spearman_from_ranks(&ra, &rb);
    let direct = spearman_distance(&a, &b);
    assert!((via_ranks - direct).abs() < 1e-9, "{via_ranks} vs {direct}");
}
