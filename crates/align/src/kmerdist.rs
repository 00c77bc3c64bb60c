//! k-mer profile distances.
//!
//! ESPRIT's key trick (paper §II) is replacing the expensive global
//! alignment distance with a k-mer distance computed from word counts;
//! MetaCluster similarly clusters on k-mer frequency vectors with a
//! Spearman distance. Both live here.

use std::collections::HashMap;

/// A multiset of k-mer counts for one sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KmerProfile {
    /// k used to build the profile.
    pub k: usize,
    counts: HashMap<u64, u32>,
    total: u32,
}

impl KmerProfile {
    /// Build a profile from packed k-mers (as produced by
    /// `mrmc_seqio::KmerIter`).
    pub fn from_kmers(k: usize, kmers: impl IntoIterator<Item = u64>) -> KmerProfile {
        let mut counts: HashMap<u64, u32> = HashMap::new();
        let mut total = 0u32;
        for km in kmers {
            *counts.entry(km).or_insert(0) += 1;
            total += 1;
        }
        KmerProfile { k, counts, total }
    }

    /// Count of one k-mer.
    pub fn count(&self, kmer: u64) -> u32 {
        self.counts.get(&kmer).copied().unwrap_or(0)
    }

    /// Number of shared k-mers counted with multiplicity:
    /// Σ min(count_a, count_b).
    pub fn shared(&self, other: &KmerProfile) -> u32 {
        // Iterate over the smaller map.
        let (small, large) = if self.counts.len() <= other.counts.len() {
            (self, other)
        } else {
            (other, self)
        };
        small
            .counts
            .iter()
            .map(|(km, &c)| c.min(large.count(*km)))
            .sum()
    }
}

/// ESPRIT-style k-mer distance between two profiles:
///
/// `d = 1 - shared / min(total_a, total_b)` — 0 for sequences with
/// identical k-mer multisets, 1 for disjoint ones. This correlates with
/// (and lower-bounds, for small k) the alignment distance, which is why
/// ESPRIT uses it as a cheap pre-filter.
pub fn kmer_distance(a: &KmerProfile, b: &KmerProfile) -> f64 {
    assert_eq!(a.k, b.k, "profiles built with different k");
    let denom = a.total.min(b.total);
    if denom == 0 {
        // Convention: two empty profiles are identical, otherwise maximal.
        return if a.total == b.total { 0.0 } else { 1.0 };
    }
    1.0 - f64::from(a.shared(b)) / f64::from(denom)
}

/// Precomputed, z-scored rank vector of a profile over the full
/// `4^k` feature space. Spearman distance between two profiles is then
/// a single dot product ([`spearman_from_ranks`]) — the representation
/// the MetaCluster-like baseline caches per read, since it evaluates
/// the same profiles against many partners.
pub fn rank_vector(profile: &KmerProfile) -> Vec<f64> {
    assert!(profile.k <= 8, "rank_vector is for small k (≤ 8)");
    let n = 1usize << (2 * profile.k);
    let counts: Vec<f64> = (0..n as u64)
        .map(|km| f64::from(profile.count(km)))
        .collect();
    let mut ranks = average_ranks(&counts);
    // z-score so Pearson reduces to a dot product / n.
    let nf = n as f64;
    let mean = ranks.iter().sum::<f64>() / nf;
    let var = ranks.iter().map(|r| (r - mean) * (r - mean)).sum::<f64>() / nf;
    let sd = var.sqrt();
    if sd == 0.0 {
        ranks.iter_mut().for_each(|r| *r = 0.0);
    } else {
        ranks.iter_mut().for_each(|r| *r = (*r - mean) / sd);
    }
    ranks
}

/// Spearman distance from two precomputed [`rank_vector`]s: `(1 − ρ) /
/// 2` of the originating profiles' count ranks.
pub fn spearman_from_ranks(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "rank vectors of different k");
    let n = a.len() as f64;
    let rho = a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>() / n;
    // Degenerate (constant) vectors were zeroed: rho = 0 there.
    ((1.0 - rho) / 2.0).clamp(0.0, 1.0)
}

/// Average ranks (1-based) with ties receiving the mean of their span.
fn average_ranks(values: &[f64]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&i, &j| values[i].partial_cmp(&values[j]).expect("no NaN counts"));
    let mut ranks = vec![0.0; values.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && values[order[j + 1]] == values[order[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            ranks[idx] = avg;
        }
        i = j + 1;
    }
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(k: usize, kmers: &[u64]) -> KmerProfile {
        KmerProfile::from_kmers(k, kmers.iter().copied())
    }

    #[test]
    fn identical_profiles_distance_zero() {
        let p = profile(2, &[0, 1, 2, 2, 3]);
        assert_eq!(kmer_distance(&p, &p), 0.0);
    }

    #[test]
    fn disjoint_profiles_distance_one() {
        let a = profile(2, &[0, 1]);
        let b = profile(2, &[2, 3]);
        assert_eq!(kmer_distance(&a, &b), 1.0);
    }

    #[test]
    fn shared_counts_multiplicity() {
        let a = profile(2, &[5, 5, 5, 7]);
        let b = profile(2, &[5, 5, 9]);
        assert_eq!(a.shared(&b), 2);
        // d = 1 - 2/min(4,3) = 1 - 2/3
        assert!((kmer_distance(&a, &b) - (1.0 - 2.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn empty_profiles() {
        let e = profile(2, &[]);
        let p = profile(2, &[1]);
        assert_eq!(kmer_distance(&e, &e), 0.0);
        assert_eq!(kmer_distance(&e, &p), 1.0);
    }

    #[test]
    #[should_panic(expected = "different k")]
    fn mismatched_k_panics() {
        let a = profile(2, &[0]);
        let b = profile(3, &[0]);
        kmer_distance(&a, &b);
    }

    #[test]
    fn average_ranks_handle_ties() {
        let r = average_ranks(&[1.0, 1.0, 2.0]);
        assert_eq!(r, vec![1.5, 1.5, 3.0]);
    }

    #[test]
    fn rank_vector_self_distance_zero() {
        let p = profile(2, &[0, 1, 1, 7]);
        let r = rank_vector(&p);
        assert!(spearman_from_ranks(&r, &r) < 1e-9);
    }
}
