//! Weighted within-cluster sequence similarity (W.Sim).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

use mrmc_align::global_identity;
use mrmc_cluster::ClusterAssignment;
use mrmc_seqio::SeqRecord;

/// Options for the W.Sim computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimilarityOptions {
    /// Clusters below this size are excluded (paper: 50 at full scale).
    pub min_cluster_size: usize,
    /// Pairs sampled per cluster; the all-pairs count is used when it
    /// is smaller. Exhaustive all-pairs alignment of a 10 000-read
    /// cluster is 5·10⁷ needleman–wunsch runs; sampling converges to
    /// the same mean with a few hundred.
    pub max_pairs_per_cluster: usize,
    /// Seed for pair sampling (determinism across runs).
    pub seed: u64,
}

impl Default for SimilarityOptions {
    fn default() -> Self {
        SimilarityOptions {
            min_cluster_size: 2,
            max_pairs_per_cluster: 200,
            seed: 0x5eed,
        }
    }
}

/// The paper's W.Sim: "the average global sequence alignment
/// similarity (weighted by number of sequences in a cluster)", as a
/// percentage. Pairs within each qualifying cluster are sampled
/// (deterministically) and aligned in parallel; per-cluster means are
/// averaged weighted by cluster size. `None` when no cluster
/// qualifies.
pub fn weighted_similarity(
    assignment: &ClusterAssignment,
    reads: &[SeqRecord],
    options: &SimilarityOptions,
) -> Option<f64> {
    assert_eq!(
        assignment.len(),
        reads.len(),
        "assignment and reads must cover the same items"
    );
    let clusters: Vec<Vec<usize>> = assignment
        .members()
        .into_values()
        .filter(|m| m.len() >= options.min_cluster_size.max(2))
        .collect();
    if clusters.is_empty() {
        return None;
    }

    let per_cluster: Vec<(f64, usize)> = clusters
        .par_iter()
        .map(|members| {
            let pairs = sample_pairs(members, options.max_pairs_per_cluster, options.seed);
            let sum: f64 = pairs
                .par_iter()
                .map(|&(i, j)| global_identity(&reads[i].seq, &reads[j].seq))
                .sum();
            (sum / pairs.len() as f64, members.len())
        })
        .collect();

    let mut num = 0.0;
    let mut denom = 0.0;
    for (mean, size) in per_cluster {
        num += mean * size as f64;
        denom += size as f64;
    }
    Some(100.0 * num / denom)
}

/// Sample up to `max_pairs` distinct unordered pairs from `members`
/// (all pairs when fewer exist).
fn sample_pairs(members: &[usize], max_pairs: usize, seed: u64) -> Vec<(usize, usize)> {
    let n = members.len();
    let all = n * (n - 1) / 2;
    if all <= max_pairs {
        let mut v = Vec::with_capacity(all);
        for a in 0..n {
            for b in (a + 1)..n {
                v.push((members[a], members[b]));
            }
        }
        return v;
    }
    // Rejection-free: sample pair indices in the condensed triangle.
    let mut rng = StdRng::seed_from_u64(seed ^ (n as u64) << 17);
    let mut seen = std::collections::HashSet::with_capacity(max_pairs);
    let mut v = Vec::with_capacity(max_pairs);
    while v.len() < max_pairs {
        let a = rng.random_range(0..n);
        let b = rng.random_range(0..n);
        if a == b {
            continue;
        }
        let key = (a.min(b), a.max(b));
        if seen.insert(key) {
            v.push((members[key.0], members[key.1]));
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reads(seqs: &[&[u8]]) -> Vec<SeqRecord> {
        seqs.iter()
            .enumerate()
            .map(|(i, s)| SeqRecord::new(format!("r{i}"), s.to_vec()))
            .collect()
    }

    #[test]
    fn identical_cluster_scores_100() {
        let rs = reads(&[b"ACGTACGT", b"ACGTACGT", b"ACGTACGT"]);
        let a = ClusterAssignment::from_labels(vec![0, 0, 0]);
        let sim = weighted_similarity(&a, &rs, &SimilarityOptions::default()).unwrap();
        assert!((sim - 100.0).abs() < 1e-9);
    }

    #[test]
    fn dissimilar_cluster_scores_low() {
        let rs = reads(&[b"AAAAAAAA", b"CCCCCCCC"]);
        let a = ClusterAssignment::from_labels(vec![0, 0]);
        let sim = weighted_similarity(&a, &rs, &SimilarityOptions::default()).unwrap();
        assert!(sim < 20.0, "sim {sim}");
    }

    #[test]
    fn weighting_by_cluster_size() {
        // Cluster 0 (2 reads): identity 1.0. Cluster 1 (2 reads):
        // identity 0.5 (half the bases differ).
        let rs = reads(&[b"ACGTACGT", b"ACGTACGT", b"AAAACCCC", b"AAAAGGGG"]);
        let a = ClusterAssignment::from_labels(vec![0, 0, 1, 1]);
        let sim = weighted_similarity(&a, &rs, &SimilarityOptions::default()).unwrap();
        assert!((sim - 75.0).abs() < 1.0, "sim {sim}");
    }

    #[test]
    fn singletons_excluded() {
        let rs = reads(&[b"ACGT", b"ACGT", b"TTTT"]);
        let a = ClusterAssignment::from_labels(vec![0, 0, 1]);
        // The singleton cluster 1 cannot contribute pairs.
        let sim = weighted_similarity(&a, &rs, &SimilarityOptions::default()).unwrap();
        assert!((sim - 100.0).abs() < 1e-9);
    }

    #[test]
    fn none_when_everything_filtered() {
        let rs = reads(&[b"ACGT", b"TTTT"]);
        let a = ClusterAssignment::from_labels(vec![0, 1]);
        assert_eq!(
            weighted_similarity(&a, &rs, &SimilarityOptions::default()),
            None
        );
    }

    #[test]
    fn sampling_deterministic() {
        let members: Vec<usize> = (0..50).collect();
        let p1 = sample_pairs(&members, 20, 9);
        let p2 = sample_pairs(&members, 20, 9);
        assert_eq!(p1, p2);
        assert_eq!(p1.len(), 20);
        // Distinct pairs.
        let mut set = std::collections::HashSet::new();
        for &(a, b) in &p1 {
            assert!(a != b);
            assert!(set.insert((a.min(b), a.max(b))));
        }
    }

    #[test]
    fn small_cluster_uses_all_pairs() {
        let members = vec![3, 7, 9];
        let pairs = sample_pairs(&members, 100, 0);
        assert_eq!(pairs.len(), 3);
    }

    #[test]
    fn min_cluster_size_option() {
        let rs = reads(&[b"ACGT", b"ACGT", b"GGGG", b"GGGG", b"GGGG"]);
        let a = ClusterAssignment::from_labels(vec![0, 0, 1, 1, 1]);
        let opts = SimilarityOptions {
            min_cluster_size: 3,
            ..Default::default()
        };
        // Only cluster 1 (GGGG×3, identity 1.0) qualifies.
        let sim = weighted_similarity(&a, &rs, &opts).unwrap();
        assert!((sim - 100.0).abs() < 1e-9);
    }
}
