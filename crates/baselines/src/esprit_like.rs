//! ESPRIT-like clustering (Sun et al. 2009).
//!
//! ESPRIT's published pipeline: compute the **k-mer distance** for
//! every pair (avoiding "the expensive global alignment distance
//! calculation", paper §II), then hierarchically cluster with
//! complete linkage. Its heuristic pre-filter — skip pairs whose
//! k-mer distance already exceeds the radius — is reproduced by
//! clamping such distances to 1 (they can never co-cluster under
//! complete linkage at the cutoff anyway).

use rayon::prelude::*;

use mrmc_align::kmerdist::{kmer_distance, KmerProfile};
use mrmc_cluster::{agglomerative, ClusterAssignment, CondensedMatrix, Linkage};
use mrmc_seqio::encode::KmerIter;
use mrmc_seqio::SeqRecord;

use crate::Clusterer;

/// ESPRIT-like configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EspritLike {
    /// Similarity threshold θ (distance cutoff is `1 − θ`).
    pub theta: f64,
    /// Word size (ESPRIT uses k = 6 by default for 16S).
    pub kmer: usize,
    /// Pre-filter slack: pairs with k-mer distance above
    /// `(1 − θ) · filter_slack` are clamped to distance 1 without
    /// further consideration.
    pub filter_slack: f64,
}

impl Default for EspritLike {
    fn default() -> Self {
        EspritLike {
            theta: 0.95,
            kmer: 6,
            filter_slack: 4.0,
        }
    }
}

impl Clusterer for EspritLike {
    fn name(&self) -> &'static str {
        "ESPRIT"
    }

    fn cluster(&self, reads: &[SeqRecord]) -> ClusterAssignment {
        if reads.is_empty() {
            return ClusterAssignment::from_labels(Vec::new());
        }
        let profiles: Vec<KmerProfile> = reads
            .par_iter()
            .map(|r| {
                KmerProfile::from_kmers(
                    self.kmer,
                    KmerIter::new(&r.seq, self.kmer)
                        .map(|it| it.collect::<Vec<_>>())
                        .unwrap_or_default(),
                )
            })
            .collect();
        let radius = (1.0 - self.theta) * self.filter_slack;
        let matrix = CondensedMatrix::build_parallel(reads.len(), |i, j| {
            let d = kmer_distance(&profiles[i], &profiles[j]);
            // Heuristic pre-filter: hopeless pairs collapse to 1.
            let d = if d > radius { 1.0 } else { d };
            1.0 - d
        });
        let (assignment, _) = agglomerative(matrix, Linkage::Complete, self.theta);
        assignment
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{rand_index, three_species};

    #[test]
    fn identical_reads_one_cluster() {
        let reads: Vec<SeqRecord> = (0..4)
            .map(|i| SeqRecord::new(format!("r{i}"), b"ACGTTGCAACGTTGCATTGG".to_vec()))
            .collect();
        let a = EspritLike::default().cluster(&reads);
        assert_eq!(a.num_clusters(), 1);
    }

    #[test]
    fn recovers_well_separated_species() {
        let (reads, truth) = three_species(15, 3);
        let a = EspritLike {
            theta: 0.60,
            ..Default::default()
        }
        .cluster(&reads);
        let ri = rand_index(a.labels(), &truth);
        assert!(ri > 0.9, "rand index {ri}");
    }

    #[test]
    fn complete_linkage_overestimates_clusters_vs_loose_theta() {
        // The Table IV signature: ESPRIT produces many more clusters
        // than greedy methods at the same θ because complete linkage
        // requires *every* pair to clear it.
        let (reads, _) = three_species(15, 4);
        let strict = EspritLike {
            theta: 0.95,
            ..Default::default()
        }
        .cluster(&reads)
        .num_clusters();
        let loose = EspritLike {
            theta: 0.30,
            ..Default::default()
        }
        .cluster(&reads)
        .num_clusters();
        assert!(strict > loose, "strict {strict} loose {loose}");
    }

    #[test]
    fn empty_input() {
        assert!(EspritLike::default().cluster(&[]).is_empty());
    }
}
