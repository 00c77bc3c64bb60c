//! UCLUST-like greedy clustering (Edgar 2010).
//!
//! Differences from CD-HIT that we reproduce: sequences are processed
//! in *input order* (UCLUST exploits that amplicon files are often
//! abundance-sorted), and instead of checking every centroid that
//! shares a word, only the **top-T centroids ranked by shared word
//! count** are alignment-verified ("USEARCH examines the top hits
//! first"); if none verifies, the query becomes a new centroid.

use std::collections::HashMap;

use mrmc_align::banded_global;
use mrmc_cluster::ClusterAssignment;
use mrmc_seqio::encode::kmer_set;
use mrmc_seqio::SeqRecord;

use crate::Clusterer;

/// UCLUST-like configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UclustLike {
    /// Identity threshold θ.
    pub theta: f64,
    /// Word size for candidate ranking.
    pub word_size: usize,
    /// Max candidate centroids verified per query (USEARCH's
    /// `maxaccepts`-ish knob).
    pub max_candidates: usize,
    /// Alignment band half-width.
    pub band: usize,
}

impl Default for UclustLike {
    fn default() -> Self {
        UclustLike {
            theta: 0.95,
            word_size: 5,
            max_candidates: 8,
            band: 8,
        }
    }
}

impl Clusterer for UclustLike {
    fn name(&self) -> &'static str {
        "UCLUST"
    }

    fn cluster(&self, reads: &[SeqRecord]) -> ClusterAssignment {
        let mut labels = vec![0usize; reads.len()];
        let mut centroid_reads: Vec<usize> = Vec::new();
        let mut word_index: HashMap<u64, Vec<usize>> = HashMap::new();

        for (i, read) in reads.iter().enumerate() {
            let kmers = kmer_set(&read.seq, self.word_size).unwrap_or_default();
            let mut counts: HashMap<usize, usize> = HashMap::new();
            for km in &kmers {
                if let Some(cs) = word_index.get(km) {
                    for &c in cs {
                        *counts.entry(c).or_insert(0) += 1;
                    }
                }
            }
            let mut cands: Vec<(usize, usize)> = counts.into_iter().collect();
            cands.sort_by_key(|&(c, n)| (std::cmp::Reverse(n), c));
            cands.truncate(self.max_candidates);

            let mut assigned = None;
            for (c, _) in cands {
                let aln = banded_global(&reads[centroid_reads[c]].seq, &read.seq, self.band);
                if aln.identity() >= self.theta {
                    assigned = Some(c);
                    break;
                }
            }
            match assigned {
                Some(c) => labels[i] = c,
                None => {
                    let c = centroid_reads.len();
                    for km in &kmers {
                        word_index.entry(*km).or_default().push(c);
                    }
                    centroid_reads.push(i);
                    labels[i] = c;
                }
            }
        }
        ClusterAssignment::from_labels(labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{rand_index, three_species};

    #[test]
    fn identical_reads_one_cluster() {
        let reads: Vec<SeqRecord> = (0..4)
            .map(|i| SeqRecord::new(format!("r{i}"), b"ACGTTGCAACGTTGCA".to_vec()))
            .collect();
        let a = UclustLike::default().cluster(&reads);
        assert_eq!(a.num_clusters(), 1);
    }

    #[test]
    fn first_sequence_seeds_first_cluster() {
        // Input order matters: label of read 0 is 0.
        let reads = vec![
            SeqRecord::new("a", b"AAAAAAAAAAAAAAA".to_vec()),
            SeqRecord::new("b", b"CCCCCCCCCCCCCCC".to_vec()),
        ];
        let a = UclustLike::default().cluster(&reads);
        assert_eq!(a.label(0), 0);
        assert_eq!(a.label(1), 1);
    }

    #[test]
    fn recovers_well_separated_species() {
        let (reads, truth) = three_species(20, 2);
        let a = UclustLike {
            theta: 0.80,
            ..Default::default()
        }
        .cluster(&reads);
        let ri = rand_index(a.labels(), &truth);
        assert!(ri > 0.95, "rand index {ri}");
    }

    #[test]
    fn max_candidates_limits_verification() {
        // With max_candidates = 0, every read becomes its own centroid.
        let reads: Vec<SeqRecord> = (0..5)
            .map(|i| SeqRecord::new(format!("r{i}"), b"ACGTACGTACGTACGT".to_vec()))
            .collect();
        let a = UclustLike {
            max_candidates: 0,
            ..Default::default()
        }
        .cluster(&reads);
        assert_eq!(a.num_clusters(), 5);
    }

    #[test]
    fn empty_input() {
        assert!(UclustLike::default().cluster(&[]).is_empty());
    }
}
