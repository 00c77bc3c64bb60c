//! CD-HIT-like greedy clustering (Li & Godzik 2006).
//!
//! The published strategy: sort sequences longest-first; each sequence
//! is compared against existing cluster *representatives*; a cheap
//! short-word (k-mer) counting filter rejects most candidates without
//! alignment (two sequences at identity ≥ θ must share at least
//! `L − k·⌊(1−θ)·L⌋` k-mers over their shorter length `L`); survivors
//! are verified with banded global alignment.

use std::collections::HashMap;

use mrmc_align::banded_global;
use mrmc_cluster::ClusterAssignment;
use mrmc_seqio::encode::kmer_set;
use mrmc_seqio::SeqRecord;

use crate::Clusterer;

/// CD-HIT-like configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CdHitLike {
    /// Identity threshold θ (e.g. 0.95).
    pub theta: f64,
    /// Word size for the counting filter (CD-HIT uses 5 for DNA at
    /// high identity).
    pub word_size: usize,
    /// Alignment band half-width.
    pub band: usize,
}

impl Default for CdHitLike {
    fn default() -> Self {
        CdHitLike {
            theta: 0.95,
            word_size: 5,
            band: 8,
        }
    }
}

struct Representative {
    index: usize,
    kmers: Vec<u64>,
    len: usize,
}

impl CdHitLike {
    /// The word-count lower bound two sequences must share to possibly
    /// reach identity θ: each mismatch destroys at most `k` *distinct*
    /// words, so two sequences at identity ≥ θ share at least
    /// `distinct − k·⌊(1−θ)·L⌋` of the smaller set's distinct words.
    fn word_bound(&self, distinct_words: usize, shorter_len: usize) -> usize {
        let mismatches = ((1.0 - self.theta) * shorter_len as f64).floor() as usize;
        distinct_words.saturating_sub(self.word_size * mismatches)
    }
}

/// Count of shared distinct k-mers between two sorted sets.
fn shared_kmers(a: &[u64], b: &[u64]) -> usize {
    let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

impl Clusterer for CdHitLike {
    fn name(&self) -> &'static str {
        "CD-HIT"
    }

    fn cluster(&self, reads: &[SeqRecord]) -> ClusterAssignment {
        // Longest-first processing order (CD-HIT's defining rule: the
        // longest sequence seeds each cluster).
        let mut order: Vec<usize> = (0..reads.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(reads[i].len()));

        let mut labels = vec![0usize; reads.len()];
        let mut reps: Vec<Representative> = Vec::new();
        // Inverted word index rep-id lists, CD-HIT's other speed trick.
        let mut word_index: HashMap<u64, Vec<usize>> = HashMap::new();

        for &i in &order {
            let kmers = kmer_set(&reads[i].seq, self.word_size).unwrap_or_default();
            // Candidate representatives: those sharing any word.
            let mut counts: HashMap<usize, usize> = HashMap::new();
            for km in &kmers {
                if let Some(rs) = word_index.get(km) {
                    for &r in rs {
                        *counts.entry(r).or_insert(0) += 1;
                    }
                }
            }
            let mut assigned = None;
            // Check candidates in decreasing shared-word order.
            let mut cands: Vec<(usize, usize)> = counts.into_iter().collect();
            cands.sort_by_key(|&(r, c)| (std::cmp::Reverse(c), r));
            for (r, rough_count) in cands {
                let rep = &reps[r];
                let shorter = rep.len.min(reads[i].len());
                let distinct = kmers.len().min(rep.kmers.len());
                let bound = self.word_bound(distinct, shorter);
                if rough_count < bound {
                    continue; // cannot reach θ — skip alignment
                }
                // Exact shared count (the rough count already equals it
                // for distinct k-mer sets, but keep the check explicit).
                if shared_kmers(&kmers, &rep.kmers) < bound {
                    continue;
                }
                let aln = banded_global(&reads[rep.index].seq, &reads[i].seq, self.band);
                if aln.identity() >= self.theta {
                    assigned = Some(r);
                    break;
                }
            }
            match assigned {
                Some(r) => labels[i] = r,
                None => {
                    let r = reps.len();
                    for km in &kmers {
                        word_index.entry(*km).or_default().push(r);
                    }
                    reps.push(Representative {
                        index: i,
                        kmers,
                        len: reads[i].len(),
                    });
                    labels[i] = r;
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
        let reads: Vec<SeqRecord> = (0..5)
            .map(|i| SeqRecord::new(format!("r{i}"), b"ACGTACGTACGTACGTACGT".to_vec()))
            .collect();
        let a = CdHitLike::default().cluster(&reads);
        assert_eq!(a.num_clusters(), 1);
    }

    #[test]
    fn dissimilar_reads_separate() {
        let reads = vec![
            SeqRecord::new("a", b"AAAAAAAAAAAAAAAAAAAA".to_vec()),
            SeqRecord::new("b", b"CCCCCCCCCCCCCCCCCCCC".to_vec()),
            SeqRecord::new("c", b"GTGTGTGTGTGTGTGTGTGT".to_vec()),
        ];
        let a = CdHitLike::default().cluster(&reads);
        assert_eq!(a.num_clusters(), 3);
    }

    #[test]
    fn recovers_well_separated_species() {
        let (reads, truth) = three_species(20, 1);
        let a = CdHitLike {
            theta: 0.80,
            ..Default::default()
        }
        .cluster(&reads);
        let ri = rand_index(a.labels(), &truth);
        assert!(ri > 0.95, "rand index {ri}");
    }

    #[test]
    fn longest_sequence_is_representative() {
        // A long seed plus slightly-shorter copies: one cluster.
        let base = b"ACGTACGTACGTACGTACGTACGTACGTACGT".to_vec();
        let reads = vec![
            SeqRecord::new("short", base[..28].to_vec()),
            SeqRecord::new("long", base.clone()),
            SeqRecord::new("mid", base[..30].to_vec()),
        ];
        let a = CdHitLike {
            theta: 0.85,
            ..Default::default()
        }
        .cluster(&reads);
        assert_eq!(a.num_clusters(), 1);
    }

    #[test]
    fn word_bound_sane() {
        let c = CdHitLike {
            theta: 0.95,
            word_size: 5,
            band: 4,
        };
        // 96 distinct words over 100 bp, 5 mismatches allowed →
        // bound = 96 − 25 = 71.
        assert_eq!(c.word_bound(96, 100), 71);
        // Repetitive sequence with few distinct words: bound floors at 0.
        assert_eq!(c.word_bound(4, 100), 0);
    }

    #[test]
    fn empty_input() {
        let a = CdHitLike::default().cluster(&[]);
        assert!(a.is_empty());
    }
}
