//! DOTUR-like and Mothur-like clustering (Schloss et al. 2005, 2009).
//!
//! Both tools consume a **full pairwise alignment distance matrix**
//! and perform hierarchical clustering — the quality gold standard
//! and the cost disaster the paper's Table V dramatizes (DOTUR/Mothur
//! take 10³–10⁴ s where MrMC-MinH takes seconds, and both had to be
//! fed *trimmed* FS312/FS396 samples). DOTUR's classic default is
//! furthest neighbour (complete linkage); Mothur's `cluster` command
//! default is average neighbour. Everything else is shared.

use mrmc_align::global_align;
use mrmc_cluster::{agglomerative, ClusterAssignment, CondensedMatrix, Linkage};
use mrmc_seqio::SeqRecord;

use crate::Clusterer;

/// DOTUR-like: full alignment matrix + furthest-neighbour clustering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DoturLike {
    /// Similarity threshold θ.
    pub theta: f64,
}

impl Default for DoturLike {
    fn default() -> Self {
        DoturLike { theta: 0.95 }
    }
}

/// Mothur-like: full alignment matrix + average-neighbour clustering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MothurLike {
    /// Similarity threshold θ.
    pub theta: f64,
}

impl Default for MothurLike {
    fn default() -> Self {
        MothurLike { theta: 0.95 }
    }
}

/// The shared expensive part: all-pairs global alignment identity.
fn alignment_matrix(reads: &[SeqRecord]) -> CondensedMatrix {
    CondensedMatrix::build_parallel(reads.len(), |i, j| {
        global_align(&reads[i].seq, &reads[j].seq).identity()
    })
}

impl Clusterer for DoturLike {
    fn name(&self) -> &'static str {
        "DOTUR"
    }

    fn cluster(&self, reads: &[SeqRecord]) -> ClusterAssignment {
        if reads.is_empty() {
            return ClusterAssignment::from_labels(Vec::new());
        }
        agglomerative(alignment_matrix(reads), Linkage::Complete, self.theta).0
    }
}

impl Clusterer for MothurLike {
    fn name(&self) -> &'static str {
        "Mothur"
    }

    fn cluster(&self, reads: &[SeqRecord]) -> ClusterAssignment {
        if reads.is_empty() {
            return ClusterAssignment::from_labels(Vec::new());
        }
        agglomerative(alignment_matrix(reads), Linkage::Average, self.theta).0
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
        assert_eq!(DoturLike::default().cluster(&reads).num_clusters(), 1);
        assert_eq!(MothurLike::default().cluster(&reads).num_clusters(), 1);
    }

    #[test]
    fn both_recover_well_separated_species() {
        let (reads, truth) = three_species(10, 5);
        for (name, a) in [
            ("dotur", DoturLike { theta: 0.75 }.cluster(&reads)),
            ("mothur", MothurLike { theta: 0.75 }.cluster(&reads)),
        ] {
            let ri = rand_index(a.labels(), &truth);
            assert!(ri > 0.9, "{name} rand index {ri}");
        }
    }

    #[test]
    fn mothur_never_more_clusters_than_dotur() {
        // Average linkage merges at least as eagerly as complete.
        let (reads, _) = three_species(8, 6);
        for theta in [0.5, 0.7, 0.9] {
            let d = DoturLike { theta }.cluster(&reads).num_clusters();
            let m = MothurLike { theta }.cluster(&reads).num_clusters();
            assert!(m <= d, "θ={theta}: mothur {m} > dotur {d}");
        }
    }

    #[test]
    fn dotur_guarantees_within_cluster_identity() {
        // Complete linkage at θ: all within-cluster pairs ≥ θ.
        let (reads, _) = three_species(6, 7);
        let theta = 0.8;
        let a = DoturLike { theta }.cluster(&reads);
        for i in 0..reads.len() {
            for j in (i + 1)..reads.len() {
                if a.label(i) == a.label(j) {
                    let id = global_align(&reads[i].seq, &reads[j].seq).identity();
                    assert!(id >= theta - 1e-9, "pair ({i},{j}) identity {id}");
                }
            }
        }
    }

    #[test]
    fn empty_input() {
        assert!(DoturLike::default().cluster(&[]).is_empty());
        assert!(MothurLike::default().cluster(&[]).is_empty());
    }
}
