//! Pairwise sequence alignment substrate.
//!
//! MrMC-MinH itself avoids alignment (that is the point of minwise
//! hashing), but the *evaluation* depends on it everywhere:
//!
//! * the **W.Sim** metric is "average global sequence alignment
//!   similarity" within clusters (paper §IV-B);
//! * the CD-HIT-like and UCLUST-like baselines verify candidate matches
//!   with (banded) global alignment identity;
//! * the DOTUR-like / Mothur-like baselines build a full pairwise
//!   alignment distance matrix;
//! * the ESPRIT-like baseline replaces alignment with a k-mer distance,
//!   implemented here alongside for comparison.
//!
//! Provided algorithms: Needleman–Wunsch global alignment with linear
//! gaps ([`global`]), a banded global variant for high-identity pairs
//! ([`banded`]), both under the one fixed scheme of [`scoring`], and
//! k-mer profile distances ([`kmerdist`]).

pub mod banded;
pub mod global;
pub mod kmerdist;
pub mod scoring;

pub use banded::banded_global;
pub use global::{global_align, Alignment, AlignmentOp};
pub use kmerdist::{kmer_distance, KmerProfile};

/// Global-alignment identity between two sequences as a fraction in
/// `[0, 1]`: matched positions divided by alignment length. This is the
/// quantity averaged by the paper's W.Sim metric.
pub fn global_identity(a: &[u8], b: &[u8]) -> f64 {
    global_align(a, b).identity()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_sequences_have_identity_one() {
        assert!((global_identity(b"ACGTACGT", b"ACGTACGT") - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_sequences_have_low_identity() {
        let id = global_identity(b"AAAAAAAA", b"CCCCCCCC");
        assert!(id < 0.2, "identity {id}");
    }
}
