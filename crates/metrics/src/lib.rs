//! Evaluation metrics for metagenome clusterings (paper §IV-B).
//!
//! * [`accuracy`] — **W.Acc**: each cluster is designated by its most
//!   frequent ground-truth class; the fraction of members matching the
//!   designation is averaged over clusters, weighted by cluster size;
//! * [`similarity`] — **W.Sim**: average within-cluster global
//!   alignment identity, weighted by cluster size, pair-sampled for
//!   tractability (the paper reports it for clusters above a size
//!   floor — 50 sequences at full scale);
//! * [`agreement`] — the adjusted Rand index, a supporting external
//!   index the end-to-end tests use to compare MrMC-MinH with the
//!   DOTUR-like baseline;
//! * [`mod@diversity`] — observed richness, Chao1, Shannon and
//!   Simpson indices and rarefaction over a clustering.

pub mod accuracy;
pub mod agreement;
pub mod diversity;
pub mod similarity;

pub use accuracy::weighted_accuracy;
pub use agreement::adjusted_rand_index;
pub use diversity::{diversity, rarefaction, DiversityIndices};
pub use similarity::{weighted_similarity, SimilarityOptions};
