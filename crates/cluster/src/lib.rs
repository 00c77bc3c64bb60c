//! Clustering substrate: the paper's Algorithm 1 (greedy) and
//! Algorithm 2 (agglomerative hierarchical).
//!
//! * [`assignment`] — cluster label vectors and summaries;
//! * [`greedy`] — the step-wise incremental clustering of Algorithm 1:
//!   pick an unassigned seed, sweep every remaining item into its
//!   cluster when similarity ≥ θ, repeat;
//! * [`matrix`] — condensed (upper-triangle) all-pairs similarity
//!   matrices, built in parallel by row partitioning (paper Fig. 1),
//!   and the store of Stage 2's agreement counts the native dense
//!   route links instead ([`PairCounts`]);
//! * [`linkage`] — dendrogram construction: the nearest-neighbour
//!   chain algorithm with Lance–Williams updates for single, complete
//!   and average linkage; θ-cutoff extraction of flat clusters;
//! * [`sparse`] — the CSR θ-graph of the banded pipeline, and
//!   Algorithm 2 on it in memory linear in its edges (the NN-chain on
//!   adjacency lists reproduces the dense dendrogram bit for bit).
//!
//! Both forms of Algorithm 2 also run over groups of identical items
//! ([`Groups`], linked by [`agglomerative_grouped`] and its sparse
//! twin): each group is one vertex that starts as a cluster of its
//! members, and the dendrogram over the items is rebuilt in O(n).
//!
//! All algorithms are generic over a similarity oracle so they work
//! identically on minhash sketches, alignment identities, or k-mer
//! distances (the baselines reuse them).

pub mod assignment;
pub mod greedy;
pub mod linkage;
pub mod matrix;
pub mod sparse;

pub use assignment::ClusterAssignment;
pub use greedy::greedy_cluster;
pub use linkage::{
    agglomerative, agglomerative_grouped, cut_dendrogram, cut_levels, Dendrogram, DenseInput,
    GroupMismatch, Groups, Linkage, Merge, TooManyItems,
};
pub use matrix::{CondensedMatrix, CountStrips, PairCounts};
pub use sparse::{
    agglomerative_sparse, agglomerative_sparse_grouped, greedy_cluster_sparse, SparseSimGraph,
};
