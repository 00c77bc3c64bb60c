//! The hierarchy check shared by the integration tests.

use mrmc_cluster::{cut_dendrogram, Dendrogram};

/// `run` is `oracle`'s hierarchy. A run links each distinct sequence
/// once and rebuilds the dendrogram over the reads, so it may name
/// other pairs in its 1.0 merges than a run over every read; nothing
/// else may. Checked, for every linkage: the leaves and merge count,
/// the heights as a sorted multiset, the partition cut at every
/// distinct height, and the merges below 1.0 pair for pair and in
/// order.
pub fn same_hierarchy(run: &Dendrogram, oracle: &Dendrogram, what: &str) {
    assert_eq!(run.n, oracle.n, "{what}: leaves");
    assert_eq!(run.merges.len(), oracle.merges.len(), "{what}: merges");
    let sorted = |d: &Dendrogram| {
        let mut heights = d.heights();
        heights.sort_by(f64::total_cmp);
        heights
    };
    let mut heights = sorted(oracle);
    assert_eq!(sorted(run), heights, "{what}: heights");
    heights.dedup();
    for h in heights {
        assert_eq!(
            cut_dendrogram(run, h),
            cut_dendrogram(oracle, h),
            "{what}: cut at {h}"
        );
    }
    let below = |d: &Dendrogram| {
        d.merges
            .iter()
            .filter(|m| m.similarity < 1.0)
            .copied()
            .collect::<Vec<_>>()
    };
    assert_eq!(below(run), below(oracle), "{what}: merges below 1.0");
}
