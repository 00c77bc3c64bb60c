//! Supporting external agreement index: adjusted Rand.
//!
//! Not reported in the paper's tables, but standard for clustering
//! evaluation. Unlike W.Acc, which scores over-clustering at 100 %, it
//! penalises partitions that split a class; the end-to-end tests use it
//! to measure how far MrMC-MinH agrees with the DOTUR-like baseline.

use std::collections::HashMap;

use mrmc_cluster::ClusterAssignment;

/// (joint, per-cluster, per-class) contingency counts.
type Contingency = (
    HashMap<(usize, usize), usize>,
    HashMap<usize, usize>,
    HashMap<usize, usize>,
);

/// Contingency counts between clusters and classes.
fn contingency(assignment: &ClusterAssignment, truth: &[usize]) -> Contingency {
    assert_eq!(assignment.len(), truth.len(), "length mismatch");
    let mut joint: HashMap<(usize, usize), usize> = HashMap::new();
    let mut clusters: HashMap<usize, usize> = HashMap::new();
    let mut classes: HashMap<usize, usize> = HashMap::new();
    for (item, &class) in truth.iter().enumerate() {
        let cluster = assignment.label(item);
        *joint.entry((cluster, class)).or_insert(0) += 1;
        *clusters.entry(cluster).or_insert(0) += 1;
        *classes.entry(class).or_insert(0) += 1;
    }
    (joint, clusters, classes)
}

/// Adjusted Rand index ∈ [−1, 1]; 1 for identical partitions, ~0 for
/// random agreement.
pub fn adjusted_rand_index(assignment: &ClusterAssignment, truth: &[usize]) -> f64 {
    let n = truth.len();
    if n < 2 {
        return 1.0;
    }
    let (joint, clusters, classes) = contingency(assignment, truth);
    let choose2 = |x: usize| (x * x.saturating_sub(1) / 2) as f64;
    let sum_ij: f64 = joint.values().map(|&v| choose2(v)).sum();
    let sum_i: f64 = clusters.values().map(|&v| choose2(v)).sum();
    let sum_j: f64 = classes.values().map(|&v| choose2(v)).sum();
    let total = choose2(n);
    let expected = sum_i * sum_j / total;
    let max = (sum_i + sum_j) / 2.0;
    if (max - expected).abs() < 1e-12 {
        return 1.0; // degenerate: both partitions trivial
    }
    (sum_ij - expected) / (max - expected)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assign(labels: &[usize]) -> ClusterAssignment {
        ClusterAssignment::from_labels(labels.to_vec())
    }

    #[test]
    fn identical_partitions_score_max() {
        let a = assign(&[0, 0, 1, 1, 2]);
        let t = [5, 5, 9, 9, 7];
        assert!((adjusted_rand_index(&a, &t) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn one_big_cluster_vs_two_classes() {
        let a = assign(&[0, 0, 0, 0]);
        let t = [0, 0, 1, 1];
        assert!(adjusted_rand_index(&a, &t).abs() < 1e-9);
    }

    #[test]
    fn over_clustering_penalized_by_ari() {
        // All singletons: ARI near 0 (expected agreement).
        let a = assign(&[0, 1, 2, 3]);
        let t = [0, 0, 1, 1];
        assert!(adjusted_rand_index(&a, &t).abs() < 0.5);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let a = assign(&[]);
        assert_eq!(adjusted_rand_index(&a, &[]), 1.0);
        let a = assign(&[0]);
        assert_eq!(adjusted_rand_index(&a, &[3]), 1.0);
    }

    #[test]
    fn ari_partial_agreement_between_0_and_1() {
        let a = assign(&[0, 0, 1, 1, 1, 1]);
        let t = [0, 0, 0, 1, 1, 1];
        let ari = adjusted_rand_index(&a, &t);
        assert!(ari > 0.0 && ari < 1.0, "ari {ari}");
    }
}
