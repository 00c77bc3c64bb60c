//! Property-based tests for the evaluation metrics.

use proptest::prelude::*;

use mrmc_cluster::ClusterAssignment;
use mrmc_metrics::{adjusted_rand_index, weighted_accuracy};

fn partition(n: usize, k: usize) -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0..k, n..=n)
}

proptest! {
    /// W.Acc is a percentage, ARI ≤ 1.
    #[test]
    fn metric_bounds(labels in partition(30, 6), truth in partition(30, 6)) {
        let a = ClusterAssignment::from_labels(labels);
        if let Some(acc) = weighted_accuracy(&a, &truth, 1) {
            prop_assert!((0.0..=100.0).contains(&acc));
        }
        prop_assert!(adjusted_rand_index(&a, &truth) <= 1.0 + 1e-9);
    }

    /// Perfect agreement maxes every metric.
    #[test]
    fn perfect_agreement(truth in partition(25, 5)) {
        let a = ClusterAssignment::from_labels(truth.clone());
        prop_assert_eq!(weighted_accuracy(&a, &truth, 1), Some(100.0));
        prop_assert!((adjusted_rand_index(&a, &truth) - 1.0).abs() < 1e-9);
    }

    /// Metrics are invariant to relabeling of cluster ids.
    #[test]
    fn relabel_invariance(labels in partition(25, 5), truth in partition(25, 5), offset in 1usize..100) {
        let a = ClusterAssignment::from_labels(labels.clone());
        let shifted = ClusterAssignment::from_labels(
            labels.iter().map(|l| l + offset).collect(),
        );
        prop_assert_eq!(
            weighted_accuracy(&a, &truth, 1),
            weighted_accuracy(&shifted, &truth, 1)
        );
        prop_assert!(
            (adjusted_rand_index(&a, &truth) - adjusted_rand_index(&shifted, &truth)).abs() < 1e-9
        );
    }

    /// Singleton clustering: W.Acc is perfect (each cluster trivially
    /// pure) — the blind spot ARI exists to catch.
    #[test]
    fn singletons_fool_wacc_not_ari(truth in partition(20, 3)) {
        let singles = ClusterAssignment::singletons(20);
        prop_assert_eq!(weighted_accuracy(&singles, &truth, 1), Some(100.0));
        // With ≥ 2 classes of nontrivial size, ARI stays below 0.5.
        let class_count = truth.iter().collect::<std::collections::HashSet<_>>().len();
        let max_class = (0..3)
            .map(|c| truth.iter().filter(|&&t| t == c).count())
            .max()
            .unwrap();
        if class_count >= 2 && max_class <= 15 {
            prop_assert!(adjusted_rand_index(&singles, &truth) < 0.5);
        }
    }

    /// The min-size floor never *lowers* the count of contributing
    /// clusters' items... i.e. raising the floor only removes clusters.
    #[test]
    fn floor_monotone(labels in partition(30, 6), truth in partition(30, 6)) {
        let a = ClusterAssignment::from_labels(labels);
        let any_floor = weighted_accuracy(&a, &truth, 1);
        let high_floor = weighted_accuracy(&a, &truth, 10);
        if high_floor.is_some() {
            prop_assert!(any_floor.is_some());
        }
    }
}
