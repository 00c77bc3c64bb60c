//! Output checks: every failure is one more failed operation of the rep.

use std::collections::HashSet;

use mrmc_cluster::ClusterAssignment;
use mrmc_metrics::weighted_accuracy;

use crate::route::Output;
use crate::workload::{Input, Workload};

/// Add every way `output` is wrong for `input` to `output.problems`.
pub fn verify(input: &Input, output: &mut Output) {
    let failures = &mut output.problems;
    let expected = input.labelled_reads().len();
    // The native pipeline promises labels compacted to 0..clusters.
    let native = !matches!(
        input.workload,
        Workload::PigAlgorithm3 | Workload::ServeSeedStream
    );
    for (which, labels) in output.labelings.iter().enumerate() {
        if labels.len() != expected {
            let got = labels.len();
            failures.push(|| format!("labeling {which}: {got} labels for {expected} reads"));
            continue;
        }
        let distinct = labels.iter().collect::<HashSet<_>>().len() as u64;
        if native && labels.iter().max().is_some_and(|&m| m + 1 != distinct) {
            failures.push(|| format!("labeling {which}: labels are not compact"));
        }
        let assignment =
            ClusterAssignment::from_labels(labels.iter().map(|&l| l as usize).collect());
        let accuracy = weighted_accuracy(&assignment, input.labelled_truth(), 1).unwrap_or(0.0);
        output.accuracy.push(accuracy);
        let floor = input.workload.accuracy_floor();
        if accuracy < floor {
            failures.push(|| format!("labeling {which}: W.Acc {accuracy:.2} below {floor}"));
        }
    }
    if let Some(serve) = &output.serve {
        let labels = &output.labelings[0];
        for (i, (&got, &want)) in labels.iter().zip(&input.stream_oracle).enumerate() {
            if got != want {
                failures.push(|| format!("streamed read {i}: label {got}, oracle says {want}"));
            }
        }
        // Read i of the stream can at most found cluster `seeded + i`.
        for (i, &label) in labels.iter().enumerate() {
            if label > serve.seeded_clusters + i as u64 {
                failures.push(|| format!("streamed read {i}: label {label} cannot exist yet"));
            }
        }
    }
}

/// FNV-1a over every labeling: equal digests mean equal labels.
pub fn label_digest(output: &Output) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for labels in &output.labelings {
        for byte in labels.iter().flat_map(|l| l.to_le_bytes()) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}
