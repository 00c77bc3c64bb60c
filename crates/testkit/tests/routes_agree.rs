//! The `routes_agree` property: drawn communities through every route,
//! held to P1–P5 (`mrmc_testkit::agree`, whose module doc states them).
//!
//! A failing case prints its inputs and replays on re-run: the vendored
//! proptest is deterministic per test name and does not shrink.
//! `PROPTEST_CASES=256` sweeps deeper.

use std::collections::BTreeSet;

use proptest::prelude::*;

use mrmc::{Mode, MrMcConfig};
use mrmc_seqio::SeqRecord;
use mrmc_testkit::agree::{
    banded_as_promised, dereplication_is_invisible, pig_equals_native, Case, LINKAGES,
};
use mrmc_testkit::community::edge_reads;
use mrmc_testkit::routes::Ungrouped;

proptest! {
    #[test]
    fn routes_agree(
        seed in any::<u64>(),
        n in 0usize..=80,
        kmer in proptest::sample::select(vec![5usize, 15, 16, 20]),
        num_hashes in proptest::sample::select(vec![50usize, 64, 256]),
        theta in proptest::sample::select(vec![0.3, 0.55, 0.8, 0.95, 1.0]),
        mode in proptest::sample::select(vec![Mode::Greedy, Mode::Hierarchical]),
        linkage in proptest::sample::select(LINKAGES.to_vec()),
        banded in any::<bool>(),
        map_tasks in proptest::sample::select(vec![1usize, 4, 16]),
    ) {
        Case { seed, n, kmer, num_hashes, theta, mode, linkage, banded, map_tasks }.check();
    }
}

/// P1–P4 on the inputs the draw reaches only by chance: reads
/// shorter than k, with `N`, and their copies mixed; all copies of one
/// read; all copies of a short read; one read; no read. The short
/// copies and the empty set hold no k-mer, so Pig stores two empty
/// outputs for them.
#[test]
fn edge_cases() {
    let mixed = edge_reads();
    // Copies under ids of their own, as Pig's `GROUP C BY seqid2` needs.
    let copies = |read: &SeqRecord, n: usize| -> Vec<SeqRecord> {
        let copy = |i| SeqRecord::new(format!("{}.{i}", read.id), read.seq.clone());
        (0..n).map(copy).collect()
    };
    let cases = [
        ("mixed", mixed.clone()),
        ("all copies", copies(&mixed[1], 5)),
        ("all short copies", copies(&mixed[0], 4)),
        ("one read", mixed[1..2].to_vec()),
        ("empty", Vec::new()),
    ];
    for (what, reads) in cases {
        for theta in [0.8, 0.95, 1.0] {
            println!("{what}, θ = {theta}");
            let base = MrMcConfig::sixteen_s().with_theta(theta);
            let oracle = Ungrouped::new(&reads, &base);
            let runs = dereplication_is_invisible(&reads, base, &oracle);
            banded_as_promised(theta, &runs, &oracle);
            pig_equals_native(&reads, base, &runs, &BTreeSet::new());
        }
    }
}
