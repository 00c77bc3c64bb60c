//! Heap growth of banded hierarchical clustering with the read count
//! (DESIGN.md §5d). Linkage runs over the distinct sequences, each a
//! vertex weighted by its copies, so the heap grows with the distinct
//! graph, not with the copies' cliques.
//!
//! One `#[test]` on purpose, in a binary of its own: `mrmc_bench`'s
//! heap tracking is process-global, so a test running in parallel would
//! be charged to the run measured here.

use mrmc::{MrMcConfig, MrMcMinH};
use mrmc_bench::alloc::heap_peak_during;
use mrmc_simulate::huse_16s;

#[test]
fn banded_hierarchical_heap_grows_with_the_distinct_graph() {
    let runner = MrMcMinH::new(MrMcConfig::sixteen_s().banded().hierarchical());
    let peak = |reads: f64| {
        let reads = huse_16s(0.03, reads / 345_000.0, 42).reads;
        let (run, peak) = heap_peak_during(|| runner.run(&reads).expect("banded run"));
        assert_eq!(run.assignment.len(), reads.len());
        peak
    };
    let (small, large) = (peak(4_000.0), peak(16_000.0));
    let ratio = large as f64 / small as f64;
    // Four times the reads. Measured in a debug build: 3.8 (1.5 →
    // 5.5 MB) linking distinct sequences; 10.7 (2.9 → 30.9 MB) when the
    // distinct graph was lifted to one clique per group of copies and
    // linked over every read.
    assert!(
        ratio <= 5.0,
        "heap peak {small} B at 4k reads, {large} B at 16k: {ratio:.2}×, budget 5×"
    );
}
