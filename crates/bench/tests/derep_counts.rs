//! Exact counts of dereplication on the banded hierarchical route
//! (DESIGN.md §5d), and the allocation budget of the grouping pass.
//!
//! One `#[test]` on purpose, in a binary of its own: `mrmc_bench`'s
//! counting allocator is process-global (see `alloc_budget.rs`).

use mrmc::stages::{dereplicate, sketch_distinct_stage};
use mrmc::{banded_graph_stage, MrMcConfig, MrMcMinH};
use mrmc_bench::alloc::count_allocs;
use mrmc_mapreduce::pipeline::Pipeline;
use mrmc_minhash::Sketch;
use mrmc_simulate::huse_16s;

#[test]
fn dereplicated_counts_are_pinned() {
    let reads = huse_16s(0.03, 2_000.0 / 345_000.0, 42).reads;
    let config = MrMcConfig::sixteen_s().banded().hierarchical();
    assert_eq!(reads.len(), 2_000);

    // The grouping pass borrows the read bytes as its keys, so nothing
    // is allocated per read: 22 allocations here, the table, the group
    // of each read, and the doublings of the two per-group vectors.
    let (derep, allocs) = count_allocs(|| dereplicate(&reads).expect("ids fit"));
    assert!(
        allocs < 32,
        "{allocs} allocations grouping {} reads",
        reads.len()
    );
    assert_eq!(derep.num_distinct(), 1_041);

    // `run` sketches one record per distinct sequence.
    let run = MrMcMinH::new(config).run(&reads).expect("run");
    let sketch = &run.pipeline.stages()[0];
    assert_eq!(sketch.name, "minwise-sketch");
    let records: u64 = sketch.map_stats.iter().map(|t| t.records_in).sum();
    assert_eq!(records, derep.num_distinct() as u64);

    // The ungrouped oracle bands and verifies every read: 13 410
    // candidates, against 121 between distinct sequences.
    let hasher = config.hasher();
    let per_read: Vec<Sketch> = reads
        .iter()
        .map(|r| hasher.sketch_sequence(&r.seq).expect("valid k"))
        .collect();
    let mut oracle = Pipeline::new("oracle");
    let oracle_graph = banded_graph_stage(&per_read, &config, &mut oracle).expect("banded stages");
    let counts = |p: &Pipeline| {
        (
            p.counter_total("CANDIDATES_EMITTED"),
            p.counter_total("PAIRS_COMPUTED"),
        )
    };
    assert_eq!(counts(&oracle), (13_410, 13_410));
    assert_eq!(counts(&run.pipeline), (121, 121));

    // 33 edges between distinct sequences lift to exactly the oracle's
    // 12 248 between reads.
    let mut p = Pipeline::new("distinct");
    let distinct = sketch_distinct_stage(&reads, &derep, &config, &mut p).expect("sketch stage");
    let graph = banded_graph_stage(&distinct, &config, &mut p).expect("banded stages");
    let lifted = graph.lift(derep.groups());
    assert_eq!(graph.num_edges(), 33);
    assert_eq!(lifted.num_edges(), oracle_graph.num_edges());
    assert_eq!(lifted.num_edges(), 12_248);
    assert_eq!(lifted, oracle_graph);
}
