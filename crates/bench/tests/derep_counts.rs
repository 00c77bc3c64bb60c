//! Exact counts of dereplication on the banded hierarchical route
//! (DESIGN.md §5d) and of the bases Stage 1 rolls (§5a, "Shared
//! prefixes"), and the allocation budgets of the grouping pass and of
//! Stage 1.
//!
//! One `#[test]` on purpose, in a binary of its own: `mrmc_bench`'s
//! counting allocator is process-global (see `alloc_budget.rs`).

use mrmc::stages::{dereplicate, sketch_distinct_stage};
use mrmc::{banded_graph_stage, MrMcConfig, MrMcMinH};
use mrmc_bench::alloc::count_allocs;
use mrmc_cluster::SparseSimGraph;
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

    // `run` sketches the distinct sequences in one record per block of
    // their byte order, one block per map task. One batch of all of
    // them would roll 61 953 of their 104 221 bases, the rest being
    // prefixes a neighbour in that order already rolled; the stage
    // rolls 63 209, because each of its 16 blocks starts empty.
    let run = MrMcMinH::new(config).run(&reads).expect("run");
    let sketch = &run.pipeline.stages()[0];
    assert_eq!(sketch.name, "minwise-sketch");
    let records: u64 = sketch.map_stats.iter().map(|t| t.records_in).sum();
    assert_eq!(records, config.map_tasks as u64);
    assert_eq!(sketch.counter("SKETCH_BASES"), 104_221);
    assert_eq!(sketch.counter("SKETCH_BASES_ROLLED"), 63_209);
    let mut first: Vec<&[u8]> = Vec::new();
    let mut seen = vec![false; derep.num_distinct()];
    for (read, &g) in reads.iter().zip(derep.groups()) {
        if !std::mem::replace(&mut seen[g as usize], true) {
            first.push(&read.seq);
        }
    }
    let bases: usize = first.iter().map(|s| s.len()).sum();
    assert_eq!(sketch.counter("SKETCH_BASES"), bases as u64);
    let (_, rolled) = config
        .hasher()
        .sketch_sequences_counted(&first)
        .expect("valid k");
    assert_eq!(rolled, 61_953);

    // A distinct sequence costs one allocation, its sketch; the rest
    // (1 802 in all here) is about 48 per block: the stack's states,
    // the emitted pairs and the engine's task bookkeeping. Sketching
    // one read at a time cost 2.01 per read.
    let mut p = Pipeline::new("allocs");
    let (_, allocs) = count_allocs(|| {
        sketch_distinct_stage(&reads, &derep, &config, &mut p).expect("sketch stage")
    });
    let per_sequence = allocs as f64 / derep.num_distinct() as f64;
    assert!(
        per_sequence <= 2.1,
        "{allocs} allocations sketching {} distinct sequences",
        derep.num_distinct()
    );

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

    // 33 edges between distinct sequences, expanded over the groups,
    // are exactly the oracle's 12 248 between reads; linkage runs on
    // the 33.
    let mut p = Pipeline::new("distinct");
    let distinct = sketch_distinct_stage(&reads, &derep, &config, &mut p).expect("sketch stage");
    let graph = banded_graph_stage(&distinct, &config, &mut p).expect("banded stages");
    let expanded = expand(&graph, derep.groups());
    assert_eq!(graph.num_edges(), 33);
    assert_eq!(expanded.num_edges(), oracle_graph.num_edges());
    assert_eq!(expanded.num_edges(), 12_248);
    assert_eq!(expanded, oracle_graph);
}

/// The θ-graph over the reads from the one over their groups: two
/// reads of a group at 1.0, and each edge between every member of one
/// group and every member of the other.
fn expand(graph: &SparseSimGraph, of: &[u32]) -> SparseSimGraph {
    let mut members = vec![Vec::new(); graph.len()];
    for (read, &g) in of.iter().enumerate() {
        members[g as usize].push(read as u32);
    }
    let mut edges = Vec::new();
    for m in &members {
        for (k, &a) in m.iter().enumerate() {
            edges.extend(m[k + 1..].iter().map(|&b| (a, b, 1.0)));
        }
    }
    for (u, v, s) in graph.edges() {
        for &a in &members[u as usize] {
            edges.extend(members[v as usize].iter().map(|&b| (a, b, s)));
        }
    }
    SparseSimGraph::from_edges(of.len(), edges)
}
