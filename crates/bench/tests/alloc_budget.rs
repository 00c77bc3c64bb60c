//! Allocation budget of the banded shuffle plane and its run merge
//! (DESIGN.md §3a.1).
//!
//! One `#[test]` on purpose, in a binary of its own: `mrmc_bench`'s
//! counting allocator is process-global, so a test running in parallel
//! would be charged to the sections measured here.

use std::hint::black_box;

use mrmc::stages::sketch_stage;
use mrmc::{banded_graph_stage, MrMcConfig};
use mrmc_bench::alloc::count_allocs;
use mrmc_mapreduce::job::TaskContext;
use mrmc_mapreduce::pipeline::Pipeline;
use mrmc_mapreduce::IdRun;
use mrmc_simulate::huse_16s;

#[test]
fn banded_plane_stays_inside_its_allocation_budget() {
    let reads = huse_16s(0.03, 2_000.0 / 345_000.0, 7).reads;
    let config = MrMcConfig::sixteen_s().banded().greedy();
    let mut pipeline = Pipeline::new("alloc-budget");
    let sketches = sketch_stage(&reads, &config, &mut pipeline).expect("sketch stage");

    // Band, dedup and verify. Grouping, combining and merging the
    // bucket runs costs about 14 allocations per read (3 band keys
    // each), whatever the candidate count; every candidate is then
    // emitted as a singleton run, verified and counted, and none of
    // that may cost an allocation per candidate.
    let (graph, allocs) = count_allocs(|| {
        banded_graph_stage(&sketches, &config, &mut pipeline).expect("banded stages")
    });
    let candidates = pipeline.counter_total("CANDIDATES_EMITTED");
    assert!(graph.num_edges() > 0 && candidates > 10_000);
    let budget = 16 * reads.len() as u64 + candidates / 4;
    assert!(
        allocs < budget,
        "{allocs} allocations for {} reads and {candidates} candidates, budget {budget}",
        reads.len()
    );

    // The combine/reduce merge on its two hot shapes: one map task's
    // ascending singletons for a hot bucket (the splice path), and
    // post-combine runs whose id ranges interleave (the heap path).
    // 1 and 4 allocations per merge, where decoding every run to ids
    // cost 264 and 22.
    let mut id = 0u32;
    let singletons: Vec<IdRun> = (0..256u32)
        .map(|i| {
            id += 1 + i * 7_919 % 31;
            IdRun::singleton(id)
        })
        .collect();
    let strided: Vec<IdRun> = (0..16u32)
        .map(|r| IdRun::from_ids((0..128u32).map(|t| r + 16 * t).collect()))
        .collect();
    for runs in [singletons, strided] {
        let ids = runs.iter().flat_map(|r| r.decode().expect("valid run"));
        let oracle = IdRun::from_ids(ids.collect());
        let (merged, allocs) = count_allocs(|| IdRun::merge(&runs).expect("merge"));
        assert_eq!(merged.as_bytes(), oracle.as_bytes());
        assert!(
            2 * allocs <= runs.len() as u64,
            "{allocs} allocations merging {} runs",
            runs.len()
        );
    }

    let ((), allocs) = count_allocs(|| {
        for i in 0..1_000u32 {
            // Strides through every varint width up to five bytes.
            black_box(IdRun::singleton(black_box(i * 4_000_003)));
        }
    });
    assert_eq!(allocs, 0, "singleton runs are inline");

    let mut ctx: TaskContext<u32, u32> = TaskContext::new();
    ctx.count("PAIRS_COMPUTED", 1);
    let ((), allocs) = count_allocs(|| {
        for _ in 0..1_000 {
            ctx.count(black_box("PAIRS_COMPUTED"), 1);
        }
    });
    assert_eq!(allocs, 0, "bumping an existing counter");
    assert_eq!(ctx.into_parts().1.get("PAIRS_COMPUTED"), 1_001);
}
