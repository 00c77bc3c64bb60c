//! Evaluation and allocation budget of the greedy route's placement
//! pass (DESIGN.md §5c, "Representative lookup").
//!
//! One `#[test]` on purpose, in a binary of its own: `mrmc_bench`'s
//! counting allocator is process-global (see `alloc_budget.rs`).

use mrmc::stages::sketch_stage;
use mrmc::{banded_graph_stage, MrMcConfig, RepresentativeIndex};
use mrmc_bench::alloc::count_allocs;
use mrmc_mapreduce::pipeline::Pipeline;
use mrmc_simulate::huse_16s;

#[test]
fn greedy_placement_stays_inside_its_budgets() {
    let reads = huse_16s(0.03, 2_000.0 / 345_000.0, 7).reads;
    let config = MrMcConfig::sixteen_s().greedy();
    let mut pipeline = Pipeline::new("greedy-budget");
    let sketches = sketch_stage(&reads, &config, &mut pipeline).expect("sketch stage");
    let n = sketches.len() as u64;

    // What the θ-graph route verified for the same answer.
    banded_graph_stage(&sketches, &config, &mut pipeline).expect("banded stages");
    let candidates = pipeline.counter_total("CANDIDATES_EMITTED");

    let mut index = RepresentativeIndex::new(&config);
    let (labels, allocs) = count_allocs(|| index.place_all(sketches));
    let clusters = labels.iter().max().map_or(0, |&l| l as u64 + 1);
    assert!(clusters > 100 && clusters < n, "{clusters} clusters");

    // A read is compared with the founders in its ≤ 3 buckets only:
    // 1 105 evaluations here, 0.55 per read (0.66 at 20 000 reads),
    // where a scan makes one per representative and the θ-graph route
    // one per candidate pair (13 529).
    let evaluations = index.evaluations();
    assert!(
        evaluations < 4 * n && 8 * evaluations < candidates,
        "{evaluations} evaluations for {n} reads ({candidates} banded candidates)"
    );

    // Members cost nothing (their signatures land in a reused buffer);
    // a founder costs its bucket lists, one per band, plus the label
    // vector and the amortised growth of the map and founder list:
    // 2 928 allocations for 985 founders, 1.46 per read.
    assert!(
        allocs < 4 * clusters + 64 && allocs < 2 * n,
        "{allocs} allocations placing {n} reads into {clusters} clusters"
    );
}
