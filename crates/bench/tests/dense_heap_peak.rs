//! Heap peak of the dense hierarchical route (DESIGN.md §5a).
//!
//! One `#[test]` on purpose, in a binary of its own: `mrmc_bench`'s
//! heap tracking is process-global, so a test running in parallel would
//! be charged to the run measured here.

use mrmc::stages::{similarity_matrix_stage, sketch_stage};
use mrmc::{MrMcConfig, MrMcMinH};
use mrmc_bench::alloc::heap_peak_during;
use mrmc_cluster::agglomerative;
use mrmc_mapreduce::pipeline::Pipeline;
use mrmc_simulate::{whole_metagenome_samples, ErrorModel};

#[test]
fn dense_route_holds_two_bytes_per_pair() {
    let s12 = whole_metagenome_samples()
        .into_iter()
        .find(|s| s.sid == "S12")
        .expect("Table II lists S12");
    let reads = s12
        .generate(
            2_000.0 / s12.reads as f64,
            ErrorModel::with_total_rate(0.002),
            42,
        )
        .reads;
    let n = reads.len();
    assert_eq!(n, 2_000);
    let config = MrMcConfig::whole_metagenome().with_theta(0.6);

    let (_, probe) = heap_peak_during(|| std::hint::black_box(vec![0u8; 1 << 20]));
    assert!(probe >= 1 << 20, "the tracker sees a 1 MiB buffer: {probe}");

    let runner = MrMcMinH::new(config);
    let (run, peak) = heap_peak_during(|| runner.run(&reads).expect("dense run"));
    let matrix_bytes = n * (n - 1) / 2 * std::mem::size_of::<f32>();
    let ratio = peak as f64 / matrix_bytes as f64;
    // The linkage reads Stage 2's `u8` count strips where they are,
    // beside their transposed lower triangle: 2 B per pair, half an
    // `f32` matrix, plus the rows of merged clusters. Measured in the
    // debug build: 0.672. With rows over all n ids, before the chain
    // dropped dead positions (which shrinks buffers inside their
    // capacity and allocates nothing): 0.694. When Stage 2 assembled
    // an `f32` matrix from `u16` strips (1.5 matrices) and the linkage
    // turned it into distances in place: 1.51.
    assert!(
        ratio <= 0.8,
        "heap peak {peak} B is {ratio:.3} matrices of {matrix_bytes} B, budget 0.8"
    );

    let mut pipeline = Pipeline::new("borrowed");
    let sketches = sketch_stage(&reads, &config, &mut pipeline).expect("sketch stage");
    let matrix = similarity_matrix_stage(sketches, &config, &mut pipeline).expect("matrix stage");
    let (assignment, dendrogram) = agglomerative(&matrix, config.linkage, config.theta);
    assert_eq!(run.assignment, assignment.compact());
    assert_eq!(run.dendrogram, Some(dendrogram));
}
