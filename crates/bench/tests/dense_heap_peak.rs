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
fn dense_route_holds_one_matrix_at_a_time() {
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
    // Stage 2 holds the matrix and its `u16` count strips (1.5
    // matrices), then the linkage converts the matrix in place (1.0).
    // Measured: 1.51. With `f32` similarity strips beside the matrix
    // and a distance copy collected while the run still held the
    // matrix, 2.11.
    assert!(
        ratio <= 1.6,
        "heap peak {peak} B is {ratio:.3} matrices of {matrix_bytes} B, budget 1.6"
    );

    let mut pipeline = Pipeline::new("borrowed");
    let sketches = sketch_stage(&reads, &config, &mut pipeline).expect("sketch stage");
    let matrix = similarity_matrix_stage(sketches, &config, &mut pipeline).expect("matrix stage");
    let (assignment, dendrogram) = agglomerative(&matrix, config.linkage, config.theta);
    assert_eq!(run.assignment, assignment.compact());
    assert_eq!(run.dendrogram, Some(dendrogram));
}
