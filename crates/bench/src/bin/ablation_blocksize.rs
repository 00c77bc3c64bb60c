//! Ablation (DESIGN.md §4): DFS block size vs. mapper count vs.
//! simulated job time. Hadoop's block size decides how many map tasks
//! an input spawns; too few tasks starve the cluster, too many drown
//! it in per-task overhead. The sweet spot moves with cluster size.
//!
//! ```sh
//! cargo run -p mrmc-bench --release --bin ablation_blocksize
//! ```

use mrmc_mapreduce::dfs::{Dfs, DfsConfig, FastaSplitReader};
use mrmc_mapreduce::{ClusterSpec, JobCostModel, RecoveryCounters, ShuffleVolume};
use mrmc_seqio::write_fasta;
use mrmc_simulate::{whole_metagenome_samples, ErrorModel};

fn main() {
    // Stage a real generated sample (S1 at 2 %: ~1000 × 1 kb reads ≈ 1 MB).
    let cfg = &whole_metagenome_samples()[0];
    let dataset = cfg.generate(0.02, ErrorModel::perfect(), 5);
    let mut fasta = Vec::new();
    write_fasta(&mut fasta, &dataset.reads, 0).expect("serialize");
    let file_len = fasta.len();
    println!(
        "input: {} reads, {} bytes on DFS; sketch cost model 0.6 ms/read\n",
        dataset.len(),
        file_len
    );

    let model = JobCostModel::default();
    let per_read_cost = 0.6e-3; // measured ballpark from figure2 calibration
    println!(
        "{:>12} {:>8} {:>14} {:>12} {:>12}",
        "block", "splits", "reads/split", "t(4 nodes)", "t(12 nodes)"
    );
    for block_kb in [16usize, 64, 256, 1024] {
        let dfs = Dfs::new(DfsConfig {
            block_size: block_kb * 1024,
            replication: 1,
            nodes: 12,
        })
        .expect("config");
        dfs.put("/in.fa", fasta.clone(), false).expect("stage");
        let splits = dfs.splits("/in.fa").expect("splits");
        let records: Vec<usize> = splits
            .iter()
            .map(|s| FastaSplitReader::records(s).len())
            .collect();
        let costs: Vec<f64> = records.iter().map(|&r| r as f64 * per_read_cost).collect();
        let volume = ShuffleVolume {
            records: dataset.len() as u64,
            ..Default::default()
        };
        let simulate = |nodes| {
            ClusterSpec::m1_large(nodes)
                .simulate_job(&model, &costs, volume, &[], RecoveryCounters::new(), None)
                .total()
        };
        let (t4, t12) = (simulate(4), simulate(12));
        let mean_records = records.iter().sum::<usize>() as f64 / records.len() as f64;
        println!(
            "{:>10}kB {:>8} {:>14.1} {:>11.1}s {:>11.1}s",
            block_kb,
            splits.len(),
            mean_records,
            t4,
            t12
        );
    }
    println!(
        "\nExpected: small blocks → many short tasks (task overhead dominates);\n\
         huge blocks → one task (no parallelism; both cluster sizes identical);\n\
         the minimum sits where splits ≈ a small multiple of the slot count."
    );
}
