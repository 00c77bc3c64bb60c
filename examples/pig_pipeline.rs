//! Run the paper's Algorithm 3 Pig script end-to-end: FASTA on the
//! DFS → parse → lower to Map-Reduce jobs → cluster labels on the DFS.
//!
//! ```sh
//! cargo run --release --example pig_pipeline
//! ```

use std::collections::HashMap;
use std::sync::Arc;

use mrmc::{algorithm3_script, register_mrmc_udfs, MrMcConfig};
use mrmc_minh_suite::mapreduce::dfs::{Dfs, DfsConfig};
use mrmc_minh_suite::mapreduce::{ClusterSpec, JobCostModel};
use mrmc_minh_suite::pig::{parse_script, PigRunner, UdfRegistry};
use mrmc_minh_suite::seqio::write_fasta;
use mrmc_minh_suite::simulate::{CommunitySpec, ErrorModel, ReadSimulator, SpeciesSpec, TaxRank};

fn main() {
    // 1. Simulate a small 2-species amplicon sample and stage it on
    //    the (simulated) HDFS.
    let community = CommunitySpec {
        species: vec![
            SpeciesSpec {
                name: "A".into(),
                gc: 0.45,
                abundance: 1.0,
            },
            SpeciesSpec {
                name: "B".into(),
                gc: 0.55,
                abundance: 1.0,
            },
        ],
        rank: TaxRank::Phylum,
        genome_len: 150,
    };
    let simulator = ReadSimulator::new(150, ErrorModel::with_total_rate(0.005));
    let dataset = community.generate("pig", 60, &simulator, 3);
    let mut fasta = Vec::new();
    write_fasta(&mut fasta, &dataset.reads, 0).expect("serialize FASTA");

    let dfs = Arc::new(
        Dfs::new(DfsConfig {
            block_size: 16 * 1024,
            replication: 2,
            nodes: 4,
        })
        .expect("valid DFS config"),
    );
    dfs.put("/data/reads.fa", fasta, false)
        .expect("stage input");
    println!(
        "staged {} reads on DFS ({} blocks)",
        dataset.len(),
        dfs.total_blocks()
    );

    // 2. Parameterize and parse the paper's script. The script computes
    //    what this native config does ($DIV seeds the hash family), so
    //    θ is selected unsupervised on it.
    let config = MrMcConfig {
        kmer: 12,
        num_hashes: 64,
        seed: 1_048_583,
        ..MrMcConfig::default()
    };
    let theta = mrmc::suggest_theta(&dataset.reads, &config, 60);
    println!("suggested CUTOFF = {theta:.3}");
    let params: HashMap<String, String> = [
        ("INPUT", "/data/reads.fa".to_string()),
        ("KMER", config.kmer.to_string()),
        ("NUMHASH", config.num_hashes.to_string()),
        ("DIV", config.seed.to_string()),
        ("LINK", "average".to_string()),
        ("CUTOFF", theta.to_string()),
        ("OUTPUT1", "/out/hierarchical".to_string()),
        ("OUTPUT2", "/out/greedy".to_string()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    let script = parse_script(algorithm3_script(), &params).expect("script parses");
    println!(
        "parsed Algorithm 3 script: {} statements",
        script.statements.len()
    );

    // 3. Execute on the Map-Reduce substrate.
    let mut registry = UdfRegistry::with_builtins();
    register_mrmc_udfs(&mut registry);
    let runner = PigRunner::new(Arc::clone(&dfs), registry);
    let report = runner.run(&script).expect("script runs");
    println!("stored outputs: {:?}", report.stored);

    // 4. Inspect results + the simulated cluster schedule.
    for path in &report.stored {
        let text = String::from_utf8(dfs.read(path).expect("readable").to_vec()).unwrap();
        let clusters: std::collections::HashSet<&str> = text
            .lines()
            .filter_map(|l| l.rsplit_once(',').map(|(_, c)| c.trim_end_matches(')')))
            .collect();
        println!(
            "  {path}: {} reads, {} clusters",
            text.lines().count(),
            clusters.len()
        );
    }

    println!("\nper-stage Map-Reduce statistics:");
    for stage in report.pipeline.stages() {
        println!(
            "  {:<28} {} map tasks, {} reduce tasks, {} shuffled pairs, {:.1} ms wall",
            stage.name,
            stage.map_stats.len(),
            stage.reduce_stats.len(),
            stage.shuffled_pairs,
            stage.wall.as_secs_f64() * 1e3,
        );
    }
    let model = JobCostModel::default();
    for nodes in [2usize, 8] {
        let total = report
            .pipeline
            .simulated_total(&ClusterSpec::m1_large(nodes), &model);
        println!("simulated wall-clock on {nodes:>2} EMR nodes: {total:.1}s");
    }
}
