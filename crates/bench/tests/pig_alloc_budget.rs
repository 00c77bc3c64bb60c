//! Allocation budget of the Pig route (DESIGN.md §3b).
//!
//! One `#[test]` on purpose, in a binary of its own: `mrmc_bench`'s
//! counting allocator is process-global, so a test running in parallel
//! would be charged to the section measured here.

use std::collections::HashMap;
use std::sync::Arc;

use mrmc::{algorithm3_script, register_mrmc_udfs};
use mrmc_bench::alloc::count_allocs;
use mrmc_mapreduce::dfs::{Dfs, DfsConfig};
use mrmc_pig::{parse_script, PigRunner, UdfRegistry};
use mrmc_seqio::write_fasta;
use mrmc_simulate::huse_16s;

#[test]
fn algorithm3_stays_inside_its_per_read_allocation_budget() {
    let reads = huse_16s(0.03, 300.0 / 345_000.0, 7).reads;
    assert_eq!(reads.len(), 300);
    let mut fasta = Vec::new();
    write_fasta(&mut fasta, &reads, 0).expect("writing to a Vec cannot fail");

    // The benchmark ledger's `pig_algorithm3` parameters.
    let params: HashMap<String, String> = [
        ("INPUT", "/in/reads.fa"),
        ("KMER", "15"),
        ("NUMHASH", "50"),
        ("DIV", "1048583"),
        ("LINK", "average"),
        ("CUTOFF", "0.95"),
        ("OUTPUT1", "/out/hier"),
        ("OUTPUT2", "/out/greedy"),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v.to_string()))
    .collect();
    let script = parse_script(algorithm3_script(), &params).expect("Algorithm 3 parses");
    let dfs = Arc::new(
        Dfs::new(DfsConfig {
            block_size: 64 * 1024,
            replication: 1,
            nodes: 2,
        })
        .expect("valid DFS config"),
    );
    dfs.put("/in/reads.fa", fasta, false).expect("put input");
    let mut registry = UdfRegistry::with_builtins();
    register_mrmc_udfs(&mut registry);
    let runner = PigRunner::new(Arc::clone(&dfs), registry);

    let (report, allocs) = count_allocs(|| runner.run(&script).expect("Algorithm 3 runs"));
    assert_eq!(report.stored.len(), 2);
    // Measured: 143 allocations per read (columns, offsets and shuffle
    // runs, one sketch per `I.E` row when `J` is bound, one count strip
    // per distinct sketch in `K`, and `B`'s `StringGenerator` row body;
    // nothing per k-mer or per pair; 43 198 in all, 43 582 while each
    // `J` chunk ranked `I.E` again and `GROUP … ALL` gathered a copy of
    // its input, 45 655 while each
    // `J` chunk decoded `I.E` again, 45 743 while `J` emitted
    // `(seqid, similarity)` tuples for `K` to index; 159 while `B`'s
    // tuple rows were expanded row by row, 183 while each `J` chunk
    // deep-copied the broadcast `I.E`). An executor that
    // boxes every k-mer row measured 8 791 per read on this input, so
    // twice the measurement leaves room for noise and none for boxing.
    let per_read = allocs / reads.len() as u64;
    assert!(
        per_read < 350,
        "{allocs} allocations inside PigRunner::run for {} reads: {per_read} per read, budget 350",
        reads.len()
    );
}
