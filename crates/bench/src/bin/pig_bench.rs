//! `pig_bench` — row vs columnar Pig engine on Algorithm 3.
//!
//! Runs the paper's Algorithm 3 script (FASTA load → sequence
//! normalisation → k-mer translation → GROUP BY read → minwise
//! sketching → pairwise similarity → hierarchical + greedy
//! clustering) end to end on a synthesized metagenome under both
//! execution engines of the Pig layer:
//!
//! * **row** — the boxed row-at-a-time plane: every tuple a
//!   `Vec<Value>`, every UDF call one boxed invocation, GROUP
//!   shuffling whole cloned rows;
//! * **columnar** — the batched plane: typed `ColumnBatch` storage,
//!   batch-at-a-time UDF kernels for the hot Algorithm-3 operators,
//!   and a GROUP stage that shuffles `u32` row indices (priced at the
//!   rows' wire size) and gathers group bags in one pass.
//!
//! The engines are interleaved best-of-N, STORE outputs are asserted
//! byte-identical every iteration, and the per-stage shuffle
//! accounting is asserted equal (the index shuffle prices itself at
//! the boxed rows' wire size by construction). Each run's heap
//! allocations are counted (`row_allocs`, `columnar_allocs`, one
//! entry per iteration): boxing that creeps back into the columnar
//! plane shows there before it shows in seconds. `--min-speedup <s>`
//! turns the wall-clock ratio into a CI gate: the process exits
//! non-zero if the columnar engine drops below `s`× the row engine.
//! `--trace <path>` re-runs the columnar engine with a tracer and
//! writes a Chrome trace plus a per-operator critical-path report.
//!
//! ```sh
//! cargo run -p mrmc-bench --release --bin pig_bench -- \
//!     --json results/BENCH_pig.json --min-speedup 2.0
//! ```

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use mrmc::{algorithm3_script, register_mrmc_udfs};
use mrmc_bench::alloc::count_allocs;
use mrmc_bench::json::{write_file, Json};
use mrmc_bench::HarnessArgs;
use mrmc_mapreduce::dfs::{Dfs, DfsConfig};
use mrmc_mapreduce::{chrome_trace, critical_path, Tracer};
use mrmc_pig::{parse_script, PigEngine, PigRunner, Script, UdfRegistry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ITERS: usize = 3;
const KMER: i64 = 6;
const NUMHASH: i64 = 24;
const DIV: i64 = 1_048_583;
const INPUT: &str = "/in/reads.fa";
const OUTPUTS: [&str; 2] = ["/out/hier", "/out/greedy"];

fn registry() -> UdfRegistry {
    let mut r = UdfRegistry::with_builtins();
    register_mrmc_udfs(&mut r);
    r
}

/// Synthesize a FASTA corpus: `n` reads of 800–1200 bp drawn from a
/// handful of seeded templates with point mutations, so the pairwise
/// stage sees real cluster structure instead of uniform noise.
fn synth_fasta(n: usize, rng: &mut StdRng) -> Vec<u8> {
    const BASES: &[u8; 4] = b"ACGT";
    let templates: Vec<Vec<u8>> = (0..8)
        .map(|_| {
            let len = rng.random_range(800..1200);
            (0..len)
                .map(|_| BASES[rng.random_range(0..4usize)])
                .collect()
        })
        .collect();
    let mut out = Vec::new();
    for i in 0..n {
        let template = &templates[rng.random_range(0..templates.len())];
        out.extend_from_slice(format!(">r{i:05}\n").as_bytes());
        for &b in template {
            // ~2% point mutation rate keeps intra-template identity high.
            if rng.random_range(0..100) < 2 {
                out.push(BASES[rng.random_range(0..4usize)]);
            } else {
                out.push(b);
            }
        }
        out.push(b'\n');
    }
    out
}

struct RunResult {
    secs: f64,
    /// Heap allocations inside `PigRunner::run`, worker threads included.
    allocs: u64,
    /// Concatenated STORE outputs, in script order.
    output: Vec<u8>,
    /// `(stage name, shuffled pairs, shuffled bytes)` per shuffle stage.
    shuffle: Vec<(String, u64, u64)>,
}

fn run_engine(
    fasta: &[u8],
    script: &Script,
    engine: PigEngine,
    workers: usize,
    tracer: Option<Arc<Tracer>>,
) -> RunResult {
    let dfs = Arc::new(
        Dfs::new(DfsConfig {
            block_size: 64 * 1024,
            replication: 1,
            nodes: 2,
        })
        .expect("dfs"),
    );
    dfs.put(INPUT, fasta.to_vec(), false).expect("put input");
    let mut runner = PigRunner::new(Arc::clone(&dfs), registry()).with_engine(engine);
    runner.workers = Some(workers);
    if let Some(t) = tracer {
        runner = runner.traced(t);
    }
    let t = Instant::now();
    let (report, allocs) = count_allocs(|| runner.run(script).expect("Algorithm 3 run"));
    let secs = t.elapsed().as_secs_f64();
    let mut output = Vec::new();
    for path in OUTPUTS {
        output.extend_from_slice(&dfs.read(path).expect("stored output"));
    }
    let shuffle = report
        .pipeline
        .stages()
        .iter()
        .filter(|s| s.shuffled_pairs > 0)
        .map(|s| (s.name.clone(), s.shuffled_pairs, s.shuffled_bytes))
        .collect();
    RunResult {
        secs,
        allocs,
        output,
        shuffle,
    }
}

fn main() {
    let args = HarnessArgs::parse(1.0);
    let reads = ((300.0 * args.scale).round() as usize).max(20);
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut rng = StdRng::seed_from_u64(args.seed);
    let fasta = synth_fasta(reads, &mut rng);

    let mut params = HashMap::new();
    for (k, v) in [
        ("INPUT", INPUT.to_string()),
        ("KMER", KMER.to_string()),
        ("NUMHASH", NUMHASH.to_string()),
        ("DIV", DIV.to_string()),
        ("LINK", "average".to_string()),
        ("CUTOFF", "0.9".to_string()),
        ("OUTPUT1", OUTPUTS[0].to_string()),
        ("OUTPUT2", OUTPUTS[1].to_string()),
    ] {
        params.insert(k.to_string(), v);
    }
    let script = parse_script(algorithm3_script(), &params).expect("Algorithm 3 parses");

    eprintln!(
        "pig_bench: {reads} reads ({} bytes FASTA), k={KMER}, numhash={NUMHASH}, \
         {workers} workers, {ITERS} iters, seed {}",
        fasta.len(),
        args.seed
    );

    // Interleave the engines so neither systematically benefits from a
    // warm allocator; keep the best time of each, assert bit-identity
    // every iteration.
    let mut row_best = f64::INFINITY;
    let mut col_best = f64::INFINITY;
    let mut row_last = None;
    let mut col_last = None;
    let mut row_allocs = Vec::with_capacity(ITERS);
    let mut col_allocs = Vec::with_capacity(ITERS);
    for iter in 0..ITERS {
        let row = run_engine(&fasta, &script, PigEngine::Row, workers, None);
        row_best = row_best.min(row.secs);
        let col = run_engine(&fasta, &script, PigEngine::Columnar, workers, None);
        col_best = col_best.min(col.secs);
        assert_eq!(
            row.output, col.output,
            "columnar engine must be bit-identical to the row engine"
        );
        assert_eq!(
            row.shuffle, col.shuffle,
            "engines must agree on per-stage shuffle accounting"
        );
        eprintln!(
            "iter {iter}: row {:.3}s {} allocs, columnar {:.3}s {} allocs",
            row.secs, row.allocs, col.secs, col.allocs
        );
        row_allocs.push(row.allocs);
        col_allocs.push(col.allocs);
        row_last = Some(row);
        col_last = Some(col);
    }
    let row = row_last.expect("ITERS > 0");
    let col = col_last.expect("ITERS > 0");
    let speedup = row_best / col_best;

    println!("\npig engine bench — Algorithm 3, row vs columnar data plane\n");
    println!(
        "{:>10} {:>12} {:>14} {:>12} {:>9}",
        "engine", "best (s)", "output (B)", "allocs", "speedup"
    );
    println!(
        "{:>10} {:>12.3} {:>14} {:>12} {:>9}",
        "row",
        row_best,
        row.output.len(),
        row.allocs,
        ""
    );
    println!(
        "{:>10} {:>12.3} {:>14} {:>12} {:>8.2}x",
        "columnar",
        col_best,
        col.output.len(),
        col.allocs,
        speedup
    );
    println!("\nshuffle accounting (identical across engines):");
    for (name, pairs, bytes) in &row.shuffle {
        println!("{name:>24} {pairs:>10} pairs {bytes:>12} bytes");
    }

    // Optional: trace one columnar run and attribute wall-clock to the
    // per-operator `Category::Pig` spans on the critical path.
    let mut trace_json = Json::from(false);
    if let Some(path) = &args.trace {
        let tracer = Arc::new(Tracer::new());
        let traced = run_engine(
            &fasta,
            &script,
            PigEngine::Columnar,
            workers,
            Some(Arc::clone(&tracer)),
        );
        assert_eq!(traced.output, row.output, "traced run diverged");
        let ledger = tracer.ledger();
        std::fs::write(path, chrome_trace(&ledger))
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        let cp = critical_path(&ledger);
        println!("\ncolumnar critical path (traced run):\n{}", cp.report());
        trace_json = Json::obj([
            ("path", Json::from(path.as_str())),
            ("spans", ledger.spans.len().into()),
            ("coverage", Json::fixed(cp.coverage(), 6)),
            (
                "categories_seconds",
                Json::obj(
                    mrmc_mapreduce::obs::trace::CATEGORIES
                        .iter()
                        .map(|&c| (c.name(), Json::fixed(cp.category_ns(c) as f64 / 1e9, 6))),
                ),
            ),
        ]);
        eprintln!("wrote columnar Chrome trace to {path}");
    }

    let doc = Json::obj([
        ("scale", Json::from(args.scale)),
        ("seed", args.seed.into()),
        ("reads", reads.into()),
        ("fasta_bytes", fasta.len().into()),
        ("kmer", KMER.into()),
        ("numhash", NUMHASH.into()),
        ("workers", workers.into()),
        ("iters", ITERS.into()),
        ("row_secs", Json::fixed(row_best, 6)),
        ("columnar_secs", Json::fixed(col_best, 6)),
        ("speedup", Json::fixed(speedup, 3)),
        (
            "row_allocs",
            Json::arr(row_allocs.into_iter().map(Json::from)),
        ),
        (
            "columnar_allocs",
            Json::arr(col_allocs.into_iter().map(Json::from)),
        ),
        ("identical", true.into()),
        ("output_bytes", row.output.len().into()),
        (
            "shuffle_stages",
            Json::arr(row.shuffle.iter().map(|(name, pairs, bytes)| {
                Json::obj([
                    ("stage", Json::from(name.as_str())),
                    ("shuffled_pairs", (*pairs).into()),
                    ("shuffled_bytes", (*bytes).into()),
                ])
            })),
        ),
        ("trace", trace_json),
    ]);
    println!("\n{}", doc.pretty());
    if let Some(path) = &args.json {
        write_file(path, &doc);
        eprintln!("wrote pig engine bench summary to {path}");
    }

    if let Some(floor) = args.min_speedup {
        if speedup < floor {
            eprintln!(
                "FAIL: columnar speedup {speedup:.3}x fell below the \
                 --min-speedup floor {floor:.3}x"
            );
            std::process::exit(1);
        }
        eprintln!("columnar speedup {speedup:.3}x ≥ floor {floor:.3}x — gate passed");
    }
}
