//! `banded_vs_dense` — pruning ratio, recall, and wall-clock of the
//! banded-LSH candidate pipeline against the dense all-pairs oracle.
//!
//! For each corpus size the binary sketches a Huse-style 16S corpus,
//! counts the true θ-edge set with a parallel dense scan (no matrix is
//! materialized — 50 k reads would need ~5 GB), runs the three banded
//! Map-Reduce stages, and reports:
//!
//! * **pruning** — all pairs / similarity evaluations actually made;
//! * **recall** — banded θ-edges / true θ-edges (the auto-tuned scheme
//!   guarantees 1.0; anything less is a failure);
//! * wall-clock of both paths and the banded shuffle volume.
//!
//! Two probes guard the exactness contract: on a small corpus greedy
//! clustering must equal the `greedy_cluster` scan under either
//! `candidates` value and hierarchical clustering must be identical
//! dense-vs-banded, and a chaos run (task panics in both banding
//! *reducers*) must yield a bit-identical sparse graph. Any recall < 1,
//! probe mismatch, or — at sizes ≥ 10 000 reads — pruning below 5×
//! exits non-zero (the CI `banded-smoke` gate).
//!
//! ```sh
//! cargo run -p mrmc-bench --release --bin banded_vs_dense
//! cargo run -p mrmc-bench --release --bin banded_vs_dense -- --scale 0.01
//! ```

use std::sync::Arc;
use std::time::Instant;

use mrmc::banded::banded_graph_stage;
use mrmc::stages::sketch_stage;
use mrmc::{MrMcConfig, MrMcMinH};
use mrmc_bench::HarnessArgs;
use mrmc_cluster::greedy_cluster;
use mrmc_mapreduce::chaos::{FaultPlan, Phase};
use mrmc_mapreduce::pipeline::Pipeline;
use mrmc_minhash::positional_similarity;
use mrmc_simulate::huse_16s;
use rayon::prelude::*;

struct Row {
    reads: usize,
    total_pairs: u64,
    verified: u64,
    truth_edges: u64,
    banded_edges: u64,
    recall: f64,
    pruning: f64,
    shuffle_bytes: u64,
    dense_secs: f64,
    banded_secs: f64,
}

fn config() -> MrMcConfig {
    MrMcConfig::sixteen_s().banded()
}

/// True θ-edge count by brute force, parallel over rows, nothing
/// materialized.
fn dense_truth(sketches: &[mrmc_minhash::Sketch], cfg: &MrMcConfig) -> u64 {
    let n = sketches.len();
    let rows: Vec<usize> = (0..n).collect();
    let counts: Vec<u64> = rows
        .into_par_iter()
        .map(|i| {
            let mut c = 0u64;
            for j in i + 1..n {
                if positional_similarity(&sketches[i], &sketches[j]) >= cfg.theta {
                    c += 1;
                }
            }
            c
        })
        .collect();
    counts.iter().sum()
}

fn measure(size: usize, args: &HarnessArgs, failures: &mut Vec<String>) -> Row {
    let cfg = config();
    let dataset = huse_16s(0.03, size as f64 / 345_000.0, args.seed);
    let reads = dataset.reads;
    let n = reads.len();

    let mut pipeline = Pipeline::new("banded-vs-dense");
    let sketches = sketch_stage(&reads, &cfg, &mut pipeline).expect("sketch stage");

    let t = Instant::now();
    let truth_edges = dense_truth(&sketches, &cfg);
    let dense_secs = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let graph = banded_graph_stage(&sketches, &cfg, &mut pipeline).expect("banded stages");
    let banded_secs = t.elapsed().as_secs_f64();

    let banded_edges = graph.num_edges() as u64;
    let verified = pipeline.counter_total("PAIRS_COMPUTED");
    let total_pairs = (n as u64) * (n as u64 - 1) / 2;
    // Every banded edge passed the same `sim ≥ θ` test the truth scan
    // applies, so banded ⊆ truth and the ratio *is* the recall.
    let recall = if truth_edges == 0 {
        1.0
    } else {
        banded_edges as f64 / truth_edges as f64
    };
    let pruning = total_pairs as f64 / verified.max(1) as f64;

    if recall < 1.0 {
        failures.push(format!(
            "{n} reads: recall {recall:.6} < 1.0 ({banded_edges} of {truth_edges} edges)"
        ));
    }
    if n >= 10_000 && pruning < 5.0 {
        failures.push(format!(
            "{n} reads: pruning {pruning:.2}× below the 5× floor"
        ));
    }

    Row {
        reads: n,
        total_pairs,
        verified,
        truth_edges,
        banded_edges,
        recall,
        pruning,
        shuffle_bytes: pipeline.stages().iter().map(|s| s.shuffled_bytes).sum(),
        dense_secs,
        banded_secs,
    }
}

/// Clustering bit-identity probe on a small 16S corpus: the greedy
/// route (one code path under either `candidates` value) must give the
/// `greedy_cluster` scan's labels, and the hierarchical assignments
/// must match dense-vs-banded.
fn identity_probe(args: &HarnessArgs, failures: &mut Vec<String>) {
    let reads = huse_16s(0.03, 400.0 / 345_000.0, args.seed).reads;
    let run = |cfg: MrMcConfig| {
        MrMcMinH::new(cfg)
            .run(&reads)
            .expect("probe run")
            .assignment
    };

    let greedy = config().greedy();
    let sketches = sketch_stage(&reads, &greedy, &mut Pipeline::new("probe-scan")).expect("sketch");
    let scan = greedy_cluster(sketches.len(), greedy.theta, |i, j| {
        positional_similarity(&sketches[i], &sketches[j])
    })
    .compact();
    let dense = run(config().hierarchical().dense());
    for (what, got, want) in [
        ("greedy (dense) vs scan", run(greedy.dense()), &scan),
        ("greedy (banded) vs scan", run(greedy), &scan),
        (
            "hierarchical banded vs dense",
            run(config().hierarchical()),
            &dense,
        ),
    ] {
        if got != *want {
            failures.push(format!(
                "{what}: clusterings differ ({} vs {} clusters)",
                got.num_clusters(),
                want.num_clusters()
            ));
        } else {
            eprintln!(
                "identity probe [{what}]: identical ({} clusters)",
                want.num_clusters()
            );
        }
    }
}

/// Chaos probe: panics in the bucket and dedup *reducers* (the banded
/// pipeline's new recovery surface) must leave the graph bit-identical.
fn chaos_probe(args: &HarnessArgs, failures: &mut Vec<String>) {
    let cfg = config();
    let dataset = huse_16s(0.03, 400.0 / 345_000.0, args.seed);
    let mut p = Pipeline::new("chaos-clean");
    let sketches = sketch_stage(&dataset.reads, &cfg, &mut p).expect("sketch stage");
    let clean = banded_graph_stage(&sketches, &cfg, &mut p).expect("clean banded");

    // Job ordinals under this injector: 0 = band-signatures,
    // 1 = candidate-dedup, 2 = verify.
    let inj = FaultPlan::new()
        .task_panic(0, Phase::Reduce, 0, 2)
        .task_panic(1, Phase::Reduce, 1, 1)
        .task_panic(2, Phase::Map, 0, 1)
        .injector();
    let mut chaotic_p = Pipeline::new("chaos-faulty").with_faults(Arc::new(inj));
    let faulty = banded_graph_stage(&sketches, &cfg, &mut chaotic_p);
    match faulty {
        Ok(g) if g == clean => {
            let rec = chaotic_p.total_recovery();
            eprintln!(
                "chaos probe: graph bit-identical after {} recovery events",
                rec.total_events()
            );
            if rec.tasks_retried < 4 {
                failures.push(format!(
                    "chaos probe: expected ≥ 4 retries (2+1 reduce, 1 map), saw {}",
                    rec.tasks_retried
                ));
            }
        }
        Ok(_) => failures.push("chaos probe: recovered graph differs from clean".into()),
        Err(e) => failures.push(format!("chaos probe: banded run failed: {e}")),
    }
}

fn main() {
    // Injected panics are retried by the engine; silence their traces.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .map(|s| s.starts_with("chaos: injected panic"))
            .unwrap_or(false);
        if !injected {
            default_hook(info);
        }
    }));

    let args = HarnessArgs::parse(1.0);
    let cfg = config();
    let scheme = cfg.banding_scheme();
    let (bands, rows) = (scheme.bands, scheme.rows);
    eprintln!(
        "banded_vs_dense: θ = {}, n = {} hashes, scheme {bands} bands × {rows} rows \
         (exact-recall threshold {:.4}), seed {}",
        cfg.theta,
        cfg.num_hashes,
        scheme.exact_recall_threshold(cfg.num_hashes),
        args.seed
    );

    let mut failures: Vec<String> = Vec::new();
    let sizes: Vec<usize> = [10_000usize, 25_000, 50_000]
        .iter()
        .map(|&s| ((s as f64 * args.scale).round() as usize).max(40))
        .collect();

    println!(
        "{:>8} {:>14} {:>12} {:>10} {:>10} {:>8} {:>9} {:>12} {:>10} {:>10}",
        "reads",
        "all pairs",
        "verified",
        "truth",
        "edges",
        "recall",
        "pruning",
        "shuffle B",
        "dense s",
        "banded s"
    );
    let mut rows_out = Vec::new();
    for &size in &sizes {
        let row = measure(size, &args, &mut failures);
        println!(
            "{:>8} {:>14} {:>12} {:>10} {:>10} {:>8.4} {:>8.1}x {:>12} {:>10.2} {:>10.2}",
            row.reads,
            row.total_pairs,
            row.verified,
            row.truth_edges,
            row.banded_edges,
            row.recall,
            row.pruning,
            row.shuffle_bytes,
            row.dense_secs,
            row.banded_secs
        );
        rows_out.push(row);
    }

    identity_probe(&args, &mut failures);
    chaos_probe(&args, &mut failures);

    let body: Vec<String> = rows_out
        .iter()
        .map(|r| {
            format!(
                "    {{\"reads\": {}, \"total_pairs\": {}, \"verified\": {}, \
                 \"truth_edges\": {}, \"banded_edges\": {}, \"recall\": {}, \
                 \"pruning\": {}, \"shuffle_bytes\": {}, \"dense_secs\": {}, \
                 \"banded_secs\": {}}}",
                r.reads,
                r.total_pairs,
                r.verified,
                r.truth_edges,
                r.banded_edges,
                r.recall,
                r.pruning,
                r.shuffle_bytes,
                r.dense_secs,
                r.banded_secs
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"theta\": {},\n  \"bands\": {bands},\n  \"rows\": {rows},\n  \
         \"seed\": {},\n  \"ok\": {},\n  \"sizes\": [\n{}\n  ]\n}}",
        cfg.theta,
        args.seed,
        failures.is_empty(),
        body.join(",\n")
    );
    if let Some(path) = &args.json {
        std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("wrote results to {path}");
    }

    if failures.is_empty() {
        eprintln!("banded_vs_dense: all checks passed (recall 1.0 everywhere)");
    } else {
        for f in &failures {
            eprintln!("banded_vs_dense: FAILURE — {f}");
        }
        std::process::exit(1);
    }
}
