//! `shuffle_bench` — the sort-merge shuffle microbench.
//!
//! Runs a shuffle-heavy word-count-shaped job (short string keys,
//! ~256 values per key, `--scale 1` = 1M pairs, 8 reducers) through
//! the engine's sort-merge shuffle (map-side grouped sorted runs,
//! move-based barrier, k-way merge reduce), with and without a
//! combiner, and reports the best-of-N time of each next to the
//! pairs/bytes/runs accounting. The plane's output is checked against
//! a concat-sort-group reference in
//! `crates/mapreduce/tests/shuffle_merge.rs`, not here. The JSON
//! summary (stdout, plus `--json <path>`) is what CI uploads as
//! `BENCH_shuffle.json`.
//!
//! A second section runs the *banded clustering pipeline* end to end
//! on the Huse 16S corpus (`--scale 1` = 50k reads) and reports the
//! shuffle traffic of its two banding stages.
//!
//! The banded section also prices the metrics plane: the engine
//! records nothing during a run, so its entire cost is one post-run
//! `Pipeline::export_metrics` — timed, asserted deterministic
//! (byte-identical snapshots across two exports) and gated as a
//! percentage of the run with `--max-metrics-overhead-pct`.
//!
//! ```sh
//! cargo run -p mrmc-bench --release --bin shuffle_bench -- --json BENCH_shuffle.json
//! ```

use std::hint::black_box;
use std::time::Instant;

use mrmc::{MrMcConfig, MrMcMinH};
use mrmc_bench::json::Json;
use mrmc_bench::{alloc, HarnessArgs};
use mrmc_mapreduce::engine::{run_job, run_job_with_combiner};
use mrmc_mapreduce::job::{Combiner, JobConfig, Mapper, Reducer, ShuffleSized, TaskContext};
use mrmc_mapreduce::IdRun;
use mrmc_simulate::huse_16s;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MAPS: usize = 16;
const REDUCERS: usize = 8;
const ITERS: usize = 7;

/// One small pair per record: the input carries a short heap-backed
/// key that the map emits as-is, so the run measures the data plane,
/// not key construction.
struct PairMapper;
impl Mapper for PairMapper {
    type InKey = u32;
    type InValue = String;
    type OutKey = String;
    type OutValue = u32;
    fn map(&self, id: u32, key: String, ctx: &mut TaskContext<String, u32>) {
        ctx.emit(key, id);
    }
    fn key_wire_size(&self, key: &String) -> usize {
        key.shuffle_size()
    }
    fn value_wire_size(&self, value: &u32) -> usize {
        value.shuffle_size()
    }
}

struct SumCombiner;
impl Combiner for SumCombiner {
    type Key = String;
    type Value = u32;
    fn combine(&self, _k: &String, vs: Vec<u32>) -> Vec<u32> {
        vec![vs.iter().sum()]
    }
}

struct SumReducer;
impl Reducer for SumReducer {
    type InKey = String;
    type InValue = u32;
    type OutKey = String;
    type OutValue = u64;
    fn reduce(&self, k: String, vs: Vec<u32>, ctx: &mut TaskContext<String, u64>) {
        ctx.emit(k, vs.iter().map(|&v| u64::from(v)).sum());
    }
}

struct ModeResult {
    secs: f64,
    shuffled_pairs: u64,
    shuffled_bytes: u64,
    shuffle_runs: u64,
}

/// Best-of-[`ITERS`] wall-clock of the job on an owned copy of the
/// input (the engine owns its input and drops it inside the job).
fn measure(label: &str, input: &[(u32, String)], cfg: &JobConfig, combine: bool) -> ModeResult {
    let mut best = f64::INFINITY;
    let mut result = None;
    for iter in 0..ITERS {
        let owned = input.to_vec();
        let t = Instant::now();
        let run = if combine {
            run_job_with_combiner(owned, MAPS, &PairMapper, &SumCombiner, &SumReducer, cfg)
        } else {
            run_job(owned, MAPS, &PairMapper, &SumReducer, cfg)
        }
        .expect("sort-merge job");
        let secs = t.elapsed().as_secs_f64();
        best = best.min(secs);
        eprintln!("{label} iter {iter}: {secs:.3}s");
        result = Some(run);
    }
    let run = result.expect("ITERS > 0");
    ModeResult {
        secs: best,
        shuffled_pairs: run.shuffled_pairs,
        shuffled_bytes: run.shuffled_bytes,
        shuffle_runs: run.shuffle_runs,
    }
}

/// One merge-path measurement: the same input run set merged
/// `iters` times through the legacy decode-concat-sort-reencode
/// oracle (`IdRun::merge_via_decode`) and the streaming plane
/// (`IdRun::merge`), with wall-clock and allocation counts from the
/// global counting allocator. Outputs are asserted byte-identical
/// before anything is timed.
struct MergePathResult {
    shape: &'static str,
    runs_per_merge: usize,
    ids_per_run: usize,
    iters: usize,
    legacy_allocs_per_merge: f64,
    streaming_allocs_per_merge: f64,
    legacy_secs: f64,
    streaming_secs: f64,
}

impl MergePathResult {
    fn alloc_ratio(&self) -> f64 {
        self.legacy_allocs_per_merge / self.streaming_allocs_per_merge.max(1e-9)
    }

    fn streaming_allocs_per_run(&self) -> f64 {
        self.streaming_allocs_per_merge / self.runs_per_merge as f64
    }

    fn speedup(&self) -> f64 {
        self.legacy_secs / self.streaming_secs.max(1e-12)
    }
}

fn bench_merge_shape(
    shape: &'static str,
    runs: Vec<IdRun>,
    ids_per_run: usize,
    iters: usize,
) -> MergePathResult {
    let legacy = IdRun::merge_via_decode(&runs).expect("legacy merge");
    let streaming = IdRun::merge(&runs).expect("streaming merge");
    assert_eq!(
        streaming.as_bytes(),
        legacy.as_bytes(),
        "{shape}: streaming merge must be byte-identical to the decode-merge oracle"
    );

    let t = Instant::now();
    let (_, legacy_allocs) = alloc::count_allocs(|| {
        for _ in 0..iters {
            black_box(IdRun::merge_via_decode(black_box(&runs)).expect("legacy merge"));
        }
    });
    let legacy_secs = t.elapsed().as_secs_f64() / iters as f64;

    let t = Instant::now();
    let (_, streaming_allocs) = alloc::count_allocs(|| {
        for _ in 0..iters {
            black_box(IdRun::merge(black_box(&runs)).expect("streaming merge"));
        }
    });
    let streaming_secs = t.elapsed().as_secs_f64() / iters as f64;

    MergePathResult {
        shape,
        runs_per_merge: runs.len(),
        ids_per_run,
        iters,
        legacy_allocs_per_merge: legacy_allocs as f64 / iters as f64,
        streaming_allocs_per_merge: streaming_allocs as f64 / iters as f64,
        legacy_secs,
        streaming_secs,
    }
}

/// Measure the combine/reduce merge primitive on its two hot shapes:
///
/// * **combiner** — one map task's local group for a hot bucket key:
///   many ascending singleton runs (the splice fast path);
/// * **reducer** — one reduce group across map tasks: a handful of
///   post-combine runs with interleaved id ranges (the k-way heap
///   path).
fn merge_path_bench(seed: u64) -> Vec<MergePathResult> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6d65_7267);

    // Combiner shape: 256 strictly-ascending singletons, the order a
    // map task emits a hot key's ids in.
    let mut id = 0u32;
    let singletons: Vec<IdRun> = (0..256)
        .map(|_| {
            id += rng.random_range(1u32..32);
            IdRun::singleton(id)
        })
        .collect();

    // Reducer shape: 16 runs of 128 ids whose ranges interleave, so
    // the splice pre-scan passes (ascending firsts) but the heap merge
    // must dedup-free interleave them — the worst case for the
    // streaming path.
    let stride = 16u32;
    let overlapping: Vec<IdRun> = (0..16u32)
        .map(|r| {
            let ids: Vec<u32> = (0..128u32).map(|t| r + t * stride).collect();
            IdRun::from_sorted(&ids).expect("strided ids are strictly increasing")
        })
        .collect();

    vec![
        bench_merge_shape("combiner-singletons", singletons, 1, 4_000),
        bench_merge_shape("reducer-overlapping", overlapping, 128, 2_000),
    ]
}

struct BandedShuffle {
    reads: usize,
    /// `(stage, shuffled pairs, shuffled bytes)` for the two banding
    /// stages.
    stages: [(&'static str, u64, u64); 2],
    secs: f64,
    /// Wall-clock for one post-run `Pipeline::export_metrics` +
    /// snapshot over the pipeline — the *entire* cost the metrics
    /// plane adds to an engine run.
    metrics_export_secs: f64,
    /// Keys the export produced (counters + histograms).
    metrics_keys: usize,
}

/// Run the banded clustering pipeline on the Huse 16S corpus and
/// account the banding stages' shuffle traffic.
fn banded_shuffle(scale: f64, seed: u64) -> BandedShuffle {
    let reads = huse_16s(0.03, (50_000.0 * scale / 345_000.0).min(1.0), seed).reads;
    let t = Instant::now();
    let run = MrMcMinH::new(MrMcConfig::sixteen_s().banded())
        .run(&reads)
        .expect("banded run");
    let secs = t.elapsed().as_secs_f64();

    let stages = ["band-signatures", "candidate-dedup"].map(|name| {
        let stage = run
            .pipeline
            .stages()
            .iter()
            .find(|s| s.name == name)
            .expect("banded pipeline stage");
        (name, stage.shuffled_pairs, stage.shuffled_bytes)
    });

    // The engine's metrics plane is passive: nothing is recorded while
    // the job runs (the clustering above was produced with no registry
    // in sight), and the whole cost of lighting it up is one post-run
    // export. Price that export, and pin its determinism — two exports
    // of the same pipeline must render byte-identically.
    let registry = mrmc_obs::MetricsRegistry::new();
    let t = Instant::now();
    run.pipeline.export_metrics(&registry);
    let snap = registry.snapshot();
    let metrics_export_secs = t.elapsed().as_secs_f64();
    let again = mrmc_obs::MetricsRegistry::new();
    run.pipeline.export_metrics(&again);
    assert_eq!(
        snap.render_text(),
        again.snapshot().render_text(),
        "metrics export must be deterministic for a fixed pipeline"
    );
    let metrics_keys = snap.counters.len() + snap.histograms.len();

    BandedShuffle {
        reads: reads.len(),
        stages,
        secs,
        metrics_export_secs,
        metrics_keys,
    }
}

fn main() {
    let args = HarnessArgs::parse(1.0);
    let pairs = ((1_000_000.0 * args.scale).round() as usize).max(1_000);
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    // ~4k distinct keys at full scale — every reduce group gathers
    // ~256 values, the grouping-heavy shape a shuffle exists for.
    let key_space = (pairs / 256).max(16);
    let keys: Vec<String> = (0..key_space).map(|k| format!("k{k:06}")).collect();
    let mut rng = StdRng::seed_from_u64(args.seed);
    let input: Vec<(u32, String)> = (0..pairs as u32)
        .map(|id| (id, keys[rng.random_range(0..key_space)].clone()))
        .collect();
    eprintln!(
        "shuffle_bench: {pairs} pairs, {key_space} keys, {MAPS} maps, {REDUCERS} reducers, \
         {workers} workers, {ITERS} iters, seed {}",
        args.seed
    );

    let cfg = JobConfig::named("shuffle-bench")
        .reducers(REDUCERS)
        .workers(workers);

    let plain = measure("no-combiner", &input, &cfg, false);
    let combined = measure("combiner", &input, &cfg, true);

    println!("\nshuffle microbench — sort-merge plane, best of {ITERS}\n");
    println!(
        "{:>14} {:>12} {:>10} {:>12} {:>8}",
        "mode", "merged (s)", "pairs", "bytes", "runs"
    );
    for (name, m) in [("no-combiner", &plain), ("combiner", &combined)] {
        println!(
            "{name:>14} {:>12.3} {:>10} {:>12} {:>8}",
            m.secs, m.shuffled_pairs, m.shuffled_bytes, m.shuffle_runs
        );
    }

    let merge_path = merge_path_bench(args.seed);
    println!("\nmerge path — legacy decode-merge vs streaming cursor merge\n");
    println!(
        "{:>20} {:>6} {:>12} {:>12} {:>9} {:>11} {:>9}",
        "shape", "runs", "legacy al/m", "stream al/m", "al ratio", "al/run", "speedup"
    );
    for m in &merge_path {
        println!(
            "{:>20} {:>6} {:>12.2} {:>12.2} {:>8.1}x {:>11.4} {:>8.2}x",
            m.shape,
            m.runs_per_merge,
            m.legacy_allocs_per_merge,
            m.streaming_allocs_per_merge,
            m.alloc_ratio(),
            m.streaming_allocs_per_run(),
            m.speedup()
        );
    }
    let merge_alloc_reduction = merge_path
        .iter()
        .map(|m| m.legacy_allocs_per_merge)
        .sum::<f64>()
        / merge_path
            .iter()
            .map(|m| m.streaming_allocs_per_merge)
            .sum::<f64>()
            .max(1e-9);
    println!("merge-path allocation reduction (both shapes): {merge_alloc_reduction:.1}x");

    eprintln!("\nbanded pipeline (Huse 16S)…");
    let banded = banded_shuffle(args.scale, args.seed);
    println!(
        "\nbanded pipeline — banding-stage shuffle on {} reads ({:.2}s)\n",
        banded.reads, banded.secs
    );
    println!("{:>18} {:>14} {:>14}", "stage", "pairs", "bytes");
    for (name, pairs, bytes) in &banded.stages {
        println!("{name:>18} {pairs:>14} {bytes:>14}");
    }

    let metrics_overhead_pct = banded.metrics_export_secs / banded.secs.max(1e-12) * 100.0;
    println!(
        "\nmetrics plane: post-run export of {} engine keys in {:.6}s \
         = {:.4}% of the {:.2}s run (snapshots deterministic)",
        banded.metrics_keys, banded.metrics_export_secs, metrics_overhead_pct, banded.secs
    );

    let banded_json = Json::obj([
        ("reads", banded.reads.into()),
        ("secs", Json::fixed(banded.secs, 3)),
        (
            "stages",
            Json::arr(banded.stages.iter().map(|(name, pairs, bytes)| {
                Json::obj([
                    ("stage", Json::from(*name)),
                    ("shuffled_pairs", (*pairs).into()),
                    ("shuffle_bytes", (*bytes).into()),
                ])
            })),
        ),
    ]);

    let doc = Json::obj([
        ("scale", Json::from(args.scale)),
        ("seed", args.seed.into()),
        ("pairs", pairs.into()),
        ("keys", key_space.into()),
        ("maps", MAPS.into()),
        ("reducers", REDUCERS.into()),
        ("workers", workers.into()),
        ("iters", ITERS.into()),
        ("merged_secs", Json::fixed(plain.secs, 6)),
        ("merged_combiner_secs", Json::fixed(combined.secs, 6)),
        ("shuffled_pairs", plain.shuffled_pairs.into()),
        ("shuffle_bytes", plain.shuffled_bytes.into()),
        ("shuffle_runs", plain.shuffle_runs.into()),
        (
            "merge_path",
            Json::obj([
                ("alloc_reduction", Json::fixed(merge_alloc_reduction, 1)),
                (
                    "shapes",
                    Json::arr(merge_path.iter().map(|m| {
                        Json::obj([
                            ("shape", Json::from(m.shape)),
                            ("runs_per_merge", m.runs_per_merge.into()),
                            ("ids_per_run", m.ids_per_run.into()),
                            ("iters", m.iters.into()),
                            (
                                "legacy_allocs_per_merge",
                                Json::fixed(m.legacy_allocs_per_merge, 2),
                            ),
                            (
                                "streaming_allocs_per_merge",
                                Json::fixed(m.streaming_allocs_per_merge, 2),
                            ),
                            ("alloc_ratio", Json::fixed(m.alloc_ratio(), 1)),
                            (
                                "streaming_allocs_per_run",
                                Json::fixed(m.streaming_allocs_per_run(), 4),
                            ),
                            ("legacy_secs", Json::fixed(m.legacy_secs, 9)),
                            ("streaming_secs", Json::fixed(m.streaming_secs, 9)),
                            ("speedup", Json::fixed(m.speedup(), 2)),
                        ])
                    })),
                ),
            ]),
        ),
        ("banded", banded_json),
        (
            "metrics_overhead",
            Json::obj([
                ("export_secs", Json::fixed(banded.metrics_export_secs, 6)),
                ("engine_keys", banded.metrics_keys.into()),
                ("pct_of_run", Json::fixed(metrics_overhead_pct, 4)),
                ("deterministic", true.into()),
            ]),
        ),
    ]);
    println!("\n{}", doc.pretty());
    if let Some(path) = &args.json {
        mrmc_bench::json::write_file(path, &doc);
        eprintln!("wrote shuffle microbench summary to {path}");
    }

    if let Some(cap) = args.max_merge_allocs_per_run {
        for m in &merge_path {
            let per_run = m.streaming_allocs_per_run();
            if per_run > cap {
                eprintln!(
                    "FAIL: {} streaming merge performed {per_run:.4} allocations per \
                     input run, above the --max-merge-allocs-per-run cap {cap:.4}",
                    m.shape
                );
                std::process::exit(1);
            }
        }
        eprintln!(
            "merge-path allocations within the {cap:.4}/run cap \
             (reduction {merge_alloc_reduction:.1}x) — gate passed"
        );
    }

    if let Some(limit) = args.max_metrics_overhead_pct {
        if metrics_overhead_pct > limit {
            eprintln!(
                "FAIL: post-run metrics export cost {metrics_overhead_pct:.4}% of the \
                 banded run, above the --max-metrics-overhead-pct cap {limit:.4}"
            );
            std::process::exit(1);
        }
        eprintln!(
            "metrics export {metrics_overhead_pct:.4}% of run within the {limit:.4}% cap \
             — gate passed"
        );
    }
}
