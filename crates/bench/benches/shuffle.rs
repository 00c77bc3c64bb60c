//! Map-Reduce substrate benchmarks: end-to-end job throughput,
//! combiner on/off (the ablation DESIGN.md calls out), and worker
//! scaling. Each iteration runs the job as the one stage of a fresh
//! [`Pipeline`].

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mrmc_mapreduce::job::{Combiner, JobConfig, Mapper, Reducer, TaskContext};
use mrmc_mapreduce::pipeline::Pipeline;

struct Tokenize;
impl Mapper for Tokenize {
    type InKey = usize;
    type InValue = String;
    type OutKey = String;
    type OutValue = u64;
    fn map(&self, _k: usize, line: String, ctx: &mut TaskContext<String, u64>) {
        for w in line.split_whitespace() {
            ctx.emit(w.to_string(), 1);
        }
    }
}

struct Sum;
impl Reducer for Sum {
    type InKey = String;
    type InValue = u64;
    type OutKey = String;
    type OutValue = u64;
    fn reduce(&self, k: String, vs: Vec<u64>, ctx: &mut TaskContext<String, u64>) {
        ctx.emit(k, vs.iter().sum());
    }
}

struct SumCombiner;
impl Combiner for SumCombiner {
    type Key = String;
    type Value = u64;
    fn combine(&self, _k: &String, vs: Vec<u64>) -> Vec<u64> {
        vec![vs.iter().sum()]
    }
}

fn corpus(lines: usize) -> Vec<(usize, String)> {
    // Zipf-ish vocabulary so the combiner has duplicates to collapse.
    (0..lines)
        .map(|i| {
            let words: Vec<String> = (0..12)
                .map(|j| format!("w{}", (i * 13 + j * j) % 50))
                .collect();
            (i, words.join(" "))
        })
        .collect()
}

fn bench_shuffle(c: &mut Criterion) {
    let mut group = c.benchmark_group("mapreduce-wordcount");
    let input = corpus(4000);
    let cfg = JobConfig::named("wc").reducers(8);

    let word_count = |cfg: &JobConfig| {
        Pipeline::new("wc")
            .run_stage(input.clone(), 16, &Tokenize, &Sum, cfg)
            .unwrap()
    };

    group.bench_function("no-combiner", |b| b.iter(|| word_count(&cfg)));
    group.bench_function("with-combiner", |b| {
        b.iter(|| {
            Pipeline::new("wc")
                .run_stage_with_combiner(input.clone(), 16, &Tokenize, &SumCombiner, &Sum, &cfg)
                .unwrap()
        })
    });
    for workers in [1usize, 4] {
        let cfg = JobConfig::named("wc").reducers(8).workers(workers);
        group.bench_function(BenchmarkId::new("workers", workers), |b| {
            b.iter(|| word_count(&cfg))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_shuffle
}
criterion_main!(benches);
